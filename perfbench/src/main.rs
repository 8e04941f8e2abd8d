//! RETRO end-to-end benchmark on TMDB at the paper's size.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_read|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A run whose outputs
//! fail a check prints `"correct": false` and exits with code 1. See
//! `perfbench/README.md` for the workloads and what each metric measures.

mod inputs;
mod rig;
mod serve;
mod trace;

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use inputs::{Generated, Rng, Truth};
use rig::{Settings, Store};
use serve::{Generations, Rankings, ReadStats};
use trace::{median, tail, Trace};

/// Set-ups per run. The first warms the process up (its build runs 10–20%
/// slower, on fresh pages) and is the reference for bit-identity;
/// `setup_s` and `build_s` are the medians of the others.
const SETUPS: usize = 3;
/// `serve_mixed`: write batches while the reader runs.
const SERVE_MIXED_BATCHES: usize = 4;
/// `serve_read`: write batches timed on their own, after the reads.
const SERVE_READ_BATCHES: usize = 3;
/// Persists per run; `persist_s` is their median.
const PERSISTS: usize = 2;
/// Restarts from the persisted state per run; `recover_s` is their median.
const RESTARTS: usize = 2;
/// Rows per write batch.
const BATCH_ROWS: usize = 16;
/// Tokens whose rankings must survive a restart bit for bit.
const RANKED_TOKENS: usize = 8;
/// Tokens behind `knn_recall10`.
const RECALL_TOKENS: usize = 48;
/// Reads generated per serving client (replayed in order, wrapping).
const STREAM_LEN: usize = 4096;

const WORKLOADS: [&str; 2] = ["serve_read", "serve_mixed"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: "", seed: 1, seconds: 0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| format!("unknown workload {value}; one of {WORKLOADS:?}"))?;
            }
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => args.trace = num(&value)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds == 0 {
        return Err("--seconds is required and must be at least 1".into());
    }
    Ok(args)
}

/// Everything a run measures.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    persist_s: Vec<f64>,
    recover_s: Vec<f64>,
    fresh_s: Vec<f64>,
    refresh_s: Vec<f64>,
    reads: ReadStats,
    /// Read clients running at once.
    read_clients: usize,
    recall: f64,
    wal_bytes_per_row: Vec<f64>,
    snapshot_mb: (f64, f64),
    admitted: u64,
    refreshes: u64,
    deltas: u64,
    generations_alive: usize,
    list_skew: f64,
}

impl Run {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    fn add_reads(&mut self, stats: ReadStats) {
        self.attempted += stats.ops() as u64;
        self.failed += stats.failed;
        self.reads.merge(stats);
    }

    fn add_fresh(&mut self, fresh: serve::Fresh) {
        self.attempted += BATCH_ROWS as u64 + 1;
        self.refreshes += 1;
        self.deltas += u64::from(fresh.delta);
        self.fresh_s.push(fresh.fresh_s);
        self.refresh_s.push(fresh.refresh_s);
        if !fresh.ok {
            self.failed += 1;
            eprintln!("check failed: write batch not delta-refreshed or not visible");
        }
    }
}

/// The shared context of one run.
struct Bench {
    args: Args,
    settings: Settings,
    dir: std::path::PathBuf,
    trace: Trace,
    truth: Truth,
    base: retro_embed::EmbeddingSet,
    first_hash: Option<u64>,
    /// When the process started.
    start: Instant,
    /// Inserts issued so far; the next batch takes the seed's next ones.
    inserted: usize,
    /// The serving store's generations.
    generations: Generations,
    run: Run,
}

impl Bench {
    /// One set-up: ingest the dataset into a fresh WAL-backed store and
    /// register it. `generated` carries the dataset and the seconds it took
    /// to produce: generating it for the first set-up, copying it out of
    /// the previous set-up's store for the others. The first set-up is the
    /// warm-up and is not counted in `setup_s` or `build_s`; every later
    /// build's embeddings must match its bit for bit.
    fn set_up(&mut self, (generated, generate_s): (Generated, f64)) -> Store {
        let started = Instant::now();
        let (store, times) =
            rig::build(generated, &self.base, &self.dir.join("db"), self.settings, &self.trace);
        let setup_s = generate_s + started.elapsed().as_secs_f64();
        let build_s = times.ingest_s + times.register_s;
        let hash =
            rig::embedding_hash(&store.engine.service(rig::DB).expect("registered").snapshot());
        let warm = self.first_hash.is_some();
        eprintln!(
            "set-up {} {setup_s:.3}s, build {build_s:.3}s",
            if warm { "(counted)" } else { "(warm-up)" }
        );
        let run = &mut self.run;
        if warm {
            run.setup_s.push(setup_s);
            run.build_s.push(build_s);
        }
        run.wal_bytes_per_row.push(times.wal_bytes_per_row);
        let first = *self.first_hash.get_or_insert(hash);
        run.check(hash == first, "rebuilt embeddings differ from the first build");
        store
    }

    fn retire(&mut self, store: Store) {
        self.run.admitted += store.engine.admitted_count();
        drop(store);
    }

    /// The next `rows` of the seed's inserts, as one write batch.
    fn write_batch(&mut self, store: &Store, rows: usize) -> serve::Fresh {
        let inserts = self.next_inserts(rows);
        serve::fresh_batch(&store.engine, &inserts, &self.generations, &self.trace)
    }

    fn next_inserts(&mut self, rows: usize) -> Vec<inputs::Insert> {
        let first = self.inserted;
        self.inserted += rows;
        (first..self.inserted).map(|j| inputs::insert(&self.truth, self.args.seed, j)).collect()
    }

    /// Persist [`PERSISTS`] times, drop the engine, restart from disk
    /// [`RESTARTS`] times, and check that every restarted engine ranks
    /// exactly as the old one did.
    fn restart(&mut self, store: Store, tokens: &[String]) {
        let dir = self.dir.join("db");
        for _ in 0..PERSISTS {
            let (checkpoint_s, save_s) = rig::persist(&store, &dir, &self.trace);
            self.run.persist_s.push(checkpoint_s + save_s);
        }
        self.run.snapshot_mb = rig::snapshot_sizes(&dir);
        let before: Rankings = serve::rankings(&store.engine, tokens);
        self.retire(store);
        for _ in 0..RESTARTS {
            let (store, db_s, engine_s) =
                rig::recover(&dir, &self.base, self.settings, &self.trace);
            self.run.recover_s.push(db_s + engine_s);
            let after = serve::rankings(&store.engine, tokens);
            self.run.check(before == after, "rankings changed across the restart");
            self.retire(store);
        }
    }

    /// Log how long a phase of the run took.
    fn lap(&self, name: &str, since: Instant) {
        eprintln!("phase {name:<20} {:>8.2}s", since.elapsed().as_secs_f64());
    }

    fn sample_tokens(&self, stream: u64, n: usize) -> Vec<String> {
        let mut rng = Rng::new(self.args.seed, stream);
        (0..n).map(|_| self.truth.token(&mut rng).to_owned()).collect()
    }

    /// `serve_read` (two readers) and `serve_mixed` (a reader and a
    /// writer), after [`SETUPS`] set-ups and untimed write batches that
    /// warm the refresh path up and fill the generation cache, so that
    /// every timed batch evicts a generation. Batches that fill the cache
    /// ran about 1.4× as long as those that evict one.
    fn serve(&mut self, generated: (Generated, f64), mixed: bool) {
        let mut store = self.set_up(generated);
        for _ in 1..SETUPS {
            let started = Instant::now();
            let generated = Generated::copy_of(&store.shared.read());
            let copy_s = started.elapsed().as_secs_f64();
            self.retire(store);
            store = self.set_up((generated, copy_s));
        }
        let phase = Instant::now();
        self.generations.publish(&store.engine);
        self.measure_index(&store);
        self.lap("set-ups", self.start);
        for _ in 1..self.settings.generation_cache.max(2) {
            let warm_up = self.write_batch(&store, BATCH_ROWS);
            self.run.check(warm_up.ok, "warm-up write not delta-refreshed or not visible");
            eprintln!("warm-up batch {:.0} ms", warm_up.fresh_s * 1e3);
        }
        self.lap("recall + warm-up", phase);
        let phase = Instant::now();

        let clients: u64 = if mixed { 1 } else { 2 };
        self.run.read_clients = clients as usize;
        let streams: Vec<_> = (0..clients)
            .map(|c| inputs::read_stream(&self.truth, self.args.seed, c, STREAM_LEN))
            .collect();
        // Readers stop once `--seconds` have passed and the writer (if
        // any) has finished its batches.
        let deadline = Instant::now() + Duration::from_secs(self.args.seconds);
        let writer: Vec<_> = (0..if mixed { SERVE_MIXED_BATCHES } else { 0 })
            .map(|_| self.next_inserts(BATCH_ROWS))
            .collect();
        let writing = AtomicBool::new(mixed);
        let done = || Instant::now() >= deadline && !writing.load(Ordering::Acquire);
        let this = &*self;
        let (reads, writes) = std::thread::scope(|s| {
            let readers: Vec<_> = streams
                .iter()
                .map(|ops| {
                    let (store, done) = (&store, &done);
                    s.spawn(move || {
                        let gens = &this.generations;
                        serve::read_client(&store.engine, &this.truth, ops, done, gens, &this.trace)
                    })
                })
                .collect();
            let writes: Vec<_> = writer
                .iter()
                .map(|inserts| {
                    serve::fresh_batch(&store.engine, inserts, &this.generations, &this.trace)
                })
                .collect();
            writing.store(false, Ordering::Release);
            let reads: Vec<_> = readers.into_iter().map(|r| r.join().expect("reader")).collect();
            (reads, writes)
        });
        self.lap("main loop", phase);
        let phase = Instant::now();
        for stats in reads {
            self.run.add_reads(stats);
        }
        writes.into_iter().for_each(|fresh| self.run.add_fresh(fresh));
        if !mixed {
            // `serve_read` times its write batches on their own, after the reads.
            for _ in 0..SERVE_READ_BATCHES {
                let fresh = self.write_batch(&store, BATCH_ROWS);
                self.run.add_fresh(fresh);
            }
        }
        self.run.generations_alive = self.generations.max_alive();
        let mut ranked = self.sample_tokens(0x2A4C, RANKED_TOKENS);
        ranked.push(inputs::insert(&self.truth, self.args.seed, self.inserted - 1).title);
        self.lap("write batches", phase);
        let phase = Instant::now();
        self.restart(store, &ranked);
        self.lap("persist + restart", phase);
    }

    /// Recall of the default probe depth and the index's list skew, on the
    /// first servable generation.
    fn measure_index(&mut self, store: &Store) {
        let tokens = self.sample_tokens(0x2EC0, RECALL_TOKENS);
        self.run.recall = serve::recall(&store.engine, &tokens);
        self.run.list_skew = serve::list_skew(&store.engine);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    let settings = match args.workload {
        "serve_mixed" => Settings { solver_threads: 1, generation_cache: 2 },
        _ => Settings { solver_threads: 2, generation_cache: 1 },
    };
    let trace = Trace::new(args.trace);
    let dir = rig::work_dir(args.workload);
    std::fs::create_dir_all(&dir).expect("working directory is writable");
    let started = Instant::now();
    let (generated, base) = Generated::new();
    let generate_s = started.elapsed().as_secs_f64();
    let truth = Truth::new(&generated);
    let mut bench = Bench {
        args,
        settings,
        dir,
        trace,
        truth,
        base,
        first_hash: None,
        start: started,
        inserted: 0,
        generations: Generations::default(),
        run: Run::default(),
    };
    let mixed = bench.args.workload == "serve_mixed";
    bench.serve((generated, generate_s), mixed);
    let _ = std::fs::remove_dir_all(&bench.dir);
    report(bench);
}

/// Peak resident set of this process in MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(run: &Run) -> Vec<Metric> {
    let us = |v: &[f64]| median(v) * 1e6;
    let [sql, knn, knn_join] = &run.reads.latency;
    vec![
        ("setup_s", median(&run.setup_s), "s"),
        ("build_s", median(&run.build_s), "s"),
        ("persist_s", median(&run.persist_s), "s"),
        ("recover_s", median(&run.recover_s), "s"),
        ("rss_peak_mb", rss_peak_mb(), "MB"),
        ("read_qps", run.reads.ops() as f64 / run.reads.busy_s * run.read_clients as f64, "1/s"),
        ("sql_p50_us", us(sql), "us"),
        ("sql_tail_us", tail(sql).0 * 1e6, "us"),
        ("knn_p50_us", us(knn), "us"),
        ("knn_join_p50_us", us(knn_join), "us"),
        ("knn_recall10", run.recall, "ratio"),
        ("fresh_p50_ms", median(&run.fresh_s) * 1e3, "ms"),
    ]
}

fn per_layer(run: &Run, trace: &Trace) -> Vec<Metric> {
    let s = |name: &str| median(&trace.durations(name));
    let build = median(&run.build_s);
    // The layers under `Engine::register`, replayed after it, plus the
    // ingest span: how much of build_s they account for.
    let covered = median(&trace.children_secs("core.engine.register"));
    let solve = s("core.solver.solve");
    let iter_ms = (solve - s("core.solver.solve_1iter")) / (rig::ITERATIONS - 1) as f64 * 1e3;
    vec![
        ("store.bulk.ingest_s", s("store.bulk.ingest"), "s"),
        ("core.catalog.extract_s", s("core.catalog.extract"), "s"),
        ("core.relations.extract_s", s("core.relations.extract"), "s"),
        ("core.problem.assemble_s", s("core.problem.assemble"), "s"),
        ("core.solver.solve_s", solve, "s"),
        ("core.solver.iter_ms", iter_ms, "ms"),
        ("nn.ann.build_s", s("nn.ann.build"), "s"),
        ("store.database.clone_s", s("store.database.clone"), "s"),
        ("store.wal.bytes_per_row", median(&run.wal_bytes_per_row), "count"),
        ("store.persist.checkpoint_s", s("store.persist.checkpoint"), "s"),
        ("store.persist.snapshot_mb", run.snapshot_mb.0, "MB"),
        ("core.persist.save_s", s("core.persist.save"), "s"),
        ("core.persist.snapshot_mb", run.snapshot_mb.1, "MB"),
        ("store.persist.recover_s", s("store.persist.recover"), "s"),
        ("core.persist.recover_s", s("core.persist.recover"), "s"),
        ("build.coverage", (s("store.bulk.ingest") + covered) / build, "ratio"),
        ("core.engine.session_us", s("core.engine.session") * 1e6, "us"),
        ("core.engine.session_drop_us", s("core.engine.session_drop") * 1e6, "us"),
        ("store.sql.parse_us", s("store.sql.parse") * 1e6, "us"),
        ("store.sql.exec_us", s("store.sql.exec") * 1e6, "us"),
        ("nn.ann.probe_us", s("nn.ann.probe") * 1e6, "us"),
        ("nn.ann.candidates_per_query", mean(&run.reads.candidates), "count"),
        ("nn.ann.list_max_over_mean", run.list_skew, "count"),
        ("store.sql.knn_join_self_us", median(&run.reads.knn_join_self_s) * 1e6, "us"),
        ("core.engine.admitted", run.admitted as f64, "count"),
        ("store.sql.insert_us", s("store.sql.insert") * 1e6, "us"),
        ("core.engine.refresh_ms", median(&run.refresh_s) * 1e3, "ms"),
        ("core.serve.delta_share", run.deltas as f64 / run.refreshes.max(1) as f64, "ratio"),
        ("core.engine.generations_alive", run.generations_alive as f64, "count"),
    ]
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { format!("{value}") } else { "null".into() };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn report(bench: Bench) {
    let Bench { args, trace, run, .. } = bench;
    let e2e = end_to_end(&run);
    eprintln!("== {} seed {} ({} s) ==", args.workload, args.seed, args.seconds);
    for (name, value, unit) in &e2e {
        eprintln!("  {name:<18} {value:>14.4} {unit}");
    }
    // Every class's tail, with its percentile and sample count; only the
    // `sql` one is a metric (see the README).
    for (class, samples) in ["sql", "knn", "knn_join"].iter().zip(&run.reads.latency) {
        let (value, pct, n) = tail(samples);
        eprintln!("  {class} tail {:.1} us = p{pct:.1} of {n} samples", value * 1e6);
    }
    let ms = |v: &[f64]| v.iter().map(|s| (s * 1e3) as u64).collect::<Vec<_>>();
    eprintln!(
        "  fresh samples ms {:?}, of which refresh {:?}",
        ms(&run.fresh_s),
        ms(&run.refresh_s)
    );
    eprintln!(
        "  build samples ms {:?}, persist {:?}, recover {:?}",
        ms(&run.build_s),
        ms(&run.persist_s),
        ms(&run.recover_s)
    );
    eprintln!(
        "  write batches {}   attempted {}   failed {}",
        run.fresh_s.len(),
        run.attempted,
        run.failed
    );

    let metrics = if trace.on() {
        let layers = per_layer(&run, &trace);
        eprintln!("{}", trace.summary());
        for (name, value, unit) in &layers {
            eprintln!("  {name:<32} {value:>14.4} {unit}");
        }
        let path =
            Path::new(rig::RUN_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match trace.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(err) => eprintln!("could not write spans to {}: {err}", path.display()),
        }
        // The traced run's own end-to-end figures: minus an untraced run's,
        // they are the tracing overhead (`compare.py overhead`).
        println!("# traced end_to_end {}", metrics_json(&e2e));
        layers
    } else {
        e2e
    };
    let correct = run.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted.max(1),
        run.failed,
        metrics_json(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
