//! **Paper-scale profile** — per-phase wall time of the full extraction +
//! solve pipeline at the paper's real dataset cardinalities (TMDB ~493k
//! text values, Google Play ~27k; Table 1).
//!
//! Phases reported per dataset: synthetic generation, **ingest** (loading
//! every generated row into a fresh database, measured both through the
//! row-by-row `Database::insert` path and the batched `BulkLoader` fast
//! path — the two produce identical state, asserted here, so the speedup
//! column is pure wall-time; see `docs/INGESTION.md`), text-value catalog
//! extraction (§3.3), relation extraction (§3.2), problem assembly (§3.1
//! tokenization + Eq. 5 centroids), RO solve (sequential and parallel), the
//! RO objective Ψ at the parallel solve's output (its four components and
//! the evaluation's wall time), RN solve (sequential and parallel).
//! Parallel solves are bit-identical to the sequential ones — the speedup
//! column is pure wall-time.
//!
//! ```text
//! cargo run --release -p retro-bench --bin paper_scale_profile \
//!     [--preset paper|small] [--threads 8] [--iterations 10]
//! ```
//!
//! The JSON report lands in `results/paper_scale_profile.json`; the README
//! "Performance" section has a table template for recording machine
//! results.

use std::sync::atomic::{AtomicBool, Ordering};

use retro_bench::{
    arg_num, arg_value, materialize_rows, schema_only_clone, time, write_report, ReportRow,
};
use retro_core::loss::evaluate_loss;
use retro_core::relations::extract_relations;
use retro_core::serve::{EmbeddingService, SearchMode};
use retro_core::solver::{solve, Solver};
use retro_core::{Hyperparameters, RefreshKind, RetroConfig, RetrofitProblem, TextValueCatalog};
use retro_datasets::{GooglePlayConfig, GooglePlayDataset, SizePreset, TmdbConfig, TmdbDataset};
use retro_embed::EmbeddingSet;
use retro_store::{Database, SharedDatabase, Value};

struct Phase {
    name: &'static str,
    secs: f64,
}

/// Load pre-materialized rows through the row-by-row `Database::insert`
/// path (the pre-PR-3 ingest).
fn load_row_by_row(mut out: Database, batch: Vec<(String, Vec<Vec<Value>>)>) -> Database {
    for (name, rows) in batch {
        for row in rows {
            out.insert(&name, row).expect("rows were valid at generation");
        }
    }
    out
}

/// Load pre-materialized rows through the batched `BulkLoader` fast path:
/// one batch, one commit.
fn load_bulk(mut out: Database, batch: Vec<(String, Vec<Vec<Value>>)>) -> Database {
    let mut loader = out.bulk();
    for (name, rows) in batch {
        let handle = loader.table(&name).expect("same schema set");
        loader.reserve(handle, rows.len());
        for row in rows {
            loader.stage(handle, row).expect("rows were valid at generation");
        }
    }
    loader.commit().expect("all stages succeeded");
    out
}

/// Assert a reloaded database matches the generated one exactly.
fn assert_reload_matches(db: &Database, reloaded: &Database, path: &str) {
    for table in db.tables() {
        let name = table.name();
        assert_eq!(
            table.rows(),
            reloaded.table(name).expect("present").rows(),
            "{path} reload diverged from the generated database in `{name}`"
        );
    }
}

/// Ingest phase: time both load paths over the full generated dataset and
/// assert each reproduces the generated state exactly (the equivalence the
/// `ingestion_equivalence` suite pins on random batches, demonstrated here
/// at paper scale). Each path gets a fresh pre-materialized input and the
/// previous path's output is dropped first, so neither timing is distorted
/// by the other's live memory.
fn profile_ingest(label: &str, db: &Database) -> Vec<Phase> {
    const REPS: usize = 3;
    let (schema_only, order) = schema_only_clone(db);
    let n_rows: usize = db.tables().map(retro_store::Table::len).sum();

    let mut row_secs = f64::INFINITY;
    for _ in 0..REPS {
        let batch = materialize_rows(db, &order);
        let (row_db, secs) = time(|| load_row_by_row(schema_only.clone(), batch));
        assert_reload_matches(db, &row_db, "row-by-row");
        row_secs = row_secs.min(secs);
    }
    println!("  {label}: ingest (row-by-row)      {row_secs:>9.3}s  ({n_rows} rows)");

    let mut bulk_secs = f64::INFINITY;
    for _ in 0..REPS {
        let batch = materialize_rows(db, &order);
        let (bulk_db, secs) = time(|| load_bulk(schema_only.clone(), batch));
        assert_reload_matches(db, &bulk_db, "bulk");
        bulk_secs = bulk_secs.min(secs);
    }
    println!(
        "  {label}: ingest (BulkLoader)      {bulk_secs:>9.3}s  (speedup {:.2}x)",
        row_secs / bulk_secs.max(1e-9)
    );

    vec![
        Phase { name: "ingest_row_by_row", secs: row_secs },
        Phase { name: "ingest_bulk", secs: bulk_secs },
    ]
}

/// Durability phase (`docs/DURABILITY.md`): the WAL + snapshot subsystem
/// at dataset scale. Reports the logged bulk load against the ephemeral
/// baseline (WAL write-bandwidth overhead — the batch commits as a single
/// `Batch` record carrying every row), recovery by replaying that log,
/// snapshot write (`checkpoint`), and recovery from the compacted
/// snapshot. The replay-vs-snapshot pair is the case for compaction:
/// replay scales with logged history, snapshot load with live state.
fn profile_durability(label: &str, db: &Database) -> Vec<Phase> {
    let (schema_only, order) = schema_only_clone(db);
    let n_rows: usize = db.tables().map(retro_store::Table::len).sum();
    let dir = std::env::temp_dir()
        .join(format!("retro_profile_durability_{label}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Ephemeral baseline for the overhead ratio, measured here so the two
    // sides share one materialization policy.
    let batch = materialize_rows(db, &order);
    let (ephemeral, ephemeral_secs) = time(|| load_bulk(schema_only.clone(), batch));
    drop(ephemeral);

    let batch = materialize_rows(db, &order);
    let (mut durable, durable_secs) = time(|| {
        let mut out = Database::open(&dir).expect("scratch dir is writable");
        for name in &order {
            out.create_table(db.table(name).expect("present").schema().clone())
                .expect("fresh database");
        }
        load_bulk(out, batch)
    });
    println!(
        "  {label}: durable bulk load        {durable_secs:>9.3}s  ({n_rows} rows; {:.2}x ephemeral)",
        durable_secs / ephemeral_secs.max(1e-9)
    );

    // Replay recovery: no snapshot yet, so every logged mutation re-runs
    // through the constraint-checked engine.
    let (replayed, replay_secs) = time(|| Database::recover(&dir).expect("intact log"));
    assert_reload_matches(db, &replayed, "WAL replay");
    drop(replayed);
    println!("  {label}: WAL replay recovery      {replay_secs:>9.3}s");

    let ((), snapshot_secs) = time(|| durable.checkpoint().expect("durable"));
    println!("  {label}: snapshot write           {snapshot_secs:>9.3}s");

    let (loaded, load_secs) = time(|| Database::recover(&dir).expect("intact snapshot"));
    assert_reload_matches(db, &loaded, "snapshot load");
    drop(loaded);
    println!(
        "  {label}: snapshot load            {load_secs:>9.3}s  (replay/load {:.2}x)",
        replay_secs / load_secs.max(1e-9)
    );

    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    vec![
        Phase { name: "durable_bulk_load", secs: durable_secs },
        Phase { name: "wal_replay_recovery", secs: replay_secs },
        Phase { name: "snapshot_write", secs: snapshot_secs },
        Phase { name: "snapshot_load", secs: load_secs },
    ]
}

fn profile_pipeline(
    label: &str,
    db: &Database,
    base: &EmbeddingSet,
    iterations: usize,
    threads: usize,
) -> Vec<Phase> {
    let mut phases = Vec::new();

    // The pre-index baseline: tuple-keyed catalog probes (one String
    // allocation each) and per-referencing-row target lookups — what
    // extraction cost before the store's secondary indexes and the
    // catalog's per-category interning maps.
    let (scan, scan_secs) = time(|| retro_bench::scan_extract::extract_scan(db));
    println!("  {label}: extraction (scan)        {scan_secs:>9.3}s  (pre-index baseline)");
    phases.push(Phase { name: "extraction_scan_baseline", secs: scan_secs });

    let (catalog, secs) = time(|| TextValueCatalog::extract(db, &[]));
    println!("  {label}: catalog extraction       {secs:>9.3}s  ({} text values)", catalog.len());
    phases.push(Phase { name: "catalog_extraction", secs });
    let cat_secs = secs;

    let (groups, secs) = time(|| extract_relations(db, &catalog, &[]));
    println!("  {label}: relation extraction      {secs:>9.3}s  ({} groups)", groups.len());
    phases.push(Phase { name: "relation_extraction", secs });

    // Indexed and scan extraction must agree bit-for-bit — same value
    // ids, same categories, same edges — or the speedup column is noise.
    retro_bench::scan_extract::assert_matches(&scan, &catalog, &groups);
    drop(scan);
    println!(
        "  {label}: extraction (indexed)     {:>9.3}s  (speedup {:.2}x, bit-identical)",
        cat_secs + secs,
        scan_secs / (cat_secs + secs).max(1e-9)
    );

    let (problem, secs) = time(|| RetrofitProblem::from_parts(catalog, groups, base));
    println!("  {label}: problem assembly         {secs:>9.3}s  (dim {})", problem.dim());
    phases.push(Phase { name: "problem_assembly", secs });

    // Solve timings: warm up each solver once (first contact with a
    // freshly assembled problem pays page faults and cache misses that
    // would otherwise be billed to whichever solve runs first), then take
    // the best of `SOLVE_REPS` runs — the minimum is robust against
    // scheduler/allocator interference on shared boxes, same policy as the
    // ingest phases above.
    let ro = Hyperparameters::paper_ro();
    let _ = solve(&problem, Solver::Ro, &ro, 1, None);
    let (w_seq, ro_seq) = best_of(|| solve(&problem, Solver::Ro, &ro, iterations, None));
    println!("  {label}: RO solve (1 thread)      {ro_seq:>9.3}s");
    phases.push(Phase { name: "ro_solve_sequential", secs: ro_seq });

    let (w_par, ro_par) =
        best_of(|| solve(&problem, Solver::Ro, &ro.with_threads(threads), iterations, None));
    println!(
        "  {label}: RO solve ({threads} threads)     {ro_par:>9.3}s  (speedup {:.2}x)",
        ro_seq / ro_par.max(1e-9)
    );
    phases.push(Phase { name: "ro_solve_parallel", secs: ro_par });
    assert_eq!(
        w_seq.max_abs_diff(&w_par),
        0.0,
        "parallel RO diverged from sequential — determinism invariant broken"
    );
    drop(w_seq);
    let (loss, secs) = time(|| evaluate_loss(&problem, &ro, &w_par));
    println!(
        "  {label}: RO loss Ψ                {secs:>9.3}s  (anchor {:.6e}, categorial {:.6e}, \
         attraction {:.6e}, repulsion {:.6e}, total {:.6e})",
        loss.anchor,
        loss.categorial,
        loss.attraction,
        loss.repulsion,
        loss.total()
    );
    phases.push(Phase { name: "ro_loss_eval", secs });
    drop(w_par);

    let rn = Hyperparameters::paper_rn();
    let _ = solve(&problem, Solver::Rn, &rn, 1, None);
    let (w_seq, rn_seq) = best_of(|| solve(&problem, Solver::Rn, &rn, iterations, None));
    println!("  {label}: RN solve (1 thread)      {rn_seq:>9.3}s");
    phases.push(Phase { name: "rn_solve_sequential", secs: rn_seq });

    let (w_par, rn_par) =
        best_of(|| solve(&problem, Solver::Rn, &rn.with_threads(threads), iterations, None));
    println!(
        "  {label}: RN solve ({threads} threads)     {rn_par:>9.3}s  (speedup {:.2}x)",
        rn_seq / rn_par.max(1e-9)
    );
    phases.push(Phase { name: "rn_solve_parallel", secs: rn_par });
    assert_eq!(
        w_seq.max_abs_diff(&w_par),
        0.0,
        "parallel RN diverged from sequential — determinism invariant broken"
    );

    phases
}

/// Serving phase: reader throughput from an `EmbeddingService` snapshot,
/// idle and **while a writer refreshes** — the read-while-update shape the
/// serving layer exists for. The refresh is a real one (write-version bump,
/// re-extraction under the database read guard, warm-start solve, snapshot
/// swap); readers run concurrently on the main thread's siblings and are
/// expected to be unaffected, since the query path takes no lock a refresh
/// holds.
fn profile_serving(
    label: &str,
    db: &Database,
    base: &EmbeddingSet,
    threads: usize,
    insert: &StreamingInsert,
) -> Vec<Phase> {
    let shared = SharedDatabase::new(db.clone());
    let config = RetroConfig::default()
        .with_params(Hyperparameters::paper_rn().with_threads(threads))
        .with_iterations(5);
    let (service, start_secs) =
        time(|| EmbeddingService::start(shared.clone(), base.clone(), config).expect("valid base"));
    println!("  {label}: serve start (full run)   {start_secs:>9.3}s");

    let snapshot = service.snapshot();
    let n = snapshot.len();
    // The memory ledger's index slice: the index holds codes, not rows.
    let mb = |bytes: usize| bytes as f64 / 1e6;
    println!(
        "  {label}: ann index memory          {:>8.1}MB  (the f32 rows it serves: {:.1}MB)",
        mb(snapshot.index().bytes()),
        mb(size_of_val(snapshot.output().embeddings.as_slice()))
    );
    let queries: Vec<Vec<f32>> =
        (0..64).map(|i| snapshot.output().embeddings.row(i * 97 % n).to_vec()).collect();
    let run_query = |i: usize| {
        let top = service.nearest(&queries[i % queries.len()], 10, SearchMode::Exact);
        assert!(top.len() <= 10);
    };

    // The ANN path on the same panel: sub-linear probe scan at the
    // snapshot's default probe depth (serve_queries reports the matching
    // recall@10; this phase is the speed side at profile scale).
    let probes = snapshot.default_probes();
    const ANN_QUERIES: usize = 1000;
    let (_, ann_secs) = time(|| {
        for i in 0..ANN_QUERIES {
            let top =
                service.nearest(&queries[i % queries.len()], 10, SearchMode::Approx { probes });
            assert!(top.len() <= 10);
        }
    });
    println!(
        "  {label}: serve query (ann p={probes})  {:>8.3}ms/query  ({:.0} q/s)",
        ann_secs / ANN_QUERIES as f64 * 1e3,
        ANN_QUERIES as f64 / ann_secs.max(1e-9)
    );

    // Idle baseline: no writer anywhere.
    const IDLE_QUERIES: usize = 100;
    let (_, idle_secs) = time(|| {
        for i in 0..IDLE_QUERIES {
            run_query(i);
        }
    });
    println!(
        "  {label}: serve query (idle)       {:>9.3}ms/query  ({:.0} q/s)",
        idle_secs / IDLE_QUERIES as f64 * 1e3,
        IDLE_QUERIES as f64 / idle_secs.max(1e-9)
    );

    // Contended: time each query individually while one writer bumps the
    // write version and publishes a full refresh; only queries that start
    // AND finish inside the refresh window count, so the reported latency
    // is not diluted by idle samples (nor inflated by coarse counting).
    let refreshing = AtomicBool::new(false);
    let (during, refresh_secs) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            // A real single-row insert, completed by an explicitly FULL
            // refresh: this phase measures reader latency while the
            // *longest* refresh runs — the delta path is profiled
            // separately by the streaming phase.
            shared.with_write(|db| insert.insert(db, 0));
            refreshing.store(true, Ordering::Release);
            let (generation, secs) = time(|| service.refresh_full().expect("refresh"));
            refreshing.store(false, Ordering::Release);
            assert_eq!(generation, 2);
            secs
        });
        let mut during: Vec<f64> = Vec::new();
        let mut i = 0usize;
        while !writer.is_finished() {
            let started_contended = refreshing.load(Ordering::Acquire);
            let ((), secs) = time(|| run_query(i));
            i += 1;
            if started_contended && refreshing.load(Ordering::Acquire) {
                during.push(secs);
            }
        }
        (during, writer.join().expect("writer"))
    });
    // A refresh shorter than one query leaves no fully-contained sample;
    // fall back to the idle figure rather than inventing one.
    let during_secs = if during.is_empty() {
        idle_secs / IDLE_QUERIES as f64
    } else {
        during.iter().sum::<f64>() / during.len() as f64
    };
    println!(
        "  {label}: serve query (refreshing) {:>9.3}ms/query  ({:.0} q/s while a {:.3}s refresh runs; {} samples)",
        during_secs * 1e3,
        1.0 / during_secs.max(1e-9),
        refresh_secs,
        during.len()
    );

    vec![
        Phase { name: "serve_start", secs: start_secs },
        Phase { name: "serve_query_idle", secs: idle_secs / IDLE_QUERIES as f64 },
        Phase { name: "serve_query_ann", secs: ann_secs / ANN_QUERIES as f64 },
        Phase { name: "serve_refresh", secs: refresh_secs },
        Phase { name: "serve_query_during_refresh", secs: during_secs },
    ]
}

/// Streaming-update phase: sustained single-row inserts against a live
/// service, one refresh per insert — the delta-scoped path end to end.
/// Reports the refresh latency distribution (p50/p99), the ratio to a full
/// warm refresh of the same service, and reader throughput *while the
/// stream runs* (queries never block on the writer or the refresh).
fn profile_streaming(
    label: &str,
    db: &Database,
    base: &EmbeddingSet,
    threads: usize,
    insert: &StreamingInsert,
) -> Vec<Phase> {
    let shared = SharedDatabase::new(db.clone());
    let config = RetroConfig::default()
        .with_params(Hyperparameters::paper_rn().with_threads(threads))
        .with_iterations(5);
    let service =
        EmbeddingService::start(shared.clone(), base.clone(), config).expect("valid base");

    // The denominator: what the same one-row insert costs on the full
    // (re-extract + re-solve everything) path.
    shared.with_write(|db| insert.insert(db, 0));
    let (_, full_secs) = time(|| service.refresh_full().expect("refresh"));
    println!("  {label}: full refresh (1 insert)  {full_secs:>9.3}s");

    // Prime the delta path: the first delta refresh after a full solve
    // runs on cold caches and stays out of the stream's latencies.
    shared.with_write(|db| insert.insert(db, 1));
    service.refresh().expect("refresh");
    assert_eq!(
        service.last_refresh(),
        Some(RefreshKind::Delta),
        "a single-row insert must take the delta path"
    );
    let trace = service.last_trace().expect("a refresh publishes its trace");
    println!("  {label}: priming refresh          {trace}");

    // The stream: one insert, one refresh, repeat — with a reader
    // hammering nearest-neighbour queries the whole time.
    const STREAM: usize = 32;
    let query = service.snapshot().output().embeddings.row(0).to_vec();
    let stop = AtomicBool::new(false);
    let ((latencies, reads), window_secs) = time(|| {
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut count = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let top = service.nearest(&query, 10, SearchMode::Exact);
                    assert!(top.len() <= 10);
                    count += 1;
                }
                count
            });
            let mut latencies = Vec::with_capacity(STREAM);
            for i in 0..STREAM {
                // The insert pays the copy of the table it writes: the
                // last refresh froze the store by sharing every table.
                let (_, insert_secs) = time(|| shared.with_write(|db| insert.insert(db, 2 + i)));
                let (_, secs) = time(|| service.refresh().expect("refresh"));
                assert_eq!(
                    service.last_refresh(),
                    Some(RefreshKind::Delta),
                    "streamed insert fell off the delta path"
                );
                let trace = service.last_trace().expect("a refresh publishes its trace");
                println!("  {label}: refresh {i:>2}: insert {:.1} ms, {trace}", insert_secs * 1e3);
                latencies.push(secs);
            }
            stop.store(true, Ordering::Release);
            (latencies, reader.join().expect("reader"))
        })
    });

    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let p50 = sorted[sorted.len() / 2];
    let p99 = sorted[((sorted.len() as f64 * 0.99) as usize).min(sorted.len() - 1)];
    let read_secs = window_secs / reads.max(1) as f64;
    println!(
        "  {label}: streaming refresh        {:>9.3}ms p50  ({:.3}ms p99; {:.2}% of a full refresh)",
        p50 * 1e3,
        p99 * 1e3,
        100.0 * p50 / full_secs.max(1e-9)
    );
    println!(
        "  {label}: reader during stream     {:>9.3}ms/query  ({:.0} q/s over {} refreshes)",
        read_secs * 1e3,
        reads as f64 / window_secs.max(1e-9),
        STREAM
    );

    vec![
        Phase { name: "streaming_update_full_refresh", secs: full_secs },
        Phase { name: "streaming_update_p50", secs: p50 },
        Phase { name: "streaming_update_p99", secs: p99 },
        Phase { name: "streaming_update_reader_query", secs: read_secs },
    ]
}

/// One synthetic streamed row per call: a pk past everything generated,
/// fresh text values where a live ingest would have them, existing
/// foreign-key targets. `captured` holds values copied from the generated
/// data (an existing language / category id) so the row always validates.
struct StreamingInsert {
    table: &'static str,
    next_id: i64,
    captured: Vec<Value>,
    build: fn(i64, usize, &[Value]) -> Vec<Value>,
}

impl StreamingInsert {
    fn insert(&self, db: &mut Database, i: usize) {
        db.insert(self.table, (self.build)(self.next_id + i as i64, i, &self.captured))
            .expect("valid streamed row");
    }
}

fn max_pk(db: &Database, table: &str) -> i64 {
    db.table(table)
        .expect("table generated")
        .rows()
        .iter()
        .map(|r| match r[0] {
            Value::Int(id) => id,
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

/// The `i`-th streamed movie: unique title and overview (two genuinely new
/// text values), an existing language, zeroed numerics.
fn tmdb_streaming_insert(db: &Database) -> StreamingInsert {
    let language = db.table("movies").expect("movies").row(0).expect("generated movies")[3].clone();
    StreamingInsert {
        table: "movies",
        next_id: max_pk(db, "movies") + 1,
        captured: vec![language],
        build: |id, i, captured| {
            vec![
                Value::Int(id),
                Value::from(format!("streamed movie {i}")),
                Value::from(format!("an overview of streamed movie {i}")),
                captured[0].clone(),
                Value::Float(0.0),
                Value::Float(0.0),
                Value::Float(0.0),
            ]
        },
    }
}

/// The Google Play counterpart: a new app name, an existing category /
/// pricing / age group (foreign keys to already-interned values).
fn gplay_streaming_insert(db: &Database) -> StreamingInsert {
    let template = db.table("apps").expect("apps").row(0).expect("generated apps");
    StreamingInsert {
        table: "apps",
        next_id: max_pk(db, "apps") + 1,
        captured: template[3..6].to_vec(),
        build: |id, i, captured| {
            vec![
                Value::Int(id),
                Value::from(format!("streamed app {i}")),
                Value::Float(3.0),
                captured[0].clone(),
                captured[1].clone(),
                captured[2].clone(),
            ]
        },
    }
}

/// Run `f` three times; return the last result and the fastest wall time.
fn best_of<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    const SOLVE_REPS: usize = 3;
    let (mut out, mut best) = time(&mut f);
    for _ in 1..SOLVE_REPS {
        let (r, secs) = time(&mut f);
        out = r;
        best = best.min(secs);
    }
    (out, best)
}

fn main() {
    let preset = SizePreset::from_name(&arg_value("preset", "paper")).unwrap_or_else(|| {
        eprintln!("unknown --preset (expected `small` or `paper`); using paper");
        SizePreset::Paper
    });
    let default_threads =
        std::thread::available_parallelism().map(usize::from).unwrap_or(1).clamp(1, 8);
    let threads: usize = arg_num("threads", default_threads);
    let iterations: usize = arg_num("iterations", 10);

    println!("== Paper-scale extraction + solve profile ==");
    println!("preset: {preset}   threads: {threads}   iterations: {iterations}");

    let mut rows = Vec::new();

    println!("\n-- TMDB ({preset}) --");
    let (tmdb, secs) = time(|| TmdbDataset::generate(TmdbConfig::preset(preset)));
    println!(
        "  tmdb: generation               {secs:>9.3}s  ({} movies, {} tables)",
        tmdb.movie_titles.len(),
        tmdb.db.table_count()
    );
    rows.push(ReportRow::from_samples("tmdb/generation", &[secs]));
    for phase in profile_ingest("tmdb", &tmdb.db) {
        rows.push(ReportRow::from_samples(format!("tmdb/{}", phase.name), &[phase.secs]));
    }
    for phase in profile_durability("tmdb", &tmdb.db) {
        rows.push(ReportRow::from_samples(format!("tmdb/{}", phase.name), &[phase.secs]));
    }
    for phase in profile_pipeline("tmdb", &tmdb.db, &tmdb.base, iterations, threads) {
        rows.push(ReportRow::from_samples(format!("tmdb/{}", phase.name), &[phase.secs]));
    }
    let insert = tmdb_streaming_insert(&tmdb.db);
    for phase in profile_serving("tmdb", &tmdb.db, &tmdb.base, threads, &insert) {
        rows.push(ReportRow::from_samples(format!("tmdb/{}", phase.name), &[phase.secs]));
    }
    for phase in profile_streaming("tmdb", &tmdb.db, &tmdb.base, threads, &insert) {
        rows.push(ReportRow::from_samples(format!("tmdb/{}", phase.name), &[phase.secs]));
    }
    drop(insert);
    drop(tmdb);

    println!("\n-- Google Play ({preset}) --");
    let (gplay, secs) = time(|| GooglePlayDataset::generate(GooglePlayConfig::preset(preset)));
    println!(
        "  gplay: generation              {secs:>9.3}s  ({} apps, {} tables)",
        gplay.app_names.len(),
        gplay.db.table_count()
    );
    rows.push(ReportRow::from_samples("gplay/generation", &[secs]));
    for phase in profile_ingest("gplay", &gplay.db) {
        rows.push(ReportRow::from_samples(format!("gplay/{}", phase.name), &[phase.secs]));
    }
    for phase in profile_durability("gplay", &gplay.db) {
        rows.push(ReportRow::from_samples(format!("gplay/{}", phase.name), &[phase.secs]));
    }
    for phase in profile_pipeline("gplay", &gplay.db, &gplay.base, iterations, threads) {
        rows.push(ReportRow::from_samples(format!("gplay/{}", phase.name), &[phase.secs]));
    }
    let insert = gplay_streaming_insert(&gplay.db);
    for phase in profile_serving("gplay", &gplay.db, &gplay.base, threads, &insert) {
        rows.push(ReportRow::from_samples(format!("gplay/{}", phase.name), &[phase.secs]));
    }
    for phase in profile_streaming("gplay", &gplay.db, &gplay.base, threads, &insert) {
        rows.push(ReportRow::from_samples(format!("gplay/{}", phase.name), &[phase.secs]));
    }

    let path = write_report(
        "paper_scale_profile",
        &format!("Paper-scale profile ({preset}, {threads} threads)"),
        &rows,
    );
    println!("\nreport: {}", path.display());
}
