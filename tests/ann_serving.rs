//! Index/refresh coherence for the served ANN path.
//!
//! The contract: whatever refresh plan published a snapshot — delta patch,
//! no-change republish, or full rebuild — the snapshot's IVF index must be
//! indistinguishable from an index freshly assigned from the snapshot's
//! own rows. Concretely, after every refresh:
//!
//! * the index covers exactly the snapshot's rows (no tear);
//! * its assignments are bit-identical to a fresh `with_centroids`
//!   assignment of the same rows against the same centroids (the
//!   frozen-centroid patching contract of `IvfIndex::refreshed`);
//! * it answers **identically — same ids, same scores —** to that fresh
//!   index at serving probe depth, and to the exact `top_k_cosine` oracle
//!   at full probe depth;
//! * after a *full* refresh, the index is bit-identical to
//!   `IvfIndex::build` from scratch (full refreshes retrain centroids).
//!
//! Pinned over randomized DML sequences (inserts, numeric updates,
//! relational updates — exercising the delta, no-change and full plans)
//! for both solvers at 1 and 8 threads, plus a concurrent stress mirror
//! of `tests/serving.rs` where readers query through `SearchMode::Approx`
//! while a writer forces refreshes (`RETRO_SERVE_STRESS` raises the soak).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use retro::core::serve::{EmbeddingService, SearchMode, Snapshot};
use retro::core::{RefreshKind, RetroConfig, Solver};
use retro::embed::nn::top_k_cosine;
use retro::embed::EmbeddingSet;
use retro::linalg::Matrix;
use retro::nn::ann::IvfIndex;
use retro::store::{sql, Database, SharedDatabase, Value};

/// Stress-loop iteration count (see `tests/serving.rs`).
fn stress_rounds(default: usize) -> usize {
    std::env::var("RETRO_SERVE_STRESS").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn base() -> EmbeddingSet {
    let tokens: Vec<String> = (0..40).map(|i| format!("tok{i}")).collect();
    let vectors: Vec<Vec<f32>> =
        (0..40).map(|i| (0..8).map(|d| ((i * 7 + d * 3) as f32 * 0.37).sin()).collect()).collect();
    EmbeddingSet::new(tokens, vectors)
}

fn movie_title(id: i64) -> Value {
    Value::from(format!("movie{id} tok{} tok{}", 8 + (id % 16), 24 + (id % 16)))
}

fn person_name(id: i64) -> Value {
    Value::from(format!("person{id} tok{} tok{}", id % 8, 4 + (id % 8)))
}

/// A service over the serving schema plus a numeric column, with the id
/// bookkeeping needed to aim updates at valid rows.
struct Harness {
    service: Arc<EmbeddingService>,
    movie_ids: Vec<i64>,
    person_ids: Vec<i64>,
    next: i64,
}

impl Harness {
    fn start(n_movies: usize, solver: Solver, threads: usize) -> Self {
        let mut db = Database::new();
        sql::run_script(
            &mut db,
            "CREATE TABLE persons (id INTEGER PRIMARY KEY, name TEXT);
             CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT, budget FLOAT,
                                  director_id INTEGER REFERENCES persons(id));",
        )
        .unwrap();
        let mut person_ids = Vec::new();
        for p in 0..4i64 {
            db.insert("persons", vec![Value::Int(p), person_name(p)]).unwrap();
            person_ids.push(p);
        }
        let mut movie_ids = Vec::new();
        for m in 0..n_movies as i64 {
            db.insert(
                "movies",
                vec![Value::Int(m), movie_title(m), Value::Float(m as f64), Value::Int(m % 4)],
            )
            .unwrap();
            movie_ids.push(m);
        }
        let cfg = RetroConfig::default().with_solver(solver);
        let params = cfg.params.with_threads(threads);
        let config = cfg.with_params(params).with_iterations(3);
        let service = EmbeddingService::start(SharedDatabase::new(db), base(), config).unwrap();
        // Keep single-row inserts on the delta plan even on a small graph,
        // so the sequence actually exercises index *patching*.
        service.tune_session(|s| s.delta_max_dirty_fraction = 1.0);
        Harness { service, movie_ids, person_ids, next: 10_000 }
    }

    /// Apply the op encoded by `b`: mostly inserts (delta plan), plus
    /// numeric updates (no-change plan) and relational updates (full
    /// fallback).
    fn apply(&mut self, b: u8) {
        self.next += 1;
        let id = self.next;
        let db = self.service.database();
        match b % 6 {
            0..=2 => {
                db.with_write(|db| {
                    db.insert(
                        "movies",
                        vec![
                            Value::Int(id),
                            movie_title(id),
                            Value::Float(0.0),
                            Value::Int(id % 4),
                        ],
                    )
                    .map(|_| ())
                })
                .unwrap();
                self.movie_ids.push(id);
            }
            3 => {
                db.with_write(|db| {
                    db.insert("persons", vec![Value::Int(id), person_name(id)]).map(|_| ())
                })
                .unwrap();
                self.person_ids.push(id);
            }
            4 => {
                let row = b as usize % self.movie_ids.len();
                db.with_write(|db| {
                    db.update_rows("movies", &[(row, 2, Value::Float(f64::from(b)))]).map(|_| ())
                })
                .unwrap();
            }
            _ => {
                let row = b as usize % self.movie_ids.len();
                let director = self.person_ids[b as usize % self.person_ids.len()];
                db.with_write(|db| {
                    db.update_rows("movies", &[(row, 3, Value::Int(director))]).map(|_| ())
                })
                .unwrap();
            }
        }
    }
}

/// The coherence oracle: the published index must be indistinguishable
/// from a fresh assignment of the snapshot's own rows.
fn assert_index_coherent(snap: &Snapshot, context: &str) {
    let m = &snap.output().embeddings;
    let norms = snap.norms();
    let index = snap.index();
    assert_eq!(index.len(), snap.len(), "index/matrix tear {context}");

    // Structural: bit-identical to re-assigning every row against the
    // index's own (frozen) centroids.
    let fresh = IvfIndex::with_centroids(m, norms, index.centroids().clone(), *index.config(), 1);
    assert_eq!(index.assignments(), fresh.assignments(), "stale assignment {context}");

    // Behavioural: same ids, same scores — vs the fresh index at serving
    // probe depth, and vs the exact oracle at full depth.
    let probes = snap.default_probes();
    for q in [0, snap.len() / 2, snap.len() - 1] {
        let query = m.row(q);
        assert_eq!(
            index.search(m, query, 10, probes),
            fresh.search(m, query, 10, probes),
            "probed answers diverged {context}"
        );
        assert_eq!(
            index.search(m, query, 10, index.nlist()),
            top_k_cosine(m, norms, query, 10, 1, |_| false),
            "full-probe answers left the oracle {context}"
        );
    }
}

fn run_sequence(solver: Solver, threads: usize, ops: &[u8]) {
    let mut harness = Harness::start(40, solver, threads);
    assert_index_coherent(&harness.service.snapshot(), "at initial publish");
    let mut kinds = Vec::new();
    for (step, &b) in ops.iter().enumerate() {
        harness.apply(b);
        harness.service.refresh().unwrap();
        let kind = harness.service.last_refresh().unwrap();
        kinds.push(kind);
        let snap = harness.service.snapshot();
        let context = format!("after step {step} (op {b}, {kind:?}, {solver:?} x{threads})");
        assert_index_coherent(&snap, &context);

        // A full refresh rebuilds from scratch: the published index must
        // be bit-identical to `IvfIndex::build` on the snapshot's rows.
        if kind == RefreshKind::Full {
            let built =
                IvfIndex::build(&snap.output().embeddings, snap.norms(), *snap.index().config(), 1);
            assert_eq!(snap.index().assignments(), built.assignments(), "{context}");
            assert_eq!(
                snap.index().centroids().as_slice(),
                built.centroids().as_slice(),
                "{context}"
            );
        }
    }
    // The sequence must actually have exercised the delta (patching) plan
    // whenever it inserted anything — otherwise this test pins nothing.
    if ops.iter().any(|&b| b % 6 <= 3) {
        assert!(
            kinds.contains(&RefreshKind::Delta),
            "no delta refresh in {kinds:?} — the patch path went untested"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized DML + refresh keeps the published index coherent, for
    /// both solvers, at 1 and 8 threads.
    #[test]
    fn refreshed_index_matches_a_fresh_build(ops in prop::collection::vec(0u8..=255, 1..6)) {
        for (solver, threads) in [(Solver::Rn, 1), (Solver::Rn, 8), (Solver::Ro, 1), (Solver::Ro, 8)] {
            run_sequence(solver, threads, &ops);
        }
    }
}

/// The dispatch pins, deterministically: one insert is a delta patch, one
/// numeric update is a no-change republish, one relational update is a
/// full rebuild — and the index stays coherent through each.
#[test]
fn each_refresh_plan_keeps_the_index_coherent() {
    let mut harness = Harness::start(32, Solver::Rn, 2);
    for (op, want) in
        [(0u8, RefreshKind::Delta), (4, RefreshKind::NoChange), (5, RefreshKind::Full)]
    {
        harness.apply(op);
        harness.service.refresh().unwrap();
        assert_eq!(harness.service.last_refresh(), Some(want), "op {op}");
        assert_index_coherent(&harness.service.snapshot(), &format!("after {want:?}"));
    }
}

/// Concurrent mirror of `tests/serving.rs`: readers query through the ANN
/// path while a writer forces refreshes. No torn index, monotone
/// generations, sane rankings at every observation.
#[test]
fn concurrent_ann_readers_observe_only_coherent_indexes() {
    let mut harness = Harness::start(24, Solver::Rn, 1);
    let service = Arc::clone(&harness.service);
    let stop = Arc::new(AtomicBool::new(false));
    let rounds = stress_rounds(4);

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_generation = 0u64;
                let mut observed = 0usize;
                while observed == 0 || !stop.load(Ordering::Acquire) {
                    let snap = service.snapshot();
                    assert!(
                        snap.generation() >= last_generation,
                        "generation went backwards: {} < {last_generation}",
                        snap.generation()
                    );
                    last_generation = snap.generation();

                    // No torn snapshot — the index included.
                    let rows = snap.output().embeddings.rows();
                    assert_eq!(snap.len(), rows, "catalog/matrix tear");
                    assert_eq!(snap.norms().len(), rows, "norm-cache tear");
                    assert_eq!(snap.index().len(), rows, "index tear");

                    // ANN queries on the snapshot are internally
                    // consistent, and full probing is still the oracle.
                    let query = snap.output().embeddings.row(0);
                    let probes = snap.default_probes();
                    let nn = snap.nearest(query, 8, SearchMode::Approx { probes });
                    assert!(nn.iter().all(|&(id, s)| id < rows && s.is_finite()));
                    assert!(nn.windows(2).all(|p| p[0].1 >= p[1].1), "ranking not descending");
                    assert_eq!(
                        snap.nearest(query, 8, SearchMode::Approx { probes: snap.index().nlist() }),
                        snap.nearest(query, 8, SearchMode::Exact),
                        "full-probe ANN left the oracle mid-stress"
                    );
                    observed += 1;
                }
                observed
            })
        })
        .collect();

    for round in 0..rounds {
        // Writer: the op mix drives delta, no-change and full plans.
        harness.apply(round as u8);
        harness.service.refresh().unwrap();
    }

    stop.store(true, Ordering::Release);
    for handle in readers {
        let observed = handle.join().expect("reader panicked — an ANN invariant broke");
        assert!(observed > 0, "reader never observed a snapshot");
    }
    assert_eq!(service.generation(), rounds as u64 + 1);
    assert_index_coherent(&service.snapshot(), "after the stress loop");
}

/// A splitmix64 stream for the chained-patch property's row choices.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

const DIM: usize = 8;

/// Four unit centroids: `e0` and `e1`, so a row `(t, t, …)` ties them
/// exactly in `f32`, and two generic ones that score such rows lower.
fn chain_centroids(mix: &mut Mix) -> Matrix {
    let mut rows = vec![vec![0.0f32; DIM]; 4];
    rows[0][0] = 1.0;
    rows[1][1] = 1.0;
    for row in &mut rows[2..] {
        row[0] = -0.3 - 0.2 * mix.unit().abs();
        row[1] = -0.3 - 0.2 * mix.unit().abs();
        for v in &mut row[2..] {
            *v = mix.unit();
        }
        let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt();
        row.iter_mut().for_each(|v| *v /= norm);
    }
    Matrix::from_rows(&rows)
}

/// One row of a kind: 0 near a centroid, 1 on the exact tie of lists 0
/// and 1, 2 on the bisector of lists 2 and 3 with large cancelling
/// components (its `f32` dots carry the most rounding), 3 degenerate.
fn chain_row(mix: &mut Mix, centroids: &Matrix, kind: usize) -> Vec<f32> {
    match kind {
        0 => {
            let c = centroids.row(mix.below(4));
            c.iter().map(|&v| v * (1.0 + mix.unit().abs()) + 0.2 * mix.unit()).collect()
        }
        1 => {
            let t = 0.5 + mix.unit().abs();
            let mut row: Vec<f32> = (0..DIM).map(|_| 0.05 * t * mix.unit()).collect();
            (row[0], row[1]) = (t, t);
            row
        }
        2 => {
            // Project a large random point onto the bisector in f64, then
            // pull it towards lists 2 and 3 so they lead the others.
            let (a, b) = (centroids.row(2), centroids.row(3));
            let p: Vec<f64> = (0..DIM)
                .map(|i| 60.0 * f64::from(mix.unit()) + 40.0 * f64::from(a[i] + b[i]))
                .collect();
            let diff: Vec<f64> =
                a.iter().zip(b).map(|(&x, &y)| f64::from(x) - f64::from(y)).collect();
            let along = p.iter().zip(&diff).map(|(x, d)| x * d).sum::<f64>()
                / diff.iter().map(|d| d * d).sum::<f64>();
            p.iter().zip(&diff).map(|(x, d)| (x - along * d) as f32).collect()
        }
        _ => {
            if mix.below(2) == 0 {
                vec![0.0; DIM]
            } else {
                let mut row = chain_row(mix, centroids, 0);
                row[mix.below(DIM)] = f32::NAN;
                row
            }
        }
    }
}

/// Move `row` by a few ulps in one or two components: a displacement far
/// below any margin that is not a rounding artefact.
fn nudge(mix: &mut Mix, row: &mut [f32]) {
    for _ in 0..1 + mix.below(2) {
        let v = &mut row[mix.below(DIM)];
        for _ in 0..1 + mix.below(4) {
            *v = if mix.below(2) == 0 { v.next_up() } else { v.next_down() };
        }
    }
}

/// Every structural part of a patched index equals a fresh assignment of
/// the same rows: config, centroid bits, assignments, list members, and
/// the codes, code parameters and norms bit for bit.
fn assert_patched_equals_fresh(patched: &IvfIndex, m: &Matrix, context: &str) {
    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }
    let norms = m.row_norms();
    let fresh =
        IvfIndex::with_centroids(m, &norms, patched.centroids().clone(), *patched.config(), 1);
    assert_eq!(patched.config(), fresh.config(), "{context}");
    assert_eq!(
        bits(patched.centroids().as_slice()),
        bits(fresh.centroids().as_slice()),
        "{context}"
    );
    assert_eq!(patched.assignments(), fresh.assignments(), "assignments {context}");
    for l in 0..fresh.nlist() {
        assert_eq!(patched.list(l), fresh.list(l), "list {l} {context}");
        assert_eq!(patched.list_codes(l), fresh.list_codes(l), "codes {l} {context}");
        let params = |index: &IvfIndex| -> Vec<u32> {
            index.list_params(l).iter().flat_map(|p| bits(&[p.lo, p.scale, p.err])).collect()
        };
        assert_eq!(params(patched), params(&fresh), "code parameters {l} {context}");
        assert_eq!(bits(patched.list_norms(l)), bits(fresh.list_norms(l)), "norms {l} {context}");
    }
}

/// One chain: build over generated rows, then `steps` patches, each
/// checked against a fresh assignment. Step 1 restarts the index through
/// `from_parts`, so the next patch runs on unknown margins. Returns the
/// certified and reassigned totals.
fn run_chain(seed: u64, steps: usize, threads: usize) -> (usize, usize) {
    let mut mix = Mix(seed);
    let centroids = chain_centroids(&mut mix);
    let mut rows: Vec<Vec<f32>> =
        (0..160).map(|i| chain_row(&mut mix, &centroids, [0, 0, 1, 2, 2, 2, 3][i % 7])).collect();
    let mut m = Matrix::from_rows(&rows);
    let config = retro::nn::ann::IvfConfig::auto(m.rows()).with_nlist(4);
    let mut index = IvfIndex::with_centroids(&m, &m.row_norms(), centroids.clone(), config, 1);
    let (mut certified, mut reassigned) = (0, 0);
    for step in 0..steps {
        if step == 1 {
            let norms = m.row_norms();
            let parts = (centroids.clone(), index.assignments().to_vec());
            index = IvfIndex::from_parts(&m, &norms, config, parts.0, parts.1).unwrap();
        }
        let mut dirty = Vec::new();
        for (r, row) in rows.iter_mut().enumerate() {
            match mix.below(10) {
                0..=4 => nudge(&mut mix, row),
                5 => {
                    let kind = mix.below(4);
                    *row = chain_row(&mut mix, &centroids, kind);
                }
                6 => {} // listed dirty, bits unchanged
                _ => continue,
            }
            dirty.push(r as u32);
        }
        for _ in 0..mix.below(4) {
            dirty.push(rows.len() as u32);
            let kind = mix.below(4);
            rows.push(chain_row(&mut mix, &centroids, kind));
        }
        let old = std::mem::replace(&mut m, Matrix::from_rows(&rows));
        let (patched, stats) = index.patched(&old, &m, &m.row_norms(), &dirty, threads);
        let context = format!("(seed {seed}, step {step}, {threads} threads, {stats:?})");
        assert_eq!(stats.certified + stats.reassigned, dirty.len(), "{context}");
        assert_eq!(stats.lists_rebuilt + stats.lists_shared, patched.nlist(), "{context}");
        if step == 1 {
            assert_eq!(stats.certified, 0, "a restarted index has no margins {context}");
        }
        assert_patched_equals_fresh(&patched, &m, &context);
        (certified, reassigned) = (certified + stats.certified, reassigned + stats.reassigned);
        index = patched;
    }
    (certified, reassigned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chained patches — ulp-sized nudges (the certified path), rows on an
    /// exact tie of two centroids and on the bisector of two others, rows
    /// turning degenerate and usable again, appends, and a `from_parts`
    /// restart — stay structurally identical to a fresh assignment after
    /// every step, at 1 and 3 threads.
    #[test]
    fn chained_patches_equal_a_fresh_assignment(seed in 0u64..u64::MAX, steps in 3usize..7) {
        for threads in [1, 3] {
            let (certified, reassigned) = run_chain(seed, steps, threads);
            prop_assert!(certified > 0, "no row took the certified path");
            prop_assert!(reassigned > 0, "no row took the full scan");
        }
    }
}
