//! The store lifecycle every workload shares: bulk ingest into a fresh
//! WAL-backed database, `Engine::register`, persist, and restart.
//!
//! `Engine::register` hides several layers; with tracing on, [`build`]
//! replays them through their own public functions on the same inputs,
//! as children of the register span, so the trace can say where build
//! time goes.

use std::path::{Path, PathBuf};
use std::time::Duration;

use retro_core::relations::extract_relations;
use retro_core::solver::solve_rn_parallel;
use retro_core::{Engine, EngineConfig, Hyperparameters, RetroConfig, RetrofitProblem};
use retro_core::{Snapshot, TextValueCatalog};
use retro_embed::EmbeddingSet;
use retro_nn::ann::{IvfConfig, IvfIndex};
use retro_store::{Database, DurabilityPolicy, SharedDatabase, SNAPSHOT_FILE, WAL_FILE};

use crate::inputs::Generated;
use crate::trace::Trace;

/// The one database name every engine serves.
pub const DB: &str = "tmdb";
/// Solver iterations of the initial retrofit.
pub const ITERATIONS: usize = 5;
const SERVE_SNAPSHOT: &str = "serve.rsrv";

/// Per-workload knobs of the shared set-up.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    pub solver_threads: usize,
    pub generation_cache: usize,
}

impl Settings {
    fn retro(&self) -> RetroConfig {
        RetroConfig::default()
            .with_params(Hyperparameters::paper_rn().with_threads(self.solver_threads))
            .with_iterations(ITERATIONS)
    }

    fn engine(&self) -> Engine {
        Engine::new(EngineConfig {
            generation_cache: self.generation_cache,
            ..EngineConfig::default()
        })
    }
}

/// A serving engine over a WAL-backed database in `dir`.
pub struct Store {
    pub engine: Engine,
    pub shared: SharedDatabase,
}

pub struct BuildTimes {
    pub ingest_s: f64,
    pub register_s: f64,
    pub wal_bytes_per_row: f64,
}

/// Bulk-ingest `generated` into a fresh WAL-backed database under `dir`
/// (group commit of 256 records or 2 ms), then register it.
pub fn build(
    generated: Generated,
    base: &EmbeddingSet,
    dir: &Path,
    settings: Settings,
    trace: &Trace,
) -> (Store, BuildTimes) {
    let _ = std::fs::remove_dir_all(dir);
    let rows = generated.rows();
    let req = trace.request();
    let (db, ingest_s, _) = trace.timed("store.bulk.ingest", 0, req, || {
        let mut db = Database::open(dir).expect("benchmark directory is writable");
        for (schema, _) in &generated.tables {
            db.create_table(schema.clone()).expect("tables arrive parents first");
        }
        let mut loader = db.bulk();
        for (schema, table_rows) in generated.tables {
            let handle = loader.table(&schema.name).expect("table just created");
            loader.reserve(handle, table_rows.len());
            for row in table_rows {
                loader.stage(handle, row).expect("generated rows are valid");
            }
        }
        loader.commit().expect("every row staged");
        db.set_durability_policy(DurabilityPolicy::Group(256, Duration::from_millis(2)))
            .expect("durable database accepts a policy");
        db
    });
    let wal_bytes = std::fs::metadata(dir.join(WAL_FILE)).map_or(0, |m| m.len());
    let shared = SharedDatabase::new(db);
    let engine = settings.engine();
    let ((), register_s, span) = trace.timed("core.engine.register", 0, req, || {
        engine.register(DB, shared.clone(), base.clone(), settings.retro()).expect("register")
    });
    if trace.on() {
        replay_register(&shared, base, settings, trace, span, req, &engine);
    }
    let times =
        BuildTimes { ingest_s, register_s, wal_bytes_per_row: wal_bytes as f64 / rows as f64 };
    (Store { engine, shared }, times)
}

/// The layers `Engine::register` runs, each through its own public
/// function on the registered database.
fn replay_register(
    shared: &SharedDatabase,
    base: &EmbeddingSet,
    settings: Settings,
    trace: &Trace,
    parent: u64,
    req: u64,
    engine: &Engine,
) {
    let db = shared.read();
    let threads = settings.solver_threads;
    let params = Hyperparameters::paper_rn().with_threads(threads);
    let (catalog, _, _) =
        trace.timed("core.catalog.extract", parent, req, || TextValueCatalog::extract(&db, &[]));
    let (groups, _, _) = trace
        .timed("core.relations.extract", parent, req, || extract_relations(&db, &catalog, &[]));
    let (problem, _, _) = trace.timed("core.problem.assemble", parent, req, || {
        RetrofitProblem::from_parts(catalog, groups, base)
    });
    let (solved, _, _) = trace.timed("core.solver.solve", parent, req, || {
        solve_rn_parallel(&problem, &params, ITERATIONS, threads)
    });
    // A one-iteration solve, so the marginal cost of an iteration can be
    // told apart from the kernel's set-up. Not a register layer: no parent.
    trace.timed("core.solver.solve_1iter", 0, req, || {
        solve_rn_parallel(&problem, &params, 1, threads)
    });
    let norms = solved.row_norms();
    trace.timed("nn.ann.build", parent, req, || {
        IvfIndex::build(&solved, &norms, IvfConfig::auto(solved.rows()), threads)
    });
    trace.timed("store.database.clone", parent, req, || db.clone());
    let served = engine.service(DB).expect("registered").snapshot();
    assert_eq!(
        matrix_hash(solved.as_slice()),
        embedding_hash(&served),
        "replayed solve differs from the registered one"
    );
}

/// Persist: store checkpoint, then the serving snapshot. Returns
/// `(checkpoint_s, save_s)`.
pub fn persist(store: &Store, dir: &Path, trace: &Trace) -> (f64, f64) {
    let req = trace.request();
    let (res, checkpoint_s, _) = trace.timed("store.persist.checkpoint", 0, req, || {
        store.shared.with_write(|db| db.checkpoint())
    });
    res.expect("checkpoint");
    let service = store.engine.service(DB).expect("registered");
    let (res, save_s, _) = trace
        .timed("core.persist.save", 0, req, || service.save_snapshot(&dir.join(SERVE_SNAPSHOT)));
    res.expect("save snapshot");
    (checkpoint_s, save_s)
}

/// Sizes in MB of the store snapshot and the serving snapshot.
pub fn snapshot_sizes(dir: &Path) -> (f64, f64) {
    let mb = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len()) as f64 / 1e6;
    (mb(SNAPSHOT_FILE), mb(SERVE_SNAPSHOT))
}

/// Restart from `dir`: `Database::recover` plus `Engine::register_recovered`.
/// Returns the store and `(recover_s, register_recovered_s)`.
pub fn recover(
    dir: &Path,
    base: &EmbeddingSet,
    settings: Settings,
    trace: &Trace,
) -> (Store, f64, f64) {
    let req = trace.request();
    let (db, db_s, _) = trace
        .timed("store.persist.recover", 0, req, || Database::recover(dir).expect("recover store"));
    let shared = SharedDatabase::new(db);
    let engine = settings.engine();
    let (res, engine_s, _) = trace.timed("core.persist.recover", 0, req, || {
        engine.register_recovered(
            DB,
            shared.clone(),
            base.clone(),
            settings.retro(),
            &dir.join(SERVE_SNAPSHOT),
        )
    });
    res.expect("register recovered");
    (Store { engine, shared }, db_s, engine_s)
}

/// FNV-1a over the bit patterns of the served embedding matrix.
pub fn embedding_hash(snapshot: &Snapshot) -> u64 {
    matrix_hash(snapshot.output().embeddings.as_slice())
}

fn matrix_hash(values: &[f32]) -> u64 {
    values.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Where runs write, relative to the working directory.
pub const RUN_DIR: &str = ".bench_run";

/// A scratch directory for this process under [`RUN_DIR`].
pub fn work_dir(workload: &str) -> PathBuf {
    Path::new(RUN_DIR).join(format!("{workload}-{}", std::process::id()))
}
