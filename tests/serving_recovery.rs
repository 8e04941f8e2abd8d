//! Full-system crash recovery for the serving layer
//! (`docs/DURABILITY.md`): a durable store + a persisted embedding
//! generation, killed and restarted.
//!
//! The contract under test:
//!
//! * after a restart, `EmbeddingService::recover` serves rankings
//!   **bit-identical** to the pre-crash generation — for the exact scan
//!   and for the full-probe approximate scan (which must reproduce the
//!   exact ranking bit for bit, crash or no crash);
//! * the recovered session is *live*: writes that landed after the
//!   snapshot are reported stale and the next refresh converges to
//!   exactly the state an uninterrupted service reaches — same solver
//!   path, bit-identical embeddings.
//!
//! Sizes default small so `cargo test` stays quick; CI raises
//! `RETRO_SERVE_STRESS` for a release-mode soak (same gate as
//! `tests/serving.rs`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use retro::core::serve::{EmbeddingService, SearchMode};
use retro::core::{Hyperparameters, IncrementalRetro, RefreshKind, RetroConfig};
use retro::embed::EmbeddingSet;
use retro::store::{Database, DurabilityPolicy, SharedDatabase, Value};

fn stress_rounds(default: usize) -> usize {
    std::env::var("RETRO_SERVE_STRESS").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "retro_serving_recovery_{}_{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn base() -> EmbeddingSet {
    let tokens: Vec<String> = (0..40).map(|i| format!("tok{i}")).collect();
    let vectors: Vec<Vec<f32>> =
        (0..40).map(|i| (0..8).map(|d| ((i * 7 + d * 3) as f32 * 0.37).sin()).collect()).collect();
    EmbeddingSet::new(tokens, vectors)
}

fn config() -> RetroConfig {
    RetroConfig::default()
        .with_params(Hyperparameters::paper_rn().with_threads(2))
        .with_iterations(3)
}

fn movie_title(id: i64) -> Value {
    Value::from(format!("movie{id} tok{} tok{}", 8 + (id % 16), 24 + (id % 16)))
}

/// Populate a **durable** database under `dir` via the store's normal
/// mutation paths (schema through SQL-equivalent builders, rows through
/// inserts), so the store side of the crash is real too.
fn populate(dir: &std::path::Path, n_movies: usize) -> Database {
    use retro::store::{sql, DataType, TableSchema};
    let mut db = Database::open(dir).unwrap();
    db.create_table(
        TableSchema::builder("persons").pk("id").column("name", DataType::Text).build(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("movies")
            .pk("id")
            .column("title", DataType::Text)
            .fk("director_id", "persons", "id")
            .build(),
    )
    .unwrap();
    for p in 0..4 {
        sql::run(&mut db, &format!("INSERT INTO persons VALUES ({p}, 'tok{p} tok{}')", p + 4))
            .unwrap();
    }
    for m in 0..n_movies as i64 {
        db.insert("movies", vec![Value::Int(m), movie_title(m), Value::Int(m % 4)]).unwrap();
    }
    db
}

fn insert_movie(db: &SharedDatabase, id: i64) {
    db.with_write(|db| {
        db.insert("movies", vec![Value::Int(id), movie_title(id), Value::Int(id % 4)]).map(|_| ())
    })
    .unwrap();
}

fn rankings(service: &EmbeddingService, queries: &[Vec<f32>], k: usize) -> Vec<Vec<(usize, f32)>> {
    let snap = service.snapshot();
    let full_probe = SearchMode::Approx { probes: snap.index().nlist() };
    queries
        .iter()
        .flat_map(|q| [snap.nearest(q, k, SearchMode::Exact), snap.nearest(q, k, full_probe)])
        .collect()
}

#[test]
fn restarted_service_serves_bit_identical_rankings_then_converges() {
    let scratch = ScratchDir::new();
    let n_movies = 8 * stress_rounds(3);
    let embed_path = scratch.0.join("embeddings.rsrv");

    // ---- Before the crash: durable store, served embeddings, both persisted.
    let db = populate(&scratch.0, n_movies);
    let shared = SharedDatabase::new(db);
    let survivor = EmbeddingService::start(shared, base(), config()).unwrap();
    insert_movie(survivor.database(), 900);
    survivor.refresh().unwrap();
    survivor.save_snapshot(&embed_path).unwrap();
    survivor.database().with_write(|db| db.checkpoint()).unwrap();

    let pre = survivor.snapshot();
    let queries: Vec<Vec<f32>> =
        (0..8.min(pre.len())).map(|i| pre.output().embeddings.row(i).to_vec()).collect();
    let expected = rankings(&survivor, &queries, 10);

    // ---- The crash: recover both layers from disk into a fresh process
    // image. (The survivor stays alive only as the reference oracle.)
    let recovered_db = Database::recover(&scratch.0).unwrap();
    assert_eq!(recovered_db.write_version(), survivor.database().write_version());
    let recovered =
        EmbeddingService::recover(SharedDatabase::new(recovered_db), base(), config(), &embed_path)
            .unwrap();

    // Same generation, bit-identical embeddings, bit-identical rankings —
    // exact and full-probe approximate.
    let post = recovered.snapshot();
    assert_eq!(post.generation(), pre.generation());
    assert_eq!(post.write_version(), pre.write_version());
    assert_eq!(
        post.output().embeddings.max_abs_diff(&pre.output().embeddings),
        0.0,
        "recovered embeddings must be bit-identical"
    );
    assert_eq!(rankings(&recovered, &queries, 10), expected);
    assert!(!recovered.out_of_date(), "store and embeddings were persisted together");

    // ---- Convergence: the same writes land on both sides; the recovered
    // session must refresh to exactly what the uninterrupted one reaches.
    let rounds = stress_rounds(3);
    for round in 0..rounds as i64 {
        insert_movie(survivor.database(), 1_000 + round);
        insert_movie(recovered.database(), 1_000 + round);
    }
    assert!(recovered.out_of_date());
    let survivor_gen = survivor.refresh().unwrap();
    let recovered_gen = recovered.refresh().unwrap();
    assert_eq!(survivor_gen, recovered_gen, "generation numbering survives the crash");
    assert_eq!(survivor.last_refresh(), recovered.last_refresh(), "same refresh dispatch");
    assert_eq!(
        recovered
            .snapshot()
            .output()
            .embeddings
            .max_abs_diff(&survivor.snapshot().output().embeddings),
        0.0,
        "post-crash refresh must converge to the uninterrupted result bit for bit"
    );
    let title = movie_title(1_000);
    assert!(recovered.snapshot().vector("movies", "title", title.as_text().unwrap()).is_some());
}

/// Readers keep getting complete, monotone generations across a recovery
/// handoff: pin a pre-crash snapshot, recover, refresh — the pinned Arc
/// still serves its generation untouched.
#[test]
fn pinned_pre_crash_snapshots_survive_recovery_refreshes() {
    let scratch = ScratchDir::new();
    let embed_path = scratch.0.join("embeddings.rsrv");
    let db = populate(&scratch.0, 12);
    let service = EmbeddingService::start(SharedDatabase::new(db), base(), config()).unwrap();
    service.save_snapshot(&embed_path).unwrap();

    let recovered_db = Database::recover(&scratch.0).unwrap();
    let recovered =
        EmbeddingService::recover(SharedDatabase::new(recovered_db), base(), config(), &embed_path)
            .unwrap();
    let pinned = recovered.snapshot();
    let before: Vec<f32> = pinned.output().embeddings.as_slice().to_vec();

    for round in 0..stress_rounds(2) as i64 {
        insert_movie(recovered.database(), 2_000 + round);
        recovered.refresh().unwrap();
    }
    assert_eq!(pinned.generation(), 1);
    assert_eq!(pinned.output().embeddings.as_slice(), &before[..]);
    assert!(recovered.generation() > Arc::clone(&pinned).generation());
}

/// A serving snapshot saved *ahead* of the store — group commit lost the
/// unflushed WAL tail in the crash — is not trusted: recovery replaces it
/// with a full refresh of what the store holds, and later writes are
/// served normally.
#[test]
fn snapshot_ahead_of_the_store_is_refreshed_on_recovery() {
    let scratch = ScratchDir::new();
    let embed_path = scratch.0.join("embeddings.rsrv");
    let mut db = populate(&scratch.0, 8);
    db.set_durability_policy(DurabilityPolicy::Group(1024, Duration::from_secs(3600))).unwrap();
    let shared = SharedDatabase::new(db);
    let service = EmbeddingService::start(shared.clone(), base(), config()).unwrap();
    insert_movie(&shared, 900);
    service.refresh().unwrap();
    service.save_snapshot(&embed_path).unwrap();
    let lost = movie_title(900);
    let lost = lost.as_text().unwrap();
    assert!(service.snapshot().vector("movies", "title", lost).is_some());
    let saved_version = service.snapshot().write_version();

    // The crash: nothing is dropped, so the buffered group never flushes.
    std::mem::forget(service);
    std::mem::forget(shared);

    let recovered_db = Database::recover(&scratch.0).unwrap();
    assert!(recovered_db.write_version() < saved_version, "the crash must lose the WAL tail");
    let recovered =
        EmbeddingService::recover(SharedDatabase::new(recovered_db), base(), config(), &embed_path)
            .unwrap();
    assert!(recovered.snapshot().vector("movies", "title", lost).is_none());
    assert_eq!(recovered.last_refresh(), Some(RefreshKind::Full));
    assert!(!recovered.out_of_date());

    insert_movie(recovered.database(), 901);
    assert!(recovered.out_of_date());
    assert!(recovered.refresh_if_stale().unwrap().is_some());
    let served = movie_title(901);
    assert!(recovered.snapshot().vector("movies", "title", served.as_text().unwrap()).is_some());
}

/// Every structural part of two indexes is the same: config, centroid
/// bits, list assignments and every list's members.
fn assert_same_index(a: &retro::nn::IvfIndex, b: &retro::nn::IvfIndex, what: &str) {
    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }
    assert_eq!(a.config(), b.config(), "{what}: config");
    assert_eq!(bits(a.centroids().as_slice()), bits(b.centroids().as_slice()), "{what}: centroids");
    assert_eq!(a.assignments(), b.assignments(), "{what}: assignments");
    assert_eq!(a.nlist(), b.nlist(), "{what}: list count");
    for l in 0..a.nlist() {
        assert_eq!(a.list(l), b.list(l), "{what}: list {l}");
    }
}

/// A restart serves the index that was saved, not a retrained one: the
/// recovered index is structurally the saved one, default-depth
/// approximate rankings match the pre-crash ones, and after the next
/// refresh the index equals that of a survivor that never restarted.
#[test]
fn restart_serves_the_saved_index_and_keeps_it_in_step() {
    let scratch = ScratchDir::new();
    let embed_path = scratch.0.join("embeddings.rsrv");
    let db = populate(&scratch.0, 8 * stress_rounds(3));
    let survivor = EmbeddingService::start(SharedDatabase::new(db), base(), config()).unwrap();
    // A delta refresh after the first build: the saved index is a patched
    // one, over more rows than its centroids were trained on, which a
    // retrained index would not reproduce.
    let any_dirty_set = |session: &mut IncrementalRetro| session.delta_max_dirty_fraction = 1.0;
    survivor.tune_session(any_dirty_set);
    for id in 900..903 {
        insert_movie(survivor.database(), id);
    }
    survivor.refresh().unwrap();
    assert_eq!(survivor.last_refresh(), Some(RefreshKind::Delta));
    survivor.save_snapshot(&embed_path).unwrap();
    survivor.database().with_write(|db| db.checkpoint()).unwrap();

    let pre = survivor.snapshot();
    let probes = SearchMode::Approx { probes: pre.default_probes() };
    let queries: Vec<Vec<f32>> =
        (0..pre.len()).step_by(3).map(|i| pre.output().embeddings.row(i).to_vec()).collect();
    let approx = |snap: &retro::core::serve::Snapshot| -> Vec<Vec<(usize, f32)>> {
        queries.iter().map(|q| snap.nearest(q, 10, probes)).collect()
    };
    let expected = approx(&pre);

    let recovered_db = Database::recover(&scratch.0).unwrap();
    let recovered =
        EmbeddingService::recover(SharedDatabase::new(recovered_db), base(), config(), &embed_path)
            .unwrap();
    let post = recovered.snapshot();
    assert_same_index(post.index(), pre.index(), "recovered against saved");
    assert_eq!(post.default_probes(), pre.default_probes());
    assert_eq!(approx(&post), expected, "default-depth rankings must survive the restart");
    recovered.tune_session(any_dirty_set);

    for round in 0..stress_rounds(3) as i64 {
        insert_movie(survivor.database(), 1_000 + round);
        insert_movie(recovered.database(), 1_000 + round);
    }
    survivor.refresh().unwrap();
    recovered.refresh().unwrap();
    assert_eq!(survivor.last_refresh(), recovered.last_refresh());
    assert_same_index(
        recovered.snapshot().index(),
        survivor.snapshot().index(),
        "after the next refresh",
    );
}
