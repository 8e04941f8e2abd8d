//! Full-system contracts of the multi-database serving engine
//! (`docs/ENGINE.md`): generation-pinned sessions stay coherent under
//! concurrent writers, generations publish in solve order from
//! `Engine::refresh` and from a background refresher alike, the bounded
//! generation cache never frees a pinned generation, admission sheds
//! deterministically at the configured depth (and not at all under the
//! default bounds with mixed traffic), and `NEAREST` in SQL is
//! bit-identical to the exact-scan oracle — including after a
//! crash/recover cycle through the WAL and the persisted serving
//! snapshot.
//!
//! Sizes default small so `cargo test` stays quick; CI raises
//! `RETRO_SERVE_STRESS` for a release-mode soak (same gate as
//! `tests/serving.rs`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use retro::core::serve::SearchMode;
use retro::core::{
    AdmissionConfig, Engine, EngineConfig, EngineError, Hyperparameters, Overloaded, RetroConfig,
};
use retro::embed::EmbeddingSet;
use retro::store::sql::PlanMode;
use retro::store::{Database, SharedDatabase, Value};

fn stress_rounds(default: usize) -> usize {
    std::env::var("RETRO_SERVE_STRESS").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "retro_engine_{}_{}",
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

fn movie_title(id: i64) -> String {
    format!("movie{id} tok{} tok{}", 8 + (id % 16), 24 + (id % 16))
}

/// A persons+movies database with `n_movies` rows, built in `db` (either
/// an ephemeral `Database::new()` or a durable `Database::open(..)`).
fn populate(db: &mut Database, n_movies: usize) {
    use retro::store::{DataType, TableSchema};
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
    for p in 0..4i64 {
        db.insert("persons", vec![Value::Int(p), Value::from(format!("tok{p} tok{}", p + 4))])
            .unwrap();
    }
    for m in 0..n_movies as i64 {
        db.insert("movies", vec![Value::Int(m), Value::from(movie_title(m)), Value::Int(m % 4)])
            .unwrap();
    }
}

fn insert_sql(id: i64) -> String {
    format!("INSERT INTO movies VALUES ({id}, '{}', {})", movie_title(id), id % 4)
}

/// The NEAREST rows a session serves for `token`, as raw SQL values —
/// the unit of bit-identity comparisons below.
fn nearest_rows(session: &retro::core::Session, token: &str, k: usize) -> Vec<Vec<Value>> {
    session
        .query(&format!(
            "SELECT id, token, score FROM NEAREST('movies', 'title', '{token}', {k}) n"
        ))
        .unwrap()
        .rows
}

/// A session's whole view — SQL counts, the frozen store, the snapshot
/// stamp — must describe one write version, no matter what concurrent
/// writers and refreshers are doing to the live database.
#[test]
fn sessions_stay_coherent_under_concurrent_writers() {
    let rounds = stress_rounds(3);
    let n_movies = 8 * rounds;
    let mut db = Database::new();
    populate(&mut db, n_movies);

    let engine = Engine::with_defaults();
    engine.register("tmdb", SharedDatabase::new(db), base(), config()).unwrap();

    let writes = 4 * rounds as i64;
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            for w in 0..writes {
                engine.execute("tmdb", &insert_sql(1_000 + w)).unwrap();
                if w % 2 == 1 {
                    engine.refresh("tmdb").unwrap();
                }
            }
            done.store(true, Ordering::Release);
        });
        let readers: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    while !done.load(Ordering::Acquire) {
                        let session = engine.session("tmdb").unwrap();
                        // The three stamps agree: snapshot, frozen store,
                        // and the session's own report.
                        assert_eq!(session.write_version(), session.store().write_version());
                        assert_eq!(session.write_version(), session.snapshot().write_version());
                        // SQL answers come from the frozen store, not the
                        // moving live database — and stay put across
                        // repeated queries on one session.
                        let count = session.query("SELECT COUNT(*) FROM movies").unwrap().rows[0]
                            [0]
                        .clone();
                        let frozen = session.store().table("movies").unwrap().len() as i64;
                        assert_eq!(count, Value::Int(frozen));
                        assert_eq!(
                            session.query("SELECT COUNT(*) FROM movies").unwrap().rows[0][0],
                            count
                        );
                        // The planner's oracle holds inside sessions too.
                        let sql_text = format!(
                            "SELECT m.title, n.score FROM NEAREST('{}', 5) n \
                             JOIN movies m ON m.title = n.token",
                            movie_title(0)
                        );
                        let planned = session.query(&sql_text).unwrap();
                        let scanned = session.query_with(&sql_text, PlanMode::ForceScan).unwrap();
                        assert_eq!(planned.rows, scanned.rows);
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        writer.join().unwrap();
    });

    // Once the dust settles, a fresh session serves everything written.
    engine.refresh_if_stale("tmdb").unwrap();
    let fresh = engine.session("tmdb").unwrap();
    assert_eq!(
        fresh.query("SELECT COUNT(*) FROM movies").unwrap().rows[0][0],
        Value::Int(n_movies as i64 + writes)
    );
    assert_eq!(fresh.write_version(), fresh.store().write_version());
}

/// The generation cache bounds the *engine's* footprint; a session
/// holding an evicted generation keeps serving it untouched.
#[test]
fn eviction_never_frees_a_pinned_generation() {
    let mut db = Database::new();
    populate(&mut db, 8);

    let engine = Engine::new(EngineConfig { generation_cache: 2, ..EngineConfig::default() });
    engine.register("tmdb", SharedDatabase::new(db), base(), config()).unwrap();

    let old = engine.session("tmdb").unwrap();
    assert_eq!(old.generation(), 1);
    let old_version = old.write_version();
    let old_nearest = nearest_rows(&old, &movie_title(0), 5);
    assert!(!old_nearest.is_empty());

    let refreshes = 2 + stress_rounds(3);
    for round in 0..refreshes as i64 {
        engine.execute("tmdb", &insert_sql(2_000 + round)).unwrap();
        engine.refresh("tmdb").unwrap();
    }

    // The cache kept only the newest two generations; generation 1 is out.
    let cached = engine.pinned_generations("tmdb").unwrap();
    assert_eq!(cached.len(), 2);
    assert!(!cached.contains(&1), "generation 1 must be evicted: {cached:?}");

    // Yet the pinned session's world is byte-for-byte where it was.
    assert_eq!(old.generation(), 1);
    assert_eq!(old.write_version(), old_version);
    assert_eq!(old.store().table("movies").unwrap().len(), 8);
    assert_eq!(nearest_rows(&old, &movie_title(0), 5), old_nearest);

    // And new sessions read the newest generation, not a stale cache slot.
    let fresh = engine.session("tmdb").unwrap();
    assert_eq!(fresh.generation(), *cached.last().unwrap());
    assert_eq!(
        fresh.store().table("movies").unwrap().len(),
        8 + refreshes,
        "fresh sessions see every refreshed write"
    );
}

/// Admission sheds at exactly the configured depth — `QueueFull` the
/// moment concurrency and queue are exhausted, `Deadline` when a queued
/// request outlives its timeout — and recovers as permits return.
#[test]
fn admission_sheds_deterministically_at_depth() {
    let mut db = Database::new();
    populate(&mut db, 4);

    let engine = Engine::new(EngineConfig {
        admission: AdmissionConfig {
            max_concurrent: 1,
            max_queue: 0,
            queue_timeout: Duration::from_millis(1),
        },
        ..EngineConfig::default()
    });
    engine.register("tmdb", SharedDatabase::new(db), base(), config()).unwrap();

    // One slot, zero queue: while it is held, every attempt sheds — reads
    // and writes alike, deterministically, however many arrive.
    let held = engine.session("tmdb").unwrap();
    let attempts = stress_rounds(3);
    for _ in 0..attempts {
        let refused = engine.session("tmdb").unwrap_err();
        assert!(
            matches!(
                refused,
                EngineError::Overloaded(Overloaded::QueueFull { queued: 0, max_queue: 0 })
            ),
            "expected an immediate QueueFull shed, got {refused}"
        );
    }
    let refused_write = engine.execute("tmdb", &insert_sql(3_000)).unwrap_err();
    assert!(matches!(refused_write, EngineError::Overloaded(Overloaded::QueueFull { .. })));
    assert_eq!(engine.shed_count(), attempts as u64 + 1);

    // Dropping the held permit reopens the gate immediately.
    drop(held);
    let reopened = engine.session("tmdb").unwrap();
    assert_eq!(reopened.query("SELECT COUNT(*) FROM movies").unwrap().rows[0][0], Value::Int(4));
    drop(reopened);

    // A queue slot that never gets a permit sheds with Deadline instead.
    let engine = Engine::new(EngineConfig {
        admission: AdmissionConfig {
            max_concurrent: 1,
            max_queue: 4,
            queue_timeout: Duration::from_millis(5),
        },
        ..EngineConfig::default()
    });
    let mut db = Database::new();
    populate(&mut db, 4);
    engine.register("tmdb", SharedDatabase::new(db), base(), config()).unwrap();
    let held = engine.session("tmdb").unwrap();
    let expired = engine.session("tmdb").unwrap_err();
    assert!(
        matches!(expired, EngineError::Overloaded(Overloaded::Deadline { .. })),
        "expected a Deadline shed after the queue wait, got {expired}"
    );
    drop(held);
}

/// `NEAREST` in SQL equals `Snapshot::nearest_token` under the exact scan
/// bit for bit; probing every list reproduces it; and a crash/recover
/// cycle through `Database::recover` + `Engine::register_recovered`
/// changes none of those bits — before or after post-crash writes.
#[test]
fn nearest_is_bit_identical_to_the_exact_oracle_even_after_recovery() {
    let scratch = ScratchDir::new();
    let embed_path = scratch.0.join("embeddings.rsrv");
    let n_movies = 8 * stress_rounds(3);

    // ---- Before the crash: a durable store served through an engine.
    let mut db = Database::open(&scratch.0).unwrap();
    populate(&mut db, n_movies);
    let survivor = Engine::with_defaults();
    survivor.register("tmdb", SharedDatabase::new(db), base(), config()).unwrap();
    survivor.execute("tmdb", &insert_sql(900)).unwrap();
    survivor.refresh("tmdb").unwrap();
    let service = survivor.service("tmdb").unwrap();
    service.save_snapshot(&embed_path).unwrap();
    service.database().with_write(|db| db.checkpoint()).unwrap();

    let tokens: Vec<String> = (0..4).map(|i| movie_title(i as i64)).collect();
    let check_session = |session: &retro::core::Session| {
        for token in &tokens {
            let rows = nearest_rows(session, token, 10);
            // The SQL surface equals the direct snapshot call, bit for bit.
            let direct = session.nearest_token("movies", "title", token, 10).unwrap();
            assert_eq!(rows.len(), direct.len());
            for (row, (id, score)) in rows.iter().zip(&direct) {
                assert_eq!(row[0], Value::Int(*id as i64));
                assert_eq!(row[2], Value::Float(f64::from(*score)));
            }
        }
    };

    let pre = survivor.session("tmdb").unwrap();
    check_session(&pre);
    let expected: Vec<_> = tokens.iter().map(|t| nearest_rows(&pre, t, 10)).collect();

    // ---- The crash: both layers come back from disk into a new engine.
    let recovered_db = Database::recover(&scratch.0).unwrap();
    let restarted = Engine::with_defaults();
    restarted
        .register_recovered(
            "tmdb",
            SharedDatabase::new(recovered_db),
            base(),
            config(),
            &embed_path,
        )
        .unwrap();

    let post = restarted.session("tmdb").unwrap();
    assert_eq!(post.generation(), pre.generation());
    assert_eq!(post.write_version(), pre.write_version());
    check_session(&post);
    let recovered_rows: Vec<_> = tokens.iter().map(|t| nearest_rows(&post, t, 10)).collect();
    assert_eq!(recovered_rows, expected, "recovery must not move a single bit of the ranking");

    // Full-probe approximate equals exact, crash or no crash.
    let mut full_probe = restarted.session("tmdb").unwrap();
    full_probe
        .set_search_mode(SearchMode::Approx { probes: full_probe.snapshot().index().nlist() });
    let approx_rows: Vec<_> = tokens.iter().map(|t| nearest_rows(&full_probe, t, 10)).collect();
    assert_eq!(approx_rows, expected, "probing every list must reproduce the exact ranking");

    // ---- Post-crash writes land on both sides; fresh sessions agree.
    for round in 0..stress_rounds(3) as i64 {
        survivor.execute("tmdb", &insert_sql(1_000 + round)).unwrap();
        restarted.execute("tmdb", &insert_sql(1_000 + round)).unwrap();
    }
    survivor.refresh("tmdb").unwrap();
    restarted.refresh("tmdb").unwrap();
    let survivor_fresh = survivor.session("tmdb").unwrap();
    let restarted_fresh = restarted.session("tmdb").unwrap();
    assert_eq!(survivor_fresh.generation(), restarted_fresh.generation());
    assert_eq!(survivor_fresh.write_version(), restarted_fresh.write_version());
    for token in tokens.iter().chain([movie_title(1_000)].iter()) {
        assert_eq!(
            nearest_rows(&survivor_fresh, token, 10),
            nearest_rows(&restarted_fresh, token, 10),
            "post-crash refresh must converge to the uninterrupted ranking bit for bit"
        );
    }
    check_session(&restarted_fresh);
}

/// A client `k` far beyond the number of values (up to `i64::MAX`) returns
/// every other value, the same rows as `k` = the value count, on the exact
/// and the approximate path: the selection is sized by its candidates, not
/// by `k`.
#[test]
fn nearest_with_a_huge_k_returns_every_value() {
    let mut db = Database::new();
    populate(&mut db, 24);
    let engine = Engine::with_defaults();
    engine.register("tmdb", SharedDatabase::new(db), base(), config()).unwrap();
    let mut session = engine.session("tmdb").unwrap();
    let values = session.snapshot().output().catalog.len();
    let token = movie_title(3);
    for mode in [SearchMode::Exact, SearchMode::Approx { probes: 1 }] {
        session.set_search_mode(mode);
        let all = nearest_rows(&session, &token, values);
        if mode == SearchMode::Exact {
            assert_eq!(all.len(), values - 1, "every value but the query itself");
        }
        let huge = session
            .query(&format!(
                "SELECT id, token, score FROM NEAREST('movies', 'title', '{token}', {}) n",
                i64::MAX
            ))
            .unwrap()
            .rows;
        assert_eq!(huge, all, "{mode:?}");
    }
}

/// A write that lands after the serving snapshot was saved is folded in
/// at registration: the first session after a crash already sees it, one
/// generation past the persisted one.
#[test]
fn recovery_folds_in_writes_made_after_the_snapshot() {
    let scratch = ScratchDir::new();
    let embed_path = scratch.0.join("embeddings.rsrv");
    let mut db = Database::open(&scratch.0).unwrap();
    populate(&mut db, 8);
    let survivor = Engine::with_defaults();
    survivor.register("tmdb", SharedDatabase::new(db), base(), config()).unwrap();
    let service = survivor.service("tmdb").unwrap();
    service.save_snapshot(&embed_path).unwrap();
    let persisted = survivor.session("tmdb").unwrap().generation();
    survivor.execute("tmdb", &insert_sql(900)).unwrap();
    let live_version = service.database().write_version();
    drop((service, survivor));

    let restarted = Engine::with_defaults();
    restarted
        .register_recovered(
            "tmdb",
            SharedDatabase::new(Database::recover(&scratch.0).unwrap()),
            base(),
            config(),
            &embed_path,
        )
        .unwrap();
    let session = restarted.session("tmdb").unwrap();
    assert_eq!(session.generation(), persisted + 1);
    assert_eq!(session.write_version(), live_version);
    let rows = session.query("SELECT title FROM movies WHERE id = 900").unwrap().rows;
    assert_eq!(rows, vec![vec![Value::from(movie_title(900))]]);
    assert!(!nearest_rows(&session, &movie_title(900), 3).is_empty());
}

/// Concurrent refreshes publish in solve order: however the refresh calls
/// of several writers interleave, the generation cache stays strictly
/// increasing and a new session pins the newest generation.
#[test]
fn concurrent_refreshes_publish_in_order() {
    let mut db = Database::new();
    populate(&mut db, 8);
    let engine = Engine::with_defaults();
    engine.register("tmdb", SharedDatabase::new(db), base(), config()).unwrap();

    const WRITERS: i64 = 4;
    for round in 0..20 * stress_rounds(3) as i64 {
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let engine = &engine;
                s.spawn(move || {
                    engine.execute("tmdb", &insert_sql(10_000 + round * WRITERS + w)).unwrap();
                    engine.refresh("tmdb").unwrap();
                });
            }
        });
        let cached = engine.pinned_generations("tmdb").unwrap();
        assert!(cached.windows(2).all(|w| w[0] < w[1]), "round {round}: cache {cached:?}");
        let newest = *cached.last().unwrap();
        assert_eq!(engine.session("tmdb").unwrap().generation(), newest, "round {round}");
    }
}

/// A background worker spawned on the service publishes generations that
/// engine sessions read: a write reaches new sessions through SQL and
/// `NEAREST` without any `Engine::refresh` call.
#[test]
fn background_refresher_reaches_sessions() {
    let mut db = Database::new();
    populate(&mut db, 8);
    let engine = Engine::with_defaults();
    engine.register("tmdb", SharedDatabase::new(db), base(), config()).unwrap();
    let worker = engine.service("tmdb").unwrap().spawn_refresher(Duration::from_millis(1));
    engine.execute("tmdb", &insert_sql(900)).unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let session = engine.session("tmdb").unwrap();
        let rows = session.query("SELECT title FROM movies WHERE id = 900").unwrap().rows;
        if !rows.is_empty() {
            assert_eq!(rows, vec![vec![Value::from(movie_title(900))]]);
            assert!(!nearest_rows(&session, &movie_title(900), 3).is_empty());
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the worker's generation never reached sessions"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    worker.stop();
}

/// Mixed traffic beside a background refresher: SQL reads, `NEAREST`
/// queries and inserts each run a fixed number of operations through the
/// admission gate. Every class completes, the default bounds shed
/// nothing, and once the worker catches up a new session sees every
/// write.
#[test]
fn mixed_traffic_beside_the_refresher_completes_without_shedding() {
    let n_movies = 8 * stress_rounds(3);
    let ops = 10 * stress_rounds(3);
    let mut db = Database::new();
    populate(&mut db, n_movies);
    let engine = Engine::with_defaults();
    engine.register("tmdb", SharedDatabase::new(db), base(), config()).unwrap();
    let worker = engine.service("tmdb").unwrap().spawn_refresher(Duration::from_millis(1));

    let (sql, nearest, writes) = std::thread::scope(|s| {
        let sql = s.spawn(|| {
            (0..ops)
                .filter(|&i| {
                    let id = (i % n_movies) as i64;
                    let session = engine.session("tmdb").unwrap();
                    let rows = if i % 4 == 0 {
                        session.query(&format!(
                            "SELECT m.title, p.name FROM movies m \
                             JOIN persons p ON m.director_id = p.id WHERE m.id = {id}"
                        ))
                    } else {
                        session.query(&format!("SELECT title FROM movies WHERE id = {id}"))
                    };
                    rows.unwrap().rows.len() == 1
                })
                .count()
        });
        let nearest = s.spawn(|| {
            (0..ops)
                .filter(|&i| {
                    let token = movie_title((i % n_movies) as i64);
                    let session = engine.session("tmdb").unwrap();
                    let rows = if i % 4 == 0 {
                        session.query(&format!(
                            "SELECT m.title, n.score FROM NEAREST('movies', 'title', '{token}', 10) n \
                             JOIN movies m ON m.title = n.token"
                        ))
                    } else {
                        session.query(&format!(
                            "SELECT id, token, score FROM NEAREST('movies', 'title', '{token}', 10) n"
                        ))
                    };
                    let rows = rows.unwrap().rows;
                    !rows.is_empty() && rows.len() <= 10
                })
                .count()
        });
        let writes = s.spawn(|| {
            (0..ops)
                .filter(|&i| engine.execute("tmdb", &insert_sql(5_000 + i as i64)).is_ok())
                .count()
        });
        (sql.join().unwrap(), nearest.join().unwrap(), writes.join().unwrap())
    });
    assert_eq!((sql, nearest, writes), (ops, ops, ops), "every class completes every operation");
    assert_eq!(engine.shed_count(), 0, "the default admission bounds shed nothing");

    let service = engine.service("tmdb").unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while service.out_of_date() {
        assert!(std::time::Instant::now() < deadline, "the worker never caught up");
        std::thread::sleep(Duration::from_millis(2));
    }
    worker.stop();
    let last = engine.session("tmdb").unwrap();
    assert_eq!(
        last.query("SELECT COUNT(*) FROM movies").unwrap().rows[0][0],
        Value::Int((n_movies + ops) as i64)
    );
    assert!(!nearest_rows(&last, &movie_title(5_000 + ops as i64 - 1), 3).is_empty());
}

/// A generation's store is frozen, so `NEAREST ⋈ movies` in a session
/// pinned to it keeps answering from that generation — over a join hash
/// that earlier statements built — while the live database takes a row
/// with a repeated title and a refresh publishes it. A new session joins
/// that title to both movies that carry it.
#[test]
fn a_pinned_session_keeps_its_nearest_join_across_a_refresh() {
    let mut db = Database::new();
    populate(&mut db, 40);
    let engine = Engine::with_defaults();
    engine.register("tmdb", SharedDatabase::new(db), base(), config()).unwrap();
    let join = format!(
        "SELECT m.id, n.score FROM NEAREST('movies', 'title', '{}', 10) n \
         JOIN movies m ON m.title = n.token",
        movie_title(3)
    );
    let ids = |rows: &[Vec<Value>]| -> Vec<i64> {
        rows.iter().map(|row| row[0].as_int().unwrap()).collect()
    };

    let old = engine.session("tmdb").unwrap();
    let before = old.query(&join).unwrap().rows;
    assert!(!before.is_empty());
    assert!(old.store().join_cache_bytes() > 0, "the planned join hashed movies.title");
    let twin = ids(&before)[0];

    let insert = format!("INSERT INTO movies VALUES (900, '{}', 1)", movie_title(twin));
    engine.execute("tmdb", &insert).unwrap();
    engine.refresh("tmdb").unwrap();

    assert_eq!(old.query(&join).unwrap().rows, before);
    assert_eq!(old.query_with(&join, PlanMode::ForceScan).unwrap().rows, before);
    let fresh = engine.session("tmdb").unwrap();
    assert!(fresh.generation() > old.generation());
    let after = fresh.query(&join).unwrap().rows;
    assert!(ids(&after).contains(&twin) && ids(&after).contains(&900), "{after:?}");
    assert_eq!(fresh.query_with(&join, PlanMode::ForceScan).unwrap().rows, after);
}
