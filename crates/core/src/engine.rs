//! A multi-database serving engine: SQL and vector search behind one door.
//!
//! [`Engine`] owns any number of named database + [`EmbeddingService`]
//! pairs and hands out generation-pinned [`Session`]s whose SQL queries
//! and `NEAREST` calls all read **one coherent snapshot**: the store a
//! session's SQL scans is the exact database state the session's
//! embedding snapshot was extracted from, frozen by the service when it
//! published that [`PinnedGeneration`]. Concurrent writers never shift the
//! ground under an open session.
//!
//! Inside a session's SQL, `NEAREST(...)` is a table function (see
//! `retro_store::sql`): `SELECT m.title, n.score FROM NEAREST('alien', 10)
//! n JOIN movies m ON m.title = n.token` plans, joins and projects like
//! any relation, and its rows are pinned bit-identical to
//! [`Snapshot::nearest_token`] under the session's [`SearchMode`]
//! (exact by default; [`Session::set_search_mode`] turns the approximate
//! probe knob).
//!
//! Every entry point — sessions, writes, ingest — passes a bounded
//! admission gate (a concurrency limit plus a bounded wait queue with a
//! deadline). When the engine is saturated the gate sheds load with a
//! typed [`EngineError::Overloaded`] instead of queueing unboundedly; shed
//! and admitted counts are exposed for harnesses and dashboards.
//!
//! See the [`guide`] module (rendered from `docs/ENGINE.md`) for a worked
//! tour: sessions, generations, the `NEAREST` grammar, and shedding.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use retro_embed::EmbeddingSet;
use retro_store::sql::{
    self, Literal, PlanMode, QueryResult, TableFunctionProvider, VirtualRelation,
};
use retro_store::{csv, ColumnDef, DataType, Database, SharedDatabase, StoreError, Value};

use crate::api::{RetroConfig, RetroError};
use crate::serve::{
    lock_read, lock_write, EmbeddingService, PinnedGeneration, SearchMode, Snapshot,
};

/// The engine guide, rendered from `docs/ENGINE.md` so its code examples
/// compile and run as doctests.
#[doc = include_str!("../../../docs/ENGINE.md")]
pub mod guide {}

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// Why the admission gate refused a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Overloaded {
    /// The engine was at its concurrency limit and the wait queue was
    /// already full; the request was shed immediately.
    QueueFull {
        /// Requests already waiting when this one arrived.
        queued: usize,
        /// The configured queue bound.
        max_queue: usize,
    },
    /// The request queued but no slot freed up before its deadline.
    Deadline {
        /// How long the request waited before giving up.
        waited: Duration,
    },
}

/// Typed engine errors.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The admission gate shed this request; retry later or back off.
    Overloaded(Overloaded),
    /// No database registered under this name.
    UnknownDatabase(String),
    /// An embedding-pipeline error (extraction, solve, recovery).
    Retro(RetroError),
    /// A storage or SQL error.
    Store(StoreError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Overloaded(Overloaded::QueueFull { queued, max_queue }) => {
                write!(f, "overloaded: admission queue full ({queued}/{max_queue} waiting)")
            }
            EngineError::Overloaded(Overloaded::Deadline { waited }) => {
                write!(f, "overloaded: no slot within {waited:?}")
            }
            EngineError::UnknownDatabase(name) => write!(f, "unknown database `{name}`"),
            EngineError::Retro(err) => write!(f, "{err}"),
            EngineError::Store(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RetroError> for EngineError {
    fn from(err: RetroError) -> Self {
        EngineError::Retro(err)
    }
}

impl From<StoreError> for EngineError {
    fn from(err: StoreError) -> Self {
        EngineError::Store(err)
    }
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

/// Bounds on concurrent engine work; see [`Engine`].
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// How many requests may hold a permit at once (min 1).
    pub max_concurrent: usize,
    /// How many more may wait for a permit; a request arriving beyond
    /// this is shed immediately with [`Overloaded::QueueFull`].
    pub max_queue: usize,
    /// How long a queued request waits before it is shed with
    /// [`Overloaded::Deadline`].
    pub queue_timeout: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self { max_concurrent: 64, max_queue: 64, queue_timeout: Duration::from_millis(100) }
    }
}

#[derive(Debug, Default)]
struct GateState {
    active: usize,
    queued: usize,
}

/// The admission gate: a counting semaphore with a bounded, deadlined
/// wait queue. Shedding is deterministic — with `max_concurrent = c` and
/// `max_queue = q`, request `c + q + 1` of any instant is refused.
#[derive(Debug)]
struct Gate {
    config: AdmissionConfig,
    state: Mutex<GateState>,
    available: Condvar,
    admitted: AtomicU64,
    shed: AtomicU64,
}

impl Gate {
    fn new(config: AdmissionConfig) -> Arc<Self> {
        Arc::new(Self {
            config,
            state: Mutex::new(GateState::default()),
            available: Condvar::new(),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        // The gate holds its lock for counter arithmetic only, so a
        // poisoned mutex means a panic inside *this module*, not user code.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn admit(self: &Arc<Self>) -> Result<Permit, Overloaded> {
        let limit = self.config.max_concurrent.max(1);
        let mut state = self.lock();
        if state.active < limit {
            state.active += 1;
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(Permit { gate: Arc::clone(self) });
        }
        if state.queued >= self.config.max_queue {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(Overloaded::QueueFull {
                queued: state.queued,
                max_queue: self.config.max_queue,
            });
        }
        state.queued += 1;
        let start = Instant::now();
        let deadline = start + self.config.queue_timeout;
        loop {
            if state.active < limit {
                state.queued -= 1;
                state.active += 1;
                self.admitted.fetch_add(1, Ordering::Relaxed);
                return Ok(Permit { gate: Arc::clone(self) });
            }
            let now = Instant::now();
            if now >= deadline {
                state.queued -= 1;
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(Overloaded::Deadline { waited: now - start });
            }
            let (guard, _) = self
                .available
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = guard;
        }
    }

    fn release(&self) {
        let mut state = self.lock();
        state.active = state.active.saturating_sub(1);
        drop(state);
        self.available.notify_one();
    }
}

/// RAII admission permit: holding it occupies one of the engine's
/// concurrency slots; dropping it frees the slot and wakes one waiter.
#[derive(Debug)]
struct Permit {
    gate: Arc<Gate>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.gate.release();
    }
}

// ---------------------------------------------------------------------------
// Generations and sessions.
// ---------------------------------------------------------------------------

/// A generation-pinned read handle.
///
/// Everything a session answers — SQL over the frozen store, `NEAREST`
/// table functions inside that SQL, direct [`Session::nearest_token`]
/// calls — comes from **one** [`PinnedGeneration`], so a query joining
/// vector ranks against relational rows can never see half of a
/// concurrent write. The pinned generation stays alive for as long as any
/// session holds it, even after the service's bounded generation cache
/// evicts it. A session also holds an admission permit for its whole
/// lifetime; drop sessions promptly under load.
#[derive(Debug)]
pub struct Session {
    pinned: Arc<PinnedGeneration>,
    mode: SearchMode,
    _permit: Permit,
}

impl Session {
    /// The generation this session is pinned to.
    pub fn generation(&self) -> u64 {
        self.pinned.snapshot().generation()
    }

    /// The database write version this session's whole view reflects —
    /// the snapshot's stamp and the frozen store's counter agree by
    /// construction.
    pub fn write_version(&self) -> u64 {
        self.pinned.snapshot().write_version()
    }

    /// The pinned embedding snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        self.pinned.snapshot()
    }

    /// The pinned (frozen) database state.
    pub fn store(&self) -> &Database {
        self.pinned.store()
    }

    /// Choose how `NEAREST` scans: [`SearchMode::Exact`] (the default —
    /// the full-scan oracle) or [`SearchMode::Approx`] with a probe
    /// count (sub-linear; probing every list reproduces the exact
    /// ranking bit for bit).
    pub fn set_search_mode(&mut self, mode: SearchMode) {
        self.mode = mode;
    }

    /// Run one read-only SQL statement (`SELECT` or `EXPLAIN`) against
    /// the pinned generation, with `NEAREST(...)` available as a table
    /// function. Cost-based planning; results are bit-identical to
    /// [`Session::query_with`] under [`PlanMode::ForceScan`].
    pub fn query(&self, sql_text: &str) -> Result<QueryResult, EngineError> {
        self.query_with(sql_text, PlanMode::Planned)
    }

    /// [`Session::query`] under an explicit [`PlanMode`] — the forced-scan
    /// mode is the planner's correctness oracle.
    pub fn query_with(&self, sql_text: &str, mode: PlanMode) -> Result<QueryResult, EngineError> {
        let stmt = sql::parse_statement(sql_text).map_err(EngineError::Store)?;
        let provider = SnapshotFunctions { snapshot: self.pinned.snapshot(), mode: self.mode };
        sql::query_provided(self.pinned.store(), &stmt, mode, Some(&provider))
            .map_err(EngineError::Store)
    }

    /// [`Snapshot::nearest_token`] on the pinned generation under the
    /// session's search mode. The `NEAREST` table function returns
    /// exactly these pairs (ids and scores bit-identical), one row per
    /// neighbour in rank order.
    pub fn nearest_token(
        &self,
        table: &str,
        column: &str,
        text: &str,
        k: usize,
    ) -> Option<Vec<(usize, f32)>> {
        self.pinned.snapshot().nearest_token(table, column, text, k, self.mode)
    }
}

// ---------------------------------------------------------------------------
// NEAREST as a table function.
// ---------------------------------------------------------------------------

/// [`TableFunctionProvider`] backed by one embedding snapshot.
///
/// `NEAREST('text', k)` resolves `text` across all categories (first
/// match in ascending category-id order — deterministic because category
/// ids follow the store's deterministic table iteration);
/// `NEAREST('table', 'column', 'text', k)` names the category exactly.
/// Either form yields columns `id INTEGER, token TEXT, score FLOAT` with
/// one row per neighbour in rank order (nearest first), pinned
/// bit-identical to [`Snapshot::nearest_token`]: `id` is the neighbour's
/// catalog value id and `score` its cosine score widened exactly from
/// `f32`.
struct SnapshotFunctions<'a> {
    snapshot: &'a Snapshot,
    mode: SearchMode,
}

impl SnapshotFunctions<'_> {
    /// Resolve the NEAREST argument forms to `(table, column, text, k)`.
    fn parse_args<'b>(
        &self,
        args: &'b [Literal],
    ) -> Result<(String, String, &'b str, i64), StoreError> {
        let catalog = &self.snapshot.output().catalog;
        match args {
            [Literal::Str(text), Literal::Int(k)] => {
                let category = catalog
                    .categories()
                    .iter()
                    .find(|c| catalog.lookup(&c.table, &c.column, text).is_some())
                    .ok_or_else(|| {
                        StoreError::Sql(format!(
                            "NEAREST: text value '{text}' not found in any column"
                        ))
                    })?;
                Ok((category.table.clone(), category.column.clone(), text, *k))
            }
            [Literal::Str(table), Literal::Str(column), Literal::Str(text), Literal::Int(k)] => {
                Ok((table.clone(), column.clone(), text, *k))
            }
            _ => Err(StoreError::Sql(
                "NEAREST takes ('text', k) or ('table', 'column', 'text', k)".into(),
            )),
        }
    }
}

impl TableFunctionProvider for SnapshotFunctions<'_> {
    fn eval(&self, name: &str, args: &[Literal]) -> Result<VirtualRelation, StoreError> {
        if !name.eq_ignore_ascii_case("NEAREST") {
            return Err(StoreError::Sql(format!("unknown table function `{name}`")));
        }
        let (table, column, text, k) = self.parse_args(args)?;
        if k < 0 {
            return Err(StoreError::Sql(format!("NEAREST: k must be non-negative, got {k}")));
        }
        let neighbours = self
            .snapshot
            .nearest_token(&table, &column, text, k as usize, self.mode)
            .ok_or_else(|| {
                StoreError::Sql(format!(
                    "NEAREST: text value '{text}' not found in {table}.{column}"
                ))
            })?;
        let catalog = &self.snapshot.output().catalog;
        let label = if args.len() == 2 {
            format!("NEAREST('{text}', {k})")
        } else {
            format!("NEAREST('{table}', '{column}', '{text}', {k})")
        };
        Ok(VirtualRelation {
            label,
            columns: vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("token", DataType::Text),
                ColumnDef::new("score", DataType::Float),
            ],
            rows: neighbours
                .into_iter()
                .map(|(id, score)| {
                    vec![
                        Value::Int(id as i64),
                        Value::Text(catalog.text(id).to_owned()),
                        // f32 → f64 is exact, so SQL-surface scores stay
                        // bit-identical to `Snapshot::nearest_token`.
                        Value::Float(f64::from(score)),
                    ]
                })
                .collect(),
        })
    }
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

/// Engine-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Admission bounds shared by every entry point.
    pub admission: AdmissionConfig,
    /// How many published generations each database's service keeps alive
    /// (min 1). Sessions extend a generation's life past eviction — the
    /// cache bounds the *engine's* footprint, never a reader's view.
    pub generation_cache: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { admission: AdmissionConfig::default(), generation_cache: 4 }
    }
}

/// A multi-database serving engine; see the [module docs](self) and the
/// [`guide`].
pub struct Engine {
    config: EngineConfig,
    gate: Arc<Gate>,
    dbs: RwLock<BTreeMap<String, Arc<EmbeddingService>>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("databases", &self.database_names())
            .field("admitted", &self.admitted_count())
            .field("shed", &self.shed_count())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// An engine with the given bounds and no databases yet.
    pub fn new(config: EngineConfig) -> Self {
        Self { config, gate: Gate::new(config.admission), dbs: RwLock::new(BTreeMap::new()) }
    }

    /// [`Engine::new`] with [`EngineConfig::default`].
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// Register a database under `name`: run the initial retrofit
    /// ([`EmbeddingService::start`]), freeze generation 1, and start
    /// serving sessions. Re-registering a name replaces the previous
    /// database (open sessions on it keep their pinned generations).
    pub fn register(
        &self,
        name: &str,
        db: SharedDatabase,
        base: EmbeddingSet,
        config: RetroConfig,
    ) -> Result<(), EngineError> {
        let service =
            EmbeddingService::start_cached(db, base, config, self.config.generation_cache)?;
        lock_write(&self.dbs).insert(name.to_owned(), service);
        Ok(())
    }

    /// Register a database recovered from a persisted serving snapshot
    /// ([`EmbeddingService::recover`], which folds in writes that landed
    /// after the snapshot was saved before it returns), so the first
    /// session already reads a coherent generation.
    pub fn register_recovered(
        &self,
        name: &str,
        db: SharedDatabase,
        base: EmbeddingSet,
        config: RetroConfig,
        snapshot_path: &std::path::Path,
    ) -> Result<(), EngineError> {
        let cache = self.config.generation_cache;
        let service = EmbeddingService::recover_cached(db, base, config, snapshot_path, cache)?;
        lock_write(&self.dbs).insert(name.to_owned(), service);
        Ok(())
    }

    /// Names of the registered databases, sorted.
    pub fn database_names(&self) -> Vec<String> {
        lock_read(&self.dbs).keys().cloned().collect()
    }

    /// The serving service behind `name` — the escape hatch for
    /// service-level operations (snapshot persistence, session tuning, a
    /// background [`EmbeddingService::spawn_refresher`]). Sessions read
    /// the service's generations, so anything it publishes reaches new
    /// sessions.
    pub fn service(&self, name: &str) -> Result<Arc<EmbeddingService>, EngineError> {
        lock_read(&self.dbs)
            .get(name)
            .map(Arc::clone)
            .ok_or_else(|| EngineError::UnknownDatabase(name.to_owned()))
    }

    /// Open a generation-pinned [`Session`] on the newest published
    /// generation of `name`. Passes the admission gate: under saturation
    /// this returns [`EngineError::Overloaded`] instead of blocking
    /// past the configured deadline.
    pub fn session(&self, name: &str) -> Result<Session, EngineError> {
        let permit = self.gate.admit().map_err(EngineError::Overloaded)?;
        let pinned = self.service(name)?.latest();
        Ok(Session { pinned, mode: SearchMode::Exact, _permit: permit })
    }

    /// Execute one SQL statement against the **live** database behind
    /// `name` — the write path (DDL/DML; reads belong in sessions, which
    /// is also where `NEAREST` is available). Passes the admission gate.
    /// The write makes published generations stale; call
    /// [`Engine::refresh`] or [`Engine::refresh_if_stale`] (or run the
    /// service's background refresher) to publish a new one.
    pub fn execute(&self, name: &str, sql_text: &str) -> Result<QueryResult, EngineError> {
        let _permit = self.gate.admit().map_err(EngineError::Overloaded)?;
        let service = self.service(name)?;
        let stmt = sql::parse_statement(sql_text).map_err(EngineError::Store)?;
        service
            .database()
            .with_write(|db| sql::execute_provided(db, &stmt, PlanMode::Planned, None))
            .map_err(EngineError::Store)
    }

    /// Stream a headered CSV file into `table` of the live database
    /// behind `name`, in bounded memory
    /// ([`retro_store::csv::import_csv_reader`]); the import is atomic.
    /// Returns the number of inserted rows. Passes the admission gate.
    pub fn ingest_csv_file(
        &self,
        name: &str,
        table: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<usize, EngineError> {
        let _permit = self.gate.admit().map_err(EngineError::Overloaded)?;
        let service = self.service(name)?;
        let path = path.as_ref();
        let file = std::fs::File::open(path).map_err(|err| {
            EngineError::Store(StoreError::Io(format!("opening {}: {err}", path.display())))
        })?;
        let reader = std::io::BufReader::new(file);
        service
            .database()
            .with_write(|db| csv::import_csv_reader(db, table, reader))
            .map_err(EngineError::Store)
    }

    /// Publish a new generation of `name` ([`EmbeddingService::refresh`]:
    /// delta-scoped when possible, with a store clone frozen under the
    /// extraction's read guard). The service's generation cache evicts the
    /// oldest beyond the configured bound — sessions holding an evicted
    /// generation keep it alive. Returns the new generation number.
    pub fn refresh(&self, name: &str) -> Result<u64, EngineError> {
        Ok(self.service(name)?.refresh()?)
    }

    /// [`Engine::refresh`], but only when the live database has been
    /// written since the newest generation.
    pub fn refresh_if_stale(&self, name: &str) -> Result<Option<u64>, EngineError> {
        Ok(self.service(name)?.refresh_if_stale()?)
    }

    /// Generation numbers currently held by the generation cache for
    /// `name`, oldest first (sessions may keep older ones alive).
    pub fn pinned_generations(&self, name: &str) -> Result<Vec<u64>, EngineError> {
        Ok(self.service(name)?.cached_generations())
    }

    /// Requests admitted through the gate since construction.
    pub fn admitted_count(&self) -> u64 {
        self.gate.admitted.load(Ordering::Relaxed)
    }

    /// Requests shed by the gate (queue full or deadline) since
    /// construction.
    pub fn shed_count(&self) -> u64 {
        self.gate.shed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retro_store::sql::run_script;

    fn base() -> EmbeddingSet {
        EmbeddingSet::new(
            vec![
                "valerian".into(),
                "alien".into(),
                "luc besson".into(),
                "ridley scott".into(),
                "prometheus".into(),
            ],
            vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.7, 0.3], vec![0.3, 0.7], vec![0.1, 0.9]],
        )
    }

    fn shared() -> SharedDatabase {
        let mut db = Database::new();
        run_script(
            &mut db,
            "CREATE TABLE persons (id INTEGER PRIMARY KEY, name TEXT);
             CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT,
                                  director_id INTEGER REFERENCES persons(id));
             INSERT INTO persons VALUES (1, 'luc besson'), (2, 'ridley scott');
             INSERT INTO movies VALUES (1, 'valerian', 1), (2, 'alien', 2);",
        )
        .unwrap();
        SharedDatabase::new(db)
    }

    fn engine() -> Engine {
        let engine = Engine::with_defaults();
        engine.register("tmdb", shared(), base(), RetroConfig::default()).unwrap();
        engine
    }

    #[test]
    fn sessions_read_sql_and_nearest_from_one_generation() {
        let engine = engine();
        let session = engine.session("tmdb").unwrap();
        assert_eq!(session.generation(), 1);
        assert_eq!(session.write_version(), session.store().write_version());

        let rows = session.query("SELECT title FROM movies ORDER BY title").unwrap();
        let titles: Vec<_> = rows.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(titles, vec!["alien", "valerian"]);

        // NEAREST inside SQL matches the direct snapshot call bit for bit.
        let sql_rows = session
            .query("SELECT id, token, score FROM NEAREST('movies', 'title', 'alien', 3) n")
            .unwrap();
        let direct = session.nearest_token("movies", "title", "alien", 3).unwrap();
        assert_eq!(sql_rows.rows.len(), direct.len());
        for (row, (id, score)) in sql_rows.rows.iter().zip(&direct) {
            assert_eq!(row[0], Value::Int(*id as i64));
            assert_eq!(row[2], Value::Float(f64::from(*score)));
        }

        // The 2-argument form resolves the text across categories.
        let short = session.query("SELECT id, score FROM NEAREST('alien', 3) n").unwrap();
        assert_eq!(short.rows.len(), direct.len());

        // NEAREST joins like a relation (rank order preserved, planner or
        // forced scan alike).
        let sql_text = "SELECT m.title, n.score FROM NEAREST('alien', 3) n \
                        JOIN movies m ON m.title = n.token";
        let planned = session.query(sql_text).unwrap();
        let scanned = session.query_with(sql_text, PlanMode::ForceScan).unwrap();
        assert_eq!(planned.rows, scanned.rows);
        assert!(!planned.rows.is_empty());
    }

    #[test]
    fn unknown_names_and_functions_are_typed_errors() {
        let engine = engine();
        assert!(matches!(
            engine.session("nope").unwrap_err(),
            EngineError::UnknownDatabase(name) if name == "nope"
        ));
        let session = engine.session("tmdb").unwrap();
        let err = session.query("SELECT * FROM FROBNICATE(1) f").unwrap_err();
        assert!(
            matches!(err, EngineError::Store(StoreError::Sql(msg)) if msg.contains("FROBNICATE"))
        );
        let err = session.query("SELECT * FROM NEAREST('no such token', 3) n").unwrap_err();
        assert!(
            matches!(err, EngineError::Store(StoreError::Sql(msg)) if msg.contains("not found"))
        );
        let err = session.query("SELECT * FROM NEAREST(1, 2, 3) n").unwrap_err();
        assert!(matches!(err, EngineError::Store(StoreError::Sql(_))));
    }

    #[test]
    fn writes_do_not_move_open_sessions() {
        let engine = engine();
        let session = engine.session("tmdb").unwrap();
        engine.execute("tmdb", "INSERT INTO movies VALUES (3, 'prometheus', 2)").unwrap();
        // The open session still reads the world it pinned...
        let count = session.query("SELECT COUNT(*) FROM movies").unwrap();
        assert_eq!(count.rows[0][0], Value::Int(2));
        // ...while a refresh publishes the write for new sessions.
        let generation = engine.refresh("tmdb").unwrap();
        assert_eq!(generation, 2);
        let fresh = engine.session("tmdb").unwrap();
        let count = fresh.query("SELECT COUNT(*) FROM movies").unwrap();
        assert_eq!(count.rows[0][0], Value::Int(3));
        assert!(!fresh.query("SELECT id FROM NEAREST('prometheus', 2) n").unwrap().rows.is_empty());
    }

    #[test]
    fn generation_cache_is_bounded_but_sessions_extend_life() {
        let config = EngineConfig { generation_cache: 2, ..EngineConfig::default() };
        let engine = Engine::new(config);
        engine.register("tmdb", shared(), base(), RetroConfig::default()).unwrap();
        let old = engine.session("tmdb").unwrap();
        for k in 0..3 {
            engine
                .execute("tmdb", &format!("INSERT INTO persons VALUES ({}, 'p{k}')", 10 + k))
                .unwrap();
            engine.refresh("tmdb").unwrap();
        }
        // Generation 1 was evicted from the cache...
        assert_eq!(engine.pinned_generations("tmdb").unwrap(), vec![3, 4]);
        // ...but the open session still serves it, data intact.
        assert_eq!(old.generation(), 1);
        let count = old.query("SELECT COUNT(*) FROM persons").unwrap();
        assert_eq!(count.rows[0][0], Value::Int(2));
    }

    #[test]
    fn admission_sheds_deterministically() {
        let config = EngineConfig {
            admission: AdmissionConfig {
                max_concurrent: 1,
                max_queue: 0,
                queue_timeout: Duration::from_millis(1),
            },
            ..EngineConfig::default()
        };
        let engine = Engine::new(config);
        engine.register("tmdb", shared(), base(), RetroConfig::default()).unwrap();
        let held = engine.session("tmdb").unwrap();
        let err = engine.session("tmdb").unwrap_err();
        assert_eq!(err, EngineError::Overloaded(Overloaded::QueueFull { queued: 0, max_queue: 0 }));
        assert_eq!(engine.shed_count(), 1);
        drop(held);
        // The freed slot admits again.
        let _ok = engine.session("tmdb").unwrap();
        assert_eq!(engine.admitted_count(), 2, "two admissions, one shed");
    }

    #[test]
    fn queue_deadline_sheds_when_no_slot_frees() {
        let config = EngineConfig {
            admission: AdmissionConfig {
                max_concurrent: 1,
                max_queue: 4,
                queue_timeout: Duration::from_millis(5),
            },
            ..EngineConfig::default()
        };
        let engine = Engine::new(config);
        engine.register("tmdb", shared(), base(), RetroConfig::default()).unwrap();
        let _held = engine.session("tmdb").unwrap();
        let err = engine.session("tmdb").unwrap_err();
        assert!(matches!(err, EngineError::Overloaded(Overloaded::Deadline { .. })));
    }

    #[test]
    fn ingest_csv_file_streams_into_the_live_database() {
        let engine = engine();
        let path =
            std::env::temp_dir().join(format!("retro_engine_ingest_{}.csv", std::process::id()));
        std::fs::write(&path, "id,name\n7,stanley kubrick\n8,denis villeneuve\n").unwrap();
        let n = engine.ingest_csv_file("tmdb", "persons", &path).unwrap();
        assert_eq!(n, 2);
        engine.refresh_if_stale("tmdb").unwrap().unwrap();
        let session = engine.session("tmdb").unwrap();
        let count = session.query("SELECT COUNT(*) FROM persons").unwrap();
        assert_eq!(count.rows[0][0], Value::Int(4));
        // A second call with nothing new published is a no-op.
        assert_eq!(engine.refresh_if_stale("tmdb").unwrap(), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sessions_are_read_only() {
        let engine = engine();
        let session = engine.session("tmdb").unwrap();
        let err = session.query("INSERT INTO persons VALUES (9, 'x')").unwrap_err();
        assert!(matches!(err, EngineError::Store(StoreError::Sql(_))));
        // Writes go through the engine instead.
        engine.execute("tmdb", "INSERT INTO persons VALUES (9, 'x')").unwrap();
    }
}
