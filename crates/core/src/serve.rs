//! Concurrent embedding serving over a [`SharedDatabase`].
//!
//! [`EmbeddingService`] closes the loop the paper's incremental-maintenance
//! story opens: retrofitted vectors stay queryable — lock-free, from many
//! threads — while the database underneath keeps changing. Each converged
//! [`RetroOutput`] is published as a [`PinnedGeneration`]: a
//! generation-numbered immutable [`Snapshot`] plus a frozen clone of the
//! database state it was extracted from. Refreshes re-extract (and clone)
//! under a brief database read guard, solve with the database unlocked, and
//! append the generation to a bounded cache. Readers never take the
//! solver's lock and never wait on a refresh.
//!
//! See the [`guide`] module (rendered from `docs/SERVING.md`) for the
//! snapshot lifecycle, generation semantics, the staleness model and a
//! worked example.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use retro_embed::{nn, EmbeddingSet};
use retro_linalg::vector;
use retro_nn::ann::{IvfConfig, IvfIndex, PatchStats};
use retro_store::{Database, SharedDatabase};

pub use retro_nn::ann::SearchMode;

use crate::api::{RetroConfig, RetroError, RetroOutput};
use crate::incremental::{IncrementalRetro, RefreshKind, RefreshPlan};

/// The serving guide, rendered from `docs/SERVING.md` so its code examples
/// compile and run as doctests.
#[doc = include_str!("../../../docs/SERVING.md")]
pub mod guide {}

/// Read `lock`, recovering it if a holder panicked: the service's locks
/// guard state that is only ever replaced whole (a session installs a
/// finished output, the cache pushes a finished generation), so a panic
/// never leaves a half-written value behind.
pub(crate) fn lock_read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write `lock`, recovering it if a holder panicked (see [`lock_read`]).
pub(crate) fn lock_write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// One immutable, generation-numbered converged output.
///
/// A snapshot owns everything a query needs — catalog, embeddings,
/// precomputed row L2 norms, and an IVF ANN index over 8-bit codes — so
/// [`Snapshot::nearest`] touches no lock at all: readers holding an
/// `Arc<Snapshot>` are isolated from refreshes, writers, and each other.
/// Snapshots are created complete and never mutated, which is what makes
/// the service's publish atomic: every observer sees a whole generation or
/// the previous whole generation.
///
/// Queries pick their scan with a [`SearchMode`]: [`SearchMode::Exact`] is
/// the full `O(n)` oracle scan, [`SearchMode::Approx`] probes the
/// snapshot's [`IvfIndex`] — sub-linear, with the exact path kept in-tree
/// as the recall oracle (`tests/ann_recall.rs` gates recall@10 ≥ 0.95).
#[derive(Clone, Debug)]
pub struct Snapshot {
    generation: u64,
    write_version: u64,
    threads: usize,
    norms: Vec<f32>,
    /// The ANN index over `output.embeddings`. Built off the read path (at
    /// publish, under the session lock); delta refreshes patch it against
    /// frozen centroids instead of rebuilding, no-change refreshes reuse
    /// the previous generation's `Arc`.
    index: Arc<IvfIndex>,
    /// Shared with the session's own warm-start state (the session only
    /// ever *replaces* its state, so publishing is one refcount bump, not
    /// a deep copy of a paper-scale matrix).
    output: Arc<RetroOutput>,
}

impl Snapshot {
    /// The generation after `prev` (generation 1 without one), serving the
    /// `output` the session completed on a plan of kind `trace.kind`, whose
    /// dirty rows are `dirty`. `prev.output` was the session's state before
    /// that plan: the service publishes each output under its session lock.
    /// Records the norm and index phases in `trace`.
    fn successor(
        prev: Option<&Self>,
        threads: usize,
        write_version: u64,
        output: Arc<RetroOutput>,
        dirty: &[u32],
        trace: &mut RefreshTrace,
    ) -> Self {
        let generation = prev.map_or(1, |prev| prev.generation + 1);
        trace.w0_owned = output.problem.w0.owned_bytes(prev.map(|prev| &prev.output.problem.w0));
        let rows = output.embeddings.rows();
        let started = Instant::now();
        let (norms, index) = match (trace.kind, prev) {
            // The session republished `prev.output`: reuse its norms and
            // ANN index too, so the republish is O(n), not O(n·D).
            (RefreshKind::NoChange, Some(prev)) => (prev.norms.clone(), Arc::clone(&prev.index)),
            // Only the dirty rows moved and new rows were appended. Patch
            // the cached norms instead of renormalizing the whole matrix,
            // and patch the ANN index against its frozen centroids instead
            // of retraining. Centroids retrain on the next full refresh
            // (tests/ann_serving.rs pins the patched index structurally
            // identical to a fresh assignment).
            (RefreshKind::Delta, Some(prev)) => {
                let mut norms = Vec::with_capacity(rows);
                norms.extend_from_slice(&prev.norms);
                norms.resize(rows, 0.0);
                for &r in dirty {
                    norms[r as usize] = vector::norm(output.embeddings.row(r as usize));
                }
                let normed = Instant::now();
                let (index, patch) = prev.index.patched(
                    &prev.output.embeddings,
                    &output.embeddings,
                    &norms,
                    dirty,
                    threads,
                );
                (trace.norms, trace.index) = (normed - started, normed.elapsed());
                trace.patch = Some(patch);
                (norms, Arc::new(index))
            }
            // A full refresh, and generation 1, train a fresh index.
            _ => {
                let norms = output.embeddings.row_norms();
                let config = IvfConfig::auto(rows);
                let index = IvfIndex::build(&output.embeddings, &norms, config, threads);
                trace.index = started.elapsed();
                (norms, Arc::new(index))
            }
        };
        trace.lists_owned = index.owned_list_bytes(prev.map(|prev| &*prev.index));
        Self { generation, write_version, threads, norms, index, output }
    }

    /// The snapshot's generation number (1 for the initial full run,
    /// strictly increasing with every published refresh).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The database write version this snapshot reflects
    /// ([`retro_store::Database::write_version`]).
    pub fn write_version(&self) -> u64 {
        self.write_version
    }

    /// The converged output backing this snapshot.
    pub fn output(&self) -> &RetroOutput {
        &self.output
    }

    /// Number of text values served.
    pub fn len(&self) -> usize {
        self.output.catalog.len()
    }

    /// True when the snapshot serves no text values.
    pub fn is_empty(&self) -> bool {
        self.output.catalog.is_empty()
    }

    /// The cached row L2 norms (id order).
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// The learned vector for `table.column = text`, if the value exists in
    /// this generation.
    pub fn vector(&self, table: &str, column: &str, text: &str) -> Option<&[f32]> {
        self.output.vector(table, column, text)
    }

    /// The snapshot's ANN index (IVF over the embedding rows' 8-bit codes).
    pub fn index(&self) -> &IvfIndex {
        &self.index
    }

    /// The default probe count for [`SearchMode::Approx`] on this snapshot
    /// (an eighth of the inverted lists, at least one).
    pub fn default_probes(&self) -> usize {
        self.index.default_probes()
    }

    /// Cosine top-`k` over all values for an arbitrary query vector.
    ///
    /// [`SearchMode::Exact`] runs one chunked dot-product scan
    /// (row-partitioned across the configured thread count) against the
    /// precomputed norms, then the shared bounded-heap selection:
    /// deterministic, `NaN`-free, and bit-identical for every thread count.
    /// [`SearchMode::Approx`] probes the snapshot's [`IvfIndex`] instead:
    /// its 8-bit codes prune the candidates, and the survivors are scored
    /// from this snapshot's rows by the *same* kernel and sanitize rules,
    /// so probing every list reproduces the exact ranking bit for bit, and
    /// lower probe counts trade recall for speed only through the
    /// candidate set.
    pub fn nearest(&self, query: &[f32], k: usize, mode: SearchMode) -> Vec<(usize, f32)> {
        self.ranked(query, k, mode, |_| false)
    }

    /// Cosine top-`k` neighbours of the stored value `table.column = text`,
    /// excluding the value itself. `None` when the value does not exist in
    /// this generation. The `mode` picks the scan exactly as in
    /// [`Snapshot::nearest`].
    pub fn nearest_token(
        &self,
        table: &str,
        column: &str,
        text: &str,
        k: usize,
        mode: SearchMode,
    ) -> Option<Vec<(usize, f32)>> {
        let id = self.output.catalog.lookup(table, column, text)?;
        Some(self.ranked(self.output.embeddings.row(id), k, mode, |i| i == id))
    }

    /// The one dispatch on `mode` behind both queries: cosine top-`k` of
    /// `query` over the rows `exclude` does not reject.
    fn ranked(
        &self,
        query: &[f32],
        k: usize,
        mode: SearchMode,
        exclude: impl FnMut(usize) -> bool,
    ) -> Vec<(usize, f32)> {
        let rows = &self.output.embeddings;
        match mode {
            SearchMode::Exact => {
                nn::top_k_cosine(rows, &self.norms, query, k, self.threads, exclude)
            }
            SearchMode::Approx { probes } => {
                self.index.search_filtered(rows, query, k, probes, exclude)
            }
        }
    }
}

/// Where the refresh that published a generation spent its time, and
/// what its index patch did: the first slice of the service's refresh
/// tracing, readable without a debugger.
#[derive(Clone, Debug, PartialEq)]
pub struct RefreshTrace {
    /// The path the refresh took.
    pub kind: RefreshKind,
    /// Rows the delta plan re-solved (0 for full and no-change plans).
    pub dirty_rows: usize,
    /// Planning under the database read guard, waiting for it included:
    /// the change-log read, extraction and problem assembly. No `O(n·D)`
    /// copy runs here: `W0` grows by shared chunks, and the warm seed is
    /// built under `solve`.
    pub prepare: Duration,
    /// Freezing the generation's store, under the same guard: one
    /// [`Database`] clone, which shares every table.
    pub freeze: Duration,
    /// The solve, with the database unlocked, seeding included: the warm
    /// seed's copy of the previous embeddings.
    pub solve: Duration,
    /// Patching the cached row norms (delta refreshes only; a full
    /// refresh counts its norms under `index`).
    pub norms: Duration,
    /// Patching the ANN index, or building it on a full refresh.
    pub index: Duration,
    /// The index patch's counts, for a delta refresh.
    pub patch: Option<PatchStats>,
    /// Bytes of `W0` chunks the generation does not share with its
    /// predecessor (all of them for generation 1).
    pub w0_owned: usize,
    /// Bytes of IVF lists the generation does not share with its
    /// predecessor ([`IvfIndex::owned_list_bytes`]).
    pub lists_owned: usize,
}

impl RefreshTrace {
    fn new(kind: RefreshKind, dirty_rows: usize) -> Self {
        let zero = Duration::ZERO;
        Self {
            kind,
            dirty_rows,
            prepare: zero,
            freeze: zero,
            solve: zero,
            norms: zero,
            index: zero,
            patch: None,
            w0_owned: 0,
            lists_owned: 0,
        }
    }
}

impl std::fmt::Display for RefreshTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        write!(
            f,
            "{:?} {} dirty: prepare {:.1} ms, freeze {:.1} ms, solve {:.1} ms, norms {:.1} ms, \
             index {:.1} ms",
            self.kind,
            self.dirty_rows,
            ms(self.prepare),
            ms(self.freeze),
            ms(self.solve),
            ms(self.norms),
            ms(self.index)
        )?;
        if let Some(p) = &self.patch {
            write!(
                f,
                " ({} certified, {} reassigned, {} moved; lists {} rebuilt, {} shared)",
                p.certified, p.reassigned, p.moved, p.lists_rebuilt, p.lists_shared
            )?;
        }
        let mb = |bytes: usize| bytes as f64 / 1e6;
        write!(f, "; owns W0 {:.2} MB, lists {:.2} MB", mb(self.w0_owned), mb(self.lists_owned))
    }
}

/// One published generation, frozen whole: the embedding [`Snapshot`]
/// plus a clone of the exact database state it was extracted from (both
/// captured under one database read guard, so their write versions agree
/// by construction), and the trace of the refresh that made it.
#[derive(Debug)]
pub struct PinnedGeneration {
    snapshot: Arc<Snapshot>,
    store: Database,
    /// The refresh that made this generation; `None` for a recovered
    /// generation that no refresh in this process made.
    trace: Option<RefreshTrace>,
}

impl PinnedGeneration {
    /// The embedding snapshot of this generation.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The frozen database state of this generation.
    pub fn store(&self) -> &Database {
        &self.store
    }
}

/// A serving handle: one [`SharedDatabase`], one retrofitting session, one
/// bounded cache of published [`PinnedGeneration`]s.
///
/// * **Readers** call [`EmbeddingService::snapshot`] (an `Arc` clone behind
///   a momentary lock) or the [`nearest`](EmbeddingService::nearest)
///   conveniences; they are never blocked by writers or an in-flight
///   refresh.
/// * **Writers** mutate the database through
///   [`EmbeddingService::database`]; every mutating store operation bumps
///   the database's write version, which
///   [`EmbeddingService::out_of_date`] compares against the newest
///   generation.
/// * **Refreshes** ([`EmbeddingService::refresh`], or a background
///   [`RefreshWorker`]) are serialized on an internal session lock that no
///   read path ever touches, and publish in solve order.
pub struct EmbeddingService {
    db: SharedDatabase,
    base: EmbeddingSet,
    /// The incremental session. Refreshes and tuning take the write side;
    /// nothing else touches it — readers are served from `generations`.
    session: RwLock<IncrementalRetro>,
    /// The published generations, oldest first, never empty. Held for
    /// pointer-sized critical sections only: an `Arc` clone on read, a
    /// push (and at most one eviction) on publish. Each generation carries
    /// its own number, so the published generation and the published data
    /// can never disagree.
    generations: RwLock<VecDeque<Arc<PinnedGeneration>>>,
    /// How many generations `generations` keeps (min 1). Readers holding
    /// an evicted generation keep it alive.
    cache: usize,
    /// Refreshes published since start (the first generation is not
    /// counted). The interesting property is what this does NOT count:
    /// however many writes land while one refresh is in flight, they are
    /// all caught by at most one follow-up refresh, so this grows with
    /// *refreshes*, not with *writes*.
    refreshes: AtomicU64,
}

impl std::fmt::Debug for EmbeddingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingService")
            .field("generation", &self.generation())
            .field("threads", &self.snapshot().threads)
            .finish_non_exhaustive()
    }
}

type Prepare = fn(&IncrementalRetro, &Database, &EmbeddingSet) -> Result<RefreshPlan, RetroError>;

/// The one way a generation is made: one refresh of `session` past the
/// generation `prev`, or its first run as generation 1 without one. Plan
/// under a database read guard, freezing a clone of the store under the
/// same guard, then solve with the database unlocked. The clone and the
/// snapshot's stamp therefore describe exactly the planned state: no
/// write can slip between them. The clone shares every table, so the
/// freeze costs O(tables); the live database copies a table on its first
/// write after it.
fn advance(
    session: &mut IncrementalRetro,
    db: &SharedDatabase,
    base: &EmbeddingSet,
    prev: Option<&Snapshot>,
    prepare: Prepare,
) -> Result<PinnedGeneration, RetroError> {
    let started = Instant::now();
    let (plan, prepared, store) = {
        let guard = db.read();
        let plan = prepare(session, &guard, base)?;
        (plan, Instant::now(), Database::clone(&guard))
    };
    let frozen = Instant::now();
    let dirty = plan.dirty_rows().unwrap_or_default().to_vec();
    let mut trace = RefreshTrace::new(plan.kind(), dirty.len());
    session.complete_refresh(plan);
    let solved = Instant::now();
    (trace.prepare, trace.freeze, trace.solve) =
        (prepared - started, frozen - prepared, solved - frozen);
    let output = session.current_shared().expect("just completed");
    let threads = session.config().params.threads;
    let version = store.write_version();
    let snapshot = Snapshot::successor(prev, threads, version, output, &dirty, &mut trace);
    Ok(PinnedGeneration { snapshot: Arc::new(snapshot), store, trace: Some(trace) })
}

impl EmbeddingService {
    /// Run the initial full retrofit and start serving it as generation 1.
    ///
    /// Generation 1 is made like any refresh: extraction and the store
    /// freeze hold one database read guard, the solve runs with the
    /// database unlocked, a fresh ANN index is trained, and the run's
    /// [`RefreshTrace`] (kind [`RefreshKind::Full`]) is published with it.
    /// `config.params.threads` doubles as the snapshot query-scan width.
    /// Writes that land during the solve are folded in by one catch-up
    /// refresh before this returns.
    pub fn start(
        db: SharedDatabase,
        base: EmbeddingSet,
        config: RetroConfig,
    ) -> Result<Arc<Self>, RetroError> {
        Self::start_cached(db, base, config, 1)
    }

    /// [`EmbeddingService::start`] keeping the newest `cache` generations.
    pub(crate) fn start_cached(
        db: SharedDatabase,
        base: EmbeddingSet,
        config: RetroConfig,
        cache: usize,
    ) -> Result<Arc<Self>, RetroError> {
        let mut session = IncrementalRetro::new(config);
        let first = advance(&mut session, &db, &base, None, IncrementalRetro::prepare_refresh)?;
        Self::launch(db, base, session, first, cache)
    }

    /// Serve `first`, whose snapshot is the session's converged state, as
    /// the service's first generation. When its store is not at the
    /// snapshot's write version, or the database has moved since (writes
    /// during the initial solve, or since a recovered snapshot was saved),
    /// one catch-up refresh publishes the current state instead, so the
    /// service is coherent before it serves anyone.
    fn launch(
        db: SharedDatabase,
        base: EmbeddingSet,
        mut session: IncrementalRetro,
        first: PinnedGeneration,
        cache: usize,
    ) -> Result<Arc<Self>, RetroError> {
        let version = first.snapshot.write_version();
        let pinned = if first.store.write_version() == version && db.write_version() == version {
            first
        } else {
            let prepare = IncrementalRetro::prepare_refresh;
            advance(&mut session, &db, &base, Some(&first.snapshot), prepare)?
        };
        let cache = cache.max(1);
        let mut generations = VecDeque::with_capacity(cache + 1);
        generations.push_back(Arc::new(pinned));
        Ok(Arc::new(Self {
            db,
            base,
            session: RwLock::new(session),
            generations: RwLock::new(generations),
            cache,
            refreshes: AtomicU64::new(0),
        }))
    }

    /// The shared database this service serves from (hand it to writers).
    pub fn database(&self) -> &SharedDatabase {
        &self.db
    }

    /// The base embedding fixed at construction.
    pub fn base(&self) -> &EmbeddingSet {
        &self.base
    }

    /// The newest published generation: its snapshot and frozen store.
    pub(crate) fn latest(&self) -> Arc<PinnedGeneration> {
        Arc::clone(lock_read(&self.generations).back().expect("a service always has a generation"))
    }

    /// Generation numbers of the cached generations, oldest first.
    pub(crate) fn cached_generations(&self) -> Vec<u64> {
        lock_read(&self.generations).iter().map(|p| p.snapshot.generation()).collect()
    }

    /// The currently published snapshot.
    ///
    /// The returned `Arc` pins its generation for as long as the caller
    /// holds it — a concurrent refresh publishes a *new* snapshot and never
    /// touches this one.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.latest().snapshot)
    }

    /// The generation of the currently published snapshot.
    ///
    /// Read from the snapshot itself, so this can never run ahead of (or
    /// disagree with) what [`EmbeddingService::snapshot`] returns.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation()
    }

    /// True when the database has been written since the published snapshot
    /// was extracted (one integer compare against
    /// [`retro_store::Database::write_version`]).
    pub fn out_of_date(&self) -> bool {
        self.snapshot().write_version() != self.db.write_version()
    }

    /// [`Snapshot::nearest`] on the current snapshot.
    pub fn nearest(&self, query: &[f32], k: usize, mode: SearchMode) -> Vec<(usize, f32)> {
        self.snapshot().nearest(query, k, mode)
    }

    /// [`Snapshot::nearest_token`] on the current snapshot.
    pub fn nearest_token(
        &self,
        table: &str,
        column: &str,
        text: &str,
        k: usize,
        mode: SearchMode,
    ) -> Option<Vec<(usize, f32)>> {
        self.snapshot().nearest_token(table, column, text, k, mode)
    }

    /// Incremental refresh: re-extract and freeze a store clone under a
    /// brief database read guard, solve with the database unlocked,
    /// publish atomically. Returns the new generation number.
    ///
    /// The refresh is **delta scoped** whenever the change log allows it
    /// (see [`crate::IncrementalRetro::prepare_refresh`]): a small append
    /// re-solves only the affected rows, and a no-op change set republishes
    /// the same output — same `Arc`, cached norms — restamped with the new
    /// generation and write version, so the staleness check still clears.
    /// [`EmbeddingService::last_refresh`] reports which path ran.
    ///
    /// Refreshes are serialized on the session lock; readers are untouched
    /// throughout. On error nothing is published and the session keeps its
    /// warm-start state — the last good snapshot keeps serving.
    pub fn refresh(&self) -> Result<u64, RetroError> {
        self.refresh_with(IncrementalRetro::prepare_refresh)
    }

    /// [`EmbeddingService::refresh`], but always re-extracting and
    /// re-solving the whole problem (the delta dispatch is skipped). Use it
    /// to re-converge exactly — e.g. before an evaluation — at full cost.
    pub fn refresh_full(&self) -> Result<u64, RetroError> {
        self.refresh_with(IncrementalRetro::prepare_refresh_full)
    }

    /// Adjust the inner session's tuning knobs (refresh iteration count,
    /// delta dirty-set budget) under the session lock. Takes effect on the
    /// next refresh; concurrent refreshes are serialized against it.
    ///
    /// `tune` must leave the session's converged state alone (no
    /// `refresh`, `refresh_full`, `complete_refresh` or `restore`): the
    /// next generation derives its norms and index from the newest one's,
    /// which serves that state.
    pub fn tune_session(&self, tune: impl FnOnce(&mut IncrementalRetro)) {
        tune(&mut lock_write(&self.session));
    }

    fn refresh_with(&self, prepare: Prepare) -> Result<u64, RetroError> {
        let mut session = lock_write(&self.session);
        let next = advance(&mut session, &self.db, &self.base, Some(&self.snapshot()), prepare)?;
        let generation = next.snapshot.generation();
        // Publish under the session lock: publish order equals solve
        // order, which is what makes generations monotone for every
        // observer. An evicted generation is dropped after the cache lock
        // is released: it may hold the last handle on a store clone.
        let _evicted = {
            let mut generations = lock_write(&self.generations);
            generations.push_back(Arc::new(next));
            (generations.len() > self.cache).then(|| generations.pop_front())
        };
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        Ok(generation)
    }

    /// Persist the currently published snapshot to `path` — one
    /// checksummed file (written to a temp sibling and atomically renamed)
    /// holding the generation number, the database write version it
    /// reflects, the catalog and relation groups of the solved problem,
    /// the converged embedding matrix bit for bit, and the served ANN
    /// index's centroids and list assignments.
    ///
    /// [`EmbeddingService::recover`] reads it back after a restart. The
    /// snapshot captures one *published generation*, so the natural time
    /// to call this is right after a refresh — typically alongside
    /// [`retro_store::Database::checkpoint`] on the store side.
    pub fn save_snapshot(&self, path: &std::path::Path) -> Result<(), RetroError> {
        let snap = self.snapshot();
        let bytes = crate::persist::encode(
            snap.generation(),
            snap.write_version(),
            &snap.output.catalog,
            &snap.output.problem.groups,
            &snap.output.embeddings,
            &snap.index,
        );
        let writing = |err: &dyn std::fmt::Display| {
            RetroError::Persist(format!("writing {}: {err}", path.display()))
        };
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|err| writing(&err))?;
        }
        retro_store::codec::write_atomic(path, &bytes).map_err(|err| writing(&err))
    }

    /// Restart serving from a snapshot file written by
    /// [`EmbeddingService::save_snapshot`] — the warm-start counterpart of
    /// [`EmbeddingService::start`].
    ///
    /// When the store is at the snapshot's write version, the persisted
    /// generation is republished as-is: same generation number,
    /// bit-identical embeddings and the saved ANN index rebuilt from its
    /// centroids and assignments without retraining (so exact and
    /// approximate rankings match the pre-crash service exactly; an image
    /// written before the index was persisted trains one afresh), and an
    /// incremental session anchored at the snapshot's
    /// database write version. Otherwise one catch-up refresh runs before
    /// this returns, so the first generation served always matches the
    /// store: writes that landed *after* the snapshot are folded in
    /// (delta-scoped when the store's change log allows it), and a
    /// snapshot *ahead* of the store — saved before a crash lost the
    /// store's unflushed WAL tail — is replaced by a full refresh.
    ///
    /// `base` must be the same base embedding the snapshot was solved
    /// against (the derived problem parts are recomputed from it); a
    /// dimension mismatch is a typed [`RetroError::Persist`].
    pub fn recover(
        db: SharedDatabase,
        base: EmbeddingSet,
        config: RetroConfig,
        path: &std::path::Path,
    ) -> Result<Arc<Self>, RetroError> {
        Self::recover_cached(db, base, config, path, 1)
    }

    /// [`EmbeddingService::recover`] keeping the newest `cache`
    /// generations.
    pub(crate) fn recover_cached(
        db: SharedDatabase,
        base: EmbeddingSet,
        config: RetroConfig,
        path: &std::path::Path,
        cache: usize,
    ) -> Result<Arc<Self>, RetroError> {
        if base.dim() == 0 {
            return Err(RetroError::EmptyEmbedding);
        }
        let bytes = std::fs::read(path)
            .map_err(|err| RetroError::Persist(format!("reading {}: {err}", path.display())))?;
        let persisted = crate::persist::decode(&bytes)?;
        // Free the image before the problem and the index are rebuilt
        // beside its decoded copy.
        drop(bytes);
        if persisted.embeddings.cols() != base.dim() {
            return Err(RetroError::Persist(format!(
                "snapshot dimension {} does not match base embedding dimension {}",
                persisted.embeddings.cols(),
                base.dim()
            )));
        }

        let crate::persist::PersistedGeneration {
            generation,
            write_version,
            categories,
            values,
            groups,
            embeddings,
            index: saved,
        } = persisted;
        let threads = config.params.threads;
        // A version 2 image carries the served index: code the checksummed
        // rows into its saved lists instead of retraining, so the restart
        // serves the very index that was saved. A version 1 image trains
        // one afresh. The index needs only the rows, so it is built beside
        // the catalog replay and the problem assembly.
        let rows = &embeddings;
        let (problem, indexed) = std::thread::scope(|s| {
            let indexer = s.spawn(move || {
                let norms = rows.row_norms();
                let index = match saved {
                    Some(parts) => IvfIndex::from_parts(
                        rows,
                        &norms,
                        parts.config,
                        parts.centroids,
                        parts.assignments,
                    )
                    .map_err(|err| RetroError::Persist(format!("snapshot index: {err}")))?,
                    None => IvfIndex::build(rows, &norms, IvfConfig::auto(rows.rows()), threads),
                };
                Ok((norms, index))
            });
            let problem = recovered_problem(categories, values, groups, &base);
            (problem, indexer.join().expect("the index worker does not panic"))
        });
        let problem = problem?;
        if problem.len() != embeddings.rows() {
            return Err(RetroError::Persist(format!(
                "snapshot holds {} embedding rows for {} values",
                embeddings.rows(),
                problem.len()
            )));
        }
        let (norms, index) = indexed?;
        let output = Arc::new(RetroOutput::new(problem, embeddings, &config.params));
        // Recovery builds its snapshot beside `advance`, not through it:
        // there is no plan and no solve, and the index comes from saved
        // parts (or, for a v1 image, a fresh build).
        let snapshot = Arc::new(Snapshot {
            generation,
            write_version,
            threads,
            norms,
            index: Arc::new(index),
            output: Arc::clone(&output),
        });
        let mut session = IncrementalRetro::new(config);
        session.restore(output, write_version);
        let store = Database::clone(&db.read());
        Self::launch(db, base, session, PinnedGeneration { snapshot, store, trace: None }, cache)
    }

    /// The trace of the refresh that published the current generation:
    /// generation 1's full run right after [`EmbeddingService::start`];
    /// `None` after a recovery with nothing to catch up on.
    ///
    /// Read from the newest generation, so it never waits on a refresh in
    /// flight.
    pub fn last_trace(&self) -> Option<RefreshTrace> {
        self.latest().trace.clone()
    }

    /// Which path the refresh that published the current generation took
    /// — [`RefreshKind::Full`] right after start (the initial run is a full
    /// run), then whatever the last refresh dispatched to; `None` after a
    /// recovery with nothing to catch up on. The kind of
    /// [`EmbeddingService::last_trace`], read without waiting on a refresh
    /// in flight.
    pub fn last_refresh(&self) -> Option<RefreshKind> {
        self.latest().trace.as_ref().map(|trace| trace.kind)
    }

    /// Number of refreshes published since start (the first generation
    /// does not count). Grows with refreshes, not writes: all writes
    /// landing during one in-flight refresh coalesce into at most one
    /// follow-up.
    pub fn refreshes_published(&self) -> u64 {
        self.refreshes.load(Ordering::Relaxed)
    }

    /// [`EmbeddingService::refresh`], but only if [`EmbeddingService::out_of_date`];
    /// returns the new generation when a refresh was published.
    pub fn refresh_if_stale(&self) -> Result<Option<u64>, RetroError> {
        if self.out_of_date() {
            self.refresh().map(Some)
        } else {
            Ok(None)
        }
    }

    /// Start a background thread that watches the database write version
    /// every `poll` and publishes a refresh whenever it moved.
    ///
    /// The worker stops — joining its thread — when the returned
    /// [`RefreshWorker`] is dropped or explicitly
    /// [`stop`](RefreshWorker::stop)ped.
    pub fn spawn_refresher(self: &Arc<Self>, poll: Duration) -> RefreshWorker {
        let service = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Acquire) {
                // `start` validated the base, and the base never changes,
                // so a refresh here cannot fail; if it ever does, the last
                // good snapshot keeps serving and we retry next tick.
                let _ = service.refresh_if_stale();
                std::thread::park_timeout(poll);
            }
        });
        RefreshWorker { stop, handle: Some(handle) }
    }
}

/// Handle to a background refresh thread (see
/// [`EmbeddingService::spawn_refresher`]). Dropping it stops and joins the
/// thread.
#[derive(Debug)]
pub struct RefreshWorker {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl RefreshWorker {
    /// Stop the worker and join its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for RefreshWorker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The problem a recovered image was solved on: the catalog replayed
/// through the public construction path in id order (`add_category` and
/// `intern` assign dense ids sequentially, so the recovered ids are
/// exactly the persisted ones), then assembled against `base`.
fn recovered_problem(
    categories: Vec<(String, String)>,
    values: Vec<(u32, String)>,
    groups: Vec<crate::RelationGroup>,
    base: &EmbeddingSet,
) -> Result<crate::RetrofitProblem, RetroError> {
    let mut catalog = crate::TextValueCatalog::default();
    for (table, column) in &categories {
        catalog.add_category(table, column);
    }
    for (id, (category, text)) in values.iter().enumerate() {
        let got = catalog.intern(*category, text);
        if got as usize != id {
            return Err(RetroError::Persist(format!(
                "duplicate text value '{text}' (id {id} resolved to {got})"
            )));
        }
    }
    Ok(crate::RetrofitProblem::from_parts(catalog, groups, base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use retro_store::{sql, Database};

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
        sql::run_script(
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

    fn insert_prometheus(shared: &SharedDatabase) {
        shared
            .with_write(|db| {
                sql::run(db, "INSERT INTO movies VALUES (3, 'prometheus', 2)").map(|_| ())
            })
            .unwrap();
    }

    #[test]
    fn start_publishes_generation_one() {
        let service = EmbeddingService::start(shared(), base(), RetroConfig::default()).unwrap();
        let snap = service.snapshot();
        assert_eq!(snap.generation(), 1);
        assert_eq!(service.generation(), 1);
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.norms().len(), 4);
        assert!(!service.out_of_date());
    }

    #[test]
    fn start_rejects_empty_base() {
        let err = EmbeddingService::start(shared(), EmbeddingSet::empty(0), RetroConfig::default())
            .unwrap_err();
        assert_eq!(err, RetroError::EmptyEmbedding);
    }

    #[test]
    fn writes_make_the_snapshot_stale_and_refresh_clears_it() {
        let service = EmbeddingService::start(shared(), base(), RetroConfig::default()).unwrap();
        assert_eq!(service.refresh_if_stale().unwrap(), None, "fresh service must not refresh");

        insert_prometheus(service.database());
        assert!(service.out_of_date());
        let generation = service.refresh().unwrap();
        assert_eq!(generation, 2);
        assert!(!service.out_of_date());
        assert!(service.snapshot().vector("movies", "title", "prometheus").is_some());
    }

    #[test]
    fn old_snapshots_keep_serving_their_generation() {
        let service = EmbeddingService::start(shared(), base(), RetroConfig::default()).unwrap();
        let old = service.snapshot();
        insert_prometheus(service.database());
        service.refresh().unwrap();
        assert_eq!(old.generation(), 1);
        assert_eq!(old.len(), 4);
        assert!(old.vector("movies", "title", "prometheus").is_none());
        assert_eq!(service.snapshot().generation(), 2);
        assert_eq!(service.snapshot().len(), 5);
    }

    #[test]
    fn nearest_token_excludes_the_query_value() {
        let service = EmbeddingService::start(shared(), base(), RetroConfig::default()).unwrap();
        let snap = service.snapshot();
        let id = snap.output().catalog.lookup("movies", "title", "valerian").unwrap();
        let nn = snap.nearest_token("movies", "title", "valerian", 3, SearchMode::Exact).unwrap();
        assert_eq!(nn.len(), 3);
        assert!(nn.iter().all(|&(i, _)| i != id));
        assert!(snap.nearest_token("movies", "title", "missing", 3, SearchMode::Exact).is_none());
        // Service-level conveniences mirror the snapshot.
        assert_eq!(
            service.nearest_token("movies", "title", "valerian", 3, SearchMode::Exact).unwrap(),
            nn
        );
        assert_eq!(
            service.nearest(snap.output().embeddings.row(id), 2, SearchMode::Exact).len(),
            2
        );
    }

    #[test]
    fn approx_full_probe_matches_the_exact_oracle() {
        let service = EmbeddingService::start(shared(), base(), RetroConfig::default()).unwrap();
        let snap = service.snapshot();
        let all = SearchMode::Approx { probes: snap.index().nlist() };
        let id = snap.output().catalog.lookup("movies", "title", "valerian").unwrap();
        let query = snap.output().embeddings.row(id).to_vec();
        assert_eq!(snap.nearest(&query, 3, all), snap.nearest(&query, 3, SearchMode::Exact));
        assert_eq!(
            snap.nearest_token("movies", "title", "valerian", 3, all),
            snap.nearest_token("movies", "title", "valerian", 3, SearchMode::Exact),
        );
        assert!(snap.default_probes() >= 1);
    }

    #[test]
    fn delta_refresh_patches_the_index_coherently() {
        let service = EmbeddingService::start(shared(), base(), RetroConfig::default()).unwrap();
        service.tune_session(|s| s.delta_max_dirty_fraction = 1.0);
        insert_prometheus(service.database());
        service.refresh().unwrap();
        assert_eq!(service.last_refresh(), Some(RefreshKind::Delta));
        let snap = service.snapshot();
        // The patched index covers every row and agrees with a fresh
        // assignment against the same (frozen) centroids.
        assert_eq!(snap.index().len(), snap.len());
        let fresh = IvfIndex::with_centroids(
            &snap.output().embeddings,
            snap.norms(),
            snap.index().centroids().clone(),
            *snap.index().config(),
            1,
        );
        assert_eq!(snap.index().assignments(), fresh.assignments());
    }

    #[test]
    fn each_refresh_publishes_its_trace() {
        let service = EmbeddingService::start(shared(), base(), RetroConfig::default()).unwrap();
        let trace = service.last_trace().expect("generation 1 carries its trace");
        assert_eq!((trace.kind, trace.dirty_rows, trace.patch), (RefreshKind::Full, 0, None));
        // Generation 1 owns all of its `W0` and lists.
        let snap = service.snapshot();
        assert_eq!(trace.w0_owned, snap.len() * snap.output().problem.dim() * size_of::<f32>());
        assert_eq!(trace.lists_owned, snap.index().owned_list_bytes(None));
        service.tune_session(|s| s.delta_max_dirty_fraction = 1.0);
        insert_prometheus(service.database());
        service.refresh().unwrap();
        let trace = service.last_trace().expect("a refresh made generation 2");
        assert_eq!(trace.kind, RefreshKind::Delta);
        let patch = trace.patch.expect("a delta refresh patches the index");
        assert!(trace.dirty_rows > 0);
        assert_eq!(patch.dirty, trace.dirty_rows);
        assert_eq!(patch.certified + patch.reassigned, trace.dirty_rows, "{trace}");
        let nlist = service.snapshot().index().nlist();
        assert_eq!(patch.lists_rebuilt + patch.lists_shared, nlist, "{trace}");
        assert!(trace.to_string().starts_with("Delta "), "{trace}");

        service.refresh_full().unwrap();
        let trace = service.last_trace().unwrap();
        assert_eq!((trace.kind, trace.dirty_rows, trace.patch), (RefreshKind::Full, 0, None));
    }

    #[test]
    fn background_worker_picks_up_writes() {
        let service = EmbeddingService::start(shared(), base(), RetroConfig::default()).unwrap();
        let worker = service.spawn_refresher(Duration::from_millis(1));
        insert_prometheus(service.database());
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while service.snapshot().vector("movies", "title", "prometheus").is_none() {
            assert!(std::time::Instant::now() < deadline, "worker never refreshed");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(service.generation() >= 2);
        worker.stop();
        // After stop() the worker no longer reacts to writes.
        let generation = service.generation();
        insert_prometheus_again(service.database());
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(service.generation(), generation);
        assert!(service.out_of_date());
    }

    fn insert_prometheus_again(shared: &SharedDatabase) {
        shared
            .with_write(|db| {
                sql::run(db, "INSERT INTO movies VALUES (4, 'covenant', 2)").map(|_| ())
            })
            .unwrap();
    }

    #[test]
    fn single_insert_refresh_takes_the_delta_path() {
        let service = EmbeddingService::start(shared(), base(), RetroConfig::default()).unwrap();
        // The toy graph's two-ring dirty set is most of the catalog; this
        // test is about the dispatch, not the budget.
        service.tune_session(|s| s.delta_max_dirty_fraction = 1.0);
        assert_eq!(service.last_refresh(), Some(RefreshKind::Full));
        insert_prometheus(service.database());
        service.refresh().unwrap();
        assert_eq!(service.last_refresh(), Some(RefreshKind::Delta));
        let snap = service.snapshot();
        assert!(snap.vector("movies", "title", "prometheus").is_some());
        // The delta publish patches the cached norms (frozen rows reuse
        // the old entries) — they must still equal a full renormalize.
        let exact = snap.output().embeddings.row_norms();
        assert_eq!(snap.norms(), exact.as_slice());
        // The explicit full path remains available as the exact reference.
        service.refresh_full().unwrap();
        assert_eq!(service.last_refresh(), Some(RefreshKind::Full));
    }

    #[test]
    fn no_change_refresh_republishes_the_same_output() {
        let service = EmbeddingService::start(shared(), base(), RetroConfig::default()).unwrap();
        let before = service.snapshot();
        // Numeric-only write: staleness triggers, but nothing can move.
        service
            .database()
            .with_write(|db| {
                sql::run(db, "CREATE TABLE stats (id INTEGER PRIMARY KEY, n FLOAT)").map(|_| ())
            })
            .unwrap();
        assert!(service.out_of_date());
        // A new table IS a graph change (Full), so use a numeric update
        // instead: add the rows first, republish, then update in place.
        service.refresh().unwrap();
        let settled = service.snapshot();
        service
            .database()
            .with_write(|db| {
                sql::run(db, "INSERT INTO stats VALUES (1, 1.0)").map(|_| ())?;
                db.update_rows("stats", &[(0, 1, retro_store::Value::Float(2.0))]).map(|_| ())
            })
            .unwrap();
        assert!(service.out_of_date());
        let generation = service.refresh().unwrap();
        assert_eq!(service.last_refresh(), Some(RefreshKind::NoChange));
        assert!(!service.out_of_date(), "a no-change refresh must still clear staleness");
        let after = service.snapshot();
        assert_eq!(after.generation(), generation);
        assert!(
            Arc::ptr_eq(&after.output, &settled.output),
            "no-change republish must reuse the output allocation"
        );
        assert!(
            Arc::ptr_eq(&after.index, &settled.index),
            "no-change republish must reuse the index allocation"
        );
        assert_eq!(after.norms(), settled.norms());
        drop(before);
    }

    #[test]
    fn refresh_reports_do_not_wait_on_the_session_lock() {
        let service = EmbeddingService::start(shared(), base(), RetroConfig::default()).unwrap();
        let (locked, wait_locked) = std::sync::mpsc::channel();
        let (release, wait_release) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn({
            let service = Arc::clone(&service);
            move || {
                let mut released = false;
                service.tune_session(|_| {
                    locked.send(()).unwrap();
                    released = wait_release.recv_timeout(Duration::from_secs(10)).is_ok();
                });
                released
            }
        });
        wait_locked.recv().unwrap();
        // The holder keeps the session lock, as a refresh in flight does.
        assert_eq!(service.last_refresh(), Some(RefreshKind::Full));
        assert_eq!(service.last_trace().map(|trace| trace.kind), Some(RefreshKind::Full));
        let _ = release.send(());
        assert!(holder.join().unwrap(), "the reports waited for the session lock");
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("retro_serve_persist_{}_{tag}.bin", std::process::id()))
    }

    #[test]
    fn save_and_recover_republishes_the_same_generation() {
        let path = temp_path("round_trip");
        let service = EmbeddingService::start(shared(), base(), RetroConfig::default()).unwrap();
        insert_prometheus(service.database());
        service.refresh().unwrap();
        service.save_snapshot(&path).unwrap();
        let before = service.snapshot();

        let recovered = EmbeddingService::recover(
            service.database().clone(),
            base(),
            RetroConfig::default(),
            &path,
        )
        .unwrap();
        let after = recovered.snapshot();
        assert_eq!(after.generation(), before.generation());
        assert_eq!(after.write_version(), before.write_version());
        assert_eq!(after.len(), before.len());
        assert_eq!(
            after.output().embeddings.max_abs_diff(&before.output().embeddings),
            0.0,
            "recovered embeddings must be bit-identical"
        );
        assert!(!recovered.out_of_date(), "nothing was written since the snapshot");
        assert_eq!(recovered.last_refresh(), None, "no solve ran in this process yet");

        // The recovered session is a live one: a later write refreshes
        // normally and bumps the persisted generation number.
        insert_prometheus_again(recovered.database());
        assert!(recovered.out_of_date());
        let generation = recovered.refresh().unwrap();
        assert_eq!(generation, before.generation() + 1);
        assert!(recovered.snapshot().vector("movies", "title", "covenant").is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_rejects_mismatched_base_and_damage() {
        let path = temp_path("faults");
        let service = EmbeddingService::start(shared(), base(), RetroConfig::default()).unwrap();
        service.save_snapshot(&path).unwrap();

        // A base with the wrong dimensionality must be refused.
        let skinny = EmbeddingSet::new(vec!["alien".into()], vec![vec![1.0, 0.0, 0.0]]);
        let err = EmbeddingService::recover(
            service.database().clone(),
            skinny,
            RetroConfig::default(),
            &path,
        )
        .unwrap_err();
        assert!(matches!(err, RetroError::Persist(_)), "got {err:?}");

        // A flipped body byte must be caught by the checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = EmbeddingService::recover(
            service.database().clone(),
            base(),
            RetroConfig::default(),
            &path,
        )
        .unwrap_err();
        assert_eq!(err, RetroError::Persist("checksum mismatch".into()));

        // A re-sealed index section naming a list that does not exist is
        // refused by the index rebuild, typed. The last four bytes are the
        // last row's list assignment.
        bytes[last] ^= 0x01;
        bytes[last - 3..].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = retro_store::crc32(&bytes[12..]);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = EmbeddingService::recover(
            service.database().clone(),
            base(),
            RetroConfig::default(),
            &path,
        )
        .unwrap_err();
        let snap = service.snapshot();
        let msg = format!(
            "snapshot index: row {} is assigned to list {} of {}",
            snap.len() - 1,
            u32::MAX,
            snap.index().nlist()
        );
        assert_eq!(err, RetroError::Persist(msg));

        // A missing file is a typed error, not a panic.
        std::fs::remove_file(&path).unwrap();
        let err = EmbeddingService::recover(
            service.database().clone(),
            base(),
            RetroConfig::default(),
            &path,
        )
        .unwrap_err();
        assert!(matches!(err, RetroError::Persist(_)));
    }

    #[test]
    fn refreshes_published_counts_refreshes_not_writes() {
        let service = EmbeddingService::start(shared(), base(), RetroConfig::default()).unwrap();
        assert_eq!(service.refreshes_published(), 0);
        insert_prometheus(service.database());
        insert_prometheus_again(service.database());
        service.refresh_if_stale().unwrap();
        assert_eq!(service.refreshes_published(), 1, "two writes, one refresh");
        assert_eq!(service.refresh_if_stale().unwrap(), None);
        assert_eq!(service.refreshes_published(), 1);
    }
}
