//! The database: a named collection of tables with cross-table constraints.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::bulk::BulkLoader;
use crate::changelog::{ChangeLog, ChangeRecord, TableChange};
use crate::codec::io_err;
use crate::error::StoreError;
use crate::persist::{self, SNAPSHOT_FILE};
use crate::schema::{ForeignKey, TableSchema};
use crate::table::Table;
use crate::value::{DataType, Value};
use crate::wal::{self, DurabilityPolicy, Wal, WalEntry, WalOp, WAL_FILE};
use crate::Result;

/// The durable half of a [`Database`]: the open WAL plus the directory
/// the snapshot lives in. Present only on databases created through
/// [`Database::open`] / [`Database::recover`].
#[derive(Debug)]
pub(crate) struct Durability {
    pub(crate) wal: Wal,
    pub(crate) dir: PathBuf,
    /// Sticky error after a failed WAL append. A partial frame may be
    /// sitting at the log's tail, so further appends would be misaligned;
    /// durable mutations are refused until [`Database::checkpoint`]
    /// re-syncs log and memory.
    pub(crate) poisoned: Option<StoreError>,
}

impl Durability {
    /// Append one record, flushing before returning. Any failure poisons
    /// the log (see the `poisoned` field) and is sticky until a
    /// checkpoint heals it.
    pub(crate) fn append(&mut self, op: &WalOp<'_>) -> Result<()> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        if let Err(err) = self.wal.append(op) {
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        Ok(())
    }
}

/// An in-memory relational database.
///
/// Tables are kept in a `BTreeMap` so iteration order (and therefore text
/// value numbering downstream in `retro-core`) is deterministic across runs.
///
/// A database is either *ephemeral* ([`Database::new`] — mutations live
/// only in memory) or *durable* ([`Database::open`] /
/// [`Database::recover`] — every committed mutation is appended to a
/// write-ahead log before the call returns, and
/// [`Database::checkpoint`] compacts the log into a checksummed
/// snapshot). See `docs/DURABILITY.md`.
#[derive(Debug, Default)]
pub struct Database {
    pub(crate) tables: BTreeMap<String, Table>,
    /// Monotonic write-version counter; see [`Database::write_version`].
    pub(crate) write_version: u64,
    /// Per-table write versions; see [`Database::table_version`].
    pub(crate) table_versions: BTreeMap<String, u64>,
    /// Bounded history of what each version bump did; see
    /// [`Database::changes_since`].
    pub(crate) change_log: ChangeLog,
    /// WAL + snapshot directory, when this database is durable.
    durability: Option<Durability>,
    /// Diagnostic counter: how many times a delete's RESTRICT check had to
    /// scan a referencing table because its FK column carried no index.
    /// Foreign-key columns are auto-indexed at `create_table`, so this
    /// staying at zero is an invariant the test suite pins.
    fk_scan_fallbacks: AtomicU64,
}

impl Clone for Database {
    /// Cloning shares every table: each [`Table`] keeps its rows and
    /// indexes behind an `Arc` and copies them on its first write, so a
    /// clone costs one reference-count bump per table (plus the version
    /// and change-log bookkeeping), never a row copy, and whichever side
    /// writes a table first copies only that table. Neither side ever
    /// sees the other's writes. The clone is ephemeral even when `self`
    /// is durable, because two databases appending to one WAL would
    /// interleave their records. (Observers — the serving layer's frozen
    /// generations, equivalence tests — clone freely and must not write
    /// to the original's log.)
    fn clone(&self) -> Self {
        Self {
            tables: self.tables.clone(),
            write_version: self.write_version,
            table_versions: self.table_versions.clone(),
            change_log: self.change_log.clone(),
            durability: None,
            fk_scan_fallbacks: AtomicU64::new(self.fk_scan_fallbacks.load(Ordering::Relaxed)),
        }
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a durable database rooted at `dir`, creating the directory if
    /// needed. If `dir` already holds a snapshot and/or a write-ahead
    /// log, the persisted state is recovered first — this is an alias for
    /// [`Database::recover`], so "open" and "recover after a crash" are
    /// the same code path and cannot drift apart.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::recover(dir)
    }

    /// Recover the exact pre-crash state persisted under `dir`: load the
    /// latest snapshot (if any), replay the WAL tail through the normal
    /// mutation paths — so [`Database::write_version`], per-table
    /// versions, and [`Database::changes_since`] history are reproduced
    /// exactly, not approximated — and leave the database durable, ready
    /// to append.
    ///
    /// Tail damage in the log (a torn final record, a truncated file, a
    /// bit-flipped checksum) is expected after a crash and recovery stops
    /// cleanly at the last intact record. Structural damage — a corrupt
    /// snapshot, a checksummed record that fails to decode, a sequence
    /// gap — is a typed [`StoreError::Corruption`].
    pub fn recover(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let (mut db, covered_seq) = match persist::load_snapshot(&dir.join(SNAPSHOT_FILE))? {
            Some((db, seq)) => (db, seq),
            None => (Database::default(), 0),
        };
        let wal_path = dir.join(WAL_FILE);
        let replay = wal::read_wal(&wal_path, covered_seq)?;
        for entry in replay.entries {
            // `durability` is still `None` here, so replay does not re-log.
            db.apply(entry).map_err(|err| match err {
                StoreError::Corruption(_) | StoreError::Io(_) => err,
                other => StoreError::Corruption(format!(
                    "wal replay rejected a logged mutation: {other}"
                )),
            })?;
        }
        db.durability = Some(Durability {
            wal: Wal::open(&wal_path, replay.next_seq)?,
            dir: dir.to_path_buf(),
            poisoned: None,
        });
        Ok(db)
    }

    /// True when this database appends committed mutations to a WAL.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Choose when WAL records reach the OS (default
    /// [`DurabilityPolicy::PerCommit`]). Switching flushes any buffered
    /// group first, so records appended under the old policy keep its
    /// guarantee. Requires a durable database.
    pub fn set_durability_policy(&mut self, policy: DurabilityPolicy) -> Result<()> {
        let Some(durability) = &mut self.durability else {
            return Err(StoreError::Io(
                "durability policy requires a durable database (use Database::open)".into(),
            ));
        };
        if let Some(err) = &durability.poisoned {
            return Err(err.clone());
        }
        if let Err(err) = durability.wal.set_policy(policy) {
            durability.poisoned = Some(err.clone());
            return Err(err);
        }
        Ok(())
    }

    /// Flush any group-commit buffer to the OS, making every committed
    /// mutation so far crash-durable. A no-op under
    /// [`DurabilityPolicy::PerCommit`] (appends flush themselves) and on
    /// an ephemeral database.
    pub fn flush_wal(&mut self) -> Result<()> {
        let Some(durability) = &mut self.durability else {
            return Ok(());
        };
        if let Some(err) = &durability.poisoned {
            return Err(err.clone());
        }
        if let Err(err) = durability.wal.flush() {
            durability.poisoned = Some(err.clone());
            return Err(err);
        }
        Ok(())
    }

    /// Compact the log: write a checksummed snapshot of the full current
    /// state (atomically, via temp file + rename), then truncate the WAL.
    /// Recovery afterwards loads the snapshot and replays only records
    /// appended since. Because the snapshot captures the in-memory truth
    /// directly, a checkpoint also heals a poisoned log (after a failed
    /// append the log may end in a partial frame; snapshotting makes the
    /// log's content irrelevant).
    pub fn checkpoint(&mut self) -> Result<()> {
        let Some(durability) = &self.durability else {
            return Err(StoreError::Io(
                "checkpoint requires a durable database (use Database::open)".into(),
            ));
        };
        let covered_seq = durability.wal.next_seq - 1;
        let path = durability.dir.join(SNAPSHOT_FILE);
        persist::write_snapshot(self, &path, covered_seq)?;
        let durability = self.durability.as_mut().expect("checked above");
        durability.wal.reset()?;
        durability.poisoned = None;
        Ok(())
    }

    /// Write a standalone snapshot of this database under `dir` (created
    /// if needed), without attaching durability to `self`. A later
    /// [`Database::recover`] on `dir` reproduces the current state. Any
    /// stale WAL left in `dir` by an unrelated database is removed —
    /// unless it is this database's own live log (then it is already
    /// consistent: its records are at or below the snapshot's sequence).
    pub fn persist(&self, dir: impl AsRef<Path>) -> Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let covered_seq = self.durability.as_ref().map_or(0, |d| d.wal.next_seq - 1);
        persist::write_snapshot(self, &dir.join(SNAPSHOT_FILE), covered_seq)?;
        if self.durability.as_ref().is_none_or(|d| d.dir != dir) {
            match std::fs::remove_file(dir.join(WAL_FILE)) {
                Ok(()) => {}
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
                Err(err) => return Err(io_err(err)),
            }
        }
        Ok(())
    }

    /// Append one record to the WAL (no-op on an ephemeral database).
    /// Mutation paths call this *before* touching memory, so a failed
    /// append refuses the mutation with state unchanged.
    pub(crate) fn log_op(&mut self, op: WalOp<'_>) -> Result<()> {
        match &mut self.durability {
            Some(durability) => durability.append(&op),
            None => Ok(()),
        }
    }

    /// Re-apply one recovered log entry through the public mutation
    /// paths, so every side effect — validation, version bumps, change
    /// records — happens exactly as it did originally.
    fn apply(&mut self, entry: WalEntry) -> Result<()> {
        match entry {
            WalEntry::CreateTable(schema) => self.create_table(schema),
            WalEntry::Insert { table, row } => self.insert(&table, row).map(|_| ()),
            WalEntry::Batch { tables } => {
                let mut loader = self.bulk();
                let mut handles = Vec::with_capacity(tables.len());
                for (name, _) in &tables {
                    handles.push(loader.table(name)?);
                }
                for (handle, (_, rows)) in handles.into_iter().zip(tables) {
                    for row in rows {
                        loader.stage(handle, row)?;
                    }
                }
                loader.commit().map(|_| ())
            }
            WalEntry::Update { table, updates } => self.update_rows(&table, &updates).map(|_| ()),
            WalEntry::Delete { table, positions } => {
                self.delete_rows(&table, &positions).map(|_| ())
            }
            WalEntry::CreateIndex { table, column } => {
                self.create_index(&table, &column).map(|_| ())
            }
        }
    }

    /// The database's monotonic write version.
    ///
    /// Every mutating operation — [`Database::create_table`],
    /// [`Database::insert`] and its batch variants, a committed
    /// [`Database::bulk`] load (CSV import and SQL `INSERT` route through
    /// it), and [`Database::update_rows`] / [`Database::delete_rows`] (SQL
    /// `UPDATE`/`DELETE` that touched rows route through them) — bumps
    /// this counter, so an observer that remembers the version it last
    /// saw can detect "something changed" with one integer compare. A
    /// rolled-back bulk batch leaves the version (like the data)
    /// untouched. The counter is a *staleness signal*, not an exact
    /// mutation count: a path may bump it more than once per logical
    /// write, and a bump does not guarantee the data differs — only
    /// equality is meaningful, and only as "no write happened in
    /// between". Each bump also stamps the mutated table's
    /// [`Database::table_version`] and appends a [`ChangeRecord`]
    /// describing the mutation to the bounded log behind
    /// [`Database::changes_since`].
    ///
    /// `retro_core::serve::EmbeddingService` polls this through
    /// [`crate::SharedDatabase::write_version`] to decide when a published
    /// embedding snapshot is out of date.
    pub fn write_version(&self) -> u64 {
        self.write_version
    }

    /// The write version of the last mutation that touched `name`, or 0 if
    /// the table has never been mutated (or does not exist).
    ///
    /// Together with [`Database::changes_since`] this lets an observer
    /// scope reactions to the tables that actually changed instead of
    /// re-reading the whole database on every global version bump.
    pub fn table_version(&self, name: &str) -> u64 {
        self.table_versions.get(name).copied().unwrap_or(0)
    }

    /// Every change recorded after write version `since`, oldest first, or
    /// `None` when the bounded change log has evicted history past `since`
    /// — the caller must then assume anything changed (in `retro-core`
    /// that triggers the full-refresh fallback). See [`crate::changelog`].
    pub fn changes_since(&self, since: u64) -> Option<Vec<&ChangeRecord>> {
        self.change_log.changes_since(since)
    }

    /// Change how many [`ChangeRecord`]s the bounded log retains (min 1).
    /// Shrinking evicts the oldest records immediately.
    pub fn set_change_log_capacity(&mut self, capacity: usize) {
        self.change_log.set_capacity(capacity);
    }

    /// Record a mutation: bump [`Database::write_version`], stamp the
    /// table's [`Database::table_version`], and append a [`ChangeRecord`]
    /// to the bounded log. Every mutating path routes through here so the
    /// three signals cannot drift.
    pub(crate) fn record_change(&mut self, table: &str, change: TableChange) {
        self.write_version += 1;
        self.table_versions.insert(table.to_owned(), self.write_version);
        self.change_log.push(ChangeRecord {
            version: self.write_version,
            table: table.to_owned(),
            change,
        });
    }

    /// Create a table from a schema, validating the primary-key index and
    /// the foreign-key declarations against the already-present tables.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        if self.tables.contains_key(&schema.name) {
            return Err(StoreError::DuplicateTable(schema.name));
        }
        schema.check_columns()?;
        self.check_foreign_keys(&schema)?;
        self.log_op(WalOp::CreateTable(&schema))?;
        let name = schema.name.clone();
        let fk_cols: Vec<usize> = schema
            .foreign_keys
            .iter()
            .map(|fk| schema.column_index(&fk.column).expect("checked above"))
            .collect();
        let mut table = Table::new(schema);
        // Auto-index every foreign-key column: FK validation on delete and
        // the extraction/planner join paths all probe these. The indexes
        // are derived from the schema, so WAL replay of the CreateTable
        // record above re-creates them without any extra log record.
        for col in fk_cols {
            table.create_secondary_index(col).expect("fk columns are INTEGER");
        }
        self.tables.insert(name.clone(), table);
        self.record_change(&name, TableChange::Created);
        Ok(())
    }

    /// Error unless every foreign key of `schema` names one of its own
    /// INTEGER columns and the primary key of a present table.
    pub(crate) fn check_foreign_keys(&self, schema: &TableSchema) -> Result<()> {
        for fk in &schema.foreign_keys {
            if schema.column_index(&fk.column).is_none() {
                return Err(StoreError::BadForeignKey(format!(
                    "column `{}` not in table `{}`",
                    fk.column, schema.name
                )));
            }
            let target = self.tables.get(&fk.ref_table).ok_or_else(|| {
                StoreError::BadForeignKey(format!(
                    "referenced table `{}` does not exist",
                    fk.ref_table
                ))
            })?;
            let ref_schema = target.schema();
            let ref_idx = ref_schema.column_index(&fk.ref_column).ok_or_else(|| {
                StoreError::BadForeignKey(format!(
                    "referenced column `{}.{}` does not exist",
                    fk.ref_table, fk.ref_column
                ))
            })?;
            if ref_schema.primary_key != Some(ref_idx) {
                return Err(StoreError::BadForeignKey(format!(
                    "`{}.{}` is not the primary key of `{}`",
                    fk.ref_table, fk.ref_column, fk.ref_table
                )));
            }
            let col = schema.column(&fk.column).expect("checked above");
            if col.ty != DataType::Int {
                return Err(StoreError::BadForeignKey(format!(
                    "foreign key column `{}.{}` must be INTEGER",
                    schema.name, fk.column
                )));
            }
        }
        Ok(())
    }

    /// Declare a secondary equality index on `table.column`, backfilling
    /// it from the existing rows. Supported on `INTEGER` and `TEXT`
    /// columns; foreign-key columns are indexed automatically at
    /// [`Database::create_table`]. Returns `false` when the column was
    /// already indexed (the call is then a no-op, and nothing is logged).
    ///
    /// On a durable database the declaration is WAL-logged and recorded in
    /// snapshots, so recovery rebuilds the same index set. Declaring an
    /// index does not bump [`Database::write_version`]: it changes no
    /// query result, only access paths.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<bool> {
        let t = self.tables.get(table).ok_or_else(|| StoreError::UnknownTable(table.to_owned()))?;
        let col = t.schema().column_index(column).ok_or_else(|| StoreError::UnknownColumn {
            table: table.to_owned(),
            column: column.to_owned(),
        })?;
        // Type-gate before logging: a logged declaration must replay.
        t.indexable_key_type(col)?;
        if t.has_secondary_index(col) {
            return Ok(false);
        }
        self.log_op(WalOp::CreateIndex { table, column })?;
        let created = self
            .tables
            .get_mut(table)
            .expect("checked above")
            .create_secondary_index(col)
            .expect("validated above");
        debug_assert!(created);
        Ok(true)
    }

    /// How many times a [`Database::delete_rows`] RESTRICT check fell back
    /// to scanning a referencing table because its foreign-key column had
    /// no index. Foreign-key columns are auto-indexed at table creation,
    /// so this stays 0 in normal operation — the test suite asserts it.
    pub fn fk_scan_fallbacks(&self) -> u64 {
        self.fk_scan_fallbacks.load(Ordering::Relaxed)
    }

    /// Heap bytes of the join hashes the tables hold: built by planned
    /// hash joins, dropped by any write to their table. A clone shares the
    /// original's, so two databases can count the same bytes.
    pub fn join_cache_bytes(&self) -> usize {
        self.tables.values().map(Table::join_hash_bytes).sum()
    }

    /// Insert a row, enforcing arity, types, key uniqueness and foreign keys.
    /// Returns the row's position in the table.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<usize> {
        let t = self.tables.get(table).ok_or_else(|| StoreError::UnknownTable(table.to_owned()))?;
        t.validate_row(&row)?;
        // Foreign keys need read access to other tables, so check them
        // before taking the mutable borrow.
        for fk in &t.schema().foreign_keys {
            let idx = t.schema().column_index(&fk.column).expect("validated at create");
            let target = self.tables.get(&fk.ref_table).expect("validated at create");
            check_foreign_key(table, &fk.column, &row[idx], target)?;
        }
        self.log_op(WalOp::Insert { table, row: &row })?;
        let t = self.tables.get_mut(table).expect("checked above");
        let pos = t.push_unchecked(row);
        self.record_change(table, TableChange::Appended { start: pos, rows: 1 });
        Ok(pos)
    }

    /// Start a batched bulk load into this database.
    ///
    /// The returned [`BulkLoader`] stages rows across any number of tables,
    /// defers all validation to a single [`commit`](BulkLoader::commit), and
    /// either appends every staged row or (on the first constraint
    /// violation, in staging order) leaves the database untouched. All
    /// per-row name resolution — table lookups, foreign-key column indices,
    /// referenced-table handles — is amortized to once per batch, which is
    /// what makes this the ingest fast path. See `docs/INGESTION.md`.
    pub fn bulk(&mut self) -> BulkLoader<'_> {
        BulkLoader::new(self)
    }

    /// Atomically insert a batch of rows into one table via the bulk path.
    ///
    /// Either every row is inserted or none are; the error identifies the
    /// offending row as [`StoreError::BulkRow`]. The resulting database
    /// state is identical to calling [`Database::insert`] per row.
    ///
    /// ```
    /// use retro_store::{Database, DataType, StoreError, TableSchema, Value};
    ///
    /// let mut db = Database::new();
    /// db.create_table(TableSchema::builder("t").pk("id").build()).unwrap();
    /// // The second row repeats primary key 1: nothing at all is inserted.
    /// let err = db
    ///     .insert_batch("t", vec![vec![Value::Int(1)], vec![Value::Int(1)]])
    ///     .unwrap_err();
    /// assert!(matches!(err, StoreError::BulkRow { row: 1, .. }));
    /// assert!(db.table("t").unwrap().is_empty());
    ///
    /// let n = db
    ///     .insert_batch("t", (1..=3).map(|k| vec![Value::Int(k)]))
    ///     .unwrap();
    /// assert_eq!(n, 3);
    /// ```
    pub fn insert_batch(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<usize> {
        let mut loader = self.bulk();
        let handle = loader.table(table)?;
        for row in rows {
            loader.stage(handle, row)?;
        }
        loader.commit()
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables.get(name).ok_or_else(|| StoreError::UnknownTable(name.to_owned()))
    }

    /// Rewrite individual cells in place, atomically and precisely tracked.
    ///
    /// `updates` lists `(row position, column index, new value)` triples.
    /// Every triple is validated first — row/column bounds, column type,
    /// the primary-key column is frozen, and a foreign-key column may only
    /// receive `NULL` or a key present in the referenced table — and only
    /// then are all of them applied, so a bad triple anywhere leaves the
    /// table (and the write version) untouched. On success one
    /// [`TableChange::Updated`] record is logged; its `relational` flag is
    /// set only when a TEXT or foreign-key column was assigned, which lets
    /// observers ignore updates that cannot affect the text-value graph.
    pub fn update_rows(&mut self, table: &str, updates: &[(usize, usize, Value)]) -> Result<usize> {
        let t = self.tables.get(table).ok_or_else(|| StoreError::UnknownTable(table.to_owned()))?;
        let schema = t.schema();
        let mut relational = false;
        for &(row, col, ref value) in updates {
            if row >= t.len() || col >= schema.columns.len() {
                return Err(StoreError::UnknownColumn {
                    table: table.to_owned(),
                    column: format!("index {col}"),
                });
            }
            if Some(col) == schema.primary_key {
                return Err(StoreError::Sql("cannot update a primary key column".into()));
            }
            let def = &schema.columns[col];
            if !value.fits(def.ty) {
                return Err(StoreError::TypeMismatch {
                    table: table.to_owned(),
                    column: def.name.clone(),
                    expected: def.ty.to_string(),
                    got: value.data_type().map_or_else(|| "NULL".into(), |ty| ty.to_string()),
                });
            }
            if let Some(fk) =
                schema.foreign_keys.iter().find(|fk| schema.column_index(&fk.column) == Some(col))
            {
                let target = self.tables.get(&fk.ref_table).expect("fk validated at create");
                check_foreign_key(table, &fk.column, value, target)?;
                relational = true;
            }
            if def.ty == DataType::Text {
                relational = true;
            }
        }
        if updates.is_empty() {
            return Ok(0);
        }
        self.log_op(WalOp::Update { table, updates })?;
        let t = self.tables.get_mut(table).expect("checked above");
        let mut rows: Vec<usize> = Vec::with_capacity(updates.len());
        for (row, col, value) in updates {
            t.update_cell(*row, *col, value.clone()).expect("validated above");
            rows.push(*row);
        }
        rows.sort_unstable();
        rows.dedup();
        let n = rows.len();
        self.record_change(table, TableChange::Updated { rows: n, relational });
        Ok(n)
    }

    /// Remove the rows at the given positions, enforcing referential
    /// integrity (RESTRICT: no other table may still reference a primary
    /// key that is about to disappear), and record a precise
    /// [`TableChange::Deleted`]. Positions may arrive in any order; out-of-
    /// range positions are ignored. Returns the number of rows removed; a
    /// call that removes nothing leaves the write version untouched.
    pub fn delete_rows(&mut self, table: &str, positions: &[usize]) -> Result<usize> {
        let t = self.tables.get(table).ok_or_else(|| StoreError::UnknownTable(table.to_owned()))?;
        let mut sorted: Vec<usize> = positions.iter().copied().filter(|&p| p < t.len()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.is_empty() {
            return Ok(0);
        }
        if let Some(pk) = t.schema().primary_key {
            for other in self.tables.values() {
                for fk in &other.schema().foreign_keys {
                    if fk.ref_table != table {
                        continue;
                    }
                    let col =
                        other.schema().column_index(&fk.column).expect("fk validated at create");
                    if other.has_secondary_index(col) {
                        // O(doomed) index probes instead of an O(table)
                        // scan: the FK column is auto-indexed, so each
                        // doomed key answers "still referenced?" in one
                        // hash lookup.
                        for &pos in &sorted {
                            if let Some(k) = t.rows()[pos][pk].as_int() {
                                if other.index_probe_int(col, k).is_some_and(|l| !l.is_empty()) {
                                    return Err(StoreError::ForeignKeyViolation {
                                        table: other.name().to_owned(),
                                        column: fk.column.clone(),
                                        value: k.to_string(),
                                    });
                                }
                            }
                        }
                    } else {
                        self.fk_scan_fallbacks.fetch_add(1, Ordering::Relaxed);
                        let doomed: std::collections::HashSet<i64> =
                            sorted.iter().filter_map(|&pos| t.rows()[pos][pk].as_int()).collect();
                        for value in other.column_values(col) {
                            if let Some(k) = value.as_int() {
                                if doomed.contains(&k) {
                                    return Err(StoreError::ForeignKeyViolation {
                                        table: other.name().to_owned(),
                                        column: fk.column.clone(),
                                        value: k.to_string(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        self.log_op(WalOp::Delete { table, positions: &sorted })?;
        let n = sorted.len();
        self.tables.get_mut(table).expect("checked above").remove_rows(&sorted);
        self.record_change(table, TableChange::Deleted { rows: n });
        Ok(n)
    }

    /// True when the table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Deterministic iteration over all tables.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Table names in deterministic order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of tables that are pure n:m link tables (the parenthesized
    /// count in the paper's Table 1).
    pub fn link_table_count(&self) -> usize {
        self.tables.values().filter(|t| t.schema().is_link_table()).count()
    }

    /// All `(table, foreign-key)` pairs in deterministic order — the raw
    /// material of relationship extraction.
    pub fn all_foreign_keys(&self) -> Vec<(&str, &ForeignKey)> {
        self.tables
            .values()
            .flat_map(|t| t.schema().foreign_keys.iter().map(move |fk| (t.name(), fk)))
            .collect()
    }

    /// Count of distinct `(table, column, text)` values — i.e. the number of
    /// embeddings RETRO will learn before the §3.3 uniqueness rules merge
    /// duplicates within a column. Used for Table 1 reporting.
    pub fn unique_text_value_count(&self) -> usize {
        use std::collections::HashSet;
        let mut seen: HashSet<(usize, usize, &str)> = HashSet::new();
        for (ti, t) in self.tables.values().enumerate() {
            for ci in t.schema().text_columns() {
                for v in t.column_values(ci) {
                    if let Some(s) = v.as_text() {
                        seen.insert((ti, ci, s));
                    }
                }
            }
        }
        seen.len()
    }
}

/// The foreign-key probe every write path runs: `value`, bound for the
/// foreign-key `column` of `table`, must be NULL (the relation is simply
/// absent, as in SQL) or a primary key of the referenced table `target`.
pub(crate) fn check_foreign_key(
    table: &str,
    column: &str,
    value: &Value,
    target: &Table,
) -> Result<()> {
    match value {
        Value::Null => Ok(()),
        Value::Int(k) if target.contains_pk(*k) => Ok(()),
        Value::Int(k) => Err(StoreError::ForeignKeyViolation {
            table: table.to_owned(),
            column: column.to_owned(),
            value: k.to_string(),
        }),
        // Unreachable after the callers' type checks (foreign-key columns
        // are INTEGER by construction); typed all the same.
        other => Err(StoreError::TypeMismatch {
            table: table.to_owned(),
            column: column.to_owned(),
            expected: "INTEGER".to_owned(),
            got: other.data_type().map_or_else(|| "NULL".into(), |ty| ty.to_string()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
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
        db
    }

    #[test]
    fn join_cache_bytes_count_built_hashes_until_a_write() {
        use crate::sql::run_script;
        let mut d = db();
        assert_eq!(d.join_cache_bytes(), 0);
        run_script(
            &mut d,
            "INSERT INTO persons VALUES (1, 'Luc Besson');
             INSERT INTO movies VALUES (10, 'Luc Besson', 1), (11, 'Nikita', 1);",
        )
        .unwrap();
        assert_eq!(d.join_cache_bytes(), 0, "ingest builds nothing");
        // movies.title is unindexed, so the planned join hashes it.
        let join = "SELECT m.id FROM persons p JOIN movies m ON m.title = p.name";
        assert_eq!(run_script(&mut d, join).unwrap().rows, vec![vec![Value::Int(10)]]);
        let built = d.join_cache_bytes();
        assert!(built > 0);
        run_script(&mut d, join).unwrap();
        assert_eq!(d.join_cache_bytes(), built, "a warm join builds nothing more");
        run_script(&mut d, "INSERT INTO persons VALUES (2, 'Nikita')").unwrap();
        assert_eq!(d.join_cache_bytes(), built, "a write elsewhere keeps movies' hash");
        run_script(&mut d, "INSERT INTO movies VALUES (12, 'Leon', 2)").unwrap();
        assert_eq!(d.join_cache_bytes(), 0);
    }

    #[test]
    fn a_clone_shares_warm_join_hashes_until_the_original_writes() {
        use crate::sql::run_script;
        use std::sync::Arc;
        let mut d = db();
        run_script(
            &mut d,
            "INSERT INTO persons VALUES (1, 'Luc Besson');
             INSERT INTO movies VALUES (10, 'Luc Besson', 1), (11, 'Nikita', 1);",
        )
        .unwrap();
        let join = "SELECT m.id FROM persons p JOIN movies m ON m.title = p.name";
        let ids = |db: &mut Database| run_script(db, join).unwrap().rows;
        ids(&mut d);
        let mut frozen = d.clone();
        let title_hash = |db: &Database| Arc::clone(db.table("movies").unwrap().join_hash(1));
        let warm = title_hash(&d);
        assert!(Arc::ptr_eq(&warm, &title_hash(&frozen)), "the clone shares the built hash");

        run_script(&mut d, "INSERT INTO movies VALUES (12, 'Luc Besson', 1)").unwrap();
        assert_eq!(ids(&mut d), vec![vec![Value::Int(10)], vec![Value::Int(12)]]);
        assert_eq!(ids(&mut frozen), vec![vec![Value::Int(10)]]);
        assert!(Arc::ptr_eq(&warm, &title_hash(&frozen)), "the clone keeps its hash");
        assert!(!Arc::ptr_eq(&warm, &title_hash(&d)), "the original rebuilt its own");
    }

    /// Whether `a` and `b` share the rows and indexes of table `name`.
    fn shares(a: &Database, b: &Database, name: &str) -> bool {
        a.table(name).unwrap().shares_rows_with(b.table(name).unwrap())
    }

    #[test]
    fn a_clone_shares_every_table_until_a_write() {
        let mut d = db();
        d.insert("persons", vec![Value::Int(1), Value::from("a")]).unwrap();
        let frozen = d.clone();
        assert!(d.table_names().iter().all(|name| shares(&d, &frozen, name)));

        // The first write copies only the table it touches, not the FK
        // target it reads.
        d.insert("movies", vec![Value::Int(10), Value::from("m"), Value::Int(1)]).unwrap();
        assert!(!shares(&d, &frozen, "movies"));
        assert!(shares(&d, &frozen, "persons"));

        // Every mutating path copies on write.
        let frozen = d.clone();
        d.update_rows("persons", &[(0, 1, Value::from("z"))]).unwrap();
        assert!(!shares(&d, &frozen, "persons"));
        let frozen = d.clone();
        d.delete_rows("movies", &[0]).unwrap();
        assert!(!shares(&d, &frozen, "movies"));
        let frozen = d.clone();
        assert!(d.create_index("persons", "name").unwrap());
        assert!(!shares(&d, &frozen, "persons"));
        let frozen = d.clone();
        d.insert_batch("persons", vec![vec![Value::Int(2), Value::from("b")]]).unwrap();
        assert!(!shares(&d, &frozen, "persons"));
        assert!(shares(&d, &frozen, "movies"));
        let frozen = d.clone();
        let mut loader = d.bulk();
        let movies = loader.table("movies").unwrap();
        loader.stage(movies, vec![Value::Int(11), Value::from("n"), Value::Int(2)]).unwrap();
        loader.commit().unwrap();
        assert!(!shares(&d, &frozen, "movies"));
        assert!(shares(&d, &frozen, "persons"), "the loader only read the FK target");
    }

    #[test]
    fn a_write_leaves_the_clones_rows_indexes_and_join_hashes() {
        use crate::sql::run_script;
        let mut d = db();
        run_script(
            &mut d,
            "INSERT INTO persons VALUES (1, 'Luc Besson'), (2, 'Nikita');
             INSERT INTO movies VALUES (10, 'Nikita', 1), (11, 'Leon', 1);",
        )
        .unwrap();
        let join = "SELECT m.id FROM persons p JOIN movies m ON m.title = p.name";
        run_script(&mut d, join).unwrap();
        let frozen = d.clone();
        let movies = |db: &Database| db.table("movies").unwrap().rows().to_vec();
        let (rows, hash_bytes) = (movies(&frozen), frozen.join_cache_bytes());
        assert!(hash_bytes > 0);

        run_script(
            &mut d,
            "INSERT INTO movies VALUES (12, 'Nikita', 2);
             UPDATE movies SET title = 'Luc Besson' WHERE id = 11;
             DELETE FROM movies WHERE id = 10;",
        )
        .unwrap();
        assert_ne!(movies(&d), rows);
        assert_eq!(movies(&frozen), rows);
        assert_eq!(frozen.join_cache_bytes(), hash_bytes);
        let t = frozen.table("movies").unwrap();
        let fk = t.schema().column_index("director_id").unwrap();
        assert_eq!(t.index_probe_int(fk, 1), Some(&[0u32, 1][..]));
        assert_eq!(t.index_probe_int(fk, 2), Some(&[][..]));
        assert_eq!(t.row_by_pk(10).unwrap()[1], Value::from("Nikita"));
        let mut frozen = frozen;
        assert_eq!(run_script(&mut frozen, join).unwrap().rows, vec![vec![Value::Int(10)]]);
        assert_eq!(
            run_script(&mut d, join).unwrap().rows,
            vec![vec![Value::Int(11)], vec![Value::Int(12)]]
        );
    }

    #[test]
    fn a_rolled_back_batch_on_a_shared_table_leaves_both_sides() {
        let mut d = db();
        d.insert("persons", vec![Value::Int(1), Value::from("a")]).unwrap();
        let frozen = d.clone();
        let rows = vec![
            vec![Value::Int(2), Value::from("b")],
            vec![Value::Int(1), Value::from("dup")], // duplicate key → rollback
        ];
        assert!(d.insert_batch("persons", rows).is_err());
        for side in [&d, &frozen] {
            let persons = side.table("persons").unwrap();
            assert_eq!(persons.rows(), &[vec![Value::Int(1), Value::from("a")]]);
            assert!(!persons.contains_pk(2));
        }
        assert_eq!(d.write_version(), frozen.write_version());

        // A loader dropped after staging rolls back the same way, and
        // never copies the FK target it only read.
        let frozen = d.clone();
        let mut loader = d.bulk();
        let movies = loader.table("movies").unwrap();
        loader.stage(movies, vec![Value::Int(10), Value::from("m"), Value::Int(1)]).unwrap();
        drop(loader);
        assert!(d.table("movies").unwrap().is_empty());
        assert!(frozen.table("movies").unwrap().is_empty());
        assert!(shares(&d, &frozen, "persons"));
    }

    #[test]
    fn a_durable_databases_clone_stays_ephemeral() {
        let dir = std::env::temp_dir().join(format!("retro_db_cow_clone_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut d = Database::open(&dir).unwrap();
        d.create_table(TableSchema::builder("t").pk("id").build()).unwrap();
        d.insert("t", vec![Value::Int(1)]).unwrap();
        let mut frozen = d.clone();
        assert!(d.is_durable());
        assert!(!frozen.is_durable());
        let logged = std::fs::read(dir.join(WAL_FILE)).unwrap();
        frozen.insert("t", vec![Value::Int(2)]).unwrap();
        assert_eq!(std::fs::read(dir.join(WAL_FILE)).unwrap(), logged, "the clone logged");
        assert!(frozen.checkpoint().is_err());
        assert_eq!(d.table("t").unwrap().len(), 1);
        drop(d);
        assert_eq!(Database::recover(&dir).unwrap().table("t").unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_and_insert_with_fk() {
        let mut d = db();
        d.insert("persons", vec![Value::Int(1), Value::from("Luc Besson")]).unwrap();
        d.insert("movies", vec![Value::Int(10), Value::from("5th Element"), Value::Int(1)])
            .unwrap();
        assert_eq!(d.table("movies").unwrap().len(), 1);
    }

    #[test]
    fn fk_violation_rejected() {
        let mut d = db();
        let err = d
            .insert("movies", vec![Value::Int(10), Value::from("Alien"), Value::Int(99)])
            .unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation { .. }));
    }

    #[test]
    fn primary_key_index_out_of_range_is_rejected() {
        // `TableSchema`'s fields are public, and a WAL `CreateTable` record
        // is decoded into one: a key index past the columns must not reach
        // `Table::new`, where the first insert would index past the row.
        let mut d = Database::new();
        let mut schema = TableSchema::builder("t").pk("id").build();
        schema.primary_key = Some(1);
        assert!(matches!(d.create_table(schema), Err(StoreError::UnknownColumn { .. })));
        assert!(!d.has_table("t"));
    }

    /// A schema naming one column twice, as `TableSchema`'s public fields
    /// (and a decoded WAL or snapshot record) can spell it.
    fn repeated_column_schema() -> TableSchema {
        TableSchema::builder("t").pk("a").column("a", DataType::Text).build()
    }

    #[test]
    fn repeated_column_in_a_logged_create_fails_wal_replay() {
        let dir =
            std::env::temp_dir().join(format!("retro_db_repeated_wal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Wal::open(&dir.join(WAL_FILE), 1)
            .unwrap()
            .append(&WalOp::CreateTable(&repeated_column_schema()))
            .unwrap();
        let err = Database::recover(&dir).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corruption(msg) if msg.contains("named twice")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_column_in_a_snapshot_fails_to_load() {
        let dir =
            std::env::temp_dir().join(format!("retro_db_repeated_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut d = Database::new();
        d.tables.insert("t".into(), Table::new(repeated_column_schema()));
        persist::write_snapshot(&d, &dir.join(SNAPSHOT_FILE), 0).unwrap();
        let err = Database::recover(&dir).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corruption(msg) if msg.contains("named twice")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn null_fk_allowed() {
        let mut d = db();
        d.insert("movies", vec![Value::Int(10), Value::from("Alien"), Value::Null]).unwrap();
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut d = db();
        let err = d.create_table(TableSchema::builder("movies").pk("id").build()).unwrap_err();
        assert_eq!(err, StoreError::DuplicateTable("movies".into()));
    }

    #[test]
    fn fk_must_reference_existing_pk() {
        let mut d = Database::new();
        let err = d
            .create_table(TableSchema::builder("a").pk("id").fk("b_id", "b", "id").build())
            .unwrap_err();
        assert!(matches!(err, StoreError::BadForeignKey(_)));
    }

    #[test]
    fn unknown_table_errors() {
        let d = db();
        assert!(d.table("nope").is_err());
        let mut d = d;
        assert!(d.insert("nope", vec![]).is_err());
    }

    #[test]
    fn unique_text_values_counted_per_column() {
        let mut d = db();
        d.insert("persons", vec![Value::Int(1), Value::from("Amelie")]).unwrap();
        d.insert("persons", vec![Value::Int(2), Value::from("Amelie")]).unwrap(); // same column → 1
        d.insert("movies", vec![Value::Int(1), Value::from("Amelie"), Value::Int(1)]).unwrap(); // other column → +1
        assert_eq!(d.unique_text_value_count(), 2);
    }

    #[test]
    fn counts_and_introspection() {
        let mut d = db();
        d.create_table(
            TableSchema::builder("genres").pk("id").column("name", DataType::Text).build(),
        )
        .unwrap();
        d.create_table(
            TableSchema::builder("movie_genre")
                .fk("movie_id", "movies", "id")
                .fk("genre_id", "genres", "id")
                .build(),
        )
        .unwrap();
        assert_eq!(d.table_count(), 4);
        assert_eq!(d.link_table_count(), 1);
        assert_eq!(d.all_foreign_keys().len(), 3);
        assert_eq!(d.table_names(), vec!["genres", "movie_genre", "movies", "persons"]);
    }

    #[test]
    fn write_version_tracks_mutations() {
        let mut d = Database::new();
        assert_eq!(d.write_version(), 0);
        d.create_table(
            TableSchema::builder("persons").pk("id").column("name", DataType::Text).build(),
        )
        .unwrap();
        let after_ddl = d.write_version();
        assert!(after_ddl > 0, "CREATE TABLE must bump the write version");

        d.insert("persons", vec![Value::Int(1), Value::from("a")]).unwrap();
        let after_insert = d.write_version();
        assert!(after_insert > after_ddl, "insert must bump the write version");

        // A failed insert leaves the version unchanged.
        assert!(d.insert("persons", vec![Value::Int(1), Value::from("dup")]).is_err());
        assert_eq!(d.write_version(), after_insert);

        // A committed batch bumps; reads do not.
        d.insert_batch("persons", (2..=4).map(|k| vec![Value::Int(k), Value::from("x")])).unwrap();
        let after_batch = d.write_version();
        assert!(after_batch > after_insert);
        let _ = d.table("persons").unwrap().len();
        let _ = d.table_names();
        assert_eq!(d.write_version(), after_batch);
    }

    #[test]
    fn rolled_back_bulk_leaves_write_version_untouched() {
        let mut d = db();
        let before = d.write_version();
        let rows = vec![
            vec![Value::Int(1), Value::from("a")],
            vec![Value::Int(1), Value::from("dup")], // duplicate key → rollback
        ];
        assert!(d.insert_batch("persons", rows).is_err());
        assert_eq!(d.write_version(), before, "a rolled-back batch is not a write");

        // An aborted (dropped, uncommitted) loader is not a write either.
        let mut loader = d.bulk();
        let persons = loader.table("persons").unwrap();
        loader.stage(persons, vec![Value::Int(9), Value::from("ghost")]).unwrap();
        drop(loader);
        assert_eq!(d.write_version(), before);
    }

    #[test]
    fn sql_dml_bumps_write_version() {
        use crate::sql;
        let mut d = Database::new();
        sql::run_script(
            &mut d,
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT);
             INSERT INTO t VALUES (1, 'a'), (2, 'b');",
        )
        .unwrap();
        let v0 = d.write_version();

        sql::run(&mut d, "UPDATE t SET name = 'z' WHERE id = 1").unwrap();
        let v1 = d.write_version();
        assert!(v1 > v0, "UPDATE must bump the write version");

        // An UPDATE matching nothing changes nothing.
        sql::run(&mut d, "UPDATE t SET name = 'q' WHERE id = 99").unwrap();
        assert_eq!(d.write_version(), v1);

        sql::run(&mut d, "DELETE FROM t WHERE id = 2").unwrap();
        let v2 = d.write_version();
        assert!(v2 > v1, "DELETE must bump the write version");

        // A DELETE matching nothing changes nothing; SELECT never does.
        sql::run(&mut d, "DELETE FROM t WHERE id = 99").unwrap();
        sql::run(&mut d, "SELECT * FROM t").unwrap();
        assert_eq!(d.write_version(), v2);
    }

    #[test]
    fn change_log_records_precise_mutations() {
        use crate::changelog::TableChange;
        let mut d = db();
        let v0 = d.write_version();
        d.insert("persons", vec![Value::Int(1), Value::from("a")]).unwrap();
        d.insert_batch("persons", (2..=4).map(|k| vec![Value::Int(k), Value::from("x")])).unwrap();
        let changes = d.changes_since(v0).unwrap();
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0].table, "persons");
        assert_eq!(changes[0].change, TableChange::Appended { start: 0, rows: 1 });
        assert_eq!(changes[1].change, TableChange::Appended { start: 1, rows: 3 });
        assert_eq!(changes[1].version, d.write_version());

        // A rolled-back batch records nothing.
        let v1 = d.write_version();
        let _ = d.insert_batch(
            "persons",
            vec![vec![Value::Int(9), Value::from("y")], vec![Value::Int(9), Value::from("dup")]],
        );
        assert!(d.changes_since(v1).unwrap().is_empty());
    }

    #[test]
    fn per_table_versions_track_only_the_mutated_table() {
        let mut d = db();
        assert!(d.table_version("persons") > 0, "create_table stamps the table version");
        let persons_v = d.table_version("persons");
        let movies_v = d.table_version("movies");
        d.insert("persons", vec![Value::Int(1), Value::from("a")]).unwrap();
        assert!(d.table_version("persons") > persons_v);
        assert_eq!(d.table_version("movies"), movies_v, "untouched table keeps its version");
        assert_eq!(d.table_version("persons"), d.write_version());
        assert_eq!(d.table_version("nope"), 0);
    }

    #[test]
    fn change_log_overflow_reports_truncation() {
        let mut d = db();
        d.set_change_log_capacity(2);
        let v0 = d.write_version();
        for k in 1..=5 {
            d.insert("persons", vec![Value::Int(k), Value::from("p")]).unwrap();
        }
        assert_eq!(d.changes_since(v0), None, "evicted history must be reported as truncated");
        assert_eq!(d.changes_since(d.write_version() - 2).unwrap().len(), 2);
    }

    #[test]
    fn update_rows_validates_before_applying() {
        use crate::changelog::TableChange;
        let mut d = db();
        d.insert("persons", vec![Value::Int(1), Value::from("a")]).unwrap();
        d.insert("persons", vec![Value::Int(2), Value::from("b")]).unwrap();
        let v0 = d.write_version();

        // A bad triple anywhere applies nothing and bumps nothing.
        let err = d
            .update_rows("persons", &[(0, 1, Value::from("z")), (1, 1, Value::Int(7))])
            .unwrap_err();
        assert!(matches!(err, StoreError::TypeMismatch { .. }));
        assert_eq!(d.write_version(), v0);
        assert_eq!(d.table("persons").unwrap().rows()[0][1], Value::from("a"));

        // A good batch applies atomically with one precise record.
        let n = d.update_rows("persons", &[(0, 1, Value::from("z")), (1, 1, Value::from("y"))]);
        assert_eq!(n.unwrap(), 2);
        let changes = d.changes_since(v0).unwrap();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].change, TableChange::Updated { rows: 2, relational: true });

        // The primary key stays frozen; empty updates are free.
        assert!(d.update_rows("persons", &[(0, 0, Value::Int(9))]).is_err());
        let v1 = d.write_version();
        assert_eq!(d.update_rows("persons", &[]).unwrap(), 0);
        assert_eq!(d.write_version(), v1);
    }

    #[test]
    fn update_rows_flags_non_text_updates_as_non_relational() {
        use crate::changelog::TableChange;
        let mut d = Database::new();
        d.create_table(
            TableSchema::builder("t")
                .pk("id")
                .column("name", DataType::Text)
                .column("score", DataType::Float)
                .build(),
        )
        .unwrap();
        d.insert("t", vec![Value::Int(1), Value::from("a"), Value::Float(0.0)]).unwrap();
        let v0 = d.write_version();
        d.update_rows("t", &[(0, 2, Value::Float(1.5))]).unwrap();
        let changes = d.changes_since(v0).unwrap();
        assert_eq!(changes[0].change, TableChange::Updated { rows: 1, relational: false });
    }

    #[test]
    fn update_rows_checks_foreign_keys() {
        let mut d = db();
        d.insert("persons", vec![Value::Int(1), Value::from("a")]).unwrap();
        d.insert("movies", vec![Value::Int(10), Value::from("m"), Value::Int(1)]).unwrap();
        // Dangling key rejected, NULL and valid keys allowed.
        let err = d.update_rows("movies", &[(0, 2, Value::Int(99))]).unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation { .. }));
        d.update_rows("movies", &[(0, 2, Value::Null)]).unwrap();
        d.update_rows("movies", &[(0, 2, Value::Int(1))]).unwrap();
    }

    #[test]
    fn delete_rows_enforces_restrict_and_records() {
        use crate::changelog::TableChange;
        let mut d = db();
        d.insert("persons", vec![Value::Int(1), Value::from("a")]).unwrap();
        d.insert("persons", vec![Value::Int(2), Value::from("b")]).unwrap();
        d.insert("movies", vec![Value::Int(10), Value::from("m"), Value::Int(1)]).unwrap();

        // Person 1 is referenced: RESTRICT.
        let v0 = d.write_version();
        let err = d.delete_rows("persons", &[0]).unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation { .. }));
        assert_eq!(d.write_version(), v0);

        // Person 2 is free; duplicate/out-of-range positions are tolerated.
        assert_eq!(d.delete_rows("persons", &[1, 1, 99]).unwrap(), 1);
        let changes = d.changes_since(v0).unwrap();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].change, TableChange::Deleted { rows: 1 });
        assert!(!d.table("persons").unwrap().contains_pk(2));

        // Deleting nothing bumps nothing.
        let v1 = d.write_version();
        assert_eq!(d.delete_rows("persons", &[99]).unwrap(), 0);
        assert_eq!(d.write_version(), v1);
    }

    #[test]
    fn insert_batch_is_atomic() {
        let mut d = db();
        let rows = vec![
            vec![Value::Int(1), Value::from("a")],
            vec![Value::Int(1), Value::from("b")], // duplicate key
        ];
        assert!(d.insert_batch("persons", rows).is_err());
        assert_eq!(d.table("persons").unwrap().len(), 0, "bad batch must insert nothing");

        let rows =
            vec![vec![Value::Int(1), Value::from("a")], vec![Value::Int(2), Value::from("b")]];
        assert_eq!(d.insert_batch("persons", rows).unwrap(), 2);
        assert_eq!(d.table("persons").unwrap().len(), 2);
    }

    #[test]
    fn fk_columns_are_auto_indexed() {
        let d = db();
        let movies = d.table("movies").unwrap();
        let fk_col = movies.schema().column_index("director_id").unwrap();
        assert!(movies.has_secondary_index(fk_col));
        assert_eq!(movies.secondary_index_columns(), vec![fk_col]);
        // The non-FK text column is not.
        let title = movies.schema().column_index("title").unwrap();
        assert!(!movies.has_secondary_index(title));
    }

    #[test]
    fn create_index_validates_and_is_idempotent() {
        let mut d = db();
        d.create_table(
            TableSchema::builder("scores").pk("id").column("score", DataType::Float).build(),
        )
        .unwrap();
        d.insert("persons", vec![Value::Int(1), Value::from("Amelie")]).unwrap();

        // Declared index backfills from existing rows.
        assert!(d.create_index("persons", "name").unwrap());
        let persons = d.table("persons").unwrap();
        let name = persons.schema().column_index("name").unwrap();
        assert_eq!(persons.index_probe_text(name, "Amelie"), Some(&[0u32][..]));

        // Re-declaring is a no-op, not an error.
        assert!(!d.create_index("persons", "name").unwrap());
        // FK columns are already indexed at create_table.
        assert!(!d.create_index("movies", "director_id").unwrap());

        // Floats cannot carry equality indexes; bad names are typed errors.
        assert!(matches!(d.create_index("scores", "score").unwrap_err(), StoreError::Sql(_)));
        assert!(matches!(d.create_index("nope", "x").unwrap_err(), StoreError::UnknownTable(_)));
        assert!(matches!(
            d.create_index("persons", "nope").unwrap_err(),
            StoreError::UnknownColumn { .. }
        ));
    }

    #[test]
    fn restrict_check_uses_fk_index_not_scans() {
        let mut d = db();
        d.insert("persons", vec![Value::Int(1), Value::from("a")]).unwrap();
        d.insert("persons", vec![Value::Int(2), Value::from("b")]).unwrap();
        d.insert("movies", vec![Value::Int(10), Value::from("m"), Value::Int(1)]).unwrap();
        assert!(d.delete_rows("persons", &[0]).is_err());
        assert_eq!(d.delete_rows("persons", &[1]).unwrap(), 1);
        assert_eq!(d.fk_scan_fallbacks(), 0, "RESTRICT checks must probe the FK index");
    }

    #[test]
    fn group_commit_recovers_equivalent_to_per_commit() {
        use std::time::Duration;
        let base =
            std::env::temp_dir().join(format!("retro_db_group_commit_{}", std::process::id()));
        let per = base.join("per");
        let group = base.join("group");
        let _ = std::fs::remove_dir_all(&base);

        let script = |d: &mut Database| {
            d.create_table(
                TableSchema::builder("persons").pk("id").column("name", DataType::Text).build(),
            )
            .unwrap();
            for k in 1..=10 {
                d.insert("persons", vec![Value::Int(k), Value::from(format!("p{k}"))]).unwrap();
            }
            d.update_rows("persons", &[(0, 1, Value::from("z"))]).unwrap();
            d.delete_rows("persons", &[9]).unwrap();
        };

        let mut a = Database::open(&per).unwrap();
        script(&mut a);

        let mut b = Database::open(&group).unwrap();
        b.set_durability_policy(DurabilityPolicy::Group(1024, Duration::from_secs(3600))).unwrap();
        script(&mut b);

        // The group never filled and the delay is huge, so the on-disk log
        // lags the PerCommit twin until an explicit flush...
        let per_bytes = std::fs::read(per.join(WAL_FILE)).unwrap();
        assert!(std::fs::read(group.join(WAL_FILE)).unwrap().len() < per_bytes.len());
        b.flush_wal().unwrap();
        // ...after which the two logs are byte-identical: same frames, same
        // checksums, same sequence numbers.
        assert_eq!(std::fs::read(group.join(WAL_FILE)).unwrap(), per_bytes);

        drop(a);
        drop(b);
        let ra = Database::recover(&per).unwrap();
        let rb = Database::recover(&group).unwrap();
        assert_eq!(ra.write_version(), rb.write_version());
        assert_eq!(ra.table_names(), rb.table_names());
        for name in ra.table_names() {
            assert_eq!(ra.table(name).unwrap().rows(), rb.table(name).unwrap().rows());
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn group_commit_flushes_on_count_and_on_drop() {
        use std::time::Duration;
        let dir = std::env::temp_dir().join(format!("retro_db_group_flush_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut d = Database::open(&dir).unwrap();
        d.set_durability_policy(DurabilityPolicy::Group(2, Duration::from_secs(3600))).unwrap();
        d.create_table(TableSchema::builder("t").pk("id").build()).unwrap();
        let after_one = std::fs::read(dir.join(WAL_FILE)).unwrap().len();
        assert_eq!(after_one, 0, "one buffered record must not hit the file yet");
        d.insert("t", vec![Value::Int(1)]).unwrap();
        // Second record fills the group: both frames land together.
        assert!(!std::fs::read(dir.join(WAL_FILE)).unwrap().is_empty());
        let flushed = std::fs::read(dir.join(WAL_FILE)).unwrap().len();

        // A clean drop flushes the trailing partial group.
        d.insert("t", vec![Value::Int(2)]).unwrap();
        assert_eq!(std::fs::read(dir.join(WAL_FILE)).unwrap().len(), flushed);
        drop(d);
        assert!(std::fs::read(dir.join(WAL_FILE)).unwrap().len() > flushed);
        let d = Database::recover(&dir).unwrap();
        assert_eq!(d.table("t").unwrap().len(), 2);

        // Policy control requires durability; flushing an ephemeral
        // database is a harmless no-op.
        let mut eph = Database::new();
        assert!(eph
            .set_durability_policy(DurabilityPolicy::Group(2, Duration::from_millis(1)))
            .is_err());
        eph.flush_wal().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn declared_indexes_survive_wal_replay_and_snapshot() {
        let dir =
            std::env::temp_dir().join(format!("retro_db_index_recovery_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut d = Database::open(&dir).unwrap();
            d.create_table(
                TableSchema::builder("persons").pk("id").column("name", DataType::Text).build(),
            )
            .unwrap();
            d.insert("persons", vec![Value::Int(1), Value::from("Amelie")]).unwrap();
            assert!(d.create_index("persons", "name").unwrap());
            d.insert("persons", vec![Value::Int(2), Value::from("Alien")]).unwrap();
        }
        // WAL replay re-creates the declared index and backfills both rows.
        let mut d = Database::recover(&dir).unwrap();
        let name = d.table("persons").unwrap().schema().column_index("name").unwrap();
        assert_eq!(d.table("persons").unwrap().index_probe_text(name, "Alien"), Some(&[1u32][..]));

        // Snapshot + truncated WAL must carry the declaration too.
        d.checkpoint().unwrap();
        drop(d);
        let d = Database::recover(&dir).unwrap();
        assert_eq!(d.table("persons").unwrap().index_probe_text(name, "Amelie"), Some(&[0u32][..]));
        assert!(d.table("persons").unwrap().has_secondary_index(name));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
