//! Batched bulk ingestion: the write fast path of the engine.
//!
//! [`Database::insert`] is convenient but pays per row for work that is
//! constant across a load: a string-keyed table lookup (twice — once to
//! validate, once to append), a linear column-name scan per foreign key,
//! and another string-keyed lookup per referenced table. At paper scale
//! (~1.7M generated rows, see `retro-datasets`) that bookkeeping dominates
//! ingest time.
//!
//! [`BulkLoader`] amortizes all of it to once per batch by **temporarily
//! taking ownership of the target tables**:
//!
//! 1. **Register** each target table once ([`BulkLoader::table`]) — this
//!    moves the table (and, transitively, every table its foreign keys
//!    reference) out of the database and into the loader, resolves the
//!    foreign-key column indices and referenced-table slots, and hands back
//!    a copyable [`TableHandle`]. While the loader lives it holds the
//!    database mutably, so the tables are never observably "missing".
//! 2. **Stage** rows ([`BulkLoader::stage`]) — validate against the *live*
//!    table indexes (so a row may reference a primary key staged earlier in
//!    the same batch, exactly like a row-by-row insert loop) and append
//!    directly. No staging buffers, no second pass over the data: per row
//!    the fast path does the same constraint hash probes as
//!    [`Database::insert`] minus all of the name resolution. A table that
//!    a clone of the database still shares is copied on its first staged
//!    row (see [`Table`]'s copy-on-write); a table the batch only reads
//!    through a foreign key is never copied, and neither is one whose
//!    rows a rollback had nothing to undo.
//! 3. **Commit** ([`BulkLoader::commit`]) — hand the tables back. The first
//!    constraint violation instead rolls back *every* registered table to
//!    its pre-batch length (the same truncate-on-error semantics the CSV
//!    importer has always guaranteed) and poisons the loader; dropping the
//!    loader without committing aborts the same way. Either the whole batch
//!    lands or the database is untouched.
//!
//! # Equivalence with the row-by-row path
//!
//! Because staging validates against live indexes with the checks of
//! [`Database::insert`] in the same order, the bulk path accepts exactly
//! the batches a row-by-row loop accepts, produces identical database
//! state, and reports the same first error (wrapped in
//! [`StoreError::BulkRow`] with the offending row's batch position).
//! `tests/ingestion_equivalence.rs` pins this equivalence over randomized
//! batches, including failure cases.
//!
//! # Example
//!
//! ```
//! use retro_store::{Database, DataType, TableSchema, Value};
//!
//! let mut db = Database::new();
//! db.create_table(
//!     TableSchema::builder("persons").pk("id").column("name", DataType::Text).build(),
//! )
//! .unwrap();
//! db.create_table(
//!     TableSchema::builder("movies")
//!         .pk("id")
//!         .column("title", DataType::Text)
//!         .fk("director_id", "persons", "id")
//!         .build(),
//! )
//! .unwrap();
//!
//! let mut loader = db.bulk();
//! let persons = loader.table("persons").unwrap();
//! let movies = loader.table("movies").unwrap();
//! loader.stage(persons, vec![Value::Int(1), Value::from("Luc Besson")]).unwrap();
//! // A staged row may reference a key staged earlier in the same batch:
//! loader.stage(movies, vec![Value::Int(10), Value::from("5th Element"), Value::Int(1)]).unwrap();
//! assert_eq!(loader.commit().unwrap(), 2);
//! assert_eq!(db.table("movies").unwrap().len(), 1);
//! ```

use std::collections::HashMap;

use crate::changelog::TableChange;
use crate::database::check_foreign_key;
use crate::error::StoreError;
use crate::schema::TableSchema;
use crate::table::Table;
use crate::value::Value;
use crate::wal::WalOp;
use crate::{Database, Result};

/// A registered target table of a [`BulkLoader`] (cheap to copy; only valid
/// for the loader that issued it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableHandle(usize);

/// A foreign key with its per-batch name resolution done: the constrained
/// column's index and the loader slot of the referenced table.
struct ResolvedFk {
    /// Index of the constrained column in the owning table.
    col: usize,
    /// Name of the constrained column (for error payloads).
    column_name: String,
    /// Slot in `BulkLoader::tables` of the referenced table (referenced
    /// tables are auto-registered, so this always resolves).
    ref_slot: usize,
}

/// A table temporarily owned by the loader, with its rollback watermark.
struct Owned {
    table: Table,
    /// Row count at registration; rollback truncates back to this.
    pre_len: usize,
    fks: Vec<ResolvedFk>,
}

/// A batched, atomic bulk loader over a [`Database`].
///
/// Obtain one with [`Database::bulk`]; see the [module docs](self) for the
/// staging protocol, the rollback semantics and an example.
pub struct BulkLoader<'db> {
    db: &'db mut Database,
    /// Registered tables, moved out of `db` until commit/drop.
    tables: Vec<Owned>,
    by_name: HashMap<String, usize>,
    /// Rows staged so far (also the batch position in error payloads).
    staged: usize,
    /// Set after a constraint violation rolled the batch back.
    poisoned: bool,
}

impl<'db> BulkLoader<'db> {
    pub(crate) fn new(db: &'db mut Database) -> Self {
        Self { db, tables: Vec::new(), by_name: HashMap::new(), staged: 0, poisoned: false }
    }

    /// Register `name` as a staging target, returning its handle.
    ///
    /// Idempotent — registering a table twice returns the same handle.
    /// Tables referenced by `name`'s foreign keys are registered
    /// transitively so staged parent rows are visible to staged child rows.
    /// Fails only if the table does not exist.
    pub fn table(&mut self, name: &str) -> Result<TableHandle> {
        if let Some(&slot) = self.by_name.get(name) {
            return Ok(TableHandle(slot));
        }
        if !self.db.tables.contains_key(name) {
            return Err(StoreError::UnknownTable(name.to_owned()));
        }
        // Register referenced tables first (terminates because
        // `create_table` only accepts foreign keys into pre-existing
        // tables, so the reference graph is acyclic).
        let fk_decls: Vec<(String, String)> = {
            let schema = self.db.tables[name].schema();
            schema.foreign_keys.iter().map(|fk| (fk.column.clone(), fk.ref_table.clone())).collect()
        };
        let mut fks = Vec::with_capacity(fk_decls.len());
        for (column, ref_table) in fk_decls {
            let ref_slot = self.table(&ref_table)?.0;
            fks.push(ResolvedFk { col: 0, column_name: column, ref_slot });
        }
        let table = self.db.tables.remove(name).expect("checked above");
        for fk in &mut fks {
            fk.col = table.schema().column_index(&fk.column_name).expect("fk validated at create");
        }
        let slot = self.tables.len();
        self.tables.push(Owned { pre_len: table.len(), table, fks });
        self.by_name.insert(name.to_owned(), slot);
        Ok(TableHandle(slot))
    }

    /// Validate one row against the live per-batch indexes and append it to
    /// the table behind `handle`.
    ///
    /// Runs exactly the checks of [`Database::insert`], in the same order —
    /// arity, cell types, primary-key presence/uniqueness (staged rows
    /// count), then foreign keys in declaration order (keys staged earlier
    /// in the batch are visible) — but against handles resolved once at
    /// registration. The first violation **rolls back the whole batch** on
    /// every registered table and poisons the loader; the error is
    /// [`StoreError::BulkRow`] around the violation a row-by-row loop would
    /// have hit.
    pub fn stage(&mut self, handle: TableHandle, row: Vec<Value>) -> Result<()> {
        if self.poisoned {
            return Err(StoreError::BulkPoisoned);
        }
        let result = (|| {
            let own = &self.tables[handle.0];
            own.table.validate_row(&row)?;
            for fk in &own.fks {
                let target = &self.tables[fk.ref_slot].table;
                check_foreign_key(own.table.name(), &fk.column_name, &row[fk.col], target)?;
            }
            Ok(())
        })();
        match result {
            Ok(()) => {
                self.tables[handle.0].table.push_unchecked(row);
                self.staged += 1;
                Ok(())
            }
            Err(source) => {
                let table = self.tables[handle.0].table.name().to_owned();
                let row = self.staged;
                self.rollback();
                Err(StoreError::BulkRow { table, row, source: Box::new(source) })
            }
        }
    }

    /// Undo every staged row and mark the loader poisoned. The tables stay
    /// owned until drop reinstalls them (at their pre-batch state).
    fn rollback(&mut self) {
        for own in &mut self.tables {
            own.table.truncate(own.pre_len);
        }
        self.staged = 0;
        self.poisoned = true;
    }

    /// Hint that about `additional` more rows will be staged for `handle`,
    /// pre-sizing the table's row store and primary-key index.
    ///
    /// Purely an optimization — a batch source that knows its cardinality
    /// (a parsed CSV document, a generator) avoids incremental reallocation
    /// during the load. Over- or under-estimating is harmless.
    pub fn reserve(&mut self, handle: TableHandle, additional: usize) {
        self.tables[handle.0].table.reserve(additional);
    }

    /// Number of rows staged so far in this batch.
    pub fn staged_len(&self) -> usize {
        self.staged
    }

    /// The registered table's schema (the loader owns the table, so this is
    /// always current).
    pub fn schema(&self, handle: TableHandle) -> &TableSchema {
        self.tables[handle.0].table.schema()
    }

    /// Finish the batch: hand every table back to the database with the
    /// staged rows in place, returning how many were inserted.
    ///
    /// Staging already validated and applied each row, so a commit after
    /// all-successful stages cannot fail; the `Result` only reports misuse
    /// (committing a loader that already rolled back). For each registered
    /// table that actually grew, one `TableChange::Appended` record (with
    /// the pre-batch length as the start position) lands in the database's
    /// change log — a rolled-back or empty batch records nothing.
    pub fn commit(mut self) -> Result<usize> {
        if self.poisoned {
            return Err(StoreError::BulkPoisoned);
        }
        // On a durable database the whole batch is one WAL record: each
        // grown table's appended row suffix, in slot (parents-first)
        // order. Logged before the tables are handed back — a failed
        // append rolls the batch back, exactly like a constraint
        // violation, so nothing unlogged ever commits.
        if self.db.is_durable() {
            let batch: Vec<(&str, &[Vec<Value>])> = self
                .tables
                .iter()
                .filter(|own| own.table.len() > own.pre_len)
                .map(|own| (own.table.name(), &own.table.rows()[own.pre_len..]))
                .collect();
            if !batch.is_empty() {
                if let Err(err) = self.db.log_op(WalOp::Batch { tables: &batch }) {
                    drop(batch);
                    self.rollback();
                    return Err(err);
                }
            }
        }
        let inserted = self.staged;
        let mut appended: Vec<(String, usize, usize)> = Vec::new();
        for own in self.tables.drain(..) {
            let added = own.table.len() - own.pre_len;
            if added > 0 {
                appended.push((own.table.name().to_owned(), own.pre_len, added));
            }
            self.db.tables.insert(own.table.name().to_owned(), own.table);
        }
        for (name, start, rows) in appended {
            self.db.record_change(&name, TableChange::Appended { start, rows });
        }
        Ok(inserted)
    }
}

impl Drop for BulkLoader<'_> {
    /// Reinstall the owned tables. A loader dropped without [`commit`]
    /// (abort, early `?` return, panic unwind) discards its staged rows
    /// first, so the database reverts to its pre-batch state.
    ///
    /// [`commit`]: BulkLoader::commit
    fn drop(&mut self) {
        for own in self.tables.drain(..) {
            let mut table = own.table;
            table.truncate(own.pre_len);
            self.db.tables.insert(table.name().to_owned(), table);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

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
    fn commit_appends_across_tables() {
        let mut d = db();
        let mut loader = d.bulk();
        let persons = loader.table("persons").unwrap();
        let movies = loader.table("movies").unwrap();
        loader.stage(persons, vec![Value::Int(1), Value::from("Besson")]).unwrap();
        loader.stage(movies, vec![Value::Int(10), Value::from("Leon"), Value::Int(1)]).unwrap();
        loader.stage(movies, vec![Value::Int(11), Value::from("Lucy"), Value::Int(1)]).unwrap();
        assert_eq!(loader.staged_len(), 3);
        assert_eq!(loader.commit().unwrap(), 3);
        assert_eq!(d.table("persons").unwrap().len(), 1);
        assert_eq!(d.table("movies").unwrap().len(), 2);
        assert_eq!(d.table("movies").unwrap().row_by_pk(11).unwrap()[1], Value::from("Lucy"));
    }

    #[test]
    fn registering_a_child_registers_its_parents() {
        let mut d = db();
        let mut loader = d.bulk();
        let movies = loader.table("movies").unwrap();
        // "persons" was pulled in transitively; registering it now must
        // return the existing slot, and staged persons are FK-visible.
        let persons = loader.table("persons").unwrap();
        assert_ne!(movies, persons);
        loader.stage(persons, vec![Value::Int(5), Value::from("Scott")]).unwrap();
        loader.stage(movies, vec![Value::Int(1), Value::from("Alien"), Value::Int(5)]).unwrap();
        assert_eq!(loader.commit().unwrap(), 2);
    }

    #[test]
    fn unknown_table_is_rejected_at_registration() {
        let mut d = db();
        let mut loader = d.bulk();
        assert!(matches!(loader.table("nope"), Err(StoreError::UnknownTable(_))));
    }

    #[test]
    fn forward_reference_within_a_batch_is_a_violation() {
        // Row-by-row equivalence: a movie referencing a person staged LATER
        // must fail, exactly as an insert loop would have failed.
        let mut d = db();
        let mut loader = d.bulk();
        let persons = loader.table("persons").unwrap();
        let movies = loader.table("movies").unwrap();
        let err = loader.stage(movies, vec![Value::Int(1), Value::from("Alien"), Value::Int(5)]);
        match err.unwrap_err() {
            StoreError::BulkRow { table, row, source } => {
                assert_eq!(table, "movies");
                assert_eq!(row, 0);
                assert!(matches!(*source, StoreError::ForeignKeyViolation { .. }));
            }
            other => panic!("expected BulkRow, got {other:?}"),
        }
        // The loader is poisoned; staging more is refused.
        assert!(loader.stage(persons, vec![Value::Int(5), Value::from("Scott")]).is_err());
        assert!(loader.commit().is_err());
        assert!(d.table("movies").unwrap().is_empty());
        assert!(d.table("persons").unwrap().is_empty());
    }

    #[test]
    fn failed_stage_rolls_back_the_whole_batch() {
        let mut d = db();
        d.insert("persons", vec![Value::Int(1), Value::from("kept")]).unwrap();
        let mut loader = d.bulk();
        let persons = loader.table("persons").unwrap();
        loader.stage(persons, vec![Value::Int(2), Value::from("new")]).unwrap();
        let err = loader.stage(persons, vec![Value::Int(1), Value::from("dup")]).unwrap_err();
        assert!(
            matches!(&err, StoreError::BulkRow { row: 1, source, .. }
                if matches!(**source, StoreError::DuplicateKey { .. })),
            "got {err:?}"
        );
        drop(loader);
        let t = d.table("persons").unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.contains_pk(1));
        assert!(!t.contains_pk(2), "rolled-back key must be free again");
    }

    #[test]
    fn duplicate_within_batch_is_caught_in_staging_order() {
        let mut d = db();
        let mut loader = d.bulk();
        let persons = loader.table("persons").unwrap();
        loader.stage(persons, vec![Value::Int(7), Value::from("a")]).unwrap();
        let err = loader.stage(persons, vec![Value::Int(7), Value::from("b")]).unwrap_err();
        assert!(matches!(err, StoreError::BulkRow { row: 1, .. }), "got {err:?}");
    }

    #[test]
    fn dropped_loader_discards_staged_rows() {
        let mut d = db();
        let mut loader = d.bulk();
        let persons = loader.table("persons").unwrap();
        loader.stage(persons, vec![Value::Int(1), Value::from("ghost")]).unwrap();
        drop(loader);
        assert!(d.table("persons").unwrap().is_empty());
        // The key is free for a later batch.
        d.insert("persons", vec![Value::Int(1), Value::from("real")]).unwrap();
    }

    #[test]
    fn type_and_arity_errors_carry_the_row_position() {
        let mut d = db();
        let mut loader = d.bulk();
        let persons = loader.table("persons").unwrap();
        loader.stage(persons, vec![Value::Int(1), Value::from("ok")]).unwrap();
        let err = loader.stage(persons, vec![Value::Int(2)]).unwrap_err(); // arity
        assert!(
            matches!(&err, StoreError::BulkRow { row: 1, source, .. }
                if matches!(**source, StoreError::ArityMismatch { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn null_fk_is_allowed() {
        let mut d = db();
        let mut loader = d.bulk();
        let movies = loader.table("movies").unwrap();
        loader.stage(movies, vec![Value::Int(1), Value::from("Alien"), Value::Null]).unwrap();
        assert_eq!(loader.commit().unwrap(), 1);
    }

    #[test]
    fn staged_rows_are_queryable_after_commit() {
        let mut d = db();
        let mut loader = d.bulk();
        let persons = loader.table("persons").unwrap();
        for k in 0..100 {
            loader.stage(persons, vec![Value::Int(k), Value::from(format!("p{k}"))]).unwrap();
        }
        loader.commit().unwrap();
        let t = d.table("persons").unwrap();
        assert_eq!(t.len(), 100);
        assert_eq!(t.row_by_pk(42).unwrap()[1], Value::from("p42"));
    }
}
