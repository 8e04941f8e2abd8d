//! A single table: schema + rows + its [`IndexSet`](crate::index).

use std::sync::{Arc, OnceLock};

use crate::error::StoreError;
use crate::index::{IndexSet, JoinHash};
use crate::schema::TableSchema;
use crate::value::{DataType, Value};
use crate::Result;

/// An in-memory table.
///
/// Rows are stored in insertion order. The primary key (when declared) is
/// indexed with a hash map for O(1) FK validation, and any number of
/// secondary equality indexes (foreign-key columns by default, more via
/// [`crate::Database::create_index`]) map values to sorted posting lists
/// of row positions. Full-column scans — RETRO's bulk access pattern —
/// are served by [`Table::column_values`] / [`Table::rows`].
///
/// Planned hash joins into the table probe a per-column `JoinHash`,
/// built on first use and dropped by every write. A clone shares the built
/// ones: its rows equal the original's, so they are valid for both until
/// either side writes.
///
/// Clones are copy-on-write: the schema, rows and indexes sit behind one
/// `Arc`, so cloning a table costs a reference-count bump (plus one per
/// built join hash), and the first write to either side copies them.
/// Join hashes built after the clone stay with the side that built them.
#[derive(Clone, Debug)]
pub struct Table {
    data: Arc<TableData>,
    /// One slot per column, allocated with the first join hash; reset as
    /// a whole by [`Self::data_mut`].
    join_hashes: OnceLock<Box<[OnceLock<Arc<JoinHash>>]>>,
}

/// The part of a [`Table`] its clones share until one of them writes.
#[derive(Clone, Debug)]
struct TableData {
    schema: TableSchema,
    rows: Vec<Vec<Value>>,
    indexes: IndexSet,
}

impl Table {
    /// Create an empty table for `schema`.
    pub fn new(schema: TableSchema) -> Self {
        let indexes = IndexSet::new(schema.primary_key);
        let data = Arc::new(TableData { schema, rows: Vec::new(), indexes });
        Self { data, join_hashes: OnceLock::new() }
    }

    /// Write access to the rows and indexes: drops the join hashes (the
    /// rows are about to change) and copies the shared part first when a
    /// clone still holds it. Every row mutation goes through here.
    fn data_mut(&mut self) -> &mut TableData {
        self.join_hashes.take();
        Arc::make_mut(&mut self.data)
    }

    /// True when `self` and `other` share their rows and indexes: neither
    /// has written since one was cloned from the other.
    #[cfg(test)]
    pub(crate) fn shares_rows_with(&self, other: &Table) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.data.schema
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.data.schema.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.rows.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.rows.is_empty()
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.data.rows
    }

    /// One row by position.
    pub fn row(&self, idx: usize) -> Option<&[Value]> {
        self.data.rows.get(idx).map(Vec::as_slice)
    }

    /// Find a row by primary-key value.
    pub fn row_by_pk(&self, key: i64) -> Option<&[Value]> {
        self.data.indexes.pk_lookup(key).map(|i| self.data.rows[i].as_slice())
    }

    /// Find a row's *position* by primary-key value — for callers that
    /// cache per-position data alongside the table (extraction builds
    /// row-parallel value-id caches this way).
    pub fn row_position_by_pk(&self, key: i64) -> Option<usize> {
        self.data.indexes.pk_lookup(key)
    }

    /// True when a row with this primary key exists.
    pub fn contains_pk(&self, key: i64) -> bool {
        self.data.indexes.contains_pk(key)
    }

    /// True when `col` carries a secondary equality index.
    pub fn has_secondary_index(&self, col: usize) -> bool {
        self.data.indexes.has_secondary(col)
    }

    /// Columns carrying a secondary index, in column order.
    pub fn secondary_index_columns(&self) -> Vec<usize> {
        self.data.indexes.secondary_columns().collect()
    }

    /// Row positions (sorted ascending) whose `col` equals `key`, or
    /// `None` when `col` carries no secondary index. `Some(&[])` means
    /// the index exists and proves no row matches. `NULL` keys match
    /// nothing (SQL equality semantics).
    pub fn index_probe<'a>(&'a self, col: usize, key: &Value) -> Option<&'a [u32]> {
        self.data.indexes.probe(col, key)
    }

    /// [`Self::index_probe`] with a raw integer key.
    pub fn index_probe_int(&self, col: usize, key: i64) -> Option<&[u32]> {
        self.data.indexes.probe_int(col, key)
    }

    /// [`Self::index_probe`] with a borrowed string key — the extraction
    /// hot path; no per-probe allocation.
    pub fn index_probe_text<'a>(&'a self, col: usize, key: &str) -> Option<&'a [u32]> {
        self.data.indexes.probe_text(col, key)
    }

    /// Exact distinct (non-NULL) value count of an indexed column, or
    /// `None` when `col` is not indexed. Planner selectivity input.
    pub fn index_distinct(&self, col: usize) -> Option<usize> {
        self.data.indexes.distinct(col)
    }

    /// Whether column `col` can carry an equality index, and with which
    /// key type (`true` = integer-keyed). Errors on FLOAT columns —
    /// equality on floats is a footgun and nothing in the engine needs it.
    pub(crate) fn indexable_key_type(&self, col: usize) -> Result<bool> {
        let def = &self.data.schema.columns[col];
        match def.ty {
            DataType::Int => Ok(true),
            DataType::Text => Ok(false),
            DataType::Float => Err(StoreError::Sql(format!(
                "cannot index FLOAT column `{}.{}`: equality indexes cover INTEGER and TEXT",
                self.data.schema.name, def.name
            ))),
        }
    }

    /// Create (and backfill) a secondary equality index on column `col`.
    /// Supported on `INTEGER` and `TEXT` columns; returns `false` when the
    /// column is already indexed. Exposed through
    /// [`crate::Database::create_index`], which also logs the declaration
    /// for recovery.
    pub(crate) fn create_secondary_index(&mut self, col: usize) -> Result<bool> {
        let int_keyed = self.indexable_key_type(col)?;
        if self.has_secondary_index(col) {
            return Ok(false);
        }
        // An index changes no row, so the join hashes stay.
        let data = Arc::make_mut(&mut self.data);
        Ok(data.indexes.create_secondary(col, int_keyed, &data.rows))
    }

    /// The join hash of column `col`, built on the first call and shared
    /// by every later one (and by clones) until the table is written.
    /// Concurrent first calls build it once.
    pub(crate) fn join_hash(&self, col: usize) -> &Arc<JoinHash> {
        let slots = self
            .join_hashes
            .get_or_init(|| (0..self.data.schema.columns.len()).map(|_| OnceLock::new()).collect());
        slots[col].get_or_init(|| Arc::new(JoinHash::build(&self.data.rows, col)))
    }

    /// Heap bytes held by the built join hashes.
    pub(crate) fn join_hash_bytes(&self) -> usize {
        self.join_hashes.get().map_or(0, |slots| {
            slots.iter().filter_map(OnceLock::get).map(|hash| hash.bytes()).sum()
        })
    }

    /// Iterator over the values of one column (by index).
    pub fn column_values(&self, col: usize) -> impl Iterator<Item = &Value> {
        self.data.rows.iter().map(move |r| &r[col])
    }

    /// Iterator over the values of one column (by name).
    pub fn column_values_by_name<'a>(
        &'a self,
        name: &str,
    ) -> Result<impl Iterator<Item = &'a Value>> {
        let col = self.data.schema.column_index(name).ok_or_else(|| StoreError::UnknownColumn {
            table: self.data.schema.name.clone(),
            column: name.to_owned(),
        })?;
        Ok(self.column_values(col))
    }

    /// Validate a row against the schema (arity, types, PK presence and
    /// uniqueness — in that order). Does **not** check foreign keys — those
    /// need the whole database and are enforced by
    /// [`crate::Database::insert`] and [`crate::BulkLoader::stage`]. Both
    /// ingestion paths share this routine (the bulk loader appends staged
    /// rows to the live index, so "staged earlier in the batch" and
    /// "already present" are the same check), which is what makes them
    /// report identical first errors.
    pub fn validate_row(&self, row: &[Value]) -> Result<()> {
        match self.check_row(row)? {
            Some(k) if self.data.indexes.contains_pk(k) => Err(StoreError::DuplicateKey {
                table: self.data.schema.name.clone(),
                key: k.to_string(),
            }),
            _ => Ok(()),
        }
    }

    /// [`Self::validate_row`] without the uniqueness check: arity, types
    /// and primary-key presence. Returns the row's primary key, if the
    /// schema declares one.
    fn check_row(&self, row: &[Value]) -> Result<Option<i64>> {
        if row.len() != self.data.schema.columns.len() {
            return Err(StoreError::ArityMismatch {
                table: self.data.schema.name.clone(),
                expected: self.data.schema.columns.len(),
                got: row.len(),
            });
        }
        for (val, col) in row.iter().zip(&self.data.schema.columns) {
            if !val.fits(col.ty) {
                return Err(StoreError::TypeMismatch {
                    table: self.data.schema.name.clone(),
                    column: col.name.clone(),
                    expected: col.ty.to_string(),
                    got: val.data_type().map_or_else(|| "NULL".to_owned(), |t| t.to_string()),
                });
            }
        }
        let Some(pk) = self.data.schema.primary_key else { return Ok(None) };
        match &row[pk] {
            Value::Int(k) => Ok(Some(*k)),
            Value::Null => Err(StoreError::NullKey {
                table: self.data.schema.name.clone(),
                column: self.data.schema.columns[pk].name.clone(),
            }),
            other => Err(StoreError::TypeMismatch {
                table: self.data.schema.name.clone(),
                column: self.data.schema.columns[pk].name.clone(),
                expected: "INTEGER".to_owned(),
                got: other.data_type().map_or_else(|| "NULL".into(), |t| t.to_string()),
            }),
        }
    }

    /// Append a validated row. Callers must run [`Self::validate_row`] (or
    /// go through [`crate::Database::insert`]) first; this method only keeps
    /// the indexes coherent.
    pub(crate) fn push_unchecked(&mut self, row: Vec<Value>) -> usize {
        let data = self.data_mut();
        let pos = data.rows.len();
        data.indexes.note_append(&row, pos);
        data.rows.push(row);
        pos
    }

    /// Pre-size the row store and primary-key index for `additional` more
    /// rows, so a bulk load appends without reallocation.
    pub(crate) fn reserve(&mut self, additional: usize) {
        if additional == 0 {
            return;
        }
        let data = Arc::make_mut(&mut self.data);
        data.rows.reserve(additional);
        data.indexes.reserve_pk(additional);
    }

    /// Drop every row at position `len` and beyond, pruning the removed
    /// rows' index entries. Rollback support for atomic bulk loads
    /// ([`crate::BulkLoader`]): appends since a remembered length are
    /// undone in O(dropped), each posting-list tail pruned with one binary
    /// search.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len >= self.data.rows.len() {
            return;
        }
        let data = self.data_mut();
        data.indexes.note_truncate(&data.rows[len..], len);
        data.rows.truncate(len);
    }

    /// Remove the rows at the given (sorted, deduplicated) positions and
    /// rebuild the indexes (survivors renumber, so incremental repair
    /// would cost as much as rebuilding).
    pub(crate) fn remove_rows(&mut self, sorted_indices: &[usize]) {
        let data = self.data_mut();
        let mut keep = vec![true; data.rows.len()];
        for &i in sorted_indices {
            if i < keep.len() {
                keep[i] = false;
            }
        }
        let mut iter = keep.iter();
        data.rows.retain(|_| *iter.next().expect("keep mask aligned"));
        data.indexes.rebuild(&data.rows);
    }

    /// Replace the table's entire row set and rebuild the indexes, refusing
    /// any row [`Self::validate_row`] would refuse against the new set —
    /// snapshot load. One rebuild over the whole set is cheaper than
    /// appending row by row. On error the table is left half-loaded, so
    /// the caller must discard it.
    pub(crate) fn set_rows(&mut self, rows: Vec<Vec<Value>>) -> Result<()> {
        for row in &rows {
            self.check_row(row)?;
        }
        let data = self.data_mut();
        data.rows = rows;
        data.indexes.rebuild(&data.rows);
        // Every row carries an integer key by now, and a repeated key
        // overwrites its earlier index entry: fewer entries than rows
        // means a duplicate, found at the first row its key does not map
        // back to.
        let Some(pk) = self.data.schema.primary_key else { return Ok(()) };
        if self.data.indexes.pk_len() == self.data.rows.len() {
            return Ok(());
        }
        let key = self
            .data
            .rows
            .iter()
            .enumerate()
            .find_map(|(pos, row)| {
                let k = row[pk].as_int()?;
                (self.data.indexes.pk_lookup(k) != Some(pos)).then_some(k)
            })
            .expect("a repeated key leaves an earlier row unindexed");
        Err(StoreError::DuplicateKey { table: self.data.schema.name.clone(), key: key.to_string() })
    }

    /// Update one cell in place; [`crate::Database::update_rows`] is the
    /// public path. The primary key column cannot be updated.
    pub(crate) fn update_cell(&mut self, row: usize, col: usize, value: Value) -> Result<()> {
        if row >= self.data.rows.len() || col >= self.data.schema.columns.len() {
            return Err(StoreError::UnknownColumn {
                table: self.data.schema.name.clone(),
                column: format!("index {col}"),
            });
        }
        if Some(col) == self.data.schema.primary_key {
            return Err(StoreError::Sql("cannot update a primary key column".into()));
        }
        let def = &self.data.schema.columns[col];
        if !value.fits(def.ty) {
            return Err(StoreError::TypeMismatch {
                table: self.data.schema.name.clone(),
                column: def.name.clone(),
                expected: def.ty.to_string(),
                got: value.data_type().map_or_else(|| "NULL".into(), |t| t.to_string()),
            });
        }
        let data = self.data_mut();
        let old = std::mem::replace(&mut data.rows[row][col], value);
        data.indexes.note_cell_update(col, &old, &data.rows[row][col], row);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::DataType;

    fn table() -> Table {
        let schema = TableSchema::builder("t")
            .pk("id")
            .column("name", DataType::Text)
            .column("score", DataType::Float)
            .build();
        Table::new(schema)
    }

    /// `table()` with a secondary index on the `name` column.
    fn indexed_table() -> Table {
        let mut t = table();
        t.create_secondary_index(1).unwrap();
        t
    }

    #[test]
    fn insert_and_lookup_by_pk() {
        let mut t = table();
        let row = vec![Value::Int(7), Value::from("abc"), Value::Float(1.5)];
        t.validate_row(&row).unwrap();
        t.push_unchecked(row);
        assert_eq!(t.len(), 1);
        assert_eq!(t.row_by_pk(7).unwrap()[1], Value::from("abc"));
        assert_eq!(t.row_position_by_pk(7), Some(0));
        assert!(t.contains_pk(7));
        assert!(!t.contains_pk(8));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let t = table();
        let err = t.validate_row(&[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, StoreError::ArityMismatch { expected: 3, got: 1, .. }));
    }

    #[test]
    fn type_mismatch_rejected() {
        let t = table();
        let err = t.validate_row(&[Value::Int(1), Value::Int(2), Value::Float(0.0)]).unwrap_err();
        assert!(matches!(err, StoreError::TypeMismatch { .. }));
    }

    #[test]
    fn set_rows_refuses_what_validate_row_refuses() {
        let row = |k: Value, name: &str| vec![k, Value::from(name), Value::Null];
        let refused = |rows| table().set_rows(rows).unwrap_err();
        assert!(matches!(refused(vec![vec![Value::Int(1)]]), StoreError::ArityMismatch { .. }));
        assert!(matches!(
            refused(vec![vec![Value::Int(1), Value::Int(2), Value::Null]]),
            StoreError::TypeMismatch { .. }
        ));
        assert!(matches!(refused(vec![row(Value::Null, "a")]), StoreError::NullKey { .. }));
        assert_eq!(
            refused(vec![
                row(Value::Int(1), "a"),
                row(Value::Int(2), "b"),
                row(Value::Int(1), "c")
            ]),
            StoreError::DuplicateKey { table: "t".into(), key: "1".into() }
        );
        let mut t = table();
        t.set_rows(vec![row(Value::Int(1), "a"), row(Value::Int(2), "b")]).unwrap();
        assert_eq!(t.row_position_by_pk(2), Some(1));
    }

    #[test]
    fn int_widens_to_float_column() {
        let t = table();
        t.validate_row(&[Value::Int(1), Value::from("x"), Value::Int(3)]).unwrap();
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = table();
        t.push_unchecked(vec![Value::Int(1), Value::from("a"), Value::Null]);
        let err = t.validate_row(&[Value::Int(1), Value::from("b"), Value::Null]).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey { .. }));
    }

    #[test]
    fn null_pk_rejected() {
        let t = table();
        let err = t.validate_row(&[Value::Null, Value::from("a"), Value::Null]).unwrap_err();
        assert!(matches!(err, StoreError::NullKey { .. }));
    }

    #[test]
    fn column_values_by_name_scans() {
        let mut t = table();
        t.push_unchecked(vec![Value::Int(1), Value::from("a"), Value::Null]);
        t.push_unchecked(vec![Value::Int(2), Value::from("b"), Value::Null]);
        let names: Vec<_> =
            t.column_values_by_name("name").unwrap().filter_map(Value::as_text).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(t.column_values_by_name("bogus").is_err());
    }

    #[test]
    fn truncate_drops_rows_and_prunes_pk_index() {
        let mut t = table();
        t.push_unchecked(vec![Value::Int(1), Value::from("a"), Value::Null]);
        t.push_unchecked(vec![Value::Int(2), Value::from("b"), Value::Null]);
        t.truncate(1);
        assert_eq!(t.len(), 1);
        assert!(t.contains_pk(1));
        assert!(!t.contains_pk(2));
        // The truncated key must be free for reuse again.
        t.validate_row(&[Value::Int(2), Value::from("c"), Value::Null]).unwrap();
        t.truncate(5); // beyond len: no-op
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn update_cell_rules() {
        let mut t = table();
        t.push_unchecked(vec![Value::Int(1), Value::from("a"), Value::Null]);
        t.update_cell(0, 1, Value::from("z")).unwrap();
        assert_eq!(t.row(0).unwrap()[1], Value::from("z"));
        assert!(t.update_cell(0, 0, Value::Int(9)).is_err()); // PK frozen
        assert!(t.update_cell(0, 1, Value::Int(9)).is_err()); // wrong type
        assert!(t.update_cell(5, 1, Value::Null).is_err()); // out of range
    }

    #[test]
    fn secondary_index_tracks_all_mutations() {
        let mut t = indexed_table();
        assert!(t.has_secondary_index(1));
        assert!(!t.has_secondary_index(2));
        t.push_unchecked(vec![Value::Int(1), Value::from("a"), Value::Null]);
        t.push_unchecked(vec![Value::Int(2), Value::from("b"), Value::Null]);
        t.push_unchecked(vec![Value::Int(3), Value::from("a"), Value::Null]);
        assert_eq!(t.index_probe_text(1, "a"), Some(&[0u32, 2][..]));

        t.update_cell(1, 1, Value::from("a")).unwrap();
        assert_eq!(t.index_probe_text(1, "a"), Some(&[0u32, 1, 2][..]));
        assert_eq!(t.index_probe_text(1, "b"), Some(&[][..]));
        assert_eq!(t.index_distinct(1), Some(1));

        t.remove_rows(&[0]);
        assert_eq!(t.index_probe_text(1, "a"), Some(&[0u32, 1][..]));

        t.truncate(1);
        assert_eq!(t.index_probe_text(1, "a"), Some(&[0u32][..]));

        t.set_rows(vec![vec![Value::Int(9), Value::from("z"), Value::Null]]).unwrap();
        assert_eq!(t.index_probe_text(1, "z"), Some(&[0u32][..]));
        assert_eq!(t.index_probe_text(1, "a"), Some(&[][..]));
    }

    #[test]
    fn concurrent_first_joins_build_one_hash() {
        let mut t = table();
        for k in 0..64 {
            t.push_unchecked(vec![Value::Int(k), Value::from(format!("n{}", k % 8)), Value::Null]);
        }
        let barrier = std::sync::Barrier::new(2);
        let built: Vec<Arc<JoinHash>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        Arc::clone(t.join_hash(1))
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(Arc::ptr_eq(&built[0], &built[1]));
        assert!(Arc::ptr_eq(&built[0], t.join_hash(1)));
        assert!(t.join_hash_bytes() > 0);
    }

    #[test]
    fn every_row_write_drops_the_join_hashes() {
        let row = |k: i64, name: &str| vec![Value::Int(k), Value::from(name), Value::Null];
        let writes: [fn(&mut Table); 5] = [
            |t| {
                t.push_unchecked(vec![Value::Int(9), Value::from("z"), Value::Null]);
            },
            |t| t.truncate(1),
            |t| t.remove_rows(&[0]),
            |t| t.set_rows(vec![vec![Value::Int(9), Value::from("z"), Value::Null]]).unwrap(),
            |t| t.update_cell(0, 2, Value::Float(1.0)).unwrap(),
        ];
        for write in writes {
            let mut t = table();
            t.push_unchecked(row(1, "a"));
            t.push_unchecked(row(2, "b"));
            t.join_hash(1);
            assert!(t.join_hash_bytes() > 0);
            write(&mut t);
            assert_eq!(t.join_hash_bytes(), 0);
        }
    }

    #[test]
    fn float_columns_cannot_be_indexed() {
        let mut t = table();
        assert!(t.create_secondary_index(2).is_err());
        assert!(t.create_secondary_index(1).unwrap());
        assert!(!t.create_secondary_index(1).unwrap()); // idempotent
        assert_eq!(t.secondary_index_columns(), vec![1]);
    }

    #[test]
    fn unindexed_probe_returns_none() {
        let mut t = table();
        t.push_unchecked(vec![Value::Int(1), Value::from("a"), Value::Null]);
        assert_eq!(t.index_probe(1, &Value::from("a")), None);
        assert_eq!(t.index_probe_int(0, 1), None); // pk has no secondary index
        assert_eq!(t.index_distinct(1), None);
    }
}
