//! Secondary indexes: the per-table `IndexSet`.
//!
//! Every [`Table`](crate::Table) owns one `IndexSet` bundling the i64
//! primary-key hash index (unique: key → row position) with any number of
//! secondary equality indexes (non-unique: value → sorted posting list of
//! row positions). Secondary indexes exist for `INTEGER` and `TEXT`
//! columns — the two types equality predicates and foreign keys touch —
//! and are maintained incrementally through every mutation path the table
//! has: append, truncate (bulk rollback), positional removal (DELETE),
//! wholesale replacement (WAL replay of unscoped edits), and in-place cell
//! updates.
//!
//! Posting lists are kept sorted by row position. Appends only ever add
//! the largest position, so the order is free on the hot ingest path;
//! truncation prunes each affected list's tail with one binary search;
//! probes return the list as a slice, already in scan order, which keeps
//! index-driven query results bit-identical to scan-driven ones.
//!
//! `NULL` is never indexed: SQL equality is false against `NULL`, and the
//! primary key rejects it outright.
//!
//! Who creates indexes:
//! * [`Database::create_table`](crate::Database::create_table)
//!   auto-indexes every foreign-key column (logged `CREATE TABLE` replays
//!   re-derive them from the schema, so they survive recovery for free),
//! * [`Database::create_index`](crate::Database::create_index) declares
//!   one explicitly (WAL-logged and recorded in snapshots, so recovery
//!   rebuilds it bit-identically).
//!
//! The join-key semantics every join path shares (`join_eq`,
//! `join_hash`) live here too, with `JoinHash`, the sorted build side
//! of a hash join. Unlike the indexes above it is not maintained: a
//! [`Table`](crate::Table) builds one per column on the first planned
//! hash join into it and drops them all on any write.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::value::Value;

/// Multiply–xorshift hasher for integer keys, FNV-1a for byte keys.
///
/// Primary keys are integers under the engine's control (dense, often
/// sequential), so SipHash's DoS resistance buys nothing here while its
/// per-probe cost shows up directly in ingest throughput — every insert
/// probes the key index at least once, and every foreign key probes the
/// referenced table's. A Fibonacci multiply plus an xor-shift mixes the low
/// bits sequential keys differ in across the whole word in a couple of
/// cycles. Text keys (short human-readable strings) take the FNV-1a byte
/// path.
#[derive(Clone, Default)]
pub(crate) struct PkHasher(u64);

impl Hasher for PkHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Byte fallback (string keys, length prefixes): FNV-1a.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_i64(&mut self, i: i64) {
        let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        self.0 = x;
    }
}

pub(crate) type FastBuild = BuildHasherDefault<PkHasher>;
type PkIndex = HashMap<i64, usize, FastBuild>;

/// One secondary equality index: value → sorted row positions.
///
/// Typed by the indexed column: integer columns hash raw `i64`s, text
/// columns hash the string bytes. Probes on text borrow the needle
/// (`&str`) — no per-probe allocation.
#[derive(Clone, Debug)]
enum IndexMap {
    Int(HashMap<i64, Vec<u32>, FastBuild>),
    Text(HashMap<String, Vec<u32>, FastBuild>),
}

impl IndexMap {
    fn clear(&mut self) {
        match self {
            IndexMap::Int(m) => m.clear(),
            IndexMap::Text(m) => m.clear(),
        }
    }

    fn distinct(&self) -> usize {
        match self {
            IndexMap::Int(m) => m.len(),
            IndexMap::Text(m) => m.len(),
        }
    }

    /// Append `pos` to `value`'s posting list. `pos` must exceed every
    /// position already indexed (append-only discipline keeps lists
    /// sorted without a search).
    fn insert_append(&mut self, value: &Value, pos: u32) {
        match (self, value) {
            (IndexMap::Int(m), Value::Int(k)) => m.entry(*k).or_default().push(pos),
            (IndexMap::Text(m), Value::Text(s)) => {
                // One allocation per *new distinct value*; repeat values
                // hit the occupied entry without cloning.
                match m.get_mut(s.as_str()) {
                    Some(list) => list.push(pos),
                    None => {
                        m.insert(s.clone(), vec![pos]);
                    }
                }
            }
            // NULL (or a value of the wrong shape, which validation
            // prevents) is not indexed.
            _ => {}
        }
    }

    /// Insert `pos` into `value`'s posting list at its sorted position
    /// (cell updates write mid-table).
    fn insert_sorted(&mut self, value: &Value, pos: u32) {
        let list = match (self, value) {
            (IndexMap::Int(m), Value::Int(k)) => m.entry(*k).or_default(),
            (IndexMap::Text(m), Value::Text(s)) => match m.get_mut(s.as_str()) {
                Some(list) => list,
                None => m.entry(s.clone()).or_default(),
            },
            _ => return,
        };
        let at = list.partition_point(|&p| p < pos);
        list.insert(at, pos);
    }

    /// Remove `pos` from `value`'s posting list, dropping the list when it
    /// empties (distinct counts stay honest).
    fn remove(&mut self, value: &Value, pos: u32) {
        match (self, value) {
            (IndexMap::Int(m), Value::Int(k)) => {
                if let Some(list) = m.get_mut(k) {
                    if let Ok(at) = list.binary_search(&pos) {
                        list.remove(at);
                    }
                    if list.is_empty() {
                        m.remove(k);
                    }
                }
            }
            (IndexMap::Text(m), Value::Text(s)) => {
                if let Some(list) = m.get_mut(s.as_str()) {
                    if let Ok(at) = list.binary_search(&pos) {
                        list.remove(at);
                    }
                    if list.is_empty() {
                        m.remove(s.as_str());
                    }
                }
            }
            _ => {}
        }
    }

    /// Drop every indexed position `>= len` for `value` (bulk rollback:
    /// the doomed positions are exactly the list's tail).
    fn truncate_value(&mut self, value: &Value, len: u32) {
        match (self, value) {
            (IndexMap::Int(m), Value::Int(k)) => {
                if let Some(list) = m.get_mut(k) {
                    list.truncate(list.partition_point(|&p| p < len));
                    if list.is_empty() {
                        m.remove(k);
                    }
                }
            }
            (IndexMap::Text(m), Value::Text(s)) => {
                if let Some(list) = m.get_mut(s.as_str()) {
                    list.truncate(list.partition_point(|&p| p < len));
                    if list.is_empty() {
                        m.remove(s.as_str());
                    }
                }
            }
            _ => {}
        }
    }

    fn probe<'a>(&'a self, key: &Value) -> &'a [u32] {
        match (self, key) {
            (IndexMap::Int(m), Value::Int(k)) => m.get(k).map_or(&[], Vec::as_slice),
            // An integral float literal equals the integer it names under
            // SQL comparison semantics; probe the int index through it.
            (IndexMap::Int(m), Value::Float(x)) if x.fract() == 0.0 && x.abs() < 2f64.powi(63) => {
                m.get(&(*x as i64)).map_or(&[], Vec::as_slice)
            }
            (IndexMap::Text(m), Value::Text(s)) => m.get(s.as_str()).map_or(&[], Vec::as_slice),
            // Type-checked columns cannot hold a value of another shape:
            // an equality against one matches nothing.
            _ => &[],
        }
    }

    fn probe_int(&self, key: i64) -> &[u32] {
        match self {
            IndexMap::Int(m) => m.get(&key).map_or(&[], Vec::as_slice),
            IndexMap::Text(_) => &[],
        }
    }

    fn probe_text<'a>(&'a self, key: &str) -> &'a [u32] {
        match self {
            IndexMap::Text(m) => m.get(key).map_or(&[], Vec::as_slice),
            IndexMap::Int(_) => &[],
        }
    }
}

/// A secondary index over one column.
#[derive(Clone, Debug)]
struct ColumnIndex {
    col: usize,
    map: IndexMap,
}

/// All indexes of one table: the unique primary-key index plus secondary
/// equality indexes, kept coherent by [`Table`](crate::Table)'s mutation
/// hooks.
#[derive(Clone, Debug, Default)]
pub(crate) struct IndexSet {
    /// Primary-key column, when the schema declares one.
    pk_col: Option<usize>,
    /// primary-key value (as i64) → row position.
    pk: PkIndex,
    /// Secondary indexes, ordered by column position (deterministic
    /// iteration for EXPLAIN and stats).
    secondary: Vec<ColumnIndex>,
}

impl IndexSet {
    pub(crate) fn new(pk_col: Option<usize>) -> Self {
        Self { pk_col, pk: PkIndex::default(), secondary: Vec::new() }
    }

    // ---- primary key ----------------------------------------------------

    pub(crate) fn pk_lookup(&self, key: i64) -> Option<usize> {
        self.pk.get(&key).copied()
    }

    pub(crate) fn contains_pk(&self, key: i64) -> bool {
        self.pk.contains_key(&key)
    }

    /// Number of indexed primary keys.
    pub(crate) fn pk_len(&self) -> usize {
        self.pk.len()
    }

    pub(crate) fn reserve_pk(&mut self, additional: usize) {
        if self.pk_col.is_some() {
            self.pk.reserve(additional);
        }
    }

    // ---- secondary index lifecycle --------------------------------------

    /// True when a secondary index exists on `col`.
    pub(crate) fn has_secondary(&self, col: usize) -> bool {
        self.secondary.iter().any(|ix| ix.col == col)
    }

    /// Columns carrying a secondary index, in column order.
    pub(crate) fn secondary_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.secondary.iter().map(|ix| ix.col)
    }

    /// Create (and backfill) a secondary index on `col`. `int_keyed`
    /// selects the key type; `rows` is the table's current row set.
    /// Returns `false` when the column is already indexed.
    pub(crate) fn create_secondary(
        &mut self,
        col: usize,
        int_keyed: bool,
        rows: &[Vec<Value>],
    ) -> bool {
        if self.has_secondary(col) {
            return false;
        }
        let map = if int_keyed {
            IndexMap::Int(HashMap::default())
        } else {
            IndexMap::Text(HashMap::default())
        };
        let mut ix = ColumnIndex { col, map };
        for (pos, row) in rows.iter().enumerate() {
            ix.map.insert_append(&row[col], pos as u32);
        }
        let at = self.secondary.partition_point(|other| other.col < col);
        self.secondary.insert(at, ix);
        true
    }

    // ---- probes ----------------------------------------------------------

    /// Row positions (sorted ascending) whose `col` equals `key`, or
    /// `None` when `col` carries no secondary index. `Some(&[])` means the
    /// index exists and proves no row matches.
    pub(crate) fn probe<'a>(&'a self, col: usize, key: &Value) -> Option<&'a [u32]> {
        self.secondary.iter().find(|ix| ix.col == col).map(|ix| ix.map.probe(key))
    }

    /// [`Self::probe`] with a raw integer key (FK validation hot path).
    pub(crate) fn probe_int(&self, col: usize, key: i64) -> Option<&[u32]> {
        self.secondary.iter().find(|ix| ix.col == col).map(|ix| ix.map.probe_int(key))
    }

    /// [`Self::probe`] with a borrowed string key (extraction hot path —
    /// no per-probe allocation).
    pub(crate) fn probe_text<'a>(&'a self, col: usize, key: &str) -> Option<&'a [u32]> {
        self.secondary.iter().find(|ix| ix.col == col).map(|ix| ix.map.probe_text(key))
    }

    /// Exact distinct (non-NULL) value count for an indexed column —
    /// planner selectivity input. `None` when `col` is not indexed.
    pub(crate) fn distinct(&self, col: usize) -> Option<usize> {
        self.secondary.iter().find(|ix| ix.col == col).map(|ix| ix.map.distinct())
    }

    // ---- maintenance (called by Table's mutation hooks) ------------------

    /// Index a freshly appended row at position `pos` (must exceed all
    /// indexed positions).
    pub(crate) fn note_append(&mut self, row: &[Value], pos: usize) {
        if let Some(pk) = self.pk_col {
            if let Value::Int(k) = row[pk] {
                self.pk.insert(k, pos);
            }
        }
        for ix in &mut self.secondary {
            ix.map.insert_append(&row[ix.col], pos as u32);
        }
    }

    /// Un-index rows at positions `>= len`; `dropped` is the slice being
    /// removed (the table's tail).
    pub(crate) fn note_truncate(&mut self, dropped: &[Vec<Value>], len: usize) {
        if let Some(pk) = self.pk_col {
            for row in dropped {
                if let Value::Int(k) = row[pk] {
                    self.pk.remove(&k);
                }
            }
        }
        for ix in &mut self.secondary {
            for row in dropped {
                ix.map.truncate_value(&row[ix.col], len as u32);
            }
        }
    }

    /// Rebuild everything from `rows` (positional removals and wholesale
    /// replacement renumber surviving rows; incremental repair would cost
    /// as much as rebuilding).
    pub(crate) fn rebuild(&mut self, rows: &[Vec<Value>]) {
        self.pk.clear();
        for ix in &mut self.secondary {
            ix.map.clear();
        }
        for (pos, row) in rows.iter().enumerate() {
            if let Some(pk) = self.pk_col {
                if let Some(&Value::Int(k)) = row.get(pk) {
                    self.pk.insert(k, pos);
                }
            }
            for ix in &mut self.secondary {
                if let Some(value) = row.get(ix.col) {
                    ix.map.insert_append(value, pos as u32);
                }
            }
        }
    }

    /// Move a cell from `old` to `new` at row position `pos`.
    pub(crate) fn note_cell_update(&mut self, col: usize, old: &Value, new: &Value, pos: usize) {
        for ix in &mut self.secondary {
            if ix.col == col && old != new {
                ix.map.remove(old, pos as u32);
                ix.map.insert_sorted(new, pos as u32);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Join keys and the per-column join hash
// ---------------------------------------------------------------------

/// The canonical form of a join key. Ints and integral floats collapse
/// to the same key (SQL equality says `1 = 1.0`); non-integral floats
/// compare by bits; text joins text; NULL never joins. This is a proper
/// equivalence relation — unlike raw SQL comparison, which is not
/// transitive across int/float precision edges — and every join path
/// (hash, secondary index, pk probe) matches it exactly.
#[derive(PartialEq, Eq)]
pub(crate) enum JoinKey<'a> {
    Int(i64),
    Bits(u64),
    Text(&'a str),
}

/// Same integral-float window [`IndexMap::probe`] uses: keep the two
/// paths bit-identical.
pub(crate) fn join_canon(v: &Value) -> Option<JoinKey<'_>> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(JoinKey::Int(*i)),
        Value::Float(x) if x.fract() == 0.0 && x.abs() < 2f64.powi(63) => {
            Some(JoinKey::Int(*x as i64))
        }
        Value::Float(x) => {
            Some(JoinKey::Bits(if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() }))
        }
        Value::Text(s) => Some(JoinKey::Text(s)),
    }
}

/// Join equality: canonical keys equal, NULL never matches.
pub(crate) fn join_eq(a: &Value, b: &Value) -> bool {
    match (join_canon(a), join_canon(b)) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

/// Hash of the canonical join key — no allocation, even for text.
/// Equal keys hash equal; collisions are resolved by [`join_eq`].
pub(crate) fn join_hash(v: &Value) -> Option<u64> {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    Some(match join_canon(v)? {
        JoinKey::Int(i) => (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        JoinKey::Bits(b) => b.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15,
        JoinKey::Text(s) => {
            s.bytes().fold(FNV_OFFSET, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
        }
    })
}

/// The hash-join build side of one column: every non-NULL cell's
/// [`join_hash`] beside its row position, sorted. One flat allocation,
/// nothing per key; a probe is one binary search, and the positions
/// sharing a hash come out ascending. Hash equality only nominates
/// candidates — the caller confirms each with [`join_eq`].
pub(crate) struct JoinHash(Vec<(u64, u32)>);

impl JoinHash {
    /// Hash column `col` of `rows`.
    pub(crate) fn build(rows: &[Vec<Value>], col: usize) -> Self {
        let mut entries = Vec::with_capacity(rows.len());
        for (pos, row) in rows.iter().enumerate() {
            if let Some(h) = join_hash(&row[col]) {
                entries.push((h, pos as u32));
            }
        }
        entries.sort_unstable();
        Self(entries)
    }

    /// Row positions whose key hashes to `h`, ascending.
    pub(crate) fn probe(&self, h: u64) -> impl Iterator<Item = u32> + '_ {
        let start = self.0.partition_point(|&(k, _)| k < h);
        self.0[start..].iter().take_while(move |&&(k, _)| k == h).map(|&(_, pos)| pos)
    }

    /// Heap bytes held.
    pub(crate) fn bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<(u64, u32)>()
    }
}

impl std::fmt::Debug for JoinHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHash").field("entries", &self.0.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(1), Value::from("a"), Value::Int(10)],
            vec![Value::Int(2), Value::from("b"), Value::Int(10)],
            vec![Value::Int(3), Value::from("a"), Value::Null],
        ]
    }

    fn indexed() -> IndexSet {
        let rows = sample_rows();
        let mut set = IndexSet::new(Some(0));
        set.rebuild(&rows);
        set.create_secondary(1, false, &rows);
        set.create_secondary(2, true, &rows);
        set
    }

    #[test]
    fn backfill_and_probe() {
        let set = indexed();
        assert_eq!(set.probe_text(1, "a"), Some(&[0u32, 2][..]));
        assert_eq!(set.probe_text(1, "zzz"), Some(&[][..]));
        assert_eq!(set.probe_int(2, 10), Some(&[0u32, 1][..]));
        assert_eq!(set.probe(2, &Value::Float(10.0)), Some(&[0u32, 1][..]));
        assert_eq!(set.probe(1, &Value::Int(7)), Some(&[][..])); // type mismatch
        assert_eq!(set.probe(0, &Value::Int(1)), None); // pk col: no secondary
        assert_eq!(set.distinct(1), Some(2));
        assert_eq!(set.distinct(2), Some(1)); // NULL not indexed
    }

    #[test]
    fn append_keeps_lists_sorted() {
        let mut set = indexed();
        set.note_append(&[Value::Int(4), Value::from("a"), Value::Int(10)], 3);
        assert_eq!(set.probe_text(1, "a"), Some(&[0u32, 2, 3][..]));
        assert_eq!(set.probe_int(2, 10), Some(&[0u32, 1, 3][..]));
        assert_eq!(set.pk_lookup(4), Some(3));
    }

    #[test]
    fn truncate_prunes_tails() {
        let mut set = indexed();
        let rows = sample_rows();
        set.note_truncate(&rows[1..], 1);
        assert_eq!(set.probe_text(1, "a"), Some(&[0u32][..]));
        assert_eq!(set.probe_text(1, "b"), Some(&[][..]));
        assert_eq!(set.distinct(1), Some(1)); // emptied list dropped
        assert!(!set.contains_pk(2));
        assert!(set.contains_pk(1));
    }

    #[test]
    fn cell_update_moves_postings() {
        let mut set = indexed();
        set.note_cell_update(1, &Value::from("a"), &Value::from("b"), 0);
        assert_eq!(set.probe_text(1, "a"), Some(&[2u32][..]));
        assert_eq!(set.probe_text(1, "b"), Some(&[0u32, 1][..]));
        // NULL transitions: un-index and re-index.
        set.note_cell_update(2, &Value::Int(10), &Value::Null, 1);
        assert_eq!(set.probe_int(2, 10), Some(&[0u32][..]));
        set.note_cell_update(2, &Value::Null, &Value::Int(11), 1);
        assert_eq!(set.probe_int(2, 11), Some(&[1u32][..]));
    }

    #[test]
    fn rebuild_matches_incremental() {
        let mut incremental = indexed();
        incremental.note_append(&[Value::Int(9), Value::from("c"), Value::Int(12)], 3);
        incremental.note_cell_update(1, &Value::from("b"), &Value::from("c"), 1);

        let mut rows = sample_rows();
        rows.push(vec![Value::Int(9), Value::from("c"), Value::Int(12)]);
        rows[1][1] = Value::from("c");
        let mut rebuilt = IndexSet::new(Some(0));
        rebuilt.create_secondary(1, false, &[]);
        rebuilt.create_secondary(2, true, &[]);
        rebuilt.rebuild(&rows);

        for needle in ["a", "b", "c"] {
            assert_eq!(incremental.probe_text(1, needle), rebuilt.probe_text(1, needle));
        }
        for key in [10, 11, 12] {
            assert_eq!(incremental.probe_int(2, key), rebuilt.probe_int(2, key));
        }
    }

    #[test]
    fn create_secondary_is_idempotent() {
        let mut set = indexed();
        assert!(!set.create_secondary(1, false, &sample_rows()));
        assert_eq!(set.secondary_columns().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn join_hash_probes_canonical_keys_in_position_order() {
        let rows: Vec<Vec<Value>> =
            [Value::Float(2.0), Value::from("a"), Value::Null, Value::Int(2), Value::from("a")]
                .into_iter()
                .map(|v| vec![v])
                .collect();
        let hash = JoinHash::build(&rows, 0);
        let probe = |v: &Value| hash.probe(join_hash(v).unwrap()).collect::<Vec<_>>();
        assert_eq!(probe(&Value::Int(2)), vec![0, 3]);
        assert_eq!(probe(&Value::from("a")), vec![1, 4]);
        assert!(probe(&Value::Int(3)).is_empty());
        assert_eq!(join_hash(&Value::Null), None, "NULL is never hashed");
        assert!(hash.bytes() >= 4 * std::mem::size_of::<(u64, u32)>());
    }
}
