//! Text-value extraction: categories and the §3.3 uniqueness rules.
//!
//! * Every text column of the database is one *category* `C`.
//! * The same string in two different columns yields **two** text values
//!   (two embeddings) — "Amélie" the person and "Amélie" the movie differ.
//! * The same string twice in one column yields **one** text value.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use retro_store::Database;

/// Word-at-a-time string hasher for the interning maps.
///
/// The default SipHash (and byte-at-a-time FNV) price long keys at roughly
/// a cycle per byte — and extraction hashes *every* cell of every text
/// column, including multi-hundred-byte overview and review bodies.
/// Folding eight bytes per multiply (FxHash-style rotate–xor–multiply)
/// cuts that by most of an order of magnitude. Determinism is free:
/// interned ids are assigned in first-occurrence row order, so the hash
/// function can never change an id, only the probe cost.
#[derive(Default)]
pub struct TextHasher(u64);

impl Hasher for TextHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut h = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let v = u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
            h = (h.rotate_left(5) ^ v).wrapping_mul(K);
        }
        let mut tail = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * i);
        }
        self.0 = (h.rotate_left(5) ^ tail).wrapping_mul(K);
    }
}

type InternMap = HashMap<String, u32, BuildHasherDefault<TextHasher>>;

/// One category = one text column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Category {
    /// Owning table.
    pub table: String,
    /// Column within the table.
    pub column: String,
}

impl Category {
    /// `table.column` label (used for graph blank nodes and diagnostics).
    pub fn label(&self) -> String {
        format!("{}.{}", self.table, self.column)
    }
}

/// The extracted text values of a database.
///
/// Ids are dense `0..len` and deterministic: tables in name order, columns
/// in schema order, values in first-occurrence row order.
///
/// A catalog is either *flat* (every value stored inline — what
/// [`TextValueCatalog::extract`] produces) or *layered*: an immutable
/// shared `base` holding ids `0..base_len` plus a small overlay for the
/// ids appended since. Layered catalogs are how delta-scoped refresh
/// extends a half-million-value catalog in `O(Δ)` instead of cloning it;
/// see [`TextValueCatalog::extend_clone`]. The base of a layered catalog
/// is always flat, so every accessor is at most two probes deep.
#[derive(Clone, Debug, Default)]
pub struct TextValueCatalog {
    /// Shared immutable prefix (ids `0..base_len`); `None` for a flat
    /// catalog. Invariant: the base itself is flat.
    base: Option<Arc<TextValueCatalog>>,
    /// Cached `base.len()` (0 when flat).
    base_len: usize,
    /// All categories, including the base's (small: one per text column).
    categories: Vec<Category>,
    /// Per overlay value (ids `base_len..`): its category id.
    value_category: Vec<u32>,
    /// Per overlay value: the text itself.
    value_text: Vec<String>,
    /// Per category: `text → value id` for overlay values only; stored
    /// ids are global. One map per category (not one map keyed by
    /// `(category, String)`) so a lookup probes with a **borrowed** `&str`
    /// — extraction probes every cell of every text column, and a
    /// per-probe key allocation was the single hottest line of the
    /// full-extraction profile. Invariant: `index.len() == categories.len()`.
    index: Vec<InternMap>,
}

impl TextValueCatalog {
    /// Extract all text values of `db`.
    ///
    /// `skip_columns` lists `(table, column)` pairs to ignore — the
    /// evaluation ablates label columns this way (e.g. training language
    /// imputation embeddings "by ignoring the original_language column").
    pub fn extract(db: &Database, skip_columns: &[(&str, &str)]) -> Self {
        let mut catalog = Self::default();
        catalog.intern_rows(db, skip_columns, None);
        catalog
    }

    /// Intern the text values of `db`'s rows: every row when `scope` is
    /// `None`, else only the tables named in the map, each from its mapped
    /// row index onward (the row scope `extract_relations_scoped` takes).
    /// A full extraction and a delta refresh both intern through here, in
    /// one order (tables by name, columns in schema order, rows
    /// ascending), which fixes the new ids. Every visited text column is
    /// registered as a category, so a column the catalog had not seen
    /// shows as a grown [`Self::category_count`].
    pub(crate) fn intern_rows(
        &mut self,
        db: &Database,
        skip_columns: &[(&str, &str)],
        scope: Option<&BTreeMap<String, usize>>,
    ) {
        for table in db.tables() {
            let start = match scope {
                None => 0,
                Some(map) => match map.get(table.name()) {
                    Some(&s) => s.min(table.len()),
                    None => continue,
                },
            };
            let schema = table.schema();
            for col_idx in schema.text_columns() {
                let column = &schema.columns[col_idx].name;
                if skip_columns.iter().any(|(t, c)| *t == schema.name && *c == column.as_str()) {
                    continue;
                }
                let cat_id = self.add_category(&schema.name, column);
                for row in &table.rows()[start..] {
                    if let Some(text) = row[col_idx].as_text() {
                        self.intern(cat_id, text);
                    }
                }
            }
        }
    }

    /// Register a category (idempotent) and return its id.
    pub fn add_category(&mut self, table: &str, column: &str) -> u32 {
        if let Some(id) = self.category_id(table, column) {
            return id;
        }
        let id = self.categories.len() as u32;
        self.categories.push(Category { table: table.to_owned(), column: column.to_owned() });
        self.index.push(InternMap::default());
        id
    }

    /// Intern a text value into a category; returns its id (existing or new).
    ///
    /// `category` must come from [`Self::add_category`] /
    /// [`Self::category_id`] — an id this catalog never issued panics.
    pub fn intern(&mut self, category: u32, text: &str) -> u32 {
        if let Some(id) = self.lookup_in_category(category, text) {
            return id as u32;
        }
        let id = (self.base_len + self.value_text.len()) as u32;
        self.value_category.push(category);
        self.value_text.push(text.to_owned());
        self.index[category as usize].insert(text.to_owned(), id);
        id
    }

    /// An `O(Δ)` clone for appending: the result shares this catalog's
    /// values instead of copying them. A flat catalog becomes the shared
    /// base of a fresh (empty-overlay) layer; a layered one keeps its
    /// base and clones only the overlay. Either way, [`Self::intern`] on
    /// the result leaves `self` untouched — exactly the copy-on-write a
    /// delta refresh needs, without paying for the hundreds of thousands
    /// of strings that did not change.
    pub fn extend_clone(self: &Arc<Self>) -> TextValueCatalog {
        match &self.base {
            Some(base) => TextValueCatalog {
                base: Some(Arc::clone(base)),
                base_len: self.base_len,
                categories: self.categories.clone(),
                value_category: self.value_category.clone(),
                value_text: self.value_text.clone(),
                index: self.index.clone(),
            },
            None => TextValueCatalog {
                base: Some(Arc::clone(self)),
                base_len: self.len(),
                categories: self.categories.clone(),
                value_category: Vec::new(),
                value_text: Vec::new(),
                index: vec![InternMap::default(); self.categories.len()],
            },
        }
    }

    /// Number of text values (embeddings to learn).
    pub fn len(&self) -> usize {
        self.base_len + self.value_text.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of categories.
    pub fn category_count(&self) -> usize {
        self.categories.len()
    }

    /// The categories in id order.
    pub fn categories(&self) -> &[Category] {
        &self.categories
    }

    /// A text value's category id.
    pub fn category_of(&self, value: usize) -> u32 {
        match value.checked_sub(self.base_len) {
            Some(local) => self.value_category[local],
            None => self.base.as_ref().expect("id below base_len").value_category[value],
        }
    }

    /// A text value's text.
    pub fn text(&self, value: usize) -> &str {
        match value.checked_sub(self.base_len) {
            Some(local) => &self.value_text[local],
            None => &self.base.as_ref().expect("id below base_len").value_text[value],
        }
    }

    /// Look up a value id by table, column and text.
    pub fn lookup(&self, table: &str, column: &str, text: &str) -> Option<usize> {
        let cat = self.category_id(table, column)?;
        self.lookup_in_category(cat, text)
    }

    /// Look up a value id within a known category. Probes with the
    /// borrowed `text` — no allocation (this runs once per cell during
    /// extraction and once per row-pair during relation extraction).
    pub fn lookup_in_category(&self, category: u32, text: &str) -> Option<usize> {
        if let Some(base) = &self.base {
            if let Some(&id) = base.index.get(category as usize).and_then(|m| m.get(text)) {
                return Some(id as usize);
            }
        }
        self.index.get(category as usize).and_then(|m| m.get(text)).map(|&id| id as usize)
    }

    /// The category id of `table.column`. A linear scan: categories number
    /// one per text column (tens, not thousands) and this runs once per
    /// column pair, so a scan beats maintaining a string-keyed side map.
    pub fn category_id(&self, table: &str, column: &str) -> Option<u32> {
        self.categories
            .iter()
            .position(|c| c.table == table && c.column == column)
            .map(|i| i as u32)
    }

    /// All value ids of one category.
    pub fn values_in_category(&self, category: u32) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.category_of(i) == category).collect()
    }

    /// Iterate `(id, category, text)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32, &str)> {
        (0..self.len()).map(move |i| (i, self.category_of(i), self.text(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retro_store::sql;

    fn db() -> Database {
        let mut db = Database::new();
        sql::run_script(
            &mut db,
            "CREATE TABLE persons (id INTEGER PRIMARY KEY, name TEXT);
             CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT, lang TEXT);
             INSERT INTO persons VALUES (1, 'Amelie'), (2, 'Luc Besson'), (3, 'Amelie');
             INSERT INTO movies VALUES (1, 'Amelie', 'fr'), (2, 'Alien', 'en'), (3, 'Brazil', 'en');",
        )
        .unwrap();
        db
    }

    #[test]
    fn categories_are_text_columns() {
        let cat = TextValueCatalog::extract(&db(), &[]);
        // movies.title, movies.lang, persons.name (tables in name order).
        assert_eq!(cat.category_count(), 3);
        let labels: Vec<_> = cat.categories().iter().map(Category::label).collect();
        assert_eq!(labels, vec!["movies.title", "movies.lang", "persons.name"]);
    }

    #[test]
    fn same_text_same_column_is_one_value() {
        let cat = TextValueCatalog::extract(&db(), &[]);
        // persons has two rows with "Amelie" but only one value.
        let persons_amelies: Vec<_> = (0..cat.len())
            .filter(|&i| cat.text(i) == "Amelie")
            .filter(|&i| {
                let c = &cat.categories()[cat.category_of(i) as usize];
                c.table == "persons"
            })
            .collect();
        assert_eq!(persons_amelies.len(), 1);
    }

    #[test]
    fn same_text_different_column_is_two_values() {
        let cat = TextValueCatalog::extract(&db(), &[]);
        let movie = cat.lookup("movies", "title", "Amelie").unwrap();
        let person = cat.lookup("persons", "name", "Amelie").unwrap();
        assert_ne!(movie, person);
    }

    #[test]
    fn counts_match_expectation() {
        let cat = TextValueCatalog::extract(&db(), &[]);
        // titles: Amelie, Alien, Brazil (3); lang: fr, en (2); names: Amelie, Luc Besson (2).
        assert_eq!(cat.len(), 7);
    }

    #[test]
    fn skip_columns_ablate_label_columns() {
        let cat = TextValueCatalog::extract(&db(), &[("movies", "lang")]);
        assert_eq!(cat.category_count(), 2);
        assert!(cat.lookup("movies", "lang", "en").is_none());
        assert_eq!(cat.len(), 5);
    }

    #[test]
    fn values_in_category_enumerates() {
        let cat = TextValueCatalog::extract(&db(), &[]);
        let lang_cat = cat.category_id("movies", "lang").unwrap();
        let vals = cat.values_in_category(lang_cat);
        let texts: Vec<_> = vals.iter().map(|&v| cat.text(v)).collect();
        assert_eq!(texts, vec!["fr", "en"]);
    }

    #[test]
    fn deterministic_across_extractions() {
        let a = TextValueCatalog::extract(&db(), &[]);
        let b = TextValueCatalog::extract(&db(), &[]);
        for i in 0..a.len() {
            assert_eq!(a.text(i), b.text(i));
            assert_eq!(a.category_of(i), b.category_of(i));
        }
    }

    #[test]
    fn extend_clone_shares_the_base_and_appends_on_top() {
        let flat = Arc::new(TextValueCatalog::extract(&db(), &[]));
        let mut layered = flat.extend_clone();
        let cat = layered.category_id("movies", "title").unwrap();
        // Existing values resolve to their base ids, not fresh ones.
        assert_eq!(
            layered.intern(cat, "Amelie") as usize,
            flat.lookup("movies", "title", "Amelie").unwrap()
        );
        let id = layered.intern(cat, "Stalker");
        assert_eq!(id as usize, flat.len());
        assert_eq!(layered.len(), flat.len() + 1);
        assert_eq!(layered.text(id as usize), "Stalker");
        assert_eq!(layered.category_of(id as usize), cat);
        assert_eq!(layered.lookup("movies", "title", "Stalker"), Some(id as usize));
        // The shared base is untouched by the append.
        assert_eq!(flat.len(), 7);
        assert!(flat.lookup("movies", "title", "Stalker").is_none());
        // Extending a layered catalog keeps the same flat base (depth ≤ 2)
        // and carries the overlay forward.
        let deeper = Arc::new(layered).extend_clone();
        assert_eq!(deeper.len(), flat.len() + 1);
        assert_eq!(deeper.text(id as usize), "Stalker");
        // `iter` walks base + overlay in one dense id order.
        let ids: Vec<usize> = deeper.iter().map(|(i, _, _)| i).collect();
        assert_eq!(ids, (0..deeper.len()).collect::<Vec<_>>());
    }
}
