//! Relation-group extraction (§3.2).
//!
//! A relation group `Er` connects the text values of a *source* column to
//! those of a *target* column. Three schema shapes produce groups:
//!
//! a) **row-wise** — two text columns of the same table, connected when
//!    their values share a row;
//! b) **PK/FK (one-to-many)** — a text column of the referencing table
//!    connected to a text column of the referenced table through the key;
//! c) **many-to-many** — text columns of two tables related through a pure
//!    link table of foreign keys.
//!
//! Groups are stored in the forward direction; solvers derive the inverted
//! group `Er̄` by transposition. Edge lists are deduplicated (the same value
//! pair related by many rows is one relation).

use std::collections::{BTreeMap, HashMap};

use retro_store::Database;

use crate::catalog::TextValueCatalog;
use crate::solver::Degrees;

/// Which schema shape produced a group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelationKind {
    /// Two text columns in one table.
    RowWise,
    /// Foreign-key hop between two tables.
    ForeignKey,
    /// Two foreign keys through a link table.
    ManyToMany,
}

/// A relation group: deduplicated directed edges between text-value ids,
/// from the source category to the target category.
#[derive(Clone, Debug)]
pub struct RelationGroup {
    /// Human-readable label, e.g. `movies.title~persons.name`; unique
    /// within one extraction (a delta refresh merges fresh edges by it).
    pub name: String,
    /// Source category id.
    pub source_category: u32,
    /// Target category id.
    pub target_category: u32,
    /// Provenance.
    pub kind: RelationKind,
    /// Deduplicated `(source value id, target value id)` pairs, sorted.
    pub edges: Vec<(u32, u32)>,
}

impl RelationGroup {
    /// Build from a raw pair list (dedups and sorts).
    pub fn new(
        name: String,
        source_category: u32,
        target_category: u32,
        kind: RelationKind,
        mut edges: Vec<(u32, u32)>,
    ) -> Self {
        edges.sort_unstable();
        edges.dedup();
        Self { name, source_category, target_category, kind, edges }
    }

    /// Number of distinct edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the group carries no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The inverted group `Er̄`.
    pub fn inverted(&self) -> RelationGroup {
        RelationGroup::new(
            format!("{}~inv", self.name),
            self.target_category,
            self.source_category,
            self.kind,
            self.edges.iter().map(|&(i, j)| (j, i)).collect(),
        )
    }
}

/// Extract all relation groups of a database against a catalog.
///
/// Columns missing from the catalog (ablated via `skip_columns` during
/// extraction) silently produce no groups, which is how the evaluation
/// removes label leakage. `skip_relations` additionally drops groups whose
/// name contains any of the given substrings (used by the link-prediction
/// task to ablate the movie–genre relation).
pub fn extract_relations(
    db: &Database,
    catalog: &TextValueCatalog,
    skip_relations: &[&str],
) -> Vec<RelationGroup> {
    extract_relations_scoped(db, catalog, skip_relations, None)
}

/// [`extract_relations`] restricted to a row scope: when `scope` is `Some`,
/// only tables named in the map are scanned, and each is scanned from its
/// mapped row index onward. The delta-refresh path uses this to extract the
/// edges contributed by freshly appended rows with the *same* code — group
/// names, edge semantics and skip handling cannot drift from the full
/// extraction, because they are the full extraction.
pub(crate) fn extract_relations_scoped(
    db: &Database,
    catalog: &TextValueCatalog,
    skip_relations: &[&str],
    scope: Option<&BTreeMap<String, usize>>,
) -> Vec<RelationGroup> {
    let mut groups = Vec::new();

    for table in db.tables() {
        let start = match scope {
            None => 0,
            Some(map) => match map.get(table.name()) {
                Some(&s) => s.min(table.len()),
                None => continue,
            },
        };
        let schema = table.schema();
        let text_cols = schema.text_columns();

        // (a) Row-wise pairs within one table (unordered pairs, forward =
        // schema order). On the full path each text column's value ids are
        // resolved once into a row-parallel cache: a column shared by
        // several pairs is hashed once, not once per pair — and long
        // columns (overviews, review bodies) are exactly the ones that
        // appear in every pair.
        let col_caches: Vec<Option<(u32, Vec<Option<u32>>)>> =
            if scope.is_none() && text_cols.len() > 1 {
                text_cols
                    .iter()
                    .map(|&c| {
                        catalog
                            .category_id(&schema.name, &schema.columns[c].name)
                            .map(|cat| (cat, value_id_cache(table, c, cat, catalog)))
                    })
                    .collect()
            } else {
                Vec::new()
            };
        for (ai, &a) in text_cols.iter().enumerate() {
            for (bo, &b) in text_cols[ai + 1..].iter().enumerate() {
                let bi = ai + 1 + bo;
                let (Some(cat_a), Some(cat_b)) = (
                    catalog.category_id(&schema.name, &schema.columns[a].name),
                    catalog.category_id(&schema.name, &schema.columns[b].name),
                ) else {
                    continue;
                };
                let mut edges = Vec::new();
                if let (Some(Some((_, ids_a))), Some(Some((_, ids_b)))) =
                    (col_caches.get(ai), col_caches.get(bi))
                {
                    for (ia, ib) in ids_a.iter().zip(ids_b) {
                        if let (Some(i), Some(j)) = (ia, ib) {
                            edges.push((*i, *j));
                        }
                    }
                } else {
                    for row in &table.rows()[start..] {
                        if let (Some(ta), Some(tb)) = (row[a].as_text(), row[b].as_text()) {
                            if let (Some(i), Some(j)) = (
                                catalog.lookup_in_category(cat_a, ta),
                                catalog.lookup_in_category(cat_b, tb),
                            ) {
                                edges.push((i as u32, j as u32));
                            }
                        }
                    }
                }
                push_group(
                    &mut groups,
                    RelationGroup::new(
                        format!(
                            "{}.{}~{}.{}",
                            schema.name,
                            schema.columns[a].name,
                            schema.name,
                            schema.columns[b].name
                        ),
                        cat_a,
                        cat_b,
                        RelationKind::RowWise,
                        edges,
                    ),
                    skip_relations,
                );
            }
        }

        if schema.is_link_table() {
            // (c) Many-to-many: all FK pairs through this link table. Two
            // pairs joining the same two tables would share a name, so
            // those name their key columns too.
            let fks = &schema.foreign_keys;
            let pairs: Vec<_> = fks
                .iter()
                .enumerate()
                .flat_map(|(fi, fk_a)| fks[fi + 1..].iter().map(move |fk_b| (fk_a, fk_b)))
                .collect();
            for &(fk_a, fk_b) in &pairs {
                let same_tables = pairs
                    .iter()
                    .filter(|(a, b)| a.ref_table == fk_a.ref_table && b.ref_table == fk_b.ref_table)
                    .count();
                let via = if same_tables > 1 {
                    format!("{}: {}, {}", schema.name, fk_a.column, fk_b.column)
                } else {
                    schema.name.clone()
                };
                extract_m2m(
                    db,
                    catalog,
                    table,
                    if scope.is_none() { None } else { Some(start) },
                    fk_a,
                    fk_b,
                    &via,
                    &mut groups,
                    skip_relations,
                );
            }
        } else {
            // (b) One-to-many: the *primary* text column here ↔ the primary
            // text column of the referenced table. Cross-table relations
            // follow the paper's Fig. 2 style (movies.name ↔ actors.name,
            // movies.name ↔ reviews.text): one representative column per
            // table, which keeps |Ri| small enough that the Eq. 12 weights
            // retain their pull.
            for fk in &schema.foreign_keys {
                let Ok(ref_table) = db.table(&fk.ref_table) else { continue };
                let ref_schema = ref_table.schema();
                let fk_col = schema.column_index(&fk.column).expect("fk validated");
                if let (Some(&a), Some(b)) =
                    (text_cols.first(), ref_schema.text_columns().first().copied())
                {
                    let (Some(cat_a), Some(cat_b)) = (
                        catalog.category_id(&schema.name, &schema.columns[a].name),
                        catalog.category_id(&ref_schema.name, &ref_schema.columns[b].name),
                    ) else {
                        continue;
                    };
                    let mut edges = Vec::new();
                    let target_ids = if scope.is_none() {
                        PkValueIds::build(ref_table, b, cat_b, catalog)
                    } else {
                        None
                    };
                    if let Some(target_ids) = target_ids {
                        // Full extraction: resolve the referenced column's
                        // value ids once per *target* row keyed by pk, then
                        // walk the referencing rows with an O(1) resolver
                        // hit — instead of re-hashing the same target
                        // string once per referencing row.
                        for row in table.rows() {
                            let Some(key) = row[fk_col].as_int() else { continue };
                            let Some(j) = target_ids.get(key) else { continue };
                            let Some(ta) = row[a].as_text() else { continue };
                            let Some(i) = catalog.lookup_in_category(cat_a, ta) else { continue };
                            edges.push((i as u32, j));
                        }
                    } else {
                        // Delta scope (O(Δ) rows scanned — a table-sized
                        // resolver would cost more than it saves) or a
                        // referenced table without a pk column.
                        for row in &table.rows()[start..] {
                            let Some(key) = row[fk_col].as_int() else { continue };
                            let Some(target_row) = ref_table.row_by_pk(key) else { continue };
                            if let (Some(ta), Some(tb)) =
                                (row[a].as_text(), target_row[b].as_text())
                            {
                                if let (Some(i), Some(j)) = (
                                    catalog.lookup_in_category(cat_a, ta),
                                    catalog.lookup_in_category(cat_b, tb),
                                ) {
                                    edges.push((i as u32, j as u32));
                                }
                            }
                        }
                    }
                    let mut name = format!(
                        "{}.{}~{}.{}",
                        schema.name,
                        schema.columns[a].name,
                        ref_schema.name,
                        ref_schema.columns[b].name
                    );
                    // Several keys into one table would share that name
                    // (a delta merges fresh edges by name): add the key
                    // column. Decided by the schema, not by which groups
                    // have edges, so every extraction names alike.
                    if schema.foreign_keys.iter().filter(|f| f.ref_table == fk.ref_table).count()
                        > 1
                    {
                        name = format!("{name} ({})", fk.column);
                    }
                    push_group(
                        &mut groups,
                        RelationGroup::new(name, cat_a, cat_b, RelationKind::ForeignKey, edges),
                        skip_relations,
                    );
                }
            }
        }
    }
    groups
}

/// `scope_start` mirrors [`extract_relations_scoped`]: `None` = full
/// extraction (cache the endpoint tables' value ids, probe the pk index),
/// `Some(start)` = delta scope (scan `O(Δ)` link rows, probe directly).
/// `via` names the link in the group name.
#[allow(clippy::too_many_arguments)]
fn extract_m2m(
    db: &Database,
    catalog: &TextValueCatalog,
    link: &retro_store::Table,
    scope_start: Option<usize>,
    fk_a: &retro_store::ForeignKey,
    fk_b: &retro_store::ForeignKey,
    via: &str,
    groups: &mut Vec<RelationGroup>,
    skip_relations: &[&str],
) {
    let (Ok(table_a), Ok(table_b)) = (db.table(&fk_a.ref_table), db.table(&fk_b.ref_table)) else {
        return;
    };
    let schema = link.schema();
    let col_a = schema.column_index(&fk_a.column).expect("fk validated");
    let col_b = schema.column_index(&fk_b.column).expect("fk validated");

    if let (Some(ta), Some(tb)) = (
        table_a.schema().text_columns().first().copied(),
        table_b.schema().text_columns().first().copied(),
    ) {
        let (Some(cat_a), Some(cat_b)) = (
            catalog.category_id(&fk_a.ref_table, &table_a.schema().columns[ta].name),
            catalog.category_id(&fk_b.ref_table, &table_b.schema().columns[tb].name),
        ) else {
            return;
        };
        let mut edges = Vec::new();
        let resolvers = if scope_start.is_none() {
            PkValueIds::build(table_a, ta, cat_a, catalog)
                .zip(PkValueIds::build(table_b, tb, cat_b, catalog))
        } else {
            None
        };
        match resolvers {
            Some((ids_a, ids_b)) => {
                // Full extraction: both endpoints get a pk-keyed value-id
                // resolver; each link row is then two O(1) resolver hits —
                // no string hashing in the link loop at all.
                for row in link.rows() {
                    let (Some(ka), Some(kb)) = (row[col_a].as_int(), row[col_b].as_int()) else {
                        continue;
                    };
                    if let (Some(i), Some(j)) = (ids_a.get(ka), ids_b.get(kb)) {
                        edges.push((i, j));
                    }
                }
            }
            None => {
                let start = scope_start.unwrap_or(0);
                for row in &link.rows()[start..] {
                    let (Some(ka), Some(kb)) = (row[col_a].as_int(), row[col_b].as_int()) else {
                        continue;
                    };
                    let (Some(row_a), Some(row_b)) = (table_a.row_by_pk(ka), table_b.row_by_pk(kb))
                    else {
                        continue;
                    };
                    if let (Some(sa), Some(sb)) = (row_a[ta].as_text(), row_b[tb].as_text()) {
                        if let (Some(i), Some(j)) = (
                            catalog.lookup_in_category(cat_a, sa),
                            catalog.lookup_in_category(cat_b, sb),
                        ) {
                            edges.push((i as u32, j as u32));
                        }
                    }
                }
            }
        }
        push_group(
            groups,
            RelationGroup::new(
                format!(
                    "{}.{}~{}.{} (via {})",
                    fk_a.ref_table,
                    table_a.schema().columns[ta].name,
                    fk_b.ref_table,
                    table_b.schema().columns[tb].name,
                    via
                ),
                cat_a,
                cat_b,
                RelationKind::ManyToMany,
                edges,
            ),
            skip_relations,
        );
    }
}

/// Row-parallel `position → value id` cache for one text column: one
/// catalog probe per stored row, `O(1)` per row afterwards. Built only on
/// the full-extraction path — a delta-scoped pass touches `O(Δ)` rows and
/// a table-sized cache would cost more than it saves.
fn value_id_cache(
    table: &retro_store::Table,
    col: usize,
    cat: u32,
    catalog: &TextValueCatalog,
) -> Vec<Option<u32>> {
    table
        .column_values(col)
        .map(|v| v.as_text().and_then(|t| catalog.lookup_in_category(cat, t)).map(|id| id as u32))
        .collect()
}

/// `pk → value id` resolver for one text column of an FK-referenced table,
/// built once per relation group on the full-extraction path.
///
/// Generated and imported datasets number their rows densely (`0..n` or
/// `1..n`), so the common case resolves a referencing row with a single
/// array index — no hashing at all in the link loop. Sparse pk ranges fall
/// back to an integer-keyed map. A missing entry means the same thing a
/// failed `row_by_pk` + text lookup chain meant before: no edge.
enum PkValueIds {
    Dense { min: i64, ids: Vec<Option<u32>> },
    Sparse(HashMap<i64, u32>),
}

impl PkValueIds {
    /// `None` when the table has no primary-key column (the caller falls
    /// back to per-row probes).
    fn build(
        table: &retro_store::Table,
        col: usize,
        cat: u32,
        catalog: &TextValueCatalog,
    ) -> Option<Self> {
        let pk_col = table.schema().primary_key?;
        let mut pairs: Vec<(i64, u32)> = Vec::with_capacity(table.len());
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        for row in table.rows() {
            let Some(pk) = row[pk_col].as_int() else { continue };
            let Some(id) = row[col].as_text().and_then(|t| catalog.lookup_in_category(cat, t))
            else {
                continue;
            };
            min = min.min(pk);
            max = max.max(pk);
            pairs.push((pk, id as u32));
        }
        if pairs.is_empty() {
            return Some(PkValueIds::Sparse(HashMap::new()));
        }
        let span = (max as i128 - min as i128) as u128 + 1;
        Some(if span <= pairs.len() as u128 * 2 {
            let mut ids = vec![None; span as usize];
            for (pk, id) in pairs {
                ids[(pk - min) as usize] = Some(id);
            }
            PkValueIds::Dense { min, ids }
        } else {
            PkValueIds::Sparse(pairs.into_iter().collect())
        })
    }

    #[inline]
    fn get(&self, pk: i64) -> Option<u32> {
        match self {
            PkValueIds::Dense { min, ids } => {
                let off = usize::try_from(pk.checked_sub(*min)?).ok()?;
                ids.get(off).copied().flatten()
            }
            PkValueIds::Sparse(map) => map.get(&pk).copied(),
        }
    }
}

fn push_group(groups: &mut Vec<RelationGroup>, group: RelationGroup, skip: &[&str]) {
    if group.is_empty() {
        return;
    }
    if skip.iter().any(|s| group.name.contains(s)) {
        return;
    }
    groups.push(group);
}

/// `|Ri|` of Eq. 12: for every text value, the number of *directed* relation
/// groups (forward and inverted counted separately) in which it has at least
/// one outgoing edge.
pub fn relation_type_counts(groups: &[RelationGroup], n_values: usize) -> Vec<u32> {
    let mut counts = vec![0u32; n_values];
    let mut deg = Degrees::new(n_values);
    for group in groups {
        deg.count(&group.edges);
        for &i in deg.sources.iter().chain(&deg.targets) {
            counts[i as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use retro_store::sql;

    /// movies(title, lang) —director_id→ persons(name); movie_genre n:m genres(name).
    fn db() -> Database {
        let mut db = Database::new();
        sql::run_script(
            &mut db,
            "CREATE TABLE persons (id INTEGER PRIMARY KEY, name TEXT);
             CREATE TABLE genres (id INTEGER PRIMARY KEY, name TEXT);
             CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT, lang TEXT,
                                  director_id INTEGER REFERENCES persons(id));
             CREATE TABLE movie_genre (movie_id INTEGER REFERENCES movies(id),
                                       genre_id INTEGER REFERENCES genres(id));
             INSERT INTO persons VALUES (1, 'Luc Besson'), (2, 'Ridley Scott');
             INSERT INTO genres VALUES (1, 'SciFi'), (2, 'Horror');
             INSERT INTO movies VALUES (1, '5th Element', 'en', 1), (2, 'Alien', 'en', 2),
                                       (3, 'Valerian', 'fr', 1);
             INSERT INTO movie_genre VALUES (1, 1), (2, 1), (2, 2), (3, 1);",
        )
        .unwrap();
        db
    }

    fn setup() -> (Database, TextValueCatalog, Vec<RelationGroup>) {
        let db = db();
        let catalog = TextValueCatalog::extract(&db, &[]);
        let groups = extract_relations(&db, &catalog, &[]);
        (db, catalog, groups)
    }

    #[test]
    fn all_three_kinds_extracted() {
        let (_, _, groups) = setup();
        assert!(groups.iter().any(|g| g.kind == RelationKind::RowWise));
        assert!(groups.iter().any(|g| g.kind == RelationKind::ForeignKey));
        assert!(groups.iter().any(|g| g.kind == RelationKind::ManyToMany));
    }

    #[test]
    fn row_wise_connects_title_and_lang() {
        let (_, catalog, groups) = setup();
        let g =
            groups.iter().find(|g| g.name == "movies.title~movies.lang").expect("row-wise group");
        let title = catalog.lookup("movies", "title", "Valerian").unwrap() as u32;
        let fr = catalog.lookup("movies", "lang", "fr").unwrap() as u32;
        assert!(g.edges.contains(&(title, fr)));
        // Two movies share 'en', edges are per value pair: 3 movies → 3 edges.
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn fk_connects_title_to_director() {
        let (_, catalog, groups) = setup();
        let g = groups.iter().find(|g| g.name == "movies.title~persons.name").expect("fk group");
        let title = catalog.lookup("movies", "title", "Alien").unwrap() as u32;
        let person = catalog.lookup("persons", "name", "Ridley Scott").unwrap() as u32;
        assert!(g.edges.contains(&(title, person)));
        assert_eq!(g.kind, RelationKind::ForeignKey);
    }

    #[test]
    fn m2m_connects_title_to_genre() {
        let (_, catalog, groups) = setup();
        let g = groups.iter().find(|g| g.kind == RelationKind::ManyToMany).expect("m2m group");
        let alien = catalog.lookup("movies", "title", "Alien").unwrap() as u32;
        let horror = catalog.lookup("genres", "name", "Horror").unwrap() as u32;
        let scifi = catalog.lookup("genres", "name", "SciFi").unwrap() as u32;
        assert!(g.edges.contains(&(alien, horror)));
        assert!(g.edges.contains(&(alien, scifi)));
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn edges_are_deduplicated() {
        let mut db = db();
        // A second SciFi link row for movie 1 must not duplicate the edge.
        sql::run_script(&mut db, "INSERT INTO movies VALUES (4, '5th Element', 'en', 1)").unwrap();
        let catalog = TextValueCatalog::extract(&db, &[]);
        let groups = extract_relations(&db, &catalog, &[]);
        let g = groups.iter().find(|g| g.name == "movies.title~persons.name").unwrap();
        let title = catalog.lookup("movies", "title", "5th Element").unwrap() as u32;
        let besson = catalog.lookup("persons", "name", "Luc Besson").unwrap() as u32;
        assert_eq!(g.edges.iter().filter(|&&e| e == (title, besson)).count(), 1);
    }

    #[test]
    fn keys_into_one_table_name_their_groups_apart() {
        let mut db = Database::new();
        sql::run_script(
            &mut db,
            "CREATE TABLE persons (id INTEGER PRIMARY KEY, name TEXT);
             CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT,
                                  director_id INTEGER REFERENCES persons(id),
                                  writer_id INTEGER REFERENCES persons(id));
             CREATE TABLE credits (movie_id INTEGER REFERENCES movies(id),
                                   cast_id INTEGER REFERENCES persons(id),
                                   crew_id INTEGER REFERENCES persons(id));
             INSERT INTO persons VALUES (1, 'Luc Besson'), (2, 'Eric Serra');
             INSERT INTO movies VALUES (1, 'Lucy', 1, 2);
             INSERT INTO credits VALUES (1, 1, 2);",
        )
        .unwrap();
        let catalog = TextValueCatalog::extract(&db, &[]);
        let names: Vec<String> =
            extract_relations(&db, &catalog, &[]).into_iter().map(|g| g.name).collect();
        assert_eq!(
            names,
            vec![
                "movies.title~persons.name (via credits: movie_id, cast_id)",
                "movies.title~persons.name (via credits: movie_id, crew_id)",
                "persons.name~persons.name (via credits)",
                "movies.title~persons.name (director_id)",
                "movies.title~persons.name (writer_id)",
            ]
        );
    }

    #[test]
    fn inverted_group_swaps_edges() {
        let (_, _, groups) = setup();
        let g = &groups[0];
        let inv = g.inverted();
        assert_eq!(inv.len(), g.len());
        for &(i, j) in &g.edges {
            assert!(inv.edges.contains(&(j, i)));
        }
        assert_eq!(inv.source_category, g.target_category);
    }

    #[test]
    fn skip_relations_ablates_by_substring() {
        let db = db();
        let catalog = TextValueCatalog::extract(&db, &[]);
        let groups = extract_relations(&db, &catalog, &["genres.name"]);
        assert!(groups.iter().all(|g| g.kind != RelationKind::ManyToMany));
    }

    #[test]
    fn relation_type_counts_count_directed_participation() {
        let (_, catalog, groups) = setup();
        let counts = relation_type_counts(&groups, catalog.len());
        // 'fr' participates only in title~lang (cross-table relations touch
        // just the primary text column, which for movies is `title`).
        let fr = catalog.lookup("movies", "lang", "fr").unwrap();
        assert_eq!(counts[fr], 1);
        // A movie title participates in title~lang (source), title~persons
        // (source), title~genres m2m (source) → 3.
        let alien = catalog.lookup("movies", "title", "Alien").unwrap();
        assert_eq!(counts[alien], 3);
    }

    #[test]
    fn group_degree_helpers() {
        let (_, catalog, groups) = setup();
        let g = groups.iter().find(|g| g.kind == RelationKind::ManyToMany).unwrap();
        let alien = catalog.lookup("movies", "title", "Alien").unwrap() as u32;
        let mut deg = Degrees::new(catalog.len());
        deg.count(&g.edges);
        assert_eq!(deg.fwd[alien as usize], 2);
        assert_eq!(deg.sources.len(), 3);
        assert_eq!(deg.targets.len(), 2);
        assert_eq!(deg.mc(), 3);
    }
}
