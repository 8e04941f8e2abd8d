//! Delta-scoped problem extension: the extraction half of delta refresh.
//!
//! A full refresh re-reads every table, re-interns every text value and
//! re-extracts every relation edge — `O(database)` work for a one-row
//! insert. This module instead reads the store's bounded change log
//! ([`retro_store::Database::changes_since`]), classifies what happened
//! since the session's last converged state, and — when every change is an
//! append — extends the previous problem in place:
//!
//! * new text values are interned *after* the previous catalog's ids, so
//!   every old id (and therefore every old embedding row) stays valid,
//! * new edges are extracted by running the **same** relation-extraction
//!   code restricted to the appended row ranges
//!   ([`crate::relations::extract_relations_scoped`]); append-only history
//!   guarantees completeness, because every new edge has its scanning-side
//!   row among the appended rows (foreign keys are validated on insert, so
//!   a pre-existing row can never reference a row that did not exist yet),
//! * the *dirty set* — new value ids plus every endpoint of a fresh edge —
//!   is handed to the solver kernel's row-subset run; all other rows keep
//!   their converged vectors verbatim.
//!
//! The classification is deliberately conservative: anything the log cannot
//! prove to be an append (deletes, relational updates, table creation, log
//! overflow) falls back to a full refresh, as does a dirty set larger
//! than [`crate::IncrementalRetro::delta_max_dirty_fraction`] of the
//! catalog. See `docs/INCREMENTAL.md` for the accuracy contract (bounded
//! drift, pinned by the root `delta_refresh` suite).

use std::collections::{BTreeMap, HashMap, HashSet};

use retro_embed::EmbeddingSet;
use retro_linalg::Matrix;
use retro_store::{Database, TableChange};

use crate::api::RetroOutput;
use crate::catalog::TextValueCatalog;
use crate::problem::RetrofitProblem;
use crate::relations::extract_relations_scoped;

/// What the change log says happened since a known write version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ChangeSummary {
    /// Every recorded change is irrelevant to the text-value graph (e.g.
    /// numeric-only updates): the previous output is still exact.
    NoRelevantChange,
    /// Every relevant change is an append: `table → position of the first
    /// row appended since` (multiple appends per table are folded to the
    /// earliest start).
    Appends(BTreeMap<String, usize>),
    /// The log overflowed or recorded a change delta refresh cannot scope
    /// (delete, relational update, table creation): only a full refresh is
    /// safe.
    Full,
}

/// Classify the change log since `since` (see [`ChangeSummary`]).
pub(crate) fn classify_changes(db: &Database, since: u64) -> ChangeSummary {
    let Some(records) = db.changes_since(since) else {
        return ChangeSummary::Full;
    };
    let mut appends: BTreeMap<String, usize> = BTreeMap::new();
    let mut any = false;
    for record in records {
        match &record.change {
            TableChange::Appended { start, rows } => {
                if *rows > 0 {
                    any = true;
                    appends
                        .entry(record.table.clone())
                        .and_modify(|s| *s = (*s).min(*start))
                        .or_insert(*start);
                }
            }
            TableChange::Updated { rows, relational } => {
                if *rows > 0 && *relational {
                    return ChangeSummary::Full;
                }
            }
            TableChange::Deleted { rows } => {
                if *rows > 0 {
                    return ChangeSummary::Full;
                }
            }
            TableChange::Created => return ChangeSummary::Full,
        }
    }
    if any {
        ChangeSummary::Appends(appends)
    } else {
        ChangeSummary::NoRelevantChange
    }
}

/// A problem extended from a previous converged output plus the row subset
/// that needs re-solving. Produced by [`extract_delta`], consumed by
/// [`crate::IncrementalRetro::complete_refresh`].
#[derive(Clone, Debug)]
pub(crate) struct DeltaExtraction {
    /// The merged problem: previous ids unchanged, new values appended,
    /// fresh edges merged into the previous groups.
    pub problem: RetrofitProblem,
    /// Warm matrix: previous embeddings verbatim, `W0` rows for new ids.
    pub warm: Matrix,
    /// Ascending value ids whose neighbourhood changed (never empty unless
    /// the appends turned out to be pure duplicates).
    pub dirty: Vec<u32>,
}

/// Extend `prev`'s problem with the appended rows. Returns `None` whenever
/// the extension cannot be built safely — the caller falls back to a full
/// refresh:
///
/// * the previous output is empty or its dimensionality differs from
///   `base` (nothing sound to extend),
/// * an appended text value belongs to a category the previous catalog
///   never saw (the schema changed under us),
/// * the dirty set exceeds `max_dirty_fraction` of the merged catalog
///   (re-solving most rows anyway — the full path is simpler and exact).
pub(crate) fn extract_delta(
    db: &Database,
    base: &EmbeddingSet,
    prev: &RetroOutput,
    appends: &BTreeMap<String, usize>,
    skip_columns: &[(&str, &str)],
    skip_relations: &[&str],
    max_dirty_fraction: f32,
) -> Option<DeltaExtraction> {
    let prev_n = prev.catalog.len();
    let dim = prev.problem.dim();
    if prev_n == 0 || dim == 0 || base.dim() != dim {
        return None;
    }

    // ── 1. Intern the appended rows' text values ──────────────────────
    // First find which values are genuinely new (appends often repeat
    // existing values); only then pay for a catalog clone. Iteration
    // order — tables in name order (BTreeMap), columns in schema order,
    // rows ascending — is deterministic, which fixes the new ids.
    let mut fresh_values: Vec<(u32, String)> = Vec::new();
    let mut seen: HashSet<(u32, String)> = HashSet::new();
    for (table_name, &start) in appends {
        let Ok(table) = db.table(table_name) else { return None };
        let schema = table.schema();
        for col_idx in schema.text_columns() {
            let column = &schema.columns[col_idx].name;
            if skip_columns.iter().any(|(t, c)| *t == schema.name && *c == column.as_str()) {
                continue;
            }
            // Every text column was registered as a category at the
            // initial extraction; a missing one means the schema itself
            // changed (category ids could not stay stable).
            let cat = prev.catalog.category_id(&schema.name, column)?;
            for row in &table.rows()[start.min(table.len())..] {
                if let Some(text) = row[col_idx].as_text() {
                    if prev.catalog.lookup_in_category(cat, text).is_none()
                        && seen.insert((cat, text.to_owned()))
                    {
                        fresh_values.push((cat, text.to_owned()));
                    }
                }
            }
        }
    }
    let catalog = if fresh_values.is_empty() {
        prev.catalog.clone()
    } else {
        // `O(Δ)` copy-on-write: the extension shares the previous
        // catalog's values and appends only the fresh ones — cloning the
        // full half-million-string catalog was the single largest
        // fixed cost of a paper-scale delta refresh.
        let mut extended = prev.catalog.extend_clone();
        for (cat, text) in &fresh_values {
            extended.intern(*cat, text);
        }
        std::sync::Arc::new(extended)
    };
    let n = catalog.len();

    // ── 2. Extract the appended rows' edges with the full extractor ───
    let delta_groups = extract_relations_scoped(db, &catalog, skip_relations, Some(appends));

    // ── 3. Merge fresh edges into the previous groups ─────────────────
    let mut groups = prev.problem.groups.clone();
    let mut relation_counts = prev.problem.relation_counts.clone();
    relation_counts.resize(n, 0);
    let by_name: HashMap<String, usize> =
        groups.iter().enumerate().map(|(i, g)| (g.name.clone(), i)).collect();
    let mut dirty_mask = vec![false; n];
    for id in prev_n..n {
        dirty_mask[id] = true;
    }
    // Degree scratch shared across groups (reset via touched edges only).
    let mut fwd_deg = vec![0u32; n];
    let mut inv_deg = vec![0u32; n];

    for dgroup in delta_groups {
        match by_name.get(&dgroup.name) {
            Some(&gi) => {
                let group = &mut groups[gi];
                for &(i, j) in &group.edges {
                    fwd_deg[i as usize] += 1;
                    inv_deg[j as usize] += 1;
                }
                // `RelationGroup::new` sorted both lists, so membership is
                // one binary search per candidate edge.
                let fresh: Vec<(u32, u32)> = dgroup
                    .edges
                    .iter()
                    .copied()
                    .filter(|e| group.edges.binary_search(e).is_err())
                    .collect();
                if !fresh.is_empty() {
                    for &(i, j) in &fresh {
                        dirty_mask[i as usize] = true;
                        dirty_mask[j as usize] = true;
                        // Degree 0 → first participation in this direction:
                        // one more directed group for |Ri|.
                        if fwd_deg[i as usize] == 0 {
                            relation_counts[i as usize] += 1;
                        }
                        if inv_deg[j as usize] == 0 {
                            relation_counts[j as usize] += 1;
                        }
                        fwd_deg[i as usize] += 1;
                        inv_deg[j as usize] += 1;
                    }
                    group.edges = merge_sorted(&group.edges, &fresh);
                }
                for &(i, j) in &group.edges {
                    fwd_deg[i as usize] = 0;
                    inv_deg[j as usize] = 0;
                }
            }
            None => {
                // A group the previous extraction never produced (it was
                // empty then). Append it: every distinct endpoint is a new
                // participant.
                for &(i, j) in &dgroup.edges {
                    dirty_mask[i as usize] = true;
                    dirty_mask[j as usize] = true;
                    if fwd_deg[i as usize] == 0 {
                        relation_counts[i as usize] += 1;
                    }
                    if inv_deg[j as usize] == 0 {
                        relation_counts[j as usize] += 1;
                    }
                    fwd_deg[i as usize] += 1;
                    inv_deg[j as usize] += 1;
                }
                for &(i, j) in &dgroup.edges {
                    fwd_deg[i as usize] = 0;
                    inv_deg[j as usize] = 0;
                }
                groups.push(dgroup);
            }
        }
    }

    // Expand the dirty set by one ring: direct neighbours of every row
    // with a changed edge. When a hub gains a member it moves, and its
    // existing members' fixed points move with it — freezing them is
    // where most of the frozen-neighbour approximation error lives. One
    // ring further out the effect is second-order and safely frozen.
    // O(E) per delta; the dirty set stays O(Δ · degree).
    let first_ring = dirty_mask.clone();
    for group in &groups {
        for &(i, j) in &group.edges {
            if first_ring[i as usize] {
                dirty_mask[j as usize] = true;
            }
            if first_ring[j as usize] {
                dirty_mask[i as usize] = true;
            }
        }
    }

    let dirty: Vec<u32> = (0..n as u32).filter(|&i| dirty_mask[i as usize]).collect();
    if dirty.len() as f32 > max_dirty_fraction * n as f32 {
        return None;
    }

    // ── 4. Extend W0 / OOV / centroids without re-tokenizing the world ─
    // Extend-in-place construction (`Vec::extend_from_slice` + tail
    // `resize`), not `Matrix::zeros` + overwrite: these are the two
    // `O(n·D)` buffers of the delta path, and writing each one twice is
    // measurable at paper scale.
    let mut w0_data = Vec::with_capacity(n * dim);
    w0_data.extend_from_slice(prev.problem.w0.as_slice());
    w0_data.resize(n * dim, 0.0);
    let mut w0 = Matrix::from_vec(n, dim, w0_data);
    let mut oov = prev.problem.oov.clone();
    oov.resize(n, false);
    let mut category_centroids = prev.problem.category_centroids.clone();
    if n > prev_n {
        // The base's cached tokenizer: without it, rebuilding the
        // `O(vocabulary)` trie would be the one per-refresh cost that
        // scales with the base rather than the delta.
        let tokenizer = base.tokenizer();
        for id in prev_n..n {
            let (vec, is_oov) = tokenizer.initial_vector(base, catalog.text(id));
            w0.set_row(id, &vec);
            oov[id] = is_oov;
        }
        update_centroids(&mut category_centroids, &catalog, &w0, prev_n);
    }

    // ── 5. Warm seed: previous embeddings verbatim, W0 for new ids ────
    let mut warm_data = Vec::with_capacity(n * dim);
    warm_data.extend_from_slice(prev.embeddings.as_slice());
    warm_data.extend_from_slice(&w0.as_slice()[prev_n * dim..]);
    let warm = Matrix::from_vec(n, dim, warm_data);

    let problem = RetrofitProblem { catalog, groups, w0, oov, category_centroids, relation_counts };
    Some(DeltaExtraction { problem, warm, dirty })
}

/// Merge two sorted, deduplicated edge lists (disjoint by construction —
/// `fresh` was filtered against `old`).
fn merge_sorted(old: &[(u32, u32)], fresh: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(old.len() + fresh.len());
    let (mut a, mut b) = (0, 0);
    while a < old.len() && b < fresh.len() {
        if old[a] < fresh[b] {
            out.push(old[a]);
            a += 1;
        } else {
            out.push(fresh[b]);
            b += 1;
        }
    }
    out.extend_from_slice(&old[a..]);
    out.extend_from_slice(&fresh[b..]);
    out
}

/// Fold the new values' `W0` rows into the Eq. 5 category centroids.
/// `centroid' = (centroid · old_count + Σ new rows) / new_count` — only
/// categories that actually gained values are touched, so unaffected
/// centroids keep their previous bits.
fn update_centroids(
    centroids: &mut Matrix,
    catalog: &TextValueCatalog,
    w0: &Matrix,
    prev_n: usize,
) {
    let n = catalog.len();
    let m = centroids.rows();
    let mut old_counts = vec![0usize; m];
    for id in 0..prev_n {
        old_counts[catalog.category_of(id) as usize] += 1;
    }
    let mut added = vec![0usize; m];
    for id in prev_n..n {
        added[catalog.category_of(id) as usize] += 1;
    }
    for (c, &extra) in added.iter().enumerate() {
        if extra == 0 {
            continue;
        }
        let row = centroids.row_mut(c);
        retro_linalg::vector::scale(old_counts[c] as f32, row);
    }
    for id in prev_n..n {
        let c = catalog.category_of(id) as usize;
        let new_row = w0.row(id).to_vec();
        retro_linalg::vector::axpy(1.0, &new_row, centroids.row_mut(c));
    }
    for (c, &extra) in added.iter().enumerate() {
        if extra == 0 {
            continue;
        }
        let total = old_counts[c] + extra;
        retro_linalg::vector::scale(1.0 / total as f32, centroids.row_mut(c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Retro, RetroConfig};
    use retro_store::sql;

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

    fn db() -> Database {
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
        db
    }

    fn converged(db: &Database) -> RetroOutput {
        Retro::new(RetroConfig::default()).retrofit(db, &base()).unwrap()
    }

    #[test]
    fn classify_folds_appends_and_flags_relational_updates() {
        // Two appends to one table fold to the earliest start position.
        let mut db = db();
        let v = db.write_version();
        sql::run_script(&mut db, "INSERT INTO movies VALUES (3, 'prometheus', 2)").unwrap();
        sql::run_script(&mut db, "INSERT INTO movies VALUES (4, 'covenant', 2)").unwrap();
        match classify_changes(&db, v) {
            ChangeSummary::Appends(map) => assert_eq!(map.get("movies"), Some(&2)),
            other => panic!("expected appends, got {other:?}"),
        }
        // Reassigning a foreign key rewires the graph → full refresh.
        let v = db.write_version();
        db.update_rows("movies", &[(0, 2, retro_store::Value::Int(2))]).unwrap();
        assert_eq!(classify_changes(&db, v), ChangeSummary::Full);
    }

    #[test]
    fn classify_full_on_overflow_and_delete() {
        let mut overflowed = db();
        let v = overflowed.write_version();
        overflowed.set_change_log_capacity(1);
        sql::run_script(&mut overflowed, "INSERT INTO movies VALUES (3, 'prometheus', 2)").unwrap();
        sql::run_script(&mut overflowed, "INSERT INTO movies VALUES (4, 'covenant', 2)").unwrap();
        assert_eq!(classify_changes(&overflowed, v), ChangeSummary::Full);

        let mut db2 = db();
        let v2 = db2.write_version();
        db2.delete_rows("movies", &[1]).unwrap();
        assert_eq!(classify_changes(&db2, v2), ChangeSummary::Full);
    }

    #[test]
    fn classify_no_change_without_writes() {
        let db = db();
        assert_eq!(classify_changes(&db, db.write_version()), ChangeSummary::NoRelevantChange);
    }

    #[test]
    fn extract_delta_keeps_old_ids_and_marks_the_neighbourhood_dirty() {
        let mut db = db();
        let prev = converged(&db);
        let v = db.write_version();
        sql::run_script(&mut db, "INSERT INTO movies VALUES (3, 'prometheus', 2)").unwrap();
        let ChangeSummary::Appends(appends) = classify_changes(&db, v) else {
            panic!("expected appends");
        };
        let d = extract_delta(&db, &base(), &prev, &appends, &[], &[], 1.0).expect("delta");
        assert_eq!(d.problem.len(), 5);
        // Old ids unchanged.
        for id in 0..prev.catalog.len() {
            assert_eq!(prev.catalog.text(id), d.problem.catalog.text(id));
            assert_eq!(d.warm.row(id), prev.embeddings.row(id));
        }
        let prometheus = d.problem.catalog.lookup("movies", "title", "prometheus").unwrap() as u32;
        let ridley = d.problem.catalog.lookup("persons", "name", "ridley scott").unwrap() as u32;
        // First ring: the new value and its changed-edge neighbour. Second
        // ring: ridley's existing movie, whose fixed point moves when its
        // director does. The unrelated valerian/besson pair stays clean.
        let alien = d.problem.catalog.lookup("movies", "title", "alien").unwrap() as u32;
        assert_eq!(d.dirty, {
            let mut expect = vec![prometheus, ridley, alien];
            expect.sort_unstable();
            expect
        });
        // The fresh edge landed in the merged (sorted) group.
        let g = &d.problem.groups[0];
        assert!(g.edges.contains(&(prometheus, ridley)));
        assert!(g.edges.windows(2).all(|w| w[0] < w[1]), "merged edges stay sorted");
        // |Ri| merged: prometheus sources one directed group (the forward
        // title→name direction) → 1, like the other titles.
        assert_eq!(d.problem.relation_counts[prometheus as usize], 1);
    }

    #[test]
    fn extract_delta_duplicate_append_has_empty_dirty_set() {
        let mut db = db();
        let prev = converged(&db);
        let v = db.write_version();
        // Same title, same director: no new value, no new edge.
        sql::run_script(&mut db, "INSERT INTO movies VALUES (3, 'alien', 2)").unwrap();
        let ChangeSummary::Appends(appends) = classify_changes(&db, v) else {
            panic!("expected appends");
        };
        let d = extract_delta(&db, &base(), &prev, &appends, &[], &[], 1.0).expect("delta");
        assert!(d.dirty.is_empty());
        assert_eq!(d.problem.len(), prev.catalog.len());
    }

    #[test]
    fn extract_delta_respects_dirty_fraction() {
        let mut db = db();
        let prev = converged(&db);
        let v = db.write_version();
        sql::run_script(&mut db, "INSERT INTO movies VALUES (3, 'prometheus', 2)").unwrap();
        let ChangeSummary::Appends(appends) = classify_changes(&db, v) else {
            panic!("expected appends");
        };
        // 3 dirty of 5 (new value + neighbour + second ring) = 0.6 > 0.1
        // → refuse.
        assert!(extract_delta(&db, &base(), &prev, &appends, &[], &[], 0.1).is_none());
    }

    #[test]
    fn extended_centroids_match_a_fresh_build() {
        let mut db = db();
        let prev = converged(&db);
        let v = db.write_version();
        sql::run_script(&mut db, "INSERT INTO movies VALUES (3, 'prometheus', 2)").unwrap();
        let ChangeSummary::Appends(appends) = classify_changes(&db, v) else {
            panic!("expected appends");
        };
        let d = extract_delta(&db, &base(), &prev, &appends, &[], &[], 1.0).expect("delta");
        let fresh = RetrofitProblem::build(&db, &base(), &[], &[]);
        // Value ids differ (delta appends new ids at the end; a fresh
        // extraction interleaves them), but categories keep their ids, so
        // the per-category centroids are comparable row-by-row …
        assert_eq!(d.problem.category_centroids.rows(), fresh.category_centroids.rows());
        assert!(d.problem.category_centroids.max_abs_diff(&fresh.category_centroids) < 1e-6);
        // … and the per-value quantities are compared through the catalogs.
        for (id, cat, text) in fresh.catalog.iter() {
            let category = &fresh.catalog.categories()[cat as usize];
            let did = d
                .problem
                .catalog
                .lookup(&category.table, &category.column, text)
                .expect("value present in the merged catalog");
            assert_eq!(d.problem.relation_counts[did], fresh.relation_counts[id], "{text}");
            assert_eq!(d.problem.oov[did], fresh.oov[id], "{text}");
            for (a, b) in d.problem.w0.row(did).iter().zip(fresh.w0.row(id)) {
                assert!((a - b).abs() < 1e-6, "{text}");
            }
        }
    }
}
