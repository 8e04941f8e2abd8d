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
//!   every old id (and therefore every old embedding row) stays valid, by
//!   the **same** interning pass a full extraction runs, restricted to the
//!   appended row ranges (`TextValueCatalog::intern_rows`),
//! * new edges are extracted by running the **same** relation-extraction
//!   code restricted to the appended row ranges
//!   ([`crate::relations::extract_relations_scoped`]) and merged into the
//!   previous groups by name (names are unique within one extraction);
//!   append-only history guarantees completeness, because every new edge
//!   has its scanning-side row among the appended rows (foreign keys are
//!   validated on insert, so a pre-existing row can never reference a row
//!   that did not exist yet),
//! * `W0`, the Eq. 5 centroids and `|Ri|` are extended by the **same**
//!   assembly a full build runs (`RetrofitProblem::assemble`), which
//!   tokenizes only the new ids,
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

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use retro_embed::EmbeddingSet;
use retro_linalg::Matrix;
use retro_store::{Database, TableChange};

use crate::api::RetroOutput;
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
/// [`crate::IncrementalRetro::complete_refresh`], which seeds the solve
/// with [`warm_seed`] outside the database guard.
#[derive(Clone, Debug)]
pub(crate) struct DeltaExtraction {
    /// The merged problem: previous ids unchanged, new values appended,
    /// fresh edges merged into the previous groups.
    pub problem: RetrofitProblem,
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
/// * two previous groups share a name, so fresh edges cannot be merged
///   by name,
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
    // Into an `O(Δ)` copy-on-write extension: it shares the previous
    // catalog's values and appends only the fresh ones. When the appends
    // only repeat existing values, the previous catalog is kept as is.
    let mut extended = prev.catalog.extend_clone();
    extended.intern_rows(db, skip_columns, Some(appends));
    if extended.category_count() != prev.catalog.category_count() {
        // A text column the previous extraction never saw: the schema
        // changed under us.
        return None;
    }
    let catalog =
        if extended.len() == prev_n { Arc::clone(&prev.catalog) } else { Arc::new(extended) };
    let n = catalog.len();

    // ── 2. Extract the appended rows' edges with the full extractor ───
    let delta_groups = extract_relations_scoped(db, &catalog, skip_relations, Some(appends));

    // ── 3. Merge fresh edges into the previous groups ─────────────────
    let mut groups = prev.problem.groups.clone();
    let by_name: HashMap<String, usize> =
        groups.iter().enumerate().map(|(i, g)| (g.name.clone(), i)).collect();
    if by_name.len() != groups.len() {
        // Two groups share a name (a problem persisted before names were
        // made unique): fresh edges could land in the wrong one.
        return None;
    }
    let mut dirty_mask = vec![false; n];
    dirty_mask[prev_n..].fill(true);
    for dgroup in delta_groups {
        let fresh = match by_name.get(&dgroup.name) {
            Some(&gi) => {
                let group = &mut groups[gi];
                // `RelationGroup::new` sorted both lists, so membership is
                // one binary search per candidate edge.
                let fresh: Vec<(u32, u32)> = dgroup
                    .edges
                    .iter()
                    .copied()
                    .filter(|e| group.edges.binary_search(e).is_err())
                    .collect();
                if !fresh.is_empty() {
                    group.edges = merge_sorted(&group.edges, &fresh);
                }
                fresh
            }
            None => {
                // A group the previous extraction never produced (it was
                // empty then).
                let fresh = dgroup.edges.clone();
                groups.push(dgroup);
                fresh
            }
        };
        for (i, j) in fresh {
            dirty_mask[i as usize] = true;
            dirty_mask[j as usize] = true;
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

    // ── 4. W0, OOV, centroids and |Ri| through the one assembly path ──
    let problem = RetrofitProblem::assemble(catalog, groups, base, Some(&prev.problem));

    Some(DeltaExtraction { problem, dirty })
}

/// The seed of a delta solve of `problem`, which extends `prev`'s: `prev`'s
/// embeddings verbatim, then the `W0` rows of the appended ids. It reads
/// no database, so it is built after the database guard is released.
pub(crate) fn warm_seed(prev: &RetroOutput, problem: &RetrofitProblem) -> Matrix {
    let (prev_n, n, dim) = (prev.embeddings.rows(), problem.len(), problem.dim());
    let mut warm = Vec::with_capacity(n * dim);
    warm.extend_from_slice(prev.embeddings.as_slice());
    (prev_n..n).for_each(|id| warm.extend_from_slice(problem.w0.row(id)));
    Matrix::from_vec(n, dim, warm)
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
        let warm = warm_seed(&prev, &d.problem);
        for id in 0..prev.catalog.len() {
            assert_eq!(prev.catalog.text(id), d.problem.catalog.text(id));
            assert_eq!(warm.row(id), prev.embeddings.row(id));
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
    fn extract_delta_refuses_groups_sharing_a_name() {
        // A problem whose groups share a name cannot take fresh edges by
        // name: the delta declines and the caller runs a full refresh.
        let mut db = db();
        let mut prev = converged(&db);
        let twin = prev.problem.groups[0].clone();
        prev.problem.groups.push(twin);
        let v = db.write_version();
        sql::run_script(&mut db, "INSERT INTO movies VALUES (3, 'prometheus', 2)").unwrap();
        let ChangeSummary::Appends(appends) = classify_changes(&db, v) else {
            panic!("expected appends");
        };
        assert!(extract_delta(&db, &base(), &prev, &appends, &[], &[], 1.0).is_none());
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
