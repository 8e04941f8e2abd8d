//! Statement execution: DDL, inserts, and planned SELECT/UPDATE/DELETE.
//!
//! SELECT/UPDATE/DELETE go through [`crate::sql::planner`]: the planner
//! resolves names, chooses access paths and a join order, and the
//! executor here interprets the plan. Joins track *row positions*, not
//! materialized rows — values are cloned once, at projection time — and
//! hash joins key on a 64-bit hash of the borrowed join value (collision
//! buckets verified by [`join_eq`]), so the probe loop allocates nothing
//! per row.
//!
//! A planned hash join builds on whichever input has fewer rows at run
//! time, by exact count: the position tuples joined so far, or the new
//! binding's rows (ties build on the new binding). When the tuples are
//! smaller, their outer keys are hashed and the new binding's rows stream
//! past as the probe side; its pushed-down filters run only on rows whose
//! key hits. A `NEAREST(..., 10)` result joined to a 108.5k-row table
//! hashes 10 keys, not the table. [`PlanMode::ForceScan`] always builds on
//! the new binding, so the oracle checks one build side against the
//! other. Output order cannot depend on the build side: the canonical
//! declared-order sort after the joins decides it.

use std::collections::HashMap;

use crate::error::StoreError;
use crate::index::FastBuild;
use crate::schema::{ForeignKey, TableSchema};
use crate::sql::ast::*;
use crate::sql::planner::{self, Access, DmlPlan, JoinVia, PlanMode, Pred, ProjItem};
use crate::sql::relation::{self, Rel, TableFunctionProvider};
use crate::table::Table;
use crate::value::Value;
use crate::{Database, Result};

/// The result of executing a statement.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryResult {
    /// Output column names (empty for DDL/DML).
    pub columns: Vec<String>,
    /// Result rows (empty for DDL; DML reports `rows_affected`).
    pub rows: Vec<Vec<Value>>,
    /// Number of rows created by DML.
    pub rows_affected: usize,
}

impl QueryResult {
    /// An empty result (DDL success).
    pub fn empty() -> Self {
        Self::default()
    }
}

/// Execute a parsed statement with cost-based planning.
pub fn execute(db: &mut Database, stmt: &Statement) -> Result<QueryResult> {
    execute_with(db, stmt, PlanMode::Planned)
}

/// Execute a parsed statement under an explicit [`PlanMode`].
///
/// [`PlanMode::ForceScan`] is the correctness oracle: no index is
/// consulted, joins run as declared-order hash joins, and every
/// predicate is evaluated after all joins. Results are bit-identical to
/// [`PlanMode::Planned`] by contract (`tests/index_equivalence.rs`).
pub fn execute_with(db: &mut Database, stmt: &Statement, mode: PlanMode) -> Result<QueryResult> {
    execute_provided(db, stmt, mode, None)
}

/// Execute a parsed statement with a [`TableFunctionProvider`] serving
/// `FROM`/`JOIN` table-function references. Statements that reference a
/// function without a provider fail with a typed SQL error.
pub fn execute_provided(
    db: &mut Database,
    stmt: &Statement,
    mode: PlanMode,
    funcs: Option<&dyn TableFunctionProvider>,
) -> Result<QueryResult> {
    match stmt {
        Statement::CreateTable(ct) => exec_create(db, ct),
        Statement::Insert(ins) => exec_insert(db, ins),
        Statement::Select(sel) => exec_select(db, sel, mode, funcs),
        Statement::Update(upd) => exec_update(db, upd, mode),
        Statement::Delete(del) => exec_delete(db, del, mode),
        Statement::Explain(inner) => planner::explain(db, inner, mode, funcs),
    }
}

/// Execute a *read-only* statement (`SELECT` or `EXPLAIN`) against a
/// shared database reference. This is the entry point for callers that
/// hold only `&Database` — e.g. a generation-pinned serving session —
/// and is exactly what [`execute_provided`] runs for the same statement.
/// Anything that could mutate is rejected with a typed SQL error.
pub fn query_provided(
    db: &Database,
    stmt: &Statement,
    mode: PlanMode,
    funcs: Option<&dyn TableFunctionProvider>,
) -> Result<QueryResult> {
    match stmt {
        Statement::Select(sel) => exec_select(db, sel, mode, funcs),
        Statement::Explain(inner) => planner::explain(db, inner, mode, funcs),
        _ => {
            Err(StoreError::Sql("read-only execution supports only SELECT and EXPLAIN".to_owned()))
        }
    }
}

// ---------------------------------------------------------------------
// Join-key semantics
// ---------------------------------------------------------------------

/// The canonical form of a join key. Ints and integral floats collapse
/// to the same key (SQL equality says `1 = 1.0`); non-integral floats
/// compare by bits; text joins text; NULL never joins. This is a proper
/// equivalence relation — unlike raw SQL comparison, which is not
/// transitive across int/float precision edges — and every join path
/// (hash, secondary index, pk probe) matches it exactly.
#[derive(PartialEq, Eq)]
enum JoinKey<'a> {
    Int(i64),
    Bits(u64),
    Text(&'a str),
}

/// Same integral-float window the index probe uses
/// (`crate::index::IndexMap::probe`): keep the two paths bit-identical.
fn join_canon(v: &Value) -> Option<JoinKey<'_>> {
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
fn join_hash(v: &Value) -> Option<u64> {
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

// ---------------------------------------------------------------------
// Predicate evaluation
// ---------------------------------------------------------------------

/// Evaluate a pushed-down (single-binding) predicate on one table row.
fn pred_on_row(pred: &Pred, row: &[Value]) -> bool {
    match pred {
        Pred::IsNull { c, .. } => row[*c].is_null(),
        Pred::IsNotNull { c, .. } => !row[*c].is_null(),
        Pred::CmpLit { c, op, value, .. } => op.eval(&row[*c], value),
        Pred::CmpCol { lc, op, rc, .. } => op.eval(&row[*lc], &row[*rc]),
        Pred::JoinEq { lc, rc, .. } => join_eq(&row[*lc], &row[*rc]),
    }
}

/// Evaluate a residual predicate on a joined position tuple. `slot[b]`
/// maps a binding to its position within the tuple.
fn pred_on_tuple(pred: &Pred, rels: &[Rel<'_>], slot: &[usize], tuple: &[u32]) -> bool {
    let cell = |b: usize, c: usize| -> &Value { &rels[b].rows()[tuple[slot[b]] as usize][c] };
    match pred {
        Pred::IsNull { b, c } => cell(*b, *c).is_null(),
        Pred::IsNotNull { b, c } => !cell(*b, *c).is_null(),
        Pred::CmpLit { b, c, op, value } => op.eval(cell(*b, *c), value),
        Pred::CmpCol { lb, lc, op, rb, rc } => op.eval(cell(*lb, *lc), cell(*rb, *rc)),
        Pred::JoinEq { lb, lc, rb, rc } => join_eq(cell(*lb, *lc), cell(*rb, *rc)),
    }
}

// ---------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------

/// Collect the positions of rows matching a DML plan, ascending.
fn matching_positions(table: &Table, plan: &DmlPlan) -> Vec<usize> {
    let keep = |pos: usize| -> bool {
        let row = &table.rows()[pos];
        plan.filters.iter().all(|p| pred_on_row(p, row))
    };
    match &plan.access {
        Access::Scan => (0..table.len()).filter(|&p| keep(p)).collect(),
        Access::PkEq(key) => {
            table.row_position_by_pk(*key).into_iter().filter(|&p| keep(p)).collect()
        }
        Access::IndexEq { col, key } => table
            .index_probe(*col, key)
            .expect("planner only chooses existing indexes")
            .iter()
            .map(|&p| p as usize)
            .filter(|&p| keep(p))
            .collect(),
    }
}

fn exec_update(db: &mut Database, upd: &Update, mode: PlanMode) -> Result<QueryResult> {
    let schema = db.table(&upd.table)?.schema().clone();
    // Resolve and validate assignments once.
    let mut resolved = Vec::with_capacity(upd.assignments.len());
    for (column, lit) in &upd.assignments {
        let idx = schema.column_index(column).ok_or_else(|| StoreError::UnknownColumn {
            table: upd.table.clone(),
            column: column.clone(),
        })?;
        if Some(idx) == schema.primary_key {
            return Err(StoreError::Sql("cannot UPDATE a primary key column".into()));
        }
        if schema.foreign_key_on(column).is_some() {
            return Err(StoreError::Sql("UPDATE of foreign-key columns is not supported".into()));
        }
        resolved.push((idx, lit.to_value()));
    }
    let plan = planner::plan_dml(db, &upd.table, &upd.predicates, mode)?;
    let matches = matching_positions(db.table(&upd.table)?, &plan);
    if matches.is_empty() {
        // Nothing to write: a statement that changed nothing must not bump
        // the database's write version.
        return Ok(QueryResult::empty());
    }
    // Apply through the tracked bulk-update path: one precise change-log
    // record for the statement, and validate-then-apply atomicity.
    let updates: Vec<(usize, usize, Value)> = matches
        .iter()
        .flat_map(|&pos| resolved.iter().map(move |(idx, value)| (pos, *idx, value.clone())))
        .collect();
    let n = db.update_rows(&upd.table, &updates)?;
    Ok(QueryResult { rows_affected: n, ..QueryResult::default() })
}

fn exec_delete(db: &mut Database, del: &Delete, mode: PlanMode) -> Result<QueryResult> {
    let plan = planner::plan_dml(db, &del.table, &del.predicates, mode)?;
    let matches = matching_positions(db.table(&del.table)?, &plan);
    if matches.is_empty() {
        return Ok(QueryResult::empty());
    }
    // The tracked delete path enforces referential integrity (RESTRICT)
    // and records one precise change-log entry for the statement.
    let n = db.delete_rows(&del.table, &matches)?;
    Ok(QueryResult { rows_affected: n, ..QueryResult::default() })
}

fn exec_create(db: &mut Database, ct: &CreateTable) -> Result<QueryResult> {
    let mut builder = TableSchema::builder(&ct.name);
    for (name, ty) in &ct.columns {
        builder = builder.column(name, *ty);
        if ct.primary_key.as_deref() == Some(name) {
            builder = builder.primary_key_last();
        }
    }
    let mut schema = builder.build();
    for (col, ref_table, ref_col) in &ct.foreign_keys {
        schema.foreign_keys.push(ForeignKey {
            column: col.clone(),
            ref_table: ref_table.clone(),
            ref_column: ref_col.clone(),
        });
    }
    db.create_table(schema)?;
    Ok(QueryResult::empty())
}

/// Execute `INSERT INTO t [(cols)] VALUES (...), (...)` through the
/// [`crate::BulkLoader`] fast path. The whole statement is **atomic** — a
/// bad tuple anywhere inserts nothing, matching standard SQL statement
/// semantics (before PR 3, tuples preceding the bad one were stranded).
fn exec_insert(db: &mut Database, ins: &Insert) -> Result<QueryResult> {
    let mut loader = db.bulk();
    let handle = loader.table(&ins.table)?;
    let schema = loader.schema(handle);
    let width = schema.columns.len();
    let mapping: Vec<usize> = if ins.columns.is_empty() {
        (0..width).collect()
    } else {
        schema.column_indices(&ins.columns)?
    };

    for lit_row in &ins.rows {
        if lit_row.len() != mapping.len() {
            return Err(StoreError::ArityMismatch {
                table: ins.table.clone(),
                expected: mapping.len(),
                got: lit_row.len(),
            });
        }
        let mut row = vec![Value::Null; width];
        for (lit, &col) in lit_row.iter().zip(&mapping) {
            row[col] = lit.to_value();
        }
        // A violation rolls the whole statement back inside the loader;
        // surface the underlying error the way the row-by-row path did.
        loader.stage(handle, row).map_err(|err| match err {
            StoreError::BulkRow { source, .. } => *source,
            other => other,
        })?;
    }
    let affected = loader.commit()?;
    Ok(QueryResult { rows_affected: affected, ..QueryResult::default() })
}

// ---------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------

fn exec_select(
    db: &Database,
    sel: &Select,
    mode: PlanMode,
    funcs: Option<&dyn TableFunctionProvider>,
) -> Result<QueryResult> {
    // Materialize table functions once, before planning: both plan modes
    // (and EXPLAIN) see identical rows, and the planner's row estimates
    // for function bindings are exact.
    let virt = relation::materialize_functions(sel, funcs)?;
    let rels = relation::bind_rels(db, sel, &virt)?;
    let plan = planner::plan_select(sel, &rels, mode)?;

    // slot[binding] = index of that binding's position within a tuple.
    let mut slot = vec![0usize; plan.bindings.len()];
    for (k, step) in plan.steps.iter().enumerate() {
        slot[step.binding] = k;
    }

    // Joined rows as position tuples, one u32 per placed binding.
    let mut tuples: Vec<Vec<u32>> = Vec::new();
    for (k, step) in plan.steps.iter().enumerate() {
        let rel = rels[step.binding];
        let keep = |pos: u32| -> bool {
            step.filters.iter().all(|p| pred_on_row(p, &rel.rows()[pos as usize]))
        };
        match &step.join {
            None => {
                let candidates: Vec<u32> = match &step.access {
                    Access::Scan => (0..rel.len() as u32).collect(),
                    Access::PkEq(key) => {
                        rel.row_position_by_pk(*key).map(|p| p as u32).into_iter().collect()
                    }
                    Access::IndexEq { col, key } => rel
                        .index_probe(*col, key)
                        .expect("planner only chooses existing indexes")
                        .to_vec(),
                };
                tuples = candidates.into_iter().filter(|&p| keep(p)).map(|p| vec![p]).collect();
            }
            Some(join) => {
                let outer_rel = rels[join.outer];
                let outer_slot = slot[join.outer];
                let outer_key = |tuple: &[u32]| -> &Value {
                    &outer_rel.rows()[tuple[outer_slot] as usize][join.outer_col]
                };
                let mut next = Vec::new();
                match join.via {
                    JoinVia::Pk | JoinVia::Index => {
                        for tuple in &tuples {
                            let probe = outer_key(tuple);
                            // Borrow the matching positions straight from
                            // the index — no per-row key materialization.
                            let single;
                            let matches: &[u32] = if join.via == JoinVia::Pk {
                                match join_canon(probe) {
                                    Some(JoinKey::Int(key)) => match rel.row_position_by_pk(key) {
                                        Some(p) => {
                                            single = [p as u32];
                                            &single
                                        }
                                        None => &[],
                                    },
                                    _ => &[],
                                }
                            } else {
                                rel.index_probe(join.inner_col, probe)
                                    .expect("planner only chooses existing indexes")
                            };
                            for &p in matches {
                                if keep(p) {
                                    let mut t = tuple.clone();
                                    t.push(p);
                                    next.push(t);
                                }
                            }
                        }
                    }
                    JoinVia::Hash if mode == PlanMode::Planned && tuples.len() < rel.len() => {
                        // Fewer tuples than rows: build over the tuples'
                        // outer keys and stream the new binding's rows as
                        // the probe side, filtering only rows whose key
                        // hits. Buckets hold tuple indexes.
                        let mut built: HashMap<u64, Vec<u32>, FastBuild> = HashMap::default();
                        for (i, tuple) in tuples.iter().enumerate() {
                            let Some(h) = join_hash(outer_key(tuple)) else { continue };
                            built.entry(h).or_default().push(i as u32);
                        }
                        for (p, row) in rel.rows().iter().enumerate() {
                            let probe = &row[join.inner_col];
                            let Some(h) = join_hash(probe) else { continue };
                            let Some(bucket) = built.get(&h) else { continue };
                            if !keep(p as u32) {
                                continue;
                            }
                            for &i in bucket {
                                let tuple = &tuples[i as usize];
                                if join_eq(outer_key(tuple), probe) {
                                    let mut t = tuple.clone();
                                    t.push(p as u32);
                                    next.push(t);
                                }
                            }
                        }
                    }
                    JoinVia::Hash => {
                        // Build over the new binding's filtered rows,
                        // keyed by join-value hash; buckets hold position
                        // lists and are verified by join_eq on probe.
                        let mut built: HashMap<u64, Vec<u32>, FastBuild> = HashMap::default();
                        for (p, row) in rel.rows().iter().enumerate() {
                            let Some(h) = join_hash(&row[join.inner_col]) else { continue };
                            if keep(p as u32) {
                                built.entry(h).or_default().push(p as u32);
                            }
                        }
                        for tuple in &tuples {
                            let probe = outer_key(tuple);
                            let Some(h) = join_hash(probe) else { continue };
                            let Some(bucket) = built.get(&h) else { continue };
                            for &p in bucket {
                                if join_eq(probe, &rel.rows()[p as usize][join.inner_col]) {
                                    let mut t = tuple.clone();
                                    t.push(p);
                                    next.push(t);
                                }
                            }
                        }
                    }
                }
                tuples = next;
            }
        }
        debug_assert_eq!(k + 1, tuples.first().map_or(k + 1, Vec::len));
    }

    // Residual predicates (cross-binding, or everything in ForceScan).
    if !plan.residual.is_empty() {
        tuples.retain(|t| plan.residual.iter().all(|p| pred_on_tuple(p, &rels, &slot, t)));
    }

    // COUNT(*) yields one row, which LIMIT may then drop.
    if plan.count_star {
        let mut rows = vec![vec![Value::Int(tuples.len() as i64)]];
        rows.truncate(plan.limit.unwrap_or(1));
        return Ok(QueryResult { columns: plan.columns, rows, rows_affected: 0 });
    }

    // Canonical order: ascending row positions in *declared* binding
    // order — exactly the order a declared-order nested execution emits.
    // This is what makes every plan produce bit-identical output.
    let nb = plan.bindings.len();
    tuples.sort_unstable_by(|a, b| {
        for bi in 0..nb {
            match a[slot[bi]].cmp(&b[slot[bi]]) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    });

    // Materialize flattened rows (declared binding order) — the only
    // place values are cloned.
    let width: usize = rels.iter().map(|r| r.columns().len()).sum();
    let mut rows: Vec<Vec<Value>> = tuples
        .iter()
        .map(|t| {
            let mut row = Vec::with_capacity(width);
            for bi in 0..nb {
                row.extend_from_slice(&rels[bi].rows()[t[slot[bi]] as usize]);
            }
            row
        })
        .collect();

    // ORDER BY (stable: ties keep canonical row order), then LIMIT.
    if let Some((idx, desc)) = plan.order_by {
        rows.sort_by(|a, b| {
            let ord = a[idx].cmp_sql(&b[idx]);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
    }
    if let Some(n) = plan.limit {
        rows.truncate(n);
    }

    // Projection.
    let projected = rows
        .into_iter()
        .map(|row| {
            let mut out = Vec::new();
            for p in &plan.projection {
                match p {
                    ProjItem::All => out.extend(row.iter().cloned()),
                    ProjItem::Col(i) => out.push(row[*i].clone()),
                }
            }
            out
        })
        .collect();

    Ok(QueryResult { columns: plan.columns, rows: projected, rows_affected: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::{parse_statement, run_script};

    fn seeded() -> Database {
        let mut db = Database::new();
        run_script(
            &mut db,
            "CREATE TABLE genres (id INTEGER PRIMARY KEY, name TEXT);
             CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT, budget REAL);
             CREATE TABLE movie_genre (movie_id INTEGER REFERENCES movies(id),
                                       genre_id INTEGER REFERENCES genres(id));
             INSERT INTO genres VALUES (1, 'Horror'), (2, 'Comedy');
             INSERT INTO movies VALUES (1, 'Alien', 11000000.0), (2, 'Brazil', NULL),
                                       (3, 'Amelie', 10000000.0);
             INSERT INTO movie_genre VALUES (1, 1), (3, 2), (2, 2);",
        )
        .unwrap();
        db
    }

    /// Run `sql` under both plan modes and assert bit-identical results
    /// before returning the planned one.
    fn run_both(db: &mut Database, sql: &str) -> QueryResult {
        let stmt = parse_statement(sql).unwrap();
        let forced = execute_with(db, &stmt, PlanMode::ForceScan).unwrap();
        let planned = execute_with(db, &stmt, PlanMode::Planned).unwrap();
        assert_eq!(planned, forced, "plan changed results for {sql}");
        planned
    }

    #[test]
    fn where_and_order() {
        let mut db = seeded();
        let r = run_both(
            &mut db,
            "SELECT title FROM movies WHERE budget >= 10000000 ORDER BY budget DESC",
        );
        let titles: Vec<_> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert_eq!(titles, vec!["Alien", "Amelie"]);
    }

    #[test]
    fn null_filtering() {
        let mut db = seeded();
        let r = run_both(&mut db, "SELECT title FROM movies WHERE budget IS NULL");
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::from("Brazil"));
    }

    #[test]
    fn two_hop_join_through_link_table() {
        let mut db = seeded();
        let r = run_both(
            &mut db,
            "SELECT m.title FROM genres g
             JOIN movie_genre mg ON mg.genre_id = g.id
             JOIN movies m ON m.id = mg.movie_id
             WHERE g.name = 'Comedy' ORDER BY m.title",
        );
        let titles: Vec<_> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert_eq!(titles, vec!["Amelie", "Brazil"]);
    }

    #[test]
    fn wildcard_projection_includes_all_bindings() {
        let mut db = seeded();
        let r = run_both(
            &mut db,
            "SELECT * FROM movie_genre mg JOIN genres g ON mg.genre_id = g.id LIMIT 1",
        );
        assert_eq!(r.columns.len(), 4); // movie_id, genre_id, id, name
        assert!(r.columns[3].contains("name"));
    }

    #[test]
    fn limit_truncates() {
        let mut db = seeded();
        let r = run_both(&mut db, "SELECT id FROM movies ORDER BY id LIMIT 2");
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn ambiguous_column_is_error() {
        let mut db = seeded();
        let err = run_script(&mut db, "SELECT id FROM movies m JOIN genres g ON m.id = g.id")
            .unwrap_err();
        assert!(matches!(err, StoreError::Sql(msg) if msg.contains("ambiguous")));
    }

    #[test]
    fn unknown_column_is_error() {
        let mut db = seeded();
        assert!(run_script(&mut db, "SELECT nope FROM movies").is_err());
    }

    #[test]
    fn create_table_rejects_a_repeated_column() {
        let mut db = Database::new();
        let err =
            run_script(&mut db, "CREATE TABLE t (a INTEGER PRIMARY KEY, a TEXT)").unwrap_err();
        assert!(matches!(err, StoreError::DuplicateColumn { column, .. } if column == "a"));
        assert!(!db.has_table("t"));
    }

    #[test]
    fn insert_rejects_a_column_listed_twice() {
        let mut db = seeded();
        let err = run_script(&mut db, "INSERT INTO movies (id, id) VALUES (10, 11)").unwrap_err();
        assert!(matches!(err, StoreError::DuplicateColumn { column, .. } if column == "id"));
        assert_eq!(db.table("movies").unwrap().len(), 3, "nothing may be inserted");
    }

    #[test]
    fn insert_reports_rows_affected() {
        let mut db = seeded();
        let r =
            run_script(&mut db, "INSERT INTO genres VALUES (3, 'Drama'), (4, 'SciFi')").unwrap();
        assert_eq!(r.rows_affected, 2);
    }

    #[test]
    fn multi_row_insert_is_atomic() {
        let mut db = seeded();
        // Tuple 3 repeats primary key 3: the whole statement must be a no-op.
        let err =
            run_script(&mut db, "INSERT INTO genres VALUES (3, 'Drama'), (4, 'SciFi'), (3, 'Dup')")
                .unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey { .. }), "got {err:?}");
        let count = run_script(&mut db, "SELECT COUNT(*) FROM genres").unwrap();
        assert_eq!(count.rows[0][0], Value::Int(2), "partial insert must not survive");
    }

    #[test]
    fn insert_tuples_may_reference_earlier_tuples() {
        let mut db = seeded();
        // movie 50 is staged by the same statement the link row references.
        let r = run_script(
            &mut db,
            "INSERT INTO movies VALUES (50, 'Dune', 1.0); \
             INSERT INTO movie_genre VALUES (50, 1), (50, 2)",
        )
        .unwrap();
        assert_eq!(r.rows_affected, 2);
    }

    #[test]
    fn count_cannot_mix_with_columns() {
        let mut db = seeded();
        assert!(run_script(&mut db, "SELECT COUNT(*), title FROM movies").is_err());
    }

    #[test]
    fn update_rewrites_matching_rows() {
        let mut db = seeded();
        let r = run_script(&mut db, "UPDATE movies SET budget = 5.0 WHERE budget IS NULL").unwrap();
        assert_eq!(r.rows_affected, 1);
        let check =
            run_script(&mut db, "SELECT budget FROM movies WHERE title = 'Brazil'").unwrap();
        assert_eq!(check.rows[0][0], Value::Float(5.0));
    }

    #[test]
    fn update_without_where_touches_all_rows() {
        let mut db = seeded();
        let r = run_script(&mut db, "UPDATE movies SET budget = 1").unwrap();
        assert_eq!(r.rows_affected, 3);
    }

    #[test]
    fn update_rejects_pk_and_fk_columns() {
        let mut db = seeded();
        assert!(run_script(&mut db, "UPDATE movies SET id = 99").is_err());
        assert!(run_script(&mut db, "UPDATE movie_genre SET genre_id = 1").is_err());
        assert!(run_script(&mut db, "UPDATE movies SET title = 7").is_err()); // type
    }

    #[test]
    fn update_through_pk_access_path() {
        let mut db = seeded();
        let r = run_script(&mut db, "UPDATE movies SET budget = 2.5 WHERE id = 3").unwrap();
        assert_eq!(r.rows_affected, 1);
        let check = run_both(&mut db, "SELECT budget FROM movies WHERE title = 'Amelie'");
        assert_eq!(check.rows[0][0], Value::Float(2.5));
    }

    #[test]
    fn delete_removes_matching_rows_and_reindexes() {
        let mut db = seeded();
        // Movie 1 is referenced by movie_genre — clear the link first.
        run_script(&mut db, "DELETE FROM movie_genre WHERE movie_id = 1").unwrap();
        let r = run_script(&mut db, "DELETE FROM movies WHERE title = 'Alien'").unwrap();
        assert_eq!(r.rows_affected, 1);
        let count = run_script(&mut db, "SELECT COUNT(*) FROM movies").unwrap();
        assert_eq!(count.rows[0][0], Value::Int(2));
        // PK index rebuilt: inserting a fresh id-1 row works again.
        run_script(&mut db, "INSERT INTO movies VALUES (1, 'Alien Redux', 1.0)").unwrap();
    }

    #[test]
    fn delete_restricts_on_foreign_keys() {
        let mut db = seeded();
        let err = run_script(&mut db, "DELETE FROM movies WHERE id = 1").unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation { .. }));
        // The row survived.
        let count = run_script(&mut db, "SELECT COUNT(*) FROM movies").unwrap();
        assert_eq!(count.rows[0][0], Value::Int(3));
        // The RESTRICT check probed movie_genre's FK index, never scanned.
        assert_eq!(db.fk_scan_fallbacks(), 0, "RESTRICT must not scan the referencing table");
    }

    #[test]
    fn column_vs_column_where() {
        let mut db = seeded();
        let r = run_both(
            &mut db,
            "SELECT mg.movie_id FROM movie_genre mg WHERE mg.movie_id = mg.genre_id",
        );
        assert_eq!(r.rows.len(), 2); // (1,1) and (2,2)
    }

    #[test]
    fn join_keys_are_type_aware() {
        // The hash join keys on borrowed values with canonical typing:
        // integral floats join ints, text never joins numbers. Pinned
        // here because the old implementation stringified every key
        // (allocating per row, and conflating '1' with 1).
        let mut db = Database::new();
        run_script(
            &mut db,
            "CREATE TABLE a (id INTEGER PRIMARY KEY, v REAL);
             CREATE TABLE b (id INTEGER PRIMARY KEY, v REAL);
             INSERT INTO a VALUES (1, 2), (2, 2.5), (3, NULL);
             INSERT INTO b VALUES (10, 2.0), (11, 2.5), (12, NULL);",
        )
        .unwrap();
        // v is unindexed REAL → hash join. Int 2 must meet Float 2.0.
        let r = run_both(&mut db, "SELECT a.id, b.id FROM a JOIN b ON a.v = b.v ORDER BY a.id");
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::Int(10)], // 2 joins 2.0
                vec![Value::Int(2), Value::Int(11)], // 2.5 joins 2.5
            ],
            "NULLs must not join; integral floats must meet ints"
        );

        let mut db2 = Database::new();
        run_script(
            &mut db2,
            "CREATE TABLE nums (id INTEGER PRIMARY KEY, k INTEGER);
             CREATE TABLE words (id INTEGER PRIMARY KEY, k TEXT);
             INSERT INTO nums VALUES (1, 1);
             INSERT INTO words VALUES (9, '1');",
        )
        .unwrap();
        let r = run_both(&mut db2, "SELECT nums.id FROM nums JOIN words ON nums.k = words.k");
        assert!(r.rows.is_empty(), "text '1' must not join integer 1");
    }

    #[test]
    fn planned_join_order_does_not_change_output_order() {
        let mut db = seeded();
        // No ORDER BY: row order must still be the declared-order nested
        // execution order, whatever join order the planner picked.
        let r = run_both(
            &mut db,
            "SELECT m.title, g.name FROM movies m
             JOIN movie_genre mg ON mg.movie_id = m.id
             JOIN genres g ON g.id = mg.genre_id
             WHERE g.name = 'Comedy'",
        );
        let titles: Vec<_> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert_eq!(titles, vec!["Brazil", "Amelie"], "movies-declared-order: id 2 then id 3");
    }

    #[test]
    fn explain_select_golden() {
        let mut db = seeded();
        let r = run_script(
            &mut db,
            "EXPLAIN SELECT m.title FROM genres g
             JOIN movie_genre mg ON mg.genre_id = g.id
             JOIN movies m ON m.id = mg.movie_id
             WHERE g.id = 2 ORDER BY m.title",
        )
        .unwrap();
        let lines: Vec<_> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert_eq!(
            lines,
            vec![
                "SELECT",
                "  access genres g: pk lookup (id = 2) [1 of 2 rows]",
                "  join movie_genre mg: index probe (mg.genre_id = g.id) [~2 rows]",
                "  join movies m: pk probe (m.id = mg.movie_id) [~2 rows]",
                "  order by m.title",
            ]
        );
    }

    #[test]
    fn explain_scan_and_dml_golden() {
        let mut db = seeded();
        let r =
            run_script(&mut db, "EXPLAIN SELECT title FROM movies WHERE budget IS NULL").unwrap();
        let lines: Vec<_> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert_eq!(
            lines,
            vec!["SELECT", "  access movies: scan [3 rows]", "    filter movies.budget IS NULL",]
        );

        let r = run_script(&mut db, "EXPLAIN DELETE FROM movie_genre WHERE movie_id = 1").unwrap();
        let lines: Vec<_> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert_eq!(
            lines,
            vec![
                "DELETE FROM movie_genre",
                "  access movie_genre: index lookup (movie_id = 1) [1 of 3 rows]",
                "  [~1 rows match]",
            ]
        );
    }

    #[test]
    fn explain_does_not_execute() {
        let mut db = seeded();
        let v0 = db.write_version();
        run_script(&mut db, "EXPLAIN DELETE FROM movies").unwrap();
        assert_eq!(db.write_version(), v0);
        let count = run_script(&mut db, "SELECT COUNT(*) FROM movies").unwrap();
        assert_eq!(count.rows[0][0], Value::Int(3));
    }

    /// A deterministic stand-in for the serving layer's NEAREST provider:
    /// `RANKED(k)` yields rows `(id, score)` = `(k, 1/k)`, `(k-1, ...)`,
    /// ... in rank order.
    struct Ranked;
    impl crate::sql::TableFunctionProvider for Ranked {
        fn eval(&self, name: &str, args: &[Literal]) -> Result<crate::sql::VirtualRelation> {
            if !name.eq_ignore_ascii_case("ranked") {
                return Err(StoreError::Sql(format!("unknown table function `{name}`")));
            }
            let [Literal::Int(k)] = args else {
                return Err(StoreError::Sql("RANKED(k) takes one integer".into()));
            };
            Ok(crate::sql::VirtualRelation {
                label: format!("RANKED({k})"),
                columns: vec![
                    crate::schema::ColumnDef::new("id", crate::value::DataType::Int),
                    crate::schema::ColumnDef::new("score", crate::value::DataType::Float),
                ],
                rows: (0..*k)
                    .map(|i| vec![Value::Int(k - i), Value::Float(1.0 / (k - i) as f64)])
                    .collect(),
            })
        }
    }

    /// Run a function-referencing statement under both modes with the
    /// test provider, asserting bit-identical results.
    fn run_both_provided(db: &mut Database, sql: &str) -> QueryResult {
        let stmt = parse_statement(sql).unwrap();
        let forced = execute_provided(db, &stmt, PlanMode::ForceScan, Some(&Ranked)).unwrap();
        let planned = execute_provided(db, &stmt, PlanMode::Planned, Some(&Ranked)).unwrap();
        assert_eq!(planned, forced, "plan changed results for {sql}");
        planned
    }

    #[test]
    fn table_function_rows_surface_in_rank_order() {
        let mut db = seeded();
        let r = run_both_provided(&mut db, "SELECT id, score FROM RANKED(3) r");
        let ids: Vec<_> = r.rows.iter().map(|row| row[0].clone()).collect();
        assert_eq!(ids, vec![Value::Int(3), Value::Int(2), Value::Int(1)]);
    }

    #[test]
    fn table_function_joins_like_a_relation() {
        let mut db = seeded();
        let r = run_both_provided(
            &mut db,
            "SELECT m.title, r.score FROM RANKED(2) r JOIN movies m ON m.id = r.id",
        );
        // RANKED(2) = ids [2, 1]; canonical order follows the function's
        // row positions (rank order), not movie pk order.
        let titles: Vec<_> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert_eq!(titles, vec!["Brazil", "Alien"]);
        assert_eq!(r.rows[0][1], Value::Float(0.5));
        // WHERE on function columns, LIMIT, and COUNT(*) all compose.
        let r = run_both_provided(&mut db, "SELECT COUNT(*) FROM RANKED(5) r WHERE r.id >= 3");
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn hash_join_builds_on_either_side_with_identical_rows() {
        // budget is unindexed REAL and partly NULL, so both joins below
        // are hash joins. RANKED(2) (2 tuples < 8 movies) builds on the
        // tuples and probes with the movie rows; RANKED(9) (9 tuples,
        // placed first because `r.id >= 1` is estimated at a third)
        // builds on movies. ForceScan always builds on the new binding.
        // The title filter runs on the movies side in both builds.
        let mut db = seeded();
        run_script(
            &mut db,
            "INSERT INTO movies VALUES (4, 'Dune', 1.0), (5, 'Heat', 2.0), (6, 'Ran', NULL),
                                       (7, 'Up', 2), (8, 'Zelig', 1.0)",
        )
        .unwrap();
        for k in [2, 9] {
            let r = run_both_provided(
                &mut db,
                &format!(
                    "SELECT m.title, r.id FROM RANKED({k}) r JOIN movies m ON m.budget = r.id
                     WHERE r.id >= 1 AND m.title != 'Zelig'"
                ),
            );
            // Canonical order: RANKED rank order (id 2 before id 1), then
            // movie position; integral REAL budgets meet INTEGER ids.
            assert_eq!(
                r.rows,
                vec![
                    vec![Value::from("Heat"), Value::Int(2)],
                    vec![Value::from("Up"), Value::Int(2)],
                    vec![Value::from("Dune"), Value::Int(1)],
                ],
                "RANKED({k})"
            );
        }
    }

    #[test]
    fn count_star_limit_applies_to_the_count_row() {
        let mut db = seeded();
        let count = |db: &mut Database, limit: &str| {
            run_both(db, &format!("SELECT COUNT(*) FROM movie_genre {limit}")).rows
        };
        assert_eq!(count(&mut db, ""), vec![vec![Value::Int(3)]]);
        assert_eq!(count(&mut db, "LIMIT 1"), vec![vec![Value::Int(3)]]);
        assert_eq!(count(&mut db, "LIMIT 0"), Vec::<Vec<Value>>::new());
    }

    #[test]
    fn table_function_without_provider_is_typed_error() {
        let mut db = seeded();
        let stmt = parse_statement("SELECT id FROM RANKED(3) r").unwrap();
        let err = execute_with(&mut db, &stmt, PlanMode::Planned).unwrap_err();
        assert!(matches!(err, StoreError::Sql(msg) if msg.contains("provider")));
    }

    #[test]
    fn query_provided_is_read_only() {
        let db = seeded();
        let stmt = parse_statement("SELECT title FROM movies WHERE id = 1").unwrap();
        let r = query_provided(&db, &stmt, PlanMode::Planned, None).unwrap();
        assert_eq!(r.rows[0][0], Value::from("Alien"));
        let stmt = parse_statement("DELETE FROM movies").unwrap();
        let err = query_provided(&db, &stmt, PlanMode::Planned, None).unwrap_err();
        assert!(matches!(err, StoreError::Sql(msg) if msg.contains("read-only")));
    }

    #[test]
    fn explain_with_table_function_works_in_both_modes() {
        // Regression guard: EXPLAIN of a statement with a table function
        // must not panic (or error) under ForceScan. Table functions are
        // always "planned" — they materialize before planning in every
        // mode — while the relational rest of the plan obeys the mode.
        let mut db = seeded();
        let stmt = parse_statement(
            "EXPLAIN SELECT m.title, r.score FROM RANKED(2) r JOIN movies m ON m.id = r.id",
        )
        .unwrap();
        let planned = execute_provided(&mut db, &stmt, PlanMode::Planned, Some(&Ranked)).unwrap();
        let lines: Vec<_> = planned.rows.iter().map(|row| row[0].to_string()).collect();
        assert_eq!(
            lines,
            vec![
                "SELECT",
                "  access RANKED(2) r: table function [2 rows]",
                "  join movies m: pk probe (m.id = r.id) [~2 rows]",
            ]
        );
        let forced = execute_provided(&mut db, &stmt, PlanMode::ForceScan, Some(&Ranked)).unwrap();
        let lines: Vec<_> = forced.rows.iter().map(|row| row[0].to_string()).collect();
        assert_eq!(
            lines,
            vec![
                "SELECT",
                "  access RANKED(2) r: table function [2 rows]",
                "  join movies m: hash join (m.id = r.id) [~0 rows]",
            ]
        );
    }

    #[test]
    fn explain_pure_relational_obeys_force_scan_mode() {
        let mut db = seeded();
        let stmt = parse_statement("EXPLAIN SELECT title FROM movies WHERE id = 1").unwrap();
        let planned = execute_with(&mut db, &stmt, PlanMode::Planned).unwrap();
        assert!(planned.rows[1][0].to_string().contains("pk lookup"));
        let forced = execute_with(&mut db, &stmt, PlanMode::ForceScan).unwrap();
        assert!(forced.rows[1][0].to_string().contains("scan"));
    }
}
