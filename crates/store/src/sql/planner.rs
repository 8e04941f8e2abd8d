//! Cost-based query planning: access paths, predicate pushdown, and
//! greedy join ordering.
//!
//! The planner turns a resolved [`Select`] (or the predicate list of an
//! `UPDATE`/`DELETE`) into an explicit plan the executor interprets:
//!
//! * **Access paths** — a single-table predicate `col = literal` can be
//!   answered by the primary-key index (O(1)) or a secondary equality
//!   index ([`crate::index::IndexSet`], O(matches)) instead of a scan.
//!   Only exact-typed keys use an index (`INTEGER` literal on an
//!   `INTEGER` column, string literal on a `TEXT` column), so the index
//!   answer is bit-identical to evaluating the predicate row by row.
//! * **Predicate pushdown** — single-binding predicates run where their
//!   table's rows first appear (base access or join probe), shrinking
//!   intermediate results; cross-binding predicates stay residual.
//! * **Join ordering** — joins execute greedily from the smallest
//!   estimated binding outward along the equi-join edges, not in
//!   declared order. Statistics are exact where the engine has them
//!   (table row counts, posting-list lengths, per-index distinct
//!   counts) and fixed selectivity constants elsewhere. Ties break
//!   toward declared order, so plans are deterministic.
//!
//! Plans never change results: the executor re-orders its output tuples
//! back to declared-order row positions before projection, so every
//! plan — including [`PlanMode::ForceScan`], the brute-force oracle that
//! scans and hash-joins in declared order with no pushdown — produces
//! bit-identical rows. `tests/index_equivalence.rs` drives that contract
//! under randomized schemas, data, and queries; `EXPLAIN <stmt>` renders
//! the chosen plan as text.

use crate::error::StoreError;
use crate::sql::ast::{BinOp, ColumnRef, Expr, Operand, Select, SelectItem, Statement};
use crate::sql::executor::QueryResult;
use crate::sql::relation::{self, Rel, TableFunctionProvider};
use crate::value::{DataType, Value};
use crate::{Database, Result};

/// How [`crate::sql::execute_with`] turns a statement into a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanMode {
    /// Cost-based planning: index access paths, predicate pushdown, and
    /// greedy join ordering. What [`crate::sql::execute`] uses.
    Planned,
    /// The correctness oracle: scan every table, hash-join in declared
    /// order, evaluate every predicate after all joins. Slow and
    /// obviously correct; results must be bit-identical to `Planned`.
    ForceScan,
}

/// Default selectivity of an equality filter on an unindexed column.
const SEL_EQ_DEFAULT: f64 = 0.1;
/// Selectivity of a range comparison (`<`, `<=`, `>`, `>=`).
const SEL_RANGE: f64 = 1.0 / 3.0;
/// Assumed NULL fraction of a column (`IS NULL` keeps this much).
const SEL_IS_NULL: f64 = 0.1;
/// Selectivity of a same-table column-to-column comparison.
const SEL_COL_CMP: f64 = 0.5;

/// A predicate with every column reference resolved to
/// `(binding index, column index)`.
#[derive(Clone, Debug)]
pub(crate) enum Pred {
    /// `col IS NULL`.
    IsNull {
        /// Binding the column lives in.
        b: usize,
        /// Column index within that binding.
        c: usize,
    },
    /// `col IS NOT NULL`.
    IsNotNull {
        /// Binding / column, as above.
        b: usize,
        /// Column index within that binding.
        c: usize,
    },
    /// `col OP literal`.
    CmpLit {
        /// Binding / column of the left-hand side.
        b: usize,
        /// Column index within that binding.
        c: usize,
        /// The comparison operator.
        op: BinOp,
        /// The literal, materialized once.
        value: Value,
    },
    /// `col OP col` (possibly across bindings).
    CmpCol {
        /// Left binding.
        lb: usize,
        /// Left column.
        lc: usize,
        /// The comparison operator.
        op: BinOp,
        /// Right binding.
        rb: usize,
        /// Right column.
        rc: usize,
    },
    /// An equi-join edge demoted to a filter: the greedy order already
    /// connected both endpoints through other edges, so this condition
    /// is checked residually — with *join-key* equality semantics, the
    /// same the hash/index join paths use.
    JoinEq {
        /// Left binding.
        lb: usize,
        /// Left column.
        lc: usize,
        /// Right binding.
        rb: usize,
        /// Right column.
        rc: usize,
    },
}

impl Pred {
    /// The single binding this predicate constrains, or `None` when it
    /// spans two bindings (must stay residual).
    fn single_binding(&self) -> Option<usize> {
        match self {
            Pred::IsNull { b, .. } | Pred::IsNotNull { b, .. } | Pred::CmpLit { b, .. } => Some(*b),
            Pred::CmpCol { lb, rb, .. } if lb == rb => Some(*lb),
            Pred::CmpCol { .. } | Pred::JoinEq { .. } => None,
        }
    }
}

/// How the first step of a plan (or a DML statement) reaches its rows.
#[derive(Clone, Debug)]
pub(crate) enum Access {
    /// Walk every row.
    Scan,
    /// Primary-key lookup: zero or one row.
    PkEq(i64),
    /// Secondary-index probe: the sorted posting list of one key.
    IndexEq {
        /// The indexed column.
        col: usize,
        /// The probe key (exact-typed for the column).
        key: Value,
    },
}

/// How a join step matches the new binding against already-placed rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum JoinVia {
    /// Probe the new binding's primary-key index per outer row.
    Pk,
    /// Probe a secondary equality index per outer row.
    Index,
    /// Hash join on the new binding. A planned join into a stored table
    /// probes the table's cached join hash; a table-function binding,
    /// and every join under [`PlanMode::ForceScan`], is hashed afresh.
    Hash,
}

/// The equi-join edge a step executes.
#[derive(Clone, Debug)]
pub(crate) struct StepJoin {
    /// Already-placed binding supplying probe values.
    pub outer: usize,
    /// Column of `outer` holding the probe value.
    pub outer_col: usize,
    /// Column of the step's own binding being matched.
    pub inner_col: usize,
    /// Match strategy.
    pub via: JoinVia,
}

/// One step of a select plan: place one binding.
#[derive(Clone, Debug)]
pub(crate) struct Step {
    /// Which binding (declared index) this step places.
    pub binding: usize,
    /// Base access (first step only; join steps scan/probe per the edge).
    pub access: Access,
    /// `None` for the first step.
    pub join: Option<StepJoin>,
    /// Pushed-down single-binding predicates, applied to candidate rows.
    pub filters: Vec<Pred>,
    /// Estimated rows after this step (for EXPLAIN).
    pub est: f64,
}

/// One relation binding of a select, in declared order.
#[derive(Clone, Debug)]
pub(crate) struct BindingInfo {
    /// Underlying table name, or the function's display label.
    pub table: String,
    /// Binding name (alias or table name).
    pub name: String,
}

/// A resolved projection item.
#[derive(Clone, Debug)]
pub(crate) enum ProjItem {
    /// Every column of every binding, declared order.
    All,
    /// One column, as a flattened-row offset.
    Col(usize),
}

/// A fully planned SELECT.
#[derive(Clone, Debug)]
pub(crate) struct SelectPlan {
    /// Bindings in declared order.
    pub bindings: Vec<BindingInfo>,
    /// Execution steps (a permutation of the bindings).
    pub steps: Vec<Step>,
    /// Predicates evaluated after all joins.
    pub residual: Vec<Pred>,
    /// `(flattened column offset, descending)`.
    pub order_by: Option<(usize, bool)>,
    /// `LIMIT` row count.
    pub limit: Option<usize>,
    /// Resolved projection (empty when `count_star`).
    pub projection: Vec<ProjItem>,
    /// Output column names.
    pub columns: Vec<String>,
    /// `SELECT COUNT(*)`.
    pub count_star: bool,
}

/// A planned UPDATE/DELETE predicate evaluation (single table, so all
/// predicate bindings are 0).
#[derive(Clone, Debug)]
pub(crate) struct DmlPlan {
    /// How candidate rows are reached.
    pub access: Access,
    /// Predicates applied to each candidate (the access-consumed
    /// equality, if any, is not repeated here).
    pub filters: Vec<Pred>,
    /// Estimated matching rows (for EXPLAIN).
    pub est: f64,
}

// ---------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------

/// Column-reference resolution over the bindings visible so far.
struct Binder<'a> {
    names: Vec<String>,
    rels: Vec<Rel<'a>>,
}

impl<'a> Binder<'a> {
    /// Resolve `[t.]c` against the first `upto` bindings, with the same
    /// ambiguity / unknown-column errors the executor always raised.
    fn resolve_prefix(&self, col: &ColumnRef, upto: usize) -> Result<(usize, usize)> {
        let mut found = None;
        for (b, (name, rel)) in self.names.iter().zip(&self.rels).enumerate().take(upto) {
            if let Some(qual) = &col.table {
                if qual != name {
                    continue;
                }
            }
            if let Some(c) = rel.column_index(&col.column) {
                if found.is_some() {
                    return Err(StoreError::Sql(format!("ambiguous column `{}`", col.display())));
                }
                found = Some((b, c));
            }
        }
        found.ok_or_else(|| StoreError::Sql(format!("unknown column `{}`", col.display())))
    }

    fn resolve(&self, col: &ColumnRef) -> Result<(usize, usize)> {
        self.resolve_prefix(col, self.names.len())
    }

    fn resolve_expr(&self, expr: &Expr) -> Result<Pred> {
        Ok(match expr {
            Expr::IsNull(col) => {
                let (b, c) = self.resolve(col)?;
                Pred::IsNull { b, c }
            }
            Expr::IsNotNull(col) => {
                let (b, c) = self.resolve(col)?;
                Pred::IsNotNull { b, c }
            }
            Expr::Cmp { left, op, right } => {
                let (b, c) = self.resolve(left)?;
                match right {
                    Operand::Lit(lit) => Pred::CmpLit { b, c, op: *op, value: lit.to_value() },
                    Operand::Col(rcol) => {
                        let (rb, rc) = self.resolve(rcol)?;
                        Pred::CmpCol { lb: b, lc: c, op: *op, rb, rc }
                    }
                }
            }
        })
    }
}

/// An equi-join edge between two bindings, from a `JOIN ... ON` clause.
#[derive(Clone, Copy, Debug)]
struct Edge {
    /// `(binding, column)` endpoints; `p` is the earlier-declared side.
    p: (usize, usize),
    q: (usize, usize),
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Distinct-value count of a column, where the engine knows it exactly:
/// primary keys are unique, secondary indexes count their keys.
fn distinct(rel: Rel<'_>, col: usize) -> Option<f64> {
    if rel.primary_key() == Some(col) {
        return Some(rel.len().max(1) as f64);
    }
    rel.index_distinct(col).map(|d| d.max(1) as f64)
}

/// Fraction of rows a pushed-down filter keeps.
fn selectivity(rel: Rel<'_>, pred: &Pred) -> f64 {
    match pred {
        Pred::IsNull { .. } => SEL_IS_NULL,
        Pred::IsNotNull { .. } => 1.0 - SEL_IS_NULL,
        Pred::CmpLit { value: Value::Null, .. } => 0.0, // NULL compares false
        Pred::CmpLit { c, op: BinOp::Eq, .. } => {
            1.0 / distinct(rel, *c).unwrap_or(1.0 / SEL_EQ_DEFAULT)
        }
        Pred::CmpLit { c, op: BinOp::Ne, .. } => {
            1.0 - 1.0 / distinct(rel, *c).unwrap_or(1.0 / SEL_EQ_DEFAULT)
        }
        Pred::CmpLit { .. } => SEL_RANGE,
        Pred::CmpCol { .. } => SEL_COL_CMP,
        Pred::JoinEq { .. } => SEL_COL_CMP,
    }
}

/// Exact row count an access path yields before filters. For a table
/// function this is its materialized row count (`k` for a kNN call) —
/// the estimate is exact by construction.
fn access_rows(rel: Rel<'_>, access: &Access) -> f64 {
    match access {
        Access::Scan => rel.len() as f64,
        Access::PkEq(key) => {
            if rel.row_position_by_pk(*key).is_some() {
                1.0
            } else {
                0.0
            }
        }
        Access::IndexEq { col, key } => {
            rel.index_probe(*col, key).map_or(0.0, |list| list.len() as f64)
        }
    }
}

/// Pick the cheapest base access for `rel` given its pushed-down
/// predicates. Returns the access plus the index (into `filters`) of the
/// equality predicate the access consumes, if any.
///
/// Only *exact-typed* equalities become index lookups — an `INTEGER`
/// literal on the primary key or an indexed `INTEGER` column, a string
/// literal on an indexed `TEXT` column — so a probe answers exactly the
/// rows a scan would keep. Virtual relations have no indexes, so they
/// always scan their (already small) materialized rows.
fn choose_access(rel: Rel<'_>, filters: &[Pred]) -> (Access, Option<usize>) {
    let mut best: Option<(Access, usize, f64)> = None;
    for (i, pred) in filters.iter().enumerate() {
        let Pred::CmpLit { c, op: BinOp::Eq, value, .. } = pred else { continue };
        let exact = matches!(
            (rel.columns()[*c].ty, value),
            (DataType::Int, Value::Int(_)) | (DataType::Text, Value::Text(_))
        );
        if !exact {
            continue;
        }
        let candidate = if rel.primary_key() == Some(*c) {
            let Value::Int(key) = value else { unreachable!("exact-typed above") };
            Some(Access::PkEq(*key))
        } else if rel.has_secondary_index(*c) {
            Some(Access::IndexEq { col: *c, key: value.clone() })
        } else {
            None
        };
        if let Some(access) = candidate {
            let rows = access_rows(rel, &access);
            // Strict `<` keeps the earliest (declared-order) predicate on
            // ties, so plans are deterministic.
            if best.as_ref().is_none_or(|(_, _, r)| rows < *r) {
                best = Some((access, i, rows));
            }
        }
    }
    match best {
        Some((access, i, _)) => (access, Some(i)),
        None => (Access::Scan, None),
    }
}

// ---------------------------------------------------------------------
// SELECT planning
// ---------------------------------------------------------------------

/// Plan a SELECT over pre-bound relation sources (one [`Rel`] per
/// declared binding, from [`relation::bind_rels`]).
pub(crate) fn plan_select(sel: &Select, rels: &[Rel<'_>], mode: PlanMode) -> Result<SelectPlan> {
    // Bind FROM and JOIN sources in declared order, resolving each ON
    // clause against the prefix scope it could see (error compatibility:
    // a later binding cannot make an earlier ON ambiguous).
    let mut binder = Binder { names: Vec::new(), rels: Vec::new() };
    binder.names.push(sel.from.binding().to_owned());
    binder.rels.push(rels[0]);

    let mut edges: Vec<Edge> = Vec::new();
    for (join, rel) in sel.joins.iter().zip(&rels[1..]) {
        binder.names.push(join.table.binding().to_owned());
        binder.rels.push(*rel);
        let b = binder.names.len() - 1;
        let l = binder.resolve_prefix(&join.left, b + 1)?;
        let r = binder.resolve_prefix(&join.right, b + 1)?;
        let edge = if l.0 == b && r.0 < b {
            Edge { p: r, q: l }
        } else if r.0 == b && l.0 < b {
            Edge { p: l, q: r }
        } else {
            return Err(StoreError::Sql(
                "JOIN condition must relate the joined table to a prior table".to_owned(),
            ));
        };
        edges.push(edge);
    }

    // Resolve WHERE, ORDER BY, and the projection up front — resolution
    // errors surface whether or not any row is reached.
    let preds: Vec<Pred> =
        sel.predicates.iter().map(|e| binder.resolve_expr(e)).collect::<Result<_>>()?;

    let offsets: Vec<usize> = binder
        .rels
        .iter()
        .scan(0, |acc, r| {
            let at = *acc;
            *acc += r.columns().len();
            Some(at)
        })
        .collect();
    let flat = |(b, c): (usize, usize)| offsets[b] + c;

    let order_by = match &sel.order_by {
        Some((col, desc)) => Some((flat(binder.resolve(col)?), *desc)),
        None => None,
    };

    let mut columns = Vec::new();
    let mut projection = Vec::new();
    let mut count_star = false;
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for (name, rel) in binder.names.iter().zip(&binder.rels) {
                    for col in rel.columns() {
                        columns.push(format!("{name}.{}", col.name));
                    }
                }
                projection.push(ProjItem::All);
            }
            SelectItem::Column(c) => {
                columns.push(c.display());
                projection.push(ProjItem::Col(flat(binder.resolve(c)?)));
            }
            SelectItem::CountStar => {
                columns.push("count".to_owned());
                count_star = true;
            }
        }
    }
    if count_star && sel.items.len() != 1 {
        return Err(StoreError::Sql(
            "COUNT(*) cannot be combined with other select items".to_owned(),
        ));
    }
    if count_star {
        projection.clear();
    }

    let bindings: Vec<BindingInfo> = binder
        .names
        .iter()
        .zip(&binder.rels)
        .map(|(name, rel)| BindingInfo { table: rel.display_name().to_owned(), name: name.clone() })
        .collect();

    let (steps, residual) = match mode {
        PlanMode::ForceScan => force_scan_steps(&edges, preds),
        PlanMode::Planned => planned_steps(&binder, &edges, preds),
    };

    Ok(SelectPlan {
        bindings,
        steps,
        residual,
        order_by,
        limit: sel.limit,
        projection,
        columns,
        count_star,
    })
}

/// Declared order, scans and hash joins only, every predicate residual.
fn force_scan_steps(edges: &[Edge], preds: Vec<Pred>) -> (Vec<Step>, Vec<Pred>) {
    let mut steps =
        vec![Step { binding: 0, access: Access::Scan, join: None, filters: Vec::new(), est: 0.0 }];
    for (j, edge) in edges.iter().enumerate() {
        steps.push(Step {
            binding: j + 1,
            access: Access::Scan,
            join: Some(StepJoin {
                outer: edge.p.0,
                outer_col: edge.p.1,
                inner_col: edge.q.1,
                via: JoinVia::Hash,
            }),
            filters: Vec::new(),
            est: 0.0,
        });
    }
    (steps, preds)
}

/// Greedy cost-based ordering with pushdown and index access paths.
fn planned_steps(binder: &Binder<'_>, edges: &[Edge], preds: Vec<Pred>) -> (Vec<Step>, Vec<Pred>) {
    let n = binder.rels.len();

    // Partition predicates: single-binding ones push down to their
    // binding; cross-binding ones stay residual.
    let mut pushed: Vec<Vec<Pred>> = vec![Vec::new(); n];
    let mut residual: Vec<Pred> = Vec::new();
    for pred in preds {
        match pred.single_binding() {
            Some(b) => pushed[b].push(pred),
            None => residual.push(pred),
        }
    }

    // Estimated rows of each binding after base access and pushdown.
    let base: Vec<(Access, Option<usize>, f64)> = (0..n)
        .map(|b| {
            let rel = binder.rels[b];
            let (access, consumed) = choose_access(rel, &pushed[b]);
            let mut est = access_rows(rel, &access);
            for (i, pred) in pushed[b].iter().enumerate() {
                if Some(i) != consumed {
                    est *= selectivity(rel, pred);
                }
            }
            (access, consumed, est)
        })
        .collect();

    // Start from the smallest estimated binding (ties: declared order).
    let start = (0..n)
        .min_by(|&a, &b| base[a].2.partial_cmp(&base[b].2).expect("estimates are finite"))
        .expect("at least one binding");

    let (access, consumed, est) = base[start].clone();
    let filters: Vec<Pred> = pushed[start]
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != consumed)
        .map(|(_, p)| p.clone())
        .collect();
    let mut steps = vec![Step { binding: start, access, join: None, filters, est }];

    let mut placed = vec![false; n];
    placed[start] = true;
    let mut edge_used = vec![false; edges.len()];
    let mut cur_est = est;

    while steps.len() < n {
        // Candidates: unplaced bindings connected to the placed set.
        // Among a candidate's connecting edges, the one with the largest
        // known key-distinct count joins tightest; the others demote to
        // residual join-key checks once the candidate is placed.
        let mut best: Option<(usize, usize, f64)> = None; // (binding, edge, est_out)
        for b in 0..n {
            if placed[b] {
                continue;
            }
            let mut best_edge: Option<(usize, f64)> = None;
            for (e, edge) in edges.iter().enumerate() {
                let (this, other) = if edge.p.0 == b {
                    (edge.p, edge.q)
                } else if edge.q.0 == b {
                    (edge.q, edge.p)
                } else {
                    continue;
                };
                if !placed[other.0] {
                    continue;
                }
                let d = distinct(binder.rels[b], this.1)
                    .or_else(|| distinct(binder.rels[other.0], other.1))
                    .unwrap_or_else(|| base[b].2.max(1.0));
                let est_out = cur_est * base[b].2 / d;
                if best_edge.as_ref().is_none_or(|(_, prev)| est_out < *prev) {
                    best_edge = Some((e, est_out));
                }
            }
            if let Some((e, est_out)) = best_edge {
                if best.as_ref().is_none_or(|(_, _, prev)| est_out < *prev) {
                    best = Some((b, e, est_out));
                }
            }
        }
        let Some((b, e, est_out)) = best else {
            // Unreachable with the parser's join grammar (every join
            // connects to a prior binding), but stay total: fall back to
            // the first unplaced binding as a cross product via hash join
            // on a degenerate edge — cannot happen, so just panic loudly
            // in debug and pick declared order in release.
            debug_assert!(false, "join graph disconnected");
            break;
        };

        let rel = binder.rels[b];
        let (this, other) =
            if edges[e].p.0 == b { (edges[e].p, edges[e].q) } else { (edges[e].q, edges[e].p) };
        let via = if rel.primary_key() == Some(this.1) {
            JoinVia::Pk
        } else if rel.has_secondary_index(this.1) {
            JoinVia::Index
        } else {
            JoinVia::Hash
        };
        steps.push(Step {
            binding: b,
            access: Access::Scan,
            join: Some(StepJoin { outer: other.0, outer_col: other.1, inner_col: this.1, via }),
            filters: pushed[b].clone(),
            est: est_out,
        });
        placed[b] = true;
        edge_used[e] = true;
        cur_est = est_out;

        // Any other edge now fully inside the placed set is a residual
        // join-key equality.
        for (i, edge) in edges.iter().enumerate() {
            if !edge_used[i] && placed[edge.p.0] && placed[edge.q.0] {
                residual.push(Pred::JoinEq {
                    lb: edge.p.0,
                    lc: edge.p.1,
                    rb: edge.q.0,
                    rc: edge.q.1,
                });
                edge_used[i] = true;
            }
        }
    }
    (steps, residual)
}

// ---------------------------------------------------------------------
// DML planning
// ---------------------------------------------------------------------

/// Plan the predicate evaluation of an UPDATE/DELETE on `table`.
pub(crate) fn plan_dml(
    db: &Database,
    table_name: &str,
    predicates: &[Expr],
    mode: PlanMode,
) -> Result<DmlPlan> {
    let table = db.table(table_name)?;
    let rel = Rel::Stored(table);
    // DML column references resolve against the one target table; a
    // mismatched qualifier is an unknown column of that qualifier, the
    // error the row-at-a-time evaluator always raised.
    let resolve = |col: &ColumnRef| -> Result<(usize, usize)> {
        if let Some(qual) = &col.table {
            if qual != &table.schema().name {
                return Err(StoreError::UnknownColumn {
                    table: qual.clone(),
                    column: col.column.clone(),
                });
            }
        }
        let c =
            table.schema().column_index(&col.column).ok_or_else(|| StoreError::UnknownColumn {
                table: table.schema().name.clone(),
                column: col.column.clone(),
            })?;
        Ok((0, c))
    };
    let mut preds = Vec::with_capacity(predicates.len());
    for expr in predicates {
        preds.push(match expr {
            Expr::IsNull(col) => Pred::IsNull { b: 0, c: resolve(col)?.1 },
            Expr::IsNotNull(col) => Pred::IsNotNull { b: 0, c: resolve(col)?.1 },
            Expr::Cmp { left, op, right } => {
                let (_, c) = resolve(left)?;
                match right {
                    Operand::Lit(lit) => Pred::CmpLit { b: 0, c, op: *op, value: lit.to_value() },
                    Operand::Col(rcol) => {
                        let (_, rc) = resolve(rcol)?;
                        Pred::CmpCol { lb: 0, lc: c, op: *op, rb: 0, rc }
                    }
                }
            }
        });
    }

    let (access, consumed) = match mode {
        PlanMode::ForceScan => (Access::Scan, None),
        PlanMode::Planned => choose_access(rel, &preds),
    };
    let mut est = access_rows(rel, &access);
    let filters: Vec<Pred> = preds
        .into_iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != consumed)
        .map(|(_, p)| p)
        .collect();
    for pred in &filters {
        est *= selectivity(rel, pred);
    }
    Ok(DmlPlan { access, filters, est })
}

// ---------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------

/// Render the plan of `stmt` as one text row per plan line.
///
/// The relational parts of the plan obey `mode` (`EXPLAIN` under
/// [`PlanMode::ForceScan`] shows the oracle's scans and hash joins).
/// Table functions are *always* "planned": they materialize before
/// planning regardless of mode, so their access line renders as a
/// `table function` source with its exact row count in either mode.
pub(crate) fn explain(
    db: &Database,
    stmt: &Statement,
    mode: PlanMode,
    provider: Option<&dyn TableFunctionProvider>,
) -> Result<QueryResult> {
    let mut lines = Vec::new();
    match stmt {
        Statement::Select(sel) => {
            let virt = relation::materialize_functions(sel, provider)?;
            let rels = relation::bind_rels(db, sel, &virt)?;
            let plan = plan_select(sel, &rels, mode)?;
            lines.push("SELECT".to_owned());
            render_select(sel, &plan, &rels, &mut lines);
        }
        Statement::Update(upd) => {
            let plan = plan_dml(db, &upd.table, &upd.predicates, mode)?;
            lines.push(format!("UPDATE {}", upd.table));
            render_dml(db, &upd.table, &plan, &mut lines)?;
        }
        Statement::Delete(del) => {
            let plan = plan_dml(db, &del.table, &del.predicates, mode)?;
            lines.push(format!("DELETE FROM {}", del.table));
            render_dml(db, &del.table, &plan, &mut lines)?;
        }
        _ => {
            return Err(StoreError::Sql(
                "EXPLAIN supports SELECT, UPDATE, and DELETE statements".to_owned(),
            ))
        }
    }
    Ok(QueryResult {
        columns: vec!["plan".to_owned()],
        rows: lines.into_iter().map(|l| vec![Value::Text(l)]).collect(),
        rows_affected: 0,
    })
}

fn fmt_lit(v: &Value) -> String {
    match v {
        Value::Text(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

fn fmt_est(est: f64) -> u64 {
    est.ceil().max(0.0) as u64
}

fn fmt_op(op: BinOp) -> &'static str {
    match op {
        BinOp::Eq => "=",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
    }
}

/// `binding.column` display for a resolved column.
fn fmt_col(bindings: &[BindingInfo], rels: &[Rel<'_>], b: usize, c: usize) -> String {
    format!("{}.{}", bindings[b].name, rels[b].columns()[c].name)
}

fn fmt_pred(bindings: &[BindingInfo], rels: &[Rel<'_>], pred: &Pred) -> String {
    match pred {
        Pred::IsNull { b, c } => format!("{} IS NULL", fmt_col(bindings, rels, *b, *c)),
        Pred::IsNotNull { b, c } => format!("{} IS NOT NULL", fmt_col(bindings, rels, *b, *c)),
        Pred::CmpLit { b, c, op, value } => {
            format!("{} {} {}", fmt_col(bindings, rels, *b, *c), fmt_op(*op), fmt_lit(value))
        }
        Pred::CmpCol { lb, lc, op, rb, rc } => format!(
            "{} {} {}",
            fmt_col(bindings, rels, *lb, *lc),
            fmt_op(*op),
            fmt_col(bindings, rels, *rb, *rc)
        ),
        Pred::JoinEq { lb, lc, rb, rc } => format!(
            "{} = {} (join key)",
            fmt_col(bindings, rels, *lb, *lc),
            fmt_col(bindings, rels, *rb, *rc)
        ),
    }
}

fn fmt_binding(binding: &BindingInfo) -> String {
    if binding.name == binding.table {
        binding.table.clone()
    } else {
        format!("{} {}", binding.table, binding.name)
    }
}

fn fmt_access(binding: &BindingInfo, rel: Rel<'_>, access: &Access) -> String {
    let total = rel.len();
    let shown = fmt_binding(binding);
    // A table function materializes before planning in every mode — its
    // access line never claims a scan/index choice was made.
    if rel.is_virtual() {
        return format!("access {shown}: table function [{total} rows]");
    }
    match access {
        Access::Scan => format!("access {shown}: scan [{total} rows]"),
        Access::PkEq(key) => {
            let pk = rel.primary_key().expect("pk access on pk table");
            let hits = usize::from(rel.row_position_by_pk(*key).is_some());
            format!(
                "access {shown}: pk lookup ({} = {key}) [{hits} of {total} rows]",
                rel.columns()[pk].name
            )
        }
        Access::IndexEq { col, key } => {
            let hits = rel.index_probe(*col, key).map_or(0, <[u32]>::len);
            format!(
                "access {shown}: index lookup ({} = {}) [{hits} of {total} rows]",
                rel.columns()[*col].name,
                fmt_lit(key)
            )
        }
    }
}

fn render_select(sel: &Select, plan: &SelectPlan, rels: &[Rel<'_>], lines: &mut Vec<String>) {
    for step in &plan.steps {
        let binding = &plan.bindings[step.binding];
        let rel = rels[step.binding];
        match &step.join {
            None => lines.push(format!("  {}", fmt_access(binding, rel, &step.access))),
            Some(join) => {
                let strategy = match join.via {
                    JoinVia::Pk => "pk probe",
                    JoinVia::Index => "index probe",
                    JoinVia::Hash => "hash join",
                };
                let shown = fmt_binding(binding);
                let source = if rel.is_virtual() { " (table function)" } else { "" };
                lines.push(format!(
                    "  join {shown}: {strategy}{source} ({} = {}) [~{} rows]",
                    fmt_col(&plan.bindings, rels, step.binding, join.inner_col),
                    fmt_col(&plan.bindings, rels, join.outer, join.outer_col),
                    fmt_est(step.est)
                ));
            }
        }
        for pred in &step.filters {
            lines.push(format!("    filter {}", fmt_pred(&plan.bindings, rels, pred)));
        }
    }
    for pred in &plan.residual {
        lines.push(format!("  residual {}", fmt_pred(&plan.bindings, rels, pred)));
    }
    if let Some((col, desc)) = &sel.order_by {
        lines.push(format!("  order by {}{}", col.display(), if *desc { " desc" } else { "" }));
    }
    if let Some(n) = plan.limit {
        lines.push(format!("  limit {n}"));
    }
}

fn render_dml(
    db: &Database,
    table_name: &str,
    plan: &DmlPlan,
    lines: &mut Vec<String>,
) -> Result<()> {
    let rel = Rel::Stored(db.table(table_name)?);
    let binding = BindingInfo { table: table_name.to_owned(), name: table_name.to_owned() };
    lines.push(format!("  {}", fmt_access(&binding, rel, &plan.access)));
    let bindings = [binding];
    let rels = [rel];
    for pred in &plan.filters {
        lines.push(format!("    filter {}", fmt_pred(&bindings, &rels, pred)));
    }
    lines.push(format!("  [~{} rows match]", fmt_est(plan.est)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;

    fn two_tables() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("parents").pk("id").column("name", DataType::Text).build(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("kids").pk("id").fk("parent_id", "parents", "id").build(),
        )
        .unwrap();
        for i in 0..10 {
            db.insert("parents", vec![Value::Int(i), Value::from(format!("p{i}"))]).unwrap();
        }
        for i in 0..30 {
            db.insert("kids", vec![Value::Int(i), Value::Int(i % 10)]).unwrap();
        }
        db
    }

    fn parse_select(sql: &str) -> Select {
        match crate::sql::parse_statement(sql).unwrap() {
            Statement::Select(sel) => sel,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    /// Bind and plan a provider-free SELECT (the pre-table-function path).
    fn plan_stored(db: &Database, sel: &Select, mode: PlanMode) -> SelectPlan {
        let virt = relation::materialize_functions(sel, None).unwrap();
        let rels = relation::bind_rels(db, sel, &virt).unwrap();
        plan_select(sel, &rels, mode).unwrap()
    }

    #[test]
    fn pk_equality_chooses_pk_access() {
        let db = two_tables();
        let plan = plan_stored(
            &db,
            &parse_select("SELECT name FROM parents WHERE id = 3"),
            PlanMode::Planned,
        );
        assert!(matches!(plan.steps[0].access, Access::PkEq(3)));
        assert!(plan.steps[0].filters.is_empty(), "the equality is consumed by the access");
    }

    #[test]
    fn fk_equality_chooses_index_access() {
        let db = two_tables();
        let plan = plan_stored(
            &db,
            &parse_select("SELECT id FROM kids WHERE parent_id = 2"),
            PlanMode::Planned,
        );
        assert!(matches!(plan.steps[0].access, Access::IndexEq { .. }));
    }

    #[test]
    fn float_literal_on_int_column_scans() {
        // 2.0 equals 2 under SQL comparison but is not an exact-typed
        // key; the planner must not risk an index/scan divergence.
        let db = two_tables();
        let plan = plan_stored(
            &db,
            &parse_select("SELECT id FROM kids WHERE parent_id = 2.0"),
            PlanMode::Planned,
        );
        assert!(matches!(plan.steps[0].access, Access::Scan));
        assert_eq!(plan.steps[0].filters.len(), 1);
    }

    #[test]
    fn join_ordering_starts_from_filtered_binding() {
        let db = two_tables();
        // parents filtered to ~1 row by pk; the join should start there
        // even though kids is declared first.
        let plan = plan_stored(
            &db,
            &parse_select(
                "SELECT k.id FROM kids k JOIN parents p ON k.parent_id = p.id WHERE p.id = 3",
            ),
            PlanMode::Planned,
        );
        assert_eq!(plan.steps[0].binding, 1, "start from the pk-filtered parents binding");
        let join = plan.steps[1].join.as_ref().unwrap();
        assert_eq!(join.via, JoinVia::Index, "kids.parent_id is FK-indexed");
    }

    #[test]
    fn force_scan_uses_declared_order_and_no_pushdown() {
        let db = two_tables();
        let plan = plan_stored(
            &db,
            &parse_select(
                "SELECT k.id FROM kids k JOIN parents p ON k.parent_id = p.id WHERE p.id = 3",
            ),
            PlanMode::ForceScan,
        );
        assert_eq!(plan.steps[0].binding, 0);
        assert!(matches!(plan.steps[0].access, Access::Scan));
        assert_eq!(plan.steps[1].join.as_ref().unwrap().via, JoinVia::Hash);
        assert_eq!(plan.residual.len(), 1, "the WHERE predicate stays residual");
        assert!(plan.steps.iter().all(|s| s.filters.is_empty()));
    }

    #[test]
    fn dml_plan_uses_pk_access() {
        let db = two_tables();
        let stmt = crate::sql::parse_statement("DELETE FROM parents WHERE id = 3").unwrap();
        let Statement::Delete(del) = stmt else { panic!("expected DELETE") };
        let plan = plan_dml(&db, &del.table, &del.predicates, PlanMode::Planned).unwrap();
        assert!(matches!(plan.access, Access::PkEq(3)));
        assert!(plan.filters.is_empty());
    }

    #[test]
    fn explain_rejects_ddl() {
        let db = two_tables();
        let stmt =
            crate::sql::parse_statement("EXPLAIN INSERT INTO parents VALUES (99, 'x')").unwrap();
        let Statement::Explain(inner) = stmt else { panic!("expected EXPLAIN") };
        assert!(explain(&db, &inner, PlanMode::Planned, None).is_err());
    }
}
