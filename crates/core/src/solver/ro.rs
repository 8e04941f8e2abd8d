//! The optimization-based solver (RO): Eq. 8 row updates expressed as the
//! Eq. 10 matrix iteration, with the Eq. 15 negative-term optimization.
//!
//! Per iteration:
//!
//! ```text
//! W' = α·W0 + β·c + P·W − Σ_r 2δ̂r · 1_sources(r) ⊗ t_r
//! W  = D⁻¹ W'
//! ```
//!
//! where `P` carries `(γ^r_i + γ^r̄_j) + 2δ̂r` on every relation edge — the
//! `+2δ̂r` re-adds the related vectors that the blanket subtraction of the
//! target sum `t_r = Σ_{k∈targets(r)} v_k` removed, exactly the algebra of
//! Eq. 15 — and `D` is the Eq. 10 diagonal of coefficient sums.
//!
//! ## One kernel, every execution mode
//!
//! Every RO solve — [`super::solve`] with [`super::Solver::Ro`],
//! [`solve_ro_enumerated`], and delta refresh — runs one kernel
//! (`RoKernel`) through the shared iteration loop `RowKernel`. Each sweep
//! is
//!
//! 1. a **group phase** — the per-group target sums `t_r` (`O(n·D)`
//!    total; they read only the previous iterate `W`), and
//! 2. a **row phase** — `P·W`, the negative term, the constant part and
//!    the diagonal divide, all *row-local* given the `t_r`.
//!
//! Because neither phase's floating-point order depends on the partition,
//! results are **bit-identical** from 1 to N threads. A blanket kernel
//! built `for_rows` updates only a row subset, with every other row frozen
//! — the delta-refresh solve.

use retro_linalg::{vector, CooMatrix, CsrMatrix, Matrix};

use super::{Degrees, RowKernel, Rows, Schedule};
use crate::hyper::{delta_hat_weight, per_source_weight, Hyperparameters};
use crate::problem::RetrofitProblem;

/// How the kernel computes the Eq. 10 negative (repulsion) term.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NegativeMode {
    /// The Eq. 15 optimization: subtract `2δ̂r · t_r` blanket-wise from every
    /// source and re-add the related vectors through `+2δ̂r` edge weights in
    /// the positive operator. Cost per iteration:
    /// `O(Σ_r (|sources(r)|+|targets(r)|)·D)`.
    Blanket,
    /// Explicit enumeration of the `Ẽr` pairs — the unoptimized computation
    /// §4.5 warns about (`|Ẽr| ≫ |Er|`), kept for the Fig. 4 / Table 2
    /// runtime-shape reproduction. Cost per iteration:
    /// `O(Σ_r |sources(r)|·|targets(r)|·D)`.
    Enumerated,
}

/// The assembled RO iteration for one row set: positive operator,
/// diagonal, flattened per-slot negative-term plans, and all iteration
/// scratch. Built once per solve.
pub(crate) struct RoKernel<'p> {
    problem: &'p RetrofitProblem,
    /// Positive operator `P` (per-mode edge weights, see [`NegativeMode`]),
    /// one row per slot.
    pos: CsrMatrix,
    /// The Eq. 10 diagonal `D` of coefficient sums, per slot.
    denom: Vec<f32>,
    /// Eq. 12 β per node. The constant part `α·W0 + β·c` is not
    /// materialized — each row update recomputes it from `W0` and the
    /// category centroids (same expression, so same bits), which saves an
    /// `n × D` buffer and a full pass over it at construction.
    beta: Vec<f32>,
    /// The anchor weight α.
    alpha: f32,
    /// Flattened group target lists (CSR-style offsets+data): group `g`
    /// covers `tgt_ids[tgt_ptr[g] .. tgt_ptr[g+1]]`. Blanket mode keeps
    /// only the live groups' lists.
    tgt_ptr: Vec<u32>,
    tgt_ids: Vec<u32>,
    /// Blanket mode, flattened per-slot plans (CSR-style by slot, group
    /// order — the order fixes each row's floating-point sequence): slot
    /// `s` subtracts `neg_coeff[k] · t_{neg_group[k]}` (`neg_coeff = 2δ̂r`)
    /// for `k ∈ neg_ptr[s] .. neg_ptr[s+1]`.
    neg_ptr: Vec<u32>,
    neg_group: Vec<u32>,
    neg_coeff: Vec<f32>,
    /// Enumerated mode: per node, `(group index, 2δ̂r, related targets)` —
    /// subtract `2δ̂r · v_k` for every target `k` of the group that is *not*
    /// in the node's related list. Kept nested: this is the deliberately
    /// unoptimized Fig. 4 / Table 2 diagnostic path.
    node_pairs: Vec<Vec<(u32, f32, Vec<u32>)>>,
    mode: NegativeMode,
    sched: Schedule,
}

impl<'p> RoKernel<'p> {
    /// Assemble the kernel updating every row.
    pub(crate) fn new(
        problem: &'p RetrofitProblem,
        params: &Hyperparameters,
        mode: NegativeMode,
    ) -> Self {
        match mode {
            NegativeMode::Blanket => Self::new_blanket(problem, params, Rows::All(problem.len())),
            NegativeMode::Enumerated => Self::new_enumerated(problem, params),
        }
    }

    /// Assemble the blanket kernel updating only `dirty` (ascending,
    /// deduplicated ids), every other row frozen: run it with
    /// [`run_rows`](RowKernel::run_rows).
    pub(crate) fn for_rows(
        problem: &'p RetrofitProblem,
        params: &Hyperparameters,
        dirty: &[u32],
    ) -> Self {
        Self::new_blanket(problem, params, Rows::subset(problem.len(), dirty))
    }

    /// Blanket mode (the hot path) constructs directly from the forward
    /// relation groups with one [`Degrees`] pass per group — the per-edge
    /// `γ` weights and the shared `δ̂ = δ/(mc·mr)` of Eq. 13 are computed
    /// on the fly from out-degrees and `|Ri|` counts. Only the kernel's
    /// rows get operator entries, diagonals and negative plans, and only
    /// the groups they read get target lists.
    fn new_blanket(problem: &'p RetrofitProblem, params: &Hyperparameters, rows: Rows) -> Self {
        let n = problem.len();
        let beta = problem.beta_weights(params);
        let counts = &problem.relation_counts;
        let n_groups = problem.groups.len() * 2;

        let mut coo = CooMatrix::new(rows.len(), n);
        let mut denom: Vec<f32> =
            (0..rows.len()).map(|s| params.alpha + beta[rows.row(s)]).collect();
        let mut tgt_ptr = Vec::with_capacity(n_groups + 1);
        tgt_ptr.push(0u32);
        let mut tgt_ids: Vec<u32> = Vec::new();
        let mut live = vec![false; n_groups];
        // Per-slot negative entries in group-major visit order:
        // (slot, directed group, 2δ̂). Flattened into CSR form by a stable
        // counting sort below.
        let mut neg_entries: Vec<(u32, u32, f32)> = Vec::new();
        let mut deg = Degrees::new(n);
        // Per-edge weight scratch: the symmetric edge weight is identical
        // in both directions (f32 addition is commutative), so it is
        // computed once in the forward pass and reused for the inverted
        // edges.
        let mut edge_w: Vec<f32> = Vec::new();
        for (gi, group) in problem.groups.iter().enumerate() {
            // One counting pass yields both directions' out-degrees,
            // distinct source/target sets and the Eq. 13 mc/mr.
            deg.count(&group.edges);
            let src_count = deg.sources.len();
            let t_count = deg.targets.len();
            let dh = if group.edges.is_empty() {
                0.0
            } else {
                delta_hat_weight(params.delta, deg.mc(), deg.mr(counts))
            };

            // Edge weights carry +2δ̂ to re-add what the blanket
            // subtraction of t_r removes (Eq. 15); `γ^r_i + γ^r̄_j` is the
            // forward gamma at the source plus the inverted-direction
            // gamma at the target (and symmetrically for the inverted
            // direction's edges). Per row, the diagonal accumulates in the
            // order forward edges, forward blanket, inverted edges,
            // inverted blanket.
            edge_w.clear();
            for &(i, j) in &group.edges {
                let g_fwd =
                    per_source_weight(params.gamma, deg.fwd[i as usize], counts[i as usize]);
                let g_inv =
                    per_source_weight(params.gamma, deg.inv[j as usize], counts[j as usize]);
                let w = g_fwd + g_inv + 2.0 * dh;
                edge_w.push(w);
                if let Some(s) = rows.slot(i) {
                    coo.push(s, j as usize, w);
                    denom[s] += w;
                }
            }
            for s in deg.sources.iter().filter_map(|&i| rows.slot(i)) {
                denom[s] -= 2.0 * dh * t_count as f32;
            }
            for (&(i, j), &w) in group.edges.iter().zip(&edge_w) {
                if let Some(s) = rows.slot(j) {
                    coo.push(s, i as usize, w);
                    denom[s] += w;
                }
            }
            for s in deg.targets.iter().filter_map(|&j| rows.slot(j)) {
                denom[s] -= 2.0 * dh * src_count as f32;
            }

            // Per-direction negative plans and the live groups' target
            // lists: the forward direction's sources are the distinct `i`
            // and its targets the distinct `j`; the inverted one swaps them.
            let g_fwd = 2 * gi;
            for (g, sources, targets) in
                [(g_fwd, &deg.sources, &deg.targets), (g_fwd + 1, &deg.targets, &deg.sources)]
            {
                if dh != 0.0 && !targets.is_empty() {
                    for s in sources.iter().filter_map(|&i| rows.slot(i)) {
                        neg_entries.push((s as u32, g as u32, 2.0 * dh));
                        live[g] = true;
                    }
                }
                if live[g] {
                    tgt_ids.extend_from_slice(targets);
                }
                tgt_ptr.push(tgt_ids.len() as u32);
            }
        }
        let pos = coo.to_csr();
        let (neg_ptr, neg_group, neg_coeff) = super::flatten_by_node(rows.len(), &neg_entries);
        let sched = Schedule::new(rows, live, &tgt_ptr, &tgt_ids, problem.dim());

        Self {
            problem,
            pos,
            denom,
            beta,
            alpha: params.alpha,
            tgt_ptr,
            tgt_ids,
            neg_ptr,
            neg_group,
            neg_coeff,
            node_pairs: Vec::new(),
            mode: NegativeMode::Blanket,
            sched,
        }
    }

    /// Enumerated mode (the reference the Eq. 15 tests compare against)
    /// walks the forward groups with the same [`Degrees`] pass as
    /// [`Self::new_blanket`], but puts only the `γ^r_i + γ^r̄_j` weights on
    /// the edges and skips the related pairs in an explicit `Ẽr` sweep.
    /// Per row, operator entries and the diagonal accumulate in the order
    /// forward edges, forward sources, inverted edges, inverted sources.
    fn new_enumerated(problem: &'p RetrofitProblem, params: &Hyperparameters) -> Self {
        let n = problem.len();
        let beta = problem.beta_weights(params);
        let counts = &problem.relation_counts;

        let mut coo = CooMatrix::new(n, n);
        let mut denom: Vec<f32> = (0..n).map(|i| params.alpha + beta[i]).collect();
        // Target lists per directed group (forward `2g`, inverted `2g+1`),
        // and per node the explicit Ẽr plans: `(directed group, 2δ̂r,
        // related targets to skip)`.
        let mut tgt_ptr = Vec::with_capacity(problem.groups.len() * 2 + 1);
        tgt_ptr.push(0u32);
        let mut tgt_ids: Vec<u32> = Vec::new();
        let mut node_pairs: Vec<Vec<(u32, f32, Vec<u32>)>> = vec![Vec::new(); n];
        let mut deg = Degrees::new(n);
        let mut edge_w: Vec<f32> = Vec::new();
        for (gi, group) in problem.groups.iter().enumerate() {
            deg.count(&group.edges);
            let dh = delta_hat_weight(params.delta, deg.mc(), deg.mr(counts));
            edge_w.clear();
            for &(i, j) in &group.edges {
                let w = per_source_weight(params.gamma, deg.fwd[i as usize], counts[i as usize])
                    + per_source_weight(params.gamma, deg.inv[j as usize], counts[j as usize]);
                edge_w.push(w);
                coo.push(i as usize, j as usize, w);
                denom[i as usize] += w;
            }
            let t_count = deg.targets.len() as f32;
            for &i in &deg.sources {
                denom[i as usize] -= 2.0 * dh * (t_count - deg.fwd[i as usize] as f32);
            }
            for (&(i, j), &w) in group.edges.iter().zip(&edge_w) {
                coo.push(j as usize, i as usize, w);
                denom[j as usize] += w;
            }
            let s_count = deg.sources.len() as f32;
            for &j in &deg.targets {
                denom[j as usize] -= 2.0 * dh * (s_count - deg.inv[j as usize] as f32);
            }

            let (g_fwd, g_inv) = (2 * gi as u32, 2 * gi as u32 + 1);
            for targets in [&deg.targets, &deg.sources] {
                tgt_ids.extend_from_slice(targets);
                tgt_ptr.push(tgt_ids.len() as u32);
            }
            if dh == 0.0 {
                continue;
            }
            for (g, sources) in [(g_fwd, &deg.sources), (g_inv, &deg.targets)] {
                for &s in sources {
                    node_pairs[s as usize].push((g, 2.0 * dh, Vec::new()));
                }
            }
            for &(i, j) in &group.edges {
                for (s, g, k) in [(i, g_fwd, j), (j, g_inv, i)] {
                    let plan = node_pairs[s as usize].iter_mut().rev().find(|p| p.0 == g);
                    plan.expect("every endpoint has a plan").2.push(k);
                }
            }
        }
        let pos = coo.to_csr();

        // No group phase: the pair sweep reads targets straight from `W`.
        let sched = Schedule::new(Rows::All(n), Vec::new(), &[0], &[], problem.dim());

        Self {
            problem,
            pos,
            denom,
            beta,
            alpha: params.alpha,
            tgt_ptr,
            tgt_ids,
            neg_ptr: vec![0u32; n + 1],
            neg_group: Vec::new(),
            neg_coeff: Vec::new(),
            node_pairs,
            mode: NegativeMode::Enumerated,
            sched,
        }
    }

    /// [`RowKernel::update_rows`] (blanket mode) with the row dimension
    /// known at compile time: the accumulator is a fixed-size stack array,
    /// which LLVM promotes to vector registers across the gather and
    /// negative loops.
    fn update_rows_fixed<const D: usize>(
        &self,
        w: &Matrix,
        t_sums: &Matrix,
        start: usize,
        chunk: &mut [f32],
    ) {
        let end = start + chunk.len() / D;
        for (local, s) in (start..end).enumerate() {
            if s + 4 < end {
                // Overlap upcoming rows' data-dependent gathers with this
                // row's arithmetic (see `CsrMatrix::prefetch_row`); a few
                // rows of distance covers the DRAM latency.
                self.pos.prefetch_row(s + 4, w);
            }
            let r = self.sched.rows.row(s);
            let mut acc = [0.0f32; D];
            let b = self.beta[r];
            let w0r = &self.problem.w0.row(r)[..D];
            let cr = &self.problem.centroid_of(r)[..D];
            for j in 0..D {
                acc[j] = self.alpha * w0r[j] + b * cr[j];
            }
            for (c, v) in self.pos.row(s) {
                let x = &w.row(c)[..D];
                for j in 0..D {
                    acc[j] += v * x[j];
                }
            }
            for k in self.neg_ptr[s] as usize..self.neg_ptr[s + 1] as usize {
                let coeff = self.neg_coeff[k];
                let t = &t_sums.row(self.neg_group[k] as usize)[..D];
                for j in 0..D {
                    acc[j] += -coeff * t[j];
                }
            }
            let out_row = &mut chunk[local * D..(local + 1) * D];
            let d = self.denom[s];
            if d.abs() > 1e-6 {
                for a in &mut acc {
                    *a /= d;
                }
                out_row.copy_from_slice(&acc);
            } else {
                // Degenerate diagonal (δ too large): keep the previous
                // vector rather than dividing by ~0.
                out_row.copy_from_slice(w.row(r));
            }
        }
    }

    /// [`RowKernel::update_rows`] for arbitrary dimensions and the
    /// enumerated mode.
    fn update_rows_dyn(&self, w: &Matrix, t_sums: &Matrix, start: usize, chunk: &mut [f32]) {
        let dim = self.problem.dim();
        let end = start + chunk.len() / dim;
        for (local, s) in (start..end).enumerate() {
            if s + 1 < end {
                self.pos.prefetch_row(s + 1, w);
            }
            let r = self.sched.rows.row(s);
            let out_row = &mut chunk[local * dim..(local + 1) * dim];
            let b = self.beta[r];
            for ((o, &w0v), &cv) in
                out_row.iter_mut().zip(self.problem.w0.row(r)).zip(self.problem.centroid_of(r))
            {
                *o = self.alpha * w0v + b * cv;
            }
            self.pos.mul_row_into(s, w, 1.0, out_row);
            match self.mode {
                NegativeMode::Blanket => {
                    // Blanket negative term: −2δ̂r · t_r for every group this
                    // row sources.
                    for k in self.neg_ptr[s] as usize..self.neg_ptr[s + 1] as usize {
                        vector::axpy(
                            -self.neg_coeff[k],
                            t_sums.row(self.neg_group[k] as usize),
                            out_row,
                        );
                    }
                }
                NegativeMode::Enumerated => {
                    // Explicit Ẽr sweep: every (source, target) pair that is
                    // NOT a relation contributes −2δ̂·v_target.
                    for (g, coeff, related) in &self.node_pairs[r] {
                        let t0 = self.tgt_ptr[*g as usize] as usize;
                        let t1 = self.tgt_ptr[*g as usize + 1] as usize;
                        for &k in &self.tgt_ids[t0..t1] {
                            if !related.contains(&k) {
                                vector::axpy(-coeff, w.row(k as usize), out_row);
                            }
                        }
                    }
                }
            }
            // Divide W' by the diagonal.
            let d = self.denom[s];
            if d.abs() > 1e-6 {
                for o in out_row.iter_mut() {
                    *o /= d;
                }
            } else {
                // Degenerate diagonal (δ too large): keep the previous
                // vector rather than dividing by ~0.
                out_row.copy_from_slice(w.row(r));
            }
        }
    }
}

impl RowKernel for RoKernel<'_> {
    const NAME: &'static str = "RO";

    fn problem(&self) -> &RetrofitProblem {
        self.problem
    }

    fn schedule(&self) -> &Schedule {
        &self.sched
    }

    fn schedule_mut(&mut self) -> &mut Schedule {
        &mut self.sched
    }

    /// The Eq. 15 sums `t_r = Σ_{k∈targets} v_k` of the flagged groups
    /// (only the blanket mode has any).
    fn group_rows(&self, w: &Matrix, groups: &[bool], start: usize, chunk: &mut [f32]) {
        let dim = self.problem.dim();
        for (local, g) in (start..start + chunk.len() / dim).enumerate() {
            if !groups[g] {
                continue;
            }
            let t_sum = &mut chunk[local * dim..(local + 1) * dim];
            vector::zero(t_sum);
            for &k in &self.tgt_ids[self.tgt_ptr[g] as usize..self.tgt_ptr[g + 1] as usize] {
                vector::axpy(1.0, w.row(k as usize), t_sum);
            }
        }
    }

    /// Constant part, `P·W`, negative term, diagonal divide — one fused
    /// pass while the row is hot in cache. Blanket mode dispatches to a
    /// const-dimension body for the common embedding widths so the
    /// accumulator row lives in registers across the whole sparse gather
    /// (the element-wise operation order is identical, so the dispatch
    /// never changes a bit of the output).
    fn update_rows(&self, w: &Matrix, t_sums: &Matrix, start: usize, chunk: &mut [f32]) {
        if self.mode == NegativeMode::Blanket {
            match self.problem.dim() {
                32 => return self.update_rows_fixed::<32>(w, t_sums, start, chunk),
                64 => return self.update_rows_fixed::<64>(w, t_sums, start, chunk),
                96 => return self.update_rows_fixed::<96>(w, t_sums, start, chunk),
                128 => return self.update_rows_fixed::<128>(w, t_sums, start, chunk),
                _ => {}
            }
        }
        self.update_rows_dyn(w, t_sums, start, chunk)
    }
}

/// The RO solver with the negative term computed by **explicit enumeration**
/// of the `Ẽr` pairs — the unoptimized Eq. 10 computation that §4.5 warns
/// about (`|Ẽr| ≫ |Er|`), run from `W0` on [`Hyperparameters::threads`]
/// workers. Numerically equivalent to [`super::solve`] with
/// [`super::Solver::Ro`]; its cost per iteration is
/// `O(Σ_r |sources(r)|·|targets(r)|·D)` instead of
/// `O(Σ_r (|sources(r)|+|targets(r)|)·D)`, which is where the paper's
/// "RO is ~10× slower than RN" runtime shape comes from (Table 2 / Fig. 4).
pub fn solve_ro_enumerated(
    problem: &RetrofitProblem,
    params: &Hyperparameters,
    iterations: usize,
) -> Matrix {
    RoKernel::new(problem, params, NegativeMode::Enumerated).run(None, iterations, params.threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TextValueCatalog;
    use crate::relations::{RelationGroup, RelationKind};
    use crate::solver::{solve, Solver};
    use retro_embed::EmbeddingSet;

    /// Two categories (0: movies {a, b}, 1: countries {x}), one relation
    /// a→x.
    fn tiny_problem() -> RetrofitProblem {
        let mut catalog = TextValueCatalog::default();
        let movies = catalog.add_category("movies", "title");
        let countries = catalog.add_category("countries", "name");
        let a = catalog.intern(movies, "a");
        let _b = catalog.intern(movies, "b");
        let x = catalog.intern(countries, "x");
        let groups = vec![RelationGroup::new(
            "movies.title~countries.name".into(),
            movies,
            countries,
            RelationKind::ForeignKey,
            vec![(a, x)],
        )];
        let base = EmbeddingSet::new(
            vec!["a".into(), "b".into(), "x".into()],
            vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![-1.0, 0.0]],
        );
        RetrofitProblem::from_parts(catalog, groups, &base)
    }

    #[test]
    fn alpha_only_is_fixed_at_w0() {
        let p = tiny_problem();
        let params = Hyperparameters::new(2.0, 0.0, 0.0, 0.0);
        let w = solve(&p, Solver::Ro, &params, 15, None);
        assert!(w.max_abs_diff(&p.w0.to_matrix()) < 1e-5);
    }

    #[test]
    fn gamma_pulls_related_values_together() {
        let p = tiny_problem();
        let before = vector::dist(p.w0.row(0), p.w0.row(2));
        let params = Hyperparameters::new(1.0, 0.0, 2.0, 0.0);
        let w = solve(&p, Solver::Ro, &params, 20, None);
        let after = vector::dist(w.row(0), w.row(2));
        assert!(after < before, "after {after} < before {before}");
    }

    #[test]
    fn unrelated_value_only_feels_alpha_and_beta() {
        let p = tiny_problem();
        let params = Hyperparameters::new(1.0, 0.0, 5.0, 0.0);
        let w = solve(&p, Solver::Ro, &params, 20, None);
        // "b" participates in no relation and β=0 → stays at its original.
        assert!(vector::approx_eq(w.row(1), p.w0.row(1), 1e-5));
    }

    #[test]
    fn beta_pulls_toward_category_centroid() {
        let p = tiny_problem();
        let params = Hyperparameters::new(1.0, 3.0, 0.0, 0.0);
        let w = solve(&p, Solver::Ro, &params, 20, None);
        // Movie centroid is [0.5, 0.5]; both movie vectors move toward it.
        let centroid = [0.5f32, 0.5];
        let before = vector::dist(p.w0.row(0), &centroid);
        let after = vector::dist(w.row(0), &centroid);
        assert!(after < before);
    }

    #[test]
    fn converges_to_a_fixed_point() {
        let p = tiny_problem();
        let params = Hyperparameters::new(1.0, 0.5, 1.0, 0.1);
        let w20 = solve(&p, Solver::Ro, &params, 20, None);
        let w40 = solve(&p, Solver::Ro, &params, 40, None);
        assert!(w20.max_abs_diff(&w40) < 1e-4);
    }

    #[test]
    fn deterministic() {
        let p = tiny_problem();
        let params = Hyperparameters::paper_ro();
        let a = solve(&p, Solver::Ro, &params, 10, None);
        let b = solve(&p, Solver::Ro, &params, 10, None);
        assert!(a.max_abs_diff(&b) == 0.0);
    }

    #[test]
    fn degenerate_denominator_keeps_previous_vector() {
        // Absurd δ flips the diagonal negative for related nodes; the solver
        // must not blow up or emit NaNs.
        let p = tiny_problem();
        let params = Hyperparameters::new(0.0, 0.0, 0.0, 1e9);
        let w = solve(&p, Solver::Ro, &params, 5, None);
        assert!(w.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn enumerated_variant_matches_optimized() {
        let p = tiny_problem();
        for params in [
            Hyperparameters::new(1.0, 0.5, 2.0, 0.5),
            Hyperparameters::paper_ro(),
            Hyperparameters::new(2.0, 0.0, 1.0, 0.0),
        ] {
            let fast = solve(&p, Solver::Ro, &params, 10, None);
            let slow = solve_ro_enumerated(&p, &params, 10);
            assert!(
                fast.max_abs_diff(&slow) < 1e-4,
                "divergence {} at {params:?}",
                fast.max_abs_diff(&slow)
            );
        }
    }

    #[test]
    fn empty_problem_is_handled() {
        let catalog = TextValueCatalog::default();
        let base = EmbeddingSet::new(vec!["t".into()], vec![vec![0.0, 0.0]]);
        let p = RetrofitProblem::from_parts(catalog, Vec::new(), &base);
        let w = solve(&p, Solver::Ro, &Hyperparameters::default(), 5, None);
        assert_eq!(w.shape(), (0, 2));
    }

    #[test]
    fn fixed_dim_dispatch_is_bit_identical_to_dynamic_body() {
        // dim 32 takes the register-blocked const-dimension body; drive the
        // same iteration through the dynamic body and demand equal bits.
        let dim = 32usize;
        let mut catalog = TextValueCatalog::default();
        let ca = catalog.add_category("a", "x");
        let cb = catalog.add_category("b", "y");
        let mut edges = Vec::new();
        let mut tokens = Vec::new();
        let mut vectors = Vec::new();
        for k in 0..12u32 {
            let i = catalog.intern(ca, &format!("s{k}"));
            let j = catalog.intern(cb, &format!("t{k}"));
            edges.push((i, j));
            edges.push((i, (j + 2) % 24));
            tokens.push(format!("s{k}"));
            vectors.push((0..dim).map(|d| ((k as f32 + 1.3) * (d as f32 + 0.7)).sin()).collect());
            tokens.push(format!("t{k}"));
            vectors.push((0..dim).map(|d| ((k as f32 - 2.1) * (d as f32 + 1.9)).cos()).collect());
        }
        let groups =
            vec![RelationGroup::new("a.x~b.y".into(), ca, cb, RelationKind::ForeignKey, edges)];
        let base = EmbeddingSet::new(tokens, vectors);
        let p = RetrofitProblem::from_parts(catalog, groups, &base);
        let params = Hyperparameters::paper_ro();

        let mut kernel = RoKernel::new(&p, &params, NegativeMode::Blanket);
        let fixed = kernel.run(None, 5, 1);

        let n = p.len();
        let mut w = p.w0.to_matrix();
        let mut next = Matrix::zeros(n, dim);
        let mut t_sums = Matrix::zeros(kernel.sched.live.len(), dim);
        for _ in 0..5 {
            kernel.group_rows(&w, &kernel.sched.live, 0, t_sums.as_mut_slice());
            kernel.update_rows_dyn(&w, &t_sums, 0, next.as_mut_slice());
            std::mem::swap(&mut w, &mut next);
        }
        assert_eq!(fixed.max_abs_diff(&w), 0.0);
    }

    #[test]
    fn kernel_thread_counts_are_bit_identical() {
        let p = tiny_problem();
        let params = Hyperparameters::paper_ro();
        let mut kernel = RoKernel::new(&p, &params, NegativeMode::Blanket);
        let serial = kernel.run(None, 10, 1);
        for threads in [2, 3, 8] {
            let parallel = kernel.run(None, 10, threads);
            assert_eq!(serial.max_abs_diff(&parallel), 0.0, "threads={threads}");
        }
    }

    #[test]
    fn enumerated_kernel_parallelizes_too() {
        let p = tiny_problem();
        let params = Hyperparameters::paper_ro();
        let mut kernel = RoKernel::new(&p, &params, NegativeMode::Enumerated);
        let serial = kernel.run(None, 8, 1);
        let parallel = kernel.run(None, 8, 4);
        assert_eq!(serial.max_abs_diff(&parallel), 0.0);
    }
}
