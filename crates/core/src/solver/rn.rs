//! The series-based solver (RN): Eq. 9 row updates as the Eq. 11 matrix
//! iteration with row normalization, using the Eq. 16 precomputed target
//! centroids for the negative term.
//!
//! Per iteration:
//!
//! ```text
//! W' = α·W0 + β·c + Σ_r [ Γr·W − δ^r_i · t_r ]    (t_r = centroid of targets(r))
//! W  = row-normalize(W')
//! ```
//!
//! Unlike RO there is no symmetric `γ̄ᵀ` term — every directed group only
//! updates its sources — and the normalization bounds the series, so the
//! parameter constraints of Eq. 7 do not apply (§4.2).
//!
//! ## One kernel, every execution mode
//!
//! Every RN solve — [`super::solve`] with [`super::Solver::Rn`] (and
//! through it `Retro::solve` and incremental warm starts) and delta
//! refresh — runs one kernel (`RnKernel`), the RN counterpart of
//! `RoKernel` in `ro.rs`, through the shared iteration loop `RowKernel`.
//! Each sweep is
//!
//! 1. a **group phase** — the Eq. 16 per-group target centroids `t_r`
//!    (they read only the previous iterate `W`), and
//! 2. a **row phase** — `α·W0 + β·c + Γ·W` minus the negative centroids,
//!    then row normalization, all *row-local* given the `t_r`.
//!
//! Results are **bit-identical** from 1 to N threads. A kernel built
//! `for_rows` updates only a row subset, with every other row frozen — the
//! delta-refresh solve.

use retro_linalg::{vector, CooMatrix, CsrMatrix, Matrix};

use super::{Degrees, RowKernel, Rows, Schedule};
use crate::hyper::{per_source_weight, Hyperparameters};
use crate::problem::RetrofitProblem;

/// The assembled RN iteration for one row set: positive operator,
/// constant-part coefficients, flattened target lists and per-slot
/// negative plans, plus all iteration scratch. Built once per solve (or
/// held across warm-start solves).
pub(crate) struct RnKernel<'p> {
    problem: &'p RetrofitProblem,
    /// Positive operator `Γ` (`γ^r_i` on every directed edge), one row per
    /// slot.
    pos: CsrMatrix,
    /// Eq. 12 β per node. The constant part `α·W0 + β·c` is not
    /// materialized — each row update recomputes it from `W0` and the
    /// category centroids (same expression, so same bits), which saves an
    /// `n × D` buffer and a full pass over it at construction.
    beta: Vec<f32>,
    /// The anchor weight α.
    alpha: f32,
    /// Flattened target lists of the live groups (CSR-style offsets+data):
    /// group `g` covers `tgt_ids[tgt_ptr[g] .. tgt_ptr[g+1]]`.
    tgt_ptr: Vec<u32>,
    tgt_ids: Vec<u32>,
    /// Flattened per-slot negative plans (CSR-style by slot, group order —
    /// the order fixes each row's floating-point sequence): slot `s`
    /// subtracts `neg_delta[k] · centroid(neg_group[k])` for
    /// `k ∈ neg_ptr[s] .. neg_ptr[s+1]`.
    neg_ptr: Vec<u32>,
    neg_group: Vec<u32>,
    neg_delta: Vec<f32>,
    sched: Schedule,
}

impl<'p> RnKernel<'p> {
    /// Assemble the kernel updating every row.
    pub(crate) fn new(problem: &'p RetrofitProblem, params: &Hyperparameters) -> Self {
        Self::build(problem, params, Rows::All(problem.len()))
    }

    /// Assemble the kernel updating only `dirty` (ascending, deduplicated
    /// ids), every other row frozen: run it with
    /// [`run_rows`](RowKernel::run_rows).
    pub(crate) fn for_rows(
        problem: &'p RetrofitProblem,
        params: &Hyperparameters,
        dirty: &[u32],
    ) -> Self {
        Self::build(problem, params, Rows::subset(problem.len(), dirty))
    }

    /// Construction works directly from the forward relation groups with
    /// one [`Degrees`] pass per group — the per-edge `γ^r_i` and
    /// per-source `δ^r_i` of Eq. 12/14 are computed on the fly from the
    /// out-degrees and `|Ri|` counts (the same expressions
    /// [`RetrofitProblem::directed_groups`] evaluates, so the same bits)
    /// without materializing [`crate::problem::DirectedGroup`]s. Only the
    /// kernel's rows get operator entries and negative plans, and only the
    /// groups they read get target lists.
    fn build(problem: &'p RetrofitProblem, params: &Hyperparameters, rows: Rows) -> Self {
        let n = problem.len();
        let beta = problem.beta_weights(params);
        let counts = &problem.relation_counts;
        let n_groups = problem.groups.len() * 2;

        // Directed groups are ordered (forward, inverted) per forward
        // group, exactly like `RetrofitProblem::directed_groups`.
        let mut coo = CooMatrix::new(rows.len(), n);
        let mut tgt_ptr = Vec::with_capacity(n_groups + 1);
        tgt_ptr.push(0u32);
        let mut tgt_ids: Vec<u32> = Vec::new();
        let mut live = vec![false; n_groups];
        // Per-slot negative entries in group-major visit order:
        // (slot, directed group, δ^r_node). Flattened into CSR form by a
        // stable counting sort below.
        let mut neg_entries: Vec<(u32, u32, f32)> = Vec::new();
        let mut deg = Degrees::new(n);
        for (gi, group) in problem.groups.iter().enumerate() {
            deg.count(&group.edges);
            // Forward direction: γ^r_i = γ/(od(i)·(|Ri|+1)) on every edge,
            // δ^r_i = δ/(od(i)·(|Ri|+1)) for every distinct source.
            for &(i, j) in &group.edges {
                if let Some(s) = rows.slot(i) {
                    let g =
                        per_source_weight(params.gamma, deg.fwd[i as usize], counts[i as usize]);
                    coo.push(s, j as usize, g);
                }
            }
            // Inverted direction: same formulas over the swapped edges.
            for &(i, j) in &group.edges {
                if let Some(s) = rows.slot(j) {
                    let g =
                        per_source_weight(params.gamma, deg.inv[j as usize], counts[j as usize]);
                    coo.push(s, i as usize, g);
                }
            }
            // The forward direction's sources are the distinct `i`, its
            // targets the distinct `j`; the inverted direction swaps them.
            let g_fwd = 2 * gi;
            let directions = [(g_fwd, &deg.sources, &deg.fwd), (g_fwd + 1, &deg.targets, &deg.inv)];
            if params.delta != 0.0 && !group.edges.is_empty() {
                for &(g, sources, out_deg) in &directions {
                    for &i in sources.iter() {
                        let Some(s) = rows.slot(i) else { continue };
                        let delta = per_source_weight(
                            params.delta,
                            out_deg[i as usize],
                            counts[i as usize],
                        );
                        if delta != 0.0 {
                            neg_entries.push((s as u32, g as u32, delta));
                            live[g] = true;
                        }
                    }
                }
            }
            for (g, targets) in [(g_fwd, &deg.targets), (g_fwd + 1, &deg.sources)] {
                if live[g] {
                    tgt_ids.extend_from_slice(targets);
                }
                tgt_ptr.push(tgt_ids.len() as u32);
            }
        }
        let pos = coo.to_csr();
        let (neg_ptr, neg_group, neg_delta) = super::flatten_by_node(rows.len(), &neg_entries);
        let sched = Schedule::new(rows, live, &tgt_ptr, &tgt_ids, problem.dim());

        Self {
            problem,
            pos,
            beta,
            alpha: params.alpha,
            tgt_ptr,
            tgt_ids,
            neg_ptr,
            neg_group,
            neg_delta,
            sched,
        }
    }

    /// [`RowKernel::update_rows`] with the row dimension known at compile
    /// time: the accumulator is a fixed-size stack array, which LLVM
    /// promotes to vector registers across the gather and negative loops.
    fn update_rows_fixed<const D: usize>(
        &self,
        w: &Matrix,
        centroids: &Matrix,
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
                let delta = self.neg_delta[k];
                let c = &centroids.row(self.neg_group[k] as usize)[..D];
                for j in 0..D {
                    acc[j] += -delta * c[j];
                }
            }
            vector::normalize(&mut acc);
            chunk[local * D..(local + 1) * D].copy_from_slice(&acc);
        }
    }

    /// [`RowKernel::update_rows`] for arbitrary dimensions.
    fn update_rows_dyn(&self, w: &Matrix, centroids: &Matrix, start: usize, chunk: &mut [f32]) {
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
            for k in self.neg_ptr[s] as usize..self.neg_ptr[s + 1] as usize {
                vector::axpy(
                    -self.neg_delta[k],
                    centroids.row(self.neg_group[k] as usize),
                    out_row,
                );
            }
            vector::normalize(out_row);
        }
    }
}

impl RowKernel for RnKernel<'_> {
    const NAME: &'static str = "RN";

    fn problem(&self) -> &RetrofitProblem {
        self.problem
    }

    fn schedule(&self) -> &Schedule {
        &self.sched
    }

    fn schedule_mut(&mut self) -> &mut Schedule {
        &mut self.sched
    }

    /// The Eq. 16 centroids of the flagged groups.
    fn group_rows(&self, w: &Matrix, groups: &[bool], start: usize, chunk: &mut [f32]) {
        let dim = self.problem.dim();
        for (local, g) in (start..start + chunk.len() / dim).enumerate() {
            if !groups[g] {
                continue;
            }
            let c = &mut chunk[local * dim..(local + 1) * dim];
            let t0 = self.tgt_ptr[g] as usize;
            let t1 = self.tgt_ptr[g + 1] as usize;
            vector::zero(c);
            for &k in &self.tgt_ids[t0..t1] {
                vector::axpy(1.0, w.row(k as usize), c);
            }
            vector::scale(1.0 / (t1 - t0) as f32, c);
        }
    }

    /// Constant part, `Γ·W`, negative centroids, row normalization — one
    /// fused pass while the row is hot in cache. Dispatches to a
    /// const-dimension body for the common embedding widths so the
    /// accumulator row lives in registers across the whole sparse gather
    /// (the element-wise operation order is identical, so the dispatch
    /// never changes a bit of the output).
    fn update_rows(&self, w: &Matrix, centroids: &Matrix, start: usize, chunk: &mut [f32]) {
        match self.problem.dim() {
            32 => self.update_rows_fixed::<32>(w, centroids, start, chunk),
            64 => self.update_rows_fixed::<64>(w, centroids, start, chunk),
            96 => self.update_rows_fixed::<96>(w, centroids, start, chunk),
            128 => self.update_rows_fixed::<128>(w, centroids, start, chunk),
            _ => self.update_rows_dyn(w, centroids, start, chunk),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TextValueCatalog;
    use crate::relations::{RelationGroup, RelationKind};
    use crate::solver::{solve, Solver};
    use retro_embed::EmbeddingSet;

    fn tiny_problem() -> RetrofitProblem {
        let mut catalog = TextValueCatalog::default();
        let movies = catalog.add_category("movies", "title");
        let countries = catalog.add_category("countries", "name");
        let a = catalog.intern(movies, "a");
        let b = catalog.intern(movies, "b");
        let x = catalog.intern(countries, "x");
        let y = catalog.intern(countries, "y");
        let groups = vec![RelationGroup::new(
            "movies.title~countries.name".into(),
            movies,
            countries,
            RelationKind::ForeignKey,
            vec![(a, x), (b, y)],
        )];
        let base = EmbeddingSet::new(
            vec!["a".into(), "b".into(), "x".into(), "y".into()],
            vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.8, 0.6], vec![-0.6, 0.8]],
        );
        RetrofitProblem::from_parts(catalog, groups, &base)
    }

    #[test]
    fn rows_are_unit_norm_after_solving() {
        let p = tiny_problem();
        let w = solve(&p, Solver::Rn, &Hyperparameters::paper_rn(), 10, None);
        for r in 0..w.rows() {
            let norm = vector::norm(w.row(r));
            assert!((norm - 1.0).abs() < 1e-5, "row {r} norm {norm}");
        }
    }

    #[test]
    fn related_pairs_end_closer_than_unrelated() {
        let p = tiny_problem();
        let w = solve(&p, Solver::Rn, &Hyperparameters::new(1.0, 0.0, 3.0, 1.0), 15, None);
        let related = vector::cosine(w.row(0), w.row(2)); // a ~ x
        let unrelated = vector::cosine(w.row(0), w.row(3)); // a vs y
        assert!(related > unrelated, "related {related} unrelated {unrelated}");
    }

    #[test]
    fn oov_value_acquires_a_direction_from_relations() {
        let mut catalog = TextValueCatalog::default();
        let movies = catalog.add_category("movies", "title");
        let countries = catalog.add_category("countries", "name");
        let a = catalog.intern(movies, "zzz_oov_zzz");
        let x = catalog.intern(countries, "x");
        let groups = vec![RelationGroup::new(
            "g".into(),
            movies,
            countries,
            RelationKind::ForeignKey,
            vec![(a, x)],
        )];
        let base = EmbeddingSet::new(vec!["x".into()], vec![vec![0.0, 1.0]]);
        let p = RetrofitProblem::from_parts(catalog, groups, &base);
        assert!(p.oov[a as usize]);
        let w = solve(&p, Solver::Rn, &Hyperparameters::new(1.0, 0.0, 3.0, 0.0), 10, None);
        // The OOV movie must align with its related country direction.
        assert!(vector::cosine(w.row(a as usize), &[0.0, 1.0]) > 0.9);
    }

    #[test]
    fn delta_zero_concentrates_delta_positive_separates() {
        // §4.4 / Fig. 3d: with δ = 0 vectors concentrate (higher pairwise
        // cosine); δ > 0 pushes unrelated vectors apart.
        let p = tiny_problem();
        let w_no = solve(&p, Solver::Rn, &Hyperparameters::new(1.0, 0.5, 3.0, 0.0), 15, None);
        let w_yes = solve(&p, Solver::Rn, &Hyperparameters::new(1.0, 0.5, 3.0, 2.0), 15, None);
        let cos_no = vector::cosine(w_no.row(0), w_no.row(3));
        let cos_yes = vector::cosine(w_yes.row(0), w_yes.row(3));
        assert!(cos_yes < cos_no, "with delta {cos_yes} vs without {cos_no}");
    }

    #[test]
    fn deterministic_and_finite_even_with_large_delta() {
        let p = tiny_problem();
        let params = Hyperparameters::new(1.0, 0.0, 3.0, 50.0);
        let a = solve(&p, Solver::Rn, &params, 10, None);
        let b = solve(&p, Solver::Rn, &params, 10, None);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert!(a.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_problem_is_handled() {
        let catalog = TextValueCatalog::default();
        let base = EmbeddingSet::new(vec!["t".into()], vec![vec![0.0]]);
        let p = RetrofitProblem::from_parts(catalog, Vec::new(), &base);
        let w = solve(&p, Solver::Rn, &Hyperparameters::default(), 5, None);
        assert_eq!(w.shape(), (0, 1));
    }

    #[test]
    fn kernel_thread_counts_are_bit_identical() {
        let p = tiny_problem();
        let params = Hyperparameters::paper_rn();
        let mut kernel = RnKernel::new(&p, &params);
        let serial = kernel.run(None, 10, 1);
        for threads in [2, 3, 8] {
            let parallel = kernel.run(None, 10, threads);
            assert_eq!(serial.max_abs_diff(&parallel), 0.0, "threads={threads}");
        }
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
        let params = Hyperparameters::paper_rn();

        let mut kernel = RnKernel::new(&p, &params);
        let fixed = kernel.run(None, 5, 1);

        let n = p.len();
        let mut w = p.w0.clone();
        let mut next = Matrix::zeros(n, dim);
        let mut centroids = Matrix::zeros(kernel.sched.live.len(), dim);
        for _ in 0..5 {
            kernel.group_rows(&w, &kernel.sched.live, 0, centroids.as_mut_slice());
            kernel.update_rows_dyn(&w, &centroids, 0, next.as_mut_slice());
            std::mem::swap(&mut w, &mut next);
        }
        assert_eq!(fixed.max_abs_diff(&w), 0.0);
    }

    #[test]
    fn kernel_scratch_reuse_does_not_leak_state_between_runs() {
        // Warm-start reuse: a second run on the same kernel must equal a
        // run on a freshly built kernel bit-for-bit.
        let p = tiny_problem();
        let params = Hyperparameters::paper_rn();
        let mut reused = RnKernel::new(&p, &params);
        let warm = reused.run(None, 3, 2);
        let seeded_reused = reused.run(Some(&warm), 5, 3);
        let seeded_fresh = RnKernel::new(&p, &params).run(Some(&warm), 5, 1);
        assert_eq!(seeded_reused.max_abs_diff(&seeded_fresh), 0.0);
    }
}
