//! Hyperparameters and the Eq. 12–14 weight derivation, plus the Eq. 7/24
//! convexity check.
//!
//! Four global knobs — α (anchor to the original embedding), β (pull toward
//! the category centroid), γ (pull toward related values), δ (push away from
//! unrelated values of related columns) — are turned into per-node,
//! per-group weights:
//!
//! * `βi = β / (|Ri| + 1)` — Eq. 12,
//! * `γ^r_i = γ / (odr(i) · (|Ri| + 1))` — Eq. 12,
//! * RO: `δ^r_i = δ / (mc(r) · mr(r))` — Eq. 13,
//! * RN: `δ^r_i = δ / (odr(i) · (|Ri| + 1))` — Eq. 14.

use crate::relations::RelationGroup;
use crate::solver::Degrees;

/// The four global hyperparameters, plus one execution knob.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hyperparameters {
    /// Anchor weight to the original vector `v'ᵢ`.
    pub alpha: f32,
    /// Category-centroid weight.
    pub beta: f32,
    /// Relational attraction weight.
    pub gamma: f32,
    /// Relational repulsion weight.
    pub delta: f32,
    /// Worker threads for the solvers (execution knob, not part of the
    /// paper's Eq. 12–14; `1` = sequential). Both RO and RN produce
    /// bit-identical results for every thread count, so this only trades
    /// wall time — never output.
    pub threads: usize,
}

impl Default for Hyperparameters {
    /// The paper's series-approach configuration for the ML tasks
    /// (α=1, β=0, γ=3, δ=1, §5.2), single-threaded.
    fn default() -> Self {
        Self { alpha: 1.0, beta: 0.0, gamma: 3.0, delta: 1.0, threads: 1 }
    }
}

impl Hyperparameters {
    /// The paper's RO configuration (α=1, β=0, γ=3, δ=3, §5.2).
    pub fn paper_ro() -> Self {
        Self { alpha: 1.0, beta: 0.0, gamma: 3.0, delta: 3.0, threads: 1 }
    }

    /// The paper's RN configuration (α=1, β=0, γ=3, δ=1, §5.2).
    pub fn paper_rn() -> Self {
        Self::default()
    }

    /// Shorthand constructor (single-threaded; chain
    /// [`Self::with_threads`] to spread a solve over more workers).
    pub fn new(alpha: f32, beta: f32, gamma: f32, delta: f32) -> Self {
        Self { alpha, beta, gamma, delta, threads: 1 }
    }

    /// Set the solver worker-thread count (values ≤ 1 mean sequential).
    ///
    /// ```
    /// use retro_core::Hyperparameters;
    /// let params = Hyperparameters::paper_ro().with_threads(8);
    /// assert_eq!(params.threads, 8);
    /// ```
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Per-group derived quantities shared by both solvers.
#[derive(Clone, Debug)]
pub struct GroupWeights {
    /// `γ^r_i` for each source id `i` (indexed densely over all values;
    /// zero for non-sources).
    pub gamma_i: Vec<f32>,
    /// `δ^r_i` for each source id.
    pub delta_i: Vec<f32>,
    /// `mr(r)` of Eq. 13.
    pub mr: usize,
    /// `mc(r)` of Eq. 13.
    pub mc: usize,
}

/// The Eq. 12 per-source weight `γ/(od·(|Ri|+1))` (also the Eq. 14 RN δ
/// with `delta` in place of `gamma`). The single source of the formula:
/// [`derive_weights_from_degrees`] and the solver kernels' direct
/// constructions all call this, so they cannot drift.
#[inline]
pub(crate) fn per_source_weight(coefficient: f32, out_degree: u32, relation_count: u32) -> f32 {
    coefficient / (out_degree as f32 * (relation_count as f32 + 1.0))
}

/// The Eq. 13 shared RO repulsion weight `δ̂ = δ/(mc·mr)`. Same
/// single-source role as [`per_source_weight`].
#[inline]
pub(crate) fn delta_hat_weight(delta: f32, mc: usize, mr: usize) -> f32 {
    delta / (mc as f32 * mr as f32)
}

/// Derive the per-source weights of one *directed* group from its
/// per-source out-degrees and its Eq. 13 `mc`/`mr` (all from one
/// [`crate::solver::Degrees`] pass).
///
/// `ro_delta` selects the Eq. 13 (true, optimization solver) or Eq. 14
/// (false, series solver) δ normalization.
pub(crate) fn derive_weights_from_degrees(
    out_deg: &[u32],
    relation_counts: &[u32],
    params: &Hyperparameters,
    mc_v: usize,
    mr_v: usize,
    ro_delta: bool,
) -> GroupWeights {
    let n_values = out_deg.len();
    let mut gamma_i = vec![0.0f32; n_values];
    let mut delta_i = vec![0.0f32; n_values];
    for i in 0..n_values {
        if out_deg[i] > 0 {
            gamma_i[i] = per_source_weight(params.gamma, out_deg[i], relation_counts[i]);
            delta_i[i] = if ro_delta {
                delta_hat_weight(params.delta, mc_v, mr_v)
            } else {
                per_source_weight(params.delta, out_deg[i], relation_counts[i])
            };
        }
    }
    GroupWeights { gamma_i, delta_i, mr: mr_v, mc: mc_v }
}

/// Per-node β of Eq. 12.
pub fn beta_i(relation_counts: &[u32], beta: f32) -> Vec<f32> {
    relation_counts.iter().map(|&r| beta / (r as f32 + 1.0)).collect()
}

/// The Eq. 7 / Eq. 24 convexity check for the RO objective.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamCheck {
    /// True when Ψ is provably convex under the appendix condition
    /// `αᵢ ≥ 4 Σ_r Σ_{j:(i,j)∈Ẽr} δ^r_i` for every node.
    pub convex: bool,
    /// The worst (largest) value of `4 Σ δ` encountered, to compare with α.
    pub worst_delta_mass: f32,
    /// Id of the worst node (diagnostics).
    pub worst_node: usize,
}

/// Evaluate the convexity condition for the RO parameterization.
///
/// For a node `i` that is a source of group `r` with out-degree `odr(i)`,
/// the negative-pair set `Ẽr(i)` has `|targets(r)| − odr(i)` members, each
/// weighted `δ/(mc(r)·mr(r))`. The reverse direction counts too: a target
/// `j` of `r` with in-degree `idr(j)` carries `|sources(r)| − idr(j)`
/// more, because the RO objective repels along both directions.
pub fn check_convexity(
    groups: &[RelationGroup],
    relation_counts: &[u32],
    params: &Hyperparameters,
    n_values: usize,
) -> ParamCheck {
    let mut delta_mass = vec![0.0f32; n_values];
    let mut deg = Degrees::new(n_values);
    for group in groups {
        deg.count(&group.edges);
        let delta_r = delta_hat_weight(params.delta, deg.mc(), deg.mr(relation_counts));
        let n_targets = deg.targets.len() as f32;
        for &i in &deg.sources {
            let neg_count = (n_targets - deg.fwd[i as usize] as f32).max(0.0);
            delta_mass[i as usize] += delta_r * neg_count;
        }
        // The RO kernel repels both directions of every group: a target
        // `j` is pushed from each source it is not related to as well.
        let n_sources = deg.sources.len() as f32;
        for &j in &deg.targets {
            let neg_count = (n_sources - deg.inv[j as usize] as f32).max(0.0);
            delta_mass[j as usize] += delta_r * neg_count;
        }
    }
    let (worst_node, &worst) = delta_mass
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .unwrap_or((0, &0.0));
    ParamCheck {
        convex: params.alpha >= 4.0 * worst
            && params.alpha >= 0.0
            && params.beta >= 0.0
            && params.gamma >= 0.0,
        worst_delta_mass: 4.0 * worst,
        worst_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TextValueCatalog;
    use crate::problem::RetrofitProblem;
    use crate::relations::{relation_type_counts, RelationKind};
    use retro_embed::EmbeddingSet;

    fn group(edges: Vec<(u32, u32)>) -> RelationGroup {
        RelationGroup::new("a.x~b.y".into(), 0, 1, RelationKind::RowWise, edges)
    }

    /// A problem of `n` values whose only relation group is `group(edges)`.
    fn problem(n: usize, edges: Vec<(u32, u32)>) -> RetrofitProblem {
        let mut catalog = TextValueCatalog::default();
        let a = catalog.add_category("a", "x");
        catalog.add_category("b", "y");
        for k in 0..n {
            catalog.intern(a, &format!("v{k}"));
        }
        let base = EmbeddingSet::new(vec!["v0".into()], vec![vec![1.0]]);
        RetrofitProblem::from_parts(catalog, vec![group(edges)], &base)
    }

    #[test]
    fn beta_weighted_by_relation_types() {
        let b = beta_i(&[0, 1, 3], 2.0);
        assert_eq!(b, vec![2.0, 1.0, 0.5]);
    }

    #[test]
    fn gamma_matches_eq12_hand_computation() {
        // Node 0 has out-degree 2 in this group and |R0| = 1 (only source
        // here). γ^r_0 = γ / (2 · (1+1)) = γ/4.
        let p = problem(3, vec![(0, 1), (0, 2)]);
        assert_eq!(p.relation_counts, vec![1, 1, 1]);
        let w = &p.directed_groups(&Hyperparameters::new(1.0, 0.0, 2.0, 1.0), false)[0].own;
        assert!((w.gamma_i[0] - 0.5).abs() < 1e-6);
        assert_eq!(w.gamma_i[1], 0.0); // not a source
    }

    #[test]
    fn ro_delta_uses_mc_times_mr() {
        // edges (0,1),(0,2),(3,1): sources {0,3}, targets {1,2} → mc=2.
        // counts: all participants have 1 group → mr = 2.
        let p = problem(4, vec![(0, 1), (0, 2), (3, 1)]);
        let w = &p.directed_groups(&Hyperparameters::new(1.0, 0.0, 1.0, 8.0), true)[0].own;
        assert_eq!(w.mc, 2);
        assert_eq!(w.mr, 2);
        assert!((w.delta_i[0] - 2.0).abs() < 1e-6); // 8/(2·2)
        assert!((w.delta_i[3] - 2.0).abs() < 1e-6);
        assert_eq!(w.delta_i[1], 0.0);
    }

    #[test]
    fn rn_delta_uses_outdegree() {
        let p = problem(4, vec![(0, 1), (0, 2), (3, 1)]);
        let w = &p.directed_groups(&Hyperparameters::new(1.0, 0.0, 1.0, 8.0), false)[0].own;
        // Node 0: od 2, |R0|+1 = 2 → 8/(2·2) = 2. Node 3: od 1 → 8/2 = 4.
        assert!((w.delta_i[0] - 2.0).abs() < 1e-6);
        assert!((w.delta_i[3] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn convexity_passes_for_small_delta() {
        let g = group(vec![(0, 1), (0, 2), (3, 1)]);
        let counts = relation_type_counts(std::slice::from_ref(&g), 4);
        let check = check_convexity(&[g], &counts, &Hyperparameters::new(10.0, 0.0, 1.0, 0.5), 4);
        assert!(check.convex);
    }

    #[test]
    fn convexity_fails_for_large_delta() {
        let g = group(vec![(0, 1), (0, 2), (3, 1)]);
        let counts = relation_type_counts(std::slice::from_ref(&g), 4);
        // Node 3 has 1 negative pair (target 2), δ^r = 100/(2·2)=25,
        // 4·25 = 100 > α = 1.
        let check = check_convexity(&[g], &counts, &Hyperparameters::new(1.0, 0.0, 1.0, 100.0), 4);
        assert!(!check.convex);
        assert!(check.worst_delta_mass > 1.0);
    }

    #[test]
    fn convexity_trivially_holds_with_zero_delta() {
        let g = group(vec![(0, 1)]);
        let counts = relation_type_counts(std::slice::from_ref(&g), 2);
        let check = check_convexity(&[g], &counts, &Hyperparameters::new(0.0, 1.0, 1.0, 0.0), 2);
        assert!(check.convex);
        assert_eq!(check.worst_delta_mass, 0.0);
    }
}
