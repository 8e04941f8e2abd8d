//! Evaluation of the retrofitting objective Ψ (Eq. 4–6) under the RO
//! parameterization — used for convergence diagnostics and the property
//! tests that validate the convexity theory.
//!
//! The weights come from one `solver::Degrees` pass per forward group, as
//! in the solver kernels. Each edge `(i, j)` is attracted with
//! `γ^r_i + γ^r̄_j` (both directions). Under Eq. 13, `δ̂r` is one value
//! for the whole group, and the related pairs summed over every source of
//! a direction are exactly the group's edges. So a direction with sources
//! `S` and targets `T` repels with
//!
//! ```text
//! δ̂r · (Σ_{s∈S} Σ_{k∈T} ‖v_s − v_k‖²  −  Σ_{(i,j)∈Er} ‖vᵢ − vⱼ‖²)
//! ```
//!
//! where the first sum per source is `|T|·‖v_s‖² − 2·v_s·t + Σ_k‖v_k‖²`
//! with `t = Σ_{k∈T} v_k`, and the edge distances are the ones the
//! attraction term already computes. Ψ costs `O(E·D)` time per group plus
//! `O((|S|+|T|)·D)` for its endpoints, and `O(n + E)` memory.

use retro_linalg::{vector, Matrix};

use crate::hyper::{delta_hat_weight, per_source_weight, Hyperparameters};
use crate::problem::RetrofitProblem;
use crate::solver::Degrees;

/// The four components of Ψ(W).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossBreakdown {
    /// `Σ αᵢ‖vᵢ − v'ᵢ‖²` — anchor term.
    pub anchor: f64,
    /// `Σ βᵢ‖vᵢ − cᵢ‖²` — categorial term (Eq. 5).
    pub categorial: f64,
    /// `Σ_r Σ_{(i,j)∈Er} γ^r_i‖vᵢ − vⱼ‖²` — relational attraction.
    pub attraction: f64,
    /// `Σ_r Σ_{(i,k)∈Ẽr} δ^r_i‖vᵢ − vₖ‖²` — relational repulsion
    /// (subtracted in Ψ).
    pub repulsion: f64,
}

impl LossBreakdown {
    /// Ψ(W) = anchor + categorial + attraction − repulsion.
    pub fn total(&self) -> f64 {
        self.anchor + self.categorial + self.attraction - self.repulsion
    }
}

/// Evaluate Ψ(W) for an embedding matrix under the RO weight derivation,
/// in one pass over each group's edges, sources and targets (see the
/// module docs for the algebra).
pub fn evaluate_loss(
    problem: &RetrofitProblem,
    params: &Hyperparameters,
    w: &Matrix,
) -> LossBreakdown {
    let n = problem.len();
    assert_eq!(w.rows(), n, "evaluate_loss: row count mismatch");
    let beta = problem.beta_weights(params);

    let mut anchor = 0.0f64;
    let mut categorial = 0.0f64;
    for (i, &b) in beta.iter().enumerate() {
        anchor += params.alpha as f64 * vector::dist_sq(w.row(i), problem.w0.row(i)) as f64;
        if b != 0.0 {
            categorial += b as f64 * vector::dist_sq(w.row(i), problem.centroid_of(i)) as f64;
        }
    }

    let counts = &problem.relation_counts;
    let mut attraction = 0.0f64;
    let mut repulsion = 0.0f64;
    let mut deg = Degrees::new(n);
    let mut t_sum = vec![0.0f32; w.cols()];
    for group in &problem.groups {
        deg.count(&group.edges);
        let mut related = 0.0f64;
        for &(i, j) in &group.edges {
            let (i, j) = (i as usize, j as usize);
            let d = vector::dist_sq(w.row(i), w.row(j)) as f64;
            let g_fwd = per_source_weight(params.gamma, deg.fwd[i], counts[i]) as f64;
            let g_inv = per_source_weight(params.gamma, deg.inv[j], counts[j]) as f64;
            attraction += (g_fwd + g_inv) * d;
            related += d;
        }
        let dh = delta_hat_weight(params.delta, deg.mc(), deg.mr(counts)) as f64;
        if dh == 0.0 {
            continue;
        }
        for (sources, targets) in [(&deg.sources, &deg.targets), (&deg.targets, &deg.sources)] {
            // Σ_s Σ_{k∈T} ‖v_s − v_k‖² from t = Σ_k v_k and Σ_k ‖v_k‖².
            vector::zero(&mut t_sum);
            let mut sq_sum = 0.0f64;
            for &k in targets {
                vector::axpy(1.0, w.row(k as usize), &mut t_sum);
                sq_sum += vector::norm_sq(w.row(k as usize)) as f64;
            }
            let t_count = targets.len() as f64;
            let mut all = 0.0f64;
            for &s in sources {
                let vs = w.row(s as usize);
                all += t_count * vector::norm_sq(vs) as f64 - 2.0 * vector::dot(vs, &t_sum) as f64
                    + sq_sum;
            }
            // The related pairs belong to Er, not Ẽr.
            repulsion += dh * (all - related);
        }
    }

    LossBreakdown { anchor, categorial, attraction, repulsion }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TextValueCatalog;
    use crate::relations::{RelationGroup, RelationKind};
    use crate::solver::{solve, Solver};
    use retro_embed::EmbeddingSet;

    fn problem() -> RetrofitProblem {
        let mut catalog = TextValueCatalog::default();
        let ca = catalog.add_category("movies", "title");
        let cb = catalog.add_category("countries", "name");
        let a = catalog.intern(ca, "amelie");
        let b = catalog.intern(ca, "inception");
        let c = catalog.intern(ca, "godfather");
        let x = catalog.intern(cb, "france");
        let y = catalog.intern(cb, "usa");
        let groups = vec![RelationGroup::new(
            "movies.title~countries.name".into(),
            ca,
            cb,
            RelationKind::ForeignKey,
            vec![(a, x), (b, y), (c, y)],
        )];
        let base = EmbeddingSet::new(
            vec![
                "amelie".into(),
                "inception".into(),
                "godfather".into(),
                "france".into(),
                "usa".into(),
            ],
            vec![
                vec![1.0, 0.2],
                vec![-0.3, 1.0],
                vec![0.1, -0.8],
                vec![0.9, 0.5],
                vec![-0.5, -0.5],
            ],
        );
        RetrofitProblem::from_parts(catalog, groups, &base)
    }

    #[test]
    fn loss_is_zero_at_w0_with_alpha_only() {
        let p = problem();
        let params = Hyperparameters::new(1.0, 0.0, 0.0, 0.0);
        let l = evaluate_loss(&p, &params, &p.w0.to_matrix());
        assert_eq!(l.anchor, 0.0);
        assert_eq!(l.total(), 0.0);
    }

    #[test]
    fn attraction_counts_both_directions() {
        let p = problem();
        let params = Hyperparameters::new(1.0, 0.0, 2.0, 0.0);
        let l = evaluate_loss(&p, &params, &p.w0.to_matrix());
        // Hand value: forward γ^r_i = 2/(od·(|Ri|+1)) = 2/(1·2) = 1 for each
        // of the 3 movie sources. Inverted: usa has od 2 → γ = 2/(2·2)=0.5,
        // france od 1 → 1. Distances: a–x: 0.01+0.09=0.1; b–y: 0.04+2.25=2.29;
        // c–y: 0.36+0.09=0.45.
        let forward = 0.1 + 2.29 + 0.45;
        let backward = 1.0 * 0.1 + 0.5 * (2.29 + 0.45);
        assert!((l.attraction - (forward + backward)) / (forward + backward) < 1e-5);
    }

    #[test]
    fn solver_reduces_loss_under_convex_config() {
        let p = problem();
        // Convex per the Eq. 24 check: generous α, tiny δ.
        let params = Hyperparameters::new(4.0, 0.5, 1.0, 0.1);
        let check = crate::hyper::check_convexity(&p.groups, &p.relation_counts, &params, p.len());
        assert!(check.convex, "test premise: configuration must be convex");
        let before = evaluate_loss(&p, &params, &p.w0.to_matrix()).total();
        let w = solve(&p, Solver::Ro, &params, 20, None);
        let after = evaluate_loss(&p, &params, &w).total();
        assert!(after <= before + 1e-6, "after {after} before {before}");
    }

    #[test]
    fn more_iterations_never_increase_loss_much() {
        let p = problem();
        let params = Hyperparameters::new(4.0, 0.5, 1.0, 0.1);
        let mut prev = f64::INFINITY;
        for iters in [1usize, 2, 5, 10, 20] {
            let w = solve(&p, Solver::Ro, &params, iters, None);
            let loss = evaluate_loss(&p, &params, &w).total();
            assert!(loss <= prev + 1e-6, "iters {iters}: {loss} > {prev}");
            prev = loss;
        }
    }

    #[test]
    fn repulsion_increases_when_unrelated_vectors_coincide() {
        let p = problem();
        let params = Hyperparameters::new(1.0, 0.0, 0.0, 1.0);
        // Collapse every vector onto one point: all distances zero →
        // repulsion zero. Spread them out → repulsion grows.
        let collapsed = Matrix::zeros(p.len(), 2);
        let l0 = evaluate_loss(&p, &params, &collapsed);
        assert_eq!(l0.repulsion, 0.0);
        let l1 = evaluate_loss(&p, &params, &p.w0.to_matrix());
        assert!(l1.repulsion > 0.0);
    }
}
