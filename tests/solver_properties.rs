//! Property-based tests of the solver invariants, on randomly generated
//! retrofitting problems.

use proptest::prelude::*;
use retro::core::catalog::TextValueCatalog;
use retro::core::hyper::check_convexity;
use retro::core::loss::evaluate_loss;
use retro::core::relations::{RelationGroup, RelationKind};
use retro::core::solver::{solve, solve_ro_enumerated, Solver};
use retro::core::{Hyperparameters, RetrofitProblem};
use retro::embed::EmbeddingSet;
use retro::linalg::vector;

/// Build a random bipartite problem from proptest-chosen edges/vectors.
fn build_problem(
    n_sources: usize,
    n_targets: usize,
    edges: Vec<(usize, usize)>,
    coords: Vec<f32>,
) -> RetrofitProblem {
    let mut catalog = TextValueCatalog::default();
    let ca = catalog.add_category("t", "a");
    let cb = catalog.add_category("t", "b");
    let mut tokens = Vec::new();
    let mut vectors = Vec::new();
    let dim = 3;
    for k in 0..n_sources {
        catalog.intern(ca, &format!("s{k}"));
        tokens.push(format!("s{k}"));
        vectors.push(
            coords[(k * dim) % coords.len().max(1)..]
                .iter()
                .chain(coords.iter().cycle())
                .take(dim)
                .copied()
                .collect(),
        );
    }
    for k in 0..n_targets {
        catalog.intern(cb, &format!("t{k}"));
        tokens.push(format!("t{k}"));
        vectors.push(
            coords[((n_sources + k) * dim) % coords.len().max(1)..]
                .iter()
                .chain(coords.iter().cycle())
                .take(dim)
                .copied()
                .collect(),
        );
    }
    let edge_ids: Vec<(u32, u32)> = edges
        .into_iter()
        .map(|(i, j)| ((i % n_sources) as u32, (n_sources + j % n_targets) as u32))
        .collect();
    let groups =
        vec![RelationGroup::new("t.a~t.b".into(), ca, cb, RelationKind::RowWise, edge_ids)];
    let base = EmbeddingSet::new(tokens, vectors);
    RetrofitProblem::from_parts(catalog, groups, &base)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rn_rows_are_unit_or_zero(
        edges in prop::collection::vec((0usize..6, 0usize..5), 1..12),
        coords in prop::collection::vec(-1.0f32..1.0, 6),
        gamma in 0.5f32..4.0,
        delta in 0.0f32..2.0,
    ) {
        let p = build_problem(6, 5, edges, coords);
        let w = solve(&p, Solver::Rn, &Hyperparameters::new(1.0, 0.5, gamma, delta), 8, None);
        for r in 0..w.rows() {
            let norm = vector::norm(w.row(r));
            prop_assert!(norm < 1.0 + 1e-4, "row {r} norm {norm}");
            prop_assert!(norm < 1e-4 || (norm - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn ro_reduces_loss_under_convex_configs(
        edges in prop::collection::vec((0usize..5, 0usize..4), 1..10),
        coords in prop::collection::vec(-1.0f32..1.0, 6),
    ) {
        let p = build_problem(5, 4, edges, coords);
        let params = Hyperparameters::new(6.0, 0.5, 1.0, 0.2);
        let check = check_convexity(&p.groups, &p.relation_counts, &params, p.len());
        prop_assume!(check.convex);
        let before = evaluate_loss(&p, &params, &p.w0).total();
        let w = solve(&p, Solver::Ro, &params, 15, None);
        let after = evaluate_loss(&p, &params, &w).total();
        prop_assert!(after <= before + 1e-4, "loss rose: {before} -> {after}");
    }

    #[test]
    fn enumerated_ro_equals_optimized_ro(
        edges in prop::collection::vec((0usize..5, 0usize..4), 1..10),
        coords in prop::collection::vec(-1.0f32..1.0, 6),
        delta in 0.0f32..2.0,
    ) {
        let p = build_problem(5, 4, edges, coords);
        let params = Hyperparameters::new(1.0, 0.0, 2.0, delta);
        let fast = solve(&p, Solver::Ro, &params, 8, None);
        let slow = solve_ro_enumerated(&p, &params, 8);
        prop_assert!(fast.max_abs_diff(&slow) < 1e-3,
            "divergence {}", fast.max_abs_diff(&slow));
    }

    #[test]
    fn parallel_rn_equals_serial_rn(
        edges in prop::collection::vec((0usize..8, 0usize..6), 1..16),
        coords in prop::collection::vec(-1.0f32..1.0, 6),
        threads in 2usize..5,
    ) {
        let p = build_problem(8, 6, edges, coords);
        let params = Hyperparameters::paper_rn();
        let serial = solve(&p, Solver::Rn, &params, 6, None);
        let parallel = solve(&p, Solver::Rn, &params.with_threads(threads), 6, None);
        // Exact: both run the shared `RnKernel`.
        prop_assert!(serial.max_abs_diff(&parallel) == 0.0);
    }

    #[test]
    fn mf_stays_within_the_convex_hull_bound(
        edges in prop::collection::vec((0usize..5, 0usize..4), 1..10),
        coords in prop::collection::vec(-1.0f32..1.0, 6),
    ) {
        // Every MF vector is an average of originals and neighbours, so the
        // max absolute coordinate can never exceed the initial max.
        let p = build_problem(5, 4, edges, coords);
        let bound = p.w0.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let w = solve(&p, Solver::Mf, &Hyperparameters::default(), 20, None);
        let out = w.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        prop_assert!(out <= bound + 1e-5, "escaped hull: {out} > {bound}");
    }

    #[test]
    fn ro_loss_is_non_increasing_across_iterations(
        edges in prop::collection::vec((0usize..6, 0usize..5), 1..12),
        coords in prop::collection::vec(-1.0f32..1.0, 6),
        alpha in 2.0f32..8.0,
        beta in 0.0f32..1.0,
        gamma in 0.1f32..2.0,
        delta in 0.0f32..0.5,
    ) {
        // Under a convex configuration (Eq. 24), each extra RO iteration is
        // a further step of the same fixed-point descent, so Ψ evaluated at
        // the k-iteration output is non-increasing in k. RN is deliberately
        // not asserted here: its row normalization optimizes the §4.2
        // normalized series, not Ψ, and random bipartite problems routinely
        // produce Ψ increases (and even non-convergent oscillations) for it.
        let p = build_problem(6, 5, edges, coords);
        let params = Hyperparameters::new(alpha, beta, gamma, delta);
        let check = check_convexity(&p.groups, &p.relation_counts, &params, p.len());
        prop_assume!(check.convex);
        let mut prev = f64::INFINITY;
        for iters in [1usize, 2, 4, 8, 15] {
            let w = solve(&p, Solver::Ro, &params, iters, None);
            let loss = evaluate_loss(&p, &params, &w).total();
            prop_assert!(
                loss <= prev + 1e-4,
                "iters {iters}: loss rose {prev} -> {loss}"
            );
            prev = loss;
        }
    }

    #[test]
    fn rn_iterates_are_normalized_and_finite_at_every_prefix(
        edges in prop::collection::vec((0usize..6, 0usize..5), 1..12),
        coords in prop::collection::vec(-1.0f32..1.0, 6),
        gamma in 0.5f32..4.0,
        delta in 0.0f32..2.0,
    ) {
        // The guarantee RN does give (§4.2): normalization bounds the series
        // at every iteration count, not just the final one.
        let p = build_problem(6, 5, edges, coords);
        let params = Hyperparameters::new(1.0, 0.5, gamma, delta);
        for iters in [1usize, 2, 4, 8] {
            let w = solve(&p, Solver::Rn, &params, iters, None);
            for r in 0..w.rows() {
                let norm = vector::norm(w.row(r));
                prop_assert!(norm.is_finite(), "iters {iters} row {r}: non-finite norm");
                prop_assert!(
                    norm < 1e-4 || (norm - 1.0).abs() < 1e-4,
                    "iters {iters} row {r}: norm {norm}"
                );
            }
        }
    }

    #[test]
    fn solvers_are_finite_for_wild_parameters(
        alpha in 0.0f32..5.0,
        beta in 0.0f32..5.0,
        gamma in 0.0f32..10.0,
        delta in 0.0f32..10.0,
        edges in prop::collection::vec((0usize..4, 0usize..4), 1..8),
        coords in prop::collection::vec(-1.0f32..1.0, 6),
    ) {
        let p = build_problem(4, 4, edges, coords);
        let params = Hyperparameters::new(alpha, beta, gamma, delta);
        for w in [solve(&p, Solver::Ro, &params, 6, None), solve(&p, Solver::Rn, &params, 6, None)] {
            prop_assert!(w.as_slice().iter().all(|v| v.is_finite()));
        }
    }
}
