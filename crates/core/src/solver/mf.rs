//! The Faruqui et al. baseline (MF): Eq. 3 updates on the flattened,
//! undirected relation graph with the standard configuration `αᵢ = 1`,
//! `βᵢ = 1/outdeg(i)` (§5.2).
//!
//! The relational structure is collapsed to a plain neighbour graph — no
//! categories, no relation-type weighting, no repulsion — which is exactly
//! why MF underperforms RO/RN on the relational tasks while being the
//! fastest method in Table 2.

use std::collections::HashSet;

use retro_linalg::{vector, Matrix};

use crate::problem::RetrofitProblem;

/// Run the MF baseline for `iterations` rounds (the paper uses 20).
///
/// Updates are performed in place over nodes in id order, as in Faruqui's
/// reference implementation (Gauss–Seidel style).
pub(crate) fn solve_mf(problem: &RetrofitProblem, iterations: usize) -> Matrix {
    let n = problem.len();
    let dim = problem.dim();
    if n == 0 {
        return Matrix::zeros(0, dim);
    }

    // Flatten every relation group into undirected, deduplicated adjacency.
    let mut edge_set: HashSet<(u32, u32)> = HashSet::new();
    for group in &problem.groups {
        for &(i, j) in &group.edges {
            edge_set.insert((i.min(j), i.max(j)));
        }
    }
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(i, j) in &edge_set {
        adjacency[i as usize].push(j);
        adjacency[j as usize].push(i);
    }

    let mut w = problem.w0.to_matrix();
    let mut acc = vec![0.0f32; dim];
    for _ in 0..iterations {
        #[allow(clippy::needless_range_loop)] // in-place Gauss–Seidel order
        for i in 0..n {
            let neighbors = &adjacency[i];
            if neighbors.is_empty() {
                continue;
            }
            // Eq. 3 with αᵢ=1, βᵢ=1/deg: vᵢ = (v'ᵢ + mean(neighbours)) / 2.
            let inv_deg = 1.0 / neighbors.len() as f32;
            acc.copy_from_slice(problem.w0.row(i));
            for &j in neighbors {
                vector::axpy(inv_deg, w.row(j as usize), &mut acc);
            }
            vector::scale(0.5, &mut acc);
            w.set_row(i, &acc);
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TextValueCatalog;
    use crate::relations::{RelationGroup, RelationKind};
    use retro_embed::EmbeddingSet;

    fn problem(edges: Vec<(u32, u32)>) -> RetrofitProblem {
        let mut catalog = TextValueCatalog::default();
        let ca = catalog.add_category("t", "a");
        let cb = catalog.add_category("t", "b");
        catalog.intern(ca, "p");
        catalog.intern(ca, "q");
        catalog.intern(cb, "r");
        let groups =
            vec![RelationGroup::new("t.a~t.b".into(), ca, cb, RelationKind::RowWise, edges)];
        let base = EmbeddingSet::new(
            vec!["p".into(), "q".into(), "r".into()],
            vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![-1.0, 0.0]],
        );
        RetrofitProblem::from_parts(catalog, groups, &base)
    }

    #[test]
    fn single_iteration_matches_hand_computation() {
        // Edge p(0)–r(2). In-place order: v0 = (w0_0 + v2)/2 = ([1,0]+[-1,0])/2
        // = [0,0]; then v2 = (w0_2 + v0)/2 = ([-1,0]+[0,0])/2 = [-0.5, 0].
        let p = problem(vec![(0, 2)]);
        let w = solve_mf(&p, 1);
        assert!(vector::approx_eq(w.row(0), &[0.0, 0.0], 1e-6));
        assert!(vector::approx_eq(w.row(2), &[-0.5, 0.0], 1e-6));
    }

    #[test]
    fn isolated_nodes_keep_original_vectors() {
        let p = problem(vec![(0, 2)]);
        let w = solve_mf(&p, 20);
        assert_eq!(w.row(1), p.w0.row(1));
    }

    #[test]
    fn duplicate_edges_across_groups_count_once() {
        // Same edge in the group twice (dedup in RelationGroup) plus the
        // flattening dedup: degree must be 1, not 2.
        let p = problem(vec![(0, 2), (0, 2)]);
        let w1 = solve_mf(&p, 1);
        let p2 = problem(vec![(0, 2)]);
        let w2 = solve_mf(&p2, 1);
        assert!(w1.max_abs_diff(&w2) < 1e-7);
    }

    #[test]
    fn connected_nodes_converge_between_originals() {
        let p = problem(vec![(0, 2)]);
        let w = solve_mf(&p, 50);
        // Fixed point of v0 = (a + v2)/2, v2 = (c + v0)/2 with a=[1,0],
        // c=[-1,0]: v0 = [1/3, 0], v2 = [-1/3, 0].
        assert!(vector::approx_eq(w.row(0), &[1.0 / 3.0, 0.0], 1e-4));
        assert!(vector::approx_eq(w.row(2), &[-1.0 / 3.0, 0.0], 1e-4));
    }

    #[test]
    fn zero_iterations_returns_w0() {
        let p = problem(vec![(0, 2)]);
        let w = solve_mf(&p, 0);
        assert_eq!(w.max_abs_diff(&p.w0.to_matrix()), 0.0);
    }
}
