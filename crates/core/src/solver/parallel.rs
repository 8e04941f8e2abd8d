//! Multi-threaded solvers (RN and RO).
//!
//! The paper measures everything single-threaded (§5.3), but an adopter of
//! the library wants the cores they paid for. Both solvers' iterations are
//! a sparse matrix product plus row-local postprocessing, so they partition
//! cleanly: each worker computes a disjoint row range of the operator
//! product and the subsequent per-row update, while the per-group target
//! sums/centroids are themselves partitioned by *group* across the same
//! worker pool (each group written by exactly one worker).
//!
//! Results are bit-identical to the sequential [`super::solve_rn`] /
//! [`super::solve_ro`] — the parallelism only reorders independent row and
//! group computations. This is guaranteed structurally for both solvers:
//! the sequential entry points and the `*_parallel` ones run the same
//! kernels (`RoKernel` in `ro.rs`, `RnKernel` in `rn.rs`) and differ only
//! in how many threads the partitions are spread across; `threads = 1`
//! runs the phases inline on the calling thread.

use retro_linalg::Matrix;

use crate::hyper::Hyperparameters;
use crate::problem::RetrofitProblem;
use crate::solver::rn::RnKernel;
use crate::solver::ro::{NegativeMode, RoKernel};
use crate::solver::RowKernel;

/// Run the RO solver with `threads` workers.
///
/// Same partition shape as [`solve_rn_parallel`]: the Eq. 15 target sums
/// are computed in a group-partitioned phase, after which every output row
/// is independent. Results are **bit-identical** to [`super::solve_ro`]
/// for every thread count — including `threads = 1`, which runs both
/// phases inline on the calling thread.
///
/// ```
/// use retro_core::solver::{solve_ro, solve_ro_parallel};
/// use retro_core::{Hyperparameters, RetrofitProblem};
/// use retro_embed::EmbeddingSet;
/// use retro_store::{sql, Database};
///
/// let mut db = Database::new();
/// sql::run_script(&mut db, "
///     CREATE TABLE countries (id INTEGER PRIMARY KEY, name TEXT);
///     CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT,
///                          country_id INTEGER REFERENCES countries(id));
///     INSERT INTO countries VALUES (1, 'france'), (2, 'usa');
///     INSERT INTO movies VALUES (1, 'amelie', 1), (2, 'alien', 2);
/// ").unwrap();
/// let base = EmbeddingSet::new(
///     vec!["amelie".into(), "alien".into(), "france".into(), "usa".into()],
///     vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.9, 0.1], vec![0.1, 0.9]],
/// );
/// let problem = RetrofitProblem::build(&db, &base, &[], &[]);
/// let params = Hyperparameters::paper_ro();
/// let serial = solve_ro(&problem, &params, 10);
/// let parallel = solve_ro_parallel(&problem, &params, 10, 4);
/// assert_eq!(serial.max_abs_diff(&parallel), 0.0);
/// ```
pub fn solve_ro_parallel(
    problem: &RetrofitProblem,
    params: &Hyperparameters,
    iterations: usize,
    threads: usize,
) -> Matrix {
    RoKernel::new(problem, params, NegativeMode::Blanket).run(None, iterations, threads)
}

/// Run the RO solver with `threads` workers from an explicit starting
/// matrix (the multi-threaded [`super::solve_ro_seeded`]; used by warm-start
/// incremental maintenance at scale).
///
/// # Panics
/// Panics if `seed` is `Some` and its shape differs from `(n, dim)`.
pub fn solve_ro_seeded_parallel(
    problem: &RetrofitProblem,
    params: &Hyperparameters,
    iterations: usize,
    seed: Option<&Matrix>,
    threads: usize,
) -> Matrix {
    RoKernel::new(problem, params, NegativeMode::Blanket).run(seed, iterations, threads)
}

/// Run the RN solver with `threads` workers.
///
/// Results are **bit-identical** to [`super::solve_rn`] for every thread
/// count: both run the shared `RnKernel` (see `rn.rs`), whose group- and
/// row-partitioned phases never reorder the floating-point operations that
/// produce any given centroid or row.
pub fn solve_rn_parallel(
    problem: &RetrofitProblem,
    params: &Hyperparameters,
    iterations: usize,
    threads: usize,
) -> Matrix {
    solve_rn_seeded_parallel(problem, params, iterations, None, threads)
}

/// Run the RN solver with `threads` workers from an explicit starting
/// matrix (the multi-threaded [`super::solve_rn_seeded`]; used by
/// warm-start incremental maintenance).
///
/// # Panics
/// Panics if `seed` is `Some` and its shape differs from `(n, dim)`.
pub fn solve_rn_seeded_parallel(
    problem: &RetrofitProblem,
    params: &Hyperparameters,
    iterations: usize,
    seed: Option<&Matrix>,
    threads: usize,
) -> Matrix {
    RnKernel::new(problem, params).run(seed, iterations, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TextValueCatalog;
    use crate::relations::{RelationGroup, RelationKind};
    use crate::solver::solve_rn;
    use retro_embed::EmbeddingSet;

    /// A bipartite problem with genuinely irregular adjacency: every pair
    /// `(s_k, t_k)` is related, and two strided cross-link sweeps give
    /// sources uneven fan-out and targets uneven fan-in (the strides 5 and
    /// 7 are coprime with most lengths, so the extra edges scatter across
    /// the whole target list instead of clustering).
    fn problem(n_extra: usize) -> RetrofitProblem {
        let n_pairs = 4 + n_extra;
        let mut catalog = TextValueCatalog::default();
        let ca = catalog.add_category("a", "x");
        let cb = catalog.add_category("b", "y");
        let mut sources = Vec::new();
        let mut targets = Vec::new();
        let mut tokens = Vec::new();
        let mut vectors = Vec::new();
        for k in 0..n_pairs {
            sources.push(catalog.intern(ca, &format!("s{k}")));
            targets.push(catalog.intern(cb, &format!("t{k}")));
            tokens.push(format!("s{k}"));
            vectors.push(vec![k as f32 * 0.1, 1.0, -0.3 * k as f32]);
            tokens.push(format!("t{k}"));
            vectors.push(vec![1.0 - k as f32 * 0.05, -0.5, 0.2]);
        }
        let mut edges = Vec::new();
        for k in 0..n_pairs {
            edges.push((sources[k], targets[k]));
            let cross = (k * 5 + 2) % n_pairs;
            if k % 3 > 0 && cross != k {
                edges.push((sources[k], targets[cross]));
            }
            let far = (k * 7 + 3) % n_pairs;
            if k % 4 == 0 && far != k {
                edges.push((sources[k], targets[far]));
            }
        }
        let groups =
            vec![RelationGroup::new("a.x~b.y".into(), ca, cb, RelationKind::ForeignKey, edges)];
        let base = EmbeddingSet::new(tokens, vectors);
        RetrofitProblem::from_parts(catalog, groups, &base)
    }

    #[test]
    fn problem_helper_has_irregular_adjacency() {
        // Guard the helper itself: the cross-links must produce uneven
        // fan-in (some target related to several sources, some to one).
        let p = problem(20);
        let dg = p.directed_groups(&Hyperparameters::paper_rn(), false);
        let mut fan_in = std::collections::HashMap::new();
        for &(_, j) in &dg[0].group.edges {
            *fan_in.entry(j).or_insert(0u32) += 1;
        }
        let max = fan_in.values().max().copied().unwrap_or(0);
        let min = fan_in.values().min().copied().unwrap_or(0);
        assert!(max >= 2 && min == 1, "fan-in should be uneven, got {min}..{max}");
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let p = problem(20);
        let params = Hyperparameters::paper_rn();
        let serial = solve_rn(&p, &params, 10);
        for threads in [1, 2, 3, 8] {
            let parallel = solve_rn_parallel(&p, &params, 10, threads);
            assert_eq!(
                serial.max_abs_diff(&parallel),
                0.0,
                "threads={threads} diverged from sequential RN"
            );
        }
    }

    #[test]
    fn single_thread_runs_the_row_phase_inline() {
        let p = problem(4);
        let params = Hyperparameters::paper_rn();
        let a = solve_rn(&p, &params, 5);
        let b = solve_rn_parallel(&p, &params, 5, 1);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn empty_problem_is_handled() {
        let catalog = TextValueCatalog::default();
        let base = EmbeddingSet::new(vec!["t".into()], vec![vec![0.0]]);
        let p = RetrofitProblem::from_parts(catalog, Vec::new(), &base);
        let w = solve_rn_parallel(&p, &Hyperparameters::default(), 3, 4);
        assert_eq!(w.shape(), (0, 1));
    }

    #[test]
    fn rn_seeded_parallel_matches_seeded_serial() {
        let p = problem(12);
        let params = Hyperparameters::paper_rn();
        let warm = solve_rn(&p, &params, 3);
        let serial = crate::solver::solve_rn_seeded(&p, &params, 5, Some(&warm));
        for threads in [1, 2, 3, 8] {
            let parallel = solve_rn_seeded_parallel(&p, &params, 5, Some(&warm), threads);
            assert_eq!(serial.max_abs_diff(&parallel), 0.0, "threads={threads} (seeded)");
        }
    }

    #[test]
    fn ro_parallel_matches_serial_bit_for_bit() {
        let p = problem(20);
        let params = Hyperparameters::paper_ro();
        let serial = crate::solver::solve_ro(&p, &params, 10);
        for threads in [1, 2, 3, 8] {
            let parallel = solve_ro_parallel(&p, &params, 10, threads);
            assert_eq!(
                serial.max_abs_diff(&parallel),
                0.0,
                "threads={threads} diverged from sequential RO"
            );
        }
    }

    #[test]
    fn ro_seeded_parallel_matches_seeded_serial() {
        let p = problem(12);
        let params = Hyperparameters::paper_ro();
        let warm = crate::solver::solve_ro(&p, &params, 3);
        let serial = crate::solver::ro::solve_ro_seeded(&p, &params, 5, Some(&warm));
        for threads in [1, 2, 3, 8] {
            let parallel = solve_ro_seeded_parallel(&p, &params, 5, Some(&warm), threads);
            assert_eq!(serial.max_abs_diff(&parallel), 0.0, "threads={threads} (seeded)");
        }
    }

    #[test]
    fn zero_dimension_problem_is_handled() {
        let mut catalog = TextValueCatalog::default();
        let c = catalog.add_category("a", "x");
        catalog.intern(c, "v");
        let base = EmbeddingSet::empty(0);
        let p = RetrofitProblem::from_parts(catalog, Vec::new(), &base);
        assert_eq!(solve_rn_parallel(&p, &Hyperparameters::default(), 3, 4).shape(), (1, 0));
        assert_eq!(solve_ro_parallel(&p, &Hyperparameters::paper_ro(), 3, 4).shape(), (1, 0));
    }

    #[test]
    fn ro_parallel_empty_problem_is_handled() {
        let catalog = TextValueCatalog::default();
        let base = EmbeddingSet::new(vec!["t".into()], vec![vec![0.0]]);
        let p = RetrofitProblem::from_parts(catalog, Vec::new(), &base);
        let w = solve_ro_parallel(&p, &Hyperparameters::paper_ro(), 3, 4);
        assert_eq!(w.shape(), (0, 1));
    }
}
