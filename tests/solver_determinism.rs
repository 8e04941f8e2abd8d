//! Determinism suite for the parallel RO **and RN** solvers.
//!
//! The contract (see `retro_core::solver::solve`): each solver runs one
//! kernel (`RoKernel`, `RnKernel`) for every thread count, and
//! `Hyperparameters::threads` only spreads its group and row partitions
//! across workers. The partitions never reorder the floating-point
//! operations that produce any given centroid or row, so the result of
//! `solve` is **exactly** equal (bit for bit) for every thread count.
//!
//! Checked across multiple seeds and both synthetic datasets, per-iteration
//! and end-to-end, for cold and seeded warm starts, plus through the
//! high-level `Retro` API's thread knob.

use retro::core::solver::{solve, Solver};
use retro::core::{Hyperparameters, Retro, RetroConfig, RetrofitProblem};
use retro::datasets::{GooglePlayConfig, GooglePlayDataset, TmdbConfig, TmdbDataset};

fn tmdb_problem(seed: u64) -> RetrofitProblem {
    let data =
        TmdbDataset::generate(TmdbConfig { n_movies: 200, dim: 16, seed, ..TmdbConfig::default() });
    RetrofitProblem::build(&data.db, &data.base, &[], &[])
}

fn gplay_problem(seed: u64) -> RetrofitProblem {
    let data = GooglePlayDataset::generate(GooglePlayConfig {
        n_apps: 150,
        dim: 16,
        seed,
        ..GooglePlayConfig::default()
    });
    RetrofitProblem::build(&data.db, &data.base, &[], &[])
}

#[test]
fn n_threads_match_sequential_exactly() {
    for seed in [7u64, 99] {
        let p = tmdb_problem(seed);
        let params = Hyperparameters::paper_ro();
        let sequential = solve(&p, Solver::Ro, &params, 10, None);
        for threads in [2usize, 3, 4, 8] {
            let parallel = solve(&p, Solver::Ro, &params.with_threads(threads), 10, None);
            assert_eq!(
                sequential.max_abs_diff(&parallel),
                0.0,
                "seed {seed}, RO {threads} threads diverged from sequential"
            );
        }
    }
}

/// Every iteration prefix of `solver` matches between one thread (the
/// kernel's phases inline on the calling thread) and four: equality of the
/// final matrix alone could hide compensating divergence.
fn assert_per_iteration_parity(solver: Solver, params: Hyperparameters) {
    let p = gplay_problem(13);
    for iterations in 1..=6 {
        let inline = solve(&p, solver, &params.with_threads(1), iterations, None);
        let parallel = solve(&p, solver, &params.with_threads(4), iterations, None);
        assert_eq!(
            inline.max_abs_diff(&parallel),
            0.0,
            "{solver:?} iteration {iterations} diverged"
        );
    }
}

#[test]
fn per_iteration_states_match_bit_for_bit() {
    assert_per_iteration_parity(Solver::Ro, Hyperparameters::paper_ro());
}

#[test]
fn rn_one_thread_inline_matches_serial_per_iteration() {
    assert_per_iteration_parity(Solver::Rn, Hyperparameters::paper_rn());
}

#[test]
fn gplay_matches_across_seeds_and_thread_counts() {
    for seed in [13u64, 77] {
        let p = gplay_problem(seed);
        let params = Hyperparameters::paper_ro();
        let sequential = solve(&p, Solver::Ro, &params, 10, None);
        for threads in [2usize, 6] {
            let parallel = solve(&p, Solver::Ro, &params.with_threads(threads), 10, None);
            assert_eq!(sequential.max_abs_diff(&parallel), 0.0, "seed {seed}, threads {threads}");
        }
    }
}

#[test]
fn rn_parallel_is_bit_identical_for_every_thread_count() {
    for seed in [7u64, 99] {
        let p = tmdb_problem(seed);
        let params = Hyperparameters::paper_rn();
        let sequential = solve(&p, Solver::Rn, &params, 10, None);
        for threads in [2usize, 3, 8] {
            let parallel = solve(&p, Solver::Rn, &params.with_threads(threads), 10, None);
            assert_eq!(
                sequential.max_abs_diff(&parallel),
                0.0,
                "seed {seed}, RN {threads} threads diverged from sequential"
            );
        }
    }
}

/// Seeded warm starts (the incremental-maintenance shape) from a
/// converged-ish state, for `solver`.
fn assert_seeded_warm_starts_are_bit_identical(solver: Solver, params: Hyperparameters) {
    let p = tmdb_problem(99);
    let warm = solve(&p, solver, &params, 4, None);
    let sequential = solve(&p, solver, &params, 6, Some(&warm));
    for threads in [2usize, 3, 8] {
        let parallel = solve(&p, solver, &params.with_threads(threads), 6, Some(&warm));
        assert_eq!(
            sequential.max_abs_diff(&parallel),
            0.0,
            "seeded {solver:?} {threads} threads diverged from sequential"
        );
    }
}

#[test]
fn rn_seeded_warm_starts_are_bit_identical() {
    assert_seeded_warm_starts_are_bit_identical(Solver::Rn, Hyperparameters::paper_rn());
}

#[test]
fn ro_seeded_warm_starts_are_bit_identical() {
    assert_seeded_warm_starts_are_bit_identical(Solver::Ro, Hyperparameters::paper_ro());
}

#[test]
fn retro_api_thread_knob_is_output_invariant() {
    let data =
        TmdbDataset::generate(TmdbConfig { n_movies: 120, dim: 16, ..TmdbConfig::default() });
    for solver in [Solver::Ro, Solver::Rn] {
        let sequential = Retro::new(RetroConfig::default().with_solver(solver))
            .retrofit(&data.db, &data.base)
            .unwrap();
        let mut config = RetroConfig::default().with_solver(solver);
        config.params = config.params.with_threads(4);
        let parallel = Retro::new(config).retrofit(&data.db, &data.base).unwrap();
        assert_eq!(
            sequential.embeddings.max_abs_diff(&parallel.embeddings),
            0.0,
            "{solver:?} output changed under the thread knob"
        );
    }
}
