//! The RN solver hot loops: serial vs multi-threaded `RnKernel` iteration
//! (bit-identical results for every thread count, see `solver::rn`), a
//! seeded warm-start solve, and the chunked `retro_linalg::vector` kernels
//! the solvers' inner loops are built from.
//!
//! By default the benchmark runs at the `Small` preset so `cargo bench`
//! stays quick. Set `RETRO_PAPER_SCALE=1` to measure at the paper's real
//! TMDB cardinality (~493k text values) — the size the README
//! "Performance" numbers refer to; expect minutes per measurement on few
//! cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use retro_core::solver::{solve, Solver};
use retro_core::{Hyperparameters, RetrofitProblem};
use retro_datasets::{SizePreset, TmdbConfig, TmdbDataset};
use retro_linalg::vector;

fn build_problem() -> (RetrofitProblem, &'static str) {
    let (preset, tag) = if std::env::var_os("RETRO_PAPER_SCALE").is_some() {
        (SizePreset::Paper, "paper")
    } else {
        (SizePreset::Small, "small")
    };
    let data = TmdbDataset::generate(TmdbConfig::preset(preset));
    (RetrofitProblem::build(&data.db, &data.base, &[], &[]), tag)
}

fn bench_rn_kernel(c: &mut Criterion) {
    let (problem, tag) = build_problem();
    let params = Hyperparameters::paper_rn();

    let mut group = c.benchmark_group(format!("rn_kernel/{tag}"));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("serial", problem.len()), |b| {
        b.iter(|| solve(&problem, Solver::Rn, &params, 10, None))
    });
    for threads in [2usize, 4, 8] {
        group.bench_function(BenchmarkId::new(format!("threads_{threads}"), problem.len()), |b| {
            b.iter(|| solve(&problem, Solver::Rn, &params.with_threads(threads), 10, None))
        });
    }
    // Warm start: the incremental-maintenance shape — few iterations from
    // an already-converged seed.
    let warm = solve(&problem, Solver::Rn, &params, 10, None);
    group.bench_function(BenchmarkId::new("seeded_refresh", problem.len()), |b| {
        b.iter(|| solve(&problem, Solver::Rn, &params, 3, Some(&warm)))
    });
    group.finish();
}

fn bench_chunked_vector_kernels(c: &mut Criterion) {
    // dim 64 is the profile dimension (an exact multiple of LANES); 67
    // exercises the scalar tail.
    for dim in [64usize, 67] {
        let mut group = c.benchmark_group(format!("chunked_vector_kernels/dim_{dim}"));
        let x: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut y: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.71).cos()).collect();
        group.bench_function("dot", |b| b.iter(|| vector::dot(&x, &y)));
        // The mutating kernels must stay numerically stable across millions
        // of criterion iterations: axpy alternates ±alpha (net zero drift),
        // scale alternates reciprocal factors (net ×1), and normalize runs
        // on an already-unit vector (a fixed point that still executes the
        // full norm + scaling path).
        group.bench_function("axpy", |b| {
            let mut sign = 1.0f32;
            b.iter(|| {
                vector::axpy(sign * 0.5, &x, &mut y);
                sign = -sign;
            });
        });
        group.bench_function("scale", |b| {
            let mut up = true;
            b.iter(|| {
                vector::scale(if up { 1.25 } else { 0.8 }, &mut y);
                up = !up;
            });
        });
        group.bench_function("normalize", |b| {
            vector::normalize(&mut y);
            b.iter(|| vector::normalize(&mut y));
        });
        group.finish();
    }
}

criterion_group!(benches, bench_rn_kernel, bench_chunked_vector_kernels);
criterion_main!(benches);
