//! Thread-scaling of the RN **and RO** solvers: serial vs scoped-thread
//! row-partitioned iteration (bit-identical results for every thread count,
//! see `solver::solve`).
//!
//! By default the benchmark runs at the `Small` preset so `cargo bench`
//! stays quick. Set `RETRO_PAPER_SCALE=1` to measure at the paper's real
//! TMDB cardinality (~493k text values) — the size the ISSUE acceptance
//! numbers refer to; expect minutes per measurement on few cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use retro_core::solver::{solve, Solver};
use retro_core::{Hyperparameters, RetrofitProblem};
use retro_datasets::{SizePreset, TmdbConfig, TmdbDataset};

fn build_problem() -> (RetrofitProblem, &'static str) {
    let (preset, tag) = if std::env::var_os("RETRO_PAPER_SCALE").is_some() {
        (SizePreset::Paper, "paper")
    } else {
        (SizePreset::Small, "small")
    };
    let data = TmdbDataset::generate(TmdbConfig::preset(preset));
    (RetrofitProblem::build(&data.db, &data.base, &[], &[]), tag)
}

fn bench_parallel(c: &mut Criterion) {
    let (problem, tag) = build_problem();

    let params = Hyperparameters::paper_rn();
    let mut group = c.benchmark_group(format!("rn_parallel_scaling/{tag}"));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("serial", problem.len()), |b| {
        b.iter(|| solve(&problem, Solver::Rn, &params, 10, None))
    });
    for threads in [2usize, 4, 8] {
        group.bench_function(BenchmarkId::new(format!("threads_{threads}"), problem.len()), |b| {
            b.iter(|| solve(&problem, Solver::Rn, &params.with_threads(threads), 10, None))
        });
    }
    group.finish();

    let params = Hyperparameters::paper_ro();
    let mut group = c.benchmark_group(format!("ro_parallel_scaling/{tag}"));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("serial", problem.len()), |b| {
        b.iter(|| solve(&problem, Solver::Ro, &params, 10, None))
    });
    for threads in [2usize, 4, 8] {
        group.bench_function(BenchmarkId::new(format!("threads_{threads}"), problem.len()), |b| {
            b.iter(|| solve(&problem, Solver::Ro, &params.with_threads(threads), 10, None))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
