//! Solver microbenchmarks: MF vs RO vs RN per-solve cost on a fixed
//! problem — the ablation behind Table 2's ordering.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use retro_core::solver::{solve, Solver};
use retro_core::{Hyperparameters, RetrofitProblem};
use retro_datasets::{TmdbConfig, TmdbDataset};

fn bench_solvers(c: &mut Criterion) {
    let data =
        TmdbDataset::generate(TmdbConfig { n_movies: 200, dim: 32, ..TmdbConfig::default() });
    let problem = RetrofitProblem::build(&data.db, &data.base, &[], &[]);
    let ro_params = Hyperparameters::paper_ro();
    let rn_params = Hyperparameters::paper_rn();

    let mut group = c.benchmark_group("retrofit_solvers");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("mf", problem.len()), |b| {
        b.iter(|| solve(&problem, Solver::Mf, &Hyperparameters::default(), 20, None))
    });
    group.bench_function(BenchmarkId::new("ro", problem.len()), |b| {
        b.iter(|| solve(&problem, Solver::Ro, &ro_params, 10, None))
    });
    group.bench_function(BenchmarkId::new("rn", problem.len()), |b| {
        b.iter(|| solve(&problem, Solver::Rn, &rn_params, 10, None))
    });
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
