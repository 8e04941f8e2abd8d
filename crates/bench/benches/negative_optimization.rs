//! Ablation of the §4.5 negative-term optimization: the Eq. 15
//! centroid-based RO solver vs the naive `Ẽr` enumeration of Eq. 10.
//! Numerically identical outputs; asymptotically different cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use retro_core::solver::{solve, solve_ro_enumerated, Solver};
use retro_core::{Hyperparameters, RetrofitProblem};
use retro_datasets::{TmdbConfig, TmdbDataset};

fn bench_negative_term(c: &mut Criterion) {
    let params = Hyperparameters::paper_ro();
    let mut group = c.benchmark_group("ro_negative_term");
    group.sample_size(10);
    for n_movies in [50usize, 100, 200] {
        let data = TmdbDataset::generate(TmdbConfig { n_movies, dim: 32, ..TmdbConfig::default() });
        let problem = RetrofitProblem::build(&data.db, &data.base, &[], &[]);
        group.bench_function(BenchmarkId::new("optimized_eq15", problem.len()), |b| {
            b.iter(|| solve(&problem, Solver::Ro, &params, 5, None))
        });
        group.bench_function(BenchmarkId::new("enumerated_eq10", problem.len()), |b| {
            b.iter(|| solve_ro_enumerated(&problem, &params, 5))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_negative_term);
criterion_main!(benches);
