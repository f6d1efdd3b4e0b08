//! Serial vs parallel `run_ga_batch` on the experiment runtime: the scaling
//! evidence for the deterministic worker pool. Output is bit-identical at
//! every thread count (asserted by `wmn-experiments`' determinism tests);
//! these benches track how much wall clock the parallel grid actually
//! saves at quick scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wmn_experiments::batch::run_ga_batch;
use wmn_experiments::scenario::{ExperimentConfig, Scenario};
use wmn_runtime::Runtime;

fn bench_config(runner_threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        population: 8,
        generations: 5,
        threads: 1, // serial GA evaluation: isolate the runtime's own scaling
        runner_threads,
        ..ExperimentConfig::quick()
    }
}

fn bench_runtime_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_table_threads");
    group.sample_size(10);
    let cores = Runtime::available_parallelism();
    let mut counts = vec![1usize, 2, 4];
    if !counts.contains(&cores) {
        counts.push(cores);
    }
    for threads in counts {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    run_ga_batch(Scenario::Normal, &bench_config(threads), None)
                        .expect("batch runs")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_runtime_scaling);
criterion_main!(benches);
