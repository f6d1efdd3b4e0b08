//! One benchmark per paper table: the cost of regenerating Table N at
//! reduced scale — the scenario's GA batch, which yields Figure N from the
//! same runs (the full-scale regeneration is `cargo run --release -p
//! wmn-experiments --bin run_all`; these benches track the batch's
//! performance over time).

use criterion::{criterion_group, criterion_main, Criterion};
use wmn_experiments::batch::run_ga_batch;
use wmn_experiments::scenario::{ExperimentConfig, Scenario};

fn bench_config() -> ExperimentConfig {
    ExperimentConfig {
        population: 8,
        generations: 5,
        threads: 1,
        ..ExperimentConfig::quick()
    }
}

fn bench_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);
    for scenario in Scenario::paper_tables() {
        let n = scenario.table_number().expect("paper scenario");
        group.bench_function(format!("table{n}_{scenario}"), |b| {
            b.iter(|| run_ga_batch(scenario, &bench_config(), None).expect("table runs"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
