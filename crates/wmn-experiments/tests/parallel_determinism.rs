//! The PR's acceptance contract: the parallel runner with 1, 2, and 8
//! worker threads produces identical `Table`/figure structs — and
//! byte-identical rendered artifacts — to a direct serial call, at
//! `--quick` grid scale; and the scenario-scaling escape hatch produces
//! larger-than-paper instances on the same engine.

use wmn_experiments::batch::run_ga_batch;
use wmn_experiments::figures::{run_ns_figure, GaFigure};
use wmn_experiments::scenario::{ExperimentConfig, Scenario, ScenarioScale};
use wmn_experiments::tables::TableResult;

fn table_view(scenario: Scenario, config: &ExperimentConfig) -> TableResult {
    run_ga_batch(scenario, config, None).unwrap().table
}

fn figure_view(scenario: Scenario, config: &ExperimentConfig) -> GaFigure {
    run_ga_batch(scenario, config, None).unwrap().figure
}

fn config_with_threads(threads: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    config.runner_threads = threads;
    config
}

#[test]
fn run_table_is_identical_for_1_2_and_8_threads() {
    for scenario in Scenario::paper_tables() {
        let serial = table_view(scenario, &config_with_threads(1));
        for threads in [2, 8] {
            let parallel = table_view(scenario, &config_with_threads(threads));
            assert_eq!(parallel, serial, "{scenario} with {threads} threads");
            // Struct equality is necessary; rendered artifacts must be
            // byte-identical too.
            assert_eq!(parallel.to_csv(), serial.to_csv());
            assert_eq!(parallel.to_markdown(), serial.to_markdown());
        }
    }
}

#[test]
fn run_ga_figure_is_identical_for_1_2_and_8_threads() {
    let serial = figure_view(Scenario::Normal, &config_with_threads(1));
    for threads in [2, 8] {
        let parallel = figure_view(Scenario::Normal, &config_with_threads(threads));
        assert_eq!(parallel, serial, "{threads} threads");
    }
}

#[test]
fn run_ns_figure_is_identical_for_1_2_and_8_threads() {
    let serial = run_ns_figure(&config_with_threads(1), None).unwrap();
    for threads in [2, 8] {
        let parallel = run_ns_figure(&config_with_threads(threads), None).unwrap();
        assert_eq!(parallel, serial, "{threads} threads");
    }
}

#[test]
fn auto_thread_count_matches_serial() {
    // runner_threads = 0 resolves to available parallelism; output must
    // still match the serial reference bit for bit.
    let serial = table_view(Scenario::Exponential, &config_with_threads(1));
    let auto = table_view(Scenario::Exponential, &config_with_threads(0));
    assert_eq!(auto, serial);
}

#[test]
fn table_and_figure_report_the_same_ga_runs() {
    // Paper invariant: Figure N's final giant size per method equals
    // Table N's giant_by_ga, the two being views of one GA batch.
    let batch = run_ga_batch(Scenario::Normal, &config_with_threads(2), None).unwrap();
    let (table, figure) = (&batch.table, &batch.figure);
    for row in &table.rows {
        let trace = figure.series_for(row.method).unwrap();
        assert_eq!(
            trace.last_y().unwrap() as usize,
            row.giant_by_ga,
            "{} diverged between table and figure",
            row.method.name()
        );
    }
}

#[test]
fn scaled_scenarios_run_on_the_parallel_engine() {
    // A 2x-proportional paper instance (128 routers, 384 clients) at a tiny
    // search budget: the runtime must handle beyond-paper scales and stay
    // deterministic across thread counts.
    let mut config = ExperimentConfig::quick();
    config.population = 8;
    config.generations = 4;
    config.scale = ScenarioScale::proportional(2);

    let instance = config.instance(Scenario::Normal).unwrap();
    assert_eq!(instance.router_count(), 128);
    assert_eq!(instance.client_count(), 384);

    config.runner_threads = 1;
    let serial = table_view(Scenario::Normal, &config);
    config.runner_threads = 4;
    let parallel = table_view(Scenario::Normal, &config);
    assert_eq!(parallel, serial);
    for row in &serial.rows {
        assert!(row.giant_by_ga <= 128);
        assert!(row.coverage_by_ga <= 384);
    }
}
