//! Determinism guarantees of the telemetry layer.
//!
//! 1. With the default (incremental, adaptive-repair) pipeline, the
//!    rendered `telemetry.json` document of a fixed-seed figure run is
//!    **byte-identical for every thread count** — both experiment-runtime
//!    workers and GA evaluation threads.
//! 2. The default pipeline and the full-rebuild reference
//!    (`GaEvalMode::Rebuild`) each produce a reproducible counter
//!    snapshot at one thread (the `Rebuild` pipeline's disk-cache counters
//!    depend on worker assignment, so the comparison is pinned to one
//!    thread).
//! 3. The two produce the **same figures** but **different work
//!    profiles** — the property `scripts/check_counters.sh` turns into a
//!    perf-regression gate.
//! 4. A whole `run_all` runs each of its 21 GA cells exactly once, and
//!    its `telemetry.json` is byte-identical at 1 and 2 runner threads.

use std::path::{Path, PathBuf};
use std::process::Command;
use wmn_experiments::analyze::{flame, parse_doc};
use wmn_experiments::batch::{experiment_ga_config, run_ga_batch, run_ga_batch_with};
use wmn_experiments::figures::run_ns_figure;
use wmn_experiments::scenario::{ExperimentConfig, Scenario};
use wmn_experiments::telemetry::render_telemetry_json;
use wmn_ga::engine::GaEvalMode;
use wmn_obs::TelemetryRecorder;

/// A sub-`--quick` config: full code coverage, test-suite-friendly cost.
fn small() -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    config.population = 8;
    config.generations = 10;
    config.ns_phases = 8;
    config
}

fn ga_telemetry(config: &ExperimentConfig) -> String {
    let mut recorder = TelemetryRecorder::new();
    run_ga_batch(Scenario::Weibull, config, Some(&mut recorder)).unwrap();
    render_telemetry_json("fig3", config, &recorder)
}

#[test]
fn ga_figure_telemetry_is_byte_identical_across_thread_counts() {
    let mut config = small();
    config.runner_threads = 1;
    config.threads = 1;
    let reference = ga_telemetry(&config);
    assert!(reference.contains("\"ga.generations\""));
    for (runner, ga) in [(2, 2), (8, 4)] {
        config.runner_threads = runner;
        config.threads = ga;
        assert_eq!(
            ga_telemetry(&config),
            reference,
            "runner_threads = {runner}, ga threads = {ga}"
        );
    }
}

#[test]
fn ns_figure_telemetry_is_byte_identical_across_thread_counts() {
    let mut config = small();
    let telemetry = |config: &ExperimentConfig| {
        let mut recorder = TelemetryRecorder::new();
        run_ns_figure(config, Some(&mut recorder)).unwrap();
        render_telemetry_json("fig4", config, &recorder)
    };
    config.runner_threads = 1;
    let reference = telemetry(&config);
    assert!(reference.contains("\"search.ns.phases\""));
    for runner in [2, 8] {
        config.runner_threads = runner;
        assert_eq!(telemetry(&config), reference, "runner_threads = {runner}");
    }
}

/// The phase-attribution tree — and the flamegraph rendered from it — is
/// as thread-invariant as the flat counters: the GA run's work lands in
/// the `ga > evaluate > apply_moves > {edge_repair, component_repair,
/// coverage}` scopes with identical weights at every thread count, so
/// `wmn-report flame` output is a reproducible artifact.
#[test]
fn phase_attribution_and_flame_are_thread_invariant() {
    let mut config = small();
    config.runner_threads = 1;
    config.threads = 1;
    let reference = ga_telemetry(&config);
    let doc = parse_doc(Path::new("fig3.json"), &reference).unwrap();
    let apply = &doc.attribution.children["ga"].children["evaluate"].children["apply_moves"];
    for bucket in ["edge_repair", "component_repair", "coverage"] {
        assert!(
            apply.children[bucket].total() > 0,
            "{bucket} should hold attributed work"
        );
    }
    // Attribution re-partitions the flat counters; it never invents work.
    assert!(doc.attribution.total() <= doc.counter_total());
    let reference_flame = flame(&doc).unwrap();
    for (runner, ga) in [(2, 2), (8, 4)] {
        config.runner_threads = runner;
        config.threads = ga;
        let rendered = ga_telemetry(&config);
        let doc = parse_doc(Path::new("fig3.json"), &rendered).unwrap();
        assert_eq!(
            flame(&doc).unwrap(),
            reference_flame,
            "runner_threads = {runner}, ga threads = {ga}"
        );
    }
}

#[test]
fn connectivity_oracles_are_reproducible_and_distinguishable() {
    let mut config = small();
    // The comparison runs at one thread: the Rebuild pipeline's
    // per-worker workspaces make its disk-cache counters depend on worker
    // assignment (see `GaEngine::run_recorded`).
    config.runner_threads = 1;
    config.threads = 1;

    let mut figures = Vec::new();
    let mut documents = Vec::new();
    for mode in [GaEvalMode::Incremental, GaEvalMode::Rebuild] {
        let mut ga_config = experiment_ga_config(&config);
        ga_config.eval_mode = mode;
        let run = || {
            let mut recorder = TelemetryRecorder::new();
            let fig =
                run_ga_batch_with(Scenario::Weibull, &config, &ga_config, Some(&mut recorder))
                    .unwrap()
                    .figure;
            (fig, render_telemetry_json("fig3", &config, &recorder))
        };
        let (fig_a, doc_a) = run();
        let (_, doc_b) = run();
        assert_eq!(doc_a, doc_b, "{mode}: counter snapshot not reproducible");
        figures.push(fig_a);
        documents.push(doc_a);
    }

    // Same results, different work: the figures agree...
    assert_eq!(figures[0], figures[1]);
    // ...but the reference leaves a distinct counter fingerprint (this is
    // exactly what lets the counter gate catch a pessimized build).
    assert_ne!(documents[0], documents[1]);
    // The adaptive pipeline repairs paper-scale children on both routes
    // (component-local BFS work and whole-graph rescans); the reference
    // rebuilds every child instead and takes neither route.
    for key in [
        "connectivity.bfs_edge_visits",
        "topology.local_repairs",
        "topology.rescan_repairs",
    ] {
        let key = format!("\"{key}\"");
        assert!(documents[0].contains(&key), "adaptive run lacks {key}");
        assert!(!documents[1].contains(&key), "reference run has {key}");
    }
    assert!(documents[1].contains("\"topology.full_rebuild_nodes\""));
}

/// Runs `run_all --quick --telemetry` at `threads` runner threads with a
/// scrubbed `WMN_*` environment and returns its `telemetry.json`.
fn run_all_telemetry(threads: &str) -> String {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "wmn-run-all-telemetry-t{threads}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
    for (key, _) in std::env::vars() {
        if key.starts_with("WMN_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd
        .args(["--quick", "--threads", threads, "--out"])
        .arg(&dir)
        .arg("--telemetry")
        .arg(dir.join("telemetry"))
        .output()
        .expect("run_all spawns");
    assert!(
        out.status.success(),
        "run_all failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(dir.join("telemetry").join("telemetry.json")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    doc
}

#[test]
fn run_all_runs_each_ga_cell_once_with_thread_invariant_telemetry() {
    let serial = run_all_telemetry("1");
    let doc = parse_doc(Path::new("telemetry.json"), &serial).unwrap();
    // Three scenarios × seven methods, one GA run each: Table N and
    // Figure N share their runs.
    let generations = ExperimentConfig::quick().generations as u64;
    assert_eq!(doc.counters["ga.generations"], 21 * generations);
    assert_eq!(run_all_telemetry("2"), serial);
}
