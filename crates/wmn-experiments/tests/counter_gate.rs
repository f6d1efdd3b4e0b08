//! The counter-regression gate's own check: `COUNTERS_baseline.json`
//! must describe the default pipeline exactly, and must catch a
//! pessimized one.
//!
//! `scripts/check_counters.sh` runs `fig3 --quick --threads 1
//! --ga-threads 1` with `--telemetry` and diffs the counters against the
//! committed baseline with `wmn-report diff`. This test produces the same
//! telemetry through the library, twice:
//!
//! 1. on the default pipeline, where `wmn-report diff` must report no
//!    drift — which also proves the library path reproduces the binary's
//!    workload, so the second run differs only in its pipeline;
//! 2. on the full-rebuild reference (`GaEvalMode::Rebuild`), which lands
//!    the same figure with far more work, and which `wmn-report diff` must
//!    report as drift. A gate that passed here would be vacuous.

use std::path::{Path, PathBuf};
use wmn_experiments::analyze;
use wmn_experiments::batch::{experiment_ga_config, run_ga_batch_with};
use wmn_experiments::cli;
use wmn_experiments::scenario::{ExperimentConfig, Scenario};
use wmn_experiments::telemetry::write_telemetry;
use wmn_ga::engine::{GaConfig, GaEvalMode};
use wmn_obs::TelemetryRecorder;

fn baseline() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../COUNTERS_baseline.json")
}

/// The config `fig3 --quick --threads 1 --ga-threads 1` runs with.
fn gate_config() -> ExperimentConfig {
    let args = ["--quick", "--threads", "1", "--ga-threads", "1"];
    cli::parse_from(ExperimentConfig::paper(), args.map(String::from))
        .unwrap()
        .config
}

/// Writes fig3's telemetry for `ga_config` under a fresh directory and
/// returns `wmn-report diff <baseline> <telemetry>`.
fn diff_against_baseline(name: &str, ga_config: &GaConfig) -> analyze::Report {
    let config = gate_config();
    let mut recorder = TelemetryRecorder::new();
    run_ga_batch_with(Scenario::Weibull, &config, ga_config, Some(&mut recorder)).unwrap();
    let dir = std::env::temp_dir().join(format!("wmn-counter-gate-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let telemetry = write_telemetry(&dir, "fig3", &config, &recorder).unwrap();
    let args = [
        "diff".to_owned(),
        baseline().display().to_string(),
        telemetry.display().to_string(),
    ];
    let report = analyze::run(&args).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[test]
fn baseline_matches_the_default_pipeline_and_catches_the_full_rebuild_reference() {
    let default = experiment_ga_config(&gate_config());
    assert_eq!(default.eval_mode, GaEvalMode::Incremental);
    let clean = diff_against_baseline("default", &default);
    assert_eq!(
        clean.exit_code, 0,
        "the default pipeline drifted from COUNTERS_baseline.json; if intended, \
         run scripts/check_counters.sh --refresh:\n{}",
        clean.stdout
    );

    let mut reference = default;
    reference.eval_mode = GaEvalMode::Rebuild;
    let drift = diff_against_baseline("reference", &reference);
    assert_eq!(
        drift.exit_code, 1,
        "the gate failed to catch the full-rebuild pipeline:\n{}",
        drift.stdout
    );
    // The reference's own work shows up by name.
    assert!(
        drift.stdout.contains("topology.full_rebuild_nodes"),
        "{}",
        drift.stdout
    );
}
