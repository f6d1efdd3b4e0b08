//! End-to-end benchmark of the wmn workspace.
//!
//! ```text
//! wmn-perfbench --workload <repro-paper|ga-large|search-large> --seed <n>
//!               --seconds <s> --trace <0|1> [--run-all <path>] [--out-dir <dir>]
//! ```
//!
//! Prints diagnostic lines (job digests, per-seed quality) and, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the per-layer ones. See README.md
//! for the workloads and the metric map.

mod common;
mod ga;
mod ga_large;
mod repro_paper;
mod search;
mod search_large;
mod trace;

use common::{Opts, Report, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        run_all: None,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--run-all" => opts.run_all = Some(PathBuf::from(value()?)),
            "--out-dir" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(opts)
}

/// Orders a traced run's metrics as [`PER_LAYER`] lists them, reporting 0
/// for the ones this workload does not exercise.
fn complete_per_layer(report: &mut Report) {
    let mut missing = Vec::new();
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit) in PER_LAYER {
        match report.metrics.iter().find(|m| m.name == name) {
            Some(m) => ordered.push(m.clone()),
            None => {
                missing.push(name);
                ordered.push(common::Metric {
                    name,
                    value: 0.0,
                    unit,
                });
            }
        }
    }
    if !missing.is_empty() {
        eprintln!(
            "not exercised by this workload (reported as 0): {}",
            missing.join(", ")
        );
    }
    report.metrics = ordered;
}

fn print_result(report: &Report) {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wmn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!(
        "workload={} seed={} seconds={} trace={} available_parallelism={threads}",
        opts.workload, opts.seed, opts.seconds, opts.trace
    );
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!(
            "wmn-perfbench: cannot create {}: {e}",
            opts.out_dir.display()
        );
        return ExitCode::FAILURE;
    }
    let result = match opts.workload.as_str() {
        "repro-paper" => repro_paper::run(&opts),
        "ga-large" => ga_large::run(&opts),
        "search-large" => search_large::run(&opts),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(mut report) => {
            if opts.trace {
                complete_per_layer(&mut report);
            }
            print_result(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wmn-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
