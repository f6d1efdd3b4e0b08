//! Tiny shared argument parsing and the binaries' common entry point.
//!
//! Flags (all optional; the thread and scale flags each override their
//! `WMN_*` env var — the other flags have no env counterpart):
//!
//! * `--quick` — reduced scale (`ExperimentConfig::quick()`).
//! * `--seed <n>` — algorithm run seed (default 42).
//! * `--instance-seed <n>` — instance generation seed (default 2009).
//! * `--threads <n>` — experiment-runtime workers (`WMN_THREADS`;
//!   default 0 = one per core). Results are identical for every value.
//! * `--ga-threads <n>` — evaluation threads inside one GA run
//!   (`WMN_GA_THREADS`; default 4).
//! * `--scale <n>` — proportional instance scale-up: `n`× routers and
//!   clients on `√n`× the area side (`WMN_SCALE`; `n ≥ 1`).
//! * `--scale-routers <n>` / `--scale-clients <n>` / `--scale-area <x>` —
//!   individual multipliers (`WMN_SCALE_ROUTERS` / `WMN_SCALE_CLIENTS` /
//!   `WMN_SCALE_AREA`; counts `≥ 1`, area positive and finite). Invalid
//!   multipliers are rejected at parse time, naming the flag or variable.
//! * `--ns-budget <n>` — neighbors sampled per search phase (`n ≥ 1`;
//!   0 is rejected at parse time, naming the flag).
//! * `--telemetry <dir>` — write structured run telemetry
//!   (`telemetry.json` + `spans.jsonl`) to `<dir>`; see
//!   [`crate::telemetry`].
//! * `--retries <n>` — per-cell attempt budget for the panic-isolated
//!   runner (`WMN_RETRIES`; default 1 = no retries). Retried cells
//!   re-derive the same seed, so outputs are byte-identical.
//! * `--fault-plan <spec>` — deterministic fault injection
//!   (`WMN_FAULT_PLAN`), e.g. `seed=7;panic@start:p=0.4`; see
//!   [`wmn_runtime::fault`]. Off by default.
//! * `--resume <dir>` — resume an interrupted run from `<dir>`'s
//!   `checkpoint.jsonl`, skipping completed cells; implies `--out <dir>`
//!   (combining with `--out` or `--telemetry` is an error — skipped
//!   cells' telemetry counters cannot be reconstructed).
//! * `--out <dir>` — output directory (default `results`).
//!
//! `--connectivity` and `WMN_CONNECTIVITY` were removed: connectivity
//! repair now picks its route per mutation, so there is no mode to choose.
//! Both are refused at parse time with a message saying so, rather than
//! silently ignored.

use crate::error::ExperimentError;
use crate::scenario::{ExperimentConfig, ScenarioScale};
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed common CLI options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Scale + seeding.
    pub config: ExperimentConfig,
    /// Output directory.
    pub out_dir: PathBuf,
    /// Telemetry output directory (`None` = telemetry disabled, the
    /// zero-overhead default).
    pub telemetry: Option<PathBuf>,
    /// Whether this run resumes from `out_dir`'s `checkpoint.jsonl`
    /// (`--resume`); completed cells recorded there are skipped.
    pub resume: bool,
}

const USAGE: &str = "usage: [--quick] [--seed <n>] [--instance-seed <n>] [--threads <n>] \
[--ga-threads <n>] [--scale <n>] [--scale-routers <n>] [--scale-clients <n>] \
[--scale-area <x>] [--ns-budget <n>] \
[--retries <n>] [--fault-plan <spec>] [--telemetry <dir>] [--resume <dir>] [--out <dir>]";

/// Why `--connectivity` and `WMN_CONNECTIVITY` are refused.
const CONNECTIVITY_REMOVED: &str = "was removed: connectivity repair picks \
its route per mutation (component-local for small changes, one whole-graph \
rescan for large ones), so there is no mode to choose";

/// Parses a fault-plan spec (shared by the flag and env paths).
fn fault_plan(value: &str) -> Result<wmn_runtime::FaultPlan, String> {
    wmn_runtime::FaultPlan::parse(value).map_err(|e| format!("bad fault plan: {e}"))
}

/// Rejects a zero count — a router or client multiplier, or the search
/// budget (shared by the flag and env paths; `name` is the flag or
/// variable, for the message).
fn positive_count<T: PartialEq + From<u8>>(name: &str, n: T) -> Result<T, String> {
    if n == T::from(0) {
        Err(format!("{name} must be at least 1, got 0"))
    } else {
        Ok(n)
    }
}

/// Rejects an area multiplier that is not positive and finite.
fn area_multiplier(name: &str, x: f64) -> Result<f64, String> {
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(format!("{name} must be positive and finite, got {x}"))
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let v = value.ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
}

/// Parses options from an argument iterator (excluding the program name),
/// on top of `base` — so environment-derived defaults lose to explicit
/// flags.
///
/// # Errors
///
/// Returns a usage message on unknown or removed flags, malformed
/// numbers, invalid scale multipliers or a zero `--ns-budget`.
pub fn parse_from<I: IntoIterator<Item = String>>(
    base: ExperimentConfig,
    args: I,
) -> Result<CliOptions, String> {
    let mut config = base;
    let mut out_dir = PathBuf::from("results");
    let mut out_flag = false;
    let mut telemetry = None;
    let mut resume = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => config = config.quickened(),
            "--seed" => config.run_seed = parse_num("--seed", it.next())?,
            "--instance-seed" => config.instance_seed = parse_num("--instance-seed", it.next())?,
            "--threads" => config.runner_threads = parse_num("--threads", it.next())?,
            "--ga-threads" => {
                config.threads = parse_num::<usize>("--ga-threads", it.next())?.max(1);
            }
            "--scale" => {
                let n = positive_count("--scale", parse_num("--scale", it.next())?)?;
                config.scale = ScenarioScale::proportional(n);
            }
            "--scale-routers" => {
                let n = parse_num("--scale-routers", it.next())?;
                config.scale.routers = positive_count("--scale-routers", n)?;
            }
            "--scale-clients" => {
                let n = parse_num("--scale-clients", it.next())?;
                config.scale.clients = positive_count("--scale-clients", n)?;
            }
            "--scale-area" => {
                let x = parse_num("--scale-area", it.next())?;
                config.scale.area = area_multiplier("--scale-area", x)?;
            }
            "--ns-budget" => {
                let n = parse_num("--ns-budget", it.next())?;
                config.ns_budget = positive_count("--ns-budget", n)?;
            }
            "--connectivity" => return Err(format!("--connectivity {CONNECTIVITY_REMOVED}")),
            "--retries" => config.retries = parse_num("--retries", it.next())?,
            "--fault-plan" => {
                let v = it.next().ok_or("--fault-plan needs a value")?;
                config.fault_plan = Some(fault_plan(&v)?);
            }
            "--telemetry" => {
                telemetry = Some(PathBuf::from(it.next().ok_or("--telemetry needs a value")?));
            }
            "--resume" => {
                out_dir = PathBuf::from(it.next().ok_or("--resume needs a value")?);
                resume = true;
            }
            "--out" => {
                out_dir = PathBuf::from(it.next().ok_or("--out needs a value")?);
                out_flag = true;
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if resume && out_flag {
        return Err("--resume implies the output directory; drop --out".to_owned());
    }
    if resume && telemetry.is_some() {
        return Err(
            "--resume cannot be combined with --telemetry (skipped cells' counters \
             cannot be reconstructed)"
                .to_owned(),
        );
    }
    Ok(CliOptions {
        config,
        out_dir,
        telemetry,
        resume,
    })
}

/// Parses options from an argument iterator over the paper defaults.
///
/// # Errors
///
/// Returns a usage message on unknown flags or malformed numbers.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<CliOptions, String> {
    parse_from(ExperimentConfig::paper(), args)
}

/// Applies `WMN_*` environment overrides to the paper defaults. `lookup`
/// abstracts `std::env::var` for testability.
///
/// # Errors
///
/// Returns a message naming the malformed variable (including an invalid
/// scale multiplier) or the removed `WMN_CONNECTIVITY`.
pub fn config_from_vars(
    lookup: impl Fn(&str) -> Option<String>,
) -> Result<ExperimentConfig, String> {
    let mut config = ExperimentConfig::paper();
    // Parse directly to each knob's type, so the env path rejects exactly
    // what the flag path rejects (no silent u64→u32 truncation).
    fn num<T: std::str::FromStr>(
        lookup: &impl Fn(&str) -> Option<String>,
        name: &str,
    ) -> Result<Option<T>, String> {
        lookup(name)
            .map(|v| v.parse().map_err(|_| format!("bad {name} value {v:?}")))
            .transpose()
    }
    if let Some(n) = num::<usize>(&lookup, "WMN_THREADS")? {
        config.runner_threads = n;
    }
    if let Some(n) = num::<usize>(&lookup, "WMN_GA_THREADS")? {
        config.threads = n.max(1);
    }
    if let Some(n) = num(&lookup, "WMN_SCALE")? {
        config.scale = ScenarioScale::proportional(positive_count("WMN_SCALE", n)?);
    }
    if let Some(n) = num(&lookup, "WMN_SCALE_ROUTERS")? {
        config.scale.routers = positive_count("WMN_SCALE_ROUTERS", n)?;
    }
    if let Some(n) = num(&lookup, "WMN_SCALE_CLIENTS")? {
        config.scale.clients = positive_count("WMN_SCALE_CLIENTS", n)?;
    }
    if let Some(x) = num(&lookup, "WMN_SCALE_AREA")? {
        config.scale.area = area_multiplier("WMN_SCALE_AREA", x)?;
    }
    if lookup("WMN_CONNECTIVITY").is_some() {
        return Err(format!("WMN_CONNECTIVITY {CONNECTIVITY_REMOVED}; unset it"));
    }
    if let Some(n) = num::<u32>(&lookup, "WMN_RETRIES")? {
        config.retries = n;
    }
    if let Some(v) = lookup("WMN_FAULT_PLAN") {
        config.fault_plan =
            Some(fault_plan(&v).map_err(|e| format!("bad WMN_FAULT_PLAN value: {e}"))?);
    }
    Ok(config)
}

/// Parses the process environment and arguments, exiting with a message on
/// error.
pub fn parse_env() -> CliOptions {
    let from_env = config_from_vars(|name| std::env::var(name).ok());
    let parsed = from_env.and_then(|base| parse_from(base, std::env::args().skip(1)));
    match parsed {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// The binaries' shared entry point: parse environment + arguments, run
/// `body`, and report any failure (with its offending path, for I/O) on
/// stderr instead of panicking.
pub fn run(body: impl FnOnce(&CliOptions) -> Result<(), ExperimentError>) -> ExitCode {
    let opts = parse_env();
    match body(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_vec(args: &[&str]) -> Result<CliOptions, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let opts = parse_vec(&[]).unwrap();
        assert_eq!(opts.config, ExperimentConfig::paper());
        assert_eq!(opts.out_dir, PathBuf::from("results"));
        assert_eq!(opts.telemetry, None);
        assert!(!opts.resume);
    }

    #[test]
    fn robustness_flags() {
        use wmn_runtime::{FaultKind, FaultSite};
        let opts =
            parse_vec(&["--retries", "3", "--fault-plan", "seed=7;error@start:p=1"]).unwrap();
        assert_eq!(opts.config.retries, 3);
        let plan = opts.config.fault_plan.unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.decide(FaultSite::JobStart, 0, 0),
            Some(FaultKind::Error)
        );
        assert!(parse_vec(&["--retries", "some"]).is_err());
        assert!(parse_vec(&["--fault-plan", "panic@nowhere:p=1"]).is_err());
        assert!(parse_vec(&["--fault-plan"]).is_err());
    }

    #[test]
    fn resume_implies_out_and_rejects_conflicts() {
        let opts = parse_vec(&["--resume", "/tmp/run"]).unwrap();
        assert!(opts.resume);
        assert_eq!(opts.out_dir, PathBuf::from("/tmp/run"));
        assert!(parse_vec(&["--resume", "/tmp/run", "--out", "/tmp/x"]).is_err());
        assert!(parse_vec(&["--out", "/tmp/x", "--resume", "/tmp/run"]).is_err());
        assert!(parse_vec(&["--resume", "/tmp/run", "--telemetry", "/tmp/t"]).is_err());
        assert!(parse_vec(&["--resume"]).is_err());
    }

    #[test]
    fn robustness_env_vars_apply_and_flags_win() {
        let lookup = |name: &str| match name {
            "WMN_RETRIES" => Some("5".to_owned()),
            "WMN_FAULT_PLAN" => Some("seed=1;panic@start:p=0.5".to_owned()),
            _ => None,
        };
        let base = config_from_vars(lookup).unwrap();
        assert_eq!(base.retries, 5);
        assert_eq!(base.fault_plan.unwrap().seed, 1);
        let opts = parse_from(base, ["--retries".to_owned(), "2".to_owned()]).unwrap();
        assert_eq!(opts.config.retries, 2);
        let lookup = |name: &str| (name == "WMN_FAULT_PLAN").then(|| "gibberish".to_owned());
        assert!(config_from_vars(lookup).is_err());
        let lookup = |name: &str| (name == "WMN_RETRIES").then(|| "often".to_owned());
        assert!(config_from_vars(lookup).is_err());
    }

    #[test]
    fn connectivity_and_telemetry_flags() {
        let opts = parse_vec(&["--telemetry", "/tmp/t"]).unwrap();
        assert_eq!(opts.telemetry, Some(PathBuf::from("/tmp/t")));
        assert!(parse_vec(&["--telemetry"]).is_err());
        // The removed mode flag is refused by name, whatever its value
        // (or none), before any later flag is read.
        for args in [
            &["--connectivity", "rescan"][..],
            &["--connectivity", "dynamic", "--telemetry", "/tmp/t"],
            &["--quick", "--connectivity"],
        ] {
            let base = ExperimentConfig::paper();
            let err = parse_from(base, args.iter().map(|s| s.to_string())).unwrap_err();
            assert!(err.starts_with("--connectivity was removed"), "{err}");
        }
    }

    #[test]
    fn connectivity_env_var_is_rejected_as_removed() {
        for value in ["dynamic", "full", ""] {
            let lookup = |name: &str| (name == "WMN_CONNECTIVITY").then(|| value.to_owned());
            let err = config_from_vars(lookup).unwrap_err();
            assert!(err.starts_with("WMN_CONNECTIVITY was removed"), "{err}");
            assert!(err.ends_with("unset it"), "{err}");
        }
        // Unset, the environment parses as before.
        assert_eq!(
            config_from_vars(|_| None).unwrap(),
            ExperimentConfig::paper()
        );
    }

    #[test]
    fn quick_preserves_seeds() {
        let opts = parse_vec(&["--seed", "7", "--quick"]).unwrap();
        assert_eq!(
            opts.config.generations,
            ExperimentConfig::quick().generations
        );
        assert_eq!(opts.config.run_seed, 7);
    }

    #[test]
    fn quick_preserves_threads_and_scale() {
        let opts = parse_vec(&["--threads", "2", "--scale", "4", "--quick"]).unwrap();
        assert_eq!(opts.config.runner_threads, 2);
        assert_eq!(opts.config.scale, ScenarioScale::proportional(4));
        assert_eq!(
            opts.config.generations,
            ExperimentConfig::quick().generations
        );
    }

    #[test]
    fn seed_and_out() {
        let opts = parse_vec(&["--seed", "9", "--instance-seed", "11", "--out", "/tmp/x"]).unwrap();
        assert_eq!(opts.config.run_seed, 9);
        assert_eq!(opts.config.instance_seed, 11);
        assert_eq!(opts.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn thread_flags() {
        let opts = parse_vec(&["--threads", "8", "--ga-threads", "2"]).unwrap();
        assert_eq!(opts.config.runner_threads, 8);
        assert_eq!(opts.config.threads, 2);
        // 0 GA threads clamps to 1 (serial); 0 runner threads means "auto".
        let opts = parse_vec(&["--threads", "0", "--ga-threads", "0"]).unwrap();
        assert_eq!(opts.config.runner_threads, 0);
        assert_eq!(opts.config.threads, 1);
    }

    #[test]
    fn scale_flags() {
        let opts = parse_vec(&["--scale-routers", "2", "--scale-clients", "3"]).unwrap();
        assert_eq!(opts.config.scale.routers, 2);
        assert_eq!(opts.config.scale.clients, 3);
        assert_eq!(opts.config.scale.area, 1.0);
        let opts = parse_vec(&["--scale", "4", "--scale-area", "1.5"]).unwrap();
        assert_eq!(opts.config.scale.routers, 4);
        assert!((opts.config.scale.area - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_scale_flags_naming_them() {
        for (flag, value) in [
            ("--scale", "0"),
            ("--scale-routers", "0"),
            ("--scale-clients", "0"),
            ("--scale-area", "0"),
            ("--scale-area", "-1.5"),
            ("--scale-area", "NaN"),
            ("--scale-area", "inf"),
        ] {
            let err = parse_vec(&[flag, value]).unwrap_err();
            assert!(
                err.starts_with(&format!("{flag} must be")),
                "{flag} {value}: {err}"
            );
        }
        // The smallest valid values still parse.
        let opts = parse_vec(&["--scale", "1", "--scale-area", "0.5"]).unwrap();
        assert_eq!(opts.config.scale.routers, 1);
        assert_eq!(opts.config.scale.area, 0.5);
    }

    #[test]
    fn rejects_invalid_scale_env_vars_naming_them() {
        for (name, value) in [
            ("WMN_SCALE", "0"),
            ("WMN_SCALE_ROUTERS", "0"),
            ("WMN_SCALE_CLIENTS", "0"),
            ("WMN_SCALE_AREA", "0"),
            ("WMN_SCALE_AREA", "-2"),
            ("WMN_SCALE_AREA", "NaN"),
            ("WMN_SCALE_AREA", "-inf"),
        ] {
            let lookup = |var: &str| (var == name).then(|| value.to_owned());
            let err = config_from_vars(lookup).unwrap_err();
            assert!(
                err.starts_with(&format!("{name} must be")),
                "{name}={value}: {err}"
            );
        }
    }

    #[test]
    fn rejects_zero_ns_budget_naming_the_flag() {
        // Zero would only fail inside Figure 4's search jobs, after every
        // GA batch had already run.
        let err = parse_from(
            ExperimentConfig::quick(),
            ["--ns-budget".to_owned(), "0".to_owned()],
        )
        .unwrap_err();
        assert_eq!(err, "--ns-budget must be at least 1, got 0");
        let opts = parse_vec(&["--ns-budget", "1"]).unwrap();
        assert_eq!(opts.config.ns_budget, 1);
        assert!(parse_vec(&["--ns-budget", "-1"]).is_err());
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(parse_vec(&["--frob"]).is_err());
        assert!(parse_vec(&["--seed", "abc"]).is_err());
        assert!(parse_vec(&["--seed"]).is_err());
        assert!(parse_vec(&["--threads", "many"]).is_err());
        assert!(parse_vec(&["--scale-area", "wide"]).is_err());
        assert!(parse_vec(&["--help"]).is_err());
    }

    #[test]
    fn env_vars_apply_and_flags_win() {
        let lookup = |name: &str| match name {
            "WMN_THREADS" => Some("2".to_owned()),
            "WMN_SCALE" => Some("4".to_owned()),
            _ => None,
        };
        let base = config_from_vars(lookup).unwrap();
        assert_eq!(base.runner_threads, 2);
        assert_eq!(base.scale, ScenarioScale::proportional(4));

        let opts = parse_from(base, ["--threads".to_owned(), "6".to_owned()]).unwrap();
        assert_eq!(opts.config.runner_threads, 6);
        assert_eq!(opts.config.scale, ScenarioScale::proportional(4));
    }

    #[test]
    fn bad_env_var_is_an_error() {
        let lookup = |name: &str| (name == "WMN_THREADS").then(|| "lots".to_owned());
        assert!(config_from_vars(lookup).is_err());
        let lookup = |name: &str| (name == "WMN_SCALE_AREA").then(|| "wide".to_owned());
        assert!(config_from_vars(lookup).is_err());
    }

    #[test]
    fn out_of_range_env_var_is_rejected_not_truncated() {
        // > u32::MAX must error exactly like the flag path, not wrap.
        let too_big = (u64::from(u32::MAX) + 2).to_string();
        let lookup = |name: &str| (name == "WMN_SCALE_ROUTERS").then(|| too_big.clone());
        assert!(config_from_vars(lookup).is_err());
        let lookup = |name: &str| (name == "WMN_SCALE").then(|| too_big.clone());
        assert!(config_from_vars(lookup).is_err());
    }

    #[test]
    fn no_env_vars_is_paper_default() {
        assert_eq!(
            config_from_vars(|_| None).unwrap(),
            ExperimentConfig::paper()
        );
    }
}
