//! Experiment harness reproducing every table and figure of the paper.
//!
//! | Artifact | Runner | Binary |
//! |---|---|---|
//! | Table 1 (Normal) | [`batch::run_ga_batch`] → `.table` | `table1` |
//! | Table 2 (Exponential) | [`batch::run_ga_batch`] → `.table` | `table2` |
//! | Table 3 (Weibull) | [`batch::run_ga_batch`] → `.table` | `table3` |
//! | Figure 1 (GA evolution, Normal) | [`batch::run_ga_batch`] → `.figure` | `fig1` |
//! | Figure 2 (GA evolution, Exponential) | [`batch::run_ga_batch`] → `.figure` | `fig2` |
//! | Figure 3 (GA evolution, Weibull) | [`batch::run_ga_batch`] → `.figure` | `fig3` |
//! | Figure 4 (NS swap vs random) | [`figures::run_ns_figure`] | `fig4` |
//!
//! Table N and Figure N report the same seven GA runs (as in the paper),
//! so one GA batch per scenario yields both; `run_all` runs it once.
//! Every runner takes an optional telemetry recorder (`None` records
//! nothing and costs nothing).
//!
//! Every binary accepts `--quick` (reduced scale), `--seed <n>` (run seed),
//! `--threads <n>` (parallel experiment workers; results are identical for
//! every value), `--telemetry <dir>` (structured work-counter telemetry,
//! see [`telemetry`]) and `--out <dir>` (default `results/`). `run_all`
//! regenerates everything. See [`cli`] for the full flag and `WMN_*`
//! environment-variable reference, and [`scenario::ScenarioScale`] for
//! running beyond-paper instance sizes.
//!
//! ```bash
//! cargo run --release -p wmn-experiments --bin run_all
//! cargo run --release -p wmn-experiments --bin run_all -- --quick --threads 8
//! WMN_THREADS=2 cargo run --release -p wmn-experiments --bin table1 -- --quick
//! ```
//!
//! Experiment grids execute on the `wmn-runtime` worker pool; per-cell RNG
//! seeds are derived from grid coordinates, so output is bit-identical
//! regardless of thread count.
//!
//! The `wmn-report` binary (see [`analyze`]) reads the telemetry
//! artifacts back: `wmn-report flame <dir>` renders the counter-weighted
//! flamegraph, `wmn-report diff <baseline> <run>` powers the
//! `scripts/check_counters.sh` perf gate, and `wmn-report summarize`
//! digests a run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
pub mod ascii_plot;
pub mod batch;
pub mod checkpoint;
pub mod cli;
pub mod csv;
pub mod error;
pub mod figures;
pub mod json;
pub mod report;
pub mod scenario;
pub mod tables;
pub mod telemetry;

pub use error::ExperimentError;
pub use scenario::{ExperimentConfig, Scenario, ScenarioScale};
