//! Shared plumbing: options, the result report, timing loops, memory
//! readings, repair counters and job digests.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use wmn_graph::EngineStats;
use wmn_metrics::evaluator::{Evaluation, Evaluator};
use wmn_model::placement::Placement;

/// Command-line options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `run_all` binary (needed by `repro-paper` only).
    pub run_all: Option<PathBuf>,
    /// Directory for artifacts and span dumps.
    pub out_dir: PathBuf,
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main`: jobs attempted, jobs that failed
/// a correctness check, and the metrics it measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records `giant_frac`, the mean over jobs of giant size ÷ routers,
    /// from each job's best (giant size, covered clients). The mean
    /// covered clients ÷ clients is printed beside it but not recorded:
    /// it is too bimodal over seeds to bound (see README.md).
    pub fn push_quality(
        &mut self,
        jobs: impl IntoIterator<Item = (usize, usize)>,
        routers: usize,
        clients: usize,
    ) {
        let (mut n, mut giant, mut covered) = (0usize, 0.0, 0.0);
        for (g, c) in jobs {
            n += 1;
            giant += g as f64 / routers as f64;
            covered += c as f64 / clients as f64;
        }
        let n = n.max(1) as f64;
        let (giant, coverage) = (giant / n, covered / n);
        self.push("giant_frac", giant, "ratio");
        println!("quality giant_frac={giant} coverage_frac={coverage}");
    }

    /// Records one job's verdict, logging the reason when it failed.
    pub fn job(&mut self, label: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!("FAILED {label}: {}", problems.join("; "));
        }
    }
}

/// Every per-layer metric with its unit. A traced run prints all of them;
/// a workload that never calls a layer reports 0 for its metrics and names
/// them on stderr (see README.md for the map of which workload measures
/// which metric).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("model.generate_ms", "ms"),
    ("placement.place_us", "us"),
    ("graph.build_ms", "ms"),
    ("graph.clone_from_us", "us"),
    ("graph.diff_us", "us"),
    ("graph.apply_batch_us", "us"),
    ("graph.apply_ns_per_router", "ns"),
    ("graph.moved_routers_per_child", "count"),
    ("graph.move_us", "us"),
    ("graph.undo_us", "us"),
    ("graph.link_noop_ratio", "ratio"),
    ("graph.disk_cache_hit_ratio", "ratio"),
    ("graph.coverage_full_ratio", "ratio"),
    ("metrics.measure_ns", "ns"),
    ("metrics.evals_per_s", "1/s"),
    ("metrics.full_eval_ms", "ms"),
    ("search.propose_us.swap", "us"),
    ("search.propose_us.random", "us"),
    ("search.propose_share", "ratio"),
    ("search.steps_per_s", "1/s"),
    ("search.accept_ratio", "ratio"),
    ("ga.reproduce_ms", "ms"),
    ("ga.evaluate_ms", "ms"),
    ("ga.init_ms", "ms"),
    ("ga.parallel_efficiency", "ratio"),
    ("runtime.busy_share", "ratio"),
    ("experiments.table_s", "s"),
    ("experiments.ga_figure_s", "s"),
    ("experiments.ns_figure_s", "s"),
    ("experiments.io_s", "s"),
    ("obs.trace_overhead", "ratio"),
];

/// Runs `unit` repeatedly within a budget of `seconds`: always once, and
/// again while another repetition is expected to end inside the budget.
/// Returns each repetition's wall time in seconds with its result.
pub fn repeat_for<T>(seconds: f64, mut unit: impl FnMut() -> T) -> Vec<(f64, T)> {
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        let t = Instant::now();
        let out = unit();
        reps.push((t.elapsed().as_secs_f64(), out));
        let used = started.elapsed().as_secs_f64();
        if used + used / reps.len() as f64 > seconds {
            return reps;
        }
    }
}

/// Set-ups per sampling window: at least this many, and more until
/// [`SETUP_SECONDS`] have passed, so that `setup_s` is a median over many
/// samples even when one set-up takes microseconds. The end-to-end runs
/// sample one window before the measured work and one after it, because
/// the machine's speed drifts over seconds.
pub const SETUP_MIN_REPS: usize = 5;
pub const SETUP_SECONDS: f64 = 0.5;

/// One sampling window: runs `set_up` at least [`SETUP_MIN_REPS`] times
/// and until [`SETUP_SECONDS`] have passed. Each set-up's result is
/// dropped before the next one starts, so peak memory holds one. Returns
/// the wall time of each set-up in seconds and the last result.
pub fn sample_setups<T>(
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < SETUP_MIN_REPS || started.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(set_up()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let kept = kept.expect("at least one set-up");
    Ok((times, kept))
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `VmHWM` (peak resident set) of process `pid` (`"self"` for this one),
/// in MiB, or `None` once the process has exited.
pub fn vm_hwm_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())?;
    Some(kb as f64 / 1024.0)
}

/// Work counts of the topology repair engine, summed as deltas around
/// the repair calls a workload makes.
#[derive(Debug, Default, Clone, Copy)]
pub struct RepairCounters {
    repairs: u64,
    link_noop: u64,
    coverage_delta: u64,
    coverage_full: u64,
    disk_hits: u64,
    disk_queries: u64,
}

impl RepairCounters {
    pub fn add(&mut self, before: &EngineStats, after: &EngineStats) {
        let d = after.delta_since(before).topology;
        self.repairs += d.single_moves + d.swaps + d.batch_repairs;
        self.link_noop += d.link_noop_repairs;
        self.coverage_delta += d.coverage_delta_repairs;
        self.coverage_full += d.coverage_full_recomputes;
        self.disk_hits += d.disk_cache_hits;
        self.disk_queries += d.disk_grid_queries;
    }

    pub fn merge(&mut self, other: &RepairCounters) {
        self.repairs += other.repairs;
        self.link_noop += other.link_noop;
        self.coverage_delta += other.coverage_delta;
        self.coverage_full += other.coverage_full;
        self.disk_hits += other.disk_hits;
        self.disk_queries += other.disk_queries;
    }

    pub fn push_metrics(&self, report: &mut Report) {
        report.push(
            "graph.link_noop_ratio",
            ratio(self.link_noop, self.repairs),
            "ratio",
        );
        report.push(
            "graph.disk_cache_hit_ratio",
            ratio(self.disk_hits, self.disk_hits + self.disk_queries),
            "ratio",
        );
        report.push(
            "graph.coverage_full_ratio",
            ratio(self.coverage_full, self.coverage_full + self.coverage_delta),
            "ratio",
        );
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// FNV-1a over the jobs' best fitness and giant size: equal digests mean
/// equal results, whatever thread count or code path produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// The digest of every job's best evaluation, in job order.
    pub fn of<'a>(bests: impl IntoIterator<Item = &'a Evaluation>) -> Self {
        let mut d = Digest::new();
        for best in bests {
            d.add(best);
        }
        d
    }

    fn add(&mut self, best: &Evaluation) {
        for byte in best
            .fitness
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain((best.giant_size() as u64).to_le_bytes())
        {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The per-job correctness check, for each job's best placement and the
/// evaluation it reported: the placement is valid, and a from-scratch
/// evaluation (full topology rebuild) reproduces the evaluation exactly.
/// Returns the problems per job and the mean full-evaluation time in ms.
pub fn recheck_all<'a>(
    evaluator: &Evaluator<'_>,
    jobs: impl IntoIterator<Item = (&'a Placement, &'a Evaluation)>,
) -> (Vec<Vec<String>>, f64) {
    let mut full = Duration::ZERO;
    let mut problems = Vec::new();
    for (placement, reported) in jobs {
        let mut p = Vec::new();
        if let Err(e) = evaluator.instance().validate_placement(placement) {
            p.push(format!("invalid best placement: {e}"));
        } else {
            let t = Instant::now();
            let fresh = evaluator.evaluate(placement);
            full += t.elapsed();
            match fresh {
                Ok(fresh) if fresh == *reported => {}
                Ok(fresh) => p.push(format!(
                    "reported {reported} but a full rebuild gives {fresh}"
                )),
                Err(e) => p.push(format!("full evaluation failed: {e}")),
            }
        }
        problems.push(p);
    }
    let mean_ms = full.as_secs_f64() * 1e3 / problems.len().max(1) as f64;
    (problems, mean_ms)
}
