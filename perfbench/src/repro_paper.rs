//! `repro-paper`: the `run_all` binary at paper effort (64 routers, 192
//! clients, population 64, 800 generations; Tables 1–3 and Figures 1–4),
//! run with `--threads 2 --ga-threads 1`.
//!
//! `run_all` writes no placements, so its correctness check is on the
//! artifacts: every table has its seven rows, every figure series has one
//! point per sampled generation (or search phase), the GA and search
//! curves never fall, a table's GA column equals the last point of the
//! matching figure curve, and the summary repeats the tables. The traced
//! run adds `run_all --telemetry`, whose `spans.jsonl` gives the
//! experiment and runtime layers, and re-drives the Table-1 GA cells and
//! the Figure-4 searches in process at paper scale for the graph, metrics,
//! search and GA layers.

use crate::common::{median, repeat_for, sample_setups, vm_hwm_mib, Opts, Report};
use crate::ga;
use crate::search::{self, Searcher};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use wmn_experiments::json::{self, JsonValue};
use wmn_experiments::{analyze, Scenario};
use wmn_metrics::evaluator::Evaluator;
use wmn_model::rng::{rng_from_seed, stream_seed};

const ROUTERS: usize = 64;
const CLIENTS: usize = 192;
const GENERATIONS: usize = 800;
const POPULATION: usize = 64;
/// `run_all`'s figure sampling stride at paper effort.
const SAMPLE_EVERY: usize = 5;
const NS_PHASES: usize = 61;
/// Experiment-runtime workers and GA evaluation threads given to `run_all`.
const RUNNER_THREADS: usize = 2;
const GA_THREADS: usize = 1;
/// Instance generation, evaluator and the Figure-4 start topology of the
/// three paper scenarios, sampled by [`sample_setups`]: the set-up steps
/// `run_all` takes, through the same library calls. Returns the set-up
/// times and the median per-instance generation time.
fn setup(seed: u64) -> Result<(Vec<f64>, f64), String> {
    let specs = Scenario::paper_tables()
        .iter()
        .map(|s| s.spec().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut generate_ms = Vec::new();
    let (setup_times, ()) = sample_setups(|| {
        let mut generate = Duration::ZERO;
        for spec in &specs {
            let g = Instant::now();
            let instance = spec.generate(seed).map_err(|e| e.to_string())?;
            generate += g.elapsed();
            let evaluator = Evaluator::paper_default(&instance);
            let start = instance.random_placement(&mut rng_from_seed(seed));
            std::hint::black_box(evaluator.topology(&start).map_err(|e| e.to_string())?);
        }
        generate_ms.push(generate.as_secs_f64() * 1e3 / specs.len() as f64);
        Ok(())
    })?;
    Ok((setup_times, median(&generate_ms)))
}

/// One `run_all` process: its wall time and peak resident set (MiB).
fn run_all_once(opts: &Opts, out: &Path, telemetry: Option<&Path>) -> Result<(f64, f64), String> {
    let bin = opts
        .run_all
        .as_ref()
        .ok_or("repro-paper needs --run-all <path to the run_all binary>")?;
    for dir in [Some(out), telemetry].into_iter().flatten() {
        if dir.exists() {
            std::fs::remove_dir_all(dir)
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        }
    }
    let seed = opts.seed.to_string();
    let mut cmd = Command::new(bin);
    cmd.args(["--threads", &RUNNER_THREADS.to_string()])
        .args(["--ga-threads", &GA_THREADS.to_string()])
        .args(["--seed", &seed, "--instance-seed", &seed])
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null());
    if let Some(t) = telemetry {
        cmd.arg("--telemetry").arg(t);
    }
    // Pin every knob on the command line: no environment override applies.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("WMN_") {
            cmd.env_remove(key);
        }
    }
    let started = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let pid = child.id().to_string();
    let done = AtomicBool::new(false);
    let (status, wall, peak) = std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::SeqCst) {
                if let Some(mib) = vm_hwm_mib(&pid) {
                    peak = peak.max(mib);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        let status = child.wait();
        let wall = started.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        (
            status,
            wall,
            watcher.join().expect("memory watcher panicked"),
        )
    });
    let status = status.map_err(|e| format!("waiting for run_all: {e}"))?;
    if !status.success() {
        return Err(format!("run_all exited with {status}"));
    }
    Ok((wall, peak))
}

/// A table row: giant and coverage by GA, then standalone.
type Row = [usize; 4];

/// The artifact check. Jobs are the 21 GA cells (scenario × method) and
/// the two Figure-4 searches; each collects the problems found in the
/// files it appears in.
struct Artifacts {
    rows: BTreeMap<(usize, String), Row>,
    problems: BTreeMap<String, Vec<String>>,
}

impl Artifacts {
    fn flag(&mut self, job: &str, problem: String) {
        self.problems
            .entry(job.to_owned())
            .or_default()
            .push(problem);
    }

    fn flag_all(&mut self, jobs: &[String], problem: &str) {
        for j in jobs {
            self.flag(j, problem.to_owned());
        }
    }
}

/// The paper's table scenarios by name, in table order.
fn scenario_names() -> impl Iterator<Item = &'static str> {
    Scenario::paper_tables().into_iter().map(|s| s.name())
}

fn ga_job(scenario: &str, method: &str) -> String {
    format!("{scenario}-{method}")
}

fn read(dir: &Path, name: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"))?;
    if text.trim().is_empty() {
        return Err(format!("{name} is empty"));
    }
    Ok(text)
}

/// A CSV row: its leading text cells and its numeric cells.
type CsvRow = (Vec<String>, Vec<usize>);

/// Parses a CSV with the expected header into rows of unsigned numbers
/// (the first `text_cols` columns are kept as text).
fn csv(text: &str, header: &str, text_cols: usize) -> Result<Vec<CsvRow>, String> {
    let mut lines = text.lines();
    if lines.next() != Some(header) {
        return Err(format!("header is not {header:?}"));
    }
    let width = header.split(',').count();
    lines
        .map(|line| {
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != width {
                return Err(format!(
                    "row {line:?} has {} cells, not {width}",
                    cells.len()
                ));
            }
            let nums = cells[text_cols..]
                .iter()
                .map(|c| c.parse::<usize>().map_err(|_| format!("bad number {c:?}")))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((
                cells[..text_cols].iter().map(|s| (*s).to_owned()).collect(),
                nums,
            ))
        })
        .collect()
}

/// Checks a JSONL artifact: `expected` lines, each a JSON object.
fn jsonl(dir: &Path, name: &str, expected: usize) -> Result<(), String> {
    let text = read(dir, name)?;
    let mut count = 0;
    for line in text.lines() {
        match json::parse(line) {
            Ok(JsonValue::Object(_)) => count += 1,
            _ => return Err(format!("{name}: line {} is not a JSON object", count + 1)),
        }
    }
    if count == expected {
        Ok(())
    } else {
        Err(format!("{name}: {count} lines, expected {expected}"))
    }
}

/// Checks a series column: the expected length, bounded, never falling.
fn series_problems(values: &[usize], expected_len: usize, max: usize) -> Vec<String> {
    let mut p = Vec::new();
    if values.len() != expected_len {
        p.push(format!("{} points, expected {expected_len}", values.len()));
    }
    if values.iter().any(|&v| v == 0 || v > max) {
        p.push(format!("a point is outside 1..={max}"));
    }
    if values.windows(2).any(|w| w[1] < w[0]) {
        p.push("the best-so-far curve falls".to_owned());
    }
    p
}

fn check_artifacts(dir: &Path) -> Artifacts {
    let methods: Vec<&str> = ga::methods().iter().map(|m| m.name()).collect();
    let mut a = Artifacts {
        rows: BTreeMap::new(),
        problems: BTreeMap::new(),
    };
    let points = GENERATIONS / SAMPLE_EVERY + 1;
    for (t, scenario) in scenario_names().enumerate() {
        let n = t + 1;
        let jobs: Vec<String> = methods.iter().map(|m| ga_job(scenario, m)).collect();
        let table = read(dir, &format!("table{n}.csv")).and_then(|text| {
            csv(
                &text,
                "method,giant_by_ga,coverage_by_ga,giant_standalone,coverage_standalone",
                1,
            )
        });
        match table {
            Err(e) => a.flag_all(&jobs, &format!("table{n}.csv: {e}")),
            Ok(rows) => {
                if rows.len() != methods.len() {
                    a.flag_all(
                        &jobs,
                        &format!("table{n}.csv has {} rows, expected 7", rows.len()),
                    );
                }
                for (m, job) in methods.iter().zip(&jobs) {
                    let Some((_, v)) = rows.iter().find(|(text, _)| text[0] == *m) else {
                        a.flag(job, format!("table{n}.csv has no {m} row"));
                        continue;
                    };
                    let row = [v[0], v[1], v[2], v[3]];
                    if row[0] == 0 || row[0] > ROUTERS || row[2] == 0 || row[2] > ROUTERS {
                        a.flag(
                            job,
                            format!("table{n}.csv: giant size out of range {row:?}"),
                        );
                    }
                    if row[1] > CLIENTS || row[3] > CLIENTS {
                        a.flag(job, format!("table{n}.csv: coverage out of range {row:?}"));
                    }
                    a.rows.insert((n, (*m).to_owned()), row);
                }
            }
        }
        match read(dir, &format!("table{n}.md")) {
            Err(e) => a.flag_all(&jobs, &e),
            Ok(md) => {
                for (m, job) in methods.iter().zip(&jobs) {
                    if let Some(r) = a.rows.get(&(n, (*m).to_owned())) {
                        let line = format!("| {m} | {} | {} | {} | {} |", r[0], r[1], r[2], r[3]);
                        if !md.lines().any(|l| l == line) {
                            a.flag(job, format!("table{n}.md does not repeat the CSV row"));
                        }
                    }
                }
            }
        }
        let fig = read(dir, &format!("fig{n}.csv"))
            .and_then(|text| csv(&text, &format!("generation,{}", methods.join(",")), 0));
        match fig {
            Err(e) => a.flag_all(&jobs, &format!("fig{n}.csv: {e}")),
            Ok(rows) => {
                let generations: Vec<usize> = rows.iter().map(|(_, v)| v[0]).collect();
                let want: Vec<usize> = (0..points).map(|i| i * SAMPLE_EVERY).collect();
                if generations != want {
                    a.flag_all(
                        &jobs,
                        &format!("fig{n}.csv: generations are not 0, 5, ..., 800"),
                    );
                }
                for (col, (m, job)) in methods.iter().zip(&jobs).enumerate() {
                    let series: Vec<usize> = rows.iter().map(|(_, v)| v[col + 1]).collect();
                    for p in series_problems(&series, points, ROUTERS) {
                        a.flag(job, format!("fig{n} {m}: {p}"));
                    }
                    let table_giant = a.rows.get(&(n, (*m).to_owned())).map(|r| r[0]);
                    if table_giant.is_some() && series.last().copied() != table_giant {
                        a.flag(
                            job,
                            format!(
                                "fig{n} {m} ends at {:?}, table{n} says {table_giant:?}",
                                series.last()
                            ),
                        );
                    }
                }
            }
        }
        for check in [
            jsonl(dir, &format!("fig{n}.jsonl"), points),
            read(dir, &format!("fig{n}.txt")).map(drop),
        ] {
            if let Err(e) = check {
                a.flag_all(&jobs, &e);
            }
        }
    }

    let all_ga: Vec<String> = scenario_names()
        .flat_map(|s| methods.iter().map(move |m| ga_job(s, m)))
        .collect();
    let summary = read(dir, "summary.csv").and_then(|text| {
        csv(
            &text,
            "table,scenario,method,giant_by_ga,coverage_by_ga,giant_standalone,coverage_standalone",
            3,
        )
    });
    match summary {
        Err(e) => a.flag_all(&all_ga, &format!("summary.csv: {e}")),
        Ok(rows) => {
            if rows.len() != all_ga.len() {
                a.flag_all(
                    &all_ga,
                    &format!("summary.csv has {} rows, expected 21", rows.len()),
                );
            }
            for (t, scenario) in scenario_names().enumerate() {
                for m in &methods {
                    let want = a.rows.get(&(t + 1, (*m).to_owned())).copied();
                    let got = rows.iter().find(|(text, _)| {
                        text[0] == (t + 1).to_string() && text[1] == scenario && text[2] == *m
                    });
                    if got.map(|(_, v)| [v[0], v[1], v[2], v[3]]) != want {
                        a.flag(
                            &ga_job(scenario, m),
                            "summary.csv does not repeat the table row".to_owned(),
                        );
                    }
                }
            }
        }
    }
    if let Err(e) = jsonl(dir, "summary.jsonl", all_ga.len()) {
        a.flag_all(&all_ga, &e);
    }

    let ns_jobs = ["fig4-Swap".to_owned(), "fig4-Random".to_owned()];
    match read(dir, "fig4.csv").and_then(|text| csv(&text, "phase,Swap,Random", 0)) {
        Err(e) => a.flag_all(&ns_jobs, &format!("fig4.csv: {e}")),
        Ok(rows) => {
            let phases: Vec<usize> = rows.iter().map(|(_, v)| v[0]).collect();
            if phases != (1..=NS_PHASES).collect::<Vec<_>>() {
                a.flag_all(&ns_jobs, "fig4.csv: phases are not 1..=61");
            }
            for (col, job) in ns_jobs.iter().enumerate() {
                let series: Vec<usize> = rows.iter().map(|(_, v)| v[col + 1]).collect();
                for p in series_problems(&series, NS_PHASES, ROUTERS) {
                    a.flag(job, p);
                }
            }
        }
    }
    for check in [
        jsonl(dir, "fig4.jsonl", NS_PHASES),
        read(dir, "fig4.txt").map(drop),
    ] {
        if let Err(e) = check {
            a.flag_all(&ns_jobs, &e);
        }
    }
    for job in all_ga.iter().chain(&ns_jobs) {
        a.problems.entry(job.clone()).or_default();
    }
    a
}

/// The deterministic artifacts, for comparing two runs byte for byte.
fn artifact_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for n in 1..=3 {
        for ext in ["csv", "md"] {
            let name = format!("table{n}.{ext}");
            files.insert(
                name.clone(),
                std::fs::read(dir.join(&name)).unwrap_or_default(),
            );
        }
    }
    for n in 1..=4 {
        for ext in ["csv", "jsonl", "txt"] {
            let name = format!("fig{n}.{ext}");
            files.insert(
                name.clone(),
                std::fs::read(dir.join(&name)).unwrap_or_default(),
            );
        }
    }
    for name in ["summary.csv", "summary.jsonl"] {
        files.insert(
            name.to_owned(),
            std::fs::read(dir.join(name)).unwrap_or_default(),
        );
    }
    files
}

/// Records the artifact verdicts, adding a problem to every job when
/// `other` (a second run's artifacts) is not byte-identical.
fn record_jobs(report: &mut Report, artifacts: &Artifacts, same_as_other: bool, other_label: &str) {
    for (job, problems) in &artifacts.problems {
        let mut p = problems.clone();
        if !same_as_other {
            p.push(format!("artifacts differ from the {other_label}"));
        }
        report.job(job, &p);
    }
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let (mut setup_times, generate_ms) = setup(opts.seed)?;
    println!(
        "config repro-paper run_all --threads {RUNNER_THREADS} --ga-threads {GA_THREADS} --seed {0} --instance-seed {0}",
        opts.seed
    );
    let mut report = Report::default();
    let out = opts.out_dir.join("repro-paper");
    if opts.trace {
        traced(opts, &out, generate_ms, &mut report)?;
        return Ok(report);
    }
    let mut next = 0;
    let reps = repeat_for(opts.seconds, || {
        let dir = out.join(format!("rep{next}"));
        next += 1;
        run_all_once(opts, &dir, None).map(|r| (r, dir))
    });
    let mut runs = Vec::new();
    for (_, r) in reps {
        runs.push(r?);
    }
    let first_dir = &runs[0].1;
    let artifacts = check_artifacts(first_dir);
    let first_bytes = artifact_bytes(first_dir);
    let same = runs
        .iter()
        .skip(1)
        .all(|(_, d)| artifact_bytes(d) == first_bytes);
    record_jobs(&mut report, &artifacts, same, "repeated run");
    let walls: Vec<f64> = runs.iter().map(|((w, _), _)| *w).collect();
    // Peak memory of the first `run_all`, as on the in-process workloads.
    let ((_, peak), _) = runs[0];
    eprintln!("repro-paper: {} repetitions, run_s {walls:?}", walls.len());
    for (t, scenario) in scenario_names().enumerate() {
        let cells: Vec<String> = ga::methods()
            .iter()
            .filter_map(|m| {
                let r = artifacts.rows.get(&(t + 1, m.name().to_owned()))?;
                Some(format!("{}={}/{}", m.name(), r[0], r[1]))
            })
            .collect();
        println!(
            "table{} {scenario} giant/coverage by GA: {}",
            t + 1,
            cells.join(" ")
        );
    }

    setup_times.extend(setup(opts.seed)?.0);
    eprintln!("repro-paper: {} set-ups", setup_times.len());
    report.push("setup_s", median(&setup_times), "s");
    report.push("run_s", median(&walls), "s");
    report.push("peak_rss_mb", peak, "MiB");
    report.push_quality(
        artifacts.rows.values().map(|r| (r[0], r[1])),
        ROUTERS,
        CLIENTS,
    );
    Ok(report)
}

/// Sums of `nanos` per span path in `run_all`'s `spans.jsonl`.
fn span_totals(dir: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = read(dir, "spans.jsonl")?;
    let mut totals = BTreeMap::new();
    for line in text.lines() {
        let span = json::parse(line).map_err(|e| format!("spans.jsonl: {e}"))?;
        let path = span.get("path").and_then(JsonValue::as_str);
        let nanos = span.get("nanos").and_then(JsonValue::as_u64);
        let (Some(path), Some(nanos)) = (path, nanos) else {
            return Err(format!("spans.jsonl: line without path/nanos: {line}"));
        };
        *totals.entry(path.to_owned()).or_insert(0.0) += nanos as f64;
    }
    Ok(totals)
}

/// The traced run: `run_all` plain and with `--telemetry`, then the
/// in-process re-drive of the Table-1 GA cells and the Figure-4 searches.
fn traced(opts: &Opts, out: &Path, generate_ms: f64, report: &mut Report) -> Result<(), String> {
    let plain_dir = out.join("plain");
    let traced_dir = out.join("traced");
    let telemetry_dir = out.join("telemetry");
    let (wall_plain, _) = run_all_once(opts, &plain_dir, None)?;
    let (wall_traced, _) = run_all_once(opts, &traced_dir, Some(&telemetry_dir))?;
    let artifacts = check_artifacts(&traced_dir);
    let same = artifact_bytes(&plain_dir) == artifact_bytes(&traced_dir);
    record_jobs(report, &artifacts, same, "run without telemetry");

    // The program's own reader checks the telemetry schema and shape.
    analyze::load_doc(&telemetry_dir).map_err(|e| e.to_string())?;
    let spans = span_totals(&telemetry_dir)?;
    let sum = |prefix: &str| -> f64 {
        spans
            .iter()
            .filter(|(path, _)| path.starts_with(prefix))
            .map(|(_, ns)| ns)
            .sum::<f64>()
            / 1e9
    };
    let (table_s, ga_figure_s, ns_figure_s) = (
        sum("run_all.table"),
        sum("run_all.ga_figure"),
        sum("run_all.ns_figure"),
    );
    // Per-job GA spans are what the runtime's workers were busy with.
    let busy_s = sum("ga.");
    eprintln!(
        "repro-paper: run_all {wall_plain:.3} s plain, {wall_traced:.3} s with telemetry; GA job spans {busy_s:.3} s"
    );

    probe(opts, report)?;
    report.push("model.generate_ms", generate_ms, "ms");
    report.push(
        "runtime.busy_share",
        busy_s / (wall_traced * RUNNER_THREADS as f64),
        "ratio",
    );
    report.push("experiments.table_s", table_s, "s");
    report.push("experiments.ga_figure_s", ga_figure_s, "s");
    report.push("experiments.ns_figure_s", ns_figure_s, "s");
    report.push(
        "experiments.io_s",
        wall_traced - table_s - ga_figure_s - ns_figure_s,
        "s",
    );
    report.push(
        "obs.trace_overhead",
        wall_traced / wall_plain - 1.0,
        "ratio",
    );
    Ok(())
}

/// Re-drives the seven Table-1 GA cells (Normal clients, paper effort,
/// one thread) and the Figure-4 swap and random searches in process,
/// traced, each checked against its untraced run and re-evaluated from
/// scratch. Records those jobs and the layer metrics in `report`.
fn probe(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let instance = Scenario::Normal
        .instance(opts.seed)
        .map_err(|e| e.to_string())?;
    let evaluator = Evaluator::paper_default(&instance);
    let config = ga::config(POPULATION, GENERATIONS, GA_THREADS);
    let reference = ga::run_jobs(&evaluator, &config, opts.seed).map_err(|e| e.to_string())?;
    let mut tr = Tracer::new();
    let mut ga_totals = ga::RedriveTotals::default();
    let ga_problems = ga::redrive_jobs(
        &evaluator,
        &config,
        opts.seed,
        &reference,
        &mut tr,
        &mut ga_totals,
    );
    let (ga_recheck, ga_full_ms) = ga::recheck_all(&evaluator, &reference);

    let start = instance.random_placement(&mut rng_from_seed(stream_seed(opts.seed, &[0x57, 0])));
    let starts = vec![evaluator.topology(&start).map_err(|e| e.to_string())?];
    let jobs = search::jobs(1, &[Searcher::NsSwap, Searcher::NsRandom]);
    let ns_reference = search::run_jobs(&evaluator, &starts, &jobs, opts.seed);
    let mut ns_totals = search::RedriveTotals::default();
    let ns_problems = search::redrive_jobs(
        &evaluator,
        &starts,
        &jobs,
        opts.seed,
        &ns_reference,
        &mut tr,
        &mut ns_totals,
    );
    let (ns_recheck, ns_full_ms) = search::recheck_all(&evaluator, &ns_reference);

    tr.dump(opts)?;

    for ((m, mut p), r) in ga::methods().iter().zip(ga_problems).zip(ga_recheck) {
        p.extend(r);
        report.job(&format!("probe-ga-{}", m.name()), &p);
    }
    for (((job, _), mut p), r) in jobs.iter().zip(ns_problems).zip(ns_recheck) {
        p.extend(r);
        report.job(&format!("probe-{}", job.searcher.name()), &p);
    }

    ga::push_layer_metrics(report, &tr, &ga_totals);
    search::push_layer_metrics(report, &tr, &ns_totals);
    let mut counters = ga_totals.counters;
    counters.merge(&ns_totals.counters);
    counters.push_metrics(report);
    report.push(
        "metrics.measure_ns",
        tr.get("metrics.measure").mean(1.0),
        "ns",
    );
    report.push(
        "metrics.evals_per_s",
        (ga_totals.evaluations + ns_totals.steps) as f64
            / (ga_totals.wall + ns_totals.wall).as_secs_f64(),
        "1/s",
    );
    let reference_jobs = (reference.len() + ns_reference.len()) as f64;
    report.push(
        "metrics.full_eval_ms",
        (ga_full_ms * reference.len() as f64 + ns_full_ms * ns_reference.len() as f64)
            / reference_jobs,
        "ms",
    );
    Ok(())
}
