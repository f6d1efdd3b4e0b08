//! `search-large`: the neighborhood-search algorithms (NS with swap, NS with
//! random, SA with swap, tabu with swap) at Figure-4 effort (61 phases ×
//! 16 neighbors) from shared random starts on the proportional ×64 Normal
//! instance (4096 routers, 12288 clients), on one thread.

use crate::common::{median, repeat_for, sample_setups, vm_hwm_mib, Digest, Opts, Report};
use crate::search::{self, JobResult, SEARCHERS};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use wmn_experiments::{Scenario, ScenarioScale};
use wmn_graph::topology::WmnTopology;
use wmn_metrics::evaluator::Evaluator;
use wmn_model::rng::{rng_from_seed, stream_seed};
use wmn_model::ProblemInstance;

const SCALE: u32 = 64;
/// Random starts per run; every searcher runs from each. Quality is the
/// mean over all of them, because one start misleads.
const STARTS: usize = 12;

struct Setup {
    instance: ProblemInstance,
    starts: Vec<WmnTopology>,
    /// Set-up times, median instance generation time and mean topology
    /// build time.
    setup_times: Vec<f64>,
    generate_ms: f64,
    build_ms: f64,
}

/// Instance generation, evaluator and the start topologies, sampled by
/// [`sample_setups`]; the last set-up is kept.
fn setup(seed: u64) -> Result<Setup, String> {
    let spec = Scenario::Normal
        .scaled_spec(ScenarioScale::proportional(SCALE))
        .map_err(|e| e.to_string())?;
    let mut generate_ms = Vec::new();
    let mut build = Duration::ZERO;
    let (setup_times, (instance, starts)) = sample_setups(|| {
        let t = Instant::now();
        let instance = spec.generate(seed).map_err(|e| e.to_string())?;
        generate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let (starts, took) = start_topologies(&Evaluator::paper_default(&instance), seed)?;
        build += took;
        Ok((instance, starts))
    })?;
    Ok(Setup {
        instance,
        starts,
        build_ms: build.as_secs_f64() * 1e3 / (setup_times.len() * STARTS) as f64,
        setup_times,
        generate_ms: median(&generate_ms),
    })
}

/// One random placement per start and its topology (`Evaluator::topology`),
/// with the total build time.
fn start_topologies(
    evaluator: &Evaluator<'_>,
    seed: u64,
) -> Result<(Vec<WmnTopology>, Duration), String> {
    let mut build = Duration::ZERO;
    let topologies = (0..STARTS)
        .map(|k| {
            let mut rng = rng_from_seed(stream_seed(seed, &[0x57, k as u64]));
            let placement = evaluator.instance().random_placement(&mut rng);
            let t = Instant::now();
            let topo = evaluator.topology(&placement).map_err(|e| e.to_string());
            build += t.elapsed();
            topo
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((topologies, build))
}

/// Prints the per-start quality of every searcher and the result digest.
fn print_results(label: &str, evaluator: &Evaluator<'_>, results: &[JobResult]) {
    let routers = evaluator.instance().router_count();
    for (start, chunk) in results.chunks(SEARCHERS.len()).enumerate() {
        let cells: Vec<String> = SEARCHERS
            .iter()
            .zip(chunk)
            .map(|(d, r)| {
                format!(
                    "{}={}/{routers} covered={}",
                    d.name(),
                    r.best_evaluation.giant_size(),
                    r.best_evaluation.covered_clients()
                )
            })
            .collect();
        println!("start {label} start={start} {}", cells.join(" "));
    }
    println!(
        "digest {label} all={}",
        Digest::of(results.iter().map(|r| &r.best_evaluation))
    );
}

fn job_label(index: usize) -> String {
    format!(
        "start{}-{}",
        index / SEARCHERS.len(),
        SEARCHERS[index % SEARCHERS.len()].name()
    )
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let setup = setup(opts.seed)?;
    let evaluator = Evaluator::paper_default(&setup.instance);
    let starts = &setup.starts;
    println!(
        "config search-large routers={} clients={} starts={STARTS} searchers={} threads=1",
        setup.instance.router_count(),
        setup.instance.client_count(),
        SEARCHERS.len()
    );
    let jobs = search::jobs(STARTS, &SEARCHERS);
    let mut report = Report::default();
    if opts.trace {
        let t = Instant::now();
        let reference = search::run_jobs(&evaluator, starts, &jobs, opts.seed);
        let untraced = t.elapsed().as_secs_f64();
        print_results("untraced", &evaluator, &reference);
        let mut tr = Tracer::new();
        let mut totals = search::RedriveTotals::default();
        let mut problems = search::redrive_jobs(
            &evaluator,
            starts,
            &jobs,
            opts.seed,
            &reference,
            &mut tr,
            &mut totals,
        );
        let (recheck, full_eval_ms) = search::recheck_all(&evaluator, &reference);
        for (i, (p, r)) in problems.iter_mut().zip(recheck).enumerate() {
            p.extend(r);
            report.job(&job_label(i), p);
        }
        tr.dump(opts)?;

        report.push("model.generate_ms", setup.generate_ms, "ms");
        report.push("graph.build_ms", setup.build_ms, "ms");
        search::push_layer_metrics(&mut report, &tr, &totals);
        totals.counters.push_metrics(&mut report);
        report.push(
            "metrics.measure_ns",
            tr.get("metrics.measure").mean(1.0),
            "ns",
        );
        report.push(
            "metrics.evals_per_s",
            totals.steps as f64 / totals.wall.as_secs_f64(),
            "1/s",
        );
        report.push("metrics.full_eval_ms", full_eval_ms, "ms");
        report.push(
            "obs.trace_overhead",
            totals.wall.as_secs_f64() / untraced - 1.0,
            "ratio",
        );
        return Ok(report);
    }

    // Peak memory of one pass of the work, as on ga-large.
    let mut peak_mib = None;
    let reps = repeat_for(opts.seconds, || {
        let results = search::run_jobs(&evaluator, starts, &jobs, opts.seed);
        peak_mib.get_or_insert_with(|| vm_hwm_mib("self").unwrap_or(0.0));
        results
    });
    let first = &reps[0].1;
    print_results("untraced", &evaluator, first);
    let (mut problems, _) = search::recheck_all(&evaluator, first);
    for (rep, (_, results)) in reps.iter().enumerate().skip(1) {
        for (job, (a, b)) in first.iter().zip(results).enumerate() {
            if a != b {
                problems[job].push(format!("repetition {rep} gave a different result"));
            }
        }
    }
    for (i, p) in problems.iter().enumerate() {
        report.job(&job_label(i), p);
    }
    let walls: Vec<f64> = reps.iter().map(|(w, _)| *w).collect();
    eprintln!("search-large: {} repetitions, run_s {walls:?}", walls.len());
    let mut setup_times = setup.setup_times;
    setup_times.extend(self::setup(opts.seed)?.setup_times);
    eprintln!("search-large: {} set-ups", setup_times.len());
    report.push("setup_s", median(&setup_times), "s");
    report.push("run_s", median(&walls), "s");
    report.push("peak_rss_mb", peak_mib.unwrap_or(0.0), "MiB");
    report.push_quality(
        first.iter().map(|r| {
            (
                r.best_evaluation.giant_size(),
                r.best_evaluation.covered_clients(),
            )
        }),
        setup.instance.router_count(),
        setup.instance.client_count(),
    );
    Ok(report)
}
