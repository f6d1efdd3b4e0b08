//! `ga-large`: `GaEngine::run` in the Figure-3 shape (Weibull clients, one
//! run per ad hoc initialisation, population 16, 40 generations) on the
//! proportional ×128 instance (8192 routers, 24576 clients), with two GA
//! evaluation threads.

use crate::common::{median, repeat_for, sample_setups, vm_hwm_mib, Opts, Report};
use crate::ga;
use crate::trace::Tracer;
use std::time::Instant;
use wmn_experiments::{Scenario, ScenarioScale};
use wmn_ga::population::Population;
use wmn_metrics::evaluator::Evaluator;
use wmn_model::ProblemInstance;

const SCALE: u32 = 128;
const POPULATION: usize = 16;
const GENERATIONS: usize = 40;
const GA_THREADS: usize = 2;

/// Instance generation and evaluator construction, sampled by
/// [`sample_setups`]. Returns the instance with the set-up times and the
/// median generation time.
fn setup(seed: u64) -> Result<(ProblemInstance, Vec<f64>, f64), String> {
    let spec = Scenario::Weibull
        .scaled_spec(ScenarioScale::proportional(SCALE))
        .map_err(|e| e.to_string())?;
    let mut generate_ms = Vec::new();
    let (setup_times, instance) = sample_setups(|| {
        let t = Instant::now();
        let inst = spec.generate(seed).map_err(|e| e.to_string())?;
        generate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(Evaluator::paper_default(&inst));
        Ok(inst)
    })?;
    Ok((instance, setup_times, median(&generate_ms)))
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let (instance, mut setup_times, generate_ms) = setup(opts.seed)?;
    let evaluator = Evaluator::paper_default(&instance);
    let config = ga::config(POPULATION, GENERATIONS, GA_THREADS);
    println!(
        "config ga-large routers={} clients={} ga_threads={GA_THREADS}",
        instance.router_count(),
        instance.client_count()
    );
    let mut report = Report::default();
    if opts.trace {
        traced(opts, &evaluator, &config, generate_ms, &mut report)?;
        return Ok(report);
    }

    // Peak memory of one pass of the work: later repetitions only add
    // allocator fragmentation.
    let mut peak_mib = None;
    let reps = repeat_for(opts.seconds, || {
        let outcomes = ga::run_jobs(&evaluator, &config, opts.seed);
        peak_mib.get_or_insert_with(|| vm_hwm_mib("self").unwrap_or(0.0));
        outcomes.map(|mut outcomes| {
            // The checks read only the best of each job. Dropping the final
            // populations keeps peak_rss_mb independent of the repetition
            // count.
            for o in &mut outcomes {
                o.final_population = Population::new();
            }
            outcomes
        })
    });
    let mut runs = Vec::with_capacity(reps.len());
    for (wall, outcomes) in reps {
        runs.push((wall, outcomes.map_err(|e| format!("GA run failed: {e}"))?));
    }
    let first = &runs[0].1;
    ga::print_digest("threads=2", first);
    let (mut problems, _) = ga::recheck_all(&evaluator, first);
    for (rep, (_, outcomes)) in runs.iter().enumerate().skip(1) {
        for (job, (a, b)) in first.iter().zip(outcomes).enumerate() {
            if a.best_evaluation != b.best_evaluation || a.best_placement != b.best_placement {
                problems[job].push(format!("repetition {rep} gave a different result"));
            }
        }
    }
    for (m, p) in ga::methods().iter().zip(&problems) {
        report.job(m.name(), p);
    }
    let walls: Vec<f64> = runs.iter().map(|(w, _)| *w).collect();
    eprintln!("ga-large: {} repetitions, run_s {walls:?}", walls.len());
    setup_times.extend(setup(opts.seed)?.1);
    eprintln!("ga-large: {} set-ups", setup_times.len());
    report.push("setup_s", median(&setup_times), "s");
    report.push("run_s", median(&walls), "s");
    report.push("peak_rss_mb", peak_mib.unwrap_or(0.0), "MiB");
    report.push_quality(
        first.iter().map(|o| {
            (
                o.best_evaluation.giant_size(),
                o.best_evaluation.covered_clients(),
            )
        }),
        instance.router_count(),
        instance.client_count(),
    );
    Ok(report)
}

/// The traced run: the untraced engine at two threads and at one, then the
/// traced one-thread re-drive, which must match both.
fn traced(
    opts: &Opts,
    evaluator: &Evaluator<'_>,
    config: &wmn_ga::GaConfig,
    generate_ms: f64,
    report: &mut Report,
) -> Result<(), String> {
    let timed = |threads: usize| {
        let mut c = config.clone();
        c.threads = threads;
        let t = Instant::now();
        let out = ga::run_jobs(evaluator, &c, opts.seed).map_err(|e| format!("GA run failed: {e}"));
        out.map(|o| (t.elapsed().as_secs_f64(), o, c))
    };
    let (t2, out2, _) = timed(GA_THREADS)?;
    let (t1, out1, config1) = timed(1)?;
    ga::print_digest("threads=2", &out2);
    ga::print_digest("threads=1", &out1);

    let mut tr = Tracer::new();
    let mut totals = ga::RedriveTotals::default();
    let mut problems =
        ga::redrive_jobs(evaluator, &config1, opts.seed, &out1, &mut tr, &mut totals);
    let (recheck, full_eval_ms) = ga::recheck_all(evaluator, &out1);
    for (job, p) in problems.iter_mut().enumerate() {
        p.extend(recheck[job].iter().cloned());
        if out1[job].best_evaluation != out2[job].best_evaluation
            || out1[job].best_placement != out2[job].best_placement
        {
            p.push("one and two GA threads disagree".to_owned());
        }
    }
    for (m, p) in ga::methods().iter().zip(&problems) {
        report.job(m.name(), p);
    }

    tr.dump(opts)?;

    report.push("model.generate_ms", generate_ms, "ms");
    ga::push_layer_metrics(report, &tr, &totals);
    totals.counters.push_metrics(report);
    report.push(
        "metrics.measure_ns",
        tr.get("metrics.measure").mean(1.0),
        "ns",
    );
    report.push(
        "metrics.evals_per_s",
        totals.evaluations as f64 / totals.wall.as_secs_f64(),
        "1/s",
    );
    report.push("metrics.full_eval_ms", full_eval_ms, "ms");
    report.push(
        "ga.parallel_efficiency",
        t1 / (GA_THREADS as f64 * t2),
        "ratio",
    );
    report.push(
        "obs.trace_overhead",
        totals.wall.as_secs_f64() / t1 - 1.0,
        "ratio",
    );
    Ok(())
}
