//! GA jobs: the untraced `GaEngine::run` calls and a traced re-drive of
//! the same generational loop through the public per-layer calls.

use crate::common::{self, Digest, RepairCounters, Report};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use wmn_ga::engine::{GaConfig, GaEngine, GaOutcome};
use wmn_ga::init::PopulationInit;
use wmn_ga::population::{Lineage, Population};
use wmn_metrics::evaluator::{EvalWorkspace, Evaluation, Evaluator};
use wmn_model::placement::Placement;
use wmn_model::rng::{rng_from_seed, stream_seed};
use wmn_model::ModelError;
use wmn_placement::registry::AdHocMethod;

/// One GA job per ad hoc initialisation method, as in Figures 1–3.
pub fn methods() -> [AdHocMethod; 7] {
    AdHocMethod::all()
}

pub fn config(population: usize, generations: usize, threads: usize) -> GaConfig {
    GaConfig::builder()
        .population_size(population)
        .generations(generations)
        .threads(threads)
        .build()
        .expect("benchmark GA configuration is valid")
}

/// The RNG stream of job `index`, derived from the workload seed.
fn job_rng(seed: u64, index: usize) -> wmn_model::rng::Rng {
    rng_from_seed(stream_seed(seed, &[0x6a, index as u64]))
}

/// Runs every job through `GaEngine::run`.
pub fn run_jobs(
    evaluator: &Evaluator<'_>,
    config: &GaConfig,
    seed: u64,
) -> Result<Vec<GaOutcome>, ModelError> {
    let engine = GaEngine::new(evaluator, config.clone());
    methods()
        .into_iter()
        .enumerate()
        .map(|(i, m)| engine.run(&PopulationInit::AdHoc(m), &mut job_rng(seed, i)))
        .collect()
}

/// Prints one line per job: method, best fitness and best giant size.
pub fn print_digest(label: &str, outcomes: &[GaOutcome]) {
    for (m, o) in methods().iter().zip(outcomes) {
        println!(
            "digest {label} job={} fitness={} giant={} covered={}",
            m.name(),
            o.best_evaluation.fitness,
            o.best_evaluation.giant_size(),
            o.best_evaluation.covered_clients()
        );
    }
    println!(
        "digest {label} all={}",
        Digest::of(outcomes.iter().map(|o| &o.best_evaluation))
    );
}

/// Re-evaluates every job's best placement from scratch (see
/// [`crate::common::recheck_all`]).
pub fn recheck_all(evaluator: &Evaluator<'_>, outcomes: &[GaOutcome]) -> (Vec<Vec<String>>, f64) {
    common::recheck_all(
        evaluator,
        outcomes
            .iter()
            .map(|o| (&o.best_placement, &o.best_evaluation)),
    )
}

/// What the traced re-drive of one job produced.
struct Redriven {
    /// Per generation: best fitness, giant size and coverage.
    records: Vec<(f64, usize, usize)>,
    best_placement: Placement,
    best_evaluation: Evaluation,
}

/// Work tallies of the traced re-drives.
#[derive(Debug, Default)]
pub struct RedriveTotals {
    pub evaluations: u64,
    pub children: u64,
    pub moved_routers: u64,
    pub generations: u64,
    pub jobs: u64,
    pub individuals: u64,
    pub counters: RepairCounters,
    pub wall: Duration,
}

/// The child's lineage parent: whichever recorded parent differs from the
/// child in fewer genes, ties toward `a` (the engine's rule).
fn closer_parent(parents: &Population, lineage: Lineage, child: &Placement) -> usize {
    if lineage.a == lineage.b {
        return lineage.a;
    }
    let diff = |idx: usize| {
        parents.individuals()[idx]
            .placement()
            .as_slice()
            .iter()
            .zip(child.as_slice())
            .filter(|(p, c)| p != c)
            .count()
    };
    if diff(lineage.b) < diff(lineage.a) {
        lineage.b
    } else {
        lineage.a
    }
}

fn best_record(population: &Population) -> (f64, usize, usize) {
    let best = population.best_evaluation().expect("evaluated population");
    (best.fitness, best.giant_size(), best.covered_clients())
}

/// One GA job on one thread, every layer call timed as a span: population
/// build, topology builds, then per generation `reproduce` and per child
/// `adopt_topology` (the `clone_from` state copy), `diff_placement_into`,
/// `apply_moves_from` and `evaluate_topology`.
fn redrive_job(
    evaluator: &Evaluator<'_>,
    config: &GaConfig,
    init: &PopulationInit,
    rng: &mut dyn rand::RngCore,
    tr: &mut Tracer,
    totals: &mut RedriveTotals,
) -> Result<Redriven, ModelError> {
    let engine = GaEngine::new(evaluator, config.clone());
    let instance = evaluator.instance();
    let run = tr.begin("ga.run");
    let init_span = tr.begin("ga.init");
    let mut population = tr.time("placement.population", || {
        init.build(instance, config.population_size, rng)
    });
    let mut slots = Vec::with_capacity(population.len());
    for ind in population.individuals_mut() {
        instance.validate_placement(ind.placement())?;
        let topo = tr.time("graph.build", || evaluator.topology(ind.placement()))?;
        ind.set_evaluation(tr.time("metrics.measure", || evaluator.evaluate_topology(&topo)));
        let mut slot = EvalWorkspace::new();
        slot.set_topology(topo);
        slots.push(slot);
    }
    tr.end(init_span);
    totals.individuals += population.len() as u64;
    totals.evaluations += population.len() as u64;

    let mut records = vec![best_record(&population)];
    let mut best_placement = population.best().expect("nonempty").placement().clone();
    let mut best_evaluation = population.best_evaluation().expect("evaluated");
    let mut spare: Vec<EvalWorkspace> = Vec::new();
    let mut moves = Vec::new();
    for _ in 1..=config.generations {
        let generation = tr.begin("ga.generation");
        let (mut children, lineage) =
            tr.time("ga.reproduce", || engine.reproduce(&population, rng));
        let evaluate = tr.begin("ga.evaluate");
        spare.resize_with(children.len(), EvalWorkspace::new);
        for ((child, slot), &line) in children
            .individuals_mut()
            .iter_mut()
            .zip(spare.iter_mut())
            .zip(&lineage)
        {
            let span = tr.begin("ga.child");
            let parent = closer_parent(&population, line, child.placement());
            let parent_topo = slots[parent].topology().expect("parent slot is live");
            tr.time("graph.clone_from", || slot.adopt_topology(parent_topo));
            let other = line.a + line.b - parent;
            let donor = (other != parent).then(|| slots[other].topology()).flatten();
            instance.validate_placement(child.placement())?;
            let topo = slot.topology_mut().expect("topology just adopted");
            tr.time("graph.diff", || {
                topo.diff_placement_into(child.placement(), &mut moves)
            });
            let before = topo.engine_stats();
            tr.time("graph.apply_batch", || topo.apply_moves_from(&moves, donor));
            totals.counters.add(&before, &topo.engine_stats());
            totals.moved_routers += moves.len() as u64;
            let e = tr.time("metrics.measure", || evaluator.evaluate_topology(topo));
            if !child.is_evaluated() {
                child.set_evaluation(e);
            }
            tr.end(span);
        }
        tr.end(evaluate);
        std::mem::swap(&mut slots, &mut spare);
        population = children;
        totals.children += population.len() as u64;
        totals.evaluations += population.len() as u64;
        records.push(best_record(&population));
        let gen_best = population.best_evaluation().expect("evaluated");
        if gen_best.fitness > best_evaluation.fitness {
            best_evaluation = gen_best;
            best_placement = population.best().expect("nonempty").placement().clone();
        }
        tr.end(generation);
    }
    tr.end(run);
    totals.generations += config.generations as u64;
    totals.jobs += 1;
    Ok(Redriven {
        records,
        best_placement,
        best_evaluation,
    })
}

/// Re-drives every job traced (on one thread) and compares each with the
/// untraced `reference` outcome: per-generation best fitness, giant size
/// and coverage, and the final best evaluation and placement must all be
/// equal. Returns the mismatches per job.
pub fn redrive_jobs(
    evaluator: &Evaluator<'_>,
    config: &GaConfig,
    seed: u64,
    reference: &[GaOutcome],
    tr: &mut Tracer,
    totals: &mut RedriveTotals,
) -> Vec<Vec<String>> {
    let started = Instant::now();
    let problems = methods()
        .into_iter()
        .enumerate()
        .zip(reference)
        .map(|((i, m), want)| {
            let got = redrive_job(
                evaluator,
                config,
                &PopulationInit::AdHoc(m),
                &mut job_rng(seed, i),
                tr,
                totals,
            );
            match got {
                Ok(got) => compare(&got, want),
                Err(e) => vec![format!("traced re-drive failed: {e}")],
            }
        })
        .collect();
    totals.wall += started.elapsed();
    problems
}

fn compare(got: &Redriven, want: &GaOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    let want_records: Vec<_> = want
        .trace
        .records()
        .iter()
        .map(|r| (r.best_fitness(), r.best_giant(), r.best_coverage()))
        .collect();
    if got.records != want_records {
        let at = got
            .records
            .iter()
            .zip(&want_records)
            .position(|(a, b)| a != b)
            .unwrap_or(got.records.len().min(want_records.len()));
        problems.push(format!("traced re-drive diverges at generation {at}"));
    }
    if got.best_evaluation != want.best_evaluation || got.best_placement != want.best_placement {
        problems.push("traced re-drive ends on a different best placement".to_owned());
    }
    problems
}

/// The GA and batch-repair graph metrics of the traced re-drives.
pub fn push_layer_metrics(report: &mut Report, tr: &Tracer, totals: &RedriveTotals) {
    let per = |ns: u64, n: u64, unit_ns: f64| {
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / unit_ns
        }
    };
    report.push(
        "placement.place_us",
        per(
            tr.get("placement.population").total_ns,
            totals.individuals,
            1e3,
        ),
        "us",
    );
    report.push("graph.build_ms", tr.get("graph.build").mean(1e6), "ms");
    report.push(
        "graph.clone_from_us",
        tr.get("graph.clone_from").mean(1e3),
        "us",
    );
    report.push("graph.diff_us", tr.get("graph.diff").mean(1e3), "us");
    let apply = tr.get("graph.apply_batch");
    report.push("graph.apply_batch_us", apply.mean(1e3), "us");
    report.push(
        "graph.apply_ns_per_router",
        per(apply.total_ns, totals.moved_routers, 1.0),
        "ns",
    );
    report.push(
        "graph.moved_routers_per_child",
        per(totals.moved_routers, totals.children, 1.0),
        "count",
    );
    report.push(
        "ga.reproduce_ms",
        per(tr.get("ga.reproduce").total_ns, totals.generations, 1e6),
        "ms",
    );
    report.push(
        "ga.evaluate_ms",
        per(tr.get("ga.evaluate").total_ns, totals.generations, 1e6),
        "ms",
    );
    report.push(
        "ga.init_ms",
        per(tr.get("ga.init").total_ns, totals.jobs, 1e6),
        "ms",
    );
}
