//! Neighborhood-search jobs: the untraced searcher `run_with_topology`
//! calls and a traced re-drive of the same loops through `propose`,
//! `MoveAction::apply`, `evaluate_topology` and `UndoAction::undo`.

use crate::common::{self, RepairCounters, Report};
use crate::trace::Tracer;
use rand::{Rng, RngCore};
use std::time::{Duration, Instant};
use wmn_graph::topology::WmnTopology;
use wmn_metrics::evaluator::{Evaluation, Evaluator};
use wmn_model::node::RouterId;
use wmn_model::placement::Placement;
use wmn_model::rng::{rng_from_seed, stream_seed};
use wmn_search::annealing::{AnnealingConfig, SimulatedAnnealing};
use wmn_search::movement::{MoveAction, Movement, RandomMovement, SwapConfig, SwapMovement};
use wmn_search::neighborhood::ExplorationBudget;
use wmn_search::search::{NeighborhoodSearch, SearchConfig, StoppingCondition};
use wmn_search::tabu::{TabuConfig, TabuSearch};
use wmn_search::trace::SearchTrace;

/// Figure-4 effort: phases per run and neighbors sampled per phase.
const PHASES: usize = 61;
const NEIGHBORS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Searcher {
    NsSwap,
    NsRandom,
    SaSwap,
    TabuSwap,
}

impl Searcher {
    pub fn name(self) -> &'static str {
        match self {
            Searcher::NsSwap => "ns-swap",
            Searcher::NsRandom => "ns-random",
            Searcher::SaSwap => "sa-swap",
            Searcher::TabuSwap => "tabu-swap",
        }
    }

    fn movement(self, evaluator: &Evaluator<'_>) -> Box<dyn Movement> {
        match self {
            Searcher::NsRandom => Box::new(RandomMovement::new(evaluator.instance())),
            _ => Box::new(SwapMovement::new(
                evaluator.instance(),
                SwapConfig::default(),
            )),
        }
    }

    fn annealing() -> AnnealingConfig {
        AnnealingConfig {
            moves_per_phase: NEIGHBORS,
            phases: PHASES,
            ..AnnealingConfig::default()
        }
    }

    fn tabu() -> TabuConfig {
        TabuConfig {
            candidates_per_phase: NEIGHBORS,
            phases: PHASES,
            ..TabuConfig::default()
        }
    }
}

/// One job: a searcher from one start.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub start: usize,
    pub searcher: Searcher,
}

/// The result of one job, in the shape every searcher shares.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    pub best_placement: Placement,
    pub best_evaluation: Evaluation,
    /// Per phase: fitness, giant size, covered clients, accepted.
    pub phases: Vec<(f64, usize, usize, bool)>,
}

fn phases_of(trace: &SearchTrace) -> Vec<(f64, usize, usize, bool)> {
    trace
        .phases()
        .iter()
        .map(|r| (r.fitness(), r.giant_size(), r.covered_clients(), r.accepted))
        .collect()
}

fn job_rng(seed: u64, job: Job, searcher_index: usize) -> wmn_model::rng::Rng {
    rng_from_seed(stream_seed(
        seed,
        &[0x5e, job.start as u64, searcher_index as u64],
    ))
}

pub const SEARCHERS: [Searcher; 4] = [
    Searcher::NsSwap,
    Searcher::NsRandom,
    Searcher::SaSwap,
    Searcher::TabuSwap,
];

/// Every searcher of `searchers` from each of `starts` starts, with the
/// searcher's index (part of its RNG stream).
pub fn jobs(starts: usize, searchers: &[Searcher]) -> Vec<(Job, usize)> {
    (0..starts)
        .flat_map(|start| {
            searchers
                .iter()
                .enumerate()
                .map(move |(i, &searcher)| (Job { start, searcher }, i))
        })
        .collect()
}

/// Runs every job through its searcher's public `run_with_topology`.
pub fn run_jobs(
    evaluator: &Evaluator<'_>,
    starts: &[WmnTopology],
    jobs: &[(Job, usize)],
    seed: u64,
) -> Vec<JobResult> {
    jobs.iter()
        .map(|&(job, i)| run_job(evaluator, &starts[job.start], job, i, seed))
        .collect()
}

/// Runs one job through the searcher's public `run_with_topology`.
fn run_job(
    evaluator: &Evaluator<'_>,
    start: &WmnTopology,
    job: Job,
    searcher_index: usize,
    seed: u64,
) -> JobResult {
    let mut topo = start.clone();
    let mut rng = job_rng(seed, job, searcher_index);
    let movement = job.searcher.movement(evaluator);
    match job.searcher {
        Searcher::NsSwap | Searcher::NsRandom => {
            let config = SearchConfig {
                budget: ExplorationBudget::sampled(NEIGHBORS),
                stopping: StoppingCondition::fixed_phases(PHASES),
            };
            let o = NeighborhoodSearch::new(evaluator, movement, config)
                .run_with_topology(&mut topo, &mut rng);
            JobResult {
                phases: phases_of(&o.trace),
                best_placement: o.best_placement,
                best_evaluation: o.best_evaluation,
            }
        }
        Searcher::SaSwap => {
            let o = SimulatedAnnealing::new(evaluator, movement, Searcher::annealing())
                .run_with_topology(&mut topo, &mut rng);
            JobResult {
                phases: phases_of(&o.trace),
                best_placement: o.best_placement,
                best_evaluation: o.best_evaluation,
            }
        }
        Searcher::TabuSwap => {
            let o = TabuSearch::new(evaluator, movement, Searcher::tabu())
                .run_with_topology(&mut topo, &mut rng);
            JobResult {
                phases: phases_of(&o.trace),
                best_placement: o.best_placement,
                best_evaluation: o.best_evaluation,
            }
        }
    }
}

/// Work tallies of the traced re-drives.
#[derive(Debug, Default)]
pub struct RedriveTotals {
    pub steps: u64,
    pub phases: u64,
    pub accepted_phases: u64,
    pub counters: RepairCounters,
    pub wall: Duration,
}

/// The traced state of one re-driven job.
struct Stepper<'a, 'e> {
    evaluator: &'a Evaluator<'e>,
    movement: Box<dyn Movement>,
    propose_span: &'static str,
    topo: WmnTopology,
}

impl Stepper<'_, '_> {
    /// One candidate: propose, apply, evaluate, then undo unless `keep`
    /// accepts it — each call a span, in the searchers' order and RNG use.
    fn step(
        &mut self,
        rng: &mut dyn RngCore,
        tr: &mut Tracer,
        totals: &mut RedriveTotals,
        keep: impl FnOnce(&Evaluation, &mut dyn RngCore) -> bool,
    ) -> (MoveAction, Evaluation, bool) {
        let span = tr.begin("search.step");
        let topo = &mut self.topo;
        let action = tr.time(self.propose_span, || self.movement.propose(topo, rng));
        let before = topo.engine_stats();
        let undo = tr.time("graph.move", || action.apply(topo));
        let evaluation = tr.time("metrics.measure", || self.evaluator.evaluate_topology(topo));
        let kept = keep(&evaluation, rng);
        if !kept {
            tr.time("graph.undo", || undo.undo(topo));
        }
        totals.counters.add(&before, &topo.engine_stats());
        totals.steps += 1;
        tr.end(span);
        (action, evaluation, kept)
    }

    /// Applies a chosen move for good.
    fn commit(&mut self, action: MoveAction, tr: &mut Tracer, totals: &mut RedriveTotals) {
        let topo = &mut self.topo;
        let before = topo.engine_stats();
        let _ = tr.time("graph.move", || action.apply(topo));
        totals.counters.add(&before, &topo.engine_stats());
    }
}

fn touched(action: &MoveAction) -> [Option<RouterId>; 2] {
    match *action {
        MoveAction::Relocate { router, .. } => [Some(router), None],
        MoveAction::Swap { a, b } => [Some(a), Some(b)],
    }
}

/// Re-drives one job traced: the same phase loop as the searcher, with the
/// same RNG draws in the same order.
fn redrive_job(
    evaluator: &Evaluator<'_>,
    start: &WmnTopology,
    job: Job,
    searcher_index: usize,
    seed: u64,
    tr: &mut Tracer,
    totals: &mut RedriveTotals,
) -> JobResult {
    let mut rng = job_rng(seed, job, searcher_index);
    let run = tr.begin("search.run");
    let mut s = Stepper {
        evaluator,
        movement: job.searcher.movement(evaluator),
        propose_span: match job.searcher {
            Searcher::NsRandom => "search.propose.random",
            _ => "search.propose.swap",
        },
        topo: start.clone(),
    };
    let mut current = evaluator.evaluate_topology(&s.topo);
    let mut best_evaluation = current;
    let mut best_placement = s.topo.placement();
    let mut phases = Vec::with_capacity(PHASES);
    let mut temperature = Searcher::annealing().initial_temperature;
    let mut tabu_until = vec![0usize; s.topo.router_count()];
    for phase in 1..=PHASES {
        let span = tr.begin("search.phase");
        let accepted = match job.searcher {
            Searcher::NsSwap | Searcher::NsRandom => {
                let mut best: Option<(MoveAction, Evaluation)> = None;
                for _ in 0..NEIGHBORS {
                    let (action, eval, _) = s.step(&mut rng, tr, totals, |_, _| false);
                    if best.is_none_or(|(_, b)| eval.fitness > b.fitness) {
                        best = Some((action, eval));
                    }
                }
                match best {
                    Some((action, eval)) if eval.fitness > current.fitness => {
                        s.commit(action, tr, totals);
                        current = eval;
                        true
                    }
                    _ => false,
                }
            }
            Searcher::SaSwap => {
                let mut phase_accepted = false;
                for _ in 0..NEIGHBORS {
                    let (_, eval, kept) = s.step(&mut rng, tr, totals, |eval, rng| {
                        let delta = eval.fitness - current.fitness;
                        delta >= 0.0 || rng.gen::<f64>() < (delta / temperature).exp()
                    });
                    if kept {
                        current = eval;
                        phase_accepted = true;
                        if current.fitness > best_evaluation.fitness {
                            best_evaluation = current;
                            best_placement = s.topo.placement();
                        }
                    }
                }
                temperature *= Searcher::annealing().cooling;
                phase_accepted
            }
            Searcher::TabuSwap => {
                let mut chosen: Option<(MoveAction, Evaluation)> = None;
                for _ in 0..NEIGHBORS {
                    let (action, eval, _) = s.step(&mut rng, tr, totals, |_, _| false);
                    let is_tabu = touched(&action)
                        .into_iter()
                        .flatten()
                        .any(|r| tabu_until[r.index()] >= phase);
                    if is_tabu && eval.fitness <= best_evaluation.fitness {
                        continue;
                    }
                    if chosen.is_none_or(|(_, c)| eval.fitness > c.fitness) {
                        chosen = Some((action, eval));
                    }
                }
                match chosen {
                    Some((action, eval)) => {
                        s.commit(action, tr, totals);
                        current = eval;
                        for r in touched(&action).into_iter().flatten() {
                            tabu_until[r.index()] = phase + Searcher::tabu().tenure;
                        }
                        true
                    }
                    None => false,
                }
            }
        };
        if job.searcher != Searcher::SaSwap && current.fitness > best_evaluation.fitness {
            best_evaluation = current;
            best_placement = s.topo.placement();
        }
        phases.push((
            current.fitness,
            current.giant_size(),
            current.covered_clients(),
            accepted,
        ));
        totals.phases += 1;
        totals.accepted_phases += u64::from(accepted);
        tr.end(span);
    }
    tr.end(run);
    JobResult {
        best_placement,
        best_evaluation,
        phases,
    }
}

/// Re-drives every job traced and compares each with its untraced
/// `reference` result. Returns the mismatches per job.
pub fn redrive_jobs(
    evaluator: &Evaluator<'_>,
    starts: &[WmnTopology],
    jobs: &[(Job, usize)],
    seed: u64,
    reference: &[JobResult],
    tr: &mut Tracer,
    totals: &mut RedriveTotals,
) -> Vec<Vec<String>> {
    let started = Instant::now();
    let problems = jobs
        .iter()
        .copied()
        .zip(reference)
        .map(|((job, i), want)| {
            let got = redrive_job(evaluator, &starts[job.start], job, i, seed, tr, totals);
            let mut p = Vec::new();
            if got.phases != want.phases {
                let at = got
                    .phases
                    .iter()
                    .zip(&want.phases)
                    .position(|(a, b)| a != b)
                    .unwrap_or(got.phases.len().min(want.phases.len()));
                p.push(format!("traced re-drive diverges at phase {}", at + 1));
            }
            if got.best_evaluation != want.best_evaluation
                || got.best_placement != want.best_placement
            {
                p.push("traced re-drive ends on a different best placement".to_owned());
            }
            p
        })
        .collect();
    totals.wall += started.elapsed();
    problems
}

/// Re-evaluates every job's best placement from scratch (see
/// [`crate::common::recheck_all`]).
pub fn recheck_all(evaluator: &Evaluator<'_>, results: &[JobResult]) -> (Vec<Vec<String>>, f64) {
    common::recheck_all(
        evaluator,
        results
            .iter()
            .map(|r| (&r.best_placement, &r.best_evaluation)),
    )
}

/// The search and single-move graph metrics of the traced re-drives.
pub fn push_layer_metrics(report: &mut Report, tr: &Tracer, totals: &RedriveTotals) {
    let swap = tr.get("search.propose.swap");
    let random = tr.get("search.propose.random");
    report.push("search.propose_us.swap", swap.mean(1e3), "us");
    report.push("search.propose_us.random", random.mean(1e3), "us");
    let step_ns = tr.get("search.step").total_ns;
    report.push(
        "search.propose_share",
        if step_ns == 0 {
            0.0
        } else {
            (swap.total_ns + random.total_ns) as f64 / step_ns as f64
        },
        "ratio",
    );
    let wall = totals.wall.as_secs_f64().max(1e-9);
    report.push("search.steps_per_s", totals.steps as f64 / wall, "1/s");
    report.push(
        "search.accept_ratio",
        crate::common::ratio(totals.accepted_phases, totals.phases),
        "ratio",
    );
    report.push("graph.move_us", tr.get("graph.move").mean(1e3), "us");
    report.push("graph.undo_us", tr.get("graph.undo").mean(1e3), "us");
}
