//! Reproduction of Figures 1–4.
//!
//! Figures 1–3: evolution of the giant component size over GA generations,
//! one curve per ad hoc initialization method, for the Normal, Exponential
//! and Weibull scenarios — the figure view of the scenario's GA batch
//! ([`crate::batch::run_ga_batch`]), which also yields Table N from the
//! same runs. Figure 4: evolution of the giant component over
//! neighborhood search phases, swap versus random movement, on the Normal
//! scenario.

use crate::batch::run_isolated;
use crate::error::ExperimentError;
use crate::scenario::{ExperimentConfig, Scenario};
use wmn_metrics::evaluator::Evaluator;
use wmn_metrics::stats::Trace;
use wmn_model::instance::ProblemInstance;
use wmn_model::placement::Placement;
use wmn_model::ModelError;
use wmn_obs::{Recorder, TelemetryRecorder};
use wmn_placement::registry::AdHocMethod;
use wmn_runtime::grid::{domain, Cell};
use wmn_search::movement::{Movement, RandomMovement, SwapConfig, SwapMovement};
use wmn_search::neighborhood::ExplorationBudget;
use wmn_search::search::{NeighborhoodSearch, SearchConfig, StoppingCondition};
use wmn_search::trace::SearchTrace;

/// A reproduced GA-evolution figure (Figures 1–3).
#[derive(Debug, Clone, PartialEq)]
pub struct GaFigure {
    /// The scenario (Normal → Figure 1, Exponential → 2, Weibull → 3).
    pub scenario: Scenario,
    /// One `(generation, giant size)` series per init method, downsampled
    /// to the configured stride.
    pub series: Vec<Trace>,
}

impl GaFigure {
    /// The paper figure number (`None` for Uniform).
    pub fn figure_number(&self) -> Option<usize> {
        self.scenario.table_number()
    }

    /// The series for a method, if present.
    pub fn series_for(&self, method: AdHocMethod) -> Option<&Trace> {
        self.series.iter().find(|t| t.name() == method.name())
    }

    /// The method whose curve ends highest (the paper: HotSpot).
    pub fn best_final_method(&self) -> Option<&str> {
        self.series
            .iter()
            .max_by(|a, b| {
                a.last_y()
                    .unwrap_or(f64::NEG_INFINITY)
                    .partial_cmp(&b.last_y().unwrap_or(f64::NEG_INFINITY))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|t| t.name())
    }
}

/// A reproduced Figure 4: neighborhood search evolution, swap vs random.
#[derive(Debug, Clone, PartialEq)]
pub struct NsFigure {
    /// `(phase, giant size)` for the swap movement.
    pub swap: Trace,
    /// `(phase, giant size)` for the random movement.
    pub random: Trace,
}

impl NsFigure {
    /// Both series, swap first (legend order of the paper's Figure 4).
    pub fn series(&self) -> [&Trace; 2] {
        [&self.swap, &self.random]
    }
}

/// Runs Figure 4: neighborhood search with swap and random movements from
/// the same random initial placement on the Normal scenario. Swap and
/// random are the two cells of the Figure 4 grid; they run in parallel on
/// the experiment runtime's panic-isolated executor. With a `recorder`,
/// the searches' work-counter telemetry (`search.ns.*` plus the engine
/// deltas) is collected into it; the figure is the same either way.
///
/// # Errors
///
/// Propagates instance generation failures, and reports the grid cell
/// that exhausted its retry budget ([`ExperimentError::Cell`]).
pub fn run_ns_figure(
    config: &ExperimentConfig,
    recorder: Option<&mut TelemetryRecorder>,
) -> Result<NsFigure, ExperimentError> {
    let scenario = Scenario::Normal;
    let instance = config.instance(scenario)?;
    let evaluator = Evaluator::paper_default(&instance);
    let initial = ns_initial_placement(config, scenario, &instance);

    let jobs: Vec<(u64, &str)> = vec![(0, "Swap"), (1, "Random")];
    let traces = run_isolated(
        config,
        jobs,
        "fig4",
        ns_cell_label,
        recorder,
        |ctx, (movement_id, label), rec| {
            ns_job(
                scenario,
                config,
                &instance,
                &evaluator,
                &initial,
                *movement_id,
                label,
                ctx.sabotage,
                rec,
            )
            .map(|trace| trace.giant_series(*label))
        },
    )?;
    let mut traces = traces.into_iter();
    let (swap, random) = (
        traces.next().expect("swap trace"),
        traces.next().expect("random trace"),
    );
    Ok(NsFigure { swap, random })
}

/// The label of a Figure 4 grid cell for error reporting.
fn ns_cell_label(index: usize) -> String {
    match index {
        0 => "ns-Swap".to_owned(),
        _ => "ns-Random".to_owned(),
    }
}

/// The shared random starting point of both Figure 4 searches ("client
/// mesh routers distributed according to a normal distribution" — the
/// initial router placement is random).
fn ns_initial_placement(
    config: &ExperimentConfig,
    scenario: Scenario,
    instance: &ProblemInstance,
) -> Placement {
    let init_cell = Cell::new("ns-initial", &[domain::INITIAL, scenario.grid_id(), 0]);
    let mut init_rng = init_cell.rng(config.run_seed);
    instance.random_placement(&mut init_rng)
}

/// One Figure 4 search (its full per-phase trace; the figure plots the
/// giant series): a neighborhood search with the given movement over
/// a live topology. A sabotaged attempt (`blowup@repair` fault) floors
/// the connectivity cost cap — forcing the rescan fallback on every
/// deletion search of the local repair route that single moves and swaps
/// take — driving real degraded work through the engine; the attempt is
/// doomed by the runtime afterwards, so none of it can reach the figure
/// or its telemetry.
#[allow(clippy::too_many_arguments)]
fn ns_job(
    scenario: Scenario,
    config: &ExperimentConfig,
    instance: &ProblemInstance,
    evaluator: &Evaluator<'_>,
    initial: &Placement,
    movement_id: u64,
    label: &str,
    sabotage: bool,
    recorder: &mut dyn Recorder,
) -> Result<SearchTrace, ModelError> {
    let search_config = SearchConfig {
        budget: ExplorationBudget::sampled(config.ns_budget),
        stopping: StoppingCondition::fixed_phases(config.ns_phases),
    };
    let movement: Box<dyn Movement> = match movement_id {
        0 => Box::new(SwapMovement::new(instance, SwapConfig::default())),
        _ => Box::new(RandomMovement::new(instance)),
    };
    let cell = Cell::new(
        format!("ns-{label}"),
        &[domain::NEIGHBORHOOD, scenario.grid_id(), movement_id],
    );
    let mut rng = cell.rng(config.run_seed);
    let search = NeighborhoodSearch::new(evaluator, movement, search_config);
    let mut topo = evaluator.topology(initial)?;
    if sabotage {
        topo.set_connectivity_cost_cap(Some(0));
    }
    let outcome = search.run_with_topology_recorded(&mut topo, &mut rng, recorder);
    Ok(outcome.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::run_ga_batch;
    use wmn_obs::NoopRecorder;

    fn quick_ga_figure(scenario: Scenario) -> GaFigure {
        run_ga_batch(scenario, &ExperimentConfig::quick(), None)
            .unwrap()
            .figure
    }

    #[test]
    fn ga_figure_has_one_series_per_method() {
        let fig = quick_ga_figure(Scenario::Normal);
        assert_eq!(fig.series.len(), 7);
        assert_eq!(fig.figure_number(), Some(1));
        for t in &fig.series {
            assert!(!t.is_empty());
            // Downsampling keeps the final generation.
            assert_eq!(
                t.points().last().unwrap().0,
                ExperimentConfig::quick().generations as f64
            );
        }
        assert!(fig.series_for(AdHocMethod::HotSpot).is_some());
    }

    #[test]
    fn ga_curves_are_monotone_nondecreasing() {
        // Elitism means the best-of-generation giant size never regresses
        // in fitness; the giant component of the best individual may wiggle
        // slightly (fitness mixes coverage), so allow small dips.
        let fig = quick_ga_figure(Scenario::Normal);
        for t in &fig.series {
            let first = t.points().first().unwrap().1;
            let last = t.points().last().unwrap().1;
            assert!(
                last >= first,
                "{}: giant fell from {first} to {last}",
                t.name()
            );
        }
    }

    #[test]
    fn ns_figure_swap_beats_random() {
        // The paper's Figure 4 claim: swap reaches a higher giant component
        // within the phase budget.
        let fig = run_ns_figure(&ExperimentConfig::quick(), None).unwrap();
        assert_eq!(fig.swap.len(), ExperimentConfig::quick().ns_phases);
        let swap_final = fig.swap.last_y().unwrap();
        let random_final = fig.random.last_y().unwrap();
        assert!(
            swap_final >= random_final,
            "swap ({swap_final}) must not lose to random ({random_final})"
        );
    }

    /// FNV-1a-64 over every phase of both Figure 4 searches (swap, then
    /// random): fitness bits, giant size and covered clients.
    fn ns_figure_digest(config: &ExperimentConfig) -> String {
        let scenario = Scenario::Normal;
        let instance = config.instance(scenario).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let initial = ns_initial_placement(config, scenario, &instance);
        let mut bytes = Vec::new();
        for (movement_id, label) in [(0, "Swap"), (1, "Random")] {
            let trace = ns_job(
                scenario,
                config,
                &instance,
                &evaluator,
                &initial,
                movement_id,
                label,
                false,
                &mut NoopRecorder,
            )
            .unwrap();
            assert_eq!(trace.len(), config.ns_phases);
            for record in trace.phases() {
                bytes.extend(record.fitness().to_bits().to_le_bytes());
                bytes.extend((record.giant_size() as u64).to_le_bytes());
                bytes.extend((record.covered_clients() as u64).to_le_bytes());
            }
        }
        format!("{:016x}", crate::checkpoint::fnv1a64(&bytes))
    }

    #[test]
    fn ns_figure_series_are_pinned() {
        // Any drift in swap proposals (or in the search, topology or
        // evaluator beneath them) changes these digests: Figure 4 must be
        // reproduced exactly, not approximately.
        assert_eq!(
            ns_figure_digest(&ExperimentConfig::quick()),
            "b7832654117920bb"
        );
        assert_eq!(
            ns_figure_digest(&ExperimentConfig::quick_scale(8)),
            "73f2f6708bd5f92f"
        );
    }

    #[test]
    fn ns_series_start_from_the_same_value() {
        let fig = run_ns_figure(&ExperimentConfig::quick(), None).unwrap();
        // Phase 1 values may already differ (one accepted move), but both
        // searches share the same initial placement, so the first recorded
        // giant size can differ by at most what one move can change; sanity
        // bound: within 16.
        let s0 = fig.swap.points()[0].1;
        let r0 = fig.random.points()[0].1;
        assert!((s0 - r0).abs() <= 16.0);
    }

    #[test]
    fn deterministic_per_config() {
        let a = run_ns_figure(&ExperimentConfig::quick(), None).unwrap();
        let b = run_ns_figure(&ExperimentConfig::quick(), None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_figures_match_plain_and_collect_counters() {
        let config = ExperimentConfig::quick();
        let mut recorder = TelemetryRecorder::new();
        let ga = run_ga_batch(Scenario::Normal, &config, Some(&mut recorder))
            .unwrap()
            .figure;
        assert_eq!(ga, quick_ga_figure(Scenario::Normal));
        assert_eq!(
            recorder.counters().get("ga.generations"),
            Some(&((7 * config.generations) as u64))
        );

        let mut ns_recorder = TelemetryRecorder::new();
        let ns = run_ns_figure(&config, Some(&mut ns_recorder)).unwrap();
        assert_eq!(ns, run_ns_figure(&config, None).unwrap());
        // Two searches of `ns_phases` each.
        assert_eq!(
            ns_recorder.counters().get("search.ns.phases"),
            Some(&((2 * config.ns_phases) as u64))
        );
    }
}
