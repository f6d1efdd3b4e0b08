//! Panic-isolated experiment batches, and the per-scenario GA batch
//! behind Tables 1–3 and Figures 1–3.
//!
//! In the paper, Table N's "giant component by GA" column is the end
//! point of Figure N's GA curve: both report the same runs. [`run_ga_batch`]
//! therefore runs each `(scenario, method)` GA exactly once. Each of its
//! seven jobs (one per ad hoc method, in paper order) evaluates the
//! standalone ad hoc placement (paper scenario 1) and runs a GA initialized
//! from the method (paper scenario 2) on the method's GA grid cell,
//! returning the table row *and* the downsampled figure curve.
//! [`TableResult`] and [`GaFigure`] are two views of that one batch.
//!
//! Per-cell RNG seeds are derived from grid coordinates
//! (`[domain, scenario, method]`, see [`wmn_runtime::grid`]), so every
//! batch is bit-identical for every worker count and — because retried
//! cells re-derive the same seeds — under any within-budget fault plan.

use crate::error::ExperimentError;
use crate::figures::GaFigure;
use crate::scenario::{ExperimentConfig, Scenario};
use crate::tables::{TableResult, TableRow};
use wmn_ga::engine::{GaConfig, GaEngine};
use wmn_ga::init::PopulationInit;
use wmn_metrics::evaluator::Evaluator;
use wmn_metrics::stats::Trace;
use wmn_model::ModelError;
use wmn_model::ProblemInstance;
use wmn_obs::{NoopRecorder, Recorder, RobustnessStats, TelemetryRecorder};
use wmn_placement::registry::AdHocMethod;
use wmn_runtime::grid::{domain, Cell};
use wmn_runtime::{JobContext, JobFailure};

/// Runs `jobs` on [`ExperimentConfig::runtime`]'s panic-isolated,
/// retrying executor under the config's retry policy and fault plan,
/// reports the batch's chaos profile on stderr under `context`, and names
/// the lowest-indexed exhausted job via `label`.
///
/// With a `recorder`, each attempt records into a private recorder and
/// only succeeding attempts merge, in job-index order, so the telemetry
/// is byte-identical for every worker count and any within-budget fault
/// plan. Without one, the worker gets a [`NoopRecorder`], so an untraced
/// run pays nothing for recording.
pub(crate) fn run_isolated<T, R, F>(
    config: &ExperimentConfig,
    jobs: Vec<T>,
    context: &str,
    label: impl Fn(usize) -> String,
    recorder: Option<&mut TelemetryRecorder>,
    worker: F,
) -> Result<Vec<R>, ExperimentError>
where
    T: Send,
    R: Send,
    F: Fn(JobContext, &T, &mut dyn Recorder) -> Result<R, ModelError> + Sync,
{
    let runtime = config.runtime();
    let (policy, plan) = (config.retry_policy(), config.fault_plan.as_ref());
    let mut stats = RobustnessStats::default();
    let results = match recorder {
        Some(rec) => {
            runtime.try_execute_isolated_recorded(jobs, policy, plan, &mut stats, rec, worker)
        }
        None => runtime.try_execute_isolated(jobs, policy, plan, &mut stats, |ctx, job| {
            worker(ctx, job, &mut NoopRecorder)
        }),
    };
    report_chaos(context, &stats);
    results.map_err(|f| cell_failure(label(f.index), f))
}

/// Maps a runtime [`JobFailure`] onto [`ExperimentError::Cell`], naming
/// the failed grid cell.
fn cell_failure<E: std::fmt::Display>(cell: String, failure: JobFailure<E>) -> ExperimentError {
    ExperimentError::Cell {
        cell,
        attempts: failure.attempts,
        detail: failure.kind.to_string(),
    }
}

/// Reports the chaos profile of a finished batch on stderr — injected
/// faults, retries, recoveries. Silent (no output at all) when nothing
/// fired, which is every production run; stderr rather than any artifact
/// file, so faulty-but-recovered runs stay byte-identical to clean ones.
fn report_chaos(context: &str, stats: &RobustnessStats) {
    if stats.is_uneventful() {
        return;
    }
    let mut parts = Vec::new();
    stats.for_each(|name, value| {
        if value != 0 {
            parts.push(format!("{name}={value}"));
        }
    });
    eprintln!("chaos[{context}]: {}", parts.join(" "));
}

/// The GA-run grid cell for `(scenario, method)`.
fn ga_cell(scenario: Scenario, method_index: usize, method: AdHocMethod) -> Cell {
    Cell::new(
        format!("ga-{}-{}", scenario.name(), method.name()),
        &[domain::GA, scenario.grid_id(), method_index as u64],
    )
}

/// The label of the GA grid cell for error reporting (`ga-normal-HotSpot`).
fn ga_cell_label(scenario: Scenario, index: usize) -> String {
    AdHocMethod::all().into_iter().nth(index).map_or_else(
        || format!("ga-{}-job{index}", scenario.name()),
        |m| format!("ga-{}-{}", scenario.name(), m.name()),
    )
}

/// The batch's GA configuration: the experiment knobs plus the
/// connectivity oracle choice mapped onto the evaluation pipeline.
fn experiment_ga_config(config: &ExperimentConfig) -> GaConfig {
    GaConfig::builder()
        .population_size(config.population)
        .generations(config.generations)
        .threads(config.threads)
        .eval_mode(config.ga_eval_mode())
        .build()
        .expect("experiment GA config is valid")
}

/// `base` with the connectivity cost cap floored to zero: every deletion
/// search immediately falls back to the whole-graph rescan, making repair
/// artificially expensive. This is the GA-side response to a
/// `blowup@repair` sabotage — outcomes stay bit-identical (all repair
/// paths agree), and the sabotaged attempt is doomed afterwards anyway.
fn sabotaged_ga_config(base: &GaConfig) -> GaConfig {
    let mut config = base.clone();
    config.connectivity_cost_cap = Some(0);
    config
}

/// The one GA batch of a scenario: Table N and Figure N, from the same
/// seven GA runs.
#[derive(Debug, Clone, PartialEq)]
pub struct GaBatch {
    /// The table view: one row per ad hoc method, in paper order.
    pub table: TableResult,
    /// The figure view: one downsampled `(generation, giant size)` curve
    /// per ad hoc method, in paper order.
    pub figure: GaFigure,
}

/// One method's job: the standalone placement and a GA initialized from
/// the method. The GA run feeds `recorder`; the standalone evaluation is
/// not recorded.
#[allow(clippy::too_many_arguments)]
fn ga_batch_job(
    scenario: Scenario,
    config: &ExperimentConfig,
    instance: &ProblemInstance,
    evaluator: &Evaluator<'_>,
    ga_config: &GaConfig,
    method_index: usize,
    method: AdHocMethod,
    recorder: &mut dyn Recorder,
) -> Result<(TableRow, Trace), ModelError> {
    let standalone_cell = Cell::new(
        format!("standalone-{}-{}", scenario.name(), method.name()),
        &[domain::STANDALONE, scenario.grid_id(), method_index as u64],
    );
    let mut standalone_rng = standalone_cell.rng(config.run_seed);
    let standalone = method.heuristic().place(instance, &mut standalone_rng);
    let standalone_eval = evaluator.evaluate(&standalone)?;

    let mut ga_rng = ga_cell(scenario, method_index, method).rng(config.run_seed);
    let engine = GaEngine::new(evaluator, ga_config.clone());
    let outcome = engine.run_recorded(&PopulationInit::AdHoc(method), &mut ga_rng, recorder)?;

    let row = TableRow {
        method,
        giant_by_ga: outcome.best_evaluation.giant_size(),
        coverage_by_ga: outcome.best_evaluation.covered_clients(),
        giant_standalone: standalone_eval.giant_size(),
        coverage_standalone: standalone_eval.covered_clients(),
    };
    let curve = outcome
        .trace
        .giant_series(method.name())
        .downsampled(config.sample_every.max(1));
    Ok((row, curve))
}

/// Runs `scenario`'s GA batch: for every ad hoc method, the standalone
/// placement and one GA initialized from it, giving Table N and Figure N.
/// Method jobs run in parallel on [`ExperimentConfig::runtime`]'s
/// panic-isolated executor; the result is bit-identical for every worker
/// count and, under any within-budget fault plan, byte-identical to a
/// fault-free run.
///
/// With a `recorder`, the GA runs' work-counter telemetry is collected
/// into it (see [`run_isolated`] for the determinism guarantees); the
/// batch itself is the same either way.
///
/// # Errors
///
/// Propagates instance generation failures, and reports the
/// lowest-indexed grid cell that exhausted its retry budget
/// ([`ExperimentError::Cell`], named `ga-<scenario>-<method>`).
pub fn run_ga_batch(
    scenario: Scenario,
    config: &ExperimentConfig,
    recorder: Option<&mut TelemetryRecorder>,
) -> Result<GaBatch, ExperimentError> {
    let instance = config.instance(scenario)?;
    let evaluator = Evaluator::paper_default(&instance);
    let ga_config = experiment_ga_config(config);
    let sabotaged = sabotaged_ga_config(&ga_config);

    let jobs: Vec<(usize, AdHocMethod)> = AdHocMethod::all().into_iter().enumerate().collect();
    let outputs = run_isolated(
        config,
        jobs,
        &format!("ga-{}", scenario.name()),
        |index| ga_cell_label(scenario, index),
        recorder,
        |ctx, (mi, method), rec| {
            ga_batch_job(
                scenario,
                config,
                &instance,
                &evaluator,
                if ctx.sabotage { &sabotaged } else { &ga_config },
                *mi,
                *method,
                rec,
            )
        },
    )?;
    let (rows, series) = outputs.into_iter().unzip();
    Ok(GaBatch {
        table: TableResult {
            scenario,
            router_count: instance.router_count(),
            client_count: instance.client_count(),
            rows,
        },
        figure: GaFigure { scenario, series },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a-64 over every table row and every GA-figure series point of
    /// the three paper scenarios: instance size, then per method its name
    /// and four table values, then per curve its name and every point's
    /// `(x, y)` bits.
    fn ga_batch_digest(config: &ExperimentConfig) -> String {
        let mut bytes = Vec::new();
        for scenario in Scenario::paper_tables() {
            let GaBatch { table, figure } = run_ga_batch(scenario, config, None).unwrap();
            bytes.extend((table.router_count as u64).to_le_bytes());
            bytes.extend((table.client_count as u64).to_le_bytes());
            for r in &table.rows {
                bytes.extend(r.method.name().as_bytes());
                for v in [
                    r.giant_by_ga,
                    r.coverage_by_ga,
                    r.giant_standalone,
                    r.coverage_standalone,
                ] {
                    bytes.extend((v as u64).to_le_bytes());
                }
            }
            for t in &figure.series {
                bytes.extend(t.name().as_bytes());
                for &(x, y) in t.points() {
                    bytes.extend(x.to_bits().to_le_bytes());
                    bytes.extend(y.to_bits().to_le_bytes());
                }
            }
        }
        format!("{:016x}", crate::checkpoint::fnv1a64(&bytes))
    }

    #[test]
    fn ga_batch_tables_and_figures_are_pinned() {
        // The digests were computed from separate table and figure runs
        // (each running its own copy of every GA); one shared batch must
        // reproduce both views exactly. Any drift in the GA, the ad hoc
        // methods, or the topology and evaluator beneath them changes
        // these values.
        assert_eq!(
            ga_batch_digest(&ExperimentConfig::quick()),
            "1afeced6013f129a"
        );
        assert_eq!(
            ga_batch_digest(&ExperimentConfig::quick_scale(8)),
            "a3df2ed6bf7a336c"
        );
    }
}
