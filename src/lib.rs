//! # `wmn` — Mesh Router Placement for Wireless Mesh Networks
//!
//! A faithful, production-quality reproduction of
//! *"Ad Hoc and Neighborhood Search Methods for Placement of Mesh Routers
//! in Wireless Mesh Networks"* (F. Xhafa, C. Sánchez, L. Barolli — 29th
//! IEEE ICDCS Workshops, 2009).
//!
//! Given a rectangular deployment area, `N` mesh routers with oscillating
//! radio coverage radii, and `M` fixed clients drawn from a spatial
//! distribution, the library searches for router placements that maximize
//! (1) the **size of the giant component** of the router mesh and (2)
//! **user coverage** — with connectivity strictly more important.
//!
//! This facade crate re-exports the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`model`] | geometry, radio model, client distributions, instances |
//! | [`graph`] | union–find, spatial index, mesh topology, density maps |
//! | [`metrics`] | objectives, fitness functions, the [`Evaluator`] |
//! | [`placement`] | the seven ad hoc heuristics ([`AdHocMethod`]) |
//! | [`search`] | neighborhood search: swap & random movements, SA, tabu |
//! | [`ga`] | the genetic algorithm with ad-hoc-seeded populations |
//! | [`runtime`] | deterministic parallel experiment execution ([`Runtime`]) |
//!
//! # Quick start
//!
//! ```
//! use wmn::prelude::*;
//!
//! // The paper's evaluation instance: 64 routers (radii in [2, 8]),
//! // 192 Normal-distributed clients, a 128 x 128 area.
//! let instance = InstanceSpec::paper_normal()?.generate(42)?;
//! let evaluator = Evaluator::paper_default(&instance);
//!
//! // 1. Place routers with an ad hoc method.
//! let mut rng = rng_from_seed(7);
//! let placement = AdHocMethod::HotSpot.heuristic().place(&instance, &mut rng);
//! let standalone = evaluator.evaluate(&placement)?;
//!
//! // 2. Improve it with swap-movement neighborhood search.
//! let movement = SwapMovement::new(&instance, SwapConfig::default());
//! let search = NeighborhoodSearch::new(
//!     &evaluator,
//!     Box::new(movement),
//!     SearchConfig {
//!         budget: ExplorationBudget::sampled(16),
//!         stopping: StoppingCondition::fixed_phases(10),
//!     },
//! );
//! let improved = search.run(&placement, &mut rng)?;
//! assert!(improved.best_evaluation.fitness >= standalone.fitness);
//! # Ok::<(), wmn::model::ModelError>(())
//! ```
//!
//! See `examples/` for end-to-end scenarios and the `wmn-experiments`
//! crate for the binaries regenerating every table and figure of the
//! paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wmn_ga as ga;
pub use wmn_graph as graph;
pub use wmn_metrics as metrics;
pub use wmn_model as model;
pub use wmn_placement as placement;
pub use wmn_runtime as runtime;
pub use wmn_search as search;

pub use wmn_metrics::Evaluator;
pub use wmn_model::{InstanceSpec, Placement, ProblemInstance};
pub use wmn_placement::AdHocMethod;
pub use wmn_runtime::Runtime;

/// One-stop import for applications: the preludes of every crate.
pub mod prelude {
    pub use wmn_ga::prelude::*;
    pub use wmn_graph::{
        CoverageRule, DynamicConnectivity, LinkModel, TopologyConfig, WmnTopology,
    };
    pub use wmn_metrics::{
        EvalWorkspace, Evaluation, Evaluator, FitnessFunction, NetworkMeasurement,
    };
    pub use wmn_model::prelude::*;
    pub use wmn_placement::prelude::*;
    pub use wmn_runtime::{Cell, MemorySink, RowSink, Runtime};
    pub use wmn_search::prelude::*;
}
