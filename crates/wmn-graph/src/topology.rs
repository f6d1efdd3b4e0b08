//! The WMN topology: router mesh plus client attachment.
//!
//! [`WmnTopology`] is the evaluated "network state" behind every fitness
//! computation: given an instance and a placement it derives the
//! router–router mesh (under a [`LinkModel`]), its connected components,
//! and which clients are covered (under a [`CoverageRule`]).
//!
//! # The delta-evaluation engine
//!
//! The paper's Algorithm 3 ends with *"re-establish mesh nodes network
//! connections"* after swapping two routers. The neighborhood-search hot
//! loop is `propose → apply → evaluate → undo`, so [`move_router`] and
//! [`swap_routers`] repair the network **incrementally** and — once the
//! internal scratch buffers are warm — without heap allocation:
//!
//! 1. **Edges.** A router-side [`DynamicGrid`] is kept in sync with every
//!    move (one bucket relocation), so re-deriving the moved router's edges
//!    queries only nearby routers instead of scanning all *n*.
//! 2. **Connectivity.** When the moved router's sorted neighbor set is
//!    unchanged, the graph is identical and component/coverage work is
//!    skipped entirely (the *no-op early-out*; only the moved disk is
//!    re-counted). Otherwise the components are repaired by one of two
//!    routes, picked per mutation before any repair work runs (see
//!    *Choosing the repair route* below). On the **local route** the
//!    old-vs-new neighbor diffs become an edge insert/delete stream for
//!    the dynamic connectivity engine ([`DynamicConnectivity`]):
//!    component ids are stable, insertions merge two ids by relabeling the
//!    non-giant side, deletions run a bounded component-local
//!    bidirectional BFS and move a split-off side to a fresh id, so a
//!    repair costs O(nodes and edges of the components it touches). On the
//!    **rescan route** no edge events are recorded and one whole-graph
//!    union–find rescan ([`DynamicConnectivity::rescan_with_flips`])
//!    repairs everything in O(*n* + *m*). Both report the routers whose
//!    giant membership flipped, and the partition and giant equal a fresh
//!    build's on either route.
//! 3. **Coverage.** Per-client *cover counts* (how many counting routers
//!    reach each client) are maintained so a move only increments and
//!    decrements the moved router's old and new disks, flipping `covered`
//!    bits — and the covered total — exactly at 0↔1 transitions.
//!
//! Population-based methods (the GA) perturb **many** genes at once, so
//! [`apply_moves`] generalizes the same three steps to a batch: all
//! positions and grid buckets update first, then *one* repair pass — one
//! grid-local edge re-derivation per moved router, one connectivity
//! repair, one coverage delta over the moved disks (or one full in-place
//! pass when the fallback below triggers). Combined with the
//! buffer-reusing [`Clone::clone_from`], a GA child evaluates as "copy
//! parent state + apply the placement diff" instead of a full rebuild.
//!
//! ## Choosing the repair route
//!
//! A mutation that moves `k` distinct routers in a graph of `n` routers
//! and `m` links takes the rescan route when [`prefers_rescan`] holds:
//!
//! ```text
//! k · (1 + 2m/n) · ⌈√n⌉ / 2  ≥  n + m
//! ```
//!
//! Both sides are in rescan work-counter units. The right side is what the
//! rescan route costs, exactly: `rescan_nodes + rescan_edges`. The left
//! side estimates the local route. Its work grows with each moved router
//! and each of the router's links (about `2m/n` of them), since every
//! changed link is an insert or delete event and every delete may run a
//! search capped at O(√n) edge visits; the rule charges each such item
//! `√n / 2`.
//!
//! That charge comes from GA-child batches of `fig3 --quick` at `--scale
//! 1/16/64/128`. Counted in `bfs_edge_visits + relabeled_nodes`, plus its
//! edge events and its cost-cap fallback rescans, the local route spent
//! 0.04–0.17·√n units per item. Each local unit took 1.4–2.5 times as
//! long as a rescan unit, and the local route pays for work no counter
//! sees: recording the events, the deletion overlay, the flip walk. By
//! wall clock the two routes broke even at about `k = 20` of 64 routers
//! and `k = 120` of 1,024. At ×64 and ×128 the local route was 1.2–1.6
//! times slower on every GA child (`k ≥ 282` and `k ≥ 589`), and 29–86%
//! of its repairs hit the cost cap, more in denser meshes. The rule's
//! thresholds sit below each crossover (`k ≈ 13`, 51, 88 and 95–165),
//! leaning toward the rescan, whose cost is fixed and which never falls
//! back.
//!
//! So single moves (for every `n ≥ 2`) and swaps (on any graph of more
//! than four routers) always take the local route, where a move costs
//! O(touched components) instead of O(n). GA children at scale take one
//! rescan and record no edge events. The rule depends on nothing but the
//! mutation's size and the graph's, so it is not tuned per workload. The
//! local route keeps its cost cap
//! ([`set_connectivity_cost_cap`](WmnTopology::set_connectivity_cost_cap))
//! only as a safety net: a pathological local repair still rolls back and
//! rescans.
//!
//! ## Invariants
//!
//! * `positions`/`radii`/`router_index` agree at all times (the grid is
//!   relocated *before* edge repair).
//! * `adjacency` equals `MeshAdjacency::build` of the current positions;
//!   `components` equals `Components::from_adjacency(adjacency)` as a
//!   partition with the same giant (its ids are stable, not canonical),
//!   and its per-id state passes [`Components::assert_invariants`]. No
//!   per-router membership mask is kept: the routers whose giant
//!   membership a repair changed come from the repair itself
//!   ([`DynamicConnectivity::membership_flips`]).
//! * `cover_count[c]` equals the number of counting routers whose disk
//!   holds client `c`; `covered[c] == (cover_count[c] > 0)`;
//!   `covered_count` equals the number of set bits.
//!
//! ## When the full-rebuild fallback triggers
//!
//! Under [`CoverageRule::GiantComponentOnly`], a changed edge set can flip
//! the giant-component membership of routers that did not move; their disks
//! need re-counting too. Moves, swaps and batches all weigh the exact delta
//! (moved disks plus flipped disks) against one full in-place
//! [`recompute`](WmnTopology::rebuild_full)-style pass (a giant's worth of
//! disks), and take the cheaper; both land the identical state. Under
//! [`CoverageRule::AnyRouter`] membership is irrelevant and the delta path
//! always applies. [`set_rebuild_mode`] disables the incremental engine
//! wholesale — every move then runs
//! [`rebuild_full`](WmnTopology::rebuild_full) — which is the one reference
//! oracle the equivalence tests and the `ablation_move_eval` bench compare
//! against.
//!
//! [`move_router`]: WmnTopology::move_router
//! [`swap_routers`]: WmnTopology::swap_routers
//! [`apply_moves`]: WmnTopology::apply_moves
//! [`set_rebuild_mode`]: WmnTopology::set_rebuild_mode
//! [`DynamicConnectivity`]: crate::connectivity::DynamicConnectivity
//! [`DynamicConnectivity::rescan_with_flips`]: crate::connectivity::DynamicConnectivity::rescan_with_flips
//! [`DynamicGrid`]: crate::spatial::DynamicGrid

use crate::adjacency::{LinkModel, MeshAdjacency};
use crate::arena::NeighborSlab;
use crate::components::Components;
use crate::connectivity::{ConnectivityStats, DynamicConnectivity};
use crate::dsu::UnionFind;
use crate::spatial::{DynamicGrid, GridIndex};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

use wmn_model::geometry::{Area, Point};
use wmn_model::instance::ProblemInstance;
use wmn_model::node::RouterId;
use wmn_model::placement::Placement;
use wmn_obs::{ApplyPhases, EngineStats, TopologyStats};

/// Which routers count for client coverage.
///
/// The paper defines user coverage as clients "connected to the WMN"; the
/// operational mesh is the giant component, hence the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum CoverageRule {
    /// A client is covered iff it lies within the radius of at least one
    /// router belonging to the **giant component**.
    #[default]
    GiantComponentOnly,
    /// A client is covered iff it lies within the radius of **any** router.
    AnyRouter,
}

impl fmt::Display for CoverageRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverageRule::GiantComponentOnly => write!(f, "giant-component-only"),
            CoverageRule::AnyRouter => write!(f, "any-router"),
        }
    }
}

/// The repair-route rule (see the module docs, *Choosing the repair
/// route*): a link-changing mutation that moves `moved` distinct routers
/// in a graph of `n` routers and `m` links repairs its components by one
/// whole-graph rescan when `moved · (1 + 2m/n) · ⌈√n⌉ / 2 ≥ n + m`, and
/// through the component-local dynamic engine otherwise.
///
/// # Examples
///
/// ```
/// use wmn_graph::topology::prefers_rescan;
///
/// // Single moves and swaps stay local at any size; an eighth of a
/// // 4,096-router mesh (m ≈ 3,400 links) moved at once takes the rescan.
/// assert!(!prefers_rescan(1, 64, 24));
/// assert!(!prefers_rescan(2, 4096, 3400));
/// assert!(prefers_rescan(512, 4096, 3400));
/// ```
pub fn prefers_rescan(moved: usize, n: usize, m: usize) -> bool {
    let (k, n, m) = (moved as u128, n as u128, m as u128);
    let sqrt_n = (n as f64).sqrt().ceil() as u128;
    k * sqrt_n * (n + 2 * m) >= 2 * n * (n + m)
}

/// Link model + coverage rule: everything configurable about how a
/// placement is turned into a network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TopologyConfig {
    /// Router–router link rule.
    pub link_model: LinkModel,
    /// Client coverage rule.
    pub coverage_rule: CoverageRule,
}

impl TopologyConfig {
    /// The calibrated reproduction configuration: **mutual-range** links
    /// (`d <= min(r_i, r_j)` — a bidirectional link needs both endpoints in
    /// range) and giant-component-only client coverage.
    ///
    /// Mutual range, not disk overlap, is what reproduces the paper's
    /// regime: its standalone giant components are small for *every* ad hoc
    /// method (3–26 of 64), which only holds under a link rule strict
    /// enough that regular patterns at 3–9 unit spacing do not trivially
    /// chain together.
    pub fn paper_default() -> Self {
        TopologyConfig {
            link_model: LinkModel::MutualRange,
            coverage_rule: CoverageRule::GiantComponentOnly,
        }
    }
}

/// A materialized network: mesh adjacency, components, and client coverage
/// for one (instance, placement) pair.
///
/// # Examples
///
/// ```
/// use wmn_graph::topology::{TopologyConfig, WmnTopology};
/// use wmn_model::prelude::*;
///
/// let instance = InstanceSpec::paper_normal()?.generate(1)?;
/// let mut rng = rng_from_seed(2);
/// let placement = instance.random_placement(&mut rng);
///
/// let topo = WmnTopology::build(&instance, &placement, TopologyConfig::paper_default())?;
/// assert!(topo.giant_size() >= 1);
/// assert!(topo.covered_count() <= instance.client_count());
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct WmnTopology {
    area: Area,
    config: TopologyConfig,
    positions: Vec<Point>,
    radii: Vec<f64>,
    max_radius: f64,
    /// Client-side spatial index. Clients never move, so the index is
    /// shared (`Arc`) between topologies of the same instance — state
    /// copies between population-pool members are a pointer clone.
    client_index: Arc<GridIndex>,
    /// Router-side mutable grid, kept in sync with `positions` on every
    /// move/swap so edge repair queries only nearby routers.
    router_index: DynamicGrid,
    adjacency: MeshAdjacency,
    components: Components,
    /// Per-client count of counting routers whose disk holds the client.
    cover_count: Vec<u32>,
    covered: Vec<bool>,
    covered_count: usize,
    /// Per-router disk cache: the clients inside router `i`'s disk. Two
    /// invariants make coverage repair mostly query-free:
    ///
    /// * if router `i` is currently *counted* (its disk contributes to
    ///   `cover_count`), `disk_clients[i]` holds exactly the counted set —
    ///   so removals never re-query the client grid;
    /// * if `disk_cached[i]` is set, `disk_clients[i]` equals the clients
    ///   within `radii[i]` of the *current* `positions[i]` — so re-adding
    ///   an unmoved router's disk (a giant-membership flip) is free. The
    ///   bit is cleared whenever the router's position changes.
    ///
    /// The per-router client lists live in a [`NeighborSlab`] arena (u32
    /// client ids, one flat element array — see the
    /// [`arena`](crate::arena) module docs), so the population-pool state
    /// copy is a handful of bulk copies instead of one `Vec` clone per
    /// router.
    disk_clients: NeighborSlab,
    disk_cached: Vec<bool>,
    /// Whether every mutation runs the full-rebuild reference instead of
    /// the incremental engine (see [`WmnTopology::set_rebuild_mode`]).
    rebuild_mode: bool,
    scratch: MoveScratch,
}

/// Reusable per-move scratch state; all buffers reach steady-state capacity
/// after a handful of moves, making the hot loop allocation-free.
#[derive(Debug, Clone, Default)]
struct MoveScratch {
    uf: UnionFind,
    label_of_root: Vec<u32>,
    old_a: Vec<u32>,
    new_a: Vec<u32>,
    old_b: Vec<u32>,
    new_b: Vec<u32>,
    batch: Vec<BatchEntry>,
    /// Epoch-stamped moved-router marks: router `i` was moved by the
    /// current move, swap or batch iff `moved_stamp[i] == move_epoch`.
    /// Starting one bumps the epoch instead of clearing the array (an O(n)
    /// fill only on the u32 wrap, every ~4 billion repairs).
    moved_stamp: Vec<u32>,
    move_epoch: u32,
    /// Reusable disk-query buffer for cache-miss fills of the disk slab.
    disk_buf: Vec<u32>,
    /// The connectivity engine (pure scratch: component state lives in
    /// `components`, so copies never need to synchronize it). Its
    /// local-route buffers are sized on first use, so a topology whose
    /// mutations all take the rescan route never allocates them.
    conn: DynamicConnectivity,
    /// Edge insert/delete streams of the current local-route repair,
    /// produced by the old-vs-new neighbor diffs of the grid-local edge
    /// repair (the rescan route records none).
    ins_events: Vec<(u32, u32)>,
    del_events: Vec<(u32, u32)>,
    /// Always-on work counters of the delta-evaluation engine. Scratch,
    /// like the connectivity engine's: zeroed by `clone`, kept running by
    /// `clone_from` (so per-slot totals accumulate across a GA run).
    counters: TopologyStats,
    /// Per-phase buckets partitioning the batch-repair engine work
    /// (edge repair / component repair / coverage, see [`ApplyPhases`]);
    /// scratch like `counters`, and always-on for the same reason: the
    /// buckets are snapshots of counters the engine maintains anyway.
    phases: ApplyPhases,
}

/// One unique moved router of a repair (a move, a swap, or a batch
/// application): whether its disk counted toward coverage before and
/// after the repair (its pre-batch counted client set
/// survives in the disk cache, so no pre-batch position is needed).
#[derive(Debug, Clone, Copy)]
struct BatchEntry {
    router: u32,
    counted_before: bool,
    counted_after: bool,
}

impl Clone for WmnTopology {
    fn clone(&self) -> Self {
        // Scratch state is not copied, but the connectivity cost-cap
        // override is configuration, not scratch — it travels like the
        // rebuild mode does.
        let mut scratch = MoveScratch::default();
        scratch
            .conn
            .set_cost_cap(self.scratch.conn.cost_cap_override());
        WmnTopology {
            area: self.area,
            config: self.config,
            positions: self.positions.clone(),
            radii: self.radii.clone(),
            max_radius: self.max_radius,
            client_index: self.client_index.clone(),
            router_index: self.router_index.clone(),
            adjacency: self.adjacency.clone(),
            components: self.components.clone(),
            cover_count: self.cover_count.clone(),
            covered: self.covered.clone(),
            covered_count: self.covered_count,
            disk_clients: self.disk_clients.clone(),
            disk_cached: self.disk_cached.clone(),
            rebuild_mode: self.rebuild_mode,
            scratch,
        }
    }

    /// Buffer-reusing state copy: `self` becomes an exact copy of `src`
    /// (scratch buffers are kept, they carry no observable state), reusing
    /// every allocation already held. This is the population-pool hot path:
    /// a GA child leases a topology, `clone_from`s its parent's, and
    /// repairs the placement delta through [`WmnTopology::apply_moves`] —
    /// no per-child topology allocation once the pool is warm.
    fn clone_from(&mut self, src: &Self) {
        self.scratch.counters.clone_from_reuses += 1;
        self.area = src.area;
        self.config = src.config;
        self.positions.clone_from(&src.positions);
        self.radii.clone_from(&src.radii);
        self.max_radius = src.max_radius;
        // Pointer copy: the client index is immutable and shared.
        self.client_index = Arc::clone(&src.client_index);
        self.router_index.clone_from(&src.router_index);
        self.adjacency.clone_from(&src.adjacency);
        self.components.clone_from(&src.components);
        self.cover_count.clone_from(&src.cover_count);
        self.covered.clone_from(&src.covered);
        self.covered_count = src.covered_count;
        self.disk_clients.clone_from(&src.disk_clients);
        self.disk_cached.clone_from(&src.disk_cached);
        self.rebuild_mode = src.rebuild_mode;
        self.scratch
            .conn
            .set_cost_cap(src.scratch.conn.cost_cap_override());
    }
}

impl WmnTopology {
    /// Builds the topology for `instance` with routers at `placement`.
    ///
    /// # Errors
    ///
    /// Propagates placement validation
    /// ([`ModelError`](wmn_model::ModelError)) — length mismatch or
    /// out-of-area positions.
    pub fn build(
        instance: &ProblemInstance,
        placement: &Placement,
        config: TopologyConfig,
    ) -> Result<WmnTopology, wmn_model::ModelError> {
        instance.validate_placement(placement)?;
        let area = instance.area();
        let positions: Vec<Point> = placement.as_slice().to_vec();
        let positions_len = positions.len();
        let radii: Vec<f64> = instance
            .routers()
            .iter()
            .map(|r| r.current_radius())
            .collect();
        let clients = instance.client_positions();
        // The id-width invariant: router and client ids are u32 throughout
        // the arena-backed storage (adjacency, disk caches, edge streams).
        if positions_len >= u32::MAX as usize || clients.len() >= u32::MAX as usize {
            return Err(wmn_model::ModelError::InvalidSpec {
                reason: format!(
                    "instance exceeds the u32 id space: {} routers / {} clients \
                     (at most {} of each supported)",
                    positions_len,
                    clients.len(),
                    u32::MAX - 1
                ),
            });
        }
        let max_radius = radii.iter().copied().fold(1.0_f64, f64::max);
        let client_index = Arc::new(GridIndex::build(&area, &clients, max_radius));
        let mut router_index =
            DynamicGrid::new(&area, config.link_model.grid_cell_size(max_radius));
        router_index.rebuild(&positions);
        let adjacency = MeshAdjacency::build(&area, &positions, &radii, config.link_model);
        let components = Components::from_adjacency(&adjacency);
        let mut topo = WmnTopology {
            area,
            config,
            positions,
            radii,
            max_radius,
            client_index,
            router_index,
            adjacency,
            components,
            cover_count: vec![0; clients.len()],
            covered: vec![false; clients.len()],
            covered_count: 0,
            disk_clients: NeighborSlab::with_nodes(positions_len),
            disk_cached: vec![false; positions_len],
            rebuild_mode: false,
            scratch: MoveScratch::default(),
        };
        topo.recompute_coverage();
        Ok(topo)
    }

    /// Repositions every router according to `placement` (which must have
    /// the right length and lie inside the area — callers validate against
    /// the instance) and rebuilds all derived state **in place**, reusing
    /// every buffer. This is the workspace path behind
    /// `Evaluator::evaluate_with`: evaluating a stream of unrelated
    /// placements without re-allocating a topology per candidate.
    ///
    /// # Panics
    ///
    /// Panics if `placement.len()` differs from the router count.
    pub fn reset_placement(&mut self, placement: &Placement) {
        assert_eq!(
            placement.len(),
            self.positions.len(),
            "placement length must match router count"
        );
        self.positions.copy_from_slice(placement.as_slice());
        self.disk_cached.fill(false);
        self.router_index.rebuild(&self.positions);
        self.adjacency.rebuild_in_place(
            &self.positions,
            &self.radii,
            self.config.link_model,
            &self.router_index,
        );
        self.count_full_rebuild();
        let MoveScratch {
            uf, label_of_root, ..
        } = &mut self.scratch;
        self.components
            .rebuild_incremental(&self.adjacency, uf, label_of_root);
        self.recompute_coverage();
    }

    /// Counts one whole-topology rebuild of the current adjacency: its
    /// routers and edges, the reference oracle's work in counter units.
    fn count_full_rebuild(&mut self) {
        let counters = &mut self.scratch.counters;
        counters.full_rebuilds += 1;
        counters.full_rebuild_nodes += self.positions.len() as u64;
        counters.full_rebuild_edges += self.adjacency.edge_count() as u64;
    }

    /// The active configuration.
    pub fn config(&self) -> TopologyConfig {
        self.config
    }

    /// The deployment area.
    pub fn area(&self) -> Area {
        self.area
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of clients.
    pub fn client_count(&self) -> usize {
        self.covered.len()
    }

    /// Current position of router `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn position(&self, id: RouterId) -> Point {
        self.positions[id.index()]
    }

    /// Current radius of router `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn radius(&self, id: RouterId) -> f64 {
        self.radii[id.index()]
    }

    /// All current router positions, indexed by router id, without a
    /// copy.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// All current router positions, as a [`Placement`].
    pub fn placement(&self) -> Placement {
        Placement::from_points(self.positions.clone())
    }

    /// The router mesh adjacency.
    pub fn adjacency(&self) -> &MeshAdjacency {
        &self.adjacency
    }

    /// The component structure.
    pub fn components(&self) -> &Components {
        &self.components
    }

    /// Size of the giant component — the paper's connectivity objective.
    pub fn giant_size(&self) -> usize {
        self.components.giant_size()
    }

    /// Number of covered clients — the paper's user-coverage objective.
    pub fn covered_count(&self) -> usize {
        self.covered_count
    }

    /// Per-client coverage mask.
    pub fn covered_mask(&self) -> &[bool] {
        &self.covered
    }

    /// The client positions this topology was built against (fixed per
    /// instance). Lets workspace reuse verify a topology still matches an
    /// instance without rebuilding.
    pub fn client_points(&self) -> &[Point] {
        self.client_index.points()
    }

    /// Returns `true` if router `id` is in the giant component.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn in_giant(&self, id: RouterId) -> bool {
        self.components.in_giant(id.index())
    }

    /// Switches between the incremental engine (default) and the
    /// full-rebuild reference path: when `full` is set, every
    /// [`move_router`](WmnTopology::move_router) /
    /// [`swap_routers`](WmnTopology::swap_routers) /
    /// [`apply_moves`](WmnTopology::apply_moves) runs
    /// [`rebuild_full`](WmnTopology::rebuild_full) instead of the delta
    /// path. Results are bit-identical either way (verified by the
    /// equivalence suites); the `ablation_move_eval` bench measures the
    /// gap. The mode travels with state copies ([`Clone::clone_from`]).
    pub fn set_rebuild_mode(&mut self, full: bool) {
        self.rebuild_mode = full;
    }

    /// Returns `true` when every move performs a full rebuild (see
    /// [`set_rebuild_mode`](WmnTopology::set_rebuild_mode)).
    pub fn rebuild_mode(&self) -> bool {
        self.rebuild_mode
    }

    /// Cumulative counters of this topology's connectivity engine
    /// (zeroed on construction and on `clone`; scratch state, so
    /// `clone_from` leaves them running).
    pub fn connectivity_stats(&self) -> ConnectivityStats {
        self.scratch.conn.stats()
    }

    /// The unified work profile of this topology's evaluation engine:
    /// topology-level counters (moves, coverage strategy, disk caches)
    /// plus the connectivity engine's. Like
    /// [`connectivity_stats`](WmnTopology::connectivity_stats), the
    /// counters are scratch state — zeroed on construction and `clone`,
    /// kept running by `clone_from` — and deterministic for a fixed seed
    /// at any thread count.
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats::new(self.scratch.counters, self.scratch.conn.stats())
    }

    /// The per-phase buckets partitioning the engine work done *inside*
    /// batch repairs ([`apply_moves`](WmnTopology::apply_moves) with ≥ 2
    /// distinct routers): edge repair, component repair, coverage, and
    /// the rebuild-mode escape hatch. Buckets are scratch state
    /// with the same lifecycle as [`engine_stats`]
    /// (WmnTopology::engine_stats) — zeroed on construction and `clone`,
    /// kept running by `clone_from` — and always sum to at most the
    /// engine-stats totals; the difference is work done outside batch
    /// repairs (single moves, `clone_from` copies, `reset_placement`).
    pub fn apply_phases(&self) -> ApplyPhases {
        self.scratch.phases
    }

    /// Zeroes every engine counter (topology and connectivity) and the
    /// per-phase batch-repair buckets, starting a fresh measurement
    /// window — per-generation or per-phase deltas without lifetime
    /// bookkeeping.
    pub fn reset_engine_stats(&mut self) {
        self.scratch.counters.reset();
        self.scratch.conn.reset_stats();
        self.scratch.phases.reset();
    }

    /// Overrides the local route's per-deletion edge-visit budget (`None`
    /// restores the default; `Some(0)` forces the whole-graph rescan
    /// fallback on every deletion that requires a search — see
    /// [`DynamicConnectivity::set_cost_cap`]). The cap only bounds work
    /// on the local route; it never changes which route a mutation takes.
    /// Like the rebuild mode, the override travels with state copies
    /// (`clone` / `clone_from`), so pinned population pools stay pinned.
    pub fn set_connectivity_cost_cap(&mut self, cap: Option<usize>) {
        self.scratch.conn.set_cost_cap(cap);
    }

    /// Whether router `i`'s disk currently counts toward client coverage,
    /// per the *current* components.
    #[inline]
    fn is_counted(&self, i: usize) -> bool {
        match self.config.coverage_rule {
            CoverageRule::GiantComponentOnly => self.components.in_giant(i),
            CoverageRule::AnyRouter => true,
        }
    }

    /// Adds router `i`'s disk (at its **current** position) to the
    /// per-client cover counts, flipping `covered` bits and the covered
    /// total at 0→1 transitions. Uses the positionally-valid disk cache
    /// when available and (re)fills it otherwise, so re-adding an unmoved
    /// router's disk — a giant-membership flip — performs no grid query.
    fn disk_add(&mut self, i: usize) {
        self.disk_add_from(i, None);
    }

    /// [`disk_add`](WmnTopology::disk_add) with a donor: on a cache miss,
    /// a donor topology holding router `i` at the **same position** (same
    /// instance — the caller verifies the shared client index) donates its
    /// cached disk instead of a grid query. This is the crossover-child
    /// path: a moved gene's target position is verbatim the other parent's,
    /// whose cache holds exactly the right client set.
    fn disk_add_from(&mut self, i: usize, donor: Option<&WmnTopology>) {
        let WmnTopology {
            client_index,
            cover_count,
            covered,
            covered_count,
            positions,
            radii,
            disk_clients,
            disk_cached,
            scratch,
            ..
        } = self;
        if !disk_cached[i] {
            match donor.filter(|d| d.disk_cached[i] && d.positions[i] == positions[i]) {
                Some(d) => {
                    scratch.counters.disk_cache_grafts += 1;
                    disk_clients.assign(i, d.disk_clients.get(i));
                }
                None => {
                    scratch.counters.disk_grid_queries += 1;
                    client_index.within_radius_into(positions[i], radii[i], &mut scratch.disk_buf);
                    disk_clients.assign(i, &scratch.disk_buf);
                }
            }
            disk_cached[i] = true;
        } else {
            scratch.counters.disk_cache_hits += 1;
        }
        for &c in disk_clients.get(i) {
            let c = c as usize;
            cover_count[c] += 1;
            if cover_count[c] == 1 {
                covered[c] = true;
                *covered_count += 1;
            }
        }
    }

    /// Removes router `i`'s **counted** disk from the per-client cover
    /// counts through the disk cache — no grid query, no distance checks
    /// (the counted-disk invariant guarantees the cache holds exactly the
    /// counted set, even after the router has moved).
    fn disk_remove(&mut self, i: usize) {
        let WmnTopology {
            cover_count,
            covered,
            covered_count,
            disk_clients,
            ..
        } = self;
        for &c in disk_clients.get(i) {
            let c = c as usize;
            debug_assert!(cover_count[c] > 0, "cover count underflow");
            cover_count[c] -= 1;
            if cover_count[c] == 0 {
                covered[c] = false;
                *covered_count -= 1;
            }
        }
    }

    /// Full coverage recomputation, in place: rebuilds cover counts, the
    /// covered mask, and the covered total (maintained incrementally as
    /// bits flip — no trailing count scan) from the current components,
    /// re-querying only routers whose disk cache is positionally stale.
    fn recompute_coverage(&mut self) {
        self.recompute_coverage_from(None);
    }

    /// [`recompute_coverage`](WmnTopology::recompute_coverage) with an
    /// optional disk-cache donor (see
    /// [`apply_moves_from`](WmnTopology::apply_moves_from)).
    fn recompute_coverage_from(&mut self, donor: Option<&WmnTopology>) {
        self.scratch.counters.coverage_full_recomputes += 1;
        self.cover_count.fill(0);
        self.covered.fill(false);
        self.covered_count = 0;
        for i in 0..self.positions.len() {
            if self.is_counted(i) {
                self.disk_add_from(i, donor);
            }
        }
    }

    /// Re-derives router `i`'s edges from the router-side grid, writing the
    /// previous (sorted) neighbor set into `old` and the new one into
    /// `new`. Allocation-free once the buffers are warm.
    fn recompute_router_edges_into(&mut self, i: usize, old: &mut Vec<u32>, new: &mut Vec<u32>) {
        old.clear();
        old.extend_from_slice(self.adjacency.neighbors(i));
        new.clear();
        let model = self.config.link_model;
        let pi = self.positions[i];
        let ri = self.radii[i];
        let query_r = model.max_link_range(ri, self.max_radius);
        let positions = &self.positions;
        let radii = &self.radii;
        self.router_index.for_each_candidate(pi, query_r, |j| {
            if j == i {
                return;
            }
            let d2 = pi.distance_squared(positions[j]);
            if model.links(d2, ri, radii[j]) {
                new.push(j as u32);
            }
        });
        new.sort_unstable();
        // Unchanged lists skip the slab entirely; changed ones pay only for
        // the edge delta (the merge-diff inside `replace_node_edges`).
        if old != new {
            self.adjacency.replace_node_edges(i, old, new);
        }
    }

    /// Picks the component-repair route for a mutation of `moved`
    /// distinct routers ([`prefers_rescan`] against the current graph)
    /// and resets the edge-event streams, so stale events can never leak
    /// across operations. Every mutation entry point calls this before
    /// its first edge repair; returns `true` for the local route.
    fn begin_repair(&mut self, moved: usize) -> bool {
        self.scratch.ins_events.clear();
        self.scratch.del_events.clear();
        !prefers_rescan(moved, self.positions.len(), self.adjacency.edge_count())
    }

    /// Records the edge insert/delete events implied by one router's
    /// old-vs-new sorted neighbor lists (a linear merge-diff), feeding the
    /// local route's dynamic connectivity engine.
    fn record_edge_diff(&mut self, i: usize, old: &[u32], new: &[u32]) {
        let MoveScratch {
            ins_events,
            del_events,
            ..
        } = &mut self.scratch;
        let i = i as u32;
        let (mut a, mut b) = (0usize, 0usize);
        loop {
            match (old.get(a), new.get(b)) {
                (Some(&x), Some(&y)) if x == y => {
                    a += 1;
                    b += 1;
                }
                (Some(&x), Some(&y)) if x < y => {
                    del_events.push((i, x));
                    a += 1;
                }
                (Some(_), Some(&y)) => {
                    ins_events.push((i, y));
                    b += 1;
                }
                (Some(&x), None) => {
                    del_events.push((i, x));
                    a += 1;
                }
                (None, Some(&y)) => {
                    ins_events.push((i, y));
                    b += 1;
                }
                (None, None) => break,
            }
        }
    }

    /// Repairs `components` for the current adjacency on the route
    /// [`begin_repair`](WmnTopology::begin_repair) picked: component-locally
    /// through the dynamic engine (consuming the recorded edge events), or
    /// by one whole-graph union–find rescan. Either way
    /// [`DynamicConnectivity::membership_flips`] then lists the routers
    /// whose giant membership changed.
    fn repair_components(&mut self, local: bool) {
        let MoveScratch {
            uf,
            label_of_root,
            conn,
            ins_events,
            del_events,
            counters,
            ..
        } = &mut self.scratch;
        if local {
            counters.local_repairs += 1;
            conn.apply_edge_diff(
                &self.adjacency,
                &mut self.components,
                ins_events,
                del_events,
                uf,
                label_of_root,
            );
        } else {
            counters.rescan_repairs += 1;
            conn.rescan_with_flips(&self.adjacency, &mut self.components, uf, label_of_root);
        }
    }

    /// Starts a new moved-router set: bumps `move_epoch` (sizing
    /// `moved_stamp` first) and returns it.
    fn begin_moved_set(&mut self) -> u32 {
        let MoveScratch {
            moved_stamp,
            move_epoch,
            ..
        } = &mut self.scratch;
        if moved_stamp.len() != self.positions.len() {
            moved_stamp.clear();
            moved_stamp.resize(self.positions.len(), 0);
            *move_epoch = 0;
        }
        if *move_epoch == u32::MAX {
            moved_stamp.fill(0);
            *move_epoch = 0;
        }
        *move_epoch += 1;
        *move_epoch
    }

    /// Component and coverage repair after a link-changing single move or
    /// swap of `routers` (distinct), on the route `local` names.
    fn repair_after_relink(&mut self, routers: &[usize], local: bool) {
        let mut batch = std::mem::take(&mut self.scratch.batch);
        batch.clear();
        let epoch = self.begin_moved_set();
        for &i in routers {
            self.scratch.moved_stamp[i] = epoch;
            batch.push(BatchEntry {
                router: i as u32,
                counted_before: self.is_counted(i),
                counted_after: false,
            });
        }
        self.repair_components(local);
        self.repair_coverage(&mut batch, None);
        self.scratch.batch = batch;
    }

    /// Coverage repair after a component repair, for the moved routers in
    /// `batch` (stamped with the current `move_epoch`, `counted_before`
    /// filled in). Under [`CoverageRule::AnyRouter`] only the moved disks
    /// change. Under [`CoverageRule::GiantComponentOnly`] the exact delta —
    /// the moved disks plus the non-moved routers whose membership flipped
    /// (the connectivity engine's flip list is exact) — competes against
    /// one full in-place pass over every counting router's disk. Cover
    /// counts commute, so both land the identical state; the cheaper runs.
    fn repair_coverage(&mut self, batch: &mut [BatchEntry], donor: Option<&WmnTopology>) {
        if self.config.coverage_rule == CoverageRule::AnyRouter {
            // Membership is irrelevant: only the moved disks changed.
            self.scratch.counters.coverage_delta_repairs += 1;
            for &BatchEntry { router: i, .. } in batch.iter() {
                self.disk_remove(i as usize);
                self.disk_add_from(i as usize, donor);
            }
            return;
        }
        for e in batch.iter_mut() {
            e.counted_after = self.is_counted(e.router as usize);
        }
        let epoch = self.scratch.move_epoch;
        let flipped_others = self
            .scratch
            .conn
            .membership_flips()
            .iter()
            .filter(|&&j| self.scratch.moved_stamp[j as usize] != epoch)
            .count();
        let moved_ops: usize = batch
            .iter()
            .map(|e| usize::from(e.counted_before) + usize::from(e.counted_after))
            .sum();
        if flipped_others + moved_ops > self.components.giant_size() {
            self.recompute_coverage_from(donor);
            return;
        }
        self.scratch.counters.coverage_delta_repairs += 1;
        // Exact delta. Cover counts commute, so only one order matters: a
        // moved router's old disk leaves (through its cache, which still
        // holds the counted set) before its new disk is added. Flip-offs
        // run off the disk caches too; flip-ons of never-moved routers
        // usually hit a positionally-valid cache. A flipped router's
        // current membership tells which way it flipped.
        for e in batch.iter() {
            if e.counted_before {
                self.disk_remove(e.router as usize);
            }
        }
        for k in 0..self.scratch.conn.membership_flips().len() {
            let j = self.scratch.conn.membership_flips()[k] as usize;
            if self.scratch.moved_stamp[j] == epoch {
                continue;
            }
            if self.components.in_giant(j) {
                self.disk_add(j);
            } else {
                self.disk_remove(j);
            }
        }
        for e in batch.iter() {
            if e.counted_after {
                self.disk_add_from(e.router as usize, donor);
            }
        }
    }

    /// Moves router `id` to `new_position` and repairs the network
    /// incrementally ("re-establish mesh nodes network connections"):
    /// grid-local edge repair, scratch-buffer connectivity, and delta
    /// coverage — see the module docs for the invariants and when the full
    /// fallback triggers.
    ///
    /// Returns the previous position, so callers can undo the move by
    /// moving back.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range. The position is clamped into the
    /// deployment area.
    pub fn move_router(&mut self, id: RouterId, new_position: Point) -> Point {
        self.scratch.counters.single_moves += 1;
        let i = id.index();
        let old = self.positions[i];
        let new = self.area.clamp_point(new_position);
        self.positions[i] = new;
        self.disk_cached[i] = false;
        self.router_index.relocate(i, old, new);
        if self.rebuild_mode {
            self.rebuild_full();
            return old;
        }

        let local = self.begin_repair(1);
        let mut old_n = std::mem::take(&mut self.scratch.old_a);
        let mut new_n = std::mem::take(&mut self.scratch.new_a);
        self.recompute_router_edges_into(i, &mut old_n, &mut new_n);
        if local {
            self.record_edge_diff(i, &old_n, &new_n);
        }
        let links_changed = old_n != new_n;
        self.scratch.old_a = old_n;
        self.scratch.new_a = new_n;

        if !links_changed {
            // Identical graph ⇒ identical components and membership; only
            // the moved disk needs re-counting.
            self.scratch.counters.link_noop_repairs += 1;
            if self.is_counted(i) {
                self.disk_remove(i);
                self.disk_add(i);
            }
            return old;
        }

        self.repair_after_relink(&[i], local);
        old
    }

    /// Exchanges the positions of two routers (the paper's swap movement)
    /// and repairs the network incrementally, exactly like
    /// [`move_router`](WmnTopology::move_router) but with two moved disks.
    /// Swapping a router with itself is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn swap_routers(&mut self, a: RouterId, b: RouterId) {
        if a == b {
            return;
        }
        self.scratch.counters.swaps += 1;
        let (ia, ib) = (a.index(), b.index());
        let (pa, pb) = (self.positions[ia], self.positions[ib]);
        self.positions.swap(ia, ib);
        self.disk_cached[ia] = false;
        self.disk_cached[ib] = false;
        self.router_index.relocate(ia, pa, pb);
        self.router_index.relocate(ib, pb, pa);
        if self.rebuild_mode {
            self.rebuild_full();
            return;
        }

        let local = self.begin_repair(2);
        let mut old_a = std::mem::take(&mut self.scratch.old_a);
        let mut new_a = std::mem::take(&mut self.scratch.new_a);
        let mut old_b = std::mem::take(&mut self.scratch.old_b);
        let mut new_b = std::mem::take(&mut self.scratch.new_b);
        self.recompute_router_edges_into(ia, &mut old_a, &mut new_a);
        self.recompute_router_edges_into(ib, &mut old_b, &mut new_b);
        if local {
            self.record_edge_diff(ia, &old_a, &new_a);
            self.record_edge_diff(ib, &old_b, &new_b);
        }
        // If `ia`'s repair was a no-op, `old_b` reflects the pre-swap graph,
        // so both comparisons together certify the graph is unchanged.
        let links_changed = old_a != new_a || old_b != new_b;
        self.scratch.old_a = old_a;
        self.scratch.new_a = new_a;
        self.scratch.old_b = old_b;
        self.scratch.new_b = new_b;

        // Radii travel with the router id: `a` now sits at `pb`, `b` at
        // `pa`; each disk cache still holds its router's pre-swap counted
        // set, so removals stay query-free.
        if !links_changed {
            self.scratch.counters.link_noop_repairs += 1;
            if self.is_counted(ia) {
                self.disk_remove(ia);
                self.disk_add(ia);
            }
            if self.is_counted(ib) {
                self.disk_remove(ib);
                self.disk_add(ib);
            }
            return;
        }

        self.repair_after_relink(&[ia, ib], local);
    }

    /// Writes the per-router relocations that morph this topology's current
    /// placement into `target` — one `(router, target position)` entry per
    /// router whose position differs — into `out` (cleared first). Feeding
    /// the result to [`apply_moves`](WmnTopology::apply_moves) is the
    /// delta-evaluation path for population-based search: a GA child is
    /// evaluated as "parent topology + diff" instead of a full rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `target.len()` differs from the router count.
    pub fn diff_placement_into(&self, target: &Placement, out: &mut Vec<(RouterId, Point)>) {
        assert_eq!(
            target.len(),
            self.positions.len(),
            "target placement length must match router count"
        );
        out.clear();
        for (i, (cur, want)) in self.positions.iter().zip(target.as_slice()).enumerate() {
            if cur != want {
                out.push((RouterId(i), *want));
            }
        }
    }

    /// Applies a batch of router relocations with a **single** repair pass:
    /// all positions (clamped into the area) and grid buckets are updated
    /// first, then each unique moved router's edges are re-derived
    /// grid-locally, and connectivity + coverage are repaired **once** —
    /// instead of once per move as a [`move_router`](WmnTopology::move_router)
    /// loop would. This is the batch path population-based methods use for
    /// multi-gene deltas (GA crossover/mutation diffs).
    ///
    /// Semantics are exactly "set each listed router to its target
    /// position": later entries for the same router win, an empty batch is
    /// a no-op, and a single-entry batch delegates to `move_router` (so it
    /// keeps that path's early-outs). The resulting state is identical to a
    /// full rebuild at the final positions (pinned by tests); undoing is
    /// applying the inverse batch of previous positions.
    ///
    /// # Panics
    ///
    /// Panics if any router id is out of range.
    pub fn apply_moves(&mut self, moves: &[(RouterId, Point)]) {
        self.apply_moves_from(moves, None);
    }

    /// [`apply_moves`](WmnTopology::apply_moves) with a coverage **donor**:
    /// when a moved router's target position matches the donor's current
    /// position for the same router, the donor's cached disk is copied
    /// instead of re-queried from the client grid. This is the
    /// crossover-child evaluation path — the recombined genes' targets are
    /// verbatim the other parent's positions, so their disks come for
    /// free. A donor of a different instance (different client index or
    /// router count) is ignored; results are identical with or without a
    /// donor (pinned by tests), only the query count differs.
    ///
    /// # Panics
    ///
    /// Panics if any router id is out of range.
    pub fn apply_moves_from(&mut self, moves: &[(RouterId, Point)], donor: Option<&WmnTopology>) {
        let donor = donor.filter(|d| {
            // Same instance: the shared-Arc check catches topologies related
            // by adoption (the steady-state GA population); the structural
            // fallback admits independently built topologies of the same
            // instance (a first generation after `evaluate_initial`, or any
            // caller-assembled population), whose grafts are just as valid.
            (Arc::ptr_eq(&d.client_index, &self.client_index)
                || d.client_index == self.client_index)
                && d.positions.len() == self.positions.len()
                && d.radii == self.radii
        });
        match moves {
            [] => return,
            [(id, to)] => {
                self.move_router(*id, *to);
                return;
            }
            _ => {}
        }
        // Section boundaries of the phase buckets: every engine counter
        // incremented between two snapshots is attributed to the section
        // that ran in between (`scratch.phases`). The snapshots are Copy
        // struct reads, amortized over the whole batch repair.
        let section_start = self.engine_stats();
        // Record each unique moved router while updating positions and grid
        // buckets in order; the epoch-stamped `moved_stamp` array is both
        // the O(1) dedup test here and the batch-membership mask the
        // coverage repair reads later — a new batch bumps `move_epoch`
        // instead of clearing the stamps.
        let mut batch = std::mem::take(&mut self.scratch.batch);
        batch.clear();
        let epoch = self.begin_moved_set();
        for &(id, to) in moves {
            let i = id.index();
            let old = self.positions[i];
            let new = self.area.clamp_point(to);
            self.positions[i] = new;
            self.disk_cached[i] = false;
            self.router_index.relocate(i, old, new);
            if self.scratch.moved_stamp[i] != epoch {
                self.scratch.moved_stamp[i] = epoch;
                batch.push(BatchEntry {
                    router: i as u32,
                    counted_before: false,
                    counted_after: false,
                });
            }
        }
        self.scratch.counters.batch_repairs += 1;
        self.scratch.counters.batch_moved_routers += batch.len() as u64;
        if self.rebuild_mode {
            self.scratch.batch = batch;
            self.rebuild_full();
            let delta = self.engine_stats().delta_since(&section_start);
            self.scratch.phases.full_rebuild.merge(&delta);
            return;
        }

        // One grid-local edge repair per unique moved router, against the
        // final positions. Any edge change is incident to a moved router
        // and shows up in at least one old-vs-new comparison (a repair by
        // an earlier-processed moved router that alters a later one's list
        // is caught by the earlier router's own comparison) — so the
        // recorded insert/delete streams carry each changed edge exactly
        // once. The rescan route records nothing.
        let local = self.begin_repair(batch.len());
        let mut old_n = std::mem::take(&mut self.scratch.old_a);
        let mut new_n = std::mem::take(&mut self.scratch.new_a);
        let mut links_changed = false;
        for e in &batch {
            self.recompute_router_edges_into(e.router as usize, &mut old_n, &mut new_n);
            if local {
                self.record_edge_diff(e.router as usize, &old_n, &new_n);
            }
            links_changed |= old_n != new_n;
        }
        self.scratch.old_a = old_n;
        self.scratch.new_a = new_n;
        let after_edges = self.engine_stats();
        let edge_delta = after_edges.delta_since(&section_start);
        self.scratch.phases.edge_repair.merge(&edge_delta);

        if !links_changed {
            // Identical graph ⇒ identical components and membership; only
            // the moved disks need re-counting.
            self.scratch.counters.link_noop_repairs += 1;
            for &BatchEntry { router: i, .. } in &batch {
                let i = i as usize;
                if self.is_counted(i) {
                    self.disk_remove(i);
                    self.disk_add_from(i, donor);
                }
            }
            self.scratch.batch = batch;
            let delta = self.engine_stats().delta_since(&after_edges);
            self.scratch.phases.coverage.merge(&delta);
            return;
        }

        for e in &mut batch {
            e.counted_before = self.is_counted(e.router as usize);
        }
        self.repair_components(local);
        let after_components = self.engine_stats();
        let component_delta = after_components.delta_since(&after_edges);
        self.scratch.phases.component_repair.merge(&component_delta);
        self.repair_coverage(&mut batch, donor);
        self.scratch.batch = batch;
        let delta = self.engine_stats().delta_since(&after_components);
        self.scratch.phases.coverage.merge(&delta);
    }

    /// Rebuilds the router grid, adjacency, components, and coverage from
    /// scratch. The reference path: tests, the rebuild-mode baseline, and
    /// the `ablation_move_eval` bench run it to pin the incremental engine.
    pub fn rebuild_full(&mut self) {
        self.router_index.rebuild(&self.positions);
        self.adjacency = MeshAdjacency::build(
            &self.area,
            &self.positions,
            &self.radii,
            self.config.link_model,
        );
        self.count_full_rebuild();
        self.components = Components::from_adjacency(&self.adjacency);
        self.recompute_coverage();
    }

    /// Debug helper: asserts the incremental state — adjacency, components
    /// (partition, giant, and per-id state), cover counts, covered mask,
    /// covered total, and the router-side grid — equals a fresh rebuild.
    ///
    /// # Panics
    ///
    /// Panics when the incremental state has drifted from the ground truth.
    pub fn assert_consistent(&self) {
        self.router_index.assert_in_sync(&self.positions);
        // Arena invariants: span bounds, free-list integrity, and exact
        // tiling of the slab data for both neighbor storage arenas.
        self.adjacency.assert_arena_invariants();
        self.disk_clients.assert_invariants();
        self.components.assert_invariants();
        // Disk-cache invariants: a positionally-valid cache — and any
        // counted router's cache — must hold exactly the clients of the
        // router's current disk.
        for i in 0..self.positions.len() {
            if !self.disk_cached[i] && !self.is_counted(i) {
                continue;
            }
            let mut expect: Vec<u32> = self
                .client_index
                .within_radius(self.positions[i], self.radii[i])
                .map(|c| c as u32)
                .collect();
            expect.sort_unstable();
            let mut got = self.disk_clients.get(i).to_vec();
            got.sort_unstable();
            assert_eq!(
                got, expect,
                "disk cache for router {i} drifted from its current disk"
            );
        }
        let mut fresh = self.clone();
        // Ground truth must not trust the caches it just copied.
        fresh.disk_cached.fill(false);
        fresh.rebuild_full();
        assert_eq!(
            self.adjacency, fresh.adjacency,
            "incremental adjacency drifted from full rebuild"
        );
        assert_eq!(
            self.components, fresh.components,
            "components drifted from full rebuild"
        );
        assert_eq!(
            self.cover_count, fresh.cover_count,
            "cover counts drifted from full recompute"
        );
        assert_eq!(
            self.covered, fresh.covered,
            "covered mask drifted from full recompute"
        );
        assert_eq!(
            self.covered_count, fresh.covered_count,
            "covered total drifted from full recompute"
        );
    }
}

impl fmt::Display for WmnTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "topology[{} routers, {} links, giant {}, covered {}/{}]",
            self.router_count(),
            self.adjacency.edge_count(),
            self.giant_size(),
            self.covered_count,
            self.client_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wmn_model::instance::{InstanceBuilder, InstanceSpec};
    use wmn_model::radio::RadioProfile;
    use wmn_model::rng::rng_from_seed;

    fn paper_topology(seed: u64) -> (ProblemInstance, WmnTopology) {
        let instance = InstanceSpec::paper_normal()
            .unwrap()
            .generate(seed)
            .unwrap();
        let mut rng = rng_from_seed(seed ^ 0xABCD);
        let placement = instance.random_placement(&mut rng);
        let topo =
            WmnTopology::build(&instance, &placement, TopologyConfig::paper_default()).unwrap();
        (instance, topo)
    }

    #[test]
    fn build_validates_placement() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(1).unwrap();
        let bad = Placement::from_points(vec![Point::new(1.0, 1.0)]);
        assert!(WmnTopology::build(&instance, &bad, TopologyConfig::default()).is_err());
    }

    #[test]
    fn counts_are_bounded() {
        let (instance, topo) = paper_topology(3);
        assert!(topo.giant_size() >= 1);
        assert!(topo.giant_size() <= instance.router_count());
        assert!(topo.covered_count() <= instance.client_count());
        assert_eq!(topo.router_count(), 64);
        assert_eq!(topo.client_count(), 192);
    }

    #[test]
    fn line_of_routers_is_fully_connected() {
        // 8 routers spaced 9 apart with radius 10: under the mutual-range
        // paper default a link needs d <= min(r_i, r_j) = 10 >= 9.
        let area = Area::square(100.0).unwrap();
        let prof = RadioProfile::fixed(10.0).unwrap();
        let instance = InstanceBuilder::new(area)
            .routers(prof, 8)
            .client(Point::new(50.0, 4.0))
            .build()
            .unwrap();
        let placement: Placement = (0..8)
            .map(|i| Point::new(10.0 + 9.0 * i as f64, 5.0))
            .collect();
        let topo =
            WmnTopology::build(&instance, &placement, TopologyConfig::paper_default()).unwrap();
        assert_eq!(topo.giant_size(), 8);
        // The client at (50, 4) sits within 5 of the router at (46, 5).
        assert_eq!(topo.covered_count(), 1);
    }

    #[test]
    fn giant_only_rule_ignores_isolated_coverage() {
        // Two router clusters: a pair near origin (giant) and one isolated
        // router next to the only client.
        let area = Area::square(100.0).unwrap();
        let prof = RadioProfile::fixed(5.0).unwrap();
        let instance = InstanceBuilder::new(area)
            .routers(prof, 3)
            .client(Point::new(90.0, 90.0))
            .build()
            .unwrap();
        let placement = Placement::from_points(vec![
            Point::new(10.0, 10.0),
            Point::new(15.0, 10.0),
            Point::new(88.0, 90.0),
        ]);
        let giant_only = WmnTopology::build(
            &instance,
            &placement,
            TopologyConfig {
                coverage_rule: CoverageRule::GiantComponentOnly,
                ..TopologyConfig::default()
            },
        )
        .unwrap();
        assert_eq!(giant_only.giant_size(), 2);
        assert_eq!(
            giant_only.covered_count(),
            0,
            "isolated router's client must not count under giant-only"
        );

        let any = WmnTopology::build(
            &instance,
            &placement,
            TopologyConfig {
                coverage_rule: CoverageRule::AnyRouter,
                ..TopologyConfig::default()
            },
        )
        .unwrap();
        assert_eq!(any.covered_count(), 1);
    }

    #[test]
    fn move_router_matches_full_rebuild() {
        let (_instance, mut topo) = paper_topology(7);
        let mut rng = rng_from_seed(99);
        for step in 0..25 {
            let id = RouterId(rng.gen_range(0..topo.router_count()));
            let p = Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0));
            topo.move_router(id, p);
            topo.assert_consistent();
            let incr = (topo.giant_size(), topo.covered_count());
            let mut fresh = topo.clone();
            fresh.rebuild_full();
            assert_eq!(
                incr,
                (fresh.giant_size(), fresh.covered_count()),
                "drift after step {step}"
            );
        }
    }

    /// Routers of fixed radius 10 (linked iff at most 10 apart under the
    /// paper's mutual-range rule) at `points`, with a client on each.
    fn fixture(points: &[Point]) -> WmnTopology {
        let area = Area::square(100.0).unwrap();
        let prof = RadioProfile::fixed(10.0).unwrap();
        let instance = InstanceBuilder::new(area)
            .routers(prof, points.len())
            .clients(points.iter().copied())
            .build()
            .unwrap();
        let placement = Placement::from_points(points.to_vec());
        WmnTopology::build(&instance, &placement, TopologyConfig::paper_default()).unwrap()
    }

    /// Parking spot `k`: spots are 30 apart, so routers parked on distinct
    /// spots never link.
    fn spot(k: usize) -> Point {
        Point::new(5.0 + 30.0 * (k % 4) as f64, 5.0 + 30.0 * (k / 4) as f64)
    }

    /// A point 5 to the right of spot `k`: linked to spot `k` only.
    fn beside(k: usize) -> Point {
        let p = spot(k);
        Point::new(p.x + 5.0, p.y)
    }

    /// The repaired state equals a fresh build: partition, giant, per-id
    /// state, and coverage.
    fn check_fixture(topo: &WmnTopology, giant: &[usize]) {
        topo.assert_consistent();
        assert_eq!(
            topo.components(),
            &Components::from_adjacency(topo.adjacency())
        );
        assert_eq!(topo.components().giant_members(), giant);
    }

    #[test]
    fn equal_maxima_created_in_either_order_pick_the_lowest_node() {
        // {0,1} first, then {2,3}: the second pair ties and must lose.
        let mut topo = fixture(&[spot(0), spot(1), spot(2), spot(3), spot(4)]);
        check_fixture(&topo, &[0]);
        topo.move_router(RouterId(1), beside(0));
        check_fixture(&topo, &[0, 1]);
        topo.move_router(RouterId(3), beside(2));
        check_fixture(&topo, &[0, 1]);
        // {2,3} first, then {0,1}: the later pair ties and must win.
        let mut topo = fixture(&[spot(0), spot(1), spot(2), spot(3), spot(4)]);
        topo.move_router(RouterId(3), beside(2));
        check_fixture(&topo, &[2, 3]);
        topo.move_router(RouterId(1), beside(0));
        check_fixture(&topo, &[0, 1]);
        // Undoing in either order walks the ties back.
        topo.move_router(RouterId(3), spot(3));
        check_fixture(&topo, &[0, 1]);
        topo.move_router(RouterId(1), spot(1));
        check_fixture(&topo, &[0]);
    }

    #[test]
    fn lowest_node_leaving_the_giant_hands_the_tie_to_the_next_lowest() {
        // Giant {0,3,4} (a chain 3-0-4 around spot 0), rival {1,2}.
        let p0 = spot(0);
        let mut topo = fixture(&[
            p0,
            spot(1),
            beside(1),
            Point::new(p0.x, p0.y + 8.0),
            Point::new(p0.x + 8.0, p0.y),
        ]);
        check_fixture(&topo, &[0, 3, 4]);
        // Node 0 was the giant's only link: {3}, {4} and the rival {1,2}
        // remain, and {1,2} is now the unique maximum.
        topo.move_router(RouterId(0), spot(5));
        check_fixture(&topo, &[1, 2]);
        // Back in the middle: the old giant returns.
        topo.move_router(RouterId(0), p0);
        check_fixture(&topo, &[0, 3, 4]);
        // Node 0 leaves a giant that stays connected without it: {3,4}
        // ties {1,2}, and node 1 is lower than node 3.
        topo.move_router(RouterId(4), Point::new(p0.x + 6.0, p0.y + 8.0));
        check_fixture(&topo, &[0, 3, 4]);
        topo.move_router(RouterId(0), spot(5));
        check_fixture(&topo, &[1, 2]);
        // The moved-out node 0 rejoins the rival pair: {0,1,2} wins.
        topo.move_router(RouterId(0), Point::new(spot(1).x, spot(1).y + 5.0));
        check_fixture(&topo, &[0, 1, 2]);
    }

    #[test]
    fn giant_keeping_its_size_but_losing_its_lowest_node_loses_the_tie() {
        // Giant {0,3,4} (chain 3-0-4) ties the rival {1,2,5}; node 0 wins.
        let p0 = spot(0);
        let mut topo = fixture(&[
            p0,
            spot(1),
            beside(1),
            Point::new(p0.x, p0.y + 8.0),
            Point::new(p0.x + 8.0, p0.y),
            Point::new(spot(1).x + 10.0, spot(1).y),
            spot(5),
        ]);
        check_fixture(&topo, &[0, 3, 4]);
        // Node 6 takes node 0's place: the old giant keeps its id and its
        // size, but its lowest node is now 3, so {1,2,5} wins the tie.
        topo.swap_routers(RouterId(0), RouterId(6));
        check_fixture(&topo, &[1, 2, 5]);
        topo.swap_routers(RouterId(0), RouterId(6));
        check_fixture(&topo, &[0, 3, 4]);
    }

    #[test]
    fn merges_create_and_break_ties_at_the_maximum() {
        // {0,1} is the giant by tie-break over {2,3}; node 4 is alone.
        let mut topo = fixture(&[spot(0), beside(0), spot(2), beside(2), spot(5)]);
        check_fixture(&topo, &[0, 1]);
        // A merge breaks the tie: {2,3,4} outgrows {0,1}.
        topo.move_router(RouterId(4), Point::new(spot(2).x, spot(2).y + 5.0));
        check_fixture(&topo, &[2, 3, 4]);
        // Node 4 moves over: {0,1,4} outgrows {2,3}, and the giant
        // switches back.
        topo.move_router(RouterId(4), Point::new(spot(0).x, spot(0).y + 5.0));
        check_fixture(&topo, &[0, 1, 4]);
        // Node 1 joins {2,3}: the giant switches to {1,2,3} over {0,4}.
        topo.move_router(RouterId(1), Point::new(spot(2).x, spot(2).y + 5.0));
        check_fixture(&topo, &[1, 2, 3]);
        topo.move_router(RouterId(4), spot(7));
        check_fixture(&topo, &[1, 2, 3]);
        // Node 3 leaves: the giant shrinks to {1,2}, still the maximum.
        topo.move_router(RouterId(3), spot(6));
        check_fixture(&topo, &[1, 2]);
        // A merge creates a tie: {0,4} matches {1,2} and node 0 is lower.
        topo.move_router(RouterId(4), beside(0));
        check_fixture(&topo, &[0, 4]);
        // A swap trades members between the tied pairs: {1,4} and {0,2}.
        topo.swap_routers(RouterId(0), RouterId(1));
        check_fixture(&topo, &[0, 2]);
    }

    #[test]
    fn move_router_returns_old_position_for_undo() {
        let (_instance, mut topo) = paper_topology(11);
        let before_giant = topo.giant_size();
        let before_cov = topo.covered_count();
        let before_pos = topo.position(RouterId(5));
        let old = topo.move_router(RouterId(5), Point::new(1.0, 1.0));
        assert_eq!(old, before_pos);
        topo.move_router(RouterId(5), old);
        assert_eq!(topo.giant_size(), before_giant);
        assert_eq!(topo.covered_count(), before_cov);
        assert_eq!(topo.position(RouterId(5)), before_pos);
    }

    #[test]
    fn move_router_clamps_into_area() {
        let (_instance, mut topo) = paper_topology(13);
        topo.move_router(RouterId(0), Point::new(-50.0, 500.0));
        let p = topo.position(RouterId(0));
        assert!(topo.area().contains(p));
        topo.assert_consistent();
    }

    #[test]
    fn swap_routers_matches_full_rebuild() {
        let (_instance, mut topo) = paper_topology(17);
        let mut rng = rng_from_seed(5);
        for _ in 0..20 {
            let a = RouterId(rng.gen_range(0..topo.router_count()));
            let b = RouterId(rng.gen_range(0..topo.router_count()));
            topo.swap_routers(a, b);
            topo.assert_consistent();
        }
    }

    #[test]
    fn swap_is_involutive_on_state() {
        let (_instance, mut topo) = paper_topology(19);
        let snapshot = (topo.giant_size(), topo.covered_count(), topo.placement());
        topo.swap_routers(RouterId(3), RouterId(40));
        topo.swap_routers(RouterId(3), RouterId(40));
        assert_eq!(
            (topo.giant_size(), topo.covered_count(), topo.placement()),
            snapshot
        );
    }

    #[test]
    fn swap_with_self_is_noop() {
        let (_instance, mut topo) = paper_topology(23);
        let snapshot = (topo.giant_size(), topo.covered_count());
        topo.swap_routers(RouterId(8), RouterId(8));
        assert_eq!((topo.giant_size(), topo.covered_count()), snapshot);
    }

    #[test]
    fn swap_exchanges_positions_not_radii() {
        // Radii stay with the router id; positions are exchanged.
        let (_instance, mut topo) = paper_topology(29);
        let (pa, pb) = (topo.position(RouterId(1)), topo.position(RouterId(2)));
        let (ra, rb) = (topo.radius(RouterId(1)), topo.radius(RouterId(2)));
        topo.swap_routers(RouterId(1), RouterId(2));
        assert_eq!(topo.position(RouterId(1)), pb);
        assert_eq!(topo.position(RouterId(2)), pa);
        assert_eq!(topo.radius(RouterId(1)), ra);
        assert_eq!(topo.radius(RouterId(2)), rb);
    }

    #[test]
    fn clustering_routers_improves_connectivity() {
        // Moving all routers into a tight cluster must yield a single
        // component of size N.
        let (instance, mut topo) = paper_topology(31);
        for i in 0..instance.router_count() {
            let angle = i as f64 * 0.7;
            // Circle of radius 1: every pairwise distance is at most the
            // diameter 2 <= min radius of the paper profile, so even under
            // the mutual-range rule the cluster is a clique.
            let p = Point::new(64.0 + angle.cos(), 64.0 + angle.sin());
            topo.move_router(RouterId(i), p);
        }
        assert_eq!(topo.giant_size(), instance.router_count());
    }

    #[test]
    fn display_summarizes_state() {
        let (_instance, topo) = paper_topology(37);
        let s = topo.to_string();
        assert!(s.contains("routers") && s.contains("giant"));
    }

    #[test]
    fn apply_moves_matches_full_rebuild() {
        let (_instance, mut topo) = paper_topology(41);
        let mut rng = rng_from_seed(7);
        for step in 0..20 {
            let k = rng.gen_range(2..20);
            let moves: Vec<(RouterId, Point)> = (0..k)
                .map(|_| {
                    (
                        RouterId(rng.gen_range(0..topo.router_count())),
                        Point::new(rng.gen_range(-5.0..=133.0), rng.gen_range(-5.0..=133.0)),
                    )
                })
                .collect();
            topo.apply_moves(&moves);
            topo.assert_consistent();
            let mut fresh = topo.clone();
            fresh.rebuild_full();
            assert_eq!(
                (topo.giant_size(), topo.covered_count()),
                (fresh.giant_size(), fresh.covered_count()),
                "drift after batch {step}"
            );
        }
    }

    #[test]
    fn apply_moves_equals_sequential_single_moves() {
        let (_instance, mut batch) = paper_topology(43);
        let mut single = batch.clone();
        let mut rng = rng_from_seed(11);
        for _ in 0..10 {
            let k = rng.gen_range(2..12);
            let moves: Vec<(RouterId, Point)> = (0..k)
                .map(|_| {
                    (
                        RouterId(rng.gen_range(0..batch.router_count())),
                        Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0)),
                    )
                })
                .collect();
            batch.apply_moves(&moves);
            for &(id, to) in &moves {
                single.move_router(id, to);
            }
            assert_eq!(batch.placement(), single.placement());
            assert_eq!(batch.giant_size(), single.giant_size());
            assert_eq!(batch.covered_count(), single.covered_count());
            assert_eq!(batch.covered_mask(), single.covered_mask());
        }
    }

    #[test]
    fn apply_moves_empty_is_noop_and_inverse_batch_undoes() {
        let (_instance, mut topo) = paper_topology(47);
        let before = (topo.giant_size(), topo.covered_count(), topo.placement());
        topo.apply_moves(&[]);
        assert_eq!(
            (topo.giant_size(), topo.covered_count(), topo.placement()),
            before
        );
        // Duplicate entries: later ones win; the inverse batch (unique
        // routers back to their pre-batch positions) restores the state.
        let undo: Vec<(RouterId, Point)> = [3usize, 9, 9, 21]
            .iter()
            .map(|&i| (RouterId(i), topo.position(RouterId(i))))
            .collect();
        let moves = vec![
            (RouterId(3), Point::new(1.0, 1.0)),
            (RouterId(9), Point::new(2.0, 2.0)),
            (RouterId(9), Point::new(100.0, 100.0)),
            (RouterId(21), Point::new(64.0, 64.0)),
        ];
        topo.apply_moves(&moves);
        topo.assert_consistent();
        assert_eq!(topo.position(RouterId(9)), Point::new(100.0, 100.0));
        topo.apply_moves(&undo);
        topo.assert_consistent();
        assert_eq!(
            (topo.giant_size(), topo.covered_count(), topo.placement()),
            before
        );
    }

    #[test]
    fn diff_then_apply_morphs_to_target() {
        let (instance, mut topo) = paper_topology(53);
        let mut rng = rng_from_seed(13);
        let mut moves = Vec::new();
        for _ in 0..5 {
            let target = instance.random_placement(&mut rng);
            topo.diff_placement_into(&target, &mut moves);
            topo.apply_moves(&moves);
            topo.assert_consistent();
            assert_eq!(topo.placement(), target);
            // A second diff against the reached target is empty.
            topo.diff_placement_into(&target, &mut moves);
            assert!(moves.is_empty());
        }
    }

    #[test]
    fn clone_from_copies_state_and_reuses_buffers() {
        let (instance, mut a) = paper_topology(59);
        let mut rng = rng_from_seed(17);
        // `b` starts from a different placement, then adopts `a`'s state.
        let other = instance.random_placement(&mut rng);
        let mut b = WmnTopology::build(&instance, &other, TopologyConfig::paper_default()).unwrap();
        a.move_router(RouterId(0), Point::new(64.0, 64.0));
        b.clone_from(&a);
        b.assert_consistent();
        assert_eq!(b.placement(), a.placement());
        assert_eq!(b.giant_size(), a.giant_size());
        assert_eq!(b.covered_count(), a.covered_count());
        // The copy is live: further moves keep it consistent independently.
        b.move_router(RouterId(5), Point::new(10.0, 10.0));
        b.assert_consistent();
        assert_ne!(b.placement(), a.placement());
        a.assert_consistent();
    }

    #[test]
    fn apply_moves_from_donor_matches_plain_apply() {
        // The crossover-child shape: move a block of routers onto another
        // live topology's exact positions, once with that topology as the
        // disk-cache donor and once without. State must be identical.
        let (instance, base) = paper_topology(67);
        let mut rng = rng_from_seed(23);
        let other_placement = instance.random_placement(&mut rng);
        let donor =
            WmnTopology::build(&instance, &other_placement, TopologyConfig::paper_default())
                .unwrap();
        let moves: Vec<(RouterId, Point)> = (0..24)
            .map(|i| (RouterId(i), donor.position(RouterId(i))))
            .collect();
        let mut with_donor = base.clone();
        with_donor.apply_moves_from(&moves, Some(&donor));
        with_donor.assert_consistent();
        let mut without = base.clone();
        without.apply_moves(&moves);
        assert_eq!(with_donor.placement(), without.placement());
        assert_eq!(with_donor.giant_size(), without.giant_size());
        assert_eq!(with_donor.covered_count(), without.covered_count());
        assert_eq!(with_donor.covered_mask(), without.covered_mask());
        // A donor from a different instance is ignored, not trusted.
        let foreign_instance = InstanceSpec::paper_normal().unwrap().generate(999).unwrap();
        let foreign_placement = foreign_instance.random_placement(&mut rng);
        let foreign = WmnTopology::build(
            &foreign_instance,
            &foreign_placement,
            TopologyConfig::paper_default(),
        )
        .unwrap();
        let mut guarded = base.clone();
        guarded.apply_moves_from(&moves, Some(&foreign));
        guarded.assert_consistent();
        assert_eq!(guarded.covered_count(), without.covered_count());
    }

    #[test]
    fn apply_moves_in_rebuild_mode_matches_incremental() {
        let (_instance, mut inc) = paper_topology(61);
        let mut reb = inc.clone();
        reb.set_rebuild_mode(true);
        let mut rng = rng_from_seed(19);
        for _ in 0..10 {
            let k = rng.gen_range(2..10);
            let moves: Vec<(RouterId, Point)> = (0..k)
                .map(|_| {
                    (
                        RouterId(rng.gen_range(0..inc.router_count())),
                        Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0)),
                    )
                })
                .collect();
            inc.apply_moves(&moves);
            reb.apply_moves(&moves);
            assert_eq!(inc.placement(), reb.placement());
            assert_eq!(inc.giant_size(), reb.giant_size());
            assert_eq!(inc.covered_count(), reb.covered_count());
            assert_eq!(inc.covered_mask(), reb.covered_mask());
        }
    }

    #[test]
    fn engine_stats_count_the_work_actually_done() {
        let (_instance, mut topo) = paper_topology(23);
        let built = topo.engine_stats();
        // Construction recomputed coverage once, querying exactly the
        // counted (giant-member) routers' disks from the client grid.
        assert_eq!(built.topology.coverage_full_recomputes, 1);
        assert_eq!(built.topology.disk_grid_queries, topo.giant_size() as u64);
        assert_eq!(built.topology.single_moves, 0);

        let mut rng = rng_from_seed(5);
        for _ in 0..10 {
            let id = RouterId(rng.gen_range(0..topo.router_count()));
            let p = Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0));
            topo.move_router(id, p);
        }
        topo.swap_routers(RouterId(0), RouterId(1));
        let after = topo.engine_stats();
        assert_eq!(after.topology.single_moves, 10);
        assert_eq!(after.topology.swaps, 1);
        assert!(
            after.connectivity.repairs > 0,
            "single moves must take the local route through the engine"
        );
        assert_eq!(after.topology.rescan_repairs, 0);
        assert_eq!(
            after.topology.local_repairs, after.connectivity.repairs,
            "every local-route repair is one engine repair"
        );

        // `clone` starts a zeroed window; `clone_from` keeps counting and
        // records the buffer reuse.
        let mut copy = topo.clone();
        assert_eq!(copy.engine_stats(), EngineStats::default());
        copy.clone_from(&topo);
        assert_eq!(copy.engine_stats().topology.clone_from_reuses, 1);

        // A reset opens a fresh delta window on a live topology.
        topo.reset_engine_stats();
        assert_eq!(topo.engine_stats(), EngineStats::default());
        topo.move_router(RouterId(2), Point::new(64.0, 64.0));
        assert_eq!(topo.engine_stats().topology.single_moves, 1);
    }

    #[test]
    fn full_rebuild_mode_shows_up_in_the_counters() {
        let (_instance, mut topo) = paper_topology(29);
        topo.reset_engine_stats();
        topo.set_rebuild_mode(true);
        topo.move_router(RouterId(3), Point::new(10.0, 10.0));
        let stats = topo.engine_stats();
        assert_eq!(stats.topology.full_rebuilds, 1);
        // The reference oracle's work: every router and every edge.
        assert_eq!(stats.topology.full_rebuild_nodes, 64);
        assert_eq!(
            stats.topology.full_rebuild_edges,
            topo.adjacency().edge_count() as u64
        );
        assert_eq!(
            stats.topology.local_repairs + stats.topology.rescan_repairs,
            0,
            "rebuild mode takes neither repair route"
        );
        assert_eq!(
            stats.connectivity.repairs, 0,
            "full rebuild must bypass the dynamic engine"
        );
    }

    #[test]
    fn apply_phases_partition_the_batch_repair_work() {
        let (_instance, mut topo) = paper_topology(41);
        topo.reset_engine_stats();
        let mut rng = rng_from_seed(11);
        for _ in 0..12 {
            let k = rng.gen_range(2..8);
            let moves: Vec<(RouterId, Point)> = (0..k)
                .map(|_| {
                    (
                        RouterId(rng.gen_range(0..topo.router_count())),
                        Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0)),
                    )
                })
                .collect();
            topo.apply_moves(&moves);
        }
        let totals = topo.engine_stats();
        let phases = topo.apply_phases();
        // Every move went through the batch path, so the buckets account
        // for all engine work; generally they only lower-bound it.
        assert_eq!(phases.attributed(), totals);
        assert_eq!(
            phases.edge_repair.topology.batch_repairs, 12,
            "batch bookkeeping lands in the edge-repair section"
        );
        assert!(phases.component_repair.connectivity.repairs > 0);
        assert!(
            phases.coverage.topology.disk_grid_queries > 0
                || phases.coverage.topology.disk_cache_hits > 0
        );
        assert_eq!(phases.full_rebuild, EngineStats::default());
        // Single moves bypass the batch pipeline: totals grow, buckets
        // don't — the residual is the caller's to attribute.
        topo.move_router(RouterId(0), Point::new(5.0, 5.0));
        assert_eq!(topo.apply_phases(), phases);
        assert_ne!(topo.engine_stats(), totals);
        // `reset_engine_stats` opens a fresh window for the buckets too.
        topo.reset_engine_stats();
        assert_eq!(topo.apply_phases(), ApplyPhases::default());
        // Rebuild mode routes batch work into its escape bucket.
        topo.set_rebuild_mode(true);
        topo.apply_moves(&[
            (RouterId(1), Point::new(20.0, 20.0)),
            (RouterId(2), Point::new(30.0, 30.0)),
        ]);
        let phases = topo.apply_phases();
        assert_eq!(phases.full_rebuild.topology.full_rebuilds, 1);
        assert_eq!(phases.attributed(), topo.engine_stats());
    }
}
