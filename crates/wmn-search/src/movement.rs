//! Movement types: local perturbations of a placement.
//!
//! Paper §4 defines neighborhood structure through a **movement type**. Two
//! are evaluated: a purely random relocation ([`RandomMovement`]) and the
//! **swap movement** of Algorithm 3 ([`SwapMovement`]) — "the worst router
//! (that of smallest radio coverage) in the most dense area is exchanged
//! with the best router (that of largest radio coverage) of the sparsest
//! area", promoting the best routers into the densest client zones.
//!
//! The paper leaves one case unspecified: the densest client area may
//! contain **no router at all** (common early in a search). Following the
//! movement's stated intent, [`SwapMovement`] then relocates the sparse
//! area's strongest router into the dense area ("swap with an empty slot").
//! The gap-fill is step 4 of [`SwapMovement`]'s proposal and is exercised
//! by the tests below.

use rand::{Rng, RngCore};
use std::cell::RefCell;
use std::fmt;
use wmn_graph::density::{CellWindow, DensityMap};
use wmn_graph::topology::{TopologyConfig, WmnTopology};
use wmn_model::geometry::{Area, Point, Rect};
use wmn_model::instance::ProblemInstance;
use wmn_model::node::RouterId;
use wmn_model::placement::Placement;

/// A concrete, applicable local perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MoveAction {
    /// Move one router to a new position.
    Relocate {
        /// The router to move.
        router: RouterId,
        /// Destination (clamped into the area on application).
        to: Point,
    },
    /// Exchange the positions of two routers (radii stay with their
    /// routers).
    Swap {
        /// First router.
        a: RouterId,
        /// Second router.
        b: RouterId,
    },
}

/// Token to revert an applied [`MoveAction`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UndoAction(MoveAction);

impl MoveAction {
    /// Applies the move to a topology, returning the undo token.
    pub fn apply(&self, topo: &mut WmnTopology) -> UndoAction {
        match *self {
            MoveAction::Relocate { router, to } => {
                let old = topo.move_router(router, to);
                UndoAction(MoveAction::Relocate { router, to: old })
            }
            MoveAction::Swap { a, b } => {
                topo.swap_routers(a, b);
                UndoAction(MoveAction::Swap { a, b })
            }
        }
    }

    /// Applies the move to a bare placement vector, without any network
    /// repair: a relocation sets the router's gene **verbatim** (no area
    /// clamping — producers of placement-level moves, e.g. the GA's
    /// mutation planner, clamp at proposal time) and a swap exchanges two
    /// genes. This is the chromosome-side counterpart of
    /// [`MoveAction::apply`], shared by the GA so mutation and search
    /// speak the same move vocabulary.
    ///
    /// # Panics
    ///
    /// Panics if a router id is out of range for `placement`.
    pub fn apply_to_placement(&self, placement: &mut Placement) {
        match *self {
            MoveAction::Relocate { router, to } => placement[router] = to,
            MoveAction::Swap { a, b } => placement.swap(a, b),
        }
    }
}

impl UndoAction {
    /// Reverts the move this token was produced by.
    pub fn undo(self, topo: &mut WmnTopology) {
        let _ = self.0.apply(topo);
    }
}

/// A movement type: proposes candidate perturbations of the current state.
///
/// Movements are constructed against a fixed instance (client positions
/// never change), then propose moves against evolving topologies.
///
/// A movement may cache per-instance state between proposals, such as
/// where each router sat at the last call ([`SwapMovement`] does). The
/// cache stays valid for **any** topology of that instance: a proposal
/// first brings it up to the topology it is given, however far that
/// topology is from the one the last call saw, so one movement can serve
/// several topologies in turn and its proposals never depend on which it
/// saw before. `Clone` copies the cache.
pub trait Movement: fmt::Debug {
    /// Short stable name (used by figure legends): `"Swap"`, `"Random"`.
    fn name(&self) -> &'static str;

    /// Proposes one candidate move for the current topology.
    fn propose(&self, topo: &WmnTopology, rng: &mut dyn RngCore) -> MoveAction;
}

/// Purely random relocation: a uniformly chosen router moves to a uniformly
/// chosen position (the paper's random-movement baseline of Figure 4).
#[derive(Debug, Clone)]
pub struct RandomMovement {
    width: f64,
    height: f64,
}

impl RandomMovement {
    /// Creates the movement for `instance`'s area.
    pub fn new(instance: &ProblemInstance) -> Self {
        RandomMovement {
            width: instance.area().width(),
            height: instance.area().height(),
        }
    }
}

impl Movement for RandomMovement {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn propose(&self, topo: &WmnTopology, rng: &mut dyn RngCore) -> MoveAction {
        let router = RouterId(rng.gen_range(0..topo.router_count()));
        let to = Point::new(
            rng.gen_range(0.0..=self.width),
            rng.gen_range(0.0..=self.height),
        );
        MoveAction::Relocate { router, to }
    }
}

/// Configuration for [`SwapMovement`] (paper Algorithm 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapConfig {
    /// Density grid resolution (`cells × cells` over the area).
    pub cells: usize,
    /// Dense/sparse window size in cells (`Hg = Wg = window_cells`).
    pub window_cells: usize,
    /// How many of the top dense windows to sample among (randomizing the
    /// neighborhood so Algorithm 2 has distinct candidates to examine).
    pub dense_candidates: usize,
    /// How many of the bottom sparse windows to sample among.
    pub sparse_candidates: usize,
    /// Minimum client count for a window to qualify as "dense" (the
    /// paper's dense threshold).
    pub dense_threshold: u64,
    /// Maximum client count for a window to qualify as "sparse" (the
    /// paper's sparse threshold).
    pub sparse_threshold: u64,
}

impl Default for SwapConfig {
    fn default() -> Self {
        SwapConfig {
            cells: 16,
            window_cells: 2,
            dense_candidates: 4,
            sparse_candidates: 4,
            dense_threshold: 1,
            sparse_threshold: u64::MAX,
        }
    }
}

/// The swap movement of Algorithm 3.
///
/// Per proposal:
/// 1. pick a *dense* window among the top client-count windows;
/// 2. pick a *sparse* window among the bottom client-count windows that
///    still contain at least one router;
/// 3. find the **weakest** router inside the dense window and the
///    **strongest** router inside the sparse window;
/// 4. swap their positions — or, when the dense window holds no router,
///    relocate the strong router into the dense window (documented
///    gap-fill).
///
/// # Cost model
///
/// Client positions never change, so construction ranks the disjoint
/// windows ("zones") once, resolves each zone's closed [`Rect`] and
/// client count, and builds a table mapping every density cell to the
/// rank of the zone covering it.
///
/// Between two proposals of a search phase at most a couple of routers
/// move, so the movement keeps what a proposal reads from one call to the
/// next: the router positions it last saw, the per-zone occupancy counts,
/// and per-zone **rosters** (the routers inside each zone's closed
/// rectangle, in ascending id). A proposal compares
/// [`WmnTopology::positions`] bitwise against that snapshot — one tight
/// O(n) pass — and re-homes only the routers that differ, each in
/// O(roster size); it rebuilds everything when the router count changes.
/// Picking the zones then costs O(zones) and reading a roster O(roster
/// size), so no other pass over the routers remains.
///
/// In relocate mode with an empty dense zone, the anchor is the giant
/// member nearest the zone's center. The movement memoises, per zone, the
/// two nearest giant members (by distance², then id), so excluding the
/// moving router stays exact. Giant membership is global, so the memo is
/// dropped whenever any router moved; finding it again costs one O(n)
/// scan.
///
/// # Boundary rule
///
/// A router belongs to a zone when the zone's **closed** rectangle
/// contains it. Adjacent zones share edges and corners, so a router on a
/// shared edge lies in several closed rectangles — it is on each of their
/// rosters — and counts towards the occupancy of the **lowest-rank**
/// (densest) of them only. The cell table answers only for routers
/// strictly inside a cell; a router on or near a cell edge, outside the
/// area or at a NaN position is resolved by testing the closed rectangles
/// of the zones covering the 3 × 3 neighbouring cells, which finds
/// exactly the zones a scan over all rectangles would.
///
/// # Examples
///
/// ```
/// use wmn_search::movement::{Movement, SwapMovement};
/// use wmn_graph::topology::{TopologyConfig, WmnTopology};
/// use wmn_model::prelude::*;
///
/// let instance = InstanceSpec::paper_normal()?.generate(1)?;
/// let mut rng = rng_from_seed(2);
/// let placement = instance.random_placement(&mut rng);
/// let topo = WmnTopology::build(&instance, &placement, TopologyConfig::paper_default())?;
///
/// let movement = SwapMovement::new(&instance, Default::default());
/// let action = movement.propose(&topo, &mut rng);
/// println!("proposed {action:?}");
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SwapMovement {
    config: SwapConfig,
    area: Area,
    total_clients: u64,
    /// All disjoint windows ranked by client count, descending.
    zones: Vec<Zone>,
    /// Router position → zone rank lookup over the density grid.
    grid: ZoneGrid,
    /// Router-side state kept between proposals (interior mutability
    /// because [`Movement::propose`] takes `&self`): once warm, a proposal
    /// performs zero heap allocations, keeping the whole search inner
    /// loop allocation-free.
    state: RefCell<ZoneState>,
}

/// One ranked client zone, resolved once per instance.
#[derive(Debug, Clone, Copy)]
struct Zone {
    /// The window's closed rectangle in deployment-area coordinates.
    rect: Rect,
    /// Clients inside the window.
    clients: u64,
}

/// Margin, in cell units, inside which a position counts as on a cell
/// edge. Far above the rounding error of `p · (1 / cell_w)` against the
/// window edges `k · cell_w` for any grid that fits in memory.
const EDGE_EPS: f64 = 1e-6;

/// Maps positions to the zones whose closed rectangles hold them (see the
/// boundary rule on [`SwapMovement`]).
#[derive(Debug, Clone)]
struct ZoneGrid {
    cols: usize,
    rows: usize,
    inv_cell_w: f64,
    inv_cell_h: f64,
    /// Rank of the zone covering each cell, row-major; zones are disjoint
    /// in cells, so there is at most one. Uncovered cells hold the
    /// sentinel rank `zones.len()`.
    cell_zone: Vec<u32>,
}

/// The ranks of the zones whose closed rectangles contain one position:
/// at most the zones of the 3 × 3 cells around it.
#[derive(Debug, Clone, Copy, Default)]
struct ZoneSet {
    len: usize,
    ranks: [u32; 9],
}

impl ZoneSet {
    fn as_slice(&self) -> &[u32] {
        &self.ranks[..self.len]
    }

    fn push(&mut self, rank: u32) {
        self.ranks[self.len] = rank;
        self.len += 1;
    }

    /// The lowest rank, or `none` for an empty set.
    fn home(&self, none: usize) -> usize {
        self.as_slice().iter().min().map_or(none, |&r| r as usize)
    }
}

impl ZoneGrid {
    fn new(map: &DensityMap, windows: &[CellWindow]) -> Self {
        let (cols, rows) = map.shape();
        let area = map.area();
        let sentinel = u32::try_from(windows.len()).expect("zone count fits in u32");
        let mut cell_zone = vec![sentinel; cols * rows];
        for (rank, w) in (0u32..).zip(windows) {
            for cy in w.cy..w.cy + w.h {
                for slot in &mut cell_zone[cy * cols + w.cx..cy * cols + w.cx + w.w] {
                    debug_assert_eq!(*slot, sentinel, "ranked zones overlap");
                    *slot = rank;
                }
            }
        }
        ZoneGrid {
            cols,
            rows,
            inv_cell_w: 1.0 / (area.width() / cols as f64),
            inv_cell_h: 1.0 / (area.height() / rows as f64),
            cell_zone,
        }
    }

    /// Every zone whose closed rectangle contains `p`.
    #[inline]
    fn zones_containing(&self, p: Point, zones: &[Zone]) -> ZoneSet {
        let fx = p.x * self.inv_cell_w;
        let fy = p.y * self.inv_cell_h;
        // Saturating casts: negative and NaN coordinates land on 0, huge
        // ones past the grid; both fail the checks below.
        let (cx, cy) = (fx as usize, fy as usize);
        let (rx, ry) = (fx - cx as f64, fy - cy as f64);
        let mut set = ZoneSet::default();
        if cx < self.cols
            && cy < self.rows
            && rx > EDGE_EPS
            && rx < 1.0 - EDGE_EPS
            && ry > EDGE_EPS
            && ry < 1.0 - EDGE_EPS
        {
            let zi = self.cell_zone[cy * self.cols + cx];
            if (zi as usize) < zones.len() {
                set.push(zi);
            }
        } else {
            self.zones_near_edge(
                p,
                cx.min(self.cols - 1),
                cy.min(self.rows - 1),
                zones,
                &mut set,
            );
        }
        set
    }

    /// Slow path of [`ZoneGrid::zones_containing`]: any zone whose closed
    /// rectangle contains `p` covers one of the 3 × 3 cells around
    /// `(cx, cy)`.
    #[cold]
    fn zones_near_edge(&self, p: Point, cx: usize, cy: usize, zones: &[Zone], set: &mut ZoneSet) {
        for y in cy.saturating_sub(1)..=(cy + 1).min(self.rows - 1) {
            for x in cx.saturating_sub(1)..=(cx + 1).min(self.cols - 1) {
                let zi = self.cell_zone[y * self.cols + x];
                if (zi as usize) < zones.len()
                    && !set.as_slice().contains(&zi)
                    && zones[zi as usize].rect.contains(p)
                {
                    set.push(zi);
                }
            }
        }
    }
}

/// The giant members nearest one zone's center, by distance², then id.
#[derive(Debug, Clone, Copy)]
enum NearestGiant {
    /// The nearest and the second nearest.
    Ranked(Option<RouterId>, Option<RouterId>),
    /// A NaN distance leaves no order to rank by; every query rescans.
    Unordered,
}

/// Router-side state of [`SwapMovement`], kept between proposals and
/// updated for the routers that moved (see its cost model).
#[derive(Debug, Clone, Default)]
struct ZoneState {
    /// Router positions at the last proposal.
    positions: Vec<Point>,
    /// Routers per zone rank, plus a last slot for routers in no zone. A
    /// router counts for the lowest-rank zone whose closed rectangle
    /// holds it.
    occupancy: Vec<usize>,
    /// Per zone, the routers inside its closed rectangle, ascending id.
    rosters: Vec<Vec<RouterId>>,
    /// Per zone, the memoised nearest giant members; cleared whenever a
    /// router moved.
    nearest_giant: Vec<Option<NearestGiant>>,
    /// The link and coverage rules the memo was taken under: giant
    /// membership depends on them as well as on the positions.
    topology_config: Option<TopologyConfig>,
    /// Routers whose positions differ from the snapshot.
    moved: Vec<usize>,
    dense_pool: Vec<usize>,
    sparse_pool: Vec<usize>,
}

impl ZoneState {
    /// Brings the state up to `topo`'s router positions.
    fn sync(&mut self, topo: &WmnTopology, grid: &ZoneGrid, zones: &[Zone]) {
        if self.topology_config != Some(topo.config()) {
            self.topology_config = Some(topo.config());
            self.nearest_giant.clear();
            self.nearest_giant.resize(zones.len(), None);
        }
        let positions = topo.positions();
        if positions.len() != self.positions.len() {
            self.rebuild(positions, grid, zones);
            return;
        }
        self.moved.clear();
        for (i, (seen, now)) in self.positions.iter().zip(positions).enumerate() {
            if (seen.x.to_bits() ^ now.x.to_bits()) | (seen.y.to_bits() ^ now.y.to_bits()) != 0 {
                self.moved.push(i);
            }
        }
        if self.moved.is_empty() {
            return;
        }
        self.nearest_giant.fill(None);
        // Every moved router leaves its old zones before any enters its
        // new ones, so no roster grows past the larger of its old and new
        // sizes (the allocation gate relies on it).
        for &i in &self.moved {
            let set = grid.zones_containing(self.positions[i], zones);
            self.occupancy[set.home(zones.len())] -= 1;
            for &zi in set.as_slice() {
                let roster = &mut self.rosters[zi as usize];
                let at = roster
                    .binary_search(&RouterId(i))
                    .expect("a router is on the roster of every zone holding it");
                roster.remove(at);
            }
        }
        for &i in &self.moved {
            let p = positions[i];
            self.positions[i] = p;
            let set = grid.zones_containing(p, zones);
            for &zi in set.as_slice() {
                let roster = &mut self.rosters[zi as usize];
                let at = roster.binary_search(&RouterId(i)).unwrap_err();
                roster.insert(at, RouterId(i));
            }
            self.occupancy[set.home(zones.len())] += 1;
        }
    }

    fn rebuild(&mut self, positions: &[Point], grid: &ZoneGrid, zones: &[Zone]) {
        self.positions.clear();
        self.positions.extend_from_slice(positions);
        self.occupancy.clear();
        self.occupancy.resize(zones.len() + 1, 0);
        self.rosters.resize_with(zones.len(), Vec::new);
        for roster in &mut self.rosters {
            roster.clear();
        }
        self.nearest_giant.fill(None);
        // Room for every router to have moved, so diffs never grow it.
        self.moved.clear();
        self.moved.reserve(positions.len());
        for (i, &p) in positions.iter().enumerate() {
            let set = grid.zones_containing(p, zones);
            for &zi in set.as_slice() {
                self.rosters[zi as usize].push(RouterId(i));
            }
            self.occupancy[set.home(zones.len())] += 1;
        }
    }
}

/// The giant member nearest `center` other than `exclude`, by distance²,
/// then id, through one zone's `memo`.
fn nearest_giant(
    memo: &mut Option<NearestGiant>,
    center: Point,
    topo: &WmnTopology,
    exclude: RouterId,
) -> Option<RouterId> {
    match *memo.get_or_insert_with(|| rank_nearest_giant(topo, center)) {
        NearestGiant::Ranked(first, second) => {
            if first == Some(exclude) {
                second
            } else {
                first
            }
        }
        NearestGiant::Unordered => (0..topo.router_count())
            .map(RouterId)
            .filter(|&id| id != exclude && topo.in_giant(id))
            .min_by(|&a, &b| {
                let da = topo.position(a).distance_squared(center);
                let db = topo.position(b).distance_squared(center);
                da.partial_cmp(&db)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.index().cmp(&b.index()))
            }),
    }
}

/// The two giant members nearest `center`, by distance², then id, in one
/// scan in ascending id.
fn rank_nearest_giant(topo: &WmnTopology, center: Point) -> NearestGiant {
    let mut first: Option<(f64, RouterId)> = None;
    let mut second: Option<(f64, RouterId)> = None;
    for (i, p) in topo.positions().iter().enumerate() {
        let id = RouterId(i);
        if !topo.in_giant(id) {
            continue;
        }
        let d = p.distance_squared(center);
        if d.is_nan() {
            return NearestGiant::Unordered;
        }
        // Ids ascend, so an equal distance never displaces a kept router.
        if first.is_none_or(|(best, _)| d < best) {
            second = first;
            first = Some((d, id));
        } else if second.is_none_or(|(next, _)| d < next) {
            second = Some((d, id));
        }
    }
    NearestGiant::Ranked(first.map(|(_, id)| id), second.map(|(_, id)| id))
}

impl SwapMovement {
    /// Creates the movement for `instance` with the given configuration.
    pub fn new(instance: &ProblemInstance, config: SwapConfig) -> Self {
        let cells = config.cells.max(1);
        let client_map =
            DensityMap::from_points(&instance.area(), &instance.client_positions(), cells, cells);
        let windows = client_map.ranked_disjoint_windows(
            config.window_cells,
            config.window_cells,
            usize::MAX,
        );
        let zones = windows
            .iter()
            .map(|w| Zone {
                rect: client_map.window_rect(w),
                clients: client_map.window_count(w),
            })
            .collect();
        SwapMovement {
            config,
            area: client_map.area(),
            total_clients: client_map.total(),
            zones,
            grid: ZoneGrid::new(&client_map, &windows),
            state: RefCell::new(ZoneState::default()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SwapConfig {
        &self.config
    }

    fn weakest(&self, topo: &WmnTopology, ids: &[RouterId]) -> Option<RouterId> {
        ids.iter().copied().min_by(|&a, &b| {
            topo.radius(a)
                .partial_cmp(&topo.radius(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.index().cmp(&b.index()))
        })
    }

    fn strongest(
        &self,
        topo: &WmnTopology,
        ids: impl Iterator<Item = RouterId>,
    ) -> Option<RouterId> {
        ids.max_by(|&a, &b| {
            topo.radius(a)
                .partial_cmp(&topo.radius(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.index().cmp(&a.index()))
        })
    }

    fn fallback_random(&self, topo: &WmnTopology, rng: &mut dyn RngCore) -> MoveAction {
        MoveAction::Relocate {
            router: RouterId(rng.gen_range(0..topo.router_count())),
            to: Point::new(
                rng.gen_range(0.0..=self.area.width()),
                rng.gen_range(0.0..=self.area.height()),
            ),
        }
    }
}

impl Movement for SwapMovement {
    fn name(&self) -> &'static str {
        "Swap"
    }

    fn propose(&self, topo: &WmnTopology, rng: &mut dyn RngCore) -> MoveAction {
        let mut state = self.state.borrow_mut();
        state.sync(topo, &self.grid, &self.zones);
        let ZoneState {
            occupancy,
            rosters,
            nearest_giant: nearest_giant_memo,
            dense_pool,
            sparse_pool,
            ..
        } = &mut *state;
        let routers_per_zone = &occupancy[..self.zones.len()];

        // The paper's "dense threshold", operationalized as a router
        // deficit: a dense zone keeps attracting routers while it holds
        // fewer than clients/kappa of them (kappa = clients per router in
        // the whole instance). Zones are examined in client-count order, so
        // the densest under-served zone ranks first.
        let kappa = (self.total_clients as f64 / topo.router_count() as f64).max(1.0);
        dense_pool.clear();
        let dense_cap = self.config.dense_candidates.max(1);
        for (zi, (zone, &occupancy)) in self.zones.iter().zip(routers_per_zone).enumerate() {
            if dense_pool.len() == dense_cap {
                break;
            }
            if zone.clients >= self.config.dense_threshold.max(1)
                && (zone.clients as f64) / kappa > occupancy as f64
            {
                dense_pool.push(zi);
            }
        }

        // Step 3: the dense target. With a deficit somewhere, the dense zone
        // is an under-served one (relocate mode); otherwise it is the
        // densest zone that holds a router (literal swap mode).
        let relocate_mode = !dense_pool.is_empty();
        let dense_zi = if relocate_mode {
            *pick(dense_pool, rng).expect("nonempty pool")
        } else {
            match routers_per_zone.iter().position(|&n| n > 0) {
                Some(zi) => zi,
                None => return self.fallback_random(topo, rng),
            }
        };
        let dense = self.zones[dense_zi];
        let dense_rect = dense.rect;

        // Step 5 of Algorithm 3: the sparsest zones that still hold a
        // router to take the strong one from (never the dense zone itself).
        sparse_pool.clear();
        let sparse_cap = self.config.sparse_candidates.max(1);
        for zi in (0..self.zones.len()).rev() {
            if sparse_pool.len() == sparse_cap {
                break;
            }
            if zi != dense_zi
                && self.zones[zi].clients <= self.config.sparse_threshold
                && routers_per_zone[zi] > 0
            {
                sparse_pool.push(zi);
            }
        }
        let Some(&sparse_zi) = pick(sparse_pool, rng) else {
            return self.fallback_random(topo, rng);
        };
        // A "sparse" zone at least as client-heavy as the dense target means
        // the zone structure is degenerate; fall back rather than swap
        // backwards.
        let sparse = self.zones[sparse_zi];
        if sparse.clients > dense.clients {
            return self.fallback_random(topo, rng);
        }

        // Step 6: most powerful router within the sparse area. In relocate
        // mode prefer a router *outside* the giant component — pulling a
        // giant member out would tear down the connectivity the move is
        // meant to build.
        let sparse_routers = &rosters[sparse_zi];
        let strong = if relocate_mode {
            self.strongest(
                topo,
                sparse_routers
                    .iter()
                    .copied()
                    .filter(|&id| !topo.in_giant(id)),
            )
            .or_else(|| self.strongest(topo, sparse_routers.iter().copied()))
        } else {
            self.strongest(topo, sparse_routers.iter().copied())
        };
        let Some(strong) = strong else {
            return self.fallback_random(topo, rng);
        };

        let dense_routers = &rosters[dense_zi];
        if relocate_mode {
            // Under-served dense zone: pull the strong router in ("swap with
            // an empty slot" — the documented gap-fill). The landing spot is
            // anchored within link range of an existing router — a dense-
            // zone occupant when there is one, otherwise the giant-component
            // member closest to the zone — and biased toward the zone
            // center, so each accepted move both extends the mesh ("re-
            // establish mesh nodes network connections") and marches it
            // onto the client mass. An unanchored landing almost never
            // links under the mutual-range rule and would be rejected by
            // the improvement-only acceptance of Algorithm 1.
            let center = dense_rect.center();
            // The occupants other than `strong`, drawn from as if `strong`
            // had been filtered out of the roster.
            let skip = dense_routers.binary_search(&strong).ok();
            let occupants = dense_routers.len() - usize::from(skip.is_some());
            let anchor = if occupants > 0 {
                let k = rng.gen_range(0..occupants);
                Some(dense_routers[k + usize::from(skip.is_some_and(|s| k >= s))])
            } else {
                nearest_giant(&mut nearest_giant_memo[dense_zi], center, topo, strong)
            };
            let to = match anchor {
                Some(anchor) => {
                    let a = topo.position(anchor);
                    let reach = topo.radius(anchor).min(topo.radius(strong));
                    let toward = (center.y - a.y).atan2(center.x - a.x);
                    let angle = toward + rng.gen_range(-1.0..1.0);
                    let dist = reach * rng.gen_range(0.4..0.95);
                    Point::new(a.x + dist * angle.cos(), a.y + dist * angle.sin())
                }
                None => Point::new(
                    rng.gen_range(dense_rect.min().x..=dense_rect.max().x),
                    rng.gen_range(dense_rect.min().y..=dense_rect.max().y),
                ),
            };
            return MoveAction::Relocate { router: strong, to };
        }

        // Step 4 + 7: the literal Algorithm 3 swap — weakest router of the
        // dense zone exchanges positions with the strong one.
        match self.weakest(topo, dense_routers) {
            Some(weak) if weak != strong => MoveAction::Swap { a: weak, b: strong },
            _ => self.fallback_random(topo, rng),
        }
    }
}

/// Uniformly picks an element of a slice, or `None` when empty.
fn pick<'a, T>(pool: &'a [T], rng: &mut dyn RngCore) -> Option<&'a T> {
    if pool.is_empty() {
        None
    } else {
        Some(&pool[rng.gen_range(0..pool.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_graph::topology::TopologyConfig;
    use wmn_model::instance::InstanceSpec;
    use wmn_model::placement::Placement;
    use wmn_model::rng::rng_from_seed;

    fn setup(seed: u64) -> (ProblemInstance, WmnTopology) {
        let instance = InstanceSpec::paper_normal()
            .unwrap()
            .generate(seed)
            .unwrap();
        let mut rng = rng_from_seed(seed ^ 0xF00D);
        let placement = instance.random_placement(&mut rng);
        let topo =
            WmnTopology::build(&instance, &placement, TopologyConfig::paper_default()).unwrap();
        (instance, topo)
    }

    #[test]
    fn apply_then_undo_restores_state() {
        let (instance, mut topo) = setup(1);
        let mut rng = rng_from_seed(2);
        let movements: Vec<Box<dyn Movement>> = vec![
            Box::new(RandomMovement::new(&instance)),
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
        ];
        for movement in &movements {
            for _ in 0..20 {
                let snapshot = (topo.giant_size(), topo.covered_count(), topo.placement());
                let action = movement.propose(&topo, &mut rng);
                let undo = action.apply(&mut topo);
                undo.undo(&mut topo);
                assert_eq!(
                    (topo.giant_size(), topo.covered_count(), topo.placement()),
                    snapshot,
                    "{} move not undone cleanly",
                    movement.name()
                );
            }
        }
    }

    #[test]
    fn apply_to_placement_tracks_topology_apply() {
        // Placement-level application must land the same placements as the
        // topology-level one (for in-area targets, which movements propose).
        let (instance, mut topo) = setup(2);
        let mut placement = topo.placement();
        let mut rng = rng_from_seed(9);
        let movements: Vec<Box<dyn Movement>> = vec![
            Box::new(RandomMovement::new(&instance)),
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
        ];
        for movement in &movements {
            for _ in 0..30 {
                let mut action = movement.propose(&topo, &mut rng);
                // Placement-level application is verbatim (no clamping);
                // clamp the proposal first, as placement-level producers do.
                if let MoveAction::Relocate { to, .. } = &mut action {
                    *to = instance.area().clamp_point(*to);
                }
                action.apply(&mut topo);
                action.apply_to_placement(&mut placement);
                assert_eq!(placement, topo.placement(), "{}", movement.name());
            }
        }
    }

    #[test]
    fn random_movement_targets_every_router_eventually() {
        let (instance, topo) = setup(3);
        let movement = RandomMovement::new(&instance);
        let mut rng = rng_from_seed(5);
        let mut hit = vec![false; topo.router_count()];
        for _ in 0..4000 {
            if let MoveAction::Relocate { router, .. } = movement.propose(&topo, &mut rng) {
                hit[router.index()] = true;
            }
        }
        assert!(hit.iter().all(|&b| b), "some router never proposed");
    }

    #[test]
    fn swap_proposals_are_swaps_or_dense_relocations() {
        let (instance, topo) = setup(7);
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        let mut rng = rng_from_seed(11);
        let mut swaps = 0;
        let mut relocations = 0;
        for _ in 0..200 {
            match movement.propose(&topo, &mut rng) {
                MoveAction::Swap { a, b } => {
                    assert_ne!(a, b);
                    swaps += 1;
                }
                MoveAction::Relocate { .. } => relocations += 1,
            }
        }
        assert_eq!(swaps + relocations, 200);
        // On a random placement over a Normal client cluster both kinds
        // occur across 200 proposals.
        assert!(
            relocations > 0,
            "dense windows start empty: expect relocations"
        );
    }

    #[test]
    fn swap_swaps_weak_in_dense_with_strong_in_sparse() {
        // No-deficit scenario (both zones hold their fair share of routers,
        // kappa = 40 clients / 4 routers = 10):
        //   zone A: 30 clients, 3 routers (needs 3) — weakest is router 0;
        //   zone B: 10 clients, 1 router (needs 1) — the strong router 3.
        // The literal Algorithm 3 swap must pair router 0 with router 3.
        use wmn_model::geometry::Point;
        use wmn_model::instance::InstanceBuilder;
        use wmn_model::radio::RadioProfile;
        let area = wmn_model::Area::square(128.0).unwrap();
        let prof = RadioProfile::new(2.0, 8.0).unwrap();
        let instance = InstanceBuilder::new(area)
            .router(prof, 2.0) // weakest, in dense zone A
            .router(prof, 5.0) // in zone A
            .router(prof, 6.0) // in zone A
            .router(prof, 8.0) // strongest, in sparse zone B
            .clients((0..30).map(|i| Point::new(2.0 + (i % 6) as f64, 2.0 + (i / 6) as f64 * 2.0)))
            .clients(
                (0..10).map(|i| Point::new(100.0 + (i % 4) as f64, 100.0 + (i / 4) as f64 * 2.0)),
            )
            .build()
            .unwrap();
        let placement = Placement::from_points(vec![
            Point::new(6.0, 6.0),
            Point::new(10.0, 10.0),
            Point::new(12.0, 4.0),
            Point::new(104.0, 104.0),
        ]);
        let topo =
            WmnTopology::build(&instance, &placement, TopologyConfig::paper_default()).unwrap();
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        let mut rng = rng_from_seed(1);
        let mut saw_target_swap = false;
        for _ in 0..100 {
            if let MoveAction::Swap { a, b } = movement.propose(&topo, &mut rng) {
                assert_eq!(
                    (a, b),
                    (RouterId(0), RouterId(3)),
                    "swap must pair weak-in-dense with strong-in-sparse"
                );
                saw_target_swap = true;
            }
        }
        assert!(saw_target_swap, "the canonical swap was never proposed");
    }

    #[test]
    fn swap_relocates_lone_router_into_empty_dense_zone() {
        // A single router far from the client cluster: no anchor exists, so
        // the gap-fill lands the router uniformly inside the dense window.
        use wmn_model::geometry::Point;
        use wmn_model::instance::InstanceBuilder;
        use wmn_model::radio::RadioProfile;
        let area = wmn_model::Area::square(128.0).unwrap();
        let prof = RadioProfile::new(2.0, 8.0).unwrap();
        let instance = InstanceBuilder::new(area)
            .router(prof, 8.0)
            .clients((0..40).map(|i| Point::new(4.0 + (i % 8) as f64, 4.0 + (i / 8) as f64)))
            .build()
            .unwrap();
        let placement = Placement::from_points(vec![Point::new(100.0, 100.0)]);
        let topo =
            WmnTopology::build(&instance, &placement, TopologyConfig::paper_default()).unwrap();
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        let mut rng = rng_from_seed(1);
        let mut landed_in_cluster_window = false;
        for _ in 0..100 {
            if let MoveAction::Relocate { router, to } = movement.propose(&topo, &mut rng) {
                if router == RouterId(0) && to.x < 32.0 && to.y < 32.0 {
                    landed_in_cluster_window = true;
                }
            }
        }
        assert!(
            landed_in_cluster_window,
            "empty dense zone must pull the router in"
        );
    }

    #[test]
    fn swap_relocation_lands_within_link_range_of_an_anchor() {
        // Dense zone already occupied: the incoming router must land within
        // mutual link range of an occupant so the move can improve
        // connectivity.
        use wmn_model::geometry::Point;
        use wmn_model::instance::InstanceBuilder;
        use wmn_model::radio::RadioProfile;
        let area = wmn_model::Area::square(128.0).unwrap();
        let prof = RadioProfile::new(2.0, 8.0).unwrap();
        let instance = InstanceBuilder::new(area)
            .router(prof, 6.0) // anchor, sits on the cluster
            .router(prof, 8.0) // strong, far away
            .clients((0..60).map(|i| Point::new(4.0 + (i % 8) as f64, 4.0 + (i / 8) as f64)))
            .build()
            .unwrap();
        let placement =
            Placement::from_points(vec![Point::new(8.0, 8.0), Point::new(100.0, 100.0)]);
        let topo =
            WmnTopology::build(&instance, &placement, TopologyConfig::paper_default()).unwrap();
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        let mut rng = rng_from_seed(2);
        let mut anchored = 0;
        let mut relocations = 0;
        for _ in 0..200 {
            if let MoveAction::Relocate { router, to } = movement.propose(&topo, &mut rng) {
                relocations += 1;
                if router == RouterId(1) {
                    let d = to.distance(Point::new(8.0, 8.0));
                    if d <= 6.0 {
                        anchored += 1; // within min(6, 8) of the anchor
                    }
                }
            }
        }
        assert!(relocations > 0);
        assert!(
            anchored * 2 >= relocations,
            "most relocations should land in link range of the anchor: {anchored}/{relocations}"
        );
    }

    #[test]
    fn movement_names() {
        let (instance, _) = setup(1);
        assert_eq!(RandomMovement::new(&instance).name(), "Random");
        assert_eq!(
            SwapMovement::new(&instance, SwapConfig::default()).name(),
            "Swap"
        );
    }
}
