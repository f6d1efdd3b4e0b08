//! Dynamic connectivity: component-local repair of [`Components`] under
//! edge insertions and deletions.
//!
//! The paper's primary objective — giant-component size — makes
//! connectivity the one derived quantity *every* move, swap, and GA child
//! must refresh. A whole-graph union–find rescan
//! ([`Components::rebuild_incremental`]) does that in O(*n* + *m*) per
//! repair. [`DynamicConnectivity`] replaces it with **component-local
//! repair** driven by the edge diff the grid-local edge repair already
//! computes. Component ids are stable (see the
//! [`components`](crate::components) module docs), so a repair costs
//! O(nodes and edges of the components it touches):
//!
//! * **Insertions merge eagerly.** An inserted edge `(u, v)` joining two
//!   ids relabels one side into the other: the non-giant side, or the
//!   smaller one when neither is the giant. The side is enumerated by a
//!   BFS restricted to its id over the final adjacency plus the
//!   pending-deletion overlay, and its id joins the free-id stack.
//! * **Deletions run a bounded bidirectional BFS** from the severed
//!   endpoints to decide split-vs-still-connected. The search walks the
//!   *final* adjacency lists plus an overlay of the not-yet-processed
//!   deleted edges, which makes processing a batched diff exactly
//!   equivalent to deleting one edge at a time (see *Invariants* below).
//!   Two fast paths settle a deletion without searching: a now-isolated
//!   endpoint is split off directly, and a neighbor shared by both
//!   endpoints in the final adjacency (a triangle) proves they stay
//!   connected — sound because the overlay only ever *adds* edges on
//!   top of the final adjacency.
//!   If the endpoints meet, the component survived and nothing changes; if
//!   one frontier exhausts, that side is a complete component of the
//!   current graph and moves to a fresh id from the free-id stack.
//! * **Per-id state follows each touched id.** Sizes and the live count
//!   change per merge and split. The giant is re-selected by comparing the
//!   touched ids against the old giant; only a shrunken giant or a tie at
//!   the maximum pays for a scan (`Components::reselect_giant`).
//! * **Membership flips come out of the repair.** The engine logs every
//!   relabeled node with its pre-repair id, so
//!   [`DynamicConnectivity::membership_flips`] lists the nodes whose giant
//!   membership changed without a whole-graph diff: relabeled nodes, plus
//!   the members of both giants when the giant id switched.
//! * **An explicit cost cap bounds every search.** When a deletion's
//!   frontier exceeds the cap (default `128 + 8·⌈√n⌉` edge visits, see
//!   [`DynamicConnectivity::set_cost_cap`]), or relabel plus search work
//!   passes the whole-repair budget, the engine rolls the labels back and
//!   falls back to one full [`Components::rebuild_incremental`] rescan —
//!   correctness never depends on the cap.
//!
//! The resulting [`Components`] describes exactly the partition and giant
//! of a from-scratch build (under the id-independent `==`), so every
//! downstream consumer (coverage rules, fitness, traces) sees exactly the
//! reference results. The equivalence and proptest suites pin this.
//!
//! Edge endpoints are `u32` router ids throughout (the crate-wide id-width
//! invariant), matching the arena-backed adjacency lists; the overlay and
//! search queues store the same width so a repair's working set stays
//! compact.
//!
//! # Invariants (stable ids)
//!
//! Let `A` be the final adjacency and `D` the multiset of deleted edges of
//! one repair. The engine loads `D` into the overlay, processes all
//! insertions, then deletions in stream order against the graph
//! `G = A ∪ pending(D)`:
//!
//! 1. *During the insertion phase* each id class is a connected component
//!    of the pre-repair edges plus the insertions processed so far. That
//!    graph is a subgraph of `A ∪ D` (every pre-repair edge survived into
//!    `A` or is in `D`; every inserted edge survived into `A` or was
//!    deleted again into `D`), so a BFS over `A ∪ D` restricted to one id
//!    enumerates exactly that class. After the last insertion the
//!    partition equals the components of `A ∪ D`.
//! 2. *Each deletion* `(u, v)` removes one overlay copy and re-certifies
//!    `u ~ v` on the remaining `G`. Both endpoints are connected via the
//!    edge being deleted an instant earlier, so the bidirectional search
//!    either meets (partition unchanged) or exhausts one side `S`, which
//!    is then a complete component of `G` and moves to a fresh id. The
//!    partition therefore always equals the components of the *current*
//!    `G`, and per-id sizes and the live count follow every step.
//! 3. *After the last deletion* `G = A`, so the partition is exactly the
//!    final component structure. Only the giant remains to be re-picked,
//!    from the touched ids or, when the old giant shrank or a touched id
//!    ties the maximum, by a scan.
//!
//! Because splits happen strictly after all merges, a fresh id never has
//! to be merged again within the same repair.
//!
//! # Fallback rule
//!
//! A deletion whose bidirectional frontier scans more than the cap's edge
//! visits, or a repair whose relabel and search work passes about two
//! rescans' worth, aborts the batch. The overlay is torn down, the logged
//! relabels are undone, and [`Components::rebuild_incremental`] repairs
//! everything in one whole-graph rescan (which also diffs the giant
//! membership, O(*n*) like the rescan itself). The cap guarantees every
//! repair costs at most O(deletions · cap + relabel work) before the engine
//! resorts to the O(n + m) rescan, keeping the common case (local churn in
//! a large graph) sub-linear while pathological cuts (halving a giant
//! component) stay correct.

use crate::adjacency::MeshAdjacency;
use crate::components::Components;
use crate::dsu::UnionFind;

/// Cumulative counters of a [`DynamicConnectivity`] engine, for benches,
/// tests, and telemetry that need to prove which path ran. The struct
/// lives in `wmn-obs` (the observability substrate) so every layer can
/// aggregate it; see [`wmn_obs::ConnectivityStats`] for the field docs
/// and the `reset`/`merge`/`delta_since` window operations.
pub use wmn_obs::ConnectivityStats;

/// How one [`DynamicConnectivity::apply_edge_diff`] call repaired the
/// component structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The diff was applied component-locally and left the partition
    /// untouched (no merge joined components, no deletion split one): the
    /// ids, sizes, and giant are the pre-repair ones.
    Unchanged,
    /// The diff was applied component-locally and the partition changed.
    Changed,
    /// The cost cap forced the whole-graph rescan fallback.
    FellBack,
}

/// Where a deletion's bidirectional search ended.
enum SearchOutcome {
    /// The frontiers met: the endpoints are still connected.
    Connected,
    /// One side exhausted: its queue holds a complete component.
    Split(Side),
    /// The cost cap was exceeded before a decision.
    CapExceeded,
}

#[derive(Clone, Copy, PartialEq)]
enum Side {
    A,
    B,
}

/// The nodes one repair relabeled, each once, with its pre-repair id:
/// enough to list membership flips and to roll the labels back.
#[derive(Debug, Clone, Default)]
struct RelabelLog {
    entries: Vec<(u32, u32)>,
    /// `stamp[x] == epoch` iff node `x` is in `entries`.
    stamp: Vec<u32>,
    epoch: u32,
}

impl RelabelLog {
    fn begin(&mut self, n: usize) {
        self.entries.clear();
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    fn contains(&self, x: u32) -> bool {
        self.stamp[x as usize] == self.epoch
    }

    /// Moves node `x` to id `to`, logging its id on first touch.
    #[inline]
    fn relabel(&mut self, labels: &mut [u32], x: u32, to: u32) {
        if self.stamp[x as usize] != self.epoch {
            self.stamp[x as usize] = self.epoch;
            self.entries.push((x, labels[x as usize]));
        }
        labels[x as usize] = to;
    }

    /// Restores every logged node's pre-repair id.
    fn roll_back(&self, labels: &mut [u32]) {
        for &(x, orig) in &self.entries {
            labels[x as usize] = orig;
        }
    }
}

/// Component-local connectivity repair engine (see the module docs for the
/// algorithm and its invariants).
///
/// The engine is pure scratch: component state lives in the
/// [`Components`] it repairs, so engines need no synchronization with the
/// graph between repairs, cost nothing to clone away, and can be dropped
/// freely. All buffers reach steady-state capacity after a few repairs.
///
/// # Examples
///
/// ```
/// use wmn_graph::adjacency::{LinkModel, MeshAdjacency};
/// use wmn_graph::components::Components;
/// use wmn_graph::connectivity::DynamicConnectivity;
/// use wmn_graph::dsu::UnionFind;
/// use wmn_model::geometry::{Area, Point};
///
/// let area = Area::square(50.0)?;
/// let radii = vec![3.0; 3];
/// let chain = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0), Point::new(10.0, 0.0)];
/// let before = MeshAdjacency::build(&area, &chain, &radii, LinkModel::CoverageOverlap);
/// let mut components = Components::from_adjacency(&before);
/// assert_eq!(components.giant_size(), 3);
///
/// // Move the middle router away: both its edges disappear.
/// let moved = vec![chain[0], Point::new(40.0, 40.0), chain[2]];
/// let after = MeshAdjacency::build(&area, &moved, &radii, LinkModel::CoverageOverlap);
/// let mut engine = DynamicConnectivity::new();
/// let (mut uf, mut scratch) = (UnionFind::default(), Vec::new());
/// engine.apply_edge_diff(&after, &mut components, &[], &[(0, 1), (1, 2)], &mut uf, &mut scratch);
/// assert_eq!(components, Components::from_adjacency(&after));
/// assert_eq!(components.giant_size(), 1);
/// // Node 0 stays the giant (the lowest node breaks the three-way tie);
/// // nodes 1 and 2 left it.
/// let mut flips = engine.membership_flips().to_vec();
/// flips.sort_unstable();
/// assert_eq!(flips, [1, 2]);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DynamicConnectivity {
    /// Pending-deletion overlay adjacency, populated per repair and torn
    /// down before returning (`overlay_rows` tracks the dirtied rows).
    extra: Vec<Vec<u32>>,
    overlay_rows: Vec<u32>,
    /// Visit stamps (`epoch`-based, never refilled in the hot path) for
    /// the bidirectional search and the giant-member walks, and the two
    /// frontier queues; after an exhausted search a queue holds the split
    /// side's complete node set.
    mark: Vec<u32>,
    epoch: u32,
    queue_a: Vec<u32>,
    queue_b: Vec<u32>,
    /// The current repair's relabeled nodes and their pre-repair ids.
    log: RelabelLog,
    /// Ids whose membership the current repair changed, each with a node
    /// inside it when recorded; the last entry per id is current.
    touched_ids: Vec<(u32, u32)>,
    /// Nodes whose giant membership the last repair or rescan flipped.
    flips: Vec<u32>,
    /// Pre-rescan giant membership, for the rescan's flip diff.
    was_giant: Vec<bool>,
    /// `Some(cap)` overrides the default edge-visit budget per deletion.
    cost_cap: Option<usize>,
    stats: ConnectivityStats,
}

impl DynamicConnectivity {
    /// Creates an engine with the default cost cap.
    pub fn new() -> Self {
        DynamicConnectivity::default()
    }

    /// Overrides the per-deletion edge-visit budget; `None` restores the
    /// default `128 + 8·⌈√n⌉`. A cap of `Some(0)` forces every deletion
    /// that requires a search onto the whole-graph rescan fallback
    /// (useful to pin the fallback path in tests; degree-zero singleton
    /// deletions are decided without any search and never fall back).
    pub fn set_cost_cap(&mut self, cap: Option<usize>) {
        self.cost_cap = cap;
    }

    /// The cap override currently in effect (`None` = default formula).
    pub fn cost_cap_override(&self) -> Option<usize> {
        self.cost_cap
    }

    /// The per-deletion edge-visit budget in effect for an `n`-node graph.
    pub fn cost_cap(&self, n: usize) -> usize {
        self.cost_cap
            .unwrap_or_else(|| 128 + 8 * ((n as f64).sqrt().ceil() as usize))
    }

    /// Cumulative engine counters since construction (or the last
    /// [`reset_stats`](DynamicConnectivity::reset_stats)).
    pub fn stats(&self) -> ConnectivityStats {
        self.stats
    }

    /// Zeroes the engine counters, starting a fresh measurement window
    /// (repair state and buffers are untouched).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// The nodes whose giant-component membership the last
    /// [`apply_edge_diff`](DynamicConnectivity::apply_edge_diff) or
    /// [`rescan_with_flips`](DynamicConnectivity::rescan_with_flips)
    /// changed, each once, in no particular order. Valid until the next
    /// call.
    pub fn membership_flips(&self) -> &[u32] {
        &self.flips
    }

    /// Whole-graph union–find rescan of `components` for `adj`
    /// ([`Components::rebuild_incremental`]), counted in the
    /// `rescan_nodes` / `rescan_edges` stats. Leaves
    /// [`membership_flips`](DynamicConnectivity::membership_flips) alone.
    pub fn rescan(
        &mut self,
        adj: &MeshAdjacency,
        components: &mut Components,
        uf: &mut UnionFind,
        label_scratch: &mut Vec<u32>,
    ) {
        self.stats.rescan_nodes += adj.node_count() as u64;
        self.stats.rescan_edges += adj.edge_count() as u64;
        components.rebuild_incremental(adj, uf, label_scratch);
    }

    /// [`rescan`](DynamicConnectivity::rescan) that also records the
    /// giant-membership flips against the pre-rescan `components` — an
    /// O(*n*) diff, the same order as the rescan itself.
    pub fn rescan_with_flips(
        &mut self,
        adj: &MeshAdjacency,
        components: &mut Components,
        uf: &mut UnionFind,
        label_scratch: &mut Vec<u32>,
    ) {
        let n = components.node_count();
        self.was_giant.clear();
        self.was_giant
            .extend((0..n).map(|x| components.in_giant(x)));
        self.rescan(adj, components, uf, label_scratch);
        self.flips.clear();
        for (x, &was) in self.was_giant.iter().enumerate() {
            if was != components.in_giant(x) {
                self.flips.push(x as u32);
            }
        }
    }

    /// Repairs `components` (which must describe the graph *before* the
    /// diff) to match `adj` (the graph *after* the diff), given the edge
    /// `inserted`/`deleted` lists (u32 endpoints), in any order and with
    /// duplicates allowed, as long as "pre-graph edges plus insertions"
    /// equals "post-graph edges plus deletions" as sets — exactly what
    /// per-node old-vs-new neighbor diffs produce. `fallback_uf` and
    /// `label_scratch` are the caller-owned buffers the whole-graph rescan
    /// fallback reuses.
    ///
    /// Returns how the repair went (see [`RepairOutcome`]); the resulting
    /// partition and giant are the same in every case, and
    /// [`membership_flips`](DynamicConnectivity::membership_flips) lists
    /// the nodes whose giant membership changed.
    ///
    /// # Panics
    ///
    /// Panics if `components.node_count() != adj.node_count()` or an edge
    /// endpoint is out of range.
    pub fn apply_edge_diff(
        &mut self,
        adj: &MeshAdjacency,
        components: &mut Components,
        inserted: &[(u32, u32)],
        deleted: &[(u32, u32)],
        fallback_uf: &mut UnionFind,
        label_scratch: &mut Vec<u32>,
    ) -> RepairOutcome {
        assert_eq!(
            components.node_count(),
            adj.node_count(),
            "components and adjacency must describe the same node set"
        );
        self.stats.repairs += 1;
        self.flips.clear();
        if inserted.is_empty() && deleted.is_empty() {
            return RepairOutcome::Unchanged;
        }
        let n = adj.node_count();
        self.ensure_capacity(n);
        self.log.begin(n);
        self.touched_ids.clear();
        let old_giant = components.giant_id();
        let old_giant_size = components.giant_size() as u32;
        let old_anchor = components.giant_anchor();

        // The overlay holds every deleted edge before the insertion phase:
        // merge walks need `A ∪ D` (invariant 1).
        for &(u, v) in deleted {
            self.extra[u as usize].push(v);
            self.extra[v as usize].push(u);
            self.overlay_rows.push(u);
            self.overlay_rows.push(v);
        }
        // Per-deletion cap plus a whole-repair budget of roughly two
        // rescans' worth of edge work, charged for relabels and searches:
        // once they have cost about as much as the fallback would, stop
        // sinking work into them (only large batched diffs — GA crossover
        // children at scale — ever get near this; single-move churn stays
        // far below it).
        let cap = self.cost_cap(n);
        let budget = (2 * (n + 2 * adj.edge_count())).max(cap);
        let mut spent = 0usize;
        let mut capped = false;

        // Phase 1 — insertions merge eagerly, relabeling the non-giant (or
        // smaller) side so the giant's own members never move.
        self.stats.insertions += inserted.len() as u64;
        let mut merges = 0;
        for &(u, v) in inserted {
            let (a, b) = {
                let labels = components.labels();
                (labels[u as usize], labels[v as usize])
            };
            if a == b {
                continue;
            }
            merges += 1;
            let sizes = components.sizes();
            let (keep, drop, start) =
                if a == old_giant || (b != old_giant && sizes[a as usize] >= sizes[b as usize]) {
                    (a, b, v)
                } else {
                    (b, a, u)
                };
            spent += self.relabel_component(adj, components, start, drop, keep);
            components.merge_ids(keep, drop);
            self.touched_ids.push((keep, start));
            if spent > budget {
                capped = true;
                break;
            }
        }
        self.stats.merges += merges;

        // Phase 2 — deletions, against the final adjacency plus the
        // overlay of still-pending deleted edges (one-at-a-time semantics).
        let mut splits = 0;
        let deletions = if capped { &[][..] } else { deleted };
        for &(u, v) in deletions {
            self.stats.deletions += 1;
            remove_one(&mut self.extra[u as usize], v);
            remove_one(&mut self.extra[v as usize], u);
            // Singleton fast path: an endpoint with no remaining edges (in
            // the adjacency or the overlay) just lost its last link, so it
            // is a complete component by itself — and the rest of its old
            // component stays connected, because a degree-one node lies on
            // no other path. Both-isolated means the component was exactly
            // the edge's two endpoints; splitting one side off is enough.
            let u_isolated =
                adj.neighbors(u as usize).is_empty() && self.extra[u as usize].is_empty();
            if u_isolated
                || (adj.neighbors(v as usize).is_empty() && self.extra[v as usize].is_empty())
            {
                let (lone, rest) = if u_isolated { (u, v) } else { (v, u) };
                splits += 1;
                self.queue_a.clear();
                self.queue_a.push(lone);
                spent += self.split(components, Side::A, rest);
                continue;
            }
            // Triangle fast path: a neighbor shared by both endpoints in
            // the *final* adjacency proves they stay connected — the
            // overlay only ever adds edges on top of `adj`, so any
            // final-adjacency path already exists in the one-at-a-time
            // graph the search would explore. Geometric meshes are
            // triangle-rich, so this settles most still-connected
            // deletions with a handful of comparisons (mean degree is
            // tiny) instead of a full search setup.
            if shares_element(adj.neighbors(u as usize), adj.neighbors(v as usize)) {
                self.stats.triangle_shortcuts += 1;
                continue;
            }
            if spent > budget {
                capped = true;
                break;
            }
            match self.bidirectional_search(adj, u, v, cap.min(budget - spent + 1), &mut spent) {
                SearchOutcome::Connected => {}
                SearchOutcome::Split(side) => {
                    splits += 1;
                    let rest = if side == Side::A { v } else { u };
                    spent += self.split(components, side, rest);
                }
                SearchOutcome::CapExceeded => {
                    capped = true;
                    break;
                }
            }
        }
        self.stats.splits += splits;
        for &t in &self.overlay_rows {
            self.extra[t as usize].clear();
        }
        self.overlay_rows.clear();

        if capped {
            self.stats.fallbacks += 1;
            // Undo the relabels so the rescan diffs membership against
            // the pre-repair giant (its per-id state is rebuilt anyway).
            self.log.roll_back(components.labels_mut());
            self.rescan_with_flips(adj, components, fallback_uf, label_scratch);
            return RepairOutcome::FellBack;
        }
        if merges == 0 && splits == 0 {
            // No component joined and none split: the pre-repair ids,
            // sizes, and giant still describe the partition.
            return RepairOutcome::Unchanged;
        }
        if components.reselect_giant(old_giant_size, &self.touched_ids) {
            self.stats.giant_rescans += 1;
        }
        self.collect_flips(adj, components, old_giant, old_anchor);
        RepairOutcome::Changed
    }

    /// Moves the component holding `start` (id `from`) to id `to`: a BFS
    /// restricted to `from` over the final adjacency plus the overlay,
    /// where relabeling doubles as the visited mark. Returns the work done
    /// (nodes relabeled plus edges visited) for the repair budget.
    fn relabel_component(
        &mut self,
        adj: &MeshAdjacency,
        components: &mut Components,
        start: u32,
        from: u32,
        to: u32,
    ) -> usize {
        let labels = components.labels_mut();
        let queue = &mut self.queue_a;
        queue.clear();
        self.log.relabel(labels, start, to);
        queue.push(start);
        let mut head = 0;
        let mut visits = 0;
        while let Some(&x) = queue.get(head) {
            head += 1;
            for &w in adj
                .neighbors(x as usize)
                .iter()
                .chain(self.extra[x as usize].iter())
            {
                visits += 1;
                if labels[w as usize] == from {
                    self.log.relabel(labels, w, to);
                    queue.push(w);
                }
            }
        }
        self.stats.relabeled_nodes += queue.len() as u64;
        visits + queue.len()
    }

    /// Moves a complete component of the current graph — the nodes in
    /// `side`'s queue — to a fresh id, leaving `rest` (a node still
    /// connected to the old id) behind. Returns the nodes relabeled.
    fn split(&mut self, components: &mut Components, side: Side, rest: u32) -> usize {
        let nodes = match side {
            Side::A => &self.queue_a,
            Side::B => &self.queue_b,
        };
        let from = components.labels()[rest as usize];
        let fresh = components.split_off(from, nodes.len() as u32);
        let labels = components.labels_mut();
        for &x in nodes {
            self.log.relabel(labels, x, fresh);
        }
        self.touched_ids.push((from, rest));
        self.touched_ids.push((fresh, nodes[0]));
        self.stats.relabeled_nodes += nodes.len() as u64;
        nodes.len()
    }

    /// Fills `flips` after a component-local repair: a logged node flipped
    /// when "had the old giant's id" and "has the new giant's id" differ.
    /// An unlogged node kept its id, so it flipped only when the giant id
    /// switched and that id is its own: the unlogged members of both
    /// giants, walked from their anchors over the final adjacency. The old
    /// giant never loses its id (merges keep it, splits leave it on the
    /// rest), and `old_anchor` is its pre-repair anchor.
    fn collect_flips(
        &mut self,
        adj: &MeshAdjacency,
        components: &Components,
        old_giant: u32,
        old_anchor: u32,
    ) {
        let labels = components.labels();
        let new_giant = components.giant_id();
        for &(x, orig) in &self.log.entries {
            if (orig == old_giant) != (labels[x as usize] == new_giant) {
                self.flips.push(x);
            }
        }
        if new_giant == old_giant {
            return;
        }
        self.collect_unlogged_members(adj, labels, components.giant_anchor(), new_giant);
        // The last touched entry of the old giant names a current member;
        // untouched, it kept its pre-repair members and anchor.
        let old_anchor = self
            .touched_ids
            .iter()
            .rev()
            .find(|&&(id, _)| id == old_giant)
            .map_or(old_anchor, |&(_, a)| a);
        self.collect_unlogged_members(adj, labels, old_anchor, old_giant);
    }

    /// Pushes onto `flips` every unlogged node of component `id`, found by
    /// a BFS from `anchor` (a node of `id`) over the final adjacency.
    fn collect_unlogged_members(
        &mut self,
        adj: &MeshAdjacency,
        labels: &[u32],
        anchor: u32,
        id: u32,
    ) {
        let stamp = self.next_stamps(1);
        let queue = &mut self.queue_a;
        queue.clear();
        self.mark[anchor as usize] = stamp;
        queue.push(anchor);
        let mut head = 0;
        while let Some(&x) = queue.get(head) {
            head += 1;
            if !self.log.contains(x) {
                self.flips.push(x);
            }
            for &w in adj.neighbors(x as usize) {
                if self.mark[w as usize] != stamp && labels[w as usize] == id {
                    self.mark[w as usize] = stamp;
                    queue.push(w);
                }
            }
        }
    }

    /// Reserves `k` fresh visit stamps and returns the first; `mark` is
    /// only ever compared against current stamps, so stale values never
    /// alias.
    fn next_stamps(&mut self, k: u32) -> u32 {
        if self.epoch >= u32::MAX - k {
            self.mark.fill(0);
            self.epoch = 0;
        }
        let first = self.epoch + 1;
        self.epoch += k;
        first
    }

    /// Bidirectional search from the endpoints of a just-deleted edge over
    /// the final adjacency plus the pending-deletion overlay, alternating
    /// one node expansion per side. Stops at the first cross-side contact
    /// (still connected), at the first exhausted side (split: that queue
    /// then holds the side's complete node set), or when more than `cap`
    /// edges have been visited.
    fn bidirectional_search(
        &mut self,
        adj: &MeshAdjacency,
        u: u32,
        v: u32,
        cap: usize,
        spent: &mut usize,
    ) -> SearchOutcome {
        let mark_a = self.next_stamps(2);
        let mark_b = mark_a + 1;

        self.queue_a.clear();
        self.queue_b.clear();
        self.mark[u as usize] = mark_a;
        self.queue_a.push(u);
        self.mark[v as usize] = mark_b;
        self.queue_b.push(v);
        let (mut head_a, mut head_b) = (0usize, 0usize);
        let mut visits = 0usize;

        let outcome = loop {
            match expand_one(
                adj,
                &self.extra,
                &mut self.mark,
                &mut self.queue_a,
                &mut head_a,
                (mark_a, mark_b),
                &mut visits,
                cap,
            ) {
                StepOutcome::Advanced => {}
                StepOutcome::Exhausted => break SearchOutcome::Split(Side::A),
                StepOutcome::Met => break SearchOutcome::Connected,
                StepOutcome::Capped => break SearchOutcome::CapExceeded,
            }
            match expand_one(
                adj,
                &self.extra,
                &mut self.mark,
                &mut self.queue_b,
                &mut head_b,
                (mark_b, mark_a),
                &mut visits,
                cap,
            ) {
                StepOutcome::Advanced => {}
                StepOutcome::Exhausted => break SearchOutcome::Split(Side::B),
                StepOutcome::Met => break SearchOutcome::Connected,
                StepOutcome::Capped => break SearchOutcome::CapExceeded,
            }
        };
        self.stats.bfs_edge_visits += visits as u64;
        *spent += visits;
        outcome
    }

    fn ensure_capacity(&mut self, n: usize) {
        if self.extra.len() < n {
            self.extra.resize_with(n, Vec::new);
        }
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
    }
}

/// One node expansion of one side of the bidirectional search.
enum StepOutcome {
    /// A node was expanded without a decision.
    Advanced,
    /// The side's queue is fully explored: it is a complete component.
    Exhausted,
    /// A node of the other side was reached: still connected.
    Met,
    /// The edge-visit budget ran out.
    Capped,
}

/// Expands the next queued node of one search side over the final
/// adjacency plus the pending-deletion overlay. `(own, other)` are the
/// side's and the opposing side's visit stamps.
#[allow(clippy::too_many_arguments)]
fn expand_one(
    adj: &MeshAdjacency,
    extra: &[Vec<u32>],
    mark: &mut [u32],
    queue: &mut Vec<u32>,
    head: &mut usize,
    (own, other): (u32, u32),
    visits: &mut usize,
    cap: usize,
) -> StepOutcome {
    let Some(&x) = queue.get(*head) else {
        return StepOutcome::Exhausted;
    };
    *head += 1;
    for &w in adj
        .neighbors(x as usize)
        .iter()
        .chain(extra[x as usize].iter())
    {
        *visits += 1;
        if *visits > cap {
            return StepOutcome::Capped;
        }
        let m = mark[w as usize];
        if m == other {
            return StepOutcome::Met;
        }
        if m != own {
            mark[w as usize] = own;
            queue.push(w);
        }
    }
    StepOutcome::Advanced
}

/// Removes one occurrence of `value` from `list` (the overlay rows are a
/// multiset: a batch may delete, re-insert, and re-delete the same edge).
fn remove_one(list: &mut Vec<u32>, value: u32) {
    if let Some(pos) = list.iter().position(|&x| x == value) {
        list.swap_remove(pos);
    }
}

/// Whether two strictly-sorted slices share an element (two-pointer walk).
fn shares_element(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::LinkModel;
    use rand::Rng;
    use wmn_model::geometry::{Area, Point};
    use wmn_model::rng::rng_from_seed;

    fn layout(n: usize, seed: u64, side: f64) -> (Vec<Point>, Vec<f64>) {
        let mut rng = rng_from_seed(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..=side), rng.gen_range(0.0..=side)))
            .collect();
        let radii = (0..n).map(|_| rng.gen_range(2.0..=8.0)).collect();
        (pts, radii)
    }

    type EdgeList = Vec<(u32, u32)>;

    /// The sorted-neighbor-list symmetric difference between two graphs,
    /// as (inserted, deleted) unordered edge lists.
    fn edge_diff(before: &MeshAdjacency, after: &MeshAdjacency) -> (EdgeList, EdgeList) {
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        for i in 0..before.node_count() {
            for &j in before.neighbors(i) {
                if j as usize > i && after.neighbors(i).binary_search(&j).is_err() {
                    del.push((i as u32, j));
                }
            }
            for &j in after.neighbors(i) {
                if j as usize > i && before.neighbors(i).binary_search(&j).is_err() {
                    ins.push((i as u32, j));
                }
            }
        }
        (ins, del)
    }

    /// Drifts a random layout through 30 perturbation rounds, repairing
    /// the component structure through the engine each time and comparing
    /// against a from-scratch build. Returns the engine's counters.
    fn drift_and_check(
        model: LinkModel,
        n: usize,
        seed: u64,
        cap: Option<usize>,
    ) -> ConnectivityStats {
        let area = Area::square(100.0).unwrap();
        let (mut pts, radii) = layout(n, seed, 100.0);
        let mut adj = MeshAdjacency::build(&area, &pts, &radii, model);
        let mut components = Components::from_adjacency(&adj);
        let mut engine = DynamicConnectivity::new();
        engine.set_cost_cap(cap);
        let (mut uf, mut scratch) = (UnionFind::default(), Vec::new());
        let mut rng = rng_from_seed(seed ^ 0xC0FFEE);
        for round in 0..30 {
            // Move a few routers: a realistic mixed insert+delete diff.
            for _ in 0..1 + round % 3 {
                let i = rng.gen_range(0..n);
                pts[i] = Point::new(rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0));
            }
            let next = MeshAdjacency::build(&area, &pts, &radii, model);
            let (ins, del) = edge_diff(&adj, &next);
            let was: Vec<bool> = (0..n).map(|x| components.in_giant(x)).collect();
            engine.apply_edge_diff(&next, &mut components, &ins, &del, &mut uf, &mut scratch);
            components.assert_invariants();
            assert_eq!(
                components,
                Components::from_adjacency(&next),
                "drift at round {round} under {model}"
            );
            // The reported flips are exactly the membership diff.
            let mut flips = engine.membership_flips().to_vec();
            flips.sort_unstable();
            let expected: Vec<u32> = (0..n as u32)
                .filter(|&x| was[x as usize] != components.in_giant(x as usize))
                .collect();
            assert_eq!(flips, expected, "flips at round {round} under {model}");
            adj = next;
        }
        engine.stats()
    }

    #[test]
    fn random_drift_matches_oracle_all_models() {
        for model in [
            LinkModel::CoverageOverlap,
            LinkModel::MutualRange,
            LinkModel::FixedRange(11.0),
        ] {
            for seed in 0..4 {
                drift_and_check(model, 60, seed, None);
            }
        }
    }

    #[test]
    fn zero_cap_forces_fallback_and_stays_correct() {
        // Every deletion overflows a zero budget, so each deleting repair
        // must take the rescan fallback — and still land exact results.
        let stats = drift_and_check(LinkModel::CoverageOverlap, 40, 7, Some(0));
        assert!(stats.fallbacks > 0, "a zero cap must exercise the fallback");
    }

    #[test]
    fn tiny_cap_mixes_fast_path_and_fallback() {
        let stats = drift_and_check(LinkModel::MutualRange, 50, 11, Some(6));
        assert!(stats.deletions > 0);
    }

    #[test]
    fn empty_diff_is_noop() {
        let area = Area::square(60.0).unwrap();
        let (pts, radii) = layout(20, 3, 60.0);
        let adj = MeshAdjacency::build(&area, &pts, &radii, LinkModel::CoverageOverlap);
        let mut components = Components::from_adjacency(&adj);
        let reference = components.clone();
        let mut engine = DynamicConnectivity::new();
        let (mut uf, mut scratch) = (UnionFind::default(), Vec::new());
        assert_eq!(
            engine.apply_edge_diff(&adj, &mut components, &[], &[], &mut uf, &mut scratch),
            RepairOutcome::Unchanged
        );
        assert_eq!(components, reference);
        assert_eq!(engine.stats().repairs, 1);
        assert_eq!(engine.stats().insertions + engine.stats().deletions, 0);
    }

    #[test]
    fn delete_reinsert_multiset_diff_is_handled() {
        // The same edge appearing in both lists (deleted by one step of a
        // batch, re-created by a later one) must resolve to "still there".
        let area = Area::square(50.0).unwrap();
        let pts = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
        let radii = vec![3.0; 2];
        let adj = MeshAdjacency::build(&area, &pts, &radii, LinkModel::CoverageOverlap);
        assert_eq!(adj.edge_count(), 1);
        let mut components = Components::from_adjacency(&adj);
        let mut engine = DynamicConnectivity::new();
        let (mut uf, mut scratch) = (UnionFind::default(), Vec::new());
        engine.apply_edge_diff(
            &adj,
            &mut components,
            &[(0, 1)],
            &[(0, 1)],
            &mut uf,
            &mut scratch,
        );
        assert_eq!(components, Components::from_adjacency(&adj));
        assert_eq!(components.giant_size(), 2);
    }

    #[test]
    fn chain_cut_splits_once_per_deleted_edge() {
        // A 3-chain losing both edges must end as three singletons no
        // matter the deletion order (the simultaneous-deletion trap the
        // overlay exists to avoid).
        let area = Area::square(50.0).unwrap();
        let chain = vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        let radii = vec![3.0; 3];
        let before = MeshAdjacency::build(&area, &chain, &radii, LinkModel::CoverageOverlap);
        let gone = MeshAdjacency::build(
            &area,
            &[chain[0], Point::new(40.0, 40.0), chain[2]],
            &radii,
            LinkModel::CoverageOverlap,
        );
        for deletions in [[(0, 1), (1, 2)], [(1, 2), (0, 1)]] {
            let mut components = Components::from_adjacency(&before);
            let mut engine = DynamicConnectivity::new();
            let (mut uf, mut scratch) = (UnionFind::default(), Vec::new());
            assert_eq!(
                engine.apply_edge_diff(
                    &gone,
                    &mut components,
                    &[],
                    &deletions,
                    &mut uf,
                    &mut scratch
                ),
                RepairOutcome::Changed
            );
            assert_eq!(components, Components::from_adjacency(&gone));
            assert_eq!(components.count(), 3);
            assert_eq!(engine.stats().splits, 2);
        }
    }

    #[test]
    fn stats_accumulate_across_repairs() {
        assert_eq!(
            DynamicConnectivity::new().stats(),
            ConnectivityStats::default()
        );
        let stats = drift_and_check(LinkModel::CoverageOverlap, 60, 5, None);
        assert_eq!(stats.repairs, 30);
        assert!(stats.insertions > 0, "drift must insert edges");
        assert!(stats.deletions > 0, "drift must delete edges");
        assert!(stats.bfs_edge_visits > 0, "deletions must search");
        assert!(
            stats.merges + stats.splits > 0,
            "components must change across 30 rounds"
        );
    }

    #[test]
    fn default_cap_scales_with_sqrt_n() {
        let engine = DynamicConnectivity::new();
        assert_eq!(engine.cost_cap(64), 128 + 8 * 8);
        assert_eq!(engine.cost_cap(1024), 128 + 8 * 32);
        assert!(engine.cost_cap(1024) < 1024, "cap stays sub-linear");
        let mut capped = engine.clone();
        capped.set_cost_cap(Some(5));
        assert_eq!(capped.cost_cap(1024), 5);
    }
}
