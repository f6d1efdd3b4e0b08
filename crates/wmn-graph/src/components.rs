//! Connected components and the giant component.
//!
//! The paper's primary objective is the **size of the giant component** of
//! the router mesh. This module computes component structure from a
//! [`MeshAdjacency`], either by BFS or by union–find (both kept so the
//! `ablation_components` bench can compare them; they are verified equal in
//! tests).
//!
//! Labels and sizes are stored as flat `u32` arrays (the crate-wide id-width
//! invariant — see the [`arena`](crate::arena) module docs): component
//! labels fit u32 because node counts do, and the flat layout makes
//! `clone_from` a few bulk copies.
//!
//! # Component ids
//!
//! Labels are **opaque, stable component ids**. A fresh build
//! ([`Components::from_adjacency`], [`Components::from_adjacency_dsu`],
//! [`Components::rebuild_incremental`]) numbers the components `0..count`
//! in order of first appearance, but the
//! [`DynamicConnectivity`](crate::connectivity::DynamicConnectivity) engine
//! then repairs them in place: a merge relabels one side into the other's
//! id and frees the other, and a split moves one side to an id popped from
//! a free-id stack. So [`Components::sizes`] is indexed by id and holds a
//! zero for every free id, and two structures of the same graph may number
//! it differently. Equality (`==`) therefore means **same partition and
//! same giant component** (with the same recorded size per component and
//! the same live count); it canonicalizes both sides, so it allocates and
//! is meant for tests and audits.
//!
//! The giant is the largest component; a tie goes to the component holding
//! the lowest node index, which is the lowest label of a fresh build.

use crate::adjacency::MeshAdjacency;
use crate::dsu::UnionFind;

/// Sentinel for "no label assigned yet" / "no giant component".
const NONE: u32 = u32::MAX;

/// Component structure of a router mesh.
///
/// # Examples
///
/// ```
/// use wmn_graph::adjacency::{LinkModel, MeshAdjacency};
/// use wmn_graph::components::Components;
/// use wmn_model::geometry::{Area, Point};
///
/// let area = Area::square(50.0)?;
/// let positions = vec![
///     Point::new(0.0, 0.0),
///     Point::new(6.0, 0.0),   // linked to the first (3 + 3 >= 6)
///     Point::new(40.0, 40.0), // isolated
/// ];
/// let radii = vec![3.0, 3.0, 3.0];
/// let adj = MeshAdjacency::build(&area, &positions, &radii, LinkModel::CoverageOverlap);
/// let comps = Components::from_adjacency(&adj);
/// assert_eq!(comps.count(), 2);
/// assert_eq!(comps.giant_size(), 2);
/// assert!(comps.in_giant(0) && comps.in_giant(1) && !comps.in_giant(2));
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct Components {
    /// Component id per node (opaque; see the module docs).
    label: Vec<u32>,
    /// Size per component id; zero exactly for the ids on `free`.
    sizes: Vec<u32>,
    /// Free-id stack: the ids of `sizes` no component holds.
    free: Vec<u32>,
    /// Id of the giant component, or [`NONE`] for an empty graph.
    giant: u32,
    /// A node of the giant component (the lowest one after a fresh
    /// build), or [`NONE`] for an empty graph.
    giant_anchor: u32,
}

impl Clone for Components {
    fn clone(&self) -> Self {
        Components {
            label: self.label.clone(),
            sizes: self.sizes.clone(),
            free: self.free.clone(),
            giant: self.giant,
            giant_anchor: self.giant_anchor,
        }
    }

    /// Buffer-reusing copy (allocation-free once `self` has seen a graph at
    /// least this large) — three `copy_from_slice`-class bulk copies.
    fn clone_from(&mut self, src: &Self) {
        self.label.clone_from(&src.label);
        self.sizes.clone_from(&src.sizes);
        self.free.clone_from(&src.free);
        self.giant = src.giant;
        self.giant_anchor = src.giant_anchor;
    }
}

impl PartialEq for Components {
    /// Same partition and same giant component, whatever the ids (see the
    /// module docs). Allocates: tests and audits only.
    fn eq(&self, other: &Self) -> bool {
        self.label.len() == other.label.len() && self.canonical() == other.canonical()
    }
}

impl Eq for Components {}

impl Components {
    /// Computes components by breadth-first search.
    pub fn from_adjacency(adj: &MeshAdjacency) -> Components {
        let n = adj.node_count();
        let mut label = vec![NONE; n];
        let mut sizes: Vec<u32> = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n {
            if label[start] != NONE {
                continue;
            }
            let id = sizes.len();
            sizes.push(0);
            label[start] = id as u32;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                sizes[id] += 1;
                for &v in adj.neighbors(u) {
                    if label[v as usize] == NONE {
                        label[v as usize] = id as u32;
                        queue.push_back(v as usize);
                    }
                }
            }
        }
        Self::from_fresh_labels(label, sizes)
    }

    /// Computes components by union–find; result is identical to
    /// [`Components::from_adjacency`] (verified by tests).
    pub fn from_adjacency_dsu(adj: &MeshAdjacency) -> Components {
        let n = adj.node_count();
        let mut uf = UnionFind::new(n);
        for i in 0..n {
            for &j in adj.neighbors(i) {
                if j as usize > i {
                    uf.union(i, j as usize);
                }
            }
        }
        let label: Vec<u32> = uf.labeling().into_iter().map(|l| l as u32).collect();
        let mut sizes = vec![0u32; uf.set_count()];
        for &l in &label {
            sizes[l as usize] += 1;
        }
        Self::from_fresh_labels(label, sizes)
    }

    /// Wraps a fresh first-appearance labeling: every id live, no free ids.
    fn from_fresh_labels(label: Vec<u32>, sizes: Vec<u32>) -> Components {
        let mut c = Components {
            label,
            sizes,
            free: Vec::new(),
            giant: NONE,
            giant_anchor: NONE,
        };
        c.select_giant_by_scan();
        c
    }

    /// Recomputes this component structure from `adj` **in place**, using a
    /// caller-provided [`UnionFind`] and label scratch buffer so that no
    /// heap allocation happens once the buffers have grown to the graph
    /// size. This is the whole-graph rescan behind the dynamic engine's
    /// fallback and the `DsuRescan` connectivity mode.
    ///
    /// The labels come out in first-appearance order, the order BFS
    /// assigns, so the result equals [`Components::from_adjacency`] id for
    /// id (verified by tests).
    pub fn rebuild_incremental(
        &mut self,
        adj: &MeshAdjacency,
        uf: &mut UnionFind,
        label_of_root: &mut Vec<u32>,
    ) {
        let n = adj.node_count();
        uf.reset(n);
        for i in 0..n {
            for &j in adj.neighbors(i) {
                if j as usize > i {
                    uf.union(i, j as usize);
                }
            }
        }
        label_of_root.clear();
        label_of_root.resize(n, NONE);
        self.label.clear();
        self.sizes.clear();
        for x in 0..n {
            let r = uf.find(x);
            let l = if label_of_root[r] == NONE {
                let next = self.sizes.len() as u32;
                label_of_root[r] = next;
                self.sizes.push(0);
                next
            } else {
                label_of_root[r]
            };
            self.label.push(l);
            self.sizes[l as usize] += 1;
        }
        self.free.clear();
        self.select_giant_by_scan();
    }

    /// The per-node id vector (the dynamic connectivity engine reads
    /// component ids per node from here).
    pub(crate) fn labels(&self) -> &[u32] {
        &self.label
    }

    /// Mutable id access for the dynamic connectivity engine. The caller
    /// keeps the per-id state in step through [`Components::merge_ids`] and
    /// [`Components::split_off`], and re-selects the giant with
    /// [`Components::reselect_giant`] before the structure is observed.
    pub(crate) fn labels_mut(&mut self) -> &mut [u32] {
        &mut self.label
    }

    /// Per-id bookkeeping of a merge whose `drop` side has been relabeled
    /// to `keep`: `drop` joins the free-id stack.
    pub(crate) fn merge_ids(&mut self, keep: u32, drop: u32) {
        self.sizes[keep as usize] += self.sizes[drop as usize];
        self.sizes[drop as usize] = 0;
        self.free.push(drop);
    }

    /// Per-id bookkeeping of a split moving `size` nodes of component
    /// `from` to a new id (popped from the free-id stack, or appended when
    /// it is empty), which it returns. The caller relabels the nodes.
    pub(crate) fn split_off(&mut self, from: u32, size: u32) -> u32 {
        let fresh = match self.free.pop() {
            Some(id) => id,
            None => {
                self.sizes.push(0);
                (self.sizes.len() - 1) as u32
            }
        };
        self.sizes[from as usize] -= size;
        self.sizes[fresh as usize] = size;
        fresh
    }

    /// The giant component's id, or `u32::MAX` for an empty graph.
    pub(crate) fn giant_id(&self) -> u32 {
        self.giant
    }

    /// A node of the giant component (`u32::MAX` for an empty graph).
    pub(crate) fn giant_anchor(&self) -> u32 {
        self.giant_anchor
    }

    /// Re-selects the giant after a repair. `self.giant` must still name
    /// the pre-repair giant, whose size was `old_size`; `touched` lists
    /// every id whose membership the repair changed, each entry with a node
    /// that was inside it when recorded (the last entry per id is current).
    ///
    /// Untouched components kept their sizes, which were at most
    /// `old_size`, and lost the tie-break to the old giant if they matched
    /// it. So unless the old giant shrank, comparing the touched ids
    /// against it decides — except on a tie at the maximum, which needs the
    /// lowest-node rule. Those two cases fall back to a scan. Returns
    /// whether a scan ran.
    pub(crate) fn reselect_giant(&mut self, old_size: u32, touched: &[(u32, u32)]) -> bool {
        let g0 = self.giant;
        let g0_size = self.sizes[g0 as usize];
        if g0_size < old_size {
            self.select_giant_by_scan();
            return true;
        }
        let anchor_of = |id: u32| {
            touched
                .iter()
                .rev()
                .find(|&&(t, _)| t == id)
                .map(|&(_, a)| a)
        };
        let g0_anchor = anchor_of(g0);
        // The old giant kept its size but maybe not its lowest node: an
        // untouched component of that size may now win the tie-break.
        let mut tie = g0_size == old_size && g0_anchor.is_some();
        let (mut best, mut best_size) = (g0, g0_size);
        for &(id, _) in touched {
            let s = self.sizes[id as usize];
            if id == best || s == 0 {
                continue;
            }
            if s > best_size {
                (best, best_size, tie) = (id, s, false);
            } else if s == best_size {
                tie = true;
            }
        }
        if tie {
            self.select_giant_with_size(best_size);
            return true;
        }
        if best != g0 {
            self.giant = best;
            self.giant_anchor = anchor_of(best).expect("a touched id has an anchor");
        } else if let Some(anchor) = g0_anchor {
            self.giant_anchor = anchor;
        }
        false
    }

    /// Picks the giant by scanning: the largest size over all ids, then the
    /// first node whose component has it.
    fn select_giant_by_scan(&mut self) {
        match self.sizes.iter().copied().max() {
            Some(max) if max > 0 => self.select_giant_with_size(max),
            _ => {
                self.giant = NONE;
                self.giant_anchor = NONE;
            }
        }
    }

    /// Makes the component of the first node whose component has `size`
    /// nodes the giant (the lowest-node tie-break).
    fn select_giant_with_size(&mut self, size: u32) {
        let anchor = self
            .label
            .iter()
            .position(|&l| self.sizes[l as usize] == size)
            .expect("some component has the maximum size");
        self.giant = self.label[anchor];
        self.giant_anchor = anchor as u32;
    }

    /// The id-independent form equality compares: labels renumbered in
    /// first-appearance order, the recorded size of each component in
    /// that order, the giant's renumbered label, and the live count.
    fn canonical(&self) -> (Vec<u32>, Vec<u32>, Option<u32>, usize) {
        let mut renumber = vec![NONE; self.sizes.len()];
        let mut sizes = Vec::new();
        let labels = self
            .label
            .iter()
            .map(|&l| {
                let slot = &mut renumber[l as usize];
                if *slot == NONE {
                    *slot = sizes.len() as u32;
                    sizes.push(self.sizes[l as usize]);
                }
                *slot
            })
            .collect();
        let giant = renumber.get(self.giant as usize).copied();
        (labels, sizes, giant, self.count())
    }

    /// Debug helper: asserts the per-id state agrees with the labels —
    /// every size counts its id's nodes, the free-id stack holds exactly
    /// the empty ids (so the live count is right), and the giant and its anchor
    /// follow the largest-then-lowest-node rule.
    ///
    /// # Panics
    ///
    /// Panics when the per-id state has drifted from the labels.
    pub fn assert_invariants(&self) {
        let mut counted = vec![0u32; self.sizes.len()];
        for (x, &l) in self.label.iter().enumerate() {
            assert!(
                (l as usize) < self.sizes.len(),
                "node {x} has out-of-range id {l}"
            );
            counted[l as usize] += 1;
        }
        assert_eq!(counted, self.sizes, "sizes drifted from the labels");
        let mut free = self.free.clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(free.len(), self.free.len(), "free-id stack has duplicates");
        let empty: Vec<u32> = (0..self.sizes.len() as u32)
            .filter(|&id| self.sizes[id as usize] == 0)
            .collect();
        assert_eq!(free, empty, "free-id stack differs from the empty ids");
        let max = self.sizes.iter().copied().max().unwrap_or(0);
        match self
            .label
            .iter()
            .position(|&l| self.sizes[l as usize] == max)
        {
            None => assert_eq!(
                (self.giant, self.giant_anchor),
                (NONE, NONE),
                "empty graph has a giant"
            ),
            Some(first) => {
                assert_eq!(
                    self.giant, self.label[first],
                    "giant is not the largest component holding the lowest node"
                );
                let anchor = self.giant_anchor as usize;
                assert!(
                    anchor < self.label.len() && self.label[anchor] == self.giant,
                    "giant anchor {anchor} lies outside the giant"
                );
            }
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.label.len()
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        self.sizes.len() - self.free.len()
    }

    /// Component id of node `i` (opaque: see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn label_of(&self, i: usize) -> usize {
        self.label[i] as usize
    }

    /// Size of the component containing node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn size_of(&self, i: usize) -> usize {
        self.sizes[self.label[i] as usize] as usize
    }

    /// Component sizes, indexed by id; free ids hold zero.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Size of the giant (largest) component; 0 for an empty graph.
    ///
    /// This is the paper's connectivity objective.
    pub fn giant_size(&self) -> usize {
        if self.giant == NONE {
            0
        } else {
            self.sizes[self.giant as usize] as usize
        }
    }

    /// Id of the giant component, or `None` for an empty graph. Ties
    /// break toward the component holding the lowest node index
    /// (deterministic).
    pub fn giant_label_opt(&self) -> Option<usize> {
        (self.giant != NONE).then_some(self.giant as usize)
    }

    /// Returns `true` if node `i` belongs to the giant component.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn in_giant(&self, i: usize) -> bool {
        self.giant != NONE && self.label[i] == self.giant
    }

    /// Indices of the nodes in the giant component, ascending.
    pub fn giant_members(&self) -> Vec<usize> {
        if self.giant == NONE {
            return Vec::new();
        }
        (0..self.label.len())
            .filter(|&i| self.label[i] == self.giant)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::LinkModel;
    use rand::Rng;
    use wmn_model::geometry::{Area, Point};
    use wmn_model::rng::rng_from_seed;

    fn chain(n: usize, spacing: f64, radius: f64) -> MeshAdjacency {
        let area = Area::square((n as f64 + 1.0) * spacing).unwrap();
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new(i as f64 * spacing + 1.0, 1.0))
            .collect();
        let radii = vec![radius; n];
        MeshAdjacency::build(&area, &pts, &radii, LinkModel::CoverageOverlap)
    }

    #[test]
    fn connected_chain_is_one_component() {
        let adj = chain(10, 5.0, 3.0); // 3 + 3 = 6 >= 5 spacing
        let c = Components::from_adjacency(&adj);
        assert_eq!(c.count(), 1);
        assert_eq!(c.giant_size(), 10);
        assert_eq!(c.giant_members(), (0..10).collect::<Vec<_>>());
        assert!((0..10).all(|i| c.in_giant(i)));
    }

    #[test]
    fn broken_chain_has_singletons() {
        let adj = chain(10, 5.0, 2.0); // 2 + 2 = 4 < 5 spacing
        let c = Components::from_adjacency(&adj);
        assert_eq!(c.count(), 10);
        assert_eq!(c.giant_size(), 1);
    }

    #[test]
    fn bfs_and_dsu_agree_on_random_graphs() {
        let area = Area::square(100.0).unwrap();
        let mut rng = rng_from_seed(21);
        for trial in 0..20 {
            let n = 100 + trial * 10;
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)))
                .collect();
            let radii: Vec<f64> = (0..n).map(|_| rng.gen_range(2.0..8.0)).collect();
            let adj = MeshAdjacency::build(&area, &pts, &radii, LinkModel::CoverageOverlap);
            let bfs = Components::from_adjacency(&adj);
            let dsu = Components::from_adjacency_dsu(&adj);
            assert_eq!(bfs, dsu, "trial {trial}");
        }
    }

    #[test]
    fn incremental_rebuild_matches_bfs_on_random_graphs() {
        let area = Area::square(100.0).unwrap();
        let mut rng = rng_from_seed(33);
        let mut reused = Components::from_adjacency(&MeshAdjacency::default());
        let mut uf = UnionFind::new(0);
        let mut scratch = Vec::new();
        for trial in 0..20 {
            let n = 50 + trial * 17;
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)))
                .collect();
            let radii: Vec<f64> = (0..n).map(|_| rng.gen_range(2.0..8.0)).collect();
            let adj = MeshAdjacency::build(&area, &pts, &radii, LinkModel::MutualRange);
            reused.rebuild_incremental(&adj, &mut uf, &mut scratch);
            let bfs = Components::from_adjacency(&adj);
            assert_eq!(reused, bfs, "trial {trial}");
        }
    }

    #[test]
    fn giant_tie_breaks_to_lowest_label() {
        // Two components of size 2: nodes {0,1} near origin, {2,3} far away.
        let area = Area::square(100.0).unwrap();
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(90.0, 90.0),
            Point::new(91.0, 90.0),
        ];
        let radii = vec![2.0; 4];
        let adj = MeshAdjacency::build(&area, &pts, &radii, LinkModel::CoverageOverlap);
        let c = Components::from_adjacency(&adj);
        assert_eq!(c.count(), 2);
        assert_eq!(c.giant_size(), 2);
        assert_eq!(c.giant_label_opt(), Some(0));
        assert!(c.in_giant(0) && c.in_giant(1));
        assert!(!c.in_giant(2) && !c.in_giant(3));
    }

    #[test]
    fn equality_means_same_partition_and_giant_not_same_ids() {
        // Two pairs far apart, {0,1} and {2,3}: a tie at the maximum that
        // the lowest node breaks toward {0,1}.
        let area = Area::square(100.0).unwrap();
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(90.0, 90.0),
            Point::new(91.0, 90.0),
        ];
        let adj = MeshAdjacency::build(&area, &pts, &[2.0; 4], LinkModel::CoverageOverlap);
        let fresh = Components::from_adjacency(&adj);
        fresh.assert_invariants();

        // Same partition and giant under swapped ids: equal.
        let mut renumbered = fresh.clone();
        for l in renumbered.labels_mut() {
            *l = 1 - *l;
        }
        renumbered.sizes.swap(0, 1);
        renumbered.giant = 1;
        renumbered.assert_invariants();
        assert_ne!(renumbered.labels(), fresh.labels(), "ids must differ");
        assert_eq!(renumbered, fresh);

        // Same partition, the other pair as giant: unequal.
        let mut other_giant = fresh.clone();
        other_giant.giant = 1;
        other_giant.giant_anchor = 2;
        assert_ne!(other_giant, fresh);

        // Different partition with the same sizes ({0,2} and {1,3}):
        // unequal.
        let mut crossed = fresh.clone();
        crossed.labels_mut().copy_from_slice(&[0, 1, 0, 1]);
        crossed.assert_invariants();
        assert_ne!(crossed, fresh);

        // Same partition, a drifted recorded size: unequal.
        let mut drifted = fresh.clone();
        drifted.sizes[1] = 3;
        assert_ne!(drifted, fresh);
    }

    #[test]
    fn repairs_keep_stable_ids_and_the_lowest_node_tie_break() {
        use crate::connectivity::DynamicConnectivity;
        // A chain 0-1-2-3; cutting (1,2) leaves the tie {0,1} vs {2,3}.
        let adj = chain(4, 5.0, 3.0);
        let mut c = Components::from_adjacency(&adj);
        let cut = {
            let area = Area::square(25.0).unwrap();
            let pts: Vec<Point> = [1.0, 6.0, 13.0, 18.0]
                .iter()
                .map(|&x| Point::new(x, 1.0))
                .collect();
            MeshAdjacency::build(&area, &pts, &[3.0; 4], LinkModel::CoverageOverlap)
        };
        assert_eq!(cut.edge_count(), 2);
        let mut engine = DynamicConnectivity::new();
        let (mut uf, mut scratch) = (UnionFind::default(), Vec::new());
        engine.apply_edge_diff(&cut, &mut c, &[], &[(1, 2)], &mut uf, &mut scratch);
        c.assert_invariants();
        let fresh = Components::from_adjacency(&cut);
        assert_eq!(c, fresh);
        assert_eq!(c.giant_members(), [0, 1]);
        // The search exhausted the {0,1} side first and moved it to a new
        // id, so the ids are not the canonical ones.
        assert_ne!(c.labels(), fresh.labels());
        // Only the {2,3} side left the giant.
        let mut flips = engine.membership_flips().to_vec();
        flips.sort_unstable();
        assert_eq!(flips, [2, 3]);
        // Re-inserting the edge merges the two ids back into one.
        engine.apply_edge_diff(&adj, &mut c, &[(1, 2)], &[], &mut uf, &mut scratch);
        c.assert_invariants();
        assert_eq!(c, Components::from_adjacency(&adj));
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn empty_graph_components() {
        let adj = MeshAdjacency::default();
        let c = Components::from_adjacency(&adj);
        assert_eq!(c.count(), 0);
        assert_eq!(c.giant_size(), 0);
        assert_eq!(c.giant_label_opt(), None);
        assert!(c.giant_members().is_empty());
    }

    #[test]
    fn sizes_sum_to_node_count() {
        let adj = chain(17, 5.0, 2.4); // some links hold (4.8 < 5.0 — none hold)
        let c = Components::from_adjacency(&adj);
        assert_eq!(c.sizes().iter().map(|&s| s as usize).sum::<usize>(), 17);
        assert_eq!(c.node_count(), 17);
    }

    #[test]
    fn size_of_matches_label_sizes() {
        let adj = chain(6, 5.0, 3.0);
        let c = Components::from_adjacency(&adj);
        for i in 0..6 {
            assert_eq!(c.size_of(i), c.sizes()[c.label_of(i)] as usize);
        }
    }
}
