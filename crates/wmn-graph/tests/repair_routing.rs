//! Deterministic check of the repair-route rule
//! (`wmn_graph::topology::prefers_rescan`) on the proportional ×4 and ×64
//! scale-ups of the paper's Normal instance.
//!
//! Single moves and swaps must repair connectivity component-locally at
//! any scale: a whole-graph rescan per move would make neighborhood search
//! linear in the router count. A GA-child-shaped batch (a crossover block
//! of an eighth of the routers taken from another placement) must skip the
//! local engine altogether and pay exactly one rescan: no edge events, no
//! deletion searches, no cost-cap fallbacks. Counters, not a clock, so
//! the check is exact and machine-independent.

use rand::Rng;
use wmn_graph::topology::{prefers_rescan, TopologyConfig, WmnTopology};
use wmn_model::distribution::ClientDistribution;
use wmn_model::geometry::{Area, Point};
use wmn_model::instance::{InstanceSpec, ProblemInstance};
use wmn_model::node::RouterId;
use wmn_model::rng::rng_from_seed;

/// Mutations per walk.
const STEPS: usize = 1000;

/// The `factor`× Normal instance (`factor`× routers and clients on `√factor`×
/// the side) and a random topology on it.
fn scaled(factor: u32) -> (ProblemInstance, WmnTopology) {
    let base = InstanceSpec::paper_normal().unwrap();
    let side = base.area().width() * f64::from(factor).sqrt();
    let area = Area::square(side).unwrap();
    let spec = InstanceSpec::new(
        area,
        base.router_count() * factor as usize,
        base.client_count() * factor as usize,
        ClientDistribution::paper_normal(&area).unwrap(),
        base.radio(),
    )
    .unwrap();
    let instance = spec.generate(2).unwrap();
    let placement = instance.random_placement(&mut rng_from_seed(3));
    let topo = WmnTopology::build(&instance, &placement, TopologyConfig::paper_default()).unwrap();
    (instance, topo)
}

#[test]
fn single_moves_and_swaps_never_rescan() {
    for factor in [4, 64] {
        let (instance, mut topo) = scaled(factor);
        let n = topo.router_count();
        let side = instance.area().width();
        let mut rng = rng_from_seed(5);
        topo.reset_engine_stats();
        for _ in 0..STEPS {
            let id = RouterId(rng.gen_range(0..n));
            let to = Point::new(rng.gen_range(0.0..=side), rng.gen_range(0.0..=side));
            let old = topo.move_router(id, to);
            topo.move_router(id, old);
            let (a, b) = (RouterId(rng.gen_range(0..n)), RouterId(rng.gen_range(0..n)));
            topo.swap_routers(a, b);
            topo.swap_routers(a, b);
        }
        topo.assert_consistent();
        let stats = topo.engine_stats();
        assert!(
            stats.topology.local_repairs > STEPS as u64,
            "×{factor}: the walk must change links: {stats:?}"
        );
        assert_eq!(stats.topology.rescan_repairs, 0, "×{factor}: {stats:?}");
        assert_eq!(stats.connectivity.rescan_nodes, 0, "×{factor}: {stats:?}");
        assert_eq!(stats.connectivity.fallbacks, 0, "×{factor}: {stats:?}");
    }
}

#[test]
fn ga_shaped_batch_takes_one_rescan_and_no_local_work() {
    let (instance, parent) = scaled(64);
    let n = parent.router_count();
    let other = instance.random_placement(&mut rng_from_seed(7));
    let donor = WmnTopology::build(&instance, &other, TopologyConfig::paper_default()).unwrap();
    // The single-point crossover shape: one block of genes, verbatim from
    // the other parent, an eighth of the routers long.
    let start = n / 3;
    let moves: Vec<(RouterId, Point)> = (start..start + n / 8)
        .map(|i| (RouterId(i), other.as_slice()[i]))
        .collect();
    assert!(prefers_rescan(
        moves.len(),
        n,
        parent.adjacency().edge_count()
    ));

    let mut child = parent.clone();
    child.apply_moves_from(&moves, Some(&donor));
    child.assert_consistent();
    let stats = child.engine_stats();
    assert_eq!(stats.topology.batch_repairs, 1);
    assert_eq!(stats.topology.rescan_repairs, 1, "{stats:?}");
    assert_eq!(stats.topology.local_repairs, 0, "{stats:?}");
    assert_eq!(stats.connectivity.rescan_nodes, n as u64);
    assert_eq!(
        stats.connectivity.rescan_edges,
        child.adjacency().edge_count() as u64
    );
    assert_eq!(stats.connectivity.bfs_edge_visits, 0, "{stats:?}");
    assert_eq!(stats.connectivity.fallbacks, 0, "{stats:?}");
    assert_eq!(
        stats.connectivity.repairs, 0,
        "the local engine must not run"
    );
}
