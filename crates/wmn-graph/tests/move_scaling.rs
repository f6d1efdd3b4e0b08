//! Deterministic scaling check for single-router moves: the connectivity
//! work of a `move_router` must not grow with the router count.
//!
//! A fixed-seed walk of move + move-back pairs runs on the proportional
//! ×4 and ×64 scale-ups of the paper's Normal instance (`k`× routers and
//! clients on `√k`× the side, so router density is the same). The engine's
//! work counters measure what each move cost: nodes relabeled by merges
//! and splits plus edges visited by deletion searches. Sixteen times the
//! routers must cost well under four times the work per move, and giant
//! re-selection scans must stay rare. Counters, not a clock, so the check
//! is exact and machine-independent.

use rand::Rng;
use wmn_graph::connectivity::ConnectivityStats;
use wmn_graph::topology::{TopologyConfig, WmnTopology};
use wmn_model::distribution::ClientDistribution;
use wmn_model::geometry::{Area, Point};
use wmn_model::instance::InstanceSpec;
use wmn_model::node::RouterId;
use wmn_model::rng::rng_from_seed;

/// Move + move-back pairs per walk.
const PAIRS: usize = 2000;

/// Runs the walk on the `factor`× Normal instance and returns the
/// connectivity counters it accumulated.
fn walk(factor: u32) -> ConnectivityStats {
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
    let mut topo =
        WmnTopology::build(&instance, &placement, TopologyConfig::paper_default()).unwrap();
    let n = topo.router_count();
    let mut rng = rng_from_seed(5);
    topo.reset_engine_stats();
    for _ in 0..PAIRS {
        let id = RouterId(rng.gen_range(0..n));
        let to = Point::new(rng.gen_range(0.0..=side), rng.gen_range(0.0..=side));
        let old = topo.move_router(id, to);
        topo.move_router(id, old);
    }
    topo.assert_consistent();
    let stats = topo.connectivity_stats();
    assert_eq!(stats.fallbacks, 0, "×{factor}: no move may fall back");
    assert_eq!(stats.rescan_nodes, 0, "×{factor}: no move may rescan");
    stats
}

/// Relabeled nodes plus search edge visits per move.
fn work_per_move(stats: &ConnectivityStats) -> f64 {
    (stats.relabeled_nodes + stats.bfs_edge_visits) as f64 / (2 * PAIRS) as f64
}

#[test]
fn single_move_connectivity_work_is_sublinear_in_router_count() {
    let small = walk(4);
    let large = walk(64);
    for (factor, stats) in [(4, &small), (64, &large)] {
        assert!(
            stats.merges > 0 && stats.splits > 0,
            "×{factor}: the walk must merge and split components: {stats:?}"
        );
        let rescan_share = stats.giant_rescans as f64 / (2 * PAIRS) as f64;
        assert!(
            rescan_share < 0.05,
            "×{factor}: giant re-selection scans on {:.1}% of moves",
            100.0 * rescan_share
        );
    }
    let (w4, w64) = (work_per_move(&small), work_per_move(&large));
    assert!(
        w64 < 4.0 * w4,
        "16× the routers cost {:.1}× the connectivity work per move \
         ({w4:.1} at ×4, {w64:.1} at ×64)",
        w64 / w4
    );
}
