//! Pins `SwapMovement::propose` to a linear-scan oracle.
//!
//! The production proposal finds each router's zone with an O(1) cell
//! lookup (falling back to closed-rectangle tests near cell edges). The
//! oracle below is the straightforward formulation: for every router, test
//! every ranked zone's closed rectangle in rank order and take the first
//! match. Both must return the same `MoveAction` **and** leave the RNG at
//! the same point, at every step, for every configuration — including
//! routers sitting exactly on window edges and shared corners, where the
//! closed rectangles of adjacent zones overlap and rank decides.
//!
//! The production movement keeps zone state between proposals and
//! updates it only for routers that moved, so the oracle is also run
//! along stateful walks: every proposal is checked, then applied and kept
//! or undone by a seeded coin, with some moves forced onto window edges
//! and the area's border; and one movement alternates between two
//! unrelated topologies, so every router changes between calls.
//!
//! The vendored proptest shim does not shrink, so every assertion names the
//! case seed; rerun a failure by pinning that seed.

use proptest::prelude::*;
use rand::{Rng, RngCore};
use wmn_graph::density::{CellWindow, DensityMap};
use wmn_graph::topology::WmnTopology;
use wmn_metrics::evaluator::Evaluator;
use wmn_model::distribution::ClientDistribution;
use wmn_model::geometry::{Area, Point, Rect};
use wmn_model::instance::{InstanceSpec, ProblemInstance};
use wmn_model::node::RouterId;
use wmn_model::placement::Placement;
use wmn_model::radio::RadioProfile;
use wmn_model::rng::rng_from_seed;
use wmn_search::movement::{MoveAction, Movement, RandomMovement, SwapConfig, SwapMovement};
use wmn_search::neighborhood::{best_neighbor, ExplorationBudget};

/// The swap proposal as a linear scan over routers × ranked zones, with the
/// zone rectangle rebuilt on every test.
struct LinearScanSwap {
    config: SwapConfig,
    client_map: DensityMap,
    ranked_zones: Vec<CellWindow>,
}

impl LinearScanSwap {
    fn new(instance: &ProblemInstance, config: SwapConfig) -> Self {
        let cells = config.cells.max(1);
        let client_map =
            DensityMap::from_points(&instance.area(), &instance.client_positions(), cells, cells);
        let ranked_zones = client_map.ranked_disjoint_windows(
            config.window_cells,
            config.window_cells,
            usize::MAX,
        );
        LinearScanSwap {
            config,
            client_map,
            ranked_zones,
        }
    }

    fn clients(&self, zi: usize) -> u64 {
        self.client_map.window_count(&self.ranked_zones[zi])
    }

    fn rect(&self, zi: usize) -> Rect {
        self.client_map.window_rect(&self.ranked_zones[zi])
    }

    fn routers_in(topo: &WmnTopology, rect: &Rect) -> Vec<RouterId> {
        (0..topo.router_count())
            .map(RouterId)
            .filter(|&id| rect.contains(topo.position(id)))
            .collect()
    }

    fn weakest(topo: &WmnTopology, ids: &[RouterId]) -> Option<RouterId> {
        ids.iter().copied().min_by(|&a, &b| {
            topo.radius(a)
                .partial_cmp(&topo.radius(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.index().cmp(&b.index()))
        })
    }

    fn strongest(topo: &WmnTopology, ids: &[RouterId]) -> Option<RouterId> {
        ids.iter().copied().max_by(|&a, &b| {
            topo.radius(a)
                .partial_cmp(&topo.radius(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.index().cmp(&a.index()))
        })
    }

    fn fallback_random(&self, topo: &WmnTopology, rng: &mut dyn RngCore) -> MoveAction {
        let area = self.client_map.area();
        MoveAction::Relocate {
            router: RouterId(rng.gen_range(0..topo.router_count())),
            to: Point::new(
                rng.gen_range(0.0..=area.width()),
                rng.gen_range(0.0..=area.height()),
            ),
        }
    }

    fn propose(&self, topo: &WmnTopology, rng: &mut dyn RngCore) -> MoveAction {
        let zones = self.ranked_zones.len();
        let mut routers_per_zone = vec![0usize; zones];
        for i in 0..topo.router_count() {
            let p = topo.position(RouterId(i));
            if let Some(zi) = (0..zones).find(|&zi| self.rect(zi).contains(p)) {
                routers_per_zone[zi] += 1;
            }
        }

        let kappa = (self.client_map.total() as f64 / topo.router_count() as f64).max(1.0);
        let dense_pool: Vec<usize> = (0..zones)
            .filter(|&zi| {
                let clients = self.clients(zi);
                clients >= self.config.dense_threshold.max(1)
                    && (clients as f64) / kappa > routers_per_zone[zi] as f64
            })
            .take(self.config.dense_candidates.max(1))
            .collect();

        let relocate_mode = !dense_pool.is_empty();
        let dense_zi = if relocate_mode {
            *pick(&dense_pool, rng).unwrap()
        } else {
            match (0..zones).find(|&zi| routers_per_zone[zi] > 0) {
                Some(zi) => zi,
                None => return self.fallback_random(topo, rng),
            }
        };
        let dense_rect = self.rect(dense_zi);

        let sparse_pool: Vec<usize> = (0..zones)
            .rev()
            .filter(|&zi| {
                zi != dense_zi
                    && self.clients(zi) <= self.config.sparse_threshold
                    && routers_per_zone[zi] > 0
            })
            .take(self.config.sparse_candidates.max(1))
            .collect();
        let Some(&sparse_zi) = pick(&sparse_pool, rng) else {
            return self.fallback_random(topo, rng);
        };
        if self.clients(sparse_zi) > self.clients(dense_zi) {
            return self.fallback_random(topo, rng);
        }

        let sparse_routers = Self::routers_in(topo, &self.rect(sparse_zi));
        let strong = if relocate_mode {
            let non_giant: Vec<RouterId> = sparse_routers
                .iter()
                .copied()
                .filter(|&id| !topo.in_giant(id))
                .collect();
            Self::strongest(topo, &non_giant).or_else(|| Self::strongest(topo, &sparse_routers))
        } else {
            Self::strongest(topo, &sparse_routers)
        };
        let Some(strong) = strong else {
            return self.fallback_random(topo, rng);
        };

        if relocate_mode {
            let center = dense_rect.center();
            let mut dense_routers = Self::routers_in(topo, &dense_rect);
            dense_routers.retain(|&id| id != strong);
            let anchor = pick(&dense_routers, rng).copied().or_else(|| {
                (0..topo.router_count())
                    .map(RouterId)
                    .filter(|&id| id != strong && topo.in_giant(id))
                    .min_by(|&a, &b| {
                        let da = topo.position(a).distance_squared(center);
                        let db = topo.position(b).distance_squared(center);
                        da.partial_cmp(&db)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.index().cmp(&b.index()))
                    })
            });
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

        match Self::weakest(topo, &Self::routers_in(topo, &dense_rect)) {
            Some(weak) if weak != strong => MoveAction::Swap { a: weak, b: strong },
            _ => self.fallback_random(topo, rng),
        }
    }
}

fn pick<'a, T>(pool: &'a [T], rng: &mut dyn RngCore) -> Option<&'a T> {
    if pool.is_empty() {
        None
    } else {
        Some(&pool[rng.gen_range(0..pool.len())])
    }
}

/// The Normal-clients instance at `scale`× the paper's routers and clients
/// on `√scale`× its side (the proportional scale-up of the experiments).
fn normal_instance(scale: usize, seed: u64) -> ProblemInstance {
    let side = 128.0 * (scale as f64).sqrt();
    let area = Area::square(side).unwrap();
    InstanceSpec::new(
        area,
        64 * scale,
        192 * scale,
        ClientDistribution::paper_normal(&area).unwrap(),
        RadioProfile::paper_default(),
    )
    .unwrap()
    .generate(seed)
    .unwrap()
}

/// The configurations under test: the default; a coarser grid with wider
/// windows; a 7-cell grid whose greedy 2-cell windows leave uncovered
/// cells; and windows at least as large as the grid (one zone).
fn configs() -> [SwapConfig; 5] {
    [
        SwapConfig::default(),
        SwapConfig {
            cells: 10,
            window_cells: 3,
            ..SwapConfig::default()
        },
        SwapConfig {
            cells: 7,
            window_cells: 2,
            ..SwapConfig::default()
        },
        SwapConfig {
            cells: 4,
            window_cells: 4,
            ..SwapConfig::default()
        },
        SwapConfig {
            cells: 5,
            window_cells: 9,
            ..SwapConfig::default()
        },
    ]
}

/// Proposes `steps` moves from the production movement and the oracle on
/// identically seeded RNGs, asserting equal actions and equal next draws.
fn assert_proposals_match(
    movement: &SwapMovement,
    oracle: &LinearScanSwap,
    topo: &WmnTopology,
    rng_seed: u64,
    steps: usize,
    what: &str,
) {
    let mut fast_rng = rng_from_seed(rng_seed);
    let mut oracle_rng = rng_from_seed(rng_seed);
    for step in 0..steps {
        let what = format!("{what}: rng seed {rng_seed}, step {step}");
        assert_one_proposal_matches(
            movement,
            oracle,
            topo,
            &mut fast_rng,
            &mut oracle_rng,
            &what,
        );
    }
}

/// Proposes one move from the production movement and the oracle, each on
/// its own RNG (the two in step), asserting equal actions and equal next
/// draws; returns the action.
fn assert_one_proposal_matches(
    movement: &SwapMovement,
    oracle: &LinearScanSwap,
    topo: &WmnTopology,
    fast_rng: &mut dyn RngCore,
    oracle_rng: &mut dyn RngCore,
    what: &str,
) -> MoveAction {
    let fast = movement.propose(topo, fast_rng);
    let slow = oracle.propose(topo, oracle_rng);
    assert_eq!(fast, slow, "{what}, config {:?}", movement.config());
    assert_eq!(
        fast_rng.next_u64(),
        oracle_rng.next_u64(),
        "{what}: RNG streams diverged, config {:?}",
        movement.config()
    );
    fast
}

/// Positions on the boundaries of the `cells × cells` grid over `area`,
/// computed exactly as the density map computes window rectangles
/// (`k · cell_w`), plus their one-ulp neighbours.
fn edge_coordinates(extent: f64, cells: usize) -> Vec<f64> {
    let cell = extent / cells as f64;
    let mut coords = Vec::new();
    for k in 0..=cells {
        let x = k as f64 * cell;
        coords.extend([x, x.next_up(), x.next_down()]);
    }
    coords.retain(|&c| (0.0..=extent).contains(&c));
    coords
}

/// A placement with routers on grid lines, shared window corners and the
/// area's corners and edges (where clamped moves land), mixed with random
/// interior routers.
fn adversarial_placement(
    instance: &ProblemInstance,
    cells: usize,
    rng: &mut dyn RngCore,
) -> Placement {
    let area = instance.area();
    let (w, h) = (area.width(), area.height());
    let xs = edge_coordinates(w, cells);
    let ys = edge_coordinates(h, cells);
    let points = (0..instance.router_count())
        .map(|_| match rng.gen_range(0..5) {
            // Shared corners of adjacent windows.
            0 => Point::new(
                xs[rng.gen_range(0..xs.len())],
                ys[rng.gen_range(0..ys.len())],
            ),
            // A vertical or horizontal window edge.
            1 => Point::new(xs[rng.gen_range(0..xs.len())], rng.gen_range(0.0..=h)),
            2 => Point::new(rng.gen_range(0.0..=w), ys[rng.gen_range(0..ys.len())]),
            // The area's corners and edges.
            3 => {
                let x = [0.0, w, rng.gen_range(0.0..=w)][rng.gen_range(0..3)];
                let y = [0.0, h][rng.gen_range(0..2)];
                if rng.gen_range(0..2) == 0 {
                    Point::new(x, y)
                } else {
                    Point::new([0.0, w][rng.gen_range(0..2)], rng.gen_range(0.0..=h))
                }
            }
            _ => Point::new(rng.gen_range(0.0..=w), rng.gen_range(0.0..=h)),
        })
        .collect();
    Placement::from_points(points)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_placements_match_the_linear_scan(seed in any::<u64>(), scale_index in 0usize..2) {
        let scale = [1, 4][scale_index];
        eprintln!("random placements: seed {seed}, scale {scale}");
        let instance = normal_instance(scale, seed);
        let evaluator = Evaluator::paper_default(&instance);
        let mut rng = rng_from_seed(seed);
        for config in configs() {
            let movement = SwapMovement::new(&instance, config);
            let oracle = LinearScanSwap::new(&instance, config);
            for round in 0..3 {
                let topo = evaluator.topology(&instance.random_placement(&mut rng)).unwrap();
                let what = format!("random placement, seed {seed}, scale {scale}, round {round}");
                assert_proposals_match(&movement, &oracle, &topo, rng.next_u64(), 24, &what);
            }
        }
    }

    #[test]
    fn edge_placements_match_the_linear_scan(seed in any::<u64>(), scale_index in 0usize..2) {
        let scale = [1, 4][scale_index];
        eprintln!("edge placements: seed {seed}, scale {scale}");
        let instance = normal_instance(scale, seed);
        let evaluator = Evaluator::paper_default(&instance);
        let mut rng = rng_from_seed(seed);
        for config in configs() {
            let movement = SwapMovement::new(&instance, config);
            let oracle = LinearScanSwap::new(&instance, config);
            for round in 0..3 {
                let placement = adversarial_placement(&instance, config.cells, &mut rng);
                let topo = evaluator.topology(&placement).unwrap();
                let what = format!("edge placement, seed {seed}, scale {scale}, round {round}");
                assert_proposals_match(&movement, &oracle, &topo, rng.next_u64(), 24, &what);
            }
        }
    }

    #[test]
    fn search_placements_match_the_linear_scan(seed in any::<u64>(), scale_index in 0usize..2) {
        // Placements a search actually reaches: routers pulled into dense
        // zones and clamped onto the area's edges by accepted moves.
        let scale = [1, 4][scale_index];
        eprintln!("search placements: seed {seed}, scale {scale}");
        let instance = normal_instance(scale, seed);
        let evaluator = Evaluator::paper_default(&instance);
        let random = RandomMovement::new(&instance);
        for config in configs() {
            let movement = SwapMovement::new(&instance, config);
            let oracle = LinearScanSwap::new(&instance, config);
            let mut rng = rng_from_seed(seed);
            let mut topo = evaluator.topology(&instance.random_placement(&mut rng)).unwrap();
            let mut current = evaluator.evaluate_topology(&topo).fitness;
            for phase in 0..12 {
                let what = format!("search phase {phase}, seed {seed}, scale {scale}");
                assert_proposals_match(&movement, &oracle, &topo, rng.next_u64(), 4, &what);
                let driver: &dyn Movement = if phase % 3 == 2 { &random } else { &movement };
                let budget = ExplorationBudget::sampled(8);
                if let Some(best) = best_neighbor(&mut topo, &evaluator, driver, budget, &mut rng) {
                    if best.evaluation.fitness > current {
                        best.action.apply(&mut topo);
                        current = best.evaluation.fitness;
                    }
                }
            }
        }
    }
}

/// One position on a window edge, a shared window corner or the area's
/// border (where clamped moves land).
fn edge_point(instance: &ProblemInstance, cells: usize, rng: &mut dyn RngCore) -> Point {
    let area = instance.area();
    let (w, h) = (area.width(), area.height());
    let xs = edge_coordinates(w, cells);
    let ys = edge_coordinates(h, cells);
    match rng.gen_range(0..4) {
        0 => Point::new(
            xs[rng.gen_range(0..xs.len())],
            ys[rng.gen_range(0..ys.len())],
        ),
        1 => Point::new(xs[rng.gen_range(0..xs.len())], rng.gen_range(0.0..=h)),
        2 => Point::new(rng.gen_range(0.0..=w), ys[rng.gen_range(0..ys.len())]),
        // Far outside the area: the move clamps onto its border.
        _ => Point::new(
            rng.gen_range(-w..=2.0 * w),
            [-h, 2.0 * h][rng.gen_range(0..2)],
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn stateful_walks_match_the_linear_scan(seed in any::<u64>()) {
        // One movement follows a topology through 200 applied moves, kept
        // or undone by a seeded coin as annealing does, so its kept state
        // sees moves, undos and moves that never happened (undone before
        // the next proposal). Every fourth step moves a router onto a
        // window edge or the area's border instead of the proposal.
        eprintln!("stateful walk: seed {seed}");
        for scale in [1, 4] {
            let instance = normal_instance(scale, seed);
            let evaluator = Evaluator::paper_default(&instance);
            for config in configs() {
                let movement = SwapMovement::new(&instance, config);
                let oracle = LinearScanSwap::new(&instance, config);
                let mut walk_rng = rng_from_seed(seed ^ 0x5A11);
                let placement = adversarial_placement(&instance, config.cells, &mut walk_rng);
                let mut topo = evaluator.topology(&placement).unwrap();
                let rng_seed = walk_rng.next_u64();
                let mut fast_rng = rng_from_seed(rng_seed);
                let mut oracle_rng = rng_from_seed(rng_seed);
                for step in 0..200 {
                    let what = format!("stateful walk, seed {seed}, scale {scale}, step {step}");
                    let proposed = assert_one_proposal_matches(
                        &movement, &oracle, &topo, &mut fast_rng, &mut oracle_rng, &what,
                    );
                    let action = if step % 4 == 3 {
                        MoveAction::Relocate {
                            router: RouterId(walk_rng.gen_range(0..topo.router_count())),
                            to: edge_point(&instance, config.cells, &mut walk_rng),
                        }
                    } else {
                        proposed
                    };
                    let undo = action.apply(&mut topo);
                    if walk_rng.gen_range(0..2) == 0 {
                        undo.undo(&mut topo);
                    }
                }
            }
        }
    }

    #[test]
    fn alternating_topologies_match_the_linear_scan(seed in any::<u64>()) {
        // One movement proposes for two unrelated topologies of the same
        // instance in turn, so every router differs from the positions it
        // last saw on every call; each proposal is applied to its topology.
        eprintln!("alternating topologies: seed {seed}");
        for scale in [1, 4] {
            let instance = normal_instance(scale, seed);
            let evaluator = Evaluator::paper_default(&instance);
            for config in configs() {
                let movement = SwapMovement::new(&instance, config);
                let oracle = LinearScanSwap::new(&instance, config);
                let mut rng = rng_from_seed(seed ^ 0xA17);
                let mut topos = [
                    evaluator.topology(&instance.random_placement(&mut rng)).unwrap(),
                    evaluator
                        .topology(&adversarial_placement(&instance, config.cells, &mut rng))
                        .unwrap(),
                ];
                let rng_seed = rng.next_u64();
                let mut fast_rng = rng_from_seed(rng_seed);
                let mut oracle_rng = rng_from_seed(rng_seed);
                for step in 0..40 {
                    let what =
                        format!("alternating topologies, seed {seed}, scale {scale}, step {step}");
                    let topo = &mut topos[step % 2];
                    let action = assert_one_proposal_matches(
                        &movement, &oracle, topo, &mut fast_rng, &mut oracle_rng, &what,
                    );
                    action.apply(topo);
                }
            }
        }
    }
}
