//! Allocation gate for the neighborhood-search inner loop.
//!
//! Once a topology and a movement's scratch buffers are warm, one phase of
//! Algorithm 2 — `budget` rounds of propose → apply → evaluate → undo —
//! must never touch the heap. This test pins that promise with a counting
//! global allocator: it warms a `best_neighbor` phase, switches the
//! counter on, replays the identical phase (same topology, same RNG seed),
//! and asserts the allocation count stayed at zero. It covers both
//! movements at paper scale and at 4× the paper's routers and clients.
//!
//! The swap movement keeps zone rosters between proposals, so the gate
//! also covers steps that change the state: it warms `PHASES` phases that
//! each apply their best neighbour from a state S0, resets the topology
//! to S0 with `clone_from`, and replays the same phases armed. The first
//! replayed proposal re-homes every router the warm-up moved; no roster
//! insert or remove may touch the heap.
//!
//! This file holds exactly one `#[test]` on purpose: the libtest harness
//! runs tests of a binary concurrently, and any neighbor test's
//! allocations would leak into the gate's counter.

// A `GlobalAlloc` shim cannot be written without `unsafe impl`. It only
// counts and forwards.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rand::RngCore;
use wmn_graph::topology::WmnTopology;
use wmn_metrics::evaluator::Evaluator;
use wmn_model::distribution::ClientDistribution;
use wmn_model::geometry::Area;
use wmn_model::instance::{InstanceSpec, ProblemInstance};
use wmn_model::radio::RadioProfile;
use wmn_model::rng::rng_from_seed;
use wmn_search::movement::{Movement, RandomMovement, SwapConfig, SwapMovement};
use wmn_search::neighborhood::{best_neighbor, BestNeighbor, ExplorationBudget};

/// Forwards to the system allocator, counting heap operations (allocs and
/// reallocs; frees are free) while the gate is armed.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static HEAP_OPS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The Normal-clients instance at `scale`× the paper's routers and clients
/// on `√scale`× its side.
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

/// Phases replayed from a reset topology in the state-changing part.
const PHASES: usize = 6;

/// Runs `PHASES` phases of `best_neighbor`, each applying its best
/// candidate, and returns the candidates.
fn accepting_phases(
    topo: &mut WmnTopology,
    evaluator: &Evaluator<'_>,
    movement: &dyn Movement,
    budget: ExplorationBudget,
    rng: &mut dyn RngCore,
    out: &mut Vec<Option<BestNeighbor>>,
) {
    out.clear();
    for _ in 0..PHASES {
        let best = best_neighbor(topo, evaluator, movement, budget, rng);
        if let Some(best) = &best {
            best.action.apply(topo);
        }
        out.push(best);
    }
}

#[test]
fn steady_state_best_neighbor_phase_allocates_nothing() {
    for scale in [1, 4] {
        let instance = normal_instance(scale, 23);
        let evaluator = Evaluator::paper_default(&instance);
        let mut topo = evaluator
            .topology(&instance.random_placement(&mut rng_from_seed(5)))
            .unwrap();
        let movements: [Box<dyn Movement>; 2] = [
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
            Box::new(RandomMovement::new(&instance)),
        ];
        let budget = ExplorationBudget::sampled(32);
        for movement in &movements {
            // Warm every buffer on the exact phase under test:
            // `best_neighbor` undoes each candidate, so the replay with the
            // same seed retraces the warm-up with capacities already grown.
            let warm = best_neighbor(
                &mut topo,
                &evaluator,
                movement.as_ref(),
                budget,
                &mut rng_from_seed(7),
            );
            let mut rng = rng_from_seed(7);

            HEAP_OPS.store(0, Ordering::SeqCst);
            ARMED.store(true, Ordering::SeqCst);
            let replay = best_neighbor(&mut topo, &evaluator, movement.as_ref(), budget, &mut rng);
            ARMED.store(false, Ordering::SeqCst);

            assert_eq!(
                HEAP_OPS.load(Ordering::SeqCst),
                0,
                "steady-state {} phase at scale {scale} touched the heap",
                movement.name()
            );
            // The gated phase really did the work.
            assert_eq!(replay, warm, "{} phase did not replay", movement.name());
            assert!(replay.is_some());

            // State-changing steps: warm `PHASES` accepting phases from
            // S0, reset to S0 and replay them armed.
            let start = topo.clone();
            let mut warm_steps = Vec::with_capacity(PHASES);
            let mut replay_steps = Vec::with_capacity(PHASES);
            let (mut warm_rng, mut replay_rng) = (rng_from_seed(11), rng_from_seed(11));
            accepting_phases(
                &mut topo,
                &evaluator,
                movement.as_ref(),
                budget,
                &mut warm_rng,
                &mut warm_steps,
            );
            assert_ne!(
                topo.placement(),
                start.placement(),
                "{} warm-up moved no router",
                movement.name()
            );
            topo.clone_from(&start);

            HEAP_OPS.store(0, Ordering::SeqCst);
            ARMED.store(true, Ordering::SeqCst);
            accepting_phases(
                &mut topo,
                &evaluator,
                movement.as_ref(),
                budget,
                &mut replay_rng,
                &mut replay_steps,
            );
            ARMED.store(false, Ordering::SeqCst);

            assert_eq!(
                HEAP_OPS.load(Ordering::SeqCst),
                0,
                "replayed state-changing {} phases at scale {scale} touched the heap",
                movement.name()
            );
            assert_eq!(
                replay_steps,
                warm_steps,
                "{} phases did not replay",
                movement.name()
            );
        }
        topo.assert_consistent();
    }
}
