//! Allocation gate for the steady-state topology hot path.
//!
//! The delta-evaluation engine promises O(1) allocations in steady state:
//! once a `WmnTopology` and its scratch buffers are warm, the GA's
//! per-child cycle — `clone_from` a parent, `apply_moves` the placement
//! diff — and the search's `move_router` / `swap_routers` + undo walk
//! must never touch the heap. This test pins that promise with a counting
//! global allocator: it warms a topology through each workload, switches
//! the counter on, replays the identical workload from the identical
//! state, and asserts the allocation count stayed at zero.
//!
//! This file holds exactly one `#[test]` on purpose: the libtest harness
//! runs tests of a binary concurrently, and any neighbor test's
//! allocations would leak into the gate's counter.

// The one sanctioned unsafe item in the workspace: a `GlobalAlloc` shim
// cannot be written without `unsafe impl`. It only counts and forwards.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rand::Rng;
use wmn_graph::connectivity::ConnectivityStats;
use wmn_graph::topology::{TopologyConfig, WmnTopology};
use wmn_model::geometry::Point;
use wmn_model::instance::InstanceSpec;
use wmn_model::node::RouterId;
use wmn_model::rng::rng_from_seed;

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

#[test]
fn steady_state_clone_from_and_apply_moves_allocate_nothing() {
    let spec = InstanceSpec::paper_normal().unwrap();
    let instance = spec.generate(11).unwrap();
    let mut rng = rng_from_seed(17);
    let placement = instance.random_placement(&mut rng);
    let base = WmnTopology::build(&instance, &placement, TopologyConfig::paper_default()).unwrap();

    // A GA-child-shaped batch: a handful of routers jump anywhere in the
    // area, exercising grid relocation, edge repair, the connectivity
    // engine, and disk-cache recounts.
    let side = instance.area().width();
    let moves: Vec<(RouterId, Point)> = (0..12)
        .map(|_| {
            let i = rng.gen_range(0..instance.router_count());
            let p = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            (RouterId(i), p)
        })
        .collect();

    let mut work = base.clone();
    // Warm every buffer on the exact cycle under test: clone_from resets
    // the state to `base` each round, so the second run retraces the
    // first's repair path with capacities already grown.
    for _ in 0..2 {
        work.clone_from(&base);
        work.apply_moves(&moves);
    }

    HEAP_OPS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    work.clone_from(&base);
    work.apply_moves(&moves);
    ARMED.store(false, Ordering::SeqCst);

    assert_eq!(
        HEAP_OPS.load(Ordering::SeqCst),
        0,
        "steady-state clone_from + apply_moves touched the heap"
    );

    // The gated cycle really did the work: state matches a fresh rebuild.
    work.assert_consistent();

    // The search shape: single moves and swaps, each undone at once. The
    // walk is replayed from the same state each round, so the armed round
    // retraces the warm-up's repairs — merges, splits, giant switches,
    // ties — with every buffer (free-id stack, relabel log, flip list)
    // already grown.
    let n = instance.router_count();
    let walk: Vec<Step> = (0..300)
        .map(|k| {
            let a = RouterId(rng.gen_range(0..n));
            if k % 4 == 3 {
                Step::Swap(a, RouterId(rng.gen_range(0..n)))
            } else {
                Step::Move(
                    a,
                    Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
                )
            }
        })
        .collect();
    let mut shape = WalkShape::default();
    for round in 0..3 {
        work.clone_from(&base);
        let before = work.connectivity_stats();
        if round == 2 {
            HEAP_OPS.store(0, Ordering::SeqCst);
            ARMED.store(true, Ordering::SeqCst);
        }
        replay(&mut work, &walk, &mut shape);
        ARMED.store(false, Ordering::SeqCst);
        if round == 0 {
            shape.stats = work.connectivity_stats().delta_since(&before);
        }
    }
    assert_eq!(
        HEAP_OPS.load(Ordering::SeqCst),
        0,
        "steady-state move_router / swap_routers + undo touched the heap"
    );
    // The walk exercised what the gate claims to cover.
    assert!(shape.stats.merges > 0, "no merge: {shape:?}");
    assert!(shape.stats.splits > 0, "no split: {shape:?}");
    assert!(
        shape.stats.giant_rescans > 0,
        "no giant re-selection scan: {shape:?}"
    );
    assert!(shape.giant_switches > 0, "no giant switch: {shape:?}");
    assert!(shape.ties > 0, "no tie at the maximum: {shape:?}");
    work.assert_consistent();
}

/// One step of the single-move walk; each is undone right after.
enum Step {
    Move(RouterId, Point),
    Swap(RouterId, RouterId),
}

/// What the walk replays went through: the first round's connectivity
/// counters, and switches and ties summed over the identical rounds.
#[derive(Debug, Default)]
struct WalkShape {
    /// Connectivity counters of the first round.
    stats: ConnectivityStats,
    /// Operations after which the giant had another component id.
    giant_switches: usize,
    /// Operations after which two components shared the maximum size.
    ties: usize,
}

/// Applies every step of `walk` and its undo, noting giant switches and
/// ties without allocating.
fn replay(topo: &mut WmnTopology, walk: &[Step], shape: &mut WalkShape) {
    let mut observe = |topo: &WmnTopology, giant: &mut Option<usize>| {
        let now = topo.components().giant_label_opt();
        shape.giant_switches += usize::from(now != *giant);
        *giant = now;
        let sizes = topo.components().sizes();
        let max = sizes.iter().copied().max().unwrap_or(0);
        shape.ties += usize::from(sizes.iter().filter(|&&s| s == max).count() > 1);
    };
    let mut giant = topo.components().giant_label_opt();
    for step in walk {
        match *step {
            Step::Move(id, to) => {
                let old = topo.move_router(id, to);
                observe(topo, &mut giant);
                topo.move_router(id, old);
            }
            Step::Swap(a, b) => {
                topo.swap_routers(a, b);
                observe(topo, &mut giant);
                topo.swap_routers(a, b);
            }
        }
        observe(topo, &mut giant);
    }
}
