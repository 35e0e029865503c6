//! Program → network cost is proportional to the network that comes out.
//!
//! The k-medoids network grows ×4 per doubling of `n` (k·n² distance
//! terms). Each front-half stage — `translate` + target registration,
//! `ground`, `Network::build`, and one concrete `Interp::run` world — must
//! therefore allocate at most ×5 the bytes when `n` doubles; a stage that
//! copies an array per element read, or re-walks shared sub-terms per
//! occurrence, grows ×7–8 and fails here. Bytes are counted by a wrapping
//! global allocator, so the test has no wall clock in it; it is its own
//! test binary with a single `#[test]` so that nothing else allocates
//! while a stage is being counted.

use enframe::core::Valuation;
use enframe::data::{kmedoids_workload, LineageOpts, Scheme};
use enframe::prelude::*;
use enframe::translate::{targets, world_env};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every byte handed out: the size of each `alloc`, and the new
/// size of each `realloc` (a grown vector pays for its whole new buffer).
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a relaxed statistic that
// publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` describe a live block of this
        // allocator, i.e. of `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the bytes it allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATED.load(Ordering::Relaxed) - before)
}

const STAGES: [&str; 4] = ["translate", "ground", "build", "interp"];

/// Bytes allocated per stage at size `n`, the emitted node count and the
/// number of definitions.
fn measure(n: usize) -> ([u64; 4], usize, usize) {
    let w = kmedoids_workload(
        n,
        2,
        2,
        Scheme::Positive { l: 4, v: 8 },
        &LineageOpts::default(),
        3,
    );
    let ast = parse(programs::K_MEDOIDS).unwrap();
    let (tr, translate_b) = counted(|| {
        let mut tr = translate(&ast, &w.env).unwrap();
        targets::add_all_bool_targets(&mut tr, "Centre");
        tr
    });
    let (gp, ground_b) = counted(|| tr.ground().unwrap());
    let (net, build_b) = counted(|| Network::build(&gp).unwrap());
    // The world in which every object exists does the most work.
    let wenv = world_env(&w.env, &Valuation::from_bits(vec![true; w.vt.len()]));
    let ((), interp_b) = counted(|| Interp::new(&wenv).run(&ast).unwrap());
    (
        [translate_b, ground_b, build_b, interp_b],
        net.len(),
        gp.len(),
    )
}

/// `Network::build` may allocate this many bytes per node it emits: the
/// measured 348–401 B (n = 20–160; mostly the node table and its index
/// doubling as they grow) plus 15 % headroom. It was 877–990 B while
/// interning cloned every node's children and constant into a map key.
const BUILD_BYTES_PER_NODE: f64 = 460.0;

/// `ground` may allocate this many bytes per definition: the measured
/// 0.38 B at every n (it shares the definition table and copies only the
/// k·n target ids) plus 15 % headroom. It was 1 390–7 610 B (0.59–25.6 MB
/// at n = 20–160) while grounding rebuilt every term of a symbolic
/// program.
const GROUND_BYTES_PER_DEF: f64 = 0.44;

#[test]
fn front_half_allocation_grows_with_the_network() {
    let sizes = [20usize, 40, 80, 160];
    let runs: Vec<([u64; 4], usize, usize)> = sizes.iter().map(|&n| measure(n)).collect();
    for (&n, (bytes, nodes, defs)) in sizes.iter().zip(&runs) {
        println!(
            "n={n:<4} nodes={nodes:<8} defs={defs:<8} translate={:<12} ground={:<12} \
             ({:.2} B/def) build={:<12} ({:.0} B/node) interp={}",
            bytes[0],
            bytes[1],
            bytes[1] as f64 / *defs as f64,
            bytes[2],
            bytes[2] as f64 / *nodes as f64,
            bytes[3]
        );
    }
    let mut failures = Vec::new();
    for (s, stage) in STAGES.iter().enumerate() {
        for (pair, ns) in runs.windows(2).zip(sizes.windows(2)) {
            let ratio = pair[1].0[s] as f64 / pair[0].0[s] as f64;
            println!("{stage:<10} n={}→{}: ×{ratio:.2}", ns[0], ns[1]);
            if ratio > 5.0 {
                failures.push(format!(
                    "{stage} allocates ×{ratio:.2} going from n={} to n={} (limit ×5)",
                    ns[0], ns[1]
                ));
            }
        }
    }
    for (&n, (bytes, nodes, defs)) in sizes.iter().zip(&runs) {
        let per_node = bytes[2] as f64 / *nodes as f64;
        if per_node > BUILD_BYTES_PER_NODE {
            failures.push(format!(
                "Network::build allocates {per_node:.0} B per emitted node at n={n} \
                 (limit {BUILD_BYTES_PER_NODE:.0})"
            ));
        }
        let per_def = bytes[1] as f64 / *defs as f64;
        if per_def > GROUND_BYTES_PER_DEF {
            failures.push(format!(
                "ground allocates {per_def:.2} B per definition at n={n} \
                 (limit {GROUND_BYTES_PER_DEF:.2})"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
