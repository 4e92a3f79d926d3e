//! Allocation budget of the VNI control plane's steady state: the
//! `vni-churn` step (one acquire or release, each one ACID transaction
//! through `VniDb` and the store's WAL) under a counting global
//! allocator.
//!
//! This is the only test in its binary, so the counter sees nothing but
//! the workload. The bound sits between the heap traffic of a database
//! whose map-table rows were keyed by heap `Vec<u8>`s, whose owner index
//! was a `String`-keyed B-tree and whose release decoded its row into
//! owned `String`s (≈ 2.1 allocations per step), and that of one whose
//! keys are inline words and whose updates read their row in place.
//! What remains is the owner key each fresh tenant's `acquire` moves into
//! the owner index, half a step's worth. A change that clones a key, a
//! row or an owner per transaction again lands above it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use slingshot_k8s::VniStressWorkload;

/// Counts every allocation and reallocation, and the bytes they ask for.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// Installing a global allocator is the one thing here that needs
// `unsafe`; each method forwards to `System` unchanged.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The `vni-churn` population: the fill acquires this many tenants, then
/// every step alternates a release of the oldest with a fresh acquire.
const TENANTS: u64 = 10_000;

/// Steady-state steps counted after the fill.
const STEPS: u64 = 100_000;

/// Allocations per steady-state step. Measured over these steps: ≈ 2.2
/// with heap-keyed rows, a `String`-keyed B-tree owner index and a
/// release that decoded its row, ≈ 0.7 with inline keys, a hashed owner
/// index and rows read in place.
const MAX_ALLOCS_PER_STEP: f64 = 1.0;

#[test]
fn churn_steps_stay_within_their_allocation_budget() {
    let mut w = VniStressWorkload::with_config(TENANTS, VniStressWorkload::config());
    for _ in 0..TENANTS {
        w.step();
    }
    let (allocs0, bytes0) = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    for _ in 0..STEPS {
        w.step();
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes0;
    let (per_step, bytes_per_step) = (allocs as f64 / STEPS as f64, bytes / STEPS);
    println!("{per_step:.2} allocations, {bytes_per_step} bytes per step");
    assert!(
        per_step <= MAX_ALLOCS_PER_STEP,
        "{per_step:.2} allocations per step (budget {MAX_ALLOCS_PER_STEP}; {bytes_per_step} B)"
    );
    w.db().check_index_consistency().expect("indexes agree with the store");
}
