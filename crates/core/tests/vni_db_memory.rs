//! Memory budget of the VNI database's history: the heap a database
//! holds *outside its device* after the `vni-churn` workload, measured
//! under a global allocator that tracks live bytes.
//!
//! The audit log is a store log table. Its rows live on the device, in
//! the log segment, and the database keeps only where each one starts,
//! so the history costs the process one 8-byte offset per row (16 B at
//! most, while the offset index grows by doubling). A database that
//! kept every row a second time in memory — an arena of the rows' op
//! encodings beside the device's copy — held ≈ 78 B per row on top of
//! the fixed part, ≈ 10.4 MB in all here, against ≈ 3.6 MB with
//! offsets only.
//!
//! The measurement: live bytes just before the workload crashes, minus
//! live bytes just after. The crash consumes the database and hands
//! back its device images, so the difference is exactly what the
//! database held besides them. This is the only test in its binary, so
//! the counter sees nothing but the workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use shs_des::DetRng;
use slingshot_k8s::VniStressWorkload;

/// Tracks the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// Installing a global allocator is the one thing here that needs
// `unsafe`; each method forwards to `System` unchanged.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The `vni-churn` population: the fill acquires this many tenants, then
/// every step alternates a release of the oldest with a fresh acquire.
const TENANTS: u64 = 10_000;

/// Steps run, one audit row each.
const STEPS: u64 = 100_000;

/// History held in memory per audit row: one offset, with room for the
/// index's doubling growth.
const MAX_BYTES_PER_ROW: usize = 16;

/// What the database holds whatever its history: the live rows of the
/// `vnis` table, the free set, the owner, quarantine and expiry indexes,
/// the workload's live-tenant queue and the store's reused buffers.
/// Measured at ≈ 2.4 MiB for this population.
const FIXED_ALLOWANCE: usize = 4 << 20;

#[test]
fn history_costs_at_most_one_offset_per_audit_row() {
    let mut w = VniStressWorkload::new(1, TENANTS);
    for _ in 0..STEPS {
        w.step();
    }
    let rows = w.db().audit_len();
    assert_eq!(rows as u64, STEPS, "one audit row per step");
    let before = LIVE.load(Ordering::Relaxed);
    let disks = w.crash(&mut DetRng::new(42));
    let held = before - LIVE.load(Ordering::Relaxed);
    let device: usize = disks.iter().map(|d| d.len()).sum();
    println!(
        "{held} B held besides a {device} B device: {:.1} B per audit row",
        held as f64 / rows as f64
    );
    let budget = MAX_BYTES_PER_ROW * rows + FIXED_ALLOWANCE;
    assert!(held <= budget, "{held} B held, budget {budget} B for {rows} audit rows");
}
