//! Allocation budget of the admission control plane: a 40-job spike,
//! `vni:true` then `vni:false`, under a counting global allocator.
//!
//! This is the only test in its binary, so the counter sees nothing but
//! the two runs. The bound sits just above the heap traffic of the typed
//! API store, where a write builds one snapshot that shares its spec and
//! metadata collections and no hot path touches JSON. A change that puts
//! JSON back on a write or read path, or deep-copies an object per
//! write, lands above it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use shs_harness::{run_admission, Pattern};

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

/// Spike size: large enough that per-job costs dominate cluster set-up.
const JOBS: usize = 40;

/// Allocations per admitted job, over both halves. Measured on this
/// spike:
///
/// * 644 (48.7 KB) with deep-cloning writes and `String`-keyed watchers;
/// * 270 (29.1 KB) with shared names, specs and keys, but JSON specs and
///   statuses: 61 of those allocations were inside `serde_json` (every
///   status write encoded a fresh `Value`, every first read of a
///   snapshot decoded its spec and status again) and 41 were the write
///   paths' deep `ApiObject` / `ObjectMeta` clones;
/// * 172 (15.5 KB) with typed objects: no JSON off the door, and a
///   write copies only the part it changes;
/// * 160 (15.2 KB) once a new object's metadata allocates nothing it
///   does not write: no throwaway name and namespace strings, and one
///   shared empty value per metadata collection until its first write;
/// * 151 (12.1 KB) with interned object ids: controllers key their state
///   by id in hash maps instead of by name in sorted maps, a PLEG group
///   is three allocations instead of four, and a name interned under a
///   second kind shares the first one's string;
/// * 150 (12.1 KB) with a hashed set of netns interface names, per-port
///   grant bitsets and the fabric's VNI slot table.
const MAX_ALLOCS_PER_JOB: u64 = 158;

#[test]
fn a_spike_stays_within_its_allocation_budget() {
    let (allocs0, bytes0) = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let mut admitted = 0;
    for vni in [true, false] {
        let run = run_admission(Pattern::Spike { jobs: JOBS }, vni, 3, 120);
        assert!(run.jobs.iter().all(|j| j.started.is_some() && j.deleted.is_some()));
        admitted += run.jobs.len() as u64;
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes0;
    let (per_job, bytes_per_job) = (allocs / admitted, bytes / admitted);
    println!("{per_job} allocations, {bytes_per_job} bytes per admitted job");
    assert!(
        per_job <= MAX_ALLOCS_PER_JOB,
        "{per_job} allocations per admitted job (budget {MAX_ALLOCS_PER_JOB}; {bytes_per_job} B)"
    );
}
