//! Allocation gate for the whole per-node analysis sink.
//!
//! A dedicated integration-test binary, like
//! `crates/core/tests/counting_alloc.rs`, because `#[global_allocator]` is
//! per-binary.  A counting allocator wraps the system one, and the test
//! runs streamed scenarios through one warmed [`SimWorkspace`] at two run
//! lengths.  Each node's sink folds every entry into the stream digest, the
//! interval builder, the interval stats with their observation pool, and
//! the CPU segment builder; if any of that allocated per entry, the longer
//! run would allocate more.  What a scenario allocates once (its summaries,
//! its regression, the medium) does not depend on the log length.
//!
//! The binary holds exactly one `#[test]` so no concurrent test can touch
//! the allocator between the counter reads.

use hw_model::SimDuration;
use quanto_fleet::{Scenario, ScenarioResult, SimWorkspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation (frees are irrelevant to the
/// gate) and delegates the actual work to the system allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations one streamed run of `scenario` makes on `ws`, with the log
/// entries it produced.  The libtest harness thread occasionally allocates
/// concurrently, so this keeps the smallest count of a few runs: a real
/// per-entry allocation shows up in every run.
fn allocations(ws: &mut SimWorkspace, scenario: &Scenario) -> (u64, u64) {
    let mut best = u64::MAX;
    let mut entries = 0;
    for _ in 0..3 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let result = ScenarioResult::execute_streaming_in(0, scenario.clone(), ws);
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        entries = result.stream_meta().iter().map(|m| m.entries).sum();
        best = best.min(after - before);
    }
    (best, entries)
}

#[test]
fn streamed_scenario_allocations_do_not_grow_with_log_length() {
    let mut ws = SimWorkspace::new();
    let cells = [
        ("lpl", Scenario::lpl(17, 0.18, SimDuration::from_secs(60))),
        ("blink", Scenario::blink(SimDuration::from_secs(60))),
    ];
    for (name, short) in cells {
        let mut long = short.clone();
        long.duration = SimDuration::from_secs(600);
        // Warm the workspace on the longer run, so every pooled buffer has
        // reached the size either run needs.
        ScenarioResult::execute_streaming_in(0, long.clone(), &mut ws);
        let (short_allocs, short_entries) = allocations(&mut ws, &short);
        let (long_allocs, long_entries) = allocations(&mut ws, &long);
        assert!(
            long_entries > 5 * short_entries,
            "{name}: the long run must log far more ({short_entries} vs {long_entries} entries)"
        );
        assert!(
            long_allocs <= short_allocs,
            "{name}: {short_allocs} allocations for {short_entries} entries but \
             {long_allocs} for {long_entries}: the streaming sink allocates per entry"
        );
    }
}
