//! Allocation gate for the steady-state logging hot path.
//!
//! This is a dedicated integration-test binary because `#[global_allocator]`
//! is per-binary: a counting allocator wraps the system one, and the test
//! proves that once the record → flush-drain → digest-fold pipeline is warm
//! (buffer at capacity), pushing thousands more entries through it performs
//! **zero** heap allocations.  `crates/fleet/tests/sink_alloc.rs` extends
//! the gate to the whole per-node analysis sink of a streamed scenario.
//!
//! The binary holds exactly one `#[test]` so no concurrent test can touch
//! the allocator between the two counter reads.

use quanto_core::{EntryKind, LogEntry, OverflowPolicy, RamLogger, StreamDigest};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
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

fn entry(i: u64) -> LogEntry {
    LogEntry {
        kind: EntryKind::PowerState,
        res_id: (i % 4) as u8,
        time_us: i * 17,
        icount: i as u32,
        value: (i % 3) as u32,
    }
}

#[test]
fn steady_state_record_drain_fold_allocates_nothing() {
    const CAP: usize = 64;
    const STEADY_ENTRIES: u64 = 64 * CAP as u64;
    // The sink folds each drained entry into the digest, as the fleet's
    // streaming LiveNode sink does.
    let state = Rc::new(RefCell::new(StreamDigest::new()));
    let tap = state.clone();
    let mut logger = RamLogger::new(CAP, OverflowPolicy::Flush);
    logger.set_sink(Box::new(move |chunk: &[LogEntry]| {
        let mut digest = tap.borrow_mut();
        for entry in chunk {
            digest.fold(entry);
        }
    }));

    // Warm-up: several full overflow cycles, so the RAM buffer sits at its
    // reserved capacity.
    for i in 0..(4 * CAP as u64) {
        logger.record(entry(i));
    }

    // The libtest harness thread occasionally allocates concurrently, so a
    // single measurement can see noise.  A real per-entry allocation would
    // show up in *every* attempt (thousands of counts, proportional to the
    // entries pushed); transient harness noise does not — so the gate is:
    // at least one attempt must observe exactly zero allocations.
    let mut deltas = Vec::with_capacity(5);
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for i in 0..STEADY_ENTRIES {
            logger.record(entry(i));
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        if after == before {
            deltas.clear();
            break;
        }
        deltas.push(after - before);
    }
    assert!(
        deltas.is_empty(),
        "steady-state record→drain→fold allocated in every attempt \
         ({deltas:?} allocations over {STEADY_ENTRIES} entries each)",
    );

    // Sanity: the pipeline actually ran — every recorded entry reached the
    // digest (minus at most one buffer still waiting to flush).
    drop(logger);
    assert!(
        state.borrow().entries() >= STEADY_ENTRIES,
        "sink saw the stream"
    );
}
