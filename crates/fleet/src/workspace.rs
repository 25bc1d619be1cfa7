//! Per-worker simulation workspaces: the allocation pool behind the fleet's
//! steady-state sweep path.
//!
//! A [`SimWorkspace`] owns everything a streaming scenario execution
//! allocates that is *capacity, not state*:
//!
//! * the engine's containers — node storage, id/index maps, the scheduling
//!   heap, the event-dedup slots — via [`net_sim::NetScratch`],
//! * every node's RAM log buffer (recycled through the kernel teardown),
//! * the medium's spatial-index cell grid, and
//! * the per-node analysis slots (`LiveNode`: interval/segment builders,
//!   the stream digest's encode scratch, the observation pool).
//!
//! [`crate::ScenarioResult::execute_streaming_in`] checks these out, runs
//! one scenario, and hands them back — so a worker thread sweeping N
//! scenarios allocates like it ran one.  Reuse is *behaviour-invariant* by
//! construction: every recycled structure goes through a reset seam that
//! restores exactly the state a fresh allocation would have, and the digest
//! pins (which compare pooled runs against cold runs byte for byte) enforce
//! it.
//!
//! Workspaces are deliberately `!Send`-ish in usage: each [`crate::FleetRunner`]
//! worker thread and each `quanto-serve` pool worker owns its own for its
//! whole life, so no synchronization ever touches the pool.

use crate::report::LiveNode;
use net_sim::NetScratch;
use std::cell::RefCell;
use std::rc::Rc;

/// One worker's reusable simulation state (see the module docs).
///
/// The obs counters `workspace.reuses` / `workspace.rebuilds` (emitted by
/// the execution path) attribute how often slots were recycled vs built;
/// `alloc.log_buffers_pooled` tracks the recycled log-buffer pool depth.
#[derive(Default)]
pub struct SimWorkspace {
    /// The torn-down network's allocations (engine containers, log buffers,
    /// spatial index).
    pub(crate) net: NetScratch,
    /// Parked per-node analysis slots, reusable once their sink closures are
    /// gone (`Rc::strong_count == 1`).
    pub(crate) slots: Vec<Rc<RefCell<LiveNode>>>,
}

impl std::fmt::Debug for SimWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorkspace")
            .field("slots", &self.slots.len())
            .field("log_buffers", &self.net.log_buffers())
            .finish()
    }
}

impl SimWorkspace {
    /// An empty workspace — the first scenario through it allocates
    /// normally and seeds the pool.
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// How many per-node analysis slots are currently parked.
    pub fn pooled_slots(&self) -> usize {
        self.slots.len()
    }

    /// How many recycled log-buffer allocations the pool currently holds.
    pub fn pooled_log_buffers(&self) -> usize {
        self.net.log_buffers()
    }
}
