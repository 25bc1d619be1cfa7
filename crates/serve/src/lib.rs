#![deny(missing_docs)]
//! `quanto-serve`: sweep-as-a-service.
//!
//! The CLI sweep (`fleet_sweep`) and the distributed sweep
//! ([`quanto_fleet::dist`]) both assume one sweep owns the process.  This
//! crate turns the same machinery into a long-lived daemon: many clients
//! submit [`quanto_fleet::GridSpec`] jobs over TCP, all jobs share **one**
//! worker pool, and every client watches its own job's
//! [`quanto_fleet::FleetProgress`] events stream back live.
//!
//! The moving parts, each its own module:
//!
//! * [`Server`] (`listener`) — binds, spawns the pool's workers and the
//!   accept loop, hands back a [`ServerHandle`] for address queries and
//!   clean shutdown;
//! * `registry` — tenancy: job ids, the shared [`quanto_fleet::WorkerPool`]
//!   and result cache, and the daemon counters.  Each submitted grid is one
//!   [`quanto_fleet::Job`] — the same claim queue, reorder buffer and
//!   report fold an in-process `FleetRunner` run uses, so a job's final
//!   stream digest is byte-identical to the same grid run in-process — and
//!   the pool serves every job round-robin under a per-job backpressure
//!   window;
//! * `session` — one thread per connection speaking the JSON-lines client
//!   protocol (`submit` / `partial` / `metrics`, documented with worked
//!   examples in `docs/PROTOCOL.md`), plus a plain-HTTP `GET /metrics`;
//! * `metrics` — renders daemon counters plus the merged
//!   [`quanto_obs::harvest`] registry as deterministic metrics text;
//! * [`client`] — the blocking client `fleet_sweep --server` and the tests
//!   use.
//!
//! Jobs probe the content-addressed [`quanto_fleet::ResultCache`] before
//! queueing work, so a warm cell never occupies a worker.
//!
//! # Example
//!
//! ```
//! use quanto_serve::{client, Server, ServeConfig};
//!
//! let server = Server::bind(
//!     "127.0.0.1:0",
//!     ServeConfig { workers: 2, cache_dir: None },
//! )
//! .unwrap();
//! let handle = server.start();
//! let addr = handle.addr().to_string();
//!
//! let grid = "[grid]\nname = docs\nseconds = 1\n\n[cell.idle]\napp = idle\n";
//! let outcome = client::run_sweep(&addr, grid, &Default::default(), |_event| {}).unwrap();
//! assert_eq!(outcome.total, 1);
//! assert!(client::digest_of(&outcome.summary).is_some());
//! handle.shutdown();
//! ```

mod listener;
mod metrics;
mod registry;
mod session;

pub mod client;

pub use listener::{Server, ServerHandle};

use std::path::PathBuf;

/// Version stamp of the client wire protocol.  Every `submit` request
/// carries it; a mismatch is rejected before any work is queued.  Bump it
/// when a message shape changes incompatibly (see `docs/PROTOCOL.md`).
pub const PROTO_VERSION: u64 = 1;

/// How a [`Server`] runs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads in the shared pool (minimum 1).  Every job's chunks
    /// are served from this one pool, round-robin across active jobs.
    pub workers: usize,
    /// Result-cache directory probed before queueing and written back to
    /// after simulating; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    /// One worker per available core, no cache.
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cache_dir: None,
        }
    }
}
