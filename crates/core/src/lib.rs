//! Quanto core: the paper's primary contribution as a reusable library.
//!
//! Quanto (Fonseca, Dutta, Levis, Stoica — OSDI 2008) is a network-wide time
//! and energy profiler for embedded network devices.  It rests on four
//! mechanisms, all of which live in this crate:
//!
//! 1. **Power-state tracking** ([`power_state`]): device drivers expose the
//!    power state of every energy sink through a tiny idempotent interface.
//! 2. **Activity tracking** ([`activity`], [`device`]): programmer-defined
//!    *activities* are the resource principal; labels are propagated across
//!    devices ("painting" them) and across nodes (inside packets), with proxy
//!    activities standing in until an interrupt's real activity is known.
//! 3. **Cheap logging** ([`log`], [`logger`], [`cost`], [`sink`]): every
//!    change is recorded as a 12-byte entry containing the local time and the
//!    iCount energy reading, at a cost of ~102 CPU cycles per sample; the
//!    asynchronous half streams drained chunks through the [`sink::LogSink`]
//!    seam so host-side consumers need not buffer whole logs.
//! 4. **The runtime** ([`runtime`]): the per-node component that ties the
//!    three together and that the instrumented OS calls into.
//!
//! The offline analysis that turns these logs into per-component and
//! per-activity energy breakdowns lives in the `analysis` crate; the
//! simulated platform and OS live in `hw-model`, `energy-meter`, `os-sim`
//! and `net-sim`.

pub mod activity;
pub mod cost;
pub mod device;
pub mod log;
pub mod logger;
pub mod power_state;
pub mod runtime;
pub mod sink;

pub use activity::{ActivityId, ActivityKind, ActivityLabel, ActivityRegistry, NodeId};
pub use cost::{CostModel, CostStats};
pub use device::{DeviceId, DeviceKind, DeviceTable, MultiActivityError};
pub use log::{
    EntryKind, LogEncoding, LogEntry, LogVersion, ENTRY_SIZE_BYTES, ENTRY_SIZE_BYTES_V2, V1, V2,
};
pub use logger::{OverflowPolicy, RamLogger};
pub use power_state::{PowerStateTable, PowerStateTrack, PowerStateValue};
pub use runtime::{
    AccountingMode, OnlineCounters, QuantoRuntime, RuntimeConfig, Stamp, TrackListener,
};
pub use sink::{CountingSink, Fnv, LogSink, StreamDigest, VecSink};
