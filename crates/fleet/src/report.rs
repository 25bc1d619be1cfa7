//! Per-scenario results and the merged fleet report.
//!
//! Every scenario runs on one *zero-materialization* path
//! ([`ScenarioResult::execute_streaming_in`]): each node gets a
//! [`quanto_core::LogSink`] that drives the incremental analysis builders
//! (`TimeUnwrapper` → `IntervalBuilder`, plus a `SegmentBuilder` over the
//! CPU device) and a [`StreamDigest`] *while the simulation runs*.  What
//! survives per node is O(1): the summary, the entry count and the FNV
//! digest over the entry stream ([`NodeStreamMeta`]).
//!
//! The [`crate::FleetRunner`] retention mode only decides what is kept
//! besides:
//!
//! * [`crate::Retention::Stream`] (default) — nothing; no
//!   [`NodeRunOutput::log`] is ever built;
//! * [`crate::Retention::Raw`] — the same run with a collecting tap on each
//!   node's sink, whose entries become the node's [`NodeRunOutput::log`],
//!   kept with the node's `ExperimentContext` for re-analysis (the figure
//!   binaries).  The oscilloscope probe stays detached, so a raw output's
//!   `trace` is empty.
//!
//! [`FleetReport::digest`] is the one determinism digest: it folds the
//! per-node stream residues in submission order during the merge, so it is
//! identical at any thread count and in either retention mode.

use crate::cache::CacheStats;
use crate::runner::Retention;
use crate::scenario::Scenario;
use crate::wire::{push_json_str, Value};
use crate::workspace::SimWorkspace;
use analysis::{pct, PowerInterval, SegmentBuilder};
use analysis::{regress, IntervalBuilder, ObservationPool, RegressionOptions, TextTable};
use hw_model::catalog::radio_rx_state;
use hw_model::{Catalog, Energy, Power, SimDuration, SimTime, SinkId};
use net_sim::DeliveryCounters;
use os_sim::drivers::RadioStats;
use os_sim::NodeRunOutput;
use quanto_apps::ExperimentContext;
use quanto_core::{Fnv, LogEncoding, LogEntry, LogSink, NodeId, Stamp, StreamDigest, VecSink};
use std::cell::RefCell;
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

/// The analysis-pipeline summary of one node of one scenario.
#[derive(Debug, Clone)]
pub struct NodeSummary {
    /// Which node.
    pub node: NodeId,
    /// Surviving Quanto log entries.
    pub log_entries: usize,
    /// Entries the logger dropped.
    pub log_dropped: u64,
    /// Average metered power over the run.
    pub average_power: Power,
    /// Total metered energy over the run.
    pub total_energy: Energy,
    /// Fraction of time the radio RX path was in LISTEN.
    pub radio_duty_cycle: f64,
    /// Packets fully transmitted.
    pub packets_sent: u64,
    /// Packets fully received.
    pub packets_received: u64,
    /// LPL wake-ups that detected energy but received nothing.
    pub false_wakeups: u64,
    /// Relative error of the per-state power regression, when the run
    /// exercised enough states for it to be solvable.
    pub regression_error: Option<f64>,
    /// Closed CPU activity segments (streamed through the incremental
    /// `SegmentBuilder` on the zero-materialization path) — how often the
    /// CPU's attributed activity changed over the run.
    pub cpu_segments: u64,
}

/// The O(1)-per-node residue of a scenario's log stream: enough to prove
/// byte-identity of two executions (equal counts and equal FNV digests over
/// the encoded entries mean equal streams) and to fold the report digest,
/// without retaining a single entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStreamMeta {
    /// Which node.
    pub node: NodeId,
    /// Surviving entries that flowed through the node's sink.
    pub entries: u64,
    /// FNV-1a digest over the encoded bytes of every surviving entry, in
    /// log order (see [`quanto_core::StreamDigest`]).
    pub entry_digest: u64,
    /// The end-of-run (time, iCount) stamp.
    pub final_stamp: Stamp,
    /// Entries the logger dropped.
    pub log_dropped: u64,
    /// The node's radio counters.
    pub radio_stats: RadioStats,
    /// Ground-truth total energy over the run.
    pub ground_truth_total: Energy,
}

/// Why a raw-output lookup on a [`ScenarioResult`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawAccessError {
    /// The scenario ran without keeping raw outputs (the default).  Build
    /// the runner with [`crate::FleetRunner::retain_raw`] to keep them.
    NotRetained {
        /// The scenario whose raw outputs were requested.
        scenario: String,
    },
    /// The scenario never ran a node with this id.
    UnknownNode {
        /// The scenario whose raw outputs were requested.
        scenario: String,
        /// The id that was asked for.
        node: NodeId,
        /// The ids the scenario did run.
        known: Vec<NodeId>,
    },
}

impl fmt::Display for RawAccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RawAccessError::NotRetained { scenario } => write!(
                f,
                "raw outputs of scenario {scenario:?} were not retained; \
                 build the runner with FleetRunner::retain_raw() to keep them"
            ),
            RawAccessError::UnknownNode {
                scenario,
                node,
                known,
            } => write!(
                f,
                "scenario {scenario:?} ran no node {node}; it ran {known:?}"
            ),
        }
    }
}

impl std::error::Error for RawAccessError {}

/// Why a delivery-counter lookup on a [`ScenarioResult`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterAccessError {
    /// The scenario whose counters were requested.
    pub scenario: String,
    /// The medium kind that ran it.
    pub medium: &'static str,
}

impl fmt::Display for CounterAccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the {:?} medium of scenario {:?} does not track delivery counters; \
             run the scenario under a geometric medium (unit_disk, path_loss or \
             mobility) to get delivery/loss/capture counts",
            self.medium, self.scenario
        )
    }
}

impl std::error::Error for CounterAccessError {}

/// The raw per-node data of one executed scenario, kept only under
/// [`Retention::Raw`].  Each output's `log` is what the node's collecting
/// tap saw; its oscilloscope `trace` is empty (the probe is detached).
#[derive(Debug)]
pub struct RawScenarioOutputs {
    /// Raw per-node outputs, in node insertion order.
    pub outputs: Vec<(NodeId, NodeRunOutput)>,
    /// Per-node analysis contexts, in the same order.
    pub contexts: Vec<(NodeId, ExperimentContext)>,
}

/// One executed scenario: the analysis summary, plus the raw outputs when
/// they are retained.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Position of the scenario in the submitted batch (reports are always
    /// ordered by it, whatever thread ran what).
    pub index: usize,
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Per-node summaries, in node insertion order.
    pub summaries: Vec<NodeSummary>,
    /// The medium kind the scenario ran under (`"ideal"`, `"unit_disk"`, …).
    pub medium_kind: &'static str,
    /// The medium's delivery counters; `None` when the medium does not track
    /// them (the ideal medium) — read through
    /// [`ScenarioResult::medium_counters`].
    medium_counters: Option<DeliveryCounters>,
    /// Per-node stream residues (entry counts, stream digests, end-of-run
    /// stamps and stats) — present in every retention mode.
    stream: Vec<NodeStreamMeta>,
    /// Raw outputs; `Some` only under [`Retention::Raw`].
    raw: Option<RawScenarioOutputs>,
    /// Whether this result was rebuilt from the result cache instead of
    /// simulated ([`ScenarioResult::from_record`]).
    cache_hit: bool,
}

/// The live per-node analysis state a streaming scenario's sink drives:
/// every entry is folded as the logger drains, in one pass, so memory is
/// bounded by the builders' *open* state, never by the log length.
///
/// Pooled by [`crate::workspace::SimWorkspace`]: between scenarios
/// [`LiveNode::reset`] returns the builders to boot state while keeping
/// the segment builder's buffers, so the steady-state sweep path builds no
/// per-node state.
pub(crate) struct LiveNode {
    catalog: Arc<Catalog>,
    radio_rx: SinkId,
    energy_per_count: Energy,
    digest: StreamDigest,
    builder: IntervalBuilder,
    segments: SegmentBuilder,
    stats: IntervalStats,
    cpu_segments: u64,
    /// Log-drain chunks this sink consumed (a plain count the obs layer
    /// reads after the run; never branches on the hot path).
    chunks: u64,
}

impl LiveNode {
    /// Fresh analysis state for one node (first use of a workspace slot).
    fn new(
        catalog: Arc<Catalog>,
        radio_rx: SinkId,
        energy_per_count: Energy,
        cpu_dev: quanto_core::DeviceId,
        encoding: LogEncoding,
    ) -> Self {
        LiveNode {
            radio_rx,
            energy_per_count,
            digest: StreamDigest::with_encoding(encoding),
            builder: IntervalBuilder::new(&catalog),
            segments: SegmentBuilder::new(cpu_dev, false),
            stats: IntervalStats::new(),
            cpu_segments: 0,
            chunks: 0,
            catalog,
        }
    }

    /// Returns the slot to the state [`LiveNode::new`] would build for the
    /// given node, keeping every allocation.  Behaviour-identical to a fresh
    /// slot: the builders' reset seams restore boot state exactly, and the
    /// digest/stats are plain `Copy` re-initializations.
    fn reset(
        &mut self,
        catalog: Arc<Catalog>,
        radio_rx: SinkId,
        energy_per_count: Energy,
        cpu_dev: quanto_core::DeviceId,
        encoding: LogEncoding,
    ) {
        self.radio_rx = radio_rx;
        self.energy_per_count = energy_per_count;
        self.digest = StreamDigest::with_encoding(encoding);
        self.builder.reset(&catalog);
        self.segments.reset_for(cpu_dev);
        self.stats.reset();
        self.cpu_segments = 0;
        self.chunks = 0;
        self.catalog = catalog;
    }

    /// Consumes one chunk in one pass: each entry folds into the digest,
    /// closes at most one power interval into the stats, and feeds the CPU
    /// segment builder.
    fn accept(&mut self, chunk: &[LogEntry]) {
        self.chunks += 1;
        for entry in chunk {
            self.digest.fold(entry);
            if let Some(iv) = self.builder.push(entry) {
                self.stats.absorb(&iv, self.radio_rx, self.energy_per_count);
            }
            self.segments.push(entry);
        }
        self.cpu_segments += self.segments.drain_completed().count() as u64;
    }

    /// Closes both builders at the end-of-run stamp.
    fn close(&mut self, final_stamp: Stamp) {
        if let Some(iv) = self.builder.flush(Some(final_stamp)) {
            self.stats.absorb(&iv, self.radio_rx, self.energy_per_count);
        }
        self.segments.flush(Some(final_stamp));
        self.cpu_segments += self.segments.drain_completed().count() as u64;
    }
}

impl ScenarioResult {
    /// Builds, boots, runs and analyzes one scenario on the
    /// *zero-materialization* path: every node's logger streams its drains
    /// through a sink that drives the entry digest, the interval builder and
    /// the CPU segment builder during the run, the oscilloscope probe is
    /// detached, and no [`NodeRunOutput::log`] is ever built.
    ///
    /// The simulation is built from the pooled workspace's recycled
    /// allocations (engine containers, per-node log buffers, the
    /// spatial-index grid), and its per-node analysis slots are
    /// reset-and-reused instead of rebuilt.  Behaviour-identical to a fresh
    /// workspace — every reset seam restores boot state exactly, which the
    /// digest pins prove — so the only observable difference is allocator
    /// traffic.  Pass `&mut SimWorkspace::new()` for a one-off run.
    pub fn execute_streaming_in(
        index: usize,
        scenario: Scenario,
        ws: &mut SimWorkspace,
    ) -> ScenarioResult {
        ScenarioResult::simulate(index, scenario, Retention::Stream, ws)
    }

    /// The one function that simulates a scenario.  [`Retention::Raw`] is
    /// the [`ScenarioResult::execute_streaming_in`] run plus a collecting
    /// tap in each node's sink closure and each node's `ExperimentContext`,
    /// captured before `finish`; the stream path's closures carry no tap, so
    /// it pays nothing per entry for the option.
    pub(crate) fn simulate(
        index: usize,
        scenario: Scenario,
        retention: Retention,
        ws: &mut SimWorkspace,
    ) -> ScenarioResult {
        let kind = scenario.app.kind();
        let _scenario_span = quanto_obs::span_with("scenario", &scenario.name);
        let build_span = quanto_obs::span_with("build", kind);
        let mut net = scenario.build_in(&mut ws.net);
        net.set_trace_recording(false);
        let node_ids = scenario.node_ids();
        let encoding = scenario.log_encoding();
        let mut live: Vec<(NodeId, Rc<RefCell<LiveNode>>)> = Vec::with_capacity(node_ids.len());
        // Raw retention's collecting taps, in node order (never allocated on
        // the stream path).
        let mut taps: Vec<Rc<RefCell<VecSink>>> = Vec::new();
        let mut reuses = 0u64;
        let mut rebuilds = 0u64;
        for id in node_ids {
            let kernel = net.node(id).expect("scenario node exists").kernel();
            let catalog = kernel.catalog().clone();
            let (cpu_dev, ..) = kernel.device_ids();
            let radio_rx = kernel.sink_ids().radio_rx;
            let energy_per_count = kernel.config().icount.nominal_energy_per_pulse;
            // A pooled slot is reusable only once its previous sink closure
            // is gone (strong count back to 1); anything else — e.g. a slot
            // checked out when a build panicked mid-scenario — is discarded.
            let node = match ws.slots.pop() {
                Some(slot) if Rc::strong_count(&slot) == 1 => {
                    slot.borrow_mut()
                        .reset(catalog, radio_rx, energy_per_count, cpu_dev, encoding);
                    reuses += 1;
                    slot
                }
                _ => {
                    rebuilds += 1;
                    Rc::new(RefCell::new(LiveNode::new(
                        catalog,
                        radio_rx,
                        energy_per_count,
                        cpu_dev,
                        encoding,
                    )))
                }
            };
            let live_node = node.clone();
            let sink: Box<dyn LogSink> = match retention {
                Retention::Stream => {
                    Box::new(move |chunk: &[LogEntry]| live_node.borrow_mut().accept(chunk))
                }
                Retention::Raw => {
                    let tap = Rc::new(RefCell::new(VecSink::new()));
                    taps.push(tap.clone());
                    Box::new(move |chunk: &[LogEntry]| {
                        live_node.borrow_mut().accept(chunk);
                        tap.borrow_mut().accept(chunk);
                    })
                }
            };
            net.set_node_log_sink(id, sink);
            live.push((id, node));
        }
        quanto_obs::counter_add("workspace.reuses", reuses);
        quanto_obs::counter_add("workspace.rebuilds", rebuilds);
        drop(build_span);
        let run_span = quanto_obs::span_with("run", kind);
        let end = SimTime::ZERO + scenario.duration;
        net.run_until(end);
        drop(run_span);
        let _analyze_span = quanto_obs::span_with("analyze", kind);
        let contexts: Vec<(NodeId, ExperimentContext)> = match retention {
            Retention::Stream => Vec::new(),
            Retention::Raw => live
                .iter()
                .map(|(id, _)| {
                    let kernel = net.node(*id).expect("scenario node exists").kernel();
                    (*id, ExperimentContext::from_kernel(kernel))
                })
                .collect(),
        };
        let medium_counters = net.medium_counters();
        // `finish` drains each logger's tail through its sink; the outputs
        // come back with empty logs and tiny traces.
        let outputs = net.finish(end);
        flush_obs_metrics(&net);
        // Tear the simulation down (sinks included) while the analyze span
        // is still open — the implicit end-of-function drop would land
        // between spans and show up as unattributed busy time in the
        // profile.  The allocations land in the workspace instead of the
        // allocator, ready for the next scenario.
        net.reset_into(&mut ws.net);
        quanto_obs::counter_add("alloc.log_buffers_pooled", ws.net.log_buffers() as u64);
        let mut summaries = Vec::with_capacity(outputs.len());
        let mut stream = Vec::with_capacity(outputs.len());
        for ((id, out), (live_id, node)) in outputs.iter().zip(live.iter()) {
            debug_assert_eq!(id, live_id, "outputs follow node insertion order");
            debug_assert!(out.log.is_empty(), "sink mode must not materialize logs");
            let mut node = node.borrow_mut();
            node.close(out.final_stamp);
            quanto_obs::counter_add("stream.chunks", node.chunks);
            quanto_obs::counter_add("stream.entries", node.digest.entries());
            let regression_error = regress(
                &node.stats.pool.observations(node.energy_per_count),
                &node.catalog,
                RegressionOptions::default(),
            )
            .ok()
            .map(|r| r.relative_error);
            summaries.push(NodeSummary {
                node: *id,
                log_entries: node.digest.entries() as usize,
                log_dropped: out.log_dropped,
                average_power: node.stats.average_power(node.energy_per_count),
                total_energy: node.stats.energy,
                radio_duty_cycle: node.stats.radio_duty_cycle(),
                packets_sent: out.radio_stats.packets_sent,
                packets_received: out.radio_stats.packets_received,
                false_wakeups: out.radio_stats.false_wakeups,
                regression_error,
                cpu_segments: node.cpu_segments,
            });
            stream.push(NodeStreamMeta {
                node: *id,
                entries: node.digest.entries(),
                entry_digest: node.digest.digest(),
                final_stamp: out.final_stamp,
                log_dropped: out.log_dropped,
                radio_stats: out.radio_stats,
                ground_truth_total: out.ground_truth.total,
            });
        }
        // Hand every slot back for the next scenario through this workspace
        // (the sinks died with the net, so each is reusable again).
        for (_, node) in live {
            ws.slots.push(node);
        }
        // The sinks died with the net, so each tap's log can move out.
        let raw = match retention {
            Retention::Stream => None,
            Retention::Raw => Some(RawScenarioOutputs {
                outputs: outputs
                    .into_iter()
                    .zip(taps)
                    .map(|((id, mut out), tap)| {
                        out.log = tap.take().into_entries();
                        (id, out)
                    })
                    .collect(),
                contexts,
            }),
        };
        let medium_kind = scenario.medium.kind();
        ScenarioResult {
            index,
            scenario,
            summaries,
            medium_kind,
            medium_counters,
            stream,
            raw,
            cache_hit: false,
        }
    }

    /// The per-node stream residues (entry counts, entry digests, stamps) —
    /// available in every retention mode, and byte-comparable across them.
    pub fn stream_meta(&self) -> &[NodeStreamMeta] {
        &self.stream
    }

    /// Whether this result was rebuilt from the result cache rather than
    /// simulated.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Appends this result's record (PROTOCOL.md §5) to `out`: one compact
    /// JSON object, no newline, holding everything
    /// [`ScenarioResult::fold_stream_digest`] folds and the reports render,
    /// with every `f64` as its IEEE-754 bit pattern.  Raw outputs are not
    /// written: a record rebuilds only a stream-retention result.
    pub(crate) fn push_record(&self, out: &mut String) {
        out.push_str("{\"s\":[");
        for (i, s) in self.summaries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"n\":{},\"e\":{},\"d\":{},\"p\":{},\"te\":{},\"dc\":{},\
                 \"ps\":{},\"pr\":{},\"fw\":{},\"re\":",
                s.node.as_u32(),
                s.log_entries,
                s.log_dropped,
                s.average_power.as_micro_watts().to_bits(),
                s.total_energy.as_micro_joules().to_bits(),
                s.radio_duty_cycle.to_bits(),
                s.packets_sent,
                s.packets_received,
                s.false_wakeups,
            );
            match s.regression_error {
                Some(error) => {
                    let _ = write!(out, "{}", error.to_bits());
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"cs\":{}}}", s.cpu_segments);
        }
        out.push_str("],\"m\":[");
        for (i, m) in self.stream.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let rs = &m.radio_stats;
            let _ = write!(
                out,
                "{{\"n\":{},\"e\":{},\"g\":{},\"t\":{},\"i\":{},\"d\":{},\
                 \"rs\":[{},{},{},{},{},{}],\"gt\":{}}}",
                m.node.as_u32(),
                m.entries,
                m.entry_digest,
                m.final_stamp.time.as_micros(),
                m.final_stamp.icount,
                m.log_dropped,
                rs.packets_sent,
                rs.packets_received,
                rs.clean_wakeups,
                rs.false_wakeups,
                rs.rx_wakeups,
                rs.busy_backoffs,
                m.ground_truth_total.as_micro_joules().to_bits(),
            );
        }
        out.push_str("],\"c\":");
        match &self.medium_counters {
            Some(c) => {
                let _ = write!(
                    out,
                    "{{\"dl\":{},\"lr\":{},\"ls\":{},\"lc\":{},\"ce\":{},\"pc\":{}}}",
                    c.delivered,
                    c.lost_out_of_range,
                    c.lost_below_sensitivity,
                    c.lost_captured,
                    c.candidates_examined,
                    c.pruned_by_cutoff,
                );
            }
            None => out.push_str("null"),
        }
        out.push('}');
    }

    /// Rebuilds a result from its record (PROTOCOL.md §5) without running
    /// anything, restoring every float from its bit pattern so the digest
    /// fold is byte-identical to the original execution.  Total: a missing
    /// key, a wrong shape, a short `rs` array or an integer out of its
    /// field's range gives `None`.  So does a record that does not describe
    /// `scenario` — its node ids must be the scenario's, in order, and it
    /// must carry delivery counters exactly when the scenario's medium
    /// tracks them — which makes a stale or aliased cache entry a miss and
    /// a skewed shard a broken one instead of corrupting the report.
    pub(crate) fn from_record(
        index: usize,
        scenario: Scenario,
        record: &Value,
        cache_hit: bool,
    ) -> Option<ScenarioResult> {
        let node_ids = scenario.node_ids();
        // The per-node array under `key`, when its `n` fields are the
        // scenario's node ids.
        let nodes = |key| {
            let items = record.get(key)?.as_arr()?;
            let ids_match = items.len() == node_ids.len()
                && items
                    .iter()
                    .zip(&node_ids)
                    .all(|(item, id)| item.get_u64("n") == Some(u64::from(id.as_u32())));
            ids_match.then_some(items)
        };
        let float = |v: &Value, key| v.get_u64(key).map(f64::from_bits);
        let summaries = nodes("s")?
            .iter()
            .zip(&node_ids)
            .map(|(s, &node)| {
                Some(NodeSummary {
                    node,
                    log_entries: usize::try_from(s.get_u64("e")?).ok()?,
                    log_dropped: s.get_u64("d")?,
                    average_power: Power::from_micro_watts(float(s, "p")?),
                    total_energy: Energy::from_micro_joules(float(s, "te")?),
                    radio_duty_cycle: float(s, "dc")?,
                    packets_sent: s.get_u64("ps")?,
                    packets_received: s.get_u64("pr")?,
                    false_wakeups: s.get_u64("fw")?,
                    regression_error: s.get_opt_u64("re")?.map(f64::from_bits),
                    cpu_segments: s.get_u64("cs")?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let stream = nodes("m")?
            .iter()
            .zip(&node_ids)
            .map(|(m, &node)| {
                let [sent, received, clean, false_wakeups, rx, busy] = m.get("rs")?.as_arr()?
                else {
                    return None;
                };
                Some(NodeStreamMeta {
                    node,
                    entries: m.get_u64("e")?,
                    entry_digest: m.get_u64("g")?,
                    final_stamp: Stamp::new(
                        SimTime::from_micros(m.get_u64("t")?),
                        u32::try_from(m.get_u64("i")?).ok()?,
                    ),
                    log_dropped: m.get_u64("d")?,
                    radio_stats: RadioStats {
                        packets_sent: sent.as_u64()?,
                        packets_received: received.as_u64()?,
                        clean_wakeups: clean.as_u64()?,
                        false_wakeups: false_wakeups.as_u64()?,
                        rx_wakeups: rx.as_u64()?,
                        busy_backoffs: busy.as_u64()?,
                    },
                    ground_truth_total: Energy::from_micro_joules(float(m, "gt")?),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let medium_kind = scenario.medium.kind();
        let medium_counters = match (record.get("c")?, medium_kind) {
            (Value::Null, "ideal") => None,
            (c, kind) if kind != "ideal" => Some(DeliveryCounters {
                delivered: c.get_u64("dl")?,
                lost_out_of_range: c.get_u64("lr")?,
                lost_below_sensitivity: c.get_u64("ls")?,
                lost_captured: c.get_u64("lc")?,
                candidates_examined: c.get_u64("ce")?,
                pruned_by_cutoff: c.get_u64("pc")?,
            }),
            _ => return None,
        };
        Some(ScenarioResult {
            index,
            scenario,
            summaries,
            medium_kind,
            medium_counters,
            stream,
            raw: None,
            cache_hit,
        })
    }

    /// The medium's delivery/loss/capture counters, or a descriptive error
    /// when the scenario's medium does not track them (the ideal medium).
    pub fn medium_counters(&self) -> Result<&DeliveryCounters, CounterAccessError> {
        self.medium_counters
            .as_ref()
            .ok_or_else(|| CounterAccessError {
                scenario: self.scenario.name.clone(),
                medium: self.medium_kind,
            })
    }

    /// Whether the scenario's medium tracked delivery counters.
    pub fn has_medium_counters(&self) -> bool {
        self.medium_counters.is_some()
    }

    /// The raw per-node data, while retained.
    pub fn raw(&self) -> Option<&RawScenarioOutputs> {
        self.raw.as_ref()
    }

    /// Whether the raw outputs are still retained.
    pub fn has_raw(&self) -> bool {
        self.raw.is_some()
    }

    /// Total surviving log entries this scenario produced, whether or not
    /// they were also collected.
    pub(crate) fn total_entries(&self) -> u64 {
        self.stream.iter().map(|m| m.entries).sum()
    }

    /// The raw output of one node.
    pub fn output(&self, id: NodeId) -> Result<&NodeRunOutput, RawAccessError> {
        let raw = self
            .raw
            .as_ref()
            .ok_or_else(|| RawAccessError::NotRetained {
                scenario: self.scenario.name.clone(),
            })?;
        raw.outputs
            .iter()
            .find(|(n, _)| *n == id)
            .map(|(_, o)| o)
            .ok_or_else(|| RawAccessError::UnknownNode {
                scenario: self.scenario.name.clone(),
                node: id,
                known: raw.outputs.iter().map(|(n, _)| *n).collect(),
            })
    }

    /// The analysis context of one node.
    pub fn context(&self, id: NodeId) -> Result<&ExperimentContext, RawAccessError> {
        let raw = self
            .raw
            .as_ref()
            .ok_or_else(|| RawAccessError::NotRetained {
                scenario: self.scenario.name.clone(),
            })?;
        raw.contexts
            .iter()
            .find(|(n, _)| *n == id)
            .map(|(_, c)| c)
            .ok_or_else(|| RawAccessError::UnknownNode {
                scenario: self.scenario.name.clone(),
                node: id,
                known: raw.contexts.iter().map(|(n, _)| *n).collect(),
            })
    }

    /// The summary of one node, if it ran in this scenario.  Available in
    /// every retention mode.
    pub fn summary(&self, id: NodeId) -> Option<&NodeSummary> {
        self.summaries.iter().find(|s| s.node == id)
    }

    /// Decomposes a single-node result into its owned parts
    /// `(node, output, context)` — the shape the `quanto-apps` analyzers
    /// take.
    ///
    /// # Panics
    ///
    /// Panics if the scenario ran more than one node, or if the raw outputs
    /// were not retained (build the runner with
    /// [`crate::FleetRunner::retain_raw`]).
    pub fn into_single_node_parts(self) -> (NodeId, NodeRunOutput, ExperimentContext) {
        let name = self.scenario.name;
        let mut raw = self.raw.unwrap_or_else(|| {
            panic!(
                "into_single_node_parts on scenario {name:?} whose raw outputs were \
                 not retained; build the runner with FleetRunner::retain_raw()"
            )
        });
        assert_eq!(
            raw.outputs.len(),
            1,
            "into_single_node_parts on {}-node scenario {name:?}",
            raw.outputs.len(),
        );
        let (id, output) = raw.outputs.remove(0);
        let (_, context) = raw.contexts.remove(0);
        (id, output, context)
    }

    /// Folds this result into the report digest: the scenario's name and
    /// index, each node's `(count, entry digest)` residue — computable
    /// without ever materializing the log, yet sensitive to any byte-level
    /// divergence in the entry stream — its end-of-run stamp and stats, the
    /// summaries' floats as bit patterns, and the medium's counters.
    pub(crate) fn fold_stream_digest(&self, h: &mut Fnv) {
        h.write(self.scenario.name.as_bytes());
        h.write(&(self.index as u64).to_le_bytes());
        for m in &self.stream {
            fold_node_id(h, m.node);
            h.write(&m.entries.to_le_bytes());
            h.write(&m.entry_digest.to_le_bytes());
            h.write(&m.final_stamp.time.as_micros().to_le_bytes());
            h.write(&m.final_stamp.icount.to_le_bytes());
            h.write(&m.log_dropped.to_le_bytes());
            h.write(&m.radio_stats.packets_sent.to_le_bytes());
            h.write(&m.radio_stats.packets_received.to_le_bytes());
            h.write(&m.radio_stats.false_wakeups.to_le_bytes());
            h.write(
                &m.ground_truth_total
                    .as_micro_joules()
                    .to_bits()
                    .to_le_bytes(),
            );
        }
        for s in &self.summaries {
            h.write(&s.average_power.as_micro_watts().to_bits().to_le_bytes());
            h.write(&s.total_energy.as_micro_joules().to_bits().to_le_bytes());
            h.write(&s.radio_duty_cycle.to_bits().to_le_bytes());
            h.write(&s.cpu_segments.to_le_bytes());
        }
        if let Some(c) = &self.medium_counters {
            h.write(self.medium_kind.as_bytes());
            h.write(&c.delivered.to_le_bytes());
            h.write(&c.lost_out_of_range.to_le_bytes());
            h.write(&c.lost_below_sensitivity.to_le_bytes());
            h.write(&c.lost_captured.to_le_bytes());
        }
    }
}

/// Folds a finished scenario's engine and medium effort counters into the
/// calling thread's obs registry.  The counters themselves are plain
/// unconditional increments inside the simulators (no obs branching on any
/// hot path); this read-out is the only obs-gated code, so an obs-off run
/// takes exactly the same simulation path as an obs-on run.
fn flush_obs_metrics(net: &net_sim::NetSim) {
    if !quanto_obs::enabled() {
        return;
    }
    let s = net.engine().stats();
    quanto_obs::counter_add("engine.events_dispatched", s.events_dispatched);
    quanto_obs::counter_add("engine.heap_pushes", s.heap_pushes);
    quanto_obs::counter_add("engine.heap_pops", s.heap_pops);
    quanto_obs::counter_add("engine.stale_pops", s.stale_pops);
    quanto_obs::counter_add("engine.dedup_hits", s.dedup_hits);
    if let Some(c) = net.medium_counters() {
        quanto_obs::counter_add("medium.candidates_examined", c.candidates_examined);
        quanto_obs::counter_add("medium.pruned_by_cutoff", c.pruned_by_cutoff);
    }
    if let Some(e) = net.medium_effort() {
        quanto_obs::counter_add("medium.fades_hashed", e.fades_hashed);
        quanto_obs::counter_add("medium.cca_early_outs", e.cca_early_outs);
    }
}

/// Folds one node id into a digest.  Ids in the v1 range keep their
/// historical single byte, so every digest pin holds; wider ids write the
/// `0xFF` escape byte (never a plain id — v1 caps at 254) followed by the
/// full little-endian id.
fn fold_node_id(h: &mut Fnv, id: NodeId) {
    if id.fits_v1() {
        h.write(&[id.as_u32() as u8]);
    } else {
        h.write(&[0xFF]);
        h.write(&id.as_u32().to_le_bytes());
    }
}

/// Streaming accumulators over completed power intervals: every functional
/// the summary needs, folded interval-by-interval with *exactly* the
/// floating-point operation order of the batch `analysis` helpers (the
/// digest folds these floats, so bit-equality matters).
struct IntervalStats {
    counts: u64,
    time: SimDuration,
    duty_active_us: u64,
    duty_total_us: u64,
    energy: Energy,
    pool: ObservationPool,
}

impl IntervalStats {
    fn new() -> Self {
        IntervalStats {
            counts: 0,
            time: SimDuration::ZERO,
            duty_active_us: 0,
            duty_total_us: 0,
            energy: Energy::ZERO,
            pool: ObservationPool::new(),
        }
    }

    /// Zeroes every accumulator and empties the observation pool — the
    /// workspace-reset counterpart of [`IntervalStats::new`].
    fn reset(&mut self) {
        self.counts = 0;
        self.time = SimDuration::ZERO;
        self.duty_active_us = 0;
        self.duty_total_us = 0;
        self.energy = Energy::ZERO;
        self.pool.clear();
    }

    fn absorb(&mut self, iv: &PowerInterval, radio_rx: SinkId, energy_per_count: Energy) {
        self.counts += iv.counts as u64;
        self.time += iv.duration();
        let d = iv.duration().as_micros();
        self.duty_total_us += d;
        if iv
            .states
            .get(radio_rx.as_usize())
            .map(|s| *s == radio_rx_state::LISTEN)
            .unwrap_or(false)
        {
            self.duty_active_us += d;
        }
        self.energy += energy_per_count * iv.counts as f64;
        self.pool.add(iv);
    }

    fn average_power(&self, energy_per_count: Energy) -> Power {
        if self.time.is_zero() {
            Power::ZERO
        } else {
            (energy_per_count * self.counts as f64) / self.time
        }
    }

    fn radio_duty_cycle(&self) -> f64 {
        if self.duty_total_us == 0 {
            0.0
        } else {
            self.duty_active_us as f64 / self.duty_total_us as f64
        }
    }
}

/// The merged, deterministically-ordered outcome of a scenario batch.
#[derive(Debug)]
pub struct FleetReport {
    /// One result per submitted scenario, in submission order.
    pub results: Vec<ScenarioResult>,
    /// How many worker threads executed the batch.
    pub threads: usize,
    /// Host wall-clock time the batch took.
    pub wall_clock: std::time::Duration,
    /// The stream digest, folded in submission order during the merge.
    digest: u64,
    /// High-water mark of raw log entries held at once during the run.
    peak_entries_held: u64,
    /// Total raw log entries across every scenario of the batch.
    total_log_entries: u64,
    /// Result-cache traffic for the batch; `None` when no cache was in
    /// play.
    cache: Option<CacheStats>,
}

impl FleetReport {
    /// Looks a result up by scenario name (the first submission wins on
    /// duplicate names).
    pub fn result(&self, name: &str) -> Option<&ScenarioResult> {
        self.results.iter().find(|r| r.scenario.name == name)
    }

    /// Consumes the report, returning the results in submission order.
    pub fn into_results(self) -> Vec<ScenarioResult> {
        self.results
    }

    /// The batch's determinism digest: an FNV-1a fold, in submission order,
    /// of every scenario's per-node stream residues (entry counts and entry
    /// digests), stamps, summaries and medium counters — and nothing
    /// host-dependent (thread count and wall clock are excluded), so a batch
    /// run with 1 thread and with N threads must produce identical digests.
    /// Identical in either retention mode: both fold what the sinks saw.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// High-water mark of raw log entries held at once during the run.  On
    /// the default zero-materialization path this is *zero* — no entry is
    /// ever held — which is exactly what the smoke retention gate asserts.
    /// [`Retention::Raw`] releases nothing, so its peak is the whole batch.
    pub fn peak_entries_held(&self) -> u64 {
        self.peak_entries_held
    }

    /// Total surviving log entries produced across the whole batch.
    pub fn total_log_entries(&self) -> u64 {
        self.total_log_entries
    }

    /// Result-cache traffic for the batch (`None` when no cache was in
    /// play).  `hits` of them skipped simulation entirely; on a fully warm
    /// re-run `misses` is zero.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache
    }

    /// Stamps the report with its result-cache traffic (set by the sweep
    /// drivers that own the cache handle).
    pub fn set_cache_stats(&mut self, stats: CacheStats) {
        self.cache = Some(stats);
    }

    /// Renders the per-scenario summary table the sweep binaries print.
    pub fn summary_table(&self) -> String {
        let mut t = TextTable::new(vec![
            "#",
            "Scenario",
            "Medium",
            "Node",
            "Entries",
            "Avg power (mW)",
            "Energy (mJ)",
            "RX duty",
            "Sent",
            "Rcvd",
            "False wk",
            "Dlvd/Lost",
        ])
        .with_title(format!(
            "Fleet report — {} scenarios on {} thread(s) in {:.1?}",
            self.results.len(),
            self.threads,
            self.wall_clock
        ));
        for r in &self.results {
            let delivery = match &r.medium_counters {
                Some(c) => format!("{}/{}", c.delivered, c.lost()),
                None => "-".to_string(),
            };
            for s in &r.summaries {
                t.row(vec![
                    r.index.to_string(),
                    r.scenario.name.clone(),
                    r.medium_kind.to_string(),
                    s.node.to_string(),
                    s.log_entries.to_string(),
                    format!("{:.3}", s.average_power.as_milli_watts()),
                    format!("{:.2}", s.total_energy.as_milli_joules()),
                    pct(s.radio_duty_cycle),
                    s.packets_sent.to_string(),
                    s.packets_received.to_string(),
                    s.false_wakeups.to_string(),
                    delivery.clone(),
                ]);
            }
        }
        t.render()
    }

    /// The summary table as machine-readable JSON (one object with a
    /// `results` array; scenario order matches submission order).
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"scenarios\":{},", self.results.len()));
        out.push_str(&format!("\"threads\":{},", self.threads));
        out.push_str(&format!(
            "\"wall_clock_ms\":{},",
            self.wall_clock.as_secs_f64() * 1e3
        ));
        out.push_str(&format!("\"digest\":\"{:#018x}\",", self.digest));
        // Always null: the field stays only for byte-compatibility of the
        // v1 document (docs/PROTOCOL.md §3) until the next protocol bump.
        out.push_str("\"pinned_digest\":null,");
        out.push_str(&format!(
            "\"total_log_entries\":{},",
            self.total_log_entries
        ));
        out.push_str(&format!(
            "\"peak_entries_held\":{},",
            self.peak_entries_held
        ));
        match &self.cache {
            Some(c) => out.push_str(&format!(
                "\"cache\":{{\"hits\":{},\"misses\":{},\"writes\":{}}},",
                c.hits, c.misses, c.writes
            )),
            None => out.push_str("\"cache\":null,"),
        }
        out.push_str("\"results\":");
        out.push_str(&results_json(&self.results));
        out.push('}');
        out
    }
}

/// The `results` array of [`FleetReport::summary_json`] over `results` —
/// also what a `quanto-serve` partial query renders over a job's merged
/// prefix, so the two agree byte for byte.
pub(crate) fn results_json(results: &[ScenarioResult]) -> String {
    let mut out = String::from("[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&scenario_json(
            r.index,
            &r.scenario.name,
            r.medium_kind,
            r.medium_counters.as_ref(),
            &r.summaries,
            r.cache_hit,
        ));
    }
    out.push(']');
    out
}

/// JSON for one scenario's summaries — shared by [`FleetReport::summary_json`]
/// and the progress events.  `counters` is `null` for mediums that
/// do not track delivery.
pub(crate) fn scenario_json(
    index: usize,
    name: &str,
    medium_kind: &str,
    counters: Option<&DeliveryCounters>,
    summaries: &[NodeSummary],
    cache_hit: bool,
) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"index\":{index},"));
    out.push_str("\"scenario\":");
    push_json_str(&mut out, name);
    out.push_str(",\"medium\":");
    push_json_str(&mut out, medium_kind);
    out.push_str(&format!(",\"cache_hit\":{cache_hit},"));
    match counters {
        Some(c) => out.push_str(&format!(
            "\"delivery\":{{\"delivered\":{},\"lost_out_of_range\":{},\
             \"lost_below_sensitivity\":{},\"lost_captured\":{},\
             \"candidates_examined\":{},\"pruned_by_cutoff\":{}}},",
            c.delivered,
            c.lost_out_of_range,
            c.lost_below_sensitivity,
            c.lost_captured,
            c.candidates_examined,
            c.pruned_by_cutoff
        )),
        None => out.push_str("\"delivery\":null,"),
    }
    out.push_str("\"nodes\":[");
    for (i, s) in summaries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&node_summary_json(s));
    }
    out.push_str("]}");
    out
}

fn node_summary_json(s: &NodeSummary) -> String {
    let regression = s
        .regression_error
        .map(|e| format!("{e}"))
        .unwrap_or_else(|| "null".to_string());
    format!(
        "{{\"node\":{},\"log_entries\":{},\"log_dropped\":{},\"avg_power_mw\":{},\
         \"energy_mj\":{},\"radio_duty\":{},\"packets_sent\":{},\"packets_received\":{},\
         \"false_wakeups\":{},\"cpu_segments\":{},\"regression_error\":{}}}",
        s.node.as_u32(),
        s.log_entries,
        s.log_dropped,
        s.average_power.as_milli_watts(),
        s.total_energy.as_milli_joules(),
        s.radio_duty_cycle,
        s.packets_sent,
        s.packets_received,
        s.false_wakeups,
        s.cpu_segments,
        regression,
    )
}

/// Accumulates merged results in submission order, folding the digest as
/// each scenario lands.
///
/// This is *the* determinism seam of the sweep subsystem: every execution
/// topology — the in-process [`crate::FleetRunner`], the multi-process
/// [`crate::dist`] coordinator, and the `quanto-serve` daemon — folds its
/// results through the one in its [`crate::Job`], in submission order, so
/// [`FleetReport::digest`] is byte-identical however the scenarios were
/// scheduled.  Feed it with [`ReportAccumulator::absorb`] strictly in
/// submission-index order (a reorder buffer is the caller's job) and close
/// it with [`ReportAccumulator::finish`].
pub struct ReportAccumulator {
    hasher: Fnv,
    results: Vec<ScenarioResult>,
    total_log_entries: u64,
}

impl ReportAccumulator {
    /// Starts a report over `expected` scenarios.  The digest is the same
    /// in either retention mode, so the retention argument changes
    /// nothing; it stays so existing callers (perfbench among them) keep
    /// compiling until [`Retention`] itself is retired.
    pub fn new(expected: usize, _retention: Retention) -> Self {
        let mut hasher = Fnv::new();
        hasher.write(&(expected as u64).to_le_bytes());
        ReportAccumulator {
            hasher,
            results: Vec::with_capacity(expected),
            total_log_entries: 0,
        }
    }

    /// Merges the next result in submission order.
    pub fn absorb(&mut self, result: ScenarioResult) {
        debug_assert_eq!(result.index, self.results.len(), "merge order violated");
        result.fold_stream_digest(&mut self.hasher);
        self.total_log_entries += result.total_entries();
        self.results.push(result);
    }

    /// The results merged so far, in submission order.
    pub(crate) fn results(&self) -> &[ScenarioResult] {
        &self.results
    }

    /// Raw log entries the merged results hold (zero unless they ran under
    /// [`Retention::Raw`]).  Nothing is released at merge, so this is also
    /// the run's high-water mark.
    pub(crate) fn entries_held(&self) -> u64 {
        self.results
            .iter()
            .filter_map(|r| r.raw.as_ref())
            .flat_map(|raw| &raw.outputs)
            .map(|(_, out)| out.log.len() as u64)
            .sum()
    }

    /// Finalizes the report.  `threads` and `wall_clock` are display
    /// metadata only — neither folds into the digest.
    pub fn finish(
        self,
        threads: usize,
        wall_clock: std::time::Duration,
        peak_entries_held: u64,
    ) -> FleetReport {
        FleetReport {
            results: self.results,
            threads,
            wall_clock,
            digest: self.hasher.finish(),
            peak_entries_held,
            total_log_entries: self.total_log_entries,
            cache: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::{
        average_power, cumulative_energy_series, power_intervals, regress_intervals,
        state_duty_cycle,
    };
    use hw_model::SimDuration;

    fn run(scenario: Scenario) -> ScenarioResult {
        ScenarioResult::execute_streaming_in(0, scenario, &mut SimWorkspace::new())
    }

    fn run_raw(scenario: Scenario) -> ScenarioResult {
        ScenarioResult::simulate(0, scenario, Retention::Raw, &mut SimWorkspace::new())
    }

    /// The streamed summaries must reproduce the batch `analysis` pipeline
    /// over the collected log bit for bit — the digest folds these floats.
    #[test]
    fn streaming_summary_is_bit_identical_to_batch_pipeline() {
        let result = run_raw(Scenario::lpl(17, 0.18, SimDuration::from_secs(4)));
        let raw = result.raw().expect("Raw retains the collected logs");
        for ((id, out), (_, ctx)) in raw.outputs.iter().zip(raw.contexts.iter()) {
            let streamed = result.summary(*id).expect("summary exists");
            assert!(!out.log.is_empty(), "the tap must collect the log");
            assert_eq!(streamed.log_entries, out.log.len());
            // The pre-streaming batch computation, verbatim.
            let intervals = power_intervals(&out.log, &ctx.catalog, Some(out.final_stamp));
            let avg = average_power(&intervals, ctx.energy_per_count);
            let total_energy = cumulative_energy_series(&intervals, ctx.energy_per_count)
                .last()
                .map(|(_, e)| *e)
                .unwrap_or(Energy::ZERO);
            let duty = state_duty_cycle(&intervals, ctx.sinks.radio_rx, |s| {
                s == radio_rx_state::LISTEN
            });
            let regression_error = regress_intervals(
                &intervals,
                &ctx.catalog,
                ctx.energy_per_count,
                RegressionOptions::default(),
            )
            .ok()
            .map(|r| r.relative_error);
            assert_eq!(
                streamed.average_power.as_micro_watts().to_bits(),
                avg.as_micro_watts().to_bits()
            );
            assert_eq!(
                streamed.total_energy.as_micro_joules().to_bits(),
                total_energy.as_micro_joules().to_bits()
            );
            assert_eq!(streamed.radio_duty_cycle.to_bits(), duty.to_bits());
            assert_eq!(
                streamed.regression_error.map(f64::to_bits),
                regression_error.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn raw_access_errors_are_descriptive() {
        let result = run_raw(Scenario::idle(SimDuration::from_secs(1)));
        // Unknown node while raw is retained.
        let err = result.output(NodeId(99)).unwrap_err();
        assert!(matches!(err, RawAccessError::UnknownNode { .. }));
        assert!(err.to_string().contains("no node 99"), "{err}");
        assert!(result.output(NodeId(1)).is_ok());
        assert!(result.context(NodeId(1)).is_ok());
        // Without retention, lookups explain how to retain.
        let result = run(Scenario::idle(SimDuration::from_secs(1)));
        let err = result.output(NodeId(1)).unwrap_err();
        assert!(matches!(err, RawAccessError::NotRetained { .. }));
        assert!(err.to_string().contains("retain_raw"), "{err}");
        // Summaries survive.
        assert!(result.summary(NodeId(1)).is_some());
    }

    #[test]
    fn summary_json_is_well_formed_enough() {
        let result = run(Scenario::idle(SimDuration::from_secs(1)));
        let json = scenario_json(
            result.index,
            &result.scenario.name,
            result.medium_kind,
            None,
            &result.summaries,
            false,
        );
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"scenario\":\"idle_1s\""));
        assert!(json.contains("\"cache_hit\":false"));
        assert!(json.contains("\"medium\":\"ideal\""));
        assert!(json.contains("\"delivery\":null"));
        assert!(json.contains("\"node\":1"));
        let parsed = crate::wire::Value::parse(&json).expect("one JSON document");
        assert_eq!(parsed.get_str("scenario"), Some("idle_1s"));
    }

    #[test]
    fn medium_counter_access_is_fallible_and_descriptive() {
        use crate::scenario::MediumSpec;
        let d = SimDuration::from_secs(2);
        // The ideal medium tracks nothing: a descriptive error, not a panic.
        let ideal = run(Scenario::bounce(d));
        assert!(!ideal.has_medium_counters());
        let err = ideal.medium_counters().unwrap_err();
        assert_eq!(err.medium, "ideal");
        let msg = err.to_string();
        assert!(msg.contains("does not track delivery counters"), "{msg}");
        assert!(msg.contains(&ideal.scenario.name), "{msg}");
        // A geometric medium answers.
        let disk = run(Scenario::bounce(d).with_medium(MediumSpec::UnitDisk {
            range_m: 100.0,
            positions: vec![(1, 0.0, 0.0), (4, 5.0, 0.0)],
        }));
        let c = disk.medium_counters().expect("unit disk tracks counters");
        assert!(c.delivered > 0, "bounce packets must flow in range");
    }

    fn record_of(result: &ScenarioResult) -> String {
        let mut record = String::new();
        result.push_record(&mut record);
        record
    }

    fn rebuild(index: usize, scenario: Scenario, record: &str) -> Option<ScenarioResult> {
        let value = Value::parse(record)?;
        ScenarioResult::from_record(index, scenario, &value, true)
    }

    /// Every field crosses its record bit for bit at the edges of its range:
    /// `u64::MAX` counts and digests, a `u32::MAX` iCount, a set and a null
    /// `re`, and floats a decimal rendering would not keep (a NaN payload,
    /// -0.0, the smallest subnormal, infinity).
    #[test]
    fn record_round_trips_bit_exactly() {
        use crate::scenario::MediumSpec;
        let d = SimDuration::from_secs(1);
        let scenario = Scenario::bounce(d).with_medium(MediumSpec::UnitDisk {
            range_m: 100.0,
            positions: vec![(1, 0.0, 0.0), (4, 5.0, 0.0)],
        });
        let mut original = run(scenario.clone());
        let nan = f64::from_bits(0x7ff8_dead_beef_f00d);
        let max = u64::MAX;
        for (i, s) in original.summaries.iter_mut().enumerate() {
            s.log_entries = usize::MAX;
            s.log_dropped = max;
            s.average_power = Power::from_micro_watts(nan);
            s.total_energy = Energy::from_micro_joules(-0.0);
            s.radio_duty_cycle = f64::from_bits(1);
            (s.packets_sent, s.packets_received, s.false_wakeups) = (max, max, max);
            s.regression_error = (i == 0).then_some(f64::NEG_INFINITY);
            s.cpu_segments = max;
        }
        for m in &mut original.stream {
            m.entries = max;
            m.entry_digest = max;
            m.final_stamp = Stamp::new(SimTime::from_micros(max), u32::MAX);
            m.log_dropped = max;
            m.radio_stats = RadioStats {
                packets_sent: max,
                packets_received: max,
                clean_wakeups: max,
                false_wakeups: max,
                rx_wakeups: max,
                busy_backoffs: max,
            };
            m.ground_truth_total = Energy::from_micro_joules(nan);
        }
        let c = original.medium_counters.as_mut().expect("unit disk counts");
        *c = DeliveryCounters {
            delivered: max,
            lost_out_of_range: max,
            lost_below_sensitivity: max,
            lost_captured: max,
            candidates_examined: max,
            pruned_by_cutoff: max,
        };
        let record = record_of(&original);
        assert!(!record.contains('\n'), "line protocol: {record}");
        assert!(record.contains("\"re\":null"), "{record}");
        let rebuilt = rebuild(0, scenario, &record).expect("edge values decode");
        assert_eq!(record_of(&rebuilt), record, "record bytes round-trip");
        let summary_bits = |s: &NodeSummary| {
            let fields = [
                u64::from(s.node.as_u32()),
                s.log_entries as u64,
                s.log_dropped,
                s.average_power.as_micro_watts().to_bits(),
                s.total_energy.as_micro_joules().to_bits(),
                s.radio_duty_cycle.to_bits(),
                s.packets_sent,
                s.packets_received,
                s.false_wakeups,
                s.cpu_segments,
            ];
            (fields, s.regression_error.map(f64::to_bits))
        };
        assert_eq!(
            rebuilt
                .summaries
                .iter()
                .map(summary_bits)
                .collect::<Vec<_>>(),
            original
                .summaries
                .iter()
                .map(summary_bits)
                .collect::<Vec<_>>()
        );
        // `Energy` compares NaN unequal, so the ground truth goes by bits.
        let stream_bits = |m: &NodeStreamMeta| {
            let gt = m.ground_truth_total.as_micro_joules().to_bits();
            let rest = NodeStreamMeta {
                ground_truth_total: Energy::ZERO,
                ..*m
            };
            (rest, gt)
        };
        assert_eq!(
            rebuilt.stream.iter().map(stream_bits).collect::<Vec<_>>(),
            original.stream.iter().map(stream_bits).collect::<Vec<_>>()
        );
        assert_eq!(rebuilt.medium_counters, original.medium_counters);
    }

    /// A result rebuilt from its own record writes the same record bytes
    /// and folds the exact same bytes into the stream digest — the
    /// bit-exactness the cache and the shard protocol both stand on.  LPL
    /// covers a null `re` and no counters, Blink a set `re`, the unit disk
    /// set counters.
    #[test]
    fn record_round_trip_preserves_the_stream_digest_fold() {
        use crate::scenario::MediumSpec;
        let d = SimDuration::from_secs(2);
        for scenario in [
            Scenario::lpl(17, 0.18, d),
            Scenario::blink(d),
            Scenario::bounce(d).with_medium(MediumSpec::UnitDisk {
                range_m: 100.0,
                positions: vec![(1, 0.0, 0.0), (4, 5.0, 0.0)],
            }),
        ] {
            let original =
                ScenarioResult::execute_streaming_in(3, scenario.clone(), &mut SimWorkspace::new());
            let record = record_of(&original);
            assert!(!record.contains('\n'), "line protocol: {record}");
            let rebuilt = rebuild(3, scenario, &record).expect("own record matches own scenario");
            assert!(rebuilt.cache_hit());
            assert!(!original.cache_hit());
            assert_eq!(record_of(&rebuilt), record, "record bytes round-trip");
            let mut a = Fnv::new();
            original.fold_stream_digest(&mut a);
            let mut b = Fnv::new();
            rebuilt.fold_stream_digest(&mut b);
            assert_eq!(a.finish(), b.finish(), "fold must be byte-identical");
            assert_eq!(rebuilt.stream_meta(), original.stream_meta());
        }
    }

    /// Decoding is total: every structural defect gives `None`.
    #[test]
    fn structural_mismatch_decodes_to_none() {
        let d = SimDuration::from_secs(1);
        let idle = run(Scenario::idle(d));
        let good = record_of(&idle);
        assert!(rebuild(0, Scenario::idle(d), &good).is_some());
        let rs = format!("{:?}", [0u64; 6]).replace(' ', "");
        assert!(good.contains(&format!("\"rs\":{rs}")), "{good}");
        let icount = format!("\"i\":{}", idle.stream[0].final_stamp.icount);
        assert!(good.contains(&icount), "{good}");
        for bad in [
            good.replace("\"gt\"", "\"xx\""), // missing key
            good.replace("\"rs\":[0,0,0,0,0,0]", "\"rs\":[0,0,0,0,0]"), // short array
            good.replace("\"rs\":[0,0,0,0,0,0]", "\"rs\":{}"), // wrong shape
            good.replace("\"s\":[", "\"s\":[[],"), // extra node
            good.replace(&icount, &format!("\"i\":{}", 1u64 << 32)), // beyond u32
            good.replace("\"n\":1,", &format!("\"n\":{},", (1u64 << 32) + 1)), // beyond u32
            good.replace(",\"c\":null", ""),  // counters absent
        ] {
            assert_ne!(bad, good, "the mutation must apply");
            assert!(
                rebuild(0, Scenario::idle(d), &bad).is_none(),
                "{bad} must not decode"
            );
        }
    }

    /// A record that does not describe the scenario it is paired with must
    /// be rejected, not folded.
    #[test]
    fn from_record_rejects_mismatched_scenarios() {
        let d = SimDuration::from_secs(1);
        let record = record_of(&run(Scenario::idle(d)));
        // Bounce runs nodes {1, 4}; an idle record has only node 1.
        assert!(rebuild(0, Scenario::bounce(d), &record).is_none());
        // A unit-disk scenario expects delivery counters; idle has none.
        use crate::scenario::MediumSpec;
        let disk = Scenario::idle(d).with_medium(MediumSpec::UnitDisk {
            range_m: 1.0,
            positions: vec![],
        });
        assert!(rebuild(0, disk, &record).is_none());
        // An ideal-medium scenario refuses counters it never tracks.
        let counters = "\"c\":{\"dl\":0,\"lr\":0,\"ls\":0,\"lc\":0,\"ce\":0,\"pc\":0}";
        let with_counters = record.replace("\"c\":null", counters);
        assert!(rebuild(0, Scenario::idle(d), &with_counters).is_none());
    }

    #[test]
    fn json_escaping_handles_specials() {
        for (raw, escaped) in [
            ("plain", "\"plain\""),
            ("a\"b\\c", "\"a\\\"b\\\\c\""),
            ("x\ny", "\"x\\ny\""),
        ] {
            let mut out = String::new();
            push_json_str(&mut out, raw);
            assert_eq!(out, escaped);
        }
    }
}
