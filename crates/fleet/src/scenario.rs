//! Declarative simulation scenarios.
//!
//! A [`Scenario`] is plain data — which application runs, on which channel,
//! under which interference, through which radio medium, for how long, with
//! which seed — from which a ready-to-run [`NetSim`] can be built on any
//! thread.  The paper's evaluation grid (LPL on channel 17 vs 26, Blink
//! profiles, Bounce) and arbitrary seed × channel × topology × medium sweeps
//! are all batches of these.

use hw_model::{SimDuration, SimTime};
use net_sim::{
    Mobility, MobilityTrace, NetScratch, NetSim, PathLoss, PathLossParams, Position,
    PositionedMedium, RadioMedium, SpatialIndex, Topology, UnitDisk,
};
use os_sim::{NodeConfig, NullApp};
use quanto_apps::{
    lpl_node_config, paper_interference, BlinkApp, BounceApp, LplListenerApp,
    PAPER_INTERFERENCE_SEED,
};
use quanto_core::{Fnv, LogEncoding, NodeId};

/// Which application a scenario's nodes run.
#[derive(Debug, Clone, PartialEq)]
pub enum AppSpec {
    /// One Blink node (three timers toggling three LEDs) — the calibration
    /// and profiling workload.
    Blink,
    /// One low-power-listening node; `interference_duty` is the fraction of
    /// time the 802.11b access point on Wi-Fi channel 6 transmits (zero
    /// removes the interferer).
    LplListener {
        /// Fraction of slots the access point is on the air (0.0–1.0).
        interference_duty: f64,
    },
    /// Two Bounce nodes (ids 1 and 4, as in the paper) ping-ponging packets.
    Bounce,
    /// `pairs` independent Bounce exchanges: pair `k` is nodes `2k+1`
    /// (initiator) and `2k+2`, for node ids 1..=2·pairs.  The multi-node
    /// stress workload for geometric mediums; beyond 127 pairs the fleet
    /// exceeds the v1 node-id range and reports switch to the v2 log
    /// encoding.
    BouncePairs {
        /// How many two-node exchanges run side by side (at most 32767).
        pairs: u16,
    },
    /// One idle node — the DCO-calibration-only baseline.
    Idle,
}

impl AppSpec {
    /// The application's stable kind name (`"blink"`, `"lpl"`, `"bounce"`,
    /// `"bounce_pairs"`, `"idle"`) — the axis the obs profile groups phase
    /// time by.
    pub fn kind(&self) -> &'static str {
        match self {
            AppSpec::Blink => "blink",
            AppSpec::LplListener { .. } => "lpl",
            AppSpec::Bounce => "bounce",
            AppSpec::BouncePairs { .. } => "bounce_pairs",
            AppSpec::Idle => "idle",
        }
    }
}

/// Which pairs of nodes can hear each other.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// Every node hears every other node.
    Full,
    /// An explicit symmetric link list over raw node ids.
    Links(Vec<(u32, u32)>),
}

impl TopologySpec {
    fn to_topology(&self) -> Topology {
        match self {
            TopologySpec::Full => Topology::full(),
            TopologySpec::Links(pairs) => {
                let pairs: Vec<(NodeId, NodeId)> = pairs
                    .iter()
                    .map(|(a, b)| (NodeId(*a), NodeId(*b)))
                    .collect();
                Topology::from_links(&pairs)
            }
        }
    }
}

/// The log-distance path-loss model as plain sweepable data (see
/// [`net_sim::PathLossParams`]; the seed is supplied by the scenario so seed
/// sweeps also reseed the shadowing).
#[derive(Debug, Clone, PartialEq)]
pub struct PathLossSpec {
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Path loss at the 1 m reference distance, dB.
    pub ref_loss_db: f64,
    /// Path-loss exponent.
    pub exponent: f64,
    /// Log-normal shadowing standard deviation, dB (0 disables it).
    pub shadowing_sigma_db: f64,
    /// Minimum decodable RSSI, dBm.
    pub sensitivity_dbm: f64,
    /// Capture margin, dB.
    pub capture_margin_db: f64,
    /// Clear-channel-assessment threshold, dBm; `None` couples it to
    /// `sensitivity_dbm` (the historical behavior — existing digests hold).
    pub cca_threshold_dbm: Option<f64>,
}

impl Default for PathLossSpec {
    fn default() -> Self {
        let p = PathLossParams::default();
        PathLossSpec {
            tx_power_dbm: p.tx_power_dbm,
            ref_loss_db: p.ref_loss_db,
            exponent: p.exponent,
            shadowing_sigma_db: p.shadowing_sigma_db,
            sensitivity_dbm: p.sensitivity_dbm,
            capture_margin_db: p.capture_margin_db,
            cca_threshold_dbm: p.cca_threshold_dbm,
        }
    }
}

impl PathLossSpec {
    fn to_params(&self, seed: u64) -> PathLossParams {
        PathLossParams {
            tx_power_dbm: self.tx_power_dbm,
            ref_loss_db: self.ref_loss_db,
            exponent: self.exponent,
            shadowing_sigma_db: self.shadowing_sigma_db,
            sensitivity_dbm: self.sensitivity_dbm,
            capture_margin_db: self.capture_margin_db,
            cca_threshold_dbm: self.cca_threshold_dbm,
            seed,
        }
    }
}

/// The geometric model a [`MediumSpec::Mobility`] medium layers traces over.
#[derive(Debug, Clone, PartialEq)]
pub enum GeometrySpec {
    /// Hard-range unit disk.
    UnitDisk {
        /// Communication range, meters.
        range_m: f64,
    },
    /// Log-distance path loss with capture.
    PathLoss(PathLossSpec),
}

impl GeometrySpec {
    fn build(
        &self,
        seed: u64,
        positions: &[(u32, f64, f64)],
        brute_force: bool,
        spare_index: Option<SpatialIndex>,
    ) -> Box<dyn PositionedMedium> {
        match self {
            GeometrySpec::UnitDisk { range_m } => {
                let mut disk = UnitDisk::new(*range_m);
                if brute_force {
                    disk = disk.without_spatial_index();
                } else if let Some(spare) = spare_index {
                    // Recycled cell grid from a torn-down medium; adopted
                    // (and reset) before any placement, so the built state
                    // is identical to a fresh index.
                    disk.adopt_spatial_index(spare);
                }
                for (id, x, y) in positions {
                    disk.set_position(NodeId(*id), Position::new(*x, *y));
                }
                Box::new(disk)
            }
            GeometrySpec::PathLoss(spec) => {
                let mut model = PathLoss::new(spec.to_params(seed));
                if brute_force {
                    model = model.without_spatial_index();
                } else if let Some(spare) = spare_index {
                    model.adopt_spatial_index(spare);
                }
                for (id, x, y) in positions {
                    model.set_position(NodeId(*id), Position::new(*x, *y));
                }
                Box::new(model)
            }
        }
    }
}

/// One node's mobility trace as plain data: the node id and its
/// `(time µs, x, y)` waypoints.
pub type TraceSpec = (u32, Vec<(u64, f64, f64)>);

/// Which radio medium a scenario's frames propagate through — a plain-data
/// sweep axis, like seeds and channels.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum MediumSpec {
    /// The explicit-topology ideal ether ([`Scenario::topology`] decides
    /// delivery) — byte-identical to the pre-medium-subsystem simulator.
    #[default]
    Ideal,
    /// Positions plus a hard communication range.
    UnitDisk {
        /// Communication range, meters.
        range_m: f64,
        /// `(node id, x, y)` placements, meters; unplaced nodes sit at the
        /// origin.
        positions: Vec<(u32, f64, f64)>,
    },
    /// Log-distance path loss with deterministic shadowing and capture.
    PathLoss {
        /// The propagation model parameters.
        model: PathLossSpec,
        /// `(node id, x, y)` placements, meters.
        positions: Vec<(u32, f64, f64)>,
    },
    /// Piecewise-linear waypoint traces over a geometric base model.
    Mobility {
        /// The geometric model underneath.
        base: GeometrySpec,
        /// Static `(node id, x, y)` placements for untraced nodes.
        positions: Vec<(u32, f64, f64)>,
        /// Per-node waypoint traces: `(node id, [(time µs, x, y)])`.
        traces: Vec<TraceSpec>,
    },
}

impl MediumSpec {
    /// The medium's stable kind name (`"ideal"`, `"unit_disk"`,
    /// `"path_loss"`, `"mobility"`) — used in scenario names, reports and
    /// counter-access errors.
    pub fn kind(&self) -> &'static str {
        match self {
            MediumSpec::Ideal => "ideal",
            MediumSpec::UnitDisk { .. } => "unit_disk",
            MediumSpec::PathLoss { .. } => "path_loss",
            MediumSpec::Mobility { .. } => "mobility",
        }
    }

    /// Builds the propagation model; `None` for [`MediumSpec::Ideal`], which
    /// keeps the scenario's topology-driven default.
    fn build(
        &self,
        seed: u64,
        brute_force: bool,
        spare_index: Option<SpatialIndex>,
    ) -> Option<Box<dyn RadioMedium>> {
        match self {
            MediumSpec::Ideal => None,
            MediumSpec::UnitDisk { range_m, positions } => {
                Some(GeometrySpec::UnitDisk { range_m: *range_m }.build(
                    seed,
                    positions,
                    brute_force,
                    spare_index,
                ))
            }
            MediumSpec::PathLoss { model, positions } => {
                Some(GeometrySpec::PathLoss(model.clone()).build(
                    seed,
                    positions,
                    brute_force,
                    spare_index,
                ))
            }
            MediumSpec::Mobility {
                base,
                positions,
                traces,
            } => {
                let mut mobility =
                    Mobility::new(base.build(seed, positions, brute_force, spare_index));
                for (id, waypoints) in traces {
                    let waypoints = waypoints
                        .iter()
                        .map(|(us, x, y)| (SimTime::from_micros(*us), Position::new(*x, *y)))
                        .collect();
                    mobility = mobility.with_trace(NodeId(*id), MobilityTrace::new(waypoints));
                }
                Some(Box::new(mobility))
            }
        }
    }
}

/// One cell of an experiment grid: everything needed to build and run a
/// simulation, as plain (thread-shareable) data.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Display name (also the key for looking results up in a report).
    pub name: String,
    /// The application(s) to run.
    pub app: AppSpec,
    /// The 802.15.4 channel every node's radio uses (11–26).
    pub channel: u8,
    /// Seed for the scenario's environment (the interferer's traffic
    /// pattern, the medium's shadowing) and — when [`Scenario::seed_nodes`]
    /// — the nodes' own RNGs.
    pub seed: u64,
    /// When true, node RNG seeds derive from `seed` (for seed sweeps); when
    /// false, nodes keep their id-derived defaults, which makes a scenario
    /// byte-compatible with the legacy sequential drivers.
    pub seed_nodes: bool,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Connectivity between nodes (only consulted by the ideal medium).
    pub topology: TopologySpec,
    /// The radio medium frames propagate through.
    pub medium: MediumSpec,
    /// When true, geometric mediums are built without their spatial index
    /// and answer every delivery with the full node scan — the reference
    /// path for the index-equivalence tests and microbenches.  Results are
    /// byte-identical either way; only the run time differs.
    pub brute_force_medium: bool,
}

impl Scenario {
    /// The Blink profiling scenario (one node, channel 26, no radio use).
    pub fn blink(duration: SimDuration) -> Self {
        Scenario {
            name: format!("blink_{}s", duration.as_secs_f64()),
            app: AppSpec::Blink,
            channel: 26,
            seed: 0,
            seed_nodes: false,
            duration,
            topology: TopologySpec::Full,
            medium: MediumSpec::Ideal,
            brute_force_medium: false,
        }
    }

    /// The Figure 13 LPL scenario: a listener on `channel` under an 802.11b
    /// access point transmitting `interference_duty` of the time.  The
    /// default seed (7) reproduces the paper drivers byte-for-byte.
    pub fn lpl(channel: u8, interference_duty: f64, duration: SimDuration) -> Self {
        Scenario {
            name: format!("lpl_ch{channel}"),
            app: AppSpec::LplListener { interference_duty },
            channel,
            seed: PAPER_INTERFERENCE_SEED,
            seed_nodes: false,
            duration,
            topology: TopologySpec::Full,
            medium: MediumSpec::Ideal,
            brute_force_medium: false,
        }
    }

    /// The Bounce scenario: nodes 1 and 4 exchanging packets.
    pub fn bounce(duration: SimDuration) -> Self {
        Scenario {
            name: format!("bounce_{}s", duration.as_secs_f64()),
            app: AppSpec::Bounce,
            channel: 26,
            seed: 0,
            seed_nodes: false,
            duration,
            topology: TopologySpec::Full,
            medium: MediumSpec::Ideal,
            brute_force_medium: false,
        }
    }

    /// `pairs` side-by-side Bounce exchanges (node ids 1..=2·pairs) — the
    /// multi-node workload geometric mediums are stressed with.
    pub fn bounce_pairs(pairs: u16, duration: SimDuration) -> Self {
        assert!((1..=32767).contains(&pairs), "pairs must be in 1..=32767");
        Scenario {
            name: format!("bounce_pairs{pairs}_{}s", duration.as_secs_f64()),
            app: AppSpec::BouncePairs { pairs },
            channel: 26,
            seed: 0,
            seed_nodes: false,
            duration,
            topology: TopologySpec::Full,
            medium: MediumSpec::Ideal,
            brute_force_medium: false,
        }
    }

    /// An idle single-node baseline.
    pub fn idle(duration: SimDuration) -> Self {
        Scenario {
            name: format!("idle_{}s", duration.as_secs_f64()),
            app: AppSpec::Idle,
            channel: 26,
            seed: 0,
            seed_nodes: false,
            duration,
            topology: TopologySpec::Full,
            medium: MediumSpec::Ideal,
            brute_force_medium: false,
        }
    }

    /// Renames the scenario.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Makes `seed` a real sweep axis: it reseeds the environment *and* the
    /// nodes' RNGs (backoff jitter, hold-time jitter).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.seed_nodes = true;
        self
    }

    /// Replaces the connectivity topology.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Replaces the radio medium — the topology-model sweep axis.
    pub fn with_medium(mut self, medium: MediumSpec) -> Self {
        self.medium = medium;
        self
    }

    /// Builds geometric mediums without their spatial index (the full-scan
    /// reference path).  Byte-identical results, O(nodes) per frame — for
    /// equivalence tests and microbenches only.
    pub fn without_spatial_index(mut self) -> Self {
        self.brute_force_medium = true;
        self
    }

    /// The node ids this scenario instantiates, in insertion order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        match self.app {
            AppSpec::Blink | AppSpec::LplListener { .. } | AppSpec::Idle => vec![NodeId(1)],
            AppSpec::Bounce => vec![NodeId(1), NodeId(4)],
            AppSpec::BouncePairs { pairs } => (1..=2 * pairs as u32).map(NodeId).collect(),
        }
    }

    /// The log wire format this scenario's digests fold: v1 while every
    /// node id fits the paper's one-byte origin (keeping historical digests
    /// byte-identical), v2 once any id exceeds 254.
    pub fn log_encoding(&self) -> LogEncoding {
        let max = self.node_ids().into_iter().max().unwrap_or(NodeId(0));
        LogEncoding::required_for(max)
    }

    /// FNV-1a digest over the scenario's *canonical spec*: every field that
    /// influences what the simulation computes or reports — app, channel,
    /// seed, duration, topology, medium, spatial-index choice — plus the
    /// log-encoding version and [`SPEC_DIGEST_VERSION`], folded as raw
    /// little-endian bytes with floats as IEEE-754 bit patterns.  The
    /// display [`Scenario::name`] is deliberately *excluded*: renaming a
    /// cell does not change what it simulates, so two cells differing only
    /// in name share one result-cache entry.
    ///
    /// This is the content address of the result cache: equal digests mean
    /// "this exact simulation has run before".
    pub fn spec_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(&[SPEC_DIGEST_VERSION]);
        h.write(&[match self.log_encoding() {
            LogEncoding::V1 => 1,
            LogEncoding::V2 => 2,
        }]);
        match &self.app {
            AppSpec::Blink => h.write(b"blink"),
            AppSpec::LplListener { interference_duty } => {
                h.write(b"lpl");
                h.write(&interference_duty.to_bits().to_le_bytes());
            }
            AppSpec::Bounce => h.write(b"bounce"),
            AppSpec::BouncePairs { pairs } => {
                h.write(b"bounce_pairs");
                h.write(&pairs.to_le_bytes());
            }
            AppSpec::Idle => h.write(b"idle"),
        }
        h.write(&[self.channel]);
        h.write(&self.seed.to_le_bytes());
        h.write(&[self.seed_nodes as u8, self.brute_force_medium as u8]);
        h.write(&self.duration.as_micros().to_le_bytes());
        match &self.topology {
            TopologySpec::Full => h.write(b"full"),
            TopologySpec::Links(links) => {
                h.write(b"links");
                h.write(&(links.len() as u64).to_le_bytes());
                for (a, b) in links {
                    h.write(&a.to_le_bytes());
                    h.write(&b.to_le_bytes());
                }
            }
        }
        fold_medium(&mut h, &self.medium);
        h.finish()
    }

    /// Applies the scenario's channel and (optionally) seed to a node
    /// configuration.
    fn tweak(&self, mut config: NodeConfig) -> NodeConfig {
        config.radio_channel = self.channel;
        if self.seed_nodes {
            config.seed = self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(config.node_id.as_u64() + 1);
        }
        config
    }

    /// Builds a ready-to-run simulation of this scenario.
    pub fn build(&self) -> NetSim {
        self.build_in(&mut NetScratch::new())
    }

    /// [`Scenario::build`] reusing the allocations a previous simulation
    /// left in `scratch` (engine containers, per-node log buffers, the
    /// spatial-index grid).  Behaviour-identical to a cold build: every
    /// recycled structure is reset before use, which the digest pins prove.
    pub fn build_in(&self, scratch: &mut NetScratch) -> NetSim {
        let mut net = NetSim::new_in(scratch);
        let quiet = |id: u32| NodeConfig {
            dco_calibration: false,
            ..NodeConfig::new(NodeId(id))
        };
        match &self.app {
            AppSpec::Blink => {
                net.add_node(
                    self.tweak(NodeConfig::new(NodeId(1))),
                    Box::new(BlinkApp::new()),
                );
            }
            AppSpec::LplListener { interference_duty } => {
                net.add_node(
                    self.tweak(lpl_node_config(NodeId(1), self.channel)),
                    Box::new(LplListenerApp),
                );
                if *interference_duty > 0.0 {
                    net.add_interferer(paper_interference(*interference_duty, self.seed));
                }
            }
            AppSpec::Bounce => {
                net.add_node(
                    self.tweak(quiet(1)),
                    Box::new(BounceApp::new(NodeId(4), true)),
                );
                net.add_node(
                    self.tweak(quiet(4)),
                    Box::new(BounceApp::new(NodeId(1), true)),
                );
            }
            AppSpec::BouncePairs { pairs } => {
                for k in 0..*pairs as u32 {
                    let a = 2 * k + 1;
                    let b = 2 * k + 2;
                    net.add_node(
                        self.tweak(quiet(a)),
                        Box::new(BounceApp::new(NodeId(b), true)),
                    );
                    net.add_node(
                        self.tweak(quiet(b)),
                        Box::new(BounceApp::new(NodeId(a), true)),
                    );
                }
            }
            AppSpec::Idle => {
                net.add_node(self.tweak(NodeConfig::new(NodeId(1))), Box::new(NullApp));
            }
        }
        net.set_topology(self.topology.to_topology());
        // The recycled spatial index is only pulled out of the scratch for
        // mediums that can actually adopt one — the ideal medium leaves it
        // pooled for a later geometric scenario.
        let spare_index = match &self.medium {
            MediumSpec::Ideal => None,
            _ => scratch.take_spatial_index(),
        };
        if let Some(model) = self
            .medium
            .build(self.seed, self.brute_force_medium, spare_index)
        {
            net.set_medium(model);
        }
        net
    }
}

/// Version byte folded first into every [`Scenario::spec_digest`].  Bump it
/// whenever the simulation's observable behavior changes for an unchanged
/// spec (a physics fix, a new digest-relevant counter, a changed default):
/// every existing cache entry then self-invalidates, because no new digest
/// can collide with one folded under the old version.
pub const SPEC_DIGEST_VERSION: u8 = 1;

/// Folds a medium spec (tag, parameters, positions, traces) into a spec
/// digest.
fn fold_medium(h: &mut Fnv, medium: &MediumSpec) {
    let fold_positions = |h: &mut Fnv, positions: &[(u32, f64, f64)]| {
        h.write(&(positions.len() as u64).to_le_bytes());
        for (id, x, y) in positions {
            h.write(&id.to_le_bytes());
            h.write(&x.to_bits().to_le_bytes());
            h.write(&y.to_bits().to_le_bytes());
        }
    };
    let fold_path_loss = |h: &mut Fnv, spec: &PathLossSpec| {
        for f in [
            spec.tx_power_dbm,
            spec.ref_loss_db,
            spec.exponent,
            spec.shadowing_sigma_db,
            spec.sensitivity_dbm,
            spec.capture_margin_db,
        ] {
            h.write(&f.to_bits().to_le_bytes());
        }
        match spec.cca_threshold_dbm {
            Some(t) => {
                h.write(&[1]);
                h.write(&t.to_bits().to_le_bytes());
            }
            None => h.write(&[0]),
        }
    };
    match medium {
        MediumSpec::Ideal => h.write(b"ideal"),
        MediumSpec::UnitDisk { range_m, positions } => {
            h.write(b"unit_disk");
            h.write(&range_m.to_bits().to_le_bytes());
            fold_positions(h, positions);
        }
        MediumSpec::PathLoss { model, positions } => {
            h.write(b"path_loss");
            fold_path_loss(h, model);
            fold_positions(h, positions);
        }
        MediumSpec::Mobility {
            base,
            positions,
            traces,
        } => {
            h.write(b"mobility");
            match base {
                GeometrySpec::UnitDisk { range_m } => {
                    h.write(b"disk");
                    h.write(&range_m.to_bits().to_le_bytes());
                }
                GeometrySpec::PathLoss(spec) => {
                    h.write(b"loss");
                    fold_path_loss(h, spec);
                }
            }
            fold_positions(h, positions);
            h.write(&(traces.len() as u64).to_le_bytes());
            for (id, waypoints) in traces {
                h.write(&id.to_le_bytes());
                h.write(&(waypoints.len() as u64).to_le_bytes());
                for (us, x, y) in waypoints {
                    h.write(&us.to_le_bytes());
                    h.write(&x.to_bits().to_le_bytes());
                    h.write(&y.to_bits().to_le_bytes());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_sets_match_app_specs() {
        let d = SimDuration::from_secs(1);
        assert_eq!(Scenario::blink(d).node_ids(), vec![NodeId(1)]);
        assert_eq!(Scenario::bounce(d).node_ids(), vec![NodeId(1), NodeId(4)]);
        let net = Scenario::bounce(d).build();
        assert_eq!(net.node_count(), 2);
        assert!(net.node(NodeId(4)).is_some());
        let pairs = Scenario::bounce_pairs(3, d);
        assert_eq!(pairs.node_ids().len(), 6);
        let net = pairs.build();
        assert_eq!(net.node_count(), 6);
        assert!(net.node(NodeId(6)).is_some());
    }

    #[test]
    fn seeding_nodes_changes_their_configs() {
        let d = SimDuration::from_secs(1);
        let plain = Scenario::bounce(d).build();
        let seeded = Scenario::bounce(d).with_seed(99).build();
        let a = plain.node(NodeId(1)).unwrap().kernel().config().seed;
        let b = seeded.node(NodeId(1)).unwrap().kernel().config().seed;
        assert_ne!(a, b, "with_seed must reseed node RNGs");
    }

    #[test]
    fn topology_spec_translates_links() {
        let d = SimDuration::from_secs(1);
        let net = Scenario::bounce(d)
            .with_topology(TopologySpec::Links(vec![]))
            .build();
        let topology = net.medium().topology().expect("ideal medium");
        assert!(!topology.connected(NodeId(1), NodeId(4)));
        let full = Scenario::bounce(d).build();
        let topology = full.medium().topology().expect("ideal medium");
        assert!(topology.connected(NodeId(1), NodeId(4)));
    }

    #[test]
    fn medium_spec_installs_the_model() {
        let d = SimDuration::from_secs(1);
        let ideal = Scenario::bounce(d).build();
        assert_eq!(ideal.medium().model().kind(), "ideal");
        assert!(ideal.medium_counters().is_none());

        let disk = Scenario::bounce(d)
            .with_medium(MediumSpec::UnitDisk {
                range_m: 10.0,
                positions: vec![(1, 0.0, 0.0), (4, 5.0, 0.0)],
            })
            .build();
        assert_eq!(disk.medium().model().kind(), "unit_disk");
        assert!(disk.medium_counters().is_some());
        assert!(disk.medium().topology().is_none());

        let mobility = Scenario::bounce(d)
            .with_medium(MediumSpec::Mobility {
                base: GeometrySpec::PathLoss(PathLossSpec::default()),
                positions: vec![(1, 0.0, 0.0)],
                traces: vec![(4, vec![(0, 0.0, 0.0), (1_000_000, 9.0, 0.0)])],
            })
            .build();
        assert_eq!(mobility.medium().model().kind(), "mobility");
    }

    #[test]
    fn spec_digest_ignores_names_and_tracks_every_axis() {
        let d = SimDuration::from_secs(2);
        let base = Scenario::lpl(17, 0.18, d);
        // Renaming does not change what runs: same content address.
        assert_eq!(
            base.spec_digest(),
            base.clone().named("anything_else").spec_digest()
        );
        // Every simulation-relevant axis moves the digest.
        let variants = [
            Scenario::lpl(26, 0.18, d),
            Scenario::lpl(17, 0.25, d),
            Scenario::lpl(17, 0.18, SimDuration::from_secs(3)),
            Scenario::lpl(17, 0.18, d).with_seed(99),
            Scenario::lpl(17, 0.18, d).with_topology(TopologySpec::Links(vec![(1, 2)])),
            Scenario::lpl(17, 0.18, d).with_medium(MediumSpec::UnitDisk {
                range_m: 10.0,
                positions: vec![(1, 0.0, 0.0)],
            }),
            Scenario::lpl(17, 0.18, d)
                .with_medium(MediumSpec::UnitDisk {
                    range_m: 10.0,
                    positions: vec![(1, 0.0, 0.0)],
                })
                .without_spatial_index(),
            Scenario::blink(d).named("lpl_ch17"),
        ];
        let mut digests: Vec<u64> = variants.iter().map(Scenario::spec_digest).collect();
        digests.push(base.spec_digest());
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(
            digests.len(),
            variants.len() + 1,
            "all spec digests distinct"
        );
    }

    #[test]
    fn spec_digest_is_stable_across_calls() {
        let s = Scenario::bounce_pairs(200, SimDuration::from_secs(1)).with_medium(
            MediumSpec::Mobility {
                base: GeometrySpec::PathLoss(PathLossSpec::default()),
                positions: vec![(1, 0.0, 0.0)],
                traces: vec![(4, vec![(0, 0.0, 0.0), (1_000_000, 9.0, 0.0)])],
            },
        );
        assert_eq!(s.spec_digest(), s.clone().spec_digest());
    }

    #[test]
    fn medium_kinds_are_stable_names() {
        assert_eq!(MediumSpec::Ideal.kind(), "ideal");
        assert_eq!(
            MediumSpec::UnitDisk {
                range_m: 1.0,
                positions: vec![]
            }
            .kind(),
            "unit_disk"
        );
        assert_eq!(
            MediumSpec::PathLoss {
                model: PathLossSpec::default(),
                positions: vec![]
            }
            .kind(),
            "path_loss"
        );
        assert_eq!(
            MediumSpec::Mobility {
                base: GeometrySpec::UnitDisk { range_m: 1.0 },
                positions: vec![],
                traces: vec![]
            }
            .kind(),
            "mobility"
        );
    }
}
