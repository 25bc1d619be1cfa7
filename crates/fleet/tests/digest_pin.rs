//! Pins the report digests of fixed scenario batches across refactors of
//! the execution and analysis pipeline, and the spec digests that address
//! the result cache.
//!
//! * The **stream digests** ([`FleetReport::digest`]) fold each node's
//!   in-run entry stream (count + FNV over the encoded bytes), its stamps,
//!   stats and summaries.  Both retention modes run the same streaming
//!   simulation, so they must reproduce the same constants at any thread
//!   count; the bridge test below checks, node by node, that the log a
//!   `Raw` run collects is exactly the entry stream the sink digested.
//! * The **spec digests** ([`Scenario::spec_digest`]) are the result
//!   cache's content addresses.  A moved key would silently turn every
//!   existing `.quanto-cache/` entry into a miss.

use hw_model::SimDuration;
use quanto_core::{LogSink, StreamDigest};
use quanto_fleet::{scenarios, FleetRunner, GridSpec, MediumSpec, PathLossSpec, Scenario};

/// `pin_batch()` stream digest, recorded on the zero-materialization path.
const PIN_BATCH_STREAM_DIGEST: u64 = 0xf73f_b2e3_9f24_1280;
/// Single 4-second LPL channel-17 scenario, stream digest.
const SINGLE_LPL_STREAM_DIGEST: u64 = 0x1f37_3cb5_5ee7_ff3a;

fn pin_batch() -> Vec<Scenario> {
    let d = SimDuration::from_secs(2);
    let mut batch = scenarios::lpl_grid(&[1, 2], &[17, 26], 0.18, d);
    batch.push(Scenario::blink(d));
    batch.push(Scenario::bounce(d));
    batch.push(Scenario::idle(SimDuration::from_secs(1)));
    batch
}

/// The same batch as `pin_batch()`, but written as a grid config file — a
/// `GridSpec` must reproduce a hand-built grid scenario-for-scenario, and
/// therefore digest-for-digest.
const PIN_BATCH_GRID: &str = "
[grid]
name = pin_batch
seconds = 2

[cell.lpl]
app = lpl
interference = 0.18
seeds = 1..2
channels = 17, 26
name = lpl_ch{channel}_seed{seed}

[cell.blink]
app = blink

[cell.bounce]
app = bounce

[cell.idle]
app = idle
seconds = 1
";

/// The materializing mode — `Raw`, the streaming run plus a collecting
/// tap — must fold the constants recorded before the tap existed.
#[test]
fn materializing_modes_reproduce_pre_refactor_digests() {
    for runner in [
        FleetRunner::sequential().retain_raw(),
        FleetRunner::new(4).retain_raw(),
    ] {
        let report = runner.run(pin_batch());
        assert_eq!(
            report.digest(),
            PIN_BATCH_STREAM_DIGEST,
            "stream digest drifted (threads {}, retention {:?})",
            runner.threads(),
            runner.retention(),
        );
        assert_eq!(report.peak_entries_held(), report.total_log_entries());
    }
}

#[test]
fn streaming_mode_reproduces_the_stream_digest_pin() {
    for runner in [FleetRunner::sequential(), FleetRunner::new(4)] {
        let report = runner.run(pin_batch());
        assert_eq!(
            report.digest(),
            PIN_BATCH_STREAM_DIGEST,
            "zero-materialization stream digest drifted (threads {})",
            runner.threads(),
        );
        assert_eq!(report.peak_entries_held(), 0);
    }
}

/// The bridge between the two retention modes: for every scenario and
/// node, a fresh [`StreamDigest`] over the whole log the `Raw` run
/// collected must equal the residue the live sink folded chunk by chunk —
/// the tap saw exactly the bytes the digest did, in the same order.
#[test]
fn in_run_streaming_is_byte_identical_to_the_batch_pipeline() {
    let raw = FleetRunner::new(4).retain_raw().run(pin_batch());
    for result in &raw.results {
        let outputs = &result.raw().expect("Raw retains outputs").outputs;
        assert_eq!(outputs.len(), result.stream_meta().len());
        for ((id, out), meta) in outputs.iter().zip(result.stream_meta()) {
            assert_eq!(*id, meta.node);
            let mut digest = StreamDigest::with_encoding(result.scenario.log_encoding());
            digest.accept(&out.log);
            assert_eq!(
                (digest.entries(), digest.digest()),
                (meta.entries, meta.entry_digest),
                "scenario {} node {id}: the collected log diverged from the \
                 digested entry stream",
                result.scenario.name
            );
            assert_eq!(out.final_stamp, meta.final_stamp);
            assert_eq!(out.log_dropped, meta.log_dropped);
        }
    }
    assert_eq!(raw.digest(), PIN_BATCH_STREAM_DIGEST);
}

#[test]
fn single_scenario_digests_are_pinned_too() {
    let batch = || vec![Scenario::lpl(17, 0.18, SimDuration::from_secs(4))];
    let raw = FleetRunner::sequential().retain_raw().run(batch());
    assert_eq!(raw.digest(), SINGLE_LPL_STREAM_DIGEST);
    let streamed = FleetRunner::sequential().run(batch());
    assert_eq!(streamed.digest(), SINGLE_LPL_STREAM_DIGEST);
}

/// The `Ideal` medium is the pre-medium-subsystem explicit-topology path:
/// spelling it out with `with_medium` must reproduce the digest pin byte
/// for byte (same deliveries, same logs, no counter bytes folded).
#[test]
fn explicit_ideal_medium_reproduces_the_pinned_digests() {
    let batch: Vec<Scenario> = pin_batch()
        .into_iter()
        .map(|s| s.with_medium(MediumSpec::Ideal))
        .collect();
    let report = FleetRunner::new(4).retain_raw().run(batch);
    assert_eq!(
        report.digest(),
        PIN_BATCH_STREAM_DIGEST,
        "an explicit Ideal medium must be byte-identical to the topology path"
    );
    assert!(report
        .results
        .iter()
        .all(|r| r.medium_kind == "ideal" && !r.has_medium_counters()));
}

/// A config-file grid reproducing the pin batch yields byte-identical
/// digests — the `GridSpec` subsystem composes the same scenarios the
/// hand-written constructors built.
#[test]
fn grid_config_file_reproduces_the_pinned_digests() {
    let grid = GridSpec::parse(PIN_BATCH_GRID).expect("pin grid parses");
    let batch = grid.expand().expect("pin grid expands");
    assert_eq!(batch, pin_batch(), "grid must expand to the exact batch");
    let report = FleetRunner::new(4).run(batch);
    assert_eq!(report.digest(), PIN_BATCH_STREAM_DIGEST);
}

/// Cache keys, recorded before FNV-1a moved into `quanto_core`: an
/// ideal-medium LPL cell, a path-loss Bounce cell, and a 300-node cell
/// (v2 log encoding, so the encoding byte differs too).
#[test]
fn spec_digests_are_pinned() {
    let lpl = Scenario::lpl(17, 0.18, SimDuration::from_secs(4));
    let path_loss = Scenario::bounce(SimDuration::from_secs(2)).with_medium(MediumSpec::PathLoss {
        model: PathLossSpec::default(),
        positions: vec![(1, 0.0, 0.0), (4, 10.0, 0.0)],
    });
    let wide = scenarios::path_loss_stress(150, 3, SimDuration::from_secs(1));
    assert_eq!(wide.node_ids().len(), 300);
    assert_eq!(lpl.spec_digest(), 0x64fb_6471_c862_5300);
    assert_eq!(path_loss.spec_digest(), 0x9cf3_2c11_27e5_21e3);
    assert_eq!(wide.spec_digest(), 0xee12_7647_6ccd_1fcd);
}
