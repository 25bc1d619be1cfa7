//! The non-perturbation contract of the `quanto-obs` layer: enabling
//! observability must not change a single simulated byte.  Every stream
//! digest pin from `digest_pin.rs` is re-asserted here with obs recording,
//! in both retention modes, and the obs-on reports are compared
//! stream-for-stream against obs-off runs of the same batches — including
//! the smoke grid's medium axis, so the path-loss effort counters and the
//! spatial index are covered too.
//!
//! One `#[test]` on purpose: the enabled flag is process-global, and this
//! integration binary owning exactly one test keeps the off-reference and
//! on-replay phases strictly ordered without any cross-test races.

use hw_model::SimDuration;
use quanto_fleet::{scenarios, FleetRunner, GridSpec, Scenario};

const PIN_BATCH_STREAM_DIGEST: u64 = 0xf73f_b2e3_9f24_1280;
const SINGLE_LPL_STREAM_DIGEST: u64 = 0x1f37_3cb5_5ee7_ff3a;

fn pin_batch() -> Vec<Scenario> {
    let d = SimDuration::from_secs(2);
    let mut batch = scenarios::lpl_grid(&[1, 2], &[17, 26], 0.18, d);
    batch.push(Scenario::blink(d));
    batch.push(Scenario::bounce(d));
    batch.push(Scenario::idle(SimDuration::from_secs(1)));
    batch
}

/// The CI smoke grid with every cell cut to two simulated seconds: the same
/// scenario structure (all four medium kinds, the seed axes), test-sized.
fn smoke_batch() -> Vec<Scenario> {
    let mut grid =
        GridSpec::parse(include_str!("../../bench/grids/smoke.grid")).expect("smoke grid parses");
    grid.override_seconds(2.0);
    grid.expand().expect("smoke grid expands")
}

/// One slow cell ahead of many fast ones: without the backpressure window
/// the fast cells' results would pile up in the reorder buffer behind it.
fn skewed_batch() -> Vec<Scenario> {
    let mut batch = vec![Scenario::lpl(17, 0.18, SimDuration::from_secs(120))];
    batch.extend((1..=32).map(|seed| {
        Scenario::idle(SimDuration::from_millis(100))
            .with_seed(seed)
            .named(format!("idle_seed{seed}"))
    }));
    batch
}

#[test]
fn observability_never_perturbs_a_digest() {
    // Phase 1: obs off (the default) — record the reference digests and
    // re-assert the pins.
    assert!(!quanto_obs::enabled(), "obs must start disabled");
    let off_pin = FleetRunner::new(4).retain_raw().run(pin_batch());
    assert_eq!(off_pin.digest(), PIN_BATCH_STREAM_DIGEST);
    let single = || vec![Scenario::lpl(17, 0.18, SimDuration::from_secs(4))];
    let off_single = FleetRunner::sequential().retain_raw().run(single());
    assert_eq!(off_single.digest(), SINGLE_LPL_STREAM_DIGEST);
    let off_smoke = FleetRunner::new(4).run(smoke_batch());
    assert_eq!(
        off_smoke.digest(),
        FleetRunner::sequential().run(smoke_batch()).digest(),
        "smoke grid must already be thread-count independent obs-off"
    );

    // Phase 2: the identical runs with every span and metric recording.
    quanto_obs::set_enabled(true);
    let on_pin = FleetRunner::new(4).retain_raw().run(pin_batch());
    let on_pin_stream = FleetRunner::new(4).run(pin_batch());
    let on_single = FleetRunner::sequential().retain_raw().run(single());
    let on_smoke = FleetRunner::new(4).run(smoke_batch());
    let on_smoke_seq = FleetRunner::sequential().run(smoke_batch());
    let on_skewed = FleetRunner::new(4).run(skewed_batch());
    quanto_obs::set_enabled(false);
    let harvest = quanto_obs::harvest();

    assert_eq!(
        on_pin.digest(),
        PIN_BATCH_STREAM_DIGEST,
        "obs-on Raw run drifted from the pinned stream digest"
    );
    assert_eq!(on_pin_stream.digest(), PIN_BATCH_STREAM_DIGEST);
    assert_eq!(on_single.digest(), SINGLE_LPL_STREAM_DIGEST);
    // Obs must not perturb the collected logs either.
    for (off, on) in off_pin.results.iter().zip(on_pin.results.iter()) {
        let (off_raw, on_raw) = (off.raw().unwrap(), on.raw().unwrap());
        for ((id, a), (_, b)) in off_raw.outputs.iter().zip(on_raw.outputs.iter()) {
            assert_eq!(a.log, b.log, "scenario {} node {id}", off.scenario.name);
        }
    }
    assert_eq!(
        on_smoke.digest(),
        off_smoke.digest(),
        "obs-on smoke grid digest diverged from the obs-off reference"
    );
    assert_eq!(on_smoke_seq.digest(), off_smoke.digest());
    // Stronger than the folded digest: every scenario's entry stream
    // (count + FNV over encoded bytes) must match node-for-node.
    for (off, on) in off_smoke.results.iter().zip(on_smoke.results.iter()) {
        assert_eq!(
            off.stream_meta(),
            on.stream_meta(),
            "scenario {} entry stream changed under observation",
            off.scenario.name
        );
    }

    // Guard against vacuous success: the obs-on phase must actually have
    // recorded worker spans and engine counters.
    assert!(
        harvest
            .threads
            .iter()
            .any(|t| t.label.starts_with("worker-")),
        "no worker dumps harvested — instrumentation never ran"
    );
    assert!(
        harvest
            .merged
            .counter("engine.events_dispatched")
            .unwrap_or(0)
            > 0,
        "engine counters missing from the harvest"
    );

    // The backpressure window bounds the merge loop's reorder buffer: with
    // 4 workers the window is 8 scenarios, however far the skewed batch's
    // fast cells could race ahead.  (This binary is the one that records
    // obs, so the bound is read here.)
    assert_eq!(on_skewed.results.len(), 33);
    let occupancy = harvest
        .merged
        .histogram("runner.reorder_window_occupancy")
        .expect("multi-threaded runs record reorder occupancy");
    assert!(
        occupancy.max() <= Some(8),
        "reorder buffer held {:?} results, past the 8-scenario window",
        occupancy.max()
    );
}
