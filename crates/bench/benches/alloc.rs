//! Criterion bench: allocator traffic on the hot paths.
//!
//! `alloc/steady_state_record` measures the warm record → flush-drain →
//! digest-fold pipeline — the per-entry cost the counting-allocator gate
//! proves is allocation-free, timed here so a regression that sneaks an
//! allocation back in also shows up as a latency cliff.
//!
//! `fleet/workspace_reuse` vs `fleet/workspace_fresh` measure the same
//! streaming scenario execution through a pooled [`SimWorkspace`] and
//! through a cold workspace per run; `scripts/check_bench.sh` pins the
//! reuse path faster than the fresh path.

use criterion::{criterion_group, criterion_main, Criterion};
use hw_model::{SimDuration, SimTime, SinkId};
use quanto_core::{LogEntry, OverflowPolicy, RamLogger, StreamDigest};
use quanto_fleet::{Scenario, ScenarioResult, SimWorkspace};
use std::cell::RefCell;
use std::rc::Rc;

fn bench_steady_state_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("alloc");
    const CAP: usize = 800;
    // One long-lived logger: the buffer is warm after the first batch, so
    // every sample measures the steady state.
    let digest = Rc::new(RefCell::new(StreamDigest::new()));
    let tap = digest.clone();
    let mut logger = RamLogger::new(CAP, OverflowPolicy::Flush);
    logger.set_sink(Box::new(move |chunk: &[LogEntry]| {
        let mut digest = tap.borrow_mut();
        for entry in chunk {
            digest.fold(entry);
        }
    }));
    for i in 0..2_000u32 {
        logger.record(LogEntry::power_state(
            SimTime::from_micros(i as u64),
            i,
            SinkId(1),
            (i % 2) as u16,
        ));
    }
    group.bench_function("steady_state_record", |b| {
        b.iter(|| {
            for i in 0..1000u32 {
                logger.record(LogEntry::power_state(
                    SimTime::from_micros(i as u64),
                    i,
                    SinkId(1),
                    (i % 2) as u16,
                ));
            }
            logger.flushed()
        });
    });
    group.finish();
}

fn bench_workspace_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    let scenario = || Scenario::bounce(SimDuration::from_millis(500));
    // Pooled: one workspace across every sample — after the first run the
    // engine containers, log buffers and analysis slots all recycle.
    let mut ws = SimWorkspace::new();
    ScenarioResult::execute_streaming_in(0, scenario(), &mut ws);
    group.bench_function("workspace_reuse", |b| {
        b.iter(|| ScenarioResult::execute_streaming_in(0, scenario(), &mut ws));
    });
    // Fresh: a cold workspace per run — every allocation rebuilt.
    group.bench_function("workspace_fresh", |b| {
        b.iter(|| ScenarioResult::execute_streaming_in(0, scenario(), &mut SimWorkspace::new()));
    });
    group.finish();
}

criterion_group!(benches, bench_steady_state_record, bench_workspace_reuse);
criterion_main!(benches);
