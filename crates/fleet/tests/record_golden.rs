//! Pins the bytes of the per-scenario record (PROTOCOL.md §5): the cache
//! entry of every cell of `digest_pin.rs`'s `pin_batch()` plus the medium
//! axis at 2 s, one line per cell in batch order, as a sequential run
//! with a fresh cache writes them.
//!
//! The report digest folds only part of a record (not `re`, the summaries'
//! `e`/`d`/`ps`/`pr`/`fw`, three of the six `rs` counters or the counters'
//! `ce`/`pc`), so the digest pins alone would miss a swapped field in the
//! record's writer.  The batch covers `re` both null and set (2 s LPL and
//! 2 s Blink) and `c` both null and set (the three geometric mediums).
//!
//! The golden file is the concatenation of those cache entries.  It moves
//! only with a record-layout change, which also bumps
//! `CACHE_FORMAT_VERSION`.

use hw_model::SimDuration;
use quanto_fleet::{scenarios, FleetRunner, ResultCache, Scenario};

const GOLDEN: &str = include_str!("golden/records.jsonl");

fn batch() -> Vec<Scenario> {
    let d = SimDuration::from_secs(2);
    let mut batch = scenarios::lpl_grid(&[1, 2], &[17, 26], 0.18, d);
    batch.push(Scenario::blink(d));
    batch.push(Scenario::bounce(d));
    batch.push(Scenario::idle(SimDuration::from_secs(1)));
    batch.extend(scenarios::medium_grid(d));
    batch
}

#[test]
fn cache_entries_match_the_golden_records() {
    let dir = std::env::temp_dir().join(format!("quanto-record-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).expect("open a fresh cache");
    let batch = batch();
    FleetRunner::sequential().run_cached(batch.clone(), Some(&cache));
    let mut got = String::new();
    for scenario in &batch {
        let path = dir.join(format!("{:016x}.json", scenario.spec_digest()));
        got.push_str(
            &std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
        );
    }
    assert_eq!(got.lines().count(), batch.len(), "one line per cell");
    if let Some((line, (g, w))) = got
        .lines()
        .zip(GOLDEN.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!(
            "cell {line} ({}) differs from the golden record\n   got: {g}\n  want: {w}\n\
             (the regenerated entries are under {})",
            batch[line].name,
            dir.display()
        );
    }
    assert_eq!(got, GOLDEN, "same lines, different bytes");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
