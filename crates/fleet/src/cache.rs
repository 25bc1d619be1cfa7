//! The content-addressed on-disk result cache.
//!
//! Each entry maps a scenario's canonical spec digest
//! ([`crate::Scenario::spec_digest`]) to its `ScenarioRecord`
//! — the O(1) residue a [`crate::ScenarioResult`] can be rebuilt from without
//! re-running the simulation.  The layout under the cache directory is one
//! file per entry:
//!
//! ```text
//! .quanto-cache/
//!   00f3ab12cd4507e9.json    ← {"version":1,"spec":"00f3ab12cd4507e9","record":{…}}
//! ```
//!
//! Writes are crash-safe: the entry is written to a `.tmp-<pid>-<key>` file
//! in the same directory and atomically renamed into place, so a reader can
//! never observe a half-written entry under its final name.  Reads are
//! *total*: a missing, truncated, unparsable, wrong-version or
//! wrong-content entry is a **miss** (and recomputed), never a crash and
//! never a wrong digest — the `version` and `spec` fields self-invalidate
//! stale formats and hash collisions with earlier layouts.
//!
//! Only the zero-materialization retention mode ([`crate::Retention::Stream`])
//! consults the cache: a record holds no log, so a
//! [`crate::Retention::Raw`] run never reads or writes it.
//!
//! # Example
//!
//! ```
//! use hw_model::SimDuration;
//! use quanto_fleet::{ResultCache, Scenario};
//!
//! let dir = std::env::temp_dir().join(format!("quanto-cache-doc-{}", std::process::id()));
//! let cache = ResultCache::open(&dir).unwrap();
//! // A cold cache misses; the schedulers then simulate and write back.
//! let scenario = Scenario::idle(SimDuration::from_secs(1));
//! assert!(cache.probe(0, &scenario).is_none());
//! assert_eq!(cache.stats().misses, 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::record::ScenarioRecord;
use crate::report::ScenarioResult;
use crate::scenario::Scenario;
use crate::wire::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version stamp written into every cache entry.  Entries carrying any
/// other value decode as misses, so bumping this (when the record layout
/// changes) invalidates every existing cache without touching the files.
pub const CACHE_FORMAT_VERSION: u64 = 1;

/// Hit/miss/write counters of one cache handle, mirrored into the
/// `cache.hits` / `cache.misses` / `cache.writes` obs counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that fell through to simulation (absent or invalid entries).
    pub misses: u64,
    /// Entries written (freshly simulated cells, cached for next time).
    pub writes: u64,
}

/// A handle on one cache directory.  Thread-safe: lookups and stores only
/// touch the filesystem plus atomic counters, so scoped worker threads
/// share one handle by reference.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ResultCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counters accumulated by this handle since it was opened.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Reads and validates the raw entry document for a spec digest; no
    /// counting, total on any kind of damage.
    fn read_record(&self, key: u64) -> Option<ScenarioRecord> {
        std::fs::read_to_string(self.entry_path(key))
            .ok()
            .as_deref()
            .and_then(Value::parse)
            .and_then(|v| decode_entry(&v, key))
    }

    /// Looks the scenario up by content address and rebuilds its result at
    /// submission index `index` (with [`ScenarioResult::cache_hit`] set).
    /// Any failure along the way — no file, unreadable, unparsable, wrong
    /// version, wrong spec echo, structurally invalid record, or a record
    /// that does not describe this scenario — is a counted **miss**, so the
    /// caller simply simulates.  This is the probe the sweep schedulers
    /// (the [`crate::dist`] coordinator and the `quanto-serve` daemon) run
    /// for every cell before queueing work: a hit never enters the queue.
    pub fn probe(&self, index: usize, scenario: &Scenario) -> Option<ScenarioResult> {
        self.load_result(index, scenario)
    }

    /// [`ResultCache::probe`], under the crate-internal name the runner and
    /// coordinator predate the public seam with.
    pub(crate) fn load_result(&self, index: usize, scenario: &Scenario) -> Option<ScenarioResult> {
        let result = self
            .read_record(scenario.spec_digest())
            .and_then(|record| ScenarioResult::from_record(index, scenario.clone(), &record, true));
        match result {
            Some(result) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                quanto_obs::counter_add("cache.hits", 1);
                Some(result)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                quanto_obs::counter_add("cache.misses", 1);
                None
            }
        }
    }

    /// Stores a freshly-computed record under the scenario's content
    /// address: tmp file in the same directory, then atomic rename.
    /// Best-effort — a full disk or read-only directory costs the *next*
    /// run its warm start, not this run its result — but `false` is
    /// reported so callers can surface it.
    pub(crate) fn store_record(&self, scenario: &Scenario, record: &ScenarioRecord) -> bool {
        let key = scenario.spec_digest();
        let mut body = String::with_capacity(256);
        body.push_str(&format!(
            "{{\"version\":{CACHE_FORMAT_VERSION},\"spec\":\"{key:016x}\",\"record\":"
        ));
        body.push_str(&record.encode());
        body.push_str("}\n");
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{key:016x}", std::process::id()));
        let written = std::fs::write(&tmp, &body)
            .and_then(|()| std::fs::rename(&tmp, self.entry_path(key)))
            .is_ok();
        if written {
            self.writes.fetch_add(1, Ordering::Relaxed);
            quanto_obs::counter_add("cache.writes", 1);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }
}

/// Decodes one entry document, validating the version stamp and the spec
/// echo before trusting the record.
fn decode_entry(value: &Value, key: u64) -> Option<ScenarioRecord> {
    if value.get_u64("version")? != CACHE_FORMAT_VERSION {
        return None;
    }
    if value.get_str("spec")? != format!("{key:016x}") {
        return None;
    }
    ScenarioRecord::from_value(value.get("record")?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw_model::SimDuration;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("quanto-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_record() -> ScenarioRecord {
        use crate::record::{StreamRecord, SummaryRecord};
        ScenarioRecord {
            summaries: vec![SummaryRecord {
                node: 1,
                log_entries: 5,
                log_dropped: 0,
                average_power_bits: (2.5f64).to_bits(),
                total_energy_bits: (5.0f64).to_bits(),
                radio_duty_bits: 0,
                packets_sent: 0,
                packets_received: 0,
                false_wakeups: 0,
                regression_error_bits: None,
                cpu_segments: 2,
            }],
            stream: vec![StreamRecord {
                node: 1,
                entries: 5,
                entry_digest: 99,
                final_time_us: 1_000_000,
                final_icount: 17,
                log_dropped: 0,
                radio_stats: [0; 6],
                ground_truth_bits: (5.0f64).to_bits(),
            }],
            medium: None,
        }
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::open(&dir).expect("open");
        let scenario = Scenario::idle(SimDuration::from_secs(1));
        assert!(
            cache.load_result(0, &scenario).is_none(),
            "cold cache misses"
        );
        assert!(cache.store_record(&scenario, &sample_record()));
        let hit = cache.load_result(7, &scenario).expect("warm cache hits");
        assert!(hit.cache_hit());
        assert_eq!(hit.index, 7);
        assert_eq!(hit.to_record(), sample_record());
        // A different spec does not alias.
        assert!(cache
            .load_result(0, &Scenario::idle(SimDuration::from_secs(2)))
            .is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                writes: 1
            }
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_truncated_and_stale_entries_are_misses() {
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::open(&dir).expect("open");
        let scenario = Scenario::idle(SimDuration::from_secs(1));
        assert!(cache.store_record(&scenario, &sample_record()));
        let path = cache.entry_path(scenario.spec_digest());
        let good = std::fs::read_to_string(&path).expect("entry exists");

        // Truncated mid-document.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(cache.load_result(0, &scenario).is_none());
        // Outright garbage.
        std::fs::write(&path, b"\x00\xffnot json at all").unwrap();
        assert!(cache.load_result(0, &scenario).is_none());
        // A future format version self-invalidates.
        std::fs::write(&path, good.replace("\"version\":1", "\"version\":999")).unwrap();
        assert!(cache.load_result(0, &scenario).is_none());
        // A spec-echo mismatch (entry landed under the wrong name).
        let other = Scenario::idle(SimDuration::from_secs(3));
        std::fs::copy(&path, cache.entry_path(other.spec_digest())).unwrap();
        std::fs::write(&path, &good).unwrap();
        assert!(cache.load_result(0, &other).is_none());
        // A structurally-valid record for the *wrong* scenario (two nodes
        // expected, one recorded) is also a miss.
        let bounce = Scenario::bounce(SimDuration::from_secs(1));
        assert!(cache.store_record(&bounce, &sample_record()));
        assert!(cache.load_result(0, &bounce).is_none());
        // The intact entry still hits — misses never poison the cache.
        let hit = cache.load_result(0, &scenario).expect("intact entry hits");
        assert_eq!(hit.to_record(), sample_record());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn writes_are_atomic_no_tmp_left_behind() {
        let dir = tmp_dir("atomic");
        let cache = ResultCache::open(&dir).expect("open");
        let scenario = Scenario::blink(SimDuration::from_secs(1));
        assert!(cache.store_record(&scenario, &sample_record()));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir readable")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files must be renamed away");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
