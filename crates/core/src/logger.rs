//! The RAM logger.
//!
//! Quanto decouples *generating* event information from *tracking* it: the
//! synchronous part records a 12-byte entry to a fixed RAM buffer (800
//! entries in the prototype), and the asynchronous part gets the data off the
//! node — either by periodically stopping and dumping the buffer, or by a
//! low-priority task that drains it continuously to an external port.
//!
//! The simulated logger models the same three policies and keeps the
//! statistics the cost analysis (Table 4, Section 4.4) needs.  The
//! asynchronous half is the [`LogSink`] seam: with a sink attached, every
//! `Flush`-policy drain hands the full buffer to the sink as one chunk and
//! the logger's own memory stays bounded by its capacity; without one, the
//! drained entries accumulate host-side in `drained` (the legacy batch
//! behaviour the analysis wrappers still rely on).

use crate::log::{LogEntry, ENTRY_SIZE_BYTES};
use crate::sink::LogSink;
use std::fmt;

/// What to do when the RAM buffer fills up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Stop recording; further entries are dropped and counted.  This is the
    /// paper's first implementation (record, stop, dump offline).
    Stop,
    /// Overwrite the oldest entries (a ring buffer).
    Wrap,
    /// Move the full buffer to the drained log, modelling the continuous
    /// logging mode where a low-priority task empties the buffer to an
    /// external interface while the CPU would otherwise be idle.
    Flush,
}

/// Fixed-capacity in-RAM event log with overflow statistics.
pub struct RamLogger {
    capacity: usize,
    policy: OverflowPolicy,
    buffer: Vec<LogEntry>,
    /// Entries already moved out of the RAM buffer (Flush policy) but still
    /// held host-side because no sink is attached.
    drained: Vec<LogEntry>,
    /// Streaming consumer of drained chunks; when attached, `Flush` drains
    /// and end-of-run takes go through it instead of growing `drained`.
    sink: Option<Box<dyn LogSink>>,
    /// Entries that left the logger through a sink (attached or explicit).
    flushed: u64,
    /// Entries lost to overflow (Stop) or overwritten (Wrap).
    dropped: u64,
    /// Total entries ever offered to the logger.
    offered: u64,
    /// Number of times the buffer filled up.
    overflows: u64,
}

impl fmt::Debug for RamLogger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RamLogger")
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
            .field("buffered", &self.buffer.len())
            .field("drained", &self.drained.len())
            .field("sink", &self.sink.is_some())
            .field("flushed", &self.flushed)
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl RamLogger {
    /// The prototype's default buffer size, in entries.
    pub const DEFAULT_CAPACITY: usize = 800;

    /// Creates a logger with the given capacity and overflow policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, policy: OverflowPolicy) -> Self {
        assert!(capacity > 0, "logger capacity must be positive");
        RamLogger {
            capacity,
            policy,
            buffer: Vec::with_capacity(capacity),
            drained: Vec::new(),
            sink: None,
            flushed: 0,
            dropped: 0,
            offered: 0,
            overflows: 0,
        }
    }

    /// The paper's default configuration: an 800-entry buffer that stops when
    /// full.
    pub fn paper_default() -> Self {
        RamLogger::new(Self::DEFAULT_CAPACITY, OverflowPolicy::Stop)
    }

    /// The buffer capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The buffer capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity * ENTRY_SIZE_BYTES
    }

    /// The overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Attaches the streaming consumer of drained chunks.  Entries already
    /// sitting in `drained` are handed to the sink first, so the sink sees
    /// every surviving entry exactly once and in order.
    pub fn set_sink(&mut self, mut sink: Box<dyn LogSink>) {
        if !self.drained.is_empty() {
            sink.accept(&self.drained);
            self.flushed += self.drained.len() as u64;
            self.drained.clear();
        }
        self.sink = Some(sink);
    }

    /// Whether a streaming sink is attached.
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Appends an entry, applying the overflow policy if the buffer is full.
    ///
    /// Returns `true` if the entry was stored (possibly evicting another),
    /// `false` if it was dropped.  The not-full case is the steady-state hot
    /// path: one bounds check and a push into pre-reserved capacity, with the
    /// policy `match` hoisted into the cold overflow handler.
    #[inline]
    pub fn record(&mut self, entry: LogEntry) -> bool {
        self.offered += 1;
        if self.buffer.len() < self.capacity {
            self.buffer.push(entry);
            return true;
        }
        self.record_overflow(entry)
    }

    /// The buffer-full slow path — at most once per `capacity` records under
    /// `Flush`, so it stays out of the inlined fast path.
    #[cold]
    #[inline(never)]
    fn record_overflow(&mut self, entry: LogEntry) -> bool {
        self.overflows += 1;
        match self.policy {
            OverflowPolicy::Stop => {
                self.dropped += 1;
                false
            }
            OverflowPolicy::Wrap => {
                self.buffer.remove(0);
                self.buffer.push(entry);
                self.dropped += 1;
                true
            }
            OverflowPolicy::Flush => {
                if let Some(sink) = self.sink.as_mut() {
                    sink.accept(&self.buffer);
                    self.flushed += self.buffer.len() as u64;
                    self.buffer.clear();
                } else {
                    self.drained.append(&mut self.buffer);
                }
                self.buffer.push(entry);
                true
            }
        }
    }

    /// Entries currently in the RAM buffer.
    pub fn buffered(&self) -> &[LogEntry] {
        &self.buffer
    }

    /// Entries that were flushed out of the buffer and are still held
    /// host-side (always empty while a sink is attached).
    pub fn drained(&self) -> &[LogEntry] {
        &self.drained
    }

    /// The surviving held entries as chunks in chronological order (drained
    /// then buffered) — the non-destructive, copy-free view a [`LogSink`]
    /// consumer iterates.
    pub fn chunks(&self) -> impl Iterator<Item = &[LogEntry]> {
        [self.drained.as_slice(), self.buffer.as_slice()]
            .into_iter()
            .filter(|c| !c.is_empty())
    }

    /// Number of surviving entries still held by the logger (entries that
    /// already left through a sink are counted by [`RamLogger::flushed`]).
    pub fn len(&self) -> usize {
        self.drained.len() + self.buffer.len()
    }

    /// Returns true if the logger holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries offered to the logger (stored plus dropped).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Entries lost to the overflow policy.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Entries that left the logger through a sink.
    pub fn flushed(&self) -> u64 {
        self.flushed
    }

    /// Number of times the buffer was found full.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Bytes of RAM the surviving entries occupy (drained entries are assumed
    /// to have left the node).
    pub fn ram_bytes_used(&self) -> usize {
        self.buffer.len() * ENTRY_SIZE_BYTES
    }

    /// Streams every held entry (drained then buffered, in chronological
    /// order) through `sink` and clears the logger — the end-of-run "host
    /// pulls the log off the node" step, without materialising an
    /// intermediate `Vec`.
    pub fn drain_to(&mut self, sink: &mut dyn LogSink) {
        for chunk in [self.drained.as_slice(), self.buffer.as_slice()] {
            if !chunk.is_empty() {
                sink.accept(chunk);
            }
        }
        self.flushed += self.len() as u64;
        self.drained.clear();
        self.buffer.clear();
    }

    /// Streams every remaining held entry through the *attached* sink and
    /// clears the logger.  No-op (returning `false`) when no sink is
    /// attached.
    pub fn drain_to_attached_sink(&mut self) -> bool {
        let Some(mut sink) = self.sink.take() else {
            return false;
        };
        self.drain_to(sink.as_mut());
        self.sink = Some(sink);
        true
    }

    /// Simulates the host pulling the whole log off the node: returns every
    /// surviving held entry and clears the logger.  Moves the `drained`
    /// backlog out wholesale instead of copying it — only the buffered tail
    /// (at most `capacity` entries) is appended.
    pub fn take(&mut self) -> Vec<LogEntry> {
        let n = self.len() as u64;
        let mut all = std::mem::take(&mut self.drained);
        all.append(&mut self.buffer);
        self.flushed += n;
        all
    }

    /// Returns the logger to its just-constructed state — empty, zeroed
    /// statistics, no sink — keeping the RAM buffer's allocation so a pooled
    /// logger records without reallocating.  Capacity and policy are
    /// unchanged.
    pub fn reset(&mut self) {
        self.buffer.clear();
        self.drained.clear();
        self.sink = None;
        self.flushed = 0;
        self.dropped = 0;
        self.offered = 0;
        self.overflows = 0;
    }

    /// Adopts a recycled entry buffer as the RAM buffer, keeping its
    /// allocation.  Only valid on an empty logger (a pool hands buffers to
    /// freshly built or [`RamLogger::reset`] loggers); the buffer is cleared
    /// and grown to at least `capacity` entries.
    pub fn adopt_buffer(&mut self, mut buf: Vec<LogEntry>) {
        debug_assert!(
            self.buffer.is_empty(),
            "adopt_buffer requires an empty logger"
        );
        buf.clear();
        if buf.capacity() < self.capacity {
            buf.reserve(self.capacity - buf.len());
        }
        self.buffer = buf;
    }

    /// Surrenders the RAM buffer's allocation to a pool, clearing any held
    /// entries without accounting them (the run is over; the replacement
    /// buffer is empty).  The logger is left with an unallocated buffer and
    /// must be rebuilt or re-adopted before further use.
    pub fn recycle_buffer(&mut self) -> Vec<LogEntry> {
        let mut buf = std::mem::take(&mut self.buffer);
        buf.clear();
        buf
    }
}

impl Default for RamLogger {
    fn default() -> Self {
        RamLogger::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountingSink;
    use hw_model::{SimTime, SinkId};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn entry(i: u32) -> LogEntry {
        LogEntry::power_state(SimTime::from_micros(i as u64), i, SinkId(1), (i % 4) as u16)
    }

    /// Every held entry in chronological order (the old `entries()` view).
    fn held(l: &RamLogger) -> Vec<LogEntry> {
        l.chunks().flatten().copied().collect()
    }

    #[test]
    fn default_matches_paper_dimensions() {
        let l = RamLogger::paper_default();
        assert_eq!(l.capacity(), 800);
        assert_eq!(l.capacity_bytes(), 9600);
        assert_eq!(l.policy(), OverflowPolicy::Stop);
        assert!(l.is_empty());
        assert!(!l.has_sink());
    }

    #[test]
    fn stop_policy_drops_after_capacity() {
        let mut l = RamLogger::new(3, OverflowPolicy::Stop);
        for i in 0..5 {
            l.record(entry(i));
        }
        assert_eq!(l.len(), 3);
        assert_eq!(l.dropped(), 2);
        assert_eq!(l.offered(), 5);
        assert_eq!(l.overflows(), 2);
        // The first three survive, all of them still in the RAM buffer.
        assert_eq!(held(&l)[0], entry(0));
        assert_eq!(held(&l)[2], entry(2));
        assert_eq!(l.buffered(), &[entry(0), entry(1), entry(2)][..]);
        assert!(l.drained().is_empty(), "Stop never drains");
    }

    #[test]
    fn wrap_policy_keeps_newest() {
        let mut l = RamLogger::new(3, OverflowPolicy::Wrap);
        for i in 0..5 {
            assert!(l.record(entry(i)));
        }
        assert_eq!(l.len(), 3);
        assert_eq!(l.dropped(), 2);
        let e = held(&l);
        assert_eq!(e[0], entry(2));
        assert_eq!(e[2], entry(4));
        // The ring lives entirely in the RAM buffer.
        assert_eq!(l.buffered(), &[entry(2), entry(3), entry(4)][..]);
        assert!(l.drained().is_empty(), "Wrap never drains");
    }

    #[test]
    fn flush_policy_preserves_everything() {
        let mut l = RamLogger::new(2, OverflowPolicy::Flush);
        for i in 0..7 {
            assert!(l.record(entry(i)));
        }
        assert_eq!(l.dropped(), 0);
        assert_eq!(l.len(), 7);
        // Chronological order is preserved across drain boundaries.
        let e = held(&l);
        for (i, entry_i) in e.iter().enumerate() {
            assert_eq!(*entry_i, entry(i as u32));
        }
        assert!(l.ram_bytes_used() <= 2 * ENTRY_SIZE_BYTES);
        assert!(!l.drained().is_empty());
        assert!(!l.buffered().is_empty());
    }

    #[test]
    fn attached_sink_bounds_logger_memory() {
        let collected: Rc<RefCell<Vec<LogEntry>>> = Rc::new(RefCell::new(Vec::new()));
        let tap = collected.clone();
        let mut l = RamLogger::new(4, OverflowPolicy::Flush);
        l.set_sink(Box::new(move |chunk: &[LogEntry]| {
            tap.borrow_mut().extend_from_slice(chunk);
        }));
        assert!(l.has_sink());
        const N: u32 = 23;
        for i in 0..N {
            assert!(l.record(entry(i)));
            // With a sink attached, nothing accumulates host-side.
            assert!(l.drained().is_empty());
            assert!(l.len() <= l.capacity());
        }
        // The end-of-run take goes through the same sink.
        assert!(l.drain_to_attached_sink());
        assert!(l.is_empty());
        assert_eq!(l.flushed(), N as u64);
        assert_eq!(l.dropped(), 0);
        let seen = collected.borrow();
        assert_eq!(seen.len(), N as usize);
        for (i, e) in seen.iter().enumerate() {
            assert_eq!(*e, entry(i as u32), "sink order preserved");
        }
    }

    #[test]
    fn set_sink_forwards_already_drained_entries() {
        let mut l = RamLogger::new(2, OverflowPolicy::Flush);
        for i in 0..5 {
            l.record(entry(i));
        }
        let drained_before = l.drained().len();
        assert!(drained_before > 0);
        let collected: Rc<RefCell<Vec<LogEntry>>> = Rc::new(RefCell::new(Vec::new()));
        let tap = collected.clone();
        l.set_sink(Box::new(move |chunk: &[LogEntry]| {
            tap.borrow_mut().extend_from_slice(chunk);
        }));
        assert!(l.drained().is_empty(), "drained handed to the sink");
        assert_eq!(l.flushed(), drained_before as u64);
        assert_eq!(collected.borrow().len(), drained_before);
        assert_eq!(collected.borrow()[0], entry(0));
    }

    #[test]
    fn drain_to_attached_sink_without_sink_is_a_noop() {
        let mut l = RamLogger::new(2, OverflowPolicy::Flush);
        l.record(entry(0));
        assert!(!l.drain_to_attached_sink());
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn take_clears_the_log() {
        let mut l = RamLogger::new(4, OverflowPolicy::Stop);
        l.record(entry(0));
        l.record(entry(1));
        let taken = l.take();
        assert_eq!(taken.len(), 2);
        assert!(l.is_empty());
        assert_eq!(l.ram_bytes_used(), 0);
        assert_eq!(l.flushed(), 2, "take is sink-based draining");
    }

    #[test]
    fn take_moves_the_drained_backlog_without_copying() {
        let mut l = RamLogger::new(2, OverflowPolicy::Flush);
        for i in 0..7 {
            l.record(entry(i));
        }
        let backlog_ptr = l.drained().as_ptr();
        let taken = l.take();
        assert_eq!(taken.len(), 7);
        assert_eq!(
            taken.as_ptr(),
            backlog_ptr,
            "backlog must be moved, not copied"
        );
        for (i, e) in taken.iter().enumerate() {
            assert_eq!(*e, entry(i as u32));
        }
        assert!(l.is_empty());
        assert_eq!(l.flushed(), 7);
        assert_eq!(l.offered(), 7);
    }

    #[test]
    fn reset_returns_logger_to_boot_state_keeping_capacity() {
        let mut l = RamLogger::new(3, OverflowPolicy::Flush);
        l.set_sink(Box::new(CountingSink::new()));
        for i in 0..10 {
            l.record(entry(i));
        }
        let buf_ptr = l.buffered().as_ptr();
        l.reset();
        assert!(l.is_empty());
        assert!(!l.has_sink());
        assert_eq!(l.offered(), 0);
        assert_eq!(l.flushed(), 0);
        assert_eq!(l.dropped(), 0);
        assert_eq!(l.overflows(), 0);
        assert_eq!(l.capacity(), 3);
        assert_eq!(l.policy(), OverflowPolicy::Flush);
        l.record(entry(0));
        assert_eq!(
            l.buffered().as_ptr(),
            buf_ptr,
            "reset keeps the buffer allocation"
        );
    }

    #[test]
    fn recycled_buffer_round_trips_through_adoption() {
        let mut a = RamLogger::new(4, OverflowPolicy::Stop);
        a.record(entry(0));
        a.record(entry(1));
        let mut recycled = a.recycle_buffer();
        assert!(recycled.is_empty());
        assert!(recycled.capacity() >= 4);
        recycled.push(entry(9)); // stale garbage a pool might carry
        let ptr = recycled.as_ptr();
        let mut b = RamLogger::new(4, OverflowPolicy::Wrap);
        b.adopt_buffer(recycled);
        assert!(b.is_empty(), "adopted buffer arrives cleared");
        b.record(entry(5));
        assert_eq!(b.buffered(), &[entry(5)][..]);
        assert_eq!(b.buffered().as_ptr(), ptr, "allocation is reused");
    }

    #[test]
    fn adopting_an_undersized_buffer_grows_it_to_capacity() {
        let mut l = RamLogger::new(16, OverflowPolicy::Stop);
        l.adopt_buffer(Vec::new());
        assert!(l.buffered().is_empty());
        for i in 0..16 {
            assert!(l.record(entry(i)));
        }
        assert_eq!(l.overflows(), 0);
    }

    #[test]
    fn drain_to_streams_in_chunk_order() {
        let mut l = RamLogger::new(2, OverflowPolicy::Flush);
        for i in 0..5 {
            l.record(entry(i));
        }
        let mut counter = CountingSink::new();
        l.drain_to(&mut counter);
        // One drained chunk plus one buffered chunk.
        assert_eq!(counter.chunks(), 2);
        assert_eq!(counter.entries(), 5);
        assert!(l.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = RamLogger::new(0, OverflowPolicy::Stop);
    }

    #[test]
    fn filling_exactly_to_default_capacity_never_overflows() {
        for policy in [
            OverflowPolicy::Stop,
            OverflowPolicy::Wrap,
            OverflowPolicy::Flush,
        ] {
            let mut l = RamLogger::new(RamLogger::DEFAULT_CAPACITY, policy);
            for i in 0..RamLogger::DEFAULT_CAPACITY as u32 {
                assert!(l.record(entry(i)), "{policy:?} rejected entry {i}");
            }
            assert_eq!(l.len(), RamLogger::DEFAULT_CAPACITY);
            assert_eq!(l.offered(), RamLogger::DEFAULT_CAPACITY as u64);
            assert_eq!(l.overflows(), 0, "{policy:?} overflowed while not full");
            assert_eq!(l.dropped(), 0);
            assert_eq!(l.ram_bytes_used(), l.capacity_bytes());
        }
    }

    #[test]
    fn overflow_accounting_is_consistent_at_default_capacity() {
        // Push well past the paper's 800-entry buffer (three wraps' worth)
        // and check each policy's books balance.
        const N: u32 = 2_500;
        const CAP: usize = RamLogger::DEFAULT_CAPACITY;
        let expected_overflows = N as u64 - CAP as u64;
        for policy in [
            OverflowPolicy::Stop,
            OverflowPolicy::Wrap,
            OverflowPolicy::Flush,
        ] {
            let mut l = RamLogger::new(CAP, policy);
            let mut stored = 0u64;
            for i in 0..N {
                if l.record(entry(i)) {
                    stored += 1;
                }
            }
            assert_eq!(l.offered(), N as u64, "{policy:?} offered");
            // The books always balance: every offered entry either survives
            // somewhere or was counted as dropped.
            assert_eq!(
                l.len() as u64 + l.flushed() + l.dropped(),
                l.offered(),
                "{policy:?} lost entries without accounting for them"
            );
            // The RAM buffer never exceeds its fixed footprint.
            assert!(l.buffered().len() <= CAP);
            assert!(l.ram_bytes_used() <= l.capacity_bytes());
            match policy {
                OverflowPolicy::Stop => {
                    // Every record past capacity finds the buffer full and
                    // is rejected; the oldest entries survive.
                    assert_eq!(stored, CAP as u64);
                    assert_eq!(l.len(), CAP);
                    assert_eq!(l.overflows(), expected_overflows);
                    assert_eq!(l.dropped(), expected_overflows);
                    assert_eq!(held(&l)[0], entry(0));
                    assert_eq!(held(&l)[CAP - 1], entry(CAP as u32 - 1));
                }
                OverflowPolicy::Wrap => {
                    // Every record is accepted but the oldest are overwritten.
                    assert_eq!(stored, N as u64);
                    assert_eq!(l.len(), CAP);
                    assert_eq!(l.overflows(), expected_overflows);
                    assert_eq!(l.dropped(), expected_overflows);
                    assert_eq!(held(&l)[0], entry(N - CAP as u32));
                    assert_eq!(held(&l)[CAP - 1], entry(N - 1));
                }
                OverflowPolicy::Flush => {
                    // Draining empties the buffer, so the logger only finds
                    // it full once per refill — and nothing is ever lost.
                    assert_eq!(stored, N as u64);
                    assert_eq!(l.len(), N as usize);
                    assert_eq!(l.overflows(), (N as u64 - CAP as u64).div_ceil(CAP as u64));
                    assert_eq!(l.dropped(), 0);
                    assert_eq!(held(&l)[0], entry(0));
                    assert_eq!(held(&l)[N as usize - 1], entry(N - 1));
                }
            }
        }
    }

    #[test]
    fn sink_backed_flush_books_balance_too() {
        const N: u32 = 2_500;
        const CAP: usize = 800;
        let mut l = RamLogger::new(CAP, OverflowPolicy::Flush);
        let counter = Rc::new(RefCell::new(CountingSink::new()));
        let tap = counter.clone();
        l.set_sink(Box::new(move |chunk: &[LogEntry]| {
            tap.borrow_mut().accept(chunk);
        }));
        for i in 0..N {
            assert!(l.record(entry(i)));
        }
        assert_eq!(
            l.len() as u64 + l.flushed() + l.dropped(),
            l.offered(),
            "sink-backed books must balance"
        );
        assert_eq!(l.flushed(), counter.borrow().entries());
        l.drain_to_attached_sink();
        assert_eq!(counter.borrow().entries(), N as u64);
        assert_eq!(l.dropped(), 0);
    }
}
