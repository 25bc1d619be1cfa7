//! The log-consumption seam.
//!
//! On the real platform the asynchronous half of Quanto's logging gets
//! entries *off the node* — over the UART, to flash, or to a host-side
//! collector — while the synchronous half keeps appending to the fixed RAM
//! buffer.  [`LogSink`] is that seam in the simulation: a chunk-wise consumer
//! of [`LogEntry`] slices.  The [`crate::logger::RamLogger`] pushes each
//! buffer's worth through the sink when the `Flush` overflow policy drains
//! it, and again at the end of a run, so a consumer that processes chunks
//! incrementally (the `analysis` crate's interval builders) holds memory
//! proportional to its *open* state, not to the total number of events.

use crate::log::{LogEncoding, LogEntry};

/// A chunk-wise consumer of log entries.
///
/// Chunks arrive in chronological log order; a sink sees every surviving
/// entry exactly once.  Chunk boundaries carry no meaning — they are whatever
/// the producer's buffer happened to hold — so implementations must not
/// assume alignment with any logical boundary (intervals, wraps, packets).
pub trait LogSink {
    /// Consumes one chunk of entries, in log order.
    fn accept(&mut self, chunk: &[LogEntry]);
}

/// Every `FnMut(&[LogEntry])` closure is a sink.
impl<F: FnMut(&[LogEntry])> LogSink for F {
    fn accept(&mut self, chunk: &[LogEntry]) {
        self(chunk)
    }
}

/// A sink that concatenates every chunk into one `Vec` — the adapter from
/// the streaming world back to the batch world.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    entries: Vec<LogEntry>,
}

impl VecSink {
    /// An empty collector.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The entries collected so far.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Consumes the sink, returning everything it collected.
    pub fn into_entries(self) -> Vec<LogEntry> {
        self.entries
    }
}

impl LogSink for VecSink {
    fn accept(&mut self, chunk: &[LogEntry]) {
        self.entries.extend_from_slice(chunk);
    }
}

/// The 64-bit FNV-1a hash behind every simulation digest: [`StreamDigest`]
/// folds entry bytes through it, and the fleet folds its report digest and
/// scenario spec digests (the result cache's content addresses) through it
/// too.  FNV-1a folds byte by byte, so writing a concatenation hashes
/// identically to writing its pieces.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// FNV-1a 64-bit offset basis.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a 64-bit prime.
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// A fresh hash (nothing folded).
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Folds `bytes`, in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(Self::PRIME);
        }
        self.0 = hash;
    }

    /// The hash of every byte folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// A sink that folds every entry's encoded bytes into a running FNV-1a
/// digest without retaining anything — the zero-materialization witness that
/// a stream of entries is byte-identical to another (two streams with equal
/// digests and equal counts saw the same encoded bytes in the same order).
///
/// Chunk boundaries do not affect the digest: only entry bytes are folded,
/// in order.  The digest is over the bytes of a specific wire format:
/// [`StreamDigest::new`] folds v1 bytes (what every pinned digest in the
/// repo uses); [`StreamDigest::with_encoding`] picks the format, which wide
/// fleets need since v1 cannot represent their entries.
#[derive(Debug, Clone, Copy)]
pub struct StreamDigest {
    hash: Fnv,
    entries: u64,
    encoding: LogEncoding,
}

impl StreamDigest {
    /// A fresh digest (no entries folded) over v1 entry bytes.
    pub fn new() -> Self {
        StreamDigest::with_encoding(LogEncoding::V1)
    }

    /// A fresh digest folding the given wire format's bytes.
    pub fn with_encoding(encoding: LogEncoding) -> Self {
        StreamDigest {
            hash: Fnv::new(),
            entries: 0,
            encoding,
        }
    }

    /// The wire format whose bytes this digest folds.
    pub fn encoding(&self) -> LogEncoding {
        self.encoding
    }

    /// Folds one entry's encoded bytes.
    pub fn fold(&mut self, entry: &LogEntry) {
        match self.encoding {
            LogEncoding::V1 => self.hash.write(&entry.encode()),
            LogEncoding::V2 => self.hash.write(&entry.encode_v2()),
        }
        self.entries += 1;
    }

    /// Folds a whole chunk in one pass: encodes every entry into `scratch`
    /// (cleared first, capacity retained across calls) and folds the
    /// concatenated bytes.  The digest is identical to calling
    /// [`StreamDigest::fold`] per entry — the same bytes in the same order —
    /// but a warm scratch buffer makes the steady-state path allocation-free
    /// and replaces per-entry array round-trips with one linear fold.
    pub fn fold_chunk(&mut self, chunk: &[LogEntry], scratch: &mut Vec<u8>) {
        scratch.clear();
        for entry in chunk {
            self.encoding.encode_entry(entry, scratch);
        }
        self.hash.write(scratch);
        self.entries += chunk.len() as u64;
    }

    /// The digest over every entry folded so far.
    pub fn digest(&self) -> u64 {
        self.hash.finish()
    }

    /// How many entries were folded.
    pub fn entries(&self) -> u64 {
        self.entries
    }
}

impl Default for StreamDigest {
    fn default() -> Self {
        StreamDigest::new()
    }
}

impl LogSink for StreamDigest {
    fn accept(&mut self, chunk: &[LogEntry]) {
        for entry in chunk {
            self.fold(entry);
        }
    }
}

/// A sink that only counts — for instrumentation and tests that assert how
/// much data flowed without retaining it.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingSink {
    entries: u64,
    chunks: u64,
}

impl CountingSink {
    /// A zeroed counter.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Total entries seen.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Total chunks seen.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }
}

impl LogSink for CountingSink {
    fn accept(&mut self, chunk: &[LogEntry]) {
        self.entries += chunk.len() as u64;
        self.chunks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw_model::{SimTime, SinkId};

    fn entry(i: u32) -> LogEntry {
        LogEntry::power_state(SimTime::from_micros(i as u64), i, SinkId(0), 1)
    }

    #[test]
    fn vec_sink_concatenates_chunks_in_order() {
        let mut sink = VecSink::new();
        sink.accept(&[entry(0), entry(1)]);
        sink.accept(&[]);
        sink.accept(&[entry(2)]);
        assert_eq!(sink.entries().len(), 3);
        let all = sink.into_entries();
        assert_eq!(all[0], entry(0));
        assert_eq!(all[2], entry(2));
    }

    #[test]
    fn counting_sink_counts_without_retaining() {
        let mut sink = CountingSink::new();
        sink.accept(&[entry(0), entry(1), entry(2)]);
        sink.accept(&[entry(3)]);
        assert_eq!(sink.entries(), 4);
        assert_eq!(sink.chunks(), 2);
    }

    #[test]
    fn fnv_matches_the_reference_vectors_and_is_split_invariant() {
        let hash = |parts: &[&[u8]]| {
            let mut h = Fnv::new();
            parts.iter().for_each(|p| h.write(p));
            h.finish()
        };
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(hash(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(&[b"foobar"]), 0x8594_4171_f739_67e8);
        assert_eq!(hash(&[b"foo", b"", b"bar"]), hash(&[b"foobar"]));
    }

    #[test]
    fn stream_digest_is_chunking_independent_and_order_sensitive() {
        let mut whole = StreamDigest::new();
        whole.accept(&[entry(0), entry(1), entry(2), entry(3)]);
        let mut split = StreamDigest::new();
        split.accept(&[entry(0)]);
        split.accept(&[]);
        split.accept(&[entry(1), entry(2)]);
        split.accept(&[entry(3)]);
        assert_eq!(whole.digest(), split.digest());
        assert_eq!(whole.entries(), 4);
        assert_eq!(split.entries(), 4);
        let mut swapped = StreamDigest::new();
        swapped.accept(&[entry(1), entry(0), entry(2), entry(3)]);
        assert_ne!(whole.digest(), swapped.digest(), "order must matter");
        assert_ne!(StreamDigest::new().digest(), whole.digest());
    }

    #[test]
    fn stream_digest_encoding_selects_the_folded_bytes() {
        let entries = [entry(0), entry(1), entry(2)];
        let mut v1 = StreamDigest::new();
        let mut v2 = StreamDigest::with_encoding(LogEncoding::V2);
        v1.accept(&entries);
        v2.accept(&entries);
        assert_eq!(v1.encoding(), LogEncoding::V1);
        assert_eq!(v2.encoding(), LogEncoding::V2);
        assert_eq!(v1.entries(), v2.entries());
        // Different wire bytes, different digest.
        assert_ne!(v1.digest(), v2.digest());
        // The default constructor is the v1 digest the pins use.
        let mut explicit = StreamDigest::with_encoding(LogEncoding::V1);
        explicit.accept(&entries);
        assert_eq!(explicit.digest(), v1.digest());
    }

    #[test]
    fn fold_chunk_matches_per_entry_fold_for_both_encodings() {
        let entries: Vec<LogEntry> = (0..37).map(entry).collect();
        for encoding in [LogEncoding::V1, LogEncoding::V2] {
            let mut per_entry = StreamDigest::with_encoding(encoding);
            for e in &entries {
                per_entry.fold(e);
            }
            let mut chunked = StreamDigest::with_encoding(encoding);
            let mut scratch = Vec::new();
            chunked.fold_chunk(&entries[..5], &mut scratch);
            chunked.fold_chunk(&[], &mut scratch);
            chunked.fold_chunk(&entries[5..], &mut scratch);
            assert_eq!(per_entry.digest(), chunked.digest(), "{encoding:?}");
            assert_eq!(per_entry.entries(), chunked.entries());
        }
    }

    #[test]
    fn fold_chunk_reuses_scratch_capacity() {
        let entries: Vec<LogEntry> = (0..8).map(entry).collect();
        let mut d = StreamDigest::new();
        let mut scratch = Vec::new();
        d.fold_chunk(&entries, &mut scratch);
        let cap = scratch.capacity();
        assert!(cap >= entries.len() * crate::log::ENTRY_SIZE_BYTES);
        d.fold_chunk(&entries, &mut scratch);
        assert_eq!(scratch.capacity(), cap, "warm scratch must not regrow");
    }

    #[test]
    fn closures_are_sinks() {
        let mut seen = 0usize;
        {
            let mut f = |chunk: &[LogEntry]| seen += chunk.len();
            let sink: &mut dyn LogSink = &mut f;
            sink.accept(&[entry(0), entry(1)]);
        }
        assert_eq!(seen, 2);
    }
}
