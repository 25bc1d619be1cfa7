//! The Quanto event log entry.
//!
//! Every power-state change and every activity change produces one 12-byte
//! entry (Figure 17 in the paper):
//!
//! ```text
//! typedef struct entry_t {
//!     uint8_t  type;    // type of the entry
//!     uint8_t  res_id;  // hardware resource for entry
//!     uint32_t time;    // local time of the node
//!     uint32_t ic;      // icount: cumulative energy
//!     union {
//!         uint16_t act;         // for ctx changes
//!         uint16_t powerstate;  // for powerstate changes
//!     };
//! } entry_t;
//! ```
//!
//! The paper's layout is the **v1** encoding: one type byte, one resource
//! byte, a 32-bit local timestamp in microseconds (which wraps, as on the
//! real hardware), the 32-bit iCount reading and a 16-bit payload.  Every
//! pinned digest in the repo is over v1 bytes, so v1 stays byte-identical
//! forever.
//!
//! v1's one-byte activity origin caps fleets at 254 nodes and its 16-bit
//! payload cannot carry a widened label, so there is also a **v2** encoding:
//! 18 bytes with a full 64-bit timestamp and a 32-bit payload.  The version
//! lives in the type system ([`LogVersion`], with [`V1`]/[`V2`] marker
//! types) following Theseus's intralingual-design principle — code that
//! folds or parses entries is generic over the version instead of branching
//! on magic bytes; [`LogEncoding`] is the runtime-selected counterpart for
//! paths (digests, sweep configs) where the version is data.
//!
//! The in-memory [`LogEntry`] is wide (64-bit time, 32-bit value) and
//! version-agnostic; encoding to v1 truncates exactly the way the real
//! MSP430 hardware did.

use crate::activity::ActivityLabel;
use crate::device::DeviceId;
use crate::power_state::PowerStateValue;
use hw_model::{SimTime, SinkId};
use std::fmt;

/// Size of one encoded v1 (paper-format) log entry, in bytes.
pub const ENTRY_SIZE_BYTES: usize = 12;

/// Size of one encoded v2 (widened) log entry, in bytes.
pub const ENTRY_SIZE_BYTES_V2: usize = 18;

/// What a log entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// An energy sink changed power state; `res_id` is the sink id and the
    /// payload is the new `powerstate_t` value.
    PowerState,
    /// A single-activity device changed activity; the payload is the new
    /// activity label.
    ActivityChange,
    /// A single-activity device *bound* its previous (proxy) activity to a
    /// real activity; the payload is the real label.  Resource usage since
    /// the proxy activity started is charged to the bound activity.
    ActivityBind,
    /// A multi-activity device added an activity to its set.
    MultiAdd,
    /// A multi-activity device removed an activity from its set.
    MultiRemove,
}

impl EntryKind {
    /// The on-wire type byte.
    pub const fn as_u8(self) -> u8 {
        match self {
            EntryKind::PowerState => 0,
            EntryKind::ActivityChange => 1,
            EntryKind::ActivityBind => 2,
            EntryKind::MultiAdd => 3,
            EntryKind::MultiRemove => 4,
        }
    }

    /// Decodes a type byte.
    pub const fn from_u8(v: u8) -> Option<EntryKind> {
        match v {
            0 => Some(EntryKind::PowerState),
            1 => Some(EntryKind::ActivityChange),
            2 => Some(EntryKind::ActivityBind),
            3 => Some(EntryKind::MultiAdd),
            4 => Some(EntryKind::MultiRemove),
            _ => None,
        }
    }
}

impl fmt::Display for EntryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EntryKind::PowerState => "pwr",
            EntryKind::ActivityChange => "act",
            EntryKind::ActivityBind => "bind",
            EntryKind::MultiAdd => "add",
            EntryKind::MultiRemove => "rm",
        };
        f.write_str(s)
    }
}

/// One Quanto log entry, in its wide in-memory form.
///
/// Encoding to the 12-byte v1 format truncates the timestamp to 32 bits
/// (wrapping after ~71.6 minutes, like the real platform's timer) and the
/// value to 16 bits; the 18-byte v2 format carries both fields whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// What happened.
    pub kind: EntryKind,
    /// The sink (for power-state entries) or device (for activity entries).
    pub res_id: u8,
    /// Local node time in microseconds (absolute; v1 encoding wraps it to
    /// 32 bits).
    pub time_us: u64,
    /// Cumulative iCount reading at the moment of the event.
    pub icount: u32,
    /// New power-state value or encoded activity label (v1 encoding keeps
    /// the low 16 bits).
    pub value: u32,
}

impl LogEntry {
    /// Builds a power-state entry.
    pub fn power_state(time: SimTime, icount: u32, sink: SinkId, value: PowerStateValue) -> Self {
        LogEntry {
            kind: EntryKind::PowerState,
            res_id: sink.0 as u8,
            time_us: time.as_micros(),
            icount,
            value: value as u32,
        }
    }

    /// Builds an activity entry of the given kind.
    pub fn activity(
        kind: EntryKind,
        time: SimTime,
        icount: u32,
        dev: DeviceId,
        label: ActivityLabel,
    ) -> Self {
        debug_assert!(kind != EntryKind::PowerState);
        LogEntry {
            kind,
            res_id: dev.as_u8(),
            time_us: time.as_micros(),
            icount,
            value: label.encode(),
        }
    }

    /// The sink id, when this is a power-state entry.
    pub fn sink(&self) -> Option<SinkId> {
        (self.kind == EntryKind::PowerState).then_some(SinkId(self.res_id as u16))
    }

    /// The device id, when this is an activity entry.
    pub fn device(&self) -> Option<DeviceId> {
        (self.kind != EntryKind::PowerState).then_some(DeviceId(self.res_id))
    }

    /// The activity label, when this is an activity entry.
    pub fn label(&self) -> Option<ActivityLabel> {
        (self.kind != EntryKind::PowerState).then(|| ActivityLabel::decode(self.value))
    }

    /// Encodes the entry into the 12-byte v1 wire format (little-endian
    /// fields, matching the MSP430's byte order).  The timestamp wraps to
    /// 32 bits and the value truncates to 16 bits, exactly as on the real
    /// hardware — use [`fits_v1`](Self::fits_v1) to check the value is
    /// representable.
    pub fn encode(&self) -> [u8; ENTRY_SIZE_BYTES] {
        let mut out = [0u8; ENTRY_SIZE_BYTES];
        out[0] = self.kind.as_u8();
        out[1] = self.res_id;
        out[2..6].copy_from_slice(&(self.time_us as u32).to_le_bytes());
        out[6..10].copy_from_slice(&self.icount.to_le_bytes());
        out[10..12].copy_from_slice(&(self.value as u16).to_le_bytes());
        out
    }

    /// Decodes an entry from its 12-byte v1 wire format.
    ///
    /// Returns `None` if the type byte is unknown.
    pub fn decode(bytes: &[u8; ENTRY_SIZE_BYTES]) -> Option<Self> {
        let kind = EntryKind::from_u8(bytes[0])?;
        Some(LogEntry {
            kind,
            res_id: bytes[1],
            time_us: u32::from_le_bytes(bytes[2..6].try_into().expect("slice length")) as u64,
            icount: u32::from_le_bytes(bytes[6..10].try_into().expect("slice length")),
            value: u16::from_le_bytes(bytes[10..12].try_into().expect("slice length")) as u32,
        })
    }

    /// Whether the v1 encoding represents this entry's value without loss.
    /// (A wrapped timestamp is *not* loss: wrapping is the defined v1
    /// behaviour, and the analysis pipeline unwraps it.)
    pub fn fits_v1(&self) -> bool {
        self.value <= u16::MAX as u32
    }

    /// Encodes the entry into the 18-byte v2 wire format: the same leading
    /// type and resource bytes, then the full 64-bit timestamp, the 32-bit
    /// iCount and the full 32-bit value, all little-endian.
    pub fn encode_v2(&self) -> [u8; ENTRY_SIZE_BYTES_V2] {
        let mut out = [0u8; ENTRY_SIZE_BYTES_V2];
        out[0] = self.kind.as_u8();
        out[1] = self.res_id;
        out[2..10].copy_from_slice(&self.time_us.to_le_bytes());
        out[10..14].copy_from_slice(&self.icount.to_le_bytes());
        out[14..18].copy_from_slice(&self.value.to_le_bytes());
        out
    }

    /// Decodes an entry from its 18-byte v2 wire format.
    ///
    /// Returns `None` if the type byte is unknown.
    pub fn decode_v2(bytes: &[u8; ENTRY_SIZE_BYTES_V2]) -> Option<Self> {
        let kind = EntryKind::from_u8(bytes[0])?;
        Some(LogEntry {
            kind,
            res_id: bytes[1],
            time_us: u64::from_le_bytes(bytes[2..10].try_into().expect("slice length")),
            icount: u32::from_le_bytes(bytes[10..14].try_into().expect("slice length")),
            value: u32::from_le_bytes(bytes[14..18].try_into().expect("slice length")),
        })
    }
}

mod sealed {
    /// Seals [`super::LogVersion`]: the set of wire formats is closed.
    pub trait Sealed {}
    impl Sealed for super::V1 {}
    impl Sealed for super::V2 {}
}

/// A log-entry wire format, as a type.
///
/// Code that serializes or digests entries can be generic over the version
/// (`fn fold<V: LogVersion>(..)`) so the format choice is checked at compile
/// time rather than branched on at runtime — Theseus's intralingual-design
/// principle applied to the log.  The trait is sealed: [`V1`] and [`V2`] are
/// the only versions.
pub trait LogVersion: sealed::Sealed {
    /// Encoded entry size in bytes.
    const SIZE: usize;
    /// The runtime tag for this version.
    const ENCODING: LogEncoding;

    /// Whether this version represents the entry's value without loss.
    fn fits(entry: &LogEntry) -> bool;

    /// Encodes `entry` into `out`, which must be exactly `SIZE` bytes.
    fn encode_into(entry: &LogEntry, out: &mut [u8]);

    /// Decodes an entry from exactly `SIZE` bytes; `None` on a bad type
    /// byte.
    fn decode(bytes: &[u8]) -> Option<LogEntry>;
}

/// The paper's 12-byte format (one-byte activity origins, wrapping 32-bit
/// timestamps).  Byte-identical to the pre-versioned encoding: every pinned
/// digest is over these bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct V1;

/// The widened 18-byte format (64-bit timestamps, 32-bit values carrying
/// widened activity labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct V2;

impl LogVersion for V1 {
    const SIZE: usize = ENTRY_SIZE_BYTES;
    const ENCODING: LogEncoding = LogEncoding::V1;

    fn fits(entry: &LogEntry) -> bool {
        entry.fits_v1()
    }

    fn encode_into(entry: &LogEntry, out: &mut [u8]) {
        out.copy_from_slice(&entry.encode());
    }

    fn decode(bytes: &[u8]) -> Option<LogEntry> {
        LogEntry::decode(bytes.try_into().ok()?)
    }
}

impl LogVersion for V2 {
    const SIZE: usize = ENTRY_SIZE_BYTES_V2;
    const ENCODING: LogEncoding = LogEncoding::V2;

    fn fits(_entry: &LogEntry) -> bool {
        true
    }

    fn encode_into(entry: &LogEntry, out: &mut [u8]) {
        out.copy_from_slice(&entry.encode_v2());
    }

    fn decode(bytes: &[u8]) -> Option<LogEntry> {
        LogEntry::decode_v2(bytes.try_into().ok()?)
    }
}

/// Runtime selection of a log wire format, for paths where the version is
/// data (scenario configs, stream digests) rather than a type parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LogEncoding {
    /// The paper's 12-byte format; the default, and what every pinned digest
    /// uses.
    #[default]
    V1,
    /// The widened 18-byte format for fleets beyond 254 nodes.
    V2,
}

impl LogEncoding {
    /// Encoded entry size in bytes.
    pub const fn entry_size(self) -> usize {
        match self {
            LogEncoding::V1 => ENTRY_SIZE_BYTES,
            LogEncoding::V2 => ENTRY_SIZE_BYTES_V2,
        }
    }

    /// Whether this encoding represents the entry's value without loss.
    pub fn fits(self, entry: &LogEntry) -> bool {
        match self {
            LogEncoding::V1 => V1::fits(entry),
            LogEncoding::V2 => V2::fits(entry),
        }
    }

    /// The minimal encoding for a fleet whose node ids include `max_id`:
    /// v1 while every origin fits one byte, v2 beyond.
    pub fn required_for(max_id: crate::activity::NodeId) -> LogEncoding {
        if max_id.fits_v1() {
            LogEncoding::V1
        } else {
            LogEncoding::V2
        }
    }
}

impl fmt::Display for LogEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogEncoding::V1 => f.write_str("v1"),
            LogEncoding::V2 => f.write_str("v2"),
        }
    }
}

impl fmt::Display for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10} us | ic {:>8}] {} res={} val=0x{:04x}",
            self.time_us, self.icount, self.kind, self.res_id, self.value
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{ActivityId, NodeId};

    #[test]
    fn entry_is_twelve_bytes() {
        assert_eq!(ENTRY_SIZE_BYTES, 12);
        let e = LogEntry::power_state(SimTime::from_millis(5), 17, SinkId(3), 1);
        assert_eq!(e.encode().len(), 12);
    }

    #[test]
    fn encode_decode_round_trip() {
        let cases = vec![
            LogEntry::power_state(SimTime::from_micros(123_456), 789, SinkId(5), 2),
            LogEntry::activity(
                EntryKind::ActivityChange,
                SimTime::from_secs(40),
                99_999,
                DeviceId(0),
                ActivityLabel::new(NodeId(4), ActivityId(7)),
            ),
            LogEntry::activity(
                EntryKind::ActivityBind,
                SimTime::ZERO,
                0,
                DeviceId(255),
                ActivityLabel::IDLE,
            ),
            LogEntry::activity(
                EntryKind::MultiAdd,
                SimTime::from_micros(u32::MAX as u64),
                u32::MAX,
                DeviceId(9),
                ActivityLabel::new(NodeId(255), ActivityId(255)),
            ),
        ];
        for e in cases {
            assert!(e.fits_v1());
            let decoded = LogEntry::decode(&e.encode()).unwrap();
            assert_eq!(decoded, e);
            // v2 round-trips the same entries too.
            assert_eq!(LogEntry::decode_v2(&e.encode_v2()).unwrap(), e);
        }
    }

    #[test]
    fn v2_round_trips_what_v1_cannot() {
        let wide = LogEntry::activity(
            EntryKind::MultiAdd,
            SimTime::from_micros(u64::MAX),
            u32::MAX,
            DeviceId(9),
            ActivityLabel::new(NodeId(70_000), ActivityId(255)),
        );
        assert!(!wide.fits_v1());
        assert_eq!(LogEntry::decode_v2(&wide.encode_v2()).unwrap(), wide);
        // The v1 bytes of the same entry truncate: time wraps, value keeps
        // its low 16 bits.
        let narrowed = LogEntry::decode(&wide.encode()).unwrap();
        assert_eq!(narrowed.time_us, wide.time_us & 0xFFFF_FFFF);
        assert_eq!(narrowed.value, wide.value & 0xFFFF);
    }

    #[test]
    fn log_version_types_match_runtime_encoding() {
        fn encode_with<V: LogVersion>(e: &LogEntry) -> Vec<u8> {
            let mut out = vec![0u8; V::SIZE];
            V::encode_into(e, &mut out);
            out
        }
        let e = LogEntry::power_state(SimTime::from_millis(7), 42, SinkId(1), 3);
        assert_eq!(encode_with::<V1>(&e), e.encode().to_vec());
        assert_eq!(encode_with::<V2>(&e), e.encode_v2().to_vec());
        assert_eq!(V1::decode(&e.encode()), Some(e));
        assert_eq!(V2::decode(&e.encode_v2()), Some(e));
        assert_eq!(V1::ENCODING.entry_size(), ENTRY_SIZE_BYTES);
        assert_eq!(V2::ENCODING.entry_size(), ENTRY_SIZE_BYTES_V2);
    }

    #[test]
    fn required_encoding_tracks_the_v1_cap() {
        assert_eq!(LogEncoding::required_for(NodeId(1)), LogEncoding::V1);
        assert_eq!(LogEncoding::required_for(NodeId(254)), LogEncoding::V1);
        assert_eq!(LogEncoding::required_for(NodeId(255)), LogEncoding::V2);
        assert_eq!(LogEncoding::required_for(NodeId(10_000)), LogEncoding::V2);
        assert_eq!(LogEncoding::default(), LogEncoding::V1);
        assert_eq!(format!("{}/{}", LogEncoding::V1, LogEncoding::V2), "v1/v2");
    }

    #[test]
    fn unknown_type_byte_rejected() {
        let mut bytes = [0u8; ENTRY_SIZE_BYTES];
        bytes[0] = 200;
        assert!(LogEntry::decode(&bytes).is_none());
    }

    #[test]
    fn v1_timestamp_wraps_at_32_bits() {
        // ~71.6 minutes in microseconds exceeds u32::MAX.  The in-memory
        // entry keeps the absolute time; the v1 *encoding* wraps it exactly
        // like the real platform's 32-bit timer, and v2 carries it whole.
        let t = SimTime::from_micros(u32::MAX as u64 + 5);
        let e = LogEntry::power_state(t, 0, SinkId(0), 0);
        assert_eq!(e.time_us, u32::MAX as u64 + 5);
        let v1 = LogEntry::decode(&e.encode()).unwrap();
        assert_eq!(v1.time_us, 4);
        let v2 = LogEntry::decode_v2(&e.encode_v2()).unwrap();
        assert_eq!(v2.time_us, u32::MAX as u64 + 5);
    }

    #[test]
    fn accessors_depend_on_kind() {
        let p = LogEntry::power_state(SimTime::ZERO, 0, SinkId(7), 3);
        assert_eq!(p.sink(), Some(SinkId(7)));
        assert_eq!(p.device(), None);
        assert_eq!(p.label(), None);

        let lbl = ActivityLabel::new(NodeId(1), ActivityId(9));
        let a = LogEntry::activity(
            EntryKind::ActivityChange,
            SimTime::ZERO,
            0,
            DeviceId(2),
            lbl,
        );
        assert_eq!(a.sink(), None);
        assert_eq!(a.device(), Some(DeviceId(2)));
        assert_eq!(a.label(), Some(lbl));
    }

    #[test]
    fn kind_round_trips() {
        for k in [
            EntryKind::PowerState,
            EntryKind::ActivityChange,
            EntryKind::ActivityBind,
            EntryKind::MultiAdd,
            EntryKind::MultiRemove,
        ] {
            assert_eq!(EntryKind::from_u8(k.as_u8()), Some(k));
        }
        assert_eq!(EntryKind::from_u8(5), None);
    }
}
