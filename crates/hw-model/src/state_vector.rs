//! The set of currently-active power states across all sinks.

use crate::catalog::{Catalog, SinkId};
use crate::sink::StateIndex;
use crate::units::Current;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// The active power state of every sink in a catalog at one instant.
///
/// A `StateVector` is the simulation-side ground truth that the paper's
/// instrumented drivers shadow: at any given time, the aggregate power draw
/// of the platform is determined by this vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateVector {
    states: Vec<StateIndex>,
}

impl StateVector {
    /// Creates a vector with every sink in its default (boot) state.
    pub fn boot(catalog: &Catalog) -> Self {
        StateVector {
            states: catalog.sinks().map(|(_, s)| s.default_state).collect(),
        }
    }

    /// Creates a vector with every sink in its baseline state.
    pub fn baseline(catalog: &Catalog) -> Self {
        StateVector {
            states: catalog.sinks().map(|(_, s)| s.baseline_state).collect(),
        }
    }

    /// Number of sinks tracked by this vector.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns true if the vector tracks no sinks.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Returns the state of a sink.
    ///
    /// # Panics
    ///
    /// Panics if `sink` is out of range.
    pub fn state(&self, sink: SinkId) -> StateIndex {
        self.states[sink.as_usize()]
    }

    /// Sets the state of a sink, returning the previous state.
    ///
    /// # Panics
    ///
    /// Panics if `sink` is out of range.
    pub fn set_state(&mut self, sink: SinkId, state: StateIndex) -> StateIndex {
        std::mem::replace(&mut self.states[sink.as_usize()], state)
    }

    /// Iterates over `(SinkId, StateIndex)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SinkId, StateIndex)> + '_ {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (SinkId(i as u16), *s))
    }

    /// A compact, hashable key identifying this exact combination of states.
    ///
    /// Intervals with equal keys can be pooled before the regression, which is
    /// exactly the grouping step of Section 2.5.
    pub fn key(&self) -> StateVectorKey {
        self.states.iter().copied().collect()
    }

    /// Sum of nominal currents across all sinks in their current states.
    pub fn nominal_current(&self, catalog: &Catalog) -> Current {
        assert_eq!(
            self.len(),
            catalog.sink_count(),
            "state vector does not match catalog"
        );
        self.iter()
            .map(|(sink, state)| catalog.nominal_current(sink, state))
            .sum()
    }

    /// The regression design row for this vector: a dense 0/1 vector with one
    /// entry per catalog column plus NO constant term (the caller appends the
    /// constant).  Entry `c` is 1 when the (sink, state) pair of column `c` is
    /// active in this vector.
    pub fn design_row(&self, catalog: &Catalog) -> Vec<f64> {
        assert_eq!(
            self.len(),
            catalog.sink_count(),
            "state vector does not match catalog"
        );
        let mut row = vec![0.0; catalog.column_count()];
        for (sink, state) in self.iter() {
            if let Some(col) = catalog.column(sink, state) {
                row[col] = 1.0;
            }
        }
        row
    }

    /// Lists the active non-baseline column indices.
    pub fn active_columns(&self, catalog: &Catalog) -> Vec<usize> {
        self.iter()
            .filter_map(|(sink, state)| catalog.column(sink, state))
            .collect()
    }
}

/// The most sinks a [`StateVectorKey`] holds, and so the most a
/// [`Catalog`] may have: one byte per sink.
pub const KEY_CAPACITY: usize = 32;

/// A fixed-width, `Copy` key for one combination of power states, one byte
/// per sink; see [`StateVector::key`].
///
/// It dereferences to the per-sink `[StateIndex]` slice, so `key[sink]`
/// and `key.iter()` read it like the vector it came from.  Keys order
/// exactly like their state bytes as a `Vec<u8>` (lexicographically, a
/// prefix first), which fixes the order of pooled regression observations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StateVectorKey {
    /// The states of the first `len` sinks; every later slot stays zero.
    states: [StateIndex; KEY_CAPACITY],
    len: u8,
}

impl StateVectorKey {
    /// Rebuilds a full [`StateVector`] from the key.
    pub fn to_vector(&self) -> StateVector {
        StateVector {
            states: self.to_vec(),
        }
    }

    /// The key's order as plain integers: the state bytes as two big-endian
    /// words, then the length.  Comparing two order keys as tuples is
    /// exactly comparing the keys (that is how [`Ord`] is defined), so a
    /// sorted map can compute this once per key instead of rebuilding both
    /// words on every comparison.
    pub fn order_key(&self) -> (u128, u128, u8) {
        const { assert!(KEY_CAPACITY == 32, "the key is two 16-byte words") };
        let bytes = self.states.map(StateIndex::as_u8);
        let word = |i: usize| {
            u128::from_be_bytes(bytes[16 * i..16 * (i + 1)].try_into().expect("16 bytes"))
        };
        (word(0), word(1), self.len)
    }
}

/// Collects per-sink states in sink order.
///
/// # Panics
///
/// Panics on more than [`KEY_CAPACITY`] states.
impl FromIterator<StateIndex> for StateVectorKey {
    fn from_iter<I: IntoIterator<Item = StateIndex>>(iter: I) -> Self {
        let mut key = StateVectorKey::default();
        for state in iter {
            key.states[key.len as usize] = state;
            key.len += 1;
        }
        key
    }
}

impl Deref for StateVectorKey {
    type Target = [StateIndex];

    fn deref(&self) -> &[StateIndex] {
        &self.states[..self.len as usize]
    }
}

impl DerefMut for StateVectorKey {
    fn deref_mut(&mut self) -> &mut [StateIndex] {
        &mut self.states[..self.len as usize]
    }
}

impl Ord for StateVectorKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Unused slots are zero, so equal words with a shorter length mean
        // a prefix, which sorts first, as in `Vec<u8>` order.
        self.order_key().cmp(&other.order_key())
    }
}

impl PartialOrd for StateVectorKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for StateVectorKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("StateVectorKey").field(&&**self).finish()
    }
}

impl fmt::Display for StateVectorKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", v.as_u8())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{blink_catalog, led_state};

    #[test]
    fn boot_and_baseline_vectors() {
        let (cat, cpu, leds) = blink_catalog();
        let boot = StateVector::boot(&cat);
        let base = StateVector::baseline(&cat);
        assert_eq!(boot, base); // In the Blink catalog defaults are baselines.
        assert_eq!(boot.len(), 4);
        assert_eq!(boot.state(cpu), StateIndex(0));
        assert_eq!(boot.state(leds[0]), StateIndex(0));
    }

    #[test]
    fn set_state_returns_previous() {
        let (cat, _cpu, leds) = blink_catalog();
        let mut sv = StateVector::boot(&cat);
        let prev = sv.set_state(leds[1], led_state::ON);
        assert_eq!(prev, led_state::OFF);
        assert_eq!(sv.state(leds[1]), led_state::ON);
    }

    #[test]
    fn nominal_current_sums_active_states() {
        let (cat, cpu, leds) = blink_catalog();
        let mut sv = StateVector::baseline(&cat);
        // Idle CPU only.
        let idle = sv.nominal_current(&cat).as_micro_amps();
        assert!((idle - 2.6).abs() < 1e-9);
        sv.set_state(leds[0], led_state::ON);
        sv.set_state(cpu, StateIndex(1));
        let active = sv.nominal_current(&cat).as_micro_amps();
        assert!((active - (500.0 + 2500.0)).abs() < 1e-9);
    }

    #[test]
    fn design_row_marks_active_columns() {
        let (cat, _cpu, leds) = blink_catalog();
        let mut sv = StateVector::baseline(&cat);
        assert_eq!(sv.design_row(&cat), vec![0.0; cat.column_count()]);
        sv.set_state(leds[2], led_state::ON);
        let row = sv.design_row(&cat);
        assert_eq!(row.iter().filter(|v| **v == 1.0).count(), 1);
        let col = cat.column(leds[2], led_state::ON).unwrap();
        assert_eq!(row[col], 1.0);
        assert_eq!(sv.active_columns(&cat), vec![col]);
    }

    #[test]
    fn key_round_trips() {
        let (cat, _cpu, leds) = blink_catalog();
        let mut sv = StateVector::baseline(&cat);
        sv.set_state(leds[0], led_state::ON);
        let key = sv.key();
        assert_eq!(key.to_vector(), sv);
        assert_eq!(format!("{key}"), "[0,1,0,0]");
        assert_eq!(key.len(), 4);
        assert_eq!(key[leds[0].as_usize()], led_state::ON);
    }

    fn key_of(bytes: &[u8]) -> StateVectorKey {
        bytes.iter().map(|b| StateIndex(*b)).collect()
    }

    #[test]
    fn keys_of_different_lengths_order_like_byte_vectors() {
        let cases: [&[u8]; 7] = [&[], &[0], &[0, 0], &[0, 5], &[1], &[1, 0], &[255; 32]];
        for a in cases {
            for b in cases {
                assert_eq!(key_of(a).cmp(&key_of(b)), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(key_of(a) == key_of(b), a == b, "{a:?} vs {b:?}");
            }
        }
    }

    /// A random state vector of the hydrowatch catalog, any byte per sink.
    fn hydrowatch_vector(bytes: &[u8]) -> StateVector {
        let (cat, _) = crate::catalog::hydrowatch();
        let mut sv = StateVector::boot(&cat);
        for ((sink, _), b) in cat.sinks().zip(bytes) {
            sv.set_state(sink, StateIndex(*b));
        }
        sv
    }

    proptest::proptest! {
        /// The key orders like the byte vector it replaced, which keeps the
        /// pooled observations, and so the regression columns, in the same
        /// order; and it turns back into the same per-sink states.
        #[test]
        fn key_order_matches_byte_vector_order(
            a in proptest::collection::vec(proptest::any::<u8>(), KEY_CAPACITY),
            b in proptest::collection::vec(proptest::any::<u8>(), KEY_CAPACITY),
            shared in 0usize..=KEY_CAPACITY,
        ) {
            // Share a prefix so that comparisons also reach later sinks.
            let b: Vec<u8> = a[..shared].iter().chain(&b[shared..]).copied().collect();
            let (va, vb) = (hydrowatch_vector(&a), hydrowatch_vector(&b));
            let bytes = |v: &StateVector| v.iter().map(|(_, s)| s.as_u8()).collect::<Vec<u8>>();
            let (ka, kb) = (va.key(), vb.key());
            proptest::prop_assert_eq!(ka.cmp(&kb), bytes(&va).cmp(&bytes(&vb)));
            proptest::prop_assert_eq!(ka == kb, bytes(&va) == bytes(&vb));
            proptest::prop_assert_eq!(&ka[..], &va.states[..]);
            proptest::prop_assert_eq!(ka.to_vector(), va);
        }
    }
}
