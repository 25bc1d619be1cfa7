//! Ground-truth power and energy for the simulated platform.
//!
//! The [`PowerModel`] answers "what is the platform *really* drawing right
//! now?", which plays the role of the physical electrical reality underneath
//! the iCount meter and the oscilloscope in the paper's experiments.  The
//! [`EnergyAccumulator`] integrates that draw over a sequence of power-state
//! transitions, maintaining both the aggregate energy (what iCount can see)
//! and the per-sink split (which only the simulator knows, and which the
//! regression in the `analysis` crate tries to recover).

use crate::catalog::{Catalog, SinkId};
use crate::noise::NoiseModel;
use crate::sink::StateIndex;
use crate::state_vector::StateVector;
use crate::units::{Current, Energy, Power, SimDuration, SimTime, Voltage};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Ground-truth electrical model: per-state true currents and supply voltage.
#[derive(Debug, Clone)]
pub struct PowerModel {
    catalog: Arc<Catalog>,
    supply: Voltage,
    noise: NoiseModel,
    /// true_currents[sink][state] — nominal current times the per-state bias.
    true_currents: Vec<Vec<Current>>,
}

impl PowerModel {
    /// Builds a model over `catalog` at the given supply voltage.
    pub fn new(catalog: Arc<Catalog>, supply: Voltage, noise: NoiseModel) -> Self {
        let total_states = catalog.total_state_count();
        let biases = noise.draw_bias_factors(total_states);
        let mut true_currents = Vec::with_capacity(catalog.sink_count());
        let mut k = 0;
        for (_, sink) in catalog.sinks() {
            let mut per_state = Vec::with_capacity(sink.state_count());
            for state in &sink.states {
                per_state.push(state.current * biases[k]);
                k += 1;
            }
            true_currents.push(per_state);
        }
        PowerModel {
            catalog,
            supply,
            noise,
            true_currents,
        }
    }

    /// Builds an ideal (noise-free) model at 3.0 V, the paper's supply.
    pub fn ideal(catalog: Arc<Catalog>) -> Self {
        PowerModel::new(catalog, Voltage::from_volts(3.0), NoiseModel::IDEAL)
    }

    /// The catalog this model is defined over.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The supply voltage.
    pub fn supply(&self) -> Voltage {
        self.supply
    }

    /// The noise model in effect.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The *true* mean current of one sink in one state (nominal × bias).
    ///
    /// # Panics
    ///
    /// Panics if the sink or state index is out of range.
    pub fn true_state_current(&self, sink: SinkId, state: StateIndex) -> Current {
        self.true_currents[sink.as_usize()][state.as_u8() as usize]
    }

    /// The true aggregate current for a state vector.
    pub fn true_current(&self, sv: &StateVector) -> Current {
        sv.iter()
            .map(|(sink, state)| self.true_state_current(sink, state))
            .sum()
    }

    /// The true aggregate power for a state vector.
    pub fn true_power(&self, sv: &StateVector) -> Power {
        self.true_current(sv) * self.supply
    }

    /// The true contribution of a single sink (in its state from `sv`).
    pub fn true_sink_power(&self, sv: &StateVector, sink: SinkId) -> Power {
        self.true_state_current(sink, sv.state(sink)) * self.supply
    }

    /// Energy consumed if the platform stays in `sv` for `dur`.
    pub fn energy_over(&self, sv: &StateVector, dur: SimDuration) -> Energy {
        self.true_power(sv) * dur
    }

    /// An instantaneous current sample, as an ideal oscilloscope probe would
    /// read it: the true current plus sample noise.
    pub fn sample_current(&self, sv: &StateVector, rng: &mut StdRng) -> Current {
        let true_i = self.true_current(sv).as_micro_amps();
        Current::from_micro_amps(self.noise.perturb_sample(rng, true_i))
    }
}

/// Accumulated ground-truth energy per sink (and total), produced by an
/// [`EnergyAccumulator`].
#[derive(Debug, Clone, Default)]
pub struct EnergyBreakdown {
    /// Total energy across all sinks.
    pub total: Energy,
    /// Energy per sink.
    pub per_sink: HashMap<SinkId, Energy>,
}

impl EnergyBreakdown {
    /// Energy attributed to one sink (zero if it never drew anything).
    pub fn sink(&self, sink: SinkId) -> Energy {
        self.per_sink.get(&sink).copied().unwrap_or(Energy::ZERO)
    }
}

/// Integrates ground-truth energy over a timeline of power-state changes.
///
/// The accumulator is the simulator's "physics": drivers report state changes
/// to it and it charges the battery model accordingly.  The simulated iCount
/// meter is fed from [`EnergyAccumulator::total_energy`].
///
/// Powers are cached, not walked: each sink's true power
/// ([`PowerModel::true_sink_power`]) and the state vector's aggregate power
/// ([`PowerModel::true_power`], summed over sinks in sink order) are fields,
/// recomputed in [`EnergyAccumulator::set_state`] only when the sink's state
/// actually changes.  [`EnergyAccumulator::advance`] is then one
/// multiply-add per sink plus one for the total, and
/// [`EnergyAccumulator::current_power`] a field read, with results
/// bit-identical to walking the model at every step.
#[derive(Debug, Clone)]
pub struct EnergyAccumulator {
    model: Arc<PowerModel>,
    state: StateVector,
    now: SimTime,
    total: Energy,
    /// Per-sink attribution, dense-indexed by `SinkId` — `advance` runs on
    /// every instrumentation stamp, so this must not hash.
    per_sink: Vec<Energy>,
    /// Each sink's true power in its current state, dense-indexed by
    /// `SinkId`.
    sink_power: Vec<Power>,
    /// `model.true_power(&state)`.
    power: Power,
}

impl EnergyAccumulator {
    /// Creates an accumulator starting at time zero in the boot state.
    pub fn new(model: Arc<PowerModel>) -> Self {
        let state = StateVector::boot(model.catalog());
        let per_sink = vec![Energy::ZERO; state.len()];
        let sink_power = state
            .iter()
            .map(|(sink, _)| model.true_sink_power(&state, sink))
            .collect();
        let power = model.true_power(&state);
        EnergyAccumulator {
            model,
            state,
            now: SimTime::ZERO,
            total: Energy::ZERO,
            per_sink,
            sink_power,
            power,
        }
    }

    /// The model driving this accumulator.
    pub fn model(&self) -> &Arc<PowerModel> {
        &self.model
    }

    /// The current (ground-truth) state vector.
    pub fn state(&self) -> &StateVector {
        &self.state
    }

    /// The time up to which energy has been integrated.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total integrated energy so far.
    pub fn total_energy(&self) -> Energy {
        self.total
    }

    /// The current true aggregate power draw.
    pub fn current_power(&self) -> Power {
        self.power
    }

    /// Advances the integration clock to `to`, charging energy for the
    /// elapsed interval at the current state vector.
    ///
    /// Advancing to a time at or before `now` is a no-op, which lets callers
    /// be sloppy about zero-length intervals.
    pub fn advance(&mut self, to: SimTime) {
        if to <= self.now {
            return;
        }
        let dur = to.duration_since(self.now);
        for (energy, &power) in self.per_sink.iter_mut().zip(&self.sink_power) {
            let e = power * dur;
            if e != Energy::ZERO {
                *energy += e;
            }
        }
        self.total += self.power * dur;
        self.now = to;
    }

    /// Records a power-state change of one sink at time `at`.
    ///
    /// Energy for the interval since the previous event is integrated with
    /// the *old* state vector before the new state takes effect, matching how
    /// the real platform draws power up to the instant of the transition.
    ///
    /// Returns the previous state of the sink.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the accumulator's current time; the simulator
    /// must deliver events in order.
    pub fn set_state(&mut self, at: SimTime, sink: SinkId, state: StateIndex) -> StateIndex {
        assert!(
            at >= self.now,
            "state change at {at} is before accumulator time {}",
            self.now
        );
        self.advance(at);
        let prev = self.state.set_state(sink, state);
        if prev != state {
            self.sink_power[sink.as_usize()] = self.model.true_sink_power(&self.state, sink);
            self.power = self.model.true_power(&self.state);
        }
        prev
    }

    /// Returns the ground-truth energy breakdown accumulated so far.
    pub fn breakdown(&self) -> EnergyBreakdown {
        let per_sink = self
            .per_sink
            .iter()
            .enumerate()
            .filter(|(_, e)| **e != Energy::ZERO)
            .map(|(i, e)| (SinkId(i as u16), *e))
            .collect();
        EnergyBreakdown {
            total: self.total,
            per_sink,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{blink_catalog, hydrowatch, led_state};

    /// The integrator before it cached powers: every step walks the model.
    /// The reference [`EnergyAccumulator`] must match bit for bit.
    struct WalkingAccumulator {
        model: Arc<PowerModel>,
        state: StateVector,
        now: SimTime,
        total: Energy,
        per_sink: Vec<Energy>,
    }

    impl WalkingAccumulator {
        fn new(model: Arc<PowerModel>) -> Self {
            let state = StateVector::boot(model.catalog());
            let per_sink = vec![Energy::ZERO; state.len()];
            WalkingAccumulator {
                model,
                state,
                now: SimTime::ZERO,
                total: Energy::ZERO,
                per_sink,
            }
        }

        fn current_power(&self) -> Power {
            self.model.true_power(&self.state)
        }

        fn advance(&mut self, to: SimTime) {
            if to <= self.now {
                return;
            }
            let dur = to.duration_since(self.now);
            for (sink, state) in self.state.iter() {
                let e = (self.model.true_state_current(sink, state) * self.model.supply()) * dur;
                if e != Energy::ZERO {
                    self.per_sink[sink.as_usize()] += e;
                }
            }
            self.total += self.model.energy_over(&self.state, dur);
            self.now = to;
        }

        fn set_state(&mut self, at: SimTime, sink: SinkId, state: StateIndex) -> StateIndex {
            self.advance(at);
            self.state.set_state(sink, state)
        }
    }

    proptest::proptest! {
        /// Over the HydroWatch catalog with realistic per-state biases, the
        /// cached powers give the same bits as walking the model at every
        /// step: the aggregate power, the total energy and every sink's
        /// energy, through state changes, repeated states, plain advances
        /// and zero-length steps.
        #[test]
        fn cached_powers_match_the_model_walk_bit_for_bit(
            (seed, supply_mv) in (proptest::any::<u64>(), 2_700u64..3_600),
            steps in proptest::collection::vec(
                (proptest::any::<usize>(), proptest::any::<u8>(), 0u8..3, 0u64..2_000_000),
                1..200,
            ),
        ) {
            let (cat, _) = hydrowatch();
            let model = Arc::new(PowerModel::new(
                Arc::new(cat),
                Voltage::from_volts(supply_mv as f64 / 1000.0),
                NoiseModel::realistic(seed),
            ));
            let catalog = model.catalog().clone();
            let mut cached = EnergyAccumulator::new(model.clone());
            let mut walk = WalkingAccumulator::new(model);
            let mut now = SimTime::ZERO;
            for (sink_pick, state_pick, kind, dt_us) in steps {
                // A quarter of the steps take no time.
                if dt_us % 4 != 0 {
                    now += SimDuration::from_micros(dt_us);
                }
                let sink = SinkId((sink_pick % catalog.sink_count()) as u16);
                if kind == 2 {
                    cached.advance(now);
                    walk.advance(now);
                } else {
                    // Kind 1 re-asserts the state the sink is already in.
                    let state = if kind == 0 {
                        StateIndex(state_pick % catalog.sink(sink).state_count() as u8)
                    } else {
                        walk.state.state(sink)
                    };
                    proptest::prop_assert_eq!(
                        cached.set_state(now, sink, state),
                        walk.set_state(now, sink, state)
                    );
                }
                proptest::prop_assert_eq!(cached.state(), &walk.state);
                proptest::prop_assert_eq!(
                    cached.current_power().value().to_bits(),
                    walk.current_power().value().to_bits()
                );
                proptest::prop_assert_eq!(
                    cached.total_energy().value().to_bits(),
                    walk.total.value().to_bits()
                );
                let breakdown = cached.breakdown();
                for (i, e) in walk.per_sink.iter().enumerate() {
                    let got = breakdown.sink(SinkId(i as u16));
                    proptest::prop_assert!(
                        got.value().to_bits() == e.value().to_bits(),
                        "sink {i}: {got:?} != {e:?}"
                    );
                }
            }
        }
    }

    fn blink_model() -> (Arc<PowerModel>, SinkId, [SinkId; 3]) {
        let (cat, cpu, leds) = blink_catalog();
        (Arc::new(PowerModel::ideal(Arc::new(cat))), cpu, leds)
    }

    #[test]
    fn ideal_model_uses_nominal_currents() {
        let (model, cpu, leds) = blink_model();
        assert_eq!(
            model.true_state_current(cpu, StateIndex(1)).as_micro_amps(),
            500.0
        );
        assert_eq!(
            model
                .true_state_current(leds[0], led_state::ON)
                .as_milli_amps(),
            2.5
        );
        let mut sv = StateVector::baseline(model.catalog());
        sv.set_state(leds[0], led_state::ON);
        // 2.5 mA at 3 V = 7.5 mW, plus the 2.6 uA idle CPU.
        let p = model.true_power(&sv).as_milli_watts();
        assert!((p - (7.5 + 0.0078)).abs() < 1e-3, "power was {p}");
    }

    #[test]
    fn biased_model_deviates_but_stays_bounded() {
        let (cat, _cpu, leds) = blink_catalog();
        let cat = Arc::new(cat);
        let model = PowerModel::new(
            cat.clone(),
            Voltage::from_volts(3.0),
            NoiseModel::realistic(11),
        );
        let nominal = cat.nominal_current(leds[0], led_state::ON).as_micro_amps();
        let actual = model
            .true_state_current(leds[0], led_state::ON)
            .as_micro_amps();
        assert!(actual > 0.0);
        assert!((actual - nominal).abs() / nominal <= 0.05 + 1e-12);
    }

    #[test]
    fn accumulator_integrates_energy() {
        let (model, _cpu, leds) = blink_model();
        let mut acc = EnergyAccumulator::new(model.clone());
        // 1 second with everything at baseline: only the idle CPU draws.
        acc.advance(SimTime::from_secs(1));
        let idle_e = acc.total_energy().as_micro_joules();
        // 2.6 uA * 3 V * 1 s = 7.8 uJ.
        assert!((idle_e - 7.8).abs() < 1e-9, "idle energy {idle_e}");

        // Turn the red LED on for exactly 2 s.
        acc.set_state(SimTime::from_secs(1), leds[0], led_state::ON);
        acc.set_state(SimTime::from_secs(3), leds[0], led_state::OFF);
        acc.advance(SimTime::from_secs(4));

        // LED energy: 2.5 mA * 3 V * 2 s = 15 mJ.
        let led_e = acc.breakdown().sink(leds[0]).as_milli_joules();
        assert!((led_e - 15.0).abs() < 1e-6, "led energy {led_e}");
        // Total = LED + 4 s of idle CPU.
        let total = acc.total_energy().as_milli_joules();
        assert!(
            (total - (15.0 + 4.0 * 0.0078)).abs() < 1e-6,
            "total {total}"
        );
    }

    #[test]
    fn set_state_charges_old_state_up_to_transition() {
        let (model, _cpu, leds) = blink_model();
        let mut acc = EnergyAccumulator::new(model);
        acc.set_state(SimTime::from_millis(0), leds[2], led_state::ON);
        // At 500 ms the LED goes off; the first 500 ms must be charged at the
        // ON current even though the change event is what triggers advancing.
        acc.set_state(SimTime::from_millis(500), leds[2], led_state::OFF);
        acc.advance(SimTime::from_secs(1));
        let led_e = acc.breakdown().sink(leds[2]).as_micro_joules();
        // 0.83 mA * 3 V * 0.5 s = 1245 uJ.
        assert!((led_e - 1245.0).abs() < 1e-6, "led energy {led_e}");
    }

    #[test]
    #[should_panic(expected = "before accumulator time")]
    fn out_of_order_events_rejected() {
        let (model, _cpu, leds) = blink_model();
        let mut acc = EnergyAccumulator::new(model);
        acc.set_state(SimTime::from_secs(2), leds[0], led_state::ON);
        acc.set_state(SimTime::from_secs(1), leds[0], led_state::OFF);
    }

    #[test]
    fn advance_backwards_is_noop() {
        let (model, _cpu, _leds) = blink_model();
        let mut acc = EnergyAccumulator::new(model);
        acc.advance(SimTime::from_secs(1));
        let e = acc.total_energy();
        acc.advance(SimTime::from_millis(500));
        assert_eq!(acc.total_energy(), e);
        assert_eq!(acc.now(), SimTime::from_secs(1));
    }

    #[test]
    fn breakdown_total_matches_sum_of_sinks() {
        let (model, cpu, leds) = blink_model();
        let mut acc = EnergyAccumulator::new(model);
        acc.set_state(SimTime::from_millis(10), leds[0], led_state::ON);
        acc.set_state(SimTime::from_millis(20), cpu, StateIndex(1));
        acc.set_state(SimTime::from_millis(30), leds[1], led_state::ON);
        acc.set_state(SimTime::from_millis(40), cpu, StateIndex(0));
        acc.advance(SimTime::from_millis(100));
        let bd = acc.breakdown();
        let sum: f64 = bd.per_sink.values().map(|e| e.as_micro_joules()).sum();
        assert!((sum - bd.total.as_micro_joules()).abs() < 1e-9);
    }
}
