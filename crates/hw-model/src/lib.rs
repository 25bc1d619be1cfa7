//! Hardware platform model for the Quanto reproduction.
//!
//! The original Quanto system ran on the HydroWatch platform: a TI MSP430F1611
//! microcontroller, a CC2420 802.15.4 radio, an Atmel AT45DB161D NOR flash and
//! three LEDs, all fed through an iCount-augmented switching regulator.  This
//! crate models that platform as *data*:
//!
//! * [`sink::EnergySink`] — a functional unit that draws current (what the
//!   paper calls an *energy sink*),
//! * [`sink::PowerStateDef`] — one operating mode of a sink with a nominal
//!   current draw (a *power state*),
//! * [`catalog::Catalog`] — the full platform inventory (the paper's Table 1),
//! * [`state_vector::StateVector`] — the set of currently-active power states,
//! * [`power::PowerModel`] — the ground-truth aggregate power draw for a state
//!   vector, including a configurable deviation of the *true* per-state
//!   currents from their nominal (datasheet) values, and
//! * [`power::EnergyAccumulator`] — integration of ground-truth energy over a
//!   sequence of state-vector transitions.  It caches each sink's true power
//!   and the aggregate power, recomputes them only when a sink's state
//!   changes, and sums the aggregate in sink order as
//!   [`power::PowerModel::true_power`] does, so its results are
//!   bit-identical to walking the model at every step.
//!
//! Everything downstream (the simulated iCount meter, the Quanto tracker, the
//! offline regression) observes the platform only through these types, which
//! mirrors how the real system observes hardware only through power-state
//! notifications and an aggregate energy counter.

pub mod catalog;
pub mod noise;
pub mod power;
pub mod sink;
pub mod state_vector;
pub mod units;

pub use catalog::{Catalog, CatalogBuilder, SinkId};
pub use noise::NoiseModel;
pub use power::{EnergyAccumulator, PowerModel};
pub use sink::{ComponentClass, EnergySink, PowerStateDef, StateIndex};
pub use state_vector::{StateVector, StateVectorKey, KEY_CAPACITY};
pub use units::{Current, Energy, Power, SimDuration, SimTime, Voltage};
