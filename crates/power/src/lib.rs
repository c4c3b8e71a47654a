//! # gs-power — the energy substrate of a green data center
//!
//! Implements every power-side component GreenSprint depends on:
//!
//! * [`solar`] — a simulated solar generator: synthetic clear-sky +
//!   Markov-weather irradiance traces at one-minute resolution (standing in
//!   for the paper's NREL traces), PV panels with inverter efficiency, and
//!   trace replay.
//! * [`battery`] — server-level 12 V VRLA lead-acid batteries modeled with
//!   Peukert's law (exponent 1.15), a depth-of-discharge cap (40 %), charge
//!   efficiency, and cycle-life accounting.
//! * [`pss`] — the Power Source Selector: per-epoch classification into the
//!   paper's three supply cases and the resulting charge/discharge plan.
//! * [`pdu`] — the grid bus's thermal circuit breaker.
//! * [`meter`] — per-source energy accounting.

pub mod backup;
pub mod battery;
pub mod meter;
pub mod pdu;
pub mod pss;
pub mod solar;
pub mod trace_io;
pub mod wind;

pub use backup::{AtsSource, AutomaticTransferSwitch, DieselGenerator};
pub use battery::{Battery, BatterySpec};
pub use meter::PowerMeter;
pub use pdu::CircuitBreaker;
pub use pss::{PowerSourceSelector, SafeSupplyEstimator, SupplyCase, SupplyPlan};
pub use solar::{PvArray, SolarTrace, SolarTraceError, WeatherModel};
pub use wind::{TurbineCurve, WindModel};
