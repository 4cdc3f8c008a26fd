//! Host-time benchmark of the DMetabench simulator.
//!
//! The simulator's users wait on host time, so this crate times four
//! registered paper scenarios end to end ([`workloads`]) and splits the same
//! time into the simulator's layers from outside the program ([`layers`]):
//! scheduler pop, engine dispatch, model planning, op streams, memfs
//! set-up, telemetry export and analysis. [`runner`] holds the run
//! protocol, [`compare`] the regression verdicts. See `README.md`.

pub mod alloc;
pub mod compare;
pub mod layers;
pub mod results;
pub mod runner;
pub mod stats;
pub mod workloads;
