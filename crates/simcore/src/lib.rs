//! Deterministic discrete-event simulation engine.
//!
//! `simcore` is the substrate on which the distributed-file-system models in
//! the `dfs` crate and the simulated cluster engine in the `cluster` crate
//! run. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock with nanosecond
//!   resolution,
//! * [`Scheduler`] — a time-ordered event queue with *deterministic*
//!   tie-breaking (events scheduled for the same instant fire in scheduling
//!   order), and support for cancellation,
//! * [`FifoResource`] — a k-server FIFO queueing station (used to model
//!   metadata servers, NVRAM commit logs, disks),
//! * [`PsResource`] — a processor-sharing resource with per-job weights
//!   (used to model client CPUs under `nice`-style priority scheduling,
//!   paper §4.4),
//! * [`Semaphore`] — a counting semaphore held across simulation stages
//!   (used to model client-side serialization in Lustre/AFS/CXFS clients and
//!   write-back windows),
//! * [`DetRng`] — a deterministic random-number source so that every
//!   experiment is reproducible bit-for-bit,
//! * [`LatencyHistogram`] — a log-bucketed latency histogram for percentile
//!   reporting.
//!
//! # Example
//!
//! ```
//! use simcore::{Scheduler, SimDuration, SimTime};
//!
//! let mut sched: Scheduler<&'static str> = Scheduler::new();
//! sched.schedule_after(SimDuration::from_millis(5), "hello");
//! sched.schedule_after(SimDuration::from_millis(2), "world");
//! let (t1, e1) = sched.pop().unwrap();
//! assert_eq!((t1, e1), (SimTime::from_millis(2), "world"));
//! let (t2, e2) = sched.pop().unwrap();
//! assert_eq!((t2, e2), (SimTime::from_millis(5), "hello"));
//! assert_eq!(sched.now(), SimTime::from_millis(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod par;
pub mod prof;
mod ps;
mod resource;
mod rng;
mod sched;
mod sem;
mod stats;
pub mod telemetry;
mod time;

pub use ps::{PsCompletion, PsResource};
pub use resource::{FifoResource, ServiceStart};
pub use rng::DetRng;
pub use sched::{EventId, Scheduler};
pub use sem::Semaphore;
pub use stats::LatencyHistogram;
pub use telemetry::TelemetryReport;
pub use time::{SimDuration, SimTime};

/// Identifier of a simulated job (one in-flight operation of one process).
///
/// Job ids are allocated by the layer that drives the simulation (the cluster
/// engine); `simcore` treats them as opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}
