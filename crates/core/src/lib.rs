//! **DMetabench** — a distributed metadata benchmark framework.
//!
//! This crate is the Rust reproduction of the framework presented in
//! Christoph Biardzki, *Analyzing Metadata Performance in Distributed File
//! Systems* (2009), Chapter 3. It provides:
//!
//! * the pre-defined benchmark plugins of Table 3.5
//!   (MakeFiles, DeleteFiles, StatFiles, StatNocacheFiles,
//!   StatMultinodeFiles, …) and the [`BenchmarkPlugin`] trait for custom
//!   operations,
//! * the [`Runner`] implementing the master's nested loops over nodes ×
//!   processes-per-node × operations (§3.3.3), against simulated
//!   distributed file systems (`dfs` models on virtual time) or real
//!   file systems (`memfs::StdFs` threads),
//! * [time-interval logging](crate::ResultSet) and the
//!   [preprocessing](crate::preprocess::preprocess) pipeline: per-interval throughput,
//!   per-process standard deviation and COV, stonewall and fixed-N
//!   averages — validated against the paper's worked example (listings
//!   3.3–3.5),
//! * [chart generation](crate::chart): the combined time chart,
//!   performance-vs-processes and performance-vs-nodes charts (§3.3.10),
//!   as ASCII and SVG,
//! * [environment profiling](crate::EnvironmentProfile) for retrospective
//!   analysis (§3.2.6),
//! * [critical-path analysis](crate::analyze) over captured telemetry:
//!   per-op latency attribution into network / queueing / service /
//!   lock-wait / client segments (`dmetabench analyze`).
//!
//! # Quickstart
//!
//! ```
//! use dmetabench::{BenchParams, Runner};
//! use cluster::{MpiWorld, Placement, SimConfig};
//! use dfs::NfsFs;
//! use simcore::SimDuration;
//!
//! let params = BenchParams {
//!     operations: vec!["MakeFiles".into()],
//!     duration: SimDuration::from_secs(2),
//!     ..BenchParams::default()
//! };
//! let placement = Placement::discover(&MpiWorld::uniform(2, 2));
//! let campaign = Runner::new(params).run_simulated(
//!     &placement,
//!     || Box::new(NfsFs::with_defaults()),
//!     &SimConfig::default(),
//! );
//! assert!(!campaign.results.is_empty());
//! println!("{}", campaign.summary_tsv());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod baseline;
pub mod bench;
pub mod chart;
pub mod crashdrill;
mod params;
mod plugin;
pub mod preprocess;
mod profile;
mod result;
mod runner;
pub mod scaling;
pub mod scenarios;
pub mod suite;
pub mod trace;

pub use params::{BenchParams, WorkerCtx};
pub use plugin::{
    all_plugin_names, plugin_by_name, BenchmarkPlugin, DeleteFiles, MailServer, MakeDirs,
    MakeFiles, MakeFiles64byte, MakeFiles65byte, MakeOnedirFiles, OpenCloseFiles, ProblemMode,
    ReaddirFiles, RenameFiles, StatFiles, StatMultinodeFiles, StatNocacheFiles,
};
pub use preprocess::{align_to_grid, preprocess, IntervalRow, Preprocessed};
pub use profile::EnvironmentProfile;
pub use result::{ProcessTrace, ResultSet};
pub use runner::{run_single, BenchResult, Campaign, Runner};
pub use trace::{parse_trace, write_trace, TraceReplay};
