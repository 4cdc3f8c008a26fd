//! The results file one run writes, and the `BENCHMARK.json` it is
//! checked against.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// Schema tag of a results file.
pub const SCHEMA: &str = "dmetabench.perf/v1";

/// Where the run happened and how.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: u64,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub git_rev: String,
    /// Tracked files modified (`None` outside a git checkout).
    pub git_dirty: Option<bool>,
    /// `release` or `debug`.
    pub profile: String,
    /// Simulation threads of the timed reps.
    pub sim_threads: u64,
    /// Workload seed.
    pub seed: u64,
    /// Requested measuring time.
    pub seconds: f64,
    /// Reduced geometry.
    pub quick: bool,
}

/// One metric value with its unit; end-to-end metrics also carry the
/// quartiles and count of their per-rep samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricRecord {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// First quartile of the samples.
    pub q1: Option<f64>,
    /// Third quartile of the samples.
    pub q3: Option<f64>,
    /// Sample count.
    pub n: Option<u64>,
}

impl MetricRecord {
    /// A single measured value.
    pub fn plain(name: &str, value: f64, unit: &str) -> Self {
        MetricRecord {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
            q1: None,
            q3: None,
            n: None,
        }
    }
}

/// One row of the traced rep's layer table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerRow {
    /// Scope or benchmark-side layer name.
    pub name: String,
    /// Calls.
    pub calls: u64,
    /// Total host nanoseconds.
    pub ns: u64,
    /// `ns` over thread count × traced wall time.
    pub share: f64,
}

/// A named output check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckRecord {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Everything one run measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Results {
    /// [`SCHEMA`].
    pub schema: String,
    /// Workload name.
    pub workload: String,
    /// Registered scenario the workload reproduces.
    pub scenario: String,
    /// Host stamp.
    pub host: Host,
    /// Every check passed.
    pub correct: bool,
    /// Simulated operations attempted, over every rep of the run.
    pub attempted: u64,
    /// Simulated operations that failed.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<CheckRecord>,
    /// Raw per-rep samples of each sampled end-to-end metric.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricRecord>,
    /// The traced rep's layer table (empty without `--trace 1`).
    pub layers: Vec<LayerRow>,
    /// Per-layer metrics (empty without `--trace 1`).
    pub per_layer: Vec<MetricRecord>,
}

impl Results {
    /// Read a results file.
    ///
    /// # Errors
    ///
    /// The file cannot be read or is not a results file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
    }

    /// Write the results file, creating its directory.
    ///
    /// # Errors
    ///
    /// The file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let mut text = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Look an end-to-end or per-layer metric up by name.
    pub fn metric(&self, name: &str) -> Option<&MetricRecord> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// A metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// A workload declared in `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name.
    pub name: String,
}

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    /// Declared workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// Metrics a `--trace 0` run reports.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics a `--trace 1` run reports.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Read `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// The file cannot be read or parsed.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
    }
}
