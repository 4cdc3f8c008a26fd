//! The benchmark runner: the master's nested loops of paper §3.3.3.
//!
//! For every operation and every `(nodes, processes-per-node)` combination
//! of the execution plan, the runner executes the three phases —
//! `prepare` → (optional cache drop) → `doBench` → `cleanup` — with
//! barriers between them, collects the per-process time logs, and runs the
//! preprocessing step. Two backends are supported:
//!
//! * [`Runner::run_simulated`] drives a [`dfs::DistFs`] model on virtual
//!   time (a fresh model per combination, like a fresh test directory),
//! * [`Runner::run_real`] drives real [`memfs::Vfs`] backends with worker
//!   threads on one node.

use cluster::{
    execution_plan, run_sim, run_threads, Placement, RealOpStream, RunSpec, SimConfig,
    SimRunResult, ThreadRunConfig, WorkerSpec,
};
use dfs::{ClientCtx, DistFs, OpPlan};
use memfs::Vfs;
use simcore::{telemetry, DetRng, SimTime};

use crate::params::{BenchParams, WorkerCtx};
use crate::plugin::{plugin_by_name, BenchmarkPlugin, ProblemMode};
use crate::preprocess::{preprocess, Preprocessed};
use crate::profile::EnvironmentProfile;
use crate::result::ResultSet;

/// One completed benchmark iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Operation name.
    pub operation: String,
    /// Nodes used.
    pub nodes: usize,
    /// Processes per node.
    pub ppn: usize,
    /// The raw result set (listing 3.3 data).
    pub result_set: ResultSet,
    /// Preprocessed summary (listings 3.4/3.5 data).
    pub pre: Preprocessed,
}

/// All results of one runner invocation plus the environment profile.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Per-iteration results, in execution order.
    pub results: Vec<BenchResult>,
    /// Captured environment.
    pub profile: EnvironmentProfile,
    /// The parameters used.
    pub params: BenchParams,
}

impl Campaign {
    /// The summary TSV across all iterations (one listing-3.5 line each).
    pub fn summary_tsv(&self) -> String {
        let mut out =
            String::from("Operation\tNodes\tPPN\tProcesses\tStonewallOpsPerSec\tFixedNAverages\n");
        for r in &self.results {
            out.push_str(&r.pre.summary_tsv());
        }
        out
    }

    /// Find a result by `(operation, nodes, ppn)`.
    pub fn find(&self, operation: &str, nodes: usize, ppn: usize) -> Option<&BenchResult> {
        self.results
            .iter()
            .find(|r| r.operation == operation && r.nodes == nodes && r.ppn == ppn)
    }

    /// Write result TSVs, the summary, and the profile into a directory.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the directory or writing files.
    pub fn write_to_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for r in &self.results {
            std::fs::write(dir.join(r.result_set.file_name()), r.result_set.to_tsv())?;
            std::fs::write(
                dir.join(format!(
                    "summary-{}-{}-{}.tsv",
                    r.operation,
                    r.nodes,
                    r.result_set.total_processes()
                )),
                r.pre.interval_tsv(),
            )?;
        }
        std::fs::write(dir.join("summary.tsv"), self.summary_tsv())?;
        std::fs::write(dir.join("profile.json"), self.profile.to_json())?;
        Ok(())
    }
}

/// The benchmark runner.
#[derive(Debug, Clone)]
pub struct Runner {
    params: BenchParams,
    fixed_ns: Vec<u64>,
}

impl Runner {
    /// Create a runner for the given parameters.
    pub fn new(params: BenchParams) -> Self {
        let fixed_ns = vec![params.problem_size, params.problem_size * 5];
        Runner { params, fixed_ns }
    }

    /// The parameters.
    pub fn params(&self) -> &BenchParams {
        &self.params
    }

    fn resolve_plugins(&self) -> Vec<Box<dyn BenchmarkPlugin>> {
        self.params
            .operations
            .iter()
            .map(|name| {
                plugin_by_name(name)
                    .unwrap_or_else(|| panic!("unknown benchmark operation '{name}'"))
            })
            .collect()
    }

    /// Run all operations over the full execution plan against simulated
    /// distributed-file-system models.
    ///
    /// `model_factory` is called once per iteration so every combination
    /// starts from a pristine namespace, matching the paper's per-run test
    /// directories.
    ///
    /// # Panics
    ///
    /// Panics on unknown operation names.
    pub fn run_simulated(
        &self,
        placement: &Placement,
        model_factory: impl Fn() -> Box<dyn DistFs>,
        sim_config: &SimConfig,
    ) -> Campaign {
        let plan = execution_plan(placement, self.params.node_step, self.params.ppn_step);
        let plugins = self.resolve_plugins();
        let mut results = Vec::new();
        for spec in &plan {
            for plugin in &plugins {
                telemetry::count("runner.combos", 1);
                let mut model = model_factory();
                let run =
                    self.run_one_sim(placement, spec, plugin.as_ref(), &mut model, sim_config);
                let rs = ResultSet::from_run(plugin.name(), spec.nodes, spec.ppn, &run);
                let pre = preprocess(&rs, &self.fixed_ns);
                results.push(BenchResult {
                    operation: plugin.name().to_owned(),
                    nodes: spec.nodes,
                    ppn: spec.ppn,
                    result_set: rs,
                    pre,
                });
            }
        }
        Campaign {
            results,
            profile: EnvironmentProfile::capture(&self.params.label),
            params: self.params.clone(),
        }
    }

    /// Run a single `(operation, RunSpec)` iteration on a model. Exposed so
    /// experiment binaries can control the model instance and disturbances.
    pub fn run_one_sim(
        &self,
        placement: &Placement,
        spec: &RunSpec,
        plugin: &dyn BenchmarkPlugin,
        model: &mut Box<dyn DistFs>,
        sim_config: &SimConfig,
    ) -> SimRunResult {
        // nodes participating in this spec, re-indexed 0..spec.nodes
        let mut node_map: Vec<usize> = spec.workers.iter().map(|&(_, n)| n).collect();
        node_map.sort_unstable();
        node_map.dedup();
        let node_names: Vec<String> = node_map
            .iter()
            .map(|&n| placement.node_names[n].clone())
            .collect();
        let local_workers: Vec<(usize, usize)> = spec
            .workers
            .iter()
            .map(|&(_, node)| {
                let local = node_map
                    .iter()
                    .position(|&m| m == node)
                    .expect("node is in map");
                (local, 0)
            })
            .collect();
        // assign per-node process indexes
        let mut per_node_count = vec![0usize; node_map.len()];
        let local_workers: Vec<(usize, usize)> = local_workers
            .into_iter()
            .map(|(node, _)| {
                let proc = per_node_count[node];
                per_node_count[node] += 1;
                (node, proc)
            })
            .collect();
        let ctxs = WorkerCtx::build(&local_workers, &self.params, node_map.len());

        model.register_clients(node_map.len());
        // --- prepare phase (unmeasured; semantic application only) --------
        let mut rng = DetRng::new(sim_config.seed ^ 0x5051_4541);
        let mut plan = OpPlan::default();
        for ctx in &ctxs {
            for op in plugin.prepare_ops(ctx) {
                telemetry::count("runner.prepare_ops", 1);
                let client = ClientCtx {
                    node: ctx.node,
                    proc: ctx.proc,
                };
                let _ = model.plan_into(client, &op, SimTime::ZERO, &mut rng, &mut plan);
            }
        }
        if plugin.drop_caches_after_prepare() {
            for node in 0..node_map.len() {
                model.drop_caches(node);
            }
        }

        // --- measured phase ------------------------------------------------
        let workers: Vec<WorkerSpec> = ctxs
            .iter()
            .map(|c| WorkerSpec::new(c.node, c.proc))
            .collect();
        let streams: Vec<Box<dyn cluster::OpStream>> = ctxs
            .iter()
            .map(|c| {
                let s = plugin.stream(c);
                let b: Box<dyn cluster::OpStream> = Box::new(s);
                b
            })
            .collect();
        let mut cfg = sim_config.clone();
        cfg.sample_interval = self.params.sample_interval;
        cfg.duration = match plugin.mode() {
            ProblemMode::Timed => Some(self.params.duration),
            ProblemMode::Fixed => None,
        };
        let run = run_sim(model.as_mut(), &node_names, workers, streams, &cfg);

        // --- cleanup phase (unmeasured) -------------------------------------
        let mut rng = DetRng::new(sim_config.seed ^ 0x434c_4e55);
        for (ctx, trace) in ctxs.iter().zip(&run.workers) {
            for op in plugin.cleanup_ops(ctx, trace.ops_done) {
                telemetry::count("runner.cleanup_ops", 1);
                let client = ClientCtx {
                    node: ctx.node,
                    proc: ctx.proc,
                };
                let _ = model.plan_into(client, &op, SimTime::ZERO, &mut rng, &mut plan);
            }
        }
        run
    }

    /// Run all operations against real [`Vfs`] backends on this machine —
    /// intra-node parallelism only (the substitution for multi-machine MPI,
    /// see DESIGN.md). The processes-per-node sweep follows `ppn_step` up
    /// to `max_ppn`.
    ///
    /// # Panics
    ///
    /// Panics on unknown operation names.
    pub fn run_real(
        &self,
        vfs_factory: impl Fn(usize) -> Box<dyn Vfs> + Sync,
        max_ppn: usize,
        config: &ThreadRunConfig,
    ) -> Campaign {
        let plugins = self.resolve_plugins();
        let mut results = Vec::new();
        let mut ppn = 1;
        while ppn <= max_ppn {
            for plugin in &plugins {
                telemetry::count("runner.combos", 1);
                let workers: Vec<(usize, usize)> = (0..ppn).map(|p| (0usize, p)).collect();
                let ctxs = WorkerCtx::build(&workers, &self.params, 1);
                // prepare
                for ctx in &ctxs {
                    let mut vfs = vfs_factory(ctx.index);
                    for op in plugin.prepare_ops(ctx) {
                        let _ = dfs::ensure_parents(vfs.as_mut(), op.primary_path());
                        let _ = dfs::exec_op(vfs.as_mut(), &op);
                    }
                    if plugin.drop_caches_after_prepare() {
                        let _ = vfs.drop_caches();
                    }
                }
                // measured
                let streams: Vec<RealOpStream> = ctxs
                    .iter()
                    .map(|c| {
                        let s = plugin.stream(c);
                        let b: RealOpStream = Box::new(s);
                        b
                    })
                    .collect();
                let mut cfg = config.clone();
                cfg.duration = match plugin.mode() {
                    ProblemMode::Timed => Some(std::time::Duration::from_secs_f64(
                        self.params.duration.as_secs_f64(),
                    )),
                    ProblemMode::Fixed => None,
                };
                let run = run_threads(&vfs_factory, streams, &cfg);
                // cleanup
                for (ctx, trace) in ctxs.iter().zip(&run.workers) {
                    let mut vfs = vfs_factory(ctx.index);
                    for op in plugin.cleanup_ops(ctx, trace.ops_done) {
                        let _ = dfs::exec_op(vfs.as_mut(), &op);
                    }
                }
                let rs = ResultSet::from_run(plugin.name(), 1, ppn, &run);
                let pre = preprocess(&rs, &self.fixed_ns);
                results.push(BenchResult {
                    operation: plugin.name().to_owned(),
                    nodes: 1,
                    ppn,
                    result_set: rs,
                    pre,
                });
            }
            ppn = if ppn == 1 && self.params.ppn_step > 1 {
                self.params.ppn_step
            } else {
                ppn + self.params.ppn_step
            };
        }
        Campaign {
            results,
            profile: EnvironmentProfile::capture(&self.params.label),
            params: self.params.clone(),
        }
    }

    /// Collect `(x = processes, y = stonewall ops/s)` points for one
    /// operation from a campaign — the data behind Fig. 3.12.
    pub fn processes_series(campaign: &Campaign, operation: &str) -> Vec<(f64, f64)> {
        let mut pts: Vec<(f64, f64)> = campaign
            .results
            .iter()
            .filter(|r| r.operation == operation)
            .map(|r| (r.result_set.total_processes() as f64, r.pre.stonewall_avg))
            .collect();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        pts
    }

    /// Collect `(x = nodes, y = stonewall ops/s)` points for one operation
    /// at a fixed ppn — the data behind Fig. 3.13.
    pub fn nodes_series(campaign: &Campaign, operation: &str, ppn: usize) -> Vec<(f64, f64)> {
        let mut pts: Vec<(f64, f64)> = campaign
            .results
            .iter()
            .filter(|r| r.operation == operation && r.ppn == ppn)
            .map(|r| (r.nodes as f64, r.pre.stonewall_avg))
            .collect();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        pts
    }
}

/// Helper for experiment binaries: run one operation at one combination on
/// a model with custom disturbances, returning the preprocessed result.
pub fn run_single(
    params: &BenchParams,
    operation: &str,
    nodes: usize,
    ppn: usize,
    model: &mut Box<dyn DistFs>,
    sim_config: &SimConfig,
) -> (ResultSet, Preprocessed) {
    let runner = Runner::new(params.clone());
    let plugin = plugin_by_name(operation)
        .unwrap_or_else(|| panic!("unknown benchmark operation '{operation}'"));
    // synthesize a placement with exactly nodes×ppn workers (+1 master slot)
    let mut slots = vec!["node0".to_owned()]; // master
    for p in 0..ppn + 1 {
        for n in 0..nodes {
            if p == 0 && n == 0 {
                continue; // master already there
            }
            let _ = p;
            slots.push(format!("node{n}"));
        }
    }
    let world = cluster::MpiWorld::new(slots);
    let placement = Placement::discover(&world);
    let spec = placement
        .select(nodes, ppn)
        .unwrap_or_else(|| panic!("cannot place {nodes}x{ppn}"));
    let spec = RunSpec {
        nodes,
        ppn,
        workers: spec,
    };
    let run = runner.run_one_sim(&placement, &spec, plugin.as_ref(), model, sim_config);
    let rs = ResultSet::from_run(operation, nodes, ppn, &run);
    let pre = preprocess(&rs, &runner.fixed_ns);
    (rs, pre)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::MpiWorld;
    use dfs::{LocalFs, NfsFs};
    use simcore::SimDuration;

    fn quick_params(ops: &[&str]) -> BenchParams {
        BenchParams {
            operations: ops.iter().map(|s| s.to_string()).collect(),
            problem_size: 200,
            duration: SimDuration::from_secs(2),
            label: "test".into(),
            ..BenchParams::default()
        }
    }

    #[test]
    fn simulated_campaign_covers_plan() {
        let params = quick_params(&["MakeFiles", "StatFiles"]);
        let runner = Runner::new(params);
        let world = MpiWorld::uniform(3, 2);
        let placement = Placement::discover(&world);
        let campaign = runner.run_simulated(
            &placement,
            || Box::new(NfsFs::with_defaults()),
            &SimConfig::default(),
        );
        // plan: ppn 1 → nodes 1..3; ppn 2 → nodes 1..2  = 5 combos × 2 ops
        assert_eq!(campaign.results.len(), 10);
        for r in &campaign.results {
            assert!(
                r.result_set.total_ops() > 0,
                "{}/{}x{}",
                r.operation,
                r.nodes,
                r.ppn
            );
            assert!(r.pre.stonewall_avg > 0.0);
        }
        // MakeFiles throughput grows from 1 to 3 nodes
        let s = Runner::nodes_series(&campaign, "MakeFiles", 1);
        assert!(s.len() >= 3);
        assert!(s[2].1 > s[0].1, "3-node run beats 1-node: {s:?}");
        // summary includes every combination
        let summary = campaign.summary_tsv();
        assert_eq!(summary.lines().count(), 11);
    }

    #[test]
    fn stat_files_benefits_from_cache_nocache_does_not() {
        let params = quick_params(&["StatFiles", "StatNocacheFiles"]);
        let runner = Runner::new(params);
        let world = MpiWorld::uniform(2, 1);
        let placement = Placement::discover(&world);
        let campaign = runner.run_simulated(
            &placement,
            || Box::new(NfsFs::with_defaults()),
            &SimConfig::default(),
        );
        let cached = campaign.find("StatFiles", 1, 1).unwrap().pre.stonewall_avg;
        let uncached = campaign
            .find("StatNocacheFiles", 1, 1)
            .unwrap()
            .pre
            .stonewall_avg;
        assert!(
            cached > uncached * 3.0,
            "cached stats are much faster: {cached} vs {uncached}"
        );
    }

    #[test]
    fn real_mode_sweeps_ppn() {
        let params = quick_params(&["MakeFiles"]);
        let mut params = params;
        params.duration = SimDuration::from_millis(300);
        let runner = Runner::new(params);
        let campaign = runner.run_real(
            |_| Box::new(memfs::MemFs::new()),
            2,
            &ThreadRunConfig::default(),
        );
        assert_eq!(campaign.results.len(), 2);
        for r in &campaign.results {
            assert!(r.result_set.total_ops() > 0);
        }
    }

    #[test]
    fn campaign_writes_result_files() {
        let params = quick_params(&["DeleteFiles"]);
        let runner = Runner::new(params);
        let world = MpiWorld::uniform(2, 1);
        let placement = Placement::discover(&world);
        let campaign = runner.run_simulated(
            &placement,
            || Box::new(LocalFs::with_defaults()),
            &SimConfig::default(),
        );
        let dir = std::env::temp_dir().join(format!("dmetabench-test-{}", std::process::id()));
        campaign.write_to_dir(&dir).unwrap();
        assert!(dir.join("summary.tsv").exists());
        assert!(dir.join("profile.json").exists());
        assert!(dir.join("results-DeleteFiles-1-1.tsv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_single_produces_consistent_result() {
        let params = quick_params(&["MakeFiles"]);
        let mut model: Box<dyn DistFs> = Box::new(NfsFs::with_defaults());
        let (rs, pre) = run_single(
            &params,
            "MakeFiles",
            2,
            2,
            &mut model,
            &SimConfig::default(),
        );
        assert_eq!(rs.total_processes(), 4);
        assert!(pre.stonewall_avg > 0.0);
        assert_eq!(pre.nodes, 2);
        assert_eq!(pre.ppn, 2);
    }

    #[test]
    fn multinode_stat_misses_caches() {
        // StatMultinodeFiles must be slower than StatFiles on NFS because
        // the peer's files are not in the local attribute cache.
        let params = quick_params(&["StatFiles", "StatMultinodeFiles"]);
        let runner = Runner::new(params);
        let world = MpiWorld::uniform(3, 1);
        let placement = Placement::discover(&world);
        let campaign = runner.run_simulated(
            &placement,
            || Box::new(NfsFs::with_defaults()),
            &SimConfig::default(),
        );
        let local = campaign.find("StatFiles", 2, 1).unwrap().pre.stonewall_avg;
        let multi = campaign
            .find("StatMultinodeFiles", 2, 1)
            .unwrap()
            .pre
            .stonewall_avg;
        assert!(
            local > multi * 2.0,
            "multinode stats must RPC: {local} vs {multi}"
        );
    }
}
