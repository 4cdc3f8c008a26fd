//! NFS client + NetApp-WAFL-style filer model.
//!
//! Models the production NAS setup of paper §4.1.2 / §4.3:
//!
//! * synchronous metadata RPCs (NFSv3 specifies persistent metadata
//!   operations, §2.6.4) — every mutation crosses the network and queues at
//!   the filer,
//! * close-to-open client semantics with a TTL attribute cache — `stat` on
//!   recently-touched files is answered locally (§2.6.1, §3.4.3),
//! * NVRAM write log + periodic **consistency points**: the filer briefly
//!   stops admitting modifications every ~10 s (or when NVRAM fills) while
//!   flushing to disk — the sawtooth of Fig. 4.6,
//! * WAFL inline files: writes up to 64 bytes allocate no blocks
//!   (§4.3.4, MakeFiles64byte vs MakeFiles65byte),
//! * file-system snapshots that can be triggered mid-run as a disturbance
//!   (Fig. 4.5).

use crate::cache::AttrCache;
use crate::costmodel::{apply_meta_op, ServiceCostModel};
use crate::op::MetaOp;
use crate::plan::{
    ClientCtx, DistFs, FsResources, OpPlan, ServerId, ServerSpec, Stage, TimerAction,
};
use crate::recovery::{retry_backoff, RetryPolicy};
use memfs::{FsResult, MemFs, MemFsConfig};
use netsim::fault::FaultPlan;
use netsim::{LinkSpec, RpcProfile};
use simcore::{telemetry, DetRng, SimDuration, SimTime};

/// Tunables of the NFS/WAFL model.
#[derive(Debug, Clone)]
pub struct NfsConfig {
    /// Parallel request-processing slots on the filer.
    pub server_parallelism: usize,
    /// Service-time coefficients.
    pub cost: ServiceCostModel,
    /// Client ↔ filer link.
    pub link: LinkSpec,
    /// Attribute-cache lifetime (`acregmin`-style).
    pub attr_ttl: SimDuration,
    /// Client CPU per RPC-issuing operation (syscall + encode).
    pub client_cpu: SimDuration,
    /// Client CPU for a cache-hit `stat`.
    pub cached_stat_cpu: SimDuration,
    /// Consistency-point interval (WAFL flushes at least this often).
    pub cp_interval: SimDuration,
    /// Fixed part of a consistency-point pause.
    pub cp_min_pause: SimDuration,
    /// Additional pause per MiB of dirty NVRAM data.
    pub cp_pause_per_mib: SimDuration,
    /// NVRAM high-water mark: reaching it forces an immediate CP.
    pub nvram_limit_bytes: u64,
    /// Bytes of NVRAM consumed per metadata mutation (log record).
    pub nvram_bytes_per_op: u64,
    /// Server file-system configuration (directory index etc.).
    pub fs_config: MemFsConfig,
    /// Latency jitter on the link.
    pub jitter: f64,
    /// RPC timeout/backoff tuning when a fault plan is active.
    pub retry: RetryPolicy,
}

impl Default for NfsConfig {
    fn default() -> Self {
        NfsConfig {
            server_parallelism: 8,
            cost: ServiceCostModel {
                base: SimDuration::from_micros(420),
                ..ServiceCostModel::nvram_filer()
            },
            link: LinkSpec::lan(),
            attr_ttl: SimDuration::from_secs(3),
            client_cpu: SimDuration::from_micros(30),
            cached_stat_cpu: SimDuration::from_micros(5),
            cp_interval: SimDuration::from_secs(10),
            cp_min_pause: SimDuration::from_millis(40),
            cp_pause_per_mib: SimDuration::from_millis(3),
            nvram_limit_bytes: 256 << 20,
            nvram_bytes_per_op: 256,
            fs_config: MemFsConfig::default(),
            jitter: 0.04,
            retry: RetryPolicy::nfs_soft(),
        }
    }
}

/// The NFS/WAFL model. See the module-level documentation.
#[derive(Debug)]
pub struct NfsFs {
    config: NfsConfig,
    server_fs: MemFs,
    attr_caches: Vec<AttrCache>,
    dirty_bytes: u64,
    consistency_points: u64,
    faults: Option<FaultPlan>,
}

/// The single server resource of this model.
pub const NFS_SERVER: ServerId = ServerId(0);

impl NfsFs {
    /// Create the model.
    pub fn new(config: NfsConfig) -> Self {
        let server_fs = MemFs::with_config(config.fs_config.clone());
        NfsFs {
            config,
            server_fs,
            attr_caches: Vec::new(),
            dirty_bytes: 0,
            consistency_points: 0,
            faults: None,
        }
    }

    /// Attach a fault plan: RPCs then suffer link-down / loss / degradation
    /// windows and recover with timeout + exponential-backoff retransmits
    /// (soft-mount style — after `retry.max_retries` the client sends
    /// anyway). Without a plan the model is bit-identical to before.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The model with default tuning.
    pub fn with_defaults() -> Self {
        Self::new(NfsConfig::default())
    }

    /// Access the server-side namespace (for assertions in tests).
    pub fn server_fs(&self) -> &MemFs {
        &self.server_fs
    }

    /// Mutable access to the server-side namespace — used by experiments to
    /// pre-populate large directories without paying the RPC machinery.
    pub fn server_fs_mut(&mut self) -> &mut MemFs {
        &mut self.server_fs
    }

    /// Consistency points performed so far.
    pub fn consistency_points(&self) -> u64 {
        self.consistency_points
    }

    fn cp_pause(&self) -> SimDuration {
        let mib = self.dirty_bytes as f64 / (1024.0 * 1024.0);
        self.config.cp_min_pause + self.config.cp_pause_per_mib.mul_f64(mib)
    }
}

impl DistFs for NfsFs {
    fn resources(&self) -> FsResources {
        FsResources {
            servers: vec![ServerSpec {
                name: "filer".to_owned(),
                parallelism: self.config.server_parallelism,
            }],
            semaphores: Vec::new(),
        }
    }

    fn register_clients(&mut self, nodes: usize) {
        if self.attr_caches.len() == nodes {
            return; // idempotent: keep cache state across benchmark phases
        }
        self.attr_caches = (0..nodes)
            .map(|_| AttrCache::new(self.config.attr_ttl))
            .collect();
    }

    fn plan_into(
        &mut self,
        client: ClientCtx,
        op: &MetaOp,
        now: SimTime,
        rng: &mut DetRng,
        out: &mut OpPlan,
    ) -> FsResult<()> {
        out.reset();
        let cache = &mut self.attr_caches[client.node];
        // Reads that the client may answer locally (close-to-open + TTL).
        match op {
            MetaOp::Stat { path } | MetaOp::OpenClose { path } if cache.lookup(path, now) => {
                telemetry::count("nfs.attr_cache.hit", 1);
                out.push_cache_hit(self.config.cached_stat_cpu);
                return Ok(());
            }
            MetaOp::Stat { .. } | MetaOp::OpenClose { .. } => {
                telemetry::count("nfs.attr_cache.miss", 1);
                out.cache = telemetry::CacheTag::Miss;
            }
            _ => {}
        }
        let cost = apply_meta_op(&mut self.server_fs, op)?;
        let demand = self.config.cost.demand(cost);
        let profile = match op {
            MetaOp::Create { data_bytes, .. } => RpcProfile::metadata_with_data(*data_bytes),
            MetaOp::Readdir { .. } => RpcProfile::readdir(cost.dir_probes),
            _ => RpcProfile::metadata(),
        };
        // Faults: time out + retransmit with backoff until an attempt gets
        // through (or the soft mount gives up and sends anyway). The retry
        // stages precede the RPC round trip.
        if let Some(faults) = self.faults.as_mut() {
            out.faults = retry_backoff(
                faults,
                Some(NFS_SERVER.0),
                now,
                self.config.retry,
                &mut out.stages,
            );
            if faults.degradation(now + out.faults.stall).is_some() {
                out.faults.injected += 1;
            }
        }
        let send_at = now + out.faults.stall;
        let link = self.config.link.with_jitter(self.config.jitter);
        let faults = self.faults.as_ref();
        out.stages.push(Stage::ClientCpu {
            demand: self.config.client_cpu,
        });
        let req = link.one_way_at(profile.request_bytes, send_at, faults, rng);
        let resp = link.one_way_at(profile.response_bytes, send_at, faults, rng);
        out.push_rpc(NFS_SERVER, demand, req, resp);
        telemetry::count("nfs.rpc", 1);
        if op.is_mutation() {
            let data = if let MetaOp::Create { data_bytes, .. } = op {
                *data_bytes
            } else {
                0
            };
            self.dirty_bytes += self.config.nvram_bytes_per_op + data;
            if self.dirty_bytes >= self.config.nvram_limit_bytes {
                // NVRAM half full: immediate back-to-back consistency point.
                out.pauses.push((NFS_SERVER, self.cp_pause()));
                self.dirty_bytes = 0;
                self.consistency_points += 1;
                telemetry::count("nfs.consistency_point", 1);
            }
        }
        // The reply carries fresh attributes (post-op attr in NFSv3).
        self.attr_caches[client.node].fill(op.primary_path(), now);
        Ok(())
    }

    fn first_timer(&self) -> Option<SimTime> {
        Some(SimTime::ZERO + self.config.cp_interval)
    }

    fn on_timer(&mut self, now: SimTime) -> TimerAction {
        let mut pauses = Vec::new();
        if self.dirty_bytes > 0 {
            pauses.push((NFS_SERVER, self.cp_pause()));
            self.dirty_bytes = 0;
            self.consistency_points += 1;
            telemetry::count("nfs.consistency_point", 1);
        }
        TimerAction {
            next: Some(now + self.config.cp_interval),
            pauses,
        }
    }

    fn drop_caches(&mut self, node: usize) {
        if let Some(c) = self.attr_caches.get_mut(node) {
            c.clear();
        }
    }

    fn sample_gauges(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        let entries: usize = self.attr_caches.iter().map(AttrCache::len).sum();
        emit("nfs.attr_cache.entries", entries as u64);
        let stats = self
            .attr_caches
            .iter()
            .map(|c| c.stats())
            .fold((0u64, 0u64), |acc, s| (acc.0 + s.hits, acc.1 + s.misses));
        if let Some(permille) = (stats.0 * 1000).checked_div(stats.0 + stats.1) {
            emit("nfs.attr_cache.hit_permille", permille);
        }
        emit("nfs.dirty_bytes", self.dirty_bytes);
    }

    fn name(&self) -> &str {
        "nfs-wafl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultStats;

    fn ctx(node: usize) -> ClientCtx {
        ClientCtx { node, proc: 0 }
    }

    fn create_op(path: &str) -> MetaOp {
        MetaOp::Create {
            path: path.into(),
            data_bytes: 0,
        }
    }

    #[test]
    fn create_needs_full_rpc() {
        let mut fs = NfsFs::with_defaults();
        fs.register_clients(1);
        let mut rng = DetRng::new(1);
        let plan = fs
            .plan(ctx(0), &create_op("/w/f1"), SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(!plan.is_client_only());
        assert!(plan.foreground_demand() >= SimDuration::from_micros(400));
        assert!(
            fs.server_fs().counters().creates >= 1,
            "semantically applied"
        );
    }

    #[test]
    fn stat_after_create_is_cache_hit_on_same_node_only() {
        let mut fs = NfsFs::with_defaults();
        fs.register_clients(2);
        let mut rng = DetRng::new(1);
        let t = SimTime::from_secs(1);
        fs.plan(ctx(0), &create_op("/w/f1"), t, &mut rng).unwrap();
        let stat = MetaOp::Stat {
            path: "/w/f1".into(),
        };
        let hit = fs.plan(ctx(0), &stat, t, &mut rng).unwrap();
        assert!(hit.is_client_only(), "same node: attr cache hit");
        let miss = fs.plan(ctx(1), &stat, t, &mut rng).unwrap();
        assert!(
            !miss.is_client_only(),
            "other node must RPC (StatMultinodeFiles)"
        );
    }

    #[test]
    fn attr_cache_expires_with_ttl() {
        let mut fs = NfsFs::with_defaults();
        fs.register_clients(1);
        let mut rng = DetRng::new(1);
        fs.plan(ctx(0), &create_op("/w/f1"), SimTime::ZERO, &mut rng)
            .unwrap();
        let stat = MetaOp::Stat {
            path: "/w/f1".into(),
        };
        let late = SimTime::from_secs(10);
        let plan = fs.plan(ctx(0), &stat, late, &mut rng).unwrap();
        assert!(!plan.is_client_only(), "TTL expired → revalidation RPC");
    }

    #[test]
    fn drop_caches_forces_rpc() {
        let mut fs = NfsFs::with_defaults();
        fs.register_clients(1);
        let mut rng = DetRng::new(1);
        let t = SimTime::from_secs(1);
        fs.plan(ctx(0), &create_op("/w/f1"), t, &mut rng).unwrap();
        fs.drop_caches(0);
        let plan = fs
            .plan(
                ctx(0),
                &MetaOp::Stat {
                    path: "/w/f1".into(),
                },
                t,
                &mut rng,
            )
            .unwrap();
        assert!(!plan.is_client_only(), "StatNocacheFiles semantics");
    }

    #[test]
    fn timer_consistency_points_fire_when_dirty() {
        let mut fs = NfsFs::with_defaults();
        fs.register_clients(1);
        let mut rng = DetRng::new(1);
        // no dirty data: timer fires but pauses nothing
        let a = fs.on_timer(SimTime::from_secs(10));
        assert!(a.pauses.is_empty());
        assert_eq!(a.next, Some(SimTime::from_secs(20)));
        fs.plan(
            ctx(0),
            &create_op("/w/f1"),
            SimTime::from_secs(11),
            &mut rng,
        )
        .unwrap();
        let b = fs.on_timer(SimTime::from_secs(20));
        assert_eq!(b.pauses.len(), 1);
        assert_eq!(b.pauses[0].0, NFS_SERVER);
        assert!(b.pauses[0].1 >= SimDuration::from_millis(40));
        assert_eq!(fs.consistency_points(), 1);
    }

    #[test]
    fn nvram_high_water_forces_immediate_cp() {
        let mut cfg = NfsConfig::default();
        cfg.nvram_limit_bytes = 512; // 2 ops worth
        let mut fs = NfsFs::new(cfg);
        fs.register_clients(1);
        let mut rng = DetRng::new(1);
        let p1 = fs
            .plan(ctx(0), &create_op("/w/a"), SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(p1.pauses.is_empty());
        let p2 = fs
            .plan(ctx(0), &create_op("/w/b"), SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(p2.pauses.len(), 1, "hit the high-water mark");
    }

    #[test]
    fn bigger_files_cost_more_nvram_and_blocks() {
        let mut fs = NfsFs::with_defaults();
        fs.register_clients(1);
        let mut rng = DetRng::new(1);
        let small = fs
            .plan(
                ctx(0),
                &MetaOp::Create {
                    path: "/w/s".into(),
                    data_bytes: 64,
                },
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        let big = fs
            .plan(
                ctx(0),
                &MetaOp::Create {
                    path: "/w/b".into(),
                    data_bytes: 65,
                },
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        let sd = small
            .stages
            .iter()
            .find_map(|s| match s {
                Stage::Server { demand, .. } => Some(*demand),
                _ => None,
            })
            .unwrap();
        let bd = big
            .stages
            .iter()
            .find_map(|s| match s {
                Stage::Server { demand, .. } => Some(*demand),
                _ => None,
            })
            .unwrap();
        assert!(bd > sd, "65-byte create allocates a block: {bd} > {sd}");
    }

    #[test]
    fn link_down_window_forces_backoff_retries() {
        use netsim::fault::FaultSpec;
        let mut fs = NfsFs::with_defaults();
        fs.register_clients(1);
        fs.set_faults(FaultSpec::parse("down@10s..11s").unwrap().build());
        let mut rng = DetRng::new(1);
        let healthy = fs
            .plan(ctx(0), &create_op("/w/a"), SimTime::from_secs(5), &mut rng)
            .unwrap();
        assert_eq!(healthy.faults, FaultStats::default(), "outside the window");
        let faulted = fs
            .plan(ctx(0), &create_op("/w/b"), SimTime::from_secs(10), &mut rng)
            .unwrap();
        assert_eq!(
            faulted.faults.retries, 2,
            "0.7 s + 1.4 s clears the 1 s outage"
        );
        assert!(faulted.faults.stall >= SimDuration::from_secs(1));
        assert_eq!(faulted.stages.len(), healthy.stages.len() + 2);
    }

    #[test]
    fn inert_fault_plan_changes_nothing() {
        use netsim::fault::FaultSpec;
        let mut rng_a = DetRng::new(9);
        let mut rng_b = DetRng::new(9);
        let mut plain = NfsFs::with_defaults();
        plain.register_clients(1);
        let mut faulted = NfsFs::with_defaults();
        faulted.register_clients(1);
        faulted.set_faults(
            FaultSpec::parse("down@100s..110s,loss@200s..201s:0.5")
                .unwrap()
                .build(),
        );
        for i in 0..50 {
            let op = create_op(&format!("/w/f{i}"));
            let t = SimTime::from_millis(i * 10);
            let a = plain.plan(ctx(0), &op, t, &mut rng_a).unwrap();
            let b = faulted.plan(ctx(0), &op, t, &mut rng_b).unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "op {i}");
        }
    }

    #[test]
    fn duplicate_create_errors() {
        let mut fs = NfsFs::with_defaults();
        fs.register_clients(1);
        let mut rng = DetRng::new(1);
        fs.plan(ctx(0), &create_op("/w/f"), SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(
            fs.plan(ctx(0), &create_op("/w/f"), SimTime::ZERO, &mut rng)
                .unwrap_err(),
            memfs::FsError::Exists
        );
    }
}
