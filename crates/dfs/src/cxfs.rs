//! CXFS-style SAN file system model (paper §2.5.2, §4.5).
//!
//! CXFS delegates all metadata operations to a central metadata server over
//! a dedicated low-latency interconnect, while data moves over the SAN.
//! The property the thesis measures on the HLRB 2 (§4.5.3) is *intra-node*
//! metadata scalability on very large SMP nodes: the CXFS client serializes
//! token/metadata traffic per OS instance, so adding processes on one
//! 512-core partition barely helps — unlike NFS on the same machine.

use crate::cache::CallbackCache;
use crate::costmodel::{apply_meta_op, ServiceCostModel};
use crate::op::MetaOp;
use crate::plan::{
    ClientCtx, DistFs, FsResources, OpPlan, SemId, SemSpec, ServerId, ServerSpec, Stage,
};
use memfs::{FsResult, MemFs, MemFsConfig};
use netsim::{LinkSpec, RpcProfile};
use simcore::telemetry;
use simcore::{DetRng, SimDuration, SimTime};

/// Tunables of the CXFS model.
#[derive(Debug, Clone)]
pub struct CxfsConfig {
    /// Metadata-server service slots.
    pub mds_parallelism: usize,
    /// MDS service-time coefficients.
    pub cost: ServiceCostModel,
    /// Client ↔ MDS link (dedicated, low latency).
    pub link: LinkSpec,
    /// Client CPU per metadata RPC (token management is expensive).
    pub client_cpu: SimDuration,
    /// Client CPU for a token-cached `stat`.
    pub cached_stat_cpu: SimDuration,
    /// MDS file-system configuration.
    pub fs_config: MemFsConfig,
    /// Link jitter.
    pub jitter: f64,
}

impl Default for CxfsConfig {
    fn default() -> Self {
        CxfsConfig {
            mds_parallelism: 4,
            cost: ServiceCostModel {
                base: SimDuration::from_micros(350),
                ..ServiceCostModel::disk_mds()
            },
            link: LinkSpec {
                latency: SimDuration::from_micros(30),
                bandwidth_bps: 1_250_000_000,
                jitter: 0.0,
            },
            client_cpu: SimDuration::from_micros(80),
            cached_stat_cpu: SimDuration::from_micros(5),
            fs_config: MemFsConfig::default(),
            jitter: 0.03,
        }
    }
}

/// The CXFS model. See the module-level documentation.
#[derive(Debug)]
pub struct CxfsFs {
    config: CxfsConfig,
    mds_fs: MemFs,
    token_caches: Vec<CallbackCache>,
    nodes: usize,
}

/// Server index of the CXFS metadata server.
pub const CXFS_MDS: ServerId = ServerId(0);

impl CxfsFs {
    /// Create the model.
    pub fn new(config: CxfsConfig) -> Self {
        let mds_fs = MemFs::with_config(config.fs_config.clone());
        CxfsFs {
            config,
            mds_fs,
            token_caches: Vec::new(),
            nodes: 0,
        }
    }

    /// The model with default tuning.
    pub fn with_defaults() -> Self {
        Self::new(CxfsConfig::default())
    }

    /// Access the MDS namespace.
    pub fn mds_fs(&self) -> &MemFs {
        &self.mds_fs
    }

    fn token_sem(&self, node: usize) -> SemId {
        SemId(node)
    }
}

impl DistFs for CxfsFs {
    fn resources(&self) -> FsResources {
        assert!(
            self.nodes > 0,
            "register_clients must be called before resources()"
        );
        FsResources {
            servers: vec![ServerSpec {
                name: "cxfs-mds".to_owned(),
                parallelism: self.config.mds_parallelism,
            }],
            semaphores: (0..self.nodes)
                .map(|n| SemSpec {
                    name: format!("client{n}-token-mgr"),
                    permits: 1,
                })
                .collect(),
        }
    }

    fn register_clients(&mut self, nodes: usize) {
        if self.nodes == nodes {
            return; // idempotent: keep cache state across benchmark phases
        }
        self.nodes = nodes;
        self.token_caches = (0..nodes).map(|_| CallbackCache::new()).collect();
    }

    fn plan_into(
        &mut self,
        client: ClientCtx,
        op: &MetaOp,
        _now: SimTime,
        rng: &mut DetRng,
        out: &mut OpPlan,
    ) -> FsResult<()> {
        out.reset();
        match op {
            MetaOp::Stat { path } | MetaOp::OpenClose { path }
                if self.token_caches[client.node].lookup(path) =>
            {
                telemetry::count("cxfs.token_cache.hit", 1);
                out.push_cache_hit(self.config.cached_stat_cpu);
                return Ok(());
            }
            MetaOp::Stat { .. } | MetaOp::OpenClose { .. } => {
                telemetry::count("cxfs.token_cache.miss", 1);
                out.cache = telemetry::CacheTag::Miss;
            }
            _ => {}
        }
        let cost = apply_meta_op(&mut self.mds_fs, op)?;
        let demand = self.config.cost.demand(cost);
        let link = self.config.link.with_jitter(self.config.jitter);
        let profile = RpcProfile::metadata();
        // ALL metadata traffic of one OS instance funnels through the token
        // manager — reads included. This is the distinguishing difference
        // from NFS on large SMPs (§4.5.3).
        let sem = self.token_sem(client.node);
        out.stages.push(Stage::AcquireSem { sem });
        out.stages.push(Stage::ClientCpu {
            demand: self.config.client_cpu,
        });
        let req = link.one_way(profile.request_bytes, rng);
        let resp = link.one_way(profile.response_bytes, rng);
        out.push_rpc(CXFS_MDS, demand, req, resp);
        out.stages.push(Stage::ReleaseSem { sem });
        self.token_caches[client.node].fill(op.primary_path());
        Ok(())
    }

    fn drop_caches(&mut self, node: usize) {
        if let Some(c) = self.token_caches.get_mut(node) {
            c.clear();
        }
    }

    fn sample_gauges(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        let entries: usize = self.token_caches.iter().map(CallbackCache::len).sum();
        emit("cxfs.token_cache.entries", entries as u64);
        let stats = self
            .token_caches
            .iter()
            .map(|c| c.stats())
            .fold((0u64, 0u64), |acc, s| (acc.0 + s.hits, acc.1 + s.misses));
        if let Some(permille) = (stats.0 * 1000).checked_div(stats.0 + stats.1) {
            emit("cxfs.token_cache.hit_permille", permille);
        }
    }

    fn name(&self) -> &str {
        "cxfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_takes_the_node_token() {
        let mut m = CxfsFs::with_defaults();
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        for op in [
            MetaOp::Create {
                path: "/w/a".into(),
                data_bytes: 0,
            },
            MetaOp::Mkdir {
                path: "/w/d".into(),
            },
            MetaOp::Readdir { path: "/w".into() },
        ] {
            let plan = m
                .plan(ClientCtx { node: 0, proc: 0 }, &op, SimTime::ZERO, &mut rng)
                .unwrap();
            assert!(
                matches!(plan.stages.first(), Some(Stage::AcquireSem { .. })),
                "{op:?} must serialize through the token manager"
            );
            assert!(matches!(plan.stages.last(), Some(Stage::ReleaseSem { .. })));
        }
    }

    #[test]
    fn cached_stat_skips_token_and_rpc() {
        let mut m = CxfsFs::with_defaults();
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        let c = ClientCtx { node: 0, proc: 0 };
        m.plan(
            c,
            &MetaOp::Create {
                path: "/w/a".into(),
                data_bytes: 0,
            },
            SimTime::ZERO,
            &mut rng,
        )
        .unwrap();
        let plan = m
            .plan(
                c,
                &MetaOp::Stat {
                    path: "/w/a".into(),
                },
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        assert!(plan.is_client_only());
    }

    #[test]
    fn one_sem_per_node() {
        let mut m = CxfsFs::with_defaults();
        m.register_clients(5);
        assert_eq!(m.resources().semaphores.len(), 5);
        assert_eq!(m.resources().servers.len(), 1);
    }
}
