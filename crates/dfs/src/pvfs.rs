//! PVFS2-style parallel file system model (paper §2.5.3, §2.6.1, §2.7.2).
//!
//! PVFS2 takes the opposite design point from Lustre: **fully synchronous
//! operations with no client-side caching** ("nonconflicting write"
//! semantics — Rob Ross's specification, §2.6.1). Consequences the model
//! reproduces:
//!
//! * every operation — including `stat` — is a server round trip; repeated
//!   stats never get cheaper (no attribute cache to drop: `drop_caches` is
//!   a no-op),
//! * there is no client-side serialization either, so intra-node
//!   parallelism scales until the metadata server saturates (unlike
//!   Lustre/AFS/CXFS),
//! * crash recovery is trivial — no client state to replay (§2.7.2) — which
//!   the model reflects by never producing background commit work.

use crate::costmodel::{apply_meta_op, ServiceCostModel};
use crate::op::MetaOp;
use crate::plan::{ClientCtx, DistFs, FsResources, OpPlan, ServerId, ServerSpec, Stage};
use memfs::{FsResult, MemFs, MemFsConfig};
use netsim::{LinkSpec, RpcProfile};
use simcore::{DetRng, SimDuration, SimTime};

/// Tunables of the PVFS2 model.
#[derive(Debug, Clone)]
pub struct PvfsConfig {
    /// Metadata-server service slots.
    pub mds_parallelism: usize,
    /// Number of data servers (they also serve some metadata in PVFS2, but
    /// directory operations centralize on one; we model the common
    /// single-metadata-server deployment).
    pub data_servers: usize,
    /// Service-time coefficients (synchronous to disk: expensive commits).
    pub cost: ServiceCostModel,
    /// Client ↔ server link.
    pub link: LinkSpec,
    /// Client CPU per request.
    pub client_cpu: SimDuration,
    /// Metadata-server file-system configuration.
    pub fs_config: MemFsConfig,
    /// Link jitter.
    pub jitter: f64,
}

impl Default for PvfsConfig {
    fn default() -> Self {
        PvfsConfig {
            mds_parallelism: 4,
            data_servers: 8,
            cost: ServiceCostModel {
                base: SimDuration::from_micros(400),
                // synchronous server: every mutation pays the journal write
                per_journal_commit: SimDuration::from_micros(80),
                ..ServiceCostModel::disk_mds()
            },
            link: LinkSpec::lan(),
            client_cpu: SimDuration::from_micros(40),
            fs_config: MemFsConfig {
                journal_mode: memfs::JournalMode::Sync,
                ..MemFsConfig::default()
            },
            jitter: 0.04,
        }
    }
}

/// The PVFS2 model. See the module-level documentation.
#[derive(Debug)]
pub struct PvfsFs {
    config: PvfsConfig,
    mds_fs: MemFs,
}

/// Server index of the PVFS metadata server.
pub const PVFS_MDS: ServerId = ServerId(0);

impl PvfsFs {
    /// Create the model.
    pub fn new(config: PvfsConfig) -> Self {
        let mds_fs = MemFs::with_config(config.fs_config.clone());
        PvfsFs { config, mds_fs }
    }

    /// The model with default tuning.
    pub fn with_defaults() -> Self {
        Self::new(PvfsConfig::default())
    }

    /// Access the metadata-server namespace.
    pub fn mds_fs(&self) -> &MemFs {
        &self.mds_fs
    }
}

impl DistFs for PvfsFs {
    fn resources(&self) -> FsResources {
        let mut servers = vec![ServerSpec {
            name: "pvfs-mds".to_owned(),
            parallelism: self.config.mds_parallelism,
        }];
        servers.extend((0..self.config.data_servers).map(|i| ServerSpec {
            name: format!("pvfs-data{i}"),
            parallelism: 4,
        }));
        FsResources {
            servers,
            semaphores: Vec::new(),
        }
    }

    fn register_clients(&mut self, _nodes: usize) {
        // stateless clients: nothing to allocate
    }

    fn plan_into(
        &mut self,
        _client: ClientCtx,
        op: &MetaOp,
        _now: SimTime,
        rng: &mut DetRng,
        out: &mut OpPlan,
    ) -> FsResult<()> {
        out.reset();
        // NO cache check: every operation is a synchronous round trip.
        let cost = apply_meta_op(&mut self.mds_fs, op)?;
        let demand = self.config.cost.demand(cost);
        let link = self.config.link.with_jitter(self.config.jitter);
        let profile = match op {
            MetaOp::Readdir { .. } => RpcProfile::readdir(cost.dir_probes),
            _ => RpcProfile::metadata(),
        };
        out.stages.push(Stage::ClientCpu {
            demand: self.config.client_cpu,
        });
        let req = link.one_way(profile.request_bytes, rng);
        let resp = link.one_way(profile.response_bytes, rng);
        out.push_rpc(PVFS_MDS, demand, req, resp);
        Ok(())
    }

    fn drop_caches(&mut self, _node: usize) {
        // nothing cached, nothing to drop — the defining PVFS property
    }

    fn name(&self) -> &str {
        "pvfs2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ClientCtx {
        ClientCtx { node: 0, proc: 0 }
    }

    #[test]
    fn stats_are_never_cached() {
        let mut m = PvfsFs::with_defaults();
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        m.plan(
            ctx(),
            &MetaOp::Create {
                path: "/w/f".into(),
                data_bytes: 0,
            },
            SimTime::ZERO,
            &mut rng,
        )
        .unwrap();
        let stat = MetaOp::Stat {
            path: "/w/f".into(),
        };
        for _ in 0..3 {
            let plan = m.plan(ctx(), &stat, SimTime::ZERO, &mut rng).unwrap();
            assert!(!plan.is_client_only(), "every stat is a round trip");
        }
    }

    #[test]
    fn no_client_serialization() {
        let mut m = PvfsFs::with_defaults();
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        let plan = m
            .plan(
                ctx(),
                &MetaOp::Create {
                    path: "/w/g".into(),
                    data_bytes: 0,
                },
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        assert!(
            !plan
                .stages
                .iter()
                .any(|s| matches!(s, Stage::AcquireSem { .. })),
            "no per-node locks: intra-node parallelism is free"
        );
        assert!(plan.background.is_empty(), "no deferred commits to replay");
    }

    #[test]
    fn sync_mutation_pays_commit_cost() {
        let mut m = PvfsFs::with_defaults();
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        let create = m
            .plan(
                ctx(),
                &MetaOp::Create {
                    path: "/w/h".into(),
                    data_bytes: 0,
                },
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        let stat = m
            .plan(
                ctx(),
                &MetaOp::Stat {
                    path: "/w/h".into(),
                },
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        assert!(
            create.foreground_demand() > stat.foreground_demand(),
            "mutations carry the synchronous journal cost"
        );
    }
}
