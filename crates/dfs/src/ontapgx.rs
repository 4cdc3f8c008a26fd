//! NetApp Ontap GX model: internal namespace aggregation (paper §4.7,
//! Fig. 4.3).
//!
//! An Ontap GX cluster presents one NFS namespace built from *volumes*, each
//! owned by exactly one filer's D-blade. A client mounts any filer; that
//! filer's N-blade terminates the connection, looks the volume up in the
//! VLDB and — when the volume lives elsewhere — forwards the request over
//! the cluster interconnect to the owning D-blade ([ECK+07] reports ~75 %
//! efficiency for fully remote requests; requests traverse at most two
//! nodes).
//!
//! The experiments of §4.7.1/§4.7.2 exercise exactly this structure: a
//! single volume bottlenecks on one D-blade no matter how many clients or
//! filers there are, while a per-process path list over volumes on all
//! filers scales with the cluster size.

use crate::cache::AttrCache;
use crate::costmodel::{apply_meta_op, ServiceCostModel};
use crate::op::MetaOp;
use crate::plan::{ClientCtx, DistFs, FsResources, OpPlan, ServerId, ServerSpec, Stage};
use memfs::{FsError, FsResult, MemFs, MemFsConfig};
use netsim::{LinkSpec, RpcProfile};
use simcore::{telemetry, DetRng, SimDuration, SimTime};

/// A volume in the aggregated namespace.
#[derive(Debug, Clone)]
pub struct VolumeSpec {
    /// Top-level directory name that addresses the volume (`/vol3/...`).
    pub prefix: String,
    /// Index of the filer whose D-blade owns the volume.
    pub owner: usize,
}

/// Tunables of the Ontap GX model.
#[derive(Debug, Clone)]
pub struct OntapGxConfig {
    /// Number of filers in the cluster.
    pub filers: usize,
    /// Volumes and their owners.
    pub volumes: Vec<VolumeSpec>,
    /// Service slots per filer.
    pub filer_parallelism: usize,
    /// Concurrent *mutations* one volume admits: WAFL allocation and
    /// directory structures are per-volume, so a single volume cannot use
    /// all filer threads (paper §2.4.2 "Data structure scaling").
    pub volume_parallelism: usize,
    /// D-blade service-time coefficients.
    pub cost: ServiceCostModel,
    /// N-blade protocol-translation overhead when forwarding.
    pub nblade_overhead: SimDuration,
    /// Client ↔ filer link.
    pub link: LinkSpec,
    /// Cluster-interconnect link between filers.
    pub cluster_link: LinkSpec,
    /// Attribute-cache TTL on clients (NFS protocol).
    pub attr_ttl: SimDuration,
    /// Client CPU per RPC.
    pub client_cpu: SimDuration,
    /// Client CPU for a cache-hit `stat`.
    pub cached_stat_cpu: SimDuration,
    /// Per-volume file-system configuration.
    pub fs_config: MemFsConfig,
    /// Link jitter.
    pub jitter: f64,
}

impl Default for OntapGxConfig {
    fn default() -> Self {
        let filers = 8;
        OntapGxConfig {
            filers,
            volumes: (0..filers)
                .map(|i| VolumeSpec {
                    prefix: format!("vol{i}"),
                    owner: i,
                })
                .collect(),
            filer_parallelism: 8,
            volume_parallelism: 2,
            cost: ServiceCostModel {
                base: SimDuration::from_micros(420),
                ..ServiceCostModel::nvram_filer()
            },
            nblade_overhead: SimDuration::from_micros(120),
            link: LinkSpec::lan(),
            cluster_link: LinkSpec::ten_gige(),
            attr_ttl: SimDuration::from_secs(3),
            client_cpu: SimDuration::from_micros(30),
            cached_stat_cpu: SimDuration::from_micros(5),
            fs_config: MemFsConfig::default(),
            jitter: 0.04,
        }
    }
}

/// The Ontap GX model. See the module-level documentation.
#[derive(Debug)]
pub struct OntapGxFs {
    config: OntapGxConfig,
    volume_fs: Vec<MemFs>,
    attr_caches: Vec<AttrCache>,
    /// Which filer each client node mounts (round-robin over the cluster's
    /// IP addresses, as the HLRB 2 partitions are distributed, §4.1.3).
    mounts: Vec<usize>,
    forwarded: u64,
    local_hits: u64,
}

impl OntapGxFs {
    /// Create the model.
    pub fn new(config: OntapGxConfig) -> Self {
        let volume_fs = config
            .volumes
            .iter()
            .map(|_| MemFs::with_config(config.fs_config.clone()))
            .collect();
        OntapGxFs {
            config,
            volume_fs,
            attr_caches: Vec::new(),
            mounts: Vec::new(),
            forwarded: 0,
            local_hits: 0,
        }
    }

    /// The 8-filer default cluster.
    pub fn with_defaults() -> Self {
        Self::new(OntapGxConfig::default())
    }

    /// How many requests were forwarded between filers vs. served by the
    /// mounted filer directly.
    pub fn forwarding_stats(&self) -> (u64, u64) {
        (self.forwarded, self.local_hits)
    }

    /// Resolve a path's volume from its first component (the VLDB lookup).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] when the path addresses no known volume.
    pub fn volume_of(&self, path: &str) -> FsResult<usize> {
        let p = memfs::FsPath::parse(path)?;
        let first = p.components().first().ok_or(FsError::NotFound)?;
        self.config
            .volumes
            .iter()
            .position(|v| v.prefix.as_str() == &**first)
            .ok_or(FsError::NotFound)
    }

    /// Strip the volume prefix: `/vol3/a/b` → `/a/b` inside volume 3.
    fn volume_relative(path: &str) -> FsResult<String> {
        let p = memfs::FsPath::parse(path)?;
        let comps = p.components();
        if comps.len() <= 1 {
            Ok("/".to_owned())
        } else {
            Ok(format!("/{}", comps[1..].join("/")))
        }
    }

    fn rewrite_op(op: &MetaOp) -> FsResult<MetaOp> {
        let mut op = op.clone();
        match &mut op {
            MetaOp::Create { path, .. }
            | MetaOp::Mkdir { path }
            | MetaOp::Unlink { path }
            | MetaOp::Rmdir { path }
            | MetaOp::Stat { path }
            | MetaOp::OpenClose { path }
            | MetaOp::Readdir { path }
            | MetaOp::Chmod { path, .. }
            | MetaOp::Utimes { path, .. } => *path = Self::volume_relative(path)?,
            MetaOp::Rename { from, to } => {
                *from = Self::volume_relative(from)?;
                *to = Self::volume_relative(to)?;
            }
            MetaOp::Link { existing, new } => {
                *existing = Self::volume_relative(existing)?;
                *new = Self::volume_relative(new)?;
            }
            MetaOp::Symlink { linkpath, .. } => *linkpath = Self::volume_relative(linkpath)?,
        }
        Ok(op)
    }
}

impl DistFs for OntapGxFs {
    fn resources(&self) -> FsResources {
        FsResources {
            servers: (0..self.config.filers)
                .map(|i| ServerSpec {
                    name: format!("filer{i}"),
                    parallelism: self.config.filer_parallelism,
                })
                .collect(),
            semaphores: self
                .config
                .volumes
                .iter()
                .map(|v| crate::plan::SemSpec {
                    name: format!("volume-{}", v.prefix),
                    permits: self.config.volume_parallelism,
                })
                .collect(),
        }
    }

    fn register_clients(&mut self, nodes: usize) {
        if self.attr_caches.len() == nodes {
            return; // idempotent: keep cache state across benchmark phases
        }
        self.attr_caches = (0..nodes)
            .map(|_| AttrCache::new(self.config.attr_ttl))
            .collect();
        self.mounts = (0..nodes).map(|n| n % self.config.filers).collect();
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
        match op {
            MetaOp::Stat { path } | MetaOp::OpenClose { path }
                if self.attr_caches[client.node].lookup(path, now) =>
            {
                telemetry::count("ontapgx.attr_cache.hit", 1);
                out.push_cache_hit(self.config.cached_stat_cpu);
                return Ok(());
            }
            MetaOp::Stat { .. } | MetaOp::OpenClose { .. } => {
                telemetry::count("ontapgx.attr_cache.miss", 1);
                out.cache = telemetry::CacheTag::Miss;
            }
            _ => {}
        }
        let volume = self.volume_of(op.primary_path())?;
        // Atomic rename cannot cross volumes: the server answers EXDEV even
        // though the client sees one namespace (paper §2.6.3).
        match op {
            MetaOp::Rename { from, .. } | MetaOp::Link { existing: from, .. }
                if self.volume_of(from)? != volume =>
            {
                return Err(FsError::CrossDevice);
            }
            _ => {}
        }
        let vol_op = Self::rewrite_op(op)?;
        let cost = apply_meta_op(&mut self.volume_fs[volume], &vol_op)?;
        let demand = self.config.cost.demand(cost);
        let nblade = ServerId(self.mounts[client.node]);
        let dblade = ServerId(self.config.volumes[volume].owner);
        let link = self.config.link.with_jitter(self.config.jitter);
        let cluster = self.config.cluster_link.with_jitter(self.config.jitter);
        let profile = RpcProfile::metadata();
        let mutation = op.is_mutation();
        let vol_sem = crate::plan::SemId(volume);
        if mutation {
            out.stages.push(Stage::AcquireSem { sem: vol_sem });
        }
        out.stages.push(Stage::ClientCpu {
            demand: self.config.client_cpu,
        });
        let req = link.one_way(profile.request_bytes, rng);
        if nblade == dblade {
            self.local_hits += 1;
            telemetry::count("ontapgx.local", 1);
            let resp = link.one_way(profile.response_bytes, rng);
            out.push_rpc(dblade, demand, req, resp);
        } else {
            // N-blade translates to the internal SpinNP protocol and
            // forwards; the owning D-blade does the real work (Fig. 4.3).
            // The client's request and response messages bracket the whole
            // forwarded exchange, so the N-blade hop is no plain RPC leg.
            self.forwarded += 1;
            telemetry::count("ontapgx.forwarded", 1);
            out.stages.push(Stage::NetDelay { delay: req });
            out.stages.push(Stage::Server {
                server: nblade,
                demand: self.config.nblade_overhead,
            });
            let cluster_req = cluster.one_way(profile.request_bytes, rng);
            let cluster_resp = cluster.one_way(profile.response_bytes, rng);
            out.push_rpc(dblade, demand, cluster_req, cluster_resp);
            out.stages.push(Stage::NetDelay {
                delay: link.one_way(profile.response_bytes, rng),
            });
        }
        if mutation {
            out.stages.push(Stage::ReleaseSem { sem: vol_sem });
        }
        self.attr_caches[client.node].fill(op.primary_path(), now);
        Ok(())
    }

    fn drop_caches(&mut self, node: usize) {
        if let Some(c) = self.attr_caches.get_mut(node) {
            c.clear();
        }
    }

    fn sample_gauges(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        let entries: usize = self.attr_caches.iter().map(AttrCache::len).sum();
        emit("ontapgx.attr_cache.entries", entries as u64);
        emit("ontapgx.forwarded", self.forwarded);
        emit("ontapgx.local", self.local_hits);
    }

    fn name(&self) -> &str {
        "ontap-gx"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn create_op(path: &str) -> MetaOp {
        MetaOp::Create {
            path: path.into(),
            data_bytes: 0,
        }
    }

    #[test]
    fn local_volume_needs_no_forwarding() {
        let mut m = OntapGxFs::with_defaults();
        m.register_clients(8);
        let mut rng = DetRng::new(1);
        // node 3 mounts filer 3; vol3 is owned by filer 3
        let plan = m
            .plan(
                ClientCtx { node: 3, proc: 0 },
                &create_op("/vol3/f"),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        let servers: Vec<ServerId> = plan
            .stages
            .iter()
            .filter_map(|s| match s {
                Stage::Server { server, .. } => Some(*server),
                _ => None,
            })
            .collect();
        assert_eq!(servers, vec![ServerId(3)]);
        assert_eq!(m.forwarding_stats(), (0, 1));
    }

    #[test]
    fn remote_volume_traverses_two_filers() {
        let mut m = OntapGxFs::with_defaults();
        m.register_clients(1); // node 0 mounts filer 0
        let mut rng = DetRng::new(1);
        let plan = m
            .plan(
                ClientCtx { node: 0, proc: 0 },
                &create_op("/vol5/f"),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        let servers: Vec<ServerId> = plan
            .stages
            .iter()
            .filter_map(|s| match s {
                Stage::Server { server, .. } => Some(*server),
                _ => None,
            })
            .collect();
        assert_eq!(
            servers,
            vec![ServerId(0), ServerId(5)],
            "N-blade then D-blade"
        );
        assert_eq!(m.forwarding_stats(), (1, 0));
    }

    #[test]
    fn forwarding_costs_more_than_local() {
        let mut m = OntapGxFs::with_defaults();
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        let local = m
            .plan(
                ClientCtx { node: 0, proc: 0 },
                &create_op("/vol0/a"),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        let remote = m
            .plan(
                ClientCtx { node: 0, proc: 0 },
                &create_op("/vol5/a"),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        assert!(
            remote.foreground_demand() > local.foreground_demand(),
            "remote {} vs local {}",
            remote.foreground_demand(),
            local.foreground_demand()
        );
        // efficiency should be roughly 70–90 % (paper cites ~75 %)
        let eff =
            local.foreground_demand().as_secs_f64() / remote.foreground_demand().as_secs_f64();
        assert!((0.5..0.95).contains(&eff), "efficiency {eff}");
    }

    #[test]
    fn unknown_volume_is_notfound() {
        let mut m = OntapGxFs::with_defaults();
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        assert_eq!(
            m.plan(
                ClientCtx { node: 0, proc: 0 },
                &create_op("/nosuchvol/f"),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap_err(),
            FsError::NotFound
        );
    }

    #[test]
    fn volumes_are_separate_namespaces() {
        let mut m = OntapGxFs::with_defaults();
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        let c = ClientCtx { node: 0, proc: 0 };
        m.plan(c, &create_op("/vol0/same"), SimTime::ZERO, &mut rng)
            .unwrap();
        // same relative name in another volume must not collide
        m.plan(c, &create_op("/vol1/same"), SimTime::ZERO, &mut rng)
            .unwrap();
    }
}
