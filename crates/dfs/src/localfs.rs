//! Local (in-kernel) file system model — the single-node baseline.
//!
//! Used by the intra-node SMP experiments (§4.5) as the "no network" upper
//! bound, and by the harness-overhead study (Table 4.2): operations consume
//! client CPU plus a kernel/disk stage whose demand comes from the real
//! `memfs` data structures.

use crate::costmodel::{apply_meta_op, ServiceCostModel};
use crate::op::MetaOp;
use crate::plan::{ClientCtx, DistFs, FsResources, OpPlan, ServerId, ServerSpec, Stage};
use memfs::{FsResult, MemFs, MemFsConfig};
use simcore::{DetRng, SimDuration, SimTime};

/// Tunables of the local model.
#[derive(Debug, Clone)]
pub struct LocalConfig {
    /// Parallelism of the kernel VFS/journal path (lock contention bound).
    pub kernel_parallelism: usize,
    /// Service-time coefficients.
    pub cost: ServiceCostModel,
    /// Per-syscall client CPU.
    pub syscall_cpu: SimDuration,
    /// File-system configuration.
    pub fs_config: MemFsConfig,
}

impl Default for LocalConfig {
    fn default() -> Self {
        LocalConfig {
            kernel_parallelism: 4,
            cost: ServiceCostModel::local_kernel(),
            syscall_cpu: SimDuration::from_micros(2),
            fs_config: MemFsConfig::default(),
        }
    }
}

/// The local file-system model. See the module-level documentation.
#[derive(Debug)]
pub struct LocalFs {
    config: LocalConfig,
    fs: MemFs,
}

/// Server index of the kernel stage.
pub const LOCAL_KERNEL: ServerId = ServerId(0);

impl LocalFs {
    /// Create the model.
    pub fn new(config: LocalConfig) -> Self {
        let fs = MemFs::with_config(config.fs_config.clone());
        LocalFs { config, fs }
    }

    /// The model with default tuning.
    pub fn with_defaults() -> Self {
        Self::new(LocalConfig::default())
    }

    /// Access the namespace.
    pub fn fs(&self) -> &MemFs {
        &self.fs
    }
}

impl DistFs for LocalFs {
    fn resources(&self) -> FsResources {
        FsResources {
            servers: vec![ServerSpec {
                name: "kernel".to_owned(),
                parallelism: self.config.kernel_parallelism,
            }],
            semaphores: Vec::new(),
        }
    }

    fn register_clients(&mut self, _nodes: usize) {}

    fn plan_into(
        &mut self,
        _client: ClientCtx,
        op: &MetaOp,
        _now: SimTime,
        _rng: &mut DetRng,
        out: &mut OpPlan,
    ) -> FsResult<()> {
        out.reset();
        let cost = apply_meta_op(&mut self.fs, op)?;
        let demand = self.config.cost.demand(cost);
        out.stages.push(Stage::ClientCpu {
            demand: self.config.syscall_cpu,
        });
        out.stages.push(Stage::Server {
            server: LOCAL_KERNEL,
            demand,
        });
        Ok(())
    }

    fn drop_caches(&mut self, _node: usize) {}

    fn name(&self) -> &str {
        "localfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_ops_are_fast_and_networkless() {
        let mut m = LocalFs::with_defaults();
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        let plan = m
            .plan(
                ClientCtx { node: 0, proc: 0 },
                &MetaOp::Create {
                    path: "/w/f".into(),
                    data_bytes: 0,
                },
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        assert!(!plan
            .stages
            .iter()
            .any(|s| matches!(s, Stage::NetDelay { .. })));
        assert!(plan.foreground_demand() < SimDuration::from_micros(100));
    }
}
