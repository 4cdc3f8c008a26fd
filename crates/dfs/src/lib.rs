//! Behavioural models of distributed file systems.
//!
//! Each model implements [`DistFs`]: it keeps a *real* server-side namespace
//! (a [`memfs::MemFs`] per server or volume) so uniqueness checks, directory
//! scaling and block allocation are genuine, and compiles every
//! [`MetaOp`] into an [`OpPlan`] of `simcore` stages whose service demands
//! derive from the data-structure work actually performed.
//!
//! Models:
//!
//! * [`NfsFs`] — NFSv3 client + WAFL filer (NVRAM, consistency points,
//!   snapshots, TTL attribute cache; paper §4.3),
//! * [`LustreFs`] — MDS/OSS with intent locks, per-node modifying-RPC
//!   serialization, metadata write-back window (§4.3, §4.8),
//! * [`CxfsFs`] — SAN file system with a central metadata server and
//!   client-side token serialization (§4.5),
//! * [`OntapGxFs`] — internal namespace aggregation with N-blade/D-blade
//!   forwarding (§4.7.1–2),
//! * [`AfsFs`] — external aggregation with VLDB, callbacks and a
//!   serializing cache manager (§4.7.3),
//! * [`PvfsFs`] — fully synchronous, cache-free parallel file system
//!   (nonconflicting-write semantics, §2.6.1),
//! * [`LocalFs`] — the no-network single-node baseline.
//!
//! # Example
//!
//! ```
//! use dfs::{ClientCtx, DistFs, MetaOp, NfsFs};
//! use simcore::{DetRng, SimTime};
//!
//! let mut fs = NfsFs::with_defaults();
//! fs.register_clients(1);
//! let mut rng = DetRng::new(7);
//! let op = MetaOp::Create { path: "/bench/file0".into(), data_bytes: 0 };
//! let plan = fs
//!     .plan(ClientCtx { node: 0, proc: 0 }, &op, SimTime::ZERO, &mut rng)
//!     .expect("fresh path");
//! assert!(!plan.is_client_only(), "creates must reach the filer");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod afs;
mod cache;
mod costmodel;
mod cxfs;
mod localfs;
mod lustre;
mod nfs;
mod ontapgx;
mod op;
mod plan;
mod pvfs;
mod recovery;
mod shardmds;

pub use afs::{AfsConfig, AfsFs, AfsVolume, AFS_VLDB};
pub use cache::{AttrCache, CacheStats, CallbackCache};
pub use costmodel::{apply_meta_op, ensure_parents, exec_op, ServiceCostModel};
pub use cxfs::{CxfsConfig, CxfsFs, CXFS_MDS};
pub use localfs::{LocalConfig, LocalFs, LOCAL_KERNEL};
pub use lustre::{LustreConfig, LustreFs, LUSTRE_COMMIT, LUSTRE_MDS};
pub use nfs::{NfsConfig, NfsFs, NFS_SERVER};
pub use ontapgx::{OntapGxConfig, OntapGxFs, VolumeSpec};
pub use op::MetaOp;
pub use plan::{
    BackgroundJob, ClientCtx, DistFs, FaultStats, FsResources, OpPlan, PartitionPlan, SemId,
    SemSpec, ServerId, ServerSpec, Stage, TimerAction,
};
pub use pvfs::{PvfsConfig, PvfsFs, PVFS_MDS};
pub use recovery::RetryPolicy;
pub use shardmds::{
    ReshardAction, ReshardEvent, ShardMds, ShardMdsConfig, ShardPlacement, SHARD_LOCSVC,
};
