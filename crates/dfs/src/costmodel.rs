//! Mapping from data-structure work to server service time.
//!
//! The server-side state of every model is a real [`MemFs`]; applying an
//! operation yields an [`OpCost`] (directory probes, allocator scans, journal
//! commits). [`ServiceCostModel`] converts that work into a service demand so
//! that, e.g., creates in a linear directory of a million entries really are
//! slower than in an empty one (paper §4.3.3).

use crate::op::MetaOp;
use memfs::{FsResult, MemFs, OpCost, OpenFlags, Vfs};
use simcore::SimDuration;

/// Per-unit service-time coefficients of a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCostModel {
    /// Fixed cost per operation (request decode, inode update, reply).
    pub base: SimDuration,
    /// Cost per directory-index probe.
    pub per_probe: SimDuration,
    /// Cost per allocator scan step.
    pub per_alloc_scan: SimDuration,
    /// Cost per block allocated or freed.
    pub per_block: SimDuration,
    /// Cost per synchronous journal/NVRAM commit.
    pub per_journal_commit: SimDuration,
    /// Cost per path component resolved server-side.
    pub per_component: SimDuration,
}

impl ServiceCostModel {
    /// A NetApp-filer-like profile: NVRAM makes commits cheap, per-op base
    /// is small (the FAS 3050 of paper §4.1.2 sustains thousands of creates
    /// per second).
    pub fn nvram_filer() -> Self {
        ServiceCostModel {
            base: SimDuration::from_micros(90),
            per_probe: SimDuration::from_nanos(300),
            per_alloc_scan: SimDuration::from_micros(1),
            per_block: SimDuration::from_micros(2),
            per_journal_commit: SimDuration::from_micros(5),
            per_component: SimDuration::from_micros(2),
        }
    }

    /// A disk-backed metadata server without NVRAM (the Lustre MDS of
    /// §4.3.1): higher base cost and expensive commits.
    pub fn disk_mds() -> Self {
        ServiceCostModel {
            base: SimDuration::from_micros(180),
            per_probe: SimDuration::from_nanos(400),
            per_alloc_scan: SimDuration::from_micros(2),
            per_block: SimDuration::from_micros(3),
            per_journal_commit: SimDuration::from_micros(60),
            per_component: SimDuration::from_micros(3),
        }
    }

    /// A local in-kernel file system (no network, no RPC decode): very low
    /// base cost.
    pub fn local_kernel() -> Self {
        ServiceCostModel {
            base: SimDuration::from_micros(2),
            per_probe: SimDuration::from_nanos(100),
            per_alloc_scan: SimDuration::from_nanos(500),
            per_block: SimDuration::from_nanos(800),
            per_journal_commit: SimDuration::from_micros(20),
            per_component: SimDuration::from_nanos(500),
        }
    }

    /// Convert measured work into a service demand.
    pub fn demand(&self, cost: OpCost) -> SimDuration {
        self.base
            + self.per_probe * cost.dir_probes
            + self.per_alloc_scan * cost.alloc_scans
            + self.per_block * (cost.blocks_allocated + cost.blocks_freed)
            + self.per_journal_commit * cost.journal_commits
            + self.per_component * cost.components_resolved
    }
}

/// Apply a [`MetaOp`] to a [`MemFs`] (the server-side namespace) and return
/// the work it performed.
///
/// Ancestor directories of the primary path are created on demand: benchmark
/// working directories appear implicitly, exactly as the DMetabench prepare
/// phase would have created them, and their creation cost is excluded from
/// the returned [`OpCost`].
///
/// # Errors
///
/// Any [`memfs::FsError`] from the semantic operation itself.
pub fn apply_meta_op(fs: &mut MemFs, op: &MetaOp) -> FsResult<OpCost> {
    ensure_parents(fs, op.primary_path())?;
    if let MetaOp::Rename { from, .. } = op {
        ensure_parents(fs, from)?;
    }
    fs.take_cost(); // discard preparation cost
    exec_op(fs, op)?;
    Ok(fs.take_cost())
}

/// Execute one [`MetaOp`] through a [`Vfs`].
///
/// # Errors
///
/// Propagates the underlying file-system error.
pub fn exec_op<V: Vfs + ?Sized>(vfs: &mut V, op: &MetaOp) -> FsResult<()> {
    match op {
        MetaOp::Create { path, data_bytes } => {
            let fd = vfs.create(path)?;
            if *data_bytes > 0 {
                vfs.write(fd, &vec![0u8; *data_bytes as usize])?;
            }
            vfs.close(fd)
        }
        MetaOp::Mkdir { path } => vfs.mkdir(path),
        MetaOp::Unlink { path } => vfs.unlink(path),
        MetaOp::Rmdir { path } => vfs.rmdir(path),
        MetaOp::Stat { path } => vfs.stat(path).map(|_| ()),
        MetaOp::OpenClose { path } => {
            let fd = vfs.open(path, OpenFlags::read_only())?;
            vfs.close(fd)
        }
        MetaOp::Readdir { path } => vfs.readdir(path).map(|_| ()),
        MetaOp::Rename { from, to } => vfs.rename(from, to),
        MetaOp::Link { existing, new } => vfs.link(existing, new),
        MetaOp::Symlink { target, linkpath } => vfs.symlink(target, linkpath),
        MetaOp::Chmod { path, mode } => vfs.chmod(path, *mode),
        MetaOp::Utimes {
            path,
            atime_ns,
            mtime_ns,
        } => vfs.utimes(path, *atime_ns, *mtime_ns),
    }
}

/// Create every missing ancestor directory of `path`.
///
/// The common case, a parent that already exists, is settled by one
/// [`Vfs::is_dir`] probe on the text before the last `/`: if that resolves
/// to a directory, so does every ancestor on the way, and nothing is
/// created. The probe counts as no operation, and neither does a mkdir
/// that fails, so the counters and the cost [`apply_meta_op`] returns are
/// the same either way. Otherwise each ancestor is made in turn.
///
/// # Errors
///
/// Propagates errors other than [`memfs::FsError::Exists`]. A parent that
/// exists raises none, whatever a mkdir of it would have said.
pub fn ensure_parents<V: Vfs + ?Sized>(vfs: &mut V, path: &str) -> FsResult<()> {
    if let Some((parent, _)) = path.rsplit_once('/') {
        if !parent.is_empty() && vfs.is_dir(parent) {
            return Ok(());
        }
    }
    mkdir_ancestors(vfs, path)
}

/// Make every ancestor directory of `path`, root first, passing over the
/// ones that exist.
fn mkdir_ancestors<V: Vfs + ?Sized>(vfs: &mut V, path: &str) -> FsResult<()> {
    let p = memfs::FsPath::parse(path)?;
    let comps = p.components();
    let mut cur = String::new();
    for c in comps.iter().take(comps.len().saturating_sub(1)) {
        cur.push('/');
        cur.push_str(c);
        match vfs.mkdir(&cur) {
            Ok(()) | Err(memfs::FsError::Exists) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use memfs::{DirIndexKind, MemFsConfig};

    #[test]
    fn demand_scales_with_probes() {
        let m = ServiceCostModel::nvram_filer();
        let cheap = m.demand(OpCost {
            dir_probes: 1,
            ..OpCost::default()
        });
        let pricey = m.demand(OpCost {
            dir_probes: 100_000,
            ..OpCost::default()
        });
        assert!(pricey > cheap * 10, "{pricey} vs {cheap}");
    }

    #[test]
    fn apply_create_and_stat() {
        let mut fs = MemFs::new();
        let op = MetaOp::Create {
            path: "/w/p0/f1".into(),
            data_bytes: 0,
        };
        let cost = apply_meta_op(&mut fs, &op).unwrap();
        assert!(cost.dir_probes > 0);
        let cost = apply_meta_op(
            &mut fs,
            &MetaOp::Stat {
                path: "/w/p0/f1".into(),
            },
        )
        .unwrap();
        assert!(cost.components_resolved >= 3);
    }

    #[test]
    fn parents_created_on_demand_and_excluded_from_cost() {
        let mut fs = MemFs::new();
        let op = MetaOp::Create {
            path: "/a/b/c/d/file".into(),
            data_bytes: 0,
        };
        apply_meta_op(&mut fs, &op).unwrap();
        assert!(fs.stat("/a/b/c/d").unwrap().is_dir());
        // second create in the same dir does not pay mkdir costs
        let cost2 = apply_meta_op(
            &mut fs,
            &MetaOp::Create {
                path: "/a/b/c/d/file2".into(),
                data_bytes: 0,
            },
        )
        .unwrap();
        assert_eq!(cost2.blocks_allocated, 0);
    }

    #[test]
    fn create_in_large_linear_dir_costs_more() {
        let mut cfg = MemFsConfig::default();
        cfg.dir_index = DirIndexKind::Linear;
        let mut fs = MemFs::with_config(cfg);
        let mut eager = SimDuration::ZERO;
        let model = ServiceCostModel::nvram_filer();
        for i in 0..2000u32 {
            let cost = apply_meta_op(
                &mut fs,
                &MetaOp::Create {
                    path: format!("/big/f{i}"),
                    data_bytes: 0,
                },
            )
            .unwrap();
            if i == 1999 {
                eager = model.demand(cost);
            }
        }
        let first = model.demand(OpCost {
            dir_probes: 1,
            components_resolved: 2,
            ..OpCost::default()
        });
        assert!(
            eager > first,
            "create #2000 ({eager}) slower than #1 ({first})"
        );
    }

    #[test]
    fn create_65_bytes_allocates_64_does_not() {
        let mut fs = MemFs::new();
        let c64 = apply_meta_op(
            &mut fs,
            &MetaOp::Create {
                path: "/w/s".into(),
                data_bytes: 64,
            },
        )
        .unwrap();
        assert_eq!(c64.blocks_allocated, 0);
        assert!(c64.inline_writes > 0);
        let c65 = apply_meta_op(
            &mut fs,
            &MetaOp::Create {
                path: "/w/b".into(),
                data_bytes: 65,
            },
        )
        .unwrap();
        assert_eq!(c65.blocks_allocated, 1);
    }

    #[test]
    fn duplicate_create_propagates_error() {
        let mut fs = MemFs::new();
        let op = MetaOp::Create {
            path: "/x".into(),
            data_bytes: 0,
        };
        apply_meta_op(&mut fs, &op).unwrap();
        assert_eq!(
            apply_meta_op(&mut fs, &op).unwrap_err(),
            memfs::FsError::Exists
        );
    }

    #[test]
    fn exec_op_covers_all_variants() {
        let mut fs = MemFs::new();
        let ops = [
            MetaOp::Mkdir { path: "/d".into() },
            MetaOp::Create {
                path: "/d/f".into(),
                data_bytes: 10,
            },
            MetaOp::Stat {
                path: "/d/f".into(),
            },
            MetaOp::OpenClose {
                path: "/d/f".into(),
            },
            MetaOp::Readdir { path: "/d".into() },
            MetaOp::Chmod {
                path: "/d/f".into(),
                mode: 0o600,
            },
            MetaOp::Utimes {
                path: "/d/f".into(),
                atime_ns: 1,
                mtime_ns: 2,
            },
            MetaOp::Link {
                existing: "/d/f".into(),
                new: "/d/hard".into(),
            },
            MetaOp::Symlink {
                target: "/d/f".into(),
                linkpath: "/d/sym".into(),
            },
            MetaOp::Rename {
                from: "/d/hard".into(),
                to: "/d/renamed".into(),
            },
            MetaOp::Unlink {
                path: "/d/renamed".into(),
            },
            MetaOp::Rmdir { path: "/d2".into() },
        ];
        // need /d2 for the rmdir
        fs.mkdir("/d2").unwrap();
        for op in &ops {
            exec_op(&mut fs, op).unwrap_or_else(|e| panic!("{op:?}: {e}"));
        }
        assert_eq!(fs.stat("/d/f").unwrap().size, 10);
    }

    /// The early return on an existing parent gives what trying every
    /// mkdir gives, counters included, for parents that exist, are missing,
    /// sit behind a symlink, dangle or are files.
    #[test]
    fn ensure_parents_matches_mkdir_every_ancestor() {
        fn tree() -> MemFs {
            let mut fs = MemFs::new();
            fs.mkdir("/a").unwrap();
            fs.mkdir("/a/b").unwrap();
            let fd = fs.create("/a/file").unwrap();
            fs.close(fd).unwrap();
            fs.symlink("/a", "/ln").unwrap();
            fs.symlink("/gone", "/dang").unwrap();
            fs
        }
        for path in [
            "/a/b/f",
            "/a/b/c/d/f",
            "/ln/b/f",
            "/ln/new/f",
            "/dang/x/f",
            "/a/file/x/f",
            "/a/./b//f",
            "/a/zz/../b/f",
            "/f",
            "x/y",
        ] {
            let (mut fast, mut slow) = (tree(), tree());
            let got = ensure_parents(&mut fast, path);
            assert_eq!(got, mkdir_ancestors(&mut slow, path), "{path}");
            assert_eq!(fast.counters(), slow.counters(), "{path}");
            assert_eq!(fast.check(), slow.check(), "{path}");
            for probe in ["/a/b/c/d", "/a/new", "/gone/x", "/a/b/c"] {
                assert_eq!(fast.stat(probe).is_ok(), slow.stat(probe).is_ok(), "{path}");
            }
        }
    }

    #[test]
    fn ensure_parents_builds_chain() {
        let mut fs = MemFs::new();
        ensure_parents(&mut fs, "/a/b/c/file").unwrap();
        assert!(fs.stat("/a/b/c").unwrap().is_dir());
        // idempotent
        ensure_parents(&mut fs, "/a/b/c/file").unwrap();
    }
}
