//! Abstract metadata operations.
//!
//! Benchmark plugins emit [`MetaOp`]s; the real engine maps them onto
//! [`Vfs`](memfs::Vfs) calls while the simulation engine asks a
//! [`DistFs`](crate::DistFs) model to compile them into stages. The set
//! mirrors the operations of paper Tables 2.2–2.4 that the pre-defined
//! benchmarks exercise (Table 3.5).

/// One metadata operation against a file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaOp {
    /// Create an (optionally non-empty) file: `open(O_CREAT) [+ write] +
    /// close`. `data_bytes` > 0 models MakeFiles64byte / MakeFiles65byte.
    Create {
        /// Path of the new file.
        path: String,
        /// Bytes written into it before close.
        data_bytes: u64,
    },
    /// Create a directory.
    Mkdir {
        /// Path of the new directory.
        path: String,
    },
    /// Remove a file.
    Unlink {
        /// Path of the file.
        path: String,
    },
    /// Remove an empty directory.
    Rmdir {
        /// Path of the directory.
        path: String,
    },
    /// Read attributes.
    Stat {
        /// Path to stat.
        path: String,
    },
    /// `open()` + `close()` pair on an existing file.
    OpenClose {
        /// Path of the file.
        path: String,
    },
    /// List a directory.
    Readdir {
        /// Path of the directory.
        path: String,
    },
    /// Atomic rename.
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// Hard link.
    Link {
        /// Existing path.
        existing: String,
        /// New link path.
        new: String,
    },
    /// Symbolic link.
    Symlink {
        /// Link target string.
        target: String,
        /// Path of the new symlink.
        linkpath: String,
    },
    /// Set permission bits.
    Chmod {
        /// Path to change.
        path: String,
        /// New permission bits.
        mode: u32,
    },
    /// Set timestamps.
    Utimes {
        /// Path to change.
        path: String,
        /// New atime (ns).
        atime_ns: u64,
        /// New mtime (ns).
        mtime_ns: u64,
    },
}

impl MetaOp {
    /// `true` if the operation modifies the namespace or attributes (and
    /// therefore must reach stable storage under sync-metadata semantics).
    pub fn is_mutation(&self) -> bool {
        !matches!(
            self,
            MetaOp::Stat { .. } | MetaOp::OpenClose { .. } | MetaOp::Readdir { .. }
        )
    }

    /// The primary path the operation touches (destination for renames).
    pub fn primary_path(&self) -> &str {
        match self {
            MetaOp::Create { path, .. }
            | MetaOp::Mkdir { path }
            | MetaOp::Unlink { path }
            | MetaOp::Rmdir { path }
            | MetaOp::Stat { path }
            | MetaOp::OpenClose { path }
            | MetaOp::Readdir { path }
            | MetaOp::Chmod { path, .. }
            | MetaOp::Utimes { path, .. } => path,
            MetaOp::Rename { to, .. } => to,
            MetaOp::Link { new, .. } => new,
            MetaOp::Symlink { linkpath, .. } => linkpath,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_classification() {
        assert!(MetaOp::Create {
            path: "/a".into(),
            data_bytes: 0
        }
        .is_mutation());
        assert!(!MetaOp::Stat { path: "/a".into() }.is_mutation());
        assert!(!MetaOp::Readdir { path: "/".into() }.is_mutation());
        assert!(MetaOp::Rename {
            from: "/a".into(),
            to: "/b".into()
        }
        .is_mutation());
    }

    #[test]
    fn primary_path() {
        let op = MetaOp::Rename {
            from: "/a".into(),
            to: "/b".into(),
        };
        assert_eq!(op.primary_path(), "/b");
    }
}
