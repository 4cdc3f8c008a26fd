//! An in-memory POSIX-like file system substrate.
//!
//! `memfs` provides the local-file-system building blocks that the thesis'
//! Chapter 2 surveys and whose behaviour the evaluation measures indirectly:
//!
//! * [`MemFs`] — a complete in-memory file system with inodes, hard and
//!   symbolic links, permission checks, sparse files, journaling, snapshots
//!   and crash recovery,
//! * three generations of directory indexes ([`LinearDir`], [`HashedDir`],
//!   [`BTreeDir`]; paper §2.4.2),
//! * two block allocators ([`BitmapAllocator`], [`ExtentAllocator`]),
//! * a metadata [`Journal`] with sync/async commit and crash replay
//!   (§2.7.1),
//! * a power-loss simulation layer ([`crash`]) — seeded crash schedules
//!   with torn and reordered tail writes, a checksum-verified recovery
//!   scanner, and an online integrity [`Scrubber`],
//! * the [`Vfs`] trait that makes benchmark code file-system independent
//!   (§3.2.1), and [`StdFs`], the adapter that runs the same operations on a
//!   real kernel file system,
//! * cost metering ([`OpCost`]) so the simulation layer can charge service
//!   times proportional to the data-structure work actually performed.
//!
//! # Example
//!
//! ```
//! use memfs::{MemFs, MemFsConfig, DirIndexKind, Vfs};
//!
//! # fn main() -> Result<(), memfs::FsError> {
//! let mut config = MemFsConfig::default();
//! config.dir_index = DirIndexKind::BTree;
//! let mut fs = MemFs::with_config(config);
//! fs.mkdir("/projects")?;
//! let fd = fs.create("/projects/report.txt")?;
//! fs.write(fd, b"metadata matters")?;
//! fs.close(fd)?;
//! assert_eq!(fs.stat("/projects/report.txt")?.size, 16);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod attr;
mod cost;
pub mod crash;
mod dir;
mod error;
mod fs;
mod journal;
mod path;
mod vfs;

pub use alloc::{
    new_allocator, Allocation, AllocatorKind, BitmapAllocator, BlockAllocator, Extent,
    ExtentAllocator,
};
pub use attr::{DirEntry, FileAttr, FileType, Ino, Mode, DEFAULT_DIR_MODE, DEFAULT_FILE_MODE};
pub use cost::{CostMeter, OpCost, OpCounters};
pub use crash::{
    CrashClause, CrashPlan, CrashSpec, RecoveryStats, ScrubReport, ScrubStats, Scrubber,
};
pub use dir::{
    new_index, BTreeDir, DirIndex, DirIndexKind, HashedDir, LinearDir, Probed, RawEntry,
};
pub use error::{FsError, FsResult};
pub use fs::{MemFs, MemFsConfig, ROOT_INO};
pub use journal::{Journal, JournalMode, JournalRecord, TxId};
pub use path::{FsPath, NAME_MAX};
pub use vfs::{Fd, FsStats, OpenFlags, StdFs, Vfs};
