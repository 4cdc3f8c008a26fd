//! Metadata journaling and crash-consistency machinery (paper §2.7).
//!
//! Two consistency techniques from the thesis are implemented:
//!
//! * **Metadata logging** ([`Journal`]): a write-ahead log of typed metadata
//!   records with synchronous or asynchronous commit; after a simulated
//!   crash, committed-but-not-checkpointed records are replayed.
//! * The file-system check (`fsck`-style full scan) lives in
//!   [`MemFs::check`](crate::MemFs::check), since it needs the whole tree.

use crate::attr::{FileType, Ino, Mode};
use simcore::telemetry;
use std::sync::Arc;

/// When journal records become persistent (paper §2.7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JournalMode {
    /// No journal: after a crash only a full check can repair the tree.
    None,
    /// Asynchronous logging: records are committed in batches; a crash may
    /// lose the tail of the log but the tree stays repairable.
    #[default]
    Async,
    /// Synchronous logging: every record is committed before the operation
    /// returns (NFS-server-style persistence, paper §2.6.4).
    Sync,
}

/// A logged metadata mutation, carrying everything replay needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A regular file or symlink was created.
    Create {
        /// Parent directory inode.
        parent: Ino,
        /// Entry name (interned; shared with the directory entry).
        name: Arc<str>,
        /// New inode number.
        ino: Ino,
        /// Regular or symlink.
        file_type: FileType,
        /// Permission bits.
        mode: Mode,
        /// Symlink target when `file_type` is a symlink.
        symlink_target: Option<Arc<str>>,
    },
    /// A directory was created.
    Mkdir {
        /// Parent directory inode.
        parent: Ino,
        /// Entry name (interned; shared with the directory entry).
        name: Arc<str>,
        /// New inode number.
        ino: Ino,
        /// Permission bits.
        mode: Mode,
    },
    /// A directory entry for a file was removed.
    Unlink {
        /// Parent directory inode.
        parent: Ino,
        /// Entry name (interned; shared with the directory entry).
        name: Arc<str>,
    },
    /// An empty directory was removed.
    Rmdir {
        /// Parent directory inode.
        parent: Ino,
        /// Entry name (interned; shared with the directory entry).
        name: Arc<str>,
    },
    /// An entry moved (atomic rename, paper §2.6.3).
    Rename {
        /// Source directory inode.
        from_parent: Ino,
        /// Source entry name.
        from_name: Arc<str>,
        /// Destination directory inode.
        to_parent: Ino,
        /// Destination entry name.
        to_name: Arc<str>,
    },
    /// A hard link was added.
    Link {
        /// Directory receiving the new entry.
        parent: Ino,
        /// New entry name (interned; shared with the directory entry).
        name: Arc<str>,
        /// Linked inode.
        target: Ino,
    },
    /// Attributes changed (chmod/chown/utimes).
    SetAttr {
        /// Affected inode.
        ino: Ino,
        /// New permission bits, if changed.
        mode: Option<Mode>,
        /// New owner, if changed.
        uid: Option<u32>,
        /// New group, if changed.
        gid: Option<u32>,
        /// New (atime, mtime) in nanoseconds, if changed.
        times_ns: Option<(u64, u64)>,
    },
    /// File size changed (write/truncate) — data itself is not journaled,
    /// only the metadata consequence, as in ordered-mode ext3.
    SetSize {
        /// Affected inode.
        ino: Ino,
        /// New size in bytes.
        size: u64,
    },
    /// Extended attribute set (`value = Some`) or removed (`value = None`).
    SetXattr {
        /// Affected inode.
        ino: Ino,
        /// Attribute key.
        key: String,
        /// New value, or `None` for removal.
        value: Option<Vec<u8>>,
    },
}

/// Transaction id within the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

/// A write-ahead metadata journal.
///
/// The journal is storage-agnostic: it stores records in memory and tracks
/// the commit frontier. [`MemFs`](crate::MemFs) logs a record for every
/// metadata mutation; a simulated crash truncates uncommitted records and
/// replays the rest onto the last checkpoint image.
///
/// # Example
///
/// ```
/// use memfs::{Journal, JournalMode, JournalRecord, Ino};
///
/// let mut j = Journal::new(JournalMode::Async);
/// j.log(JournalRecord::Unlink { parent: Ino(1), name: "x".into() });
/// assert_eq!(j.committed_len(), 0);
/// j.commit();
/// assert_eq!(j.committed_len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Journal {
    mode: JournalMode,
    records: Vec<(TxId, JournalRecord)>,
    committed: usize,
    next_tx: u64,
    /// Sequence number the on-disk log currently starts at (recorded by the
    /// checkpoint superblock); where `next_tx` rolls back to after a crash
    /// with nothing committed.
    base_seq: u64,
    commits: u64,
    checkpoints: u64,
}

impl Journal {
    /// Create an empty journal.
    pub fn new(mode: JournalMode) -> Self {
        Journal {
            mode,
            records: Vec::new(),
            committed: 0,
            next_tx: 0,
            base_seq: 0,
            commits: 0,
            checkpoints: 0,
        }
    }

    /// The journal's persistence mode.
    pub fn mode(&self) -> JournalMode {
        self.mode
    }

    /// Append a record. In [`JournalMode::Sync`] the record is committed
    /// immediately; in [`JournalMode::Async`] it stays volatile until
    /// [`commit`](Journal::commit). In [`JournalMode::None`] the record is
    /// discarded.
    pub fn log(&mut self, record: JournalRecord) -> Option<TxId> {
        if self.mode == JournalMode::None {
            return None;
        }
        let tx = TxId(self.next_tx);
        self.next_tx += 1;
        self.records.push((tx, record));
        telemetry::count("memfs.journal.record", 1);
        if self.mode == JournalMode::Sync {
            self.committed = self.records.len();
            self.commits += 1;
            telemetry::count("memfs.journal.commit", 1);
        }
        Some(tx)
    }

    /// Commit all volatile records (the periodic log flush).
    pub fn commit(&mut self) {
        if self.committed < self.records.len() {
            self.committed = self.records.len();
            self.commits += 1;
            telemetry::count("memfs.journal.commit", 1);
        }
    }

    /// Number of committed records not yet checkpointed.
    pub fn committed_len(&self) -> usize {
        self.committed
    }

    /// Number of volatile (lose-on-crash) records.
    pub fn volatile_len(&self) -> usize {
        self.records.len() - self.committed
    }

    /// Total commits performed.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Total checkpoints performed.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// The sequence number the next record will receive. Monotone across
    /// commits and checkpoints — crash schedules (`crash-after:N-records`)
    /// are expressed against it. A crash rolls it back to the durable
    /// frontier (lost volatile slots are reused, like LSNs).
    pub fn total_logged(&self) -> u64 {
        self.next_tx
    }

    /// The live log: committed prefix followed by the volatile tail, each
    /// record tagged with its [`TxId`] sequence number.
    pub fn entries(&self) -> &[(TxId, JournalRecord)] {
        &self.records
    }

    /// Checkpoint: the in-place metadata is durable, so drop the log.
    pub fn checkpoint(&mut self) {
        self.records.clear();
        self.committed = 0;
        self.base_seq = self.next_tx;
        self.checkpoints += 1;
        telemetry::count("memfs.journal.checkpoint", 1);
    }

    /// Simulate a crash: volatile records are lost; the committed prefix is
    /// returned for replay onto the last checkpoint image.
    ///
    /// The committed prefix stays in the log: on real storage the committed
    /// region survives power loss and is only retired by the next
    /// [`checkpoint`](Journal::checkpoint). Discarding it here would make a
    /// *second* crash (before any checkpoint) replay only the records logged
    /// since the first one — silently dropping durable transactions.
    ///
    /// Sequence numbers the lost volatile records were holding are reused:
    /// the on-disk log ends at the durable frontier, so the next append
    /// lands in the next physical slot (LSN rollback).
    pub fn crash(&mut self) -> Vec<JournalRecord> {
        self.records.truncate(self.committed);
        self.next_tx = self
            .records
            .last()
            .map_or(self.base_seq, |(tx, _)| tx.0 + 1);
        self.records.iter().map(|(_, r)| r.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str) -> JournalRecord {
        JournalRecord::Unlink {
            parent: Ino(1),
            name: name.into(),
        }
    }

    #[test]
    fn async_mode_batches_commits() {
        let mut j = Journal::new(JournalMode::Async);
        j.log(rec("a"));
        j.log(rec("b"));
        assert_eq!(j.committed_len(), 0);
        assert_eq!(j.volatile_len(), 2);
        j.commit();
        assert_eq!(j.committed_len(), 2);
        assert_eq!(j.volatile_len(), 0);
        assert_eq!(j.commits(), 1);
    }

    #[test]
    fn sync_mode_commits_each_record() {
        let mut j = Journal::new(JournalMode::Sync);
        j.log(rec("a"));
        j.log(rec("b"));
        assert_eq!(j.committed_len(), 2);
        assert_eq!(j.commits(), 2);
    }

    #[test]
    fn none_mode_discards() {
        let mut j = Journal::new(JournalMode::None);
        assert_eq!(j.log(rec("a")), None);
        assert_eq!(j.committed_len(), 0);
        assert!(j.crash().is_empty());
    }

    #[test]
    fn crash_returns_committed_prefix_only() {
        let mut j = Journal::new(JournalMode::Async);
        j.log(rec("a"));
        j.commit();
        j.log(rec("b")); // volatile, lost
        let replay = j.crash();
        assert_eq!(replay, vec![rec("a")]);
        assert_eq!(j.volatile_len(), 0);
        // The committed region survives the crash — it is still needed by
        // any later crash that happens before the next checkpoint.
        assert_eq!(j.committed_len(), 1);
    }

    #[test]
    fn crash_twice_replays_all_committed_records() {
        // Regression: crash() used to clear the committed prefix, so a
        // second crash before a checkpoint replayed only the records logged
        // after the first crash and lost earlier durable transactions.
        let mut j = Journal::new(JournalMode::Async);
        j.log(rec("a"));
        j.commit();
        assert_eq!(j.crash(), vec![rec("a")]);
        j.log(rec("b"));
        j.commit();
        j.log(rec("c")); // volatile at the second crash
        assert_eq!(j.crash(), vec![rec("a"), rec("b")]);
        assert_eq!(j.total_logged(), 2, "lost volatile slot is reused");
        // A checkpoint finally retires the committed region.
        j.checkpoint();
        assert!(j.crash().is_empty());
    }

    #[test]
    fn checkpoint_empties_log() {
        let mut j = Journal::new(JournalMode::Sync);
        j.log(rec("a"));
        j.checkpoint();
        assert!(j.crash().is_empty(), "checkpointed records need no replay");
        assert_eq!(j.checkpoints(), 1);
    }

    #[test]
    fn empty_commit_does_not_count() {
        let mut j = Journal::new(JournalMode::Async);
        j.commit();
        assert_eq!(j.commits(), 0);
    }
}
