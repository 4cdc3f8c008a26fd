//! Per-operation cost accounting.
//!
//! The simulation layer in the `dfs` crate derives *service times* from the
//! actual work the file-system data structures performed (directory probes,
//! allocator scans, journal commits). `MemFs` accumulates that work in a
//! [`CostMeter`]; the caller drains it with
//! [`MemFs::take_cost`](crate::MemFs::take_cost) after each operation.

/// Work performed by one (or several) file-system operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCost {
    /// Directory-index probes (entry comparisons / node visits).
    pub dir_probes: u64,
    /// Allocator scan steps (bitmap words / extent-tree nodes).
    pub alloc_scans: u64,
    /// Blocks allocated.
    pub blocks_allocated: u64,
    /// Blocks freed.
    pub blocks_freed: u64,
    /// Journal records written.
    pub journal_records: u64,
    /// Journal commits (synchronous log flushes).
    pub journal_commits: u64,
    /// Writes that fit inline in the inode (paper §4.3.4: WAFL stores tiny
    /// files without block allocation — the 64-byte/65-byte experiment).
    pub inline_writes: u64,
    /// Symlinks followed during path resolution.
    pub symlinks_followed: u64,
    /// Path components resolved.
    pub components_resolved: u64,
}

/// Accumulator for [`OpCost`] inside a file system.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostMeter {
    current: OpCost,
}

impl CostMeter {
    /// Create a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add directory probes.
    pub fn dir_probes(&mut self, n: u64) {
        self.current.dir_probes += n;
    }

    /// Add allocator scan steps.
    pub fn alloc_scans(&mut self, n: u64) {
        self.current.alloc_scans += n;
    }

    /// Record allocated blocks.
    pub fn blocks_allocated(&mut self, n: u64) {
        self.current.blocks_allocated += n;
    }

    /// Record freed blocks.
    pub fn blocks_freed(&mut self, n: u64) {
        self.current.blocks_freed += n;
    }

    /// Record a journal record write.
    pub fn journal_record(&mut self) {
        self.current.journal_records += 1;
    }

    /// Record a journal commit.
    pub fn journal_commit(&mut self) {
        self.current.journal_commits += 1;
    }

    /// Record an inline (in-inode) write.
    pub fn inline_write(&mut self) {
        self.current.inline_writes += 1;
    }

    /// Record a followed symlink.
    pub fn symlink_followed(&mut self) {
        self.current.symlinks_followed += 1;
    }

    /// Record resolved path components.
    pub fn components(&mut self, n: u64) {
        self.current.components_resolved += n;
    }

    /// Drain and return the cost accumulated since the last `take`.
    pub fn take(&mut self) -> OpCost {
        std::mem::take(&mut self.current)
    }
}

/// Counters of completed operations, by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounters {
    /// Files created.
    pub creates: u64,
    /// `open()` calls (without creation).
    pub opens: u64,
    /// `close()` calls.
    pub closes: u64,
    /// `unlink()` calls.
    pub unlinks: u64,
    /// `mkdir()` calls.
    pub mkdirs: u64,
    /// `rmdir()` calls.
    pub rmdirs: u64,
    /// `stat()`/`lstat()`/`fstat()` calls.
    pub stats: u64,
    /// `rename()` calls.
    pub renames: u64,
    /// `link()` calls.
    pub links: u64,
    /// `symlink()` calls.
    pub symlinks: u64,
    /// `readdir()` calls.
    pub readdirs: u64,
    /// `read()` calls.
    pub reads: u64,
    /// `write()` calls.
    pub writes: u64,
    /// attribute mutations (chmod/chown/utimes).
    pub setattrs: u64,
    /// `fsync()` calls.
    pub fsyncs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_resets_the_meter() {
        let mut m = CostMeter::new();
        m.dir_probes(5);
        m.journal_record();
        let c = m.take();
        assert_eq!(c.dir_probes, 5);
        assert_eq!(c.journal_records, 1);
        let c2 = m.take();
        assert_eq!(c2, OpCost::default());
    }
}
