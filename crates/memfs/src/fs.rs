//! `MemFs` — the in-memory POSIX-like file system.
//!
//! This is a *real* implementation (inodes, directory indexes, block
//! allocation, journaling, snapshots), not a cost table: every operation does
//! the actual data-structure work, and the cost meter reports how much work
//! was done so the simulation layer can charge realistic service times.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use simcore::telemetry;

use crate::alloc::{new_allocator, AllocatorKind, BlockAllocator, Extent};
use crate::attr::{DirEntry, FileAttr, FileType, Ino, Mode, DEFAULT_DIR_MODE, DEFAULT_FILE_MODE};
use crate::cost::{CostMeter, OpCost, OpCounters};
use crate::crash::{fnv1a, ScrubReport, Scrubber};
use crate::dir::{new_index, DirIndex, DirIndexKind, RawEntry};
use crate::error::{FsError, FsResult};
use crate::journal::{Journal, JournalMode, JournalRecord};
use crate::path::FsPath;
use crate::vfs::{Fd, FsStats, OpenFlags, Vfs};

/// The root directory's inode number.
pub const ROOT_INO: Ino = Ino(1);

/// Maximum hard links per inode.
const LINK_MAX: u32 = 65_000;

/// Maximum symlink traversals during one resolution (`ELOOP` bound).
const SYMLOOP_MAX: u64 = 40;

/// Construction-time options for a [`MemFs`].
#[derive(Debug, Clone)]
pub struct MemFsConfig {
    /// Directory index implementation (paper §2.4.2).
    pub dir_index: DirIndexKind,
    /// Block allocator implementation (paper §2.4.2).
    pub allocator: AllocatorKind,
    /// Journal persistence mode (paper §2.7.1).
    pub journal_mode: JournalMode,
    /// Auto-commit the journal after this many volatile records
    /// (asynchronous-logging batch size).
    pub commit_every: usize,
    /// Block size in bytes.
    pub block_size: u64,
    /// Total data blocks.
    pub total_blocks: u64,
    /// Files up to this many bytes are stored inline in the inode without
    /// block allocation — the WAFL behaviour probed by the paper's
    /// MakeFiles64byte / MakeFiles65byte benchmarks (§4.3.4).
    pub inline_max: u64,
    /// Maximum number of inodes (`None` = unbounded, i.e. created on demand
    /// as in XFS; `Some(n)` = fixed at format time as in UFS).
    pub max_inodes: Option<u64>,
    /// Enforce POSIX permission checks, including the x-permission on every
    /// path component (paper §2.3.1).
    pub check_permissions: bool,
    /// Reject all mutations (`EROFS`) — immutable semantics, used for
    /// snapshot views (paper §2.6.1).
    pub read_only: bool,
}

impl Default for MemFsConfig {
    fn default() -> Self {
        MemFsConfig {
            dir_index: DirIndexKind::Hashed,
            allocator: AllocatorKind::Extent,
            journal_mode: JournalMode::Async,
            commit_every: 64,
            block_size: 4096,
            total_blocks: 1 << 22, // 16 GiB of 4 KiB blocks
            inline_max: 64,
            max_inodes: None,
            check_permissions: false,
            read_only: false,
        }
    }
}

/// A directory index shared structurally between the live tree and its
/// snapshots (WAFL-style copy-on-write). Cloning is a refcount bump; the
/// first mutation after a snapshot clones just this one directory.
#[derive(Debug, Clone)]
struct SharedIndex(Arc<Box<dyn DirIndex>>);

impl SharedIndex {
    fn new(index: Box<dyn DirIndex>) -> Self {
        SharedIndex(Arc::new(index))
    }

    /// Mutable access, cloning the index first if a snapshot still shares it
    /// (the object-safe equivalent of `Arc::make_mut`).
    fn make_mut(&mut self) -> &mut Box<dyn DirIndex> {
        if Arc::get_mut(&mut self.0).is_none() {
            self.0 = Arc::new(self.0.clone_box());
        }
        Arc::get_mut(&mut self.0).expect("just made unique")
    }
}

impl std::ops::Deref for SharedIndex {
    type Target = dyn DirIndex;
    fn deref(&self) -> &Self::Target {
        self.0.as_ref().as_ref()
    }
}

/// A block allocator shared structurally between the live tree and its
/// snapshots, same copy-on-write discipline as [`SharedIndex`].
#[derive(Debug, Clone)]
struct SharedAlloc(Arc<Box<dyn BlockAllocator>>);

impl SharedAlloc {
    fn new(allocator: Box<dyn BlockAllocator>) -> Self {
        SharedAlloc(Arc::new(allocator))
    }

    fn make_mut(&mut self) -> &mut Box<dyn BlockAllocator> {
        if Arc::get_mut(&mut self.0).is_none() {
            self.0 = Arc::new(self.0.clone_box());
        }
        Arc::get_mut(&mut self.0).expect("just made unique")
    }
}

impl std::ops::Deref for SharedAlloc {
    type Target = dyn BlockAllocator;
    fn deref(&self) -> &Self::Target {
        self.0.as_ref().as_ref()
    }
}

/// Inode payloads sit behind `Arc` so that capturing an [`FsImage`]
/// (checkpoint / snapshot) is O(live inodes) pointer bumps rather than a
/// deep copy of every byte; mutations go through `Arc::make_mut`, which
/// clones only payloads a snapshot still shares.
#[derive(Debug, Clone)]
enum InodeData {
    Regular {
        data: Arc<Vec<u8>>,
        extents: Arc<Vec<Extent>>,
    },
    Dir {
        index: SharedIndex,
        parent: Ino,
    },
    Symlink {
        target: Arc<str>,
    },
}

#[derive(Debug, Clone)]
struct Inode {
    attr: FileAttr,
    data: InodeData,
    open_count: u32,
    xattrs: Arc<BTreeMap<String, Vec<u8>>>,
}

#[derive(Debug, Clone)]
struct OpenFile {
    ino: Ino,
    pos: u64,
    flags: OpenFlags,
}

#[derive(Debug, Clone)]
struct FsImage {
    inodes: BTreeMap<u64, Inode>,
    allocator: SharedAlloc,
    next_ino: u64,
}

/// The in-memory file system. See the [crate docs](crate) for an overview.
///
/// # Example
///
/// ```
/// use memfs::{MemFs, Vfs};
///
/// # fn main() -> Result<(), memfs::FsError> {
/// let mut fs = MemFs::new();
/// fs.mkdir("/data")?;
/// let fd = fs.create("/data/hello.txt")?;
/// fs.write(fd, b"hi")?;
/// fs.close(fd)?;
/// assert_eq!(fs.stat("/data/hello.txt")?.size, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MemFs {
    config: MemFsConfig,
    inodes: BTreeMap<u64, Inode>,
    next_ino: u64,
    allocator: SharedAlloc,
    journal: Journal,
    open_files: BTreeMap<u64, OpenFile>,
    next_fd: u64,
    now_ns: u64,
    uid: u32,
    gid: u32,
    cost: CostMeter,
    counters: OpCounters,
    snapshots: BTreeMap<String, FsImage>,
    checkpoint_image: Option<FsImage>,
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl MemFs {
    /// Create a file system with default configuration.
    pub fn new() -> Self {
        Self::with_config(MemFsConfig::default())
    }

    /// Create a file system with the given configuration.
    pub fn with_config(config: MemFsConfig) -> Self {
        let mut inodes = BTreeMap::new();
        let root_attr = FileAttr::new(ROOT_INO, FileType::Directory, DEFAULT_DIR_MODE, 0, 0, 0);
        inodes.insert(
            ROOT_INO.0,
            Inode {
                attr: root_attr,
                data: InodeData::Dir {
                    index: SharedIndex::new(new_index(config.dir_index)),
                    parent: ROOT_INO,
                },
                open_count: 0,
                xattrs: Arc::default(),
            },
        );
        let allocator = SharedAlloc::new(new_allocator(config.allocator, config.total_blocks));
        let journal = Journal::new(config.journal_mode);
        MemFs {
            config,
            inodes,
            next_ino: ROOT_INO.0 + 1,
            allocator,
            journal,
            open_files: BTreeMap::new(),
            next_fd: 3, // 0/1/2 look like stdio, start above them
            now_ns: 0,
            uid: 1000,
            gid: 1000,
            cost: CostMeter::new(),
            counters: OpCounters::default(),
            snapshots: BTreeMap::new(),
            checkpoint_image: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MemFsConfig {
        &self.config
    }

    /// Drain the cost accumulated since the last call (see
    /// [`CostMeter`](crate::CostMeter)).
    pub fn take_cost(&mut self) -> OpCost {
        self.cost.take()
    }

    /// Per-operation-kind counters.
    pub fn counters(&self) -> OpCounters {
        self.counters
    }

    // -- internal helpers ---------------------------------------------------

    fn tick(&mut self) -> u64 {
        self.now_ns += 1;
        self.now_ns
    }

    fn inode(&self, ino: Ino) -> FsResult<&Inode> {
        self.inodes.get(&ino.0).ok_or(FsError::NotFound)
    }

    fn inode_mut(&mut self, ino: Ino) -> FsResult<&mut Inode> {
        self.inodes.get_mut(&ino.0).ok_or(FsError::NotFound)
    }

    fn require_writable(&self) -> FsResult<()> {
        if self.config.read_only {
            Err(FsError::ReadOnly)
        } else {
            Ok(())
        }
    }

    fn alloc_ino(&mut self) -> FsResult<Ino> {
        if let Some(max) = self.config.max_inodes {
            if self.inodes.len() as u64 >= max {
                return Err(FsError::NoSpace);
            }
        }
        let ino = Ino(self.next_ino);
        self.next_ino += 1;
        Ok(ino)
    }

    fn check_perm(&self, attr: &FileAttr, r: bool, w: bool, x: bool) -> FsResult<()> {
        if !self.config.check_permissions {
            return Ok(());
        }
        if attr.permits(self.uid, self.gid, r, w, x) {
            Ok(())
        } else {
            Err(FsError::PermissionDenied)
        }
    }

    fn dir_index(&self, ino: Ino) -> FsResult<&dyn DirIndex> {
        match &self.inode(ino)?.data {
            InodeData::Dir { index, .. } => Ok(&**index),
            _ => Err(FsError::NotDir),
        }
    }

    fn dir_index_mut(&mut self, ino: Ino) -> FsResult<&mut Box<dyn DirIndex>> {
        match &mut self.inode_mut(ino)?.data {
            InodeData::Dir { index, .. } => Ok(index.make_mut()),
            _ => Err(FsError::NotDir),
        }
    }

    /// Resolve a path to an inode, following symlinks in non-final
    /// components and, if `follow_last`, in the final one too.
    fn resolve(&mut self, path: &FsPath, follow_last: bool) -> FsResult<Ino> {
        let mut comps: VecDeque<Arc<str>> = path.components().iter().cloned().collect();
        let mut cur = ROOT_INO;
        let mut cur_path = FsPath::root();
        let mut hops: u64 = 0;
        while let Some(name) = comps.pop_front() {
            let node = self.inode(cur)?;
            if !node.attr.is_dir() {
                return Err(FsError::NotDir);
            }
            // x-permission is needed on every directory of the path
            // (paper §2.3.1).
            let attr = node.attr;
            self.check_perm(&attr, false, false, true)?;
            let probed = self.dir_index(cur)?.lookup(&name);
            self.cost.dir_probes(probed.probes);
            self.cost.components(1);
            let entry = probed.value.ok_or(FsError::NotFound)?;
            if entry.file_type == FileType::Symlink && (!comps.is_empty() || follow_last) {
                hops += 1;
                if hops > SYMLOOP_MAX {
                    return Err(FsError::SymlinkLoop);
                }
                self.cost.symlink_followed();
                let target = match &self.inode(entry.ino)?.data {
                    InodeData::Symlink { target } => target.clone(),
                    _ => return Err(FsError::InvalidArgument),
                };
                let tpath = if target.starts_with('/') {
                    FsPath::parse(&target)?
                } else {
                    FsPath::parse(&format!("{cur_path}/{target}"))?
                };
                let mut rebuilt: VecDeque<Arc<str>> = tpath.components().iter().cloned().collect();
                rebuilt.extend(comps.drain(..));
                comps = rebuilt;
                cur = ROOT_INO;
                cur_path = FsPath::root();
                continue;
            }
            cur_path = cur_path.join(&name)?;
            cur = entry.ino;
        }
        Ok(cur)
    }

    /// Resolve the parent directory of `path`; returns `(dir_ino, name)`.
    fn resolve_parent(&mut self, path: &FsPath) -> FsResult<(Ino, Arc<str>)> {
        let name = path
            .components()
            .last()
            .cloned()
            .ok_or(FsError::InvalidArgument)?;
        let parent = path.parent().expect("non-root path has a parent");
        let dir = self.resolve(&parent, true)?;
        if !self.inode(dir)?.attr.is_dir() {
            return Err(FsError::NotDir);
        }
        Ok((dir, name))
    }

    fn parse(path: &str) -> FsResult<FsPath> {
        FsPath::parse(path)
    }

    fn log(&mut self, record: JournalRecord) {
        if self.journal.log(record).is_some() {
            self.cost.journal_record();
            match self.journal.mode() {
                JournalMode::Sync => self.cost.journal_commit(),
                JournalMode::Async => {
                    if self.journal.volatile_len() >= self.config.commit_every {
                        self.journal.commit();
                        self.cost.journal_commit();
                    }
                }
                JournalMode::None => {}
            }
        }
    }

    /// Blocks needed for a file of `size` bytes under the inline rule.
    fn blocks_for(&self, size: u64) -> u64 {
        if size <= self.config.inline_max {
            0
        } else {
            size.div_ceil(self.config.block_size)
        }
    }

    /// Adjust a regular file's block allocation to match `new_size`.
    fn resize_blocks(&mut self, ino: Ino, new_size: u64) -> FsResult<()> {
        let needed = self.blocks_for(new_size);
        let current = self.inode(ino)?.attr.blocks;
        if needed > current {
            let grant = self.allocator.make_mut().allocate(needed - current)?;
            self.cost.alloc_scans(grant.scan_cost);
            self.cost.blocks_allocated(needed - current);
            if let InodeData::Regular { extents, .. } = &mut self.inode_mut(ino)?.data {
                Arc::make_mut(extents).extend(grant.extents);
            }
        } else if needed < current {
            let mut to_free = current - needed;
            let mut freed: Vec<Extent> = Vec::new();
            if let InodeData::Regular { extents, .. } = &mut self.inode_mut(ino)?.data {
                let extents = Arc::make_mut(extents);
                while to_free > 0 {
                    let last = extents.last_mut().expect("block count matches extents");
                    if last.len <= to_free {
                        to_free -= last.len;
                        freed.push(*last);
                        extents.pop();
                    } else {
                        last.len -= to_free;
                        freed.push(Extent {
                            start: last.start + last.len,
                            len: to_free,
                        });
                        to_free = 0;
                    }
                }
            }
            self.allocator.make_mut().free(&freed);
            self.cost.blocks_freed(current - needed);
        } else if needed == 0 && new_size <= self.config.inline_max {
            self.cost.inline_write();
        }
        let attr = &mut self.inode_mut(ino)?.attr;
        attr.size = new_size;
        attr.blocks = needed;
        Ok(())
    }

    /// Drop an inode whose last link and last open handle are gone,
    /// returning its blocks to the allocator.
    fn reap(&mut self, ino: Ino) {
        if let Some(node) = self.inodes.get(&ino.0) {
            if node.attr.nlink == 0 && node.open_count == 0 {
                let node = self.inodes.remove(&ino.0).expect("checked above");
                if let InodeData::Regular { extents, .. } = node.data {
                    let n: u64 = extents.iter().map(|e| e.len).sum();
                    self.allocator.make_mut().free(&extents);
                    self.cost.blocks_freed(n);
                }
            }
        }
    }

    fn insert_entry(&mut self, dir: Ino, entry: RawEntry) -> FsResult<()> {
        let probed = self.dir_index_mut(dir)?.insert(entry);
        self.cost.dir_probes(probed.probes);
        if probed.value {
            Ok(())
        } else {
            Err(FsError::Exists)
        }
    }

    fn remove_entry(&mut self, dir: Ino, name: &str) -> FsResult<RawEntry> {
        let probed = self.dir_index_mut(dir)?.remove(name);
        self.cost.dir_probes(probed.probes);
        probed.value.ok_or(FsError::NotFound)
    }

    fn lookup_entry(&mut self, dir: Ino, name: &str) -> FsResult<Option<RawEntry>> {
        let probed = self.dir_index(dir)?.lookup(name);
        self.cost.dir_probes(probed.probes);
        Ok(probed.value)
    }

    fn create_node(
        &mut self,
        dir: Ino,
        name: Arc<str>,
        file_type: FileType,
        mode: Mode,
        symlink_target: Option<Arc<str>>,
        forced_ino: Option<Ino>,
    ) -> FsResult<Ino> {
        let dir_attr = self.inode(dir)?.attr;
        self.check_perm(&dir_attr, false, true, true)?;
        let ino = match forced_ino {
            Some(i) => {
                self.next_ino = self.next_ino.max(i.0 + 1);
                i
            }
            None => self.alloc_ino()?,
        };
        let now = self.tick();
        self.insert_entry(
            dir,
            RawEntry {
                name,
                ino,
                file_type,
            },
        )?;
        let mut attr = FileAttr::new(ino, file_type, mode, self.uid, self.gid, now);
        let data = match file_type {
            FileType::Regular => InodeData::Regular {
                data: Arc::new(Vec::new()),
                extents: Arc::new(Vec::new()),
            },
            FileType::Directory => InodeData::Dir {
                index: SharedIndex::new(new_index(self.config.dir_index)),
                parent: dir,
            },
            FileType::Symlink => {
                let target = symlink_target.unwrap_or_default();
                attr.size = target.len() as u64;
                InodeData::Symlink { target }
            }
        };
        self.inodes.insert(
            ino.0,
            Inode {
                attr,
                data,
                open_count: 0,
                xattrs: Arc::default(),
            },
        );
        if file_type == FileType::Directory {
            self.inode_mut(dir)?.attr.nlink += 1; // the child's ".."
        }
        self.inode_mut(dir)?.attr.mtime_ns = now;
        Ok(ino)
    }

    // -- journaling / crash recovery ----------------------------------------

    /// Checkpoint: flush the journal and remember the on-"disk" image that a
    /// later [`crash_and_recover`](MemFs::crash_and_recover) restores.
    pub fn checkpoint(&mut self) {
        self.journal.commit();
        self.journal.checkpoint();
        self.checkpoint_image = Some(self.image());
    }

    /// Simulate a crash: volatile journal records and open handles are lost;
    /// the file system reverts to the last checkpoint image and replays the
    /// committed journal. Returns the number of records replayed.
    ///
    /// # Panics
    ///
    /// Panics if a committed journal record cannot be replayed — that would
    /// be a consistency bug, which tests assert never happens.
    pub fn crash_and_recover(&mut self) -> usize {
        let replay = self.journal.crash();
        let n = replay.len();
        self.restore_and_replay(replay);
        n
    }

    /// Simulate a power loss shaped by a compiled [`CrashPlan`]: the live
    /// journal is materialized as checksummed on-disk frames, the plan's
    /// torn/reordered damage is applied to the in-flight tail, and the
    /// recovery scanner decides what replays onto the last checkpoint
    /// image. Returns what the scanner found.
    ///
    /// With an inert plan this is behaviourally identical to
    /// [`crash_and_recover`](MemFs::crash_and_recover): the scanner admits
    /// exactly the committed prefix.
    ///
    /// # Panics
    ///
    /// Panics if the scanner admits anything other than the committed
    /// prefix (a durability bug) or if an admitted record fails to replay
    /// (a consistency bug); the crash harness asserts neither ever happens.
    ///
    /// [`CrashPlan`]: crate::crash::CrashPlan
    pub fn crash_with(
        &mut self,
        plan: &mut crate::crash::CrashPlan,
    ) -> crate::crash::RecoveryStats {
        let entries = self.journal.entries();
        let committed = self.journal.committed_len();
        // The checkpoint superblock records where the log starts.
        let expected_first = entries.first().map(|(tx, _)| tx.0);
        let mut disk = crate::crash::DiskJournal::materialize(entries, committed);
        // The sealed region: committed record frames plus their marker.
        let sealed = if committed > 0 { committed + 1 } else { 0 };
        plan.damage(&mut disk, sealed);
        let (replay, stats) = crate::crash::scan(&disk, expected_first);
        let durable = self.journal.crash();
        assert_eq!(
            replay, durable,
            "recovery scanner must admit exactly the committed prefix"
        );
        telemetry::count("memfs.crash.recoveries", 1);
        telemetry::count("memfs.crash.replayed", stats.replayed as u64);
        telemetry::count("memfs.crash.discarded", stats.discarded() as u64);
        self.restore_and_replay(replay);
        stats
    }

    /// Restore the last checkpoint image and replay `records` onto it.
    /// Open handles cannot survive a power cycle and are dropped.
    fn restore_and_replay(&mut self, records: Vec<JournalRecord>) {
        let image = self
            .checkpoint_image
            .clone()
            .unwrap_or_else(|| Self::with_config(self.config.clone()).image());
        self.inodes = image.inodes;
        self.allocator = image.allocator;
        self.next_ino = image.next_ino;
        self.open_files.clear();
        for record in records {
            self.apply_record(record)
                .expect("committed journal record must replay cleanly");
        }
    }

    fn apply_record(&mut self, record: JournalRecord) -> FsResult<()> {
        match record {
            JournalRecord::Create {
                parent,
                name,
                ino,
                file_type,
                mode,
                symlink_target,
            } => {
                self.create_node(parent, name, file_type, mode, symlink_target, Some(ino))?;
            }
            JournalRecord::Mkdir {
                parent,
                name,
                ino,
                mode,
            } => {
                self.create_node(parent, name, FileType::Directory, mode, None, Some(ino))?;
            }
            JournalRecord::Unlink { parent, name } => {
                let entry = self.remove_entry(parent, &name)?;
                let node = self.inode_mut(entry.ino)?;
                node.attr.nlink = node.attr.nlink.saturating_sub(1);
                self.reap(entry.ino);
            }
            JournalRecord::Rmdir { parent, name } => {
                let entry = self.remove_entry(parent, &name)?;
                self.inodes.remove(&entry.ino.0);
                let p = self.inode_mut(parent)?;
                p.attr.nlink = p.attr.nlink.saturating_sub(1);
            }
            JournalRecord::Rename {
                from_parent,
                from_name,
                to_parent,
                to_name,
            } => {
                let mut entry = self.remove_entry(from_parent, &from_name)?;
                entry.name = to_name;
                let is_dir = entry.file_type == FileType::Directory;
                let moved_ino = entry.ino;
                // replace any existing target
                if let Some(old) = self.lookup_entry(to_parent, &entry.name)? {
                    self.remove_entry(to_parent, &entry.name.clone())?;
                    if old.file_type == FileType::Directory {
                        self.inodes.remove(&old.ino.0);
                        let p = self.inode_mut(to_parent)?;
                        p.attr.nlink = p.attr.nlink.saturating_sub(1);
                    } else {
                        let node = self.inode_mut(old.ino)?;
                        node.attr.nlink = node.attr.nlink.saturating_sub(1);
                        self.reap(old.ino);
                    }
                }
                self.insert_entry(to_parent, entry)?;
                if is_dir && from_parent != to_parent {
                    self.inode_mut(from_parent)?.attr.nlink -= 1;
                    self.inode_mut(to_parent)?.attr.nlink += 1;
                    if let InodeData::Dir { parent, .. } = &mut self.inode_mut(moved_ino)?.data {
                        *parent = to_parent;
                    }
                }
            }
            JournalRecord::Link {
                parent,
                name,
                target,
            } => {
                let file_type = self.inode(target)?.attr.file_type;
                self.insert_entry(
                    parent,
                    RawEntry {
                        name,
                        ino: target,
                        file_type,
                    },
                )?;
                self.inode_mut(target)?.attr.nlink += 1;
            }
            JournalRecord::SetAttr {
                ino,
                mode,
                uid,
                gid,
                times_ns,
            } => {
                let attr = &mut self.inode_mut(ino)?.attr;
                if let Some(m) = mode {
                    attr.mode = m;
                }
                if let Some(u) = uid {
                    attr.uid = u;
                }
                if let Some(g) = gid {
                    attr.gid = g;
                }
                if let Some((a, m)) = times_ns {
                    attr.atime_ns = a;
                    attr.mtime_ns = m;
                }
            }
            JournalRecord::SetXattr { ino, key, value } => {
                let node = self.inode_mut(ino)?;
                let xattrs = Arc::make_mut(&mut node.xattrs);
                match value {
                    Some(v) => {
                        xattrs.insert(key, v);
                    }
                    None => {
                        xattrs.remove(&key);
                    }
                }
            }
            JournalRecord::SetSize { ino, size } => {
                // data bytes are not journaled; replay restores size/blocks
                self.resize_blocks(ino, size)?;
                if let InodeData::Regular { data, .. } = &mut self.inode_mut(ino)?.data {
                    Arc::make_mut(data).resize(size as usize, 0);
                }
            }
        }
        Ok(())
    }

    /// Capture the current on-"disk" state. With structurally shared inode
    /// payloads this is O(live inodes) refcount bumps — the WAFL
    /// consistency-point model — not a deep copy of file bytes, directory
    /// stores or the allocator.
    fn image(&self) -> FsImage {
        FsImage {
            inodes: self.inodes.clone(),
            allocator: self.allocator.clone(),
            next_ino: self.next_ino,
        }
    }

    // -- snapshots (paper §2.8.1) -------------------------------------------

    /// Create a named point-in-time snapshot.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`] if a snapshot with that name already exists.
    pub fn snapshot_create(&mut self, name: &str) -> FsResult<()> {
        if self.snapshots.contains_key(name) {
            return Err(FsError::Exists);
        }
        self.snapshots.insert(name.to_owned(), self.image());
        Ok(())
    }

    /// Names of existing snapshots, in sorted order, borrowed — no per-call
    /// `Vec<String>` allocation.
    pub fn snapshot_names(&self) -> impl Iterator<Item = &str> {
        self.snapshots.keys().map(String::as_str)
    }

    /// Delete a snapshot.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if no such snapshot exists.
    pub fn snapshot_delete(&mut self, name: &str) -> FsResult<()> {
        self.snapshots
            .remove(name)
            .map(|_| ())
            .ok_or(FsError::NotFound)
    }

    /// Materialize a snapshot as a *read-only* file system (immutable
    /// semantics, paper §2.6.1).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if no such snapshot exists.
    pub fn snapshot_open(&self, name: &str) -> FsResult<MemFs> {
        let image = self.snapshots.get(name).ok_or(FsError::NotFound)?.clone();
        let mut config = self.config.clone();
        config.read_only = true;
        let mut fs = MemFs::with_config(config);
        fs.inodes = image.inodes;
        fs.allocator = image.allocator;
        fs.next_ino = image.next_ino;
        Ok(fs)
    }

    // -- consistency check (fsck, paper §2.7.1) ------------------------------

    /// Full consistency check: returns a list of problems (empty = clean).
    ///
    /// Verifies that every directory entry references a live inode, link
    /// counts match references, directory parent links are consistent, and
    /// block accounting matches the allocator.
    pub fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut refcount: BTreeMap<u64, u32> = BTreeMap::new();
        let mut subdirs: BTreeMap<u64, u32> = BTreeMap::new();
        for (ino_num, node) in &self.inodes {
            if let InodeData::Dir { index, parent } = &node.data {
                if !self.inodes.contains_key(&parent.0) {
                    problems.push(format!("dir ino#{ino_num} has dangling parent {parent}"));
                }
                for e in index.iter_entries() {
                    match self.inodes.get(&e.ino.0) {
                        None => problems.push(format!(
                            "entry '{}' in ino#{ino_num} references missing {}",
                            e.name, e.ino
                        )),
                        Some(child) => {
                            if child.attr.file_type != e.file_type {
                                problems.push(format!(
                                    "entry '{}' in ino#{ino_num} has stale type",
                                    e.name
                                ));
                            }
                            if let InodeData::Dir { parent, .. } = &child.data {
                                if parent.0 != *ino_num {
                                    problems.push(format!(
                                        "dir entry '{}' parent pointer mismatch",
                                        e.name
                                    ));
                                }
                                *subdirs.entry(*ino_num).or_insert(0) += 1;
                            }
                        }
                    }
                    *refcount.entry(e.ino.0).or_insert(0) += 1;
                }
            }
        }
        let mut used_blocks = 0u64;
        for (ino_num, node) in &self.inodes {
            let expected = match node.attr.file_type {
                FileType::Directory => 2 + subdirs.get(ino_num).copied().unwrap_or(0),
                _ => refcount.get(ino_num).copied().unwrap_or(0),
            };
            // The root has no entry referencing it; unlinked-but-open files
            // legitimately have nlink 0.
            let actual = node.attr.nlink;
            let is_root = *ino_num == ROOT_INO.0;
            let orphan_open = actual == 0 && node.open_count > 0;
            if !is_root && !orphan_open && actual != expected {
                problems.push(format!(
                    "ino#{ino_num}: nlink {actual} but {expected} references"
                ));
            }
            if !is_root && !refcount.contains_key(ino_num) && node.open_count == 0 {
                problems.push(format!("ino#{ino_num} is unreferenced (orphan)"));
            }
            used_blocks += node.attr.blocks;
        }
        let free = self.allocator.free_blocks();
        let total = self.allocator.total_blocks();
        if used_blocks + free != total {
            problems.push(format!(
                "block accounting mismatch: used {used_blocks} + free {free} != total {total}"
            ));
        }
        problems
    }

    /// File-system level statistics.
    pub fn stats(&self) -> FsStats {
        FsStats {
            block_size: self.config.block_size,
            total_blocks: self.allocator.total_blocks(),
            free_blocks: self.allocator.free_blocks(),
            inodes_used: self.inodes.len() as u64,
            fragmentation: self.allocator.fragments() as u64,
        }
    }

    /// Number of committed-but-not-checkpointed journal records.
    pub fn journal_committed_len(&self) -> usize {
        self.journal.committed_len()
    }

    /// Number of volatile journal records.
    pub fn journal_volatile_len(&self) -> usize {
        self.journal.volatile_len()
    }

    /// Total journal records ever logged — the monotone clock that
    /// `crash-after:N-records` schedules are expressed against.
    pub fn journal_total_logged(&self) -> u64 {
        self.journal.total_logged()
    }

    // -- online scrub (paper §2.7.1) -----------------------------------------

    /// Run one bounded step of an online integrity scrub: visit up to
    /// `batch` inodes from the scrubber's cursor, checksumming payloads and
    /// verifying per-inode invariants (size/extent/block agreement,
    /// directory-entry/inode agreement, parent liveness). When the cursor
    /// wraps past the end of the inode table the sweep completes.
    ///
    /// The sweep coexists with live traffic: mutations between steps are
    /// fine (deleted inodes are skipped, new ones picked up on the next
    /// sweep), which is exactly the scrub-tax situation `exp_scrub_tax`
    /// measures. Work performed is charged to the [`CostMeter`] and
    /// reported as abstract work units.
    ///
    /// Problems found are appended to `scrub.stats.errors`; on a healthy
    /// file system every sweep is clean.
    pub fn scrub_step(&mut self, scrub: &mut Scrubber, batch: usize) -> ScrubReport {
        let mut report = ScrubReport::default();
        let mut probes = 0u64;
        while (report.scanned as usize) < batch {
            let Some((&ino_num, node)) = self.inodes.range(scrub.cursor..).next() else {
                report.wrapped = true;
                scrub.cursor = 0;
                scrub.stats.sweeps_completed += 1;
                break;
            };
            scrub.cursor = ino_num + 1;
            report.scanned += 1;
            report.work_units += 1;
            scrub.stats.inodes_scanned += 1;
            let attr = &node.attr;
            match &node.data {
                InodeData::Regular { data, extents } => {
                    let _ = fnv1a(data);
                    scrub.stats.bytes_checksummed += data.len() as u64;
                    report.work_units += (data.len() as u64).div_ceil(4096);
                    let extent_blocks: u64 = extents.iter().map(|e| e.len).sum();
                    if extent_blocks != attr.blocks {
                        scrub.stats.errors.push(format!(
                            "ino#{ino_num}: extents cover {extent_blocks} blocks, attr says {}",
                            attr.blocks
                        ));
                    }
                    if data.len() as u64 != attr.size {
                        scrub.stats.errors.push(format!(
                            "ino#{ino_num}: payload {} bytes, attr size {}",
                            data.len(),
                            attr.size
                        ));
                    }
                    if self.blocks_for(attr.size) != attr.blocks {
                        scrub.stats.errors.push(format!(
                            "ino#{ino_num}: size {} needs {} blocks, attr says {}",
                            attr.size,
                            self.blocks_for(attr.size),
                            attr.blocks
                        ));
                    }
                }
                InodeData::Dir { index, parent } => {
                    if !self.inodes.contains_key(&parent.0) {
                        scrub
                            .stats
                            .errors
                            .push(format!("dir ino#{ino_num} has dangling parent {parent}"));
                    }
                    for e in index.iter_entries() {
                        scrub.stats.entries_verified += 1;
                        scrub.stats.bytes_checksummed += e.name.len() as u64;
                        report.work_units += 1;
                        probes += 1;
                        match self.inodes.get(&e.ino.0) {
                            None => scrub.stats.errors.push(format!(
                                "entry '{}' in ino#{ino_num} references missing {}",
                                e.name, e.ino
                            )),
                            Some(child) => {
                                if child.attr.file_type != e.file_type {
                                    scrub.stats.errors.push(format!(
                                        "entry '{}' in ino#{ino_num} has stale type",
                                        e.name
                                    ));
                                }
                            }
                        }
                    }
                }
                InodeData::Symlink { target } => {
                    let _ = fnv1a(target.as_bytes());
                    scrub.stats.bytes_checksummed += target.len() as u64;
                    if target.len() as u64 != attr.size {
                        scrub
                            .stats
                            .errors
                            .push(format!("symlink ino#{ino_num} size/target mismatch"));
                    }
                }
            }
        }
        self.cost.dir_probes(probes);
        telemetry::count("memfs.scrub.inodes", report.scanned);
        if report.wrapped {
            telemetry::count("memfs.scrub.sweeps", 1);
        }
        report
    }
}

impl Vfs for MemFs {
    fn create(&mut self, path: &str) -> FsResult<Fd> {
        self.require_writable()?;
        let p = Self::parse(path)?;
        let (dir, name) = self.resolve_parent(&p)?;
        let ino = self.create_node(
            dir,
            name.clone(),
            FileType::Regular,
            DEFAULT_FILE_MODE,
            None,
            None,
        )?;
        self.log(JournalRecord::Create {
            parent: dir,
            name,
            ino,
            file_type: FileType::Regular,
            mode: DEFAULT_FILE_MODE,
            symlink_target: None,
        });
        self.counters.creates += 1;
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.inode_mut(ino)?.open_count += 1;
        self.open_files.insert(
            fd.0,
            OpenFile {
                ino,
                pos: 0,
                flags: OpenFlags::write_only(),
            },
        );
        Ok(fd)
    }

    fn open(&mut self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        let p = Self::parse(path)?;
        let existing = match self.resolve(&p, true) {
            Ok(ino) => Some(ino),
            Err(FsError::NotFound) if flags.create => None,
            Err(e) => return Err(e),
        };
        let ino = match existing {
            Some(ino) => {
                if flags.create && flags.excl {
                    return Err(FsError::Exists);
                }
                let node = self.inode(ino)?;
                if node.attr.is_dir() && flags.write {
                    return Err(FsError::IsDir);
                }
                let attr = node.attr;
                self.check_perm(&attr, flags.read, flags.write, false)?;
                ino
            }
            None => {
                self.require_writable()?;
                let (dir, name) = self.resolve_parent(&p)?;
                let ino = self.create_node(
                    dir,
                    name.clone(),
                    FileType::Regular,
                    DEFAULT_FILE_MODE,
                    None,
                    None,
                )?;
                self.log(JournalRecord::Create {
                    parent: dir,
                    name,
                    ino,
                    file_type: FileType::Regular,
                    mode: DEFAULT_FILE_MODE,
                    symlink_target: None,
                });
                self.counters.creates += 1;
                ino
            }
        };
        if flags.truncate && flags.write {
            self.require_writable()?;
            self.resize_blocks(ino, 0)?;
            if let InodeData::Regular { data, .. } = &mut self.inode_mut(ino)?.data {
                Arc::make_mut(data).clear();
            }
            self.log(JournalRecord::SetSize { ino, size: 0 });
        }
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.inode_mut(ino)?.open_count += 1;
        let pos = if flags.append {
            self.inode(ino)?.attr.size
        } else {
            0
        };
        self.open_files.insert(fd.0, OpenFile { ino, pos, flags });
        self.counters.opens += 1;
        Ok(fd)
    }

    fn close(&mut self, fd: Fd) -> FsResult<()> {
        let of = self.open_files.remove(&fd.0).ok_or(FsError::BadHandle)?;
        let node = self.inode_mut(of.ino)?;
        node.open_count -= 1;
        // POSIX: the file is deleted only when the last directory entry is
        // gone AND the last process has closed it (paper §2.3.1).
        self.reap(of.ino);
        self.counters.closes += 1;
        Ok(())
    }

    fn write(&mut self, fd: Fd, buf: &[u8]) -> FsResult<usize> {
        self.require_writable()?;
        let of = self
            .open_files
            .get(&fd.0)
            .cloned()
            .ok_or(FsError::BadHandle)?;
        if !of.flags.write {
            return Err(FsError::BadHandle);
        }
        // O_APPEND: every write sets the position to EOF first (paper §2.6.1).
        let pos = if of.flags.append {
            self.inode(of.ino)?.attr.size
        } else {
            of.pos
        };
        let end = pos + buf.len() as u64;
        let old_size = self.inode(of.ino)?.attr.size;
        let new_size = old_size.max(end);
        if new_size != old_size {
            self.resize_blocks(of.ino, new_size)?;
        } else if new_size <= self.config.inline_max {
            self.cost.inline_write();
        }
        let now = self.tick();
        {
            let node = self.inode_mut(of.ino)?;
            if let InodeData::Regular { data, .. } = &mut node.data {
                let data = Arc::make_mut(data);
                if data.len() < end as usize {
                    data.resize(end as usize, 0); // sparse hole fills with zeros
                }
                data[pos as usize..end as usize].copy_from_slice(buf);
            } else {
                return Err(FsError::IsDir);
            }
            node.attr.mtime_ns = now;
            node.attr.ctime_ns = now;
        }
        if new_size != old_size {
            self.log(JournalRecord::SetSize {
                ino: of.ino,
                size: new_size,
            });
        }
        self.open_files.get_mut(&fd.0).expect("checked above").pos = end;
        self.counters.writes += 1;
        Ok(buf.len())
    }

    fn read(&mut self, fd: Fd, len: usize) -> FsResult<Vec<u8>> {
        let of = self
            .open_files
            .get(&fd.0)
            .cloned()
            .ok_or(FsError::BadHandle)?;
        if !of.flags.read {
            return Err(FsError::BadHandle);
        }
        let now = self.tick();
        let node = self.inode_mut(of.ino)?;
        let out = match &node.data {
            InodeData::Regular { data, .. } => {
                let start = (of.pos as usize).min(data.len());
                let end = (start + len).min(data.len());
                data[start..end].to_vec()
            }
            _ => return Err(FsError::IsDir),
        };
        node.attr.atime_ns = now;
        self.open_files.get_mut(&fd.0).expect("checked above").pos += out.len() as u64;
        self.counters.reads += 1;
        Ok(out)
    }

    fn seek(&mut self, fd: Fd, pos: u64) -> FsResult<u64> {
        let of = self.open_files.get_mut(&fd.0).ok_or(FsError::BadHandle)?;
        of.pos = pos; // seeking past EOF is legal (sparse files, §2.2.1)
        Ok(pos)
    }

    fn mkdir(&mut self, path: &str) -> FsResult<()> {
        self.require_writable()?;
        let p = Self::parse(path)?;
        let (dir, name) = self.resolve_parent(&p)?;
        let ino = self.create_node(
            dir,
            name.clone(),
            FileType::Directory,
            DEFAULT_DIR_MODE,
            None,
            None,
        )?;
        self.log(JournalRecord::Mkdir {
            parent: dir,
            name,
            ino,
            mode: DEFAULT_DIR_MODE,
        });
        self.counters.mkdirs += 1;
        Ok(())
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        self.require_writable()?;
        let p = Self::parse(path)?;
        if p.is_root() {
            return Err(FsError::NotPermitted);
        }
        let (dir, name) = self.resolve_parent(&p)?;
        let entry = self.lookup_entry(dir, &name)?.ok_or(FsError::NotFound)?;
        if entry.file_type != FileType::Directory {
            return Err(FsError::NotDir);
        }
        if !self.dir_index(entry.ino)?.is_empty() {
            return Err(FsError::NotEmpty);
        }
        let dir_attr = self.inode(dir)?.attr;
        self.check_perm(&dir_attr, false, true, true)?;
        self.remove_entry(dir, &name)?;
        self.inodes.remove(&entry.ino.0);
        let now = self.tick();
        let parent = self.inode_mut(dir)?;
        parent.attr.nlink -= 1;
        parent.attr.mtime_ns = now;
        self.log(JournalRecord::Rmdir { parent: dir, name });
        self.counters.rmdirs += 1;
        Ok(())
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.require_writable()?;
        let p = Self::parse(path)?;
        let (dir, name) = self.resolve_parent(&p)?;
        let entry = self.lookup_entry(dir, &name)?.ok_or(FsError::NotFound)?;
        if entry.file_type == FileType::Directory {
            return Err(FsError::IsDir);
        }
        let dir_attr = self.inode(dir)?.attr;
        self.check_perm(&dir_attr, false, true, true)?;
        self.remove_entry(dir, &name)?;
        let now = self.tick();
        {
            let node = self.inode_mut(entry.ino)?;
            node.attr.nlink -= 1;
            node.attr.ctime_ns = now;
        }
        self.inode_mut(dir)?.attr.mtime_ns = now;
        self.reap(entry.ino);
        self.log(JournalRecord::Unlink { parent: dir, name });
        self.counters.unlinks += 1;
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        self.require_writable()?;
        let pf = Self::parse(from)?;
        let pt = Self::parse(to)?;
        if pf.is_root() || pt.is_root() {
            return Err(FsError::InvalidArgument);
        }
        if pf == pt {
            // renaming a name onto itself is a no-op, but only if it exists
            let (dir, name) = self.resolve_parent(&pf)?;
            self.lookup_entry(dir, &name)?.ok_or(FsError::NotFound)?;
            return Ok(());
        }
        let (from_dir, from_name) = self.resolve_parent(&pf)?;
        let (to_dir, to_name) = self.resolve_parent(&pt)?;
        let src = self
            .lookup_entry(from_dir, &from_name)?
            .ok_or(FsError::NotFound)?;
        let src_is_dir = src.file_type == FileType::Directory;
        // cannot move a directory into its own subtree
        if pt.starts_with(&pf) {
            return Err(FsError::InvalidArgument);
        }
        if let Some(dst) = self.lookup_entry(to_dir, &to_name)? {
            if dst.ino == src.ino {
                return Ok(()); // hardlinks to the same inode: no-op
            }
            match (src_is_dir, dst.file_type == FileType::Directory) {
                (true, false) => return Err(FsError::NotDir),
                (false, true) => return Err(FsError::IsDir),
                (true, true) => {
                    if !self.dir_index(dst.ino)?.is_empty() {
                        return Err(FsError::NotEmpty);
                    }
                    self.remove_entry(to_dir, &to_name)?;
                    self.inodes.remove(&dst.ino.0);
                    self.inode_mut(to_dir)?.attr.nlink -= 1;
                }
                (false, false) => {
                    self.remove_entry(to_dir, &to_name)?;
                    let node = self.inode_mut(dst.ino)?;
                    node.attr.nlink -= 1;
                    self.reap(dst.ino);
                }
            }
        }
        self.remove_entry(from_dir, &from_name)?;
        self.insert_entry(
            to_dir,
            RawEntry {
                name: to_name.clone(),
                ino: src.ino,
                file_type: src.file_type,
            },
        )?;
        if src_is_dir && from_dir != to_dir {
            self.inode_mut(from_dir)?.attr.nlink -= 1;
            self.inode_mut(to_dir)?.attr.nlink += 1;
            if let InodeData::Dir { parent, .. } = &mut self.inode_mut(src.ino)?.data {
                *parent = to_dir;
            }
        }
        let now = self.tick();
        self.inode_mut(from_dir)?.attr.mtime_ns = now;
        self.inode_mut(to_dir)?.attr.mtime_ns = now;
        self.log(JournalRecord::Rename {
            from_parent: from_dir,
            from_name,
            to_parent: to_dir,
            to_name,
        });
        self.counters.renames += 1;
        Ok(())
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        self.require_writable()?;
        let pe = Self::parse(existing)?;
        let pn = Self::parse(new)?;
        let ino = self.resolve(&pe, false)?;
        let node = self.inode(ino)?;
        if node.attr.is_dir() {
            return Err(FsError::NotPermitted); // no hardlinks to directories
        }
        if node.attr.nlink >= LINK_MAX {
            return Err(FsError::TooManyLinks);
        }
        let file_type = node.attr.file_type;
        let (dir, name) = self.resolve_parent(&pn)?;
        self.insert_entry(
            dir,
            RawEntry {
                name: name.clone(),
                ino,
                file_type,
            },
        )?;
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        node.attr.nlink += 1;
        node.attr.ctime_ns = now;
        self.log(JournalRecord::Link {
            parent: dir,
            name,
            target: ino,
        });
        self.counters.links += 1;
        Ok(())
    }

    fn symlink(&mut self, target: &str, linkpath: &str) -> FsResult<()> {
        self.require_writable()?;
        let p = Self::parse(linkpath)?;
        let (dir, name) = self.resolve_parent(&p)?;
        let target: Arc<str> = Arc::from(target);
        let ino = self.create_node(
            dir,
            name.clone(),
            FileType::Symlink,
            0o777,
            Some(target.clone()),
            None,
        )?;
        self.log(JournalRecord::Create {
            parent: dir,
            name,
            ino,
            file_type: FileType::Symlink,
            mode: 0o777,
            symlink_target: Some(target),
        });
        self.counters.symlinks += 1;
        Ok(())
    }

    fn readlink(&mut self, path: &str) -> FsResult<String> {
        let p = Self::parse(path)?;
        let ino = self.resolve(&p, false)?;
        match &self.inode(ino)?.data {
            InodeData::Symlink { target } => Ok(target.to_string()),
            _ => Err(FsError::InvalidArgument),
        }
    }

    fn stat(&mut self, path: &str) -> FsResult<FileAttr> {
        let p = Self::parse(path)?;
        let ino = self.resolve(&p, true)?;
        self.counters.stats += 1;
        Ok(self.inode(ino)?.attr)
    }

    fn lstat(&mut self, path: &str) -> FsResult<FileAttr> {
        let p = Self::parse(path)?;
        let ino = self.resolve(&p, false)?;
        self.counters.stats += 1;
        Ok(self.inode(ino)?.attr)
    }

    fn fstat(&mut self, fd: Fd) -> FsResult<FileAttr> {
        let of = self.open_files.get(&fd.0).ok_or(FsError::BadHandle)?;
        let ino = of.ino;
        self.counters.stats += 1;
        Ok(self.inode(ino)?.attr)
    }

    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
        let p = Self::parse(path)?;
        let ino = self.resolve(&p, true)?;
        let node = self.inode(ino)?;
        let attr = node.attr;
        self.check_perm(&attr, true, false, false)?;
        // Borrowed iteration over the index (no per-readdir Vec<RawEntry>
        // clone); DirEntry names are materialized directly.
        let (entries, parent) = match &node.data {
            InodeData::Dir { index, parent } => {
                let dir_entries: Vec<DirEntry> = index
                    .iter_entries()
                    .map(|e| DirEntry {
                        name: e.name.to_string(),
                        ino: e.ino,
                        file_type: e.file_type,
                    })
                    .collect();
                (dir_entries, *parent)
            }
            _ => return Err(FsError::NotDir),
        };
        self.cost.dir_probes(entries.len() as u64);
        let mut out = Vec::with_capacity(entries.len() + 2);
        out.push(DirEntry {
            name: ".".to_owned(),
            ino,
            file_type: FileType::Directory,
        });
        out.push(DirEntry {
            name: "..".to_owned(),
            ino: parent,
            file_type: FileType::Directory,
        });
        out.extend(entries);
        self.counters.readdirs += 1;
        Ok(out)
    }

    fn chmod(&mut self, path: &str, mode: Mode) -> FsResult<()> {
        self.require_writable()?;
        let p = Self::parse(path)?;
        let ino = self.resolve(&p, true)?;
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        node.attr.mode = mode & 0o7777;
        node.attr.ctime_ns = now;
        self.log(JournalRecord::SetAttr {
            ino,
            mode: Some(mode & 0o7777),
            uid: None,
            gid: None,
            times_ns: None,
        });
        self.counters.setattrs += 1;
        Ok(())
    }

    fn chown(&mut self, path: &str, uid: u32, gid: u32) -> FsResult<()> {
        self.require_writable()?;
        let p = Self::parse(path)?;
        let ino = self.resolve(&p, true)?;
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        node.attr.uid = uid;
        node.attr.gid = gid;
        node.attr.ctime_ns = now;
        self.log(JournalRecord::SetAttr {
            ino,
            mode: None,
            uid: Some(uid),
            gid: Some(gid),
            times_ns: None,
        });
        self.counters.setattrs += 1;
        Ok(())
    }

    fn utimes(&mut self, path: &str, atime_ns: u64, mtime_ns: u64) -> FsResult<()> {
        self.require_writable()?;
        let p = Self::parse(path)?;
        let ino = self.resolve(&p, true)?;
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        node.attr.atime_ns = atime_ns;
        node.attr.mtime_ns = mtime_ns;
        node.attr.ctime_ns = now;
        self.log(JournalRecord::SetAttr {
            ino,
            mode: None,
            uid: None,
            gid: None,
            times_ns: Some((atime_ns, mtime_ns)),
        });
        self.counters.setattrs += 1;
        Ok(())
    }

    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        self.require_writable()?;
        let p = Self::parse(path)?;
        let ino = self.resolve(&p, true)?;
        if self.inode(ino)?.attr.is_dir() {
            return Err(FsError::IsDir);
        }
        self.resize_blocks(ino, size)?;
        if let InodeData::Regular { data, .. } = &mut self.inode_mut(ino)?.data {
            Arc::make_mut(data).resize(size as usize, 0);
        }
        self.log(JournalRecord::SetSize { ino, size });
        Ok(())
    }

    fn fsync(&mut self, fd: Fd) -> FsResult<()> {
        if !self.open_files.contains_key(&fd.0) {
            return Err(FsError::BadHandle);
        }
        self.journal.commit();
        self.cost.journal_commit();
        self.counters.fsyncs += 1;
        Ok(())
    }

    fn drop_caches(&mut self) -> FsResult<()> {
        // MemFs has no separate cache layer; the distributed models in the
        // `dfs` crate implement real cache dropping (paper §3.4.3).
        Ok(())
    }

    fn listxattr(&mut self, path: &str) -> FsResult<Vec<String>> {
        let p = Self::parse(path)?;
        let ino = self.resolve(&p, true)?;
        Ok(self.inode(ino)?.xattrs.keys().cloned().collect())
    }

    fn getxattr(&mut self, path: &str, key: &str) -> FsResult<Vec<u8>> {
        let p = Self::parse(path)?;
        let ino = self.resolve(&p, true)?;
        self.inode(ino)?
            .xattrs
            .get(key)
            .cloned()
            .ok_or(FsError::NotFound)
    }

    fn setxattr(&mut self, path: &str, key: &str, value: &[u8]) -> FsResult<()> {
        self.require_writable()?;
        let p = Self::parse(path)?;
        let ino = self.resolve(&p, true)?;
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        Arc::make_mut(&mut node.xattrs).insert(key.to_owned(), value.to_vec());
        node.attr.ctime_ns = now;
        self.log(JournalRecord::SetXattr {
            ino,
            key: key.to_owned(),
            value: Some(value.to_vec()),
        });
        self.counters.setattrs += 1;
        Ok(())
    }

    fn removexattr(&mut self, path: &str, key: &str) -> FsResult<()> {
        self.require_writable()?;
        let p = Self::parse(path)?;
        let ino = self.resolve(&p, true)?;
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        if Arc::make_mut(&mut node.xattrs).remove(key).is_none() {
            return Err(FsError::NotFound);
        }
        node.attr.ctime_ns = now;
        self.log(JournalRecord::SetXattr {
            ino,
            key: key.to_owned(),
            value: None,
        });
        self.counters.setattrs += 1;
        Ok(())
    }

    fn fs_stats(&mut self) -> FsResult<FsStats> {
        Ok(self.stats())
    }

    fn name(&self) -> &str {
        "memfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> MemFs {
        MemFs::new()
    }

    #[test]
    fn create_stat_roundtrip() {
        let mut f = fs();
        let fd = f.create("/a.txt").unwrap();
        f.close(fd).unwrap();
        let st = f.stat("/a.txt").unwrap();
        assert_eq!(st.file_type, FileType::Regular);
        assert_eq!(st.size, 0);
        assert_eq!(st.nlink, 1);
    }

    #[test]
    fn duplicate_create_fails() {
        let mut f = fs();
        let fd = f.create("/a").unwrap();
        f.close(fd).unwrap();
        assert_eq!(f.create("/a").unwrap_err(), FsError::Exists);
    }

    #[test]
    fn mkdir_rmdir() {
        let mut f = fs();
        f.mkdir("/d").unwrap();
        assert!(f.stat("/d").unwrap().is_dir());
        assert_eq!(f.stat("/").unwrap().nlink, 3);
        f.rmdir("/d").unwrap();
        assert_eq!(f.stat("/d").unwrap_err(), FsError::NotFound);
        assert_eq!(f.stat("/").unwrap().nlink, 2);
    }

    #[test]
    fn rmdir_nonempty_fails() {
        let mut f = fs();
        f.mkdir("/d").unwrap();
        let fd = f.create("/d/x").unwrap();
        f.close(fd).unwrap();
        assert_eq!(f.rmdir("/d").unwrap_err(), FsError::NotEmpty);
        f.unlink("/d/x").unwrap();
        f.rmdir("/d").unwrap();
    }

    #[test]
    fn write_read_seek() {
        let mut f = fs();
        let fd = f.create("/a").unwrap();
        assert_eq!(f.write(fd, b"hello world").unwrap(), 11);
        f.close(fd).unwrap();
        let fd = f.open("/a", OpenFlags::read_only()).unwrap();
        assert_eq!(f.read(fd, 5).unwrap(), b"hello");
        f.seek(fd, 6).unwrap();
        assert_eq!(f.read(fd, 100).unwrap(), b"world");
        f.close(fd).unwrap();
    }

    #[test]
    fn sparse_write_fills_zeros() {
        let mut f = fs();
        let fd = f.create("/a").unwrap();
        f.seek(fd, 10).unwrap();
        f.write(fd, b"x").unwrap();
        f.close(fd).unwrap();
        let fd = f.open("/a", OpenFlags::read_only()).unwrap();
        let data = f.read(fd, 11).unwrap();
        assert_eq!(&data[..10], &[0u8; 10]);
        assert_eq!(data[10], b'x');
    }

    #[test]
    fn append_mode_writes_at_eof() {
        let mut f = fs();
        let fd = f.create("/a").unwrap();
        f.write(fd, b"abc").unwrap();
        f.close(fd).unwrap();
        let mut flags = OpenFlags::write_only();
        flags.append = true;
        let fd = f.open("/a", flags).unwrap();
        f.seek(fd, 0).unwrap(); // append ignores the position
        f.write(fd, b"def").unwrap();
        f.close(fd).unwrap();
        assert_eq!(f.stat("/a").unwrap().size, 6);
    }

    #[test]
    fn unlink_while_open_keeps_file_alive() {
        let mut f = fs();
        let fd = f.create("/tmpfile").unwrap();
        f.write(fd, b"data").unwrap();
        f.unlink("/tmpfile").unwrap();
        assert_eq!(f.stat("/tmpfile").unwrap_err(), FsError::NotFound);
        // still readable through the fd
        f.seek(fd, 0).unwrap();
        // fd was opened write-only via create; fstat still works
        assert_eq!(f.fstat(fd).unwrap().nlink, 0);
        let before = f.inodes.len();
        f.close(fd).unwrap();
        assert_eq!(f.inodes.len(), before - 1, "inode reaped on last close");
    }

    #[test]
    fn inline_files_use_no_blocks() {
        let mut f = fs(); // inline_max = 64
        let fd = f.create("/small").unwrap();
        f.write(fd, &[0u8; 64]).unwrap();
        f.close(fd).unwrap();
        assert_eq!(f.stat("/small").unwrap().blocks, 0, "64 B fits inline");
        let fd = f.create("/big").unwrap();
        f.write(fd, &[0u8; 65]).unwrap();
        f.close(fd).unwrap();
        assert_eq!(f.stat("/big").unwrap().blocks, 1, "65 B needs a block");
    }

    #[test]
    fn rename_basic_and_replace() {
        let mut f = fs();
        let fd = f.create("/a").unwrap();
        f.write(fd, b"A").unwrap();
        f.close(fd).unwrap();
        f.rename("/a", "/b").unwrap();
        assert_eq!(f.stat("/a").unwrap_err(), FsError::NotFound);
        assert_eq!(f.stat("/b").unwrap().size, 1);
        // replace an existing target atomically
        let fd = f.create("/c").unwrap();
        f.close(fd).unwrap();
        f.rename("/b", "/c").unwrap();
        assert_eq!(f.stat("/c").unwrap().size, 1);
    }

    #[test]
    fn rename_onto_itself_needs_the_name() {
        let mut f = fs();
        assert_eq!(f.rename("/a", "/a").unwrap_err(), FsError::NotFound);
        let fd = f.create("/a").unwrap();
        f.close(fd).unwrap();
        f.rename("/a", "/a").unwrap();
        assert_eq!(f.stat("/a").unwrap().nlink, 1);
    }

    #[test]
    fn rename_dir_onto_nonempty_dir_fails() {
        let mut f = fs();
        f.mkdir("/a").unwrap();
        f.mkdir("/b").unwrap();
        let fd = f.create("/b/x").unwrap();
        f.close(fd).unwrap();
        assert_eq!(f.rename("/a", "/b").unwrap_err(), FsError::NotEmpty);
        f.unlink("/b/x").unwrap();
        f.rename("/a", "/b").unwrap();
    }

    #[test]
    fn rename_into_own_subtree_fails() {
        let mut f = fs();
        f.mkdir("/a").unwrap();
        f.mkdir("/a/b").unwrap();
        assert_eq!(
            f.rename("/a", "/a/b/c").unwrap_err(),
            FsError::InvalidArgument
        );
    }

    #[test]
    fn rename_moves_dir_nlink_and_parent() {
        let mut f = fs();
        f.mkdir("/a").unwrap();
        f.mkdir("/b").unwrap();
        f.mkdir("/a/sub").unwrap();
        assert_eq!(f.stat("/a").unwrap().nlink, 3);
        f.rename("/a/sub", "/b/sub").unwrap();
        assert_eq!(f.stat("/a").unwrap().nlink, 2);
        assert_eq!(f.stat("/b").unwrap().nlink, 3);
        let entries = f.readdir("/b/sub").unwrap();
        let dotdot = entries.iter().find(|e| e.name == "..").unwrap();
        assert_eq!(dotdot.ino, f.stat("/b").unwrap().ino);
        assert!(f.check().is_empty(), "{:?}", f.check());
    }

    #[test]
    fn hardlinks_share_inode() {
        let mut f = fs();
        let fd = f.create("/a").unwrap();
        f.write(fd, b"xy").unwrap();
        f.close(fd).unwrap();
        f.link("/a", "/b").unwrap();
        let sa = f.stat("/a").unwrap();
        let sb = f.stat("/b").unwrap();
        assert_eq!(sa.ino, sb.ino);
        assert_eq!(sa.nlink, 2);
        f.unlink("/a").unwrap();
        assert_eq!(f.stat("/b").unwrap().nlink, 1);
        assert_eq!(f.stat("/b").unwrap().size, 2);
    }

    #[test]
    fn hardlink_to_directory_forbidden() {
        let mut f = fs();
        f.mkdir("/d").unwrap();
        assert_eq!(f.link("/d", "/d2").unwrap_err(), FsError::NotPermitted);
    }

    #[test]
    fn symlink_resolution() {
        let mut f = fs();
        f.mkdir("/real").unwrap();
        let fd = f.create("/real/file").unwrap();
        f.close(fd).unwrap();
        f.symlink("/real", "/lnk").unwrap();
        assert_eq!(f.stat("/lnk/file").unwrap().file_type, FileType::Regular);
        assert!(f.lstat("/lnk").unwrap().is_symlink());
        assert_eq!(f.readlink("/lnk").unwrap(), "/real");
        // relative symlink
        f.symlink("real/file", "/rel").unwrap();
        assert_eq!(f.stat("/rel").unwrap().file_type, FileType::Regular);
    }

    #[test]
    fn symlink_loop_detected() {
        let mut f = fs();
        f.symlink("/b", "/a").unwrap();
        f.symlink("/a", "/b").unwrap();
        assert_eq!(f.stat("/a").unwrap_err(), FsError::SymlinkLoop);
    }

    #[test]
    fn dangling_symlink_stat_fails_but_lstat_works() {
        let mut f = fs();
        f.symlink("/nowhere", "/dangling").unwrap();
        assert_eq!(f.stat("/dangling").unwrap_err(), FsError::NotFound);
        assert!(f.lstat("/dangling").unwrap().is_symlink());
    }

    #[test]
    fn readdir_includes_dot_entries() {
        let mut f = fs();
        f.mkdir("/d").unwrap();
        let fd = f.create("/d/x").unwrap();
        f.close(fd).unwrap();
        let entries = f.readdir("/d").unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(&names[..2], &[".", ".."]);
        assert!(names.contains(&"x"));
        // root's dot-dot points to itself
        let root = f.readdir("/").unwrap();
        assert_eq!(root[0].ino, root[1].ino);
    }

    #[test]
    fn chmod_chown_utimes() {
        let mut f = fs();
        let fd = f.create("/a").unwrap();
        f.close(fd).unwrap();
        f.chmod("/a", 0o600).unwrap();
        assert_eq!(f.stat("/a").unwrap().mode, 0o600);
        f.chown("/a", 42, 43).unwrap();
        let st = f.stat("/a").unwrap();
        assert_eq!((st.uid, st.gid), (42, 43));
        f.utimes("/a", 111, 222).unwrap();
        let st = f.stat("/a").unwrap();
        assert_eq!((st.atime_ns, st.mtime_ns), (111, 222));
    }

    #[test]
    fn permission_checks_on_path() {
        let mut cfg = MemFsConfig::default();
        cfg.check_permissions = true;
        let mut f = MemFs::with_config(cfg);
        (f.uid, f.gid) = (0, 0);
        f.mkdir("/locked").unwrap();
        let fd = f.create("/locked/secret").unwrap();
        f.close(fd).unwrap();
        f.chmod("/locked", 0o600).unwrap(); // no x bit
        (f.uid, f.gid) = (1000, 1000);
        assert_eq!(
            f.stat("/locked/secret").unwrap_err(),
            FsError::PermissionDenied,
            "x-permission needed on every path component"
        );
    }

    #[test]
    fn truncate_grows_and_shrinks() {
        let mut f = fs();
        let fd = f.create("/a").unwrap();
        f.write(fd, &[7u8; 10_000]).unwrap();
        f.close(fd).unwrap();
        let blocks = f.stat("/a").unwrap().blocks;
        assert_eq!(blocks, 3); // 10000 / 4096 → 3 blocks
        f.truncate("/a", 100_000).unwrap();
        assert_eq!(f.stat("/a").unwrap().blocks, 25);
        f.truncate("/a", 10).unwrap();
        assert_eq!(f.stat("/a").unwrap().blocks, 0, "back to inline");
        assert_eq!(f.stat("/a").unwrap().size, 10);
        assert!(f.check().is_empty(), "{:?}", f.check());
    }

    #[test]
    fn read_only_fs_rejects_mutations() {
        let mut cfg = MemFsConfig::default();
        cfg.read_only = true;
        let mut f = MemFs::with_config(cfg);
        assert_eq!(f.mkdir("/d").unwrap_err(), FsError::ReadOnly);
        assert_eq!(f.create("/a").unwrap_err(), FsError::ReadOnly);
    }

    #[test]
    fn snapshot_is_immutable_point_in_time() {
        let mut f = fs();
        let fd = f.create("/a").unwrap();
        f.close(fd).unwrap();
        f.snapshot_create("snap1").unwrap();
        f.unlink("/a").unwrap();
        let fd = f.create("/b").unwrap();
        f.close(fd).unwrap();
        let mut snap = f.snapshot_open("snap1").unwrap();
        assert!(snap.stat("/a").is_ok(), "snapshot still sees /a");
        assert_eq!(snap.stat("/b").unwrap_err(), FsError::NotFound);
        assert_eq!(snap.unlink("/a").unwrap_err(), FsError::ReadOnly);
        assert_eq!(f.snapshot_names().collect::<Vec<_>>(), vec!["snap1"]);
        assert_eq!(f.snapshot_create("snap1").unwrap_err(), FsError::Exists);
        f.snapshot_delete("snap1").unwrap();
        assert_eq!(f.snapshot_open("snap1").unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn crash_replays_committed_operations() {
        let mut cfg = MemFsConfig::default();
        cfg.journal_mode = JournalMode::Sync;
        let mut f = MemFs::with_config(cfg);
        f.checkpoint();
        f.mkdir("/d").unwrap();
        let fd = f.create("/d/file").unwrap();
        f.close(fd).unwrap();
        let replayed = f.crash_and_recover();
        assert!(replayed >= 2);
        assert_eq!(
            f.stat("/d/file").unwrap().file_type,
            FileType::Regular,
            "sync journal preserved all"
        );
        assert!(f.check().is_empty(), "{:?}", f.check());
    }

    #[test]
    fn crash_loses_volatile_async_records() {
        let mut cfg = MemFsConfig::default();
        cfg.journal_mode = JournalMode::Async;
        cfg.commit_every = 1_000_000; // never auto-commit
        let mut f = MemFs::with_config(cfg);
        f.checkpoint();
        f.mkdir("/kept").unwrap();
        let fd = f.open("/kept/x", OpenFlags::write_create()).unwrap();
        f.fsync(fd).unwrap(); // commits everything so far
        f.close(fd).unwrap();
        f.mkdir("/lost").unwrap(); // volatile
        f.crash_and_recover();
        assert!(f.stat("/kept/x").is_ok());
        assert_eq!(f.stat("/lost").unwrap_err(), FsError::NotFound);
        assert!(f.check().is_empty(), "{:?}", f.check());
    }

    #[test]
    fn cost_meter_reports_work() {
        let mut cfg = MemFsConfig::default();
        cfg.dir_index = DirIndexKind::Linear;
        let mut f = MemFs::with_config(cfg);
        for i in 0..100 {
            let fd = f.create(&format!("/f{i}")).unwrap();
            f.close(fd).unwrap();
        }
        f.take_cost();
        f.stat("/f99").unwrap();
        let c = f.take_cost();
        assert!(c.dir_probes >= 100, "linear scan probes: {}", c.dir_probes);
        assert_eq!(c.components_resolved, 1);
    }

    #[test]
    fn counters_track_ops() {
        let mut f = fs();
        let fd = f.create("/a").unwrap();
        f.close(fd).unwrap();
        f.stat("/a").unwrap();
        f.unlink("/a").unwrap();
        let c = f.counters();
        assert_eq!(c.creates, 1);
        assert_eq!(c.closes, 1);
        assert_eq!(c.stats, 1);
        assert_eq!(c.unlinks, 1);
    }

    #[test]
    fn max_inodes_enforced() {
        let mut cfg = MemFsConfig::default();
        cfg.max_inodes = Some(3); // root + 2
        let mut f = MemFs::with_config(cfg);
        let fd = f.create("/a").unwrap();
        f.close(fd).unwrap();
        let fd = f.create("/b").unwrap();
        f.close(fd).unwrap();
        assert_eq!(f.create("/c").unwrap_err(), FsError::NoSpace);
    }

    #[test]
    fn open_excl_semantics() {
        let mut f = fs();
        let mut flags = OpenFlags::write_create();
        flags.excl = true;
        let fd = f.open("/a", flags).unwrap();
        f.close(fd).unwrap();
        assert_eq!(f.open("/a", flags).unwrap_err(), FsError::Exists);
    }

    #[test]
    fn open_truncate_clears_data() {
        let mut f = fs();
        let fd = f.create("/a").unwrap();
        f.write(fd, b"0123456789").unwrap();
        f.close(fd).unwrap();
        let mut flags = OpenFlags::write_create();
        flags.truncate = true;
        let fd = f.open("/a", flags).unwrap();
        f.close(fd).unwrap();
        assert_eq!(f.stat("/a").unwrap().size, 0);
    }

    #[test]
    fn check_clean_after_workload() {
        let mut f = fs();
        f.mkdir("/a").unwrap();
        f.mkdir("/a/b").unwrap();
        for i in 0..50 {
            let fd = f.create(&format!("/a/b/f{i}")).unwrap();
            f.write(fd, &vec![1u8; i * 100]).unwrap();
            f.close(fd).unwrap();
        }
        for i in 0..25 {
            f.unlink(&format!("/a/b/f{i}")).unwrap();
        }
        f.symlink("/a/b", "/s").unwrap();
        f.link("/a/b/f30", "/a/hard").unwrap();
        f.rename("/a/b/f31", "/a/renamed").unwrap();
        assert!(f.check().is_empty(), "{:?}", f.check());
    }

    #[test]
    fn stats_report_usage() {
        let mut f = fs();
        let before = f.stats();
        let fd = f.create("/big").unwrap();
        f.write(fd, &vec![0u8; 4096 * 10]).unwrap();
        f.close(fd).unwrap();
        let after = f.stats();
        assert_eq!(before.free_blocks - after.free_blocks, 10);
        assert_eq!(after.inodes_used, 2);
    }

    #[test]
    fn fstat_and_bad_handles() {
        let mut f = fs();
        assert_eq!(f.close(Fd(999)).unwrap_err(), FsError::BadHandle);
        assert_eq!(f.fstat(Fd(999)).unwrap_err(), FsError::BadHandle);
        assert_eq!(f.read(Fd(999), 1).unwrap_err(), FsError::BadHandle);
        let fd = f.create("/a").unwrap();
        assert_eq!(
            f.read(fd, 1).unwrap_err(),
            FsError::BadHandle,
            "write-only fd"
        );
    }

    #[test]
    fn write_to_read_only_fd_fails() {
        let mut f = fs();
        let fd = f.create("/a").unwrap();
        f.close(fd).unwrap();
        let fd = f.open("/a", OpenFlags::read_only()).unwrap();
        assert_eq!(f.write(fd, b"x").unwrap_err(), FsError::BadHandle);
    }

    #[test]
    fn stat_on_missing_intermediate_component() {
        let mut f = fs();
        let fd = f.create("/file").unwrap();
        f.close(fd).unwrap();
        assert_eq!(f.stat("/file/sub").unwrap_err(), FsError::NotDir);
        assert_eq!(f.stat("/nope/sub").unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn xattrs_survive_crash_with_sync_journal() {
        let mut cfg = MemFsConfig::default();
        cfg.journal_mode = JournalMode::Sync;
        let mut f = MemFs::with_config(cfg);
        f.checkpoint();
        let fd = f.create("/a").unwrap();
        f.close(fd).unwrap();
        f.setxattr("/a", "user.k", b"v1").unwrap();
        f.setxattr("/a", "user.gone", b"x").unwrap();
        f.removexattr("/a", "user.gone").unwrap();
        f.crash_and_recover();
        assert_eq!(f.getxattr("/a", "user.k").unwrap(), b"v1");
        assert_eq!(
            f.getxattr("/a", "user.gone").unwrap_err(),
            FsError::NotFound
        );
        assert!(f.check().is_empty(), "{:?}", f.check());
    }

    #[test]
    fn xattr_roundtrip() {
        let mut f = fs();
        let fd = f.create("/a").unwrap();
        f.close(fd).unwrap();
        f.setxattr("/a", "user.color", b"blue").unwrap();
        f.setxattr("/a", "user.size", b"42").unwrap();
        assert_eq!(f.getxattr("/a", "user.color").unwrap(), b"blue");
        assert_eq!(
            f.listxattr("/a").unwrap(),
            vec!["user.color".to_owned(), "user.size".to_owned()]
        );
        f.removexattr("/a", "user.color").unwrap();
        assert_eq!(
            f.getxattr("/a", "user.color").unwrap_err(),
            FsError::NotFound
        );
        assert_eq!(
            f.removexattr("/a", "user.color").unwrap_err(),
            FsError::NotFound
        );
        // overwrite keeps a single key
        f.setxattr("/a", "user.size", b"43").unwrap();
        assert_eq!(f.getxattr("/a", "user.size").unwrap(), b"43");
        assert_eq!(f.listxattr("/a").unwrap().len(), 1);
    }

    #[test]
    fn xattrs_survive_hardlinks_but_not_other_files() {
        let mut f = fs();
        let fd = f.create("/a").unwrap();
        f.close(fd).unwrap();
        f.setxattr("/a", "k", b"v").unwrap();
        f.link("/a", "/b").unwrap();
        assert_eq!(f.getxattr("/b", "k").unwrap(), b"v", "same inode");
        let fd = f.create("/c").unwrap();
        f.close(fd).unwrap();
        assert_eq!(f.getxattr("/c", "k").unwrap_err(), FsError::NotFound);
    }
}
