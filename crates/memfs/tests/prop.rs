//! Property-based tests: the three directory indexes are observationally
//! equivalent, allocators conserve blocks, the journal replays cleanly, and
//! `MemFs` stays consistent under random operation sequences.

use proptest::prelude::*;

use memfs::{
    new_allocator, new_index, AllocatorKind, DirIndexKind, FileType, FsError, FsPath, Ino,
    JournalMode, MemFs, MemFsConfig, RawEntry, Vfs,
};

// ---------------------------------------------------------------------------
// Directory-index equivalence
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum DirOp {
    Insert(u8),
    Remove(u8),
    Lookup(u8),
}

fn dir_op() -> impl Strategy<Value = DirOp> {
    prop_oneof![
        (0u8..40).prop_map(DirOp::Insert),
        (0u8..40).prop_map(DirOp::Remove),
        (0u8..40).prop_map(DirOp::Lookup),
    ]
}

proptest! {
    /// Linear, hashed and B-tree directories agree on every observable
    /// result of every operation sequence.
    #[test]
    fn dir_indexes_equivalent(ops in prop::collection::vec(dir_op(), 1..200)) {
        let mut indexes = [
            new_index(DirIndexKind::Linear),
            new_index(DirIndexKind::Hashed),
            new_index(DirIndexKind::BTree),
        ];
        for (seq, op) in ops.iter().enumerate() {
            match op {
                DirOp::Insert(n) => {
                    let entry = RawEntry {
                        name: format!("f{n}").into(),
                        ino: Ino(seq as u64 + 100),
                        file_type: FileType::Regular,
                    };
                    let results: Vec<bool> =
                        indexes.iter_mut().map(|d| d.insert(entry.clone()).value).collect();
                    prop_assert!(results.windows(2).all(|w| w[0] == w[1]), "insert divergence");
                }
                DirOp::Remove(n) => {
                    let name = format!("f{n}");
                    let results: Vec<Option<Ino>> = indexes
                        .iter_mut()
                        .map(|d| d.remove(&name).value.map(|e| e.ino))
                        .collect();
                    prop_assert!(results.windows(2).all(|w| w[0] == w[1]), "remove divergence");
                }
                DirOp::Lookup(n) => {
                    let name = format!("f{n}");
                    let results: Vec<Option<Ino>> = indexes
                        .iter_mut()
                        .map(|d| d.lookup(&name).value.map(|e| e.ino))
                        .collect();
                    prop_assert!(results.windows(2).all(|w| w[0] == w[1]), "lookup divergence");
                }
            }
            let lens: Vec<usize> = indexes.iter().map(|d| d.len()).collect();
            prop_assert!(lens.windows(2).all(|w| w[0] == w[1]), "len divergence");
        }
        // entry sets agree
        let mut sets: Vec<Vec<String>> = indexes
            .iter()
            .map(|d| {
                let mut v: Vec<String> =
                    d.entries().into_iter().map(|e| e.name.to_string()).collect();
                v.sort();
                v
            })
            .collect();
        let first = sets.remove(0);
        for s in sets {
            prop_assert_eq!(&s, &first);
        }
    }

    /// Allocators never double-allocate and freeing restores capacity.
    #[test]
    fn allocators_conserve_blocks(
        kind in prop_oneof![Just(AllocatorKind::Bitmap), Just(AllocatorKind::Extent)],
        requests in prop::collection::vec(1u64..64, 1..50),
    ) {
        let total: u64 = 4096;
        let mut a = new_allocator(kind, total);
        let mut live: Vec<Vec<memfs::Extent>> = Vec::new();
        let mut owned = std::collections::HashSet::new();
        for (i, &req) in requests.iter().enumerate() {
            match a.allocate(req) {
                Ok(alloc) => {
                    let granted: u64 = alloc.extents.iter().map(|e| e.len).sum();
                    prop_assert_eq!(granted, req);
                    for e in &alloc.extents {
                        for b in e.start..e.start + e.len {
                            prop_assert!(b < total, "block {b} out of range");
                            prop_assert!(owned.insert(b), "double-allocated block {b}");
                        }
                    }
                    live.push(alloc.extents);
                }
                Err(FsError::NoSpace) => {}
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
            // periodically free one allocation
            if i % 3 == 2 && !live.is_empty() {
                let freed = live.swap_remove(i % live.len());
                for e in &freed {
                    for b in e.start..e.start + e.len {
                        owned.remove(&b);
                    }
                }
                a.free(&freed);
            }
            prop_assert_eq!(a.free_blocks(), total - owned.len() as u64);
        }
        for alloc in live {
            a.free(&alloc);
        }
        prop_assert_eq!(a.free_blocks(), total);
        prop_assert_eq!(a.fragments(), 1);
    }
}

// ---------------------------------------------------------------------------
// MemFs consistency under random operation sequences
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum FsOp {
    Create(u8),
    Unlink(u8),
    Mkdir(u8),
    Rmdir(u8),
    Rename(u8, u8),
    Link(u8, u8),
    WriteGrow(u8, u16),
    Truncate(u8, u16),
    Stat(u8),
}

fn fs_op() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        (0u8..30).prop_map(FsOp::Create),
        (0u8..30).prop_map(FsOp::Unlink),
        (0u8..8).prop_map(FsOp::Mkdir),
        (0u8..8).prop_map(FsOp::Rmdir),
        (0u8..30, 0u8..30).prop_map(|(a, b)| FsOp::Rename(a, b)),
        (0u8..30, 0u8..30).prop_map(|(a, b)| FsOp::Link(a, b)),
        (0u8..30, 0u16..20_000).prop_map(|(a, n)| FsOp::WriteGrow(a, n)),
        (0u8..30, 0u16..20_000).prop_map(|(a, n)| FsOp::Truncate(a, n)),
        (0u8..30).prop_map(FsOp::Stat),
    ]
}

/// Where generated file `n` lives: every third file sits inside one of the
/// generated directories, so those directories hold files (rmdir meets
/// non-empty directories) and renames and links cross directories.
fn file(n: u8) -> String {
    if n.is_multiple_of(3) {
        format!("/d{}/f{n}", n % 8)
    } else {
        format!("/f{n}")
    }
}

fn dir(n: u8) -> String {
    format!("/d{n}")
}

/// Apply one generated op through the backend-neutral [`Vfs`] interface.
fn apply(fs: &mut impl Vfs, op: &FsOp) -> Result<(), FsError> {
    match op {
        FsOp::Create(n) => fs.create(&file(*n)).and_then(|fd| fs.close(fd)),
        FsOp::Unlink(n) => fs.unlink(&file(*n)),
        FsOp::Mkdir(n) => fs.mkdir(&dir(*n)),
        FsOp::Rmdir(n) => fs.rmdir(&dir(*n)),
        FsOp::Rename(a, b) => fs.rename(&file(*a), &file(*b)),
        FsOp::Link(a, b) => fs.link(&file(*a), &file(*b)),
        FsOp::WriteGrow(n, size) => {
            let fd = fs.open(&file(*n), memfs::OpenFlags::write_create())?;
            let written = fs.write(fd, &vec![0u8; usize::from(*size)]);
            fs.close(fd)?;
            written.map(|_| ())
        }
        FsOp::Truncate(n, size) => fs.truncate(&file(*n), u64::from(*size)),
        FsOp::Stat(n) => fs.stat(&file(*n)).map(|_| ()),
    }
}

/// Every generated name with its size and link count, `None` if it is absent.
fn observe(fs: &mut impl Vfs) -> Vec<(String, Option<(u64, u32)>)> {
    (0..8)
        .map(dir)
        .chain((0..30).map(file))
        .map(|name| {
            let st = fs.stat(&name).ok().map(|st| (st.size, st.nlink));
            (name, st)
        })
        .collect()
}

fn run_ops(fs: &mut MemFs, ops: &[FsOp]) {
    for op in ops {
        // Every error must be a legitimate FsError, never a panic; the
        // check() below validates global invariants.
        let _ = apply(fs, op);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any operation sequence the file system passes a full fsck.
    #[test]
    fn memfs_always_consistent(ops in prop::collection::vec(fs_op(), 1..120)) {
        for dir_index in [DirIndexKind::Linear, DirIndexKind::Hashed, DirIndexKind::BTree] {
            let mut config = MemFsConfig::default();
            config.dir_index = dir_index;
            config.total_blocks = 4096;
            let mut fs = MemFs::with_config(config);
            run_ops(&mut fs, &ops);
            let problems = fs.check();
            prop_assert!(problems.is_empty(), "fsck found: {problems:?} ({dir_index:?})");
        }
    }

    /// Crash recovery with a synchronous journal reproduces the exact
    /// pre-crash observable state.
    #[test]
    fn sync_journal_crash_recovery_is_lossless(ops in prop::collection::vec(fs_op(), 1..80)) {
        let mut config = MemFsConfig::default();
        config.journal_mode = JournalMode::Sync;
        config.total_blocks = 4096;
        let mut fs = MemFs::with_config(config);
        fs.checkpoint();
        run_ops(&mut fs, &ops);
        let before = observe(&mut fs);
        fs.crash_and_recover();
        let problems = fs.check();
        prop_assert!(problems.is_empty(), "fsck after crash: {problems:?}");
        let after = observe(&mut fs);
        for ((name, was), (_, is)) in before.iter().zip(&after) {
            prop_assert_eq!(was, is, "existence, size or nlink of {} changed in crash", name);
        }
    }

    /// Path normalization: parsing a rendered path is idempotent.
    #[test]
    fn path_parse_display_roundtrip(parts in prop::collection::vec("[a-z]{1,8}", 0..6)) {
        let raw = format!("/{}", parts.join("/"));
        let p1 = FsPath::parse(&raw).unwrap();
        let p2 = FsPath::parse(&p1.to_string()).unwrap();
        prop_assert_eq!(p1, p2);
    }

    /// MemFs and StdFs agree on the outcome (error kind included) of every
    /// generated op and, at the end, on the existence, size and link count
    /// of every generated name (cross-backend differential test).
    #[test]
    fn memfs_matches_stdfs(ops in prop::collection::vec(fs_op(), 1..40)) {
        let tmp = std::env::temp_dir().join(format!(
            "memfs-diff-{}-{}",
            std::process::id(),
            rand_suffix(&ops),
        ));
        let _ = std::fs::remove_dir_all(&tmp);
        let mut real = memfs::StdFs::new(&tmp).unwrap();
        let mut mem = MemFs::new();
        for op in &ops {
            let (a, b) = (apply(&mut mem, op), apply(&mut real, op));
            prop_assert_eq!(
                &a,
                &b,
                "divergence on {:?}: mem={:?} real={:?}",
                op,
                a,
                b
            );
        }
        for n in 0..8 {
            let (a, b) = (mem.stat(&dir(n)), real.stat(&dir(n)));
            prop_assert_eq!(a.is_ok(), b.is_ok(), "{} exists: mem={:?} real={:?}", dir(n), a, b);
        }
        for n in 0..30 {
            let (a, b) = (mem.stat(&file(n)), real.stat(&file(n)));
            prop_assert_eq!(a.is_ok(), b.is_ok(), "{} exists: mem={:?} real={:?}", file(n), a, b);
            if let (Ok(a), Ok(b)) = (a, b) {
                prop_assert_eq!((a.size, a.nlink), (b.size, b.nlink), "size/nlink of {}", file(n));
            }
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }
}

/// Error kinds at the edges the generator does not reach: renames into a
/// path below the source, and hard links to directories.
#[test]
fn memfs_matches_stdfs_on_rename_and_link_edges() {
    fn run(fs: &mut impl Vfs) -> Vec<Result<(), FsError>> {
        let made = fs.create("/a").and_then(|fd| fs.close(fd));
        vec![
            made,
            fs.mkdir("/d"),
            fs.rename("/a", "/a/b"),
            fs.rename("/d", "/d/x"),
            fs.rename("/d", "/d/x/y"),
            fs.rename("/nope", "/nope/x"),
            fs.rename("/nope", "/nope"),
            fs.link("/d", "/d2"),
            fs.rename("/d", "/a"),
            fs.rename("/a", "/d"),
        ]
    }
    let tmp = std::env::temp_dir().join(format!("memfs-edges-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let real = run(&mut memfs::StdFs::new(&tmp).unwrap());
    let _ = std::fs::remove_dir_all(&tmp);
    assert_eq!(run(&mut MemFs::new()), real);
}

fn rand_suffix(ops: &[FsOp]) -> u64 {
    // cheap deterministic hash of the op sequence for a unique temp dir
    let mut h: u64 = 0xcbf29ce484222325;
    for op in ops {
        let b = format!("{op:?}");
        for byte in b.bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100000001B3);
        }
    }
    h
}
