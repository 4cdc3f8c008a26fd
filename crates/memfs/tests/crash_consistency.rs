//! Crash-consistency harness: random op-sequences × crash points.
//!
//! Extends the `cow_snapshot.rs` pattern with power-loss injection: a
//! random workload runs on an async-journal `MemFs`, commits at random
//! points, and crashes at a random point under a random damage mode (clean
//! power cut, torn final record, reordered in-flight commit). After
//! recovery the harness asserts the two halves of the durability contract:
//!
//! * **prefix durability** — the recovered tree is exactly the tree as of
//!   the last acknowledged commit (every committed transaction survives),
//! * **no uncommitted leak** — nothing logged after that commit surfaces,
//!   no matter how the damaged tail reads back,
//!
//! plus fsck cleanliness, and then repeats the cycle once more on the
//! recovered file system — the crash-twice regression that used to lose
//! the committed prefix.
//!
//! Only *metadata* is compared (path, type, size, nlink): data bytes are
//! deliberately not journaled (ordered-mode ext3 semantics), so content is
//! restored from the checkpoint image plus `SetSize` zero-fill.

use proptest::prelude::*;

use memfs::crash::CrashSpec;
use memfs::{FileType, MemFs, MemFsConfig, OpenFlags, Vfs};

fn type_tag(t: FileType) -> u8 {
    match t {
        FileType::Regular => 0,
        FileType::Directory => 1,
        FileType::Symlink => 2,
    }
}

/// Journaled-metadata view of the tree: every path with type, size and
/// link count. Uses `lstat` so dangling symlinks are observable too.
fn observe_meta(fs: &mut MemFs) -> Vec<(String, u8, u64, u32)> {
    let mut out = Vec::new();
    let mut stack = vec!["/".to_string()];
    while let Some(dir) = stack.pop() {
        let mut entries = fs.readdir(&dir).expect("readdir");
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        for e in entries {
            if e.name == "." || e.name == ".." {
                continue;
            }
            let path = if dir == "/" {
                format!("/{}", e.name)
            } else {
                format!("{dir}/{}", e.name)
            };
            let st = fs.lstat(&path).expect("lstat");
            if st.file_type == FileType::Directory {
                stack.push(path.clone());
            }
            out.push((path, type_tag(st.file_type), st.size, st.nlink));
        }
    }
    out.sort();
    out
}

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Unlink(u8),
    Mkdir(u8),
    Rmdir(u8),
    Rename(u8, u8),
    Write(u8, u16),
    Truncate(u8, u16),
    Link(u8, u8),
    Symlink(u8, u8),
    SetXattr(u8, u8),
    Chmod(u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12).prop_map(Op::Create),
        (0u8..12).prop_map(Op::Unlink),
        (0u8..5).prop_map(Op::Mkdir),
        (0u8..5).prop_map(Op::Rmdir),
        (0u8..12, 0u8..12).prop_map(|(a, b)| Op::Rename(a, b)),
        (0u8..12, 0u16..9000).prop_map(|(a, n)| Op::Write(a, n)),
        (0u8..12, 0u16..9000).prop_map(|(a, n)| Op::Truncate(a, n)),
        (0u8..12, 0u8..12).prop_map(|(a, b)| Op::Link(a, b)),
        (0u8..12, 0u8..12).prop_map(|(a, b)| Op::Symlink(a, b)),
        (0u8..12, 0u8..4).prop_map(|(a, k)| Op::SetXattr(a, k)),
        (0u8..12).prop_map(Op::Chmod),
    ]
}

fn apply_one(fs: &mut MemFs, op: &Op) {
    let _ = match op {
        Op::Create(n) => fs.create(&format!("/f{n}")).and_then(|fd| fs.close(fd)),
        Op::Unlink(n) => fs.unlink(&format!("/f{n}")),
        Op::Mkdir(n) => fs.mkdir(&format!("/d{n}")),
        Op::Rmdir(n) => fs.rmdir(&format!("/d{n}")),
        Op::Rename(a, b) => fs.rename(&format!("/f{a}"), &format!("/f{b}")),
        Op::Write(n, size) => (|| {
            let fd = fs.open(&format!("/f{n}"), OpenFlags::write_create())?;
            fs.write(fd, &vec![*n; *size as usize])?;
            fs.close(fd)
        })(),
        Op::Truncate(n, size) => fs.truncate(&format!("/f{n}"), *size as u64),
        Op::Link(a, b) => fs.link(&format!("/f{a}"), &format!("/l{b}")),
        Op::Symlink(a, b) => fs.symlink(&format!("/f{a}"), &format!("/s{b}")),
        Op::SetXattr(n, k) => fs.setxattr(&format!("/f{n}"), &format!("user.k{k}"), &[*k]),
        Op::Chmod(n) => fs.chmod(&format!("/f{n}"), 0o640),
    };
}

/// Commit the journal through an fd on the pre-checkpoint `/sync` file.
fn commit_all(fs: &mut MemFs) {
    let fd = fs
        .open("/sync", OpenFlags::read_only())
        .expect("open /sync");
    fs.fsync(fd).expect("fsync");
    fs.close(fd).expect("close /sync");
}

/// A file system with an effectively manual commit policy: the async
/// journal's auto-commit threshold is far above anything a case logs, so
/// the *only* commit boundaries are our explicit `commit_all` calls.
fn harness_fs() -> MemFs {
    let mut config = MemFsConfig::default();
    config.journal_mode = memfs::JournalMode::Async;
    config.commit_every = 1_000_000;
    let mut fs = MemFs::with_config(config);
    fs.create("/sync").and_then(|fd| fs.close(fd)).unwrap();
    fs.checkpoint();
    fs
}

fn damage_spec(damage: u8, seed: u64) -> CrashSpec {
    let spec = CrashSpec::default().with_seed(seed);
    match damage {
        0 => spec,
        1 => spec.torn_last(),
        _ => spec.reorder(1 + (seed % 4) as usize),
    }
}

/// One crash/recover cycle: crash under `spec`'s damage, then check both
/// durability halves against `committed`, the observation taken at the
/// last acknowledged commit.
fn crash_and_check(fs: &mut MemFs, spec: &CrashSpec, committed: &[(String, u8, u64, u32)]) {
    let committed_records = fs.journal_committed_len();
    let volatile_records = fs.journal_volatile_len();
    let mut plan = spec.build();
    let stats = fs.crash_with(&mut plan);
    prop_assert_eq!(
        stats.replayed,
        committed_records,
        "scanner must admit exactly the committed prefix"
    );
    prop_assert_eq!(
        stats.discarded(),
        volatile_records,
        "every in-flight frame must land in exactly one discard bucket: {:?}",
        stats
    );
    let recovered = observe_meta(fs);
    prop_assert_eq!(
        &recovered[..],
        committed,
        "recovered tree != last committed tree (damage {:?})\n left: {:?}\nright: {:?}",
        spec,
        recovered,
        committed
    );
    let problems = fs.check();
    prop_assert!(problems.is_empty(), "fsck after recovery: {problems:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random op-sequence × crash point × damage mode, two crash cycles.
    /// A step commits when its tag is 0 (~25% of ops).
    #[test]
    fn recover_then_fsck_clean_and_committed_prefix_durable(
        steps in prop::collection::vec((op(), 0u8..4), 1..60),
        crash_frac in 0u64..1000,
        damage in 0u8..3,
        seed in 0u64..1024,
    ) {
        let mut fs = harness_fs();
        let crash_at = (crash_frac as usize * (steps.len() + 1) / 1000).min(steps.len());
        let mut committed_obs = observe_meta(&mut fs);

        // Epoch 1: run until the crash point, committing where the case
        // says to.
        for (op, tag) in &steps[..crash_at] {
            apply_one(&mut fs, op);
            if *tag == 0 {
                commit_all(&mut fs);
                committed_obs = observe_meta(&mut fs);
            }
        }
        crash_and_check(&mut fs, &damage_spec(damage, seed), &committed_obs);

        // Epoch 2: the recovered file system must keep journaling fresh
        // transactions correctly — crash it again (clean power cut this
        // time) before any checkpoint retires the old committed prefix.
        let mut committed_obs = observe_meta(&mut fs);
        for (op, tag) in &steps[crash_at..] {
            apply_one(&mut fs, op);
            if *tag == 0 {
                commit_all(&mut fs);
                committed_obs = observe_meta(&mut fs);
            }
        }
        crash_and_check(&mut fs, &CrashSpec::default().with_seed(seed), &committed_obs);
    }

    /// A sync-journal file system never loses an acknowledged operation:
    /// every op is its own committed transaction, so recovery under any
    /// damage mode reproduces the pre-crash tree exactly.
    #[test]
    fn sync_journal_loses_nothing(
        ops in prop::collection::vec(op(), 1..40),
        damage in 0u8..3,
        seed in 0u64..1024,
    ) {
        let mut config = MemFsConfig::default();
        config.journal_mode = memfs::JournalMode::Sync;
        let mut fs = MemFs::with_config(config);
        fs.checkpoint();
        for op in &ops {
            apply_one(&mut fs, op);
        }
        let before = observe_meta(&mut fs);
        crash_and_check(&mut fs, &damage_spec(damage, seed), &before);
    }
}

// ---------------------------------------------------------------------------
// Pinned deterministic cases (PR-1 pattern: regressions found by the sweep
// or by construction stay as plain unit tests)
// ---------------------------------------------------------------------------

/// MemFs-level crash-twice regression: the first recovery must leave the
/// journal able to protect both the old committed prefix and fresh
/// transactions. Before the `Journal::crash()` fix this lost `/a` on the
/// second crash (and could panic replaying records whose parents vanished).
#[test]
fn crash_twice_keeps_all_committed_transactions() {
    let mut fs = harness_fs();
    fs.mkdir("/dir").unwrap();
    fs.create("/dir/a").and_then(|fd| fs.close(fd)).unwrap();
    commit_all(&mut fs);

    let mut plan = CrashSpec::default().build();
    fs.crash_with(&mut plan);
    assert!(fs.stat("/dir/a").is_ok(), "committed file survives crash 1");

    fs.create("/dir/b").and_then(|fd| fs.close(fd)).unwrap();
    commit_all(&mut fs);
    fs.create("/dir/volatile")
        .and_then(|fd| fs.close(fd))
        .unwrap();

    let mut plan = CrashSpec::default().build();
    let stats = fs.crash_with(&mut plan);
    assert!(
        fs.stat("/dir/a").is_ok(),
        "crash-1-era commit survives crash 2"
    );
    assert!(
        fs.stat("/dir/b").is_ok(),
        "crash-2-era commit survives crash 2"
    );
    assert!(fs.stat("/dir/volatile").is_err(), "uncommitted op lost");
    assert_eq!(stats.discarded_uncommitted, 1);
    assert!(fs.check().is_empty(), "fsck: {:?}", fs.check());
}

/// Crash between `commit()` and checkpoint: committed records replay onto
/// the *old* checkpoint image — the exact window the tentpole targets.
#[test]
fn crash_between_commit_and_checkpoint_replays() {
    let mut fs = harness_fs();
    fs.mkdir("/d").unwrap();
    fs.create("/d/x").and_then(|fd| fs.close(fd)).unwrap();
    commit_all(&mut fs); // committed, NOT checkpointed
    fs.create("/d/y").and_then(|fd| fs.close(fd)).unwrap(); // volatile

    let mut plan = CrashSpec::default().build();
    let stats = fs.crash_with(&mut plan);
    assert_eq!(stats.replayed, 2, "mkdir + create replayed");
    assert_eq!(stats.discarded_uncommitted, 1);
    assert!(fs.stat("/d/x").is_ok());
    assert!(fs.stat("/d/y").is_err());
    assert!(fs.check().is_empty());
}

/// Torn final record: the damaged tail is refused wholesale, and recovery
/// still lands on the last committed tree.
#[test]
fn torn_last_record_is_refused() {
    let mut fs = harness_fs();
    fs.create("/keep").and_then(|fd| fs.close(fd)).unwrap();
    commit_all(&mut fs);
    fs.create("/gone1").and_then(|fd| fs.close(fd)).unwrap();
    fs.create("/gone2").and_then(|fd| fs.close(fd)).unwrap();

    let mut plan = CrashSpec::parse("torn:last,seed=3").unwrap().build();
    let stats = fs.crash_with(&mut plan);
    assert_eq!(stats.discarded_torn, 1, "the torn frame itself");
    assert_eq!(
        stats.discarded_uncommitted, 1,
        "the intact-but-unsealed one"
    );
    assert!(fs.stat("/keep").is_ok());
    assert!(fs.stat("/gone1").is_err());
    assert!(fs.stat("/gone2").is_err());
    assert!(fs.check().is_empty());
}

/// Pinned scanner-hole regression found while building the sweep: when the
/// write cache drops the *first* record of an in-flight commit, the
/// surviving tail still reads back contiguous — only the checkpoint
/// superblock's expected start sequence lets the scanner refuse it. Sweep
/// all small seeds so every shuffle/drop outcome of the damage RNG is
/// exercised, including that one.
#[test]
fn reordered_inflight_commit_never_leaks_for_any_seed() {
    for seed in 0..32u64 {
        let mut fs = harness_fs();
        fs.create("/keep").and_then(|fd| fs.close(fd)).unwrap();
        commit_all(&mut fs);
        let committed = observe_meta(&mut fs);
        for n in 0..4 {
            fs.create(&format!("/inflight{n}"))
                .and_then(|fd| fs.close(fd))
                .unwrap();
        }
        let mut plan = CrashSpec::default().reorder(4).with_seed(seed).build();
        let stats = fs.crash_with(&mut plan); // asserts scanner == committed
        assert_eq!(
            stats.discarded(),
            4,
            "seed {seed}: all four in-flight records refused: {stats:?}"
        );
        assert_eq!(observe_meta(&mut fs), committed, "seed {seed}");
        assert!(fs.check().is_empty(), "seed {seed}: {:?}", fs.check());
    }
}

/// Pinned sweep regression: a crash that loses volatile records used to
/// leave a sequence gap in the log (`next_tx` kept counting past the
/// truncated tail), so the *next* crash found committed records at
/// non-contiguous sequence numbers and the scanner refused the entire
/// log — recovering an empty tree. The journal now rolls `next_tx` back
/// to the durable frontier.
#[test]
fn seq_rollback_after_crash_keeps_log_contiguous() {
    let mut fs = harness_fs();
    fs.create("/committed1")
        .and_then(|fd| fs.close(fd))
        .unwrap();
    commit_all(&mut fs);
    // Volatile records consume sequence slots, then vanish in the crash.
    fs.create("/lost1").and_then(|fd| fs.close(fd)).unwrap();
    fs.create("/lost2").and_then(|fd| fs.close(fd)).unwrap();
    let mut plan = CrashSpec::default().build();
    fs.crash_with(&mut plan);

    // Fresh committed work after recovery…
    fs.create("/committed2")
        .and_then(|fd| fs.close(fd))
        .unwrap();
    commit_all(&mut fs);

    // …must survive a second crash together with the pre-crash commit.
    let mut plan = CrashSpec::default().build();
    let stats = fs.crash_with(&mut plan);
    assert_eq!(
        stats.replayed, 2,
        "both committed creates replay: {stats:?}"
    );
    assert!(fs.stat("/committed1").is_ok());
    assert!(fs.stat("/committed2").is_ok());
    assert!(fs.stat("/lost1").is_err());
    assert!(fs.check().is_empty(), "fsck: {:?}", fs.check());
}

/// Crashing with an empty journal and no checkpoint degrades to a fresh
/// file system that still passes fsck.
#[test]
fn crash_on_empty_journal_is_clean() {
    let mut fs = MemFs::new();
    let mut plan = CrashSpec::parse("torn:last,reorder:2").unwrap().build();
    let stats = fs.crash_with(&mut plan);
    assert_eq!(stats.frames_scanned, 0);
    assert_eq!(stats.replayed + stats.discarded(), 0);
    assert!(fs.check().is_empty());
    // The recovered instance is usable.
    fs.mkdir("/ok").unwrap();
    assert!(fs.check().is_empty());
}

/// The online scrubber coexists with live traffic: bounded scrub steps
/// interleave with mutations of every payload kind, complete full sweeps
/// with zero integrity errors, and keep working across a crash/recovery.
#[test]
fn scrub_coexists_with_live_traffic() {
    use memfs::Scrubber;
    let mut fs = harness_fs();
    for n in 0..8u8 {
        let fd = fs
            .open(&format!("/f{n}"), OpenFlags::write_create())
            .unwrap();
        fs.write(fd, &vec![n; 1000 + n as usize * 500]).unwrap();
        fs.close(fd).unwrap();
    }
    fs.mkdir("/d0").unwrap();
    fs.symlink("/f0", "/s0").unwrap();
    commit_all(&mut fs);

    let mut scrub = Scrubber::new();
    let mut step = 0u8;
    while scrub.stats.sweeps_completed < 2 {
        // Live traffic between scrub batches mutates the very inodes the
        // cursor is walking: grows, shrinks, unlinks, renames, creates.
        match step % 5 {
            0 => {
                let fd = fs.open("/f1", OpenFlags::write_create()).unwrap();
                fs.write(fd, &vec![0xEE; 2500]).unwrap();
                fs.close(fd).unwrap();
            }
            1 => fs.truncate("/f2", 17).unwrap(),
            2 => {
                let name = format!("/d0/n{step}");
                fs.create(&name).and_then(|fd| fs.close(fd)).unwrap();
            }
            3 => {
                let _ = fs.rename("/f3", "/f3r");
                let _ = fs.rename("/f3r", "/f3");
            }
            _ => {
                let _ = fs.unlink("/f7");
                let _ = fs.create("/f7").and_then(|fd| fs.close(fd));
            }
        }
        step = step.wrapping_add(1);
        let report = fs.scrub_step(&mut scrub, 4);
        assert!(report.scanned <= 4, "batch bound respected");
        assert!(step < 200, "scrub failed to complete two sweeps");
    }

    assert!(
        scrub.stats.errors.is_empty(),
        "scrub: {:?}",
        scrub.stats.errors
    );
    assert!(scrub.stats.entries_verified > 0);
    assert!(scrub.stats.bytes_checksummed > 0);
    assert!(fs.check().is_empty(), "fsck: {:?}", fs.check());

    // The scrubber stays honest on the recovered image too.
    let mut plan = CrashSpec::default().build();
    fs.crash_with(&mut plan);
    let mut post = Scrubber::new();
    let mut guard = 0;
    while post.stats.sweeps_completed < 1 {
        fs.scrub_step(&mut post, 8);
        guard += 1;
        assert!(guard < 100, "post-recovery sweep did not complete");
    }
    assert!(
        post.stats.errors.is_empty(),
        "post-recovery scrub: {:?}",
        post.stats.errors
    );
}
