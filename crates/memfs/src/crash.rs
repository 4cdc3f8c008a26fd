//! Power-loss simulation and online integrity machinery (paper §2.7.1).
//!
//! The journal in [`crate::Journal`] models *what* survives a crash; this
//! module models *how* a crash damages the log on its way to stable storage
//! and how a mounting file system decides which records to trust. It mirrors
//! the deterministic fault layer in `netsim::fault`: a declarative, seedable
//! [`CrashSpec`] (parseable from the `--crash` CLI grammar) compiles into a
//! [`CrashPlan`] with a private RNG stream, so a crashed run is exactly as
//! reproducible as a healthy one.
//!
//! The grammar accepts comma-separated clauses:
//!
//! * `crash-after:N-records` — power fails once the journal has logged its
//!   N-th record (the *crash point* of a schedule),
//! * `torn:last` — the record frame being appended when power failed is torn
//!   mid-write (truncated payload, bad checksum),
//! * `reorder:K` — the disk write cache reordered the last K in-flight record
//!   frames of an *unacknowledged* commit: its commit marker reached the
//!   platter while K record frames did not,
//! * `seed=N` — seed of the damage stream.
//!
//! # On-disk model
//!
//! [`MemFs::crash_with`](crate::MemFs::crash_with) materializes the journal
//! as a sequence of checksummed frames — record frames carrying a sequence
//! number and a serialized payload, and commit-marker frames sealing a
//! contiguous batch. Committed records (those a returned `commit()` covered)
//! are always intact: commit acknowledges only after a write barrier. Damage
//! applies to the *volatile tail* — frames still in the device queue when
//! power failed. The recovery scanner walks frames in disk order and admits
//! a batch only when its checksums verify, its sequence numbers are
//! contiguous, and a valid commit marker seals it; everything after the
//! first damaged frame, and any unsealed tail, is discarded. This yields the
//! durability guarantee the proptest harness asserts: **every committed
//! transaction survives, and no uncommitted record ever surfaces**.
//!
//! # Example
//!
//! ```
//! use memfs::crash::CrashSpec;
//!
//! let spec = CrashSpec::parse("crash-after:64-records,torn:last,seed=7").unwrap();
//! assert_eq!(spec.build().crash_after(), Some(64));
//! ```
//!
//! Determinism contract: a plan draws from its RNG only while damaging a
//! non-empty volatile tail; an inert plan (no clauses, or nothing in flight)
//! leaves recovery bit-identical to [`crate::MemFs::crash_and_recover`].

use crate::journal::{JournalRecord, TxId};
use simcore::DetRng;

/// Seed of the damage stream when the spec does not pin one.
const DEFAULT_SEED: u64 = 0xC4A5;

// ---------------------------------------------------------------------------
// Spec grammar
// ---------------------------------------------------------------------------

/// One clause of a [`CrashSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashClause {
    /// Power fails once the journal has logged `n` records in total.
    AfterRecords(u64),
    /// The final in-flight record frame is torn mid-write.
    TornLast,
    /// The device reordered the last `k` in-flight record frames of an
    /// unacknowledged commit (its marker landed; `k` record frames did not
    /// land in order).
    Reorder(usize),
}

/// A declarative, seedable crash schedule. Cheap to clone; compile it into a
/// [`CrashPlan`] per file-system instance with [`CrashSpec::build`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CrashSpec {
    /// The scheduled clauses.
    pub clauses: Vec<CrashClause>,
    /// Seed of the damage stream (`0xC4A5` when `None`).
    pub seed: Option<u64>,
}

impl CrashSpec {
    /// Parse the `--crash` grammar: comma-separated clauses
    /// `crash-after:N-records`, `torn:last`, `reorder:K`, `seed=N`.
    pub fn parse(spec: &str) -> Result<CrashSpec, String> {
        let mut out = CrashSpec::default();
        for raw in spec.split(',') {
            let clause = raw.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(seed) = clause.strip_prefix("seed=") {
                let n: u64 = seed
                    .parse()
                    .map_err(|e| format!("bad seed in {clause:?}: {e}"))?;
                out.seed = Some(n);
            } else if let Some(rest) = clause.strip_prefix("crash-after:") {
                let n: u64 = rest
                    .strip_suffix("-records")
                    .unwrap_or(rest)
                    .parse()
                    .map_err(|e| format!("bad record count in {clause:?}: {e}"))?;
                if n == 0 {
                    return Err(format!("{clause:?}: crash point must be >= 1"));
                }
                out.clauses.push(CrashClause::AfterRecords(n));
            } else if clause == "torn:last" {
                out.clauses.push(CrashClause::TornLast);
            } else if let Some(k) = clause.strip_prefix("reorder:") {
                let k: usize = k
                    .parse()
                    .map_err(|e| format!("bad window in {clause:?}: {e}"))?;
                if k == 0 {
                    return Err(format!("{clause:?}: reorder window must be >= 1"));
                }
                out.clauses.push(CrashClause::Reorder(k));
            } else {
                return Err(format!(
                    "unknown crash clause {clause:?} (expected crash-after:N-records, \
                     torn:last, reorder:K or seed=N)"
                ));
            }
        }
        Ok(out)
    }

    /// Builder: pin the damage-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Builder: tear the final in-flight record frame.
    pub fn torn_last(mut self) -> Self {
        self.clauses.push(CrashClause::TornLast);
        self
    }

    /// Builder: reorder the last `k` in-flight record frames.
    pub fn reorder(mut self, k: usize) -> Self {
        self.clauses.push(CrashClause::Reorder(k));
        self
    }

    /// `true` if the spec schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Compile into a plan with its own damage stream.
    pub fn build(&self) -> CrashPlan {
        let mut crash_after = None;
        let mut torn_last = false;
        let mut reorder = 0usize;
        for clause in &self.clauses {
            match *clause {
                CrashClause::AfterRecords(n) => {
                    crash_after = Some(crash_after.map_or(n, |prev: u64| prev.min(n)));
                }
                CrashClause::TornLast => torn_last = true,
                CrashClause::Reorder(k) => reorder = reorder.max(k),
            }
        }
        CrashPlan {
            crash_after,
            torn_last,
            reorder,
            rng: DetRng::new(self.seed.unwrap_or(DEFAULT_SEED)),
        }
    }
}

/// A compiled crash schedule. Owns the damage RNG so two plans built from
/// the same spec damage the log identically.
#[derive(Debug)]
pub struct CrashPlan {
    crash_after: Option<u64>,
    torn_last: bool,
    reorder: usize,
    rng: DetRng,
}

impl CrashPlan {
    /// The crash point: total logged records after which power fails, if the
    /// spec scheduled one. Harnesses poll
    /// [`MemFs::journal_total_logged`](crate::MemFs::journal_total_logged)
    /// against it.
    pub fn crash_after(&self) -> Option<u64> {
        self.crash_after
    }

    /// Apply the plan's damage to a materialized disk journal. Only the
    /// volatile tail (frames past `sealed`, the index of the first frame not
    /// covered by an acknowledged commit) is eligible — committed frames sit
    /// behind a completed write barrier.
    pub(crate) fn damage(&mut self, disk: &mut DiskJournal, sealed: usize) {
        // Reorder first: model an unacknowledged commit whose marker hit the
        // platter while record frames behind it were still in the write
        // cache. The scanner must refuse the whole batch.
        if self.reorder > 0 && disk.frames.len() > sealed {
            // The marker covers the *full* in-flight batch; it was issued
            // before the cache scrambled the record writes behind it.
            let through = disk.max_seq().expect("tail is non-empty");
            let k = self.reorder.min(disk.frames.len() - sealed);
            let lo = disk.frames.len() - k;
            // Fisher–Yates over the last k frames, then drop one of them:
            // out-of-order *and* missing writes, both detectable by seq.
            for i in (lo + 1..disk.frames.len()).rev() {
                let j = self.rng.uniform_u64(lo as u64, i as u64 + 1) as usize;
                disk.frames.swap(i, j);
            }
            let victim = self.rng.uniform_u64(lo as u64, disk.frames.len() as u64) as usize;
            disk.frames.remove(victim);
            disk.push_commit(through);
        }
        if self.torn_last && disk.frames.len() > sealed {
            let frame = disk.frames.last_mut().expect("tail is non-empty");
            let keep = if frame.bytes.len() <= 1 {
                0
            } else {
                self.rng.uniform_u64(0, frame.bytes.len() as u64) as usize
            };
            frame.bytes.truncate(keep);
            frame.torn = true;
        }
    }
}

// ---------------------------------------------------------------------------
// On-disk frames + recovery scanner
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit — the frame checksum.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[derive(Debug, Clone)]
pub(crate) enum FrameKind {
    /// A journal record. The typed record rides along with its serialized
    /// image; the scanner admits it only if the image verifies (a real
    /// scanner would deserialize the payload instead).
    Record { seq: u64, record: JournalRecord },
    /// A commit marker sealing every record frame with `seq <= through`.
    Commit { through: u64 },
}

#[derive(Debug, Clone)]
pub(crate) struct Frame {
    pub kind: FrameKind,
    /// Serialized frame image — what the device actually wrote.
    pub bytes: Vec<u8>,
    /// Checksum of the intact image, written with the frame header.
    pub crc: u64,
    /// Whether damage tore this frame (diagnostic only; the scanner decides
    /// from `crc` alone).
    pub torn: bool,
}

/// The journal as it lies on the simulated platter after power loss.
#[derive(Debug, Clone, Default)]
pub(crate) struct DiskJournal {
    pub frames: Vec<Frame>,
}

impl DiskJournal {
    fn encode(kind: &FrameKind) -> Vec<u8> {
        // Deterministic serialization; derived Debug is stable and injective
        // enough to stand in for a wire format in the simulation.
        match kind {
            FrameKind::Record { seq, record } => format!("R{seq}:{record:?}").into_bytes(),
            FrameKind::Commit { through } => format!("C{through}").into_bytes(),
        }
    }

    fn push(&mut self, kind: FrameKind) {
        let bytes = Self::encode(&kind);
        let crc = fnv1a(&bytes);
        self.frames.push(Frame {
            kind,
            bytes,
            crc,
            torn: false,
        });
    }

    pub fn push_record(&mut self, seq: u64, record: JournalRecord) {
        self.push(FrameKind::Record { seq, record });
    }

    pub fn push_commit(&mut self, through: u64) {
        self.push(FrameKind::Commit { through });
    }

    /// Highest record sequence number present on disk.
    fn max_seq(&self) -> Option<u64> {
        self.frames
            .iter()
            .filter_map(|f| match f.kind {
                FrameKind::Record { seq, .. } => Some(seq),
                FrameKind::Commit { .. } => None,
            })
            .max()
    }

    /// Materialize a journal's live log as intact frames: record frames for
    /// the committed prefix sealed by one commit marker (the acknowledged
    /// barrier), then the volatile tail as unsealed record frames.
    pub fn materialize(entries: &[(TxId, JournalRecord)], committed: usize) -> DiskJournal {
        let mut disk = DiskJournal::default();
        for (tx, record) in &entries[..committed] {
            disk.push_record(tx.0, record.clone());
        }
        if committed > 0 {
            disk.push_commit(entries[committed - 1].0 .0);
        }
        for (tx, record) in &entries[committed..] {
            disk.push_record(tx.0, record.clone());
        }
        disk
    }
}

/// What the recovery scanner found on the simulated platter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Total frames on disk at power loss.
    pub frames_scanned: usize,
    /// Records admitted for replay (sealed by a valid commit marker).
    pub replayed: usize,
    /// Records discarded because no commit marker sealed them.
    pub discarded_uncommitted: usize,
    /// Frames discarded at and after a checksum failure (torn write).
    pub discarded_torn: usize,
    /// Frames discarded because a commit marker's batch was incomplete or
    /// out of order (write-cache reordering).
    pub discarded_reordered: usize,
}

impl RecoveryStats {
    /// Total records that were on disk but did not survive recovery.
    pub fn discarded(&self) -> usize {
        self.discarded_uncommitted + self.discarded_torn + self.discarded_reordered
    }
}

/// Scan a disk journal in write order, admitting only checksummed,
/// sequence-contiguous batches sealed by a commit marker.
///
/// `expected_first` is the sequence number the log is known to start at —
/// on real storage the checkpoint superblock records it, so a scanner can
/// tell "the log starts at 7" apart from "the frames before 7 were lost by
/// the write cache".
pub(crate) fn scan(
    disk: &DiskJournal,
    expected_first: Option<u64>,
) -> (Vec<JournalRecord>, RecoveryStats) {
    let mut stats = RecoveryStats {
        frames_scanned: disk.frames.len(),
        ..RecoveryStats::default()
    };
    let mut replay: Vec<JournalRecord> = Vec::new();
    let mut pending: Vec<(u64, JournalRecord)> = Vec::new();
    let mut last_admitted_seq: Option<u64> = None;
    let mut next_expected: Option<u64> = expected_first;
    for (idx, frame) in disk.frames.iter().enumerate() {
        if fnv1a(&frame.bytes) != frame.crc {
            // Torn write: nothing at or past this point can be trusted.
            stats.discarded_torn += disk.frames.len() - idx;
            break;
        }
        match &frame.kind {
            FrameKind::Record { seq, record } => {
                let expected = pending
                    .last()
                    .map(|(s, _)| s + 1)
                    .or(last_admitted_seq.map(|s| s + 1))
                    .or(next_expected);
                if expected.is_some_and(|e| *seq != e) {
                    // Sequence discontinuity: the write cache reordered or
                    // dropped frames. Refuse everything from here on.
                    stats.discarded_reordered += disk.frames.len() - idx;
                    break;
                }
                next_expected = Some(seq + 1);
                pending.push((*seq, record.clone()));
            }
            FrameKind::Commit { through } => {
                let sealed = pending.last().is_some_and(|(s, _)| s == through)
                    || (pending.is_empty() && last_admitted_seq == Some(*through));
                if !sealed {
                    // Marker landed ahead of (or without) its records: the
                    // whole in-flight batch is refused.
                    stats.discarded_reordered += disk.frames.len() - idx;
                    break;
                }
                if let Some((s, _)) = pending.last() {
                    last_admitted_seq = Some(*s);
                }
                stats.replayed += pending.len();
                replay.extend(pending.drain(..).map(|(_, r)| r));
            }
        }
    }
    // An unsealed (or damage-orphaned) tail never surfaces.
    stats.discarded_uncommitted += pending.len();
    (replay, stats)
}

// ---------------------------------------------------------------------------
// Online scrub
// ---------------------------------------------------------------------------

/// Cursor + accumulated statistics of an online integrity scrub.
///
/// A scrubber sweeps the inode table in bounded batches via
/// [`MemFs::scrub_step`](crate::MemFs::scrub_step), checksumming payloads
/// and verifying per-inode invariants while regular traffic keeps mutating
/// the tree between steps — the throughput tax of background integrity work
/// that `exp_scrub_tax` measures.
#[derive(Debug, Clone, Default)]
pub struct Scrubber {
    /// Next inode number the sweep will visit.
    pub(crate) cursor: u64,
    /// Lifetime statistics.
    pub stats: ScrubStats,
}

impl Scrubber {
    /// A scrubber positioned at the start of the inode table.
    pub fn new() -> Self {
        Scrubber::default()
    }
}

/// Lifetime statistics of a [`Scrubber`].
#[derive(Debug, Clone, Default)]
pub struct ScrubStats {
    /// Inodes visited (regular, directory and symlink).
    pub inodes_scanned: u64,
    /// Directory entries verified.
    pub entries_verified: u64,
    /// Payload bytes checksummed.
    pub bytes_checksummed: u64,
    /// Completed full sweeps of the inode table.
    pub sweeps_completed: u64,
    /// Problems found (empty = every sweep so far was clean).
    pub errors: Vec<String>,
}

/// Result of one bounded scrub step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Inodes visited in this step.
    pub scanned: u64,
    /// Abstract work units performed (directory probes + 4 KiB checksum
    /// blocks) — the quantity a harness converts into virtual service time.
    pub work_units: u64,
    /// Whether this step wrapped past the end of the inode table,
    /// completing a sweep.
    pub wrapped: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Ino;

    fn rec(n: u64) -> JournalRecord {
        JournalRecord::SetSize {
            ino: Ino(n),
            size: n,
        }
    }

    fn disk(committed: u64, volatile: u64) -> DiskJournal {
        let entries: Vec<(TxId, JournalRecord)> = (0..committed + volatile)
            .map(|i| (TxId(i), rec(i)))
            .collect();
        DiskJournal::materialize(&entries, committed as usize)
    }

    #[test]
    fn parse_full_grammar() {
        let spec = CrashSpec::parse("crash-after:64-records, torn:last,reorder:3,seed=9").unwrap();
        assert_eq!(
            spec.clauses,
            vec![
                CrashClause::AfterRecords(64),
                CrashClause::TornLast,
                CrashClause::Reorder(3),
            ]
        );
        assert_eq!(spec.seed, Some(9));
        let plan = spec.build();
        assert_eq!(plan.crash_after(), Some(64));
        assert!(plan.torn_last);
        assert_eq!(plan.reorder, 3);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CrashSpec::parse("crash-after:zero-records").is_err());
        assert!(CrashSpec::parse("crash-after:0-records").is_err());
        assert!(CrashSpec::parse("reorder:0").is_err());
        assert!(CrashSpec::parse("torn:first").is_err());
        assert!(CrashSpec::parse("seed=x").is_err());
    }

    /// Out-of-range counts must error rather than saturate (the companion
    /// of the `netsim::fault` time-overflow fix: both spec grammars share
    /// the reject-don't-clamp contract).
    #[test]
    fn parse_rejects_out_of_range_counts() {
        for bad in [
            "crash-after:99999999999999999999999-records",
            "crash-after:18446744073709551616-records", // u64::MAX + 1
            "reorder:99999999999999999999999",
            "seed=99999999999999999999999",
        ] {
            assert!(CrashSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
        // the numeric ceiling itself is still representable
        assert!(CrashSpec::parse("crash-after:18446744073709551615-records").is_ok());
    }

    #[test]
    fn earliest_crash_point_wins() {
        let plan = CrashSpec::parse("crash-after:90,crash-after:40-records")
            .unwrap()
            .build();
        assert_eq!(plan.crash_after(), Some(40));
    }

    #[test]
    fn scan_admits_sealed_batches_and_drops_unsealed_tail() {
        let (replay, stats) = scan(&disk(3, 2), Some(0));
        assert_eq!(replay, vec![rec(0), rec(1), rec(2)]);
        assert_eq!(stats.replayed, 3);
        assert_eq!(stats.discarded_uncommitted, 2);
        assert_eq!(stats.discarded(), 2);
    }

    #[test]
    fn scan_refuses_torn_frame_and_everything_after() {
        let mut d = disk(2, 3);
        let mut plan = CrashSpec::default().torn_last().build();
        plan.damage(&mut d, 3); // frames 0..3 = committed records + marker
        let (replay, stats) = scan(&d, Some(0));
        assert_eq!(replay, vec![rec(0), rec(1)]);
        assert_eq!(stats.discarded_torn, 1);
        assert_eq!(stats.discarded_uncommitted, 2);
    }

    #[test]
    fn scan_refuses_reordered_in_flight_commit() {
        let mut d = disk(2, 4);
        let mut plan = CrashSpec::default().reorder(3).with_seed(11).build();
        plan.damage(&mut d, 3);
        let (replay, stats) = scan(&d, Some(0));
        // The committed batch survives; the in-flight batch whose marker
        // outran its records never surfaces, in whole or in part.
        assert_eq!(replay, vec![rec(0), rec(1)]);
        assert_eq!(stats.replayed, 2);
        assert_eq!(
            stats.discarded_reordered + stats.discarded_uncommitted,
            4,
            "all four volatile records are refused: {stats:?}"
        );
    }

    #[test]
    fn inert_plan_leaves_disk_untouched() {
        let mut d = disk(3, 1);
        let before: Vec<u64> = d.frames.iter().map(|f| f.crc).collect();
        let mut plan = CrashSpec::default().build();
        plan.damage(&mut d, 4);
        let after: Vec<u64> = d.frames.iter().map(|f| f.crc).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn damage_never_touches_sealed_region() {
        let mut d = disk(5, 0); // nothing in flight
        let sealed = d.frames.len();
        let mut plan = CrashSpec::default().torn_last().reorder(4).build();
        plan.damage(&mut d, sealed);
        let (replay, stats) = scan(&d, Some(0));
        assert_eq!(replay.len(), 5);
        assert_eq!(stats.discarded(), 0);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
