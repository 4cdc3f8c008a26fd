//! Directory index implementations.
//!
//! The thesis (§2.4.2 "Directory search") surveys three generations of
//! on-disk directory structures and the large-directory experiment (§4.3.3)
//! measures their scaling. We implement all three behind one trait:
//!
//! * [`LinearDir`] — the traditional UFS linear entry list, `O(n)` lookup,
//! * [`HashedDir`] — hash buckets (WAFL-style name hashing),
//! * [`BTreeDir`] — full B-tree directories (XFS-style), `O(log n)`.
//!
//! Each operation reports the number of *probes* (entry comparisons / node
//! visits) it performed; the simulation layer turns probes into service time,
//! so the measured cost of an operation really is derived from the work the
//! data structure did.

use crate::attr::{FileType, Ino};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which directory index a file system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DirIndexKind {
    /// Linear entry list (original UFS, paper Fig. 2.4).
    Linear,
    /// Hash-bucketed entries (WAFL \[DMJB98\]).
    #[default]
    Hashed,
    /// B-tree directories (XFS \[SDH+96\]).
    BTree,
}

/// A stored directory entry (name → inode, with the entry type cached as
/// POSIX `readdir` returns it).
///
/// The name is interned behind `Arc<str>`, so cloning an entry — for a
/// lookup result, a journal record, or a snapshot — bumps a refcount
/// instead of copying the string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawEntry {
    /// Entry name.
    pub name: Arc<str>,
    /// Referenced inode.
    pub ino: Ino,
    /// Cached file type.
    pub file_type: FileType,
}

/// Result of a directory mutation or lookup, carrying the probe count used
/// for cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probed<T> {
    /// The operation result.
    pub value: T,
    /// Number of entry comparisons / node visits performed.
    pub probes: u64,
}

impl<T> Probed<T> {
    fn new(value: T, probes: u64) -> Self {
        Probed { value, probes }
    }
}

/// Common behaviour of all directory indexes.
///
/// The trait is object-safe; `MemFs` stores a `Box<dyn DirIndex>` per
/// directory inode.
pub trait DirIndex: std::fmt::Debug + Send + Sync {
    /// Look up a name. `None` if absent.
    fn lookup(&self, name: &str) -> Probed<Option<RawEntry>>;
    /// Insert an entry; returns `false` (and does not overwrite) if the name
    /// already exists — file-name uniqueness, paper §2.6.3.
    fn insert(&mut self, entry: RawEntry) -> Probed<bool>;
    /// Remove an entry by name, returning it if present.
    fn remove(&mut self, name: &str) -> Probed<Option<RawEntry>>;
    /// Number of entries.
    fn len(&self) -> usize;
    /// `true` if empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Borrowed iteration over all entries in iteration order (lexicographic
    /// for the B-tree, hash / insertion order otherwise — POSIX leaves
    /// readdir order unspecified). No per-call entry clones.
    fn iter_entries(&self) -> Box<dyn Iterator<Item = &RawEntry> + '_>;
    /// All entries in iteration order, as owned values. With `Arc<str>`
    /// names each clone is a refcount bump; prefer
    /// [`iter_entries`](DirIndex::iter_entries) when borrowing suffices.
    fn entries(&self) -> Vec<RawEntry> {
        self.iter_entries().cloned().collect()
    }
    /// Which implementation this is.
    fn kind(&self) -> DirIndexKind;
    /// Deep copy (used by snapshots).
    fn clone_box(&self) -> Box<dyn DirIndex>;
}

/// Construct an empty index of the given kind.
pub fn new_index(kind: DirIndexKind) -> Box<dyn DirIndex> {
    match kind {
        DirIndexKind::Linear => Box::new(LinearDir::new()),
        DirIndexKind::Hashed => Box::new(HashedDir::new()),
        DirIndexKind::BTree => Box::new(BTreeDir::new()),
    }
}

// ---------------------------------------------------------------------------
// Linear list
// ---------------------------------------------------------------------------

/// Traditional linear-list directory: every lookup scans entries in order.
///
/// Beside the entries sits an array of their names' hashes (the low 32
/// bits of their FNV-1a hash), so the scan reads 4 bytes per entry, a
/// chunk at a time in vector compares, and compares a name only when its
/// hash matches. A probe is still one entry visited.
#[derive(Debug, Clone, Default)]
pub struct LinearDir {
    entries: Vec<RawEntry>,
    hashes: Vec<u32>,
}

impl LinearDir {
    /// Create an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The hash kept for `name`.
    fn short_hash(name: &str) -> u32 {
        hash_name(name) as u32
    }

    /// Position of `name` (whose short hash is `hash`), or `None` after a
    /// full scan.
    fn position(&self, hash: u32, name: &str) -> Option<usize> {
        // Testing a whole chunk without branching lets the compiler use
        // vector compares; only a chunk with a hit is looked at closely.
        const CHUNK: usize = 32;
        for (c, chunk) in self.hashes.chunks(CHUNK).enumerate() {
            if chunk.iter().fold(false, |hit, &h| hit | (h == hash)) {
                for (j, &h) in chunk.iter().enumerate() {
                    let i = c * CHUNK + j;
                    if h == hash && &*self.entries[i].name == name {
                        return Some(i);
                    }
                }
            }
        }
        None
    }
}

impl DirIndex for LinearDir {
    fn lookup(&self, name: &str) -> Probed<Option<RawEntry>> {
        match self.position(Self::short_hash(name), name) {
            Some(i) => Probed::new(Some(self.entries[i].clone()), i as u64 + 1),
            None => Probed::new(None, self.entries.len() as u64),
        }
    }

    fn insert(&mut self, entry: RawEntry) -> Probed<bool> {
        // Uniqueness requires a full scan before appending (the cost the
        // thesis identifies as dominating create performance in large
        // directories, §2.6.3 / §4.3.3).
        let hash = Self::short_hash(&entry.name);
        if let Some(i) = self.position(hash, &entry.name) {
            return Probed::new(false, i as u64 + 1);
        }
        let probes = self.entries.len() as u64 + 1;
        self.hashes.push(hash);
        self.entries.push(entry);
        Probed::new(true, probes)
    }

    fn remove(&mut self, name: &str) -> Probed<Option<RawEntry>> {
        match self.position(Self::short_hash(name), name) {
            Some(i) => {
                self.hashes.remove(i);
                Probed::new(Some(self.entries.remove(i)), i as u64 + 1)
            }
            None => Probed::new(None, self.entries.len() as u64),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn iter_entries(&self) -> Box<dyn Iterator<Item = &RawEntry> + '_> {
        Box::new(self.entries.iter())
    }

    fn kind(&self) -> DirIndexKind {
        DirIndexKind::Linear
    }

    fn clone_box(&self) -> Box<dyn DirIndex> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Hash buckets
// ---------------------------------------------------------------------------

const INITIAL_BUCKETS: usize = 16;
const MAX_LOAD: usize = 8; // entries per bucket before doubling

/// Hash-bucketed directory: a name hash confines the scan to one bucket
/// (paper §2.4.2, WAFL). Buckets double when the mean load exceeds a bound,
/// so probes stay `O(1)` amortized.
///
/// Each entry keeps its name's hash: a bucket scan compares names only on a
/// hash match, and growing rehashes no name.
#[derive(Debug, Clone)]
pub struct HashedDir {
    buckets: Vec<Vec<(u64, RawEntry)>>,
    len: usize,
}

impl Default for HashedDir {
    fn default() -> Self {
        Self::new()
    }
}

impl HashedDir {
    /// Create an empty directory.
    pub fn new() -> Self {
        HashedDir {
            buckets: vec![Vec::new(); INITIAL_BUCKETS],
            len: 0,
        }
    }

    fn bucket_of(&self, hash: u64) -> usize {
        (hash as usize) & (self.buckets.len() - 1)
    }

    fn maybe_grow(&mut self) -> u64 {
        if self.len / self.buckets.len() < MAX_LOAD {
            return 0;
        }
        let new_size = self.buckets.len() * 2;
        let mut new_buckets = vec![Vec::new(); new_size];
        let mut moved = 0;
        for bucket in self.buckets.drain(..) {
            for (hash, e) in bucket {
                new_buckets[(hash as usize) & (new_size - 1)].push((hash, e));
                moved += 1;
            }
        }
        self.buckets = new_buckets;
        moved
    }
}

/// FNV-1a over the name bytes — deterministic across runs (unlike
/// `std::collections::HashMap`'s randomized hasher).
fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Position of `name` (hashing to `hash`) in `bucket`.
fn bucket_position(bucket: &[(u64, RawEntry)], hash: u64, name: &str) -> Option<usize> {
    bucket
        .iter()
        .position(|(h, e)| *h == hash && &*e.name == name)
}

impl DirIndex for HashedDir {
    fn lookup(&self, name: &str) -> Probed<Option<RawEntry>> {
        let hash = hash_name(name);
        let b = &self.buckets[self.bucket_of(hash)];
        match bucket_position(b, hash, name) {
            Some(i) => Probed::new(Some(b[i].1.clone()), i as u64 + 1),
            None => Probed::new(None, b.len() as u64 + 1),
        }
    }

    fn insert(&mut self, entry: RawEntry) -> Probed<bool> {
        let hash = hash_name(&entry.name);
        let idx = self.bucket_of(hash);
        let bucket = &mut self.buckets[idx];
        // one probe for the bucket, one per entry compared
        if let Some(i) = bucket_position(bucket, hash, &entry.name) {
            return Probed::new(false, i as u64 + 2);
        }
        let probes = bucket.len() as u64 + 1;
        bucket.push((hash, entry));
        self.len += 1;
        Probed::new(true, probes + self.maybe_grow() / 8) // amortized rehash cost
    }

    fn remove(&mut self, name: &str) -> Probed<Option<RawEntry>> {
        let hash = hash_name(name);
        let idx = self.bucket_of(hash);
        let bucket = &mut self.buckets[idx];
        match bucket_position(bucket, hash, name) {
            Some(i) => {
                self.len -= 1;
                Probed::new(Some(bucket.remove(i).1), i as u64 + 1)
            }
            None => Probed::new(None, bucket.len() as u64 + 1),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn iter_entries(&self) -> Box<dyn Iterator<Item = &RawEntry> + '_> {
        Box::new(self.buckets.iter().flatten().map(|(_, e)| e))
    }

    fn kind(&self) -> DirIndexKind {
        DirIndexKind::Hashed
    }

    fn clone_box(&self) -> Box<dyn DirIndex> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// B-tree
// ---------------------------------------------------------------------------

/// B-tree directory (XFS-style): `O(log n)` probes, sorted readdir order.
///
/// Backed by `std::collections::BTreeMap`; probe counts are modelled as
/// `ceil(log2(n+1))` node visits, which matches the asymptotics the large-
/// directory experiment needs.
#[derive(Debug, Clone, Default)]
pub struct BTreeDir {
    map: BTreeMap<Arc<str>, RawEntry>,
}

impl BTreeDir {
    /// Create an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    fn log_probes(&self) -> u64 {
        (usize::BITS - self.map.len().leading_zeros()) as u64 + 1
    }
}

impl DirIndex for BTreeDir {
    fn lookup(&self, name: &str) -> Probed<Option<RawEntry>> {
        let probes = self.log_probes();
        let value = self.map.get(name).cloned();
        Probed::new(value, probes)
    }

    fn insert(&mut self, entry: RawEntry) -> Probed<bool> {
        let probes = self.log_probes();
        if self.map.contains_key(&*entry.name) {
            return Probed::new(false, probes);
        }
        self.map.insert(entry.name.clone(), entry);
        Probed::new(true, probes + 1)
    }

    fn remove(&mut self, name: &str) -> Probed<Option<RawEntry>> {
        let probes = self.log_probes();
        let value = self.map.remove(name);
        Probed::new(value, probes)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn iter_entries(&self) -> Box<dyn Iterator<Item = &RawEntry> + '_> {
        Box::new(self.map.values())
    }

    fn kind(&self) -> DirIndexKind {
        DirIndexKind::BTree
    }

    fn clone_box(&self) -> Box<dyn DirIndex> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, ino: u64) -> RawEntry {
        RawEntry {
            name: name.into(),
            ino: Ino(ino),
            file_type: FileType::Regular,
        }
    }

    fn exercise(mut d: Box<dyn DirIndex>) {
        assert!(d.is_empty());
        assert!(d.insert(entry("a", 1)).value);
        assert!(d.insert(entry("b", 2)).value);
        assert!(!d.insert(entry("a", 3)).value, "duplicate rejected");
        assert_eq!(d.len(), 2);
        assert_eq!(d.lookup("a").value.unwrap().ino, Ino(1));
        assert_eq!(d.lookup("zz").value, None);
        let removed = d.remove("a").value.unwrap();
        assert_eq!(removed.ino, Ino(1));
        assert_eq!(d.remove("a").value, None);
        assert_eq!(d.len(), 1);
        let names: Vec<Arc<str>> = d.iter_entries().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec![Arc::from("b")]);
    }

    #[test]
    fn all_kinds_behave_identically() {
        exercise(new_index(DirIndexKind::Linear));
        exercise(new_index(DirIndexKind::Hashed));
        exercise(new_index(DirIndexKind::BTree));
    }

    #[test]
    fn linear_probes_grow_linearly() {
        let mut d = LinearDir::new();
        for i in 0..1000 {
            d.insert(entry(&format!("f{i}"), i));
        }
        let missing = d.lookup("nope");
        assert_eq!(missing.probes, 1000, "miss scans the whole list");
        let hit_last = d.lookup("f999");
        assert_eq!(hit_last.probes, 1000);
        let hit_first = d.lookup("f0");
        assert_eq!(hit_first.probes, 1);
    }

    #[test]
    fn hashed_probes_stay_bounded() {
        let mut d = HashedDir::new();
        for i in 0..10_000 {
            d.insert(entry(&format!("f{i}"), i));
        }
        let mut max_probes = 0;
        for i in (0..10_000).step_by(97) {
            max_probes = max_probes.max(d.lookup(&format!("f{i}")).probes);
        }
        assert!(
            max_probes <= 2 * MAX_LOAD as u64 + 2,
            "hashed lookup probes bounded, got {max_probes}"
        );
        assert_eq!(d.len(), 10_000);
        assert_eq!(d.entries().len(), 10_000);
    }

    #[test]
    fn btree_probes_grow_logarithmically() {
        let mut d = BTreeDir::new();
        for i in 0..100_000u64 {
            d.insert(entry(&format!("f{i:06}"), i));
        }
        let p = d.lookup("f050000").probes;
        assert!(p <= 20, "log2(1e5) ≈ 17, got {p}");
        // sorted readdir order
        let names = d.entries();
        let mut sorted = names.clone();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(names, sorted);
    }

    #[test]
    fn hashed_rehash_preserves_entries() {
        let mut d = HashedDir::new();
        for i in 0..(INITIAL_BUCKETS * MAX_LOAD * 4) as u64 {
            assert!(d.insert(entry(&format!("x{i}"), i)).value);
        }
        for i in 0..(INITIAL_BUCKETS * MAX_LOAD * 4) as u64 {
            assert_eq!(d.lookup(&format!("x{i}")).value.unwrap().ino, Ino(i));
        }
    }

    #[test]
    fn clone_box_is_deep() {
        let mut d = new_index(DirIndexKind::Hashed);
        d.insert(entry("a", 1));
        let copy = d.clone_box();
        d.insert(entry("b", 2));
        assert_eq!(copy.len(), 1);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn entries_share_name_allocations() {
        for kind in [
            DirIndexKind::Linear,
            DirIndexKind::Hashed,
            DirIndexKind::BTree,
        ] {
            let mut d = new_index(kind);
            let e = entry("shared", 9);
            let name = e.name.clone();
            d.insert(e);
            let owned = d.entries();
            assert!(
                Arc::ptr_eq(&owned[0].name, &name),
                "{kind:?}: owned entries must share the interned name"
            );
            assert_eq!(d.iter_entries().count(), 1);
        }
    }

    #[test]
    fn name_hash_is_deterministic() {
        assert_eq!(hash_name("hello"), hash_name("hello"));
        assert_ne!(hash_name("hello"), hash_name("world"));
    }
}
