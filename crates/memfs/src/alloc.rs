//! Block allocators.
//!
//! The thesis (§2.4.2 "Block allocation structures") contrasts FFS-style
//! bitmap allocation, which takes linear time to find runs of free blocks,
//! with extent-based allocation that manages large contiguous runs in trees.
//! Both are implemented here behind [`BlockAllocator`]; the file system uses
//! them for real and the simulator charges time proportional to the scan
//! work they report.

use std::collections::BTreeMap;

use crate::error::{FsError, FsResult};

/// Which allocator a file system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocatorKind {
    /// Free-block bitmap (FFS \[MJLF84\]).
    Bitmap,
    /// Extent tree (XFS \[SDH+96\]).
    #[default]
    Extent,
}

/// A contiguous run of blocks `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First block of the run.
    pub start: u64,
    /// Number of blocks.
    pub len: u64,
}

/// Allocation outcome: the extents granted plus the scan work performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Granted extents; their lengths sum to the requested count.
    pub extents: Vec<Extent>,
    /// Scan work (bitmap words examined or tree nodes visited).
    pub scan_cost: u64,
}

/// Common allocator behaviour.
pub trait BlockAllocator: std::fmt::Debug + Send + Sync {
    /// Allocate `count` blocks.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] if fewer than `count` blocks are free; the
    /// allocator state is unchanged in that case.
    fn allocate(&mut self, count: u64) -> FsResult<Allocation>;
    /// Return blocks to the free pool.
    ///
    /// # Panics
    ///
    /// May panic (in debug builds) if blocks are freed twice.
    fn free(&mut self, extents: &[Extent]);
    /// Free blocks remaining.
    fn free_blocks(&self) -> u64;
    /// Total blocks managed.
    fn total_blocks(&self) -> u64;
    /// Number of separate free runs (a fragmentation measure).
    fn fragments(&self) -> usize;
    /// Which implementation this is.
    fn kind(&self) -> AllocatorKind;
    /// Deep copy (for snapshots).
    fn clone_box(&self) -> Box<dyn BlockAllocator>;
}

/// Construct an allocator of the given kind managing `total` blocks.
pub fn new_allocator(kind: AllocatorKind, total: u64) -> Box<dyn BlockAllocator> {
    match kind {
        AllocatorKind::Bitmap => Box::new(BitmapAllocator::new(total)),
        AllocatorKind::Extent => Box::new(ExtentAllocator::new(total)),
    }
}

// ---------------------------------------------------------------------------
// Bitmap allocator
// ---------------------------------------------------------------------------

/// FFS-style free-block bitmap with a rotor (next-fit) to reduce rescanning.
#[derive(Debug, Clone)]
pub struct BitmapAllocator {
    /// Bit i set ⇒ block i free.
    words: Vec<u64>,
    total: u64,
    free: u64,
    rotor: usize,
}

impl BitmapAllocator {
    /// Create with all `total` blocks free.
    pub fn new(total: u64) -> Self {
        let nwords = (total as usize).div_ceil(64);
        let mut words = vec![u64::MAX; nwords];
        // clear bits beyond `total`
        let excess = (nwords as u64 * 64).saturating_sub(total);
        if excess > 0 {
            let last = words.last_mut().expect("nwords >= 1 when excess > 0");
            *last >>= excess;
        }
        BitmapAllocator {
            words,
            total,
            free: total,
            rotor: 0,
        }
    }
}

impl BlockAllocator for BitmapAllocator {
    fn allocate(&mut self, count: u64) -> FsResult<Allocation> {
        if count == 0 {
            return Ok(Allocation {
                extents: Vec::new(),
                scan_cost: 0,
            });
        }
        if count > self.free {
            return Err(FsError::NoSpace);
        }
        let mut remaining = count;
        let mut extents: Vec<Extent> = Vec::new();
        let mut scan_cost = 0u64;
        let nwords = self.words.len();
        let mut widx = self.rotor;
        let mut visited = 0;
        while remaining > 0 && visited <= nwords {
            scan_cost += 1;
            let word = self.words[widx];
            if word != 0 {
                let mut w = word;
                while remaining > 0 && w != 0 {
                    let bit = w.trailing_zeros() as u64;
                    let block = widx as u64 * 64 + bit;
                    w &= !(1u64 << bit);
                    self.words[widx] &= !(1u64 << bit);
                    self.free -= 1;
                    remaining -= 1;
                    // coalesce into the previous extent when contiguous
                    match extents.last_mut() {
                        Some(e) if e.start + e.len == block => e.len += 1,
                        _ => extents.push(Extent {
                            start: block,
                            len: 1,
                        }),
                    }
                }
            }
            widx = (widx + 1) % nwords;
            visited += 1;
        }
        debug_assert_eq!(remaining, 0, "free-count said there was room");
        self.rotor = widx;
        Ok(Allocation { extents, scan_cost })
    }

    fn free(&mut self, extents: &[Extent]) {
        for e in extents {
            for b in e.start..e.start + e.len {
                let (w, bit) = ((b / 64) as usize, b % 64);
                debug_assert_eq!(self.words[w] & (1 << bit), 0, "double free of block {b}");
                self.words[w] |= 1 << bit;
            }
            self.free += e.len;
        }
    }

    fn free_blocks(&self) -> u64 {
        self.free
    }

    fn total_blocks(&self) -> u64 {
        self.total
    }

    fn fragments(&self) -> usize {
        // count maximal runs of set bits
        let mut runs = 0;
        let mut in_run = false;
        for b in 0..self.total {
            let free = self.words[(b / 64) as usize] & (1 << (b % 64)) != 0;
            if free && !in_run {
                runs += 1;
            }
            in_run = free;
        }
        runs
    }

    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Bitmap
    }

    fn clone_box(&self) -> Box<dyn BlockAllocator> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Extent allocator
// ---------------------------------------------------------------------------

/// Extent-tree allocator: free space kept as `start → len` runs in a B-tree;
/// best-effort first-fit with coalescing on free.
#[derive(Debug, Clone)]
pub struct ExtentAllocator {
    /// Free runs keyed by start block.
    free_runs: BTreeMap<u64, u64>,
    total: u64,
    free: u64,
}

impl ExtentAllocator {
    /// Create with all `total` blocks free.
    pub fn new(total: u64) -> Self {
        let mut free_runs = BTreeMap::new();
        if total > 0 {
            free_runs.insert(0, total);
        }
        ExtentAllocator {
            free_runs,
            total,
            free: total,
        }
    }
}

impl BlockAllocator for ExtentAllocator {
    fn allocate(&mut self, count: u64) -> FsResult<Allocation> {
        if count == 0 {
            return Ok(Allocation {
                extents: Vec::new(),
                scan_cost: 0,
            });
        }
        if count > self.free {
            return Err(FsError::NoSpace);
        }
        let mut remaining = count;
        let mut extents = Vec::new();
        let mut scan_cost = 0u64;
        while remaining > 0 {
            scan_cost += 1;
            let (&start, &len) = self
                .free_runs
                .iter()
                .next()
                .expect("free count says blocks remain");
            let take = len.min(remaining);
            self.free_runs.remove(&start);
            if take < len {
                self.free_runs.insert(start + take, len - take);
            }
            extents.push(Extent { start, len: take });
            self.free -= take;
            remaining -= take;
        }
        Ok(Allocation { extents, scan_cost })
    }

    fn free(&mut self, extents: &[Extent]) {
        for e in extents {
            if e.len == 0 {
                continue;
            }
            let mut start = e.start;
            let mut len = e.len;
            // coalesce with predecessor
            if let Some((&ps, &pl)) = self.free_runs.range(..start).next_back() {
                debug_assert!(ps + pl <= start, "double free overlapping predecessor");
                if ps + pl == start {
                    self.free_runs.remove(&ps);
                    start = ps;
                    len += pl;
                }
            }
            // coalesce with successor
            if let Some((&ns, &nl)) = self.free_runs.range(start + len..).next() {
                if start + len == ns {
                    self.free_runs.remove(&ns);
                    len += nl;
                }
            }
            self.free_runs.insert(start, len);
            self.free += e.len;
        }
    }

    fn free_blocks(&self) -> u64 {
        self.free
    }

    fn total_blocks(&self) -> u64 {
        self.total
    }

    fn fragments(&self) -> usize {
        self.free_runs.len()
    }

    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Extent
    }

    fn clone_box(&self) -> Box<dyn BlockAllocator> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(mut a: Box<dyn BlockAllocator>) {
        let total = a.total_blocks();
        assert_eq!(a.free_blocks(), total);
        let alloc1 = a.allocate(10).unwrap();
        assert_eq!(alloc1.extents.iter().map(|e| e.len).sum::<u64>(), 10);
        assert_eq!(a.free_blocks(), total - 10);
        let alloc2 = a.allocate(5).unwrap();
        assert_eq!(a.free_blocks(), total - 15);
        // no overlap between allocations
        for e1 in &alloc1.extents {
            for e2 in &alloc2.extents {
                assert!(
                    e1.start + e1.len <= e2.start || e2.start + e2.len <= e1.start,
                    "overlapping extents {e1:?} {e2:?}"
                );
            }
        }
        a.free(&alloc1.extents);
        assert_eq!(a.free_blocks(), total - 5);
        a.free(&alloc2.extents);
        assert_eq!(a.free_blocks(), total);
        assert_eq!(a.fragments(), 1, "full coalescing back to one run");
    }

    #[test]
    fn both_kinds_allocate_and_free() {
        exercise(new_allocator(AllocatorKind::Bitmap, 1000));
        exercise(new_allocator(AllocatorKind::Extent, 1000));
    }

    #[test]
    fn exhaustion_returns_nospace() {
        for kind in [AllocatorKind::Bitmap, AllocatorKind::Extent] {
            let mut a = new_allocator(kind, 8);
            let got = a.allocate(8).unwrap();
            assert_eq!(a.allocate(1), Err(FsError::NoSpace));
            assert_eq!(a.free_blocks(), 0);
            a.free(&got.extents);
            assert!(a.allocate(1).is_ok());
        }
    }

    #[test]
    fn failed_allocation_preserves_state() {
        let mut a = ExtentAllocator::new(10);
        a.allocate(6).unwrap();
        assert_eq!(a.allocate(5), Err(FsError::NoSpace));
        assert_eq!(a.free_blocks(), 4);
        assert!(a.allocate(4).is_ok());
    }

    #[test]
    fn zero_allocation_is_free() {
        let mut a = BitmapAllocator::new(4);
        let got = a.allocate(0).unwrap();
        assert!(got.extents.is_empty());
        assert_eq!(a.free_blocks(), 4);
    }

    #[test]
    fn extent_allocator_prefers_contiguous() {
        let mut a = ExtentAllocator::new(1000);
        let big = a.allocate(100).unwrap();
        assert_eq!(big.extents.len(), 1, "fresh fs grants one extent");
        assert_eq!(big.extents[0], Extent { start: 0, len: 100 });
    }

    #[test]
    fn extent_free_coalesces_middle() {
        let mut a = ExtentAllocator::new(30);
        let x = a.allocate(10).unwrap();
        let y = a.allocate(10).unwrap();
        let z = a.allocate(10).unwrap();
        a.free(&x.extents);
        a.free(&z.extents);
        assert_eq!(a.fragments(), 2);
        a.free(&y.extents);
        assert_eq!(a.fragments(), 1, "freeing the middle merges all runs");
        assert_eq!(a.free_blocks(), 30);
    }

    #[test]
    fn bitmap_total_not_multiple_of_64() {
        let mut a = BitmapAllocator::new(70);
        let got = a.allocate(70).unwrap();
        assert_eq!(got.extents.iter().map(|e| e.len).sum::<u64>(), 70);
        assert_eq!(a.allocate(1), Err(FsError::NoSpace));
        // highest block must be < 70
        let max = got.extents.iter().map(|e| e.start + e.len).max().unwrap();
        assert!(max <= 70);
    }

    #[test]
    fn bitmap_fragmentation_after_interleaved_free() {
        let mut a = BitmapAllocator::new(64);
        let mut singles = Vec::new();
        for _ in 0..32 {
            singles.push(a.allocate(2).unwrap());
        }
        // free every other allocation → checkerboard
        for alloc in singles.iter().step_by(2) {
            a.free(&alloc.extents);
        }
        assert_eq!(a.free_blocks(), 32);
        assert_eq!(a.fragments(), 16);
    }
}
