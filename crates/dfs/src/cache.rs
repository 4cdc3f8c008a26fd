//! Client-side cache state.
//!
//! Distributed file systems differ most in *what the client may answer
//! locally* (paper §2.6, §3.4.3). This module provides the building blocks
//! the models share:
//!
//! * [`AttrCache`] — a TTL-based attribute/dentry cache (NFS `acregmin`
//!   style),
//! * [`CallbackCache`] — a callback/lease cache that stays valid until the
//!   server breaks it (AFS-style),
//! * hit/miss accounting for post-run analysis.

use simcore::{SimDuration, SimTime};
use std::collections::HashMap;

/// Cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered locally.
    pub hits: u64,
    /// Lookups that needed the server.
    pub misses: u64,
    /// Explicit invalidations (including drop-caches).
    pub invalidations: u64,
}

/// A TTL-based attribute cache, as used by NFS clients: entries are trusted
/// for a fixed window after they were fetched (paper §2.6.3 "Visibility of
/// changes" — time-based caching of directory entries and attributes).
#[derive(Debug, Clone)]
pub struct AttrCache {
    ttl: SimDuration,
    entries: HashMap<String, SimTime>,
    stats: CacheStats,
}

impl AttrCache {
    /// Create a cache whose entries live for `ttl`.
    pub fn new(ttl: SimDuration) -> Self {
        AttrCache {
            ttl,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Record that `path`'s attributes were fetched at `now`.
    pub fn fill(&mut self, path: &str, now: SimTime) {
        self.entries.insert(path.to_owned(), now + self.ttl);
    }

    /// Check (and account) whether `path` can be answered locally at `now`.
    ///
    /// An expired entry is evicted on the spot: without this, long runs over
    /// churning namespaces grow the map without bound (every dead path stays
    /// resident forever).
    pub fn lookup(&mut self, path: &str, now: SimTime) -> bool {
        let hit = match self.entries.get(path) {
            Some(&expires) if now < expires => true,
            Some(_) => {
                self.entries.remove(path);
                false
            }
            None => false,
        };
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Drop everything (the `drop_caches` sysctl, paper §3.4.3).
    pub fn clear(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
    }

    /// Number of resident entries (expired entries linger only until the
    /// next lookup touches them).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accounting.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// A callback-based cache (AFS): entries stay valid until the server breaks
/// the callback (which our single-writer benchmarks never trigger for the
/// issuing client) or the client drops its cache.
#[derive(Debug, Clone, Default)]
pub struct CallbackCache {
    entries: HashMap<String, ()>,
    stats: CacheStats,
}

impl CallbackCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a fetched entry with a granted callback.
    pub fn fill(&mut self, path: &str) {
        self.entries.insert(path.to_owned(), ());
    }

    /// Check (and account) a lookup.
    pub fn lookup(&mut self, path: &str) -> bool {
        let hit = self.entries.contains_key(path);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
    }

    /// Number of entries holding a callback.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accounting.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttl_expiry() {
        let mut c = AttrCache::new(SimDuration::from_secs(3));
        c.fill("/a", SimTime::ZERO);
        assert!(c.lookup("/a", SimTime::from_secs(2)));
        assert!(!c.lookup("/a", SimTime::from_secs(3)), "expired at ttl");
        assert!(!c.lookup("/b", SimTime::ZERO));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn clear_drops_every_entry() {
        let mut c = AttrCache::new(SimDuration::from_secs(30));
        c.fill("/a", SimTime::ZERO);
        c.fill("/b", SimTime::ZERO);
        assert!(c.lookup("/b", SimTime::from_secs(1)));
        c.clear();
        assert!(!c.lookup("/b", SimTime::from_secs(1)));
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations, 2);
    }

    /// Regression: expired entries must be purged when a lookup sees them,
    /// so a churning namespace (fresh paths every round, old ones never
    /// touched again while live) cannot grow the map past the live set.
    #[test]
    fn expired_entries_are_evicted_on_lookup() {
        let mut c = AttrCache::new(SimDuration::from_secs(1));
        for round in 0..10u64 {
            let t = SimTime::from_secs(round * 10);
            for i in 0..100 {
                c.fill(&format!("/r{round}/f{i}"), t);
            }
            assert!(
                c.len() <= 100,
                "round {round}: {} entries resident",
                c.len()
            );
            // by +5 s everything from this round has expired; each miss evicts
            for i in 0..100 {
                assert!(!c.lookup(&format!("/r{round}/f{i}"), t + SimDuration::from_secs(5)));
            }
        }
        assert!(c.is_empty(), "{} stale entries leaked", c.len());
        assert_eq!(c.stats().misses, 1000);
    }

    #[test]
    fn callback_cache_until_cleared() {
        let mut c = CallbackCache::new();
        c.fill("/a");
        // callbacks do not expire with time
        assert!(c.lookup("/a"));
        assert!(c.lookup("/a"));
        c.clear();
        assert!(!c.lookup("/a"));
    }
}
