//! Epoch-invalidated in-memory caches for the per-request authorization
//! path.
//!
//! The paper's request pipeline performs two access checks per call — the
//! session check and the method ACL walk — and each one costs a DB lookup
//! plus JSON deserialization plus DN parsing. [`Sharded`] is the shared
//! cache primitive that removes that cost from the hot path: a sharded
//! hash map whose entries carry a *tag* (a [`clarens_db::Store`] bucket
//! generation, or a tuple of them). A lookup is a hit only if the stored
//! tag equals the tag the caller loaded from the store *before* asking, so
//! a cached record can never outlive a write to its backing bucket.
//!
//! The guarantee is one-sided by construction: writers bump the bucket
//! generation inside the store's write-lock scope after mutating, and
//! readers load the generation before reading, so a race can only produce
//! a *spurious miss* (an entry tagged with a superseded generation), never
//! a stale hit. There is no TTL and no background invalidation thread —
//! correctness comes entirely from the epoch comparison.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Number of independent shards (bounds lock contention).
const SHARDS: usize = 16;
/// Per-shard entry cap; a full shard is cleared wholesale. The caches hold
/// compiled ACL nodes, VO groups, sessions, and authorization decisions —
/// all small and cheap to recompute, so eviction never needs to be clever.
const CAP_PER_SHARD: usize = 4096;

/// Monotonic hit/miss counters, reported next to the store's own
/// lookup/scan/write counters (see `system.stats`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache with a current tag.
    pub hits: u64,
    /// Lookups that found nothing (or a superseded tag) and fell through
    /// to the store.
    pub misses: u64,
}

impl CacheStats {
    /// Combine counters from several caches.
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

/// A sharded, tag-validated cache. `T` is the tag type — a bucket
/// generation (`u64`), a pair of generations, or `()` for write-through
/// caches that are invalidated explicitly instead of by epoch.
pub struct Sharded<K, V, T = u64> {
    shards: Vec<Mutex<HashMap<K, (T, V)>>>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq, V: Clone, T: Copy + Eq> Sharded<K, V, T> {
    /// An empty cache.
    pub fn new() -> Self {
        Sharded {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<HashMap<K, (T, V)>> {
        let index = self.hasher.hash_one(key) as usize % self.shards.len();
        &self.shards[index]
    }

    /// Look up `key`; a hit requires the stored tag to equal `tag`.
    /// Entries with superseded tags count as misses (and are evicted).
    pub fn get<Q>(&self, key: &Q, tag: T) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut shard = self.shard(key).lock();
        match shard.get(key) {
            Some((stored, value)) if *stored == tag => {
                let value = value.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Some(_) => {
                shard.remove(key);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or replace) an entry under `tag`.
    pub fn insert(&self, key: K, tag: T, value: V) {
        let mut shard = self.shard(&key).lock();
        if shard.len() >= CAP_PER_SHARD && !shard.contains_key(&key) {
            shard.clear();
        }
        shard.insert(key, (tag, value));
    }

    /// Remove one entry (explicit invalidation for write-through caches).
    pub fn remove<Q>(&self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard(key).lock().remove(key);
    }

    /// Drop every entry.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Entries held, stale ones included.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().len()).sum()
    }
}

impl<K: Hash + Eq, V: Clone, T: Copy + Eq> Default for Sharded<K, V, T> {
    fn default() -> Self {
        Sharded::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_requires_matching_tag() {
        let cache: Sharded<String, u32> = Sharded::new();
        cache.insert("k".into(), 1, 10);
        assert_eq!(cache.get("k", 1), Some(10));
        // A newer generation invalidates the entry.
        assert_eq!(cache.get("k", 2), None);
        // The stale entry was evicted — even asking with the old tag
        // misses now.
        assert_eq!(cache.get("k", 1), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn remove_and_clear() {
        let cache: Sharded<String, u32, ()> = Sharded::new();
        cache.insert("a".into(), (), 1);
        cache.insert("b".into(), (), 2);
        cache.remove("a");
        assert_eq!(cache.get("a", ()), None);
        assert_eq!(cache.get("b", ()), Some(2));
        cache.clear();
        assert_eq!(cache.get("b", ()), None);
    }

    #[test]
    fn tuple_tags_invalidate_on_either_axis() {
        let cache: Sharded<String, bool, (u64, u64)> = Sharded::new();
        cache.insert("decision".into(), (3, 7), true);
        assert_eq!(cache.get("decision", (3, 7)), Some(true));
        assert_eq!(cache.get("decision", (4, 7)), None);
        cache.insert("decision".into(), (4, 7), true);
        assert_eq!(cache.get("decision", (4, 8)), None);
    }

    #[test]
    fn cap_clears_rather_than_grows_unbounded() {
        let cache: Sharded<u64, u64> = Sharded::new();
        for i in 0..(SHARDS * CAP_PER_SHARD * 2) as u64 {
            cache.insert(i, 0, i);
        }
        let held: usize = (0..(SHARDS * CAP_PER_SHARD * 2) as u64)
            .filter(|i| cache.get(i, 0).is_some())
            .count();
        assert!(held <= SHARDS * CAP_PER_SHARD);
        assert!(held > 0);
    }

    /// `n` keys other than `anchor` that live in `anchor`'s shard.
    fn shard_mates(cache: &Sharded<u64, u64>, anchor: u64, n: usize) -> Vec<u64> {
        (0..)
            .filter(|k| *k != anchor && std::ptr::eq(cache.shard(k), cache.shard(&anchor)))
            .take(n)
            .collect()
    }

    #[test]
    fn a_full_shard_clears_for_a_new_key_but_not_for_a_replaced_one() {
        let cache: Sharded<u64, u64> = Sharded::new();
        let residents = shard_mates(&cache, 0, CAP_PER_SHARD);
        for k in &residents {
            cache.insert(*k, 7, *k);
        }
        cache.insert(residents[0], 8, 100);
        assert_eq!(cache.get(&residents[0], 8), Some(100));
        assert!(residents[1..].iter().all(|k| cache.get(k, 7) == Some(*k)));
        cache.insert(0, 7, 0);
        assert_eq!(cache.get(&0, 7), Some(0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn merged_stats() {
        let a = CacheStats { hits: 2, misses: 3 };
        let b = CacheStats { hits: 5, misses: 7 };
        assert_eq!(
            a.merged(b),
            CacheStats {
                hits: 7,
                misses: 10
            }
        );
    }
}
