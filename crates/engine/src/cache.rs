//! Keyed artifact caches with hit/miss accounting.
//!
//! [`ArtifactCache`] stores `Arc`-shared artifacts behind a mutex and is
//! safe to share across worker threads. The analyzer uses it for parsed
//! ASTs keyed by [`crate::ContentKey`] (one parse per distinct file
//! content across all tools and versions) and for per-tool function
//! summaries. Counters are atomic so statistics can be read while workers
//! are still running.

use phpsafe_intern::FnvHashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Snapshot of a cache's lookup counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
}

impl CacheCounters {
    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache; 0 when never queried.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Sums two snapshots (e.g. parse cache across engine runs).
    pub fn merged(&self, other: &CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

/// A thread-safe, `Arc`-sharing, hit/miss-counting map from keys to
/// immutable artifacts.
pub struct ArtifactCache<K, V> {
    map: Mutex<FnvHashMap<K, Arc<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V> Default for ArtifactCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash, V> ArtifactCache<K, V> {
    pub fn new() -> Self {
        ArtifactCache {
            map: Mutex::new(FnvHashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks `key` up, counting a hit or miss.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let found = self.map.lock().unwrap().get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Looks `key` up without counting a hit or miss, for bookkeeping
    /// that is not a request for the artifact.
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.map.lock().unwrap().get(key).cloned()
    }

    /// Stores an artifact, returning the shared handle. If another worker
    /// raced us to the key, their artifact wins (callers must produce
    /// equivalent artifacts for equal keys).
    pub fn insert(&self, key: K, value: V) -> Arc<V> {
        let mut map = self.map.lock().unwrap();
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.get().clone(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(Arc::new(value)).clone(),
        }
    }

    /// Cached lookup around `build`. Returns the artifact and whether it
    /// was served from the cache. `build` runs outside the lock so an
    /// expensive miss (a parse) never blocks other workers' hits.
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> (Arc<V>, bool) {
        if let Some(found) = self.get(&key) {
            return (found, true);
        }
        let built = build();
        (self.insert(key, built), false)
    }

    /// Current counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of stored artifacts.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_are_counted() {
        let cache: ArtifactCache<u64, String> = ArtifactCache::new();
        assert!(cache.get(&1).is_none());
        cache.insert(1, "one".to_string());
        assert_eq!(cache.get(&1).as_deref().map(String::as_str), Some("one"));
        assert!(cache.get(&2).is_none());
        // Peeks are not lookups.
        assert!(cache.peek(&1).is_some() && cache.peek(&2).is_none());
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 2));
        assert_eq!(c.lookups(), 3);
    }

    #[test]
    fn accounting_invariant_hits_plus_misses_is_lookups() {
        let cache: ArtifactCache<u64, u64> = ArtifactCache::new();
        for i in 0..100u64 {
            let (_v, _hit) = cache.get_or_build(i % 7, || i);
        }
        let c = cache.counters();
        assert_eq!(c.hits + c.misses, c.lookups());
        assert_eq!(c.lookups(), 100);
        assert_eq!(c.misses, 7, "one miss per distinct key");
        assert_eq!(cache.len(), 7);
    }

    #[test]
    fn get_or_build_shares_one_artifact() {
        let cache: ArtifactCache<&'static str, Vec<u32>> = ArtifactCache::new();
        let (a, hit_a) = cache.get_or_build("k", || vec![1, 2, 3]);
        let (b, hit_b) = cache.get_or_build("k", || unreachable!("must be cached"));
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn hit_rate_bounds() {
        let c = CacheCounters { hits: 3, misses: 1 };
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let cache: ArtifactCache<u64, u64> = ArtifactCache::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..50 {
                        cache.get_or_build(i % 5, || t * 1000 + i);
                    }
                });
            }
        });
        let c = cache.counters();
        assert_eq!(c.lookups(), 200);
        assert_eq!(cache.len(), 5);
    }
}
