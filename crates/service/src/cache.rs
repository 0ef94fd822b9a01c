//! The prepared-context cache: a bounded LRU over [`PreparedEngine`]s.

use sge_engine::PreparedEngine;
use sge_graph::{AdjacencyBitmaps, Graph};
use sge_ri::Algorithm;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache identity of a prepared engine.
///
/// The pattern participates through its **canonical serialization** (node
/// labels + edge list, name stripped), so two syntactically different query
/// texts describing the same graph share one entry; equality is on the full
/// canonical form — the reported hash is informational, never trusted for
/// identity.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    pattern: String,
    target: String,
    algorithm: Algorithm,
}

/// The one preparation of a key: filled by the first caller that reaches
/// it, waited on by every concurrent caller of the same key.
type Slot = Arc<OnceLock<Arc<PreparedEngine>>>;

struct Entry {
    slot: Slot,
    /// The graph the slot prepares against: reloading a target swaps the
    /// registry's `Arc`, which makes this entry stale.
    target: Arc<Graph>,
    last_used: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// Point-in-time cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Configured capacity (0 disables retention).
    pub capacity: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Lookups served from the cache, including callers that waited on a
    /// concurrent preparation of the same key.
    pub hits: u64,
    /// Lookups that ran preprocessing.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries created in the map (a capacity-0 cache never inserts).
    pub inserts: u64,
}

/// A bounded LRU of prepared engines keyed by *(pattern, target name,
/// algorithm)*.
///
/// Single-flight per key: a miss creates the key's slot under the cache lock
/// and prepares **outside** it, so a slow domain computation never blocks
/// lookups of other keys, while concurrent callers of the same key wait on
/// that one preparation and count as hits.
pub struct PreparedCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
}

impl PreparedCache {
    /// Creates a cache retaining at most `capacity` prepared engines
    /// (capacity 0 never retains — every lookup prepares).
    pub fn new(capacity: usize) -> Self {
        PreparedCache {
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// The canonical serialization of a pattern: its text-format body with
    /// the name stripped.
    pub fn canonical_pattern(pattern: &Graph) -> String {
        sge_graph::io::write_graph_body(pattern)
    }

    /// Process-stable hash of the canonical pattern (reported to clients for
    /// correlation; identity always uses the full canonical form).
    pub fn pattern_hash(pattern: &Graph) -> u64 {
        text_hash(&Self::canonical_pattern(pattern))
    }

    /// Fetches the prepared engine for `(pattern, target_name, algorithm)`,
    /// preparing and inserting it on a miss.  Returns the engine, whether
    /// the lookup was a hit, and the pattern's [`Self::pattern_hash`], taken
    /// over the canonical text of the key so the pattern is serialized once.
    ///
    /// A miss prepares with the bitmap sidecar the registry built at
    /// registration instead of building a private one.
    pub fn get_or_prepare(
        &self,
        pattern: &Graph,
        target_name: &str,
        target: &Arc<Graph>,
        bitmaps: &Arc<AdjacencyBitmaps>,
        algorithm: Algorithm,
    ) -> (Arc<PreparedEngine>, bool, u64) {
        let key = CacheKey {
            pattern: Self::canonical_pattern(pattern),
            target: target_name.to_string(),
            algorithm,
        };
        let pattern_hash = text_hash(&key.pattern);

        let slot = self.slot(key, target);
        let mut prepared = false;
        let engine = slot.get_or_init(|| {
            prepared = true;
            Arc::new(PreparedEngine::prepare_planned_full(
                Arc::new(pattern.clone()),
                Arc::clone(target),
                Arc::clone(bitmaps),
                algorithm,
            ))
        });
        let counter = if prepared { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        (Arc::clone(engine), !prepared, pattern_hash)
    }

    /// The slot of `key` for `target`: the resident one, or a fresh one
    /// inserted in its place (displacing a stale entry, or the
    /// least-recently-used one at capacity).
    fn slot(&self, key: CacheKey, target: &Arc<Graph>) -> Slot {
        if self.capacity == 0 {
            return Slot::default();
        }
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            // The entry must prepare against the *same* graph the registry
            // currently holds under this name — an engine built against a
            // reloaded target's old graph would silently answer with stale
            // results.
            Some(entry) if Arc::ptr_eq(&entry.target, target) => {
                entry.last_used = tick;
                return Arc::clone(&entry.slot);
            }
            // Drop the stale entry first so the capacity check below does
            // not evict a bystander.
            Some(_) => {
                inner.map.remove(&key);
            }
            None => {}
        }
        if inner.map.len() >= self.capacity {
            // Displace the least-recently-used entry (O(n) scan; the cache
            // is bounded and small relative to preparation cost).
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
            {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let slot = Slot::default();
        inner.map.insert(
            key,
            Entry {
                slot: Arc::clone(&slot),
                target: Arc::clone(target),
                last_used: tick,
            },
        );
        slot
    }

    /// Drops every cached engine (counters are preserved).
    pub fn clear(&self) {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .map
            .clear();
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .map
            .len();
        CacheStats {
            capacity: self.capacity,
            entries,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        }
    }
}

/// The [`DefaultHasher`] digest of `text`.
fn text_hash(text: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    text.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, BitmapConfig};

    fn k5() -> Arc<Graph> {
        Arc::new(generators::clique(5, 0))
    }

    /// A registry-style lookup: a fresh sidecar for `target`, as the
    /// registry keeps one.
    fn lookup(
        cache: &PreparedCache,
        pattern: &Graph,
        name: &str,
        target: &Arc<Graph>,
        algorithm: Algorithm,
    ) -> (Arc<PreparedEngine>, bool) {
        let bitmaps = Arc::new(AdjacencyBitmaps::build(target, &BitmapConfig::default()));
        let (engine, hit, hash) = cache.get_or_prepare(pattern, name, target, &bitmaps, algorithm);
        assert_eq!(hash, PreparedCache::pattern_hash(pattern));
        (engine, hit)
    }

    #[test]
    fn hit_returns_the_same_engine() {
        let cache = PreparedCache::new(4);
        let target = k5();
        let pattern = generators::directed_cycle(3, 0);
        let (first, hit1) = lookup(&cache, &pattern, "k5", &target, Algorithm::RiDsSiFc);
        let (second, hit2) = lookup(&cache, &pattern, "k5", &target, Algorithm::RiDsSiFc);
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.inserts, 1);
    }

    #[test]
    fn key_distinguishes_target_and_algorithm() {
        let cache = PreparedCache::new(8);
        let pattern = generators::directed_cycle(3, 0);
        let target = k5();
        lookup(&cache, &pattern, "a", &target, Algorithm::Ri);
        let (_, hit_other_target) = lookup(&cache, &pattern, "b", &target, Algorithm::Ri);
        let (_, hit_other_algo) = lookup(&cache, &pattern, "a", &target, Algorithm::RiDs);
        assert!(!hit_other_target);
        assert!(!hit_other_algo);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn canonical_form_ignores_the_pattern_name() {
        let cache = PreparedCache::new(4);
        let target = k5();
        let named = sge_graph::io::parse_graph("#tri\n3\n0\n0\n0\n3\n0 1\n1 2\n2 0\n")
            .unwrap()
            .0;
        let anonymous = sge_graph::io::parse_graph("3\n0\n0\n0\n3\n0 1\n1 2\n2 0\n")
            .unwrap()
            .0;
        assert_eq!(
            PreparedCache::pattern_hash(&named),
            PreparedCache::pattern_hash(&anonymous)
        );
        lookup(&cache, &named, "k5", &target, Algorithm::Ri);
        let (_, hit) = lookup(&cache, &anonymous, "k5", &target, Algorithm::Ri);
        assert!(hit);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = PreparedCache::new(2);
        let target = k5();
        let p1 = generators::directed_cycle(3, 0);
        let p2 = generators::directed_path(2, 0);
        let p3 = generators::directed_path(3, 0);
        lookup(&cache, &p1, "k5", &target, Algorithm::Ri);
        lookup(&cache, &p2, "k5", &target, Algorithm::Ri);
        // Touch p1 so p2 is the LRU victim.
        lookup(&cache, &p1, "k5", &target, Algorithm::Ri);
        lookup(&cache, &p3, "k5", &target, Algorithm::Ri);
        let (_, p1_hit) = lookup(&cache, &p1, "k5", &target, Algorithm::Ri);
        let (_, p2_hit) = lookup(&cache, &p2, "k5", &target, Algorithm::Ri);
        assert!(p1_hit, "recently used entry survived");
        assert!(!p2_hit, "cold entry was evicted");
        assert!(cache.stats().evictions >= 1);
        assert!(cache.stats().entries <= 2);
    }

    #[test]
    fn reloaded_target_invalidates_the_entry() {
        let cache = PreparedCache::new(4);
        let pattern = generators::directed_cycle(3, 0);
        let old_target = k5();
        let (stale, _) = lookup(&cache, &pattern, "k", &old_target, Algorithm::RiDsSiFc);
        assert_eq!(stale.run(&Default::default()).matches, 60);

        // Same registry name, different graph: the cached engine was built
        // against the old graph and must not be served.
        let new_target = Arc::new(generators::clique(4, 0));
        let (fresh, hit) = lookup(&cache, &pattern, "k", &new_target, Algorithm::RiDsSiFc);
        assert!(!hit, "stale entry must not be a hit");
        assert!(!Arc::ptr_eq(&stale, &fresh));
        assert_eq!(fresh.run(&Default::default()).matches, 24);

        // The replacement is resident now.
        let (again, hit) = lookup(&cache, &pattern, "k", &new_target, Algorithm::RiDsSiFc);
        assert!(hit);
        assert!(Arc::ptr_eq(&fresh, &again));
    }

    #[test]
    fn zero_capacity_never_retains() {
        let cache = PreparedCache::new(0);
        let target = k5();
        let pattern = generators::directed_cycle(3, 0);
        let (_, hit1) = lookup(&cache, &pattern, "k5", &target, Algorithm::Ri);
        let (_, hit2) = lookup(&cache, &pattern, "k5", &target, Algorithm::Ri);
        assert!(!hit1);
        assert!(!hit2);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().inserts, 0, "capacity-0 never inserts");
    }

    #[test]
    fn concurrent_misses_on_one_key_prepare_once() {
        const THREADS: usize = 8;
        let cache = PreparedCache::new(4);
        let target = k5();
        let pattern = generators::directed_cycle(3, 0);
        let start = std::sync::Barrier::new(THREADS);
        let engines: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        lookup(&cache, &pattern, "k5", &target, Algorithm::RiDsSiFc)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let misses = engines.iter().filter(|(_, hit)| !hit).count();
        assert_eq!(misses, 1, "exactly one caller prepares");
        assert!(engines.iter().all(|(e, _)| Arc::ptr_eq(e, &engines[0].0)));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, THREADS as u64 - 1));
        assert_eq!((stats.inserts, stats.entries), (1, 1));
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = PreparedCache::new(4);
        let target = k5();
        let pattern = generators::directed_cycle(3, 0);
        lookup(&cache, &pattern, "k5", &target, Algorithm::Ri);
        lookup(&cache, &pattern, "k5", &target, Algorithm::Ri);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }
}
