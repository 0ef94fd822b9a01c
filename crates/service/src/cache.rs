//! The prepared-context cache: a bounded LRU over [`PreparedEngine`]s.

use sge_engine::PreparedEngine;
use sge_graph::{AdjacencyBitmaps, Graph, GraphStats};
use sge_ri::{Algorithm, Strategy};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache identity of a prepared engine.
///
/// The pattern participates through its **canonical serialization** (node
/// labels + edge list, name stripped), so two syntactically different query
/// texts describing the same graph share one entry; equality is on the full
/// canonical form — the reported hash is informational, never trusted for
/// identity.  The ordering strategy is part of the key: engines prepared
/// under different strategies produce different plans and must never alias
/// each other.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    pattern: String,
    target: String,
    algorithm: Algorithm,
    strategy: Strategy,
}

struct Entry {
    engine: Arc<PreparedEngine>,
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
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run preprocessing.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries actually retained (misses that made it into the map; a
    /// capacity-0 cache and race-adopted duplicates never insert).
    pub inserts: u64,
}

/// A bounded LRU of prepared engines keyed by *(pattern, target name,
/// algorithm, ordering strategy)*.
///
/// Preparation runs **outside** the cache lock, so a slow domain computation
/// never blocks concurrent lookups of other keys; when two threads race to
/// prepare the same key, the first insertion wins and the loser adopts it
/// (at the cost of one redundant preparation — acceptable, and it keeps the
/// lock hold times tiny).
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
        let mut hasher = DefaultHasher::new();
        Self::canonical_pattern(pattern).hash(&mut hasher);
        hasher.finish()
    }

    /// Fetches the prepared engine for `(pattern, target_name, algorithm,
    /// strategy)`, preparing and inserting it on a miss.  Returns the engine
    /// and whether the lookup was a hit.
    ///
    /// The same pattern prepared under two strategies yields two independent
    /// entries.  A miss prepares with the target statistics and the bitmap
    /// sidecar the registry computed at registration, instead of re-deriving
    /// the frequency tables or building a private sidecar.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_prepare(
        &self,
        pattern: &Graph,
        target_name: &str,
        target: &Arc<Graph>,
        target_stats: &GraphStats,
        bitmaps: &Arc<AdjacencyBitmaps>,
        algorithm: Algorithm,
        strategy: Strategy,
    ) -> (Arc<PreparedEngine>, bool) {
        let key = CacheKey {
            pattern: Self::canonical_pattern(pattern),
            target: target_name.to_string(),
            algorithm,
            strategy,
        };

        if let Some(engine) = self.lookup(&key, target) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (engine, true);
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        let engine = Arc::new(PreparedEngine::prepare_planned_full(
            Arc::new(pattern.clone()),
            Arc::clone(target),
            target_stats,
            Arc::clone(bitmaps),
            algorithm,
            strategy,
        ));
        (self.insert(key, engine), false)
    }

    fn lookup(&self, key: &CacheKey, target: &Arc<Graph>) -> Option<Arc<PreparedEngine>> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            // The entry must have been prepared against the *same* graph the
            // registry currently holds under this name — reloading a target
            // swaps the Arc, and an engine built against the old graph would
            // silently answer with stale results.
            Some(entry) if Arc::ptr_eq(entry.engine.target(), target) => {
                entry.last_used = tick;
                Some(Arc::clone(&entry.engine))
            }
            Some(_) => {
                inner.map.remove(key);
                None
            }
            None => None,
        }
    }

    /// Inserts unless a racing thread already did; returns the resident
    /// engine either way.
    fn insert(&self, key: CacheKey, engine: Arc<PreparedEngine>) -> Arc<PreparedEngine> {
        if self.capacity == 0 {
            return engine;
        }
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        let stale = match inner.map.get_mut(&key) {
            Some(existing) if Arc::ptr_eq(existing.engine.target(), engine.target()) => {
                // A racing thread inserted the same preparation first; adopt
                // theirs so all callers share one engine.
                existing.last_used = tick;
                return Arc::clone(&existing.engine);
            }
            // The resident entry targets a stale graph: replace it (dropping
            // it first so the capacity check below doesn't evict a bystander).
            Some(_) => true,
            None => false,
        };
        if stale {
            inner.map.remove(&key);
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
        inner.map.insert(
            key,
            Entry {
                engine: Arc::clone(&engine),
                last_used: tick,
            },
        );
        engine
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

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, BitmapConfig};

    fn k5() -> Arc<Graph> {
        Arc::new(generators::clique(5, 0))
    }

    /// A registry-style lookup under `strategy`: stats and sidecar derived
    /// from `target`, as the registry does at registration.
    fn lookup_planned(
        cache: &PreparedCache,
        pattern: &Graph,
        name: &str,
        target: &Arc<Graph>,
        algorithm: Algorithm,
        strategy: Strategy,
    ) -> (Arc<PreparedEngine>, bool) {
        let stats = GraphStats::of(target);
        let bitmaps = Arc::new(AdjacencyBitmaps::build(target, &BitmapConfig::default()));
        cache.get_or_prepare(pattern, name, target, &stats, &bitmaps, algorithm, strategy)
    }

    fn lookup(
        cache: &PreparedCache,
        pattern: &Graph,
        name: &str,
        target: &Arc<Graph>,
        algorithm: Algorithm,
    ) -> (Arc<PreparedEngine>, bool) {
        lookup_planned(cache, pattern, name, target, algorithm, Strategy::default())
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
    fn preparation_variant_is_part_of_the_key() {
        // Two strategies for the same pattern / target / algorithm must
        // coexist as independent entries — aliasing them would serve a plan
        // prepared under a different strategy.
        let cache = PreparedCache::new(8);
        let target = k5();
        let pattern = generators::directed_cycle(3, 0);
        let prepare = |strategy: Strategy| {
            lookup_planned(&cache, &pattern, "k5", &target, Algorithm::RiDs, strategy)
        };
        let (greedy, hit1) = prepare(Strategy::RiGreedy);
        let (lfl, hit2) = prepare(Strategy::LeastFrequentLabelFirst);
        assert!(!hit1 && !hit2, "distinct variants must all miss");
        assert!(!Arc::ptr_eq(&greedy, &lfl));
        assert_eq!(cache.stats().entries, 2);

        // Each variant is resident and hits independently…
        let (greedy2, hit) = prepare(Strategy::RiGreedy);
        assert!(hit);
        assert!(Arc::ptr_eq(&greedy, &greedy2));
        let (lfl2, hit) = prepare(Strategy::LeastFrequentLabelFirst);
        assert!(hit);
        assert!(Arc::ptr_eq(&lfl, &lfl2));
        // …carries its own variant…
        assert_eq!(greedy.strategy(), Strategy::RiGreedy);
        assert_eq!(lfl.strategy(), Strategy::LeastFrequentLabelFirst);
        // …and they agree on results.
        assert_eq!(greedy.run(&Default::default()).matches, 60);
        assert_eq!(lfl.run(&Default::default()).matches, 60);
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
