//! The LRU plan cache.
//!
//! Keyed on [`PlanKey`] (shape, dtype, ops, layout fingerprints, and every
//! algorithm option that affects the solved grid or the redistribution
//! programs — see `ca3dmm::plan`). Values are `Arc<Plan>` so a plan being
//! executed by one scheduler slot survives its own eviction. Capacity is
//! entry-count based with least-recently-*used* eviction: a lookup hit
//! refreshes recency, an insert of a full cache evicts the stalest entry.
//!
//! Hit/miss/eviction counters feed the `stats` endpoint; `tests/serve_mix.rs`
//! asserts `hits > 0` after a repeated-shape request stream.

use ca3dmm::{Plan, PlanKey};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Counter snapshot for the `stats` endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: usize,
    pub capacity: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    plan: Arc<Plan>,
    /// Logical access time: larger = more recent.
    tick: u64,
}

struct Inner {
    map: BTreeMap<PlanKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Thread-safe LRU cache of solved [`Plan`]s.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (`capacity >= 1`).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up `key`, counting a hit (and refreshing recency) or a miss.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<Plan>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(e) => {
                e.tick = tick;
                let plan = Arc::clone(&e.plan);
                inner.hits += 1;
                Some(plan)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly built plan, evicting the least-recently-used entry
    /// if the cache is full. Does not touch the hit/miss counters (the
    /// preceding [`PlanCache::get`] already counted the miss).
    pub fn put(&self, key: PlanKey, plan: Arc<Plan>) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            // O(n) stalest-entry scan; n is the cache capacity (tens), so
            // this is noise next to a plan build.
            if let Some(stalest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
            {
                inner.map.remove(&stalest);
                inner.evictions += 1;
            }
        }
        inner.map.insert(key, Entry { plan, tick });
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca3dmm::{Ca3dmmOptions, Dtype};
    use dense::gemm::GemmOp;
    use gridopt::Problem;
    use layout::Layout;

    fn plan_for(m: usize, p: usize) -> (PlanKey, Arc<Plan>) {
        let la = Layout::one_d_col(m, m, p);
        let prob = Problem::new(m, m, m, p);
        let plan = Plan::build(
            prob,
            &Ca3dmmOptions::default(),
            Dtype::F64,
            GemmOp::NoTrans,
            &la,
            GemmOp::NoTrans,
            &la,
            &la,
        );
        (plan.key(), Arc::new(plan))
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = PlanCache::new(4);
        let (k, plan) = plan_for(8, 2);
        assert!(cache.get(&k).is_none());
        cache.put(k, plan);
        assert!(cache.get(&k).is_some());
        assert!(cache.get(&k).is_some());
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (2, 1, 1));
        assert!((st.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order_is_least_recently_used() {
        // Pin the eviction order exactly: capacity 2, insert A, B, touch A,
        // insert C -> B (stalest) is evicted, A and C survive.
        let cache = PlanCache::new(2);
        let (ka, pa) = plan_for(6, 2);
        let (kb, pb) = plan_for(8, 2);
        let (kc, pc) = plan_for(10, 2);
        cache.get(&ka); // miss
        cache.put(ka, pa);
        cache.get(&kb); // miss
        cache.put(kb, pb);
        assert!(cache.get(&ka).is_some(), "touch A -> A newest");
        cache.get(&kc); // miss
        cache.put(kc, pc);
        let st = cache.stats();
        assert_eq!(st.evictions, 1);
        assert_eq!(st.entries, 2);
        assert!(cache.get(&kb).is_none(), "B was the LRU entry");
        assert!(cache.get(&ka).is_some(), "A survived");
        assert!(cache.get(&kc).is_some(), "C survived");
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache = PlanCache::new(2);
        let (ka, pa) = plan_for(6, 2);
        let (kb, pb) = plan_for(8, 2);
        cache.put(ka, Arc::clone(&pa));
        cache.put(kb, pb);
        cache.put(ka, pa); // refresh, not a new entry
        let st = cache.stats();
        assert_eq!(st.evictions, 0);
        assert_eq!(st.entries, 2);
    }

    #[test]
    fn evicted_plan_survives_while_referenced() {
        let cache = PlanCache::new(1);
        let (ka, pa) = plan_for(6, 2);
        let (kb, pb) = plan_for(8, 2);
        cache.put(ka, pa);
        let held = cache.get(&ka).unwrap();
        cache.put(kb, pb); // evicts A from the cache
        assert!(cache.get(&ka).is_none());
        // ... but the executing slot still owns a usable Arc
        assert_eq!(held.key(), ka);
    }
}
