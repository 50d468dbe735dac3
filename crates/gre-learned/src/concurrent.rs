//! ALEX+ and LIPP+ — the concurrent derivatives this paper contributes.
//!
//! The paper parallelizes ALEX by adapting APEX's protocol (per-data-node
//! optimistic locks, lock-free traversals, out-of-place SMOs) and LIPP with
//! item-level optimistic locks; it then shows that ALEX+ scales while LIPP+
//! does not, because LIPP's unified node layout forces every insert to update
//! statistics in every node on its path (§4.2).
//!
//! Both are built from [`gre_core::Partitioned`], whose module doc states the
//! substitution: writers touching different key ranges never contend (the
//! effect per-data-node locking achieves in ALEX+). LIPP+ additionally
//! updates a set of *shared* path-statistics counters on every insert
//! ([`SharedPathStats`]) — the exact source of cache-line contention the
//! paper identifies — so its write path degrades under concurrency while
//! ALEX+'s does not.

use crate::alex::Alex;
use crate::lipp::Lipp;
use gre_core::{
    ConcurrentIndex, IndexMeta, InsertStats, Key, Partitioned, Payload, RangeSpec, StatsSnapshot,
    DEFAULT_PARTITIONS,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// ALEX+: the concurrent ALEX.
pub fn alex_plus<K: Key>() -> Partitioned<K, Alex<K>> {
    Partitioned::new(DEFAULT_PARTITIONS, "ALEX+")
}

/// LIPP+: the concurrent LIPP with its shared path statistics.
pub fn lipp_plus<K: Key>() -> SharedPathStats<K> {
    SharedPathStats {
        inner: Partitioned::new(DEFAULT_PARTITIONS, "LIPP+"),
        path_stats: Default::default(),
    }
}

/// Number of levels of shared statistics LIPP+ touches per insert
/// (root + a couple of inner nodes on a typical path).
const LIPP_STAT_LEVELS: usize = 3;

/// LIPP+'s insert path: every insert also updates the shared per-level
/// statistics words below, which all writer threads contend on (the root
/// node's statistics in particular), capping insert scalability.
pub struct SharedPathStats<K> {
    inner: Partitioned<K, Lipp<K>>,
    /// Shared per-level statistics; the root level is written by every
    /// insert from every thread.
    path_stats: [AtomicU64; LIPP_STAT_LEVELS],
}

impl<K: Key> SharedPathStats<K> {
    /// Total number of statistics updates performed (diagnostic).
    pub fn stat_updates(&self) -> u64 {
        self.path_stats
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .sum()
    }
}

impl<K: Key> ConcurrentIndex<K> for SharedPathStats<K> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        self.inner.bulk_load(entries);
    }

    fn get(&self, key: K) -> Option<Payload> {
        self.inner.get(key)
    }

    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<Payload>>) {
        self.inner.get_batch(keys, out);
    }

    fn insert(&self, key: K, value: Payload) -> bool {
        // The atomic writes to the root-level word are the cache-line
        // ping-pong the paper blames for LIPP+'s poor insert scalability.
        for stat in &self.path_stats {
            stat.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.insert(key, value)
    }

    /// Updates do not touch the shared path statistics: the paper charges
    /// only structure-modifying inserts with the per-level writes.
    fn update(&self, key: K, value: Payload) -> bool {
        self.inner.update(key, value)
    }

    fn remove(&self, key: K) -> Option<Payload> {
        self.inner.remove(key)
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        self.inner.range(spec, out)
    }

    fn extract_range(&self, lo: K, hi: Option<K>, out: &mut Vec<(K, Payload)>) -> usize {
        self.inner.extract_range(lo, hi, out)
    }

    fn absorb_range(&self, entries: &[(K, Payload)]) {
        self.inner.absorb_range(entries);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn memory_usage(&self) -> usize {
        self.inner.memory_usage()
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn last_insert_stats(&self) -> InsertStats {
        self.inner.last_insert_stats()
    }

    fn meta(&self) -> IndexMeta {
        self.inner.meta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lipp_plus_basic_and_stat_contention_counter() {
        let mut l = lipp_plus::<u64>();
        let entries: Vec<(u64, Payload)> = (0..5_000).map(|i| (i * 10, i)).collect();
        l.bulk_load(&entries);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let l = &l;
                s.spawn(move || {
                    for i in 0..1_500u64 {
                        l.insert(2_000_000 + t * 2_000_000 + i, i);
                    }
                });
            }
        });
        // Every insert from every thread wrote every shared level.
        let inserts = 4 * 1_500;
        assert_eq!(l.stat_updates(), inserts * LIPP_STAT_LEVELS as u64);
        assert!(l.update(10, 1));
        assert_eq!(l.stat_updates(), inserts * LIPP_STAT_LEVELS as u64);
        assert_eq!(l.len(), 5_000 + inserts as usize);
    }

    /// An update overwrites a payload in place: it is not counted as an
    /// insert and leaves the last insert's statistics alone.
    #[test]
    fn updates_are_not_counted_as_inserts() {
        use gre_core::index::MutexIndex;
        const N: u64 = 1_000;
        let entries: Vec<(u64, Payload)> = (0..5_000).map(|i| (i * 10, i)).collect();
        let mut indexes: Vec<Box<dyn ConcurrentIndex<u64>>> = vec![
            Box::new(MutexIndex::new(Alex::new(), "ALEX")),
            Box::new(MutexIndex::new(Lipp::new(), "LIPP")),
            Box::new(alex_plus()),
        ];
        for index in &mut indexes {
            let name = index.meta().name;
            index.bulk_load(&entries);
            assert!(index.insert(5, 5));
            let last = index.last_insert_stats();
            index.reset_stats();
            for i in 0..N {
                assert!(
                    index.update(i * 50, i + 1_000_000),
                    "{name}: update {}",
                    i * 50
                );
            }
            assert!(!index.update(7, 0), "{name}: absent key");
            assert_eq!(index.get(7), None, "{name}");
            assert_eq!(index.stats().counters.inserts, 0, "{name}");
            assert_eq!(index.last_insert_stats(), last, "{name}");
            assert_eq!(index.len(), 5_001, "{name}");
            for i in 0..N {
                assert_eq!(
                    index.get(i * 50),
                    Some(i + 1_000_000),
                    "{name}: key {}",
                    i * 50
                );
            }
            assert_eq!(index.get(10), Some(1), "{name}: untouched key");
        }
    }
}
