//! The range-partitioned lock adapter: one concurrent index out of many
//! single-threaded ones.
//!
//! The paper's concurrent indexes synchronize with fine-grained protocols
//! over shared node memory: ALEX+ takes an optimistic lock per data node,
//! LIPP+ item-level optimistic locks, B+TreeOLC and ART-OLC optimistic lock
//! coupling, HOT-ROWEX read-optimised write exclusion, Wormhole a single
//! inner-layer lock (§4.2, Appendix A). This reproduction substitutes one
//! scheme for all of them that keeps the concurrency behaviour the paper
//! analyses:
//!
//! * [`Partitioned`] splits the key space into ranges fitted at bulk load
//!   and puts each range's single-threaded index behind its own
//!   reader-writer lock. Reads and writes to different ranges proceed in
//!   parallel, which is the effect per-node locking and OLC/ROWEX achieve
//!   when contention is spread across nodes. ALEX+, LIPP+, B+TreeOLC,
//!   ART-OLC, HOT-ROWEX and the concurrent Masstree use
//!   [`DEFAULT_PARTITIONS`] ranges.
//! * Wormhole's inner-layer lock is the one-partition case: lookups scale
//!   across threads while writers serialize, the write bottleneck of
//!   Figures 5 and 11.
//! * LIPP+ additionally writes shared path statistics on every insert (a
//!   decorator in `gre-learned`), the cache-line contention the paper blames
//!   for its poor insert scalability.
//!
//! [`get_batch_grouped`] is the regroup step batched lookups share with the
//! `gre-shard` serving layer: it sorts a batch into per-partition runs so
//! each partition is probed once per batch.

use crate::index::{ConcurrentIndex, Index, IndexMeta, RangeSpec};
use crate::key::{Key, Payload};
use crate::stats::{InsertStats, OpCounters, StatsSnapshot};
use parking_lot::RwLock;

/// Range-partition count of every multi-partition concurrent index.
pub const DEFAULT_PARTITIONS: usize = 64;

/// A concurrent index made of range partitions, each a single-threaded
/// index behind a reader-writer lock.
pub struct Partitioned<K, I> {
    partitions: Vec<RwLock<I>>,
    /// `boundaries[p]` is the smallest key of partition `p + 1`.
    boundaries: Vec<K>,
    name: &'static str,
}

impl<K: Key, I: Index<K> + Default> Partitioned<K, I> {
    /// `partitions` empty partitions (at least one) reporting `name`.
    pub fn new(partitions: usize, name: &'static str) -> Self {
        Partitioned {
            partitions: (0..partitions.max(1))
                .map(|_| RwLock::new(I::default()))
                .collect(),
            boundaries: Vec::new(),
            name,
        }
    }

    #[inline]
    fn partition_for(&self, key: K) -> usize {
        self.boundaries.partition_point(|b| *b <= key)
    }

    /// One past the index of the last entry of `entries[start..]` that
    /// routes to partition `part`.
    fn run_end(&self, part: usize, entries: &[(K, Payload)], start: usize) -> usize {
        match self.boundaries.get(part) {
            Some(&b) => start + entries[start..].partition_point(|e| e.0 < b),
            None => entries.len(),
        }
    }
}

impl<K: Key, I: Index<K> + Default + Sync> ConcurrentIndex<K> for Partitioned<K, I> {
    /// Fits the boundaries at the entry quantiles, so bulk data spreads
    /// evenly, and loads each partition with its slice.
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        let parts = self.partitions.len();
        self.boundaries.clear();
        if entries.len() >= parts {
            self.boundaries
                .extend((1..parts).map(|p| entries[p * entries.len() / parts].0));
            self.boundaries.dedup();
        }
        let mut start = 0;
        for p in 0..parts {
            let end = self.run_end(p, entries, start);
            self.partitions[p].get_mut().bulk_load(&entries[start..end]);
            start = end;
        }
    }

    fn get(&self, key: K) -> Option<Payload> {
        self.partitions[self.partition_for(key)].read().get(key)
    }

    /// Each partition's read lock is taken once per batch, and its run of
    /// keys goes through the partition's own [`Index::get_batch`]. A batch
    /// with fewer keys than partitions runs the scalar loop instead: its
    /// runs would average under one key, so regrouping would cost more than
    /// the lock acquisitions it saves.
    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<Payload>>) {
        if keys.len() < self.partitions.len() {
            out.clear();
            out.extend(keys.iter().map(|&k| self.get(k)));
            return;
        }
        get_batch_grouped(
            keys,
            self.partitions.len(),
            |key| self.partition_for(key),
            out,
            |p, run, results| self.partitions[p].read().get_batch(run, results),
        );
    }

    fn insert(&self, key: K, value: Payload) -> bool {
        self.partitions[self.partition_for(key)]
            .write()
            .insert(key, value)
    }

    /// Presence check and write run under one partition write lock, so the
    /// trait's single-critical-section atomicity contract holds.
    fn update(&self, key: K, value: Payload) -> bool {
        self.partitions[self.partition_for(key)]
            .write()
            .update(key, value)
    }

    fn remove(&self, key: K) -> Option<Payload> {
        self.partitions[self.partition_for(key)].write().remove(key)
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let before = out.len();
        let mut remaining = spec.count;
        for part in &self.partitions[self.partition_for(spec.start)..] {
            if remaining == 0 {
                break;
            }
            let spec = RangeSpec {
                count: remaining,
                ..spec
            };
            remaining -= part.read().range(spec, out);
        }
        out.len() - before
    }

    /// Rebuilds each overlapping partition without the window instead of
    /// removing its keys one at a time: per-key removes leave gapped,
    /// model-stale nodes behind, while a bulk reload leaves the structure a
    /// fresh bulk load would.
    fn extract_range(&self, lo: K, hi: Option<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let before = out.len();
        let last = hi.map_or(self.partitions.len() - 1, |h| self.partition_for(h));
        let mut all = Vec::new();
        for p in self.partition_for(lo)..=last {
            let mut part = self.partitions[p].write();
            all.clear();
            part.range(RangeSpec::new(K::MIN, usize::MAX), &mut all);
            let a = all.partition_point(|e| e.0 < lo);
            let b = hi.map_or(all.len(), |h| all.partition_point(|e| e.0 < h));
            if a < b {
                out.extend(all.drain(a..b));
                part.bulk_load(&all);
            }
        }
        out.len() - before
    }

    /// Merges the landed entries into each receiving partition with one bulk
    /// reload. A migrated range usually lies outside the boundaries fitted at
    /// bulk load, so per-key inserts would pile it into one edge partition as
    /// incrementally grown nodes and serve the (likely hot) range from the
    /// worst structure in the store.
    fn absorb_range(&self, entries: &[(K, Payload)]) {
        let mut start = 0;
        let mut merged = Vec::new();
        while start < entries.len() {
            let p = self.partition_for(entries[start].0);
            let end = self.run_end(p, entries, start);
            let mut part = self.partitions[p].write();
            merged.clear();
            part.range(RangeSpec::new(K::MIN, usize::MAX), &mut merged);
            merged.extend_from_slice(&entries[start..end]);
            // Both halves are sorted and disjoint: a stable sort merges them.
            merged.sort_by_key(|e| e.0);
            part.bulk_load(&merged);
            start = end;
        }
    }

    fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.read().len()).sum()
    }

    /// Sums the partitions only, so bytes per key measure the indexes alone.
    fn memory_usage(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.read().memory_usage())
            .sum()
    }

    /// Counters merged across partitions.
    fn stats(&self) -> StatsSnapshot {
        let mut counters = OpCounters::default();
        for p in &self.partitions {
            counters.merge(&p.read().stats().counters);
        }
        StatsSnapshot::new(counters)
    }

    fn reset_stats(&self) {
        for p in &self.partitions {
            p.write().reset_stats();
        }
    }

    /// No global "most recent" insert exists across partitions; the first
    /// partition's is reported as a representative sample.
    fn last_insert_stats(&self) -> InsertStats {
        self.partitions[0].read().last_insert_stats()
    }

    fn meta(&self) -> IndexMeta {
        let mut meta = self.partitions[0].read().meta();
        meta.name = self.name;
        meta.concurrent = true;
        meta
    }
}

/// Batched lookup over `groups` independently locked parts: `out[i]`
/// becomes the result of `keys[i]`.
///
/// Keys are regrouped with a counting sort (route each key once, count per
/// group, prefix-sum, scatter into one contiguous buffer), then
/// `probe(group, run, results)` runs once per non-empty group and must
/// leave `results` holding one entry per key of `run`, in order. A batch
/// that routes entirely to one group is probed in place. `out` is cleared
/// first, as [`ConcurrentIndex::get_batch`] requires.
pub fn get_batch_grouped<K: Key>(
    keys: &[K],
    groups: usize,
    route: impl Fn(K) -> usize,
    out: &mut Vec<Option<Payload>>,
    mut probe: impl FnMut(usize, &[K], &mut Vec<Option<Payload>>),
) {
    out.clear();
    if keys.is_empty() {
        return;
    }
    let routed: Vec<usize> = keys.iter().map(|&k| route(k)).collect();
    // ends[g] counts group g's keys, becomes its start after the prefix
    // sum, and the scatter advances it to the group's end.
    let mut ends = vec![0usize; groups];
    for &g in &routed {
        ends[g] += 1;
    }
    if ends[routed[0]] == keys.len() {
        probe(routed[0], keys, out);
        return;
    }
    let mut sum = 0;
    for e in ends.iter_mut() {
        (*e, sum) = (sum, sum + *e);
    }
    let mut grouped = vec![keys[0]; keys.len()];
    let mut positions = vec![0usize; keys.len()];
    for (i, (&key, &g)) in keys.iter().zip(&routed).enumerate() {
        grouped[ends[g]] = key;
        positions[ends[g]] = i;
        ends[g] += 1;
    }
    out.resize(keys.len(), None);
    let mut results = Vec::new();
    let mut start = 0;
    for (g, &end) in ends.iter().enumerate() {
        if start < end {
            probe(g, &grouped[start..end], &mut results);
            for (&i, result) in positions[start..end].iter().zip(results.drain(..)) {
                out[i] = result;
            }
        }
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probes answer `key + group`, so a result carries where it was routed.
    fn batch(
        keys: &[u64],
        groups: usize,
        route: fn(u64) -> usize,
    ) -> (Vec<Option<Payload>>, usize) {
        let mut out = vec![Some(999)]; // stale content must be cleared
        let mut probes = 0;
        get_batch_grouped(keys, groups, route, &mut out, |g, run, results| {
            probes += 1;
            assert!(run.iter().all(|&k| route(k) == g));
            results.clear();
            results.extend(run.iter().map(|&k| Some(k + g as u64)));
        });
        (out, probes)
    }

    #[test]
    fn grouped_batches_land_in_input_order() {
        let keys: Vec<u64> = (0..100u64).map(|i| (i * 37) % 101).chain([5, 5]).collect();
        let (out, probes) = batch(&keys, 4, |k| (k % 4) as usize);
        let expected: Vec<_> = keys.iter().map(|&k| Some(k + k % 4)).collect();
        assert_eq!(out, expected);
        assert_eq!(probes, 4, "one probe per non-empty group");
        assert_eq!(batch(&[], 4, |k| k as usize).0, vec![]);
    }

    #[test]
    fn one_group_batches_are_probed_in_place() {
        let (out, probes) = batch(&[3, 1, 2], 8, |_| 6);
        assert_eq!((out, probes), (vec![Some(9), Some(7), Some(8)], 1));
        let (out, probes) = batch(&[3, 1], 1, |_| 0);
        assert_eq!((out, probes), (vec![Some(3), Some(1)], 1));
    }
}
