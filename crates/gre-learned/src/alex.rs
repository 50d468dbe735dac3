//! ALEX — an updatable adaptive learned index (Ding et al., SIGMOD'20).
//!
//! ALEX combines *ML for subspace lookup* in its inner level with
//! *gapped-array* data nodes: each data node stores its entries spread over a
//! larger array according to a per-node linear model, leaving gaps that
//! absorb inserts. Lookups predict a slot and run an exponential "last-mile"
//! search around it; inserts either land in a nearby gap or shift existing
//! keys toward the closest gap (the write amplification the paper analyses in
//! Figure 3 / Table 3). When a node becomes too dense a structural
//! modification operation (SMO) expands or splits it, driven by a simple
//! cost model on the node's runtime statistics (performance-driven design,
//! §2.1).
//!
//! Our implementation keeps ALEX's two defining choices — model-predicted
//! positions in gapped arrays, and a model-routed inner level — with one
//! structural simplification: a single inner level routes directly to data
//! nodes (with the paper's default 16 MB node budget, two levels are what
//! ALEX itself builds at the scales we benchmark).

use gre_core::stats::PhaseTimer;
use gre_core::{
    Index, IndexMeta, InsertBreakdown, InsertStats, Key, OpCounters, Payload, RangeSpec,
    StatsSnapshot,
};
use gre_pla::LinearModel;

/// Configuration of ALEX (Table 1).
#[derive(Debug, Clone, Copy)]
pub struct AlexConfig {
    /// Maximum number of entries per data node (the paper's 16 MB node
    /// budget equals ~1M 16-byte entries; scaled-down runs use less).
    pub max_node_entries: usize,
    /// Lower density bound: a node whose density falls below this after
    /// deletions is repacked.
    pub min_density: f64,
    /// Initial density used when (re)building a node.
    pub init_density: f64,
    /// Upper density bound: exceeding it triggers an SMO.
    pub max_density: f64,
}

impl Default for AlexConfig {
    fn default() -> Self {
        AlexConfig {
            max_node_entries: 1 << 20,
            min_density: 0.6,
            init_density: 0.7,
            max_density: 0.8,
        }
    }
}

impl AlexConfig {
    /// The memory-constrained configuration of Figure 9 (ALEX-M): the fill
    /// factor is lowered so the index occupies roughly the same space as
    /// LIPP (resulting density 0.2–0.25 in the paper).
    pub fn memory_matched() -> Self {
        AlexConfig {
            init_density: 0.22,
            min_density: 0.1,
            max_density: 0.5,
            ..Default::default()
        }
    }
}

/// A gap search that passes this many slots makes a long shift, which is
/// timed on every insert (see [`gre_core::stats`]).
const LONG_SHIFT_SLOTS: usize = 1024;

/// A gapped-array data node.
#[derive(Debug)]
pub struct DataNode<K> {
    model: LinearModel,
    keys: Vec<K>,
    values: Vec<Payload>,
    occupied: Vec<bool>,
    num_keys: usize,
    /// Runtime statistics feeding the cost model.
    num_shifts: u64,
    num_search_iterations: u64,
    num_inserts: u64,
}

impl<K: Key> DataNode<K> {
    /// Build a node from sorted entries at the given density.
    fn build(entries: &[(K, Payload)], density: f64) -> Self {
        let n = entries.len();
        let capacity = ((n as f64 / density.max(0.05)).ceil() as usize).max(n.max(4));
        let keys_only: Vec<K> = entries.iter().map(|e| e.0).collect();
        let expansion = if n > 1 {
            (capacity - 1) as f64 / (n - 1) as f64
        } else {
            1.0
        };
        let model = LinearModel::fit_keys_with_expansion(&keys_only, expansion);
        let mut node = DataNode {
            model,
            keys: vec![K::MIN; capacity],
            values: vec![0; capacity],
            occupied: vec![false; capacity],
            num_keys: 0,
            num_shifts: 0,
            num_search_iterations: 0,
            num_inserts: 0,
        };
        // Model-based placement: put each entry at its predicted slot, pushed
        // right past already-filled slots and pulled left just enough to
        // guarantee the remaining entries still fit.
        let mut next_free = 0usize;
        for (i, &(k, v)) in entries.iter().enumerate() {
            let predicted = node.model.predict_clamped(k, capacity);
            let upper = capacity - (n - i);
            let pos = predicted.max(next_free).min(upper);
            debug_assert!(!node.occupied[pos]);
            node.keys[pos] = k;
            node.values[pos] = v;
            node.occupied[pos] = true;
            node.num_keys += 1;
            next_free = pos + 1;
        }
        node
    }

    fn capacity(&self) -> usize {
        self.keys.len()
    }

    fn density(&self) -> f64 {
        if self.capacity() == 0 {
            1.0
        } else {
            self.num_keys as f64 / self.capacity() as f64
        }
    }

    /// Key of the nearest occupied slot at or before `i`.
    fn effective_key(&self, i: usize) -> Option<K> {
        let mut p = i;
        loop {
            if self.occupied[p] {
                return Some(self.keys[p]);
            }
            if p == 0 {
                return None;
            }
            p -= 1;
        }
    }

    /// The model's slot prediction for `key`.
    #[inline]
    fn predict(&self, key: K) -> usize {
        self.model.predict_clamped(key, self.capacity())
    }

    /// Position of the first occupied slot with key `>= key`
    /// (or `capacity()` if none), found by exponential search around the
    /// model prediction `pred` — ALEX's "last-mile" search. Also returns the
    /// number of search iterations. `pred` must be `< capacity()` unless the
    /// node is empty. Stats-free, so the read paths share it.
    #[inline]
    fn search(&self, key: K, pred: usize) -> (usize, u64) {
        let cap = self.capacity();
        if cap == 0 || self.num_keys == 0 {
            return (cap, 0);
        }
        // Predicate: effective_key(i) >= key, monotone in i.
        let above = |i: usize| match self.effective_key(i) {
            Some(k) => k >= key,
            None => false,
        };
        let mut iters = 1u64;
        let (mut lo, mut hi);
        if above(pred) {
            // Answer is at or before pred: grow a bracket to the left.
            let mut step = 1usize;
            let mut left = pred;
            while left > 0 && above(left.saturating_sub(step)) {
                left = left.saturating_sub(step);
                step *= 2;
                iters += 1;
            }
            lo = left.saturating_sub(step);
            hi = pred;
        } else {
            // Answer is after pred: grow a bracket to the right.
            let mut step = 1usize;
            let mut right = pred;
            while right < cap - 1 && !above((right + step).min(cap - 1)) {
                right = (right + step).min(cap - 1);
                step *= 2;
                iters += 1;
            }
            lo = right;
            hi = (right + step).min(cap - 1);
            if !above(hi) {
                return (cap, iters);
            }
        }
        // Binary search for the smallest i in (lo, hi] with above(i).
        while lo < hi {
            let mid = (lo + hi) / 2;
            iters += 1;
            if above(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        // `lo` satisfies the predicate; move to the occupied slot itself.
        let mut p = lo;
        while !self.occupied[p] {
            p -= 1;
        }
        (p, iters)
    }

    /// [`DataNode::search`] from the node's own prediction, adding the
    /// iterations to the node's runtime statistics.
    fn lower_bound(&mut self, key: K) -> usize {
        let (pos, iters) = self.search(key, self.predict(key));
        self.num_search_iterations += iters;
        pos
    }

    /// Slot holding `key`, if present.
    fn position(&mut self, key: K) -> Option<usize> {
        let lb = self.lower_bound(key);
        (lb < self.capacity() && self.keys[lb] == key).then_some(lb)
    }

    /// Insert. Returns `(newly_inserted, keys_shifted)` or `Err(())` if the
    /// node has no room and needs an SMO first. A long shift's time is added
    /// to `events.shift_ns`.
    fn insert(
        &mut self,
        key: K,
        value: Payload,
        events: &mut InsertBreakdown,
    ) -> Result<(bool, u64), ()> {
        let cap = self.capacity();
        if self.num_keys == 0 {
            if cap == 0 {
                return Err(());
            }
            let pos = self.model.predict_clamped(key, cap);
            self.keys[pos] = key;
            self.values[pos] = value;
            self.occupied[pos] = true;
            self.num_keys += 1;
            self.num_inserts += 1;
            return Ok((true, 0));
        }
        let lb = self.lower_bound(key);
        if lb < cap && self.keys[lb] == key {
            self.values[lb] = value;
            return Ok((false, 0));
        }
        if self.num_keys >= cap {
            return Err(());
        }
        self.num_inserts += 1;
        // The legal insertion region is the run of gaps immediately before
        // `lb` (all of which sit between the previous occupied key < `key`
        // and the next occupied key >= `key`).
        let mut g = lb;
        while g > 0 && !self.occupied[g - 1] {
            g -= 1;
        }
        if g < lb {
            // A gap is available without shifting: use the one closest to
            // the model's prediction.
            let pred = self.model.predict_clamped(key, cap).clamp(g, lb - 1);
            self.keys[pred] = key;
            self.values[pred] = value;
            self.occupied[pred] = true;
            self.num_keys += 1;
            return Ok((true, 0));
        }
        // No adjacent gap: shift towards the nearest gap. Once the search
        // passes LONG_SHIFT_SLOTS the shift is timed, sampled insert or not:
        // shift lengths are heavy-tailed on clustered keys, and the long
        // ones dominate the mean.
        let near = (lb + LONG_SHIFT_SLOTS).min(cap);
        let mut gap = (lb..near).find(|&p| !self.occupied[p]);
        let timer = gap.is_none().then(PhaseTimer::start);
        if gap.is_none() {
            gap = (near..cap).find(|&p| !self.occupied[p]);
        }
        let (pos, shifted) = if let Some(gap) = gap {
            // Shift [lb, gap) one slot to the right.
            for p in (lb..gap).rev() {
                self.keys[p + 1] = self.keys[p];
                self.values[p + 1] = self.values[p];
                self.occupied[p + 1] = true;
            }
            (lb, gap - lb)
        } else if let Some(gap) = (0..lb).rev().find(|&p| !self.occupied[p]) {
            // Shift (gap, lb) one slot to the left and insert at lb - 1.
            for p in gap..lb - 1 {
                self.keys[p] = self.keys[p + 1];
                self.values[p] = self.values[p + 1];
                self.occupied[p] = true;
            }
            (lb - 1, lb - 1 - gap)
        } else {
            return Err(());
        };
        self.keys[pos] = key;
        self.values[pos] = value;
        self.occupied[pos] = true;
        self.num_keys += 1;
        self.num_shifts += shifted as u64;
        if let Some(t) = timer {
            events.shift_ns += t.elapsed_ns();
        }
        Ok((true, shifted as u64))
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let pos = self.position(key)?;
        self.occupied[pos] = false;
        self.num_keys -= 1;
        Some(self.values[pos])
    }

    /// All live entries in key order.
    fn entries(&self) -> Vec<(K, Payload)> {
        (0..self.capacity())
            .filter(|&i| self.occupied[i])
            .map(|i| (self.keys[i], self.values[i]))
            .collect()
    }

    /// Append live entries from slot `from` on until `out` holds `count`.
    fn scan_into(&self, from: usize, count: usize, out: &mut Vec<(K, Payload)>) {
        for i in from..self.capacity() {
            if out.len() >= count {
                return;
            }
            if self.occupied[i] {
                out.push((self.keys[i], self.values[i]));
            }
        }
    }

    fn memory(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.keys.capacity() * std::mem::size_of::<K>()
            + self.values.capacity() * std::mem::size_of::<Payload>()
            + self.occupied.capacity()
    }

    /// Stats-free point probe from a precomputed model prediction, shared by
    /// the scalar and batched read paths. `pred` must be `< capacity()`
    /// unless the node is empty.
    #[inline]
    fn probe(&self, key: K, pred: usize) -> Option<Payload> {
        let (p, _) = self.search(key, pred);
        (p < self.capacity() && self.keys[p] == key).then(|| self.values[p])
    }
}

/// Group width of the software-pipelined batched lookup: wide enough to
/// cover DRAM latency with independent work, small enough that the staged
/// `(node, prediction)` state stays in registers/L1.
pub const BATCH_WIDTH: usize = 8;

/// Best-effort read prefetch of the cache line holding `*ptr`. No-op on
/// architectures without an exposed prefetch intrinsic.
#[inline(always)]
fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch never faults, even on invalid addresses.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// ALEX: a model-routed collection of gapped-array data nodes.
#[derive(Debug)]
pub struct Alex<K> {
    config: AlexConfig,
    /// Inner-level model routing keys to data nodes ("ML for subspace lookup").
    inner_model: LinearModel,
    /// First key of each data node (used to correct the model's routing).
    boundaries: Vec<K>,
    nodes: Vec<DataNode<K>>,
    len: usize,
    counters: OpCounters,
    last_insert: InsertStats,
}

impl<K: Key> Default for Alex<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> Alex<K> {
    pub fn new() -> Self {
        Self::with_config(AlexConfig::default())
    }

    pub fn with_config(config: AlexConfig) -> Self {
        Alex {
            config,
            inner_model: LinearModel::default(),
            boundaries: vec![K::MIN],
            nodes: vec![DataNode::build(&[], config.init_density)],
            len: 0,
            counters: OpCounters::default(),
            last_insert: InsertStats::default(),
        }
    }

    /// The configuration in use (for Table 1 reporting).
    pub fn config(&self) -> AlexConfig {
        self.config
    }

    /// Number of data nodes.
    pub fn data_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Average data-node density (used by the ALEX-M experiment).
    pub fn average_density(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.density()).sum::<f64>() / self.nodes.len() as f64
    }

    /// Retrain the inner routing model from the current node boundaries.
    fn retrain_inner(&mut self) {
        self.inner_model = LinearModel::fit_points(
            self.boundaries
                .iter()
                .enumerate()
                .map(|(i, k)| (k.to_model_input(), i as f64)),
        );
    }

    /// Route a key to its data node: model prediction plus local correction.
    /// Returns `(node_index, nodes_traversed)`.
    fn locate(&self, key: K) -> (usize, u64) {
        let n = self.nodes.len();
        let mut idx = self.inner_model.predict_clamped(key, n);
        let mut traversed = 1u64;
        while idx + 1 < n && self.boundaries[idx + 1] <= key {
            idx += 1;
            traversed += 1;
        }
        while idx > 0 && self.boundaries[idx] > key {
            idx -= 1;
            traversed += 1;
        }
        (idx, traversed.max(1))
    }

    /// Rebuild or split node `idx` after its insert failed or its density
    /// exceeded the budget, and record it in `stats`. The cost-model decision
    /// is the paper's: expand and retrain while the node is under the size
    /// budget, split otherwise. Every SMO is timed, sampled insert or not:
    /// SMOs are rare and dominate the mean insert time.
    fn smo(&mut self, idx: usize, stats: &mut InsertStats) {
        let timer = PhaseTimer::start();
        self.restructure(idx);
        stats.events.smo_ns += timer.elapsed_ns();
        stats.triggered_smo = true;
        stats.nodes_created += 1;
    }

    fn restructure(&mut self, idx: usize) {
        let entries = self.nodes[idx].entries();
        if entries.len() < self.config.max_node_entries {
            // Expand & retrain in place.
            self.nodes[idx] = DataNode::build(&entries, self.config.init_density);
            return;
        }
        // Split into two nodes at the median key.
        let mid = entries.len() / 2;
        let left = DataNode::build(&entries[..mid], self.config.init_density);
        let right = DataNode::build(&entries[mid..], self.config.init_density);
        let right_first = entries[mid].0;
        self.nodes[idx] = left;
        self.nodes.insert(idx + 1, right);
        self.boundaries.insert(idx + 1, right_first);
        self.retrain_inner();
    }
}

impl<K: Key> Index<K> for Alex<K> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        self.len = entries.len();
        self.nodes.clear();
        self.boundaries.clear();
        if entries.is_empty() {
            self.boundaries.push(K::MIN);
            self.nodes
                .push(DataNode::build(&[], self.config.init_density));
            self.retrain_inner();
            return;
        }
        // Partition into data nodes of at most max_node_entries * density.
        let per_node = ((self.config.max_node_entries as f64 * self.config.init_density) as usize)
            .clamp(64, self.config.max_node_entries)
            .min(entries.len().max(1));
        for chunk in entries.chunks(per_node) {
            self.boundaries.push(chunk[0].0);
            self.nodes
                .push(DataNode::build(chunk, self.config.init_density));
        }
        self.boundaries[0] = K::MIN;
        self.retrain_inner();
        self.counters = OpCounters::default();
    }

    fn get(&self, key: K) -> Option<Payload> {
        let (idx, _) = self.locate(key);
        // `lower_bound` updates search statistics, which needs `&mut`; the
        // read path runs the stats-free probe on the const node.
        let node = &self.nodes[idx];
        node.probe(key, node.predict(key))
    }

    /// Batched point lookups, software-pipelined [`BATCH_WIDTH`] keys at a
    /// time: stage 1 routes every key of the group through the inner model,
    /// computes its data-node slot prediction, and issues a prefetch for the
    /// predicted position; stage 2 finishes the bounded "last-mile" searches
    /// against (now likely cache-resident) lines. Fills `out` with one
    /// `Option` per key in input order — semantically identical to a scalar
    /// `get` per key, only faster, because the `BATCH_WIDTH` independent
    /// memory accesses overlap instead of serializing on DRAM latency.
    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<Payload>>) {
        out.clear();
        out.reserve(keys.len());
        let mut staged = [(0usize, 0usize); BATCH_WIDTH];
        for group in keys.chunks(BATCH_WIDTH) {
            // Stage 1: route + predict + prefetch for the whole group.
            for (j, &key) in group.iter().enumerate() {
                let (idx, _) = self.locate(key);
                let node = &self.nodes[idx];
                let cap = node.capacity();
                let pred = if cap == 0 {
                    0
                } else {
                    node.model.predict_clamped(key, cap)
                };
                staged[j] = (idx, pred);
                if cap != 0 {
                    prefetch_read(node.keys.as_ptr().wrapping_add(pred));
                    prefetch_read(node.occupied.as_ptr().wrapping_add(pred));
                }
            }
            // Stage 2: bounded local searches on the prefetched positions.
            for (j, &key) in group.iter().enumerate() {
                let (idx, pred) = staged[j];
                out.push(self.nodes[idx].probe(key, pred));
            }
        }
    }

    fn insert(&mut self, key: K, value: Payload) -> bool {
        let mut stats = InsertStats {
            timed: self.counters.next_insert_timed(),
            ..Default::default()
        };
        // Untimed inserts read no clock outside an SMO or a long shift.
        let mut timer = stats.timed.then(PhaseTimer::start);

        let (idx, traversed) = self.locate(key);
        stats.nodes_traversed = traversed;
        if let Some(t) = &mut timer {
            t.mark();
        }

        let result = self.nodes[idx].insert(key, value, &mut stats.events);
        let (inserted, shifted) = match result {
            Ok(pair) => pair,
            Err(()) => {
                // SMO, then retry (the retry cannot fail: the rebuilt node has
                // gaps again).
                self.smo(idx, &mut stats);
                let (idx2, _) = self.locate(key);
                self.nodes[idx2]
                    .insert(key, value, &mut stats.events)
                    .expect("insert after SMO must succeed")
            }
        };
        stats.keys_shifted = shifted;
        if let Some(t) = &mut timer {
            t.mark();
            let [lookup_ns, work_ns] = t.laps_ns();
            stats.breakdown.lookup_ns = lookup_ns;
            // An SMO or long shift above is already in `events`; charge the
            // rest of the write to shifting when keys moved.
            let work_ns = work_ns.saturating_sub(stats.events.total_ns());
            if shifted > 0 {
                stats.breakdown.shift_ns = work_ns;
            } else {
                stats.breakdown.insert_ns = work_ns;
            }
        }

        if inserted {
            self.len += 1;
        }
        // Density-triggered proactive SMO (performance-driven design).
        let idx = idx.min(self.nodes.len() - 1);
        if self.nodes[idx].density() > self.config.max_density {
            self.smo(idx, &mut stats);
        }
        self.last_insert = stats;
        self.counters.record_insert(&stats);
        inserted
    }

    /// Overwrites the payload in place: route, last-mile search, write. An
    /// update changes no key, so it skips the insert bookkeeping, the
    /// density check and the clock.
    fn update(&mut self, key: K, value: Payload) -> bool {
        let (idx, _) = self.locate(key);
        let node = &mut self.nodes[idx];
        match node.position(key) {
            Some(pos) => {
                node.values[pos] = value;
                true
            }
            None => false,
        }
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let (idx, traversed) = self.locate(key);
        self.counters.record_remove(traversed);
        let removed = self.nodes[idx].remove(key);
        if removed.is_some() {
            self.len -= 1;
            // Deleting keys does not pollute the model (Message 8); we only
            // repack when density drops far below the minimum.
            if self.nodes[idx].density() < self.config.min_density / 4.0
                && self.nodes[idx].num_keys > 0
                && self.nodes[idx].capacity() > 64
            {
                let entries = self.nodes[idx].entries();
                self.nodes[idx] = DataNode::build(&entries, self.config.init_density);
                self.counters.smo_count += 1;
            }
        }
        removed
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let before = out.len();
        let target = before + spec.count;
        let (idx, _) = self.locate(spec.start);
        // Only the first node holds keys below `start`: begin its scan at
        // the last-mile search result, and every later node at slot 0.
        let first = &self.nodes[idx];
        let (from, _) = first.search(spec.start, first.predict(spec.start));
        first.scan_into(from, target, out);
        for node in &self.nodes[idx + 1..] {
            if out.len() >= target {
                break;
            }
            node.scan_into(0, target, out);
        }
        out.len() - before
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.boundaries.capacity() * std::mem::size_of::<K>()
            + self.nodes.iter().map(DataNode::memory).sum::<usize>()
    }

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::new(self.counters)
    }

    fn reset_stats(&mut self) {
        self.counters = OpCounters::default();
    }

    fn last_insert_stats(&self) -> InsertStats {
        self.last_insert
    }

    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: "ALEX",
            learned: true,
            concurrent: false,
            supports_delete: true,
            supports_range: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn entries(n: u64) -> Vec<(u64, Payload)> {
        (0..n).map(|i| (i * 13 + 7, i)).collect()
    }

    #[test]
    fn bulk_load_and_lookup() {
        let mut alex = Alex::new();
        alex.bulk_load(&entries(20_000));
        assert_eq!(alex.len(), 20_000);
        for i in (0..20_000).step_by(173) {
            assert_eq!(alex.get(i * 13 + 7), Some(i), "key {}", i * 13 + 7);
            assert_eq!(alex.get(i * 13 + 8), None);
        }
    }

    #[test]
    fn inserts_fill_gaps_and_shift() {
        let mut alex = Alex::new();
        alex.bulk_load(&entries(5_000));
        for i in 0..5_000u64 {
            assert!(
                alex.insert(i * 13 + 8, i + 100_000),
                "insert {}",
                i * 13 + 8
            );
        }
        assert_eq!(alex.len(), 10_000);
        for i in (0..5_000).step_by(97) {
            assert_eq!(alex.get(i * 13 + 7), Some(i));
            assert_eq!(alex.get(i * 13 + 8), Some(i + 100_000));
        }
        let stats = alex.stats();
        assert_eq!(stats.counters.inserts, 5_000);
        // Some inserts needed shifting, some landed in gaps.
        assert!(stats.counters.keys_shifted > 0);
    }

    #[test]
    fn update_in_place_returns_false() {
        let mut alex = Alex::new();
        alex.bulk_load(&entries(100));
        assert!(!alex.insert(7, 999));
        assert_eq!(alex.get(7), Some(999));
        assert_eq!(alex.len(), 100);
    }

    #[test]
    fn empty_index_inserts_from_scratch() {
        let mut alex: Alex<u64> = Alex::new();
        assert!(alex.is_empty());
        for i in 0..2_000u64 {
            assert!(alex.insert(i * 3, i));
        }
        assert_eq!(alex.len(), 2_000);
        for i in 0..2_000u64 {
            assert_eq!(alex.get(i * 3), Some(i));
        }
    }

    #[test]
    fn remove_and_range() {
        let mut alex = Alex::new();
        alex.bulk_load(&entries(3_000));
        for i in 0..1_000u64 {
            assert_eq!(alex.remove(i * 13 + 7), Some(i));
            assert_eq!(alex.get(i * 13 + 7), None);
        }
        assert_eq!(alex.len(), 2_000);
        assert_eq!(alex.remove(4), None);
        let mut out = Vec::new();
        let got = alex.range(RangeSpec::new(0, 100), &mut out);
        assert_eq!(got, 100);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out[0].0, 1_000 * 13 + 7);
    }

    #[test]
    fn matches_model_under_random_ops() {
        let mut alex = Alex::with_config(AlexConfig {
            max_node_entries: 1 << 12,
            ..Default::default()
        });
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x: u64 = 0x5a5a5a;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 10_000;
            match x % 3 {
                0 => assert_eq!(
                    alex.insert(key, i),
                    model.insert(key, i).is_none(),
                    "insert {key}"
                ),
                1 => assert_eq!(alex.remove(key), model.remove(&key), "remove {key}"),
                _ => assert_eq!(alex.get(key), model.get(&key).copied(), "get {key}"),
            }
        }
        assert_eq!(alex.len(), model.len());
        let mut out = Vec::new();
        alex.range(RangeSpec::new(0, usize::MAX), &mut out);
        let expected: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn node_splits_bound_node_size() {
        let mut alex = Alex::with_config(AlexConfig {
            max_node_entries: 1024,
            ..Default::default()
        });
        for i in 0..10_000u64 {
            alex.insert(i, i);
        }
        assert!(alex.data_node_count() > 4);
        for i in (0..10_000).step_by(487) {
            assert_eq!(alex.get(i), Some(i));
        }
        assert!(alex.stats().counters.smo_count > 0);
    }

    #[test]
    fn memory_matched_config_lowers_density() {
        let mut normal = Alex::new();
        let mut matched = Alex::with_config(AlexConfig::memory_matched());
        normal.bulk_load(&entries(20_000));
        matched.bulk_load(&entries(20_000));
        assert!(matched.average_density() < normal.average_density());
        assert!(matched.memory_usage() > normal.memory_usage());
        assert_eq!(matched.get(7), Some(0));
    }

    #[test]
    fn batched_lookup_matches_scalar_gets() {
        let mut alex = Alex::with_config(AlexConfig {
            max_node_entries: 1 << 12,
            ..Default::default()
        });
        alex.bulk_load(&entries(20_000));
        // Mixed hits and misses, shuffled order, length not a multiple of
        // the batch width, duplicates included.
        let mut keys: Vec<u64> = (0..1_003u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) % 25_000) * 13 + 7 - (i % 2))
            .collect();
        keys.push(keys[0]);
        let mut batched = Vec::new();
        alex.get_batch(&keys, &mut batched);
        let scalar: Vec<_> = keys.iter().map(|&k| alex.get(k)).collect();
        assert_eq!(batched, scalar);
        assert!(batched.iter().any(|r| r.is_some()));
        assert!(batched.iter().any(|r| r.is_none()));

        // Empty index and empty batch are both fine.
        let empty: Alex<u64> = Alex::new();
        let mut out = Vec::new();
        empty.get_batch(&[1, 2, 3], &mut out);
        assert_eq!(out, vec![None, None, None]);
        empty.get_batch(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn short_ranges_match_model() {
        let mut alex = Alex::with_config(AlexConfig {
            max_node_entries: 256,
            ..Default::default()
        });
        let mut model: BTreeMap<u64, u64> = entries(10_000).into_iter().collect();
        alex.bulk_load(&entries(10_000));
        // Inserts in between force SMOs and splits, so node boundaries no
        // longer line up with bulk-load chunks.
        for i in (0..10_000u64).step_by(3) {
            alex.insert(i * 13 + 9, i);
            model.insert(i * 13 + 9, i);
        }
        assert!(alex.data_node_count() > 4);
        assert_eq!(model.len(), alex.len());
        // Starts on, between and below stored keys; mid-node and across
        // node boundaries (each boundary key itself, and just below it).
        let mut starts: Vec<u64> = (0..130_000u64).step_by(997).collect();
        for &b in &alex.boundaries[1..] {
            starts.extend([b, b - 1, b.saturating_sub(30)]);
        }
        for start in starts {
            for count in [1, 10, 300] {
                let mut out = vec![(0, 0)];
                let got = alex.range(RangeSpec::new(start, count), &mut out);
                let expected: Vec<(u64, u64)> = model
                    .range(start..)
                    .take(count)
                    .map(|(k, v)| (*k, *v))
                    .collect();
                assert_eq!(got, expected.len(), "start {start} count {count}");
                assert_eq!(&out[1..], &expected[..], "start {start} count {count}");
            }
        }
    }

    #[test]
    fn sampled_breakdown_keeps_every_smo() {
        use gre_core::stats::PHASE_SAMPLE_STRIDE;
        let mut alex = Alex::with_config(AlexConfig {
            max_node_entries: 256,
            ..Default::default()
        });
        alex.bulk_load(&entries(2_000));
        let n = 20_000u64;
        for i in 0..n {
            alex.insert(i * 13 + 8 + (i / 2_000) * 3, i);
        }
        let snap = alex.stats();
        assert!(snap.counters.smo_count > 0);
        assert_eq!(snap.counters.inserts, n);
        assert_eq!(snap.counters.timed_inserts, n.div_ceil(PHASE_SAMPLE_STRIDE));
        let mean = snap.mean_insert_breakdown();
        assert!(mean.smo_ns > 0, "{mean:?}");
        assert!(mean.lookup_ns > 0, "{mean:?}");
    }

    #[test]
    fn long_shifts_are_timed_on_every_insert() {
        // A dense cluster between two loaded keys grows into a contiguous
        // run, so inserts into it shift ever longer stretches of keys.
        let mut alex = Alex::new();
        let spaced: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i * 1_000_000, i)).collect();
        alex.bulk_load(&spaced);
        let mut longest = 0;
        for k in 1..=3_000u64 {
            alex.insert(k, k);
            longest = longest.max(alex.last_insert_stats().keys_shifted);
        }
        assert!(
            longest >= LONG_SHIFT_SLOTS as u64,
            "longest shift {longest}"
        );
        let snap = alex.stats();
        assert!(snap.counters.event_breakdown.shift_ns > 0);
        assert!(snap.mean_insert_breakdown().shift_ns > 0);
        for k in (1..=3_000u64).step_by(7) {
            assert_eq!(alex.get(k), Some(k));
        }
    }

    #[test]
    fn insert_stats_report_breakdown() {
        let mut alex = Alex::new();
        alex.bulk_load(&entries(1_000));
        alex.insert(5, 5);
        let s = alex.last_insert_stats();
        assert!(s.nodes_traversed >= 1);
        assert!(s.breakdown.total_ns() >= s.breakdown.lookup_ns);
        assert_eq!(alex.meta().name, "ALEX");
        assert!(alex.meta().learned);
    }
}
