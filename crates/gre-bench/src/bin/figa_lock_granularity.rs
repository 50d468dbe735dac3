//! Figure A (appendix): ALEX+ lock granularity — one optimistic lock per data
//! node vs one lock per 256 records — under the balanced workload.
use gre_bench::RunOpts;
use gre_core::{ConcurrentIndex, IndexMeta, Key, Payload, RangeSpec, DEFAULT_PARTITIONS};
use gre_datasets::Dataset;
use gre_learned::alex_plus;
use gre_workloads::{run_concurrent, WorkloadBuilder, WriteRatio};
use parking_lot::{Mutex, MutexGuard};

/// The per-256-record design: every write also takes the record-group locks
/// covering the touched region, in address order to stay deadlock free.
/// It admits more concurrency than one lock per node, but acquiring several
/// locks per operation costs more than it gains — the effect Figure A
/// measures.
struct RecordGroupLocks<I> {
    inner: I,
    groups: Vec<Mutex<()>>,
}

impl<I> RecordGroupLocks<I> {
    fn new(inner: I) -> Self {
        RecordGroupLocks {
            inner,
            groups: (0..DEFAULT_PARTITIONS * 16)
                .map(|_| Mutex::new(()))
                .collect(),
        }
    }

    fn lock(&self, key: u64) -> [MutexGuard<'_, ()>; 2] {
        let h = (key.to_model_input().to_bits() as usize) % (self.groups.len() - 1);
        [self.groups[h].lock(), self.groups[h + 1].lock()]
    }
}

impl<I: ConcurrentIndex<u64>> ConcurrentIndex<u64> for RecordGroupLocks<I> {
    fn bulk_load(&mut self, entries: &[(u64, Payload)]) {
        self.inner.bulk_load(entries);
    }

    fn get(&self, key: u64) -> Option<Payload> {
        self.inner.get(key)
    }

    fn insert(&self, key: u64, value: Payload) -> bool {
        let _groups = self.lock(key);
        self.inner.insert(key, value)
    }

    fn update(&self, key: u64, value: Payload) -> bool {
        let _groups = self.lock(key);
        self.inner.update(key, value)
    }

    fn remove(&self, key: u64) -> Option<Payload> {
        let _groups = self.lock(key);
        self.inner.remove(key)
    }

    fn range(&self, spec: RangeSpec<u64>, out: &mut Vec<(u64, Payload)>) -> usize {
        self.inner.range(spec, out)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn memory_usage(&self) -> usize {
        self.inner.memory_usage()
    }

    fn meta(&self) -> IndexMeta {
        self.inner.meta()
    }
}

fn main() {
    let opts = RunOpts::from_env();
    let builder = WorkloadBuilder::new(opts.seed);
    println!(
        "# Figure A: ALEX+ lock granularity (balanced workload, {} threads)",
        opts.threads
    );
    println!(
        "{:<10} {:>18} {:>22}",
        "dataset", "per-node (Mop/s)", "per-256-records (Mop/s)"
    );
    for ds in Dataset::DRILLDOWN_DATASETS {
        let keys = ds.generate(opts.keys, opts.seed);
        let workload = builder.insert_workload(&ds.name(), &keys, WriteRatio::Balanced);
        let mut per_node = alex_plus::<u64>();
        let mut per_group = RecordGroupLocks::new(alex_plus::<u64>());
        let rn = run_concurrent(&mut per_node, &workload, opts.threads);
        let rg = run_concurrent(&mut per_group, &workload, opts.threads);
        println!(
            "{:<10} {:>18.3} {:>22.3}",
            ds.name(),
            rn.throughput_mops(),
            rg.throughput_mops()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_group_locks_keep_concurrent_inserts_correct() {
        let mut a = RecordGroupLocks::new(alex_plus::<u64>());
        let entries: Vec<(u64, Payload)> = (0..5_000).map(|i| (i * 10, i)).collect();
        a.bulk_load(&entries);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let a = &a;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        a.insert(10_000_000 + t * 1_000_000 + i, i);
                    }
                });
            }
        });
        assert_eq!(a.len(), 5_000 + 4_000);
        assert_eq!(a.get(10_000_000 + 3_000_000 + 999), Some(999));
        assert_eq!(a.meta().name, "ALEX+");
    }
}
