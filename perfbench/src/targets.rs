//! Benchmark-local serving targets and decorators. They wrap the program's
//! public entry points so the benchmark can time and trace the calls into
//! each layer from outside.

use crate::trace;
use gre_core::{
    ConcurrentIndex, IndexMeta, InsertStats, Payload, RangeSpec, Response, StatsSnapshot,
};
use gre_workloads::driver::{Connection, PhaseRecorder, ServeTarget};
use gre_workloads::Op;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A target that answers every op without doing any work: driving it
/// measures the `Driver` harness's own cost per op (the floor under every
/// other rung).
pub struct NullTarget;

struct NullConn;

impl Connection for NullConn {
    #[inline]
    fn submit(&mut self, op: Op, intended: Option<Instant>, rec: &mut PhaseRecorder) {
        let response = match op {
            Op::Get(k) => Response::Get(Some(k)),
            Op::Insert(..) => Response::Insert(false),
            Op::Update(..) => Response::Update(true),
            Op::Remove(_) => Response::Remove(None),
            Op::Range(_) => Response::Range(Vec::new()),
        };
        match intended {
            Some(t0) => rec.complete_timed(op.kind(), t0, Instant::now(), &response),
            None => rec.complete_untimed(&response),
        }
    }

    fn flush(&mut self, _rec: &mut PhaseRecorder) {}
}

impl ServeTarget for NullTarget {
    fn describe(&self) -> String {
        "null".into()
    }
    fn load(&mut self, _entries: &[(u64, Payload)]) {}
    fn connect(&self) -> Box<dyn Connection + '_> {
        Box::new(NullConn)
    }
    fn stored_len(&self) -> usize {
        0
    }
}

/// An already loaded target: `load` is a no-op, so one loaded target can
/// serve many `Driver::run` trials.
pub struct Preloaded<'a>(pub &'a dyn ServeTarget);

impl ServeTarget for Preloaded<'_> {
    fn describe(&self) -> String {
        self.0.describe()
    }
    fn load(&mut self, _entries: &[(u64, Payload)]) {}
    fn connect(&self) -> Box<dyn Connection + '_> {
        self.0.connect()
    }
    fn stored_len(&self) -> usize {
        self.0.stored_len()
    }
    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

/// Wraps a loaded target and records, for every op submitted with an
/// intended send time, how late the generator handed it over
/// (`now - intended` at `Connection::submit`).
pub struct LateTarget<'a> {
    inner: &'a dyn ServeTarget,
    late_ns: Mutex<Vec<u64>>,
}

impl<'a> LateTarget<'a> {
    pub fn new(inner: &'a dyn ServeTarget) -> LateTarget<'a> {
        LateTarget {
            inner,
            late_ns: Mutex::new(Vec::new()),
        }
    }

    /// Every lateness sample so far, sorted.
    pub fn take_sorted(&self) -> Vec<u64> {
        let mut v = std::mem::take(&mut *self.late_ns.lock().expect("late samples"));
        v.sort_unstable();
        v
    }
}

struct LateConn<'a> {
    inner: Box<dyn Connection + 'a>,
    late: Vec<u64>,
    sink: &'a Mutex<Vec<u64>>,
}

impl Connection for LateConn<'_> {
    #[inline]
    fn submit(&mut self, op: Op, intended: Option<Instant>, rec: &mut PhaseRecorder) {
        if let Some(t0) = intended {
            self.late
                .push(Instant::now().saturating_duration_since(t0).as_nanos() as u64);
        }
        self.inner.submit(op, intended, rec);
    }

    fn flush(&mut self, rec: &mut PhaseRecorder) {
        self.inner.flush(rec);
        self.sink
            .lock()
            .expect("late samples")
            .append(&mut self.late);
    }
}

impl ServeTarget for LateTarget<'_> {
    fn describe(&self) -> String {
        self.inner.describe()
    }
    fn load(&mut self, _entries: &[(u64, Payload)]) {}
    fn connect(&self) -> Box<dyn Connection + '_> {
        Box::new(LateConn {
            inner: self.inner.connect(),
            late: Vec::new(),
            sink: &self.late_ns,
        })
    }
    fn stored_len(&self) -> usize {
        self.inner.stored_len()
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

/// Wraps a loaded target and records a span around every
/// `Connection::submit` and `Connection::flush` (request id = the
/// connection-local op number).
pub struct TracedTarget<'a>(pub &'a dyn ServeTarget);

struct TracedConn<'a> {
    inner: Box<dyn Connection + 'a>,
    next: u64,
}

impl Connection for TracedConn<'_> {
    #[inline]
    fn submit(&mut self, op: Op, intended: Option<Instant>, rec: &mut PhaseRecorder) {
        self.next += 1;
        let inner = &mut self.inner;
        trace::span("conn.submit", self.next, || inner.submit(op, intended, rec));
    }

    fn flush(&mut self, rec: &mut PhaseRecorder) {
        let inner = &mut self.inner;
        trace::span("conn.flush", self.next, || inner.flush(rec));
        trace::flush_thread();
    }
}

impl ServeTarget for TracedTarget<'_> {
    fn describe(&self) -> String {
        self.0.describe()
    }
    fn load(&mut self, _entries: &[(u64, Payload)]) {}
    fn connect(&self) -> Box<dyn Connection + '_> {
        Box::new(TracedConn {
            inner: self.0.connect(),
            next: 0,
        })
    }
    fn stored_len(&self) -> usize {
        self.0.stored_len()
    }
    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

/// Busy time shared by every [`TimingBackend`] of one composite.
#[derive(Default)]
pub struct BackendClock {
    pub busy_ns: AtomicU64,
}

/// A `ConcurrentIndex` decorator that times every data-path call into the
/// backend it wraps (and records a span per call when tracing is on).
/// Passed to `ShardedIndex::from_factory`, it sits under the pipeline's
/// worker threads.
pub struct TimingBackend<B> {
    inner: B,
    clock: Arc<BackendClock>,
}

impl<B> TimingBackend<B> {
    pub fn new(inner: B, clock: Arc<BackendClock>) -> TimingBackend<B> {
        TimingBackend { inner, clock }
    }

    #[inline]
    fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = trace::span(name, 0, f);
        self.clock
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl<B: ConcurrentIndex<u64>> ConcurrentIndex<u64> for TimingBackend<B> {
    fn bulk_load(&mut self, entries: &[(u64, Payload)]) {
        self.inner.bulk_load(entries);
    }
    fn get(&self, key: u64) -> Option<Payload> {
        self.timed("backend.get", || self.inner.get(key))
    }
    fn get_batch(&self, keys: &[u64], out: &mut Vec<Option<Payload>>) {
        self.timed("backend.get_batch", || self.inner.get_batch(keys, out))
    }
    fn insert(&self, key: u64, value: Payload) -> bool {
        self.timed("backend.insert", || self.inner.insert(key, value))
    }
    fn update(&self, key: u64, value: Payload) -> bool {
        self.timed("backend.update", || self.inner.update(key, value))
    }
    fn remove(&self, key: u64) -> Option<Payload> {
        self.timed("backend.remove", || self.inner.remove(key))
    }
    fn range(&self, spec: RangeSpec<u64>, out: &mut Vec<(u64, Payload)>) -> usize {
        self.timed("backend.range", || self.inner.range(spec, out))
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
    use crate::workload::{draw, replay_scenario};
    use gre_workloads::driver::{Driver, Tally};
    use gre_workloads::scenario::{KeyDist, Mix, Pacing};

    /// Answers like the null target after spinning `spin` per op.
    struct SpinTarget(std::time::Duration);

    struct SpinConn(std::time::Duration);

    impl Connection for SpinConn {
        fn submit(&mut self, op: Op, intended: Option<Instant>, rec: &mut PhaseRecorder) {
            let t = Instant::now();
            while t.elapsed() < self.0 {
                std::hint::spin_loop();
            }
            NullConn.submit(op, intended, rec);
        }
        fn flush(&mut self, _rec: &mut PhaseRecorder) {}
    }

    impl ServeTarget for SpinTarget {
        fn describe(&self) -> String {
            "spin".into()
        }
        fn load(&mut self, _entries: &[(u64, Payload)]) {}
        fn connect(&self) -> Box<dyn Connection + '_> {
            Box::new(SpinConn(self.0))
        }
        fn stored_len(&self) -> usize {
            0
        }
    }

    fn tape(n: usize) -> Arc<Vec<Op>> {
        let keys: Arc<Vec<u64>> = Arc::new((1..=1_000u64).map(|i| i * 2).collect());
        Arc::new(draw(&keys, Mix::read_only(), KeyDist::Uniform, 5, n))
    }

    fn ns_per_op(target: &mut dyn ServeTarget, ops: &Arc<Vec<Op>>) -> (f64, Tally) {
        let scenario = replay_scenario("t", 1, ops, Pacing::ClosedLoop { threads: 2 });
        let phase = Driver::new().run(&scenario, target).phases.remove(0);
        (phase.elapsed_ns as f64 / phase.ops() as f64, phase.tally)
    }

    #[test]
    fn the_null_target_is_the_harness_floor() {
        let ops = tape(20_000);
        let (null_ns, tally) = ns_per_op(&mut NullTarget, &ops);
        assert_eq!(tally.ops, 20_000, "every op completes");
        assert_eq!(tally.hits, 20_000, "gets answer as hits");
        assert_eq!(tally.errors, 0);
        let (spin_ns, _) = ns_per_op(&mut SpinTarget(std::time::Duration::from_micros(2)), &ops);
        assert!(
            null_ns < spin_ns,
            "null floor {null_ns:.1} ns/op is not below a 2 us/op target ({spin_ns:.1})"
        );
    }

    #[test]
    fn late_target_samples_only_timed_submissions() {
        let ops = tape(5_000);
        let null = NullTarget;
        let late = LateTarget::new(&null);
        let scenario = replay_scenario("t", 1, &ops, Pacing::OpenLoop { rate_ops_s: 1e6 });
        let phase = Driver::new()
            .open_loop_senders(1)
            .run(&scenario, &mut Preloaded(&late))
            .phases
            .remove(0);
        assert_eq!(phase.ops(), 5_000);
        // Open loop times every op.
        assert_eq!(late.take_sorted().len(), 5_000);
    }

    #[test]
    fn timing_backend_forwards_and_times_data_calls() {
        let clock = Arc::new(BackendClock::default());
        let mut idx = TimingBackend::new(
            gre_core::index::MutexIndex::new(gre_learned::Alex::<u64>::new(), "alex"),
            Arc::clone(&clock),
        );
        idx.bulk_load(&[(1, 1), (2, 2), (3, 3)]);
        assert_eq!(
            clock.busy_ns.load(Ordering::Relaxed),
            0,
            "loads are not timed"
        );
        assert_eq!(idx.get(2), Some(2));
        let mut out = Vec::new();
        idx.get_batch(&[1, 3, 9], &mut out);
        assert_eq!(out, vec![Some(1), Some(3), None]);
        assert!(idx.insert(4, 4));
        assert_eq!(idx.len(), 4);
        assert!(clock.busy_ns.load(Ordering::Relaxed) > 0);
    }
}
