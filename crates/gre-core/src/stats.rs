//! Per-operation statistics.
//!
//! Reproducing Figure 3 (insert-time breakdown into lookup / insert / SMO /
//! statistics maintenance / key shifting / node chaining) and Table 3
//! (nodes traversed, keys shifted, nodes created per insert) requires the
//! indexes themselves to account where time and work go. Every index embeds
//! an [`OpCounters`] and fills an [`InsertStats`] for its most recent insert.
//!
//! Reading the clock costs tens of nanoseconds, a sizeable share of an
//! in-cache insert, so the breakdown is sampled: the fast phases are timed on
//! one insert in [`PHASE_SAMPLE_STRIDE`] and averaged over the timed inserts.
//! Heavy events — SMOs, subtree rebuilds, long key shifts — are timed every
//! time they happen and averaged over all inserts: they are rare or
//! heavy-tailed and dominate the mean, so a sample would miss or misweigh
//! them.

use std::time::{Duration, Instant};

/// One insert in this many times its fast phases (lookup, insert, stat,
/// shift, chain); the others read no clock unless a heavy event happens.
pub const PHASE_SAMPLE_STRIDE: u64 = 64;

/// Phases of an insert operation, matching the stacked bars of Figure 3.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InsertBreakdown {
    /// Pre-insertion key lookup (locating the slot), nanoseconds.
    pub lookup_ns: u64,
    /// Writing the entry itself, nanoseconds.
    pub insert_ns: u64,
    /// Structural modification operations (splits, resizes, retrains), ns.
    pub smo_ns: u64,
    /// Statistics / metadata maintenance on the insertion path, ns.
    pub stat_ns: u64,
    /// Shifting existing keys to make room (ALEX-style collision handling), ns.
    pub shift_ns: u64,
    /// Creating and chaining new nodes (LIPP-style collision handling), ns.
    pub chain_ns: u64,
}

impl InsertBreakdown {
    /// Total time excluding the pre-insertion lookup ("remaining steps" in
    /// Figure 3 bottom).
    pub fn remaining_ns(&self) -> u64 {
        self.insert_ns + self.smo_ns + self.stat_ns + self.shift_ns + self.chain_ns
    }

    /// Total insert latency.
    pub fn total_ns(&self) -> u64 {
        self.lookup_ns + self.remaining_ns()
    }

    /// Element-wise accumulation.
    pub fn accumulate(&mut self, other: &InsertBreakdown) {
        self.lookup_ns += other.lookup_ns;
        self.insert_ns += other.insert_ns;
        self.smo_ns += other.smo_ns;
        self.stat_ns += other.stat_ns;
        self.shift_ns += other.shift_ns;
        self.chain_ns += other.chain_ns;
    }

    /// Element-wise mean over `n` accumulated operations.
    pub fn mean(&self, n: u64) -> InsertBreakdown {
        if n == 0 {
            return *self;
        }
        InsertBreakdown {
            lookup_ns: self.lookup_ns / n,
            insert_ns: self.insert_ns / n,
            smo_ns: self.smo_ns / n,
            stat_ns: self.stat_ns / n,
            shift_ns: self.shift_ns / n,
            chain_ns: self.chain_ns / n,
        }
    }
}

/// Work counters for a single insert (Table 3).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InsertStats {
    /// Nodes traversed to reach the target node.
    pub nodes_traversed: u64,
    /// Existing keys shifted to make room (ALEX-style write amplification).
    pub keys_shifted: u64,
    /// New nodes created (LIPP-style chaining).
    pub nodes_created: u64,
    /// Whether a structural modification operation was triggered.
    pub triggered_smo: bool,
    /// Whether this insert was sampled to time its fast phases.
    pub timed: bool,
    /// Time of the fast phases, excluding `events`; zero unless `timed`.
    pub breakdown: InsertBreakdown,
    /// Time of the heavy events (SMOs, rebuilds, long shifts), filled on
    /// every insert.
    pub events: InsertBreakdown,
}

/// Monotonically accumulated counters reported by `Index::stats()`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCounters {
    pub lookups: u64,
    pub inserts: u64,
    pub removes: u64,
    pub range_scans: u64,
    /// Total nodes traversed across all operations.
    pub nodes_traversed: u64,
    /// Total keys shifted across all inserts.
    pub keys_shifted: u64,
    /// Total nodes created (chaining or SMO output).
    pub nodes_created: u64,
    /// Total structural modification operations.
    pub smo_count: u64,
    /// Total model retrains (learned indexes only).
    pub retrains: u64,
    /// Inserts that timed their fast phases (see [`PHASE_SAMPLE_STRIDE`]).
    pub timed_inserts: u64,
    /// Fast phases accumulated over the timed inserts.
    pub insert_breakdown: InsertBreakdown,
    /// Heavy events accumulated over all inserts.
    pub event_breakdown: InsertBreakdown,
}

impl OpCounters {
    /// Whether the next insert should time its fast phases: the first insert
    /// after a reset and every [`PHASE_SAMPLE_STRIDE`]-th one after it.
    #[inline]
    pub fn next_insert_timed(&self) -> bool {
        self.inserts % PHASE_SAMPLE_STRIDE == 0
    }

    /// Record the effects of one insert.
    pub fn record_insert(&mut self, stats: &InsertStats) {
        self.inserts += 1;
        self.nodes_traversed += stats.nodes_traversed;
        self.keys_shifted += stats.keys_shifted;
        self.nodes_created += stats.nodes_created;
        if stats.triggered_smo {
            self.smo_count += 1;
        }
        if stats.timed {
            self.timed_inserts += 1;
            self.insert_breakdown.accumulate(&stats.breakdown);
        }
        self.event_breakdown.accumulate(&stats.events);
    }

    /// Record a lookup that traversed `nodes` nodes.
    pub fn record_lookup(&mut self, nodes: u64) {
        self.lookups += 1;
        self.nodes_traversed += nodes;
    }

    /// Record a delete.
    pub fn record_remove(&mut self, nodes: u64) {
        self.removes += 1;
        self.nodes_traversed += nodes;
    }

    /// Record a range scan.
    pub fn record_range(&mut self) {
        self.range_scans += 1;
    }

    /// Element-wise accumulation of another counter set, used by composite
    /// indexes (sharded / partitioned stores) to report merged statistics
    /// across their per-partition backends.
    pub fn merge(&mut self, other: &OpCounters) {
        self.lookups += other.lookups;
        self.inserts += other.inserts;
        self.removes += other.removes;
        self.range_scans += other.range_scans;
        self.nodes_traversed += other.nodes_traversed;
        self.keys_shifted += other.keys_shifted;
        self.nodes_created += other.nodes_created;
        self.smo_count += other.smo_count;
        self.retrains += other.retrains;
        self.timed_inserts += other.timed_inserts;
        self.insert_breakdown.accumulate(&other.insert_breakdown);
        self.event_breakdown.accumulate(&other.event_breakdown);
    }
}

/// A point-in-time snapshot of an index's accumulated statistics, together
/// with the derived per-insert averages the paper tabulates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsSnapshot {
    pub counters: OpCounters,
}

impl StatsSnapshot {
    pub fn new(counters: OpCounters) -> Self {
        StatsSnapshot { counters }
    }

    /// Average nodes traversed per insert (Table 3 column 1).
    pub fn avg_nodes_traversed_per_insert(&self) -> f64 {
        ratio(self.counters.nodes_traversed, self.counters.inserts)
    }

    /// Average keys shifted per insert (Table 3, ALEX column).
    pub fn avg_keys_shifted_per_insert(&self) -> f64 {
        ratio(self.counters.keys_shifted, self.counters.inserts)
    }

    /// Average nodes created per insert (Table 3, LIPP column).
    pub fn avg_nodes_created_per_insert(&self) -> f64 {
        ratio(self.counters.nodes_created, self.counters.inserts)
    }

    /// Mean insert breakdown: the fast phases averaged over the timed
    /// inserts plus the heavy events averaged over all inserts.
    pub fn mean_insert_breakdown(&self) -> InsertBreakdown {
        let c = &self.counters;
        let mut mean = c.insert_breakdown.mean(c.timed_inserts);
        mean.accumulate(&c.event_breakdown.mean(c.inserts));
        mean
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A minimal scoped timer for filling [`InsertBreakdown`] fields without
/// cluttering index code. A clock read costs 30–47 ns on a 2-vCPU
/// virtualised Xeon, a sizeable share of an in-cache insert, so insert paths
/// time their fast phases only when [`OpCounters::next_insert_timed`] says
/// so and time only heavy events otherwise.
///
/// Consecutive phases cost one clock read per boundary ([`PhaseTimer::mark`]),
/// and the durations are computed only after the last read
/// ([`PhaseTimer::laps_ns`]), so no phase pays for another's arithmetic.
#[derive(Debug)]
pub struct PhaseTimer {
    marks: [Instant; PhaseTimer::LAPS + 1],
    len: usize,
}

impl PhaseTimer {
    /// Phases one timer can split: an insert's lookup and its write.
    pub const LAPS: usize = 2;

    /// Start timing. Reads the clock twice: when timing is sampled the
    /// clock path is cold, and the discarded first read keeps that cost
    /// (20–35 ns measured on the host above) out of the first phase.
    #[inline]
    pub fn start() -> Self {
        std::hint::black_box(Instant::now());
        let now = Instant::now();
        PhaseTimer {
            marks: [now; PhaseTimer::LAPS + 1],
            len: 1,
        }
    }

    /// Elapsed nanoseconds since `start`, saturating into `u64`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        duration_to_ns(self.marks[0].elapsed())
    }

    /// End the current phase and begin the next, with a single clock read.
    /// Panics past [`PhaseTimer::LAPS`] phases.
    #[inline]
    pub fn mark(&mut self) {
        self.marks[self.len] = Instant::now();
        self.len += 1;
    }

    /// Nanoseconds of each marked phase, in order; phases not yet marked
    /// read 0.
    #[inline]
    pub fn laps_ns(&self) -> [u64; PhaseTimer::LAPS] {
        std::array::from_fn(|i| {
            duration_to_ns(self.marks[i + 1].saturating_duration_since(self.marks[i]))
        })
    }
}

#[inline]
pub fn duration_to_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulate_and_mean() {
        let mut total = InsertBreakdown::default();
        let one = InsertBreakdown {
            lookup_ns: 100,
            insert_ns: 10,
            smo_ns: 20,
            stat_ns: 5,
            shift_ns: 40,
            chain_ns: 0,
        };
        total.accumulate(&one);
        total.accumulate(&one);
        assert_eq!(total.lookup_ns, 200);
        assert_eq!(total.remaining_ns(), 150);
        assert_eq!(total.total_ns(), 350);
        let mean = total.mean(2);
        assert_eq!(mean, one);
        // mean over zero ops is the identity
        assert_eq!(total.mean(0), total);
    }

    #[test]
    fn counters_record_operations() {
        let mut c = OpCounters::default();
        c.record_lookup(3);
        c.record_remove(2);
        c.record_range();
        let ins = InsertStats {
            nodes_traversed: 2,
            keys_shifted: 8,
            nodes_created: 1,
            triggered_smo: true,
            timed: true,
            breakdown: InsertBreakdown {
                lookup_ns: 50,
                ..Default::default()
            },
            events: InsertBreakdown {
                smo_ns: 40,
                ..Default::default()
            },
        };
        assert!(c.next_insert_timed());
        c.record_insert(&ins);
        assert!(!c.next_insert_timed());
        assert_eq!(c.lookups, 1);
        assert_eq!(c.removes, 1);
        assert_eq!(c.range_scans, 1);
        assert_eq!(c.inserts, 1);
        assert_eq!(c.timed_inserts, 1);
        assert_eq!(c.nodes_traversed, 7);
        assert_eq!(c.keys_shifted, 8);
        assert_eq!(c.nodes_created, 1);
        assert_eq!(c.smo_count, 1);
        assert_eq!(c.insert_breakdown.lookup_ns, 50);

        // An untimed insert leaves the fast phases alone but still adds its
        // events, which are averaged over every insert.
        c.record_insert(&InsertStats {
            timed: false,
            ..ins
        });
        assert_eq!(c.inserts, 2);
        assert_eq!(c.timed_inserts, 1);
        assert_eq!(c.smo_count, 2);
        assert_eq!(c.insert_breakdown.lookup_ns, 50);
        assert_eq!(c.event_breakdown.smo_ns, 80);
        let mean = StatsSnapshot::new(c).mean_insert_breakdown();
        assert_eq!(mean.lookup_ns, 50);
        assert_eq!(mean.smo_ns, 40);
        assert_eq!(mean.total_ns(), 90);

        // The stride times the first insert and every stride-th after it.
        let mut c = OpCounters::default();
        let n = 3 * PHASE_SAMPLE_STRIDE + 1;
        for _ in 0..n {
            let timed = c.next_insert_timed();
            c.record_insert(&InsertStats {
                timed,
                ..Default::default()
            });
        }
        assert_eq!(c.timed_inserts, 4);
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = OpCounters {
            lookups: 1,
            inserts: 2,
            removes: 3,
            range_scans: 4,
            nodes_traversed: 5,
            keys_shifted: 6,
            nodes_created: 7,
            smo_count: 8,
            retrains: 9,
            timed_inserts: 1,
            insert_breakdown: InsertBreakdown {
                lookup_ns: 10,
                ..Default::default()
            },
            event_breakdown: InsertBreakdown {
                shift_ns: 11,
                ..Default::default()
            },
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.lookups, 2);
        assert_eq!(a.inserts, 4);
        assert_eq!(a.removes, 6);
        assert_eq!(a.range_scans, 8);
        assert_eq!(a.nodes_traversed, 10);
        assert_eq!(a.keys_shifted, 12);
        assert_eq!(a.nodes_created, 14);
        assert_eq!(a.smo_count, 16);
        assert_eq!(a.retrains, 18);
        assert_eq!(a.timed_inserts, 2);
        assert_eq!(a.insert_breakdown.lookup_ns, 20);
        assert_eq!(a.event_breakdown.shift_ns, 22);
    }

    #[test]
    fn snapshot_averages() {
        let mut c = OpCounters::default();
        for _ in 0..4 {
            c.record_insert(&InsertStats {
                nodes_traversed: 2,
                keys_shifted: 10,
                nodes_created: 1,
                ..Default::default()
            });
        }
        let snap = StatsSnapshot::new(c);
        assert!((snap.avg_nodes_traversed_per_insert() - 2.0).abs() < 1e-9);
        assert!((snap.avg_keys_shifted_per_insert() - 10.0).abs() < 1e-9);
        assert!((snap.avg_nodes_created_per_insert() - 1.0).abs() < 1e-9);
        // Empty snapshot yields zeros, not NaN.
        let empty = StatsSnapshot::default();
        assert_eq!(empty.avg_keys_shifted_per_insert(), 0.0);
    }

    #[test]
    fn phase_timer_monotone() {
        let mut t = PhaseTimer::start();
        std::thread::sleep(Duration::from_millis(2));
        t.mark();
        // The first lap covers the sleep; the second is not marked yet.
        // Upper bounds are not asserted to stay robust on virtualized
        // clocks.
        let [a, b] = t.laps_ns();
        assert!(a >= 2_000_000, "lap {a}");
        assert_eq!(b, 0);
        t.mark();
        assert!(t.elapsed_ns() >= a + t.laps_ns()[1]);
        assert!(duration_to_ns(Duration::from_nanos(5)) == 5);
    }
}
