//! Replication scaling: read throughput vs replica count × read fraction
//! through [`ReplicatedTarget`] — the write-forwarding primary ships its
//! WAL to read replicas, so adding replicas should buy read capacity
//! without touching the write path.
//!
//! **Why the read-service floor?** The harness may run on a single core,
//! where replica backends answer a point lookup in well under a
//! microsecond and the measurement would be dominated by driver overhead,
//! not replica capacity. Each *replica* backend is therefore wrapped in a
//! [`Throttled`] decorator that charges a fixed service floor per read
//! (`get`/`get_batch`/`range`), modeling a remote replica's per-request
//! service time. Sleeping workers overlap regardless of core count, so
//! read capacity genuinely scales with the number of replica servers
//! (`replica_workers(1)` serializes each replica as one server), while the
//! primary stays unthrottled. Every cell uses the same seed and mix, so
//! throughput ratios across replica counts are apples-to-apples.
//!
//! The sweep runs replica count × read fraction, asserts every cell is
//! error-free and every replica quiesces byte-identical to the primary's
//! committed watermark, and requires the 3-replica 95/5 cell to out-serve
//! the 1-replica cell. Results land in `BENCH_replication.json` in the
//! standard perf-trajectory schema (targets `replica×N`), round-tripped
//! through the repo's JSON parser. `--check FILE` re-validates a committed
//! report without running the sweep (the CI smoke step).

use gre_bench::perfjson::{BenchConfig, BenchReport, BenchResult, SCHEMA_VERSION};
use gre_bench::RunOpts;
use gre_core::{ConcurrentIndex, IndexMeta, InsertStats, Payload, RangeSpec, StatsSnapshot};
use gre_datasets::Dataset;
use gre_durability::util::TempDir;
use gre_learned::alex_plus;
use gre_replica::ReplicatedTarget;
use gre_shard::{Partitioner, ShardedIndex};
use gre_workloads::scenario::{KeyDist, Mix, Pacing, Phase, Scenario, Span};
use gre_workloads::Driver;
use std::process::Command;
use std::time::Duration;

const REPORT_OUT: &str = "BENCH_replication.json";
const SHARDS: usize = 4;
/// Per-read service floor charged by replica backends (see module docs).
const READ_FLOOR: Duration = Duration::from_micros(50);
/// Closed-loop driver threads. Fixed rather than core-derived: the cells
/// are sleep-bound, so client concurrency must exceed the widest replica
/// fan-out for the capacity difference to be observable.
const DRIVER_THREADS: usize = 8;
/// Required speedup of the 3-replica 95/5 cell over the 1-replica cell.
const MIN_SPEEDUP: f64 = 1.3;

type Inner = Box<dyn ConcurrentIndex<u64>>;

/// Decorator charging a fixed service floor per read operation. Writes
/// (and the replica WAL-apply path) pass through unthrottled.
struct Throttled {
    inner: Inner,
    floor: Duration,
}

impl Throttled {
    fn new(floor: Duration) -> Throttled {
        Throttled {
            inner: Box::new(alex_plus::<u64>()),
            floor,
        }
    }

    #[inline]
    fn charge(&self, reads: u32) {
        if !self.floor.is_zero() && reads > 0 {
            std::thread::sleep(self.floor * reads);
        }
    }
}

impl ConcurrentIndex<u64> for Throttled {
    fn bulk_load(&mut self, entries: &[(u64, Payload)]) {
        self.inner.bulk_load(entries);
    }
    fn get(&self, key: u64) -> Option<Payload> {
        self.charge(1);
        self.inner.get(key)
    }
    fn get_batch(&self, keys: &[u64], out: &mut Vec<Option<Payload>>) {
        self.charge(keys.len() as u32);
        self.inner.get_batch(keys, out);
    }
    fn insert(&self, key: u64, value: Payload) -> bool {
        self.inner.insert(key, value)
    }
    fn update(&self, key: u64, value: Payload) -> bool {
        self.inner.update(key, value)
    }
    fn remove(&self, key: u64) -> Option<Payload> {
        self.inner.remove(key)
    }
    fn range(&self, spec: RangeSpec<u64>, out: &mut Vec<(u64, Payload)>) -> usize {
        self.charge(1);
        self.inner.range(spec, out)
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
        self.inner.reset_stats()
    }
    fn last_insert_stats(&self) -> InsertStats {
        self.inner.last_insert_stats()
    }
    fn meta(&self) -> IndexMeta {
        self.inner.meta()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).map(String::as_str).unwrap_or(REPORT_OUT);
        if let Err(e) = check(path) {
            eprintln!("replication report check FAILED: {e}");
            std::process::exit(1);
        }
        return;
    }

    let opts = RunOpts::parse(args);
    let keys = Dataset::Covid.generate(opts.keys, opts.seed);
    let ops: u64 = if opts.quick { 6_000 } else { 24_000 };
    let (replica_axis, pct_axis): (&[usize], &[u32]) = if opts.quick {
        (&[1, 3], &[95])
    } else {
        (&[1, 2, 3], &[50, 95, 100])
    };

    println!(
        "# Replication scaling: {} replicas x {:?}% reads, {} ops/cell, \
         {} driver threads, {}µs read floor",
        replica_axis.len(),
        pct_axis,
        ops,
        DRIVER_THREADS,
        READ_FLOOR.as_micros()
    );
    println!(
        "\n{:<12} {:<16} {:>12} {:>10} {:>10}",
        "target", "mix", "ops/s", "p50 us", "p99 us"
    );

    let mut results: Vec<BenchResult> = Vec::new();
    for &pct in pct_axis {
        for &replicas in replica_axis {
            let row = run_cell(&opts, &keys, replicas, pct, ops);
            println!(
                "{:<12} {:<16} {:>12.0} {:>10.1} {:>10.1}",
                row.target, row.mix, row.throughput_ops_s, row.p50_us, row.p99_us
            );
            results.push(row);
        }
    }

    // The acceptance bar: on the 95/5 mix, three replicas must out-serve
    // one. Every cell replays the identical seeded op stream, so total
    // throughput is a fair proxy for read capacity (reads are 95% of it
    // and carry the service floor); the floor makes the gap a capacity
    // statement, not a scheduler accident.
    let rate_at = |replicas: usize| {
        results
            .iter()
            .find(|r| r.target == format!("replica×{replicas}") && r.mix == "read95/write5")
            .map(|r| r.throughput_ops_s)
            .expect("95/5 cell measured")
    };
    let (one, three) = (rate_at(1), rate_at(3));
    let speedup = three / one;
    println!("\n95/5 throughput: 3 replicas / 1 replica = {speedup:.2}x");
    assert!(
        speedup > MIN_SPEEDUP,
        "3-replica throughput ({three:.0} ops/s) must beat 1-replica ({one:.0} ops/s) \
         by >{MIN_SPEEDUP}x, got {speedup:.2}x"
    );

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        commit: current_commit(),
        config: BenchConfig {
            keys: keys.len(),
            ops,
            threads: DRIVER_THREADS,
            shards: SHARDS,
            seed: opts.seed,
            quick: opts.quick,
            batched_compare: Vec::new(),
        },
        results,
    };
    let json = report.to_json();
    let back = BenchReport::from_json(&json).expect("report must round-trip the JSON parser");
    replication_check(&back).expect("fresh report passes its own smoke check");
    std::fs::write(REPORT_OUT, &json).expect("write replication report");
    println!("report -> {REPORT_OUT} ({} bytes)", json.len());
}

/// Drive one (replica count, read fraction) cell and return its result row.
fn run_cell(opts: &RunOpts, keys: &[u64], replicas: usize, read_pct: u32, ops: u64) -> BenchResult {
    let mix = Mix::read_mostly(100 - read_pct);
    let scenario = Scenario::new("replication-scaling", opts.seed, keys).phase(Phase::new(
        "serve",
        mix,
        KeyDist::Uniform,
        Span::Ops(ops),
        Pacing::ClosedLoop {
            threads: DRIVER_THREADS,
        },
    ));

    let tmp = TempDir::new("figs-replication");
    let primary = ShardedIndex::from_factory(Partitioner::range(SHARDS), |_| {
        Throttled::new(Duration::ZERO)
    });
    let mut target =
        ReplicatedTarget::new(primary, 2, 64, tmp.path(), |_| Throttled::new(READ_FLOOR))
            .with_replicas(replicas)
            .replica_workers(1);

    let result = Driver::new().run(&scenario, &mut target);
    let phase = &result.phases[0];
    let label = format!("replica×{replicas}/read{read_pct}");
    assert_eq!(phase.ops(), ops, "{label}: phase completed");
    assert_eq!(phase.tally.errors, 0, "{label}: no errors without an SLO");
    assert_eq!(phase.shed(), 0, "{label}: nothing sheds without an SLO");

    // Every cell doubles as a consistency check: once shipping quiesces,
    // each replica's watermark covers everything the primary committed.
    target.quiesce();
    let committed = target.committed();
    for node in target.nodes() {
        assert_eq!(
            node.watermark().snapshot(),
            committed,
            "{label}: replica {} caught up",
            node.id()
        );
        assert_eq!(
            node.index().len(),
            target.primary().index().len(),
            "{label}: replica {} size equals primary",
            node.id()
        );
    }

    BenchResult::from_phase(
        &format!("sharded(ALEX+,{SHARDS})+{}µs-floor", READ_FLOOR.as_micros()),
        &format!("replica×{replicas}"),
        &format!("read{read_pct}/write{}", 100 - read_pct),
        phase,
    )
}

/// Validate a `BENCH_replication.json` document: trajectory schema, only
/// `replica×N` targets, finite numbers, and the 3-vs-1 replica ordering on
/// the 95/5 mix still holding in the stored data.
fn replication_check(report: &BenchReport) -> Result<(), String> {
    if report.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {} != expected {SCHEMA_VERSION}",
            report.schema_version
        ));
    }
    if report.results.is_empty() {
        return Err(String::from("no results"));
    }
    for r in &report.results {
        let cell = format!("{}/{}/{}", r.backend, r.target, r.mix);
        if !r.target.starts_with("replica×") {
            return Err(format!("{cell}: unexpected target `{}`", r.target));
        }
        if r.ops == 0 {
            return Err(format!("{cell}: zero completed ops"));
        }
        for (name, v) in [
            ("throughput_ops_s", r.throughput_ops_s),
            ("p50_us", r.p50_us),
            ("p99_us", r.p99_us),
            ("p999_us", r.p999_us),
            ("mean_us", r.mean_us),
            ("max_us", r.max_us),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{cell}: `{name}` = {v} is not finite non-negative"));
            }
        }
    }
    let tput = |target: &str| {
        report
            .results
            .iter()
            .find(|r| r.target == target && r.mix == "read95/write5")
            .map(|r| r.throughput_ops_s)
            .ok_or_else(|| format!("missing {target} read95/write5 cell"))
    };
    let (one, three) = (tput("replica×1")?, tput("replica×3")?);
    if three <= one {
        return Err(format!(
            "stored 95/5 throughput does not scale: replica×3 {three:.0} <= replica×1 {one:.0}"
        ));
    }
    Ok(())
}

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let report = BenchReport::from_json(&text).map_err(|e| format!("`{path}`: {e}"))?;
    replication_check(&report).map_err(|e| format!("`{path}`: {e}"))?;
    println!(
        "{path}: ok — schema v{}, commit {}, {} replication cells",
        report.schema_version,
        report.commit,
        report.results.len()
    );
    Ok(())
}

/// `git rev-parse HEAD`, or `unknown` outside a work tree.
fn current_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| String::from("unknown"))
}
