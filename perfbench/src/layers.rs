//! The traced run: per-layer probes, the layer ladder and a traced serving
//! run. Every probe calls a layer's public entry point on the workload's
//! own key set and op tape and times the call from outside.

use crate::checks::Checks;
use crate::e2e;
use crate::targets::{
    BackendClock, LateTarget, NullTarget, Preloaded, TimingBackend, TracedTarget,
};
use crate::trace::{self, SelfTime, Span};
use crate::util::{json_array, median, repeat_for, sorted_quantile_ns, JsonObject};
use crate::workload::{
    bare, replay_scenario, sharded, Inputs, Served, Spec, TapeCounts, LEARNED, SERVE_HOT_RATE,
    TRADITIONAL,
};
use gre_core::{ConcurrentIndex, Index, Payload, Request};
use gre_durability::{DurableLog, Recovery, SyncPolicy};
use gre_learned::Alex;
use gre_shard::{
    OpBatch, Partitioner, PipelineTarget, Scheme, Session, SessionTarget, ShardPipeline,
    ShardedIndex,
};
use gre_workloads::driver::{PhaseResult, ServeTarget, Tally};
use gre_workloads::scenario::{Mix, Pacing};
use gre_workloads::Op;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keys per scalar probe loop.
const PROBE_KEYS: usize = 500_000;
/// Inserts and updates per write probe.
const PROBE_WRITES: usize = 200_000;
/// ALEX+'s partition count (`gre_learned::concurrent`).
const ALEX_PLUS_PARTITIONS: usize = 64;
/// Ops per pipeline/session probe and ladder rung trial.
const PROBE_OPS: usize = 1_000_000;
/// Shards and workers of the serving stack the probes build.
const PROBE_SHARDS: usize = 2;
const PROBE_WORKERS: usize = 2;
/// Trials per ladder rung (the median is reported).
const RUNG_TRIALS: usize = 3;
/// Bytes of user data per write: key and payload.
const USER_BYTES_PER_WRITE: u64 = 16;

pub struct Layers {
    pub metrics: Vec<(String, &'static str, f64)>,
    pub spans: Vec<Span>,
    pub index_bytes: u64,
    pub ladder: Vec<(&'static str, f64)>,
    pub self_times: BTreeMap<&'static str, SelfTime>,
}

impl Layers {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push((name.to_string(), unit, value));
    }

    /// Rungs with ns/op and the cost over the rung below.
    pub fn ladder_json(&self) -> String {
        let items: Vec<String> = self
            .ladder
            .iter()
            .enumerate()
            .map(|(i, (rung, ns))| {
                let below = if i == 0 { 0.0 } else { self.ladder[i - 1].1 };
                JsonObject::new()
                    .str("rung", rung)
                    .num("ns_per_op", *ns)
                    .num("delta_ns_per_op", ns - below)
                    .render()
            })
            .collect();
        json_array(&items)
    }

    pub fn self_time_json(&self) -> String {
        let items: Vec<String> = self
            .self_times
            .iter()
            .map(|(name, t)| {
                JsonObject::new()
                    .str("span", name)
                    .int("count", t.count)
                    .int("total_ns", t.total_ns)
                    .int("self_ns", t.self_ns)
                    .render()
            })
            .collect();
        json_array(&items)
    }
}

/// Wall ns per op of a timed loop over `keys`, and how many calls hit.
fn loop_ns(keys: &[u64], mut f: impl FnMut(u64) -> bool) -> (f64, u64) {
    let t = Instant::now();
    let mut hits = 0u64;
    for &k in keys {
        hits += u64::from(f(k));
    }
    (
        t.elapsed().as_nanos() as f64 / keys.len().max(1) as f64,
        hits,
    )
}

/// Median over three passes of [`loop_ns`].
fn loop_ns3(keys: &[u64], mut f: impl FnMut(u64) -> bool) -> (f64, u64) {
    let runs: Vec<(f64, u64)> = (0..3).map(|_| loop_ns(keys, &mut f)).collect();
    let ns: Vec<f64> = runs.iter().map(|r| r.0).collect();
    (median(&ns), runs[0].1)
}

/// Every call timed on its own (the figures include one clock read).
fn timed_each<T>(items: &[T], mut f: impl FnMut(&T) -> bool) -> (Vec<u64>, u64) {
    let mut ns = Vec::with_capacity(items.len());
    let mut ok = 0u64;
    for it in items {
        let t = Instant::now();
        ok += u64::from(f(it));
        ns.push(t.elapsed().as_nanos() as u64);
    }
    ns.sort_unstable();
    (ns, ok)
}

fn mean_ns(sorted: &[u64]) -> f64 {
    sorted.iter().sum::<u64>() as f64 / sorted.len().max(1) as f64
}

/// Wall ns per op with the phase's client threads counted: each client's
/// share of the elapsed time per op it completed.
fn rung_ns(phase: &PhaseResult) -> f64 {
    phase.elapsed_ns as f64 * phase.threads as f64 / phase.ops().max(1) as f64
}

/// Run every probe. Fixed-size probes come first; the telemetry pairs, the
/// ladder rungs and the traced serving pairs repeat for shares of
/// `seconds`.
pub fn run(spec: &Spec, inputs: &Inputs, seconds: f64, out: &Path, checks: &mut Checks) -> Layers {
    let share = |f: f64| Duration::from_secs_f64(seconds * f);
    let mut l = Layers {
        metrics: Vec::new(),
        spans: Vec::new(),
        index_bytes: 0,
        ladder: Vec::new(),
        self_times: BTreeMap::new(),
    };
    let bulk = &inputs.scenario.bulk;
    let tape = &inputs.tape;
    let gets: Vec<u64> = tape
        .iter()
        .filter(|op| matches!(op, Op::Get(_)))
        .map(|op| op.route_key())
        .take(PROBE_KEYS)
        .collect();
    // Writes: the tape's own when it has them, else seeded probe ops of the
    // same key distribution.
    let tape_inserts: Vec<Op> = tape
        .iter()
        .filter(|o| matches!(o, Op::Insert(..)))
        .take(PROBE_WRITES)
        .copied()
        .collect();
    let inserts = if tape_inserts.is_empty() {
        inputs.probe_ops(spec, Mix::write_only(), 3, PROBE_WRITES)
    } else {
        tape_inserts
    };
    let tape_updates: Vec<Op> = tape
        .iter()
        .filter(|o| matches!(o, Op::Update(..)))
        .take(PROBE_WRITES)
        .copied()
        .collect();
    let updates = if tape_updates.is_empty() {
        inputs.probe_ops(spec, Mix::points(0, 0, 1, 0), 4, PROBE_WRITES)
    } else {
        tape_updates
    };
    let started = Instant::now();
    let section = |what: &str| {
        eprintln!(
            "  .. {what} done at {:.1}s",
            started.elapsed().as_secs_f64()
        )
    };
    let probe_gets_checked = |checks: &mut Checks, label: &str, hits: u64, n: usize| {
        checks.attempted += n as u64;
        checks.require(hits == n as u64, || {
            format!("{label}: {hits} of {n} probe gets hit")
        });
    };

    // -- learned / traditional: bulk load and scalar calls (rung 1).
    let mut loads = Vec::new();
    let mut alex = None;
    for _ in 0..3 {
        let mut idx = bare(LEARNED);
        let t = Instant::now();
        idx.bulk_load(bulk);
        loads.push(t.elapsed().as_secs_f64());
        alex = Some(idx);
    }
    let alex = alex.expect("three loads");
    l.index_bytes = alex.memory_usage() as u64;
    l.put("learned.bulk_load_s", "s", median(&loads));
    let (get_ns, hits) = loop_ns3(&gets, |k| alex.get(k).is_some());
    probe_gets_checked(checks, "learned.get", hits, gets.len());
    l.put("learned.get_ns", "ns", get_ns);
    let (each, _) = timed_each(&gets, |&k| alex.get(k).is_some());
    l.put("learned.get_p99_ns", "ns", sorted_quantile_ns(&each, 0.99));
    // get_batch in the group sizes the pipeline hands a backend: each
    // batch split per shard, maximal runs of consecutive gets.
    let groups = get_groups(tape, spec.batch, bulk);
    let mut out_buf = Vec::new();
    let keys_in_groups: usize = groups.iter().map(Vec::len).sum();
    let batch_ns: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for g in &groups {
                alex.get_batch(g, &mut out_buf);
            }
            t.elapsed().as_nanos() as f64 / keys_in_groups.max(1) as f64
        })
        .collect();
    l.put("learned.get_batch_ns_per_key", "ns", median(&batch_ns));
    let (ins, _) = timed_each(&inserts, |op| match *op {
        Op::Insert(k, v) => alex.insert(k, v),
        _ => false,
    });
    l.put("learned.insert_ns", "ns", mean_ns(&ins));
    l.put(
        "learned.insert_p99_ns",
        "ns",
        sorted_quantile_ns(&ins, 0.99),
    );
    let (upd, found) = timed_each(&updates, |op| match *op {
        Op::Update(k, v) => alex.update(k, v),
        _ => false,
    });
    checks.attempted += updates.len() as u64;
    checks.require(found == updates.len() as u64, || {
        format!(
            "learned.update: {found} of {} updates found their key",
            updates.len()
        )
    });
    l.put("learned.update_ns", "ns", mean_ns(&upd));
    drop(alex);
    section("learned probes");

    let mut loads = Vec::new();
    let mut btree = None;
    for _ in 0..3 {
        let mut idx = bare(TRADITIONAL);
        let t = Instant::now();
        idx.bulk_load(bulk);
        loads.push(t.elapsed().as_secs_f64());
        btree = Some(idx);
    }
    let btree = btree.expect("three loads");
    l.put("traditional.bulk_load_s", "s", median(&loads));
    let (ns, hits) = loop_ns3(&gets, |k| btree.get(k).is_some());
    probe_gets_checked(checks, "traditional.get", hits, gets.len());
    l.put("traditional.get_ns", "ns", ns);
    drop(btree);
    section("traditional probes");

    // -- bare ALEX, partitioned like ALEX+ but with no locks: the
    // partition-lock adapter's cost, and SMO counts from replaying the
    // inserts single-threaded (these counts repeat exactly).
    let mut bare_alex = PartitionedAlex::load(bulk);
    let (bare_ns, hits) = loop_ns3(&gets, |k| bare_alex.get(k).is_some());
    probe_gets_checked(checks, "bare alex get", hits, gets.len());
    l.put("concurrent.lock_ns", "ns", get_ns - bare_ns);
    for op in &inserts {
        if let Op::Insert(k, v) = *op {
            bare_alex.insert(k, v);
        }
    }
    let c = bare_alex.counters();
    let per_k = |x: u64| x as f64 * 1000.0 / c.inserts.max(1) as f64;
    l.put("learned.smo_per_kinsert", "count", per_k(c.smo_count));
    l.put(
        "learned.keys_shifted_per_insert",
        "count",
        c.keys_shifted as f64 / c.inserts.max(1) as f64,
    );
    l.put(
        "learned.nodes_created_per_kinsert",
        "count",
        per_k(c.nodes_created),
    );
    drop(bare_alex);
    section("bare ALEX replay");

    // -- sharded: routing cost over the backend's own get.
    let mut routed = sharded(LEARNED, PROBE_SHARDS);
    routed.bulk_load(bulk);
    let (sharded_ns, hits) = loop_ns3(&gets, |k| routed.get(k).is_some());
    probe_gets_checked(checks, "sharded get", hits, gets.len());
    let pre: Vec<(u64, usize)> = gets.iter().map(|&k| (k, routed.shard_of(k))).collect();
    let backend_ns: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut hits = 0u64;
            for &(k, s) in &pre {
                hits += u64::from(routed.backend(s).get(k).is_some());
            }
            std::hint::black_box(hits);
            t.elapsed().as_nanos() as f64 / pre.len().max(1) as f64
        })
        .collect();
    l.put("sharded.route_ns", "ns", sharded_ns - median(&backend_ns));
    drop(routed);
    section("sharded probe");

    // -- pipeline and session, traced, over a timing decorator.
    trace::set_enabled(true);
    let probe_ops: Vec<Op> = tape.iter().take(PROBE_OPS).copied().collect();
    let probe_counts = TapeCounts::of(&probe_ops, &inputs.scenario.loaded_keys());
    pipeline_probes(spec, bulk, &probe_ops, &probe_counts, checks, &mut l);
    wal_probe(spec, inputs, &inserts, &updates, out, checks, &mut l);
    trace::set_enabled(false);
    l.spans.extend(trace::take_all());
    section("pipeline, session and WAL probes");

    // -- telemetry: instrumented vs plain session serving.
    telemetry_probe(spec, inputs, share(0.1), checks, &mut l);
    section("telemetry probe");

    // -- the layer ladder on the workload's tape.
    ladder(spec, inputs, share(0.04), out, checks, &mut l);
    section("ladder");

    // -- how late the open-loop generator sends.
    gen_late_probe(spec, inputs, checks, &mut l);
    section("open-loop generator probe");

    // -- traced vs untraced serving of the workload itself.
    traced_serving(spec, inputs, share(0.1), checks, &mut l);
    section("traced serving");

    l.self_times = trace::self_times(&l.spans);
    l
}

/// Scratch directory for one WAL, emptied first.
fn fresh_dir(out: &Path, name: &str) -> PathBuf {
    let dir = out.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bare single-threaded ALEX instances split over the key range exactly as
/// ALEX+ splits its bulk load, without ALEX+'s locks. One bare ALEX over
/// the whole range is not comparable: on 1M books keys it shifts about
/// 175K keys per insert, where ALEX+'s partitions insert in about 1 us.
struct PartitionedAlex {
    bounds: Vec<u64>,
    parts: Vec<Alex<u64>>,
}

impl PartitionedAlex {
    fn load(entries: &[(u64, Payload)]) -> PartitionedAlex {
        let n = ALEX_PLUS_PARTITIONS;
        let mut bounds = Vec::new();
        if entries.len() >= n {
            bounds = (1..n).map(|p| entries[p * entries.len() / n].0).collect();
            bounds.dedup();
        }
        let mut parts = Vec::with_capacity(n);
        let mut start = 0;
        for p in 0..n {
            let end = match bounds.get(p) {
                Some(&b) => entries.partition_point(|e| e.0 < b),
                None => entries.len(),
            };
            let mut alex = Alex::<u64>::new();
            Index::bulk_load(&mut alex, &entries[start..end]);
            Index::reset_stats(&mut alex);
            parts.push(alex);
            start = end;
        }
        PartitionedAlex { bounds, parts }
    }

    fn part(&self, key: u64) -> usize {
        self.bounds.partition_point(|&b| b <= key)
    }

    fn get(&self, key: u64) -> Option<Payload> {
        Index::get(&self.parts[self.part(key)], key)
    }

    fn insert(&mut self, key: u64, value: Payload) -> bool {
        let p = self.part(key);
        Index::insert(&mut self.parts[p], key, value)
    }

    /// Counters summed over the partitions since their bulk load.
    fn counters(&self) -> gre_core::OpCounters {
        let mut c = gre_core::OpCounters::default();
        for part in &self.parts {
            c.merge(&Index::stats(part).counters);
        }
        c
    }
}

/// Groups of consecutive gets per shard sub-batch, as `ShardPipeline`
/// hands them to `get_batch` (runs of at least two).
fn get_groups(tape: &[Op], batch: usize, bulk: &[(u64, Payload)]) -> Vec<Vec<u64>> {
    let stride = (bulk.len() / 4096).max(1);
    let sample: Vec<u64> = bulk.iter().step_by(stride).map(|e| e.0).collect();
    let part = Partitioner::range_from_samples(&sample, PROBE_SHARDS);
    let mut groups = Vec::new();
    for chunk in tape
        .iter()
        .take(PROBE_OPS)
        .collect::<Vec<_>>()
        .chunks(batch.max(1))
    {
        let mut runs: Vec<Vec<u64>> = vec![Vec::new(); PROBE_SHARDS];
        for op in chunk {
            let s = part.shard_of(op.route_key());
            match op {
                Op::Get(k) => runs[s].push(*k),
                _ => {
                    let run = std::mem::take(&mut runs[s]);
                    if run.len() >= 2 {
                        groups.push(run);
                    }
                }
            }
        }
        groups.extend(runs.into_iter().filter(|r| r.len() >= 2));
    }
    groups
}

fn pipeline_probes(
    spec: &Spec,
    bulk: &[(u64, Payload)],
    ops: &[Op],
    counts: &TapeCounts,
    checks: &mut Checks,
    l: &mut Layers,
) {
    let clock = Arc::new(BackendClock::default());
    let mut idx = ShardedIndex::from_factory(Scheme::Range.partitioner(PROBE_SHARDS), |_| {
        TimingBackend::new(bare(LEARNED), Arc::clone(&clock))
    });
    idx.bulk_load(bulk);
    let pipeline = ShardPipeline::new(Arc::new(idx), PROBE_WORKERS);
    let batch = spec.batch.max(1);
    let clients = spec.clients.max(1);
    let chunk = ops.len().div_ceil(clients);

    // ShardPipeline::submit + SubmitHandle::wait, one batch at a time.
    let t = Instant::now();
    let per_client: Vec<(Vec<u64>, Vec<u64>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = ops
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| {
                let pipeline = &pipeline;
                s.spawn(move || {
                    let (mut submit, mut wait, mut t) = (Vec::new(), Vec::new(), Tally::default());
                    for (b, ops) in part.chunks(batch).enumerate() {
                        let id = ((c as u64) << 32) | b as u64;
                        let t0 = Instant::now();
                        let h = trace::span("pipeline.submit", id, || {
                            pipeline.submit(OpBatch::new(ops.to_vec()))
                        });
                        let t1 = Instant::now();
                        let responses = trace::span("pipeline.wait", id, || h.wait());
                        let t2 = Instant::now();
                        submit.push((t1 - t0).as_nanos() as u64);
                        wait.push((t2 - t1).as_nanos() as u64);
                        responses.iter().for_each(|r| t.record(r));
                    }
                    trace::flush_thread();
                    (submit, wait, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let elapsed = t.elapsed().as_nanos() as f64;
    let busy = clock.busy_ns.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let (mut submit, mut wait, mut total) = (Vec::new(), Vec::new(), Tally::default());
    for (s, w, t) in per_client {
        submit.extend(s);
        wait.extend(w);
        total.merge(&t);
    }
    checks.phase("pipeline probe", &total, counts, true);
    let round_trip: u64 = submit.iter().chain(&wait).sum();
    submit.sort_unstable();
    wait.sort_unstable();
    let n_ops = ops.len().max(1) as f64;
    l.put(
        "pipeline.submit_us",
        "us",
        sorted_quantile_ns(&submit, 0.5) / 1e3,
    );
    l.put(
        "pipeline.wait_p50_us",
        "us",
        sorted_quantile_ns(&wait, 0.5) / 1e3,
    );
    l.put(
        "pipeline.wait_p99_us",
        "us",
        sorted_quantile_ns(&wait, 0.99) / 1e3,
    );
    l.put(
        "pipeline.overhead_ns_per_op",
        "ns",
        round_trip as f64 / n_ops - busy / n_ops,
    );
    l.put(
        "pipeline.backend_busy_frac",
        "frac",
        busy / (elapsed * PROBE_WORKERS as f64),
    );

    // Session::submit / Session::recv with the workload's window. The
    // tape's inserts already ran once above, so they add no keys now.
    let window = spec.window.max(1);
    let per_client: Vec<(u64, u64, u64, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = ops
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| {
                let pipeline = &pipeline;
                s.spawn(move || {
                    let mut session = Session::with_max_inflight(pipeline, window);
                    let (mut submits, mut full, mut submit_ns) = (0u64, 0u64, 0u64);
                    let mut t = Tally::default();
                    for (b, ops) in part.chunks(batch).enumerate() {
                        let id = ((c as u64) << 32) | b as u64;
                        full += u64::from(session.pending() >= window);
                        let t0 = Instant::now();
                        trace::span("session.submit", id, || {
                            session.submit(OpBatch::new(ops.to_vec()))
                        });
                        submit_ns += t0.elapsed().as_nanos() as u64;
                        submits += 1;
                        while let Some(r) = trace::span("session.recv", id, || session.try_recv()) {
                            r.iter().for_each(|r| t.record(r));
                        }
                    }
                    for r in trace::span("session.recv", 0, || session.drain()) {
                        r.iter().for_each(|r| t.record(r));
                    }
                    trace::flush_thread();
                    (submits, full, submit_ns, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let (mut submits, mut full, mut submit_ns, mut total) = (0, 0, 0, Tally::default());
    for (s, f, ns, t) in per_client {
        submits += s;
        full += f;
        submit_ns += ns;
        total.merge(&t);
    }
    checks.phase("session probe", &total, counts, false);
    l.put(
        "session.window_full_frac",
        "frac",
        full as f64 / submits.max(1) as f64,
    );
    l.put(
        "session.submit_us",
        "us",
        submit_ns as f64 / submits.max(1) as f64 / 1e3,
    );
    drop(pipeline);
}

/// `DurableLog` fed the workload's write batches, split per shard, under
/// `SyncPolicy::EveryGroup`.
fn wal_probe(
    spec: &Spec,
    inputs: &Inputs,
    inserts: &[Op],
    updates: &[Op],
    out: &Path,
    checks: &mut Checks,
    l: &mut Layers,
) {
    let dir = fresh_dir(out, "wal-probe");
    let log = DurableLog::create(&dir, PROBE_SHARDS, SyncPolicy::EveryGroup)
        .expect("create the probe WAL");
    let bulk = &inputs.scenario.bulk;
    let stride = (bulk.len() / 4096).max(1);
    let sample: Vec<u64> = bulk.iter().step_by(stride).map(|e| e.0).collect();
    let part = Partitioner::range_from_samples(&sample, PROBE_SHARDS);
    let mut per_shard: Vec<Vec<(u64, Payload)>> = vec![Vec::new(); PROBE_SHARDS];
    for &(k, v) in bulk {
        per_shard[part.shard_of(k)].push((k, v));
    }
    let t = Instant::now();
    for (s, entries) in per_shard.iter().enumerate() {
        log.checkpoint(s, entries)
            .expect("checkpoint the probe WAL");
    }
    l.put("wal.checkpoint_s", "s", t.elapsed().as_secs_f64());
    drop(per_shard);

    // The tape's own write batches when it has writes, else the probe
    // inserts and updates interleaved.
    let tape_writes = inputs.tape.iter().any(|op| op.is_write());
    let writes: Vec<Op> = if tape_writes {
        inputs.tape.to_vec()
    } else {
        inserts
            .iter()
            .zip(updates)
            .flat_map(|(a, b)| [*a, *b])
            .collect()
    };
    let (mut lat, mut bytes, mut logged) = (Vec::new(), 0u64, 0u64);
    let mut written: Vec<Op> = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs(2);
    for (b, chunk) in writes.chunks(spec.batch.max(1)).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let mut groups: Vec<Vec<Request<u64>>> = vec![Vec::new(); PROBE_SHARDS];
        for op in chunk.iter().filter(|op| op.is_write()) {
            groups[part.shard_of(op.route_key())].push(*op);
        }
        for (s, g) in groups.iter().enumerate().filter(|(_, g)| !g.is_empty()) {
            let t = Instant::now();
            let receipt = trace::span("wal.log_group", b as u64, || log.log_group(s, g))
                .expect("log a probe group");
            lat.push(t.elapsed().as_nanos() as u64);
            bytes += receipt.bytes as u64;
            logged += g.len() as u64;
            written.extend_from_slice(g);
        }
    }
    lat.sort_unstable();
    let stats = log.stats();
    l.put(
        "wal.log_group_p50_us",
        "us",
        sorted_quantile_ns(&lat, 0.5) / 1e3,
    );
    l.put(
        "wal.log_group_p99_us",
        "us",
        sorted_quantile_ns(&lat, 0.99) / 1e3,
    );
    l.put(
        "wal.fsyncs_per_kop",
        "count",
        stats.fsyncs as f64 * 1000.0 / logged.max(1) as f64,
    );
    l.put(
        "wal.bytes_per_user_byte",
        "ratio",
        bytes as f64 / (logged.max(1) * USER_BYTES_PER_WRITE) as f64,
    );
    drop(log);
    check_recovery(&dir, bulk, &written, checks);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Recovery` replays the probe's WAL directory into a fresh 2-shard ALEX+,
/// which must hold exactly the checkpointed entries with the logged writes
/// applied (payloads are canonical per key, so their order does not
/// matter).
fn check_recovery(dir: &Path, bulk: &[(u64, Payload)], writes: &[Op], checks: &mut Checks) {
    let mut expected = bulk.to_vec();
    let mut fresh_keys = Vec::new();
    for op in writes {
        match *op {
            Op::Insert(k, v) | Op::Update(k, v) => match expected.binary_search_by_key(&k, |e| e.0)
            {
                Ok(i) => expected[i].1 = v,
                Err(_) if matches!(op, Op::Insert(..)) => fresh_keys.push((k, v)),
                Err(_) => {}
            },
            _ => {}
        }
    }
    fresh_keys.sort_unstable();
    fresh_keys.dedup_by_key(|e| e.0);
    expected.extend(fresh_keys);
    expected.sort_unstable();
    match Recovery::recover(dir) {
        Ok(rec) => {
            checks.require(rec.is_clean(), || "WAL recovery: log not clean".into());
            let mut fresh = sharded(LEARNED, PROBE_SHARDS);
            rec.replay_into(&mut fresh);
            let got = crate::checks::scan_all(&fresh);
            checks.require(got == expected, || {
                format!(
                    "WAL recovery: {} entries recovered, {} expected",
                    got.len(),
                    expected.len()
                )
            });
        }
        Err(err) => checks.require(false, || format!("WAL recovery failed: {err}")),
    }
}

fn session_target(spec: &Spec) -> SessionTarget<Box<dyn ConcurrentIndex<u64>>> {
    SessionTarget::new(
        sharded(LEARNED, PROBE_SHARDS),
        PROBE_WORKERS,
        spec.batch,
        spec.window,
    )
}

/// A prefix of the workload's tape replayed closed-loop on loaded targets,
/// every trial checked against the tape's counts.
struct TapeRun<'a> {
    bulk: &'a [(u64, Payload)],
    scenario: gre_workloads::scenario::Scenario,
    counts: TapeCounts,
    clients: usize,
}

impl<'a> TapeRun<'a> {
    fn new(spec: &Spec, inputs: &'a Inputs, ops: usize) -> TapeRun<'a> {
        let ops = Arc::new(inputs.tape.iter().take(ops).copied().collect::<Vec<_>>());
        let clients = spec.clients.max(1);
        TapeRun {
            bulk: &inputs.scenario.bulk,
            counts: TapeCounts::of(&ops, &inputs.scenario.loaded_keys()),
            scenario: replay_scenario(
                spec.name,
                inputs.scenario.seed,
                &ops,
                Pacing::ClosedLoop { threads: clients },
            ),
            clients,
        }
    }

    fn ops(&self) -> &[Op] {
        match &self.scenario.phases[0].source {
            gre_workloads::scenario::OpSource::Replay(ops) => ops,
            gre_workloads::scenario::OpSource::Synthetic { .. } => unreachable!("replay tape"),
        }
    }

    /// Whether the tape's inserts add keys to a freshly loaded target.
    fn adds_keys(&self) -> bool {
        self.counts.new_keys > 0
    }

    /// Trials for about `budget`, at least `min`; the first one on a fresh
    /// target (`fresh`) must add the tape's new keys, later ones none.
    fn trials(
        &self,
        target: &dyn ServeTarget,
        budget: Duration,
        min: usize,
        fresh: bool,
        label: &str,
        checks: &mut Checks,
    ) -> Vec<PhaseResult> {
        repeat_for(budget, min, 1000, |i| {
            let phase = e2e::driver()
                .run(&self.scenario, &mut Preloaded(target))
                .phases
                .remove(0);
            checks.phase(label, &phase.tally, &self.counts, fresh && i == 0);
            phase
        })
    }

    /// Median ladder figure of [`TapeRun::trials`] on a fresh target.
    fn rung(
        &self,
        target: &dyn ServeTarget,
        budget: Duration,
        label: &str,
        checks: &mut Checks,
    ) -> f64 {
        let phases = self.trials(target, budget, RUNG_TRIALS, true, label, checks);
        median(&phases.iter().map(rung_ns).collect::<Vec<_>>())
    }
}

fn telemetry_probe(
    spec: &Spec,
    inputs: &Inputs,
    budget: Duration,
    checks: &mut Checks,
    l: &mut Layers,
) {
    let run = TapeRun::new(spec, inputs, PROBE_OPS);
    let mut plain = session_target(spec);
    plain.load(run.bulk);
    let mut inst = session_target(spec).instrumented();
    inst.load(run.bulk);
    // One warm-up trial each (after which inserts are upserts), then
    // alternating pairs.
    run.trials(&plain, Duration::ZERO, 1, true, "telemetry off", checks);
    run.trials(&inst, Duration::ZERO, 1, true, "telemetry on", checks);
    let pairs = repeat_for(budget, RUNG_TRIALS, 1000, |_| {
        let p = run.trials(&plain, Duration::ZERO, 1, false, "telemetry off", checks);
        let q = run.trials(&inst, Duration::ZERO, 1, false, "telemetry on", checks);
        (p[0].throughput_mops(), q[0].throughput_mops())
    });
    let off: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let on: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    l.put(
        "telemetry.overhead_frac",
        "frac",
        1.0 - median(&on) / median(&off),
    );
}

/// raw probe -> Driver over a null target -> direct -> pipeline -> session
/// -> +telemetry -> +WAL, each in ns/op with the client threads counted,
/// each rung on a freshly loaded target for about `budget`.
fn ladder(
    spec: &Spec,
    inputs: &Inputs,
    budget: Duration,
    out: &Path,
    checks: &mut Checks,
    l: &mut Layers,
) {
    let run = TapeRun::new(spec, inputs, PROBE_OPS);
    let ops = run.ops();
    let clients = run.clients;

    // Rung 1: scalar calls on the 2-shard index, no Driver.
    let mut raw_index = sharded(LEARNED, PROBE_SHARDS);
    raw_index.bulk_load(run.bulk);
    let meta = raw_index.meta();
    let chunk = ops.len().div_ceil(clients);
    let raw = repeat_for(budget, RUNG_TRIALS, 1000, |i| {
        let t = Instant::now();
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let hs: Vec<_> = ops
                .chunks(chunk)
                .map(|part| {
                    let (index, meta) = (&raw_index, &meta);
                    s.spawn(move || {
                        let mut t = Tally::default();
                        for op in part {
                            t.record(&op.execute(index, meta));
                        }
                        t
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("raw client"))
                .collect()
        });
        let ns = t.elapsed().as_nanos() as f64 * clients as f64 / ops.len().max(1) as f64;
        let mut total = Tally::default();
        tallies.iter().for_each(|t| total.merge(t));
        checks.phase("ladder raw", &total, &run.counts, run.adds_keys() && i == 0);
        ns
    });
    drop(raw_index);
    l.ladder.push(("raw", median(&raw)));
    // Rung 2: the harness floor.
    let null = repeat_for(budget, RUNG_TRIALS, 1000, |_| {
        rung_ns(&e2e::driver().run(&run.scenario, &mut NullTarget).phases[0])
    });
    let null_ns = median(&null);
    l.ladder.push(("driver_null", null_ns));
    l.put("driver.null_ns_per_op", "ns", null_ns);
    // Rung 3: the Driver calling the 2-shard index directly.
    let mut direct = sharded(LEARNED, PROBE_SHARDS);
    direct.bulk_load(run.bulk);
    l.ladder
        .push(("direct", run.rung(&direct, budget, "ladder direct", checks)));
    drop(direct);
    // Rungs 4-7.
    let mut pipe = PipelineTarget::new(sharded(LEARNED, PROBE_SHARDS), PROBE_WORKERS, spec.batch);
    pipe.load(run.bulk);
    l.ladder.push((
        "pipeline",
        run.rung(&pipe, budget, "ladder pipeline", checks),
    ));
    drop(pipe);
    let mut sess = session_target(spec);
    sess.load(run.bulk);
    l.ladder
        .push(("session", run.rung(&sess, budget, "ladder session", checks)));
    drop(sess);
    let mut tel = session_target(spec).instrumented();
    tel.load(run.bulk);
    l.ladder.push((
        "telemetry",
        run.rung(&tel, budget, "ladder telemetry", checks),
    ));
    drop(tel);
    let dir = fresh_dir(out, "wal-ladder");
    let mut wal = session_target(spec)
        .instrumented()
        .durable(&dir, SyncPolicy::EveryGroup);
    wal.load(run.bulk);
    l.ladder
        .push(("wal", run.rung(&wal, budget, "ladder wal", checks)));
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    // Rung 2 is reported once, as `driver.null_ns_per_op`.
    for (rung, ns) in l.ladder.clone() {
        if rung != "driver_null" {
            l.put(&format!("ladder.{rung}_ns_per_op"), "ns", ns);
        }
    }
}

/// p99 of `now - intended` at `Connection::submit` in an open-loop phase:
/// the workload's own open-loop phase when it has one, else the workload's
/// tape over the null target at `serve_hot`'s rate (the generator's floor).
fn gen_late_probe(spec: &Spec, inputs: &Inputs, checks: &mut Checks, l: &mut Layers) {
    let (rate, ops, counts) = match (spec.open_loop, &inputs.open_tape) {
        (Some((rate, _)), Some(tape)) => (rate, Arc::clone(tape), inputs.open_counts),
        _ => {
            let n = (SERVE_HOT_RATE / 2.0) as usize;
            let ops: Vec<Op> = inputs.tape.iter().take(n).copied().collect();
            (SERVE_HOT_RATE, Arc::new(ops), TapeCounts::default())
        }
    };
    let scenario = replay_scenario(
        spec.name,
        inputs.scenario.seed,
        &ops,
        Pacing::OpenLoop { rate_ops_s: rate },
    );
    let late = if spec.open_loop.is_some() {
        let mut served = Served::new(spec, LEARNED);
        served.target_mut().load(&inputs.scenario.bulk);
        let late = LateTarget::new(served.target());
        let phase = e2e::driver()
            .run(&scenario, &mut Preloaded(&late))
            .phases
            .remove(0);
        checks.phase("open loop (late)", &phase.tally, &counts, false);
        late.take_sorted()
    } else {
        let null = NullTarget;
        let late = LateTarget::new(&null);
        e2e::driver().run(&scenario, &mut Preloaded(&late));
        late.take_sorted()
    };
    l.put(
        "driver.gen_late_p99_us",
        "us",
        sorted_quantile_ns(&late, 0.99) / 1e3,
    );
}

/// The workload's serving path untraced, then through a span-recording
/// wrapper, in pairs on fresh targets for about `budget`; reports the
/// tracing overhead and keeps the last traced trial's spans.
fn traced_serving(
    spec: &Spec,
    inputs: &Inputs,
    budget: Duration,
    checks: &mut Checks,
    l: &mut Layers,
) {
    let run = TapeRun::new(spec, inputs, PROBE_OPS / 2);
    let mut spans = Vec::new();
    let mut one = |on: bool, checks: &mut Checks| {
        // A fresh target per trial, so write tapes add the same keys
        // every time.
        let mut served = Served::new(spec, LEARNED);
        served.target_mut().load(run.bulk);
        let _ = trace::take_all();
        trace::set_enabled(on);
        let wrapped = TracedTarget(served.target());
        let target: &dyn ServeTarget = if on { &wrapped } else { served.target() };
        let phase = run.trials(target, Duration::ZERO, 1, true, "traced serving", checks);
        trace::set_enabled(false);
        if on {
            spans = trace::take_all();
        }
        phase[0].throughput_mops()
    };
    let pairs = repeat_for(budget, RUNG_TRIALS, 1000, |_| {
        (one(false, checks), one(true, checks))
    });
    let plain: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let traced: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    l.put(
        "trace.overhead_frac",
        "frac",
        1.0 - median(&traced) / median(&plain),
    );
    let self_ns = trace::self_times(&spans)
        .get("conn.submit")
        .map_or(0.0, |t| t.self_ns as f64 / t.count.max(1) as f64);
    l.put("trace.conn_submit_self_ns", "ns", self_ns);
    l.spans.extend(spans);
}
