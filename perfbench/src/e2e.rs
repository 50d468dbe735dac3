//! End-to-end runs: the workload's traffic through its serving target,
//! timed from outside by the `Driver`, with tracing off.
//!
//! Each trial replays a fixed op tape. Throughput is the median over the
//! trials' 100 ms intervals of the completion rate, and latency the median
//! over intervals of each interval's percentile: a stall of the shared
//! 2-core host then moves a few intervals, not the figure.
//! Latency is taken over every op: reads and writes ride the same batches
//! on the pipelined targets, so they see the same latency there.

use crate::checks::Checks;
use crate::targets::Preloaded;
use crate::workload::{replay_scenario, Inputs, Served, Spec, TapeCounts, LEARNED, TRADITIONAL};
use gre_workloads::driver::{Driver, PhaseResult, Tally};
use gre_workloads::scenario::Pacing;
use std::time::{Duration, Instant};

/// Timed completions an interval needs before its percentiles count (so
/// that at least ten samples lie beyond its p99).
const MIN_INTERVAL_SAMPLES: u64 = 1_000;

/// Per-interval latency percentiles, in microseconds.
#[derive(Debug, Default)]
pub struct Latency {
    pub p50: Vec<f64>,
    pub p90: Vec<f64>,
    pub p99: Vec<f64>,
}

impl Latency {
    /// Add each well-filled interval's percentiles of `phase`.
    fn add(&mut self, phase: &PhaseResult) {
        for h in &phase.interval_latency {
            if h.count() >= MIN_INTERVAL_SAMPLES {
                self.p50.push(h.percentile(0.5) as f64 / 1e3);
                self.p90.push(h.percentile(0.9) as f64 / 1e3);
                self.p99.push(h.percentile(0.99) as f64 / 1e3);
            }
        }
    }
}

/// Per-interval samples of every end-to-end metric, plus figures the run
/// record carries but the benchmark does not gate.
#[derive(Debug, Default)]
pub struct E2e {
    pub throughput_mops: Vec<f64>,
    /// Closed-loop latency; its p99 is recorded but not gated: on a shared
    /// 2-core host the p99 of a 100 ms interval follows scheduler stalls,
    /// not the program (see README.md).
    pub latency: Latency,
    /// Open-loop latency at the workload's fixed rate, from intended send
    /// time. Recorded, not gated: how far a fixed offered rate falls
    /// behind depends on what else the host runs.
    pub open_latency: Latency,
    pub bytes_per_key: Vec<f64>,
    pub baseline_throughput_mops: Vec<f64>,
    pub baseline_bytes_per_key: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Index bytes and stored keys of the learned target at the end.
    pub index_bytes: u64,
    pub stored_keys: u64,
}

impl E2e {
    /// `(name, unit, samples)` for every end-to-end metric; the reported
    /// value is the samples' median.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, &[f64])> {
        vec![
            ("throughput_mops", "Mops/s", &self.throughput_mops[..]),
            ("latency_p50_us", "us", &self.latency.p50),
            ("latency_p90_us", "us", &self.latency.p90),
            ("bytes_per_key", "B/key", &self.bytes_per_key),
            (
                "baseline_throughput_mops",
                "Mops/s",
                &self.baseline_throughput_mops,
            ),
            (
                "baseline_bytes_per_key",
                "B/key",
                &self.baseline_bytes_per_key,
            ),
            ("setup_s", "s", &self.setup_s),
        ]
    }
}

/// Completions per second (in Mops/s) of each full 100 ms interval of a
/// trial; the last interval is partial and left out.
fn interval_rates(phase: &PhaseResult, out: &mut Vec<f64>) {
    let secs = phase.interval_ns as f64 / 1e9;
    let full = phase.intervals.len().saturating_sub(1);
    out.extend(
        phase.intervals[..full]
            .iter()
            .map(|&n| n as f64 / secs / 1e6),
    );
}

pub fn driver() -> Driver {
    Driver::new().open_loop_senders(crate::workload::OPEN_LOOP_SENDERS)
}

fn closed(spec: &Spec) -> Pacing {
    Pacing::ClosedLoop {
        threads: spec.clients,
    }
}

/// Load `served` with the workload's bulk entries; returns seconds spent
/// in `ServeTarget::load` (bulk load and pipeline start).
pub fn load(served: &mut Served, inputs: &Inputs) -> f64 {
    let t = Instant::now();
    served.target_mut().load(&inputs.scenario.bulk);
    t.elapsed().as_secs_f64()
}

/// One closed-loop trial of the workload's tape on a loaded target.
pub fn trial(spec: &Spec, inputs: &Inputs, served: &Served) -> PhaseResult {
    let scenario = replay_scenario(spec.name, inputs.scenario.seed, &inputs.tape, closed(spec));
    driver()
        .run(&scenario, &mut Preloaded(served.target()))
        .phases
        .remove(0)
}

fn bytes_per_key(served: &Served) -> f64 {
    let t = served.target();
    t.memory_bytes() as f64 / t.stored_len().max(1) as f64
}

/// Run the workload for about `seconds` and check every output.
pub fn run(spec: &Spec, inputs: &Inputs, seconds: f64, checks: &mut Checks) -> E2e {
    let share = |f: f64| Duration::from_secs_f64(seconds * f);
    let mut e = E2e::default();
    if inputs.counts.new_keys > 0 {
        run_fresh_per_trial(spec, inputs, share, checks, &mut e);
    } else {
        run_preloaded(spec, inputs, share, checks, &mut e);
    }
    e
}

/// Key sets up to this size are served by a fresh target at every visit:
/// a serving pipeline's speed depends on where its threads and buffers
/// happen to land, which is fixed per target, so fresh targets turn a
/// per-run draw into many draws that the median averages out. Larger sets
/// load once.
const FRESH_TARGET_MAX_KEYS: usize = 1_000_000;

/// A loaded target plus the tally of everything served through it.
struct Live {
    served: Served,
    tally: Tally,
}

impl Live {
    fn new(spec: &Spec, inputs: &Inputs, backend: &str) -> (Live, f64) {
        let mut served = Served::new(spec, backend);
        let setup = load(&mut served, inputs);
        let live = Live {
            served,
            tally: Tally::default(),
        };
        (live, setup)
    }

    /// One closed-loop trial, checked and tallied.
    fn closed(&mut self, spec: &Spec, inputs: &Inputs, checks: &mut Checks) -> PhaseResult {
        let phase = trial(spec, inputs, &self.served);
        checks.phase("closed", &phase.tally, &inputs.counts, false);
        self.tally.merge(&phase.tally);
        phase
    }

    /// Final checks: nothing added keys, and telemetry (when attached)
    /// counted exactly what the driver saw. Records the target's bytes per
    /// key.
    fn finish(self, backend: &str, inputs: &Inputs, checks: &mut Checks, e: &mut E2e) {
        let target = self.served.target();
        checks.stored(backend, target.stored_len(), inputs.loaded(), 0);
        if let Some(t) = self.served.telemetry() {
            if let Err(msg) = gre_shard::reconcile_tally(&t.snapshot(), &self.tally) {
                checks.require(false, || {
                    format!("{backend}: telemetry vs driver tally: {msg}")
                });
            }
        }
        if backend == LEARNED {
            e.bytes_per_key.push(bytes_per_key(&self.served));
            e.index_bytes = target.memory_bytes() as u64;
            e.stored_keys = target.stored_len() as u64;
        } else {
            e.baseline_bytes_per_key.push(bytes_per_key(&self.served));
        }
    }
}

/// What one slot of a round measures.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Job {
    /// Closed-loop trials: throughput and latency.
    Closed,
    /// Open-loop trials at the workload's fixed rate: the recorded
    /// open-loop latency.
    Open,
}

/// Read-mostly workloads (the key set does not change, so trials are
/// identical). The run goes round by round through its slots (ALEX+ closed
/// loop, ALEX+ open loop when the workload has one, B+treeOLC closed loop),
/// so that every metric samples the whole run rather than one stretch of
/// it; each slot's targets serve one warm-up trial that is not counted.
fn run_preloaded(
    spec: &Spec,
    inputs: &Inputs,
    share: impl Fn(f64) -> Duration,
    checks: &mut Checks,
    e: &mut E2e,
) {
    let fresh = spec.keys <= FRESH_TARGET_MAX_KEYS;
    let open = spec.open_loop.map(|(rate, _)| {
        replay_scenario(
            spec.name,
            inputs.scenario.seed,
            inputs.open_tape.as_ref().expect("open-loop tape"),
            Pacing::OpenLoop { rate_ops_s: rate },
        )
    });
    // (backend, job, measured trials per visit). Out of cache an ALEX+
    // trial is about a third as long as a B+treeOLC one.
    let mut slots = vec![(LEARNED, Job::Closed, 2)];
    if open.is_some() {
        slots.push((LEARNED, Job::Open, 1));
    }
    slots.push((TRADITIONAL, Job::Closed, if fresh { 2 } else { 1 }));
    if !fresh {
        slots[0].2 = 3;
    }
    let mut kept: Vec<Option<Live>> = slots.iter().map(|_| None).collect();
    let budget = share(0.85);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed() < budget {
        rounds += 1;
        if !fresh {
            // The serving targets persist, so each round loads one more
            // ALEX+ target only for its set-up time.
            let (live, setup) = Live::new(spec, inputs, LEARNED);
            e.setup_s.push(setup);
            drop(live);
        }
        for (slot, &(backend, job, per_visit)) in slots.iter().enumerate() {
            let mut live = match kept[slot].take() {
                Some(live) => live,
                None => {
                    let (mut live, setup) = Live::new(spec, inputs, backend);
                    if backend == LEARNED {
                        e.setup_s.push(setup);
                    }
                    live.closed(spec, inputs, checks);
                    live
                }
            };
            for _ in 0..per_visit {
                match job {
                    Job::Closed => {
                        let phase = live.closed(spec, inputs, checks);
                        if backend == LEARNED {
                            interval_rates(&phase, &mut e.throughput_mops);
                            e.latency.add(&phase);
                        } else {
                            interval_rates(&phase, &mut e.baseline_throughput_mops);
                        }
                    }
                    Job::Open => {
                        let scenario = open.as_ref().expect("open-loop scenario");
                        let phase = driver()
                            .run(scenario, &mut Preloaded(live.served.target()))
                            .phases
                            .remove(0);
                        checks.phase("open", &phase.tally, &inputs.open_counts, false);
                        live.tally.merge(&phase.tally);
                        e.open_latency.add(&phase);
                    }
                }
            }
            if fresh {
                live.finish(backend, inputs, checks, e);
            } else {
                kept[slot] = Some(live);
            }
        }
    }
    for (slot, live) in kept.into_iter().enumerate() {
        if let Some(live) = live {
            live.finish(slots[slot].0, inputs, checks, e);
        }
    }
}

/// Insert workloads: every trial starts from a freshly loaded target, so
/// each one inserts the same keys into the same loaded set. ALEX+ and
/// B+treeOLC trials alternate; the first round warms the process up and is
/// not counted.
fn run_fresh_per_trial(
    spec: &Spec,
    inputs: &Inputs,
    share: impl Fn(f64) -> Duration,
    checks: &mut Checks,
    e: &mut E2e,
) {
    let loaded = inputs.loaded();
    let new_keys = inputs.counts.new_keys;
    let budget = share(0.9);
    let start = Instant::now();
    let mut round = 0;
    while round < 3 || start.elapsed() < budget {
        for backend in [LEARNED, TRADITIONAL] {
            let mut served = Served::new(spec, backend);
            let setup = load(&mut served, inputs);
            let phase = trial(spec, inputs, &served);
            checks.phase(backend, &phase.tally, &inputs.counts, true);
            checks.stored(backend, served.target().stored_len(), loaded, new_keys);
            match (backend == LEARNED, round) {
                (_, 0) => {}
                (true, _) => {
                    e.setup_s.push(setup);
                    interval_rates(&phase, &mut e.throughput_mops);
                    e.latency.add(&phase);
                    e.bytes_per_key.push(bytes_per_key(&served));
                    e.index_bytes = served.target().memory_bytes() as u64;
                    e.stored_keys = served.target().stored_len() as u64;
                }
                (false, _) => {
                    interval_rates(&phase, &mut e.baseline_throughput_mops);
                    e.baseline_bytes_per_key.push(bytes_per_key(&served));
                }
            }
        }
        round += 1;
    }
}

/// Counts of one trial tape, for callers that report them.
pub fn describe_counts(c: &TapeCounts) -> String {
    format!(
        "{} gets, {} inserts ({} new keys), {} updates",
        c.gets, c.inserts, c.new_keys, c.updates
    )
}
