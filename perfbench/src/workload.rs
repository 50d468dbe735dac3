//! The benchmark's workloads and the inputs each one generates from the
//! seed. The program under test receives only these generated inputs.

use gre_bench::registry::IndexBuilder;
use gre_core::ConcurrentIndex;
use gre_datasets::Dataset;
use gre_shard::{SessionTarget, ShardedIndex};
use gre_workloads::driver::ServeTarget;
use gre_workloads::scenario::{KeyDist, Mix, OpStream, Pacing, Phase, Scenario, SyntheticStream};
use gre_workloads::Op;
use std::sync::Arc;

/// How a workload's traffic is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serve {
    /// Each client thread calls the bare index synchronously.
    Direct,
    /// `SessionTarget`: keep a window of batches in flight.
    Session,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub dataset: Dataset,
    pub keys: usize,
    pub mix: Mix,
    pub dist: KeyDist,
    /// Ops in one closed-loop trial (a fixed count, so the end state and
    /// the counts repeat exactly).
    pub trial_ops: usize,
    pub serve: Serve,
    pub shards: usize,
    pub workers: usize,
    pub batch: usize,
    pub window: usize,
    /// Attach `gre-telemetry` to the serving pipeline.
    pub instrumented: bool,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Open-loop phase: rate (ops/s) and ops per trial, one sender thread.
    pub open_loop: Option<(f64, usize)>,
}

/// Open-loop sender threads. Set explicitly: the `Driver` default is 4.
pub const OPEN_LOOP_SENDERS: usize = 1;

/// Rate of `serve_hot`'s open-loop phase, about a third of its phase-1
/// closed-loop capacity.
pub const SERVE_HOT_RATE: f64 = 2_000_000.0;

pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "lookup_10m",
            dataset: Dataset::Covid,
            keys: 10_000_000,
            mix: Mix::read_only(),
            dist: KeyDist::Uniform,
            trial_ops: 2_000_000,
            serve: Serve::Direct,
            shards: 1,
            workers: 0,
            batch: 1024,
            window: 32,
            instrumented: false,
            clients: 2,
            open_loop: None,
        },
        Spec {
            name: "ingest",
            dataset: Dataset::Books,
            keys: 1_000_000,
            mix: Mix::balanced(),
            dist: KeyDist::Uniform,
            trial_ops: 2_000_000,
            // A session window, not submit-then-wait: with no batch in
            // flight to cover it, every stall of a client or worker thread
            // (CPU steal reached 10% on the 2-core host) stopped the whole
            // pipeline, and throughput spread 13-26% from run to run.
            serve: Serve::Session,
            shards: 2,
            workers: 2,
            batch: 1024,
            window: 32,
            instrumented: false,
            clients: 2,
            open_loop: None,
        },
        Spec {
            name: "serve_hot",
            dataset: Dataset::Covid,
            keys: 50_000,
            mix: Mix::ycsb_b(),
            dist: KeyDist::Zipf { theta: 0.99 },
            trial_ops: 2_000_000,
            serve: Serve::Session,
            shards: 2,
            workers: 2,
            batch: 1024,
            window: 32,
            instrumented: true,
            clients: 2,
            open_loop: Some((SERVE_HOT_RATE, 1_000_000)),
        },
    ]
}

pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// Learned index under test and the traditional baseline.
pub const LEARNED: &str = "ALEX+";
pub const TRADITIONAL: &str = "B+treeOLC";

/// Op-kind counts of a tape, plus how many distinct keys its inserts add
/// to the loaded set (what `Tally::new_keys` must equal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapeCounts {
    pub gets: u64,
    pub inserts: u64,
    pub updates: u64,
    pub new_keys: u64,
}

impl TapeCounts {
    pub fn of(tape: &[Op], loaded: &[u64]) -> TapeCounts {
        let mut c = TapeCounts::default();
        let mut fresh = Vec::new();
        for op in tape {
            match op {
                Op::Get(_) => c.gets += 1,
                Op::Insert(k, _) => {
                    c.inserts += 1;
                    if loaded.binary_search(k).is_err() {
                        fresh.push(*k);
                    }
                }
                Op::Update(..) => c.updates += 1,
                _ => {}
            }
        }
        fresh.sort_unstable();
        fresh.dedup();
        c.new_keys = fresh.len() as u64;
        c
    }
}

/// Everything a run needs, generated from the seed.
pub struct Inputs {
    /// Loaded keys, sorted and distinct, paired with payloads.
    pub scenario: Scenario,
    /// Closed-loop trial tape.
    pub tape: Arc<Vec<Op>>,
    pub counts: TapeCounts,
    /// Open-loop trial tape, when the workload has an open-loop phase.
    pub open_tape: Option<Arc<Vec<Op>>>,
    pub open_counts: TapeCounts,
}

/// Seed of the stream a tape is drawn from (distinct per tape role).
fn stream_seed(seed: u64, role: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (role << 56) ^ 0x5EED
}

/// `n` ops from the workload's synthetic generator.
pub fn draw(keys: &Arc<Vec<u64>>, mix: Mix, dist: KeyDist, seed: u64, n: usize) -> Vec<Op> {
    let mut s = SyntheticStream::new(Arc::clone(keys), mix, dist, seed);
    (0..n)
        .map(|_| s.next_op().expect("synthetic streams are infinite"))
        .collect()
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let keys = spec.dataset.generate(spec.keys, seed);
        let scenario = Scenario::new(spec.name, seed, &keys);
        let loaded = Arc::new(scenario.loaded_keys());
        let tape = draw(
            &loaded,
            spec.mix,
            spec.dist,
            stream_seed(seed, 1),
            spec.trial_ops,
        );
        let counts = TapeCounts::of(&tape, &loaded);
        let open_tape = spec
            .open_loop
            .map(|(_, n)| draw(&loaded, spec.mix, spec.dist, stream_seed(seed, 2), n));
        let open_counts = open_tape
            .as_ref()
            .map_or_else(TapeCounts::default, |t| TapeCounts::of(t, &loaded));
        Inputs {
            scenario,
            tape: Arc::new(tape),
            counts,
            open_tape: open_tape.map(Arc::new),
            open_counts,
        }
    }

    pub fn loaded(&self) -> usize {
        self.scenario.bulk.len()
    }

    /// Seeded extra ops of `mix` over the loaded keys, for layer probes that
    /// need an op kind the workload's tape lacks.
    pub fn probe_ops(&self, spec: &Spec, mix: Mix, role: u64, n: usize) -> Vec<Op> {
        let loaded = Arc::new(self.scenario.loaded_keys());
        draw(
            &loaded,
            mix,
            spec.dist,
            stream_seed(self.scenario.seed, role),
            n,
        )
    }
}

/// A scenario holding one replay phase and no bulk entries (for targets
/// that are already loaded).
pub fn replay_scenario(name: &str, seed: u64, ops: &Arc<Vec<Op>>, pacing: Pacing) -> Scenario {
    Scenario {
        name: name.to_string(),
        seed,
        bulk: Vec::new(),
        phases: vec![Phase::replay(name, Arc::clone(ops), pacing)],
    }
}

/// `backend` behind `shards` range shards, as `IndexBuilder` makes it.
pub fn sharded(backend: &str, shards: usize) -> ShardedIndex<u64, Box<dyn ConcurrentIndex<u64>>> {
    IndexBuilder::backend(backend)
        .expect("registered backend")
        .shards(shards)
        .build_sharded()
}

pub fn bare(backend: &str) -> Box<dyn ConcurrentIndex<u64>> {
    IndexBuilder::backend(backend)
        .expect("registered backend")
        .build()
}

type Boxed = Box<dyn ConcurrentIndex<u64>>;

/// A workload's serving target, kept concrete so the benchmark can reach
/// its telemetry after a run.
pub enum Served {
    Direct(Boxed),
    Session(SessionTarget<Boxed>),
}

impl Served {
    /// The workload's serving target over `backend`, unloaded.
    pub fn new(spec: &Spec, backend: &str) -> Served {
        match spec.serve {
            Serve::Direct => Served::Direct(bare(backend)),
            Serve::Session => {
                let t = SessionTarget::new(
                    sharded(backend, spec.shards),
                    spec.workers,
                    spec.batch,
                    spec.window,
                );
                Served::Session(if spec.instrumented {
                    t.instrumented()
                } else {
                    t
                })
            }
        }
    }

    pub fn target(&self) -> &dyn ServeTarget {
        match self {
            Served::Direct(t) => t,
            Served::Session(t) => t,
        }
    }

    pub fn target_mut(&mut self) -> &mut dyn ServeTarget {
        match self {
            Served::Direct(t) => t,
            Served::Session(t) => t,
        }
    }

    pub fn telemetry(&self) -> Option<&Arc<gre_telemetry::Telemetry>> {
        match self {
            Served::Direct(_) => None,
            Served::Session(t) => t.telemetry(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Spec {
        let mut s = by_name("ingest").unwrap();
        s.keys = 5_000;
        s.trial_ops = 4_000;
        s
    }

    #[test]
    fn same_seed_same_tape_other_seed_other_tape() {
        let spec = small();
        let a = Inputs::generate(&spec, 7);
        let b = Inputs::generate(&spec, 7);
        let c = Inputs::generate(&spec, 8);
        assert_eq!(a.tape, b.tape);
        assert_eq!(a.scenario.bulk, b.scenario.bulk);
        assert_eq!(a.counts, b.counts);
        assert_ne!(a.tape, c.tape);
        assert_ne!(a.scenario.bulk, c.scenario.bulk);
    }

    #[test]
    fn tape_counts_match_the_mix() {
        let spec = small();
        let inputs = Inputs::generate(&spec, 3);
        let c = inputs.counts;
        assert_eq!(c.gets + c.inserts, spec.trial_ops as u64);
        assert!(c.new_keys > 0 && c.new_keys <= c.inserts);
        let hot = by_name("serve_hot").unwrap();
        let mut hot = hot;
        hot.keys = 2_000;
        hot.trial_ops = 10_000;
        hot.open_loop = Some((1.0, 500));
        let inputs = Inputs::generate(&hot, 3);
        assert_eq!(inputs.counts.inserts, 0);
        assert!(inputs.counts.updates > 0);
        assert_eq!(inputs.open_tape.as_ref().unwrap().len(), 500);
    }

    #[test]
    fn every_workload_fits_two_cores() {
        for spec in all() {
            assert!(spec.clients <= 2, "{}", spec.name);
        }
        const { assert!(OPEN_LOOP_SENDERS <= 2) };
    }
}
