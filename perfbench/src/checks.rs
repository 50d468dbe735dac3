//! Output checks. Every failed check is recorded; any failure makes the
//! run incorrect (and the process exit non-zero).

use crate::workload::TapeCounts;
use gre_core::{ConcurrentIndex, Payload, RangeSpec};
use gre_workloads::driver::Tally;

#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
    /// Ops attempted across every checked phase.
    pub attempted: u64,
    /// Ops that answered with an error (shed included).
    pub failed: u64,
}

impl Checks {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn require(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.failures.push(what());
        }
    }

    /// Check one executed phase of `tape`: every op completed, every get of
    /// a loaded key hit, every update found its key, inserts added exactly
    /// the tape's fresh keys (`expect_new`: false when the keys were
    /// already inserted by an earlier trial on the same target), and
    /// nothing failed.
    pub fn phase(&mut self, label: &str, tally: &Tally, counts: &TapeCounts, expect_new: bool) {
        let ops = counts.gets + counts.inserts + counts.updates;
        self.attempted += ops;
        self.failed += tally.errors;
        self.require(tally.ops == ops, || {
            format!("{label}: {} of {ops} ops completed", tally.ops)
        });
        self.require(tally.hits == counts.gets, || {
            format!("{label}: {} of {} gets hit", tally.hits, counts.gets)
        });
        self.require(tally.updated == counts.updates, || {
            format!(
                "{label}: {} of {} updates found their key",
                tally.updated, counts.updates
            )
        });
        let new_keys = if expect_new { counts.new_keys } else { 0 };
        self.require(tally.new_keys == new_keys, || {
            format!("{label}: {} new keys, tape adds {new_keys}", tally.new_keys)
        });
        self.require(tally.errors == 0, || {
            format!("{label}: {} ops failed ({} shed)", tally.errors, tally.shed)
        });
    }

    /// `stored_len == loaded + new keys`.
    pub fn stored(&mut self, label: &str, stored: usize, loaded: usize, new_keys: u64) {
        self.require(stored as u64 == loaded as u64 + new_keys, || {
            format!("{label}: stored {stored}, loaded {loaded} + {new_keys} new")
        });
    }

    /// Share of attempted ops that failed.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub fn scan_all(index: &(impl ConcurrentIndex<u64> + ?Sized)) -> Vec<(u64, Payload)> {
    let mut out = Vec::with_capacity(index.len());
    index.range(RangeSpec::new(0, usize::MAX), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gre_core::index::MutexIndex;
    use gre_workloads::driver::Driver;
    use gre_workloads::scenario::{KeyDist, Mix, Pacing, Phase, Scenario, Span};
    use std::collections::BTreeMap;

    fn counts() -> TapeCounts {
        TapeCounts {
            gets: 10,
            inserts: 5,
            updates: 3,
            new_keys: 4,
        }
    }

    fn clean_tally() -> Tally {
        Tally {
            ops: 18,
            hits: 10,
            new_keys: 4,
            updated: 3,
            ..Tally::default()
        }
    }

    #[test]
    fn a_clean_tally_passes() {
        let mut c = Checks::default();
        c.phase("t", &clean_tally(), &counts(), true);
        c.stored("t", 104, 100, 4);
        assert!(c.ok(), "{:?}", c.failures);
        assert_eq!(c.attempted, 18);
        assert_eq!(c.failed_frac(), 0.0);
    }

    #[test]
    fn every_corrupted_tally_field_is_caught() {
        let corruptions: [fn(&mut Tally); 5] = [
            |t| t.ops -= 1,
            |t| t.hits -= 1,
            |t| t.updated -= 1,
            |t| t.new_keys += 1,
            |t| t.errors += 1,
        ];
        for corrupt in corruptions {
            let mut t = clean_tally();
            corrupt(&mut t);
            let mut c = Checks::default();
            c.phase("t", &t, &counts(), true);
            assert!(!c.ok(), "corruption {t:?} went unnoticed");
        }
        let mut c = Checks::default();
        c.stored("t", 103, 100, 4);
        assert!(!c.ok());
    }

    #[test]
    fn a_driver_run_passes_and_a_lost_update_does_not() {
        let keys: Vec<u64> = (1..=2_000u64).map(|i| i * 8).collect();
        let ops = crate::workload::draw(
            &std::sync::Arc::new(keys.clone()),
            Mix::points(6, 2, 2, 0),
            KeyDist::Uniform,
            11,
            3_000,
        );
        let counts = TapeCounts::of(&ops, &keys);
        let scenario = Scenario::new("t", 1, &keys).phase(Phase {
            name: "p".into(),
            source: gre_workloads::scenario::OpSource::Replay(std::sync::Arc::new(ops)),
            span: Span::Ops(3_000),
            pacing: Pacing::ClosedLoop { threads: 2 },
        });
        let mut index = MutexIndex::new(gre_learned::Alex::<u64>::new(), "alex");
        let result = Driver::new().run(&scenario, &mut index);
        let mut c = Checks::default();
        c.phase("run", &result.phases[0].tally, &counts, true);
        c.stored(
            "run",
            ConcurrentIndex::len(&index),
            keys.len(),
            counts.new_keys,
        );
        assert!(c.ok(), "{:?}", c.failures);

        let mut lost = result.phases[0].tally;
        lost.updated -= 1;
        let mut c = Checks::default();
        c.phase("run", &lost, &counts, true);
        assert!(!c.ok());

        let model: BTreeMap<u64, u64> = scan_all(&index).into_iter().collect();
        assert_eq!(model.len(), ConcurrentIndex::len(&index));
    }
}
