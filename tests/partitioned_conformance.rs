//! One conformance suite for every concurrent index built on
//! `gre_core::Partitioned`: ALEX+, LIPP+ and the five traditional OLC/ROWEX
//! stand-ins. Each check runs against a `BTreeMap` model; the table at the
//! bottom instantiates every check for every constructor, so a failure
//! names both.

use gre::learned::{alex_plus, lipp_plus};
use gre::traditional::{art_olc, btree_olc, hot_rowex, masstree_concurrent, wormhole_concurrent};
use gre_core::{ConcurrentIndex, Payload, RangeSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Bulk-loaded keys are the multiples of 10 below `10 * N`.
const N: u64 = 20_000;

fn entries() -> Vec<(u64, Payload)> {
    (0..N).map(|i| (i * 10, i)).collect()
}

fn loaded<I: ConcurrentIndex<u64>>(mut idx: I) -> (I, BTreeMap<u64, Payload>) {
    idx.bulk_load(&entries());
    (idx, entries().into_iter().collect())
}

fn scan_all(idx: &impl ConcurrentIndex<u64>) -> Vec<(u64, Payload)> {
    let mut out = Vec::new();
    idx.range(RangeSpec::new(0, usize::MAX), &mut out);
    out
}

fn bulk_load_and_point_ops(idx: impl ConcurrentIndex<u64>, name: &str) {
    let (idx, mut model) = loaded(idx);
    assert_eq!(idx.meta().name, name);
    assert!(idx.meta().concurrent);
    assert_eq!(idx.len(), model.len());
    let deletes = idx.meta().supports_delete;
    let mut rng = StdRng::seed_from_u64(7);
    for op in 0..8_000u64 {
        // About 40% of these multiples of 5 hit the bulk load; the rest are
        // fresh or past its end.
        let key = rng.gen_range(0..N * 12) / 5 * 5;
        match op % 4 {
            0 => assert_eq!(idx.insert(key, op), model.insert(key, op).is_none()),
            1 => {
                let present = model.contains_key(&key);
                if present {
                    model.insert(key, op);
                }
                assert_eq!(idx.update(key, op), present);
            }
            2 if deletes => assert_eq!(idx.remove(key), model.remove(&key)),
            _ => assert_eq!(idx.get(key), model.get(&key).copied()),
        }
    }
    assert_eq!(idx.len(), model.len());
    assert_eq!(scan_all(&idx), model.into_iter().collect::<Vec<_>>());
}

fn get_batch_matches_scalar(idx: impl ConcurrentIndex<u64>) {
    let (idx, model) = loaded(idx);
    // Keys across every partition, out of order, with misses, a duplicate
    // and a length that is not a multiple of the ALEX batch width.
    let mut keys: Vec<u64> = (0..777u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9) % (N + N / 10)) * 10 + (i % 2))
        .collect();
    keys.push(keys[3]);
    let mut batched = vec![Some(123)]; // stale content must be cleared
    idx.get_batch(&keys, &mut batched);
    let scalar: Vec<_> = keys.iter().map(|&k| idx.get(k)).collect();
    assert_eq!(batched, scalar);
    let expected: Vec<_> = keys.iter().map(|k| model.get(k).copied()).collect();
    assert_eq!(batched, expected);
    assert!(batched.iter().any(Option::is_some) && batched.iter().any(Option::is_none));
    // A batch inside one partition, and an empty batch.
    idx.get_batch(&[20, 25, 10], &mut batched);
    assert_eq!(batched, vec![Some(2), None, Some(1)]);
    idx.get_batch(&[], &mut batched);
    assert!(batched.is_empty());
}

fn range_crosses_partitions(idx: impl ConcurrentIndex<u64>) {
    let (idx, model) = loaded(idx);
    let mut out = Vec::new();
    assert_eq!(idx.range(RangeSpec::new(5, 5_000), &mut out), 5_000);
    let expected: Vec<_> = model
        .range(5..)
        .take(5_000)
        .map(|(&k, &v)| (k, v))
        .collect();
    assert_eq!(out, expected);
    // A scan running off the end returns what is there.
    out.clear();
    assert_eq!(idx.range(RangeSpec::new((N - 10) * 10, 100), &mut out), 10);
}

fn extract_absorb_round_trip(idx: impl ConcurrentIndex<u64>) {
    let (idx, _) = loaded(idx);
    let all = entries();
    for (lo, hi) in [(3_005, Some(90_000)), (150_000, None)] {
        let mut moved = Vec::new();
        let got = idx.extract_range(lo, hi, &mut moved);
        let window: Vec<_> = all
            .iter()
            .copied()
            .filter(|&(k, _)| k >= lo && hi.map_or(true, |h| k < h))
            .collect();
        assert_eq!(moved, window);
        assert_eq!(got, window.len());
        assert_eq!(idx.len(), all.len() - got);
        assert_eq!(idx.get(window[0].0), None);
        assert_eq!(idx.get(3_000), Some(300));
        idx.absorb_range(&moved);
        assert_eq!(scan_all(&idx), all);
    }
}

fn concurrent_inserts_lose_no_keys(idx: impl ConcurrentIndex<u64>) {
    let (idx, _) = loaded(idx);
    std::thread::scope(|s| {
        for t in 1..=4u64 {
            let idx = &idx;
            // Fresh keys spread over every partition and past the last.
            s.spawn(move || {
                for i in 0..2_500u64 {
                    assert!(idx.insert(i * 50 + t, i));
                }
            });
        }
    });
    assert_eq!(idx.len() as u64, N + 4 * 2_500);
    for t in 1..=4u64 {
        for i in (0..2_500u64).step_by(7) {
            assert_eq!(idx.get(i * 50 + t), Some(i));
        }
    }
}

fn stats_count_inserts(idx: impl ConcurrentIndex<u64>) {
    let (idx, _) = loaded(idx);
    for i in 0..1_000u64 {
        idx.insert(i * 170 + 3, i);
    }
    assert_eq!(idx.stats().counters.inserts, 1_000);
    idx.reset_stats();
    assert_eq!(idx.stats().counters.inserts, 0);
}

macro_rules! conformance {
    ($($ctor:ident: $name:literal,)*) => {$(
        mod $ctor {
            fn fresh() -> impl gre_core::ConcurrentIndex<u64> {
                super::$ctor::<u64>()
            }
            #[test]
            fn bulk_load_and_point_ops() {
                super::bulk_load_and_point_ops(fresh(), $name);
            }
            #[test]
            fn get_batch_matches_scalar() {
                super::get_batch_matches_scalar(fresh());
            }
            #[test]
            fn range_crosses_partitions() {
                super::range_crosses_partitions(fresh());
            }
            #[test]
            fn extract_absorb_round_trip() {
                super::extract_absorb_round_trip(fresh());
            }
            #[test]
            fn concurrent_inserts_lose_no_keys() {
                super::concurrent_inserts_lose_no_keys(fresh());
            }
            #[test]
            fn stats_count_inserts() {
                super::stats_count_inserts(fresh());
            }
        }
    )*};
}

conformance! {
    alex_plus: "ALEX+",
    lipp_plus: "LIPP+",
    btree_olc: "B+treeOLC",
    art_olc: "ART-OLC",
    hot_rowex: "HOT-ROWEX",
    masstree_concurrent: "Masstree",
    wormhole_concurrent: "Wormhole",
}
