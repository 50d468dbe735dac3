//! A concurrent key-value store built on ALEX+, exercised by several writer
//! and reader threads (the §4.2 scenario).
//!
//! Run with `cargo run --release --example concurrent_store`.

use gre::learned::{alex_plus, lipp_plus};
use gre_core::ConcurrentIndex;
use std::sync::Arc;

fn main() {
    let entries: Vec<(u64, u64)> = (0..500_000u64).map(|i| (i * 2, i)).collect();
    let mut alex = alex_plus::<u64>();
    ConcurrentIndex::bulk_load(&mut alex, &entries);
    let index = Arc::new(alex);

    let threads = 4;
    let start = std::time::Instant::now();
    mixed_ops_scoped(&index, threads);
    let elapsed = start.elapsed();
    println!(
        "ALEX+: {} keys after {} threads × 100k mixed ops each in {:.2}s ({:.2} Mop/s)",
        index.len(),
        threads,
        elapsed.as_secs_f64(),
        (threads * 100_000) as f64 / elapsed.as_secs_f64() / 1e6
    );

    // LIPP+ for comparison: correct, but its shared statistics serialize writers.
    let mut lipp = lipp_plus::<u64>();
    ConcurrentIndex::bulk_load(&mut lipp, &entries);
    let lipp = Arc::new(lipp);
    let start = std::time::Instant::now();
    mixed_ops_scoped(&lipp, threads);
    println!(
        "LIPP+: same workload in {:.2}s (per-node statistics updates: {})",
        start.elapsed().as_secs_f64(),
        lipp.stat_updates()
    );
}

fn mixed_ops_scoped<I: ConcurrentIndex<u64>>(index: &Arc<I>, threads: u64) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let index = Arc::clone(index);
            s.spawn(move || {
                for i in 0..100_000u64 {
                    let key = 10_000_000 + t * 10_000_000 + i;
                    if i % 2 == 0 {
                        index.insert(key, i);
                    } else {
                        index.get((i * 2) % 1_000_000);
                    }
                }
            });
        }
    });
}
