//! Figure B (appendix): handling duplicate keys — inlining vs linked lists —
//! on a wiki-like dataset with duplicates, using ALEX+ as the base index.
//!
//! Inlining stores every occurrence in the index (duplicates become adjacent
//! slots keyed by a composite of the key and a per-duplicate sequence
//! number); the linked-list variant stores one index entry per distinct key
//! and chains the remaining payloads in an out-of-place overflow list.
use gre_bench::RunOpts;
use gre_core::ConcurrentIndex;
use gre_datasets::Dataset;
use gre_learned::alex_plus;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Instant;

fn main() {
    let opts = RunOpts::from_env();
    let keys = Dataset::Wiki.generate(opts.keys, opts.seed);
    println!(
        "# Figure B: duplicate handling on wiki ({} keys, duplicates included)",
        keys.len()
    );

    // Inline: composite key = (key << 8) | occurrence (wiki timestamps fit).
    let mut inline = alex_plus::<u64>();
    ConcurrentIndex::bulk_load(&mut inline, &[]);
    let start = Instant::now();
    let mut occurrence: HashMap<u64, u8> = HashMap::new();
    for &k in &keys {
        let occ = occurrence.entry(k).or_insert(0);
        inline.insert((k << 8) | *occ as u64, k);
        *occ = occ.wrapping_add(1);
    }
    let inline_insert = start.elapsed();
    let start = Instant::now();
    let mut hits = 0usize;
    for &k in keys.iter().step_by(3) {
        if inline.get(k << 8).is_some() {
            hits += 1;
        }
    }
    let inline_lookup = start.elapsed();

    // Linked list: one entry per distinct key + overflow chains.
    let mut ll = alex_plus::<u64>();
    ConcurrentIndex::bulk_load(&mut ll, &[]);
    let overflow: Mutex<HashMap<u64, Vec<u64>>> = Mutex::new(HashMap::new());
    let start = Instant::now();
    for &k in &keys {
        if !ll.insert(k, k) {
            overflow.lock().entry(k).or_default().push(k);
        }
    }
    let ll_insert = start.elapsed();
    let start = Instant::now();
    let mut ll_hits = 0usize;
    for &k in keys.iter().step_by(3) {
        if ll.get(k).is_some() {
            let guard = overflow.lock();
            ll_hits += 1 + guard.get(&k).map_or(0, Vec::len);
        }
    }
    let ll_lookup = start.elapsed();

    let mops = |n: usize, d: std::time::Duration| n as f64 / d.as_secs_f64() / 1e6;
    println!(
        "{:<22} {:>16} {:>16}",
        "variant", "insert Mop/s", "lookup Mop/s"
    );
    println!(
        "{:<22} {:>16.3} {:>16.3}",
        "ALEX+ (inline)",
        mops(keys.len(), inline_insert),
        mops(keys.len() / 3, inline_lookup)
    );
    println!(
        "{:<22} {:>16.3} {:>16.3}",
        "ALEX+-LL (linked list)",
        mops(keys.len(), ll_insert),
        mops(keys.len() / 3, ll_lookup)
    );
    let _ = (hits, ll_hits);
}
