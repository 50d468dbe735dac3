//! Figure 3: time breakdown of insert operations (lookup vs remaining steps,
//! and the split of the remaining steps into insert/smo/stat/shift/chain).
//!
//! The fast phases are sampled on one insert in
//! `gre_core::stats::PHASE_SAMPLE_STRIDE`; heavy events (SMOs, LIPP subtree
//! rebuilds, long ALEX shifts) are timed on every occurrence. Exits non-zero if an ALEX or LIPP row reports
//! no time at all (B+tree and ART report no breakdown by design).
use gre_bench::{registry::single_thread_indexes, RunOpts};
use gre_datasets::Dataset;
use gre_workloads::{run_single, WorkloadBuilder, WriteRatio};

fn main() {
    let opts = RunOpts::from_env();
    let builder = WorkloadBuilder::new(opts.seed);
    println!("# Figure 3: insert time breakdown (write-only workload, ns per insert)");
    println!(
        "{:<10} {:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "dataset", "index", "lookup", "insert", "smo", "stat", "shift", "chain", "total"
    );
    let mut empty_rows = Vec::new();
    for ds in Dataset::DRILLDOWN_DATASETS {
        let keys = ds.generate(opts.keys, opts.seed);
        let workload = builder.insert_workload(&ds.name(), &keys, WriteRatio::WriteOnly);
        for entry in single_thread_indexes() {
            if !matches!(entry.name, "ALEX" | "LIPP" | "ART" | "B+tree") {
                continue;
            }
            let mut index = entry.index;
            run_single(index.as_mut(), &workload);
            let b = index.stats().mean_insert_breakdown();
            println!(
                "{:<10} {:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                ds.name(),
                entry.name,
                b.lookup_ns,
                b.insert_ns,
                b.smo_ns,
                b.stat_ns,
                b.shift_ns,
                b.chain_ns,
                b.total_ns()
            );
            if matches!(entry.name, "ALEX" | "LIPP") && b.total_ns() == 0 {
                empty_rows.push(format!("{} {}", ds.name(), entry.name));
            }
        }
    }
    if !empty_rows.is_empty() {
        eprintln!(
            "fig3_breakdown: no insert time recorded for {}",
            empty_rows.join(", ")
        );
        std::process::exit(1);
    }
}
