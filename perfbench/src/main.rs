//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <lookup_10m|ingest|serve_hot> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` runs the workload end to end with tracing off and reports
//! the end-to-end metrics; `--trace 1` runs the per-layer probes, the layer
//! ladder and a traced serving run, and reports the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The line before it carries the run fingerprint. Both, plus the spans of
//! a traced run, are also written under `--out` (default `.perfbench_out`).
//! Any failed output check makes the run incorrect and the exit code 1.

mod checks;
mod e2e;
mod layers;
mod targets;
mod trace;
mod util;
mod workload;

use checks::Checks;
use std::path::PathBuf;
use std::time::Instant;
use util::{json_array, Fingerprint, JsonObject};

/// Spans of one name written to the trace file (self times use them all).
const SPANS_WRITTEN_PER_NAME: usize = 100_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".perfbench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::by_name(&args.workload) else {
        let names: Vec<&str> = workload::all().iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        std::process::exit(2);
    };
    let fp = Fingerprint::probe();
    // Thread budget: load comes from this one process, with no more
    // load-generating threads than there are cores.
    let load_threads = spec.clients.max(workload::OPEN_LOOP_SENDERS);
    if load_threads > fp.nproc {
        eprintln!(
            "perfbench: {} needs {load_threads} load-generating threads but nproc is {}",
            spec.name, fp.nproc
        );
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }

    let t_gen = Instant::now();
    let inputs = workload::Inputs::generate(&spec, args.seed);
    eprintln!(
        "[{}] seed {}: {} {} keys loaded; trial tape {} ops: {} (generated in {:.2}s)",
        spec.name,
        args.seed,
        inputs.loaded(),
        spec.dataset.name(),
        inputs.tape.len(),
        e2e::describe_counts(&inputs.counts),
        t_gen.elapsed().as_secs_f64()
    );

    let ticks_at_start = util::cpu_ticks();
    let mut checks = Checks::default();
    let run_dir = args
        .out
        .join(format!("run-{}-{}", spec.name, std::process::id()));
    let (metrics, index_bytes, details) = if args.trace {
        let l = layers::run(&spec, &inputs, args.seconds, &run_dir, &mut checks);
        let trace_file = args
            .out
            .join(format!("trace-{}-seed{}.jsonl", spec.name, args.seed));
        let (jsonl, written) = trace::spans_jsonl(&l.spans, SPANS_WRITTEN_PER_NAME);
        if let Err(e) = std::fs::write(&trace_file, jsonl) {
            checks.require(false, || {
                format!("cannot write {}: {e}", trace_file.display())
            });
        }
        let details = JsonObject::new()
            .raw("ladder", &l.ladder_json())
            .raw("self_time", &l.self_time_json())
            .str("spans_file", &trace_file.display().to_string())
            .int("spans", l.spans.len() as u64)
            .int("spans_written", written as u64);
        (l.metrics, l.index_bytes, details)
    } else {
        let e = e2e::run(&spec, &inputs, args.seconds, &mut checks);
        let samples: Vec<String> = e
            .metrics()
            .iter()
            .map(|(n, _, v)| {
                let values: Vec<String> = v.iter().map(|x| util::json_number(*x)).collect();
                JsonObject::new()
                    .str("metric", n)
                    .int("samples", v.len() as u64)
                    .raw("values", &json_array(&values))
                    .render()
            })
            .collect();
        let ungated = JsonObject::new()
            .num("latency_p99_us", util::median(&e.latency.p99))
            .num("open_loop_p50_us", util::median(&e.open_latency.p50))
            .num("open_loop_p90_us", util::median(&e.open_latency.p90))
            .num("open_loop_p99_us", util::median(&e.open_latency.p99))
            .int("open_loop_intervals", e.open_latency.p50.len() as u64);
        let details = JsonObject::new()
            .raw("samples", &json_array(&samples))
            .raw("ungated_medians", &ungated.render())
            .int("stored_keys", e.stored_keys);
        let metrics = e
            .metrics()
            .into_iter()
            .map(|(n, u, v)| (n.to_string(), u, util::median(v)))
            .collect();
        (metrics, e.index_bytes, details)
    };
    let _ = std::fs::remove_dir_all(&run_dir);

    // Context for reading the figures: CPU time the host gave to other
    // guests while this run measured.
    let host_steal_frac = util::steal_frac(ticks_at_start, util::cpu_ticks());
    eprintln!(
        "  host CPU steal during the run: {:.1}%",
        host_steal_frac * 100.0
    );
    for (name, unit, value) in &metrics {
        checks.require(value.is_finite(), || format!("metric {name} is not finite"));
        eprintln!("  {name:<36} {value:>14.4} {unit}");
    }
    for f in &checks.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    eprintln!(
        "  attempted {} failed {} (failed_frac {:.6})",
        checks.attempted,
        checks.failed,
        checks.failed_frac()
    );

    let fingerprint = fp
        .json()
        .str("workload", spec.name)
        .int("seed", args.seed)
        .bool("trace", args.trace)
        .str("dataset", &spec.dataset.name())
        .int("loaded_keys", inputs.loaded() as u64)
        .int("trial_ops", inputs.tape.len() as u64)
        .int("index_bytes", index_bytes)
        .int("clients", spec.clients as u64)
        .int("open_loop_senders", workload::OPEN_LOOP_SENDERS as u64)
        .num(
            "open_loop_rate_ops_s",
            spec.open_loop.map_or(0.0, |(rate, _)| rate),
        )
        .num("failed_frac", checks.failed_frac())
        .num("host_steal_frac", host_steal_frac)
        .raw("details", &details.render());
    let mut metric_obj = JsonObject::new();
    for (name, unit, value) in &metrics {
        metric_obj = metric_obj.raw(
            name,
            &JsonObject::new()
                .num("value", *value)
                .str("unit", unit)
                .render(),
        );
    }
    let result = JsonObject::new()
        .bool("correct", checks.ok())
        .int("attempted", checks.attempted.max(1))
        .int("failed", checks.failed)
        .raw("metrics", &metric_obj.render())
        .render();
    let fingerprint = JsonObject::new()
        .raw("fingerprint", &fingerprint.render())
        .render();
    let record = args.out.join(format!(
        "result-{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(&record, format!("{fingerprint}\n{result}\n"));
    println!("{fingerprint}");
    println!("{result}");
    if !checks.ok() {
        std::process::exit(1);
    }
}
