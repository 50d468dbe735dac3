//! Small helpers: order statistics, a minimal JSON writer, the run
//! fingerprint and a trial loop bounded by wall-clock time.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Quantile of raw nanosecond samples (nearest rank, no copy when sorted).
pub fn sorted_quantile_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Run `trial` at least `min` and at most `max` times, stopping once
/// `budget` has elapsed since the first call. Returns every trial's result.
pub fn repeat_for<T>(
    budget: Duration,
    min: usize,
    max: usize,
    mut trial: impl FnMut(usize) -> T,
) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < max.max(min) && (out.len() < min || start.elapsed() < budget) {
        out.push(trial(out.len()));
    }
    out
}

/// A flat JSON object built field by field, in insertion order.
#[derive(Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&json_string(key));
        self.body.push_str(": ");
    }

    pub fn str(mut self, key: &str, value: &str) -> JsonObject {
        self.key(key);
        self.body.push_str(&json_string(value));
        self
    }

    pub fn num(mut self, key: &str, value: f64) -> JsonObject {
        self.key(key);
        self.body.push_str(&json_number(value));
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> JsonObject {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    pub fn bool(mut self, key: &str, value: bool) -> JsonObject {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    /// Insert pre-rendered JSON (an object or array) under `key`.
    pub fn raw(mut self, key: &str, json: &str) -> JsonObject {
        self.key(key);
        self.body.push_str(json);
        self
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A JSON array of pre-rendered values.
pub fn json_array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with all its digits; non-finite values render as null.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The machine and build a result was produced on.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2_bytes: u64,
    pub l3_bytes: u64,
    pub rustc: String,
    pub commit: String,
}

impl Fingerprint {
    /// Read the host description. `rustc` and `commit` come from the
    /// launcher's environment (`PERFBENCH_RUSTC`, `PERFBENCH_COMMIT`).
    pub fn probe() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
            rustc: std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
            commit: std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        }
    }

    pub fn json(&self) -> JsonObject {
        JsonObject::new()
            .int("nproc", self.nproc as u64)
            .str("cpu_model", &self.cpu_model)
            .int("l2_bytes", self.l2_bytes)
            .int("l3_bytes", self.l3_bytes)
            .str("rustc", &self.rustc)
            .str("commit", &self.commit)
    }
}

/// Host-wide CPU time counters from `/proc/stat`: (stolen, total) in
/// clock ticks. Steal is time the hypervisor gave to other guests.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_frac(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of cpu0's unified or data cache at `level`, 0 when unknown.
fn cache_bytes(level: u32) -> u64 {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for i in 0..8 {
        let dir = format!("{base}/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).unwrap_or_default();
        if read("level").trim() != level.to_string() || read("type").trim() == "Instruction" {
            continue;
        }
        let size = read("size");
        let size = size.trim();
        let (digits, mult) = match size.strip_suffix('K') {
            Some(d) => (d, 1024),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1024 * 1024),
                None => (size, 1),
            },
        };
        if let Ok(n) = digits.parse::<u64>() {
            return n * mult;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(sorted_quantile_ns(&[1, 2, 3, 4], 0.5), 2.0);
        assert_eq!(sorted_quantile_ns(&[1, 2, 3, 4], 0.99), 4.0);
    }

    #[test]
    fn json_escapes_and_numbers() {
        let o = JsonObject::new()
            .str("a\"b", "x\ny")
            .num("n", 1.5)
            .num("bad", f64::NAN)
            .int("i", 7)
            .bool("t", true);
        assert_eq!(
            o.render(),
            r#"{"a\"b": "x\ny", "n": 1.5, "bad": null, "i": 7, "t": true}"#
        );
    }

    #[test]
    fn repeat_for_respects_min_and_max() {
        let n = repeat_for(Duration::ZERO, 3, 10, |i| i).len();
        assert_eq!(n, 3);
        let n = repeat_for(Duration::from_secs(60), 1, 4, |i| i).len();
        assert_eq!(n, 4);
    }
}
