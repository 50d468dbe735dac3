//! In-memory span recording for the traced run.
//!
//! Spans are recorded around the calls the benchmark makes into each layer
//! (connection submit/flush, pipeline submit/wait, session submit/recv,
//! backend calls through a timing decorator, WAL group commits). Each
//! thread buffers its spans locally; a thread's buffer moves to the global
//! sink when the thread exits or calls [`flush_thread`]. Recording is off
//! unless [`set_enabled`] turned it on, so untraced runs pay one relaxed
//! load per boundary.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are ns since the process-wide trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request or batch id the span belongs to (0 when not applicable).
    pub req: u64,
    /// Small per-process thread tag (worker threads included).
    pub thread: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Local {
    thread: u64,
    /// Next span number on this thread; ids are `thread << 40 | number`,
    /// so recording touches no shared counter.
    next: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Drop for Local {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            if let Ok(mut sink) = SINK.lock() {
                sink.append(&mut self.spans);
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        next: 1,
        stack: Vec::new(),
        spans: Vec::new(),
    });
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

#[inline]
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` inside a span named `name`. Nested spans on the same thread
/// record this one as their parent.
#[inline]
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let (id, parent) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let id = (l.thread << 40) | l.next;
        l.next += 1;
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        (id, parent)
    });
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let e = epoch();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.pop();
        let thread = l.thread;
        l.spans.push(Span {
            id,
            parent,
            name,
            start_ns: start.saturating_duration_since(e).as_nanos() as u64,
            end_ns: end.saturating_duration_since(e).as_nanos() as u64,
            req,
            thread,
        });
    });
    out
}

/// Move this thread's buffered spans to the global sink.
pub fn flush_thread() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let mut spans = std::mem::take(&mut l.spans);
        SINK.lock().expect("trace sink").append(&mut spans);
    });
}

/// Take every span flushed so far (flushing the calling thread first).
pub fn take_all() -> Vec<Span> {
    flush_thread();
    std::mem::take(&mut *SINK.lock().expect("trace sink"))
}

/// Per span name: count, total duration and self time (ns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time is its duration minus the part of its interval that
/// its children cover. Children may overlap each other (e.g. when they ran
/// on several threads), so the covered part is the length of the union of
/// their intervals, clipped to the parent's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_len(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// One JSON object per line, one line per span, keeping at most
/// `per_name` spans of each name (in recorded order). Returns the text and
/// the number of spans written.
pub fn spans_jsonl(spans: &[Span], per_name: usize) -> (String, usize) {
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    let mut out = String::new();
    let mut written = 0;
    for s in spans {
        let n = seen.entry(s.name).or_default();
        if *n >= per_name {
            continue;
        }
        *n += 1;
        written += 1;
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"req\": {}, \"thread\": {}}}\n",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req, s.thread
        ));
    }
    (out, written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            req: 0,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40), and [90, 120) sticks out past the parent's end.
        let spans = [
            sp(1, 0, "parent", 0, 100),
            sp(2, 1, "child", 10, 40),
            sp(3, 1, "child", 30, 60),
            sp(4, 1, "child", 90, 120),
        ];
        let t = self_times(&spans);
        // Covered: [10, 60) + [90, 100) = 60 ns.
        assert_eq!(t["parent"].self_ns, 40);
        assert_eq!(t["parent"].total_ns, 100);
        assert_eq!(t["child"].count, 3);
        assert_eq!(t["child"].self_ns, 30 + 30 + 30);
    }

    #[test]
    fn self_time_of_nested_chain() {
        let spans = [
            sp(1, 0, "a", 0, 50),
            sp(2, 1, "b", 5, 45),
            sp(3, 2, "c", 10, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t["a"].self_ns, 10);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].self_ns, 10);
    }

    #[test]
    fn written_spans_are_capped_per_name() {
        let spans = [
            sp(1, 0, "a", 0, 5),
            sp(2, 0, "a", 5, 9),
            sp(3, 0, "b", 0, 1),
        ];
        let (text, written) = spans_jsonl(&spans, 1);
        assert_eq!(written, 2);
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with(r#"{"id": 1, "parent": 0, "name": "a""#));
    }

    #[test]
    fn recorded_spans_nest_on_one_thread() {
        set_enabled(true);
        span("outer", 7, || span("inner", 7, || ()));
        set_enabled(false);
        let spans: Vec<Span> = take_all().into_iter().filter(|s| s.req == 7).collect();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
