//! In-memory span recorder for the traced run.
//!
//! A span has a name (`layer.call`), a start, an end, the span that was
//! open on the same thread when it began (its parent), the thread it ran
//! on (its lane) and the unit or request id it worked for. Spans are
//! kept in memory and summarised when the pass ends. With tracing off,
//! [`span`] costs one atomic load and calls through, so the untraced
//! run executes the same code.
//!
//! Self time of a span is its duration minus the time its child spans
//! cover. Every lane starts with one root span (`bench.pass` on the
//! harness thread); the root's self time is the `other` remainder, so
//! per-name self times plus `other` add up to the traced wall time of
//! all lanes exactly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `core.lift_all`.
    pub name: &'static str,
    /// Unit or request id the span worked for.
    pub id: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Recording thread.
    pub lane: u32,
    /// Start and end, relative to [`origin`].
    pub start_ns: u64,
    /// End time; equal to `start_ns` until the span closes.
    pub end_ns: u64,
}

fn origin() -> Instant {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    origin();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` for unit or request `id`.
pub fn span<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let lane = LANE.with(|l| *l);
    let parent = OPEN.with(|o| o.borrow().last().copied());
    let index = {
        let mut spans = SPANS.lock().expect("span log poisoned");
        let start_ns = now_ns();
        spans.push(Span {
            name,
            id,
            parent,
            lane,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push(index));
    let out = f();
    OPEN.with(|o| o.borrow_mut().pop());
    let end_ns = now_ns();
    SPANS.lock().expect("span log poisoned")[index].end_ns = end_ns;
    out
}

/// Per-name self time and the accounting totals of one traced pass.
#[derive(Debug, Default)]
pub struct Accounting {
    /// Self time per span name, in milliseconds.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Self time of the lane roots: time no layer span covers.
    pub other_ms: f64,
    /// Summed duration of all lane roots.
    pub wall_ms: f64,
    /// Threads that recorded spans.
    pub lanes: usize,
}

/// Summarises every span recorded so far. Root spans (no parent) are
/// the lanes' `bench.*` envelopes; their self time is `other`.
pub fn account() -> Accounting {
    let spans = SPANS.lock().expect("span log poisoned").clone();
    let mut child_ns = vec![0u64; spans.len()];
    for s in &spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut acc = Accounting::default();
    let mut lanes = std::collections::BTreeSet::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let self_ms = dur.saturating_sub(child_ns[i]) as f64 / 1e6;
        if s.parent.is_none() {
            acc.wall_ms += dur as f64 / 1e6;
            acc.other_ms += self_ms;
            lanes.insert(s.lane);
        } else {
            *acc.self_ms.entry(s.name).or_default() += self_ms;
        }
    }
    acc.lanes = lanes.len();
    acc
}

/// Writes every recorded span as tab-separated
/// `lane id parent name start_ns end_ns` lines.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let spans = SPANS.lock().expect("span log poisoned").clone();
    let mut out = String::from("lane\tid\tparent\tname\tstart_ns\tend_ns\n");
    for s in &spans {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = writeln!(
            out,
            "{}\t{}\t{parent}\t{}\t{}\t{}",
            s.lane, s.id, s.name, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_other_sum_to_wall() {
        enable();
        span("bench.pass", 0, || {
            span("core.lift_all", 1, || {
                span("store.lookup", 1, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let acc = account();
        let covered: f64 = acc.self_ms.values().sum::<f64>() + acc.other_ms;
        assert!(
            (covered - acc.wall_ms).abs() < 1e-6,
            "{covered} vs {}",
            acc.wall_ms
        );
        assert!(acc.self_ms["store.lookup"] >= 2.0);
        assert!(acc.self_ms["core.lift_all"] >= 2.0);
        assert!(acc.other_ms >= 1.0);
        assert_eq!(acc.lanes, 1);
    }
}
