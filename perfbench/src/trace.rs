//! The benchmark's own span recorder.
//!
//! In a traced run the benchmark wraps each call into a layer in a span:
//! name, start, end, parent span and a request or phase id. Spans stay in
//! memory and are written out once, when the run ends. A layer's self
//! time is its span time minus the part of it that child spans cover.
//! With tracing off a span costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (`0` is "no span").
    pub id: u64,
    /// Enclosing span, `0` for a root.
    pub parent: u64,
    /// Layer call name.
    pub name: &'static str,
    /// Request id or phase id the span belongs to.
    pub tag: u64,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch for `t`.
pub fn ns_of(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    tag: u64,
    start: Option<Instant>,
}

impl Guard {
    /// This span's id, for children opened on other threads.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Opens a span whose parent is the innermost open span on this thread.
pub fn span(name: &'static str, tag: u64) -> Guard {
    let parent = if enabled() {
        OPEN.with(|o| o.borrow().last().copied().unwrap_or(0))
    } else {
        0
    };
    span_under(name, tag, parent)
}

/// Opens a span under an explicit parent (for work fanned out to other
/// threads).
pub fn span_under(name: &'static str, tag: u64, parent: u64) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: 0,
            name,
            tag,
            start: None,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|o| o.borrow_mut().push(id));
    Guard {
        id,
        parent,
        name,
        tag,
        start: Some(Instant::now()),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(pos) = o.iter().rposition(|&i| i == self.id) {
                o.remove(pos);
            }
        });
        record(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            tag: self.tag,
            start_ns: ns_of(start),
            end_ns: ns_of(end),
        });
    }
}

/// Records a span measured elsewhere (e.g. a request's life from its
/// intended send time to the receipt of its decision).
pub fn record_interval(name: &'static str, tag: u64, parent: u64, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    record(Span {
        id,
        parent,
        name,
        tag,
        start_ns,
        end_ns,
    });
}

fn record(span: Span) {
    // A poisoned lock only means another thread panicked mid-push; the
    // vector itself is still whole.
    SPANS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(span);
}

/// Takes every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total - covered.min(total);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

/// Writes `spans` as Chrome trace-event JSON (open in Perfetto).
pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{\"traceEvents\":[")?;
    for (n, s) in spans.iter().enumerate() {
        if n > 0 {
            write!(w, ",")?;
        }
        write!(
            w,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"tag\":{}}}}}",
            s.name,
            if s.parent == 0 { s.id } else { s.parent },
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.tag
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "outer",
                tag: 0,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                name: "inner",
                tag: 0,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: 1,
                name: "inner",
                tag: 1,
                start_ns: 30,
                end_ns: 50,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["outer"], (1, 100, 60));
        assert_eq!(t["inner"], (2, 50, 50));
    }
}
