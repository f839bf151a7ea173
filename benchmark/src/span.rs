//! Benchmark-side spans around the public calls the harness makes.
//!
//! A [`Tracer`] is either off (every call is one `Option` check) or
//! collects [`Span`]s in memory: name, start, end, the span that caused it
//! (`parent`, 0 for roots) and the id of the op it belongs to. Spans are
//! written out once, at exit, as Chrome-trace JSON ([`chrome_json`]), and
//! summarised per name as total and *self* time ([`self_times`]): a span's
//! duration minus the part of it its child spans cover. Spans *inside* the
//! crates are a later change; these are recorded from the benchmark's own
//! files only.

use jsonlite::Json;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span. Times are microseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    pub name: String,
    /// The op this span belongs to (0 for set-up work).
    pub op: u64,
    /// Small per-thread integer (Chrome-trace track).
    pub tid: u64,
    pub start_us: f64,
    pub end_us: f64,
}

struct Inner {
    epoch: Instant,
    // Relaxed: ids only need to be unique, they publish no other data.
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A cloneable handle; clones share one span buffer.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Inner>>);

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_track() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// A recording tracer whose epoch is now.
    pub fn on() -> Tracer {
        Tracer(Some(Arc::new(Inner {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// Opens a span; it closes (and is recorded) when the guard drops.
    pub fn span(&self, name: &'static str, parent: u64, op: u64) -> SpanGuard {
        match &self.0 {
            None => SpanGuard {
                inner: None,
                id: 0,
                parent,
                name,
                op,
                start: None,
            },
            Some(inner) => SpanGuard {
                id: inner.next_id.fetch_add(1, Ordering::Relaxed),
                inner: Some(Arc::clone(inner)),
                parent,
                name,
                op,
                start: Some(Instant::now()),
            },
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn in_span<R>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce() -> R) -> R {
        let _g = self.span(name, parent, op);
        f()
    }

    /// Drains every span recorded so far, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let Some(inner) = &self.0 else {
            return Vec::new();
        };
        let mut spans = std::mem::take(
            &mut *inner
                .spans
                .lock()
                .expect("a thread panicked while recording a span"),
        );
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        spans
    }
}

/// An open span (see [`Tracer::span`]).
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    id: u64,
    parent: u64,
    name: &'static str,
    op: u64,
    start: Option<Instant>,
}

impl SpanGuard {
    /// This span's id, to pass as `parent` of its children (0 when off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(inner), Some(start)) = (&self.inner, self.start) else {
            return;
        };
        let end = Instant::now();
        let us = |t: Instant| t.duration_since(inner.epoch).as_secs_f64() * 1e6;
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name.to_owned(),
            op: self.op,
            tid: thread_track(),
            start_us: us(start),
            end_us: us(end),
        };
        // Drop must not panic: a poisoned buffer loses this span only.
        if let Ok(mut spans) = inner.spans.lock() {
            spans.push(span);
        }
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    /// Σ durations, µs.
    pub total_us: f64,
    /// Σ (duration − part covered by child spans), µs.
    pub self_us: f64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (children running concurrently on several rank threads are
/// counted once), aggregated by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_us - s.start_us;
        let cov = children
            .get_mut(&s.id)
            .map_or(0.0, |c| covered(c, s.start_us, s.end_us));
        let e = out.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total_us += dur;
        e.self_us += dur - cov;
    }
    out
}

/// Chrome-trace JSON (open in Perfetto or `chrome://tracing`): one complete
/// (`"ph":"X"`) event per span, `args` carrying id, parent and op.
pub fn chrome_json(spans: &[Span], workload: &str) -> Json {
    let events: Vec<Json> = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.clone())),
                ("cat", Json::Str("benchmark".to_owned())),
                ("ph", Json::Str("X".to_owned())),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.end_us - s.start_us)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.tid as f64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        ("parent", Json::Num(s.parent as f64)),
                        ("op", Json::Num(s.op as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_owned())),
        (
            "otherData",
            Json::obj([
                ("producer", Json::Str("benchmark".to_owned())),
                ("workload", Json::Str(workload.to_owned())),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: name.to_owned(),
            op: 1,
            tid: 1,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "op", 0.0, 100.0),
            // two overlapping children on different threads: union 10..60
            span(2, 1, "rank", 10.0, 50.0),
            span(3, 1, "rank", 20.0, 60.0),
            // a grandchild only reduces its own parent
            span(4, 2, "gemm", 15.0, 25.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"].count, 1);
        assert!((st["op"].total_us - 100.0).abs() < 1e-9);
        assert!((st["op"].self_us - 50.0).abs() < 1e-9);
        assert_eq!(st["rank"].count, 2);
        assert!((st["rank"].total_us - 80.0).abs() < 1e-9);
        // span 2: 40 − 10 covered; span 3: 40, no children
        assert!((st["rank"].self_us - 70.0).abs() < 1e-9);
        assert!((st["gemm"].self_us - 10.0).abs() < 1e-9);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![
            span(1, 0, "op", 10.0, 20.0),
            span(2, 1, "late", 15.0, 40.0),
            span(3, 1, "early", 0.0, 12.0),
        ];
        let st = self_times(&spans);
        // covered: 10..12 and 15..20 → 7 of 10
        assert!((st["op"].self_us - 3.0).abs() < 1e-9);
    }

    #[test]
    fn off_tracer_records_nothing_and_on_tracer_links_parents() {
        let off = Tracer::off();
        {
            let g = off.span("x", 0, 0);
            assert_eq!(g.id(), 0);
        }
        assert!(off.take().is_empty());

        let on = Tracer::on();
        {
            let root = on.span("root", 0, 7);
            let rid = root.id();
            on.in_span("child", rid, 7, || std::hint::black_box(1 + 1));
        }
        let spans = on.take();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(child.op, 7);
        assert!(root.start_us <= child.start_us && child.end_us <= root.end_us);
        let doc = chrome_json(&spans, "w");
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }
}
