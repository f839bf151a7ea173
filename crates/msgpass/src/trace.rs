//! Structured event tracing: per-rank span streams, the assembled
//! [`Timeline`], and the Chrome-trace exporter.
//!
//! Every rank records begin/end events for its phases (labelled with
//! [`crate::RankCtx::set_phase`]), every collective (with its algorithm
//! name and payload size), and every point-to-point send/recv — into a
//! plain per-thread `Vec`, so recording is append-only and lock-free during
//! the run. When tracing is disabled (the default for [`crate::World::run`])
//! every hook reduces to a single branch on a `bool`, which is what makes
//! the runtime's zero-overhead-when-off guarantee hold.
//!
//! Timestamps are seconds since [`dense::prof::epoch`], the kernel
//! profiler's clock, so a profiled run's kernel spans land on the same
//! axis without rebasing.
//!
//! After the ranks join, [`crate::World::run_traced`] assembles the streams
//! into a [`Timeline`]: properly nested [`Span`]s per rank, exportable with
//! the kernel spans as Chrome-trace JSON ([`RunReport::to_chrome_json`],
//! open in Perfetto / `chrome://tracing`). Its
//! [`Timeline::phase_comm_secs`] is the communication share of the
//! critical path [`crate::RunReport::summary`] computes — the measured
//! counterpart of the paper's Fig. 5 per-phase breakdown.

use crate::RunReport;
use dense::prof::KernelProfile;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// What a span represents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A `set_phase` region (depth 0): "redist", "replicate_ab", ….
    Phase(String),
    /// One point-to-point send; `peer` is the destination world rank.
    Send {
        /// Destination world rank.
        peer: usize,
    },
    /// One point-to-point receive (the span covers any blocking wait);
    /// `peer` is the source world rank.
    Recv {
        /// Source world rank.
        peer: usize,
    },
    /// The completion wait of a nonblocking receive
    /// (`RecvReq::wait`); `peer` is the source world rank. Unlike
    /// [`SpanKind::Recv`], the span covers only the *residual* blocking
    /// after whatever compute overlapped the transfer — the exposed
    /// communication the §III-F pipeline failed to hide.
    Wait {
        /// Source world rank.
        peer: usize,
    },
    /// A collective operation, named after its algorithm
    /// ("ring_allgatherv", "rabenseifner_allreduce", …).
    Collective(&'static str),
}

impl SpanKind {
    /// Display name for trace viewers.
    pub fn label(&self) -> String {
        match self {
            SpanKind::Phase(name) => name.clone(),
            SpanKind::Send { peer } => format!("send→{peer}"),
            SpanKind::Recv { peer } => format!("recv←{peer}"),
            SpanKind::Wait { peer } => format!("wait←{peer}"),
            SpanKind::Collective(algo) => (*algo).to_owned(),
        }
    }

    /// Chrome-trace category.
    pub fn category(&self) -> &'static str {
        match self {
            SpanKind::Phase(_) => "phase",
            SpanKind::Send { .. } | SpanKind::Recv { .. } | SpanKind::Wait { .. } => "p2p",
            SpanKind::Collective(_) => "collective",
        }
    }

    /// True for communication spans (anything but a phase region).
    pub fn is_comm(&self) -> bool {
        !matches!(self, SpanKind::Phase(_))
    }
}

/// One raw begin/end event as recorded by a rank.
#[derive(Clone, Debug)]
pub(crate) enum RawEvent {
    Begin { t: f64, kind: SpanKind, bytes: u64 },
    End { t: f64, bytes: u64 },
}

/// A completed span on one rank's timeline.
#[derive(Clone, Debug)]
pub struct Span {
    /// What this span is.
    pub kind: SpanKind,
    /// Start, seconds since [`dense::prof::epoch`].
    pub t0: f64,
    /// End, seconds since [`dense::prof::epoch`].
    pub t1: f64,
    /// Payload bytes attributed to the span (0 for phases).
    pub bytes: u64,
    /// Nesting depth: phases are 0, collectives and bare p2p 1, p2p inside
    /// a collective 2.
    pub depth: usize,
}

impl Span {
    /// Span duration in seconds.
    pub fn secs(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// The per-rank recorder embedded in `RankCtx`. Only the owning thread
/// touches it; the `RefCell` is never contended.
pub(crate) struct Recorder {
    enabled: bool,
    events: RefCell<Vec<RawEvent>>,
}

impl Recorder {
    pub(crate) fn new(enabled: bool) -> Recorder {
        if enabled {
            let _ = dense::prof::epoch(); // pin t = 0 before any stamp is taken
        }
        Recorder {
            enabled,
            events: RefCell::new(Vec::new()),
        }
    }

    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    fn stamp(&self, at: Instant) -> f64 {
        at.duration_since(dense::prof::epoch()).as_secs_f64()
    }

    /// Opens a span now. No-op when tracing is off.
    #[inline]
    pub(crate) fn begin(&self, kind: SpanKind, bytes: u64) {
        if self.enabled {
            self.begin_at(Instant::now(), kind, bytes);
        }
    }

    /// Closes the innermost open span now. No-op when tracing is off.
    #[inline]
    pub(crate) fn end(&self, bytes: u64) {
        if self.enabled {
            self.end_at(Instant::now(), bytes);
        }
    }

    /// Opens a span at an externally taken timestamp (used by `set_phase`
    /// so the phase span boundaries coincide exactly with the per-phase
    /// wall-time accounting).
    pub(crate) fn begin_at(&self, at: Instant, kind: SpanKind, bytes: u64) {
        if self.enabled {
            let t = self.stamp(at);
            self.events
                .borrow_mut()
                .push(RawEvent::Begin { t, kind, bytes });
        }
    }

    /// Closes the innermost open span at an externally taken timestamp.
    pub(crate) fn end_at(&self, at: Instant, bytes: u64) {
        if self.enabled {
            let t = self.stamp(at);
            self.events.borrow_mut().push(RawEvent::End { t, bytes });
        }
    }

    /// Takes the recorded stream (called once, after the rank's closure
    /// returns).
    pub(crate) fn take(&self) -> Vec<RawEvent> {
        self.events.take()
    }
}

/// The merged per-rank event timeline of one traced run.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// `per_rank[r]` holds rank `r`'s completed spans in begin order.
    per_rank: Vec<Vec<Span>>,
}

impl Timeline {
    /// Assembles per-rank raw streams into nested spans. Unclosed spans
    /// (possible only if a rank panicked) are closed at the stream's last
    /// timestamp.
    pub(crate) fn from_raw(streams: Vec<Vec<RawEvent>>) -> Timeline {
        let per_rank = streams
            .into_iter()
            .map(|events| {
                let last_t = events
                    .iter()
                    .map(|e| match e {
                        RawEvent::Begin { t, .. } | RawEvent::End { t, .. } => *t,
                    })
                    .fold(0.0, f64::max);
                let mut spans: Vec<Span> = Vec::new();
                let mut stack: Vec<usize> = Vec::new();
                for ev in events {
                    match ev {
                        RawEvent::Begin { t, kind, bytes } => {
                            let depth = stack.len();
                            stack.push(spans.len());
                            spans.push(Span {
                                kind,
                                t0: t,
                                t1: f64::NAN,
                                bytes,
                                depth,
                            });
                        }
                        RawEvent::End { t, bytes } => {
                            let idx = stack
                                .pop()
                                .expect("trace end event without a matching begin");
                            spans[idx].t1 = t;
                            spans[idx].bytes += bytes;
                        }
                    }
                }
                for idx in stack {
                    spans[idx].t1 = last_t;
                }
                spans
            })
            .collect();
        Timeline { per_rank }
    }

    /// An empty timeline for `p` ranks (what an untraced run reports).
    pub(crate) fn empty(p: usize) -> Timeline {
        Timeline {
            per_rank: vec![Vec::new(); p],
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.per_rank.len()
    }

    /// Rank `r`'s spans in begin order.
    pub fn spans(&self, rank: usize) -> &[Span] {
        &self.per_rank[rank]
    }

    /// Total span count across all ranks.
    pub fn span_count(&self) -> usize {
        self.per_rank.iter().map(Vec::len).sum()
    }

    /// True when no rank recorded anything (tracing was off, or nothing
    /// ran).
    pub fn is_empty(&self) -> bool {
        self.span_count() == 0
    }

    /// Phase labels in order of first appearance (rank order breaks ties).
    pub fn phases(&self) -> Vec<String> {
        let mut seen: Vec<String> = Vec::new();
        for spans in &self.per_rank {
            for s in spans {
                if let SpanKind::Phase(name) = &s.kind {
                    if !seen.contains(name) {
                        seen.push(name.clone());
                    }
                }
            }
        }
        seen
    }

    /// Seconds rank `r` spent inside communication spans that are direct
    /// children of `phase` (collectives and bare p2p; nested p2p inside a
    /// collective is already covered by its parent) — the communication
    /// share of a traced run's critical path (see [`crate::report`]).
    pub fn phase_comm_secs(&self, rank: usize, phase: &str) -> f64 {
        let spans = &self.per_rank[rank];
        let mut total = 0.0;
        let mut in_phase = false;
        for s in spans {
            match &s.kind {
                SpanKind::Phase(name) if s.depth == 0 => in_phase = name == phase,
                k if in_phase && s.depth == 1 && k.is_comm() => total += s.secs(),
                _ => {}
            }
        }
        total
    }
}

impl RunReport {
    /// Renders the run as Chrome-trace JSON ("JSON Array Format" with an
    /// object envelope), loadable in Perfetto or `chrome://tracing`. Each
    /// rank's timeline spans become `B`/`E` duration-event pairs on
    /// `tid = rank`; a profiled rank's kernel spans ([`RunReport::compute`])
    /// follow as flat kernel-thread tracks, `tid = 1000·(rank+1) + track`,
    /// under the same process, so one view shows communication and compute
    /// interleaved. Thread-name metadata events label every track.
    pub fn to_chrome_json(&self) -> String {
        let timeline = &self.timeline;
        let mut events = String::new();
        for rank in 0..timeline.ranks() {
            if !events.is_empty() {
                events.push(',');
            }
            let _ = write!(
                events,
                r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{rank},"args":{{"name":"rank {rank}"}}}}"#
            );
            // Re-interleave begin/end records: spans are stored in begin
            // order, and single-threaded ranks guarantee proper nesting, so
            // an open span either contains the next span or ended before it.
            let mut open: Vec<&Span> = Vec::new();
            for s in timeline.spans(rank) {
                while open.last().is_some_and(|top| top.t1 <= s.t0) {
                    let top = open.pop().unwrap();
                    push_end(&mut events, rank, top.t1);
                }
                push_begin(&mut events, rank, s);
                open.push(s);
            }
            while let Some(top) = open.pop() {
                push_end(&mut events, rank, top.t1);
            }
            if let Some(Some(profile)) = self.compute.get(rank) {
                push_kernel_tracks(&mut events, rank, profile);
            }
        }
        format!(
            r#"{{"traceEvents":[{events}],"displayTimeUnit":"ms","otherData":{{"producer":"msgpass","ranks":{}}}}}"#,
            timeline.ranks()
        )
    }
}

/// Emits one flat `B`/`E` track per OS thread seen in the profile's spans,
/// as `tid = 1000·(rank+1) + track` (tracks numbered in thread-id order, so
/// tids stay compact whatever the process-wide thread ids are). The spans
/// come sorted by `(thread, t0)`, so each thread's run is one track in
/// start order. Wake spans start at *enqueue* time and can overlap the same
/// worker's previous span, so each track is clamped to be non-overlapping
/// (spans fully swallowed by a predecessor are dropped).
fn push_kernel_tracks(out: &mut String, rank: usize, profile: &KernelProfile) {
    let tracks = profile.spans.chunk_by(|a, b| a.thread == b.thread);
    for (track, spans) in tracks.enumerate() {
        let tid = 1000 * (rank + 1) + track;
        let thread = spans[0].thread;
        let _ = write!(
            out,
            r#",{{"name":"thread_name","ph":"M","pid":0,"tid":{tid},"args":{{"name":"rank {rank} kern {thread}"}}}}"#
        );
        let mut prev_t1 = 0;
        for s in spans {
            let t0 = s.t0_ns.max(prev_t1);
            if s.t1_ns <= t0 {
                continue;
            }
            let _ = write!(
                out,
                r#",{{"name":"{}","cat":"kernel","ph":"B","ts":{},"pid":0,"tid":{tid}}},{{"ph":"E","ts":{},"pid":0,"tid":{tid}}}"#,
                s.phase.label(),
                micros(t0 as f64 * 1e-9),
                micros(s.t1_ns as f64 * 1e-9)
            );
            prev_t1 = s.t1_ns;
        }
    }
}

fn push_begin(out: &mut String, rank: usize, s: &Span) {
    let name = jsonlite::Json::Str(s.kind.label()).to_string();
    let _ = write!(
        out,
        r#",{{"name":{name},"cat":"{}","ph":"B","ts":{},"pid":0,"tid":{rank},"args":{{"bytes":{}}}}}"#,
        s.kind.category(),
        micros(s.t0),
        s.bytes
    );
}

fn push_end(out: &mut String, rank: usize, t1: f64) {
    let _ = write!(
        out,
        r#",{{"ph":"E","ts":{},"pid":0,"tid":{rank}}}"#,
        micros(t1)
    );
}

/// Chrome trace timestamps are microseconds; keep sub-microsecond detail.
fn micros(secs: f64) -> f64 {
    (secs * 1e6 * 1e3).round() / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::prof::SpanPhase;

    /// The Chrome export of a report holding only `tl`.
    fn chrome_json(tl: Timeline) -> String {
        RunReport {
            timeline: tl,
            ..RunReport::default()
        }
        .to_chrome_json()
    }

    fn raw_begin(t: f64, kind: SpanKind) -> RawEvent {
        RawEvent::Begin { t, kind, bytes: 0 }
    }

    fn raw_end(t: f64, bytes: u64) -> RawEvent {
        RawEvent::End { t, bytes }
    }

    #[test]
    fn spans_nest_and_order() {
        // phase [0,10] containing a collective [1,5] containing a send
        // [2,3], then a second phase [10,12].
        let stream = vec![
            raw_begin(0.0, SpanKind::Phase("a".into())),
            raw_begin(1.0, SpanKind::Collective("ring_allgatherv")),
            raw_begin(2.0, SpanKind::Send { peer: 1 }),
            raw_end(3.0, 64),
            raw_end(5.0, 0),
            raw_end(10.0, 0),
            raw_begin(10.0, SpanKind::Phase("b".into())),
            raw_end(12.0, 0),
        ];
        let tl = Timeline::from_raw(vec![stream]);
        let spans = tl.spans(0);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].depth, 2);
        assert_eq!(spans[3].depth, 0);
        assert_eq!(spans[2].bytes, 64);
        // begin order is preserved
        assert!(spans.windows(2).all(|w| w[0].t0 <= w[1].t0));
        assert_eq!(tl.phases(), vec!["a".to_owned(), "b".to_owned()]);
        assert_eq!(spans[0].secs(), 10.0);
        assert_eq!(spans[3].secs(), 2.0);
        // comm under "a" counts the collective (4 s), not its inner send
        assert_eq!(tl.phase_comm_secs(0, "a"), 4.0);
        assert_eq!(tl.phase_comm_secs(0, "b"), 0.0);
    }

    #[test]
    fn unclosed_spans_are_closed_at_stream_end() {
        let stream = vec![
            raw_begin(0.0, SpanKind::Phase("p".into())),
            raw_begin(1.0, SpanKind::Recv { peer: 0 }),
            raw_end(4.0, 8),
        ];
        let tl = Timeline::from_raw(vec![stream]);
        assert_eq!(tl.spans(0)[0].t1, 4.0); // closed at last event time
    }

    #[test]
    fn critical_path_finds_slowest_rank() {
        let mk = |secs: f64| {
            vec![
                raw_begin(0.0, SpanKind::Phase("x".into())),
                raw_end(secs, 0),
            ]
        };
        // The summary reads the crit rank off the traffic report's phase
        // clock, which a real run stamps from the same `set_phase` instants.
        let secs = [1.0, 5.0, 2.0];
        let report = crate::RunReport {
            traffic: crate::TrafficReport {
                per_rank: vec![Default::default(); 3],
                secs_per_rank: secs.iter().map(|&s| [("x", s)].into()).collect(),
                wait_per_rank: vec![Default::default(); 3],
                matrix: crate::CommMatrix::new(3),
                ..Default::default()
            },
            timeline: Timeline::from_raw(secs.map(mk).into()),
            ..Default::default()
        };
        let cp = report.summary(jsonlite::Json::Null).critical_path.unwrap();
        assert_eq!(cp.len(), 1);
        let p = &cp[0];
        assert_eq!((p.phase.as_str(), p.crit_rank, p.crit_secs), ("x", 1, 5.0));
        assert!((p.mean_secs - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!((p.comm_secs, p.comp_secs), (0.0, 5.0));
    }

    #[test]
    fn chrome_export_merges_kernel_tracks() {
        let stream = vec![
            raw_begin(0.0, SpanKind::Phase("mult".into())),
            raw_end(4.0, 0),
        ];
        // Rank 0: two kernel threads, with a wake span overlapping thread
        // 3's previous span (starts at enqueue time) and one fully-swallowed
        // span, sorted by (thread, t0) as `end_capture` returns them.
        // Rank 1: none.
        let span = |thread, phase, t0: f64, t1: f64| dense::prof::ProfSpan {
            thread,
            phase,
            t0_ns: (t0 * 1e9) as u64,
            t1_ns: (t1 * 1e9) as u64,
        };
        let profile = KernelProfile {
            spans: vec![
                span(3, SpanPhase::Compute, 1.0, 2.0),
                span(3, SpanPhase::PackA, 1.2, 1.8),
                span(3, SpanPhase::Wake, 1.5, 2.5),
                span(7, SpanPhase::PackB, 0.5, 1.0),
            ],
            ..KernelProfile::default()
        };
        let report = RunReport {
            timeline: Timeline::from_raw(vec![stream.clone(), stream]),
            compute: vec![Some(profile), None],
            ..RunReport::default()
        };
        let text = report.to_chrome_json();
        let doc = jsonlite::Json::parse(&text).expect("exported trace parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Compact track ids under rank 0: threads {3, 7} → tids 1000, 1001.
        let tids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter_map(|e| e.get("tid").and_then(|t| t.as_f64()))
            .map(|t| t as u64)
            .collect();
        assert!(tids.contains(&1000) && tids.contains(&1001), "{tids:?}");
        assert!(!tids.contains(&2000), "rank 1 has no kernel spans");
        let track_label = events
            .iter()
            .find(|e| {
                e.get("tid").and_then(|t| t.as_f64()) == Some(1000.0)
                    && e.get("ph").and_then(|p| p.as_str()) == Some("M")
            })
            .and_then(|e| e.get("args")?.get("name")?.as_str().map(str::to_owned));
        assert_eq!(track_label.as_deref(), Some("rank 0 kern 3"));
        let names: Vec<&str> = events
            .iter()
            .filter(|e| {
                e.get("tid").and_then(|t| t.as_f64()) == Some(1000.0)
                    && e.get("ph").and_then(|p| p.as_str()) == Some("B")
            })
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        // The pack_a span (1.2..1.8) is swallowed by compute (1.0..2.0) and
        // dropped; the wake span is clamped to start at compute's end.
        assert!(names.contains(&"compute") && names.contains(&"wake"));
        assert!(!names.contains(&"pack_a"));
        // Per kernel tid the flat B/E pairs are balanced and monotone.
        for tid in [1000.0, 1001.0] {
            let mut depth = 0i64;
            let mut last_ts = f64::MIN;
            for ev in events {
                if ev.get("tid").and_then(|t| t.as_f64()) != Some(tid) {
                    continue;
                }
                match ev.get("ph").and_then(|p| p.as_str()) {
                    Some("B") => depth += 1,
                    Some("E") => depth -= 1,
                    _ => continue,
                }
                let ts = ev.get("ts").unwrap().as_f64().unwrap();
                assert!(ts >= last_ts, "kernel timestamps must be monotone");
                last_ts = ts;
                assert!((0..=1).contains(&depth), "kernel tracks are flat");
            }
            assert_eq!(depth, 0);
        }
    }

    #[test]
    fn chrome_export_balances_b_and_e() {
        let stream = vec![
            raw_begin(0.0, SpanKind::Phase("a".into())),
            raw_begin(1.0, SpanKind::Collective("barrier")),
            raw_end(2.0, 0),
            raw_end(3.0, 0),
            raw_begin(3.0, SpanKind::Phase("b".into())),
            raw_end(4.0, 0),
        ];
        let text = chrome_json(Timeline::from_raw(vec![stream.clone(), stream]));
        let doc = jsonlite::Json::parse(&text).expect("exported trace parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let b = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("B"))
            .count();
        let e = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("E"))
            .count();
        assert_eq!(b, 6);
        assert_eq!(e, 6);
        // per tid, B/E interleave as a valid stack with ts monotone
        for rank in 0..2 {
            let mut depth = 0i64;
            let mut last_ts = f64::MIN;
            for ev in events {
                if ev.get("tid").and_then(|t| t.as_f64()) != Some(rank as f64) {
                    continue;
                }
                match ev.get("ph").and_then(|p| p.as_str()) {
                    Some("B") => depth += 1,
                    Some("E") => depth -= 1,
                    _ => continue,
                }
                let ts = ev.get("ts").unwrap().as_f64().unwrap();
                assert!(ts >= last_ts, "timestamps must be monotone");
                last_ts = ts;
                assert!(depth >= 0);
            }
            assert_eq!(depth, 0);
        }
    }

    #[test]
    fn chrome_export_escapes_hostile_phase_names() {
        // A phase name with quotes, backslashes, and control characters must
        // not break the exported JSON (span names are routed through the
        // jsonlite string writer, never raw format! interpolation).
        let hostile = "evil \"phase\"\\ with \n newline and \u{7} bell";
        let stream = vec![
            raw_begin(0.0, SpanKind::Phase(hostile.into())),
            raw_end(1.0, 0),
        ];
        let text = chrome_json(Timeline::from_raw(vec![stream]));
        let doc = jsonlite::Json::parse(&text).expect("hostile name must stay valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let name = events
            .iter()
            .find_map(|e| {
                (e.get("ph").and_then(|p| p.as_str()) == Some("B"))
                    .then(|| e.get("name").unwrap().as_str().unwrap().to_owned())
            })
            .expect("begin event present");
        assert_eq!(name, hostile, "name must round-trip exactly");
    }

    #[test]
    fn empty_timeline() {
        let tl = Timeline::empty(4);
        assert_eq!(tl.ranks(), 4);
        assert!(tl.is_empty());
        assert!(tl.phases().is_empty());
        let doc = jsonlite::Json::parse(&chrome_json(tl)).unwrap();
        assert!(doc.get("traceEvents").is_some());
    }

    #[test]
    fn sent_bytes_by_phase() {
        let stream = vec![
            raw_begin(0.0, SpanKind::Phase("p".into())),
            raw_begin(1.0, SpanKind::Send { peer: 2 }),
            raw_end(1.1, 100),
            raw_begin(2.0, SpanKind::Collective("ring_allgatherv")),
            raw_begin(2.1, SpanKind::Send { peer: 1 }),
            raw_end(2.2, 50),
            raw_end(3.0, 0),
            raw_end(4.0, 0),
        ];
        let tl = Timeline::from_raw(vec![stream]);
        // counts both the bare send and the one inside the collective
        let sent: u64 = tl
            .spans(0)
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Send { .. }))
            .map(|s| s.bytes)
            .sum();
        assert_eq!(sent, 150);
    }
}
