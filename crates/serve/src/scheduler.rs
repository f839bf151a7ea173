//! The batch scheduler: a shared request queue drained by `slots`
//! dispatcher threads, each owning a persistent `p`-rank [`Engine`].
//!
//! Scheduling policy:
//!
//! * **Same-shape batching** — when a dispatcher pops a request, it also
//!   drains every queued request with the *same plan key* (up to
//!   `max_batch`) and runs them as one [`Plan::multiply_batch`] job: one
//!   plan resolution and one sub-communicator build for the whole group.
//!   Batching is opportunistic — it happens exactly when requests queue up
//!   faster than slots drain them, so an idle daemon adds no latency.
//! * **Different shapes run concurrently** — each slot has its own
//!   persistent world, so two slots can execute two different shapes at
//!   once, splitting the host's kernel-thread budget between them
//!   (`base_gemm_threads / (active_slots · p)`, min 1, unless the request
//!   pinned `kernel_threads`).
//! * **Report requests never batch** — a request with `"report":true` runs
//!   alone and traced, so its RunReport describes exactly one
//!   multiply.
//! * **Graceful shutdown** — [`Scheduler::shutdown`] stops admission
//!   (late requests get a `draining` error), waits for the queue and every
//!   slot to drain, then joins the dispatchers.

use crate::cache::{CacheStats, PlanCache};
use crate::engine::Engine;
use crate::protocol::{MultiplyRequest, ProtoError};
use crate::stats::ServerStats;
use ca3dmm::Plan;
use jsonlite::Json;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Where a response line goes (stdout, a socket, a test channel).
pub type ResponseSink = Arc<dyn Fn(Json) + Send + Sync>;

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// World size every multiply runs on.
    pub p: usize,
    /// Concurrency slots (dispatcher threads × persistent worlds).
    pub slots: usize,
    /// Plan-cache capacity, entries.
    pub cache_capacity: usize,
    /// Largest same-shape batch one job may carry.
    pub max_batch: usize,
    /// Where per-request RunReports go; `None` inlines them into the
    /// response.
    pub report_dir: Option<PathBuf>,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            p: 4,
            slots: 1,
            cache_capacity: 32,
            max_batch: 16,
            report_dir: None,
        }
    }
}

pub(crate) struct Queued {
    pub req: Box<MultiplyRequest>,
    pub sink: ResponseSink,
    pub enqueued: Instant,
}

/// Pops the front request plus every queued same-key non-report request
/// (up to `max_batch` total), preserving arrival order. Report requests
/// always come out alone. Pure queue surgery — unit-tested directly.
pub(crate) fn take_batch(q: &mut VecDeque<Queued>, max_batch: usize) -> Vec<Queued> {
    let Some(front) = q.pop_front() else {
        return Vec::new();
    };
    let key = front.req.key;
    let solo = front.req.report;
    let mut batch = vec![front];
    if !solo {
        let mut i = 0;
        while i < q.len() && batch.len() < max_batch.max(1) {
            if q[i].req.key == key && !q[i].req.report {
                if let Some(item) = q.remove(i) {
                    batch.push(item);
                }
            } else {
                i += 1;
            }
        }
    }
    batch
}

struct Shared {
    cfg: SchedulerConfig,
    queue: Mutex<VecDeque<Queued>>,
    cv: Condvar,
    draining: AtomicBool,
    stop: AtomicBool,
    stats: ServerStats,
    cache: PlanCache,
}

fn lock<'m, T>(m: &'m Mutex<T>) -> MutexGuard<'m, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The request scheduler. One per daemon.
pub struct Scheduler {
    shared: Arc<Shared>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Starts `cfg.slots` dispatcher threads, each with a warmed persistent
    /// world.
    pub fn new(cfg: SchedulerConfig) -> Scheduler {
        assert!(cfg.p > 0 && cfg.slots > 0, "p and slots must be positive");
        let shared = Arc::new(Shared {
            cache: PlanCache::new(cfg.cache_capacity),
            stats: ServerStats::new(),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            cfg,
        });
        let dispatchers = (0..shared.cfg.slots)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-slot-{slot}"))
                    .spawn(move || dispatcher_loop(&shared))
                    .expect("failed to spawn dispatcher")
            })
            .collect();
        Scheduler {
            shared,
            dispatchers,
        }
    }

    /// Counts an inbound request line of any kind (for the stats totals).
    pub fn note_request(&self) {
        self.shared.stats.on_request();
    }

    /// Counts an error response produced outside the scheduler (parse
    /// failures on the transport thread).
    pub fn note_error(&self) {
        self.shared.stats.on_error();
    }

    /// Enqueues a multiply; its response (success or error) will be pushed
    /// into `sink` by a dispatcher. Returns the `draining` error instead if
    /// shutdown has begun.
    pub fn submit(&self, req: Box<MultiplyRequest>, sink: ResponseSink) {
        if self.shared.draining.load(Ordering::SeqCst) {
            let err = ProtoError {
                code: "draining",
                message: "server is shutting down".to_owned(),
            };
            self.shared.stats.on_error();
            sink(err.to_response(Some(&req.id)));
            return;
        }
        self.shared.stats.queue_enter();
        lock(&self.shared.queue).push_back(Queued {
            req,
            sink,
            enqueued: Instant::now(),
        });
        self.shared.cv.notify_one();
    }

    /// The merged `stats` response body.
    pub fn stats_json(&self) -> Json {
        let cache = self.shared.cache.stats();
        let mut body = self.shared.stats.to_json(self.shared.cfg.slots);
        if let Json::Obj(map) = &mut body {
            map.insert("cache".to_owned(), cache_json(&cache));
            map.insert("p".to_owned(), Json::Num(self.shared.cfg.p as f64));
        }
        body
    }

    /// Cache counters (test hook).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Completed multiplies (test hook).
    pub fn completed(&self) -> u64 {
        self.shared.stats.completed()
    }

    /// Stops admission, drains the queue and all in-flight work, joins the
    /// dispatchers. Idempotent-ish: safe to call once at end of life.
    pub fn shutdown(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wait until nothing is queued or executing.
        {
            let mut q = lock(&self.shared.queue);
            while !(q.is_empty() && self.shared.stats.active_slots() == 0) {
                let (guard, _) = self
                    .shared
                    .cv
                    .wait_timeout(q, std::time::Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                q = guard;
            }
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        for h in self.dispatchers.drain(..) {
            let _ = h.join();
        }
    }
}

fn cache_json(c: &CacheStats) -> Json {
    Json::obj([
        ("hits", Json::Num(c.hits as f64)),
        ("misses", Json::Num(c.misses as f64)),
        ("evictions", Json::Num(c.evictions as f64)),
        ("entries", Json::Num(c.entries as f64)),
        ("capacity", Json::Num(c.capacity as f64)),
        ("hit_rate", Json::Num(c.hit_rate())),
    ])
}

fn dispatcher_loop(shared: &Shared) {
    let engine = Engine::new(shared.cfg.p);
    engine.warm();
    loop {
        let batch = {
            let mut q = lock(&shared.queue);
            loop {
                if !q.is_empty() {
                    break take_batch(&mut q, shared.cfg.max_batch);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                q = shared
                    .cv
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        shared.stats.queue_leave(batch.len());
        shared.stats.slot_busy();
        run_one_batch(shared, &engine, batch);
        shared.stats.slot_idle();
        // Wake shutdown waiters (and peers waiting for work).
        shared.cv.notify_all();
    }
}

fn run_one_batch(shared: &Shared, engine: &Engine, batch: Vec<Queued>) {
    let Some(first) = batch.first() else { return };
    let leader = &first.req;
    let key = leader.key;
    let shape = leader.shape_label();

    // Resolve the plan: one cache consult for the leader, one build on a
    // miss. Followers count as hits — they are served from the (now
    // populated) cache by construction.
    let t_plan = Instant::now();
    let (plan, leader_hit) = match shared.cache.get(&key) {
        Some(plan) => (plan, true),
        None => {
            let req = leader.clone();
            let built = catch_unwind(AssertUnwindSafe(|| {
                Plan::build(
                    req.prob,
                    &req.opts,
                    req.dtype,
                    req.op_a,
                    &req.a_layout,
                    req.op_b,
                    &req.b_layout,
                    &req.c_layout,
                )
            }));
            match built {
                Ok(plan) => {
                    let plan = Arc::new(plan);
                    shared.cache.put(key, Arc::clone(&plan));
                    (plan, false)
                }
                Err(e) => {
                    let msg = e
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| e.downcast_ref::<&str>().copied())
                        .unwrap_or("plan construction failed");
                    let err = ProtoError::bad(format!("plan rejected: {msg}"));
                    for item in &batch {
                        shared.stats.on_error();
                        (item.sink)(err.to_response(Some(&item.req.id)));
                    }
                    return;
                }
            }
        }
    };
    for _ in 1..batch.len() {
        let _ = shared.cache.get(&key); // count follower hits, refresh LRU
    }
    let plan_secs = t_plan.elapsed().as_secs_f64();

    // Kernel budget: split the host's threads across the busy slots' ranks;
    // the batch leader's explicit override wins.
    let active = shared.stats.active_slots().max(1);
    let budget = (dense::pool::base_gemm_threads() / (active * shared.cfg.p)).max(1);
    let kernel_threads = leader.kernel_threads.unwrap_or(budget);

    let seeds: Vec<(u64, u64)> = batch.iter().map(|i| (i.req.seed_a, i.req.seed_b)).collect();
    let trace = leader.report;
    let outcome = match engine.run_batch(&plan, &seeds, kernel_threads, trace) {
        Ok(out) => out,
        Err(panic) => {
            let err = ProtoError {
                code: "internal",
                message: format!("execution failed: {panic}"),
            };
            for item in &batch {
                shared.stats.on_error();
                (item.sink)(err.to_response(Some(&item.req.id)));
            }
            return;
        }
    };
    shared.stats.on_batch(batch.len());

    let grid = *plan.ca3dmm().grid_context().grid();
    for (idx, item) in batch.iter().enumerate() {
        let total_secs = item.enqueued.elapsed().as_secs_f64();
        let cache_state = if idx == 0 && !leader_hit {
            "miss"
        } else {
            "hit"
        };
        let mut resp = Json::obj([
            ("id", Json::Str(item.req.id.clone())),
            ("ok", Json::Bool(true)),
            ("cache", Json::Str(cache_state.to_owned())),
            ("batched", Json::Num(batch.len() as f64)),
            ("plan_ms", Json::Num(plan_secs * 1e3)),
            ("exec_ms", Json::Num(outcome.exec_secs * 1e3)),
            ("total_ms", Json::Num(total_secs * 1e3)),
            ("checksum", Json::Str(outcome.items[idx].checksum.clone())),
            ("sum", Json::Num(outcome.items[idx].sum)),
            (
                "grid",
                Json::obj([
                    ("pm", Json::Num(grid.pm as f64)),
                    ("pn", Json::Num(grid.pn as f64)),
                    ("pk", Json::Num(grid.pk as f64)),
                ]),
            ),
        ]);
        if trace {
            let meta = plan.ca3dmm().report_meta_serving(
                &format!("serve_{}", item.req.id),
                &outcome.report,
                Some(cache_state == "hit"),
            );
            let report = outcome.report.to_json(meta);
            attach_report(
                &mut resp,
                &item.req.id,
                report,
                shared.cfg.report_dir.as_deref(),
            );
        }
        shared
            .stats
            .on_done(&shape, (total_secs * 1e6).round().max(0.0) as u64);
        (item.sink)(resp);
    }
}

/// Writes the report next to the response (file when a report dir is
/// configured, inline otherwise). File-system failures degrade to inline —
/// the request still succeeds.
fn attach_report(resp: &mut Json, id: &str, report: Json, dir: Option<&std::path::Path>) {
    let Json::Obj(map) = resp else { return };
    if let Some(dir) = dir {
        let safe: String = id
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .take(64)
            .collect();
        let path = dir.join(format!("REPORT_serve_{safe}.json"));
        let mut text = report.to_string_pretty();
        text.push('\n');
        if std::fs::write(&path, text).is_ok() {
            map.insert(
                "report_path".to_owned(),
                Json::Str(path.to_string_lossy().into_owned()),
            );
            return;
        }
    }
    map.insert("report".to_owned(), report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::digest_of_global;
    use crate::protocol::{parse_request, Limits, Request};
    use dense::gemm::{gemm_naive, GemmOp};
    use dense::part::Rect;
    use dense::random::global_block;
    use dense::Mat;
    use std::sync::mpsc;

    const P: usize = 4;

    fn parse_multiply(line: &str, p: usize) -> Box<MultiplyRequest> {
        match parse_request(line, p, &Limits::default()).unwrap() {
            Request::Multiply(m) => m,
            _ => panic!("expected multiply"),
        }
    }

    fn queued(line: &str, sink: ResponseSink) -> Queued {
        Queued {
            req: parse_multiply(line, P),
            sink,
            enqueued: Instant::now(),
        }
    }

    fn null_sink() -> ResponseSink {
        Arc::new(|_| {})
    }

    #[test]
    fn take_batch_groups_same_key_and_isolates_reports() {
        let sink = null_sink();
        let mut q = VecDeque::new();
        let shape_a = r#"{"cmd":"multiply","id":"a1","m":16,"n":16,"k":16}"#;
        let shape_b = r#"{"cmd":"multiply","id":"b1","m":8,"n":8,"k":8}"#;
        let a_report = r#"{"cmd":"multiply","id":"a-rep","m":16,"n":16,"k":16,"report":true}"#;
        q.push_back(queued(shape_a, Arc::clone(&sink)));
        q.push_back(queued(shape_b, Arc::clone(&sink)));
        q.push_back(queued(shape_a, Arc::clone(&sink)));
        q.push_back(queued(a_report, Arc::clone(&sink)));
        q.push_back(queued(shape_a, Arc::clone(&sink)));

        // batch 1: the two non-report shape-A requests queued behind the
        // front one, order preserved; B and the report request stay.
        let b1 = take_batch(&mut q, 16);
        assert_eq!(
            b1.iter().map(|i| i.req.id.as_str()).collect::<Vec<_>>(),
            vec!["a1", "a1", "a1"]
        );
        // batch 2: shape B alone
        let b2 = take_batch(&mut q, 16);
        assert_eq!(b2.len(), 1);
        assert_eq!(b2[0].req.id, "b1");
        // batch 3: the report request, alone despite matching shape A's key
        let b3 = take_batch(&mut q, 16);
        assert_eq!(b3.len(), 1);
        assert!(b3[0].req.report);
        assert!(q.is_empty());
    }

    #[test]
    fn take_batch_respects_max_batch() {
        let sink = null_sink();
        let mut q = VecDeque::new();
        for _ in 0..5 {
            q.push_back(queued(
                r#"{"cmd":"multiply","id":"x","m":16,"n":16,"k":16}"#,
                Arc::clone(&sink),
            ));
        }
        assert_eq!(take_batch(&mut q, 2).len(), 2);
        assert_eq!(q.len(), 3);
    }

    /// Collects responses over a channel.
    fn channel_sink() -> (ResponseSink, mpsc::Receiver<Json>) {
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        (
            Arc::new(move |j| {
                let _ = lock(&tx).send(j);
            }),
            rx,
        )
    }

    fn serial_digest(m: usize, n: usize, k: usize, sa: u64, sb: u64) -> f64 {
        let a = global_block::<f64>(sa, Rect::new(0, 0, m, k));
        let b = global_block::<f64>(sb, Rect::new(0, 0, k, n));
        let mut c = Mat::<f64>::zeros(m, n);
        gemm_naive(GemmOp::NoTrans, GemmOp::NoTrans, 1.0, &a, &b, 0.0, &mut c);
        digest_of_global(&c, &layout::Layout::one_d_col(m, n, P)).sum
    }

    #[test]
    fn concurrent_two_shape_streams_complete_and_match_serial() {
        let sched = Scheduler::new(SchedulerConfig {
            p: P,
            slots: 2,
            ..SchedulerConfig::default()
        });
        let (sink, rx) = channel_sink();
        // interleave two shapes, several requests each — with two slots the
        // shapes execute concurrently on separate persistent worlds
        let shapes = [(24usize, 20usize, 16usize), (12, 28, 8)];
        let mut expected = std::collections::BTreeMap::new();
        for rep in 0..3u64 {
            for (si, &(m, n, k)) in shapes.iter().enumerate() {
                let id = format!("s{si}-r{rep}");
                let line = format!(
                    r#"{{"cmd":"multiply","id":"{id}","m":{m},"n":{n},"k":{k},"seed_a":{},"seed_b":9}}"#,
                    rep + 1
                );
                expected.insert(id, serial_digest(m, n, k, rep + 1, 9));
                sched.submit(parse_multiply(&line, P), Arc::clone(&sink));
            }
        }
        let mut got = 0;
        while got < 6 {
            let resp = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("response timed out");
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(true),
                "{resp:?}"
            );
            let id = resp.get("id").and_then(Json::as_str).unwrap().to_owned();
            let sum = resp.get("sum").and_then(Json::as_f64).unwrap();
            let want = expected.remove(&id).expect("unexpected id");
            let scale = want.abs().max(1.0) * 16.0;
            assert!(
                (sum - want).abs() <= 1e-12 * scale,
                "{id}: distributed {sum} vs serial {want}"
            );
            got += 1;
        }
        assert_eq!(sched.completed(), 6);
        let cs = sched.cache_stats();
        assert!(cs.hits >= 1, "repeat shapes must hit the cache: {cs:?}");
        assert_eq!(cs.misses, 2, "one miss per distinct shape");
        sched.shutdown();
    }

    #[test]
    fn draining_rejects_new_requests() {
        let sched = Scheduler::new(SchedulerConfig {
            p: 2,
            slots: 1,
            ..SchedulerConfig::default()
        });
        sched.shared.draining.store(true, Ordering::SeqCst);
        let (sink, rx) = channel_sink();
        sched.submit(
            parse_multiply(r#"{"cmd":"multiply","id":"late","m":8,"n":8,"k":8}"#, 2),
            sink,
        );
        let resp = rx.recv().unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("draining")
        );
        sched.shutdown();
    }

    #[test]
    fn stats_json_includes_cache_and_queue() {
        let sched = Scheduler::new(SchedulerConfig {
            p: 2,
            slots: 1,
            ..SchedulerConfig::default()
        });
        let (sink, rx) = channel_sink();
        sched.note_request();
        sched.submit(
            parse_multiply(r#"{"cmd":"multiply","id":"q","m":8,"n":8,"k":8}"#, 2),
            sink,
        );
        let _ = rx.recv_timeout(std::time::Duration::from_secs(60)).unwrap();
        let j = sched.stats_json();
        assert!(j.get("cache").and_then(|c| c.get("hit_rate")).is_some());
        assert_eq!(j.get("p").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("queue_depth").and_then(Json::as_f64), Some(0.0));
        sched.shutdown();
    }

    /// Values are frozen: these two checksums were recorded at `ac778a4`,
    /// before redistribution stopped sending empty messages, and no change
    /// to how operands travel may move them.
    #[test]
    fn served_checksums_are_pinned() {
        let sched = Scheduler::new(SchedulerConfig {
            p: P,
            slots: 1,
            ..SchedulerConfig::default()
        });
        let pins = [
            (
                r#"{"cmd":"multiply","id":"sq","m":128,"n":128,"k":128,"seed_a":1,"seed_b":2}"#,
                "43edfb4b46c80c65",
            ),
            (
                r#"{"cmd":"multiply","id":"flat","m":96,"n":40,"k":1000,"dtype":"f32","seed_a":3,"seed_b":4,"layout_a":"row","layout_c":"cyclic:2x2:8x8"}"#,
                "348853ae8e6d0558",
            ),
        ];
        for (line, want) in pins {
            let (sink, rx) = channel_sink();
            sched.submit(parse_multiply(line, P), sink);
            let resp = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("response timed out");
            assert_eq!(
                resp.get("checksum").and_then(Json::as_str),
                Some(want),
                "{resp:?}"
            );
        }
        sched.shutdown();
    }

    #[test]
    fn report_request_carries_inline_report() {
        let sched = Scheduler::new(SchedulerConfig {
            p: 2,
            slots: 1,
            report_dir: None,
            ..SchedulerConfig::default()
        });
        let (sink, rx) = channel_sink();
        sched.submit(
            parse_multiply(
                r#"{"cmd":"multiply","id":"rep","m":16,"n":16,"k":16,"report":true}"#,
                2,
            ),
            sink,
        );
        let resp = rx.recv_timeout(std::time::Duration::from_secs(60)).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        let report = resp.get("report").expect("inline report");
        assert_eq!(
            report.get("schema_version").and_then(Json::as_f64),
            Some(msgpass::report::SCHEMA_VERSION as f64)
        );
        let meta = report.get("meta").expect("meta block");
        assert_eq!(meta.get("plan_cached").and_then(Json::as_bool), Some(false));
        assert!(meta
            .get("grid_search_secs")
            .and_then(Json::as_f64)
            .is_some());
        sched.shutdown();
    }
}
