//! The request scheduler: a shared queue drained by `slots` dispatcher
//! threads, each owning a persistent `p`-rank [`Engine`].
//!
//! A dispatcher pops one request, resolves its plan through the shared
//! [`PlanCache`] and runs it as one job. Each slot has its own world, so
//! with `slots` > 1 different requests execute concurrently and split the
//! host's kernel-thread budget between them
//! (`base_gemm_threads / (active_slots · p)`, min 1).
//! [`Scheduler::shutdown`] runs every queued request before it joins the
//! dispatchers.

use crate::cache::{CacheStats, PlanCache};
use crate::engine::Engine;
use crate::protocol::{MultiplyRequest, ProtoError};
use crate::stats::ServerStats;
use ca3dmm::Plan;
use jsonlite::Json;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Where a response line goes (stdout, a socket, a test channel).
pub type ResponseSink = Arc<dyn Fn(Json) + Send + Sync>;

/// A sink that forwards every response to a channel: how an in-process
/// caller (a test, an embedding) reads what the server answers.
pub fn channel_sink() -> (ResponseSink, std::sync::mpsc::Receiver<Json>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let tx = Mutex::new(tx);
    let sink: ResponseSink = Arc::new(move |resp| {
        // A send fails only once the caller dropped the receiver.
        let _ = lock(&tx).send(resp);
    });
    (sink, rx)
}

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// World size every multiply runs on.
    pub p: usize,
    /// Concurrency slots (dispatcher threads × persistent worlds).
    pub slots: usize,
    /// Plan-cache capacity, entries.
    pub cache_capacity: usize,
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
            report_dir: None,
        }
    }
}

struct Queued {
    req: Box<MultiplyRequest>,
    sink: ResponseSink,
    enqueued: Instant,
}

struct Shared {
    cfg: SchedulerConfig,
    queue: Mutex<VecDeque<Queued>>,
    cv: Condvar,
    /// Set under the queue lock, so a dispatcher cannot miss it between
    /// finding the queue empty and waiting.
    stop: AtomicBool,
    /// Numbers the report files, so two ids that sanitise alike never
    /// share a path.
    reports: AtomicU64,
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
            stop: AtomicBool::new(false),
            reports: AtomicU64::new(0),
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
    /// into `sink` by a dispatcher.
    pub fn submit(&self, req: Box<MultiplyRequest>, sink: ResponseSink) {
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

    /// Runs every queued request, then joins the dispatchers. Taking
    /// `self` means nothing can be submitted once this starts.
    pub fn shutdown(self) {
        {
            let _queue = lock(&self.shared.queue);
            self.shared.stop.store(true, Ordering::SeqCst);
        }
        self.shared.cv.notify_all();
        for h in self.dispatchers {
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
        let item = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(item) = q.pop_front() {
                    break item;
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
        shared.stats.queue_leave();
        shared.stats.slot_busy();
        run_one(shared, &engine, item);
        shared.stats.slot_idle();
    }
}

/// CPU seconds the calling thread has used.
#[cfg(target_os = "linux")]
fn thread_cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and `clock_gettime` writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Off Linux, the wall clock stands in for the thread's CPU clock.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_secs() -> f64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

fn run_one(shared: &Shared, engine: &Engine, item: Queued) {
    let Queued {
        req,
        sink,
        enqueued,
    } = item;
    let fail = |err: ProtoError| {
        shared.stats.on_error();
        sink(err.to_response(Some(&req.id)));
    };

    // Resolve the plan: a cache lookup, and a build on a miss. Timed on
    // this thread's CPU clock, so a wait for the cache lock or a preemption
    // by the other slot's ranks is not billed as plan work.
    let t_plan = thread_cpu_secs();
    let (plan, cache_state) = match shared.cache.get(&req.key) {
        Some(plan) => (plan, "hit"),
        None => {
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
                    shared.cache.put(req.key, Arc::clone(&plan));
                    (plan, "miss")
                }
                Err(e) => {
                    let msg = e
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| e.downcast_ref::<&str>().copied())
                        .unwrap_or("plan construction failed");
                    fail(ProtoError::bad(format!("plan rejected: {msg}")));
                    return;
                }
            }
        }
    };
    let plan_secs = thread_cpu_secs() - t_plan;

    // Kernel budget: split the host's threads across the busy slots' ranks.
    let active = shared.stats.active_slots().max(1);
    let kernel_threads = (dense::pool::base_gemm_threads() / (active * shared.cfg.p)).max(1);
    let seeds = [(req.seed_a, req.seed_b)];
    let outcome = match engine.run_batch(&plan, &seeds, kernel_threads, req.report) {
        Ok(out) => out,
        Err(panic) => {
            fail(ProtoError {
                code: "internal",
                message: format!("execution failed: {panic}"),
            });
            return;
        }
    };

    let total_secs = enqueued.elapsed().as_secs_f64();
    let mut resp = Json::obj([
        ("id", Json::Str(req.id.clone())),
        ("ok", Json::Bool(true)),
        ("cache", Json::Str(cache_state.to_owned())),
        ("plan_ms", Json::Num(plan_secs * 1e3)),
        ("exec_ms", Json::Num(outcome.exec_secs * 1e3)),
        ("total_ms", Json::Num(total_secs * 1e3)),
        ("checksum", Json::Str(outcome.items[0].checksum.clone())),
        ("sum", Json::Num(outcome.items[0].sum)),
        ("grid", plan.ca3dmm().grid_context().grid().to_json()),
    ]);
    if req.report {
        let meta = plan.ca3dmm().report_meta_serving(
            &format!("serve_{}", req.id),
            &outcome.report,
            Some(cache_state == "hit"),
        );
        attach_report(shared, &mut resp, &req.id, outcome.report.to_json(meta));
    }
    shared.stats.on_done(
        &req.shape_label(),
        (total_secs * 1e6).round().max(0.0) as u64,
    );
    sink(resp);
}

/// Writes the report next to the response (file when a report dir is
/// configured, inline otherwise). The file name starts with a number unique
/// to this daemon run. File-system failures degrade to inline — the request
/// still succeeds.
fn attach_report(shared: &Shared, resp: &mut Json, id: &str, report: Json) {
    let Json::Obj(map) = resp else { return };
    if let Some(dir) = &shared.cfg.report_dir {
        let seq = shared.reports.fetch_add(1, Ordering::Relaxed);
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
        let path = dir.join(format!("REPORT_serve_{seq}_{safe}.json"));
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

    const P: usize = 4;

    fn parse_multiply(line: &str, p: usize) -> Box<MultiplyRequest> {
        match parse_request(line, p, &Limits::default()).unwrap() {
            Request::Multiply(m) => m,
            _ => panic!("expected multiply"),
        }
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

    /// Values are frozen: the first two checksums were recorded at
    /// `ac778a4`, before redistribution stopped sending empty messages, and
    /// no change to how operands travel may move them. The third, recorded
    /// at `961ffcb` before the microkernels wrote `C` directly, is an f64
    /// product with edge tiles in both m and n on a two-round Cannon
    /// (grid 2×2×1): no change to how a tile reaches `C` may move it.
    ///
    /// Its Cannon k-blocks are 30 deep, below the multi-shift threshold
    /// (64), so both rounds feed one GEMM: one accumulation chain of 60
    /// terms per element, in the same k order, where plain Cannon rounds
    /// each 30-term partial sum into `C`. Its pin moved there from the
    /// frozen `26d2e6f0a5e7b5ea` of plain Cannon. The other two run one
    /// GEMM per Cannon block either way (k-block 64 at grid 2×2×1; one
    /// round at 1×1×4).
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
            (
                r#"{"cmd":"multiply","id":"edge","m":100,"n":100,"k":60,"seed_a":5,"seed_b":6}"#,
                "ce0f78b3b7e1234c",
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

    #[test]
    fn report_files_of_colliding_ids_stay_apart() {
        let dir = std::env::temp_dir().join(format!("serve_reports_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sched = Scheduler::new(SchedulerConfig {
            p: 2,
            slots: 1,
            report_dir: Some(dir.clone()),
            ..SchedulerConfig::default()
        });
        // `a/b` and `a.b` sanitise alike; the long pair shares 64 chars
        let long = "x".repeat(64);
        let ids = [
            "a/b".to_owned(),
            "a.b".to_owned(),
            format!("{long}1"),
            format!("{long}2"),
        ];
        let (sink, rx) = channel_sink();
        for id in &ids {
            let line =
                format!(r#"{{"cmd":"multiply","id":"{id}","m":16,"n":16,"k":16,"report":true}}"#);
            sched.submit(parse_multiply(&line, 2), Arc::clone(&sink));
        }
        let mut paths = std::collections::BTreeSet::new();
        for _ in &ids {
            let resp = rx.recv_timeout(std::time::Duration::from_secs(60)).unwrap();
            let id = resp.get("id").and_then(Json::as_str).unwrap();
            let path = resp.get("report_path").and_then(Json::as_str).unwrap();
            let report = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            let name = report.get("meta").and_then(|m| m.get("name"));
            assert_eq!(
                name.and_then(Json::as_str),
                Some(format!("serve_{id}").as_str())
            );
            assert!(paths.insert(path.to_owned()), "{path} written twice");
        }
        sched.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
