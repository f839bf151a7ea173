//! `serve_mix`: one closed-loop client on an in-process `serve::Server`.
//!
//! 48 shapes (12 sizes × the paper's four problem classes, every third one
//! f32) are requested with Zipf(1) popularity in a fixed 128-request cycle;
//! the op is one whole cycle, so every op is the same work and its
//! quantiles mean something. 48 shapes exceed the 32-entry plan cache, so a
//! steady-state cycle still builds plans. The client calls
//! `Server::handle_line` and waits for each response: transport I/O
//! (sockets, stdio) is excluded, everything behind it is included.
//!
//! The cycle's *structure* (which shapes are popular, in what order they
//! arrive) is a constant of the benchmark, not a function of `--seed`: runs
//! with different seeds must do the same work to be comparable. The seed
//! decides every request's operand seeds.

use super::Workload;
use crate::rng::{derive_seed, SplitMix64};
use crate::span::Tracer;
use crate::stats;
use crate::verify::{product_sum, Stored, Verdict};
use ca3dmm::Dtype;
use jsonlite::Json;
use serve::{ResponseSink, SchedulerConfig, Server, ServerConfig};
use std::collections::BTreeMap;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const P: usize = 4;
pub const CACHE_CAPACITY: usize = 32;
pub const CYCLE_LEN: usize = 128;
pub const SIZES: [usize; 12] = [32, 48, 64, 80, 96, 112, 128, 144, 160, 192, 224, 256];
/// Fixes the popularity ranking and the arrival order of the cycle.
const CYCLE_SEED: u64 = 0xCA3D_0001;

#[derive(Clone, Debug, PartialEq)]
pub struct Shape {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub dtype: Dtype,
    pub seed_a: u64,
    pub seed_b: u64,
}

/// The 48 shapes: for each size `d`, square `d³`, large-K `d/4 × d/4 × 8d`,
/// large-M `4d × d/4 × d/4`, flat `2d × 2d × d/8`. Operand seeds come from
/// the run seed.
pub fn shapes(seed: u64) -> Vec<Shape> {
    SIZES
        .iter()
        .flat_map(|&d| {
            [
                (d, d, d),
                (d / 4, d / 4, 8 * d),
                (4 * d, d / 4, d / 4),
                (2 * d, 2 * d, d / 8),
            ]
        })
        .enumerate()
        .map(|(idx, (m, n, k))| Shape {
            m,
            n,
            k,
            dtype: if idx % 3 == 2 { Dtype::F32 } else { Dtype::F64 },
            seed_a: derive_seed(seed, 100 + 2 * idx as u64),
            seed_b: derive_seed(seed, 101 + 2 * idx as u64),
        })
        .collect()
}

/// The fixed 128-request cycle, as indices into [`shapes`]: Zipf(1) counts
/// (largest-remainder rounding of `128 / (rank · H₄₈)`) over a fixed
/// shuffle of the shapes, in a fixed shuffled arrival order.
pub fn cycle() -> Vec<usize> {
    let nshapes = SIZES.len() * 4;
    let mut g = SplitMix64::new(CYCLE_SEED);
    let mut by_rank: Vec<usize> = (0..nshapes).collect();
    g.shuffle(&mut by_rank);

    let harmonic: f64 = (1..=nshapes).map(|r| 1.0 / r as f64).sum();
    let ideal: Vec<f64> = (1..=nshapes)
        .map(|r| CYCLE_LEN as f64 / (r as f64 * harmonic))
        .collect();
    let mut counts: Vec<usize> = ideal.iter().map(|c| c.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..nshapes).collect();
    by_remainder.sort_by(|&a, &b| {
        (ideal[b] - ideal[b].floor())
            .total_cmp(&(ideal[a] - ideal[a].floor()))
            .then(a.cmp(&b))
    });
    let short = CYCLE_LEN - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }

    let mut out: Vec<usize> = counts
        .iter()
        .zip(&by_rank)
        .flat_map(|(&c, &shape)| std::iter::repeat_n(shape, c))
        .collect();
    g.shuffle(&mut out);
    out
}

/// The NDJSON request line for one shape (default `col` layouts).
pub fn request_line(s: &Shape, id: &str) -> String {
    format!(
        r#"{{"cmd":"multiply","id":"{id}","m":{},"n":{},"k":{},"dtype":"{}","seed_a":{},"seed_b":{}}}"#,
        s.m,
        s.n,
        s.k,
        s.dtype.as_str(),
        s.seed_a,
        s.seed_b
    )
}

/// Hits and misses of one pass of `requests` through an LRU of `capacity`
/// entries that starts as `cache` (most recent last) — the model the
/// cycle's stated hit rate is checked against.
#[cfg(test)]
pub fn lru_pass(cache: &mut Vec<usize>, capacity: usize, requests: &[usize]) -> (usize, usize) {
    let (mut hits, mut misses) = (0, 0);
    for &r in requests {
        if let Some(pos) = cache.iter().position(|&c| c == r) {
            cache.remove(pos);
            hits += 1;
        } else {
            misses += 1;
            if cache.len() == capacity {
                cache.remove(0);
            }
        }
        cache.push(r);
    }
    (hits, misses)
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        sched: SchedulerConfig {
            p: P,
            slots: 1,
            cache_capacity: CACHE_CAPACITY,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// A response sink feeding a channel the closed-loop client waits on.
pub fn channel_sink() -> (ResponseSink, Receiver<Json>) {
    let (tx, rx) = mpsc::channel();
    let tx = Mutex::new(tx);
    let sink: ResponseSink = Arc::new(move |resp: Json| {
        if let Ok(tx) = tx.lock() {
            // The receiver outlives every request; a send can only fail
            // during teardown, when nobody waits for it.
            let _ = tx.send(resp);
        }
    });
    (sink, rx)
}

fn num(resp: &Json, key: &str) -> f64 {
    resp.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

pub struct ServeMix {
    server: Option<Server>,
    sink: ResponseSink,
    rx: Receiver<Json>,
    shapes: Vec<Shape>,
    cycle: Vec<usize>,
    lines: Vec<String>,
    /// (client-side seconds, response) of the most recent cycle.
    last: Vec<(f64, Json)>,
    /// First checksum seen per shape: every repeat must match it bit for
    /// bit.
    checksums: Vec<Option<String>>,
    /// Reported element sum per shape, until [`Workload::verify`] has
    /// checked it against the serial reference.
    unchecked_sums: Vec<Option<f64>>,
    worst_ratio: f64,
    req_ms: Vec<f64>,
    plan_ms_hit: Vec<f64>,
    plan_ms_miss: Vec<f64>,
    exec_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    frontend_share: Vec<f64>,
    hits: u64,
    misses: u64,
    /// Steady-state cycles accounted (the set-up cycle is excluded).
    cycles: u64,
    evictions_at_start: Option<f64>,
}

impl ServeMix {
    pub fn setup(seed: u64, tr: &Tracer, parent: u64) -> ServeMix {
        let server = tr.in_span("serve.server_start", parent, 0, || {
            Server::new(&server_config())
        });
        let (sink, rx) = channel_sink();
        let shapes = shapes(seed);
        let cycle = cycle();
        let lines = cycle
            .iter()
            .enumerate()
            .map(|(i, &s)| request_line(&shapes[s], &format!("r{i}")))
            .collect();
        let n = shapes.len();
        let mut w = ServeMix {
            server: Some(server),
            sink,
            rx,
            shapes,
            cycle,
            lines,
            last: Vec::new(),
            checksums: vec![None; n],
            unchecked_sums: vec![None; n],
            worst_ratio: 0.0,
            req_ms: Vec::new(),
            plan_ms_hit: Vec::new(),
            plan_ms_miss: Vec::new(),
            exec_ms: Vec::new(),
            queue_ms: Vec::new(),
            frontend_share: Vec::new(),
            hits: 0,
            misses: 0,
            cycles: 0,
            evictions_at_start: None,
        };
        // Cold pass: every shape once, so the first cycle already meets a
        // full cache and every checksum has its reference.
        let cold = tr.span("serve.cold_pass", parent, 0);
        for idx in 0..n {
            let line = request_line(&w.shapes[idx], &format!("w{idx}"));
            let resp = w.request(&line);
            w.note_result(idx, &resp);
        }
        drop(cold);
        w
    }

    fn request(&self, line: &str) -> Json {
        let server = self.server.as_ref().expect("server runs until shutdown");
        server.handle_line(line, &self.sink);
        self.rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or(Json::Null)
    }

    /// Checks `ok:true` and the bit-equal checksum; remembers the sum.
    fn note_result(&mut self, shape: usize, resp: &Json) -> bool {
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return false;
        }
        let Some(checksum) = resp.get("checksum").and_then(Json::as_str) else {
            return false;
        };
        match &self.checksums[shape] {
            Some(first) => first == checksum,
            None => {
                self.checksums[shape] = Some(checksum.to_owned());
                self.unchecked_sums[shape] = Some(num(resp, "sum"));
                true
            }
        }
    }

    fn evictions(&self) -> f64 {
        let resp = self.request(r#"{"cmd":"stats","id":"stats"}"#);
        resp.get("stats")
            .and_then(|s| s.get("cache"))
            .map_or(f64::NAN, |c| num(c, "evictions"))
    }
}

impl Workload for ServeMix {
    fn op(&mut self, tr: &Tracer, parent: u64, op_id: u64) {
        let server = self.server.as_ref().expect("server runs until shutdown");
        let mut out = Vec::with_capacity(self.lines.len());
        for line in &self.lines {
            let t0 = Instant::now();
            tr.in_span("serve.handle_line", parent, op_id, || {
                server.handle_line(line, &self.sink)
            });
            let resp = tr.in_span("serve.await_response", parent, op_id, || {
                self.rx
                    .recv_timeout(Duration::from_secs(120))
                    .unwrap_or(Json::Null)
            });
            out.push((t0.elapsed().as_secs_f64(), resp));
        }
        self.last = out;
    }

    fn account(&mut self, op_secs: f64) -> bool {
        let last = std::mem::take(&mut self.last);
        let mut ok = last.len() == self.cycle.len();
        // The first accounted cycle is the set-up op: it is checked like
        // any other, but its timings are not steady state.
        let steady = self.evictions_at_start.is_some();
        let mut exec_sum_ms = 0.0;
        for (i, (secs, resp)) in last.iter().enumerate() {
            ok &= self.note_result(self.cycle[i], resp);
            if !steady {
                continue;
            }
            let (plan, exec, total) = (
                num(resp, "plan_ms"),
                num(resp, "exec_ms"),
                num(resp, "total_ms"),
            );
            let hit = resp.get("cache").and_then(Json::as_str) == Some("hit");
            if hit {
                self.hits += 1;
                self.plan_ms_hit.push(plan);
            } else {
                self.misses += 1;
                self.plan_ms_miss.push(plan);
            }
            self.req_ms.push(secs * 1e3);
            self.exec_ms.push(exec);
            self.queue_ms.push(total - plan - exec);
            exec_sum_ms += exec;
        }
        if steady {
            self.cycles += 1;
            self.frontend_share
                .push(1.0 - exec_sum_ms / (op_secs * 1e3));
        } else {
            self.evictions_at_start = Some(self.evictions());
        }
        self.last = last;
        ok
    }

    fn verify(&mut self, inject_fault: bool) -> Verdict {
        if self.last.is_empty() {
            return Verdict::FAIL;
        }
        if inject_fault {
            // Pretend the daemon reported a wrong sum for one request.
            let shape = self.cycle[0];
            let sum = num(&self.last[0].1, "sum");
            self.unchecked_sums[shape] = Some(sum + 1.0);
        }
        let mut ok = true;
        for (s, slot) in self.shapes.iter().zip(self.unchecked_sums.iter_mut()) {
            let Some(sum) = slot.take() else { continue };
            let a = Stored {
                seed: s.seed_a,
                rows: s.m,
                cols: s.k,
                trans: false,
            };
            let b = Stored {
                seed: s.seed_b,
                rows: s.k,
                cols: s.n,
                trans: false,
            };
            let v = match s.dtype {
                Dtype::F64 => product_sum::<f64>(a, b, sum),
                Dtype::F32 => product_sum::<f32>(a, b, sum),
            };
            ok &= v.ok;
            self.worst_ratio = self.worst_ratio.max(v.residual_ratio);
        }
        Verdict {
            ok,
            residual_ratio: self.worst_ratio,
        }
    }

    fn ledger(&mut self, out: &mut BTreeMap<String, f64>) {
        let mut put = |k: &str, v: f64| {
            out.insert(k.to_owned(), v);
        };
        let req = stats::sorted(&self.req_ms);
        put("serve.req_ms_p50", stats::quantile(&req, 0.50));
        put("serve.req_ms_p99", stats::quantile(&req, 0.99));
        put("serve.plan_ms_hit", stats::median(&self.plan_ms_hit));
        put("serve.plan_ms_miss", stats::median(&self.plan_ms_miss));
        put("serve.exec_ms", stats::median(&self.exec_ms));
        put("serve.queue_ms", stats::median(&self.queue_ms));
        put("serve.frontend_share", stats::median(&self.frontend_share));
        let requests = (self.hits + self.misses).max(1);
        put("serve.cache_hit_rate", self.hits as f64 / requests as f64);
        let cycles = self.cycles.max(1) as f64;
        let evicted = self.evictions() - self.evictions_at_start.unwrap_or(f64::NAN);
        put("serve.evictions_per_cycle", evicted / cycles);
        let flops: f64 = self
            .cycle
            .iter()
            .map(|&s| {
                let s = &self.shapes[s];
                dense::gemm::gemm_flops(s.m, s.n, s.k)
            })
            .sum();
        put("dense.flops_per_op", flops);
    }

    fn shutdown(mut self: Box<Self>) {
        if let Some(server) = self.server.take() {
            server.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_lines_different_seed_different_lines() {
        let lines = |seed| -> Vec<String> {
            let shapes = shapes(seed);
            cycle()
                .iter()
                .enumerate()
                .map(|(i, &s)| request_line(&shapes[s], &format!("r{i}")))
                .collect()
        };
        assert_eq!(lines(42), lines(42));
        assert_ne!(lines(42), lines(43));
        // the structure of the cycle does not depend on the seed
        let dims = |seed| -> Vec<(usize, usize, usize)> {
            let shapes = shapes(seed);
            cycle()
                .iter()
                .map(|&s| (shapes[s].m, shapes[s].n, shapes[s].k))
                .collect()
        };
        assert_eq!(dims(42), dims(43));
    }

    #[test]
    fn every_line_is_a_valid_request() {
        let shapes = shapes(7);
        assert_eq!(shapes.len(), 48);
        assert_eq!(
            shapes.iter().filter(|s| s.dtype == Dtype::F32).count(),
            16,
            "every third shape is f32"
        );
        for (i, s) in shapes.iter().enumerate() {
            let line = request_line(s, &format!("w{i}"));
            let req = serve::protocol::parse_request(&line, P, &serve::Limits::default())
                .unwrap_or_else(|e| panic!("{line}: {e}"));
            let serve::Request::Multiply(m) = req else {
                panic!("not a multiply: {line}")
            };
            assert_eq!((m.prob.m, m.prob.n, m.prob.k), (s.m, s.n, s.k));
            assert_eq!(
                (m.seed_a, m.seed_b),
                (s.seed_a, s.seed_b),
                "seeds survive JSON"
            );
            assert_eq!(m.dtype, s.dtype);
        }
    }

    #[test]
    fn cycle_has_the_stated_length_popularity_and_hit_rate() {
        let c = cycle();
        assert_eq!(c.len(), CYCLE_LEN);
        let mut counts = vec![0usize; 48];
        for &s in &c {
            counts[s] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf(1): 128 / (r · H48) = 28.7, 14.4, 9.6, 7.2, 5.7, 4.8
        assert_eq!(&sorted[..6], &[29, 14, 9, 7, 6, 5]);
        let distinct = counts.iter().filter(|&&n| n > 0).count();
        assert_eq!(distinct, 47, "more distinct shapes than cache entries");

        // Steady state: the cache carries over from cycle to cycle.
        let mut cache = Vec::new();
        let cold: Vec<usize> = (0..48).collect();
        lru_pass(&mut cache, CACHE_CAPACITY, &cold);
        lru_pass(&mut cache, CACHE_CAPACITY, &c);
        let (hits, misses) = lru_pass(&mut cache, CACHE_CAPACITY, &c);
        let again = lru_pass(&mut cache, CACHE_CAPACITY, &c);
        assert_eq!((hits, misses), again, "the cycle reaches a fixed point");
        assert_eq!((hits, misses), (STEADY_HITS, CYCLE_LEN - STEADY_HITS));
    }

    /// Cache hits of one steady-state cycle (the README quotes it).
    const STEADY_HITS: usize = 90;
}
