//! Server-side statistics: request counters, queue depth, and per-shape
//! latency histograms — everything the `stats` endpoint reports.

use jsonlite::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A log2-bucketed latency histogram in microseconds: bucket `i` counts
/// latencies in `[2^i, 2^(i+1))` µs (bucket 0 also catches sub-µs).
#[derive(Clone, Debug, Default)]
pub struct LatencyHist {
    buckets: [u64; 32],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl LatencyHist {
    /// Records one latency.
    pub fn record(&mut self, micros: u64) {
        let b = (u64::BITS - micros.max(1).leading_zeros() - 1).min(31) as usize;
        self.buckets[b] += 1;
        self.count += 1;
        self.sum_us += micros;
        self.max_us = self.max_us.max(micros);
    }

    /// Number of recorded latencies.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Upper edge (µs) of the bucket containing the q-quantile
    /// (`0 < q <= 1`) — a conservative percentile estimate.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let want = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= want {
                return 1u64 << (i + 1);
            }
        }
        self.max_us
    }

    fn to_json(&self) -> Json {
        let top = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("mean_us", Json::Num(self.mean_us())),
            ("max_us", Json::Num(self.max_us as f64)),
            ("p50_us", Json::Num(self.quantile_us(0.5) as f64)),
            ("p99_us", Json::Num(self.quantile_us(0.99) as f64)),
            (
                "buckets_us_log2",
                Json::Arr(
                    self.buckets[..top]
                        .iter()
                        .map(|&c| Json::Num(c as f64))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Process-wide serving counters. All methods take `&self`; the per-shape
/// map sits behind a mutex, the scalars are atomics.
pub struct ServerStats {
    started: Instant,
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    queue_depth: AtomicUsize,
    active_slots: AtomicUsize,
    per_shape: Mutex<BTreeMap<String, LatencyHist>>,
}

impl ServerStats {
    pub fn new() -> ServerStats {
        ServerStats {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            active_slots: AtomicUsize::new(0),
            per_shape: Mutex::new(BTreeMap::new()),
        }
    }

    /// Counts a received request (any command).
    pub fn on_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an error response.
    pub fn on_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed multiply: its end-to-end latency under its
    /// shape label.
    pub fn on_done(&self, shape: &str, micros: u64) {
        self.ok.fetch_add(1, Ordering::Relaxed);
        let mut map = self
            .per_shape
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        map.entry(shape.to_owned()).or_default().record(micros);
    }

    /// Queue depth gauge.
    pub fn queue_enter(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Queue depth gauge: one request left the queue.
    pub fn queue_leave(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Busy-slot gauge.
    pub fn slot_busy(&self) {
        self.active_slots.fetch_add(1, Ordering::Relaxed);
    }

    /// Busy-slot gauge.
    pub fn slot_idle(&self) {
        self.active_slots.fetch_sub(1, Ordering::Relaxed);
    }

    /// Currently executing slots.
    pub fn active_slots(&self) -> usize {
        self.active_slots.load(Ordering::Relaxed)
    }

    /// Completed multiplies.
    pub fn completed(&self) -> u64 {
        self.ok.load(Ordering::Relaxed)
    }

    /// The `stats` response body (minus the cache block, which the caller
    /// merges in).
    pub fn to_json(&self, slots_total: usize) -> Json {
        let shapes: Vec<(String, Json)> = self
            .per_shape
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        Json::obj([
            (
                "uptime_secs",
                Json::Num(self.started.elapsed().as_secs_f64()),
            ),
            (
                "gemm_kernel",
                Json::Str(dense::kernel::gemm_kernel().name().to_owned()),
            ),
            ("queue_depth", Json::Num(self.queue_depth() as f64)),
            (
                "slots",
                Json::obj([
                    ("total", Json::Num(slots_total as f64)),
                    ("active", Json::Num(self.active_slots() as f64)),
                ]),
            ),
            (
                "requests",
                Json::obj([
                    (
                        "total",
                        Json::Num(self.requests.load(Ordering::Relaxed) as f64),
                    ),
                    ("ok", Json::Num(self.ok.load(Ordering::Relaxed) as f64)),
                    (
                        "error",
                        Json::Num(self.errors.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
            ("shapes", Json::obj(shapes)),
        ])
    }
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHist::default();
        for us in [1, 1, 2, 3, 900, 1000] {
            h.record(us);
        }
        assert_eq!(h.count(), 6);
        assert!(h.mean_us() > 300.0);
        // p50 falls in the low buckets, p99 in the ~1ms bucket
        assert!(h.quantile_us(0.5) <= 4);
        assert!(h.quantile_us(0.99) >= 1024);
        assert_eq!(h.quantile_us(1.0), h.quantile_us(0.999));
    }

    #[test]
    fn zero_latency_is_counted() {
        let mut h = LatencyHist::default();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_us(0.5), 2);
    }

    #[test]
    fn stats_json_shape() {
        let s = ServerStats::new();
        s.on_request();
        s.on_done("8x8x8/f64", 150);
        let j = s.to_json(2);
        assert_eq!(
            j.get("requests")
                .and_then(|r| r.get("ok"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        assert!(j.get("shapes").and_then(|s| s.get("8x8x8/f64")).is_some());
        assert_eq!(
            j.get("gemm_kernel").and_then(Json::as_str),
            Some(dense::kernel::gemm_kernel().name())
        );
    }
}
