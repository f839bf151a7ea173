//! Minimal timing harness for the `benches/` binaries.
//!
//! The workspace builds fully offline, so the benches use this
//! dependency-free sampler instead of criterion: warm up once, take N wall
//! timed samples (N ≥ 5 by default), report min / median / p95 / mean.
//! `BENCH_SAMPLES` overrides the sample count (set it to 3 in CI smoke
//! runs; statistical quality is not the point there).
//!
//! Every bench binary also records its results into a [`BenchReport`] and
//! writes them as `BENCH_<name>.json` — one shared shape (see
//! [`BenchReport::to_json`]) so `BENCH_gemm.json` and future baselines can
//! be diffed mechanically; [`validate_bench_json`] checks it (the
//! `validate_bench_json` binary in CI, a root test on `results/`).

use jsonlite::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Default number of timed samples per benchmark.
pub const DEFAULT_SAMPLES: usize = 10;

/// Sample count: `BENCH_SAMPLES` env var, else [`DEFAULT_SAMPLES`].
pub fn samples() -> usize {
    std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_SAMPLES)
}

/// One benchmark's sample statistics, in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Stats {
    /// Fastest sample.
    pub min_s: f64,
    /// Median sample.
    pub median_s: f64,
    /// 95th-percentile sample (nearest-rank; the slowest sample when fewer
    /// than 20 samples were taken).
    pub p95_s: f64,
    /// Arithmetic mean.
    pub mean_s: f64,
}

/// Times `f` (one warmup + [`samples`] timed runs) and returns the stats.
pub fn time<F: FnMut()>(mut f: F) -> Stats {
    f(); // warmup
    let n = samples();
    let mut secs: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    // Nearest-rank percentile: ceil(0.95 n) - 1.
    let p95_idx = ((0.95 * n as f64).ceil() as usize).clamp(1, n) - 1;
    Stats {
        min_s: secs[0],
        median_s: secs[n / 2],
        p95_s: secs[p95_idx],
        mean_s: secs.iter().sum::<f64>() / n as f64,
    }
}

/// Times `f` and prints one aligned report line; returns the stats.
pub fn bench<F: FnMut()>(label: &str, f: F) -> Stats {
    let s = time(f);
    println!(
        "{label:<40} min {:>12} med {:>12} p95 {:>12} mean {:>12}",
        fmt_secs(s.min_s),
        fmt_secs(s.median_s),
        fmt_secs(s.p95_s),
        fmt_secs(s.mean_s)
    );
    s
}

/// Like [`bench()`] but also reports a throughput from `work / median`
/// (e.g. flops for GEMM benches).
pub fn bench_throughput<F: FnMut()>(label: &str, work: f64, f: F) -> Stats {
    let s = time(f);
    println!(
        "{label:<40} min {:>12} med {:>12} p95 {:>12} {:>14}",
        fmt_secs(s.min_s),
        fmt_secs(s.median_s),
        fmt_secs(s.p95_s),
        format!("{:.2} Gop/s", work / s.median_s / 1e9)
    );
    s
}

fn fmt_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

/// Accumulates one bench binary's results and serializes them in the
/// workspace-wide `BENCH_*.json` shape:
///
/// ```json
/// {
///   "bench": "gemm",
///   "samples": 10,
///   "entries": [
///     {"label": "packed/512x512x512/f64/t1",
///      "min_s": ..., "median_s": ..., "p95_s": ..., "mean_s": ...,
///      "gflops": ...}
///   ]
/// }
/// ```
///
/// `gflops` is present only for throughput entries (work / median). Labels
/// are free-form but the GEMM bench uses `kernel/MxNxK/type/tN` so the CI
/// validator can address entries positionally. Entries may carry extra
/// numeric fields (e.g. `scaling_efficiency`, `threads` on the GEMM
/// multi-thread tiers) via [`BenchReport::annotate_last`].
#[derive(Clone, Debug)]
pub struct BenchReport {
    name: String,
    entries: Vec<Entry>,
}

#[derive(Clone, Debug)]
struct Entry {
    label: String,
    stats: Stats,
    gflops: Option<f64>,
    extra: Vec<(String, f64)>,
    extra_str: Vec<(String, String)>,
}

impl BenchReport {
    /// An empty report for the bench binary `name`.
    pub fn new(name: &str) -> Self {
        BenchReport {
            name: name.to_owned(),
            entries: Vec::new(),
        }
    }

    /// Records a timed entry.
    pub fn push(&mut self, label: &str, stats: Stats) {
        self.entries.push(Entry {
            label: label.to_owned(),
            stats,
            gflops: None,
            extra: Vec::new(),
            extra_str: Vec::new(),
        });
    }

    /// Records a throughput entry (`work` in flops/ops; stored as Gop/s of
    /// the median sample).
    pub fn push_throughput(&mut self, label: &str, stats: Stats, work: f64) {
        let gflops = work / stats.median_s / 1e9;
        self.entries.push(Entry {
            label: label.to_owned(),
            stats,
            gflops: Some(gflops),
            extra: Vec::new(),
            extra_str: Vec::new(),
        });
    }

    /// Attaches an extra numeric field to the most recently pushed entry —
    /// for derived quantities only known after the run is recorded (the
    /// GEMM bench adds `threads` and `scaling_efficiency` to each
    /// multi-thread tier this way).
    ///
    /// # Panics
    /// If no entry has been pushed yet.
    pub fn annotate_last(&mut self, key: &str, value: f64) {
        self.entries
            .last_mut()
            .expect("annotate_last requires a previously pushed entry")
            .extra
            .push((key.to_owned(), value));
    }

    /// Like [`annotate_last`](Self::annotate_last) but for string-valued
    /// fields — the GEMM bench tags every tier with the dispatched
    /// microkernel name (`kernel`) this way.
    ///
    /// # Panics
    /// If no entry has been pushed yet.
    pub fn annotate_last_str(&mut self, key: &str, value: &str) {
        self.entries
            .last_mut()
            .expect("annotate_last_str requires a previously pushed entry")
            .extra_str
            .push((key.to_owned(), value.to_owned()));
    }

    /// The shared JSON shape (see the type docs).
    pub fn to_json(&self) -> Json {
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                let s = &e.stats;
                let mut pairs = vec![
                    ("label", Json::Str(e.label.clone())),
                    ("min_s", Json::Num(s.min_s)),
                    ("median_s", Json::Num(s.median_s)),
                    ("p95_s", Json::Num(s.p95_s)),
                    ("mean_s", Json::Num(s.mean_s)),
                ];
                if let Some(g) = e.gflops {
                    pairs.push(("gflops", Json::Num(g)));
                }
                let extra: Vec<(&str, Json)> = e
                    .extra
                    .iter()
                    .map(|(k, v)| (k.as_str(), Json::Num(*v)))
                    .chain(
                        e.extra_str
                            .iter()
                            .map(|(k, v)| (k.as_str(), Json::Str(v.clone()))),
                    )
                    .collect();
                pairs.extend(extra);
                Json::obj(pairs)
            })
            .collect();
        Json::obj([
            ("bench", Json::Str(self.name.clone())),
            ("samples", Json::Num(samples() as f64)),
            ("entries", Json::Arr(entries)),
        ])
    }

    /// Where [`write`](Self::write) puts the file: `BENCH_<name>.json`
    /// under `$BENCH_JSON_DIR`, else `results/` when that directory exists
    /// here or in an ancestor, else the current directory. Relative
    /// directories are resolved upward because `cargo bench` runs bench
    /// binaries from the *package* directory (`crates/bench`), not the
    /// workspace root — `BENCH_JSON_DIR=results` should still find the
    /// repo-root `results/`.
    pub fn path(&self) -> PathBuf {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let dir = std::env::var("BENCH_JSON_DIR").map_or_else(
            |_| {
                resolve_upward(&PathBuf::from("results"), &cwd)
                    .unwrap_or_else(|| PathBuf::from("."))
            },
            |d| {
                let d = PathBuf::from(d);
                resolve_upward(&d, &cwd).unwrap_or(d)
            },
        );
        dir.join(format!("BENCH_{}.json", self.name))
    }

    /// Writes the report (pretty JSON) and returns the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = self.path();
        std::fs::write(&path, self.to_json().to_string_pretty())?;
        Ok(path)
    }
}

/// Resolves a relative directory against `cwd` and each of its ancestors,
/// returning the first existing match. Absolute existing directories pass
/// through unchanged; `None` if nothing exists.
fn resolve_upward(dir: &Path, cwd: &Path) -> Option<PathBuf> {
    if dir.is_absolute() {
        return dir.is_dir().then(|| dir.to_path_buf());
    }
    cwd.ancestors()
        .map(|a| a.join(dir))
        .find(|cand| cand.is_dir())
}

/// Checks a `BENCH_*.json` document and returns what it found, one line per
/// check; an error names the first broken rule.
///
/// Always checks the shared [`BenchReport`] shape (`bench` / `samples` /
/// non-empty `entries[]`, each with `label` + timing fields). With
/// `gemm_tiers` it also enforces the committed `BENCH_gemm.json` contract:
/// every `(shape, type)` the blocked kernel was benchmarked at carries the
/// complete `t1/t2/t4/tauto` thread-tier sweep, and every multi-thread tier
/// records a positive `gflops`, `threads` and `scaling_efficiency`; every
/// blocked-kernel entry (`packed…/`) names its dispatched microkernel in
/// `kernel`, matching the label of a pinned head-to-head entry
/// (`packed_avx2/…`); at least one `packed_prof/…` entry records a finite
/// `prof_overhead_pct` below 5 %, and none is above; and the serving path's
/// two memory passes (`operand_gen/global_block-f64-1024x1024`,
/// `serve_digest/f64-1024x1024`) record a positive `gbs` beside the same
/// run's `memcpy_gbs`. With `ratio = (baseline, subject, min)` the subject
/// entry's `gflops` must be at least `min` times the baseline's — a
/// same-machine ratio, not an absolute threshold.
pub fn validate_bench_json(
    doc: &Json,
    gemm_tiers: bool,
    ratio: Option<(&str, &str, f64)>,
) -> Result<String, String> {
    let bench_name = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing string field \"bench\"")?;
    if doc.get("samples").and_then(Json::as_f64).is_none() {
        return Err("missing numeric field \"samples\"".into());
    }
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"entries\"")?;
    if entries.is_empty() {
        return Err("\"entries\" is empty".into());
    }
    for (i, e) in entries.iter().enumerate() {
        if e.get("label").and_then(Json::as_str).is_none() {
            return Err(format!("entry {i} has no string \"label\""));
        }
        for field in ["min_s", "median_s", "p95_s", "mean_s"] {
            if e.get(field).and_then(Json::as_f64).is_none() {
                return Err(format!("entry {i} has no numeric {field:?}"));
            }
        }
    }
    let mut found = format!(
        "bench {bench_name:?}, {} entries, shape OK\n",
        entries.len()
    );
    if gemm_tiers {
        found += &validate_gemm_tiers(entries)?;
    }
    if let Some((base, subject, min_ratio)) = ratio {
        let base_g = entry_field(entries, base, "gflops")?;
        let subj_g = entry_field(entries, subject, "gflops")?;
        let ratio = subj_g / base_g;
        // `>= is false` rather than `< is true`: a NaN ratio must fail.
        if matches!(
            ratio.partial_cmp(&min_ratio),
            None | Some(std::cmp::Ordering::Less)
        ) {
            return Err(format!("ratio {ratio:.2}x below required {min_ratio}x"));
        }
        found += &format!(
            "{subject} = {subj_g:.2} Gop/s, {base} = {base_g:.2} Gop/s, \
             ratio {ratio:.2}x (need >= {min_ratio}x)\n"
        );
    }
    Ok(found)
}

fn entry_field(entries: &[Json], label: &str, field: &str) -> Result<f64, String> {
    let entry = entries
        .iter()
        .find(|e| e.get("label").and_then(Json::as_str) == Some(label))
        .ok_or_else(|| format!("no entry labelled {label:?}"))?;
    entry
        .get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("entry {label:?} has no numeric {field:?} field"))
}

/// The `gemm_tiers` rules of [`validate_bench_json`].
fn validate_gemm_tiers(entries: &[Json]) -> Result<String, String> {
    use std::collections::BTreeMap;
    const REQUIRED_TIERS: [&str; 4] = ["t1", "t2", "t4", "tauto"];

    let mut tiers_by_case: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for e in entries {
        let label = e.get("label").and_then(Json::as_str).unwrap_or_default();
        let parts: Vec<&str> = label.split('/').collect();
        // Every blocked-kernel entry (dispatcher-selected tiers, profiled
        // runs, and pinned head-to-heads alike) must say which microkernel
        // ran; a pinned entry's annotation must agree with its label.
        if let [first, _, _, _] = parts.as_slice() {
            if let Some(pin) = first.strip_prefix("packed") {
                let kernel = e.get("kernel").and_then(Json::as_str).unwrap_or_default();
                if kernel.is_empty() {
                    return Err(format!(
                        "entry {label:?} lacks the \"kernel\" annotation \
                         (which microkernel was dispatched?)"
                    ));
                }
                let pinned = pin.strip_prefix('_').filter(|&p| p != "prof");
                if let Some(pinned) = pinned.filter(|&p| p != kernel) {
                    return Err(format!(
                        "entry {label:?} is pinned to {pinned:?} but its \
                         kernel annotation says {kernel:?}"
                    ));
                }
            }
        }
        let ["packed", shape, ty, tier] = parts.as_slice() else {
            continue;
        };
        tiers_by_case
            .entry(format!("{shape}/{ty}"))
            .or_default()
            .push((*tier).to_owned());
        if *tier != "t1" {
            for field in ["gflops", "threads", "scaling_efficiency"] {
                let v = e.get(field).and_then(Json::as_f64);
                if !v.is_some_and(|v| v.is_finite() && v > 0.0) {
                    return Err(format!(
                        "entry {label:?} lacks a positive numeric {field:?}"
                    ));
                }
            }
        }
    }
    if tiers_by_case.is_empty() {
        return Err("no packed/<shape>/<type>/tN entries at all".into());
    }
    for (case, tiers) in &tiers_by_case {
        for required in REQUIRED_TIERS {
            if !tiers.iter().any(|t| t == required) {
                return Err(format!(
                    "packed/{case} is missing thread tier {required:?} \
                     (has {tiers:?}) — multi-thread sweep regressed to partial tiers"
                ));
            }
        }
    }

    // Profiler-overhead contract: at least one `packed_prof` entry must
    // record `prof_overhead_pct`, and every recorded overhead must stay
    // under 5% — the profiler's capture path regressing into the hot loop
    // shows up here before it shows up in application runs.
    let mut overheads = 0usize;
    for e in entries {
        let label = e.get("label").and_then(Json::as_str).unwrap_or_default();
        if !label.starts_with("packed_prof/") {
            continue;
        }
        let Some(pct) = e.get("prof_overhead_pct").and_then(Json::as_f64) else {
            return Err(format!(
                "entry {label:?} lacks a numeric \"prof_overhead_pct\""
            ));
        };
        if !pct.is_finite() || pct >= 5.0 {
            return Err(format!(
                "entry {label:?} records {pct:.2}% profiling overhead (limit 5%)"
            ));
        }
        overheads += 1;
    }
    if overheads == 0 {
        return Err("no packed_prof entry with \"prof_overhead_pct\" — the \
                    profiling-overhead measurement is missing from the artifact"
            .into());
    }

    // The serving path's memory passes: throughput beside its memcpy bound.
    // Presence only — the digest is a latency chain (4 cycles an element),
    // so its share of memcpy bandwidth is a property of the host.
    for label in [
        "operand_gen/global_block-f64-1024x1024",
        "serve_digest/f64-1024x1024",
    ] {
        for field in ["gbs", "memcpy_gbs"] {
            let v = entry_field(entries, label, field)?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("entry {label:?} has {field:?} = {v}"));
            }
        }
    }

    Ok(format!(
        "{} packed shape/type cases, all with t1/t2/t4/tauto tiers and scaling \
         fields; {overheads} profiled entries within the 5% overhead bound; \
         operand_gen and serve_digest report GB/s beside memcpy\n",
        tiers_by_case.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered() {
        let s = time(|| {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(s.min_s <= s.median_s);
        assert!(s.median_s <= s.p95_s);
        assert!(s.min_s > 0.0);
    }

    #[test]
    fn formatting_covers_ranges() {
        assert!(fmt_secs(2e-9).ends_with("ns"));
        assert!(fmt_secs(2e-5).ends_with("us"));
        assert!(fmt_secs(2e-2).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
    }

    #[test]
    fn report_round_trips_through_jsonlite() {
        let mut rep = BenchReport::new("unit");
        let s = Stats {
            min_s: 1.0,
            median_s: 2.0,
            p95_s: 3.0,
            mean_s: 2.5,
        };
        rep.push("plain", s);
        rep.push_throughput("tput", s, 4e9);
        rep.annotate_last("threads", 4.0);
        rep.annotate_last("scaling_efficiency", 0.9);
        rep.annotate_last_str("kernel", "avx2");
        let text = rep.to_json().to_string_pretty();
        let parsed = Json::parse(&text).expect("report must be valid JSON");
        let Json::Obj(top) = &parsed else {
            panic!("top level must be an object")
        };
        assert_eq!(top.get("bench"), Some(&Json::Str("unit".into())));
        let Some(Json::Arr(entries)) = top.get("entries") else {
            panic!("entries must be an array")
        };
        assert_eq!(entries.len(), 2);
        let Json::Obj(tput) = &entries[1] else {
            panic!("entry must be an object")
        };
        assert_eq!(tput.get("gflops"), Some(&Json::Num(2.0)));
        assert_eq!(tput.get("p95_s"), Some(&Json::Num(3.0)));
        assert_eq!(tput.get("threads"), Some(&Json::Num(4.0)));
        assert_eq!(tput.get("scaling_efficiency"), Some(&Json::Num(0.9)));
        assert_eq!(tput.get("kernel"), Some(&Json::Str("avx2".into())));
    }

    #[test]
    fn resolve_upward_climbs_to_ancestor_dirs() {
        let base =
            std::env::temp_dir().join(format!("bench_timing_resolve_{}", std::process::id()));
        let target = base.join("results");
        let nested = base.join("crates").join("bench");
        std::fs::create_dir_all(&target).unwrap();
        std::fs::create_dir_all(&nested).unwrap();

        // From the nested package dir, a relative name resolves to the
        // ancestor's existing directory — the `cargo bench` cwd situation.
        assert_eq!(
            resolve_upward(&PathBuf::from("results"), &nested),
            Some(target.clone())
        );
        // A relative name that exists nowhere up the tree stays unresolved.
        assert_eq!(
            resolve_upward(&PathBuf::from("no_such_dir_xyz"), &nested),
            None
        );
        // Absolute paths pass through (when they exist) without climbing.
        assert_eq!(resolve_upward(&target, &nested), Some(target.clone()));

        std::fs::remove_dir_all(&base).unwrap();
    }
}
