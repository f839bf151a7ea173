//! CI guard over `BENCH_*.json` files.
//!
//! Usage:
//!
//! ```text
//! validate_bench_json <path> [<baseline-label> <subject-label> <min-ratio>]
//! validate_bench_json --gemm-tiers <path>
//! ```
//!
//! Always checks that the file parses as the shared [`BenchReport`] shape
//! (`bench` / `samples` / `entries[]` with `label` + timing fields). With
//! the optional triple, additionally asserts that the subject entry's
//! `gflops` is at least `min-ratio` times the baseline entry's — the
//! `gemm-bench-smoke` job uses this as a coarse anti-regression guard
//! (packed kernel ≥ 5× naive at 512³ and tauto ≥ 2.5× t1 at 1024³),
//! deliberately a ratio rather than a flaky absolute threshold.
//!
//! `--gemm-tiers` additionally enforces the full GEMM artifact contract on
//! a committed `BENCH_gemm.json`: every `(shape, type)` the blocked kernel
//! was benchmarked at must carry the complete `t1/t2/t4/tauto` thread-tier
//! sweep, and every multi-thread tier must record `gflops`, `threads`, and
//! `scaling_efficiency`. This is what stops the artifact from silently
//! regressing to t1-only entries again. Every blocked-kernel entry
//! (`packed…/`) must also carry a non-empty string `kernel` annotation
//! naming the dispatched microkernel, and a pinned head-to-head entry
//! (`packed_avx2/…` etc.) must have an annotation matching its label. It
//! also requires at least one `packed_prof/...` entry whose
//! `prof_overhead_pct` (profiled-vs-unprofiled cost of the `dense::prof`
//! capture path, measured as interleaved pairs compared min-to-min with
//! adaptive extension so shared-host drift cancels) is finite and below
//! 5%. Finally it requires the two memory-pass entries of the serving path
//! (`operand_gen/global_block-f64-1024x1024`, `serve_digest/f64-1024x1024`),
//! each with a positive `gbs` beside the same run's `memcpy_gbs`.
//!
//! `RunReport` artifacts are validated by `ca3dmm-report show`, which reads
//! them with the one parser, `msgpass::RunReportDoc::parse`.
//!
//! [`BenchReport`]: bench::timing::BenchReport

use jsonlite::Json;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("validate_bench_json: {msg}");
    ExitCode::FAILURE
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

/// The `--gemm-tiers` contract: thread tiers every blocked-kernel shape
/// must carry, and the extra fields each multi-thread tier must record.
fn validate_gemm_tiers(path: &str, entries: &[Json]) -> Result<(), String> {
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
                        "{path}: entry {label:?} lacks the \"kernel\" annotation \
                         (which microkernel was dispatched?)"
                    ));
                }
                match pin.strip_prefix('_') {
                    Some(pinned) if pinned != "prof" && pinned != kernel => {
                        return Err(format!(
                            "{path}: entry {label:?} is pinned to {pinned:?} but its \
                             kernel annotation says {kernel:?}"
                        ));
                    }
                    _ => {}
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
                match v {
                    Some(v) if v.is_finite() && v > 0.0 => {}
                    _ => {
                        return Err(format!(
                            "{path}: entry {label:?} lacks a positive numeric {field:?}"
                        ))
                    }
                }
            }
        }
    }
    if tiers_by_case.is_empty() {
        return Err(format!(
            "{path}: no packed/<shape>/<type>/tN entries at all"
        ));
    }
    for (case, tiers) in &tiers_by_case {
        for required in REQUIRED_TIERS {
            if !tiers.iter().any(|t| t == required) {
                return Err(format!(
                    "{path}: packed/{case} is missing thread tier {required:?} \
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
                "{path}: entry {label:?} lacks a numeric \"prof_overhead_pct\""
            ));
        };
        if !pct.is_finite() || pct >= 5.0 {
            return Err(format!(
                "{path}: entry {label:?} records {pct:.2}% profiling overhead (limit 5%)"
            ));
        }
        overheads += 1;
    }
    if overheads == 0 {
        return Err(format!(
            "{path}: no packed_prof entry with \"prof_overhead_pct\" — the \
             profiling-overhead measurement is missing from the artifact"
        ));
    }

    // The serving path's memory passes: throughput beside its memcpy bound.
    // Presence only — the digest is a latency chain (4 cycles an element),
    // so its share of memcpy bandwidth is a property of the host.
    for label in [
        "operand_gen/global_block-f64-1024x1024",
        "serve_digest/f64-1024x1024",
    ] {
        for field in ["gbs", "memcpy_gbs"] {
            let v = entry_field(entries, label, field).map_err(|e| format!("{path}: {e}"))?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{path}: entry {label:?} has {field:?} = {v}"));
            }
        }
    }

    println!(
        "{path}: {} packed shape/type cases, all with t1/t2/t4/tauto tiers and scaling \
         fields; {overheads} profiled entries within the 5% overhead bound; \
         operand_gen and serve_digest report GB/s beside memcpy",
        tiers_by_case.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, ratio_check, gemm_tiers) = match args.as_slice() {
        [flag, path] if flag == "--gemm-tiers" => (path.clone(), None, true),
        [path] => (path.clone(), None, false),
        [path, base, subject, min_ratio] => {
            let Ok(min_ratio) = min_ratio.parse::<f64>() else {
                return fail(&format!("min-ratio {min_ratio:?} is not a number"));
            };
            (
                path.clone(),
                Some((base.clone(), subject.clone(), min_ratio)),
                false,
            )
        }
        _ => return fail(
            "usage: validate_bench_json <path> [<baseline-label> <subject-label> <min-ratio>]\n\
                 \x20      validate_bench_json --gemm-tiers <path>",
        ),
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => return fail(&format!("{path} is not valid JSON: {e}")),
    };

    let Some(bench_name) = json.get("bench").and_then(Json::as_str) else {
        return fail(&format!("{path}: missing string field \"bench\""));
    };
    if json.get("samples").and_then(Json::as_f64).is_none() {
        return fail(&format!("{path}: missing numeric field \"samples\""));
    }
    let Some(Json::Arr(entries)) = json.get("entries") else {
        return fail(&format!("{path}: missing array field \"entries\""));
    };
    if entries.is_empty() {
        return fail(&format!("{path}: \"entries\" is empty"));
    }
    for (i, e) in entries.iter().enumerate() {
        if e.get("label").and_then(Json::as_str).is_none() {
            return fail(&format!("{path}: entry {i} has no string \"label\""));
        }
        for field in ["min_s", "median_s", "p95_s", "mean_s"] {
            if e.get(field).and_then(Json::as_f64).is_none() {
                return fail(&format!("{path}: entry {i} has no numeric {field:?}"));
            }
        }
    }
    println!(
        "{path}: bench {bench_name:?}, {} entries, shape OK",
        entries.len()
    );

    if gemm_tiers {
        if let Err(e) = validate_gemm_tiers(&path, entries) {
            return fail(&e);
        }
    }

    if let Some((base, subject, min_ratio)) = ratio_check {
        let base_g = match entry_field(entries, &base, "gflops") {
            Ok(v) => v,
            Err(e) => return fail(&format!("{path}: {e}")),
        };
        let subj_g = match entry_field(entries, &subject, "gflops") {
            Ok(v) => v,
            Err(e) => return fail(&format!("{path}: {e}")),
        };
        let ratio = subj_g / base_g;
        println!(
            "{subject} = {subj_g:.2} Gop/s, {base} = {base_g:.2} Gop/s, ratio {ratio:.2}x (need >= {min_ratio}x)"
        );
        // `>= is false` rather than `< is true`: a NaN ratio must fail.
        if matches!(
            ratio.partial_cmp(&min_ratio),
            None | Some(std::cmp::Ordering::Less)
        ) {
            return fail(&format!("ratio {ratio:.2}x below required {min_ratio}x"));
        }
    }
    ExitCode::SUCCESS
}
