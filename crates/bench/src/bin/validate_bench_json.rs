//! CI guard over `BENCH_*.json` files:
//!
//! ```text
//! validate_bench_json <path> [<baseline-label> <subject-label> <min-ratio>]
//! validate_bench_json --gemm-tiers <path>
//! ```
//!
//! Reads the file and checks it with [`validate_bench_json`], which
//! documents the rules: the shared shape always; with the triple, subject
//! `gflops` ≥ `min-ratio` × baseline `gflops` (the `gemm-bench-smoke`
//! job's same-machine ratios); with `--gemm-tiers`, the committed
//! `BENCH_gemm.json` contract, which a root test also checks on `results/`.
//!
//! [`validate_bench_json`]: bench::timing::validate_bench_json

use bench::timing::validate_bench_json;
use jsonlite::Json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, gemm_tiers, ratio) = match args.as_slice() {
        [flag, path] if flag == "--gemm-tiers" => (path, true, None),
        [path] => (path, false, None),
        [path, base, subject, min_ratio] => match min_ratio.parse::<f64>() {
            Ok(min) => (path, false, Some((base.as_str(), subject.as_str(), min))),
            Err(_) => {
                eprintln!("validate_bench_json: min-ratio {min_ratio:?} is not a number");
                return ExitCode::FAILURE;
            }
        },
        _ => {
            eprintln!(
                "usage: validate_bench_json <path> [<baseline-label> <subject-label> <min-ratio>]\n\
                 \x20      validate_bench_json --gemm-tiers <path>"
            );
            return ExitCode::FAILURE;
        }
    };
    let checked = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|text| Json::parse(&text).map_err(|e| format!("not valid JSON: {e}")))
        .and_then(|doc| validate_bench_json(&doc, gemm_tiers, ratio));
    match checked {
        Ok(found) => {
            for line in found.lines() {
                println!("{path}: {line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate_bench_json: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
