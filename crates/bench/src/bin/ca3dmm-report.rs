//! `ca3dmm-report`: reads the versioned `RunReport` JSON artifacts that the
//! fig/bench binaries write (`--report-out`) and turns them into something a
//! human — or a test — can act on.
//!
//! ```text
//! ca3dmm-report show    <report.json>
//! ca3dmm-report netdiff <report.json> [--max-bytes-err PCT] [--max-secs-err PCT] [--max-msgs-err PCT]
//! ca3dmm-report gate    <reference.json> <subject.json> [--time-ratio R]
//! ```
//!
//! The subcommands are `bench::report::{show, netdiff, gate}` (documented
//! there); this binary parses the arguments, reads the files, prints the
//! result and exits nonzero on an error. The root test
//! `tests/committed_artifacts.rs` calls the same functions on the committed
//! artifacts in `results/`.

use bench::report::{gate, netdiff, show, NetdiffLimits};
use std::process::ExitCode;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The numeric value of option `name`.
fn value(v: Option<&String>, name: &str) -> Result<f64, String> {
    v.and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| format!("{name} requires a numeric value"))
}

fn netdiff_cmd(path: &str, opts: &[String]) -> Result<String, String> {
    let mut limits = NetdiffLimits::default();
    let mut it = opts.iter();
    while let Some(opt) = it.next() {
        let slot = match opt.as_str() {
            "--max-bytes-err" => &mut limits.bytes_pct,
            "--max-secs-err" => &mut limits.secs_pct,
            "--max-msgs-err" => &mut limits.msgs_pct,
            other => return Err(format!("unknown netdiff option {other}")),
        };
        *slot = Some(value(it.next(), opt)?);
    }
    netdiff(&read(path)?, limits).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: ca3dmm-report show <report.json>\n\
                 \x20      ca3dmm-report netdiff <report.json> [--max-bytes-err PCT] [--max-secs-err PCT] [--max-msgs-err PCT]\n\
                 \x20      ca3dmm-report gate <reference.json> <subject.json> [--time-ratio R]";
    let result = match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("show", [path])) => {
            read(path).and_then(|t| show(&t).map_err(|e| format!("{path}: {e}")))
        }
        Some(("netdiff", [path, opts @ ..])) => netdiff_cmd(path, opts),
        Some(("gate", [a, b, time @ ..])) => {
            let time_ratio = match time {
                [] => Ok(None),
                [flag, r] if flag == "--time-ratio" => value(Some(r), flag).map(Some),
                _ => Err(usage.to_owned()),
            };
            time_ratio.and_then(|t| {
                gate(&read(a)?, &read(b)?, t).map(|ok| format!("{ok} ({b} vs {a})\n"))
            })
        }
        _ => Err(usage.to_owned()),
    };
    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ca3dmm-report: {e}");
            ExitCode::FAILURE
        }
    }
}
