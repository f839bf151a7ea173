//! The repo benchmark: four interleaved workloads, three end-to-end
//! metrics, a per-layer ledger and a traced run. See `README.md` in this
//! directory for what is measured and why.
//!
//! ```text
//! benchmark run       [--seed 42] [--rounds 16] [--block-secs 2.5] [--seconds S]
//!                     [--workload W] [--trace [0|1]] [--quick] [--out-dir DIR]
//! benchmark selfcheck [same options]   two sets side by side, bounds enforced
//! benchmark manifest                   prints /BENCHMARK.json
//! benchmark child …                    one block or probe set (internal)
//! ```

mod driver;
mod host;
mod metrics;
mod probes;
mod rng;
mod span;
mod stats;
mod verify;
mod workloads;

use driver::RunConfig;
use jsonlite::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const DEFAULT_SEED: u64 = 42;
const DEFAULT_ROUNDS: usize = 16;
const DEFAULT_TRACE_ROUNDS: usize = 4;
const DEFAULT_BLOCK_SECS: f64 = 2.5;

struct Args(std::iter::Peekable<std::vec::IntoIter<String>>);

impl Args {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self
            .0
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
    }

    /// `--trace` alone, or followed by `0` / `1`.
    fn switch(&mut self) -> bool {
        match self.0.peek().map(String::as_str) {
            Some("0") => {
                self.0.next();
                false
            }
            Some("1") => {
                self.0.next();
                true
            }
            _ => true,
        }
    }
}

fn parse_run_config(args: &mut Args) -> Result<RunConfig, String> {
    let mut seed = DEFAULT_SEED;
    let mut rounds: Option<usize> = None;
    let mut block_secs: Option<f64> = None;
    let mut seconds: Option<f64> = None;
    let mut workload: Option<String> = None;
    let (mut trace, mut quick, mut inject_fault) = (false, false, false);
    let mut out_dir = PathBuf::from("benchmark/out");
    while let Some(arg) = args.0.next() {
        match arg.as_str() {
            "--seed" => seed = args.value("--seed")?,
            "--rounds" => rounds = Some(args.value("--rounds")?),
            "--block-secs" => block_secs = Some(args.value("--block-secs")?),
            "--seconds" => seconds = Some(args.value("--seconds")?),
            "--workload" => workload = Some(args.value("--workload")?),
            "--trace" => trace = args.switch(),
            "--quick" => quick = true,
            "--inject-fault" => inject_fault = true,
            "--out-dir" => out_dir = PathBuf::from(args.value::<String>("--out-dir")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (want one of {})",
                workloads::NAMES.join(", ")
            ));
        }
    }
    let (mut rounds, mut block_secs) = (
        rounds.unwrap_or(if trace {
            DEFAULT_TRACE_ROUNDS
        } else {
            DEFAULT_ROUNDS
        }),
        block_secs.unwrap_or(DEFAULT_BLOCK_SECS),
    );
    if quick {
        (rounds, block_secs) = (2, 1.0);
    }
    if let Some(secs) = seconds {
        // `--seconds` is the timed-op budget per workload. A traced run
        // spends it on an untraced and a traced block per round, and on no
        // more than its default number of rounds: its probes cost wall
        // time on top. Rounds are cut to fit, the block is not — unless the
        // budget itself is shorter than one block.
        if secs.is_nan() || secs <= 0.0 {
            return Err("--seconds must be positive".to_owned());
        }
        let per_workload = if trace { secs / 2.0 } else { secs };
        if per_workload < block_secs {
            (rounds, block_secs) = (1, per_workload);
        } else {
            rounds = (per_workload / block_secs).floor() as usize;
            if trace {
                rounds = rounds.min(DEFAULT_TRACE_ROUNDS);
            }
        }
    }
    if rounds == 0 || block_secs.is_nan() || block_secs <= 0.0 {
        return Err("--rounds and --block-secs must be positive".to_owned());
    }
    Ok(RunConfig {
        seed,
        rounds,
        block_secs,
        workloads: workload.map_or_else(
            || workloads::NAMES.iter().map(|w| (*w).to_owned()).collect(),
            |w| vec![w],
        ),
        trace,
        inject_fault,
        out_dir,
    })
}

fn cmd_run(args: &mut Args) -> Result<ExitCode, String> {
    let cfg = parse_run_config(args)?;
    let outcome = driver::run_protocol(&cfg)?;
    driver::print_report(&cfg, &outcome);
    let path = driver::write_result(&cfg, &outcome)?;
    println!("\nresult file: {}", path.display());
    if cfg.trace {
        println!(
            "chrome traces: {}/trace_<workload>.json",
            cfg.out_dir.display()
        );
    }
    let line = driver::result_line(&cfg, &outcome);
    println!("{line}");
    let correct = line.get("correct").and_then(Json::as_bool) == Some(true);
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_child(args: &mut Args, entry: Instant) -> Result<ExitCode, String> {
    let workload: String = args.value("child")?;
    let mut seed = DEFAULT_SEED;
    let mut block_secs = DEFAULT_BLOCK_SECS;
    let (mut trace, mut inject_fault, mut probe) = (false, false, false);
    let mut trace_out = None;
    while let Some(arg) = args.0.next() {
        match arg.as_str() {
            "--seed" => seed = args.value("--seed")?,
            "--block-secs" => block_secs = args.value("--block-secs")?,
            "--trace" => trace = true,
            "--trace-out" => trace_out = Some(PathBuf::from(args.value::<String>("--trace-out")?)),
            "--inject-fault" => inject_fault = true,
            "--probe" => probe = true,
            other => return Err(format!("unknown child argument {other:?}")),
        }
    }
    let line = if probe {
        let probes = probes::run(&workload, seed)?;
        Json::obj([(
            "probes",
            Json::obj(probes.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        )])
    } else {
        workloads::run_block(
            &workloads::BlockArgs {
                workload,
                seed,
                block_secs,
                trace,
                trace_out,
                inject_fault,
            },
            entry,
        )?
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let entry = Instant::now();
    let mut args = Args(
        std::env::args()
            .skip(1)
            .collect::<Vec<_>>()
            .into_iter()
            .peekable(),
    );
    let outcome = match args.0.next().as_deref() {
        Some("run") => cmd_run(&mut args),
        Some("selfcheck") => parse_run_config(&mut args).and_then(|cfg| {
            if cfg.trace {
                return Err("selfcheck compares end-to-end metrics: run it untraced".to_owned());
            }
            driver::selfcheck(&cfg).map(|()| ExitCode::SUCCESS)
        }),
        Some("child") => cmd_child(&mut args, entry),
        Some("manifest") => {
            println!("{}", metrics::manifest().to_string_pretty());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "usage: benchmark run|selfcheck|manifest [options] (got {other:?})"
        )),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
