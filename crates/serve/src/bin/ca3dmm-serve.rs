//! The `ca3dmm-serve` daemon binary.
//!
//! ```text
//! ca3dmm-serve [--p N] [--slots N] [--cache-cap N]
//!              [--listen stdio|tcp:HOST:PORT|unix:PATH]
//!              [--report-dir DIR]
//!              [--max-dim N] [--max-total-elems N] [--max-line-bytes N]
//! ```
//!
//! Serves NDJSON multiply requests (see `DESIGN.md` §11) until EOF or a
//! `shutdown` command, then runs what is still queued and exits 0.

use serve::server::{run, Listen, ServerConfig};

const USAGE: &str = "usage: ca3dmm-serve [--p N] [--slots N] [--cache-cap N]
                    [--listen stdio|tcp:HOST:PORT|unix:PATH] [--report-dir DIR]
                    [--max-dim N] [--max-total-elems N] [--max-line-bytes N]";

fn fail(msg: &str) -> ! {
    eprintln!("ca3dmm-serve: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            return;
        }
        let Some(value) = args.next() else {
            fail(&format!("{flag} needs a value"));
        };
        let uint = || -> usize {
            value.parse::<usize>().unwrap_or_else(|_| {
                fail(&format!("{flag} wants an unsigned integer, got {value:?}"))
            })
        };
        match flag.as_str() {
            "--p" => cfg.sched.p = uint().max(1),
            "--slots" => cfg.sched.slots = uint().max(1),
            "--cache-cap" => cfg.sched.cache_capacity = uint().max(1),
            "--report-dir" => {
                let dir = std::path::PathBuf::from(&value);
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    fail(&format!("cannot create report dir {value:?}: {e}"));
                }
                cfg.sched.report_dir = Some(dir);
            }
            "--listen" => match Listen::parse(&value) {
                Ok(l) => cfg.listen = l,
                Err(e) => fail(&e),
            },
            "--max-dim" => cfg.limits.max_dim = uint().max(1),
            "--max-total-elems" => cfg.limits.max_total_elems = uint().max(1) as u128,
            "--max-line-bytes" => cfg.limits.max_line_bytes = uint().max(1),
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    eprintln!(
        "ca3dmm-serve: p={} slots={} cache={} listen={:?}",
        cfg.sched.p, cfg.sched.slots, cfg.sched.cache_capacity, cfg.listen
    );
    if let Err(e) = run(&cfg) {
        eprintln!("ca3dmm-serve: transport error: {e}");
        std::process::exit(1);
    }
}
