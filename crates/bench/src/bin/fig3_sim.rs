//! Figure 3 by *execution*: strong scaling of CA3DMM at p = 192…3072 on the
//! virtual-time backend — the sweep of [`bench::sim`], whose module docs
//! describe the machine, the fixed problem and the model cross-check.
//!
//! ```text
//! cargo run --release -p bench --bin fig3_sim [--out DIR] [--overlap on|off]
//!     [--collectives flat|hier] [--ranks-per-node N] [--ranks P]
//! ```
//!
//! `--overlap off` runs and prices the blocking Cannon ablation instead of
//! the §III-F dual-buffered pipeline. `--collectives hier` routes
//! allgather / reduce-scatter through two-level node-aware variants
//! wherever a communicator spans several nodes with co-located members.
//! `--ranks-per-node N` overrides the placement's 24 ranks/node: at 24/node
//! every replicate- and reduce-group member sits on a distinct node, so fat
//! nodes (e.g. 384) are where the hierarchical variants engage. `--ranks P`
//! simulates one point instead of the sweep.
//!
//! `--out DIR` writes the sweep's CSV, `DIR/{name}.csv`, and the last
//! point's virtual-time `RunReport`, `DIR/REPORT_{name}.json`. Non-default
//! flags suffix the name (see [`bench::sim::fig3_sim`]).
//! The last stdout line is the process's peak resident set
//! (`peak RSS: N MiB`).

use bench::sim::{fig3_sim, SimConfig};
use ca3dmm::Collectives;
use std::path::PathBuf;

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut cfg, mut out) = (SimConfig::default(), None::<PathBuf>);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--out" => out = Some(value("--out").into()),
            "--ranks" => cfg.ranks = Some(value("--ranks").parse().expect("rank count")),
            "--overlap" => {
                cfg.overlap = match value("--overlap").as_str() {
                    "on" => true,
                    "off" => false,
                    other => panic!("--overlap takes on|off, got {other}"),
                }
            }
            "--collectives" => {
                let v = value("--collectives");
                cfg.collectives = Collectives::parse(&v)
                    .unwrap_or_else(|| panic!("--collectives takes flat|hier, got {v}"));
            }
            "--ranks-per-node" => {
                cfg.ranks_per_node =
                    Some(value("--ranks-per-node").parse().expect("ranks per node"))
            }
            other => panic!("unknown argument: {other}"),
        }
    }

    let sweep = fig3_sim(&cfg);
    print!("{}", sweep.table);
    if let Some(dir) = out {
        let name = &sweep.csv_name;
        bench::write_files(
            &dir,
            &[
                (format!("{name}.csv"), sweep.csv),
                (format!("REPORT_{name}.json"), sweep.report),
            ],
        );
    }
    match bench::peak_rss_mib() {
        Some(mib) => println!("peak RSS: {mib:.1} MiB (VmHWM)"),
        None => println!("peak RSS: unavailable (no VmHWM in /proc/self/status)"),
    }
}
