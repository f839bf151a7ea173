//! Figure 3: strong scaling of COSMA, CA3DMM, and CTF for the four problem
//! classes, pure MPI (one rank per core), native vs 1D-column ("custom")
//! matrix layouts. Reports the achieved percentage of machine peak, as the
//! paper plots.
//!
//! ```text
//! cargo run --release -p bench --bin fig3_strong_scaling
//! ```

use bench::{percent_of_peak, predict, Algo, RunConfig, CPU_CLASSES, CPU_SWEEP};
use gridopt::Problem;
use netmodel::Machine;

fn main() {
    let machine = Machine::phoenix_cpu();
    let placement = machine.pure_mpi();
    println!("Figure 3: strong scaling, % of peak ({})", machine.name);
    println!("All series pure MPI: 1 rank/core, 24 ranks/node.\n");
    let mut csv =
        String::from("class,cores,cosma_native,cosma_custom,ca3dmm_native,ca3dmm_custom,ctf\n");

    for (name, m, n, k) in CPU_CLASSES {
        println!("--- {name} ---");
        println!(
            "{:>6} | {:>13} {:>13} {:>13} {:>13} {:>9}",
            "cores", "COSMA native", "COSMA custom", "CA3DMM native", "CA3DMM custom", "CTF"
        );
        for p in CPU_SWEEP {
            let prob = Problem::new(m, n, k, p);
            let pct = |algo: Algo, custom: bool| {
                let cfg = RunConfig {
                    placement,
                    custom_layout: custom,
                };
                let r = predict(&machine, algo, &prob, &cfg);
                percent_of_peak(&machine, &prob, &placement, r.total_s)
            };
            let vals = [
                pct(Algo::Cosma, false),
                pct(Algo::Cosma, true),
                pct(Algo::Ca3dmm, false),
                pct(Algo::Ca3dmm, true),
                pct(Algo::Ctf, false),
            ];
            println!(
                "{:>6} | {:>12.1}% {:>12.1}% {:>12.1}% {:>12.1}% {:>8.1}%",
                p, vals[0], vals[1], vals[2], vals[3], vals[4],
            );
            let cols: Vec<String> = vals.iter().map(|v| format!("{v:.2}")).collect();
            csv += &format!("{},{},{}\n", name.trim(), p, cols.join(","));
        }
        println!();
    }
    bench::write_csv("fig3", &csv);
    println!("Shape checks (paper Fig. 3):");
    println!(" * COSMA and CA3DMM native scale well on every class;");
    println!(" * CA3DMM >= COSMA on square and flat, ~equal on large-K/M;");
    println!(" * custom 1D layouts hurt, worst for the tall-skinny classes;");
    println!(" * CTF trails on every class.");
}
