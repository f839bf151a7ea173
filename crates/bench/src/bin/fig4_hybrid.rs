//! Figure 4: pure MPI (24 ranks/node, 1 core each) versus MPI + OpenMP
//! hybrid (1 rank/node, 24 threads) for the four problem classes,
//! library-native layouts. Reports % of peak over total core count.
//!
//! ```text
//! cargo run --release -p bench --bin fig4_hybrid
//! ```

use bench::{percent_of_peak, predict, Algo, RunConfig, CPU_CLASSES, CPU_SWEEP};
use gridopt::Problem;
use netmodel::Machine;

fn main() {
    let machine = Machine::phoenix_cpu();
    let pure = machine.pure_mpi();
    let hybrid = machine.hybrid();
    println!(
        "Figure 4: pure MPI vs MPI+OpenMP, % of peak ({})\n",
        machine.name
    );
    let mut csv = String::from(
        "class,cores,cosma_pure,cosma_hybrid,ca3dmm_pure,ca3dmm_hybrid,ctf_pure,ctf_hybrid\n",
    );

    for (name, m, n, k) in CPU_CLASSES {
        println!("--- {name} ---");
        println!(
            "{:>6} | {:>12} {:>12} | {:>12} {:>12} | {:>10} {:>10}",
            "cores", "COSMA pure", "COSMA hyb", "CA3D pure", "CA3D hyb", "CTF pure", "CTF hyb"
        );
        for cores in CPU_SWEEP {
            let nodes = cores / machine.cores_per_node;
            let prob_pure = Problem::new(m, n, k, cores);
            let prob_hyb = Problem::new(m, n, k, nodes);
            let pct = |algo: Algo, hybrid_mode: bool| {
                let (prob, placement) = if hybrid_mode {
                    (&prob_hyb, hybrid)
                } else {
                    (&prob_pure, pure)
                };
                let cfg = RunConfig {
                    placement,
                    custom_layout: false,
                };
                let r = predict(&machine, algo, prob, &cfg);
                percent_of_peak(&machine, prob, &placement, r.total_s)
            };
            let vals = [
                pct(Algo::Cosma, false),
                pct(Algo::Cosma, true),
                pct(Algo::Ca3dmm, false),
                pct(Algo::Ca3dmm, true),
                pct(Algo::Ctf, false),
                pct(Algo::Ctf, true),
            ];
            println!(
                "{:>6} | {:>11.1}% {:>11.1}% | {:>11.1}% {:>11.1}% | {:>9.1}% {:>9.1}%",
                cores, vals[0], vals[1], vals[2], vals[3], vals[4], vals[5],
            );
            let cols: Vec<String> = vals.iter().map(|v| format!("{v:.2}")).collect();
            csv += &format!("{},{},{}\n", name.trim(), cores, cols.join(","));
        }
        println!();
    }
    bench::write_csv("fig4", &csv);
    println!("Shape checks (paper Fig. 4):");
    println!(" * square: pure MPI beats hybrid for COSMA and CA3DMM");
    println!("   (24 ranks/node saturate the NIC; 1 rank/node cannot);");
    println!(" * large-K / large-M: hybrid wins (one small collective in a");
    println!("   much smaller group dominates; fewer ranks = less traffic);");
    println!(" * flat: hybrid also ahead.");
}
