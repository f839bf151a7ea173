//! The paper's analytic evaluation (§IV) as a registry of named entries.
//!
//! Each [`Entry`] evaluates the grid search and the cost model only — no
//! wall time enters its files — and returns the files it owns as
//! `(file name, contents)` pairs: its table `{name}.txt` first, then any
//! CSV series (`fig3_strong_scaling` also owns `fig3.csv`,
//! `fig4_hybrid` owns `fig4.csv`). The `paper` binary prints entries or
//! writes them all into a directory (`paper --out results`), and the root
//! test `tests/committed_artifacts.rs` compares every file with `results/`
//! byte for byte, so the asserts inside `ablation_l` and
//! `ablation_design` run on every test pass.

use crate::{native_model, percent_of_peak, predict, predict_with_grid, Algo, RunConfig};
use crate::{CPU_CLASSES, CPU_SWEEP, GPU_CLASSES};
use baselines::CosmaLike;
use ca3dmm::{ca3dmm_schedule, memory_elements_per_rank, ModelConfig};
use gridopt::{ca3dmm_grid, cosma_grid, Grid, Problem, DEFAULT_UTILIZATION_FLOOR};
use netmodel::eval::evaluate;
use netmodel::Machine;
use std::fmt::Write;

/// One artifact of the paper's evaluation.
#[derive(Debug)]
pub struct Entry {
    /// The stem of the entry's table, `results/{name}.txt`.
    pub name: &'static str,
    /// Computes the entry's files as `(file name, contents)`, the table
    /// `{name}.txt` first.
    pub files: fn() -> Vec<(&'static str, String)>,
}

impl Entry {
    /// The entry's table: the first of its files.
    pub fn table(&self) -> String {
        (self.files)().swap_remove(0).1
    }
}

/// `[Entry { name: "f", files: f }, …]`: an entry is named after its function.
macro_rules! entries {
    ($($files:ident),*) => { [$(Entry { name: stringify!($files), files: $files }),*] };
}

/// Every entry, in the paper's order.
pub static ENTRIES: [Entry; 9] = entries![
    fig3_strong_scaling,
    fig4_hybrid,
    fig5_breakdown,
    table1_memory,
    table2_grids,
    table3_gpu,
    ablation_l,
    ablation_design,
    grid_explorer
];

/// The entry called `name`.
pub fn entry(name: &str) -> Option<&'static Entry> {
    ENTRIES.iter().find(|e| e.name == name)
}

/// Figure 3: strong scaling of COSMA, CA3DMM and CTF for the four problem
/// classes, pure MPI (one rank per core), native vs 1D-column ("custom")
/// matrix layouts, as the percentage of machine peak the paper plots.
fn fig3_strong_scaling() -> Vec<(&'static str, String)> {
    let machine = Machine::phoenix_cpu();
    let placement = machine.pure_mpi();
    let mut out = format!("Figure 3: strong scaling, % of peak ({})\n", machine.name);
    out += "All series pure MPI: 1 rank/core, 24 ranks/node.\n\n";
    let mut csv =
        String::from("class,cores,cosma_native,cosma_custom,ca3dmm_native,ca3dmm_custom,ctf\n");
    for (name, m, n, k) in CPU_CLASSES {
        let _ = writeln!(out, "--- {name} ---");
        let _ = writeln!(
            out,
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
            let _ = writeln!(
                out,
                "{:>6} | {:>12.1}% {:>12.1}% {:>12.1}% {:>12.1}% {:>8.1}%",
                p, vals[0], vals[1], vals[2], vals[3], vals[4],
            );
            let cols: Vec<String> = vals.iter().map(|v| format!("{v:.2}")).collect();
            let _ = writeln!(csv, "{},{},{}", name.trim(), p, cols.join(","));
        }
        out.push('\n');
    }
    out += "Shape checks (paper Fig. 3):\n";
    out += " * COSMA and CA3DMM native scale well on every class;\n";
    out += " * CA3DMM >= COSMA on square and flat, ~equal on large-K/M;\n";
    out += " * custom 1D layouts hurt, worst for the tall-skinny classes;\n";
    out += " * CTF trails on every class.\n";
    vec![("fig3_strong_scaling.txt", out), ("fig3.csv", csv)]
}

/// Figure 4: pure MPI (24 ranks/node, 1 core each) versus MPI + OpenMP
/// hybrid (1 rank/node, 24 threads) for the four problem classes,
/// library-native layouts, as % of peak over the total core count.
fn fig4_hybrid() -> Vec<(&'static str, String)> {
    let machine = Machine::phoenix_cpu();
    let pure = machine.pure_mpi();
    let hybrid = machine.hybrid();
    let mut out = format!(
        "Figure 4: pure MPI vs MPI+OpenMP, % of peak ({})\n\n",
        machine.name
    );
    let mut csv = String::from(
        "class,cores,cosma_pure,cosma_hybrid,ca3dmm_pure,ca3dmm_hybrid,ctf_pure,ctf_hybrid\n",
    );
    for (name, m, n, k) in CPU_CLASSES {
        let _ = writeln!(out, "--- {name} ---");
        let _ = writeln!(
            out,
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
            let _ = writeln!(
                out,
                "{:>6} | {:>11.1}% {:>11.1}% | {:>11.1}% {:>11.1}% | {:>9.1}% {:>9.1}%",
                cores, vals[0], vals[1], vals[2], vals[3], vals[4], vals[5],
            );
            let cols: Vec<String> = vals.iter().map(|v| format!("{v:.2}")).collect();
            let _ = writeln!(csv, "{},{},{}", name.trim(), cores, cols.join(","));
        }
        out.push('\n');
    }
    out += "Shape checks (paper Fig. 4):\n";
    out += " * square: pure MPI beats hybrid for COSMA and CA3DMM\n";
    out += "   (24 ranks/node saturate the NIC; 1 rank/node cannot);\n";
    out += " * large-K / large-M: hybrid wins (one small collective in a\n";
    out += "   much smaller group dominates; fewer ranks = less traffic);\n";
    out += " * flat: hybrid also ahead.\n";
    vec![("fig4_hybrid.txt", out), ("fig4.csv", csv)]
}

/// Figure 5: relative runtime breakdowns of COSMA and CA3DMM for the
/// 2048-core tests of Table II, normalized so COSMA's total is 1 (as in
/// the paper). CA3DMM's "replicate A,B" includes Algorithm 1 step 5 *and*
/// the cost of shifting A and B blocks in Cannon's algorithm, exactly as
/// the paper's caption states.
fn fig5_breakdown() -> Vec<(&'static str, String)> {
    let machine = Machine::phoenix_cpu();
    let cfg = RunConfig {
        placement: machine.pure_mpi(),
        custom_layout: false,
    };
    // Table II, 2048-core rows: both libraries use the same optimal grid.
    let cases: [(&str, usize, usize, usize, Grid); 4] = [
        ("square", 50_000, 50_000, 50_000, Grid::new(8, 16, 16)),
        ("large-K", 6_000, 6_000, 1_200_000, Grid::new(2, 2, 512)),
        ("large-M", 1_200_000, 6_000, 6_000, Grid::new(512, 2, 2)),
        ("flat", 100_000, 100_000, 5_000, Grid::new(32, 32, 2)),
    ];
    let mut out =
        String::from("Figure 5: relative runtime breakdown at 2048 cores (COSMA total = 1)\n\n");
    let _ = writeln!(
        out,
        "{:<9} {:<8} | {:>10} {:>14} {:>10} {:>8}",
        "class", "library", "local comp", "replicate A,B", "reduce C", "total"
    );
    for (name, m, n, k, grid) in cases {
        let prob = Problem::new(m, n, k, 2048);
        let cosma = predict_with_grid(&machine, Algo::Cosma, &prob, &cfg, Some(grid));
        let ca = predict_with_grid(&machine, Algo::Ca3dmm, &prob, &cfg, Some(grid));
        let norm = cosma.total_s;
        // CA3DMM: "replicate A,B" = step-5 allgather + Cannon shift comm;
        // local compute = the GEMM part of the cannon phase.
        let ca_repl =
            ca.label_s("replicate_ab") + ca.by_label.get("cannon").map(|c| c.comm_s).unwrap_or(0.0);
        let ca_comp = ca.by_label.get("cannon").map(|c| c.comp_s).unwrap_or(0.0);
        let co_repl = cosma.label_s("replicate_ab");
        let co_comp = cosma.label_s("local_gemm");
        for (lib, comp, repl, red, total) in [
            (
                "COSMA",
                co_comp,
                co_repl,
                cosma.label_s("reduce_c"),
                cosma.total_s,
            ),
            (
                "CA3DMM",
                ca_comp,
                ca_repl,
                ca.label_s("reduce_c"),
                ca.total_s,
            ),
        ] {
            let _ = writeln!(
                out,
                "{:<9} {:<8} | {:>10.3} {:>14.3} {:>10.3} {:>8.3}",
                name,
                lib,
                comp / norm,
                repl / norm,
                red / norm,
                total / norm
            );
        }
        out.push('\n');
    }
    out += "Paper shape: similar local computation; similar total\n";
    out += "communication (replicate + reduce); CA3DMM total <= COSMA,\n";
    out += "because the Cannon shifts pipeline under the local GEMM.\n";
    vec![("fig5_breakdown.txt", out)]
}

/// Table I: memory usage per process (MB) of COSMA and CA3DMM for the four
/// problem classes and P ∈ {192 … 3072}. COSMA runs with no limit on extra
/// memory; both libraries use library-native distributions, as in the
/// paper.
fn table1_memory() -> Vec<(&'static str, String)> {
    let classes: [(&str, usize, usize, usize); 4] = [
        ("50, 50, 50", 50_000, 50_000, 50_000),
        ("6, 6, 1200", 6_000, 6_000, 1_200_000),
        ("1200, 6, 6", 1_200_000, 6_000, 6_000),
        ("100, 100, 5", 100_000, 100_000, 5_000),
    ];
    let mut out =
        String::from("Table I: memory per process (MB), library-native distributions\n\n");
    let _ = writeln!(
        out,
        "{:<8} {:<14} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "library", "m,n,k (x10^3)", 192, 384, 768, 1536, 3072
    );
    for (lib, is_cosma) in [("COSMA", true), ("CA3DMM", false)] {
        for (name, m, n, k) in classes {
            let mut cols = Vec::new();
            for p in CPU_SWEEP {
                let prob = Problem::new(m, n, k, p);
                let mb = if is_cosma {
                    let alg = CosmaLike::new(prob, None);
                    alg.memory_elements_per_rank() * 8.0 / 1048576.0
                } else {
                    let grid = ca3dmm_grid(&prob, DEFAULT_UTILIZATION_FLOOR).grid;
                    memory_elements_per_rank(&prob, &grid) * 8.0 / 1048576.0
                };
                cols.push(format!("{mb:>8.0}"));
            }
            let _ = writeln!(out, "{:<8} {:<14} {}", lib, name, cols.join(" "));
        }
        out.push('\n');
    }
    out += "Paper shape checks (Table I):\n";
    out += " * square: CA3DMM uses less memory than COSMA at every P;\n";
    out += " * other classes: CA3DMM uses more at small P, but its usage\n";
    out += "   falls faster and crosses below COSMA by P = 1536-3072;\n";
    out += " * CA3DMM shows step drops where the chosen grid changes.\n";
    vec![("table1_memory.txt", out)]
}

/// Table II: COSMA and CA3DMM runtime for different problem dimensions and
/// *process grid dimensions*, at 2048 and 3072 cores. At 2048 both
/// libraries use the (same) optimal grid; at 3072 the paper additionally
/// forces the near-optimal grids shown in italics. Also demonstrates the
/// paper's large-K observation that the theoretically optimal grid
/// `3×3×341` loses to the sub-optimal `4×2×384` because `pk = 341` is
/// unfavourable for the reduce-scatter.
fn table2_grids() -> Vec<(&'static str, String)> {
    let machine = Machine::phoenix_cpu();
    let cfg = RunConfig {
        placement: machine.pure_mpi(),
        custom_layout: false,
    };
    // (cores, class, m, n, k, forced grids to evaluate: None = default)
    #[allow(clippy::type_complexity)]
    let cases: [(usize, &str, usize, usize, usize, &[Option<Grid>]); 8] = [
        (2048, "50,50,50", 50_000, 50_000, 50_000, &[None]),
        (2048, "6,6,1200", 6_000, 6_000, 1_200_000, &[None]),
        (2048, "1200,6,6", 1_200_000, 6_000, 6_000, &[None]),
        (2048, "100,100,5", 100_000, 100_000, 5_000, &[None]),
        (
            3072,
            "50,50,50",
            50_000,
            50_000,
            50_000,
            &[
                None,
                Some(Grid::new(12, 16, 16)),
                Some(Grid::new(16, 16, 12)),
            ],
        ),
        (
            3072,
            "6,6,1200",
            6_000,
            6_000,
            1_200_000,
            &[None, Some(Grid::new(3, 3, 341)), Some(Grid::new(4, 2, 384))],
        ),
        (
            3072,
            "1200,6,6",
            1_200_000,
            6_000,
            6_000,
            &[None, Some(Grid::new(341, 3, 3)), Some(Grid::new(384, 4, 2))],
        ),
        (
            3072,
            "100,100,5",
            100_000,
            100_000,
            5_000,
            &[None, Some(Grid::new(32, 32, 3)), Some(Grid::new(39, 39, 2))],
        ),
    ];
    let mut out = String::from("Table II: runtimes (s) for chosen vs forced process grids\n\n");
    let _ = writeln!(
        out,
        "{:>6} {:<10} | {:>14} {:>10} {:>10}",
        "cores", "m,n,k(e3)", "grid pm,pn,pk", "COSMA", "CA3DMM"
    );
    for (p, name, m, n, k, grids) in cases {
        let prob = Problem::new(m, n, k, p);
        for g in grids {
            let grid = g.unwrap_or_else(|| ca3dmm_grid(&prob, DEFAULT_UTILIZATION_FLOOR).grid);
            // COSMA can run any grid; CA3DMM needs eq. 7. The paper's table
            // uses grids valid for both except where noted.
            let cosma_t = predict_with_grid(&machine, Algo::Cosma, &prob, &cfg, Some(grid)).total_s;
            let ca_t = if grid.cannon_compatible() {
                format!(
                    "{:>10.2}",
                    predict_with_grid(&machine, Algo::Ca3dmm, &prob, &cfg, Some(grid)).total_s
                )
            } else {
                format!("{:>10}", "(eq.7 n/a)")
            };
            let mark = if g.is_none() { "*" } else { " " };
            let _ = writeln!(
                out,
                "{:>6} {:<10} | {:>4},{:>4},{:>4}{} {:>9.2} {}",
                p, name, grid.pm, grid.pn, grid.pk, mark, cosma_t, ca_t
            );
        }
        out.push('\n');
    }
    out += "* = the library's default grid choice.\n";
    out += "Paper shape checks (Table II / §IV-B):\n";
    out += " * with the SAME grid, CA3DMM <= COSMA (up to ~20% faster):\n";
    out += "   the Cannon shifts pipeline under the GEMM while COSMA's\n";
    out += "   allgathers are exposed;\n";
    out += " * large-K: the 'optimal' 3x3x341 grid loses to 4x2x384 —\n";
    out += "   pk = 341 is unfavourable for the reduce-scatter.\n";
    vec![("table2_grids.txt", out)]
}

/// Table III: GPU runs — COSMA, CA3DMM and CTF on 16 and 32 V100 GPUs (one
/// GPU per rank, two per node). The CA3DMM GPU prototype simply offloads
/// local GEMMs to the device (§IV-C), which is exactly what the GPU machine
/// preset models: a much larger per-rank compute rate against the same
/// host network, with the MVAPICH2 reduce-scatter degradation the paper
/// observes on large partial-C blocks.
fn table3_gpu() -> Vec<(&'static str, String)> {
    let machine = Machine::phoenix_gpu();
    let cfg = RunConfig {
        placement: machine.pure_mpi(), // "cores" per node = 2 GPUs
        custom_layout: false,
    };
    let mut out = String::from("Table III: GPU runtimes (s), one V100 per rank, 2 per node\n\n");
    let _ = writeln!(
        out,
        "{:>5} {:<22} | {:>14} {:>8} {:>8} {:>8}",
        "GPUs", "problem", "grid pm,pn,pk", "COSMA", "CA3DMM", "CTF"
    );
    for gpus in [16usize, 32] {
        for (name, m, n, k) in GPU_CLASSES {
            let prob = Problem::new(m, n, k, gpus);
            let grid = ca3dmm_grid(&prob, DEFAULT_UTILIZATION_FLOOR).grid;
            let cosma = predict(&machine, Algo::Cosma, &prob, &cfg).total_s;
            let ca = predict(&machine, Algo::Ca3dmm, &prob, &cfg).total_s;
            let ctf = predict(&machine, Algo::Ctf, &prob, &cfg).total_s;
            let _ = writeln!(
                out,
                "{:>5} {:<22} | {:>4},{:>4},{:>4} {:>8.2} {:>8.2} {:>8.2}",
                gpus, name, grid.pm, grid.pn, grid.pk, cosma, ca, ctf
            );
        }
        out.push('\n');
    }
    out += "Paper shape checks (Table III):\n";
    out += " * COSMA <= CA3DMM on square and large-K (the k-dimension\n";
    out += "   reduction hits the MVAPICH2 reduce-scatter threshold and\n";
    out += "   GPU-fast GEMMs leave nothing to hide the shifts under);\n";
    out += " * flat and large-M: both essentially equal;\n";
    out += " * CTF far behind on every shape.\n";
    vec![("table3_gpu.txt", out)]
}

/// The utilization floor `l` of eq. 5. §IV-A (text): "We test different l
/// values in the range [0.85, 0.99] … using other l values gives the same
/// 3D process grid as using the value l = 0.95 in almost all cases."
/// Sweeps `l` for every problem class × process count, reports where the
/// grid differs from the `l = 0.95` default, and asserts the claim.
fn ablation_l() -> Vec<(&'static str, String)> {
    let ls = [0.85, 0.87, 0.90, 0.92, 0.95, 0.97, 0.99];
    let mut out = String::from("Ablation: grid stability across l in [0.85, 0.99] (eq. 5)\n\n");
    let mut total = 0usize;
    let mut same = 0usize;
    for (name, m, n, k) in CPU_CLASSES {
        for p in CPU_SWEEP {
            let prob = Problem::new(m, n, k, p);
            let reference = ca3dmm_grid(&prob, 0.95).grid;
            let mut distinct = vec![reference];
            for &l in &ls {
                let g = ca3dmm_grid(&prob, l).grid;
                total += 1;
                if g == reference {
                    same += 1;
                } else if !distinct.contains(&g) {
                    distinct.push(g);
                }
            }
            if distinct.len() > 1 {
                let _ = writeln!(
                    out,
                    "{name} P={p}: {} distinct grids: {:?}",
                    distinct.len(),
                    distinct
                        .iter()
                        .map(|g| format!("{},{},{}", g.pm, g.pn, g.pk))
                        .collect::<Vec<_>>()
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "\n{same}/{total} (l, problem, P) combinations choose the l = 0.95 grid."
    );
    out += "Paper claim (§IV-A): same grid 'in almost all cases'.\n";
    assert!(
        same as f64 / total as f64 > 0.85,
        "grid stability claim violated"
    );
    vec![("ablation_l.txt", out)]
}

/// Ablations of CA3DMM's remaining design choices (DESIGN.md §4): the
/// dual-buffer overlap in Cannon (§III-F), whose schedule must never be
/// slower than the blocking one; the communication-volume price of
/// constraint (7) versus the unconstrained (COSMA) grid; and the §V
/// memory/communication trade — fewer k-task groups move CA3DMM toward a
/// 2D algorithm: less memory (eq. 11), more volume (eq. 4).
fn ablation_design() -> Vec<(&'static str, String)> {
    let machine = Machine::phoenix_cpu();
    let placement = machine.pure_mpi();
    let base = native_model(placement);

    let mut out = String::from("Ablation 1: dual-buffer overlap in Cannon (§III-F)\n\n");
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>12} {:>8}",
        "class", "overlap(s)", "no-overlap(s)", "speedup"
    );
    for (name, m, n, k) in CPU_CLASSES {
        let prob = Problem::new(m, n, k, 2048);
        let grid = ca3dmm_grid(&prob, 0.95).grid;
        let with = evaluate(
            &machine,
            placement.flops_per_rank,
            &ca3dmm_schedule(&prob, &grid, &base),
        );
        let without = evaluate(
            &machine,
            placement.flops_per_rank,
            &ca3dmm_schedule(
                &prob,
                &grid,
                &ModelConfig {
                    overlap: false,
                    ..base
                },
            ),
        );
        let _ = writeln!(
            out,
            "{:<22} {:>10.2} {:>12.2} {:>7.2}x",
            name,
            with.total_s,
            without.total_s,
            without.total_s / with.total_s
        );
        assert!(with.total_s <= without.total_s + 1e-12);
    }

    out += "\nAblation 2: the eq. 7 grid constraint (volume premium vs COSMA grid)\n\n";
    let _ = writeln!(
        out,
        "{:<22} {:>6} | {:>14} {:>14} {:>9}",
        "class", "P", "CA3DMM grid", "free grid", "S ratio"
    );
    for (name, m, n, k) in CPU_CLASSES {
        for p in [768usize, 2048, 3072] {
            let prob = Problem::new(m, n, k, p);
            let with = ca3dmm_grid(&prob, 0.95);
            let free = cosma_grid(&prob, 0.95);
            let _ = writeln!(
                out,
                "{:<22} {:>6} | {:>4},{:>4},{:>4} {:>4},{:>4},{:>4} {:>9.4}",
                name,
                p,
                with.grid.pm,
                with.grid.pn,
                with.grid.pk,
                free.grid.pm,
                free.grid.pn,
                free.grid.pk,
                with.s_total as f64 / free.s_total as f64
            );
        }
    }
    out += "(S ratio = eq. 4 surface with constraint / without; 1.0 = free.)\n";

    out += "\nAblation 3: trading k-task groups for memory (§V)\n\n";
    let (m, n, k) = (50_000, 50_000, 50_000);
    let p = 3072;
    let _ = writeln!(
        out,
        "{:>14} | {:>12} {:>12} {:>10}",
        "grid", "mem MB/rank", "volume MB", "time (s)"
    );
    for pk in [12usize, 6, 3, 1] {
        // keep pm*pn*pk <= p with pm = pn
        let side = ((p / pk) as f64).sqrt().floor() as usize;
        let grid = Grid::new(side, side, pk);
        let prob = Problem::new(m, n, k, p);
        let sched = ca3dmm_schedule(&prob, &grid, &base);
        let cost = evaluate(&machine, placement.flops_per_rank, &sched);
        let _ = writeln!(
            out,
            "{:>4},{:>4},{:>4} | {:>12.0} {:>12.0} {:>10.2}",
            grid.pm,
            grid.pn,
            grid.pk,
            memory_elements_per_rank(&prob, &grid) * 8.0 / 1048576.0,
            cost.sent_bytes / 1048576.0,
            cost.total_s
        );
    }
    out += "(fewer k-task groups -> toward 2D: less memory, more volume.)\n";
    vec![("ablation_design.txt", out)]
}

/// How CA3DMM and COSMA choose 3D process grids across the paper's four
/// problem classes and process counts — a console companion to Table II
/// and the reasoning of §III-A/§IV-B. For each shape and P: both searches'
/// grids, the process utilization, the communication-volume-to-lower-bound
/// ratio, and the modeled runtime on the paper's cluster (pure MPI
/// placement).
fn grid_explorer() -> Vec<(&'static str, String)> {
    let machine = Machine::phoenix_cpu();
    let placement = machine.pure_mpi();
    let shapes: [(&str, usize, usize, usize); 4] = [
        ("square  (50k^3)", 50_000, 50_000, 50_000),
        ("large-K (6k,6k,1.2M)", 6_000, 6_000, 1_200_000),
        ("large-M (1.2M,6k,6k)", 1_200_000, 6_000, 6_000),
        ("flat    (100k,100k,5k)", 100_000, 100_000, 5_000),
    ];
    let procs = [192usize, 384, 768, 1536, 2048, 3072];
    let mut out = String::new();
    for (name, m, n, k) in shapes {
        let _ = writeln!(out, "== {name}: m={m} n={n} k={k} ==");
        let _ = writeln!(
            out,
            "{:>6} | {:>14} {:>5} {:>6} {:>9} | {:>14} {:>6}",
            "P", "CA3DMM grid", "util", "Q/LB", "t_model", "COSMA grid", "util"
        );
        for p in procs {
            let prob = Problem::new(m, n, k, p);
            let ca = ca3dmm_grid(&prob, DEFAULT_UTILIZATION_FLOOR);
            let co = cosma_grid(&prob, DEFAULT_UTILIZATION_FLOOR);
            let sched = ca3dmm_schedule(&prob, &ca.grid, &native_model(placement));
            let cost = evaluate(&machine, placement.flops_per_rank, &sched);
            let _ = writeln!(
                out,
                "{:>6} | {:>4}x{:<4}x{:<4} {:>4.0}% {:>6.2} {:>8.2}s | {:>4}x{:<4}x{:<4} {:>5.0}%",
                p,
                ca.grid.pm,
                ca.grid.pn,
                ca.grid.pk,
                ca.utilization(p) * 100.0,
                ca.volume_ratio(&prob),
                cost.total_s,
                co.grid.pm,
                co.grid.pn,
                co.grid.pk,
                co.utilization(p) * 100.0,
            );
        }
        out.push('\n');
    }
    out += "Q/LB: per-process communication volume over the eq. 9 lower bound.\n";
    out += "t_model: CA3DMM runtime under the alpha-beta-gamma machine model\n";
    let _ = writeln!(
        out,
        "         ({}; pure MPI, 1 rank per core).",
        machine.name
    );
    vec![("grid_explorer.txt", out)]
}
