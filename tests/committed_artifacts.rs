//! The committed artifacts in `results/` are what HEAD produces, and they
//! pass the deterministic gates on the paper's communication claims. Every
//! RunReport is read through the `ca3dmm-report` functions
//! (`bench::report`), which parse with `RunReportDoc::parse`, the one
//! reader.
//!
//! Virtual time is a function of the algorithm and the machine model only,
//! so every entry of `bench::paper` — the analytic tables and the executed
//! `fig3_sim*` sweeps with their CSVs and reports — is recomputed
//! in-process and must reproduce its committed files byte for byte. A
//! change to traffic, the machine model, the cost model or the report
//! schema that does not run `./regen_results.sh` fails here. The
//! wall-clock `REPORT_fig5_*` artifacts are gated on their deterministic
//! traffic only, and the `BENCH_*.json` timings on their contract.

use bench::report::{gate, netdiff, show, NetdiffLimits};
use bench::sim::{fig3_sim, SimConfig};
use bench::timing::validate_bench_json;
use jsonlite::Json;
use msgpass::{RunOptions, RunReportDoc};

fn committed(name: &str) -> String {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn parse(text: &str) -> RunReportDoc {
    RunReportDoc::parse(text).expect("artifact parses")
}

/// Executed traffic against the closed forms: per-phase bytes within
/// 0.01 % and messages within 1 % (the butterfly `log₂ g` vs the ring's
/// `g−1`), virtual seconds within 40 % (the sim prices every hop, the model
/// each phase's critical link; DESIGN.md "Sim vs model").
const SIM_VS_MODEL: NetdiffLimits = NetdiffLimits {
    bytes_pct: Some(0.01),
    secs_pct: Some(40.0),
    msgs_pct: Some(1.0),
};

/// Each committed sweep report (the last point, p = 3072) carries its
/// stem's name, agrees with the model within [`SIM_VS_MODEL`], and its
/// dashboard bins 3072 ranks into a heatmap that stays under 64 KiB (a p×p
/// grid was 28 MB).
#[test]
fn committed_sweep_reports_agree_with_the_model() {
    for stem in ["fig3_sim", "fig3_sim_flat_r384", "fig3_sim_hier_r384"] {
        let report = committed(&format!("REPORT_{stem}.json"));
        assert_eq!(parse(&report).name(), Some(&*format!("{stem}_p3072")));
        netdiff(&report, SIM_VS_MODEL).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let dashboard = show(&report).expect("dashboard");
        assert!(
            dashboard.len() < 64 << 10,
            "{stem}: dashboard is {} bytes",
            dashboard.len()
        );
    }
}

/// Inter-node bytes and messages of a virtual-time report's send matrix,
/// with node = rank / ranks_per_node.
fn inter_node(doc: &RunReportDoc) -> (u64, u64) {
    let rpn = doc
        .sim
        .as_ref()
        .expect("virtual-time report")
        .placement
        .ranks_per_node;
    doc.matrix
        .cells()
        .filter(|(src, dst, _)| src / rpn != dst / rpn)
        .fold((0, 0), |(b, m), (_, _, c)| (b + c.bytes, m + c.msgs))
}

/// The two-level win: a leader-ring exchange of L node sums replaces the
/// flat ring's g−1 cross-node hops per member, so `hier` moves strictly
/// fewer inter-node bytes than `flat` and at most half its inter-node
/// messages.
fn hier_wins(flat: &RunReportDoc, hier: &RunReportDoc) -> bool {
    let ((fb, fm), (hb, hm)) = (inter_node(flat), inter_node(hier));
    hb < fb && hm * 2 <= fm
}

/// `paper_tables_reproduce_committed_results` proves the committed r384
/// reports are what HEAD produces, so the gate reads them instead of
/// rerunning the fat-node ablation.
#[test]
fn hier_collectives_win_inter_node_on_fat_nodes() {
    let flat = parse(&committed("REPORT_fig3_sim_flat_r384.json"));
    let hier = parse(&committed("REPORT_fig3_sim_hier_r384.json"));
    assert!(
        hier_wins(&flat, &hier),
        "flat {:?} vs hier {:?} inter-node (bytes, msgs)",
        inter_node(&flat),
        inter_node(&hier)
    );
    assert!(
        !hier_wins(&hier, &flat),
        "the gate passes flat and hier swapped"
    );
}

/// §III-F: the dual-buffered pipeline's virtual makespan at p = 3072 is no
/// worse than a fresh run of the blocking ablation, which writes
/// `_blocking` names of its own instead of the default's.
#[test]
fn overlap_is_never_slower_than_blocking_at_p3072() {
    let blocking = fig3_sim(&SimConfig {
        overlap: false,
        ranks: Some(3072),
        ..SimConfig::default()
    });
    let (name, report) = &blocking[2];
    assert_eq!(name, "REPORT_fig3_sim_blocking_p3072.json");
    let off = parse(report);
    assert_eq!(off.name(), Some("fig3_sim_blocking_p3072"));
    let on = parse(&committed("REPORT_fig3_sim.json"));
    let makespan = |d: &RunReportDoc| d.sim.as_ref().expect("virtual-time").makespan_secs;
    let (on, off) = (makespan(&on), makespan(&off));
    let overlap_wins = |on: f64, off: f64| on <= off;
    assert!(
        overlap_wins(on, off),
        "overlapped {on} s vs blocking {off} s"
    );
    assert!(!overlap_wins(off, on), "the gate passes on and off swapped");
}

#[test]
fn every_committed_run_report_parses_and_renders() {
    let dir = format!("{}/results", env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("results/") {
        let name = entry
            .expect("dir entry")
            .file_name()
            .into_string()
            .expect("utf-8");
        if name.starts_with("REPORT_") && name.ends_with(".json") {
            show(&committed(&name)).unwrap_or_else(|e| panic!("{name}: {e}"));
            seen += 1;
        }
    }
    assert!(seen >= 5, "only {seen} committed RunReports");
}

/// `fig5_breakdown --report-out` at `--trace-ranks 4 --trace-size 96`,
/// profiled or not.
fn fig5_report(gemm_prof: bool) -> String {
    let opts = RunOptions {
        gemm_prof,
        ..RunOptions::traced()
    };
    let (_, _, summary) = bench::fig5_traced_run(96, 4, opts);
    summary.to_json().to_string_pretty()
}

/// Bytes, message counts, matrix cells and histogram buckets are
/// deterministic functions of (problem, grid, algorithm), so fresh runs
/// match `REPORT_fig5_small.json` and `REPORT_fig5_prof.json` exactly; their
/// wall times are host timing and not gated. The profiled artifact must
/// stay profiled: a compute row on every rank.
#[test]
fn fig5_artifacts_match_fresh_traced_runs_exactly() {
    let (small, prof) = (fig5_report(false), fig5_report(true));
    let committed_prof = committed("REPORT_fig5_prof.json");
    gate(&committed("REPORT_fig5_small.json"), &small, None).unwrap_or_else(|e| panic!("{e}"));
    gate(&committed_prof, &prof, None).unwrap_or_else(|e| panic!("{e}"));
    let compute = parse(&committed_prof).compute.expect("compute block");
    assert_eq!(compute.len(), 4);
    assert!(
        compute.iter().all(Option::is_some),
        "a rank lacks its compute row"
    );
    // The gate refuses to compare a profiled report with an unprofiled one.
    assert!(gate(&committed_prof, &small, None).is_err());
}

/// Every file of every `bench::paper` entry is what `results/` holds, byte
/// for byte: the tables of Figs. 3–5, Tables I–III, the l-sweep, the design
/// ablations, the Cannon-vs-SUMMA ablation and the grid explorer, the
/// Fig. 3/4 CSVs, and the three executed Fig. 3 sweeps' tables, CSVs and
/// virtual-time reports. Computing them also runs the claims `ablation_l`,
/// `ablation_design` and `ablation_2d_algo` assert.
/// Each entry is computed on a thread of its own: the three sweeps
/// dominate, and they do not share anything.
#[test]
fn paper_tables_reproduce_committed_results() {
    let entries = &bench::paper::ENTRIES;
    let computed: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = entries.iter().map(|e| s.spawn(e.files)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("entry panicked"))
            .collect()
    });
    let (mut written, mut drifted) = (Vec::new(), Vec::new());
    for (entry, files) in entries.iter().zip(computed) {
        assert_eq!(files[0].0, format!("{}.txt", entry.name), "table first");
        for (name, text) in files {
            if text != committed(&name) {
                drifted.push(name.clone());
            }
            written.push(name);
        }
    }
    let expected = "fig3_strong_scaling.txt fig3.csv \
                    fig3_sim.txt fig3_sim.csv REPORT_fig3_sim.json \
                    fig3_sim_flat_r384.txt fig3_sim_flat_r384.csv REPORT_fig3_sim_flat_r384.json \
                    fig3_sim_hier_r384.txt fig3_sim_hier_r384.csv REPORT_fig3_sim_hier_r384.json \
                    fig4_hybrid.txt fig4.csv \
                    fig5_breakdown.txt table1_memory.txt table2_grids.txt table3_gpu.txt \
                    ablation_l.txt ablation_design.txt ablation_2d_algo.txt grid_explorer.txt";
    assert_eq!(written.join(" "), expected);
    assert!(
        drifted.is_empty(),
        "results/{drifted:?} drifted from HEAD; run ./regen_results.sh"
    );
}

fn label(entry: &Json) -> &str {
    entry
        .get("label")
        .and_then(Json::as_str)
        .unwrap_or_default()
}

/// The committed `BENCH_gemm.json` keeps the thread-tier, kernel,
/// profiling-overhead and memory-pass contract (`validate_bench_json
/// --gemm-tiers`), and `BENCH_grid_search.json` the shared shape. In-memory
/// copies without one `t4` tier, or with a profiling overhead at the 5 %
/// limit, fail it.
#[test]
fn committed_bench_json_keeps_its_contract() {
    let read = |name: &str| Json::parse(&committed(name)).expect("valid JSON");
    let gemm = read("BENCH_gemm.json");
    validate_bench_json(&gemm, true, None).unwrap_or_else(|e| panic!("BENCH_gemm.json: {e}"));
    validate_bench_json(&read("BENCH_grid_search.json"), false, None)
        .unwrap_or_else(|e| panic!("BENCH_grid_search.json: {e}"));

    // The error of a copy of `gemm` whose entries `edit` changed.
    let edited = |edit: fn(&mut Vec<Json>)| {
        let mut doc = gemm.clone();
        if let Json::Obj(top) = &mut doc {
            if let Some(Json::Arr(entries)) = top.get_mut("entries") {
                edit(entries);
            }
        }
        validate_bench_json(&doc, true, None).expect_err("the edited copy passes")
    };
    let no_t4 = edited(|e| e.retain(|e| label(e) != "packed/256x256x256/f64/t4"));
    assert!(no_t4.contains("missing thread tier \"t4\""), "{no_t4}");
    let slow = edited(|e| {
        let prof = e
            .iter_mut()
            .find(|e| label(e) == "packed_prof/256x256x256/f64/tauto");
        if let Some(Json::Obj(fields)) = prof {
            fields.insert("prof_overhead_pct".into(), Json::Num(5.0));
        }
    });
    assert!(slow.contains("5.00% profiling overhead"), "{slow}");
}
