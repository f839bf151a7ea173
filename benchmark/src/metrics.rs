//! The metric registry: the single list of names, units and directions that
//! `BENCHMARK.json`, the printed report and the result line all follow
//! (`benchmark manifest` prints the JSON; a unit test keeps the committed
//! file equal to it).

use crate::workloads;
use jsonlite::Json;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

/// How long one driver-invoked run measures, seconds.
pub const RUN_SECONDS: u64 = 25;

/// End-to-end metrics: reported for every workload from untraced blocks.
pub const END_TO_END: [Metric; 3] = [
    e2e("op_ms_min", "ms", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MiB", 0.10),
];

/// Per-layer metrics: reported by a traced run. A layer that does no work
/// in a workload reports 0 there.
pub const PER_LAYER: &[Metric] = &[
    // dense
    higher("dense.probed_peak_gflops", "Gflop/s"),
    lower("dense.gemm_block_ms", "ms"),
    higher("dense.gemm_block_peak_pct", "%"),
    lower("dense.flops_per_op", "flop"),
    lower("dense.compute_floor_ms", "ms"),
    higher("dense.pct_of_floor", "%"),
    lower("dense.operand_gen_ms", "ms"),
    // msgpass
    lower("msgpass.world_spawn_ms", "ms"),
    lower("msgpass.job_roundtrip_us", "us"),
    lower("msgpass.pingpong_us", "us"),
    lower("msgpass.subgroup_us", "us"),
    higher("msgpass.p2p_gbs", "GB/s"),
    lower("msgpass.allgatherv_us", "us"),
    lower("msgpass.reduce_scatter_us", "us"),
    lower("msgpass.bytes_per_op", "B"),
    lower("msgpass.msgs_per_op", "count"),
    lower("msgpass.max_rank_bytes_per_op", "B"),
    lower("msgpass.wait_share", "ratio"),
    lower("msgpass.sim_spawn_ms", "ms"),
    lower("msgpass.sim_wall_us_per_msg", "us"),
    lower("msgpass.sim_makespan_ms", "ms"),
    // layout
    lower("layout.redist_plan_ms", "ms"),
    lower("layout.redist_in_ms", "ms"),
    lower("layout.redist_out_ms", "ms"),
    lower("layout.redist_bytes_per_op", "B"),
    higher("layout.redist_gbs", "GB/s"),
    // gridopt
    lower("gridopt.search_us", "us"),
    lower("gridopt.search_p3072_us", "us"),
    lower("gridopt.volume_ratio", "ratio"),
    // ca3dmm
    lower("ca3dmm.plan_build_ms", "ms"),
    lower("ca3dmm.phase_redist_ms", "ms"),
    lower("ca3dmm.phase_replicate_ms", "ms"),
    lower("ca3dmm.phase_cannon_ms", "ms"),
    lower("ca3dmm.phase_reduce_ms", "ms"),
    higher("ca3dmm.phase_reconcile_pct", "%"),
    lower("ca3dmm.comms_build_us", "us"),
    // netmodel
    lower("netmodel.eval_us", "us"),
    lower("netmodel.model_vs_sim_pct", "%"),
    lower("netmodel.model_bytes_err_pct", "%"),
    // serve
    lower("serve.server_start_ms", "ms"),
    lower("serve.parse_us", "us"),
    lower("serve.plan_ms_hit", "ms"),
    lower("serve.plan_ms_miss", "ms"),
    lower("serve.exec_ms", "ms"),
    lower("serve.queue_ms", "ms"),
    lower("serve.frontend_share", "ratio"),
    lower("serve.engine_overhead_share", "ratio"),
    higher("serve.cache_hit_rate", "ratio"),
    lower("serve.evictions_per_cycle", "count"),
    lower("serve.engine_batch1_ms", "ms"),
    lower("serve.engine_batch8_ms_per_item", "ms"),
    lower("serve.req_ms_p50", "ms"),
    lower("serve.req_ms_p99", "ms"),
    // jsonlite
    lower("jsonlite.parse_us", "us"),
    lower("jsonlite.emit_us", "us"),
    // baselines
    lower("baselines.cosma_ms", "ms"),
    lower("baselines.summa_ms", "ms"),
    lower("baselines.c25d_ms", "ms"),
    lower("baselines.ca3dmm_vs_best", "ratio"),
    // the harness itself
    lower("bench.op_ms_p10", "ms"),
    lower("bench.op_ms_p50", "ms"),
    lower("bench.op_ms_p90", "ms"),
    higher("bench.ops_per_s", "1/s"),
    lower("bench.cpu_ms_per_op", "ms"),
    higher("bench.memcpy_gbs", "GB/s"),
    lower("bench.steal_pct", "%"),
    lower("bench.residual_ratio", "ratio"),
    lower("bench.trace_overhead_pct", "%"),
];

fn metric_json(m: &Metric) -> Json {
    let mut pairs = vec![
        ("name", Json::Str(m.name.to_owned())),
        ("unit", Json::Str(m.unit.to_owned())),
        (
            "better",
            Json::Str(
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }
                .to_owned(),
            ),
        ),
    ];
    if let Some(b) = m.bound {
        pairs.push(("bound", Json::Num(b)));
    }
    Json::obj(pairs)
}

/// The contents of `/BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::Str((*s).to_owned())).collect()),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".to_owned())])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads::NAMES
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str((*w).to_owned())),
                            ("why", Json::Str(workloads::why(w).to_owned())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn registry_respects_the_manifest_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
        let bound = |m: &Metric| m.bound.expect("end-to-end metrics carry a bound");
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        let setup = bound(setup.expect("setup_s is a required metric"));
        for m in &END_TO_END {
            assert!(bound(m) > 0.0 && bound(m) <= 0.25);
            assert!(
                bound(m) <= setup,
                "setup_s has the largest bound ({})",
                m.name
            );
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        for w in workloads::NAMES {
            assert!(name_ok(w) && seen.insert(w));
            let why = workloads::why(w);
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark manifest`"
        );
    }
}
