//! The parent side of the run protocol.
//!
//! `rounds` rounds; in each round the workloads are visited round-robin and
//! each one's block runs in a *fresh child process*. Interleaving makes
//! every workload sample the host's fast and slow phases equally; a process
//! per block gives one independent `setup_s` and `peak_rss_mb` sample per
//! round and keeps one workload's caches and thread pools out of another's
//! numbers. A traced run adds, per round, a second block of each workload
//! with spans on, and after the first round one probe child per workload.

use crate::host::{self, StealMeter};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads;
use jsonlite::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub rounds: usize,
    pub block_secs: f64,
    pub workloads: Vec<String>,
    pub trace: bool,
    pub inject_fault: bool,
    pub out_dir: PathBuf,
}

/// One child block, parsed.
#[derive(Clone, Debug, Default)]
pub struct Block {
    pub setup_s: f64,
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub vm_hwm_kib: f64,
    pub block_wall_s: f64,
    pub cpu_s: f64,
    pub residual_ratio: f64,
    pub ledger: BTreeMap<String, f64>,
    /// span name → (count, total µs, self µs)
    pub self_us: BTreeMap<String, (f64, f64, f64)>,
}

fn f(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

impl Block {
    pub fn parse(j: &Json) -> Result<Block, String> {
        let op_ms: Vec<f64> = j
            .get("op_ms")
            .and_then(Json::as_arr)
            .ok_or("child result has no op_ms array")?
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        let members = |key: &str| j.get(key).and_then(Json::as_obj).into_iter().flatten();
        Ok(Block {
            setup_s: f(j, "setup_s"),
            op_ms,
            attempted: f(j, "attempted") as u64,
            failed: f(j, "failed") as u64,
            vm_hwm_kib: f(j, "vm_hwm_kib"),
            block_wall_s: f(j, "block_wall_s"),
            cpu_s: f(j, "cpu_s"),
            residual_ratio: f(j, "residual_ratio"),
            ledger: members("ledger")
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
                .collect(),
            self_us: members("self_us")
                .map(|(k, v)| {
                    (
                        k.clone(),
                        (f(v, "count"), f(v, "total_us"), f(v, "self_us")),
                    )
                })
                .collect(),
        })
    }
}

/// Everything measured for one workload in one run.
#[derive(Clone, Debug, Default)]
pub struct WorkloadResult {
    pub name: String,
    pub untraced: Vec<Block>,
    pub traced: Vec<Block>,
    pub probes: BTreeMap<String, f64>,
}

fn pooled_op_ms(blocks: &[Block]) -> Vec<f64> {
    stats::sorted(
        &blocks
            .iter()
            .flat_map(|b| b.op_ms.iter().copied())
            .collect::<Vec<f64>>(),
    )
}

/// The fastest op over `blocks`, ms (`NaN` when no op was timed).
fn fastest_op_ms(blocks: &[Block]) -> f64 {
    blocks
        .iter()
        .flat_map(|b| b.op_ms.iter().copied())
        .fold(f64::NAN, f64::min)
}

impl WorkloadResult {
    pub fn attempted(&self) -> u64 {
        self.untraced
            .iter()
            .chain(&self.traced)
            .map(|b| b.attempted)
            .sum()
    }

    pub fn failed(&self) -> u64 {
        self.untraced
            .iter()
            .chain(&self.traced)
            .map(|b| b.failed)
            .sum()
    }

    /// The three end-to-end metrics, always from untraced blocks, in
    /// [`END_TO_END`] order: fastest op, lower quartile of set-up times,
    /// median of peak RSS.
    pub fn end_to_end(&self) -> [f64; 3] {
        let setups: Vec<f64> = self.untraced.iter().map(|b| b.setup_s).collect();
        let hwm: Vec<f64> = self.untraced.iter().map(|b| b.vm_hwm_kib).collect();
        [
            fastest_op_ms(&self.untraced),
            stats::quantile_of(&setups, 0.25),
            stats::median(&hwm) / 1024.0,
        ]
    }

    /// Harness diagnostics available from any run (not gated: on a shared
    /// host the quantiles and throughput follow the host's slow phases, the
    /// fastest op does not).
    pub fn diagnostics(&self, steal_pct: f64) -> BTreeMap<&'static str, f64> {
        let ops = pooled_op_ms(&self.untraced);
        let wall: f64 = self.untraced.iter().map(|b| b.block_wall_s).sum();
        let cpu: f64 = self.untraced.iter().map(|b| b.cpu_s).sum();
        let residual = self
            .untraced
            .iter()
            .chain(&self.traced)
            .map(|b| b.residual_ratio)
            .fold(0.0, f64::max);
        BTreeMap::from([
            ("bench.op_ms_p10", stats::quantile(&ops, 0.10)),
            ("bench.op_ms_p50", stats::quantile(&ops, 0.50)),
            ("bench.op_ms_p90", stats::quantile(&ops, 0.90)),
            ("bench.ops_per_s", ops.len() as f64 / wall),
            ("bench.cpu_ms_per_op", cpu * 1e3 / ops.len() as f64),
            ("bench.steal_pct", steal_pct),
            ("bench.residual_ratio", residual),
        ])
    }

    /// Every per-layer metric: probes, the blocks' ledgers (median over
    /// blocks), the derived compute floor, and the harness's own numbers.
    /// A metric nothing produced for this workload is 0: the layer does no
    /// work here.
    pub fn per_layer(&self, steal_pct: f64) -> BTreeMap<&'static str, f64> {
        let mut found: BTreeMap<String, f64> = self.probes.clone();
        let blocks: Vec<&Block> = self.untraced.iter().chain(&self.traced).collect();
        let mut keys: Vec<&String> = blocks.iter().flat_map(|b| b.ledger.keys()).collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            let vals: Vec<f64> = blocks
                .iter()
                .filter_map(|b| b.ledger.get(key).copied())
                .collect();
            found.insert(key.clone(), stats::median(&vals));
        }
        for (k, v) in self.diagnostics(steal_pct) {
            found.insert(k.to_owned(), v);
        }

        let fastest = fastest_op_ms(&self.untraced);
        found.insert(
            "bench.trace_overhead_pct".to_owned(),
            100.0 * (fastest_op_ms(&self.traced) - fastest) / fastest,
        );
        // Compute floor: the op's flops at the probed kernel peak on every
        // core the ranks can occupy at once.
        let flops = found.get("dense.flops_per_op").copied().unwrap_or(0.0);
        let peak = found
            .get("dense.probed_peak_gflops")
            .copied()
            .unwrap_or(f64::NAN);
        let cores = host::nproc().min(workloads::ranks(&self.name)) as f64;
        let floor_ms = flops / (cores * peak * 1e9) * 1e3;
        found.insert("dense.compute_floor_ms".to_owned(), floor_ms);
        found.insert("dense.pct_of_floor".to_owned(), 100.0 * floor_ms / fastest);

        PER_LAYER
            .iter()
            .map(|m| {
                let v = found.get(m.name).copied().unwrap_or(0.0);
                (m.name, if v.is_finite() { v } else { 0.0 })
            })
            .collect()
    }
}

/// glibc malloc settings every child runs under: one arena, no `mmap` for
/// large blocks, no heap trimming. With the defaults, every op maps and
/// unmaps its MB-sized blocks afresh, and what a fresh page costs in this
/// sandbox (a guest fault plus a host fault when the hypervisor has taken
/// the page back) swings op times by 1.5x for tens of seconds at a time.
const MALLOC_ENV: [(&str, &str); 4] = [
    ("MALLOC_ARENA_MAX", "1"),
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "1073741824"),
    ("MALLOC_TOP_PAD_", "268435456"),
];

/// Runs this executable as `child …` and parses the JSON line it prints.
/// Every ambient `DENSE_GEMM_*` knob is cleared so the child measures the
/// library's defaults; the allocator is pinned by [`MALLOC_ENV`].
fn spawn_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .envs(MALLOC_ENV);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DENSE_GEMM_") {
            cmd.env_remove(key);
        }
    }
    // `output` waits for the child: no process outlives this call.
    let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("child {args:?} printed nothing"))?;
    Json::parse(line).map_err(|e| format!("child {args:?} printed bad JSON: {e}"))
}

fn block_args(
    cfg: &RunConfig,
    workload: &str,
    traced: bool,
    trace_out: Option<&Path>,
) -> Vec<String> {
    let mut args = vec![
        workload.to_owned(),
        "--seed".to_owned(),
        cfg.seed.to_string(),
        "--block-secs".to_owned(),
        cfg.block_secs.to_string(),
    ];
    if traced {
        args.push("--trace".to_owned());
    }
    if let Some(path) = trace_out {
        args.push("--trace-out".to_owned());
        args.push(path.to_string_lossy().into_owned());
    }
    if cfg.inject_fault {
        args.push("--inject-fault".to_owned());
    }
    args
}

/// What one whole run produced.
pub struct RunOutcome {
    pub results: Vec<WorkloadResult>,
    pub steal_pct: f64,
    pub wall_s: f64,
}

/// Executes the protocol.
pub fn run_protocol(cfg: &RunConfig) -> Result<RunOutcome, String> {
    let steal = StealMeter::start();
    let mut results: Vec<WorkloadResult> = cfg
        .workloads
        .iter()
        .map(|w| WorkloadResult {
            name: w.clone(),
            ..WorkloadResult::default()
        })
        .collect();
    if cfg.trace {
        std::fs::create_dir_all(&cfg.out_dir)
            .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;
    }
    for round in 0..cfg.rounds {
        for res in &mut results {
            let j = spawn_child(&block_args(cfg, &res.name, false, None))?;
            res.untraced.push(Block::parse(&j)?);
            if cfg.trace {
                // The last round's traced block leaves the Chrome trace.
                let trace_out = (round + 1 == cfg.rounds)
                    .then(|| cfg.out_dir.join(format!("trace_{}.json", res.name)));
                let j = spawn_child(&block_args(cfg, &res.name, true, trace_out.as_deref()))?;
                res.traced.push(Block::parse(&j)?);
            }
        }
        if cfg.trace && round == 0 {
            for res in &mut results {
                let j = spawn_child(&[
                    res.name.clone(),
                    "--seed".to_owned(),
                    cfg.seed.to_string(),
                    "--probe".to_owned(),
                ])?;
                res.probes = j
                    .get("probes")
                    .and_then(Json::as_obj)
                    .ok_or("probe child printed no probes object")?
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect();
            }
        }
    }
    Ok(RunOutcome {
        results,
        steal_pct: steal.pct(),
        wall_s: steal.elapsed_secs(),
    })
}

/// Host and provenance block of the result file.
pub fn provenance(cfg: &RunConfig, outcome: &RunOutcome) -> Json {
    Json::obj([
        ("nproc", Json::Num(host::nproc() as f64)),
        ("cpu_model", Json::Str(host::cpu_model())),
        (
            "gemm_kernel",
            Json::Str(dense::gemm_kernel().name().to_owned()),
        ),
        (
            "probed_peak_gflops_f64",
            Json::Num(dense::probed_peak_gflops::<f64>()),
        ),
        ("steal_pct", Json::Num(outcome.steal_pct)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("rounds", Json::Num(cfg.rounds as f64)),
        ("block_secs", Json::Num(cfg.block_secs)),
        ("traced", Json::Bool(cfg.trace)),
        ("wall_s", Json::Num(outcome.wall_s)),
        ("git_commit", Json::Str(host::git_commit())),
        (
            "scaling_claims",
            Json::Str(
                "refused: every workload runs more ranks than this host has cores, so no scaling metric is defined or may be derived from these numbers"
                    .to_owned(),
            ),
        ),
    ])
}

fn metrics_json<'a>(pairs: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Json {
    Json::obj(pairs.map(|(name, value, unit)| {
        (
            name.to_owned(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_owned())),
            ]),
        )
    }))
}

/// The `metrics` object of one workload: every end-to-end metric for an
/// untraced run, every per-layer metric for a traced one.
pub fn workload_metrics(res: &WorkloadResult, traced: bool, steal_pct: f64) -> Json {
    if traced {
        let values = res.per_layer(steal_pct);
        metrics_json(PER_LAYER.iter().map(|m| (m.name, values[m.name], m.unit)))
    } else {
        let values = res.end_to_end();
        metrics_json(
            END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| (m.name, v, m.unit)),
        )
    }
}

/// The contract's result object (`correct`, `attempted`, `failed`,
/// `metrics`). With one workload the metrics carry their plain names; with
/// several, `workload/metric`.
pub fn result_line(cfg: &RunConfig, outcome: &RunOutcome) -> Json {
    let attempted: u64 = outcome.results.iter().map(WorkloadResult::attempted).sum();
    let failed: u64 = outcome.results.iter().map(WorkloadResult::failed).sum();
    let metrics = if let [only] = outcome.results.as_slice() {
        workload_metrics(only, cfg.trace, outcome.steal_pct)
    } else {
        let mut all = BTreeMap::new();
        for res in &outcome.results {
            if let Json::Obj(m) = workload_metrics(res, cfg.trace, outcome.steal_pct) {
                for (k, v) in m {
                    all.insert(format!("{}/{k}", res.name), v);
                }
            }
        }
        Json::Obj(all)
    };
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
}

/// Prints every metric by name with its unit.
pub fn print_report(cfg: &RunConfig, outcome: &RunOutcome) {
    println!(
        "host: {} x {} | kernel {} | steal {:.2}% | seed {} | {} round(s) x {} s{}",
        host::nproc(),
        host::cpu_model(),
        dense::gemm_kernel().name(),
        outcome.steal_pct,
        cfg.seed,
        cfg.rounds,
        cfg.block_secs,
        if cfg.trace { " | traced" } else { "" },
    );
    println!("scaling: no scaling metric is defined (p exceeds the core count in every workload)");
    for res in &outcome.results {
        let ops: usize = res.untraced.iter().map(|b| b.op_ms.len()).sum();
        println!(
            "\n== {} == ops attempted {} failed {} ({} timed untraced ops in {} block(s))",
            res.name,
            res.attempted(),
            res.failed(),
            ops,
            res.untraced.len()
        );
        let notes = [
            format!("fastest of {ops} timed ops"),
            format!("lower quartile of {} set-ups", res.untraced.len()),
            format!("median VmHWM of {} processes", res.untraced.len()),
        ];
        for ((m, v), note) in END_TO_END.iter().zip(res.end_to_end()).zip(notes) {
            println!(
                "  {:<34} {:>16.6} {:<8} {note}; bound {:.0}%",
                m.name,
                v,
                m.unit,
                100.0 * m.bound.unwrap_or(0.0)
            );
        }
        // Registry order, whichever of the per-layer metrics `values` has.
        let print_layer = |values: BTreeMap<&'static str, f64>, note: &str| {
            for m in PER_LAYER {
                if let Some(v) = values.get(m.name) {
                    println!("  {:<34} {v:>16.6} {:<8} {note}", m.name, m.unit);
                }
            }
        };
        if cfg.trace {
            print_layer(res.per_layer(outcome.steal_pct), "");
            println!("  span                                  count     total ms      self ms");
            let mut spans: BTreeMap<&String, (f64, f64, f64)> = BTreeMap::new();
            for b in &res.traced {
                for (name, (c, t, s)) in &b.self_us {
                    let e = spans.entry(name).or_default();
                    *e = (e.0 + c, e.1 + t, e.2 + s);
                }
            }
            for (name, (c, t, s)) in spans {
                println!("  {name:<34} {c:>8.0} {:>12.3} {:>12.3}", t / 1e3, s / 1e3);
            }
        } else {
            print_layer(res.diagnostics(outcome.steal_pct), "diagnostic, not gated");
        }
    }
}

/// Writes the full result (provenance + every workload's metrics and raw
/// op-time samples) under `out_dir`; returns the path.
pub fn write_result(cfg: &RunConfig, outcome: &RunOutcome) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;
    let workloads: Vec<Json> = outcome
        .results
        .iter()
        .map(|res| {
            let mut entries = vec![
                ("name", Json::Str(res.name.clone())),
                ("ops_attempted", Json::Num(res.attempted() as f64)),
                ("ops_failed", Json::Num(res.failed() as f64)),
                (
                    "end_to_end",
                    workload_metrics(res, false, outcome.steal_pct),
                ),
                (
                    "op_ms_samples",
                    Json::Arr(
                        pooled_op_ms(&res.untraced)
                            .into_iter()
                            .map(Json::Num)
                            .collect(),
                    ),
                ),
                (
                    "setup_s_samples",
                    Json::Arr(res.untraced.iter().map(|b| Json::Num(b.setup_s)).collect()),
                ),
            ];
            if cfg.trace {
                entries.push(("per_layer", workload_metrics(res, true, outcome.steal_pct)));
            }
            Json::obj(entries)
        })
        .collect();
    let doc = Json::obj([
        ("host", provenance(cfg, outcome)),
        ("result", result_line(cfg, outcome)),
        ("workloads", Json::Arr(workloads)),
    ]);
    let path = cfg.out_dir.join(if cfg.trace {
        "result_trace.json"
    } else {
        "result.json"
    });
    let mut text = doc.to_string_pretty();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// `selfcheck`: the full untraced protocol twice on the same build, side by
/// side; `Err` if any end-to-end metric × workload differs by more than its
/// bound.
pub fn selfcheck(cfg: &RunConfig) -> Result<(), String> {
    let a = run_protocol(cfg)?;
    let b = run_protocol(cfg)?;
    println!(
        "selfcheck: {} round(s) x {} s per set, steal {:.2}% / {:.2}%",
        cfg.rounds, cfg.block_secs, a.steal_pct, b.steal_pct
    );
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "diff %", "bound %"
    );
    let mut breaches = Vec::new();
    let failed: u64 = a
        .results
        .iter()
        .chain(&b.results)
        .map(WorkloadResult::failed)
        .sum();
    for (ra, rb) in a.results.iter().zip(&b.results) {
        for ((m, va), vb) in END_TO_END.iter().zip(ra.end_to_end()).zip(rb.end_to_end()) {
            let diff = (vb - va) / va;
            let bound = m.bound.unwrap_or(0.0);
            println!(
                "{:<18} {:<12} {:>14.6} {:>14.6} {:>+9.2} {:>7.0}",
                ra.name,
                m.name,
                va,
                vb,
                100.0 * diff,
                100.0 * bound
            );
            if diff.is_nan() || diff.abs() > bound {
                breaches.push(format!("{}/{}", ra.name, m.name));
            }
        }
    }
    if failed > 0 {
        return Err(format!("{failed} op(s) failed verification"));
    }
    if breaches.is_empty() {
        println!("selfcheck OK: both sets agree within every bound");
        Ok(())
    } else {
        Err(format!(
            "sets differ by more than the bound on: {}",
            breaches.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(setup: f64, ops: &[f64], hwm: f64) -> Block {
        Block {
            setup_s: setup,
            op_ms: ops.to_vec(),
            attempted: ops.len() as u64 + 1,
            failed: 0,
            vm_hwm_kib: hwm,
            block_wall_s: ops.iter().sum::<f64>() / 1e3,
            cpu_s: 0.5,
            ..Block::default()
        }
    }

    #[test]
    fn end_to_end_pools_ops_over_blocks_and_ignores_traced_blocks() {
        let res = WorkloadResult {
            name: "square_native".to_owned(),
            untraced: vec![
                block(0.40, &[10.0, 11.0, 12.0, 13.0, 14.0, 15.0], 2048.0),
                block(0.20, &[16.0, 17.0, 18.0, 19.0, 20.0], 4096.0),
                block(0.30, &[], 3072.0),
            ],
            traced: vec![block(9.0, &[1.0], 1.0e9)],
            probes: BTreeMap::new(),
        };
        let [fastest, setup, rss] = res.end_to_end();
        assert_eq!(fastest, 10.0, "fastest op over all untraced blocks");
        // lower quartile of {0.2, 0.3, 0.4}
        assert!((setup - 0.25).abs() < 1e-12);
        assert!((rss - 3.0).abs() < 1e-12);
        assert_eq!(res.attempted(), 7 + 6 + 1 + 2);
    }

    #[test]
    fn per_layer_reports_every_registered_metric_and_zero_for_idle_layers() {
        let mut b = block(0.1, &[100.0; 12], 1024.0);
        b.ledger.insert("dense.flops_per_op".to_owned(), 2.0e9);
        b.ledger.insert("ca3dmm.phase_cannon_ms".to_owned(), 70.0);
        let mut t = block(0.1, &[102.0; 12], 1024.0);
        t.ledger.insert("ca3dmm.phase_cannon_ms".to_owned(), 90.0);
        let res = WorkloadResult {
            name: "square_native".to_owned(),
            untraced: vec![b],
            traced: vec![t],
            probes: BTreeMap::from([("dense.probed_peak_gflops".to_owned(), 10.0)]),
        };
        let m = res.per_layer(1.5);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["serve.exec_ms"], 0.0, "idle layer reads 0");
        assert!((m["ca3dmm.phase_cannon_ms"] - 80.0).abs() < 1e-9);
        assert!((m["bench.trace_overhead_pct"] - 2.0).abs() < 1e-9);
        assert!((m["bench.steal_pct"] - 1.5).abs() < 1e-12);
        // 2 Gflop on min(nproc, 8) cores at 10 Gflop/s each
        let cores = host::nproc().min(8) as f64;
        assert!((m["dense.compute_floor_ms"] - 200.0 / cores).abs() < 1e-9);
        assert!((m["dense.pct_of_floor"] - 200.0 / cores).abs() < 1e-9);
    }

    #[test]
    fn child_json_round_trips_through_block_parse() {
        let j = Json::parse(
            r#"{"setup_s":0.5,"op_ms":[1.5,2.5],"attempted":3,"failed":1,"vm_hwm_kib":2048,
                "block_wall_s":0.004,"cpu_s":0.003,"residual_ratio":0.25,
                "ledger":{"msgpass.bytes_per_op":4096},
                "self_us":{"op":{"count":2,"total_us":4000,"self_us":1000}}}"#,
        )
        .unwrap();
        let b = Block::parse(&j).unwrap();
        assert_eq!(b.op_ms, vec![1.5, 2.5]);
        assert_eq!((b.attempted, b.failed), (3, 1));
        assert_eq!(b.ledger["msgpass.bytes_per_op"], 4096.0);
        assert_eq!(b.self_us["op"], (2.0, 4000.0, 1000.0));
        assert!(Block::parse(&Json::parse("{}").unwrap()).is_err());
    }
}
