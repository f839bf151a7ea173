//! The versioned `RunReport` JSON artifact: one summary of a finished run,
//! one writer, one reader, and their consumers.
//!
//! [`crate::RunReport::summary`] is the one place a finished run is
//! aggregated into a [`RunReportDoc`]: per-phase traffic (both directions),
//! run totals, the rank×rank communication matrix, message-size histograms,
//! wait-time attribution, the critical path, the sim block and the kernel
//! profiles. [`RunReportDoc::to_json`] is the only writer of the artifact —
//! under an explicit `schema_version`, so reports written by different
//! builds can be compared mechanically — and [`RunReportDoc::parse`] the
//! only reader, re-checking every invariant the writer guarantees.
//! [`RunReportDoc::render_dashboard`] turns a summary into a text
//! dashboard, and [`gate`] — the CI regression gate — is the one
//! comparison of two reports.
//!
//! # Critical path
//!
//! Traced and virtual-time runs carry one critical-path row per phase, in
//! [`crate::TrafficReport::phases`] order; untraced wall runs carry none.
//! The critical rank is the slowest rank on the traffic report's phase
//! clock (the lowest such rank on ties), and the mean is taken over the
//! ranks that entered the phase. Its communication seconds are the
//! critical rank's direct-child communication spans
//! ([`crate::Timeline::phase_comm_secs`], capped at the phase seconds) on a
//! traced run, and its blocked (rendezvous) seconds
//! ([`crate::TrafficReport::wait_secs`]) on a virtual-time run, which
//! records no spans; the remainder is compute.
//!
//! # Gate: exact vs ratio
//!
//! Byte counts, message counts, matrix cells, and histogram buckets are
//! deterministic functions of the algorithm, the problem, and the grid
//! search — the same on every machine — so the gate compares them for
//! **exact equality**: a single extra byte is a real algorithmic change.
//! Wall and wait seconds depend on the host, so they are gated only by a
//! **ratio** bound when the caller asks for one, and never across machines.

use crate::metrics::{fmt_bytes, CellCounts, CommMatrix, SizeHistogram};
use crate::sim::SimInfo;
use crate::world::RunReport;
use dense::kernel::KernelKind;
use dense::prof::{KernelProfile, PoolTelemetry};
use jsonlite::Json;
use netmodel::{Machine, Placement};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version of the RunReport JSON schema this build writes — and the only one
/// [`RunReportDoc::parse`] reads; regenerate older artifacts instead of
/// teaching the parser their dialect. Version history:
///
/// * **v1** — wall-clock only; the comm matrix is four dense `p×p` grids.
/// * **v2** — adds `time_domain` (`"wall"` or `"virtual"`) and, for
///   virtual-time runs, a `sim` block (machine, placement, makespan); the
///   matrix switches to sparse cell lists (dense grids are ~75 MB of JSON
///   at p = 3072).
/// * **v3** — adds the `compute` block: per-rank kernel profiles (GEMM
///   phase split, pack-volume bound, roofline, pool telemetry) captured
///   when a wall-clock run asked for them; `null` otherwise. Aggregates
///   only — raw spans stay in the Chrome trace.
pub const SCHEMA_VERSION: u64 = 3;

/// The `kind` discriminator of RunReport documents.
pub const REPORT_KIND: &str = "ca3dmm_run_report";

impl RunReport {
    /// The per-phase rows of [`RunReport::summary`], in
    /// [`crate::TrafficReport::phases`] order — everything a model diff
    /// needs, without copying the matrix or the histograms.
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        let t = &self.traffic;
        let p = t.per_rank.len();
        t.phases()
            .into_iter()
            .map(|phase| {
                let total = t.phase_total(&phase);
                PhaseRow {
                    sent_bytes: total.bytes,
                    sent_msgs: total.msgs,
                    recv_bytes: total.recv_bytes,
                    recv_msgs: total.recv_msgs,
                    max_rank_sent_bytes: t.phase_bytes_max(&phase),
                    max_rank_sent_msgs: t.phase_msgs_max(&phase),
                    secs_max: t.phase_secs_max(&phase),
                    secs_sum: (0..p).map(|r| t.phase_secs(r, &phase)).sum(),
                    wait_max: t.wait_secs_max(&phase),
                    wait_sum: (0..p).map(|r| t.wait_secs(r, &phase)).sum(),
                    phase,
                }
            })
            .collect()
    }

    /// The critical-path rule of the module docs; `None` for untraced wall
    /// runs.
    fn critical_rows(&self) -> Option<Vec<CritRow>> {
        let traced = !self.timeline.is_empty();
        if !traced && self.sim.is_none() {
            return None;
        }
        let t = &self.traffic;
        let p = t.per_rank.len();
        let rows = t.phases().into_iter().map(|phase| {
            let (mut crit_rank, mut crit_secs) = (0, f64::MIN);
            let (mut entered, mut sum) = (0usize, 0.0);
            for r in 0..p {
                let secs = t.phase_secs(r, &phase);
                if secs > crit_secs {
                    (crit_rank, crit_secs) = (r, secs);
                }
                if secs > 0.0 {
                    entered += 1;
                    sum += secs;
                }
            }
            let comm_secs = if traced {
                self.timeline
                    .phase_comm_secs(crit_rank, &phase)
                    .min(crit_secs)
            } else {
                t.wait_secs(crit_rank, &phase)
            };
            CritRow {
                phase,
                crit_secs,
                crit_rank,
                comm_secs,
                comp_secs: crit_secs - comm_secs,
                mean_secs: if entered > 0 {
                    sum / entered as f64
                } else {
                    0.0
                },
            }
        });
        Some(rows.collect())
    }

    /// The one aggregation of a finished run: phase rows, totals, matrix,
    /// histograms, waits, critical path, sim block and compute rows. `meta`
    /// is caller-provided context (problem name, m/n/k/p, grid, …) carried
    /// verbatim — the report layer does not interpret it.
    pub fn summary(&self, meta: Json) -> RunReportDoc {
        let t = &self.traffic;
        let p = t.per_rank.len();
        RunReportDoc {
            time_domain: if self.sim.is_some() {
                "virtual"
            } else {
                "wall"
            }
            .to_owned(),
            sim: self.sim.clone(),
            meta,
            machine: Json::obj([
                ("arch", Json::Str(std::env::consts::ARCH.to_owned())),
                ("os", Json::Str(std::env::consts::OS.to_owned())),
                (
                    "host_parallelism",
                    num_u(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
                ),
                (
                    "kernel_thread_budget",
                    num_u(dense::pool::base_gemm_threads() as u64),
                ),
                (
                    "gemm_kernel",
                    Json::Str(dense::kernel::gemm_kernel().name().to_owned()),
                ),
            ]),
            ranks: p,
            phases: self.phase_rows(),
            totals: Totals {
                sent_bytes: t.total_bytes(),
                sent_msgs: (0..p).map(|r| t.rank_total(r).msgs).sum(),
                max_rank_bytes: t.max_rank_bytes(),
                max_rank_msgs: t.max_rank_msgs(),
            },
            matrix: t.matrix.clone(),
            hist_by_phase: t.hist_by_phase.clone(),
            hist_by_algo: t.hist_by_algo.clone(),
            wait_per_rank: t.wait_per_rank.clone(),
            critical_path: self.critical_rows(),
            // Aggregates only: the spans go to the Chrome trace instead (a
            // profiled run retains up to threads × RING_CAPACITY of them).
            compute: self.compute.iter().any(Option::is_some).then(|| {
                self.compute
                    .iter()
                    .map(|c| {
                        c.as_ref().map(|cp| KernelProfile {
                            spans: Vec::new(),
                            ..cp.profile.clone()
                        })
                    })
                    .collect()
            }),
        }
    }

    /// `self.summary(meta).to_json()`: this run as a schema-versioned JSON
    /// document.
    pub fn to_json(&self, meta: Json) -> Json {
        self.summary(meta).to_json()
    }
}

/// One phase row of a run summary.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRow {
    /// Phase label.
    pub phase: String,
    /// Bytes sent by all ranks during the phase.
    pub sent_bytes: u64,
    /// Messages sent by all ranks.
    pub sent_msgs: u64,
    /// Bytes matched in `recv` by all ranks.
    pub recv_bytes: u64,
    /// Messages matched in `recv`.
    pub recv_msgs: u64,
    /// The busiest single rank's sent bytes (the paper's per-phase `Q`).
    pub max_rank_sent_bytes: u64,
    /// The busiest single rank's sent messages (the paper's per-phase `L`).
    pub max_rank_sent_msgs: u64,
    /// Slowest rank's wall seconds in the phase.
    pub secs_max: f64,
    /// Sum over ranks of wall seconds.
    pub secs_sum: f64,
    /// Slowest rank's seconds blocked in `recv` during the phase.
    pub wait_max: f64,
    /// Sum over ranks of blocked seconds.
    pub wait_sum: f64,
}

/// One critical-path row of a run summary (see the module docs for the
/// rule).
#[derive(Clone, Debug, PartialEq)]
pub struct CritRow {
    /// Phase label.
    pub phase: String,
    /// Seconds on the slowest rank.
    pub crit_secs: f64,
    /// The slowest rank.
    pub crit_rank: usize,
    /// Communication seconds on the slowest rank.
    pub comm_secs: f64,
    /// Compute seconds on the slowest rank.
    pub comp_secs: f64,
    /// Mean over ranks that entered the phase.
    pub mean_secs: f64,
}

/// Run-wide totals of a run summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Bytes sent by all ranks.
    pub sent_bytes: u64,
    /// Messages sent by all ranks.
    pub sent_msgs: u64,
    /// The busiest rank's sent bytes (the paper's `Q`).
    pub max_rank_bytes: u64,
    /// The busiest rank's message count (the paper's `L`).
    pub max_rank_msgs: u64,
}

/// One finished run's summary: built from a live run by
/// [`RunReport::summary`], written by [`RunReportDoc::to_json`], and read
/// back, shape-validated, by [`RunReportDoc::parse`].
#[derive(Clone, Debug, PartialEq)]
pub struct RunReportDoc {
    /// `"wall"` or `"virtual"` — which clock the report's seconds are in.
    pub time_domain: String,
    /// What a virtual-time run was simulated on (`Some` exactly when
    /// `time_domain` is `"virtual"`).
    pub sim: Option<SimInfo>,
    /// Caller-provided context, verbatim.
    pub meta: Json,
    /// Machine block, verbatim (arch, os, parallelism).
    pub machine: Json,
    /// World size.
    pub ranks: usize,
    /// Per-phase rows.
    pub phases: Vec<PhaseRow>,
    /// Run-wide totals.
    pub totals: Totals,
    /// The communication matrix.
    pub matrix: CommMatrix,
    /// Size histograms by sender phase.
    pub hist_by_phase: BTreeMap<String, SizeHistogram>,
    /// Size histograms by collective algorithm.
    pub hist_by_algo: BTreeMap<String, SizeHistogram>,
    /// Per-rank blocked seconds per phase.
    pub wait_per_rank: Vec<BTreeMap<String, f64>>,
    /// Critical-path rows (None for untraced wall runs).
    pub critical_path: Option<Vec<CritRow>>,
    /// Per-rank kernel profiles with empty `spans` (None for unprofiled
    /// runs; entries are None for ranks that ran no profiled GEMM).
    pub compute: Option<Vec<Option<KernelProfile>>>,
}

fn num_u(n: u64) -> Json {
    Json::Num(n as f64)
}

fn num_f(f: f64) -> Json {
    Json::Num(f)
}

fn hist_json(h: &SizeHistogram) -> Json {
    Json::obj([
        ("msgs", num_u(h.msgs)),
        ("bytes", num_u(h.bytes)),
        (
            "buckets",
            Json::Arr(
                h.nonzero()
                    .into_iter()
                    .map(|(b, c)| Json::Arr(vec![num_u(b as u64), num_u(c)]))
                    .collect(),
            ),
        ),
    ])
}

fn sparse_cells(cells: Vec<(usize, usize, CellCounts)>) -> Json {
    Json::Arr(
        cells
            .into_iter()
            .map(|(row, col, c)| {
                Json::Arr(vec![
                    num_u(row as u64),
                    num_u(col as u64),
                    num_u(c.bytes),
                    num_u(c.msgs),
                ])
            })
            .collect(),
    )
}

fn compute_json(k: &KernelProfile) -> Json {
    let pool = &k.pool;
    Json::obj([
        ("gemm_calls", num_u(k.gemm_calls)),
        ("flops", num_f(k.flops)),
        ("gemm_wall_secs", num_f(k.gemm_wall_secs)),
        ("thread_secs", num_f(k.thread_secs)),
        ("pack_a_secs", num_f(k.pack_a_secs)),
        ("pack_b_secs", num_f(k.pack_b_secs)),
        ("compute_secs", num_f(k.compute_secs)),
        ("idle_secs", num_f(k.idle_secs)),
        ("pack_bytes", num_u(k.pack_bytes)),
        ("pack_bound_bytes", num_u(k.pack_bound_bytes)),
        ("achieved_gflops", num_f(k.achieved_gflops)),
        ("kernel", Json::Str(k.kernel.to_owned())),
        ("peak_gflops", num_f(k.peak_gflops)),
        ("max_width", num_u(k.max_width as u64)),
        ("imbalance", num_f(k.imbalance)),
        ("coverage", num_f(k.coverage)),
        ("dropped_spans", num_u(k.dropped_spans)),
        (
            "pool",
            Json::obj([
                ("queue_depth_hwm", num_u(pool.queue_depth_hwm)),
                ("submit_wake_secs", num_f(pool.submit_wake_secs)),
                ("jobs", num_u(pool.jobs)),
                ("regions", num_u(pool.regions)),
                (
                    "jobs_per_worker",
                    Json::Arr(pool.jobs_per_worker.iter().map(|&j| num_u(j)).collect()),
                ),
            ]),
        ),
    ])
}

fn want_u64(v: &Json, what: &str) -> Result<u64, String> {
    let f = v
        .as_f64()
        .ok_or_else(|| format!("{what} is not a number"))?;
    if f < 0.0 || f.fract() != 0.0 {
        return Err(format!("{what} = {f} is not a non-negative integer"));
    }
    Ok(f as u64)
}

fn field<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{what} is missing field {key:?}"))
}

fn field_u64(obj: &Json, key: &str, what: &str) -> Result<u64, String> {
    want_u64(field(obj, key, what)?, &format!("{what}.{key}"))
}

fn field_f64(obj: &Json, key: &str, what: &str) -> Result<f64, String> {
    field(obj, key, what)?
        .as_f64()
        .ok_or_else(|| format!("{what}.{key} is not a number"))
}

fn field_str<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    field(obj, key, what)?
        .as_str()
        .ok_or_else(|| format!("{what}.{key} is not a string"))
}

/// Parses one sparse cell list: an array of `[row, col, bytes, msgs]`
/// quads with both indices in `0..p`.
fn parse_sparse_cells(
    v: &Json,
    p: usize,
    what: &str,
) -> Result<Vec<(usize, usize, CellCounts)>, String> {
    v.as_arr()
        .ok_or_else(|| format!("{what} is not an array"))?
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let quad = e
                .as_arr()
                .filter(|a| a.len() == 4)
                .ok_or_else(|| format!("{what}[{i}] is not a [row, col, bytes, msgs] quad"))?;
            let row = want_u64(&quad[0], &format!("{what}[{i}] row"))? as usize;
            let col = want_u64(&quad[1], &format!("{what}[{i}] col"))? as usize;
            if row >= p || col >= p {
                return Err(format!(
                    "{what}[{i}] indexes rank ({row},{col}) beyond p={p}"
                ));
            }
            Ok((
                row,
                col,
                CellCounts {
                    bytes: want_u64(&quad[2], &format!("{what}[{i}] bytes"))?,
                    msgs: want_u64(&quad[3], &format!("{what}[{i}] msgs"))?,
                },
            ))
        })
        .collect()
}

fn parse_hists(v: &Json, what: &str) -> Result<BTreeMap<String, SizeHistogram>, String> {
    let obj = v
        .as_obj()
        .ok_or_else(|| format!("{what} is not an object"))?;
    obj.iter()
        .map(|(k, h)| {
            let what = format!("{what}.{k}");
            let msgs = field_u64(h, "msgs", &what)?;
            let bytes = field_u64(h, "bytes", &what)?;
            let buckets = field(h, "buckets", &what)?
                .as_arr()
                .ok_or_else(|| format!("{what}.buckets is not an array"))?
                .iter()
                .map(|pair| {
                    let pair = pair
                        .as_arr()
                        .ok_or_else(|| format!("{what}: bucket entry is not a pair"))?;
                    if pair.len() != 2 {
                        return Err(format!("{what}: bucket entry is not a [bucket,count] pair"));
                    }
                    Ok((
                        want_u64(&pair[0], &format!("{what} bucket index"))? as usize,
                        want_u64(&pair[1], &format!("{what} bucket count"))?,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let hist =
                SizeHistogram::from_parts(&buckets, bytes).map_err(|e| format!("{what}: {e}"))?;
            if hist.msgs != msgs {
                return Err(format!(
                    "{what}: declared {msgs} msgs but buckets sum to {}",
                    hist.msgs
                ));
            }
            Ok((k.clone(), hist))
        })
        .collect()
}

/// Parses one rank's `compute` entry; the four thread-second shares must
/// rebuild `thread_secs` (the profiler derives idle as the remainder, so a
/// larger gap means the file was hand-edited).
fn parse_compute_row(c: &Json, what: &str) -> Result<KernelProfile, String> {
    let pool = field(c, "pool", what)?;
    let pwhat = format!("{what}.pool");
    let name = field_str(c, "kernel", what)?;
    let row = KernelProfile {
        gemm_calls: field_u64(c, "gemm_calls", what)?,
        flops: field_f64(c, "flops", what)?,
        gemm_wall_secs: field_f64(c, "gemm_wall_secs", what)?,
        thread_secs: field_f64(c, "thread_secs", what)?,
        pack_a_secs: field_f64(c, "pack_a_secs", what)?,
        pack_b_secs: field_f64(c, "pack_b_secs", what)?,
        compute_secs: field_f64(c, "compute_secs", what)?,
        idle_secs: field_f64(c, "idle_secs", what)?,
        pack_bytes: field_u64(c, "pack_bytes", what)?,
        pack_bound_bytes: field_u64(c, "pack_bound_bytes", what)?,
        achieved_gflops: field_f64(c, "achieved_gflops", what)?,
        kernel: KernelKind::parse(name)
            .ok_or_else(|| format!("{what}.kernel {name:?} is not a known microkernel"))?
            .name(),
        peak_gflops: field_f64(c, "peak_gflops", what)?,
        max_width: field_u64(c, "max_width", what)? as usize,
        imbalance: field_f64(c, "imbalance", what)?,
        coverage: field_f64(c, "coverage", what)?,
        dropped_spans: field_u64(c, "dropped_spans", what)?,
        pool: PoolTelemetry {
            queue_depth_hwm: field_u64(pool, "queue_depth_hwm", &pwhat)?,
            submit_wake_secs: field_f64(pool, "submit_wake_secs", &pwhat)?,
            jobs: field_u64(pool, "jobs", &pwhat)?,
            regions: field_u64(pool, "regions", &pwhat)?,
            jobs_per_worker: field(pool, "jobs_per_worker", &pwhat)?
                .as_arr()
                .ok_or_else(|| format!("{pwhat}.jobs_per_worker is not an array"))?
                .iter()
                .enumerate()
                .map(|(i, j)| want_u64(j, &format!("{pwhat}.jobs_per_worker[{i}]")))
                .collect::<Result<Vec<_>, String>>()?,
        },
        spans: Vec::new(),
    };
    let rebuilt = row.busy_secs() + row.idle_secs;
    if (rebuilt - row.thread_secs).abs() > 0.05 * row.thread_secs.max(1e-12) {
        return Err(format!(
            "{what}: pack+compute+idle = {rebuilt:.6}s does not reconcile with \
             thread_secs = {:.6}s (±5%)",
            row.thread_secs
        ));
    }
    Ok(row)
}

impl RunReportDoc {
    /// Serializes the summary as the schema-versioned JSON artifact — the
    /// only writer of it.
    pub fn to_json(&self) -> Json {
        let hists = |m: &BTreeMap<String, SizeHistogram>| {
            Json::Obj(m.iter().map(|(k, h)| (k.clone(), hist_json(h))).collect())
        };
        let sim = self.sim.as_ref().map_or(Json::Null, |s| {
            Json::obj([
                ("machine", s.machine.to_json()),
                ("placement", s.placement.to_json()),
                ("execute_compute", Json::Bool(s.execute_compute)),
                ("makespan_secs", num_f(s.makespan_secs)),
            ])
        });
        let phases = self.phases.iter().map(|r| {
            Json::obj([
                ("phase", Json::Str(r.phase.clone())),
                ("sent_bytes", num_u(r.sent_bytes)),
                ("sent_msgs", num_u(r.sent_msgs)),
                ("recv_bytes", num_u(r.recv_bytes)),
                ("recv_msgs", num_u(r.recv_msgs)),
                ("max_rank_sent_bytes", num_u(r.max_rank_sent_bytes)),
                ("max_rank_sent_msgs", num_u(r.max_rank_sent_msgs)),
                ("secs_max", num_f(r.secs_max)),
                ("secs_sum", num_f(r.secs_sum)),
                ("wait_max", num_f(r.wait_max)),
                ("wait_sum", num_f(r.wait_sum)),
            ])
        });
        let critical_path = self.critical_path.as_ref().map_or(Json::Null, |rows| {
            Json::Arr(
                rows.iter()
                    .map(|c| {
                        Json::obj([
                            ("phase", Json::Str(c.phase.clone())),
                            ("crit_secs", num_f(c.crit_secs)),
                            ("crit_rank", num_u(c.crit_rank as u64)),
                            ("comm_secs", num_f(c.comm_secs)),
                            ("comp_secs", num_f(c.comp_secs)),
                            ("mean_secs", num_f(c.mean_secs)),
                        ])
                    })
                    .collect(),
            )
        });
        let compute = self.compute.as_ref().map_or(Json::Null, |rows| {
            Json::Arr(
                rows.iter()
                    .map(|c| c.as_ref().map_or(Json::Null, compute_json))
                    .collect(),
            )
        });
        Json::obj([
            ("schema_version", num_u(SCHEMA_VERSION)),
            ("kind", Json::Str(REPORT_KIND.to_owned())),
            ("time_domain", Json::Str(self.time_domain.clone())),
            ("sim", sim),
            ("meta", self.meta.clone()),
            ("machine", self.machine.clone()),
            ("ranks", num_u(self.ranks as u64)),
            ("phases", Json::Arr(phases.collect())),
            (
                "totals",
                Json::obj([
                    ("sent_bytes", num_u(self.totals.sent_bytes)),
                    ("sent_msgs", num_u(self.totals.sent_msgs)),
                    ("max_rank_bytes", num_u(self.totals.max_rank_bytes)),
                    ("max_rank_msgs", num_u(self.totals.max_rank_msgs)),
                ]),
            ),
            (
                "matrix",
                Json::obj([
                    ("format", Json::Str("sparse".to_owned())),
                    ("send", sparse_cells(self.matrix.nonzero_send())),
                    ("recv", sparse_cells(self.matrix.nonzero_recv())),
                ]),
            ),
            (
                "histograms",
                Json::obj([
                    ("by_phase", hists(&self.hist_by_phase)),
                    ("by_algo", hists(&self.hist_by_algo)),
                ]),
            ),
            (
                "wait_per_rank",
                Json::Arr(
                    self.wait_per_rank
                        .iter()
                        .map(|m| Json::Obj(m.iter().map(|(k, &v)| (k.clone(), num_f(v))).collect()))
                        .collect(),
                ),
            ),
            ("critical_path", critical_path),
            ("compute", compute),
        ])
    }

    /// Parses and shape-validates a RunReport JSON document — the only
    /// reader of it. Every structural invariant the writer guarantees is
    /// re-checked here, so a hand-edited or truncated file fails loudly
    /// rather than gating against garbage.
    pub fn parse(text: &str) -> Result<RunReportDoc, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let version = field_u64(&doc, "schema_version", "report")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this build reads v{SCHEMA_VERSION} only)"
            ));
        }
        let kind = field_str(&doc, "kind", "report")?;
        if kind != REPORT_KIND {
            return Err(format!("kind {kind:?} is not {REPORT_KIND:?}"));
        }
        let time_domain = field_str(&doc, "time_domain", "report")?.to_owned();
        if time_domain != "wall" && time_domain != "virtual" {
            return Err(format!(
                "time_domain {time_domain:?} is neither \"wall\" nor \"virtual\""
            ));
        }
        let sim = match field(&doc, "sim", "report")? {
            Json::Null => None,
            v => Some(SimInfo {
                machine: Machine::from_json(field(v, "machine", "sim")?)
                    .map_err(|e| format!("sim.machine: {e}"))?,
                placement: Placement::from_json(field(v, "placement", "sim")?)
                    .map_err(|e| format!("sim.placement: {e}"))?,
                execute_compute: field(v, "execute_compute", "sim")?
                    .as_bool()
                    .ok_or("sim.execute_compute is not a boolean")?,
                makespan_secs: field_f64(v, "makespan_secs", "sim")?,
            }),
        };
        if (time_domain == "virtual") != sim.is_some() {
            return Err(format!(
                "time_domain {time_domain:?} disagrees with the sim block being {}",
                if sim.is_some() { "present" } else { "absent" }
            ));
        }
        let ranks = field_u64(&doc, "ranks", "report")? as usize;
        if ranks == 0 {
            return Err("ranks must be positive".to_owned());
        }
        // Checked before anything is sized by `ranks`: a file cannot claim
        // more ranks than it lists.
        let wait_per_rank = field(&doc, "wait_per_rank", "report")?
            .as_arr()
            .ok_or("wait_per_rank is not an array")?
            .iter()
            .enumerate()
            .map(|(r, m)| {
                m.as_obj()
                    .ok_or_else(|| format!("wait_per_rank[{r}] is not an object"))?
                    .iter()
                    .map(|(k, v)| {
                        v.as_f64()
                            .map(|s| (k.clone(), s))
                            .ok_or_else(|| format!("wait_per_rank[{r}].{k} is not a number"))
                    })
                    .collect::<Result<BTreeMap<_, _>, String>>()
            })
            .collect::<Result<Vec<_>, String>>()?;
        if wait_per_rank.len() != ranks {
            return Err(format!(
                "wait_per_rank has {} entries, expected {ranks}",
                wait_per_rank.len()
            ));
        }

        let phases = field(&doc, "phases", "report")?
            .as_arr()
            .ok_or("phases is not an array")?
            .iter()
            .enumerate()
            .map(|(i, ph)| {
                let what = format!("phases[{i}]");
                Ok(PhaseRow {
                    phase: field_str(ph, "phase", &what)?.to_owned(),
                    sent_bytes: field_u64(ph, "sent_bytes", &what)?,
                    sent_msgs: field_u64(ph, "sent_msgs", &what)?,
                    recv_bytes: field_u64(ph, "recv_bytes", &what)?,
                    recv_msgs: field_u64(ph, "recv_msgs", &what)?,
                    max_rank_sent_bytes: field_u64(ph, "max_rank_sent_bytes", &what)?,
                    max_rank_sent_msgs: field_u64(ph, "max_rank_sent_msgs", &what)?,
                    secs_max: field_f64(ph, "secs_max", &what)?,
                    secs_sum: field_f64(ph, "secs_sum", &what)?,
                    wait_max: field_f64(ph, "wait_max", &what)?,
                    wait_sum: field_f64(ph, "wait_sum", &what)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        let totals_json = field(&doc, "totals", "report")?;
        let totals = Totals {
            sent_bytes: field_u64(totals_json, "sent_bytes", "totals")?,
            sent_msgs: field_u64(totals_json, "sent_msgs", "totals")?,
            max_rank_bytes: field_u64(totals_json, "max_rank_bytes", "totals")?,
            max_rank_msgs: field_u64(totals_json, "max_rank_msgs", "totals")?,
        };

        let mj = field(&doc, "matrix", "report")?;
        let send = parse_sparse_cells(field(mj, "send", "matrix")?, ranks, "matrix.send")?;
        let recv = parse_sparse_cells(field(mj, "recv", "matrix")?, ranks, "matrix.recv")?;
        let matrix = CommMatrix::from_sparse(ranks, &send, &recv);

        let hj = field(&doc, "histograms", "report")?;
        let hist_by_phase =
            parse_hists(field(hj, "by_phase", "histograms")?, "histograms.by_phase")?;
        let hist_by_algo = parse_hists(field(hj, "by_algo", "histograms")?, "histograms.by_algo")?;

        let critical_path = match field(&doc, "critical_path", "report")? {
            Json::Null => None,
            Json::Arr(rows) => Some(
                rows.iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let what = format!("critical_path[{i}]");
                        Ok(CritRow {
                            phase: field_str(c, "phase", &what)?.to_owned(),
                            crit_secs: field_f64(c, "crit_secs", &what)?,
                            crit_rank: field_u64(c, "crit_rank", &what)? as usize,
                            comm_secs: field_f64(c, "comm_secs", &what)?,
                            comp_secs: field_f64(c, "comp_secs", &what)?,
                            mean_secs: field_f64(c, "mean_secs", &what)?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            ),
            _ => return Err("critical_path is neither null nor an array".to_owned()),
        };

        // `null` unless the run was profiled.
        let compute = match field(&doc, "compute", "report")? {
            Json::Null => None,
            Json::Arr(rows) => {
                if rows.len() != ranks {
                    return Err(format!(
                        "compute has {} entries, expected {ranks}",
                        rows.len()
                    ));
                }
                Some(
                    rows.iter()
                        .enumerate()
                        .map(|(r, c)| match c {
                            Json::Null => Ok(None),
                            c => parse_compute_row(c, &format!("compute[{r}]")).map(Some),
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                )
            }
            _ => return Err("compute is neither null nor an array".to_owned()),
        };
        if compute.is_some() && time_domain != "wall" {
            return Err("compute block present on a virtual-time report".to_owned());
        }

        let parsed = RunReportDoc {
            time_domain,
            sim,
            meta: field(&doc, "meta", "report")?.clone(),
            machine: field(&doc, "machine", "report")?.clone(),
            ranks,
            phases,
            totals,
            matrix,
            hist_by_phase,
            hist_by_algo,
            wait_per_rank,
            critical_path,
            compute,
        };
        parsed.check_internal_consistency()?;
        Ok(parsed)
    }

    /// The redundant views of the traffic must agree with each other: phase
    /// rows vs totals, phase rows vs matrix, phase rows vs histograms.
    fn check_internal_consistency(&self) -> Result<(), String> {
        let sent_bytes: u64 = self.phases.iter().map(|p| p.sent_bytes).sum();
        let sent_msgs: u64 = self.phases.iter().map(|p| p.sent_msgs).sum();
        if sent_bytes != self.totals.sent_bytes || sent_msgs != self.totals.sent_msgs {
            return Err(format!(
                "phase rows sum to ({sent_bytes} B, {sent_msgs} msgs) but totals say ({}, {})",
                self.totals.sent_bytes, self.totals.sent_msgs
            ));
        }
        let matrix_bytes: u64 = (0..self.ranks)
            .map(|r| self.matrix.send_row_total(r).bytes)
            .sum();
        if matrix_bytes != self.totals.sent_bytes {
            return Err(format!(
                "matrix cells sum to {matrix_bytes} B but totals say {}",
                self.totals.sent_bytes
            ));
        }
        for row in &self.phases {
            if let Some(h) = self.hist_by_phase.get(&row.phase) {
                if h.msgs != row.sent_msgs || h.bytes != row.sent_bytes {
                    return Err(format!(
                        "phase {:?}: histogram ({} msgs, {} B) disagrees with row ({}, {})",
                        row.phase, h.msgs, h.bytes, row.sent_msgs, row.sent_bytes
                    ));
                }
            } else if row.sent_msgs > 0 {
                return Err(format!(
                    "phase {:?} sent {} msgs but has no histogram",
                    row.phase, row.sent_msgs
                ));
            }
        }
        Ok(())
    }

    /// The `meta.name` string, if the producer recorded one.
    pub fn name(&self) -> Option<&str> {
        self.meta.get("name").and_then(Json::as_str)
    }

    /// Renders the summary as a text dashboard: run header, per-phase table
    /// (traffic, times, wait share), the critical path, compute attribution,
    /// the matrix heatmap, per-algorithm size histograms, and a
    /// bottleneck/skew summary.
    pub fn render_dashboard(&self) -> String {
        let mut out = String::new();
        let name = self.name().unwrap_or("<unnamed>");
        let arch = self
            .machine
            .get("arch")
            .and_then(Json::as_str)
            .unwrap_or("?");
        let os = self.machine.get("os").and_then(Json::as_str).unwrap_or("?");
        let _ = writeln!(
            out,
            "RunReport {name} · schema v{SCHEMA_VERSION} · {} ranks · {arch}/{os} · {} time",
            self.ranks, self.time_domain
        );
        if let Some(sim) = &self.sim {
            let _ = writeln!(
                out,
                "VIRTUAL-TIME RUN: simulated on {} · {} ranks/node · makespan {:.6} s · compute {}",
                sim.machine.name,
                sim.placement.ranks_per_node,
                sim.makespan_secs,
                if sim.execute_compute {
                    "executed"
                } else {
                    "charged only"
                }
            );
        }
        let _ = writeln!(
            out,
            "totals: {} sent in {} msgs · busiest rank {} / {} msgs\n",
            fmt_bytes(self.totals.sent_bytes),
            self.totals.sent_msgs,
            fmt_bytes(self.totals.max_rank_bytes),
            self.totals.max_rank_msgs
        );

        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>8} {:>12} {:>10} {:>10} {:>6}",
            "phase", "sent", "msgs", "max rank", "secs max", "wait max", "wait%"
        );
        for p in &self.phases {
            let wait_pct = if p.secs_max > 0.0 {
                100.0 * p.wait_max / p.secs_max
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<16} {:>12} {:>8} {:>12} {:>10.6} {:>10.6} {:>5.1}%",
                p.phase,
                fmt_bytes(p.sent_bytes),
                p.sent_msgs,
                fmt_bytes(p.max_rank_sent_bytes),
                p.secs_max,
                p.wait_max,
                wait_pct
            );
        }

        if let Some(cp) = &self.critical_path {
            let _ = writeln!(out, "\ncritical path (slowest rank per phase):");
            let _ = writeln!(
                out,
                "{:<16} {:>10} {:>6} {:>10} {:>10} {:>6}",
                "phase", "crit (s)", "rank", "comm (s)", "comp (s)", "skew"
            );
            for c in cp {
                // The slowest rank over the mean (1.0 = perfectly balanced).
                let skew = if c.mean_secs > 0.0 {
                    c.crit_secs / c.mean_secs
                } else {
                    1.0
                };
                let _ = writeln!(
                    out,
                    "{:<16} {:>10.6} {:>6} {:>10.6} {:>10.6} {:>6.2}",
                    c.phase, c.crit_secs, c.crit_rank, c.comm_secs, c.comp_secs, skew
                );
            }
        }

        if let Some(compute) = &self.compute {
            let _ = writeln!(out, "\ncompute attribution (kernel profiler):");
            let _ = writeln!(
                out,
                "{:<5} {:>6} {:>8} {:>9} {:>7} {:>6} {:>6} {:>6} {:>6} {:>9}",
                "rank",
                "calls",
                "kernel",
                "gflop/s",
                "peak%",
                "pack%",
                "comp%",
                "idle%",
                "imbal",
                "wake ms"
            );
            for (rank, row) in compute.iter().enumerate() {
                match row {
                    None => {
                        let _ = writeln!(out, "{rank:<5} {:>6}", "-");
                    }
                    Some(c) => {
                        let (pack, comp, idle) = c.pct_split();
                        let peak_pct = if c.peak_gflops > 0.0 {
                            100.0 * c.achieved_gflops / c.peak_gflops
                        } else {
                            0.0
                        };
                        let _ = writeln!(
                            out,
                            "{:<5} {:>6} {:>8} {:>9.2} {:>6.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>6.2} {:>9.3}",
                            rank,
                            c.gemm_calls,
                            c.kernel,
                            c.achieved_gflops,
                            peak_pct,
                            pack,
                            comp,
                            idle,
                            c.imbalance,
                            1e3 * c.pool.submit_wake_secs
                        );
                    }
                }
            }
        }

        let _ = writeln!(out, "\ncommunication matrix:");
        out.push_str(&self.matrix.render_heatmap());

        let _ = writeln!(out, "\nmessage sizes by collective algorithm:");
        for (algo, h) in &self.hist_by_algo {
            let _ = writeln!(out, " {algo} ({} msgs, {}):", h.msgs, fmt_bytes(h.bytes));
            out.push_str(&h.render_bars(40));
        }

        out.push_str(&self.render_summary());
        out
    }

    /// The bottleneck/traffic-skew closing lines of the dashboard.
    fn render_summary(&self) -> String {
        let mut out = String::new();
        if let Some(bottleneck) = self
            .phases
            .iter()
            .max_by(|a, b| a.secs_max.total_cmp(&b.secs_max))
        {
            let _ = writeln!(
                out,
                "\nbottleneck phase: {} ({:.6} s slowest rank, {:.6} s of it blocked in recv)",
                bottleneck.phase, bottleneck.secs_max, bottleneck.wait_max
            );
        }
        // Matrix skew: flag the busiest sender if it is far above the mean.
        let totals: Vec<u64> = (0..self.ranks)
            .map(|r| self.matrix.send_row_total(r).bytes)
            .collect();
        let max = totals.iter().copied().max().unwrap_or(0);
        let mean = totals.iter().sum::<u64>() as f64 / self.ranks as f64;
        if mean > 0.0 && max as f64 / mean >= 1.5 {
            let busiest = totals.iter().position(|&b| b == max).unwrap_or(0);
            let _ = writeln!(
                out,
                "traffic skew: rank {busiest} sent {} ({:.2}x the mean)",
                fmt_bytes(max),
                max as f64 / mean
            );
        }
        out
    }
}

/// Phases faster than this on the reference are never time-gated:
/// scheduler noise dominates sub-millisecond phases.
const MIN_GATED_SECS: f64 = 1e-3;

/// The CI regression gate: compares `subject` against `reference`.
///
/// Deterministic quantities — per-phase bytes/msgs (both directions), run
/// totals, every matrix cell, every histogram bucket — must match
/// **exactly**; any drift means the algorithm's communication pattern
/// changed and the reference must be consciously regenerated. Times are
/// checked only when `max_time_ratio` is set: each phase's subject
/// `secs_max` may then be at most that multiple of the reference's, for
/// phases where the reference took at least 1 ms. `None` ignores times —
/// the right choice when reference and subject ran on different machines,
/// where only the deterministic traffic is comparable. Returns every
/// violation, not just the first.
pub fn gate(
    reference: &RunReportDoc,
    subject: &RunReportDoc,
    max_time_ratio: Option<f64>,
) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    if reference.time_domain != subject.time_domain {
        errs.push(format!(
            "time_domain: reference {:?} vs subject {:?} — a wall-clock run must never be \
             gated against a virtual-time run",
            reference.time_domain, subject.time_domain
        ));
        return Err(errs);
    }
    // Compute blocks carry machine-specific timings, so they are never
    // numerically gated — but comparing a profiled report against an
    // unprofiled one silently ignores the entire compute side. Refuse.
    if reference.compute.is_some() != subject.compute.is_some() {
        errs.push(format!(
            "compute block {} in reference but {} in subject — profiled and unprofiled \
             runs are not comparable",
            if reference.compute.is_some() {
                "present"
            } else {
                "absent"
            },
            if subject.compute.is_some() {
                "present"
            } else {
                "absent"
            }
        ));
        return Err(errs);
    }
    if reference.ranks != subject.ranks {
        errs.push(format!(
            "ranks: reference {} vs subject {}",
            reference.ranks, subject.ranks
        ));
        return Err(errs);
    }
    if reference.totals != subject.totals {
        errs.push(format!(
            "totals differ: reference {:?} vs subject {:?}",
            reference.totals, subject.totals
        ));
    }

    let ref_phases: BTreeMap<&str, &PhaseRow> = reference
        .phases
        .iter()
        .map(|p| (p.phase.as_str(), p))
        .collect();
    let sub_phases: BTreeMap<&str, &PhaseRow> = subject
        .phases
        .iter()
        .map(|p| (p.phase.as_str(), p))
        .collect();
    for (name, r) in &ref_phases {
        let Some(s) = sub_phases.get(name) else {
            errs.push(format!("phase {name:?} missing from subject"));
            continue;
        };
        let traffic = |p: &PhaseRow| {
            (
                p.sent_bytes,
                p.sent_msgs,
                p.recv_bytes,
                p.recv_msgs,
                p.max_rank_sent_bytes,
                p.max_rank_sent_msgs,
            )
        };
        if traffic(r) != traffic(s) {
            errs.push(format!(
                "phase {name:?} traffic: reference {:?} vs subject {:?}",
                traffic(r),
                traffic(s)
            ));
        }
        if let Some(max_ratio) = max_time_ratio {
            if r.secs_max >= MIN_GATED_SECS {
                let ratio = s.secs_max / r.secs_max;
                // `partial_cmp` keeps the NaN-must-fail semantics explicit.
                if ratio.partial_cmp(&max_ratio) != Some(std::cmp::Ordering::Less)
                    && ratio != max_ratio
                {
                    errs.push(format!(
                        "phase {name:?} time: {:.6}s vs reference {:.6}s is {ratio:.2}x (limit {max_ratio}x)",
                        s.secs_max, r.secs_max
                    ));
                }
            }
        }
    }
    for name in sub_phases.keys() {
        if !ref_phases.contains_key(name) {
            errs.push(format!("phase {name:?} not present in reference"));
        }
    }

    if reference.matrix != subject.matrix {
        let p = reference.ranks;
        let mut reported = 0;
        'cells: for i in 0..p {
            for j in 0..p {
                let (a, b) = (reference.matrix.sent(i, j), subject.matrix.sent(i, j));
                let (c, d) = (
                    reference.matrix.received(i, j),
                    subject.matrix.received(i, j),
                );
                if a != b || c != d {
                    errs.push(format!(
                        "matrix[{i}][{j}]: send {a:?}→{b:?}, recv {c:?}→{d:?}"
                    ));
                    reported += 1;
                    if reported >= 5 {
                        errs.push("… more matrix cells differ".to_owned());
                        break 'cells;
                    }
                }
            }
        }
    }

    for (label, a, b) in [
        ("by_phase", &reference.hist_by_phase, &subject.hist_by_phase),
        ("by_algo", &reference.hist_by_algo, &subject.hist_by_algo),
    ] {
        if a != b {
            let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
            for k in keys {
                match (a.get(k), b.get(k)) {
                    (Some(x), Some(y)) if x == y => {}
                    (Some(x), Some(y)) => errs.push(format!(
                        "histogram {label}/{k}: {} msgs {} B vs {} msgs {} B (or bucket shape)",
                        x.msgs, x.bytes, y.msgs, y.bytes
                    )),
                    (Some(_), None) => {
                        errs.push(format!("histogram {label}/{k} missing from subject"))
                    }
                    (None, Some(_)) => errs.push(format!("histogram {label}/{k} new in subject")),
                    (None, None) => unreachable!(),
                }
            }
        }
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Formats gate violations for CI logs.
pub fn render_gate_failures(errs: &[String]) -> String {
    let mut out = String::from("report-gate FAILED:\n");
    for e in errs {
        let _ = writeln!(out, "  - {e}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::world::World;

    fn sample_report() -> RunReport {
        let (_, report) = World::run_traced(2, async |ctx| {
            let comm = Comm::world(ctx);
            ctx.set_phase("stage");
            if comm.rank() == 0 {
                comm.send(ctx, 1, 0, vec![1.0f64; 64]);
            } else {
                let _: Vec<f64> = comm.recv_async(ctx, 0, 0).await;
            }
            crate::collectives::barrier(&comm, ctx).await;
        });
        report
    }

    fn sample_doc() -> RunReportDoc {
        let report = sample_report();
        let meta = Json::obj([("name", Json::Str("sample".into()))]);
        RunReportDoc::parse(&report.to_json(meta).to_string_pretty()).expect("round trip")
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let meta = Json::obj([("name", Json::Str("sample".into()))]);
        let doc = RunReportDoc::parse(&report.to_json(meta.clone()).to_string()).expect("parses");
        // The reader returns exactly the summary the writer serialized.
        assert_eq!(doc, report.summary(meta));
        assert_eq!(doc.ranks, 2);
        assert_eq!(doc.name(), Some("sample"));
        let stage = doc.phases.iter().find(|p| p.phase == "stage").unwrap();
        assert_eq!(stage.sent_bytes, 512); // 64 f64 payload; barrier msgs are 0 B
        assert_eq!(stage.recv_bytes, 512);
        assert_eq!(stage.sent_msgs, 3); // payload + 2 barrier rounds... (1 each)
        assert!(doc.critical_path.is_some());
        assert_eq!(doc.matrix.sent(0, 1).bytes, 512);
        assert_eq!(doc.matrix.received(1, 0).bytes, 512);
        assert!(doc.hist_by_algo.contains_key("dissemination_barrier"));
        assert!(doc.hist_by_algo.contains_key("p2p"));
    }

    #[test]
    fn dashboard_renders_all_sections() {
        let doc = sample_doc();
        let dash = doc.render_dashboard();
        assert!(dash.contains("RunReport sample"));
        assert!(dash.contains("stage"));
        assert!(dash.contains("critical path"));
        assert!(dash.contains("communication matrix"));
        assert!(dash.contains("dissemination_barrier"));
        assert!(dash.contains("bottleneck phase"));
    }

    #[test]
    fn gate_passes_self_and_fails_perturbed() {
        let doc = sample_doc();
        assert!(gate(&doc, &doc, None).is_ok());

        // Perturb one byte count end to end through the JSON (as the CI
        // negative test does) and the gate must fail.
        let report = sample_report();
        let text = report
            .to_json(Json::obj([("name", Json::Str("sample".into()))]))
            .to_string_pretty();
        let perturbed = text.replacen("512", "513", 1);
        assert_ne!(text, perturbed, "fixture must contain the byte count");
        match RunReportDoc::parse(&perturbed) {
            // Either the internal consistency check already rejects the
            // tampered file, or the gate must flag it.
            Err(_) => {}
            Ok(doc2) => {
                let errs = gate(&doc, &doc2, None).unwrap_err();
                assert!(!errs.is_empty());
                assert!(render_gate_failures(&errs).contains("report-gate FAILED"));
            }
        }
    }

    #[test]
    fn gate_time_ratio_policy() {
        let mut a = sample_doc();
        let mut b = a.clone();
        a.phases[0].secs_max = 1.0;
        b.phases[0].secs_max = 10.0;
        // Times ignored by default.
        assert!(gate(&a, &b, None).is_ok());
        // Ratio-gated when asked.
        let errs = gate(&a, &b, Some(2.0)).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("time")), "{errs:?}");
        // Sub-threshold reference times are never gated.
        a.phases[0].secs_max = 1e-6;
        b.phases[0].secs_max = 1.0;
        assert!(gate(&a, &b, Some(2.0)).is_ok());
    }

    #[test]
    fn parse_rejects_malformed_reports() {
        assert!(RunReportDoc::parse("not json").is_err());
        assert!(RunReportDoc::parse("{}").is_err());
        // Unsupported versions — a future one and a complete, formerly
        // readable v2 document — yield the structured error, not a panic.
        let future = Json::obj([
            ("schema_version", Json::Num(99.0)),
            ("kind", Json::Str(REPORT_KIND.into())),
        ]);
        let v2 = r#"{
            "schema_version": 2,
            "kind": "ca3dmm_run_report",
            "time_domain": "wall",
            "sim": null,
            "meta": {"name": "v2-legacy"},
            "machine": {"arch": "x86_64", "os": "linux"},
            "ranks": 1,
            "phases": [],
            "totals": {"sent_bytes": 0, "sent_msgs": 0,
                       "max_rank_bytes": 0, "max_rank_msgs": 0},
            "matrix": {"format": "sparse", "send": [], "recv": []},
            "histograms": {"by_phase": {}, "by_algo": {}},
            "wait_per_rank": [{}],
            "critical_path": null
        }"#;
        for (text, version) in [(future.to_string(), 99), (v2.to_owned(), 2)] {
            let e = RunReportDoc::parse(&text).unwrap_err();
            assert!(
                e.contains(&format!("unsupported schema_version {version}")),
                "{e}"
            );
        }
        // The same document at the current version parses once it carries
        // the v3 `compute` key — and not before.
        let v3 = v2.replace("\"schema_version\": 2", "\"schema_version\": 3");
        let e = RunReportDoc::parse(&v3).unwrap_err();
        assert!(e.contains("compute"), "{e}");
        let v3 = v3.replace(
            "\"critical_path\": null",
            "\"critical_path\": null, \"compute\": null",
        );
        let doc = RunReportDoc::parse(&v3).expect("minimal v3 parses");
        assert!(doc.compute.is_none());
        assert!(!doc.render_dashboard().contains("compute attribution"));
        // A rank count the document does not list is refused before
        // anything is sized by it (this one used to abort the process on a
        // 24 TB allocation).
        let huge = v3.replace("\"ranks\": 1,", "\"ranks\": 1000000000000,");
        let e = RunReportDoc::parse(&huge).unwrap_err();
        assert!(e.contains("wait_per_rank has 1 entries"), "{e}");
    }

    #[test]
    fn virtual_report_round_trips_with_sim_block() {
        let machine = netmodel::Machine::uniform();
        let (_, report) = World::simulate(2, &machine, crate::SimOptions::default(), async |ctx| {
            let comm = Comm::world(ctx);
            ctx.set_phase("pp");
            if comm.rank() == 0 {
                comm.send(ctx, 1, 0, vec![1.0f64; 64]);
                let _: Vec<f64> = comm.recv_async(ctx, 1, 1).await;
            } else {
                let v: Vec<f64> = comm.recv_async(ctx, 0, 0).await;
                comm.send(ctx, 0, 1, v);
            }
        });
        let sim = report.sim.as_ref().expect("sim info");
        assert!(sim.makespan_secs > 0.0);
        let meta = Json::obj([("name", Json::Str("sim-pp".into()))]);
        let text = report.to_json(meta.clone()).to_string_pretty();
        let doc = RunReportDoc::parse(&text).expect("virtual report parses");
        assert_eq!(doc, report.summary(meta));
        assert_eq!(doc.time_domain, "virtual");
        let block = doc.sim.as_ref().expect("sim block survives the round trip");
        assert_eq!(block.machine.name, "uniform");
        assert_eq!(block.makespan_secs, sim.makespan_secs);
        // Untraced, but the virtual clocks synthesize a critical path.
        let cp = doc
            .critical_path
            .as_ref()
            .expect("synthesized critical path");
        assert!(cp.iter().any(|c| c.phase == "pp" && c.crit_secs > 0.0));
        // No spans under virtual time: communication is the crit rank's
        // blocked seconds.
        for c in cp {
            assert_eq!(c.comm_secs, report.wait_secs(c.crit_rank, &c.phase));
            assert_eq!(c.comp_secs, c.crit_secs - c.comm_secs);
        }
        assert_eq!(doc.matrix.sent(0, 1).bytes, 512);
    }

    #[test]
    fn profiled_report_round_trips_compute_block() {
        let opts = crate::RunOptions {
            gemm_prof: true,
            ..crate::RunOptions::traced()
        };
        let (_, report) = World::run_opts(2, opts, async |ctx| {
            ctx.set_phase("mult");
            let a = dense::random::random_mat::<f64>(96, 96, 7);
            let b = dense::random::random_mat::<f64>(96, 96, 8);
            let mut c = dense::Mat::<f64>::zeros(96, 96);
            dense::gemm(
                dense::GemmOp::NoTrans,
                dense::GemmOp::NoTrans,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
            );
            crate::collectives::barrier(&Comm::world(ctx), ctx).await;
        });
        assert_eq!(report.compute.len(), 2, "both ranks captured");
        let meta = Json::obj([("name", Json::Str("prof".into()))]);
        let text = report.to_json(meta.clone()).to_string_pretty();
        let doc = RunReportDoc::parse(&text).expect("profiled report parses");
        assert_eq!(doc, report.summary(meta));
        let compute = doc.compute.as_ref().expect("compute block survives");
        assert_eq!(compute.len(), 2);
        for row in compute
            .iter()
            .map(|r| r.as_ref().expect("both ranks ran a gemm"))
        {
            assert!(row.gemm_calls >= 1);
            assert!(row.flops >= 2.0 * 96.0 * 96.0 * 96.0);
            let rebuilt = row.pack_a_secs + row.pack_b_secs + row.compute_secs + row.idle_secs;
            assert!(
                (rebuilt - row.thread_secs).abs() <= 0.05 * row.thread_secs,
                "split {rebuilt} vs thread_secs {}",
                row.thread_secs
            );
            assert!(row.pack_bytes <= row.pack_bound_bytes);
            assert!(row.peak_gflops > 0.0);
            assert_eq!(row.kernel, dense::kernel::gemm_kernel().name());
            let (pack, comp, idle) = row.pct_split();
            assert!((pack + comp + idle - 100.0).abs() < 1e-6);
        }
        let dash = doc.render_dashboard();
        assert!(dash.contains("compute attribution"), "{dash}");
        // Self-gate passes with compute on both sides.
        assert!(gate(&doc, &doc, None).is_ok());
    }

    #[test]
    fn gate_refuses_cross_schema_compute_comparison() {
        let doc = sample_doc();
        let mut profiled = doc.clone();
        profiled.compute = Some(vec![None, None]);

        // Compute present on one side only → refused. (Both sides are v3:
        // `parse` reads no other schema.)
        let errs = gate(&doc, &profiled, None).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("compute block")), "{errs:?}");
    }

    #[test]
    fn parse_rejects_tampered_compute_split() {
        // A compute row whose shares cannot rebuild thread_secs is a
        // hand-edited artifact; the parser must reject it.
        let bad = r#"{
            "schema_version": 3,
            "kind": "ca3dmm_run_report",
            "time_domain": "wall",
            "sim": null,
            "meta": {"name": "tampered"},
            "machine": {"arch": "x86_64", "os": "linux"},
            "ranks": 1,
            "phases": [],
            "totals": {"sent_bytes": 0, "sent_msgs": 0,
                       "max_rank_bytes": 0, "max_rank_msgs": 0},
            "matrix": {"format": "sparse", "send": [], "recv": []},
            "histograms": {"by_phase": {}, "by_algo": {}},
            "wait_per_rank": [{}],
            "critical_path": null,
            "compute": [{
                "gemm_calls": 1, "flops": 1000.0,
                "gemm_wall_secs": 1.0, "thread_secs": 4.0,
                "pack_a_secs": 0.1, "pack_b_secs": 0.1,
                "compute_secs": 0.5, "idle_secs": 0.5,
                "pack_bytes": 10, "pack_bound_bytes": 20,
                "achieved_gflops": 1.0, "kernel": "portable", "peak_gflops": 2.0,
                "max_width": 4, "imbalance": 1.0, "coverage": 1.0,
                "dropped_spans": 0,
                "pool": {"queue_depth_hwm": 0, "submit_wake_secs": 0.0,
                         "jobs": 0, "regions": 0, "jobs_per_worker": []}
            }]
        }"#;
        let e = RunReportDoc::parse(bad).unwrap_err();
        assert!(e.contains("reconcile"), "{e}");
        // The kernel name is required and must be one the dispatcher knows.
        for kernel in [r#""kernel": "sse9", "#, ""] {
            let e =
                RunReportDoc::parse(&bad.replace(r#""kernel": "portable", "#, kernel)).unwrap_err();
            assert!(e.contains("kernel"), "{e}");
        }
    }

    #[test]
    fn gate_refuses_cross_domain_comparison() {
        let wall = sample_doc();
        let mut fake_virtual = wall.clone();
        fake_virtual.time_domain = "virtual".to_owned();
        let errs = gate(&wall, &fake_virtual, None).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("time_domain")), "{errs:?}");
    }
}
