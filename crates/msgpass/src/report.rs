//! The versioned `RunReport` JSON artifact: one summary of a finished run,
//! one writer, one reader, and their consumers.
//!
//! [`crate::RunReport::summary`] is the one place a finished run is
//! aggregated into a [`RunReportDoc`]: per-phase traffic (both directions)
//! and slowest-rank seconds, run totals, the rank×rank communication
//! matrix, message-size histograms, the critical path, the sim block and
//! the kernel profiles. Every field has a reader outside its own round
//! trip: the dashboard, the gate, `netdiff`, CI or a test of other
//! behaviour. [`RunReportDoc::to_json`] is the only writer of the artifact —
//! under an explicit `schema_version`, so reports written by different
//! builds can be compared mechanically — and [`RunReportDoc::parse`] the
//! only reader, re-checking every invariant the writer guarantees. The flat
//! records inside it — [`PhaseRow`], [`CritRow`], [`Totals`], the `sim`
//! block's [`SimInfo`] and the compute rows' [`KernelProfile`] — are
//! `jsonlite::record!` declarations: each key is spelled once, as its field.
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
use dense::prof::KernelProfile;
use jsonlite::{Json, Value};
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
/// * **v4** — each message is counted once per side: drops `matrix.recv`
///   (the transpose of `matrix.send` for delivered messages),
///   `matrix.format`, `histograms.by_phase` (its totals are the phase rows)
///   and `totals.{sent_bytes, sent_msgs}` (sums of the phase rows).
/// * **v5** — every field has a reader: drops `wait_per_rank` (per-phase
///   waits stay in `wait_max`), the phase rows' `secs_sum` and `wait_sum`,
///   `machine.{host_parallelism, kernel_thread_budget, gemm_kernel}` (so a
///   virtual-time report no longer depends on the host that wrote it; the
///   kernel that ran is in each compute row) and, per compute row,
///   `max_width`, `dropped_spans` and the `pool` object, whose one read
///   member becomes `submit_wake_secs`.
pub const SCHEMA_VERSION: u64 = 5;

/// The largest world a report may describe: [`RunReportDoc::parse`]
/// refuses a larger `ranks` before anything is sized by it (the matrix
/// keeps one row per rank). Ten times the largest world anything here
/// simulates (a 10⁵-rank barrier).
const MAX_RANKS: usize = 1 << 20;

/// The `kind` discriminator of RunReport documents.
pub const REPORT_KIND: &str = "ca3dmm_run_report";

impl RunReport {
    /// The per-phase rows of [`RunReport::summary`], in
    /// [`crate::TrafficReport::phases`] order — everything a model diff
    /// needs, without copying the matrix or the histograms.
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        let t = &self.traffic;
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
                    wait_max: t.wait_secs_max(&phase),
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
    /// histograms, critical path, sim block and compute rows. `meta`
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
            ]),
            ranks: p,
            phases: self.phase_rows(),
            totals: Totals {
                max_rank_bytes: t.max_rank_bytes(),
                max_rank_msgs: t.max_rank_msgs(),
            },
            matrix: t.matrix.clone(),
            hist_by_algo: t.hist_by_algo.clone(),
            critical_path: self.critical_rows(),
            // Aggregates only: the spans go to the Chrome trace instead.
            compute: self.compute.iter().any(Option::is_some).then(|| {
                self.compute
                    .iter()
                    .map(|c| {
                        c.as_ref().map(|k| KernelProfile {
                            spans: Vec::new(),
                            ..k.clone()
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

jsonlite::record! {
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
        /// Slowest rank's seconds blocked in `recv` during the phase.
        pub wait_max: f64,
    }
}

jsonlite::record! {
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
}

jsonlite::record! {
    /// Run-wide per-rank maxima of a run summary (the run's sums are those of
    /// the phase rows).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Totals {
        /// The busiest rank's sent bytes (the paper's `Q`).
        pub max_rank_bytes: u64,
        /// The busiest rank's message count (the paper's `L`).
        pub max_rank_msgs: u64,
    }
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
    /// Machine block, verbatim (`arch`, `os`).
    pub machine: Json,
    /// World size.
    pub ranks: usize,
    /// Per-phase rows.
    pub phases: Vec<PhaseRow>,
    /// Run-wide per-rank maxima.
    pub totals: Totals,
    /// The communication matrix.
    pub matrix: CommMatrix,
    /// Size histograms by collective algorithm.
    pub hist_by_algo: BTreeMap<String, SizeHistogram>,
    /// Critical-path rows (None for untraced wall runs).
    pub critical_path: Option<Vec<CritRow>>,
    /// Per-rank kernel profiles with empty `spans` (None for unprofiled
    /// runs; entries are None for ranks that ran no profiled GEMM).
    pub compute: Option<Vec<Option<KernelProfile>>>,
}

fn hist_json(h: &SizeHistogram) -> Json {
    Json::obj([
        ("msgs", h.msgs.to_json()),
        ("bytes", h.bytes.to_json()),
        (
            "buckets",
            Json::Arr(
                h.nonzero()
                    .into_iter()
                    .map(|(b, c)| Json::Arr(vec![b.to_json(), c.to_json()]))
                    .collect(),
            ),
        ),
    ])
}

fn sparse_cells(cells: impl Iterator<Item = (usize, usize, CellCounts)>) -> Json {
    Json::Arr(
        cells
            .map(|(row, col, c)| {
                Json::Arr(vec![
                    row.to_json(),
                    col.to_json(),
                    c.bytes.to_json(),
                    c.msgs.to_json(),
                ])
            })
            .collect(),
    )
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
            let row = usize::read(&quad[0], &format!("{what}[{i}] row"))?;
            let col = usize::read(&quad[1], &format!("{what}[{i}] col"))?;
            if row >= p || col >= p {
                return Err(format!(
                    "{what}[{i}] indexes rank ({row},{col}) beyond p={p}"
                ));
            }
            Ok((
                row,
                col,
                CellCounts {
                    bytes: u64::read(&quad[2], &format!("{what}[{i}] bytes"))?,
                    msgs: u64::read(&quad[3], &format!("{what}[{i}] msgs"))?,
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
            let msgs: u64 = h.member(&what, "msgs")?;
            let bytes = h.member(&what, "bytes")?;
            let buckets = h
                .require(&what, "buckets")?
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
                        usize::read(&pair[0], &format!("{what} bucket index"))?,
                        u64::read(&pair[1], &format!("{what} bucket count"))?,
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

/// One rank's `compute` entry must rebuild `thread_secs` from its four
/// thread-second shares (the profiler derives idle as the remainder, so a
/// larger gap means the file was hand-edited).
fn check_compute_row(row: &KernelProfile, what: &str) -> Result<(), String> {
    let rebuilt = row.busy_secs() + row.idle_secs;
    if (rebuilt - row.thread_secs).abs() > 0.05 * row.thread_secs.max(1e-12) {
        return Err(format!(
            "{what}: pack+compute+idle = {rebuilt:.6}s does not reconcile with \
             thread_secs = {:.6}s (±5%)",
            row.thread_secs
        ));
    }
    Ok(())
}

impl RunReportDoc {
    /// Serializes the summary as the schema-versioned JSON artifact — the
    /// only writer of it.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", SCHEMA_VERSION.to_json()),
            ("kind", Json::Str(REPORT_KIND.to_owned())),
            ("time_domain", self.time_domain.to_json()),
            ("sim", self.sim.to_json()),
            ("meta", self.meta.clone()),
            ("machine", self.machine.clone()),
            ("ranks", self.ranks.to_json()),
            ("phases", self.phases.to_json()),
            ("totals", self.totals.to_json()),
            (
                "matrix",
                Json::obj([("send", sparse_cells(self.matrix.cells()))]),
            ),
            (
                "histograms",
                Json::obj([(
                    "by_algo",
                    Json::Obj(
                        self.hist_by_algo
                            .iter()
                            .map(|(k, h)| (k.clone(), hist_json(h)))
                            .collect(),
                    ),
                )]),
            ),
            ("critical_path", self.critical_path.to_json()),
            ("compute", self.compute.to_json()),
        ])
    }

    /// Parses and shape-validates a RunReport JSON document — the only
    /// reader of it. Every structural invariant the writer guarantees is
    /// re-checked here, so a hand-edited or truncated file fails loudly
    /// rather than gating against garbage. Errors name the JSON path from
    /// the document root, `report`.
    pub fn parse(text: &str) -> Result<RunReportDoc, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let version: u64 = doc.member("report", "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this build reads v{SCHEMA_VERSION} only)"
            ));
        }
        let kind: String = doc.member("report", "kind")?;
        if kind != REPORT_KIND {
            return Err(format!("kind {kind:?} is not {REPORT_KIND:?}"));
        }
        let time_domain: String = doc.member("report", "time_domain")?;
        if time_domain != "wall" && time_domain != "virtual" {
            return Err(format!(
                "time_domain {time_domain:?} is neither \"wall\" nor \"virtual\""
            ));
        }
        let sim: Option<SimInfo> = doc.member("report", "sim")?;
        if (time_domain == "virtual") != sim.is_some() {
            return Err(format!(
                "time_domain {time_domain:?} disagrees with the sim block being {}",
                if sim.is_some() { "present" } else { "absent" }
            ));
        }
        // Checked before anything is sized by `ranks`.
        let ranks: usize = doc.member("report", "ranks")?;
        if !(1..=MAX_RANKS).contains(&ranks) {
            return Err(format!("ranks = {ranks} is outside 1..={MAX_RANKS}"));
        }

        let send = doc
            .require("report", "matrix")?
            .require("report.matrix", "send")?;
        let send = parse_sparse_cells(send, ranks, "report.matrix.send")?;
        let matrix = CommMatrix::from_sparse(ranks, &send)
            .map_err(|e| format!("report.matrix.send: {e}"))?;
        let by_algo = doc
            .require("report", "histograms")?
            .require("report.histograms", "by_algo")?;
        let hist_by_algo = parse_hists(by_algo, "report.histograms.by_algo")?;

        // `null` unless the run was profiled.
        let compute: Option<Vec<Option<KernelProfile>>> = doc.member("report", "compute")?;
        if let Some(rows) = &compute {
            if rows.len() != ranks {
                return Err(format!(
                    "compute has {} entries, expected {ranks}",
                    rows.len()
                ));
            }
            if time_domain != "wall" {
                return Err("compute block present on a virtual-time report".to_owned());
            }
            for (r, row) in rows.iter().enumerate() {
                if let Some(row) = row {
                    check_compute_row(row, &format!("report.compute[{r}]"))?;
                }
            }
        }

        let parsed = RunReportDoc {
            time_domain,
            sim,
            meta: doc.require("report", "meta")?.clone(),
            machine: doc.require("report", "machine")?.clone(),
            ranks,
            phases: doc.member("report", "phases")?,
            totals: doc.member("report", "totals")?,
            matrix,
            hist_by_algo,
            critical_path: doc.member("report", "critical_path")?,
            compute,
        };
        parsed.check_internal_consistency()?;
        Ok(parsed)
    }

    /// Bytes and messages sent by the whole run: the sums of the phase rows.
    fn sent_totals(&self) -> (u64, u64) {
        self.phases
            .iter()
            .fold((0, 0), |(b, m), p| (b + p.sent_bytes, m + p.sent_msgs))
    }

    /// The views of the sent traffic must agree: the phase rows' sums, the
    /// matrix cells' sums and the algorithm histograms' sums.
    fn check_internal_consistency(&self) -> Result<(), String> {
        let sent = self.sent_totals();
        let cells = self
            .matrix
            .cells()
            .fold((0, 0), |(b, m), (_, _, c)| (b + c.bytes, m + c.msgs));
        let algo = self
            .hist_by_algo
            .values()
            .fold((0, 0), |(b, m), h| (b + h.bytes, m + h.msgs));
        for (view, (bytes, msgs)) in [("matrix cells", cells), ("histograms.by_algo", algo)] {
            if (bytes, msgs) != sent {
                return Err(format!(
                    "{view} sum to ({bytes} B, {msgs} msgs) but the phase rows to ({} B, {} msgs)",
                    sent.0, sent.1
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
        let (sent_bytes, sent_msgs) = self.sent_totals();
        let _ = writeln!(
            out,
            "totals: {} sent in {sent_msgs} msgs · busiest rank {} / {} msgs\n",
            fmt_bytes(sent_bytes),
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
                            1e3 * c.submit_wake_secs
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
/// Deterministic quantities — per-phase bytes/msgs (both directions), the
/// busiest rank's totals, every matrix cell, every histogram bucket — must
/// match **exactly**; any drift means the algorithm's communication pattern
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
                if a != b {
                    errs.push(format!("matrix[{i}][{j}]: {a:?}→{b:?}"));
                    reported += 1;
                    if reported >= 5 {
                        errs.push("… more matrix cells differ".to_owned());
                        break 'cells;
                    }
                }
            }
        }
    }

    let (a, b) = (&reference.hist_by_algo, &subject.hist_by_algo);
    if a != b {
        let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
        for k in keys {
            match (a.get(k), b.get(k)) {
                (Some(x), Some(y)) if x == y => {}
                (Some(x), Some(y)) => errs.push(format!(
                    "histogram {k}: {} msgs {} B vs {} msgs {} B (or bucket shape)",
                    x.msgs, x.bytes, y.msgs, y.bytes
                )),
                (Some(_), None) => errs.push(format!("histogram {k} missing from subject")),
                (None, Some(_)) => errs.push(format!("histogram {k} new in subject")),
                (None, None) => unreachable!(),
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

        // Perturb one byte count end to end through the JSON (as
        // `tests/metrics_report.rs` does) and the gate must fail.
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

    /// The smallest valid document: one rank that sent nothing.
    const MINIMAL: &str = r#"{
        "schema_version": 5,
        "kind": "ca3dmm_run_report",
        "time_domain": "wall",
        "sim": null,
        "meta": {"name": "minimal"},
        "machine": {"arch": "x86_64", "os": "linux"},
        "ranks": 1,
        "phases": [],
        "totals": {"max_rank_bytes": 0, "max_rank_msgs": 0},
        "matrix": {"send": []},
        "histograms": {"by_algo": {}},
        "critical_path": null,
        "compute": null
    }"#;

    /// [`MINIMAL`] whose rank sent `bytes` in `msgs` messages in phase `x`,
    /// with the given matrix cells and `p2p` histogram buckets.
    fn one_rank_doc(bytes: u64, msgs: u64, cells: &str, buckets: &str) -> String {
        let row = format!(
            r#"{{"phase": "x", "sent_bytes": {bytes}, "sent_msgs": {msgs},
                "recv_bytes": {bytes}, "recv_msgs": {msgs},
                "max_rank_sent_bytes": {bytes}, "max_rank_sent_msgs": {msgs},
                "secs_max": 0, "wait_max": 0}}"#
        );
        let hist = format!(r#"{{"msgs": {msgs}, "bytes": {bytes}, "buckets": {buckets}}}"#);
        MINIMAL
            .replace(r#""phases": []"#, &format!(r#""phases": [{row}]"#))
            .replace(r#""send": []"#, &format!(r#""send": {cells}"#))
            .replace(
                r#""by_algo": {}"#,
                &format!(r#""by_algo": {{"p2p": {hist}}}"#),
            )
    }

    #[test]
    fn parse_rejects_malformed_reports() {
        assert!(RunReportDoc::parse("not json").is_err());
        assert!(RunReportDoc::parse("{}").is_err());
        let doc = RunReportDoc::parse(MINIMAL).expect("minimal document parses");
        assert!(doc.compute.is_none());
        assert!(!doc.render_dashboard().contains("compute attribution"));
        // Unsupported versions — the previous one and a future one — yield
        // the structured error, not a panic.
        for version in [4, 99] {
            let text = MINIMAL.replace(
                r#""schema_version": 5"#,
                &format!(r#""schema_version": {version}"#),
            );
            let e = RunReportDoc::parse(&text).unwrap_err();
            assert!(
                e.contains(&format!("unsupported schema_version {version}")),
                "{e}"
            );
        }
        // Every key is required, `compute` included.
        let e = RunReportDoc::parse(&MINIMAL.replace(r#""compute""#, r#""kompute""#)).unwrap_err();
        assert!(e.contains("compute"), "{e}");
        // A rank count the document does not list is refused before
        // anything is sized by it (this one used to abort the process on a
        // 24 TB allocation).
        let huge = MINIMAL.replace(r#""ranks": 1,"#, r#""ranks": 1000000000000,"#);
        let e = RunReportDoc::parse(&huge).unwrap_err();
        assert!(e.contains("ranks = 1000000000000 is outside"), "{e}");
        // Two 8-byte messages, listed once, parse; the same cell listed
        // twice is refused rather than merged.
        assert!(RunReportDoc::parse(&one_rank_doc(16, 2, "[[0, 0, 16, 2]]", "[[4, 2]]")).is_ok());
        let dup = one_rank_doc(16, 2, "[[0, 0, 8, 1], [0, 0, 8, 1]]", "[[4, 2]]");
        let e = RunReportDoc::parse(&dup).unwrap_err();
        assert!(e.contains("cell (0,0) appears twice"), "{e}");
        // One zero-byte message cannot carry 5 bytes.
        let e = RunReportDoc::parse(&one_rank_doc(5, 1, "[[0, 0, 5, 1]]", "[[0, 1]]")).unwrap_err();
        assert!(e.contains("outside the buckets' range"), "{e}");
        // The sent traffic's views must agree.
        let e =
            RunReportDoc::parse(&one_rank_doc(16, 2, "[[0, 0, 8, 1]]", "[[4, 2]]")).unwrap_err();
        assert!(e.contains("matrix cells sum to (8 B, 1 msgs)"), "{e}");
    }

    #[test]
    fn dashboard_of_a_large_world_stays_small() {
        let p = 3072;
        let cell = CellCounts { bytes: 64, msgs: 1 };
        let cells: Vec<_> = (0..p)
            .flat_map(|r| [1, 48, 384].map(|d| (r, (r + d) % p, cell)))
            .collect();
        let doc = RunReportDoc {
            ranks: p,
            matrix: CommMatrix::from_sparse(p, &cells).unwrap(),
            ..sample_doc()
        };
        let dash = doc.render_dashboard();
        assert!(dash.len() < 64 << 10, "{} bytes", dash.len());
        assert!(
            dash.contains("row = src rank / 48, col = dst rank / 48"),
            "{dash}"
        );
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

        // Compute present on one side only → refused. (Both sides are v5:
        // `parse` reads no other schema.)
        let errs = gate(&doc, &profiled, None).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("compute block")), "{errs:?}");
    }

    #[test]
    fn parse_rejects_tampered_compute_split() {
        // A compute row whose shares cannot rebuild thread_secs is a
        // hand-edited artifact; the parser must reject it.
        let bad = MINIMAL.replace(
            r#""compute": null"#,
            r#""compute": [{
                "gemm_calls": 1, "flops": 1000.0,
                "gemm_wall_secs": 1.0, "thread_secs": 4.0,
                "pack_a_secs": 0.1, "pack_b_secs": 0.1,
                "compute_secs": 0.5, "idle_secs": 0.5,
                "pack_bytes": 10, "pack_bound_bytes": 20,
                "achieved_gflops": 1.0, "kernel": "portable", "peak_gflops": 2.0,
                "imbalance": 1.0, "coverage": 1.0, "submit_wake_secs": 0.0
            }]"#,
        );
        let e = RunReportDoc::parse(&bad).unwrap_err();
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
