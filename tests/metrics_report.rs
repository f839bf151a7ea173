//! The metrics layer's cross-crate guarantees: the log2 size buckets
//! partition `u64` exactly (property test), and on a real 4-rank CA3DMM run
//! every view of the traffic — per-phase counters on both sides, the
//! rank×rank communication matrix, the size histograms, the JSON artifact —
//! reconciles with every other. A profiled run additionally exercises the schema-v3
//! `compute` block end to end: round-trip, reconciliation against the rank
//! GEMM wall time, isolation from an unprofiled run in the same process, and
//! a property test that the profiler's retained spans cover exactly its
//! stated `coverage` fraction of the exact busy time.

use ca3dmm::{Ca3dmm, Ca3dmmOptions, Pgemm};
use dense::part::Rect;
use dense::random::global_block;
use dense::Mat;
use gridopt::{Grid, Problem};
use jsonlite::Json;
use msgpass::metrics::{bucket_label, size_bucket, HIST_BUCKETS};
use msgpass::{Comm, RunOptions, RunReport, RunReportDoc, SizeHistogram, World};
use proptest::prelude::*;

/// Strategy: a `u64` with a uniformly chosen significant-bit count, so
/// every one of the 65 buckets (including 0 and the open-ended top one) is
/// exercised rather than only the astronomically large sizes a uniform
/// `u64` draw would produce.
fn any_size() -> impl Strategy<Value = u64> {
    (0usize..65, 0u64..u64::MAX).prop_map(|(bits, raw)| {
        if bits == 0 {
            0
        } else {
            // Force the top bit so the value has exactly `bits` bits.
            (raw | (1u64 << 63)) >> (64 - bits)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every `u64` size lands in exactly one bucket, and that bucket's
    /// stated range actually contains it: bucket 0 is only size 0, bucket
    /// `k ≥ 1` covers `[2^(k-1), 2^k)`, bucket 64 is open-ended.
    #[test]
    fn log2_buckets_partition_u64(size in any_size()) {
        let b = size_bucket(size);
        prop_assert!(b < HIST_BUCKETS);
        if size == 0 {
            prop_assert_eq!(b, 0);
        } else {
            prop_assert!(b >= 1);
            prop_assert!(size >= 1u64 << (b - 1), "size {size} below bucket {b} floor");
            if b < 64 {
                prop_assert!(size < 1u64 << b, "size {size} at or above bucket {b} ceiling");
            }
        }
        // The label machinery must accept every reachable bucket.
        prop_assert!(!bucket_label(b).is_empty());
    }

    /// Recording any batch of sizes preserves the totals: bucket counts sum
    /// to the message count, bytes sum exactly, and the sparse wire form
    /// (`from_parts`) round-trips the histogram.
    #[test]
    fn histogram_totals_reconcile(sizes in proptest::collection::vec(any_size(), 0..64)) {
        let mut h = SizeHistogram::new();
        let (mut bytes, mut msgs) = (0u64, 0u64);
        for &s in &sizes {
            // Overflow of the u64 byte total is out of scope for real runs
            // (it would need 16 EiB of traffic); skip sizes that would.
            let Some(nb) = bytes.checked_add(s) else { continue };
            h.record(s);
            bytes = nb;
            msgs += 1;
        }
        prop_assert_eq!(h.msgs, msgs);
        prop_assert_eq!(h.bytes, bytes);
        let count_sum: u64 = h.nonzero().iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(count_sum, h.msgs);
        // The sparse wire form round-trips the histogram exactly.
        let rt = SizeHistogram::from_parts(&h.nonzero(), h.bytes).unwrap();
        prop_assert_eq!(rt, h);
    }
}

#[test]
fn bucket_edges_are_exact() {
    assert_eq!(size_bucket(0), 0);
    assert_eq!(size_bucket(1), 1);
    assert_eq!(size_bucket(2), 2);
    assert_eq!(size_bucket(3), 2);
    assert_eq!(size_bucket(4), 3);
    assert_eq!(size_bucket((1 << 63) - 1), 63);
    assert_eq!(size_bucket(1 << 63), 64);
    assert_eq!(size_bucket(u64::MAX), 64);
}

/// Ranks of [`traced_ca3dmm_run`].
const P: usize = 4;

/// Runs a real 4-rank CA3DMM multiply with tracing — and the kernel
/// profiler iff `gemm_prof` — and returns its report. Every rank calls
/// `before_multiply` once inside the run.
fn traced_ca3dmm_run(gemm_prof: bool, before_multiply: impl Fn() + Sync) -> (Ca3dmm, RunReport) {
    let (m, n, k, p) = (48, 48, 48, P);
    let prob = Problem::new(m, n, k, p);
    let alg = Ca3dmm::new(
        prob,
        &Ca3dmmOptions {
            grid_override: Some(Grid::new(2, 1, 2)),
            ..Default::default()
        },
    );
    let gc = alg.grid_context();
    let (la, lb) = (gc.layout_a(), gc.layout_b());
    let a_full = global_block::<f64>(1, Rect::new(0, 0, m, k));
    let b_full = global_block::<f64>(2, Rect::new(0, 0, k, n));
    let opts = RunOptions {
        gemm_prof,
        ..RunOptions::traced()
    };
    let (_, report) = World::run_opts(p, opts, async |ctx| {
        let world = Comm::world(ctx);
        let me = world.rank();
        let a = la.extract(&a_full, me).into_iter().next();
        let b = lb.extract(&b_full, me).into_iter().next();
        before_multiply();
        let _: Option<Mat<f64>> = alg.multiply_native_async(ctx, &world, a, b).await;
    });
    (alg, report)
}

/// The `meta.gemm_prof` flag of the artifact `alg` writes for `report`.
fn meta_gemm_prof(alg: &Ca3dmm, report: &RunReport) -> Option<bool> {
    alg.report_meta("metrics_report_prof", report)
        .get("gemm_prof")
        .and_then(jsonlite::Json::as_bool)
}

/// Whether a run is profiled is a property of that run's options, not of
/// the process: a profiled and an unprofiled world running *at the same
/// time* each get the compute block and `gemm_prof` meta their own
/// `RunOptions` asked for. (A process-global switch made this racy: the
/// run that read it last won.)
#[test]
fn concurrent_profiled_and_unprofiled_runs_do_not_interfere() {
    // Every rank of both worlds meets here before any of them multiplies,
    // so all eight rank threads are inside their runs at once.
    let all_ranks = std::sync::Barrier::new(2 * P);
    let run = |gemm_prof| {
        traced_ca3dmm_run(gemm_prof, || {
            all_ranks.wait();
        })
    };
    let ((alg_on, on), (alg_off, off)) = std::thread::scope(|s| {
        let on = s.spawn(|| run(true));
        let off = s.spawn(|| run(false));
        (on.join().unwrap(), off.join().unwrap())
    });

    assert_eq!(on.compute.len(), P, "every profiled rank captured");
    let calls: u64 = on.compute.iter().flatten().map(|c| c.gemm_calls).sum();
    assert!(calls > 0, "the profiled world recorded its GEMMs");
    assert_eq!(meta_gemm_prof(&alg_on, &on), Some(true));

    assert!(
        off.compute.is_empty(),
        "the unprofiled world captured nothing"
    );
    assert_eq!(meta_gemm_prof(&alg_off, &off), Some(false));
    // Both did the same communication regardless.
    assert_eq!(on.traffic.total_bytes(), off.traffic.total_bytes());
}

/// On a real CA3DMM run, the communication matrix's row and column sums
/// must equal the per-phase traffic totals: every byte a rank's phase
/// counters claim it sent appears in its matrix row, and what the senders
/// counted toward a rank (its column) is what that rank received.
#[test]
fn comm_matrix_reconciles_with_phase_totals() {
    let (_, report) = traced_ca3dmm_run(false, || ());
    let t = &report.traffic;
    t.check_consistency().expect("traffic views reconcile");

    let p = t.matrix.ranks();
    assert_eq!(p, 4);
    let mut run_sent = 0u64;
    for r in 0..p {
        let row_bytes: u64 = (0..p).map(|dst| t.matrix.sent(r, dst).bytes).sum();
        let row_msgs: u64 = (0..p).map(|dst| t.matrix.sent(r, dst).msgs).sum();
        let totals = t.rank_total(r);
        assert_eq!(row_bytes, totals.bytes, "rank {r} send row vs phase totals");
        assert_eq!(row_msgs, totals.msgs, "rank {r} send msgs");
        // Column r = what everyone sent *to* r = what r received.
        let col_bytes: u64 = (0..p).map(|src| t.matrix.sent(src, r).bytes).sum();
        let col_msgs: u64 = (0..p).map(|src| t.matrix.sent(src, r).msgs).sum();
        assert_eq!(
            col_bytes, totals.recv_bytes,
            "rank {r} column vs recv bytes"
        );
        assert_eq!(col_msgs, totals.recv_msgs, "rank {r} column vs recv msgs");
        run_sent += row_bytes;
    }
    assert!(run_sent > 0, "a 4-rank CA3DMM run must communicate");
    assert_eq!(run_sent, t.total_bytes());

    // The histograms carry the same total.
    let algo_bytes: u64 = t.hist_by_algo.values().map(|h| h.bytes).sum();
    assert_eq!(algo_bytes, run_sent);

    // Ranks that only receive still show activity (the recv-side counters
    // exist precisely because send-only accounting hid them).
    for r in 0..p {
        let tot = t.rank_total(r);
        assert!(
            tot.bytes + tot.recv_bytes > 0,
            "rank {r} shows no traffic at all"
        );
    }
}

/// A profiled run's artifact: every rank gets a compute row, the
/// pack/compute/idle split reconciles with the rank's GEMM wall time
/// (thread-seconds) within 5%, and the dashboard renders the compute table.
#[test]
fn profiled_run_report_compute_block_reconciles() {
    let (alg, report) = traced_ca3dmm_run(true, || ());
    assert_eq!(report.compute.len(), 4, "all ranks captured");

    let text = report
        .to_json(alg.report_meta("metrics_report_prof", &report))
        .to_string_pretty();
    let doc = RunReportDoc::parse(&text).expect("profiled artifact parses");
    assert_eq!(
        doc.meta.get("gemm_prof").and_then(jsonlite::Json::as_bool),
        Some(true),
        "meta records that the run was profiled"
    );
    let compute = doc.compute.as_ref().expect("schema-v3 compute block");
    assert_eq!(compute.len(), 4);
    let mut ranks_with_gemms = 0;
    for (rank, row) in compute.iter().enumerate() {
        let row = row.as_ref().expect("every rank captured");
        if row.gemm_calls == 0 {
            continue;
        }
        ranks_with_gemms += 1;
        // Acceptance: pack + compute + idle rebuild the rank's GEMM
        // thread-seconds (width × wall summed per call) within 5%.
        let rebuilt = row.pack_a_secs + row.pack_b_secs + row.compute_secs + row.idle_secs;
        assert!(
            (rebuilt - row.thread_secs).abs() <= 0.05 * row.thread_secs.max(1e-12),
            "rank {rank}: split {rebuilt} vs thread_secs {}",
            row.thread_secs
        );
        assert!(
            row.thread_secs >= 0.999 * row.gemm_wall_secs,
            "rank {rank}: thread-seconds below single-width wall time"
        );
        assert!((0.0..=1.0 + 1e-9).contains(&row.coverage), "rank {rank}");
        assert!(row.pack_bytes <= row.pack_bound_bytes, "rank {rank}");
        assert!(row.peak_gflops > 0.0 && row.achieved_gflops > 0.0);
    }
    assert!(ranks_with_gemms > 0, "some rank multiplied");
    assert!(doc.render_dashboard().contains("compute attribution"));

    // Self-gate passes with the compute block on both sides.
    msgpass::report::gate(&doc, &doc, None).expect("profiled self gate");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Direct-capture property: for random GEMM shapes, the profiler's
    /// retained busy spans sum to exactly its stated `coverage` fraction of
    /// the exact busy time (both come from the same timestamps), and the
    /// derived idle closes the thread-seconds identity.
    #[test]
    fn profiler_spans_cover_stated_busy_fraction(
        m in 8usize..56,
        n in 8usize..56,
        k in 8usize..56,
    ) {
        dense::prof::begin_capture();
        let a = dense::random::random_mat::<f64>(m, k, 3);
        let b = dense::random::random_mat::<f64>(k, n, 4);
        let mut c = Mat::<f64>::zeros(m, n);
        dense::gemm(
            dense::GemmOp::NoTrans,
            dense::GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
        );
        let profile = dense::prof::end_capture().expect("capture was active");

        let busy_exact = profile.pack_a_secs + profile.pack_b_secs + profile.compute_secs;
        let span_busy: f64 = profile
            .spans
            .iter()
            .filter(|s| s.phase.is_busy())
            .map(|s| (s.t1_ns - s.t0_ns) as f64 * 1e-9)
            .sum();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&profile.coverage));
        prop_assert!(
            (span_busy - profile.coverage * busy_exact).abs() <= 1e-9 + 1e-6 * busy_exact,
            "span sum {span_busy} vs coverage {} x busy {busy_exact}",
            profile.coverage
        );
        let rebuilt = busy_exact + profile.idle_secs;
        prop_assert!(
            (rebuilt - profile.thread_secs).abs() <= 0.05 * profile.thread_secs.max(1e-12),
            "identity {rebuilt} vs {}",
            profile.thread_secs
        );
    }
}

/// The JSON artifact round-trips losslessly enough to gate against itself,
/// and a perturbed artifact is rejected — either at parse (internal
/// inconsistency) or by the gate.
#[test]
fn run_report_artifact_round_trips_and_gates() {
    let (alg, report) = traced_ca3dmm_run(false, || ());
    let text = report
        .to_json(alg.report_meta("metrics_report_e2e", &report))
        .to_string_pretty();
    let doc = RunReportDoc::parse(&text).expect("artifact parses");
    assert_eq!(doc.name(), Some("metrics_report_e2e"));
    assert_eq!(doc.ranks, 4);
    let doc_sent: u64 = doc.phases.iter().map(|ph| ph.sent_bytes).sum();
    assert_eq!(doc_sent, report.traffic.total_bytes());
    assert!(
        doc.critical_path.is_some(),
        "traced run has a critical path"
    );

    // Self-gate passes, with and without a time ratio.
    msgpass::report::gate(&doc, &doc, None).expect("self gate");
    msgpass::report::gate(&doc, &doc, Some(1.0 + 1e-9)).expect("self gate with time ratio");

    // Dashboard renders every section for a real run.
    let dash = doc.render_dashboard();
    for needle in [
        "RunReport",
        "communication matrix",
        "message sizes",
        "bottleneck",
    ] {
        assert!(dash.contains(needle), "dashboard missing {needle:?}");
    }

    // Bump the busiest phase's byte count consistently across every view
    // of the sent traffic — its phase row, one matrix cell, one algorithm
    // histogram — so the artifact still parses; the exact gate must then
    // catch the drift.
    let mut json = Json::parse(&text).expect("artifact is JSON");
    let bump = |v: &mut Json| match v {
        Json::Num(x) => *x += 8.0,
        other => panic!("not a number: {other}"),
    };
    let Json::Arr(phases) = field(&mut json, "phases") else {
        panic!("phases is not an array")
    };
    let sent = |ph: &Json| ph.get("sent_bytes").and_then(Json::as_f64).unwrap_or(0.0);
    let busiest = phases.iter_mut().max_by(|a, b| sent(a).total_cmp(&sent(b)));
    bump(field(busiest.expect("phases present"), "sent_bytes"));
    let Json::Arr(cells) = field(field(&mut json, "matrix"), "send") else {
        panic!("matrix.send is not an array")
    };
    let cell = cells.iter_mut().find_map(|cell| match cell {
        Json::Arr(quad) if quad[2].as_f64() != Some(0.0) => Some(&mut quad[2]),
        _ => None,
    });
    bump(cell.expect("a nonzero matrix cell"));
    let Json::Obj(by_algo) = field(field(&mut json, "histograms"), "by_algo") else {
        panic!("histograms.by_algo is not an object")
    };
    bump(field(
        by_algo.values_mut().next().expect("a histogram"),
        "bytes",
    ));
    let perturbed = json.to_string_pretty();
    RunReportDoc::parse(&perturbed).expect("a consistent perturbation parses");
    let err = bench::report::gate(&text, &perturbed, None).expect_err("gate accepted the drift");
    assert!(err.contains("report-gate FAILED"), "{err}");
}

/// `key` of a JSON object, for editing an artifact in place.
fn field<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
    match json {
        Json::Obj(map) => map.get_mut(key).unwrap_or_else(|| panic!("no {key}")),
        other => panic!("{key}: not an object: {other}"),
    }
}

/// `netdiff` prices the configuration a run's own `meta` records: it
/// renders a traced 16-rank run (`fig5_breakdown --report-out` at its
/// default 256³) against the model, and refuses a report whose
/// `meta.overlap` is missing — guessing the blocking model would compare
/// different algorithms.
#[test]
fn netdiff_prices_the_run_its_meta_describes() {
    let prob = Problem::new(256, 256, 256, 16);
    let alg = Ca3dmm::new(prob, &Ca3dmmOptions::default());
    let (_, report) = bench::run_seeded(&alg, RunOptions::traced());
    let meta = alg.report_meta("fig5_breakdown_s256_p16", &report);
    let text = report.summary(meta).to_json().to_string_pretty();
    bench::report::show(&text).expect("dashboard renders");
    bench::report::netdiff(&text, Default::default()).expect("netdiff prices the run");
    let mut json = Json::parse(&text).expect("artifact is JSON");
    let Json::Obj(meta) = field(&mut json, "meta") else {
        panic!("meta is not an object")
    };
    meta.remove("overlap").expect("meta.overlap recorded");
    let err = bench::report::netdiff(&json.to_string_pretty(), Default::default())
        .expect_err("netdiff priced a report without meta.overlap");
    assert!(err.contains("meta.overlap"), "{err}");
}
