//! End-to-end tests of the event-tracing subsystem: a real CA3DMM run is
//! traced, the resulting timeline must agree with the traffic report's
//! independent phase clock, the Chrome-trace export must be valid JSON with
//! perfectly matched B/E pairs (including the kernel-thread tracks a
//! profiled run merges in), a profiled run's kernel spans must lie on the
//! trace's own clock, and the critical-path and model-diff reports must be
//! self-consistent.

use ca3dmm::{ca3dmm_schedule, diff_model_vs_measured, Ca3dmm, Ca3dmmOptions, ModelConfig};
use dense::prof::SpanPhase;
use dense::Mat;
use gridopt::{Grid, Problem};
use jsonlite::Json;
use msgpass::{Comm, RunOptions, RunReport, SpanKind, World};
use netmodel::eval::evaluate;
use netmodel::Machine;

/// Runs CA3DMM (native layouts) traced and returns the report.
fn traced_ca3dmm(m: usize, n: usize, k: usize, p: usize, grid: Grid) -> RunReport {
    run_ca3dmm(m, n, k, p, grid, RunOptions::traced())
}

/// Runs CA3DMM (native layouts) on a forced grid under `opts`.
fn run_ca3dmm(m: usize, n: usize, k: usize, p: usize, grid: Grid, opts: RunOptions) -> RunReport {
    let options = Ca3dmmOptions {
        grid_override: Some(grid),
        ..Default::default()
    };
    let alg = Ca3dmm::new(Problem::new(m, n, k, p), &options);
    bench::run_seeded(&alg, opts).1
}

/// The timeline's per-phase seconds agree with the traffic report's
/// independent phase clock on every rank — both derive from the same
/// `set_phase` timestamps, so the agreement must be tight — and the bytes of
/// the `Send` spans inside each phase span match the traffic counters.
#[test]
fn timeline_agrees_with_traffic_phase_clock() {
    let report = traced_ca3dmm(64, 64, 64, 8, Grid::new(2, 2, 2));
    assert!(!report.timeline.is_empty());
    for phase in report.timeline.phases() {
        for rank in 0..report.timeline.ranks() {
            // Walk the rank's spans: phase spans are depth 0, and every
            // span up to the next phase span belongs to this one.
            let (mut trace_s, mut trace_bytes, mut in_phase) = (0.0, 0, false);
            for s in report.timeline.spans(rank) {
                match &s.kind {
                    SpanKind::Phase(name) => {
                        in_phase = *name == phase;
                        if in_phase {
                            trace_s += s.secs();
                        }
                    }
                    SpanKind::Send { .. } if in_phase => trace_bytes += s.bytes,
                    _ => {}
                }
            }
            let clock_s = report.traffic.phase_secs(rank, &phase);
            assert!(
                (trace_s - clock_s).abs() < 1e-6,
                "rank {rank} phase {phase}: timeline {trace_s} vs traffic {clock_s}"
            );
            assert_eq!(
                trace_bytes,
                report.traffic.phase(rank, &phase).bytes,
                "rank {rank} phase {phase} bytes"
            );
        }
    }
}

/// The Chrome-trace export parses as JSON and every `B` event has a
/// matching `E` on the same tid, properly nested (golden structural
/// checks, not byte-for-byte goldens — timestamps vary run to run).
#[test]
fn chrome_export_is_valid_and_balanced() {
    let p = 8;
    let report = traced_ca3dmm(48, 48, 96, p, Grid::new(2, 2, 2));
    let text = report.to_chrome_json();
    let json = Json::parse(&text).expect("chrome trace must be valid JSON");

    let events = json
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // per-tid stack walk: B pushes, E pops; ts monotone per tid
    let mut stacks: std::collections::BTreeMap<i64, Vec<String>> = Default::default();
    let mut last_ts: std::collections::BTreeMap<i64, f64> = Default::default();
    let mut names = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        if ph == "M" {
            continue; // metadata (thread names)
        }
        let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as i64;
        assert!(tid >= 0 && (tid as usize) < p, "tid {tid} out of range");
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        assert!(ts >= *prev, "timestamps must be non-decreasing per tid");
        *prev = ts;
        match ph {
            "B" => {
                let name = ev.get("name").and_then(Json::as_str).expect("name");
                names.insert(name.to_owned());
                stacks.entry(tid).or_default().push(name.to_owned());
            }
            "E" => {
                assert!(
                    stacks.entry(tid).or_default().pop().is_some(),
                    "E without matching B on tid {tid}"
                );
            }
            other => panic!("unexpected event phase {other}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "unclosed B events on tid {tid}: {stack:?}"
        );
    }
    // every rank owns a track
    let tids: Vec<i64> = last_ts.into_keys().collect();
    assert_eq!(tids, (0..p as i64).collect::<Vec<_>>(), "rank tracks");
    // the phases and at least one collective appear by name
    assert!(names.iter().any(|n| n.contains("cannon_shift")));
    assert!(names.iter().any(|n| n.contains("reduce_c")));
    // pk = 2 means the reduce phase runs its reduce-scatter collective
    assert!(names.iter().any(|n| n.contains("reduce_scatter")));
}

/// A profiled run's `RunReport::to_chrome_json` export merges kernel-thread
/// tracks (tid ≥ 1000, `tid = 1000·(rank+1) + track`) under the comm
/// timeline: the tracks exist, carry the profiler's phase labels, and keep
/// every tid's B/E pairs balanced with monotone timestamps.
#[test]
fn profiled_chrome_export_has_kernel_thread_tracks() {
    let p = 4;
    let opts = RunOptions {
        gemm_prof: true,
        ..RunOptions::traced()
    };
    let report = run_ca3dmm(64, 64, 64, p, Grid::new(2, 1, 2), opts);
    assert_eq!(report.compute.len(), p, "all ranks captured");

    let text = report.to_chrome_json();
    let json = Json::parse(&text).expect("profiled chrome trace must be valid JSON");
    let events = json
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    let mut rank_tids = std::collections::BTreeSet::new();
    let mut kernel_tids = std::collections::BTreeSet::new();
    let mut kernel_labels = std::collections::BTreeSet::new();
    let mut depth: std::collections::BTreeMap<i64, i64> = Default::default();
    let mut last_ts: std::collections::BTreeMap<i64, f64> = Default::default();
    for ev in events {
        let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as i64;
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        if tid < 1000 {
            assert!((tid as usize) < p, "comm tid {tid} out of range");
            if ph != "M" {
                rank_tids.insert(tid);
            }
            continue;
        }
        // Kernel track: rank index recoverable from the tid scheme.
        let rank = (tid as usize) / 1000 - 1;
        assert!(rank < p, "kernel tid {tid} maps to bad rank {rank}");
        if ph == "M" {
            continue;
        }
        kernel_tids.insert(tid);
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        assert!(ts >= 0.0, "kernel span before the trace epoch");
        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        assert!(ts >= *prev, "kernel timestamps monotone per tid");
        *prev = ts;
        let d = depth.entry(tid).or_insert(0);
        match ph {
            "B" => {
                *d += 1;
                let name = ev.get("name").and_then(Json::as_str).expect("name");
                kernel_labels.insert(name.to_owned());
            }
            "E" => *d -= 1,
            other => panic!("unexpected kernel event phase {other}"),
        }
        assert!((0..=1).contains(d), "kernel tracks must be flat");
    }
    for (tid, d) in &depth {
        assert_eq!(*d, 0, "unbalanced kernel B/E on tid {tid}");
    }
    let want: Vec<i64> = (0..p as i64).collect();
    assert_eq!(
        rank_tids.into_iter().collect::<Vec<_>>(),
        want,
        "rank tracks"
    );
    assert!(
        !kernel_tids.is_empty(),
        "a profiled run must emit kernel-thread tracks"
    );
    // The GEMMs here run below the parallel cutoff, so the rank thread
    // itself records pack/compute spans — those labels must appear.
    assert!(
        kernel_labels.contains("compute"),
        "kernel labels: {kernel_labels:?}"
    );
    assert!(
        kernel_labels.iter().any(|l| l.starts_with("pack")),
        "kernel labels: {kernel_labels:?}"
    );
}

/// Rank spans and kernel spans share one clock: in a traced, profiled run,
/// every kernel span a rank's capture recorded lies inside that rank's
/// traced interval as recorded, with no offset applied. Each rank's GEMM
/// is big enough to engage a helper job, so pool-worker spans are checked
/// too. A wake span ends when a worker pops the helper job, which may be
/// after its region finished without it, so only its start (the enqueue,
/// inside the GEMM) is bound.
#[test]
fn kernel_spans_lie_within_their_rank_on_one_clock() {
    let p = 4;
    let opts = RunOptions {
        gemm_prof: true,
        kernel_threads_per_rank: Some(2),
        ..RunOptions::traced()
    };
    let (_, report) = World::run_opts(p, opts, async |ctx| {
        ctx.set_phase("mult");
        let a = dense::random::random_mat::<f64>(96, 96, 7);
        let b = dense::random::random_mat::<f64>(96, 96, 8);
        let mut c = Mat::<f64>::zeros(96, 96);
        dense::gemm(
            dense::GemmOp::NoTrans,
            dense::GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
        );
        msgpass::collectives::barrier(&Comm::world(ctx), ctx).await;
    });
    assert_eq!(report.compute.len(), p, "all ranks captured");
    for rank in 0..p {
        let spans = report.timeline.spans(rank);
        let lo = spans.iter().map(|s| s.t0).fold(f64::INFINITY, f64::min);
        let hi = spans.iter().map(|s| s.t1).fold(f64::NEG_INFINITY, f64::max);
        assert!(lo < hi, "rank {rank} traced nothing");
        let profile = report.compute[rank].as_ref().expect("rank captured");
        assert!(
            !profile.spans.is_empty(),
            "rank {rank} recorded no kernel span"
        );
        // One nanosecond of slack for the two float conversions.
        let inside = |t: f64| lo - 1e-9 <= t && t <= hi + 1e-9;
        for s in &profile.spans {
            let (t0, t1) = (s.t0_ns as f64 * 1e-9, s.t1_ns as f64 * 1e-9);
            assert!(
                inside(t0) && (s.phase == SpanPhase::Wake || inside(t1)),
                "rank {rank}: {} span [{t0}, {t1}] outside the traced [{lo}, {hi}]",
                s.phase.label()
            );
        }
    }
}

/// The summary's critical path names a real phase, its per-phase split sums
/// sensibly, and a traced run's comm share is exactly the crit rank's
/// direct-child communication spans (never more than the phase total).
#[test]
fn critical_path_report_is_consistent() {
    let report = traced_ca3dmm(64, 64, 128, 8, Grid::new(2, 2, 2));
    let summary = report.summary(Json::Null);
    let crit = summary.critical_path.as_ref().expect("traced run has one");
    let phases = report.traffic.phases();
    assert_eq!(
        crit.iter().map(|c| c.phase.clone()).collect::<Vec<_>>(),
        phases,
        "one row per phase, in traffic-report order"
    );
    for pc in crit {
        assert!(
            pc.crit_secs > 0.0,
            "phase {} has zero critical time",
            pc.phase
        );
        assert!(pc.crit_rank < report.timeline.ranks());
        assert_eq!(pc.crit_secs, report.traffic.phase_secs_max(&pc.phase));
        assert_eq!(
            pc.comm_secs,
            report
                .timeline
                .phase_comm_secs(pc.crit_rank, &pc.phase)
                .min(pc.crit_secs),
            "phase {}",
            pc.phase
        );
        assert!(
            pc.comm_secs <= pc.crit_secs + 1e-9,
            "phase {}: comm {} exceeds total {}",
            pc.phase,
            pc.comm_secs,
            pc.crit_secs
        );
        assert!((pc.comm_secs + pc.comp_secs - pc.crit_secs).abs() < 1e-9);
    }
    assert!(summary.render_dashboard().contains("critical path"));
}

/// The model-vs-measured diff covers every runtime phase and produces a
/// positive measured total; the modeled side prices the same labels.
#[test]
fn model_diff_covers_all_phases() {
    let (m, n, k, p) = (32, 32, 64, 8);
    let grid = Grid::new(2, 2, 2);
    let report = traced_ca3dmm(m, n, k, p, grid);
    let machine = Machine::uniform();
    let placement = machine.pure_mpi();
    let cfg = ModelConfig {
        placement,
        elem_bytes: 8.0,
        overlap: true,
        include_redist: false,
        collectives: ca3dmm::Collectives::Flat,
    };
    let prob = Problem::new(m, n, k, p);
    let cost = evaluate(
        &machine,
        placement.flops_per_rank,
        &ca3dmm_schedule(&prob, &grid, &cfg),
    );
    let diff = diff_model_vs_measured(&report, &cost);
    assert!(diff.measured_total_s > 0.0);
    assert!(diff.modeled_total_s > 0.0);
    for phase in report.timeline.phases() {
        let label = ca3dmm::model_phase_label(&phase);
        assert!(
            diff.phases.iter().any(|d| d.phase == label),
            "phase {phase} (label {label}) missing"
        );
    }
}

/// Tracing overhead: an untraced run and a traced run of the same problem
/// complete and agree on traffic byte counts (tracing must not perturb
/// what is sent).
#[test]
fn tracing_does_not_change_traffic() {
    let (m, n, k, p) = (48, 48, 48, 8);
    let grid = Grid::new(2, 2, 2);
    let traced = traced_ca3dmm(m, n, k, p, grid);

    let untraced = run_ca3dmm(m, n, k, p, grid, RunOptions::default());
    assert!(untraced.timeline.is_empty());
    assert_eq!(untraced.max_rank_bytes(), traced.max_rank_bytes());
    assert_eq!(untraced.total_bytes(), traced.total_bytes());
}
