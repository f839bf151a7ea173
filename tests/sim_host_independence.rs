//! A virtual-time `RunReport` is a function of the algorithm and the
//! machine model only: the host that writes it, and the kernel-thread
//! budget that host runs with, must not show up in the artifact.
//! `tests/committed_artifacts.rs` diffs the committed
//! `results/REPORT_fig3_sim*.json` byte for byte against fresh runs on
//! whatever host runs it.
//!
//! The test changes the process-wide GEMM thread cap, so it stays the only
//! test in its binary.

use ca3dmm::{Ca3dmm, Ca3dmmOptions};
use gridopt::Problem;
use msgpass::SimOptions;
use netmodel::Machine;

#[test]
fn virtual_report_does_not_depend_on_the_kernel_thread_budget() {
    let alg = Ca3dmm::new(Problem::new(96, 64, 160, 12), &Ca3dmmOptions::default());
    let artifact = |threads: usize| {
        dense::pool::set_gemm_threads(threads);
        let report = alg.simulate_native(
            &Machine::phoenix_cpu(),
            SimOptions {
                execute_compute: false,
                ..Default::default()
            },
        );
        report
            .to_json(alg.report_meta("host_independence", &report))
            .to_string_pretty()
    };
    let base = dense::pool::base_gemm_threads();
    let (one, three) = (artifact(1), artifact(3));
    dense::pool::set_gemm_threads(base);
    assert!(one == three, "the thread budget leaked into the report");
}
