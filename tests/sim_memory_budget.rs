//! Memory budget of the executed p = 3072 simulation: the process running
//! it peaks below 43 MiB. A compute-free run stores no matrix data, the
//! comm matrix keeps only touched cells, every rank's world communicator
//! shares one member list, each rank builds only its own sub-communicators
//! (no scan of the whole partition), and each rank is a future polled on
//! the calling thread (no thread, no stack), so what remains is 3072 rank
//! futures, their mailboxes and counters: 28.8 MiB measured for the
//! release `fig3_sim --ranks 3072`; the budget is 1.5× that. Scanning the
//! whole partition on every rank put it at 33 MiB, a thread per rank at
//! 75 MiB, a receive-side copy of the matrix and per-phase histograms at
//! 38; a member list per rank doubles the figure, and dense p² matrix rows
//! put the same run above 800 MiB.
//!
//! `VmHWM` is per process, so this stays the only test in its binary.

use bench::sim::{fig3_sim, SimConfig};

#[test]
fn p3072_simulation_peaks_below_43_mib() {
    let sweep = fig3_sim(&SimConfig {
        ranks: Some(3072),
        ..SimConfig::default()
    });
    assert!(!sweep.report.is_empty());
    let mib = bench::peak_rss_mib().expect("VmHWM in /proc/self/status");
    assert!(
        mib <= 43.0,
        "p = 3072 simulation peaked at {mib:.1} MiB, budget 43 MiB"
    );
}
