//! Per-rank, per-phase traffic accounting.
//!
//! Algorithms label their stages with [`crate::RankCtx::set_phase`]
//! ("replicate_ab", "cannon_shift", "reduce_c", "redist", …); every
//! point-to-point send is attributed to the sender's current phase and every
//! matched receive to the receiver's. Each message is recorded once per
//! side. The sender counts it in its phase totals, its row of the rank×rank
//! [`CommMatrix`] and the log2 [`SizeHistogram`] of the collective
//! algorithm that was actually executed. The receiver counts it in its
//! phase totals, plus the *wait* seconds it spent blocked in `recv` (which
//! covers `sendrecv` and barriers, since both block only in their receive
//! halves). The resulting [`TrafficReport`] is the measured counterpart of
//! the analytic schedule evaluator in the `netmodel` crate.
//!
//! A rank counts into one slot per phase label, which
//! [`crate::RankCtx::set_phase`] resolves once per phase switch; a message
//! then costs an index into the slot vector, not a lookup by label. When
//! the rank exits, its slots become the label-keyed maps of
//! [`TrafficReport`], with every float summed in the same order.
//!
//! Byte and message counts (totals, matrix cells, histogram buckets) are
//! deterministic functions of the algorithm and problem; wall/wait seconds
//! are not. The `report-gate` CI mode relies on exactly this split.

use crate::metrics::{size_bucket, CellCounts, CommMatrix, Row, SizeHistogram};
use std::collections::BTreeMap;

/// Bytes and message counts for one phase on one rank, both directions.
///
/// `bytes`/`msgs` count what the rank *sent* (the paper's per-rank
/// communication size `Q` is a send-side quantity, and the
/// model-vs-measured tests compare against it); `recv_bytes`/`recv_msgs`
/// count what the rank *matched* in `recv`, attributed to the receiver's
/// current phase — so a broadcast leaf no longer shows zero activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCounts {
    /// Payload bytes sent.
    pub bytes: u64,
    /// Messages sent.
    pub msgs: u64,
    /// Payload bytes received (matched).
    pub recv_bytes: u64,
    /// Messages received (matched).
    pub recv_msgs: u64,
}

impl PhaseCounts {
    /// Accumulate another count into this one.
    pub fn add(&mut self, other: PhaseCounts) {
        self.bytes += other.bytes;
        self.msgs += other.msgs;
        self.recv_bytes += other.recv_bytes;
        self.recv_msgs += other.recv_msgs;
    }
}

/// One phase label's counters on one rank.
struct PhaseSlot {
    label: &'static str,
    counts: PhaseCounts,
    /// Seconds blocked inside `recv`; only positive waits are added.
    wait: f64,
    /// Seconds spent in the phase; `None` until its clock first stops.
    secs: Option<f64>,
}

impl PhaseSlot {
    fn new(label: &'static str) -> PhaseSlot {
        PhaseSlot {
            label,
            counts: PhaseCounts::default(),
            wait: 0.0,
            secs: None,
        }
    }
}

/// Messages one rank sent under one collective algorithm into one log2
/// size bucket: a cell of that algorithm's [`SizeHistogram`].
pub(crate) struct HistCell {
    pub(crate) algo: &'static str,
    pub(crate) bucket: usize,
    pub(crate) msgs: u64,
    pub(crate) bytes: u64,
}

/// Phase slots a rank reserves up front: the unlabelled phase plus every
/// phase of a CA3DMM multiply fit, so a rank's phases cost one allocation.
const PHASES_RESERVED: usize = 6;

/// The counters of one rank, owned by its `RankCtx`: only the rank's own
/// thread writes them, and the rank hands them to the report when it exits
/// ([`RankStats::finish`]).
///
/// Each phase label the rank enters gets one slot, in first-entry order.
/// [`RankStats::enter`] resolves the label to its slot once per phase
/// switch, so a message costs an index, not a lookup by label. Labels are
/// `&'static str`, so neither a slot nor the report's maps copy one.
pub(crate) struct RankStats {
    /// Every label entered so far; starts with the unlabelled phase `""`.
    slots: Vec<PhaseSlot>,
    /// The current phase's slot.
    current: usize,
    /// `sent_to[dst]`: this rank's matrix row, touched cells only (a rank
    /// talks to a few dozen peers, whatever the world size).
    sent_to: Row,
    /// Send-side size histograms keyed by the collective algorithm actually
    /// running ("ring_allgatherv", …; bare point-to-point sends land under
    /// `"p2p"`), one cell per touched `(algorithm, bucket)`. A rank runs a
    /// handful of algorithms at a size or two each, so one short list beats
    /// a histogram per algorithm.
    hist: Vec<HistCell>,
}

impl Default for RankStats {
    fn default() -> Self {
        let mut slots = Vec::with_capacity(PHASES_RESERVED);
        slots.push(PhaseSlot::new(""));
        RankStats {
            slots,
            current: 0,
            sent_to: Row::new(),
            hist: Vec::new(),
        }
    }
}

/// A rank's counters as the report holds them, keyed by label: phases
/// appear in `by_phase` once they sent or received, in `wait_by_phase`
/// once a receive waited, in `secs_by_phase` once their clock stopped.
pub(crate) struct RankTraffic {
    pub(crate) by_phase: BTreeMap<&'static str, PhaseCounts>,
    pub(crate) sent_to: Row,
    pub(crate) hist: Vec<HistCell>,
    pub(crate) wait_by_phase: BTreeMap<&'static str, f64>,
    pub(crate) secs_by_phase: BTreeMap<&'static str, f64>,
}

impl RankStats {
    /// Makes `label` the current phase, adding its slot on first entry.
    pub(crate) fn enter(&mut self, label: &'static str) {
        self.current = match self.slots.iter().position(|s| s.label == label) {
            Some(i) => i,
            None => {
                self.slots.push(PhaseSlot::new(label));
                self.slots.len() - 1
            }
        };
    }

    /// The current phase's label.
    pub(crate) fn phase(&self) -> &'static str {
        self.slots[self.current].label
    }

    /// Records one outgoing message: phase totals, the matrix row and the
    /// algorithm's histogram. `algo` is the collective algorithm in scope,
    /// or `None` for a bare point-to-point send.
    pub(crate) fn record_send(&mut self, algo: Option<&'static str>, dst_world: usize, bytes: u64) {
        let e = &mut self.slots[self.current].counts;
        e.bytes += bytes;
        e.msgs += 1;
        self.sent_to
            .entry(dst_world)
            .or_default()
            .add(CellCounts { bytes, msgs: 1 });
        let (algo, bucket) = (algo.unwrap_or("p2p"), size_bucket(bytes));
        let found = self
            .hist
            .iter()
            .position(|c| c.bucket == bucket && c.algo == algo);
        let i = found.unwrap_or_else(|| {
            self.hist.push(HistCell {
                algo,
                bucket,
                msgs: 0,
                bytes: 0,
            });
            self.hist.len() - 1
        });
        let cell = &mut self.hist[i];
        cell.msgs += 1;
        cell.bytes += bytes;
    }

    /// Records one matched receive: phase totals and the seconds this
    /// receive spent blocked waiting for the fabric.
    pub(crate) fn record_recv(&mut self, bytes: u64, wait_secs: f64) {
        let slot = &mut self.slots[self.current];
        slot.counts.recv_bytes += bytes;
        slot.counts.recv_msgs += 1;
        if wait_secs > 0.0 {
            slot.wait += wait_secs;
        }
    }

    /// Adds `secs` to the time spent in the current phase; the unlabelled
    /// phase is not timed.
    pub(crate) fn add_secs(&mut self, secs: f64) {
        let slot = &mut self.slots[self.current];
        if !slot.label.is_empty() {
            *slot.secs.get_or_insert(0.0) += secs;
        }
    }

    /// Hands over the counters keyed by label, as [`TrafficReport`] holds
    /// them, and leaves these empty: the rank has exited.
    pub(crate) fn finish(&mut self) -> RankTraffic {
        let mut t = RankTraffic {
            by_phase: BTreeMap::new(),
            sent_to: std::mem::take(&mut self.sent_to),
            hist: std::mem::take(&mut self.hist),
            wait_by_phase: BTreeMap::new(),
            secs_by_phase: BTreeMap::new(),
        };
        for s in self.slots.drain(..) {
            if s.counts.msgs + s.counts.recv_msgs > 0 {
                t.by_phase.insert(s.label, s.counts);
            }
            if s.wait > 0.0 {
                t.wait_by_phase.insert(s.label, s.wait);
            }
            if let Some(secs) = s.secs {
                t.secs_by_phase.insert(s.label, secs);
            }
        }
        t
    }
}

/// Adds one rank's histogram cells into the run's histograms by algorithm.
pub(crate) fn merge_hist(into: &mut BTreeMap<String, SizeHistogram>, cells: &[HistCell]) {
    for c in cells {
        let h = match into.get_mut(c.algo) {
            Some(h) => h,
            None => into.entry(c.algo.to_owned()).or_default(),
        };
        h.add_bucket(c.bucket, c.msgs, c.bytes);
    }
}

/// Traffic measured during one [`crate::World::run`], indexed by
/// `[rank][phase]`, plus the run-wide communication matrix, size
/// histograms, and wait attribution.
#[derive(Clone, Debug, Default)]
pub struct TrafficReport {
    /// `per_rank[r]` maps phase name → counts for world rank `r`.
    pub per_rank: Vec<BTreeMap<&'static str, PhaseCounts>>,
    /// `secs_per_rank[r]` maps phase name → wall seconds spent in the phase
    /// on rank `r` (communication *and* computation while the phase label
    /// was active).
    pub secs_per_rank: Vec<BTreeMap<&'static str, f64>>,
    /// `wait_per_rank[r]` maps phase name → seconds rank `r` spent blocked
    /// inside `recv` while that phase was active. Always ≤ the phase's
    /// wall seconds; the remainder is compute plus non-blocking overhead.
    pub wait_per_rank: Vec<BTreeMap<&'static str, f64>>,
    /// The rank×rank communication matrix, as the senders counted it.
    pub matrix: CommMatrix,
    /// Message-size histograms by collective algorithm actually executed
    /// (`"p2p"` for bare sends), aggregated over ranks.
    pub hist_by_algo: BTreeMap<String, SizeHistogram>,
}

impl TrafficReport {
    /// Total counts for one rank across all phases.
    pub fn rank_total(&self, rank: usize) -> PhaseCounts {
        let mut t = PhaseCounts::default();
        for c in self.per_rank[rank].values() {
            t.add(*c);
        }
        t
    }

    /// The maximum per-rank sent-byte count — the paper's communication
    /// size `Q` (§III-D), in bytes.
    pub fn max_rank_bytes(&self) -> u64 {
        (0..self.per_rank.len())
            .map(|r| self.rank_total(r).bytes)
            .max()
            .unwrap_or(0)
    }

    /// The maximum per-rank sent-message count — the paper's latency `L`.
    pub fn max_rank_msgs(&self) -> u64 {
        (0..self.per_rank.len())
            .map(|r| self.rank_total(r).msgs)
            .max()
            .unwrap_or(0)
    }

    /// Sum of sent bytes over all ranks (total data exchanged).
    pub fn total_bytes(&self) -> u64 {
        (0..self.per_rank.len())
            .map(|r| self.rank_total(r).bytes)
            .sum()
    }

    /// Counts for a single phase on one rank (zero if the phase never ran).
    pub fn phase(&self, rank: usize, phase: &str) -> PhaseCounts {
        self.per_rank[rank].get(phase).copied().unwrap_or_default()
    }

    /// Sums one phase across all ranks.
    pub fn phase_total(&self, phase: &str) -> PhaseCounts {
        let mut t = PhaseCounts::default();
        for r in 0..self.per_rank.len() {
            t.add(self.phase(r, phase));
        }
        t
    }

    /// Maximum over ranks of the bytes *sent* in one phase — the
    /// maximally-loaded-rank volume the §III-D cost model predicts.
    pub fn phase_bytes_max(&self, phase: &str) -> u64 {
        (0..self.per_rank.len())
            .map(|r| self.phase(r, phase).bytes)
            .max()
            .unwrap_or(0)
    }

    /// Maximum over ranks of the messages *sent* in one phase — the
    /// maximally-loaded-rank count behind the paper's latency measure `L`.
    pub fn phase_msgs_max(&self, phase: &str) -> u64 {
        (0..self.per_rank.len())
            .map(|r| self.phase(r, phase).msgs)
            .max()
            .unwrap_or(0)
    }

    /// Wall seconds one rank spent in one phase (0 if never entered).
    pub fn phase_secs(&self, rank: usize, phase: &str) -> f64 {
        self.secs_per_rank
            .get(rank)
            .and_then(|m| m.get(phase))
            .copied()
            .unwrap_or(0.0)
    }

    /// Maximum over ranks of the wall seconds spent in one phase — the
    /// critical-path estimate the artifact's per-phase report prints.
    pub fn phase_secs_max(&self, phase: &str) -> f64 {
        (0..self.secs_per_rank.len())
            .map(|r| self.phase_secs(r, phase))
            .fold(0.0, f64::max)
    }

    /// Seconds one rank spent blocked in `recv` during one phase.
    pub fn wait_secs(&self, rank: usize, phase: &str) -> f64 {
        self.wait_per_rank
            .get(rank)
            .and_then(|m| m.get(phase))
            .copied()
            .unwrap_or(0.0)
    }

    /// Maximum over ranks of [`TrafficReport::wait_secs`].
    pub fn wait_secs_max(&self, phase: &str) -> f64 {
        (0..self.wait_per_rank.len())
            .map(|r| self.wait_secs(r, phase))
            .fold(0.0, f64::max)
    }

    /// All phase labels seen on any rank, sorted.
    pub fn phases(&self) -> Vec<String> {
        let mut set: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for m in &self.per_rank {
            set.extend(m.keys());
        }
        for m in &self.secs_per_rank {
            set.extend(m.keys());
        }
        set.into_iter().map(str::to_owned).collect()
    }

    /// Cross-checks the views that can disagree and returns the first
    /// discrepancy: each rank's matrix row against its phase send totals,
    /// each rank's matrix column (what the senders counted toward it)
    /// against its own receive counters, and the algorithm histograms
    /// against the run's send totals.
    pub fn check_consistency(&self) -> Result<(), String> {
        let p = self.per_rank.len();
        if self.matrix.ranks() != p {
            return Err(format!(
                "matrix is {}×{0} but the report has {p} ranks",
                self.matrix.ranks()
            ));
        }
        let mut cols = vec![CellCounts::default(); p];
        for (_, dst, c) in self.matrix.cells() {
            cols[dst].add(c);
        }
        let mut sent = (0, 0);
        for (r, col) in cols.into_iter().enumerate() {
            let t = self.rank_total(r);
            sent = (sent.0 + t.bytes, sent.1 + t.msgs);
            let row = self.matrix.send_row_total(r);
            if (row.bytes, row.msgs) != (t.bytes, t.msgs) {
                return Err(format!(
                    "rank {r}: matrix send row {row:?} != phase send totals ({}, {})",
                    t.bytes, t.msgs
                ));
            }
            if (col.bytes, col.msgs) != (t.recv_bytes, t.recv_msgs) {
                return Err(format!(
                    "rank {r}: senders counted {col:?} toward it but it received ({}, {})",
                    t.recv_bytes, t.recv_msgs
                ));
            }
        }
        let algo = self
            .hist_by_algo
            .values()
            .fold((0, 0), |(b, m), h| (b + h.bytes, m + h.msgs));
        if algo != sent {
            return Err(format!(
                "algo histograms count {algo:?} (bytes, msgs) but the run sent {sent:?}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut st = RankStats::default();
        st.enter("a");
        st.record_send(None, 1, 100);
        st.record_send(Some("ring_allgatherv"), 1, 50);
        st.add_secs(0.5);
        st.enter("b");
        st.record_send(None, 0, 1);
        st.enter("a");
        st.record_recv(30, 0.25);
        st.record_recv(2, 0.0);
        st.enter("c");
        st.add_secs(0.0);
        st.enter("");
        st.record_send(None, 1, 4);
        st.add_secs(9.0);
        let t = st.finish();
        assert_eq!(
            t.by_phase["a"],
            PhaseCounts {
                bytes: 150,
                msgs: 2,
                recv_bytes: 32,
                recv_msgs: 2,
            }
        );
        assert_eq!(t.by_phase["b"].bytes, 1);
        // Unlabelled traffic is counted; a phase that only ran is not.
        assert_eq!(t.by_phase[""].bytes, 4);
        assert!(!t.by_phase.contains_key("c"));
        assert_eq!(
            t.sent_to[&1],
            CellCounts {
                bytes: 154,
                msgs: 3
            }
        );
        assert_eq!(t.sent_to.len(), 2, "only touched cells are stored");
        let mut hists = BTreeMap::new();
        merge_hist(&mut hists, &t.hist);
        assert_eq!(hists["p2p"].msgs, 3);
        assert_eq!(hists["p2p"].count(size_bucket(100)), 1);
        assert_eq!(hists["ring_allgatherv"].msgs, 1);
        // One cell per touched (algorithm, bucket): 100, 50, 1 and 4 bytes
        // fall into four buckets.
        assert_eq!(t.hist.len(), 4);
        // Only a receive that waited enters the wait map; every labelled
        // phase whose clock stopped enters the seconds map, even at zero.
        assert_eq!(t.wait_by_phase.len(), 1);
        assert_eq!(t.wait_by_phase["a"], 0.25);
        assert_eq!(t.secs_by_phase.len(), 2);
        assert_eq!((t.secs_by_phase["a"], t.secs_by_phase["c"]), (0.5, 0.0));

        let report = TrafficReport {
            per_rank: vec![t.by_phase, BTreeMap::new()],
            secs_per_rank: vec![BTreeMap::new(), BTreeMap::new()],
            wait_per_rank: vec![BTreeMap::new(), BTreeMap::new()],
            ..TrafficReport::default()
        };
        assert_eq!(report.rank_total(0).bytes, 155);
        assert_eq!(report.rank_total(0).recv_msgs, 2);
        assert_eq!(report.rank_total(1).msgs, 0);
        assert_eq!(report.max_rank_bytes(), 155);
        assert_eq!(report.max_rank_msgs(), 4);
        assert_eq!(report.total_bytes(), 155);
        assert_eq!(report.phase(0, "a").msgs, 2);
        assert_eq!(report.phase(0, "missing"), PhaseCounts::default());
        assert_eq!(report.phase_total("a").bytes, 150);
        assert_eq!(report.phase_total("a").recv_bytes, 32);
    }

    /// Rank 0 sends rank 1 two messages and rank 1 receives both, as the
    /// accountant records them; `edit` then tampers with the counters.
    fn two_rank_report(edit: impl FnOnce(&mut RankTraffic, &mut RankTraffic)) -> TrafficReport {
        let (mut tx, mut rx) = (RankStats::default(), RankStats::default());
        tx.enter("x");
        rx.enter("x");
        for bytes in [8, 24] {
            tx.record_send(None, 1, bytes);
            rx.record_recv(bytes, 0.0);
        }
        let (mut tx, mut rx) = (tx.finish(), rx.finish());
        edit(&mut tx, &mut rx);
        let mut matrix = CommMatrix::new(2);
        matrix.set_row(0, tx.sent_to);
        let mut hist_by_algo = BTreeMap::new();
        merge_hist(&mut hist_by_algo, &tx.hist);
        TrafficReport {
            per_rank: vec![tx.by_phase, rx.by_phase],
            matrix,
            hist_by_algo,
            ..TrafficReport::default()
        }
    }

    #[test]
    fn consistency_check_catches_skew() {
        assert_eq!(two_rank_report(|_, _| ()).check_consistency(), Ok(()));
        let fails = |edit: fn(&mut RankTraffic, &mut RankTraffic), want: &str| {
            let e = two_rank_report(edit).check_consistency().unwrap_err();
            assert!(e.contains(want), "{e}");
        };
        // A phase total with no matching matrix row.
        fails(
            |tx, _| tx.by_phase.get_mut("x").unwrap().bytes += 1,
            "rank 0: matrix send row",
        );
        // One dropped receive count: rank 1 counted only the first of its
        // two receives, so the senders' column for it no longer matches.
        fails(
            |_, rx| {
                let mut one = RankStats::default();
                one.enter("x");
                one.record_recv(8, 0.0);
                *rx = one.finish();
            },
            "rank 1: senders counted",
        );
        // A histogram that lost its messages.
        fails(|tx, _| tx.hist.clear(), "algo histograms");
    }
}
