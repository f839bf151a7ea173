//! Pricing a schedule on a machine.

use crate::machine::Machine;
use crate::schedule::{NetGroup, Phase, Schedule};
use std::collections::BTreeMap;

/// Cost of one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseCost {
    /// Time spent communicating, seconds.
    pub comm_s: f64,
    /// Time spent computing, seconds.
    pub comp_s: f64,
}

impl PhaseCost {
    /// Total wall time of the phase.
    pub fn total(&self) -> f64 {
        self.comm_s + self.comp_s
    }
}

/// Evaluated cost of a whole schedule.
#[derive(Clone, Debug, Default)]
pub struct CostReport {
    /// Wall time per breakdown label, in schedule order of first appearance.
    pub by_label: BTreeMap<String, PhaseCost>,
    /// Predicted bytes sent by the modeled rank, per breakdown label — the
    /// column `ca3dmm-report netdiff` lines up against the measured
    /// critical-rank bytes of each phase.
    pub bytes_by_label: BTreeMap<String, f64>,
    /// Predicted butterfly message count per breakdown label.
    pub msgs_by_label: BTreeMap<String, f64>,
    /// Total wall time, seconds.
    pub total_s: f64,
    /// Bytes sent by the modeled rank (matches the `msgpass` counters).
    pub sent_bytes: f64,
    /// Butterfly message count (the paper's `L`).
    pub messages: f64,
}

impl CostReport {
    /// Communication seconds across all labels.
    pub fn comm_s(&self) -> f64 {
        self.by_label.values().map(|c| c.comm_s).sum()
    }

    /// Computation seconds across all labels.
    pub fn comp_s(&self) -> f64 {
        self.by_label.values().map(|c| c.comp_s).sum()
    }

    /// Wall time of one label (0 when absent).
    pub fn label_s(&self, label: &str) -> f64 {
        self.by_label.get(label).map(|c| c.total()).unwrap_or(0.0)
    }

    /// Predicted sent bytes of one label (0 when absent).
    pub fn label_bytes(&self, label: &str) -> f64 {
        self.bytes_by_label.get(label).copied().unwrap_or(0.0)
    }

    /// Predicted message count of one label (0 when absent).
    pub fn label_msgs(&self, label: &str) -> f64 {
        self.msgs_by_label.get(label).copied().unwrap_or(0.0)
    }
}

/// Effective (α, β) of a group: traffic is split into the intra-node
/// fraction (shared-memory transport) and the inter-node remainder, which
/// shares the node's injection bandwidth with the other ranks of the node
/// that are simultaneously sending off-node.
fn alpha_beta(m: &Machine, grp: &NetGroup) -> (f64, f64) {
    alpha_beta_frac(m, grp, grp.intra_fraction())
}

/// Like [`alpha_beta`] but for pairwise-exchange collectives (reduce-
/// scatter), whose partners span all distances rather than ring
/// neighbours.
fn alpha_beta_pairwise(m: &Machine, grp: &NetGroup) -> (f64, f64) {
    alpha_beta_frac(m, grp, grp.pairwise_intra_fraction())
}

/// (α, β) for fixed-neighbour *ring* phases (Cannon shifts). A shift round
/// completes only when every rank has its neighbour's block, so the round
/// is paced by the ring's slowest hop: if any hop crosses nodes, the
/// critical rank pays full inter-node α and β — blending intra and inter
/// hops into an average (right for tree collectives, whose stages
/// pipeline) would price the round's *mean* hop, not its makespan. The
/// inter-node β charges the full per-node NIC share: a shift round is a
/// synchronized burst in which every rank of the node injects at once,
/// which is also exactly what the virtual-time simulator charges — so the
/// netdiff seconds comparison prices the same transport on both sides.
fn alpha_beta_ring(m: &Machine, grp: &NetGroup) -> (f64, f64) {
    let fi = grp.intra_fraction();
    if grp.size <= 1 || fi >= 1.0 {
        return (m.alpha_intra, m.beta_intra);
    }
    let concurrent = (grp.ranks_per_node as f64).max(1.0);
    (m.alpha_inter, m.beta_inter(concurrent))
}

fn alpha_beta_frac(m: &Machine, grp: &NetGroup, fi: f64) -> (f64, f64) {
    if grp.size <= 1 {
        return (m.alpha_intra, m.beta_intra);
    }
    let fe = 1.0 - fi;
    if fe <= 0.0 {
        return (m.alpha_intra, m.beta_intra);
    }
    // Expected concurrent off-node senders per node during this phase.
    let concurrent = (grp.ranks_per_node as f64 * fe).max(1.0);
    let beta_inter = m.beta_inter(concurrent);
    let alpha = fi * m.alpha_intra + fe * m.alpha_inter;
    let beta = fi * m.beta_intra + fe * beta_inter;
    (alpha, beta)
}

fn frac(g: usize) -> f64 {
    if g == 0 {
        0.0
    } else {
        (g as f64 - 1.0) / g as f64
    }
}

/// Prices one phase on `machine` given the rank's compute rate
/// `flops_per_rank` (FLOP/s, GEMM-effective).
pub fn phase_cost(machine: &Machine, flops_per_rank: f64, phase: &Phase) -> PhaseCost {
    match phase {
        Phase::Allgather { grp, total_bytes } => {
            if grp.size <= 1 {
                return PhaseCost::default();
            }
            let (a, b) = alpha_beta(machine, grp);
            PhaseCost {
                comm_s: a * (grp.size as f64).log2().ceil() + b * total_bytes * frac(grp.size),
                comp_s: 0.0,
            }
        }
        Phase::Bcast { grp, bytes } => {
            if grp.size <= 1 {
                return PhaseCost::default();
            }
            let (a, b) = alpha_beta(machine, grp);
            PhaseCost {
                comm_s: a * ((grp.size as f64).log2().ceil() + grp.size as f64 - 1.0)
                    + 2.0 * b * bytes * frac(grp.size),
                comp_s: 0.0,
            }
        }
        Phase::ReduceScatter {
            grp,
            total_bytes,
            custom_impl,
        } => {
            if grp.size <= 1 {
                return PhaseCost::default();
            }
            let (a, mut b) = alpha_beta_pairwise(machine, grp);
            // MPI-library pathologies (§IV-B/§IV-C) — skipped by libraries
            // that ship their own reduction trees (COSMA):
            if !custom_impl {
                // MVAPICH2 degradation above the protocol threshold.
                let block = total_bytes / grp.size as f64;
                if block > machine.reduce_scatter_degrade_threshold {
                    b *= machine.reduce_scatter_degrade_factor;
                }
                // Odd group sizes break recursive-halving pairing
                // (pk = 341 "unfavorable").
                if grp.size % 2 == 1 {
                    b *= machine.reduce_scatter_odd_factor;
                }
            }
            PhaseCost {
                comm_s: a * (grp.size as f64 - 1.0) + b * total_bytes * frac(grp.size),
                comp_s: 0.0,
            }
        }
        Phase::Alltoallv {
            grp,
            send_bytes,
            peers,
        } => {
            if grp.size <= 1 {
                return PhaseCost::default();
            }
            let (a, b) = alpha_beta(machine, grp);
            // The unoptimized redistribution subroutine pays a pack and an
            // unpack pass over the payload at strided-copy speed (§III-F).
            let pack_s = if machine.pack_bw.is_finite() {
                2.0 * send_bytes / machine.pack_bw
            } else {
                0.0
            };
            PhaseCost {
                comm_s: a * (*peers as f64) + b * send_bytes + pack_s,
                comp_s: 0.0,
            }
        }
        Phase::ShiftRounds {
            grp,
            rounds,
            bytes_per_round,
            msgs_per_round,
        } => {
            if *rounds == 0 {
                return PhaseCost::default();
            }
            let (a, b) = alpha_beta_ring(machine, grp);
            PhaseCost {
                comm_s: *rounds as f64 * (*msgs_per_round as f64 * a + b * bytes_per_round),
                comp_s: 0.0,
            }
        }
        Phase::HierAllgather { grp, total_bytes } => {
            if grp.size <= 1 {
                return PhaseCost::default();
            }
            let (l, m) = grp.node_layout();
            let (lf, mf) = (l as f64, m as f64);
            // Three serial stages, priced exactly as the virtual-time
            // backend charges them: intra hops at (α_intra, β_intra),
            // leader ring hops at α_inter and the full-share inter-node β
            // (every node's leaders contend for the NIC).
            let bi = machine.beta_inter(grp.ranks_per_node.max(1) as f64);
            // Members ship their piece to the leader concurrently — the
            // stage is paced by one segment's transfer.
            let up = if m > 1 {
                machine.alpha_intra + machine.beta_intra * total_bytes / grp.size as f64
            } else {
                0.0
            };
            // Leaders ring whole node blocks.
            let ring = (lf - 1.0) * machine.alpha_inter + bi * total_bytes * (lf - 1.0) / lf;
            // The leader fans the assembled buffer back out, serialized on
            // its NIC pipe.
            let down = (mf - 1.0) * (machine.alpha_intra + machine.beta_intra * total_bytes);
            PhaseCost {
                comm_s: up + ring + down,
                comp_s: 0.0,
            }
        }
        Phase::HierReduceScatter { grp, total_bytes } => {
            if grp.size <= 1 {
                return PhaseCost::default();
            }
            let (l, m) = grp.node_layout();
            let (lf, mf) = (l as f64, m as f64);
            let bi = machine.beta_inter(grp.ranks_per_node.max(1) as f64);
            // Members ship their whole contribution up (concurrent sends,
            // paced by one full vector), the leader pre-reduces for free.
            let up = if m > 1 {
                machine.alpha_intra + machine.beta_intra * total_bytes
            } else {
                0.0
            };
            // Leaders ring-reduce-scatter node blocks.
            let ring = (lf - 1.0) * machine.alpha_inter + bi * total_bytes * (lf - 1.0) / lf;
            // The leader scatters its node block minus its own segment.
            let down_bytes = (total_bytes / lf - total_bytes / grp.size as f64).max(0.0);
            let down = if m > 1 {
                (mf - 1.0) * machine.alpha_intra + machine.beta_intra * down_bytes
            } else {
                0.0
            };
            PhaseCost {
                comm_s: up + ring + down,
                comp_s: 0.0,
            }
        }
        Phase::LocalGemm { flops } => PhaseCost {
            comm_s: 0.0,
            comp_s: flops / flops_per_rank,
        },
        Phase::CannonOverlap {
            grp,
            rounds,
            bytes_per_round,
            msgs_per_round,
            flops,
        } => {
            let comp = flops / flops_per_rank;
            if *rounds == 0 {
                return PhaseCost {
                    comm_s: 0.0,
                    comp_s: comp,
                };
            }
            let (a, b) = alpha_beta_ring(machine, grp);
            let comm_per_round = *msgs_per_round as f64 * a + b * bytes_per_round;
            let comp_per_round = comp / (*rounds as f64 + 1.0);
            // Dual buffering (§III-F): each shift overlaps with the GEMM on
            // the previously received blocks, so only the part of the
            // communication exceeding the per-round GEMM is exposed; the
            // final GEMM (on the last received blocks) is always exposed.
            let exposed_comm = (*rounds as f64) * (comm_per_round - comp_per_round).max(0.0);
            PhaseCost {
                comm_s: exposed_comm,
                comp_s: comp,
            }
        }
    }
}

/// Prices a whole schedule: wall time per label, totals, traffic.
pub fn evaluate(machine: &Machine, flops_per_rank: f64, schedule: &Schedule) -> CostReport {
    let mut report = CostReport {
        sent_bytes: schedule.sent_bytes(),
        messages: schedule.message_count(),
        ..Default::default()
    };
    for (label, phase) in &schedule.items {
        let c = phase_cost(machine, flops_per_rank, phase);
        let entry = report.by_label.entry(label.clone()).or_default();
        entry.comm_s += c.comm_s;
        entry.comp_s += c.comp_s;
        *report.bytes_by_label.entry(label.clone()).or_default() += phase.sent_bytes();
        *report.msgs_by_label.entry(label.clone()).or_default() += phase.message_count();
        report.total_s += c.total();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(size: usize) -> NetGroup {
        NetGroup::flat(size)
    }

    #[test]
    fn allgather_matches_paper_formula() {
        let m = Machine::uniform();
        let c = phase_cost(
            &m,
            1e9,
            &Phase::Allgather {
                grp: flat(8),
                total_bytes: 8000.0,
            },
        );
        let want = m.alpha_inter * 3.0 + m.beta_inter(1.0) * 8000.0 * 7.0 / 8.0;
        assert!((c.comm_s - want).abs() < 1e-15);
    }

    #[test]
    fn bcast_matches_paper_formula() {
        let m = Machine::uniform();
        let c = phase_cost(
            &m,
            1e9,
            &Phase::Bcast {
                grp: flat(4),
                bytes: 1000.0,
            },
        );
        let want = m.alpha_inter * (2.0 + 3.0) + 2.0 * m.beta_inter(1.0) * 1000.0 * 3.0 / 4.0;
        assert!((c.comm_s - want).abs() < 1e-15);
    }

    #[test]
    fn reduce_scatter_matches_paper_formula() {
        let m = Machine::uniform();
        let c = phase_cost(
            &m,
            1e9,
            &Phase::ReduceScatter {
                grp: flat(4),
                total_bytes: 1000.0,
                custom_impl: false,
            },
        );
        let want = m.alpha_inter * 3.0 + m.beta_inter(1.0) * 1000.0 * 3.0 / 4.0;
        assert!((c.comm_s - want).abs() < 1e-15);
    }

    #[test]
    fn reduce_scatter_degrades_above_threshold() {
        let mut m = Machine::uniform();
        m.reduce_scatter_degrade_threshold = 100.0;
        m.reduce_scatter_degrade_factor = 2.0;
        let small = phase_cost(
            &m,
            1e9,
            &Phase::ReduceScatter {
                grp: flat(4),
                total_bytes: 200.0, // 50 B/blk, under threshold
                custom_impl: false,
            },
        );
        let big = phase_cost(
            &m,
            1e9,
            &Phase::ReduceScatter {
                grp: flat(4),
                total_bytes: 2_000_000.0, // 500 kB/blk, over threshold
                custom_impl: false,
            },
        );
        let expect_ratio = 2.0;
        let beta_part_small = small.comm_s - m.alpha_inter * 3.0;
        let beta_part_big = big.comm_s - m.alpha_inter * 3.0;
        assert!(
            (beta_part_big / (beta_part_small * 2_000_000.0 / 200.0) - expect_ratio).abs() < 1e-9
        );
    }

    #[test]
    fn gemm_time_is_flops_over_rate() {
        let m = Machine::uniform();
        let c = phase_cost(&m, 2e9, &Phase::LocalGemm { flops: 4e9 });
        assert!((c.comp_s - 2.0).abs() < 1e-12);
        assert_eq!(c.comm_s, 0.0);
    }

    #[test]
    fn shift_alpha_scales_with_msgs_per_round() {
        let m = Machine::uniform();
        let mk = |msgs_per_round| {
            phase_cost(
                &m,
                1e9,
                &Phase::ShiftRounds {
                    grp: flat(4),
                    rounds: 3,
                    bytes_per_round: 1000.0,
                    msgs_per_round,
                },
            )
        };
        // Splitting a round into two messages pays one extra α per round —
        // and nothing else.
        let (one, two) = (mk(1), mk(2));
        assert!((two.comm_s - one.comm_s - 3.0 * m.alpha_inter).abs() < 1e-15);
    }

    #[test]
    fn singleton_groups_cost_nothing() {
        let m = Machine::uniform();
        for ph in [
            Phase::Allgather {
                grp: flat(1),
                total_bytes: 1e9,
            },
            Phase::ReduceScatter {
                grp: flat(1),
                total_bytes: 1e9,
                custom_impl: false,
            },
            Phase::Bcast {
                grp: flat(1),
                bytes: 1e9,
            },
        ] {
            assert_eq!(phase_cost(&m, 1e9, &ph), PhaseCost::default());
        }
    }

    #[test]
    fn overlap_hides_communication_under_compute() {
        let m = Machine::uniform();
        // compute-dominated: total ~= comp
        let c = phase_cost(
            &m,
            1e6, // slow compute
            &Phase::CannonOverlap {
                grp: flat(4),
                rounds: 3,
                bytes_per_round: 1000.0,
                msgs_per_round: 2,
                flops: 4e6, // 4 s of compute
            },
        );
        assert!(c.total() < 4.2, "compute-bound overlap: {}", c.total());
        // comm-dominated: total ~= comm + one round of compute
        let c2 = phase_cost(
            &m,
            1e12,
            &Phase::CannonOverlap {
                grp: flat(4),
                rounds: 3,
                bytes_per_round: 1e9, // 1 s per round
                msgs_per_round: 2,
                flops: 4e3,
            },
        );
        assert!(
            c2.total() > 2.9 && c2.total() < 3.2,
            "comm-bound: {}",
            c2.total()
        );
    }

    #[test]
    fn evaluate_accumulates_labels() {
        let m = Machine::uniform();
        let mut s = Schedule::new();
        s.push("gemm", Phase::LocalGemm { flops: 1e9 });
        s.push("gemm", Phase::LocalGemm { flops: 1e9 });
        s.push(
            "reduce_c",
            Phase::ReduceScatter {
                grp: flat(2),
                total_bytes: 2e9,
                custom_impl: false,
            },
        );
        let r = evaluate(&m, 1e9, &s);
        assert!((r.label_s("gemm") - 2.0).abs() < 1e-9);
        assert!(r.label_s("reduce_c") > 0.9);
        assert!((r.total_s - (r.comm_s() + r.comp_s())).abs() < 1e-9);
        assert!(r.sent_bytes > 0.0);
        assert_eq!(r.label_s("missing"), 0.0);
    }

    #[test]
    fn per_label_traffic_sums_to_totals() {
        let m = Machine::uniform();
        let mut s = Schedule::new();
        s.push("gemm", Phase::LocalGemm { flops: 1e9 });
        s.push(
            "replicate_ab",
            Phase::Allgather {
                grp: flat(4),
                total_bytes: 400.0,
            },
        );
        s.push(
            "cannon",
            Phase::ShiftRounds {
                grp: flat(4),
                rounds: 3,
                bytes_per_round: 10.0,
                msgs_per_round: 2,
            },
        );
        s.push(
            "cannon",
            Phase::ShiftRounds {
                grp: flat(4),
                rounds: 1,
                bytes_per_round: 10.0,
                msgs_per_round: 2,
            },
        );
        let r = evaluate(&m, 1e9, &s);
        // Label breakdown matches the per-phase formulas…
        assert!((r.label_bytes("replicate_ab") - 300.0).abs() < 1e-9);
        assert!((r.label_bytes("cannon") - 40.0).abs() < 1e-9);
        assert_eq!(r.label_bytes("gemm"), 0.0);
        assert!((r.label_msgs("cannon") - 8.0).abs() < 1e-9);
        // …and sums back to the schedule-wide totals.
        let byte_sum: f64 = r.bytes_by_label.values().sum();
        let msg_sum: f64 = r.msgs_by_label.values().sum();
        assert!((byte_sum - r.sent_bytes).abs() < 1e-9);
        assert!((msg_sum - r.messages).abs() < 1e-9);
    }

    #[test]
    fn intra_node_groups_use_fast_link() {
        let mut m = Machine::uniform();
        m.beta_intra = 1e-12;
        // rpn = 1: every hop is inter-node
        let slow = phase_cost(
            &m,
            1e9,
            &Phase::Allgather {
                grp: NetGroup::contiguous(4, 1),
                total_bytes: 1e9,
            },
        );
        // rpn = 8: the whole group fits in one node
        let fast = phase_cost(
            &m,
            1e9,
            &Phase::Allgather {
                grp: NetGroup::contiguous(4, 8),
                total_bytes: 1e9,
            },
        );
        assert!(fast.comm_s < slow.comm_s / 100.0);
    }

    #[test]
    fn hier_allgather_priced_as_three_serial_stages() {
        let m = Machine::phoenix_cpu();
        // 8 ranks over nodes of 4: 2 nodes × 4 members.
        let grp = NetGroup::contiguous(8, 4);
        assert_eq!(grp.node_layout(), (2, 4));
        let total = 1e6;
        let c = phase_cost(
            &m,
            1e9,
            &Phase::HierAllgather {
                grp,
                total_bytes: total,
            },
        );
        let up = m.alpha_intra + m.beta_intra * total / 8.0;
        let ring = m.alpha_inter + m.beta_inter(4.0) * total / 2.0;
        let down = 3.0 * (m.alpha_intra + m.beta_intra * total);
        assert!((c.comm_s - (up + ring + down)).abs() < 1e-15);
        assert_eq!(c.comp_s, 0.0);
    }

    #[test]
    fn hier_reduce_scatter_member_is_byte_max() {
        // The gate geometry: a pk = 24 reduce group strided by pm·pn = 128
        // over 384-rank nodes → 8 nodes × 3 members. The member that ships
        // its whole vector up is the byte-max rank; the leader is the
        // message-max rank.
        let grp = NetGroup::strided(24, 128, 384);
        assert_eq!(grp.node_layout(), (8, 3));
        let total = 589_824.0;
        let ph = Phase::HierReduceScatter {
            grp,
            total_bytes: total,
        };
        assert!((ph.sent_bytes() - total).abs() < 1e-9);
        assert!((ph.message_count() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn hier_singleton_groups_cost_nothing() {
        let m = Machine::uniform();
        for ph in [
            Phase::HierAllgather {
                grp: flat(1),
                total_bytes: 1e9,
            },
            Phase::HierReduceScatter {
                grp: flat(1),
                total_bytes: 1e9,
            },
        ] {
            assert_eq!(phase_cost(&m, 1e9, &ph), PhaseCost::default());
        }
    }

    #[test]
    fn intra_fraction_cases() {
        // contiguous group spanning several nodes of 8 ranks: 1/8 crosses
        let g = NetGroup::contiguous(64, 8);
        assert!((g.intra_fraction() - 7.0 / 8.0).abs() < 1e-12);
        // stride >= rpn: everything crosses
        assert_eq!(NetGroup::strided(4, 8, 8).intra_fraction(), 0.0);
        // whole group inside one node
        assert_eq!(NetGroup::contiguous(4, 8).intra_fraction(), 1.0);
        // scattered: peers on my node over all peers
        let g = NetGroup::scattered(64, 8);
        assert!((g.intra_fraction() - 7.0 / 63.0).abs() < 1e-12);
        // singleton group
        assert_eq!(NetGroup::contiguous(1, 8).intra_fraction(), 1.0);
    }
}
