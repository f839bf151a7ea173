//! The schedule IR: what one (maximally loaded) rank does, phase by phase.

/// The communication group one phase runs in, as the cost model sees it.
///
/// Every group in this workspace is an arithmetic progression of ranks
/// (`base + i·stride`), a consequence of CA3DMM's column-major rank order —
/// so `stride` together with the placement's ranks-per-node determines how
/// much of the group's ring/collective traffic stays inside a node:
///
/// * `stride = 1` (Cannon groups, grid columns): ring neighbours are
///   adjacent ranks, so in pure-MPI mode almost all shift traffic is
///   intra-node — the effect behind the paper's Fig. 4 observation that
///   pure MPI has "a smaller inter-node communication volume";
/// * `stride ≥ ranks_per_node` (k-task reduce groups at scale): every hop
///   crosses nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetGroup {
    /// Number of ranks in the group.
    pub size: usize,
    /// Rank distance between consecutive members.
    pub stride: usize,
    /// Ranks per node in this run's placement (24 pure MPI, 1 hybrid,
    /// 2 GPU).
    pub ranks_per_node: usize,
    /// True for phases whose traffic is scattered across all peers
    /// (redistribution all-to-alls) rather than neighbour rings.
    pub scattered: bool,
}

impl NetGroup {
    /// A group of contiguous ranks under a placement.
    pub fn contiguous(size: usize, ranks_per_node: usize) -> Self {
        NetGroup {
            size,
            stride: 1,
            ranks_per_node,
            scattered: false,
        }
    }

    /// A strided group under a placement.
    pub fn strided(size: usize, stride: usize, ranks_per_node: usize) -> Self {
        NetGroup {
            size,
            stride: stride.max(1),
            ranks_per_node,
            scattered: false,
        }
    }

    /// An all-to-all style group (redistribution).
    pub fn scattered(size: usize, ranks_per_node: usize) -> Self {
        NetGroup {
            size,
            stride: 1,
            ranks_per_node,
            scattered: true,
        }
    }

    /// A group in a flat network: one rank per node (unit tests; every hop
    /// is "inter-node" at the full single-rank bandwidth).
    pub fn flat(size: usize) -> Self {
        NetGroup {
            size,
            stride: 1,
            ranks_per_node: 1,
            scattered: false,
        }
    }

    /// Intra-node traffic fraction for *pairwise-exchange* collectives
    /// (MPICH's large-message reduce-scatter): partners sit at every
    /// distance `1..size`, so only the members sharing this rank's node
    /// are intra — `(members_on_node − 1)/(size − 1)`. This is why the
    /// k-dimension reduction stays expensive in pure-MPI mode while
    /// Cannon's fixed neighbour shifts become nearly free (§III-B: Cannon
    /// "only requires neighbor communications with fixed patterns").
    pub fn pairwise_intra_fraction(&self) -> f64 {
        if self.size <= 1 {
            return 1.0;
        }
        let rpn = self.ranks_per_node.max(1);
        let span = self.stride * (self.size - 1) + 1;
        if span <= rpn {
            return 1.0;
        }
        let members_on_node = (rpn / self.stride.max(1)).clamp(1, self.size);
        ((members_on_node as f64 - 1.0) / (self.size as f64 - 1.0)).clamp(0.0, 1.0)
    }

    /// Node layout `(node_count, max_members_per_node)` of the group's
    /// arithmetic progression, with the base taken at a node boundary. This
    /// mirrors `msgpass::collectives::node_map` for CA3DMM's groups: the
    /// runtime's group bases are always smaller than the member stride (or
    /// land the whole group inside one node), so the base-0 layout is the
    /// layout every group of the phase actually has. Groups with exotic
    /// bases could differ; CA3DMM's column-major rank order never produces
    /// them.
    pub fn node_layout(&self) -> (usize, usize) {
        let rpn = self.ranks_per_node.max(1);
        let mut nodes = 0usize;
        let mut members = 0usize;
        let mut max_members = 0usize;
        let mut last_node = usize::MAX;
        for i in 0..self.size {
            let node = i * self.stride / rpn;
            if node != last_node {
                nodes += 1;
                members = 0;
                last_node = node;
            }
            members += 1;
            max_members = max_members.max(members);
        }
        (nodes, max_members)
    }

    /// The two-level selection rule the runtime applies
    /// (`msgpass::collectives::node_map`): hierarchical collectives engage
    /// when the group spans ≥ 2 nodes and at least one node holds ≥ 2
    /// members.
    pub fn hier_engages(&self) -> bool {
        let (nodes, max_members) = self.node_layout();
        nodes >= 2 && max_members >= 2
    }

    /// Fraction of this group's traffic that stays within a node.
    pub fn intra_fraction(&self) -> f64 {
        let rpn = self.ranks_per_node.max(1);
        if self.size <= 1 {
            return 1.0;
        }
        if self.scattered {
            // traffic goes to all peers uniformly; peers on my node get
            // (members-on-my-node - 1) / (size - 1) of it
            let on_node = rpn.min(self.size) as f64;
            return ((on_node - 1.0) / (self.size as f64 - 1.0)).clamp(0.0, 1.0);
        }
        let span = self.stride * (self.size - 1) + 1;
        if span <= rpn {
            1.0 // whole group on one node
        } else if self.stride >= rpn {
            0.0 // every hop crosses nodes
        } else {
            1.0 - self.stride as f64 / rpn as f64
        }
    }
}

/// One phase of a schedule. Byte counts are **payload bytes for the modeled
/// rank** (the busiest one); `total_bytes` for collectives is the full
/// gathered/reduced buffer size, matching the `n` of the §III-D formulas.
#[derive(Clone, Debug, PartialEq)]
pub enum Phase {
    /// `MPI_Allgather(v)`: gathered buffer totals `total_bytes`.
    Allgather {
        /// Group it runs in.
        grp: NetGroup,
        /// Total gathered bytes (`n` in `T_allgather`).
        total_bytes: f64,
    },
    /// Large-message broadcast (scatter + allgather), `T_broadcast`.
    Bcast {
        /// Group it runs in.
        grp: NetGroup,
        /// Broadcast payload bytes.
        bytes: f64,
    },
    /// `MPI_Reduce_scatter`: reduced buffer totals `total_bytes`.
    ReduceScatter {
        /// Group it runs in.
        grp: NetGroup,
        /// Total reduced bytes (`n` in `T_reduce_scatter`).
        total_bytes: f64,
        /// True when the library ships its own reduction implementation
        /// (COSMA "crafts the binary reduction tree", §IV-B) and therefore
        /// dodges the MPI library's large-block and odd-size penalties.
        custom_impl: bool,
    },
    /// Pairwise exchange with up to `peers` partners, sending
    /// `send_bytes` in total (redistribution / `MPI_Neighbor_alltoallv`).
    Alltoallv {
        /// Group it runs in.
        grp: NetGroup,
        /// Bytes this rank sends across the whole exchange.
        send_bytes: f64,
        /// Number of distinct destination ranks.
        peers: usize,
    },
    /// `rounds` point-to-point shift steps of `bytes_per_round` each
    /// (Cannon's initial skew and circular shifts).
    ShiftRounds {
        /// Group it runs in.
        grp: NetGroup,
        /// Number of sendrecv rounds.
        rounds: usize,
        /// Payload bytes per round.
        bytes_per_round: f64,
        /// Messages the modeled rank sends per round. CA3DMM's runtime
        /// ships the A and B blocks of a shift as two separate messages,
        /// so its rounds pay 2·α; a combined single-exchange shift pays 1.
        msgs_per_round: usize,
    },
    /// Two-level `MPI_Allgather(v)`: members ship their piece to the node
    /// leader intra-node, leaders ring whole node blocks inter-node, leaders
    /// fan the assembled buffer back out intra-node. The modeled rank is the
    /// leader of the fullest node (the busiest role).
    HierAllgather {
        /// Group it runs in (must satisfy [`NetGroup::hier_engages`]).
        grp: NetGroup,
        /// Total gathered bytes.
        total_bytes: f64,
    },
    /// Two-level `MPI_Reduce_scatter`: members ship their full contribution
    /// to the node leader (pre-reduced there), leaders ring node blocks,
    /// leaders scatter finished segments back. The modeled rank for bytes is
    /// a non-leader member (it ships the whole vector up); for messages,
    /// the leader.
    HierReduceScatter {
        /// Group it runs in (must satisfy [`NetGroup::hier_engages`]).
        grp: NetGroup,
        /// Total reduced bytes.
        total_bytes: f64,
    },
    /// Local GEMM work.
    LocalGemm {
        /// Multiply-add flops ×2 (i.e. `2·m·n·k` for the local block).
        flops: f64,
    },
    /// Dual-buffered Cannon stage (§III-F): `rounds` shifts of
    /// `bytes_per_round` overlapped with `flops` of local GEMM; the cost is
    /// the max of the two streams per round plus one unoverlapped leading
    /// GEMM.
    CannonOverlap {
        /// Group it runs in.
        grp: NetGroup,
        /// Number of shift rounds (`s − 1` plus the initial skew).
        rounds: usize,
        /// Payload bytes per round (an A block + a B block).
        bytes_per_round: f64,
        /// Messages per round — see [`Phase::ShiftRounds::msgs_per_round`].
        msgs_per_round: usize,
        /// Total local GEMM flops across all rounds.
        flops: f64,
    },
}

/// An ordered, labelled list of phases. Labels group phases for the
/// breakdown plots ("redist", "replicate_ab", "cannon", "local_gemm",
/// "reduce_c").
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// The phases in execution order with their breakdown labels.
    pub items: Vec<(String, Phase)>,
}

impl Phase {
    /// Predicted bytes *sent* by the modeled rank in this phase — the
    /// quantity the `msgpass` traffic counters measure. Ring collectives
    /// send `total·(g−1)/g`; shifts send `rounds · bytes`; alltoallv sends
    /// its `send_bytes`; scatter+allgather broadcast sends up to
    /// `2·bytes·(g−1)/g` (at the root).
    pub fn sent_bytes(&self) -> f64 {
        match self {
            Phase::Allgather { grp, total_bytes } => frac(grp.size) * total_bytes,
            Phase::Bcast { grp, bytes } => 2.0 * frac(grp.size) * bytes,
            Phase::ReduceScatter {
                grp, total_bytes, ..
            } => frac(grp.size) * total_bytes,
            Phase::Alltoallv { send_bytes, .. } => *send_bytes,
            Phase::ShiftRounds {
                rounds,
                bytes_per_round,
                ..
            }
            | Phase::CannonOverlap {
                rounds,
                bytes_per_round,
                ..
            } => *rounds as f64 * bytes_per_round,
            Phase::HierAllgather { grp, total_bytes } => {
                // Leader of the fullest node: L−1 ring blocks (total minus
                // the next node's block) plus the whole buffer to each of
                // its m−1 members. Exactly the runtime's leader volume under
                // even node blocks.
                let (l, m) = grp.node_layout();
                total_bytes * (1.0 - 1.0 / l as f64) + (m as f64 - 1.0) * total_bytes
            }
            Phase::HierReduceScatter { grp, total_bytes } => {
                // A member ships its whole contribution up (total); the
                // leader ships (L−1)/L·total around the ring plus m−1
                // segments down. The member is the byte-max in the even
                // case; take the max so uneven layouts stay safe.
                let (l, m) = grp.node_layout();
                let leader = total_bytes * (1.0 - 1.0 / l as f64)
                    + (m as f64 - 1.0) * total_bytes / grp.size as f64;
                total_bytes.max(leader)
            }
            Phase::LocalGemm { .. } => 0.0,
        }
    }

    /// The paper's latency measure `L` for this phase: messages sent by the
    /// modeled rank, using the butterfly-collective counts of §III-D
    /// (`log₂ g` for allgather/broadcast trees, `g − 1` for reduce-scatter
    /// and pairwise exchange, `msgs_per_round` per shift round).
    pub fn message_count(&self) -> f64 {
        match self {
            Phase::Allgather { grp, .. } => (grp.size as f64).log2().ceil(),
            Phase::Bcast { grp, .. } => (grp.size as f64).log2().ceil() + grp.size as f64 - 1.0,
            Phase::ReduceScatter { grp, .. } => grp.size as f64 - 1.0,
            Phase::Alltoallv { peers, .. } => *peers as f64,
            Phase::ShiftRounds {
                rounds,
                msgs_per_round,
                ..
            }
            | Phase::CannonOverlap {
                rounds,
                msgs_per_round,
                ..
            } => (*rounds * *msgs_per_round) as f64,
            Phase::HierAllgather { grp, .. } | Phase::HierReduceScatter { grp, .. } => {
                // Leader of the fullest node: L−1 ring steps plus m−1
                // intra-node fan-out (or fan-in) messages.
                let (l, m) = grp.node_layout();
                (l - 1) as f64 + (m - 1) as f64
            }
            Phase::LocalGemm { .. } => 0.0,
        }
    }
}

impl Schedule {
    /// Empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a phase under a breakdown label.
    pub fn push(&mut self, label: &str, phase: Phase) {
        self.items.push((label.to_owned(), phase));
    }

    /// Sum of [`Phase::sent_bytes`] over the schedule.
    pub fn sent_bytes(&self) -> f64 {
        self.items.iter().map(|(_, ph)| ph.sent_bytes()).sum()
    }

    /// Sum of [`Phase::message_count`] over the schedule.
    pub fn message_count(&self) -> f64 {
        self.items.iter().map(|(_, ph)| ph.message_count()).sum()
    }
}

fn frac(g: usize) -> f64 {
    if g == 0 {
        0.0
    } else {
        (g as f64 - 1.0) / g as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sent_bytes_ring_formulas() {
        let mut s = Schedule::new();
        s.push(
            "ag",
            Phase::Allgather {
                grp: NetGroup::flat(4),
                total_bytes: 400.0,
            },
        );
        s.push(
            "rs",
            Phase::ReduceScatter {
                grp: NetGroup::flat(5),
                total_bytes: 500.0,
                custom_impl: false,
            },
        );
        s.push(
            "shift",
            Phase::ShiftRounds {
                grp: NetGroup::flat(3),
                rounds: 2,
                bytes_per_round: 10.0,
                msgs_per_round: 2,
            },
        );
        // 400*3/4 + 500*4/5 + 20 = 300 + 400 + 20
        // (msgs_per_round scales latency, never bytes)
        assert!((s.sent_bytes() - 720.0).abs() < 1e-9);
    }

    #[test]
    fn message_counts_follow_butterfly() {
        let mut s = Schedule::new();
        s.push(
            "ag",
            Phase::Allgather {
                grp: NetGroup::flat(8),
                total_bytes: 1.0,
            },
        );
        s.push(
            "rs",
            Phase::ReduceScatter {
                grp: NetGroup::flat(8),
                total_bytes: 1.0,
                custom_impl: false,
            },
        );
        assert!((s.message_count() - (3.0 + 7.0)).abs() < 1e-9);
    }

    #[test]
    fn shift_rounds_count_msgs_per_round() {
        let mut s = Schedule::new();
        // A Cannon-style shift ships A and B separately: 2 msgs/round.
        s.push(
            "shift",
            Phase::ShiftRounds {
                grp: NetGroup::flat(4),
                rounds: 3,
                bytes_per_round: 10.0,
                msgs_per_round: 2,
            },
        );
        s.push(
            "overlap",
            Phase::CannonOverlap {
                grp: NetGroup::flat(4),
                rounds: 3,
                bytes_per_round: 10.0,
                msgs_per_round: 2,
                flops: 1e6,
            },
        );
        assert!((s.message_count() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn gemm_contributes_no_traffic() {
        let mut s = Schedule::new();
        s.push("gemm", Phase::LocalGemm { flops: 1e9 });
        assert_eq!(s.sent_bytes(), 0.0);
        assert_eq!(s.message_count(), 0.0);
    }

    #[test]
    fn singleton_groups_are_free() {
        let mut s = Schedule::new();
        s.push(
            "ag",
            Phase::Allgather {
                grp: NetGroup::flat(1),
                total_bytes: 100.0,
            },
        );
        assert_eq!(s.sent_bytes(), 0.0);
        assert_eq!(s.message_count(), 0.0);
    }
}
