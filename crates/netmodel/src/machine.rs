//! Machine descriptions: the hardware parameters the cost model needs.

jsonlite::record! {
    /// How ranks map onto nodes in one experiment.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Placement {
        /// MPI ranks per node (24 in the paper's pure-MPI runs, 1 in hybrid,
        /// 2 in the GPU runs).
        pub ranks_per_node: usize,
        /// Compute throughput available to one rank, in FLOP/s (one core's
        /// worth in pure MPI, a whole node in MPI+OpenMP, one V100 in the GPU
        /// runs).
        pub flops_per_rank: f64,
    }
}

jsonlite::record! {
    /// An α–β–γ machine: network latency and bandwidth per link class plus a
    /// local GEMM rate. All times in seconds, sizes in bytes.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Machine {
        /// Human-readable name for reports.
        pub name: String,
        /// Point-to-point latency within a node (shared-memory transport).
        pub alpha_intra: f64,
        /// Point-to-point latency across nodes.
        pub alpha_inter: f64,
        /// Inverse bandwidth within a node, s/byte.
        pub beta_intra: f64,
        /// Per-node network injection bandwidth, bytes/s (shared by all ranks of
        /// the node that communicate concurrently).
        pub node_injection_bw: f64,
        /// Fraction of the node injection bandwidth a *single* rank can drive.
        /// < 1 models the paper's Fig. 4 observation that one rank per node
        /// cannot saturate the NIC, while many ranks per node can.
        pub single_rank_bw_frac: f64,
        /// Cores per node (24 on PACE-Phoenix).
        pub cores_per_node: usize,
        /// Peak FLOP/s of one core.
        pub flops_per_core: f64,
        /// Fraction of peak the local GEMM actually achieves.
        pub gemm_efficiency: f64,
        /// Effective per-rank pack/unpack bandwidth (bytes/s) for the
        /// redistribution subroutine's strided block copies (§III-F: the
        /// artifact's layout conversion "simply packs and unpacks matrix
        /// blocks" with no optimization — narrow strided pieces copy far below
        /// memcpy speed). Charged once for packing and once for unpacking in
        /// `Alltoallv` phases. `f64::INFINITY` disables it.
        pub pack_bw: f64 as jsonlite::NullIsInf,
        /// Message size (bytes) above which reduce-scatter bandwidth degrades
        /// (the MVAPICH2 behaviour the paper hits in §IV-C on GPUs and in the
        /// hybrid square runs). `f64::INFINITY` disables it.
        pub reduce_scatter_degrade_threshold: f64 as jsonlite::NullIsInf,
        /// Bandwidth degradation factor applied above the threshold (≥ 1).
        pub reduce_scatter_degrade_factor: f64,
        /// Extra bandwidth factor for reduce-scatter on *odd* group sizes
        /// (recursive-halving collectives pair ranks at every level; odd sizes
        /// break the pairing — the paper's §IV-B observation that `pk = 341`
        /// is "unfavorable" for collectives). 1.0 disables it.
        pub reduce_scatter_odd_factor: f64,
    }
}

impl Machine {
    /// The paper's CPU cluster: Georgia Tech PACE-Phoenix. Two Intel Xeon
    /// Gold 6226 sockets (2 × 12 cores at 2.7 GHz, AVX-512 → 32 DP
    /// flop/cycle/core ≈ 86 GF/s peak/core), 100 Gb/s InfiniBand
    /// (12.5 GB/s injection), MVAPICH2-style latencies.
    pub fn phoenix_cpu() -> Machine {
        Machine {
            name: "pace-phoenix-cpu".into(),
            alpha_intra: 0.5e-6,
            alpha_inter: 1.8e-6,
            beta_intra: 1.0 / 6.0e9,
            node_injection_bw: 12.5e9,
            single_rank_bw_frac: 0.40,
            pack_bw: 1.2e9,
            cores_per_node: 24,
            flops_per_core: 86.4e9,
            gemm_efficiency: 0.80,
            reduce_scatter_degrade_threshold: 64.0 * 1024.0 * 1024.0,
            reduce_scatter_degrade_factor: 1.6,
            reduce_scatter_odd_factor: 1.5,
        }
    }

    /// The paper's GPU nodes: same hosts plus 2 × NVIDIA V100 (16 GB HBM2,
    /// ~7 TF/s FP64, cuBLAS ≈ 90 % of peak). Communication still moves
    /// through the host NIC.
    pub fn phoenix_gpu() -> Machine {
        Machine {
            cores_per_node: 2, // ranks are GPUs: 2 per node
            flops_per_core: 7.0e12,
            gemm_efficiency: 0.90,
            name: "pace-phoenix-gpu".into(),
            ..Machine::phoenix_cpu()
        }
    }

    /// A flat, uniform network with no node structure — keeps unit tests of
    /// the evaluator free of placement effects.
    pub fn uniform() -> Machine {
        Machine {
            name: "uniform".into(),
            alpha_intra: 1e-6,
            alpha_inter: 1e-6,
            beta_intra: 1e-9,
            node_injection_bw: 1e9,
            single_rank_bw_frac: 1.0,
            pack_bw: f64::INFINITY,
            cores_per_node: 1,
            flops_per_core: 1e9,
            gemm_efficiency: 1.0,
            reduce_scatter_degrade_threshold: f64::INFINITY,
            reduce_scatter_degrade_factor: 1.0,
            reduce_scatter_odd_factor: 1.0,
        }
    }

    /// Placement for the paper's pure-MPI mode: one rank per core.
    pub fn pure_mpi(&self) -> Placement {
        Placement {
            ranks_per_node: self.cores_per_node,
            flops_per_rank: self.flops_per_core * self.gemm_efficiency,
        }
    }

    /// Placement for the paper's MPI + OpenMP mode: one rank per node using
    /// every core.
    pub fn hybrid(&self) -> Placement {
        Placement {
            ranks_per_node: 1,
            flops_per_rank: self.flops_per_core * self.cores_per_node as f64 * self.gemm_efficiency,
        }
    }

    /// Effective inverse bandwidth (s/byte) seen by one rank on the
    /// inter-node network when `link_share` ranks of its node communicate
    /// concurrently.
    pub fn beta_inter(&self, link_share: f64) -> f64 {
        let share = link_share.max(1.0);
        let bw = if share <= 1.0 {
            self.node_injection_bw * self.single_rank_bw_frac
        } else {
            self.node_injection_bw / share
        };
        1.0 / bw
    }

    /// Aggregate peak FLOP/s of `p` ranks under `placement` (the
    /// denominator of the paper's "% of peak" plots).
    pub fn peak_flops(&self, p: usize, placement: &Placement) -> f64 {
        // Peak is measured against raw core peak, not GEMM efficiency.
        let per_rank_peak = placement.flops_per_rank / self.gemm_efficiency;
        per_rank_peak * p as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements() {
        let m = Machine::phoenix_cpu();
        let pure = m.pure_mpi();
        assert_eq!(pure.ranks_per_node, 24);
        let hybrid = m.hybrid();
        assert_eq!(hybrid.ranks_per_node, 1);
        assert!((hybrid.flops_per_rank / pure.flops_per_rank - 24.0).abs() < 1e-9);
    }

    #[test]
    fn single_rank_cannot_saturate_nic() {
        let m = Machine::phoenix_cpu();
        let single = m.beta_inter(1.0);
        let shared24 = m.beta_inter(24.0);
        // one rank gets 55% of the NIC; 24 ranks share it fully
        assert!(single > 1.0 / m.node_injection_bw);
        assert!((shared24 - 24.0 / m.node_injection_bw).abs() < 1e-18);
    }

    #[test]
    fn gpu_preset_is_fast_at_compute() {
        let cpu = Machine::phoenix_cpu();
        let gpu = Machine::phoenix_gpu();
        assert!(gpu.flops_per_core > 10.0 * cpu.flops_per_core);
        assert_eq!(gpu.cores_per_node, 2);
    }

    #[test]
    fn peak_flops_counts_raw_peak() {
        let m = Machine::uniform();
        let p = m.pure_mpi();
        assert!((m.peak_flops(4, &p) - 4e9).abs() < 1.0);
    }
}
