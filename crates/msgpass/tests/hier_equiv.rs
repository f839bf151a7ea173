//! Property tests for the two-level rings. Allgatherv and reduce-scatter
//! each have one ring over node blocks; `Collectives::Flat` runs it with
//! every rank its own node, `Collectives::Hier` with the [`node_map`]
//! grouping. On ANY topology — uneven node sizes, non-power-of-two leader
//! counts, single-rank nodes, subgroup communicators whose members straddle
//! nodes arbitrarily — the two groupings must return bitwise-identical
//! results. The node grouping pre-combines a node's contributions, a
//! different association than the flat ring's, so reductions use
//! integer-valued `f64` payloads that rounding cannot hide behind: any
//! deviation changes bits. Both cases also run both groupings over the
//! zero-sized `dense::Shape64` element (phase `"shape"`) and require the
//! same bytes and messages on every rank as the 8-byte value run (phase
//! `"values"`).
//!
//! A final (non-property) test pins the leader-ring inter-node traffic of
//! the virtual-time simulator to the closed form the `netmodel` phases
//! price: `(L − 1) · total` bytes across the wire for both the allgather
//! and the reduce-scatter, where `L` is the node count.

use dense::Shape64;
use msgpass::collectives::Collectives::Hier;
use msgpass::collectives::{
    allgatherv, allgatherv_mode, node_map, reduce_scatter, reduce_scatter_mode,
};
use msgpass::world::RunOptions;
use msgpass::{Comm, RunReport, SimOptions, World};
use netmodel::machine::Placement;
use netmodel::Machine;
use proptest::prelude::*;

/// Wall-clock run options carrying a node layout.
fn topo(rpn: usize) -> RunOptions {
    RunOptions {
        ranks_per_node: Some(rpn),
        ..RunOptions::default()
    }
}

/// Deterministic per-rank counts from a seed: 0..=3 elements each, so empty
/// contributions and uneven segments both occur.
fn counts_from_seed(seed: u64, p: usize) -> Vec<usize> {
    (0..p)
        .map(|r| ((seed >> (2 * (r % 32))) & 3) as usize)
        .collect()
}

/// Phases `"values"` (an 8-byte element) and `"shape"` (`Shape64`) carried
/// the same traffic: per-rank counts both directions, and size histograms.
fn assert_shape_traffic_equals_values(report: &RunReport) {
    for (r, phases) in report.traffic.per_rank.iter().enumerate() {
        assert_eq!(phases.get("values"), phases.get("shape"), "rank {r}");
    }
    let hist = &report.traffic.hist_by_phase;
    assert_eq!(hist.get("values"), hist.get("shape"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// allgatherv: hier == flat on the world communicator. `p` need not
    /// divide by `rpn` (the last node is short), `rpn = 1` exercises the
    /// all-singleton flat fallback, and `rpn >= p` the single-node one.
    #[test]
    fn hier_allgatherv_matches_flat(
        p in 2usize..12,
        rpn in 1usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let counts = counts_from_seed(seed, p);
        let (_, report) = World::run_opts(p, topo(rpn), |ctx| {
            let comm = Comm::world(ctx);
            let me = comm.rank();
            ctx.set_phase("values");
            let mine: Vec<u64> =
                (0..counts[me]).map(|i| (me * 100 + i) as u64).collect();
            let flat = allgatherv(&comm, ctx, mine.clone(), &counts);
            let hier = allgatherv_mode(Hier, &comm, ctx, mine, &counts);
            assert_eq!(flat, hier, "p={p} rpn={rpn} seed={seed:#x}");
            ctx.set_phase("shape");
            let mine = vec![Shape64; counts[me]];
            let flat = allgatherv(&comm, ctx, mine.clone(), &counts);
            let hier = allgatherv_mode(Hier, &comm, ctx, mine, &counts);
            assert_eq!(flat.len(), hier.len());
        });
        assert_shape_traffic_equals_values(&report);
    }

    /// reduce_scatter: hier pre-reduces on leaders, so its association
    /// order differs from the flat ring's — integer-valued f64 makes the
    /// comparison exact anyway.
    #[test]
    fn hier_reduce_scatter_matches_flat(
        p in 2usize..12,
        rpn in 1usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let counts = counts_from_seed(seed, p);
        let total: usize = counts.iter().sum();
        let (_, report) = World::run_opts(p, topo(rpn), |ctx| {
            let comm = Comm::world(ctx);
            let me = comm.rank();
            ctx.set_phase("values");
            let data: Vec<f64> =
                (0..total).map(|i| ((me + 1) * (i + 1)) as f64).collect();
            let flat = reduce_scatter(&comm, ctx, data.clone(), &counts);
            let hier = reduce_scatter_mode(Hier, &comm, ctx, data, &counts);
            assert_eq!(flat, hier, "p={p} rpn={rpn} seed={seed:#x}");
            ctx.set_phase("shape");
            let data = vec![Shape64; total];
            let flat = reduce_scatter(&comm, ctx, data.clone(), &counts);
            let hier = reduce_scatter_mode(Hier, &comm, ctx, data, &counts);
            assert_eq!(flat.len(), hier.len());
        });
        assert_shape_traffic_equals_values(&report);
    }

    /// Subgroup communicators: pick a seed-driven subset of the world (at
    /// least 2 ranks) so node membership inside the subgroup is arbitrary —
    /// leaders need not be node-aligned with the world, nodes can hold 1
    /// member, and the leader count is whatever the subset happens to span.
    #[test]
    fn hier_matches_flat_on_subgroups(
        p in 3usize..12,
        rpn in 1usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let mut members: Vec<usize> =
            (0..p).filter(|r| (seed >> (r % 64)) & 1 == 1).collect();
        if members.len() < 2 {
            members = vec![0, p - 1];
        }
        let counts: Vec<usize> = members
            .iter()
            .map(|&r| ((seed >> ((2 * r + 1) % 64)) & 3) as usize)
            .collect();
        let groups = vec![members.clone()];
        World::run_opts(p, topo(rpn), |ctx| {
            let comm = Comm::world(ctx);
            let Some(sub) = comm.subgroup(ctx, &groups) else {
                return;
            };
            let me = sub.rank();
            let mine: Vec<u64> = (0..counts[me]).map(|i| (me * 10 + i) as u64).collect();
            let flat = allgatherv(&sub, ctx, mine.clone(), &counts);
            let hier = allgatherv_mode(Hier, &sub, ctx, mine, &counts);
            assert_eq!(flat, hier, "p={p} rpn={rpn} members={members:?}");

            let total: usize = counts.iter().sum();
            let data: Vec<f64> = (0..total).map(|i| ((me + 1) * (i + 3)) as f64).collect();
            let flat = reduce_scatter(&sub, ctx, data.clone(), &counts);
            let hier = reduce_scatter_mode(Hier, &sub, ctx, data, &counts);
            assert_eq!(flat, hier, "p={p} rpn={rpn} members={members:?}");
        });
    }
}

/// The leader ring is the only inter-node traffic the hierarchical
/// collectives generate, and its volume has a closed form: over the whole
/// communicator, `(L − 1) · total` bytes cross node boundaries — each of
/// the `L` leaders ships `L − 1` node blocks of `total / L` bytes. This is
/// exactly what the `netmodel` hier phases charge, and the virtual-time
/// simulator must measure it to the byte.
#[test]
fn sim_leader_hop_bytes_match_closed_form() {
    let machine = Machine::phoenix_cpu();
    let (p, rpn, seg) = (12usize, 3usize, 16usize); // 4 nodes x 3 members
    let placement = Placement {
        ranks_per_node: rpn,
        ..machine.pure_mpi()
    };
    let opts = || SimOptions {
        placement: Some(placement),
        execute_compute: false,
        ..Default::default()
    };
    let inter_bytes = |report: &msgpass::RunReport| -> u64 {
        let mut total = 0;
        for src in 0..p {
            for dst in 0..p {
                if src / rpn != dst / rpn {
                    total += report.traffic.matrix.sent(src, dst).bytes;
                }
            }
        }
        total
    };
    let counts = vec![seg; p];
    let total_bytes = (p * seg * std::mem::size_of::<u64>()) as u64;
    let nodes = (p / rpn) as u64;

    let (_, report) = World::run_sim(p, &machine, opts(), |ctx| {
        let comm = Comm::world(ctx);
        assert!(node_map(&comm, ctx).is_some(), "topology must engage");
        let mine: Vec<u64> = vec![comm.rank() as u64; seg];
        let _ = allgatherv_mode(Hier, &comm, ctx, mine, &counts);
    });
    assert_eq!(
        inter_bytes(&report),
        (nodes - 1) * total_bytes,
        "allgather leader-hop bytes"
    );

    let (_, report) = World::run_sim(p, &machine, opts(), |ctx| {
        let comm = Comm::world(ctx);
        let data: Vec<u64> = (0..p * seg).map(|i| i as u64).collect();
        let _ = reduce_scatter_mode(Hier, &comm, ctx, data, &counts);
    });
    assert_eq!(
        inter_bytes(&report),
        (nodes - 1) * total_bytes,
        "reduce-scatter leader-hop bytes"
    );
}
