//! Property tests for the `msgpass` collectives: every collective must
//! agree with its obvious serial specification for arbitrary group sizes,
//! payload sizes, and roots — including empty contributions. These are the
//! foundations everything else stands on. The two ring collectives CA3DMM
//! uses are also run over the zero-sized `Shape64` element: same bytes,
//! messages and message sizes on every rank as over an 8-byte value type.

use dense::Shape64;
use msgpass::collectives::{
    allgatherv_mode, allreduce, barrier, bcast, bcast_large, neighbor_alltoallv,
    reduce_scatter_mode, Collectives,
};
use msgpass::{Comm, RankCtx, RunOptions, RunReport, SimOptions, World};
use netmodel::{Machine, Placement};
use proptest::prelude::*;

/// A `Shape64` run and an 8-byte-element run of the same collective carried
/// the same traffic: per-rank counts both directions, every matrix cell,
/// and each algorithm's message sizes.
fn assert_same_traffic(shape: &RunReport, values: &RunReport) {
    assert_eq!(shape.per_rank, values.per_rank);
    assert_eq!(shape.matrix, values.matrix);
    assert_eq!(shape.hist_by_algo, values.hist_by_algo);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn allgatherv_concatenates(p in 1usize..9, sizes in proptest::collection::vec(0usize..7, 1..9)) {
        let counts: Vec<usize> = (0..p).map(|r| sizes[r % sizes.len()]).collect();
        let total: usize = counts.iter().sum();
        let (_, shape) = World::run_opts(p, RunOptions::default(), async |ctx| {
            let comm = Comm::world(ctx);
            let shapes = allgatherv_mode(Collectives::Flat, &comm, ctx, vec![Shape64; counts[comm.rank()]], &counts).await;
            assert_eq!(shapes.len(), total);
        });
        let (got, values) = World::run_opts(p, RunOptions::default(), async |ctx| {
            let comm = Comm::world(ctx);
            let me = comm.rank();
            let mine: Vec<u64> = (0..counts[me]).map(|i| (me * 100 + i) as u64).collect();
            allgatherv_mode(Collectives::Flat, &comm, ctx, mine, &counts).await
        });
        assert_same_traffic(&shape, &values);
        let want: Vec<u64> = (0..p)
            .flat_map(|r| (0..counts[r]).map(move |i| (r * 100 + i) as u64))
            .collect();
        for g in got {
            prop_assert_eq!(&g, &want);
        }
    }

    #[test]
    fn reduce_scatter_matches_serial(p in 1usize..9, seg in 0usize..6) {
        let counts: Vec<usize> = (0..p).map(|r| seg + r % 2).collect();
        let total: usize = counts.iter().sum();
        let (_, shape) = World::run_opts(p, RunOptions::default(), async |ctx| {
            let comm = Comm::world(ctx);
            let shapes = reduce_scatter_mode(Collectives::Flat, &comm, ctx, vec![Shape64; total], &counts).await;
            assert_eq!(shapes.len(), counts[comm.rank()]);
        });
        let (got, values) = World::run_opts(p, RunOptions::default(), async |ctx| {
            let comm = Comm::world(ctx);
            let data: Vec<f64> = (0..total).map(|i| (comm.rank() * 31 + i) as f64).collect();
            reduce_scatter_mode(Collectives::Flat, &comm, ctx, data, &counts).await
        });
        assert_same_traffic(&shape, &values);
        // serial: sum over ranks of each index
        let sums: Vec<f64> = (0..total)
            .map(|i| (0..p).map(|r| (r * 31 + i) as f64).sum())
            .collect();
        let mut off = 0;
        for (r, g) in got.iter().enumerate() {
            prop_assert_eq!(g.len(), counts[r]);
            for (k, v) in g.iter().enumerate() {
                prop_assert!((v - sums[off + k]).abs() < 1e-9);
            }
            off += counts[r];
        }
    }

    #[test]
    fn allreduce_matches_serial(p in 1usize..9, n in 0usize..40) {
        let got = World::run(p, async move |ctx| {
            let comm = Comm::world(ctx);
            let data: Vec<f64> = (0..n).map(|i| (comm.rank() + 1) as f64 * i as f64).collect();
            allreduce(&comm, ctx, data).await
        });
        let scale: f64 = (1..=p).map(|r| r as f64).sum();
        for g in got {
            for (i, v) in g.iter().enumerate() {
                prop_assert!((v - scale * i as f64).abs() < 1e-9);
            }
        }
    }

    /// The sparse exchange delivers what the dense one — every peer named,
    /// empty payloads included — delivers on the same pattern (self edges
    /// included), under wall and virtual time.
    #[test]
    fn neighbor_alltoallv_is_alltoallv_on_the_pattern(
        p in 1usize..8,
        edges in proptest::collection::vec(proptest::bool::ANY, 49..50),
        w in 0usize..5,
    ) {
        let edge = |s: usize, d: usize| edges[s * 7 + d];
        let go = async |ctx: &RankCtx| {
            let comm = Comm::world(ctx);
            let me = comm.rank();
            let payload = |j: usize| vec![(me * 1000 + j) as u64; (j + w) % (w + 2)];
            let everyone: Vec<usize> = (0..p).collect();
            let all = everyone.iter().map(|&d| (d, payload(d))).collect();
            let dense = neighbor_alltoallv(&comm, ctx, all, &everyone).await;
            let sends = (0..p).filter(|&d| edge(me, d)).map(|d| (d, payload(d))).collect();
            let sources: Vec<usize> = (0..p).filter(|&s| edge(s, me)).collect();
            let sparse = neighbor_alltoallv(&comm, ctx, sends, &sources).await;
            (dense, sources, sparse)
        };
        let wall = World::run(p, go);
        let (sim, _) = World::simulate(p, &Machine::uniform(), SimOptions::default(), go);
        for (dense, sources, sparse) in wall.into_iter().chain(sim) {
            prop_assert_eq!(sparse.len(), sources.len());
            for (src, got) in sources.into_iter().zip(sparse) {
                prop_assert_eq!(&got, &dense[src], "from rank {}", src);
            }
        }
    }

    #[test]
    fn bcast_large_any_root_any_len(p in 1usize..9, len in 0usize..50, root_sel in 0usize..8) {
        let root = root_sel % p;
        let got = World::run(p, async move |ctx| {
            let comm = Comm::world(ctx);
            let want: Vec<u32> = (0..len as u32).map(|i| i * 3 + 1).collect();
            let mine = (comm.rank() == root).then(|| want.clone());
            bcast_large(&comm, ctx, root, mine, len).await
        });
        let want: Vec<u32> = (0..len as u32).map(|i| i * 3 + 1).collect();
        for g in got {
            prop_assert_eq!(&g, &want);
        }
    }

    #[test]
    fn barrier_any_size(p in 1usize..12) {
        World::run(p, async |ctx| {
            let comm = Comm::world(ctx);
            barrier(&comm, ctx).await;
            barrier(&comm, ctx).await;
        });
    }
}

/// Every collective once, each in its own phase, on 7 ranks over nodes of 3
/// (`{0,1,2} {3,4,5} {6}`): two full nodes and a short one, so the two-level
/// path engages and its leader ring is not a power of two.
async fn every_collective(ctx: &RankCtx) {
    let comm = Comm::world(ctx);
    let me = comm.rank();
    let p = comm.size();
    let counts = [3usize, 0, 2, 1, 4, 2, 5];
    let total: usize = counts.iter().sum();
    let mine = || -> Vec<u64> { (0..counts[me]).map(|i| (me * 100 + i) as u64).collect() };
    let data = || -> Vec<f64> { (0..total).map(|i| ((me + 1) * (i + 1)) as f64).collect() };

    ctx.set_phase("allgatherv");
    let gathered = allgatherv_mode(Collectives::Flat, &comm, ctx, mine(), &counts).await;
    ctx.set_phase("reduce_scatter");
    let reduced = reduce_scatter_mode(Collectives::Flat, &comm, ctx, data(), &counts).await;
    ctx.set_phase("bcast");
    let _ = bcast(&comm, ctx, 4, (me == 4).then(|| vec![7u32; 9])).await;
    ctx.set_phase("bcast_large");
    let _ = bcast_large(&comm, ctx, 2, (me == 2).then(|| vec![1u16; 23]), 23).await;
    ctx.set_phase("allreduce");
    let _ = allreduce(&comm, ctx, vec![me as f64; 11]).await;
    ctx.set_phase("barrier");
    barrier(&comm, ctx).await;
    ctx.set_phase("neighbor_alltoallv");
    let sends = [1, 3].map(|d| ((me + d) % p, vec![me as u8; 1 + (me + d) % 4]));
    let sources = [1, 3].map(|d| (me + p - d) % p);
    let _ = neighbor_alltoallv(&comm, ctx, sends.to_vec(), &sources).await;
    // Phase labels are `&'static str`: one pair of names per mode.
    for (mode, ag, rs) in [
        (Collectives::Flat, "allgatherv_flat", "reduce_scatter_flat"),
        (Collectives::Hier, "allgatherv_hier", "reduce_scatter_hier"),
    ] {
        ctx.set_phase(ag);
        assert_eq!(
            allgatherv_mode(mode, &comm, ctx, mine(), &counts).await,
            gathered
        );
        ctx.set_phase(rs);
        assert_eq!(
            reduce_scatter_mode(mode, &comm, ctx, data(), &counts).await,
            reduced
        );
    }
}

/// One line per phase: each rank's `sent bytes/msgs : received bytes/msgs`.
fn traffic_table(report: &RunReport) -> Vec<String> {
    report
        .phases()
        .into_iter()
        .map(|phase| {
            let ranks: Vec<String> = (0..report.per_rank.len())
                .map(|r| {
                    let c = report.phase(r, &phase);
                    format!("{}/{}:{}/{}", c.bytes, c.msgs, c.recv_bytes, c.recv_msgs)
                })
                .collect();
            format!("{phase} {}", ranks.join(" "))
        })
        .collect()
}

/// The traffic of every collective is pinned: per-rank bytes and messages
/// both ways, the algorithm each call attributes its messages to, and the
/// virtual makespan. Nodes exist only in a machine model: a wall run is one
/// node, and moves the same messages as a virtual run on one-rank nodes.
#[test]
fn collective_traffic_is_pinned_on_a_two_level_topology() {
    const P: usize = 7;
    const RPN: usize = 3;
    let (_, wall) = World::run_opts(P, RunOptions::default(), every_collective);
    let machine = Machine::phoenix_cpu();
    let on_nodes = |rpn: usize| SimOptions {
        placement: Some(Placement {
            ranks_per_node: rpn,
            ..machine.pure_mpi()
        }),
        ..SimOptions::default()
    };
    let (_, flat) = World::simulate(P, &machine, on_nodes(1), every_collective);
    assert_eq!(traffic_table(&flat), traffic_table(&wall));
    assert_eq!(flat.matrix, wall.matrix);
    assert_eq!(flat.hist_by_algo, wall.hist_by_algo);

    let (_, sim) = World::simulate(P, &machine, on_nodes(RPN), every_collective);
    let table = traffic_table(&sim);
    assert_eq!(
        table,
        [
            "allgatherv 136/6:112/6 120/6:136/6 128/6:120/6 104/6:128/6 120/6:104/6 96/6:120/6 112/6:96/6",
            "allgatherv_flat 136/6:112/6 120/6:136/6 128/6:120/6 104/6:128/6 120/6:104/6 96/6:120/6 112/6:96/6",
            "allgatherv_hier 352/4:112/4 0/1:136/1 16/1:136/1 368/4:128/4 32/1:136/1 16/1:136/1 96/2:96/2",
            "allreduce 144/12:152/12 144/12:144/12 144/12:144/12 152/12:144/12 160/12:152/12 160/12:160/12 152/12:160/12",
            "barrier 0/3:0/3 0/3:0/3 0/3:0/3 0/3:0/3 0/3:0/3 0/3:0/3 0/3:0/3",
            "bcast 0/0:36/1 72/2:36/1 0/0:36/1 0/0:36/1 108/3:0/0 0/0:36/1 36/1:36/1",
            "bcast_large 38/6:46/7 40/6:46/7 80/12:40/6 40/6:46/7 40/6:46/7 40/6:46/7 38/6:46/7",
            "neighbor_alltoallv 6/2:8/2 4/2:3/2 6/2:5/2 4/2:8/2 6/2:2/2 4/2:4/2 6/2:6/2",
            "reduce_scatter 112/6:96/6 136/6:112/6 120/6:136/6 128/6:120/6 104/6:128/6 120/6:104/6 96/6:120/6",
            "reduce_scatter_flat 112/6:96/6 136/6:112/6 120/6:136/6 128/6:120/6 104/6:128/6 120/6:104/6 96/6:120/6",
            "reduce_scatter_hier 112/4:368/4 136/1:0/1 136/1:16/1 128/4:368/4 136/1:32/1 136/1:16/1 96/2:80/2",
        ]
    );
    let algos: Vec<&str> = sim.hist_by_algo.keys().map(String::as_str).collect();
    assert_eq!(
        algos,
        [
            "binomial_bcast",
            "dissemination_barrier",
            "hier_allgatherv",
            "hier_reduce_scatter",
            "neighbor_alltoallv",
            "ring_allgatherv",
            "ring_reduce_scatter",
            "vdg_bcast_large",
        ]
    );
    assert_eq!(sim.sim.unwrap().makespan_secs, 0.00010612210666666668);
}
