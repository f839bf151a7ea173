//! The share + gather redistribution engine is observably the paper's
//! pack → neighbor_alltoallv → unpack: same results, a message exactly
//! where a packed buffer would be non-empty, same charged bytes. The
//! traffic expectations here are computed from the layouts' rectangles
//! alone (what a packed buffer would hold). The byte literals in
//! `pinned_traffic_of_the_pack_based_engine` were recorded from the
//! pack-based engine before it was deleted; its message counts included the
//! empty messages of a dense exchange, which are no longer sent.

use dense::gemm::GemmOp;
use dense::part::Rect;
use dense::random::global_block;
use dense::{Mat, Scalar, Shape64};
use layout::{redistribute, redistribute_planned, redistribute_planned_async, Layout, RedistPlan};
use msgpass::{Comm, RunReport, SimOptions, SizeHistogram, World};
use netmodel::Machine;
use proptest::prelude::*;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

const ALGO: &str = "neighbor_alltoallv";

/// `kind` picks the family, `a`/`b` its free parameters.
fn make_layout(rows: usize, cols: usize, p: usize, (kind, a, b): (usize, usize, usize)) -> Layout {
    // largest divisor of p not exceeding sqrt(p), so pr * pc == p
    let pr = (1..=p)
        .rev()
        .find(|d| p.is_multiple_of(*d) && d * d <= p)
        .unwrap_or(1);
    let pc = p / pr;
    match kind {
        0 => Layout::one_d_col(rows, cols, p),
        1 => Layout::one_d_row(rows, cols, p),
        2 => Layout::two_d_block(rows, cols, pr, pc),
        // ragged tiles: the last tile row/column is cut by the matrix edge
        3 => Layout::block_cyclic(rows, cols, pr, pc, 1 + a % 4, 1 + b % 5),
        // gather-to-one as a destination, scatter-from-one as a source
        4 => Layout::on_single_rank(rows, cols, p, a % p),
        // a block-cyclic grid over the first q ranks only: the others own
        // nothing, the first own one or many tiles
        _ => {
            let q = 1 + a % p;
            let small = Layout::block_cyclic(rows, cols, 1, q, 2 + b % 3, 3);
            let mut rects: Vec<Vec<Rect>> = (0..q).map(|r| small.owned(r).to_vec()).collect();
            rects.resize(p, Vec::new());
            Layout::from_rects(rows, cols, rects)
        }
    }
}

/// Bytes rank `s` would pack for rank `d`.
fn packed_bytes<T: Scalar>(src: &Layout, dst: &Layout, op: GemmOp, s: usize, d: usize) -> u64 {
    let mut elems = 0;
    for dst_rect in dst.owned(d) {
        for src_rect in src.owned(s) {
            let src_in_dst = match op {
                GemmOp::NoTrans => *src_rect,
                GemmOp::Trans => src_rect.transposed(),
            };
            elems += dst_rect.intersect(&src_in_dst).map_or(0, |r| r.area());
        }
    }
    (elems * T::WIRE_BYTES) as u64
}

fn assert_pack_traffic<T: Scalar>(report: &RunReport, src: &Layout, dst: &Layout, op: GemmOp) {
    let p = src.nranks();
    let t = &report.traffic;
    let mut hist = SizeHistogram::new();
    let mut received = vec![0; p];
    for s in 0..p {
        let (mut sent, mut msgs) = (0, 0);
        for d in (0..p).filter(|&d| d != s) {
            let bytes = packed_bytes::<T>(src, dst, op, s, d);
            let exists = u64::from(bytes > 0);
            let cell = t.matrix.sent(s, d);
            assert_eq!(
                (cell.bytes, cell.msgs),
                (bytes, exists),
                "message {s} -> {d}"
            );
            if bytes > 0 {
                hist.record(bytes);
            }
            sent += bytes;
            msgs += exists;
            received[d] += exists;
        }
        let counts = t.phase(s, "redist");
        assert_eq!(counts.bytes, sent, "rank {s} bytes");
        assert_eq!(counts.msgs, msgs, "rank {s} msgs");
    }
    for (d, &msgs) in received.iter().enumerate() {
        assert_eq!(
            t.phase(d, "redist").recv_msgs,
            msgs,
            "rank {d} received msgs"
        );
    }
    if hist.is_empty() {
        assert!(t.hist_by_algo.is_empty(), "nothing sent, nothing recorded");
    } else {
        let labels: Vec<&String> = t.hist_by_algo.keys().collect();
        assert_eq!(labels, [ALGO], "algorithm label");
        assert_eq!(t.hist_by_algo[ALGO], hist, "size histogram");
        assert_eq!(t.hist_by_algo[ALGO].count(0), 0, "a 0 B message was sent");
    }
}

fn run<T: Scalar>(
    src: &Layout,
    global: &Mat<T>,
    go: impl AsyncFn(&Comm, &msgpass::RankCtx, &[Mat<T>]) -> Vec<Mat<T>> + Sync,
) -> (Vec<Vec<Mat<T>>>, RunReport) {
    World::run_traced(src.nranks(), async |ctx| {
        let comm = Comm::world(ctx);
        ctx.set_phase("redist");
        go(&comm, ctx, &src.extract(global, comm.rank())).await
    })
}

fn check<T: Scalar>(src: &Layout, dst: &Layout, op: GemmOp) {
    let (rows, cols) = src.shape();
    let global = global_block::<T>(5, Rect::full(rows, cols));
    let expect = match op {
        GemmOp::NoTrans => global.clone(),
        GemmOp::Trans => global.transpose(),
    };
    let (direct, direct_report) = run(src, &global, async |comm, ctx, mine| {
        redistribute(comm, ctx, src, mine, dst, op).await
    });
    // The planned path goes through the blocking façade, on rank threads.
    let plan = RedistPlan::new(src, dst, op);
    let (planned, planned_report) = run(src, &global, async |comm, ctx, mine| {
        redistribute_planned(comm, ctx, plan.for_rank(comm.rank()), mine)
    });
    for rank in 0..src.nranks() {
        let want = dst.extract(&expect, rank);
        assert_eq!(direct[rank], want, "rank {rank}, one-shot path");
        assert_eq!(planned[rank], want, "rank {rank}, planned path");
    }
    assert_pack_traffic::<T>(&direct_report, src, dst, op);
    assert_pack_traffic::<T>(&planned_report, src, dst, op);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn share_gather_equals_pack_alltoallv_unpack(
        rows in 1usize..24,
        cols in 1usize..24,
        p in 1usize..7,
        src_params in (0usize..6, 0usize..12, 0usize..12),
        dst_params in (0usize..6, 0usize..12, 0usize..12),
        trans in proptest::bool::ANY,
    ) {
        let op = if trans { GemmOp::Trans } else { GemmOp::NoTrans };
        let (dr, dc) = op.apply_shape(rows, cols);
        let src = make_layout(rows, cols, p, src_params);
        let dst = make_layout(dr, dc, p, dst_params);
        check::<f64>(&src, &dst, op);
        check::<f32>(&src, &dst, op);
        check::<Shape64>(&src, &dst, op);
    }
}

/// Runs `f` on a thread of its own and fails if it is not done in five
/// seconds: a rank that waits for a message nobody sends blocks forever.
fn watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    match rx.recv_timeout(Duration::from_secs(5)) {
        Ok(done) => done,
        Err(RecvTimeoutError::Timeout) => panic!("redistribution hung"),
        Err(RecvTimeoutError::Disconnected) => panic!("redistribution panicked"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// What post-all-then-receive needs to terminate: `q` reads from `r`
    /// in `r`'s program iff `r` is a source in `q`'s. Then the exchange
    /// itself, wall and virtual time, under a watchdog.
    #[test]
    fn neighbour_lists_are_symmetric_and_live(
        rows in 1usize..24,
        cols in 1usize..24,
        p in 1usize..7,
        src_params in (0usize..6, 0usize..12, 0usize..12),
        dst_params in (0usize..6, 0usize..12, 0usize..12),
        trans in proptest::bool::ANY,
    ) {
        let op = if trans { GemmOp::Trans } else { GemmOp::NoTrans };
        let (dr, dc) = op.apply_shape(rows, cols);
        let src = make_layout(rows, cols, p, src_params);
        let dst = make_layout(dr, dc, p, dst_params);
        let plan = Arc::new(RedistPlan::new(&src, &dst, op));
        for r in 0..p {
            for q in 0..p {
                let r_sends_to_q = plan.for_rank(r).readers().iter().any(|&(peer, _)| peer == q);
                let q_hears_from_r = plan.for_rank(q).sources().contains(&r);
                prop_assert_eq!(r_sends_to_q, q_hears_from_r, "{} -> {}", r, q);
            }
        }
        let global = global_block::<f64>(5, Rect::full(rows, cols));
        let expect = match op {
            GemmOp::NoTrans => global.clone(),
            GemmOp::Trans => global.transpose(),
        };
        let (wall, sim) = watchdog(move || {
            let go = async |ctx: &msgpass::RankCtx| {
                let comm = Comm::world(ctx);
                let mine = src.extract(&global, comm.rank());
                redistribute_planned_async(&comm, ctx, plan.for_rank(comm.rank()), &mine).await
            };
            let wall = World::run(p, go);
            let (sim, _) = World::simulate(p, &Machine::uniform(), SimOptions::default(), go);
            (wall, sim)
        });
        for rank in 0..p {
            let want = dst.extract(&expect, rank);
            prop_assert_eq!(&wall[rank], &want, "rank {}, wall", rank);
            prop_assert_eq!(&sim[rank], &want, "rank {}, virtual time", rank);
        }
    }
}

/// `(bytes, msgs, recv_bytes, recv_msgs)` of every rank in phase `redist`,
/// and the `(bucket, count)` pairs of the exchange's size histogram.
type Pinned = (Vec<(u64, u64, u64, u64)>, Vec<(usize, u64)>);

fn observed(src: &Layout, dst: &Layout, op: GemmOp) -> Pinned {
    let (rows, cols) = src.shape();
    let global = global_block::<f64>(99, Rect::full(rows, cols));
    let (_, report) = run(src, &global, async |comm, ctx, mine| {
        redistribute(comm, ctx, src, mine, dst, op).await
    });
    let t = &report.traffic;
    let per_rank = (0..src.nranks())
        .map(|r| {
            let c = t.phase(r, "redist");
            (c.bytes, c.msgs, c.recv_bytes, c.recv_msgs)
        })
        .collect();
    assert_eq!(t.hist_by_algo.get(ALGO), t.hist_by_phase.get("redist"));
    assert!(t.hist_by_algo.keys().all(|algo| algo == ALGO));
    let hist = t.hist_by_algo.get(ALGO).map_or(Vec::new(), |h| h.nonzero());
    (per_rank, hist)
}

#[test]
fn pinned_traffic_of_the_pack_based_engine() {
    // redist.rs `redistribution_traffic_excludes_local_data`
    let l = Layout::one_d_col(8, 8, 4);
    assert_eq!(
        observed(&l, &l, GemmOp::NoTrans),
        (vec![(0, 0, 0, 0); 4], vec![])
    );
    // redist.rs `planned_path_is_bitwise_identical_to_direct`: column
    // blocks of X are row blocks of Xᵀ, so nothing leaves its rank
    assert_eq!(
        observed(
            &Layout::one_d_col(11, 13, 5),
            &Layout::two_d_block(13, 11, 5, 1),
            GemmOp::Trans
        ),
        (vec![(0, 0, 0, 0); 5], vec![])
    );
    // redist.rs `block_cyclic_to_block`
    assert_eq!(
        observed(
            &Layout::block_cyclic(11, 13, 2, 2, 3, 2),
            &Layout::two_d_block(11, 13, 2, 2),
            GemmOp::NoTrans
        ),
        (
            vec![
                (240, 3, 240, 3),
                (216, 3, 216, 3),
                (216, 3, 216, 3),
                (192, 3, 192, 3)
            ],
            vec![(6, 2), (7, 10)]
        )
    );
    // redist.rs `transpose_to_two_d`
    assert_eq!(
        observed(
            &Layout::one_d_row(7, 12, 6),
            &Layout::two_d_block(12, 7, 3, 2),
            GemmOp::Trans
        ),
        (
            vec![
                (128, 2, 64, 2),
                (96, 3, 96, 3),
                (64, 2, 96, 2),
                (64, 2, 64, 2),
                (96, 3, 128, 3),
                (64, 2, 64, 2)
            ],
            vec![(6, 12), (7, 2)]
        )
    );
}
