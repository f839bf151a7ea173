//! Reduce-scatter of partial C results (Algorithm 1 step 7).
//!
//! The `pk` ranks holding partial results of the same C block reduce-scatter
//! them; rank `kt` keeps row-strip `kt` of the summed block. Row strips are
//! contiguous in row-major storage, so the strip boundaries map directly to
//! the flat `counts` of the reduce-scatter. (The paper allows row or column
//! partitioning here; the artifact's examples show either. We use rows.)

use dense::part::split_even;
use dense::{Mat, Scalar};
use msgpass::collectives::{reduce_scatter_mode, Collectives};
use msgpass::{Comm, RankCtx};

/// Reduces `pk` partial C blocks (one per member of `group`, all the same
/// shape) and returns this rank's row strip of the sum. `group` orders
/// members by k-task group index. `mode` picks the reduce-scatter family;
/// the hierarchical one falls back to flat when the group fits one node
/// (always in a wall-clock run).
pub async fn reduce_partial_c<T: Scalar>(
    ctx: &RankCtx,
    group: &Comm,
    partial: Mat<T>,
    mode: Collectives,
) -> Mat<T> {
    let pk = group.size();
    if pk == 1 {
        return partial;
    }
    let (rows, cols) = partial.shape();
    let strip_rows = split_even(rows, pk);
    let counts: Vec<usize> = strip_rows.iter().map(|r| r * cols).collect();
    let mine = reduce_scatter_mode(mode, group, ctx, partial.into_vec(), &counts).await;
    Mat::from_vec(strip_rows[group.rank()], cols, mine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::part::{even_range, Rect};
    use dense::random::global_block;
    use msgpass::World;

    #[test]
    fn strips_sum_contributions() {
        let rows = 7;
        let cols = 5;
        let pk = 3;
        // member kt contributes the global block with seed kt
        let results = World::run(pk, async |ctx| {
            let comm = Comm::world(ctx);
            let part = global_block::<f64>(comm.rank() as u64, Rect::new(0, 0, rows, cols));
            reduce_partial_c(ctx, &comm, part, Collectives::Flat).await
        });
        let mut want = Mat::<f64>::zeros(rows, cols);
        for kt in 0..pk {
            want.add_assign(&global_block::<f64>(kt as u64, Rect::new(0, 0, rows, cols)));
        }
        for (kt, strip) in results.iter().enumerate() {
            let (r0, r1) = even_range(rows, pk, kt);
            let expect = want.block(Rect::new(r0, 0, r1 - r0, cols));
            assert!(strip.max_abs_diff(&expect) < 1e-12, "strip {kt}");
        }
    }

    #[test]
    fn hier_mode_sums_identically() {
        let rows = 8;
        let cols = 5;
        let pk = 4;
        // Two nodes of two ranks each (nodes exist only in a machine model)
        // — the hierarchical path engages.
        let machine = netmodel::Machine::uniform();
        let opts = msgpass::SimOptions {
            placement: Some(netmodel::Placement {
                ranks_per_node: 2,
                ..machine.pure_mpi()
            }),
            execute_compute: true,
        };
        let (results, _) = World::simulate(pk, &machine, opts, async |ctx| {
            let comm = Comm::world(ctx);
            let part = global_block::<f64>(comm.rank() as u64, Rect::new(0, 0, rows, cols));
            reduce_partial_c(ctx, &comm, part, Collectives::Hier).await
        });
        let mut want = Mat::<f64>::zeros(rows, cols);
        for kt in 0..pk {
            want.add_assign(&global_block::<f64>(kt as u64, Rect::new(0, 0, rows, cols)));
        }
        for (kt, strip) in results.iter().enumerate() {
            let (r0, r1) = even_range(rows, pk, kt);
            let expect = want.block(Rect::new(r0, 0, r1 - r0, cols));
            assert!(strip.max_abs_diff(&expect) < 1e-12, "strip {kt}");
        }
    }

    #[test]
    fn single_member_keeps_everything() {
        let results = World::run(1, async |ctx| {
            let comm = Comm::world(ctx);
            let part = global_block::<f64>(1, Rect::new(0, 0, 4, 4));
            reduce_partial_c(ctx, &comm, part, Collectives::Flat).await
        });
        assert_eq!(results[0].shape(), (4, 4));
    }

    #[test]
    fn more_members_than_rows() {
        // rows < pk: some strips are empty
        let rows = 2;
        let pk = 4;
        let results = World::run(pk, async |ctx| {
            let comm = Comm::world(ctx);
            let part = Mat::<f64>::from_fn(rows, 3, |_, _| 1.0);
            reduce_partial_c(ctx, &comm, part, Collectives::Flat).await
        });
        assert_eq!(results[0].shape(), (1, 3));
        assert_eq!(results[3].shape(), (0, 3));
        assert!(results[0].as_slice().iter().all(|&v| v == pk as f64));
    }

    #[test]
    fn reduce_volume_is_ring_bound() {
        let rows = 8;
        let cols = 4;
        let pk = 4;
        let (_, report) = World::run_traced(pk, async |ctx| {
            let comm = Comm::world(ctx);
            ctx.set_phase("reduce_c");
            let part = Mat::<f64>::from_fn(rows, cols, |_, _| 1.0);
            reduce_partial_c(ctx, &comm, part, Collectives::Flat).await
        });
        // ring reduce-scatter: each rank sends (pk-1)/pk of the block
        for r in 0..pk {
            assert_eq!(
                report.phase(r, "reduce_c").bytes as usize,
                (pk - 1) * (rows / pk) * cols * 8
            );
        }
    }
}
