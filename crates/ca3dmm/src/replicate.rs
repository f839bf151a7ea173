//! Replication of A or B across Cannon groups (Algorithm 1 step 5).
//!
//! When `c > 1`, the `c` Cannon groups of a k-task group all need the same
//! blocks of one operand. Initially each of the `c` peer ranks (same Cannon
//! position, different group) holds a distinct `1/c` column-slice of the
//! shared block; one allgather completes the block on every peer. This
//! keeps the pre-replication storage of the operand at one copy, 2D
//! partitioned over all active ranks, with balanced memory (§III-B).

use dense::part::offsets;
use dense::{Mat, Scalar};
use msgpass::collectives::{allgatherv_mode, Collectives};
use msgpass::{Comm, RankCtx};

/// Completes a replicated block from its column-slices.
///
/// `group` orders the `c` peers by Cannon-group index; `my_slice` is this
/// rank's `rows × widths[group.rank()]` column-slice. Returns the full
/// `rows × Σwidths` block. `mode` picks the allgather family; the
/// hierarchical one falls back to flat when the group fits one node (always
/// in a wall-clock run).
pub async fn replicate_block<T: Scalar>(
    ctx: &RankCtx,
    group: &Comm,
    my_slice: Mat<T>,
    rows: usize,
    widths: &[usize],
    mode: Collectives,
) -> Mat<T> {
    let c = group.size();
    assert_eq!(widths.len(), c, "one slice width per group member");
    let me = group.rank();
    assert_eq!(
        my_slice.shape(),
        (rows, widths[me]),
        "slice shape disagrees with widths"
    );
    if c == 1 {
        return my_slice;
    }
    let counts: Vec<usize> = widths.iter().map(|w| rows * w).collect();
    let gathered = allgatherv_mode(mode, group, ctx, my_slice.into_vec(), &counts).await;
    // Reassemble column-slices into one block: row `i` of the block is row
    // `i` of every slice in turn, copied straight out of `gathered`.
    let seg_starts = offsets(&counts);
    let total_cols: usize = widths.iter().sum();
    let mut out = Vec::with_capacity(rows * total_cols);
    for i in 0..rows {
        for (&start, &w) in seg_starts.iter().zip(widths) {
            out.extend_from_slice(&gathered[start + i * w..start + (i + 1) * w]);
        }
    }
    Mat::from_vec(rows, total_cols, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::part::{split_even, Rect};
    use dense::random::global_block;
    use msgpass::World;

    #[test]
    fn slices_reassemble_to_block() {
        let rows = 5;
        let cols = 11;
        let c = 3;
        let widths = split_even(cols, c);
        let offs = offsets(&widths);
        let full = global_block::<f64>(9, Rect::new(0, 0, rows, cols));
        let results = World::run(c, async |ctx| {
            let comm = Comm::world(ctx);
            let me = comm.rank();
            let slice = full.block(Rect::new(0, offs[me], rows, widths[me]));
            replicate_block(ctx, &comm, slice, rows, &widths, Collectives::Flat).await
        });
        for r in results {
            assert_eq!(r.max_abs_diff(&full), 0.0);
        }
    }

    #[test]
    fn hier_mode_reassembles_identically() {
        let rows = 5;
        let cols = 11;
        let c = 4;
        let widths = split_even(cols, c);
        let offs = offsets(&widths);
        let full = global_block::<f64>(9, Rect::new(0, 0, rows, cols));
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
        let (results, _) = World::simulate(c, &machine, opts, async |ctx| {
            let comm = Comm::world(ctx);
            let me = comm.rank();
            let slice = full.block(Rect::new(0, offs[me], rows, widths[me]));
            replicate_block(ctx, &comm, slice, rows, &widths, Collectives::Hier).await
        });
        for r in results {
            assert_eq!(r.max_abs_diff(&full), 0.0);
        }
    }

    #[test]
    fn single_group_is_identity() {
        let full = global_block::<f32>(3, Rect::new(0, 0, 4, 4));
        let results = World::run(1, async |ctx| {
            let comm = Comm::world(ctx);
            replicate_block(ctx, &comm, full.clone(), 4, &[4], Collectives::Flat).await
        });
        assert_eq!(results[0].max_abs_diff(&full), 0.0);
    }

    #[test]
    fn empty_slices_allowed() {
        // cols < c: some peers hold nothing
        let rows = 3;
        let cols = 2;
        let c = 4;
        let widths = split_even(cols, c);
        let offs = offsets(&widths);
        let full = global_block::<f64>(5, Rect::new(0, 0, rows, cols));
        let results = World::run(c, async |ctx| {
            let comm = Comm::world(ctx);
            let me = comm.rank();
            let slice = full.block(Rect::new(0, offs[me], rows, widths[me]));
            replicate_block(ctx, &comm, slice, rows, &widths, Collectives::Flat).await
        });
        for r in results {
            assert_eq!(r.max_abs_diff(&full), 0.0);
        }
    }

    #[test]
    fn replication_volume_matches_allgather() {
        // per-rank sent bytes = (sum of others' slices? no: ring allgather
        // sends own accumulated segments) = (c-1) * my slice bytes for even
        // slices.
        let rows = 4;
        let cols = 8;
        let c = 4;
        let widths = split_even(cols, c);
        let offs = offsets(&widths);
        let full = global_block::<f64>(5, Rect::new(0, 0, rows, cols));
        let (_, report) = World::run_traced(c, async |ctx| {
            let comm = Comm::world(ctx);
            ctx.set_phase("replicate_ab");
            let me = comm.rank();
            let slice = full.block(Rect::new(0, offs[me], rows, widths[me]));
            replicate_block(ctx, &comm, slice, rows, &widths, Collectives::Flat).await
        });
        for r in 0..c {
            assert_eq!(
                report.phase(r, "replicate_ab").bytes as usize,
                (c - 1) * rows * 2 * 8
            );
        }
    }
}
