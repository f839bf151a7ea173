//! COSMA as described by the paper's §III-C analysis of its source code.
//!
//! Grid: the unconstrained search (`gridopt::cosma_grid`). Rank order is
//! column-major like CA3DMM: `world = kt·(pm·pn) + i + j·pm`.
//!
//! Each active rank owns subdomain `(i, j, kt)` and needs
//! `A(m_i, kb_kt) · B(kb_kt, n_j)`. `A` ends up replicated `pn` times
//! (every `j` of a row needs the same A block) and `B` replicated `pm`
//! times. Initially each block exists once, sliced across the ranks that
//! will need it; allgathers complete the replication; one local GEMM
//! produces the partial C; a reduce-scatter over the `pk` k-groups
//! finishes, exactly as in CA3DMM.

use crate::ELEM_BYTES;
use ca3dmm::grid3d::{Coord, Family, Grid3d, GridComms};
use ca3dmm::model::{push_reduce_c, with_redist};
use ca3dmm::replicate::replicate_block;
use ca3dmm::{charged_product, Pgemm};
use dense::part::{split_even, Rect};
use dense::{Mat, Scalar};
use gridopt::{cosma_grid, Grid, Problem};
use msgpass::collectives::{allgatherv_mode, Collectives};
use msgpass::{Comm, RankCtx};
use netmodel::machine::Placement;
use netmodel::{NetGroup, Phase, Schedule};

/// A configured COSMA-like multiplication.
pub struct CosmaLike {
    geo: Grid3d,
}

impl CosmaLike {
    /// Chooses the unconstrained grid (or accepts an override) and builds
    /// the geometry.
    pub fn new(prob: Problem, grid_override: Option<Grid>) -> Self {
        let grid = grid_override
            .unwrap_or_else(|| cosma_grid(&prob, gridopt::DEFAULT_UTILIZATION_FLOOR).grid);
        CosmaLike {
            geo: Grid3d::new(prob, grid, grid.pm, &[Family::Row, Family::Col]),
        }
    }

    /// The §III-C schedule: allgather A, allgather B, one GEMM, reduce.
    /// `include_redist` adds the user-layout conversion phases (Fig. 3's
    /// "custom layout" series).
    pub fn schedule(&self, placement: &Placement, include_redist: bool) -> Schedule {
        let (prob, grid) = (self.geo.prob(), self.geo.grid());
        let Grid { pm, pn, pk } = *grid;
        let mb = (prob.m as f64 / pm as f64).ceil();
        let nb = (prob.n as f64 / pn as f64).ceil();
        let kb = (prob.k as f64 / pk as f64).ceil();
        let rpn = placement.ranks_per_node;
        let mut s = Schedule::new();
        if pn > 1 {
            // row groups (fixed i): members stride by pm ranks
            s.push(
                "replicate_ab",
                Phase::Allgather {
                    grp: NetGroup::strided(pn, pm, rpn),
                    total_bytes: mb * kb * ELEM_BYTES,
                },
            );
        }
        if pm > 1 {
            // column groups: contiguous ranks
            s.push(
                "replicate_ab",
                Phase::Allgather {
                    grp: NetGroup::contiguous(pm, rpn),
                    total_bytes: kb * nb * ELEM_BYTES,
                },
            );
        }
        s.push(
            "local_gemm",
            Phase::LocalGemm {
                flops: 2.0 * mb * nb * kb,
            },
        );
        let c_bytes = mb * nb * ELEM_BYTES;
        push_reduce_c(&mut s, grid, rpn, c_bytes, Collectives::Flat, true);
        if include_redist {
            let peers = 2 * (pm + pn + pk);
            s = with_redist(s, prob, grid.active(), rpn, ELEM_BYTES, peers);
        }
        s
    }

    /// COSMA's memory per rank, elements: the replicated A and B blocks,
    /// the partial C, and the initial slices; COSMA's "unlimited extra
    /// memory" configuration keeps communication buffers for the whole
    /// replicated operands (this is what Table I measures).
    pub fn memory_elements_per_rank(&self) -> f64 {
        let (prob, grid) = (self.geo.prob(), self.geo.grid());
        let (pm, pn, pk) = (grid.pm as f64, grid.pn as f64, grid.pk as f64);
        let mk = prob.m as f64 * prob.k as f64;
        let kn = prob.k as f64 * prob.n as f64;
        let mn = prob.m as f64 * prob.n as f64;
        // replicated blocks + send/recv buffering (factor 2, as COSMA keeps
        // the pre-replication slices and the gathered blocks alive)
        2.0 * (mk / (pm * pk) + kn / (pn * pk)) + mn / (pm * pn)
    }
}

/// The §III-C procedure: allgather the A slices along the row and the B
/// slices along the column, then one local GEMM.
impl Pgemm for CosmaLike {
    fn geo(&self) -> &Grid3d {
        &self.geo
    }

    fn native(&self, at: Coord) -> [Option<Rect>; 2] {
        self.geo.slices(at)
    }

    async fn partial_c<T: Scalar>(
        &self,
        ctx: &RankCtx,
        comms: &GridComms,
        ab: [Option<Mat<T>>; 2],
    ) -> Mat<T> {
        let [Some(a_slice), Some(b_slice)] = ab else {
            unreachable!("every position holds an A and a B slice")
        };
        ctx.set_phase("replicate_ab");
        let ((i, j, kt), Grid { pm, pn, .. }) = (comms.at(), *self.geo.grid());
        let (a_blk, b_blk) = (self.geo.a_block(i, kt), self.geo.b_block(j, kt));
        let (row, a_widths) = (comms.of(Family::Row), split_even(a_blk.cols, pn));
        let flat = Collectives::Flat;
        let a_full = replicate_block(ctx, row, a_slice, a_blk.rows, &a_widths, flat).await;
        let (col, b_heights) = (comms.of(Family::Col), split_even(b_blk.rows, pm));
        let b_full = gather_row_slices(ctx, col, b_slice, b_blk.cols, &b_heights).await;
        ctx.set_phase("local_gemm");
        charged_product(ctx, &a_full, &b_full)
    }
}

/// Allgather of row-slices into a full block — row-major rows are
/// contiguous, so this is a straight concatenation.
async fn gather_row_slices<T: Scalar>(
    ctx: &RankCtx,
    comm: &Comm,
    mine: Mat<T>,
    cols: usize,
    heights: &[usize],
) -> Mat<T> {
    if comm.size() == 1 {
        return mine;
    }
    let counts: Vec<usize> = heights.iter().map(|h| h * cols).collect();
    let data = allgatherv_mode(Collectives::Flat, comm, ctx, mine.into_vec(), &counts).await;
    Mat::from_vec(heights.iter().sum(), cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_structure() {
        let alg = CosmaLike::new(Problem::new(1000, 1000, 1000, 64), Some(Grid::new(4, 4, 4)));
        let s = alg.schedule(&netmodel::Machine::uniform().pure_mpi(), false);
        let labels: Vec<&str> = s.items.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            vec!["replicate_ab", "replicate_ab", "local_gemm", "reduce_c"]
        );
        // allgather volumes: A block replicated over pn, B over pm
        assert!(s.sent_bytes() > 0.0);
    }

    #[test]
    fn memory_model_scales_down_with_p() {
        let small = CosmaLike::new(Problem::new(5000, 5000, 5000, 64), None);
        let large = CosmaLike::new(Problem::new(5000, 5000, 5000, 512), None);
        assert!(large.memory_elements_per_rank() < small.memory_elements_per_rank());
    }
}
