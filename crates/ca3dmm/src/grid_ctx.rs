//! CA3DMM's placement on the unified grid (Algorithm 1 steps 2–3 and the
//! partitionings of §III-B): who sits where in which Cannon group, and
//! which block of which matrix each rank touches.
//!
//! The geometry itself — rank order, `m`/`n`/`k` ranges, C blocks and
//! strips, communicator membership — is [`Grid3d`] in bands of `s` grid
//! rows, which keeps all ranks of a k-task group contiguous and, within
//! it, all ranks of a Cannon group:
//!
//! ```text
//! world_rank = kt·(pm·pn) + cg·s² + (i + j·s)
//! ```
//!
//! with `kt` the k-task group, `cg` the Cannon group, `(i, j)` the position
//! in the `s × s` Cannon grid (`i` along m, `j` along n). Ranks
//! `≥ pm·pn·pk` are idle outside the redistribution steps.

use crate::grid3d::{Coord, Family, Grid3d};
use dense::part::Rect;
use gridopt::{Grid, Problem};
use layout::Layout;

/// A rank's position in the 3D organization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankCoord {
    /// Row in the Cannon grid (m-direction), `0..s`.
    pub i: usize,
    /// Column in the Cannon grid (n-direction), `0..s`.
    pub j: usize,
    /// Cannon group within the k-task group, `0..c`.
    pub cg: usize,
    /// k-task group, `0..pk`.
    pub kt: usize,
}

/// All the geometry of one CA3DMM run: grid, group structure, and the
/// global rectangles of every block. Everything here is pure arithmetic —
/// every rank computes the same answers with no communication, which is why
/// CA3DMM needs no membership negotiation.
#[derive(Clone, Debug)]
pub struct GridContext {
    geo: Grid3d,
    /// Cannon grid side `s = min(pm, pn)`.
    pub s: usize,
    /// Cannon groups per k-task group, `c = max(pm,pn)/min(pm,pn)` (eq. 8).
    pub c: usize,
    /// True when `pn > pm`: the Cannon groups partition the n-dimension and
    /// `A` is the replicated operand; otherwise `B` is (when `c > 1`).
    pub a_replicated: bool,
}

impl GridContext {
    /// Builds the geometry.
    ///
    /// # Panics
    /// If the grid violates eq. 7 or uses more ranks than the problem has.
    pub fn new(prob: Problem, grid: Grid) -> Self {
        assert!(grid.cannon_compatible(), "grid violates eq. 7: {grid:?}");
        let s = grid.cannon_s();
        GridContext {
            geo: Grid3d::new(prob, grid, s, &[Family::Tile, Family::Peers]),
            s,
            c: grid.cannon_c(),
            a_replicated: grid.pn > grid.pm,
        }
    }

    /// The unified grid under this placement; its communicator families
    /// are the Cannon tile, the replication peers and the k-task depth.
    pub fn geo(&self) -> &Grid3d {
        &self.geo
    }

    /// The problem this geometry was built for.
    pub fn problem(&self) -> &Problem {
        self.geo.prob()
    }

    /// The process grid.
    pub fn grid(&self) -> &Grid {
        self.geo.grid()
    }

    /// Whether a world rank participates beyond redistribution.
    pub fn is_active(&self, world_rank: usize) -> bool {
        self.geo.coord(world_rank).is_some()
    }

    /// The Cannon-group coordinate of a grid position.
    pub fn coord_at(&self, (i, j, kt): Coord) -> RankCoord {
        // One of pm, pn equals s, so at most one quotient is nonzero.
        RankCoord {
            i: i % self.s,
            j: j % self.s,
            cg: i / self.s + j / self.s,
            kt,
        }
    }

    /// Coordinates of an active world rank.
    ///
    /// # Panics
    /// If the rank is idle.
    pub fn coord_of(&self, world_rank: usize) -> RankCoord {
        let at = self.geo.coord(world_rank);
        self.coord_at(at.unwrap_or_else(|| panic!("rank {world_rank} is idle")))
    }

    /// Grid position of a coordinate (inverse of [`GridContext::coord_at`]).
    fn at(&self, c: &RankCoord) -> Coord {
        debug_assert!(c.i < self.s && c.j < self.s && c.cg < self.c);
        self.geo.tile_coord(c.cg, (c.i, c.j), c.kt)
    }

    /// Global rectangle of the (skew-free) Cannon block of `A` at a
    /// coordinate: its row part × the `j`-th of the `s` k-sub-ranges Cannon
    /// circulates within the k-task group.
    pub fn a_block(&self, c: &RankCoord) -> Rect {
        let (i, _, kt) = self.at(c);
        self.geo.a_block(i, kt).col_part(self.s, c.j)
    }

    /// Global rectangle of the (skew-free) Cannon block of `B`:
    /// k-sub-range `i` × column part.
    pub fn b_block(&self, c: &RankCoord) -> Rect {
        let (_, j, kt) = self.at(c);
        self.geo.b_block(j, kt).row_part(self.s, c.i)
    }

    /// Global rectangle of this rank's C block (the partial result its
    /// Cannon run produces).
    pub fn c_block(&self, c: &RankCoord) -> Rect {
        let (i, j, _) = self.at(c);
        self.geo.c_block(i, j)
    }

    /// The initially stored slice of the A block: when `A` is replicated
    /// (`pn > pm`) each of the `c` peer ranks holds a distinct `1/c`
    /// column-slice, completed by allgather (step 5); otherwise the full
    /// block.
    pub fn a_init(&self, c: &RankCoord) -> Rect {
        let blk = self.a_block(c);
        if self.a_replicated {
            blk.col_part(self.c, c.cg)
        } else {
            blk
        }
    }

    /// The initially stored slice of the B block (symmetric to
    /// [`GridContext::a_init`]; with `c = 1` the one slice is the block).
    pub fn b_init(&self, c: &RankCoord) -> Rect {
        let blk = self.b_block(c);
        if self.a_replicated {
            blk
        } else {
            blk.col_part(self.c, c.cg)
        }
    }

    /// The initial `[A, B]` placement of a grid position.
    pub fn native(&self, at: Coord) -> [Option<Rect>; 2] {
        let c = self.coord_at(at);
        [Some(self.a_init(&c)), Some(self.b_init(&c))]
    }

    /// World ranks holding slices of the same replicated block as `c` (the
    /// allgather group of step 5): same `(i, j, kt)`, all Cannon groups.
    pub fn replication_group(&self, c: &RankCoord) -> Vec<usize> {
        self.geo.members(Family::Peers, self.at(c))
    }

    /// World ranks holding partial results of the same C block (the
    /// reduce-scatter group of step 7): same `(i, j, cg)`, all k-task
    /// groups.
    pub fn reduce_group(&self, c: &RankCoord) -> Vec<usize> {
        self.geo.members(Family::Depth, self.at(c))
    }

    /// World ranks of a Cannon group, in `idx = i + j·s` order.
    pub fn cannon_group(&self, kt: usize, cg: usize) -> Vec<usize> {
        let corner = self.geo.tile_coord(cg, (0, 0), kt);
        self.geo.members(Family::Tile, corner)
    }

    /// Native input layout of `op(A)` (`m × k`) over all `P` world ranks
    /// (idle ranks own nothing). This is the distribution Algorithm 1
    /// step 4 redistributes into.
    pub fn layout_a(&self) -> Layout {
        self.geo.layout_a(|at| self.native(at))
    }

    /// Native input layout of `op(B)` (`k × n`).
    pub fn layout_b(&self) -> Layout {
        self.geo.layout_b(|at| self.native(at))
    }

    /// Native output layout of `C` (`m × n`) — the distribution step 8
    /// redistributes out of.
    pub fn layout_c(&self) -> Layout {
        self.geo.layout_c()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(m: usize, n: usize, k: usize, p: usize, pm: usize, pn: usize, pk: usize) -> GridContext {
        GridContext::new(Problem::new(m, n, k, p), Grid::new(pm, pn, pk))
    }

    #[test]
    fn coord_rank_round_trip() {
        let g = ctx(64, 64, 64, 24, 4, 2, 3);
        for r in 0..g.grid().active() {
            let c = g.coord_of(r);
            assert_eq!(g.cannon_group(c.kt, c.cg)[c.i + c.j * g.s], r);
        }
    }

    #[test]
    fn column_major_contiguity() {
        // Same k-task group and Cannon group => contiguous ranks.
        let g = ctx(64, 64, 64, 24, 4, 2, 3);
        assert_eq!(g.s, 2);
        assert_eq!(g.c, 2);
        for kt in 0..3 {
            for cg in 0..2 {
                let ranks = g.cannon_group(kt, cg);
                for w in ranks.windows(2) {
                    assert_eq!(w[1], w[0] + 1);
                }
            }
        }
    }

    #[test]
    fn example1_geometry() {
        // Paper Example 1: m=32, k=16, n=64, P=8, grid pm=2, pn=4, pk=1.
        let g = ctx(32, 64, 16, 8, 2, 4, 1);
        assert_eq!(g.s, 2);
        assert_eq!(g.c, 2);
        assert!(g.a_replicated);
        // rank 0 = (i=0,j=0,cg=0): C block = rows 0..16, cols 0..16
        let c0 = g.coord_of(0);
        assert_eq!(g.c_block(&c0), Rect::new(0, 0, 16, 16));
        // rank 4 = first rank of Cannon group 1: C cols 32..48
        let c4 = g.coord_of(4);
        assert_eq!(c4.cg, 1);
        assert_eq!(g.c_block(&c4), Rect::new(0, 32, 16, 16));
        // A block of rank 0: rows 0..16, k 0..8; its initial slice is half
        // of that (c = 2), and rank 4 holds the other slice of ITS block.
        assert_eq!(g.a_block(&c0), Rect::new(0, 0, 16, 8));
        assert_eq!(g.a_init(&c0), Rect::new(0, 0, 16, 4));
        assert_eq!(g.a_init(&c4), Rect::new(0, 4, 16, 4));
        // replication group of rank 0 = {0, 4}
        assert_eq!(g.replication_group(&c0), vec![0, 4]);
    }

    #[test]
    fn example2_geometry() {
        // Paper Example 2: m=n=32, k=64, P=16, grid 2x2x4.
        let g = ctx(32, 32, 64, 16, 2, 2, 4);
        assert_eq!((g.s, g.c), (2, 1));
        // ranks 0,4,8,12 share C(0..16, 0..16)
        let c0 = g.coord_of(0);
        assert_eq!(g.reduce_group(&c0), vec![0, 4, 8, 12]);
        for kt in 0..4 {
            let c = g.coord_of(kt * 4);
            assert_eq!(g.c_block(&c), Rect::new(0, 0, 16, 16));
        }
    }

    #[test]
    fn example3_idle_rank() {
        let g = ctx(32, 32, 64, 17, 2, 2, 4);
        assert!(g.is_active(15));
        assert!(!g.is_active(16));
        // idle rank owns nothing in every native layout
        assert_eq!(g.layout_a().owned(16), &[] as &[Rect]);
        assert_eq!(g.layout_c().owned(16), &[] as &[Rect]);
    }

    #[test]
    fn native_layouts_tile_exactly() {
        // Layout::from_rects validates disjointness + coverage; exercising
        // it across shapes, both replication directions, and uneven sizes
        // is the strongest geometry test we have.
        let cases = [
            (32, 64, 16, 8, 2, 4, 1),  // paper ex. 1 (A replicated)
            (64, 32, 16, 8, 4, 2, 1),  // mirrored (B replicated)
            (32, 32, 64, 16, 2, 2, 4), // paper ex. 2
            (32, 32, 64, 17, 2, 2, 4), // paper ex. 3 (idle rank)
            (33, 65, 17, 8, 2, 4, 1),  // uneven everything
            (7, 5, 11, 13, 2, 2, 3),   // tiny, idle rank
            (10, 3, 40, 12, 1, 1, 12), // pure 1D-k
            (40, 3, 3, 12, 12, 1, 1),  // pure 1D-m
            (3, 40, 3, 12, 1, 12, 1),  // pure 1D-n
            (13, 17, 19, 24, 6, 2, 2), // c = 3, B replicated
            (17, 13, 19, 24, 2, 6, 2), // c = 3, A replicated
            (2, 2, 2, 30, 2, 2, 2),    // dims smaller than some splits
        ];
        for &(m, n, k, p, pm, pn, pk) in &cases {
            let g = ctx(m, n, k, p, pm, pn, pk);
            g.layout_a().validate();
            g.layout_b().validate();
            g.layout_c().validate();
        }
    }

    #[test]
    fn a_blocks_cover_a_within_ktask_group() {
        // For a fixed kt, the union of a_block over (i, j, cg) covers
        // m × kb with multiplicity c when A is replicated, 1 otherwise.
        let g = ctx(33, 65, 17, 8, 2, 4, 1);
        let mut count = vec![0u32; 33 * 17];
        for r in 0..g.grid().active() {
            let coord = g.coord_of(r);
            let blk = g.a_block(&coord);
            for i in blk.row0..blk.row_end() {
                for j in blk.col0..blk.col_end() {
                    count[i * 17 + j] += 1;
                }
            }
        }
        assert!(count.iter().all(|&v| v == g.c as u32));
    }

    #[test]
    fn replication_groups_partition_blocks() {
        // The c members of a replication group hold disjoint slices whose
        // union is the block.
        let g = ctx(17, 13, 19, 24, 2, 6, 2);
        for r in 0..g.grid().active() {
            let coord = g.coord_of(r);
            let blk = g.a_block(&coord);
            let group = g.replication_group(&coord);
            assert_eq!(group.len(), 3);
            let slices: Vec<Rect> = group.iter().map(|&w| g.a_init(&g.coord_of(w))).collect();
            let area: usize = slices.iter().map(Rect::area).sum();
            assert_eq!(area, blk.area());
            for s in &slices {
                assert!(blk.contains(s) || s.is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "violates eq. 7")]
    fn bad_grid_rejected() {
        let _ = ctx(8, 8, 8, 6, 2, 3, 1);
    }

    #[test]
    #[should_panic(expected = "is idle")]
    fn idle_coord_rejected() {
        let g = ctx(32, 32, 64, 17, 2, 2, 4);
        let _ = g.coord_of(16);
    }
}
