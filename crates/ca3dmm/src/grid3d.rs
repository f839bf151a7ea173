//! The paper's unified view (§III-A/C), written once: partition the
//! `m × n × k` cuboid over a `pm × pn × pk` grid, complete each position's
//! A and B blocks, run a 2D step, and reduce-scatter the `pk` partial
//! results of each C block. [`Grid3d`] is the geometry (rank order, block
//! rectangles, native layouts, communicator families) and
//! [`GridComms::multiply_native`] the driver all six algorithms run: take
//! the initial blocks, let the algorithm replicate and run its inner 2D
//! step, reduce-scatter the partial `C` over `pk`. An algorithm is a grid
//! rule, an initial placement and the closure that turns its initial blocks
//! into a partial `C`:
//!
//! | algorithm | grid rule | initial A / B placement | replication | inner 2D step | reduce |
//! |---|---|---|---|---|---|
//! | [`crate::Ca3dmm`] (Algorithm 1) | `gridopt::ca3dmm_grid`: eq. 4–6 under eq. 7 | `1/c` column slice of the replicated operand's Cannon block, the other operand's whole Cannon block | allgather over the `c` peers of a Cannon position | Cannon on an `s × s` tile, `s = min(pm, pn)` | reduce-scatter over `pk` |
//! | `baselines::SummaPgemm` (SUMMA \[14\]) | `gridopt::summa_grid`: `pr × pc × 1` | one copy: column slice `j` of `A(m_i, k)`, row slice `i` of `B(k, n_j)` — the 2D block distribution | none | SUMMA panel broadcasts, stationary C | none (`pk = 1`) |
//! | `baselines::Ca3dmmSumma` (CA3DMM-S, §III-E) | `gridopt::cosma_grid` (no eq. 7) | the same slices inside k-task group `kt`'s k-range | none | SUMMA per k-task group | reduce-scatter over `pk` |
//! | `baselines::CosmaLike` (COSMA as §III-C describes its source) | `gridopt::cosma_grid` | the same slices | allgather of A along the row, of B along the column | one local GEMM | reduce-scatter over `pk` |
//! | `baselines::Orig3d` (original 3D \[15\]) | `gridopt::cube_grid`: `q × q × q` | `A(m_i, k_l)` on `j = l`, `B(k_l, n_j)` on `i = l` | one broadcast of A along the row, one of B along the column | one local GEMM | reduce-scatter over `q` layers |
//! | `baselines::C25d` (2.5D \[16\] as in CTF \[24\]) | `s × s × c`, `c ∣ s`, least eq.-4 surface | 2D blocks of the `s × s` grid on layer 0 | broadcast along the `c` layers | Cannon rounds `l·s/c .. (l+1)·s/c` of `s` | reduce-scatter over `c` layers |
//!
//! World ranks run through contiguous k-task groups, and inside one in
//! bands of `t` grid rows, column-major within a band:
//!
//! ```text
//! world = kt·pm·pn + ⌊i/t⌋·t·pn + (i mod t) + j·t
//! ```
//!
//! `t = pm` is plain column-major order (the five baselines); `t = s` keeps
//! each of CA3DMM's Cannon tiles contiguous. Ranks `≥ pm·pn·pk` are idle.

use crate::reduce::reduce_partial_c;
use dense::part::Rect;
use dense::{Mat, Scalar};
use gridopt::{Grid, Problem};
use layout::Layout;
use msgpass::collectives::Collectives;
use msgpass::{Comm, RankCtx};

/// Grid position `(i, j, kt)` along `(m, n, k)`.
pub type Coord = (usize, usize, usize);

/// A family of sub-communicators: which positions share one, and in what
/// order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Fixed `(i, kt)`, ordered by `j` (size `pn`).
    Row,
    /// Fixed `(j, kt)`, ordered by `i` (size `pm`).
    Col,
    /// Fixed `(i, j)`, ordered by `kt` (size `pk`).
    Depth,
    /// One `s × s` Cannon tile of a k-task group, ordered `i + j·s` by
    /// position in the tile (size `s²`, `s = min(pm, pn)`).
    Tile,
    /// The same tile position in each of the `c = max(pm, pn) / s` tiles of
    /// a k-task group, ordered by tile (size `c`).
    Peers,
}

/// A problem partitioned over a grid, with the world-rank order and the
/// sub-communicator membership solved once at construction — pure
/// arithmetic, identical on every rank.
#[derive(Clone, Debug)]
pub struct Grid3d {
    prob: Problem,
    grid: Grid,
    /// Band height `t` of the rank order.
    band: usize,
    /// The families this grid's algorithm communicates over, each with its
    /// groups as world-rank lists; [`Family::Depth`] is last.
    families: Vec<(Family, Vec<Vec<usize>>)>,
}

/// An active rank's seat on the grid: its position and one communicator per
/// family, built collectively by [`Grid3d::comms`].
pub struct GridComms {
    at: Coord,
    comms: Vec<(Family, Comm)>,
}

impl Grid3d {
    /// Ranks ordered in bands of `band` grid rows (`grid.pm`: plain
    /// column-major). `families` are the sub-communicators the algorithm
    /// uses besides [`Family::Depth`], which the driver's reduction always
    /// needs.
    ///
    /// # Panics
    /// If the grid has more positions than the problem has ranks, or `band`
    /// does not divide `pm`.
    pub fn new(prob: Problem, grid: Grid, band: usize, families: &[Family]) -> Self {
        assert!(
            grid.active() <= prob.p,
            "grid {grid:?} needs more ranks than P = {}",
            prob.p
        );
        assert!(
            grid.pm.is_multiple_of(band),
            "band height {band} must divide pm"
        );
        let mut geo = Grid3d {
            prob,
            grid,
            band,
            families: Vec::new(),
        };
        geo.families = families
            .iter()
            .chain([&Family::Depth])
            .map(|&family| (family, geo.groups(family)))
            .collect();
        geo
    }

    /// The partitioned problem.
    pub fn prob(&self) -> &Problem {
        &self.prob
    }

    /// The grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    fn rank_of(&self, (i, j, kt): Coord) -> usize {
        let (Grid { pm, pn, .. }, t) = (self.grid, self.band);
        kt * pm * pn + i / t * t * pn + i % t + j * t
    }

    /// Grid position of a world rank; `None` for idle ranks.
    pub fn coord(&self, world: usize) -> Option<Coord> {
        let (Grid { pm, pn, .. }, t) = (self.grid, self.band);
        (world < self.grid.active()).then(|| {
            let (kt, in_plane) = (world / (pm * pn), world % (pm * pn));
            let (band, in_band) = (in_plane / (t * pn), in_plane % (t * pn));
            (band * t + in_band % t, in_band / t, kt)
        })
    }

    /// Position `(i, j)` of Cannon tile `cg` in k-task group `kt`: the
    /// tiles lie side by side along the longer of `pm` and `pn`.
    pub fn tile_coord(&self, cg: usize, (i, j): (usize, usize), kt: usize) -> Coord {
        let s = self.grid.cannon_s();
        if self.grid.pn > self.grid.pm {
            (i, cg * s + j, kt)
        } else {
            (cg * s + i, j, kt)
        }
    }

    /// World ranks of the `family` group containing position `(i, j, kt)`,
    /// in communicator order.
    pub fn members(&self, family: Family, (i, j, kt): Coord) -> Vec<usize> {
        let Grid { pm, pn, pk } = self.grid;
        let s = self.grid.cannon_s();
        let (len, member): (usize, &dyn Fn(usize) -> Coord) = match family {
            Family::Row => (pn, &|x| (i, x, kt)),
            Family::Col => (pm, &|x| (x, j, kt)),
            Family::Depth => (pk, &|x| (i, j, x)),
            Family::Tile => (s * s, &|x| (i - i % s + x % s, j - j % s + x / s, kt)),
            Family::Peers => (pm.max(pn) / s, &|x| self.tile_coord(x, (i % s, j % s), kt)),
        };
        (0..len).map(|x| self.rank_of(member(x))).collect()
    }

    /// Every group of a family, ordered by its lowest world rank.
    fn groups(&self, family: Family) -> Vec<Vec<usize>> {
        let mut grouped = vec![false; self.grid.active()];
        let mut groups = Vec::new();
        for r in 0..grouped.len() {
            if !grouped[r] {
                let at = self.coord(r).expect("r is an active rank");
                let members = self.members(family, at);
                members.iter().for_each(|&x| grouped[x] = true);
                groups.push(members);
            }
        }
        groups
    }

    /// `A(m_i, k_kt)`: what position `(i, ·, kt)` multiplies.
    pub fn a_block(&self, i: usize, kt: usize) -> Rect {
        let (Problem { m, k, .. }, Grid { pm, pk, .. }) = (self.prob, self.grid);
        Rect::full(m, k).row_part(pm, i).col_part(pk, kt)
    }

    /// `B(k_kt, n_j)`: what position `(·, j, kt)` multiplies.
    pub fn b_block(&self, j: usize, kt: usize) -> Rect {
        let (Problem { k, n, .. }, Grid { pn, pk, .. }) = (self.prob, self.grid);
        Rect::full(k, n).row_part(pk, kt).col_part(pn, j)
    }

    /// `C(m_i, n_j)`: what every position `(i, j, ·)` contributes to.
    pub fn c_block(&self, i: usize, j: usize) -> Rect {
        let (Problem { m, n, .. }, Grid { pm, pn, .. }) = (self.prob, self.grid);
        Rect::full(m, n).row_part(pm, i).col_part(pn, j)
    }

    /// Row strip `kt` (of `pk`) of the C block, as the reduce-scatter
    /// leaves it.
    pub fn c_strip(&self, (i, j, kt): Coord) -> Rect {
        self.c_block(i, j).row_part(self.grid.pk, kt)
    }

    /// The slice placement, as `[A, B]` rectangles: column slice `j` (of
    /// `pn`) of the A block and row slice `i` (of `pm`) of the B block —
    /// one copy of each operand, spread over the row resp. column of
    /// positions that needs it.
    pub fn slices(&self, (i, j, kt): Coord) -> [Option<Rect>; 2] {
        [
            Some(self.a_block(i, kt).col_part(self.grid.pn, j)),
            Some(self.b_block(j, kt).row_part(self.grid.pm, i)),
        ]
    }

    /// A layout over all `P` ranks from a per-position rectangle (`None`
    /// or empty: the position owns nothing).
    fn layout(&self, rows: usize, cols: usize, rect_of: impl Fn(Coord) -> Option<Rect>) -> Layout {
        Layout::one_rect_per_rank(rows, cols, self.prob.p, |r| rect_of(self.coord(r)?))
    }

    /// The native input layout of `A` under an initial `[A, B]` placement.
    pub fn layout_a(&self, native: impl Fn(Coord) -> [Option<Rect>; 2]) -> Layout {
        self.layout(self.prob.m, self.prob.k, |at| native(at)[0])
    }

    /// The native input layout of `B` under an initial `[A, B]` placement.
    pub fn layout_b(&self, native: impl Fn(Coord) -> [Option<Rect>; 2]) -> Layout {
        self.layout(self.prob.k, self.prob.n, |at| native(at)[1])
    }

    /// The native output layout: every position's [`Grid3d::c_strip`].
    pub fn layout_c(&self) -> Layout {
        self.layout(self.prob.m, self.prob.n, |at| Some(self.c_strip(at)))
    }

    /// Builds this rank's communicators, one per family. Collective over
    /// `world`; `None` on idle ranks. The membership lists were solved at
    /// construction, so a batch of multiplies on one grid can share one
    /// [`GridComms`].
    pub fn comms(&self, ctx: &RankCtx, world: &Comm) -> Option<GridComms> {
        let comms = self.families.iter().filter_map(|(family, groups)| {
            // Every rank makes every call; idle ranks are in no group.
            Some((*family, world.subgroup(ctx, groups)?))
        });
        let (comms, at) = (comms.collect(), self.coord(world.rank())?);
        Some(GridComms { at, comms })
    }
}

impl GridComms {
    /// This rank's grid position.
    pub fn at(&self) -> Coord {
        self.at
    }

    /// This rank's communicator of a family.
    ///
    /// # Panics
    /// If the grid was built without that family.
    pub fn of(&self, family: Family) -> &Comm {
        let found = self.comms.iter().find(|(f, _)| *f == family);
        &found.expect("the grid was built without this family").1
    }

    /// The native-layout multiply all six algorithms share. `init` holds
    /// this rank's initial A and B blocks, `native` the rectangles they must
    /// match (`None`: the position starts without that operand); a missing
    /// block is taken as zeros. `partial_c` is the algorithm: it completes
    /// the operands and returns this position's partial `C(m_i, n_j)`, which
    /// is then reduce-scattered (`reduce` picks the collective family) over
    /// the `pk` positions sharing `(i, j)`.
    pub async fn multiply_native<T: Scalar>(
        &self,
        ctx: &RankCtx,
        init: [Option<Mat<T>>; 2],
        native: [Option<Rect>; 2],
        reduce: Collectives,
        partial_c: impl AsyncFnOnce([Option<Mat<T>>; 2]) -> Mat<T>,
    ) -> Mat<T> {
        let take = |given: Option<Mat<T>>, rect: Option<Rect>| {
            rect.map(|r| {
                let blk = given.unwrap_or_else(|| Mat::zeros(r.rows, r.cols));
                assert_eq!(blk.shape(), (r.rows, r.cols), "initial block shape");
                blk
            })
        };
        let ([a, b], [a_rect, b_rect]) = (init, native);
        let c_partial = partial_c([take(a, a_rect), take(b, b_rect)]).await;
        ctx.set_phase("reduce_c");
        reduce_partial_c(ctx, self.of(Family::Depth), c_partial, reduce).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both legacy rank formulas are the band order: `t = pm` is the
    /// baselines' column-major map, `t = s` CA3DMM's Cannon-group-major one
    /// (they differ only when B is replicated, `pm > pn`), and `coord`
    /// inverts either with the surplus ranks idle.
    #[test]
    fn band_order_reproduces_both_legacy_rank_maps() {
        for (pm, pn, pk) in [
            (2, 3, 4),
            (2, 4, 1),
            (6, 2, 2),
            (2, 6, 2),
            (3, 3, 2),
            (12, 1, 1),
        ] {
            let grid = Grid::new(pm, pn, pk);
            let prob = Problem::new(29, 31, 37, grid.active() + 2);
            let plain = Grid3d::new(prob, grid, pm, &[]);
            for kt in 0..pk {
                for (i, j) in (0..pm).flat_map(|i| (0..pn).map(move |j| (i, j))) {
                    assert_eq!(plain.rank_of((i, j, kt)), kt * pm * pn + i + j * pm);
                }
            }
            let mut geos = vec![plain];
            if grid.cannon_compatible() {
                let (s, c) = (grid.cannon_s(), grid.cannon_c());
                let tiled = Grid3d::new(prob, grid, s, &[]);
                for (kt, cg) in (0..pk).flat_map(|kt| (0..c).map(move |cg| (kt, cg))) {
                    for (i, j) in (0..s).flat_map(|i| (0..s).map(move |j| (i, j))) {
                        let world = tiled.rank_of(tiled.tile_coord(cg, (i, j), kt));
                        assert_eq!(world, kt * pm * pn + cg * s * s + i + j * s);
                    }
                }
                geos.push(tiled);
            }
            for geo in &geos {
                for world in 0..grid.active() {
                    assert_eq!(geo.rank_of(geo.coord(world).expect("active")), world);
                }
                let idle = grid.active();
                assert_eq!((geo.coord(idle), geo.coord(idle + 1)), (None, None));
            }
        }
        let geo = Grid3d::new(Problem::new(9, 8, 7, 26), Grid::new(2, 3, 4), 2, &[]);
        assert_eq!(geo.coord(7), Some((1, 0, 1)));
    }

    #[test]
    fn families_partition_the_active_ranks() {
        use Family::*;
        let grid = Grid::new(6, 2, 2);
        let geo = Grid3d::new(Problem::new(9, 8, 7, 25), grid, 2, &[Row, Col, Tile, Peers]);
        for (family, groups) in &geo.families {
            let mut seen: Vec<usize> = groups.concat();
            seen.sort_unstable();
            assert_eq!(seen, (0..24).collect::<Vec<_>>(), "{family:?}");
        }
        // Tile 1 of k-task group 1 is contiguous; its corner's peers are
        // the three tile corners of that group.
        let at = geo.tile_coord(1, (0, 0), 1);
        assert_eq!(geo.members(Tile, at), vec![16, 17, 18, 19]);
        assert_eq!(geo.members(Peers, at), vec![12, 16, 20]);
        assert_eq!(geo.members(Depth, at), vec![4, 16]);
    }

    #[test]
    fn native_layouts_partition_their_matrices() {
        let geo = Grid3d::new(Problem::new(9, 8, 7, 13), Grid::new(2, 3, 2), 2, &[]);
        geo.layout_a(|at| geo.slices(at)).validate();
        geo.layout_b(|at| geo.slices(at)).validate();
        geo.layout_c().validate();
    }
}
