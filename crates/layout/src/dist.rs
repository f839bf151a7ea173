//! Layout descriptions: which rank owns which rectangles of a global
//! matrix.

use dense::part::{offsets, split_even, Rect};
use dense::{Mat, Scalar};

/// A distribution of an `rows × cols` global matrix over `nranks` ranks:
/// each rank owns a list of disjoint rectangles whose union (over all
/// ranks) tiles the matrix exactly.
///
/// Local storage convention: a rank stores one row-major [`Mat`] per owned
/// rectangle, in the order of its rectangle list.
#[derive(Clone, Debug, PartialEq)]
pub struct Layout {
    rows: usize,
    cols: usize,
    rects: Vec<Vec<Rect>>,
}

impl Layout {
    /// Builds a layout from explicit per-rank rectangle lists and validates
    /// the partition property.
    ///
    /// # Panics
    /// If the rectangles overlap, exceed the matrix, or fail to cover it.
    pub fn from_rects(rows: usize, cols: usize, rects: Vec<Vec<Rect>>) -> Self {
        let l = Layout { rows, cols, rects };
        l.validate();
        l
    }

    /// Global matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of ranks the layout is defined over (some may own nothing).
    pub fn nranks(&self) -> usize {
        self.rects.len()
    }

    /// The rectangles owned by `rank`, in local storage order.
    pub fn owned(&self, rank: usize) -> &[Rect] {
        &self.rects[rank]
    }

    /// Elements owned by `rank`.
    pub fn owned_elems(&self, rank: usize) -> usize {
        self.rects[rank].iter().map(Rect::area).sum()
    }

    /// A structural fingerprint of the layout (FNV-1a over the shape and
    /// every rank's rectangle list, in order). Two layouts with the same
    /// fingerprint describe the same distribution for all practical
    /// purposes; plan caches use this as the layout component of their key
    /// so equal requests hash equal without storing whole layouts in the
    /// key.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.rows as u64);
        mix(self.cols as u64);
        mix(self.rects.len() as u64);
        for per_rank in &self.rects {
            mix(per_rank.len() as u64);
            for r in per_rank {
                mix(r.row0 as u64);
                mix(r.col0 as u64);
                mix(r.rows as u64);
                mix(r.cols as u64);
            }
        }
        h
    }

    /// Checks the partition property.
    ///
    /// # Panics
    /// With a description of the violation.
    pub fn validate(&self) {
        let full = Rect::full(self.rows, self.cols);
        let mut area = 0usize;
        let all: Vec<(usize, &Rect)> = self
            .rects
            .iter()
            .enumerate()
            .flat_map(|(r, v)| v.iter().map(move |rect| (r, rect)))
            .collect();
        for (r, rect) in &all {
            assert!(
                full.contains(rect) || rect.is_empty(),
                "rank {r} rect {rect:?} outside {}x{}",
                self.rows,
                self.cols
            );
            area += rect.area();
        }
        assert_eq!(
            area,
            self.rows * self.cols,
            "rect areas do not sum to the matrix size"
        );
        for (i, (ri, a)) in all.iter().enumerate() {
            for (rj, b) in all.iter().skip(i + 1) {
                assert!(
                    a.intersect(b).is_none(),
                    "rects overlap: rank {ri} {a:?} vs rank {rj} {b:?}"
                );
            }
        }
    }

    /// At most one rectangle per rank: rank `r` of `p` owns `rect_of(r)`,
    /// or nothing when that is `None` or an empty rectangle. This is the
    /// shape of every algorithm's native distribution — one block per
    /// active grid position, idle ranks (and grid positions whose block
    /// degenerates, e.g. more k-parts than k) own nothing.
    ///
    /// # Panics
    /// As [`Layout::from_rects`].
    pub fn one_rect_per_rank(
        rows: usize,
        cols: usize,
        p: usize,
        rect_of: impl Fn(usize) -> Option<Rect>,
    ) -> Self {
        let rects = (0..p)
            .map(|r| {
                rect_of(r)
                    .filter(|rect| !rect.is_empty())
                    .into_iter()
                    .collect()
            })
            .collect();
        Layout::from_rects(rows, cols, rects)
    }

    /// 1D column partition: rank `r` owns a contiguous block of columns
    /// (the artifact example program's input/output layout).
    pub fn one_d_col(rows: usize, cols: usize, p: usize) -> Self {
        let offs = offsets(&split_even(cols, p));
        Layout::from_rects(
            rows,
            cols,
            (0..p)
                .map(|r| vec![Rect::new(0, offs[r], rows, offs[r + 1] - offs[r])])
                .collect(),
        )
    }

    /// 1D row partition.
    pub fn one_d_row(rows: usize, cols: usize, p: usize) -> Self {
        let offs = offsets(&split_even(rows, p));
        Layout::from_rects(
            rows,
            cols,
            (0..p)
                .map(|r| vec![Rect::new(offs[r], 0, offs[r + 1] - offs[r], cols)])
                .collect(),
        )
    }

    /// 2D block partition over a `pr × pc` grid; rank `r` sits at grid
    /// position `(r / pc, r % pc)` (row-major rank order).
    pub fn two_d_block(rows: usize, cols: usize, pr: usize, pc: usize) -> Self {
        let ro = offsets(&split_even(rows, pr));
        let co = offsets(&split_even(cols, pc));
        Layout::from_rects(
            rows,
            cols,
            (0..pr * pc)
                .map(|r| {
                    let (i, j) = (r / pc, r % pc);
                    vec![Rect::new(
                        ro[i],
                        co[j],
                        ro[i + 1] - ro[i],
                        co[j + 1] - co[j],
                    )]
                })
                .collect(),
        )
    }

    /// 2D block-cyclic partition (the ScaLAPACK layout) with tile size
    /// `br × bc` over a `pr × pc` grid, row-major rank order.
    pub fn block_cyclic(
        rows: usize,
        cols: usize,
        pr: usize,
        pc: usize,
        br: usize,
        bc: usize,
    ) -> Self {
        assert!(br > 0 && bc > 0, "tile sizes must be positive");
        let mut rects: Vec<Vec<Rect>> = vec![Vec::new(); pr * pc];
        let tiles_r = rows.div_ceil(br);
        let tiles_c = cols.div_ceil(bc);
        for ti in 0..tiles_r {
            for tj in 0..tiles_c {
                let owner = (ti % pr) * pc + (tj % pc);
                let r0 = ti * br;
                let c0 = tj * bc;
                rects[owner].push(Rect::new(r0, c0, br.min(rows - r0), bc.min(cols - c0)));
            }
        }
        Layout::from_rects(rows, cols, rects)
    }

    /// Everything on one rank (`owner`), the others empty — used to gather
    /// results for verification.
    pub fn on_single_rank(rows: usize, cols: usize, p: usize, owner: usize) -> Self {
        let mut rects: Vec<Vec<Rect>> = vec![Vec::new(); p];
        rects[owner].push(Rect::full(rows, cols));
        Layout::from_rects(rows, cols, rects)
    }

    /// Extracts `rank`'s local blocks from a global matrix (test/driver
    /// helper).
    pub fn extract<T: Scalar>(&self, global: &Mat<T>, rank: usize) -> Vec<Mat<T>> {
        assert_eq!(
            global.shape(),
            (self.rows, self.cols),
            "global shape mismatch"
        );
        self.rects[rank].iter().map(|r| global.block(*r)).collect()
    }

    /// Reassembles the global matrix from every rank's local blocks
    /// (test/driver helper).
    pub fn assemble<T: Scalar>(&self, parts: &[Vec<Mat<T>>]) -> Mat<T> {
        assert_eq!(parts.len(), self.nranks(), "need parts for every rank");
        let mut out = Mat::zeros(self.rows, self.cols);
        for (rank, blocks) in parts.iter().enumerate() {
            assert_eq!(
                blocks.len(),
                self.rects[rank].len(),
                "rank {rank} block count mismatch"
            );
            for (rect, block) in self.rects[rank].iter().zip(blocks) {
                out.set_block(*rect, block);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::random::random_mat;

    #[test]
    fn one_d_layouts_partition() {
        Layout::one_d_col(10, 7, 3).validate();
        Layout::one_d_row(7, 10, 4).validate();
        let l = Layout::one_d_col(4, 10, 3);
        assert_eq!(l.owned(0), &[Rect::new(0, 0, 4, 4)]);
        assert_eq!(l.owned(1), &[Rect::new(0, 4, 4, 3)]);
        assert_eq!(l.owned_elems(0), 16);
    }

    #[test]
    fn two_d_block_positions() {
        let l = Layout::two_d_block(6, 6, 2, 3);
        assert_eq!(l.nranks(), 6);
        assert_eq!(l.owned(0), &[Rect::new(0, 0, 3, 2)]);
        assert_eq!(l.owned(5), &[Rect::new(3, 4, 3, 2)]);
    }

    #[test]
    fn block_cyclic_tiles() {
        let l = Layout::block_cyclic(5, 5, 2, 2, 2, 2);
        l.validate();
        // rank 0 owns tiles (0,0),(0,2),(2,0),(2,2) -> 4 rects
        assert_eq!(l.owned(0).len(), 4);
        // the bottom-right 1x1 remainder tile lands at tile (2,2) -> rank 0
        assert!(l.owned(0).contains(&Rect::new(4, 4, 1, 1)));
    }

    #[test]
    fn extract_assemble_round_trip() {
        let g = random_mat::<f64>(9, 11, 5);
        for l in [
            Layout::one_d_col(9, 11, 4),
            Layout::one_d_row(9, 11, 3),
            Layout::two_d_block(9, 11, 2, 2),
            Layout::block_cyclic(9, 11, 2, 2, 3, 2),
            Layout::on_single_rank(9, 11, 4, 2),
        ] {
            let parts: Vec<_> = (0..l.nranks()).map(|r| l.extract(&g, r)).collect();
            let back = l.assemble(&parts);
            assert_eq!(back.max_abs_diff(&g), 0.0);
        }
    }

    #[test]
    fn one_rect_per_rank_cases() {
        // A 4×6 matrix split into two row blocks, on worlds of `p` ranks.
        fn row_block(i: usize) -> Rect {
            Rect::new(2 * i, 0, 2, 6)
        }
        type Case = (&'static str, usize, fn(usize) -> Option<Rect>, Vec<usize>);
        let cases: Vec<Case> = vec![
            ("every rank active", 2, |r| Some(row_block(r)), vec![12, 12]),
            (
                "p larger than the grid: surplus ranks idle",
                5,
                |r| (r < 2).then(|| row_block(r)),
                vec![12, 12, 0, 0, 0],
            ),
            (
                "inactive ranks interleaved",
                4,
                |r| (r % 2 == 1).then(|| row_block(r / 2)),
                vec![0, 12, 0, 12],
            ),
            (
                "empty rects own nothing",
                3,
                |r| {
                    Some(if r == 1 {
                        Rect::new(2, 0, 0, 6)
                    } else {
                        row_block(r / 2)
                    })
                },
                vec![12, 0, 12],
            ),
        ];
        for (what, p, rect_of, elems) in cases {
            let l = Layout::one_rect_per_rank(4, 6, p, rect_of);
            assert_eq!(l.nranks(), p, "{what}");
            for (r, &want) in elems.iter().enumerate() {
                assert_eq!(l.owned_elems(r), want, "{what}: rank {r}");
                assert_eq!(l.owned(r).len(), usize::from(want > 0), "{what}: rank {r}");
            }
        }
        assert_eq!(
            Layout::one_rect_per_rank(4, 6, 2, |r| Some(row_block(r))),
            Layout::one_d_row(4, 6, 2)
        );
    }

    #[test]
    #[should_panic(expected = "sum to the matrix size")]
    fn one_rect_per_rank_still_validates_coverage() {
        Layout::one_rect_per_rank(4, 6, 3, |r| (r == 0).then(|| Rect::new(0, 0, 2, 6)));
    }

    #[test]
    fn empty_rank_allowed() {
        // more ranks than columns: some ranks own 0 columns
        let l = Layout::one_d_col(4, 2, 5);
        l.validate();
        assert_eq!(l.owned_elems(4), 0);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_rects_rejected() {
        // total area matches (2+2 = 4) but the rects overlap
        Layout::from_rects(
            2,
            2,
            vec![vec![Rect::new(0, 0, 1, 2)], vec![Rect::new(0, 0, 1, 2)]],
        );
    }

    #[test]
    #[should_panic(expected = "sum to the matrix size")]
    fn gaps_rejected() {
        Layout::from_rects(2, 2, vec![vec![Rect::new(0, 0, 1, 2)], vec![]]);
    }
}
