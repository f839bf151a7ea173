//! Block-partition arithmetic.
//!
//! The paper partitions each dimension `d` over `p` processes into parts of
//! size ⌈d/p⌉ or ⌊d/p⌋ (§III-A). [`split_even`] produces exactly that
//! partition, and [`Rect`] provides the rectangle algebra the redistribution
//! subroutine (Algorithm 1 steps 4/8) needs to compute which sub-blocks move
//! between which pairs of ranks.

/// A rectangular index region of a global matrix: rows
/// `row0 .. row0+rows`, columns `col0 .. col0+cols`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rect {
    /// First row (inclusive).
    pub row0: usize,
    /// First column (inclusive).
    pub col0: usize,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Rect {
    /// Creates a rectangle.
    pub const fn new(row0: usize, col0: usize, rows: usize, cols: usize) -> Self {
        Self {
            row0,
            col0,
            rows,
            cols,
        }
    }

    /// The rectangle covering a whole `rows × cols` matrix.
    pub const fn full(rows: usize, cols: usize) -> Self {
        Self::new(0, 0, rows, cols)
    }

    /// Element count.
    #[inline]
    pub const fn area(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the rectangle contains no elements.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// One-past-the-end row.
    #[inline]
    pub const fn row_end(&self) -> usize {
        self.row0 + self.rows
    }

    /// One-past-the-end column.
    #[inline]
    pub const fn col_end(&self) -> usize {
        self.col0 + self.cols
    }

    /// Intersection of two rectangles; `None` when empty.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let row0 = self.row0.max(other.row0);
        let col0 = self.col0.max(other.col0);
        let row_end = self.row_end().min(other.row_end());
        let col_end = self.col_end().min(other.col_end());
        if row0 < row_end && col0 < col_end {
            Some(Rect::new(row0, col0, row_end - row0, col_end - col0))
        } else {
            None
        }
    }

    /// True if `other` lies fully inside `self`.
    pub fn contains(&self, other: &Rect) -> bool {
        other.row0 >= self.row0
            && other.col0 >= self.col0
            && other.row_end() <= self.row_end()
            && other.col_end() <= self.col_end()
    }

    /// The same region of the transposed matrix (rows and columns swap).
    pub const fn transposed(&self) -> Rect {
        Rect::new(self.col0, self.row0, self.cols, self.rows)
    }

    /// Row part `i` of `p` (the ⌈rows/p⌉/⌊rows/p⌋ split of [`even_range`]),
    /// all columns.
    pub fn row_part(&self, p: usize, i: usize) -> Rect {
        let (r0, r1) = even_range(self.rows, p, i);
        Rect::new(self.row0 + r0, self.col0, r1 - r0, self.cols)
    }

    /// Column part `i` of `p`, all rows.
    pub fn col_part(&self, p: usize, i: usize) -> Rect {
        self.transposed().row_part(p, i).transposed()
    }
}

/// Splits dimension `n` into `p` nearly equal parts (sizes differ by ≤ 1),
/// returning the part sizes. The first `n mod p` parts get the extra element,
/// matching the ⌈n/p⌉/⌊n/p⌋ convention of the paper.
///
/// `p = 0` is not meaningful and panics.
pub fn split_even(n: usize, p: usize) -> Vec<usize> {
    assert!(p > 0, "cannot split into zero parts");
    let base = n / p;
    let extra = n % p;
    (0..p)
        .map(|i| if i < extra { base + 1 } else { base })
        .collect()
}

/// Prefix offsets for a list of part sizes: `offsets(sizes)[i]` is the global
/// index where part `i` starts; a final entry holds the total.
pub fn offsets(sizes: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(sizes.len() + 1);
    let mut acc = 0;
    for &s in sizes {
        out.push(acc);
        acc += s;
    }
    out.push(acc);
    out
}

/// The half-open range `[start, end)` of part `i` when `n` is split evenly
/// into `p` parts. Equivalent to (but cheaper than) indexing
/// `offsets(&split_even(n, p))`.
pub fn even_range(n: usize, p: usize, i: usize) -> (usize, usize) {
    assert!(i < p, "part index {i} out of {p}");
    let base = n / p;
    let extra = n % p;
    let start = if i < extra {
        i * (base + 1)
    } else {
        extra * (base + 1) + (i - extra) * base
    };
    let len = if i < extra { base + 1 } else { base };
    (start, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_even_sums_and_balance() {
        for n in [0usize, 1, 7, 16, 100, 101] {
            for p in [1usize, 2, 3, 7, 16, 33] {
                let parts = split_even(n, p);
                assert_eq!(parts.len(), p);
                assert_eq!(parts.iter().sum::<usize>(), n);
                let mx = *parts.iter().max().unwrap();
                let mn = *parts.iter().min().unwrap();
                assert!(mx - mn <= 1, "unbalanced split {parts:?}");
            }
        }
    }

    #[test]
    fn split_even_matches_ceil_floor() {
        let parts = split_even(10, 3);
        assert_eq!(parts, vec![4, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn split_even_zero_parts_panics() {
        let _ = split_even(5, 0);
    }

    #[test]
    fn offsets_prefix_sums() {
        assert_eq!(offsets(&[4, 3, 3]), vec![0, 4, 7, 10]);
        assert_eq!(offsets(&[]), vec![0]);
    }

    #[test]
    fn even_range_consistent_with_split() {
        for n in [0usize, 5, 17, 64] {
            for p in [1usize, 2, 5, 8] {
                let offs = offsets(&split_even(n, p));
                for i in 0..p {
                    assert_eq!(even_range(n, p, i), (offs[i], offs[i + 1]));
                }
            }
        }
    }

    #[test]
    fn rect_intersection() {
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(2, 2, 4, 4);
        assert_eq!(a.intersect(&b), Some(Rect::new(2, 2, 2, 2)));
        let c = Rect::new(4, 0, 2, 2);
        assert_eq!(a.intersect(&c), None); // touching edges do not intersect
    }

    #[test]
    fn rect_contains_and_relative() {
        let outer = Rect::new(2, 3, 10, 10);
        let inner = Rect::new(4, 5, 2, 2);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
    }

    #[test]
    fn rect_transpose_involution() {
        let r = Rect::new(1, 2, 3, 4);
        assert_eq!(r.transposed().transposed(), r);
        assert_eq!(r.transposed(), Rect::new(2, 1, 4, 3));
    }

    #[test]
    fn rect_parts_follow_even_range() {
        let r = Rect::new(10, 20, 7, 5);
        assert_eq!(r.row_part(3, 0), Rect::new(10, 20, 3, 5));
        assert_eq!(r.row_part(3, 2), Rect::new(15, 20, 2, 5));
        assert_eq!(r.col_part(2, 1), Rect::new(10, 23, 7, 2));
        assert_eq!(r.col_part(1, 0), r);
    }

    #[test]
    fn rect_area_and_empty() {
        assert_eq!(Rect::new(0, 0, 3, 4).area(), 12);
        assert!(Rect::new(5, 5, 0, 4).is_empty());
        assert!(!Rect::new(0, 0, 1, 1).is_empty());
    }
}
