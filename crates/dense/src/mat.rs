//! Owned row-major dense matrices with block accessors.

use crate::part::Rect;
use crate::scalar::Scalar;
use std::ops::AddAssign;

/// An owned, row-major, densely stored matrix.
///
/// `Mat` is deliberately minimal: the distributed algorithms only ever need
/// contiguous local blocks, block copies in and out (for packing messages),
/// transposition, and elementwise accumulation. Leading-dimension tricks are
/// avoided — every `Mat` owns exactly `rows * cols` elements — which keeps
/// message packing trivial and bug-resistant.
#[derive(Clone, PartialEq)]
pub struct Mat<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// Whether `T` is zero-sized, like [`crate::Shape64`]: a shape-only
/// element with one value and no bytes.
///
/// Every copy, join and sum of such elements is only its length, and this
/// module enforces that with an explicit branch rather than trusting the
/// optimiser to delete an element loop — unoptimised builds run those loops
/// in full, one iteration per element of a matrix that stores nothing.
/// (The branch belongs in synchronous helpers like these: written inside an
/// `async fn`, it can grow the future of every instantiation.)
const fn shape_only<T>() -> bool {
    std::mem::size_of::<T>() == 0
}

/// `n` zeros. For a zero-sized element there is nothing to fill, yet
/// `vec![x; n]` still clones `n` times in unoptimised builds; doubling
/// appends reach any `n` in `log2(n)` constant-time steps.
fn zeros_vec<T: Scalar>(n: usize) -> Vec<T> {
    if !shape_only::<T>() {
        return vec![T::ZERO; n];
    }
    let mut v = vec![T::ZERO; n.min(1)];
    while v.len() < n {
        let take = v.len().min(n - v.len());
        v.extend_from_within(..take);
    }
    v
}

/// `dst += src`, elementwise: the one sum loop of a reduction. For a
/// zero-sized element it does nothing, in every build.
///
/// # Panics
/// If the lengths differ.
pub fn add_slice<T: Copy + AddAssign>(dst: &mut [T], src: &[T]) {
    assert_eq!(dst.len(), src.len(), "add_slice length mismatch");
    if shape_only::<T>() {
        return;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d += *s;
    }
}

impl<T: Scalar> Mat<T> {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: zeros_vec(rows * cols),
        }
    }

    /// Builds a matrix from a generator `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Joins column slices side by side. `slices` holds the row-major
    /// `rows × widths[s]` slices one after another (what an allgather of
    /// column slices returns); the result is the `rows × Σ widths` matrix
    /// whose row `i` is row `i` of every slice in turn. Zero-sized elements
    /// are joined by their length alone, without a copy.
    ///
    /// # Panics
    /// If `slices.len() != rows * Σ widths`.
    pub fn join_cols(rows: usize, widths: &[usize], slices: Vec<T>) -> Self {
        let cols = widths.iter().sum();
        assert_eq!(
            slices.len(),
            rows * cols,
            "slices do not fill {rows}x{cols}"
        );
        if shape_only::<T>() {
            return Mat::from_vec(rows, cols, slices);
        }
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            let mut start = 0;
            for &w in widths {
                let row = start + i * w;
                data.extend_from_slice(&slices[row..row + w]);
                start += rows * w;
            }
        }
        Mat::from_vec(rows, cols, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements (any dimension is zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume and return the backing buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies the sub-block at `rect` (row/col offsets are in *this* matrix)
    /// into a fresh matrix.
    ///
    /// # Panics
    /// If `rect` does not fit inside the matrix.
    pub fn block(&self, rect: Rect) -> Mat<T> {
        assert!(
            rect.row0 + rect.rows <= self.rows && rect.col0 + rect.cols <= self.cols,
            "block {rect:?} outside {}x{}",
            self.rows,
            self.cols
        );
        if shape_only::<T>() {
            return Mat::zeros(rect.rows, rect.cols);
        }
        let mut out = Vec::with_capacity(rect.rows * rect.cols);
        for i in 0..rect.rows {
            let src = (rect.row0 + i) * self.cols + rect.col0;
            out.extend_from_slice(&self.data[src..src + rect.cols]);
        }
        Mat::from_vec(rect.rows, rect.cols, out)
    }

    /// Writes `src` over the sub-block at `rect`.
    ///
    /// # Panics
    /// If shapes disagree or `rect` does not fit.
    pub fn set_block(&mut self, rect: Rect, src: &Mat<T>) {
        assert_eq!((rect.rows, rect.cols), src.shape(), "block shape mismatch");
        assert!(
            rect.row0 + rect.rows <= self.rows && rect.col0 + rect.cols <= self.cols,
            "block {rect:?} outside {}x{}",
            self.rows,
            self.cols
        );
        if shape_only::<T>() {
            return;
        }
        for i in 0..rect.rows {
            let dst = (rect.row0 + i) * self.cols + rect.col0;
            self.data[dst..dst + rect.cols].copy_from_slice(src.row(i));
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Mat<T> {
        let mut out = Mat::zeros(self.cols, self.rows);
        // Tiled transpose: keeps both the read and the write streams within
        // cache lines for large matrices.
        const TILE: usize = 32;
        for ib in (0..self.rows).step_by(TILE) {
            for jb in (0..self.cols).step_by(TILE) {
                let imax = (ib + TILE).min(self.rows);
                let jmax = (jb + TILE).min(self.cols);
                for i in ib..imax {
                    for j in jb..jmax {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        out
    }

    /// `self += other`, elementwise.
    ///
    /// # Panics
    /// If shapes differ.
    pub fn add_assign(&mut self, other: &Mat<T>) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        add_slice(&mut self.data, &other.data);
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: T) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Max-norm of the elementwise difference, as `f64`.
    pub fn max_abs_diff(&self, other: &Mat<T>) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (*a - *b).abs().to_f64())
            .fold(0.0, f64::max)
    }

    /// Max-norm of the matrix, as `f64`.
    pub fn max_abs(&self) -> f64 {
        self.data
            .iter()
            .map(|a| a.abs().to_f64())
            .fold(0.0, f64::max)
    }
}

impl<T: Scalar> std::fmt::Debug for Mat<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                write!(f, "{:10.4} ", self.get(i, j))?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape64;

    #[test]
    fn zeros_shape_and_content() {
        let m = Mat::<f64>::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_row_major() {
        let m = Mat::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_length_checked() {
        let _ = Mat::from_vec(2, 2, vec![1.0f64; 3]);
    }

    #[test]
    fn block_copy_round_trip() {
        let m = Mat::from_fn(5, 6, |i, j| (i * 6 + j) as f64);
        let r = Rect::new(1, 2, 3, 3);
        let b = m.block(r);
        assert_eq!(b.shape(), (3, 3));
        assert_eq!(b.get(0, 0), m.get(1, 2));
        assert_eq!(b.get(2, 2), m.get(3, 4));

        let mut m2 = Mat::zeros(5, 6);
        m2.set_block(r, &b);
        assert_eq!(m2.get(1, 2), m.get(1, 2));
        assert_eq!(m2.get(0, 0), 0.0);
    }

    #[test]
    fn transpose_small_and_rect() {
        let m = Mat::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn transpose_large_tiled_matches_naive() {
        let m = Mat::from_fn(70, 45, |i, j| (i * 1000 + j) as f64);
        let t = m.transpose();
        for i in 0..70 {
            for j in 0..45 {
                assert_eq!(m.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn norms() {
        let a = Mat::from_vec(1, 3, vec![3.0f64, -4.0, 0.0]);
        assert_eq!(a.max_abs(), 4.0);
        let b = Mat::from_vec(1, 3, vec![3.0f64, -4.0, 1.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    fn scale_and_add_assign() {
        let mut a = Mat::from_vec(1, 2, vec![1.0f32, 2.0]);
        let b = Mat::from_vec(1, 2, vec![10.0f32, 20.0]);
        a.scale(2.0);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[12.0, 24.0]);
    }

    /// Shape-only matrices keep every shape and length while owning no
    /// memory: a 2²⁰ × 2²⁰ "matrix" (8 TiB as `f64`) is built, sliced and
    /// written in no time.
    #[test]
    fn shape_only_matrices_keep_shapes_and_store_nothing() {
        const N: usize = 1 << 20;
        let mut m = Mat::<Shape64>::zeros(N, N);
        assert_eq!(m.shape(), (N, N));
        assert_eq!(m.len(), N * N);
        assert!(!m.is_empty());
        assert_eq!(std::mem::size_of_val(m.as_slice()), 0);

        let r = Rect::new(3, N / 2, N - 7, N / 2);
        let b = m.block(r);
        assert_eq!(b.shape(), (N - 7, N / 2));
        m.set_block(r, &b);
        assert_eq!(m.shape(), (N, N));

        let v = b.into_vec();
        assert_eq!(v.len(), (N - 7) * (N / 2));
        let back = Mat::from_vec(N / 2, N - 7, v);
        assert_eq!(back.shape(), (N / 2, N - 7));
        assert_eq!(back.clone().into_vec().len(), back.len());

        for n in [0usize, 1, 2, 3, 5, 1000, 1023] {
            assert_eq!(Mat::<Shape64>::zeros(n, 1).len(), n, "n = {n}");
            assert_eq!(Mat::<Shape64>::zeros(1, n).is_empty(), n == 0);
        }

        // A join and a sum of 2⁴⁰ elements: an element loop would not end.
        let joined = Mat::join_cols(N, &[N / 2, N / 2], m.clone().into_vec());
        assert_eq!(joined.shape(), (N, N));
        add_slice(m.as_mut_slice(), joined.as_slice());
        m.add_assign(&joined);
        assert_eq!(m.len(), N * N);
    }

    #[test]
    fn join_cols_places_each_slice_row_by_row() {
        let full = Mat::from_fn(3, 7, |i, j| (i * 10 + j) as f64);
        let widths = [2, 0, 4, 1];
        let mut slices = Vec::new();
        let mut col0 = 0;
        for w in widths {
            slices.extend(full.block(Rect::new(0, col0, 3, w)).into_vec());
            col0 += w;
        }
        assert_eq!(Mat::join_cols(3, &widths, slices), full);
    }

    #[test]
    #[should_panic(expected = "slices do not fill 2x3")]
    fn join_cols_checks_the_length() {
        let _ = Mat::join_cols(2, &[1, 2], vec![Shape64; 5]);
    }

    #[test]
    #[should_panic(expected = "add_slice length mismatch")]
    fn add_slice_checks_the_length() {
        add_slice(&mut [Shape64; 2], &[Shape64; 3]);
    }

    #[test]
    fn empty_matrices_are_fine() {
        let m = Mat::<f64>::zeros(0, 5);
        assert!(m.is_empty());
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 0));
    }
}
