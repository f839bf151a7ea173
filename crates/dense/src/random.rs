//! Seeded random matrix generation.
//!
//! The paper's experiments "use randomly generated general non-zero
//! matrices" (artifact appendix §2.5). Everything here is deterministic in
//! the seed so that distributed tests can regenerate the *same* global
//! matrix independently on every rank.

use crate::mat::Mat;
use crate::part::Rect;
use crate::scalar::Scalar;

/// A SplitMix64 stream: small, fast, and plenty for test matrices. Using
/// our own generator (instead of an external crate) keeps the workspace
/// building with no network access.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(-1, 1)` (the top 53 bits mapped to `[0,1)`, affinely
    /// shifted).
    fn open_unit_signed(&mut self) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        2.0 * unit - 1.0
    }
}

/// Fills `m` with uniform values in `(-1, 1)`, deterministically in `seed`.
pub fn fill_random<T: Scalar>(m: &mut Mat<T>, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for v in m.as_mut_slice() {
        *v = T::from_f64(rng.open_unit_signed());
    }
}

/// A fresh `rows × cols` matrix filled by [`fill_random`].
pub fn random_mat<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Mat<T> {
    let mut m = Mat::zeros(rows, cols);
    fill_random(&mut m, seed);
    m
}

/// The value a seeded global matrix has at `(i, j)` — *independent of any
/// partitioning*. A hash of `(seed, i, j)` is mapped into `(-1, 1)`.
///
/// This is how ranks generate their local pieces of a logically shared
/// global matrix without ever materializing it: rank r fills its owned
/// region by evaluating `global_entry` pointwise, and a verifier can
/// recompute any entry.
pub fn global_entry<T: Scalar>(seed: u64, i: usize, j: usize) -> T {
    entry_in_row(row_term(seed, i), j)
}

/// The part of [`global_entry`]'s mix that depends only on the row.
#[inline]
fn row_term(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(1 + i as u64))
}

/// Column `j` of the row whose [`row_term`] is `row`.
fn entry_in_row<T: Scalar>(row: u64, j: usize) -> T {
    // SplitMix64-style mix of the coordinates; cheap and statistically fine
    // for generating test matrices.
    let mut z = row
        ^ (j as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // map the top 53 bits to (0,1), then to (-1,1)
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    T::from_f64(2.0 * unit - 1.0)
}

/// Materializes the `rect` region of the seeded global matrix defined by
/// [`global_entry`], one row slice at a time: the row term is computed once
/// per row and the columns are an exact-size `extend` the compiler
/// vectorises — no per-element capacity check, no zero-fill.
pub fn global_block<T: Scalar>(seed: u64, rect: Rect) -> Mat<T> {
    let mut data = Vec::with_capacity(rect.rows * rect.cols);
    for i in rect.row0..rect.row0 + rect.rows {
        let row = row_term(seed, i);
        data.extend((rect.col0..rect.col0 + rect.cols).map(|j| entry_in_row::<T>(row, j)));
    }
    Mat::from_vec(rect.rows, rect.cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_is_deterministic() {
        let a = random_mat::<f64>(10, 10, 42);
        let b = random_mat::<f64>(10, 10, 42);
        assert_eq!(a.as_slice(), b.as_slice());
        let c = random_mat::<f64>(10, 10, 43);
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn values_in_open_interval() {
        let a = random_mat::<f64>(50, 50, 7);
        assert!(a.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn global_entry_partition_independent() {
        let full = global_block::<f64>(99, Rect::new(0, 0, 8, 8));
        let piece = global_block::<f64>(99, Rect::new(3, 2, 4, 5));
        for i in 0..4 {
            for j in 0..5 {
                assert_eq!(piece.get(i, j), full.get(3 + i, 2 + j));
            }
        }
    }

    /// `global_block` is `global_entry` evaluated pointwise, bit for bit.
    fn assert_block_is_the_definition<T: Scalar>(bits: impl Fn(T) -> u64) {
        let widths = [0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 257];
        for (n, &cols) in widths.iter().enumerate() {
            for rows in [0, 1, 3] {
                let rect = Rect::new(5 * n, 1000 * n + 13, rows, cols);
                let seed = 0x5EED ^ ((n as u64) << 40);
                let block = global_block::<T>(seed, rect);
                assert_eq!(block.shape(), (rows, cols));
                for i in 0..rows {
                    for j in 0..cols {
                        let want: T = global_entry(seed, rect.row0 + i, rect.col0 + j);
                        assert_eq!(bits(block.get(i, j)), bits(want), "{rect:?} at ({i}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn global_block_equals_global_entry_pointwise() {
        assert_block_is_the_definition::<f64>(|v| v.to_bits());
        assert_block_is_the_definition::<f32>(|v| u64::from(v.to_bits()));
    }

    /// Literal values recorded at fa04ef2: every seeded artifact, benchmark
    /// verification and test operand depends on these bits.
    #[test]
    fn global_block_literal_pins() {
        let bits64 = |m: Mat<f64>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits64(global_block(42, Rect::new(5, 11, 3, 4))),
            [
                0x3fae5fb2b1da3ce0,
                0x3fe5de3d1a4af3c8,
                0xbfc82985840a1d70,
                0xbfd6167c30af2634,
                0xbfd2d30acbb3eaec,
                0x3feb488f6667da84,
                0x3fea6067cf493b6a,
                0xbfc5769bbf24b1e8,
                0xbfd7bb7eb48b7018,
                0x3feb01ddec6e2c0c,
                0xbfb1bd5246780370,
                0xbfe28c4a3b67ba92,
            ]
        );
        assert_eq!(
            bits64(global_block(u64::MAX, Rect::new(0, 0, 1, 3))),
            [0xbfcf914621832560, 0x3fd2645877c95588, 0xbfef46ec4e7f5582]
        );
        let b = global_block::<f32>(7, Rect::new(1000, 2000, 2, 5));
        assert_eq!(
            b.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            [
                0xbec4924a, 0x3cee4f33, 0x3ecdce62, 0x3f07c56e, 0xb917a64b, 0x3e5bdff2, 0xbf6ee97a,
                0xbe8f4aca, 0x3f62f514, 0xbf28af20,
            ]
        );
    }

    #[test]
    fn global_entry_range_and_spread() {
        let mut distinct = std::collections::HashSet::new();
        for i in 0..32usize {
            for j in 0..32usize {
                let v: f64 = global_entry(1, i, j);
                assert!((-1.0..1.0).contains(&v));
                distinct.insert(v.to_bits());
            }
        }
        // A decent mixer should essentially never collide on 1024 cells.
        assert!(distinct.len() > 1000, "only {} distinct", distinct.len());
    }
}
