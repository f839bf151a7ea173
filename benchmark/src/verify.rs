//! Output checks that do not trust the code under test.
//!
//! * [`freivalds`] — for a distributed `C = op(A)·op(B)`: draws a random
//!   vector `x` and compares `C·x` with `op(A)·(op(B)·x)` row by row
//!   against the forward-error bound `γ·(|op(A)|·|op(B)|·|x|)`. O(n²)
//!   work, O(n) memory, and independent of the GEMM kernel, the
//!   communication schedule and the layouts: the operands are regenerated
//!   strip by strip from their seeds ([`dense::random::global_block`]) and
//!   multiplied with plain loops.
//! * [`product_sum`] — for a served request, whose response carries only
//!   the element sum of `C`: `Σ C = (op(A)ᵀ·1)·(op(B)·1)`.
//!
//! Neither check materialises a global matrix, so verifying inside the
//! measured process does not disturb its peak RSS.

use crate::rng::SplitMix64;
use dense::part::Rect;
use dense::random::global_block;
use dense::{Mat, Scalar};

/// Rows of a stored operand regenerated at a time.
const STRIP: usize = 32;

/// A seeded global matrix as a workload stores it, and how the multiply
/// reads it: `op(X) = Xᵀ` when `trans`.
#[derive(Clone, Copy, Debug)]
pub struct Stored {
    pub seed: u64,
    pub rows: usize,
    pub cols: usize,
    pub trans: bool,
}

impl Stored {
    /// Shape of `op(X)`.
    pub fn op_shape(&self) -> (usize, usize) {
        if self.trans {
            (self.cols, self.rows)
        } else {
            (self.rows, self.cols)
        }
    }

    /// `(op(X)·v, |op(X)|·vabs)`, regenerating `X` in row strips.
    fn apply<T: Scalar>(&self, v: &[f64], vabs: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (out_len, in_len) = self.op_shape();
        assert_eq!(v.len(), in_len, "vector length disagrees with op(X)");
        let mut out = vec![0.0; out_len];
        let mut out_abs = vec![0.0; out_len];
        for r0 in (0..self.rows).step_by(STRIP) {
            let rows = STRIP.min(self.rows - r0);
            let strip = global_block::<T>(self.seed, Rect::new(r0, 0, rows, self.cols));
            for i in 0..rows {
                let row = strip.row(i);
                if self.trans {
                    let (vi, vai) = (v[r0 + i], vabs[r0 + i]);
                    for (j, e) in row.iter().enumerate() {
                        let e = e.to_f64();
                        out[j] += e * vi;
                        out_abs[j] += e.abs() * vai;
                    }
                } else {
                    let (mut acc, mut acc_abs) = (0.0, 0.0);
                    for (j, e) in row.iter().enumerate() {
                        let e = e.to_f64();
                        acc += e * v[j];
                        acc_abs += e.abs() * vabs[j];
                    }
                    out[r0 + i] = acc;
                    out_abs[r0 + i] = acc_abs;
                }
            }
        }
        (out, out_abs)
    }
}

/// Outcome of a check: whether it passed, and how close the worst entry
/// came to its bound (`|residual| / bound`; a passing check is ≤ 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verdict {
    pub ok: bool,
    pub residual_ratio: f64,
}

impl Verdict {
    pub const FAIL: Verdict = Verdict {
        ok: false,
        residual_ratio: f64::INFINITY,
    };
}

/// Check vector entries in `±[0.5, 1)`: never near zero, so a single wrong
/// element of `C` always moves `C·x` by at least half its error.
fn check_vector(seed: u64, n: usize) -> Vec<f64> {
    let mut g = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let mag = 0.5 + 0.5 * g.unit();
            if g.next_u64() & 1 == 0 {
                mag
            } else {
                -mag
            }
        })
        .collect()
}

/// Freivalds check of a distributed product. `c_blocks` are the blocks of
/// `C` with the global rectangle each one covers; together they must tile
/// the `m × n` result exactly.
pub fn freivalds<T: Scalar>(
    a: Stored,
    b: Stored,
    c_blocks: &[(Rect, &Mat<T>)],
    check_seed: u64,
) -> Verdict {
    let (m, k) = a.op_shape();
    let (kb, n) = b.op_shape();
    if k != kb {
        return Verdict::FAIL;
    }
    let x = check_vector(check_seed, n);
    let x_abs: Vec<f64> = x.iter().map(|v| v.abs()).collect();

    // w = C·x from the distributed blocks, with a per-row coverage count.
    let mut w = vec![0.0; m];
    let mut covered = vec![0usize; m];
    for (rect, mat) in c_blocks {
        if mat.shape() != (rect.rows, rect.cols) || rect.row_end() > m || rect.col_end() > n {
            return Verdict::FAIL;
        }
        for i in 0..rect.rows {
            let acc: f64 = mat
                .row(i)
                .iter()
                .zip(&x[rect.col0..rect.col_end()])
                .map(|(c, xv)| c.to_f64() * xv)
                .sum();
            w[rect.row0 + i] += acc;
            covered[rect.row0 + i] += rect.cols;
        }
    }
    if covered.iter().any(|&c| c != n) {
        return Verdict::FAIL;
    }

    let (y, y_abs) = b.apply::<T>(&x, &x_abs);
    let (z, z_abs) = a.apply::<T>(&y, &y_abs);

    // Forward error of the length-k products inside C, of the length-n
    // products C·x, and of the reference's own two products, all bounded by
    // multiples of u·|A||B||x|; 4(k+n)u leaves a small safety factor.
    let gamma = 4.0 * (k + n) as f64 * (T::EPSILON.to_f64() / 2.0);
    let mut worst = 0.0f64;
    for i in 0..m {
        let bound = gamma * z_abs[i] + f64::MIN_POSITIVE;
        let ratio = (w[i] - z[i]).abs() / bound;
        // A NaN anywhere in C fails the check.
        if ratio.is_nan() || ratio > 1.0 {
            return Verdict {
                ok: false,
                residual_ratio: ratio,
            };
        }
        worst = worst.max(ratio);
    }
    Verdict {
        ok: true,
        residual_ratio: worst,
    }
}

/// Checks a served response's element sum: `Σ C = (op(A)ᵀ·1)·(op(B)·1)`.
pub fn product_sum<T: Scalar>(a: Stored, b: Stored, reported_sum: f64) -> Verdict {
    let (m, k) = a.op_shape();
    let (kb, n) = b.op_shape();
    if k != kb {
        return Verdict::FAIL;
    }
    // op(A)ᵀ·1 is op(Aᵀ) applied to ones.
    let a_t = Stored {
        trans: !a.trans,
        ..a
    };
    let (col_sums, col_abs) = a_t.apply::<T>(&vec![1.0; m], &vec![1.0; m]);
    let (row_sums, row_abs) = b.apply::<T>(&vec![1.0; n], &vec![1.0; n]);
    let reference: f64 = col_sums.iter().zip(&row_sums).map(|(a, b)| a * b).sum();
    let scale: f64 = col_abs.iter().zip(&row_abs).map(|(a, b)| a * b).sum();
    let gamma = 4.0 * (m + k + n) as f64 * (T::EPSILON.to_f64() / 2.0);
    let bound = gamma * scale + f64::MIN_POSITIVE;
    let ratio = (reported_sum - reference).abs() / bound;
    Verdict {
        ok: ratio <= 1.0,
        residual_ratio: ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gemm::{gemm_naive, GemmOp};

    fn product(a: Stored, b: Stored) -> Mat<f64> {
        let am = global_block::<f64>(a.seed, Rect::full(a.rows, a.cols));
        let bm = global_block::<f64>(b.seed, Rect::full(b.rows, b.cols));
        let (m, _) = a.op_shape();
        let (_, n) = b.op_shape();
        let mut c = Mat::zeros(m, n);
        let op = |t: bool| if t { GemmOp::Trans } else { GemmOp::NoTrans };
        gemm_naive(op(a.trans), op(b.trans), 1.0, &am, &bm, 0.0, &mut c);
        c
    }

    fn split_blocks(c: &Mat<f64>) -> Vec<(Rect, Mat<f64>)> {
        // an uneven 2×2 tiling, to exercise offsets
        let (m, n) = c.shape();
        let (rm, cn) = (m / 3, n / 2 + 1);
        [
            Rect::new(0, 0, rm, cn),
            Rect::new(0, cn, rm, n - cn),
            Rect::new(rm, 0, m - rm, cn),
            Rect::new(rm, cn, m - rm, n - cn),
        ]
        .into_iter()
        .map(|r| (r, c.block(r)))
        .collect()
    }

    fn refs(blocks: &[(Rect, Mat<f64>)]) -> Vec<(Rect, &Mat<f64>)> {
        blocks.iter().map(|(r, m)| (*r, m)).collect()
    }

    #[test]
    fn accepts_a_correct_product_in_every_op_combination() {
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            let (m, n, k) = (70, 45, 33);
            let a = Stored {
                seed: 11,
                rows: if ta { k } else { m },
                cols: if ta { m } else { k },
                trans: ta,
            };
            let b = Stored {
                seed: 22,
                rows: if tb { n } else { k },
                cols: if tb { k } else { n },
                trans: tb,
            };
            let c = product(a, b);
            let blocks = split_blocks(&c);
            let v = freivalds::<f64>(a, b, &refs(&blocks), 5);
            assert!(v.ok, "ta={ta} tb={tb}: ratio {}", v.residual_ratio);
            assert!(v.residual_ratio < 1.0);
            let sum: f64 = c.as_slice().iter().sum();
            assert!(
                product_sum::<f64>(a, b, sum).ok,
                "sum check ta={ta} tb={tb}"
            );
            assert!(!product_sum::<f64>(a, b, sum + 1e-6).ok);
        }
    }

    #[test]
    fn rejects_a_single_corrupted_element() {
        let a = Stored {
            seed: 1,
            rows: 96,
            cols: 64,
            trans: false,
        };
        let b = Stored {
            seed: 2,
            rows: 64,
            cols: 80,
            trans: false,
        };
        let c = product(a, b);
        for (i, j) in [(0, 0), (95, 79), (40, 41)] {
            let mut bad = c.clone();
            bad.set(i, j, bad.get(i, j) + 1e-6);
            let blocks = split_blocks(&bad);
            let v = freivalds::<f64>(a, b, &refs(&blocks), 5);
            assert!(!v.ok, "corruption at ({i},{j}) went unnoticed");
        }
        let mut nan = c.clone();
        nan.set(3, 3, f64::NAN);
        assert!(!freivalds::<f64>(a, b, &refs(&split_blocks(&nan)), 5).ok);
    }

    #[test]
    fn rejects_blocks_that_do_not_tile_c() {
        let a = Stored {
            seed: 1,
            rows: 20,
            cols: 10,
            trans: false,
        };
        let b = Stored {
            seed: 2,
            rows: 10,
            cols: 20,
            trans: false,
        };
        let c = product(a, b);
        let mut blocks = split_blocks(&c);
        blocks.pop();
        assert!(!freivalds::<f64>(a, b, &refs(&blocks), 5).ok);
    }

    #[test]
    fn f32_products_pass_at_f32_tolerance() {
        let a = Stored {
            seed: 3,
            rows: 40,
            cols: 24,
            trans: false,
        };
        let b = Stored {
            seed: 4,
            rows: 24,
            cols: 36,
            trans: false,
        };
        let am = global_block::<f32>(a.seed, Rect::full(a.rows, a.cols));
        let bm = global_block::<f32>(b.seed, Rect::full(b.rows, b.cols));
        let mut c = Mat::<f32>::zeros(40, 36);
        gemm_naive(GemmOp::NoTrans, GemmOp::NoTrans, 1.0, &am, &bm, 0.0, &mut c);
        let sum: f64 = c.as_slice().iter().map(|v| f64::from(*v)).sum();
        assert!(product_sum::<f32>(a, b, sum).ok);
        let blocks = [(Rect::full(40, 36), &c)];
        assert!(freivalds::<f32>(a, b, &blocks, 9).ok);
    }
}
