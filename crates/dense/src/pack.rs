//! Operand packing for the register-blocked GEMM kernel.
//!
//! The classic packed-panel design (Goto & van de Geijn; BLIS): before the
//! arithmetic starts, a block of `op(A)` is copied into *row panels* of
//! [`MR`] consecutive rows and a slab of `op(B)` into *column panels* of
//! [`NR`] consecutive columns, both laid out so the microkernel's inner
//! loop walks each panel with stride 1. Packing is where all the
//! irregularity is absorbed:
//!
//! * `Trans` operands are handled by index arithmetic during the copy, so
//!   the kernel never sees a strided operand and no full transpose is ever
//!   materialized;
//! * `alpha` is folded into the A panels (one multiply per element of `A`
//!   instead of one per inner-loop iteration);
//! * ragged edges are zero-padded up to the next `MR`/`NR` boundary, so the
//!   microkernel always runs fixed-trip loops — the scalar tail handling
//!   moves to the *store* of the accumulator block, not the hot loop.
//!
//! Since the five-loop blocked rewrite the packers are *block-wise*: the
//! unit of A packing is an `MC×KC` block ([`pack_a_block_into`]) and the
//! unit of B packing is a single `KC×NR` strip ([`pack_b_strip_into`]), so
//! a GEMM call only ever materializes one cache-sized slab of each operand
//! (never a full `m×k`/`k×n` packed copy) and the strips can be packed in
//! parallel by the [`pool`](crate::pool) workers. A whole operand is the
//! degenerate case: one block spanning all of `op(A)`, every strip of `op(B)`.
//! A product split along `k` ([`gemm_ksplit`](crate::gemm::gemm_ksplit))
//! packs each part into its own depth range of the slab's panels, so the
//! packed panels equal those of the concatenated operands.
//!
//! Since the dispatched-microkernel rewrite the panel geometry is a
//! *runtime parameter*: the block/strip packers take the `mr`/`nr` of the
//! [`kernel`](crate::kernel) selected for the call, because each kernel
//! has its own register-block shape. The [`MR`]/[`NR`] constants remain as
//! the portable kernel's geometry.
//!
//! Panel layouts (`kk` is the packed depth of the slab, `mr`/`nr` the
//! selected kernel's register-block shape):
//!
//! * packed A block: strip `s` holds rows `s*mr .. s*mr+mr` of the block,
//!   stored `l`-major — element `(i, l)` of the strip at `(s*kk + l)*mr + i`;
//! * packed B slab: strip `t` holds columns `t*nr .. t*nr+nr` of the slab,
//!   stored `l`-major — element `(l, j)` of the strip at `(t*kk + l)*nr + j`.
//!
//! Both loads in the microkernel are therefore contiguous `mr`- and
//! `nr`-wide runs advancing together down `l`.

use crate::gemm::GemmOp;
use crate::mat::Mat;
use crate::scalar::Scalar;
use std::ops::Range;

/// Rows per A panel strip for the *portable* kernel. The packers take the
/// selected kernel's `mr` instead — see [`crate::kernel::KernelKind::geom`].
pub const MR: usize = 4;
/// Columns per B panel strip for the *portable* kernel.
///
/// `4×16` keeps the f64 accumulator block at eight 512-bit registers (or
/// sixteen 256-bit ones) — the widest shape that stays fully enregistered
/// on x86-64 when the autovectorizer carries the tile; the intrinsics
/// kernels use their own shapes.
pub const NR: usize = 16;

/// Packs rows `i0 .. i0+rows` of `alpha * op(A)`, depths `p0 ..
/// p0+depths.len()`, into the `mr`-row panels in `buf` at panel depths
/// `depths` — a whole operand is `depths = 0..kk`; one part of a k-split
/// product fills its own range of each `kk`-deep panel, the contiguous
/// `panel[d0*mr..d1*mr]`.
///
/// `buf` must hold exactly `rows.div_ceil(mr) * kk * mr` elements; every
/// element in `depths` is written (rows beyond `rows` are zeroed), so the
/// buffer needs no pre-clearing.
#[allow(clippy::too_many_arguments)]
pub fn pack_a_block_into<T: Scalar>(
    op: GemmOp,
    alpha: T,
    a: &Mat<T>,
    i0: usize,
    p0: usize,
    rows: usize,
    depths: Range<usize>,
    kk: usize,
    mr: usize,
    buf: &mut [T],
) {
    let strips = rows.div_ceil(mr);
    assert_eq!(buf.len(), strips * kk * mr, "A pack buffer size mismatch");
    assert!(depths.end <= kk, "depth range outside the panel");
    let depth = depths.len();
    let ld = a.cols();
    let src = a.as_slice();
    for s in 0..strips {
        let r0 = s * mr;
        let rows_here = mr.min(rows - r0);
        let panel = &mut buf[s * kk * mr..(s + 1) * kk * mr][depths.start * mr..depths.end * mr];
        if rows_here < mr {
            panel.fill(T::ZERO);
        }
        match op {
            // op(A)[i][l] = a[i][l]: gather mr rows, interleaving them
            // l-major.
            GemmOp::NoTrans => {
                for di in 0..rows_here {
                    let row = &src[(i0 + r0 + di) * ld + p0..(i0 + r0 + di) * ld + p0 + depth];
                    for (l, &v) in row.iter().enumerate() {
                        panel[l * mr + di] = alpha * v;
                    }
                }
            }
            // op(A)[i][l] = a[l][i] (a stored k × m): each source row l
            // already holds the mr destination values contiguously.
            GemmOp::Trans => {
                for l in 0..depth {
                    let run = &src[(p0 + l) * ld + i0 + r0..(p0 + l) * ld + i0 + r0 + rows_here];
                    for (di, &v) in run.iter().enumerate() {
                        panel[l * mr + di] = alpha * v;
                    }
                }
            }
        }
    }
}

/// Packs one `kk × nr` strip of `op(B)` — columns `j0 .. j0+cols_here`,
/// depth `p0 .. p0+kk` — into `buf` (`kk * nr` elements, `l`-major).
///
/// Every element is written (columns beyond `cols_here` are zeroed), so
/// strips can be packed independently — and therefore in parallel — into
/// disjoint regions of one slab buffer. One part of a k-split product
/// fills depths `d0 .. d1` of a strip: the contiguous `buf[d0*nr..d1*nr]`.
#[allow(clippy::too_many_arguments)]
pub fn pack_b_strip_into<T: Scalar>(
    op: GemmOp,
    b: &Mat<T>,
    p0: usize,
    j0: usize,
    kk: usize,
    cols_here: usize,
    nr: usize,
    buf: &mut [T],
) {
    assert_eq!(buf.len(), kk * nr, "B strip buffer size mismatch");
    let ld = b.cols();
    let src = b.as_slice();
    match op {
        // op(B)[l][j] = b[l][j]: each source row l holds the nr destination
        // values contiguously.
        GemmOp::NoTrans => {
            for l in 0..kk {
                let run = &src[(p0 + l) * ld + j0..(p0 + l) * ld + j0 + cols_here];
                let dst = &mut buf[l * nr..(l + 1) * nr];
                dst[..cols_here].copy_from_slice(run);
                dst[cols_here..].fill(T::ZERO);
            }
        }
        // op(B)[l][j] = b[j][l] (b stored n × k): gather nr rows,
        // interleaving them l-major.
        GemmOp::Trans => {
            if cols_here < nr {
                buf.fill(T::ZERO);
            }
            for dj in 0..cols_here {
                let row = &src[(j0 + dj) * ld + p0..(j0 + dj) * ld + p0 + kk];
                for (l, &v) in row.iter().enumerate() {
                    buf[l * nr + dj] = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_a_ref(op: GemmOp, a: &Mat<f64>, i: usize, l: usize) -> f64 {
        match op {
            GemmOp::NoTrans => a.get(i, l),
            GemmOp::Trans => a.get(l, i),
        }
    }

    #[test]
    fn pack_a_layout_and_padding() {
        let (m, k) = (MR + 1, 3); // one full strip + a 1-row tail strip
        for op in [GemmOp::NoTrans, GemmOp::Trans] {
            let a = match op {
                GemmOp::NoTrans => Mat::from_fn(m, k, |i, j| (i * 10 + j) as f64),
                GemmOp::Trans => Mat::from_fn(k, m, |i, j| (j * 10 + i) as f64),
            };
            let mut buf = vec![9.0; 2 * k * MR];
            pack_a_block_into(op, 1.0, &a, 0, 0, m, 0..k, k, MR, &mut buf);
            for s in 0..2 {
                for l in 0..k {
                    for di in 0..MR {
                        let want = if s * MR + di < m {
                            op_a_ref(op, &a, s * MR + di, l)
                        } else {
                            0.0
                        };
                        assert_eq!(
                            buf[(s * k + l) * MR + di],
                            want,
                            "{op:?} s={s} l={l} i={di}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pack_a_folds_alpha() {
        let a = Mat::from_fn(2, 2, |i, j| (i * 2 + j + 1) as f64);
        let mut buf = vec![0.0; 2 * MR];
        pack_a_block_into(GemmOp::NoTrans, 3.0, &a, 0, 0, 2, 0..2, 2, MR, &mut buf);
        assert_eq!(buf[0], 3.0); // (0,0) * alpha
        assert_eq!(buf[MR], 6.0); // (0,1) * alpha at l=1
    }

    #[test]
    fn pack_b_layout_and_padding() {
        let (k, n) = (3usize, NR + 2); // one full strip + a 2-col tail strip
        for op in [GemmOp::NoTrans, GemmOp::Trans] {
            let b = match op {
                GemmOp::NoTrans => Mat::from_fn(k, n, |i, j| (i * 100 + j) as f64),
                GemmOp::Trans => Mat::from_fn(n, k, |i, j| (j * 100 + i) as f64),
            };
            let mut buf = vec![9.0; 2 * k * NR];
            for (t, strip) in buf.chunks_mut(k * NR).enumerate() {
                let cols_here = NR.min(n - t * NR);
                pack_b_strip_into(op, &b, 0, t * NR, k, cols_here, NR, strip);
            }
            for t in 0..2 {
                for l in 0..k {
                    for dj in 0..NR {
                        let want = if t * NR + dj < n {
                            (l * 100 + t * NR + dj) as f64
                        } else {
                            0.0
                        };
                        assert_eq!(
                            buf[(t * k + l) * NR + dj],
                            want,
                            "{op:?} t={t} l={l} j={dj}"
                        );
                    }
                }
            }
        }
    }

    /// A sub-block pack holds the corresponding window of `alpha·op(A)` —
    /// the interior-block case the five-loop kernel depends on.
    #[test]
    fn pack_a_block_matches_full_pack_window() {
        let (m, k) = (3 * MR + 2, 17);
        let (i0, p0, rows, kk) = (MR, 5, MR + 3, 7); // unaligned interior
        for op in [GemmOp::NoTrans, GemmOp::Trans] {
            let a = match op {
                GemmOp::NoTrans => Mat::from_fn(m, k, |i, j| (i * 31 + j) as f64),
                GemmOp::Trans => Mat::from_fn(k, m, |i, j| (j * 31 + i) as f64),
            };
            let mut buf = vec![9.0; rows.div_ceil(MR) * kk * MR];
            pack_a_block_into(op, 2.0, &a, i0, p0, rows, 0..kk, kk, MR, &mut buf);
            for s in 0..rows.div_ceil(MR) {
                for l in 0..kk {
                    for di in 0..MR {
                        let want = if s * MR + di < rows {
                            2.0 * op_a_ref(op, &a, i0 + s * MR + di, p0 + l)
                        } else {
                            0.0
                        };
                        assert_eq!(
                            buf[(s * kk + l) * MR + di],
                            want,
                            "{op:?} s={s} l={l} i={di}"
                        );
                    }
                }
            }
        }
    }

    /// The packers honor a non-default (runtime) kernel geometry: layout
    /// and zero-padding follow the passed `mr`/`nr`, not the constants.
    #[test]
    fn pack_with_runtime_geometry() {
        let (mr, nr) = (6usize, 12usize);
        // A: mr+2 rows -> one full strip + a 2-row tail strip.
        let (rows, kk) = (mr + 2, 5usize);
        let a = Mat::from_fn(rows, kk, |i, j| (i * 10 + j) as f64);
        let mut abuf = vec![9.0; rows.div_ceil(mr) * kk * mr];
        pack_a_block_into(
            GemmOp::NoTrans,
            1.0,
            &a,
            0,
            0,
            rows,
            0..kk,
            kk,
            mr,
            &mut abuf,
        );
        for s in 0..rows.div_ceil(mr) {
            for l in 0..kk {
                for di in 0..mr {
                    let want = if s * mr + di < rows {
                        ((s * mr + di) * 10 + l) as f64
                    } else {
                        0.0
                    };
                    assert_eq!(abuf[(s * kk + l) * mr + di], want, "s={s} l={l} i={di}");
                }
            }
        }
        // B: a ragged strip of 7 of nr=12 columns.
        let b = Mat::from_fn(kk, nr + 7, |i, j| (i * 100 + j) as f64);
        let mut bbuf = vec![7.0; kk * nr];
        pack_b_strip_into(GemmOp::NoTrans, &b, 0, nr, kk, 7, nr, &mut bbuf);
        for l in 0..kk {
            for dj in 0..nr {
                let want = if dj < 7 {
                    (l * 100 + nr + dj) as f64
                } else {
                    0.0
                };
                assert_eq!(bbuf[l * nr + dj], want, "l={l} j={dj}");
            }
        }
    }

    /// Strip packing at an interior (p0, j0) offset, including the padded
    /// ragged-tail case, for both ops.
    #[test]
    fn pack_b_strip_interior_offsets() {
        let (k, n) = (11usize, 2 * NR + 5);
        let (p0, kk) = (3usize, 6usize);
        for op in [GemmOp::NoTrans, GemmOp::Trans] {
            let b = match op {
                GemmOp::NoTrans => Mat::from_fn(k, n, |i, j| (i * 100 + j) as f64),
                GemmOp::Trans => Mat::from_fn(n, k, |i, j| (j * 100 + i) as f64),
            };
            for (j0, cols_here) in [(NR, NR), (2 * NR, 5)] {
                let mut buf = vec![7.0; kk * NR];
                pack_b_strip_into(op, &b, p0, j0, kk, cols_here, NR, &mut buf);
                for l in 0..kk {
                    for dj in 0..NR {
                        let want = if dj < cols_here {
                            ((p0 + l) * 100 + j0 + dj) as f64
                        } else {
                            0.0
                        };
                        assert_eq!(buf[l * NR + dj], want, "{op:?} j0={j0} l={l} j={dj}");
                    }
                }
            }
        }
    }
}
