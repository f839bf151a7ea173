//! The k-split GEMM (`gemm_ksplit`, `gemm_ksplit_new`) against the product
//! of the concatenated operands: bit for bit, for every available kernel,
//! f64 and f32, all four `op(A)`/`op(B)` combinations and both forms
//! (accumulate with `beta` 1 and 0.5, fresh product). The blocking is
//! pinned tiny (KC = 8, MC = 8, NC = 32), so part boundaries fall inside
//! depth slabs and the products cross the MC and NC blocks; the part
//! widths are uneven and include empty parts. A counting
//! `#[global_allocator]` (per thread, so concurrent tests stay uncounted)
//! checks that a zero-sized-scalar product allocates nothing.

use dense::gemm::GemmOp;
use dense::random::random_mat;
use dense::{gemm, gemm_ksplit, gemm_ksplit_new, gemm_new, Blocking, KernelKind, Mat, Scalar};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made on this thread while [`COUNTING`] is set.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Set only around the counted call.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    // `try_with`: a thread being torn down has no slot left to read.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic and touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const OPS: [GemmOp; 2] = [GemmOp::NoTrans, GemmOp::Trans];

/// The parts laid side by side (`side_by_side`) or stacked.
fn concat<T: Scalar>(parts: &[Mat<T>], side_by_side: bool) -> Mat<T> {
    let extent = |p: &Mat<T>| if side_by_side { p.cols() } else { p.rows() };
    let total = parts.iter().map(extent).sum();
    let locate = |mut d: usize| {
        for p in parts {
            if d < extent(p) {
                return (p, d);
            }
            d -= extent(p);
        }
        unreachable!("index inside the concatenation")
    };
    if side_by_side {
        Mat::from_fn(parts[0].rows(), total, |i, j| {
            let (p, l) = locate(j);
            p.get(i, l)
        })
    } else {
        Mat::from_fn(total, parts[0].cols(), |i, j| {
            let (p, l) = locate(i);
            p.get(l, j)
        })
    }
}

/// Bit patterns of a matrix's elements, `f32` widened exactly.
fn bits<T: Scalar>(c: &Mat<T>) -> Vec<u64> {
    c.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
}

fn check<T: Scalar>(kind: KernelKind) {
    let (m, n) = (13, 37);
    let alpha = T::from_f64(1.5);
    for widths in [&[5, 0, 11, 3][..], &[24, 24], &[0, 9], &[13]] {
        for (op_a, op_b) in OPS.into_iter().flat_map(|a| OPS.map(|b| (a, b))) {
            let part = |(rows, cols): (usize, usize), seed| random_mat::<T>(rows, cols, seed);
            let a_parts: Vec<_> = (widths.iter().enumerate())
                .map(|(r, &kr)| part(op_a.apply_shape(m, kr), 100 + r as u64))
                .collect();
            let b_parts: Vec<_> = (widths.iter().enumerate())
                .map(|(r, &kr)| part(op_b.apply_shape(kr, n), 200 + r as u64))
                .collect();
            let pairs: Vec<_> = a_parts.iter().zip(&b_parts).collect();
            let a = concat(&a_parts, op_a == GemmOp::NoTrans);
            let b = concat(&b_parts, op_b == GemmOp::Trans);
            let what = format!(
                "{} {}B widths {widths:?} {op_a:?}/{op_b:?}",
                kind.name(),
                size_of::<T>()
            );

            let split = gemm_ksplit_new(op_a, op_b, alpha, &pairs, Vec::new());
            let whole = gemm_new(op_a, op_b, alpha, &a, &b, Vec::new());
            assert_eq!(bits(&split), bits(&whole), "{what}: fresh product");

            let c0 = random_mat::<T>(m, n, 300);
            for beta in [1.0, 0.5].map(T::from_f64) {
                let (mut split, mut whole) = (c0.clone(), c0.clone());
                gemm_ksplit(op_a, op_b, alpha, &pairs, beta, &mut split);
                gemm(op_a, op_b, alpha, &a, &b, beta, &mut whole);
                assert_eq!(bits(&split), bits(&whole), "{what}: beta {beta}");
            }
        }
    }
}

#[test]
fn ksplit_product_equals_the_concatenated_product() {
    dense::set_gemm_blocking(Some(Blocking {
        mc: 8,
        kc: 8,
        nc: 32,
    }));
    for kind in KernelKind::ALL {
        if !kind.available() {
            continue;
        }
        dense::set_gemm_kernel(Some(kind));
        check::<f64>(kind);
        check::<f32>(kind);
    }
    dense::set_gemm_kernel(None);
    dense::set_gemm_blocking(None);
}

#[test]
fn shape_only_ksplit_product_allocates_nothing() {
    let a = [Mat::<dense::Shape64>::zeros(6, 5), Mat::zeros(6, 3)];
    let b = [Mat::<dense::Shape64>::zeros(5, 4), Mat::zeros(3, 4)];
    let pairs = [(&a[0], &b[0]), (&a[1], &b[1])];
    let nt = GemmOp::NoTrans;
    COUNTING.with(|c| c.set(true));
    let c = gemm_ksplit_new(nt, nt, dense::Shape64, &pairs, Vec::new());
    COUNTING.with(|c| c.set(false));
    assert_eq!(c.shape(), (6, 4));
    assert_eq!(
        ALLOCS.with(Cell::get),
        0,
        "allocations of a Shape64 product"
    );
}
