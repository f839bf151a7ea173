//! Local (shared-memory) matrix multiplication.
//!
//! Plays the role of the OpenMP-parallel BLAS library in the paper's
//! artifact (§III-F: "Local (shared-memory) matrix multiplications are
//! handled by an OpenMP-parallelized BLAS library"). The implementation is
//! the canonical five-loop blocked design (Goto & van de Geijn; BLIS),
//! with cache-blocking parameters derived at runtime by [`tune`]:
//!
//! ```text
//! loop 5  jc over n in steps of NC      (B slab column panel)
//! loop 4  pc over k in steps of KC      (depth slab; packs Bp = KC×NC)
//! loop 3  ic over m in steps of MC      (A block;     packs Ap = MC×KC)
//! loop 2  jr over NC in steps of nr     (B strip, L1-resident)
//! loop 1  ir over MC in steps of mr     (microkernel: mr×nr registers)
//! ```
//!
//! * The `mr×nr` register block is *dispatched at runtime*: the [`kernel`]
//!   module selects a portable, AVX2+FMA, or AVX-512 microkernel
//!   (pinned per thread by [`kernel::set_gemm_kernel`]), and the selected
//!   kernel's geometry parameterizes packing, blocking, and the scratch
//!   sizes below.
//! * The kernel writes a full `mr×nr` tile of `C` from its registers (its
//!   own `beta` epilogue); only edge tiles go through a stack tile and a
//!   clipped store. `C` is therefore touched once per element and depth
//!   slab, and a `beta = 0` pass never reads it — which is what lets
//!   [`gemm_ksplit_new`] return a product in memory that was never
//!   zero-filled.
//! * Only one `KC×NC` slab of `op(B)` and one `MC×KC` block of
//!   `alpha·op(A)` are ever packed at a time (see [`pack`]) — the packed
//!   working set is bounded by the cache-derived blocking, not by the
//!   matrix sizes, unlike the previous whole-operand pack whose footprint
//!   was `O(mk + kn)`.
//! * Both pack phases and the macro-tile compute phase are parallelized
//!   over the persistent [`pool`] with the shared chunk-counter scheme
//!   (`pool::parallel_chunks`): B-slab strips are packed cooperatively,
//!   then the `(jc, ic)` macro-tiles of `C` are claimed dynamically —
//!   every thread works from the *same* packed B slab and owns a
//!   contiguous `MC`-row band of `C`, packing its own A block into
//!   thread-local scratch. Both scratch buffers are reused across calls
//!   and zero-filled on growth by the thread that owns them (the submitter
//!   for the B slab).
//! * An operand may arrive in pieces along `k` ([`gemm_ksplit`]: Cannon's
//!   batched rounds): each depth slab is packed straight from the pieces
//!   it spans, so one call makes one pass over `C` per slab whatever the
//!   number of pieces, and the result equals the concatenated product's
//!   bit for bit.
//! * The parallel width honours [`pool::gemm_threads`] — process-wide
//!   `set_gemm_threads()` / `DENSE_GEMM_THREADS`, divided per rank by
//!   `msgpass::World::run` so P ranks do not oversubscribe the host.
//!
//! Every `C` element is accumulated in the same order regardless of the
//! thread width — depth slabs arrive in ascending `pc` order, each applied
//! exactly once per element, and the microkernel sums `l` in order within a
//! slab — so results are bitwise identical for any thread count *for a
//! given kernel* (pinned by tests per kernel; kernels differ from each
//! other by FMA rounding). `MC` is allowed to shrink with the thread width
//! (for scheduling grain) precisely because the per-element summation
//! order depends only on `KC`, never on `MC`/`NC`.

use crate::kernel::{self, KernelKind};
use crate::mat::Mat;
use crate::pack;
use crate::pool;
use crate::prof;
use crate::scalar::Scalar;
use crate::tune;
use std::any::Any;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::Ordering;

std::thread_local! {
    /// Reused packed-B slab buffer for the thread *submitting* a GEMM
    /// (type-erased because `gemm` is generic): steady-state iteration
    /// (e.g. Cannon shifts) never re-allocates it.
    static BP_SCRATCH: RefCell<Option<Box<dyn Any>>> = const { RefCell::new(None) };
    /// Reused packed-A block buffer, one per participating thread (pool
    /// workers and submitters alike pack their own A blocks).
    static AP_SCRATCH: RefCell<Option<Box<dyn Any>>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's reusable `Vec<T>` scratch from `cell`,
/// growing it to at least `len` elements first (never shrinking, so
/// steady-state repeats do not re-allocate).
fn with_scratch<T: Scalar, R>(
    cell: &'static std::thread::LocalKey<RefCell<Option<Box<dyn Any>>>>,
    len: usize,
    f: impl FnOnce(&mut Vec<T>) -> R,
) -> R {
    cell.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot
            .as_mut()
            .and_then(|b| b.downcast_mut::<Vec<T>>())
            .is_none()
        {
            *slot = Some(Box::new(Vec::<T>::new()));
        }
        let buf = slot
            .as_mut()
            .and_then(|b| b.downcast_mut::<Vec<T>>())
            .expect("scratch was just installed for this scalar type");
        if buf.len() < len {
            buf.resize(len, T::ZERO);
        }
        f(buf)
    })
}

/// Whether an operand is used as-is or transposed (the `op()` of
/// `C = op(A) × op(B)` in the paper, eq. after (8)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GemmOp {
    /// Use the operand as stored.
    NoTrans,
    /// Use the transpose of the operand.
    Trans,
}

impl GemmOp {
    /// Parses the artifact CLI's `0`/`1` convention.
    pub fn from_flag(flag: u32) -> Self {
        if flag == 0 {
            GemmOp::NoTrans
        } else {
            GemmOp::Trans
        }
    }

    /// The shape of `op(X)` given the stored shape of `X`.
    pub fn apply_shape(&self, rows: usize, cols: usize) -> (usize, usize) {
        match self {
            GemmOp::NoTrans => (rows, cols),
            GemmOp::Trans => (cols, rows),
        }
    }
}

/// Below this many flops (`2mnk`) the kernel stays single-threaded: the
/// fork-join submit/wake cost would exceed the win. Roughly an 80³ f64
/// multiply (~30 µs on one AVX-512 core).
const PARALLEL_FLOP_CUTOFF: usize = 1 << 20;

/// A raw matrix pointer that may cross into pool workers. All dereferences
/// target regions proven disjoint per claimed chunk (B-slab strips during
/// packing, `MC`-row C bands during compute), and `pool::parallel_chunks`
/// guarantees the pointee outlives every dereference.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `SendPtr` — edition-2021 disjoint capture would otherwise move just
    /// the raw pointer field, which is not `Sync`.
    fn get(self) -> *mut T {
        self.0
    }
}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

/// Loops 2 + 1: multiplies one packed `rows×kk` A block against one packed
/// `kk×nc_here` B slab and folds the result into the `C` tile at
/// `(i0, jc)`: `C = beta·C + Ap·Bp` (the caller passes `beta` on the first
/// depth slab and `1` afterwards, so `beta·C` is applied exactly once).
/// The register block is `mr×nr` — the geometry of the dispatched `kind`
/// ([`kernel::microkernel`]), which both panels were packed for. A full
/// register tile is written to `C` by the kernel's own epilogue; only an
/// edge tile (clipped by `rows` or `nc_here`) goes through a stack tile
/// and a clipped store.
///
/// # Safety
/// `c` must point at the start of a `ldc`-pitch row-major matrix with at
/// least `i0 + rows` rows and `jc + nc_here` columns, and no other thread
/// may touch rows `i0 .. i0+rows` of columns `jc .. jc+nc_here` while this
/// runs (the compute phase partitions C into disjoint `MC`-row bands).
/// Those elements must be initialised unless `beta = 0`: a `beta = 0` pass
/// only writes them.
#[allow(clippy::too_many_arguments)]
unsafe fn macro_kernel<T: Scalar>(
    kind: KernelKind,
    mr: usize,
    nr: usize,
    ap: &[T],
    bp: &[T],
    rows: usize,
    kk: usize,
    nc_here: usize,
    beta: T,
    c: SendPtr<T>,
    ldc: usize,
    i0: usize,
    jc: usize,
) {
    let a_strips = rows.div_ceil(mr);
    let b_strips = nc_here.div_ceil(nr);
    // The edge tiles' mr×nr staging block. MAX_ACC bounds every kernel
    // geometry, so this lives on the stack; the kernel overwrites it.
    let mut edge = [T::ZERO; kernel::MAX_ACC];
    for jr in 0..b_strips {
        let bpanel = &bp[jr * kk * nr..(jr + 1) * kk * nr];
        let j0 = jr * nr;
        let cols = nr.min(nc_here - j0);
        for ir in 0..a_strips {
            let apanel = &ap[ir * kk * mr..(ir + 1) * kk * mr];
            let r0 = ir * mr;
            let rows_here = mr.min(rows - r0);
            // SAFETY: row i0+r0 < i0+rows and column jc+j0 < jc+nc_here lie
            // inside C (the function contract).
            let dst = unsafe { c.get().add((i0 + r0) * ldc + jc + j0) };
            if rows_here == mr && cols == nr {
                // SAFETY: the whole mr×nr tile at dst is inside C and owned
                // by this call; the contract covers beta's read.
                unsafe { kernel::microkernel(kind, apanel, bpanel, kk, beta, dst, ldc) };
                continue;
            }
            // Clipped store: the zero-padded panels make the kernel
            // edge-free; partial blocks are trimmed only here.
            kernel::microkernel_tile(kind, apanel, bpanel, kk, T::ZERO, &mut edge);
            for i in 0..rows_here {
                // SAFETY: row i0+r0+i, columns jc+j0 .. +cols of C, owned
                // by this tile.
                unsafe { kernel::store_row(beta, dst.add(i * ldc), &edge[i * nr..i * nr + cols]) };
            }
        }
    }
}

fn scale_in_place<T: Scalar>(c: &mut Mat<T>, beta: T) {
    if beta == T::ONE {
        return;
    }
    if beta == T::ZERO {
        c.as_mut_slice().fill(T::ZERO);
    } else {
        for v in c.as_mut_slice() {
            *v *= beta;
        }
    }
}

/// The `MC` actually used: the tuned value, shrunk when the thread width
/// would otherwise leave fewer than ~3 macro-tiles per thread to claim
/// (dynamic chunk scheduling needs slack to balance). Safe to vary freely:
/// the per-element summation order depends only on `KC`, so results stay
/// bitwise identical across widths (and across the `MC` values they pick).
fn effective_mc(mc: usize, m: usize, width: usize, mr: usize) -> usize {
    if width <= 1 {
        return mc;
    }
    let cap = m.div_ceil(3 * width).next_multiple_of(mr);
    mc.min(cap).max(mr)
}

/// The floating-point operation count of one `m×k · k×n` GEMM — the
/// standard `2mnk` (one multiply + one add per inner-product term). This is
/// the quantity a virtual-time run charges its clock with in place of
/// executing the kernel, so it must stay the *nominal* count, independent
/// of blocking or threading.
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// The `m×k · k×n` shape of `Σ_r op(A_r)·op(B_r)`, `k = Σ_r k_r`.
///
/// # Panics
/// If there are no pairs, a pair's inner dimensions disagree, or two
/// pairs' `m` or `n` do.
fn product_shape<T: Scalar, M: Borrow<Mat<T>>>(
    op_a: GemmOp,
    op_b: GemmOp,
    pairs: &[(M, M)],
) -> (usize, usize, usize) {
    let mut shape = None;
    let mut k = 0;
    for (a, b) in pairs {
        let (a, b) = (a.borrow(), b.borrow());
        let (m, ka) = op_a.apply_shape(a.rows(), a.cols());
        let (kb, n) = op_b.apply_shape(b.rows(), b.cols());
        assert_eq!(
            ka, kb,
            "inner dimensions disagree: op(A) is {m}x{ka}, op(B) is {kb}x{n}"
        );
        let (m0, n0) = *shape.get_or_insert((m, n));
        assert_eq!((m, n), (m0, n0), "k-split parts disagree on m×n");
        k += ka;
    }
    let (m, n) = shape.expect("a product needs at least one (A, B) pair");
    (m, n, k)
}

/// The parts of a k-split product that meet the depth window `[p0, p0 +
/// kk)` of the concatenated `op(A)`/`op(B)`: `(A_r, B_r, first depth in
/// the part, window depths d0..d1 it supplies)`, in k order.
fn depth_pieces<T: Scalar, M: Borrow<Mat<T>>>(
    op_a: GemmOp,
    pairs: &[(M, M)],
    p0: usize,
    kk: usize,
) -> impl Iterator<Item = (&Mat<T>, &Mat<T>, usize, Range<usize>)> {
    pairs
        .iter()
        .scan(0, move |k0, (a, b)| {
            let (a, b) = (a.borrow(), b.borrow());
            let start = *k0;
            *k0 += op_a.apply_shape(a.rows(), a.cols()).1;
            Some((a, b, start, *k0))
        })
        .filter_map(move |(a, b, start, end)| {
            let (lo, hi) = (start.max(p0), end.min(p0 + kk));
            (lo < hi).then(|| (a, b, lo - start, lo - p0..hi - p0))
        })
}

/// `C = alpha * op(A) * op(B) + beta * C`, cache-blocked (five-loop
/// Goto/BLIS structure, KC/MC/NC from [`tune`]), packed,
/// register-blocked, and parallel over the persistent
/// [`pool`].
///
/// Shapes after applying the ops must agree:
/// `op(A): m×k`, `op(B): k×n`, `C: m×n`.
///
/// Results are bitwise identical for any kernel-thread width.
///
/// # Panics
/// On any shape mismatch.
pub fn gemm<T: Scalar>(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: T,
    a: &Mat<T>,
    b: &Mat<T>,
    beta: T,
    c: &mut Mat<T>,
) {
    gemm_ksplit(op_a, op_b, alpha, &[(a, b)], beta, c)
}

/// [`gemm`] of a product split along `k`: `C = alpha · Σ_r op(A_r) ·
/// op(B_r) + beta · C`, where `op(A) = [op(A_0) op(A_1) …]` and `op(B)`
/// stacks the `op(B_r)` in the same order. The packers fill each depth
/// slab straight from the parts, so the packed panels — and the result —
/// equal [`gemm`] of the concatenated operands bit for bit, without
/// building them: one pass over `C` per depth slab, not per part. A part
/// may be empty (`k_r = 0`); a single product is the one-element slice.
///
/// # Panics
/// On any shape mismatch, or if `pairs` is empty.
pub fn gemm_ksplit<T: Scalar, M: Borrow<Mat<T>> + Sync>(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: T,
    pairs: &[(M, M)],
    beta: T,
    c: &mut Mat<T>,
) {
    let (m, n, k) = product_shape(op_a, op_b, pairs);
    assert_eq!(c.shape(), (m, n), "C is {:?}, expected {m}x{n}", c.shape());
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == T::ZERO {
        scale_in_place(c, beta);
        return;
    }
    // SAFETY: `c` is an initialised, exclusively borrowed m×n matrix.
    unsafe {
        gemm_raw(
            op_a,
            op_b,
            alpha,
            pairs,
            beta,
            c.as_mut_slice().as_mut_ptr(),
            (m, n, k),
        )
    }
}

/// `alpha · Σ_r op(A_r) · op(B_r)` ([`gemm_ksplit`]'s product; a single
/// product is the one-element slice) as a new `m×n` matrix in `buf`'s
/// memory — its elements are discarded and it grows if it is too small;
/// pass `Vec::new()` to allocate — never zero-filled: the `beta = 0` pass
/// writes every element of `C` before anything reads it. A caller that
/// reserves `buf` early keeps the allocation where a zero-filled `C` used
/// to be made. It equals [`gemm`] with `beta = 1` into [`Mat::zeros`] bit
/// for bit — the accumulators start from `+0.0`, so `0 + acc` is `acc` —
/// except where an FMA kernel's sum underflows to `−0.0`, which the
/// zero-filled `C` would turn into `+0.0`. `k = 0` or `alpha = 0` yields
/// zeros; a zero-sized scalar ([`crate::Shape64`]) allocates nothing.
///
/// # Panics
/// On any shape mismatch, or if `pairs` is empty.
pub fn gemm_ksplit_new<T: Scalar, M: Borrow<Mat<T>> + Sync>(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: T,
    pairs: &[(M, M)],
    mut buf: Vec<T>,
) -> Mat<T> {
    let (m, n, k) = product_shape(op_a, op_b, pairs);
    if std::mem::size_of::<T>() == 0 || m == 0 || n == 0 || k == 0 || alpha == T::ZERO {
        return Mat::zeros(m, n);
    }
    buf.clear();
    buf.reserve(m * n);
    let c = buf.as_mut_ptr();
    // SAFETY: the buffer has room for m·n elements; with beta = 0 every
    // one of them is written (and none read) before `gemm_raw` returns, so
    // the length may then cover them.
    unsafe {
        gemm_raw(op_a, op_b, alpha, pairs, T::ZERO, c, (m, n, k));
        buf.set_len(m * n);
    }
    Mat::from_vec(m, n, buf)
}

/// The blocked multiply behind [`gemm_ksplit`] and [`gemm_ksplit_new`]
/// for `m, n, k ≥ 1` and `alpha ≠ 0`, writing through a raw `C` pointer.
///
/// # Safety
/// `c` must address `m·n` row-major elements, valid for writes, not
/// aliased while this runs, and initialised unless `beta = 0` (the first
/// depth slab then writes every element before a later slab reads it).
unsafe fn gemm_raw<T: Scalar, M: Borrow<Mat<T>> + Sync>(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: T,
    pairs: &[(M, M)],
    beta: T,
    c: *mut T,
    (m, n, k): (usize, usize, usize),
) {
    let kind = kernel::gemm_kernel_for::<T>();
    let (mr, nr) = kind.geom(std::mem::size_of::<T>());
    let bl = tune::blocking_for::<T>(kind);
    let width = if m.saturating_mul(n).saturating_mul(k).saturating_mul(2) < PARALLEL_FLOP_CUTOFF {
        1
    } else {
        pool::gemm_threads().max(1)
    };
    let kc = bl.kc;
    let nc = bl.nc;
    let mc = effective_mc(bl.mc, m, width, mr);
    let tiles = m.div_ceil(mc);
    let ldc = n;
    let c_ptr = SendPtr(c);

    // Kernel profiling (off: one thread-local read, `cp` stays `None` and
    // every instrumentation site below is an untaken branch). The counters
    // live on this stack frame; region closures bump them through `cpr`.
    let cp = prof::call_begin();
    let cpr = cp.as_ref();
    let elem = std::mem::size_of::<T>();

    // Largest B slab this call packs; grown once, reused across slabs and
    // across calls via the thread-local scratch. The padded-strip count
    // must round *up* to nr: a pinned blocking's nc need not be a
    // multiple of the dispatched kernel's nr.
    let bp_cap = nc.min(n).next_multiple_of(nr) * kc.min(k);
    with_scratch(&BP_SCRATCH, bp_cap, |bp: &mut Vec<T>| {
        let bp_ptr = SendPtr(bp.as_mut_ptr());
        let mut jc = 0;
        while jc < n {
            let nc_here = nc.min(n - jc);
            let b_strips = nc_here.div_ceil(nr);
            let mut pc = 0;
            let mut slab = 0usize;
            while pc < k {
                let kc_here = kc.min(k - pc);
                let beta_here = if slab == 0 { beta } else { T::ONE };

                // Loop 4 prologue: pack Bp = op(B)[pc.., jc..] (KC×NC)
                // cooperatively — strips are independent, zero-padded by
                // the packer, and land in disjoint regions of the slab.
                let strip_group = b_strips.div_ceil(4 * width).max(1);
                let pack_chunks = b_strips.div_ceil(strip_group);
                pool::parallel_chunks(width, pack_chunks, &move |chunk| {
                    let prof_t0 = cpr.map(|_| prof::now_ns());
                    let t0 = chunk * strip_group;
                    let t1 = (t0 + strip_group).min(b_strips);
                    for t in t0..t1 {
                        // SAFETY: strip t owns bp[t*kc_here*nr ..
                        // (t+1)*kc_here*nr); strips are disjoint and the
                        // buffer holds b_strips*kc_here*nr <= bp_cap
                        // elements.
                        let strip = unsafe {
                            std::slice::from_raw_parts_mut(
                                bp_ptr.get().add(t * kc_here * nr),
                                kc_here * nr,
                            )
                        };
                        let j0 = t * nr;
                        for (_, b, p0, d) in depth_pieces(op_a, pairs, pc, kc_here) {
                            pack::pack_b_strip_into(
                                op_b,
                                b,
                                p0,
                                jc + j0,
                                d.len(),
                                nr.min(nc_here - j0),
                                nr,
                                &mut strip[d.start * nr..d.end * nr],
                            );
                        }
                    }
                    if let (Some(cp), Some(p0)) = (cpr, prof_t0) {
                        let p1 = prof::now_ns();
                        cp.pack_b_ns.fetch_add(p1 - p0, Ordering::Relaxed);
                        cp.pack_bytes
                            .fetch_add(((t1 - t0) * kc_here * nr * elem) as u64, Ordering::Relaxed);
                        prof::record_span(&cp.inner, prof::SpanPhase::PackB, p0, p1);
                    }
                });

                // Loop 3: claim (jc, ic) macro-tiles dynamically; each
                // tile packs its own A block into per-thread scratch and
                // folds Ap·Bp into its private MC-row band of C.
                // SAFETY: the pack phase above fully wrote exactly this
                // prefix of the slab scratch, and the barrier at the end
                // of parallel_chunks makes those writes visible here.
                let bp_view: &[T] = unsafe {
                    std::slice::from_raw_parts(bp_ptr.get() as *const T, b_strips * kc_here * nr)
                };
                pool::parallel_chunks(width, tiles, &move |tile| {
                    let i0 = tile * mc;
                    let rows = mc.min(m - i0);
                    let ap_len = rows.div_ceil(mr) * kc_here * mr;
                    with_scratch(&AP_SCRATCH, ap_len, |ap: &mut Vec<T>| {
                        let prof_t0 = cpr.map(|_| prof::now_ns());
                        for (a, _, p0, d) in depth_pieces(op_a, pairs, pc, kc_here) {
                            pack::pack_a_block_into(
                                op_a,
                                alpha,
                                a,
                                i0,
                                p0,
                                rows,
                                d,
                                kc_here,
                                mr,
                                &mut ap[..ap_len],
                            );
                        }
                        let prof_t1 = cpr.map(|cp| {
                            let p1 = prof::now_ns();
                            let p0 = prof_t0.expect("pack timestamp taken above");
                            cp.pack_a_ns.fetch_add(p1 - p0, Ordering::Relaxed);
                            cp.pack_bytes
                                .fetch_add((ap_len * elem) as u64, Ordering::Relaxed);
                            prof::record_span(&cp.inner, prof::SpanPhase::PackA, p0, p1);
                            p1
                        });
                        // SAFETY: this tile exclusively owns C rows
                        // i0..i0+rows (tiles partition 0..m) within the
                        // current jc column band; see macro_kernel's
                        // contract.
                        unsafe {
                            macro_kernel(
                                kind,
                                mr,
                                nr,
                                &ap[..ap_len],
                                bp_view,
                                rows,
                                kc_here,
                                nc_here,
                                beta_here,
                                c_ptr,
                                ldc,
                                i0,
                                jc,
                            );
                        }
                        if let (Some(cp), Some(p1)) = (cpr, prof_t1) {
                            let p2 = prof::now_ns();
                            cp.compute_ns.fetch_add(p2 - p1, Ordering::Relaxed);
                            prof::record_span(&cp.inner, prof::SpanPhase::Compute, p1, p2);
                        }
                    });
                });

                pc += kc_here;
                slab += 1;
            }
            jc += nc_here;
        }
    });

    if let Some(cp) = cp {
        // The analytic packed-working-set bound: every (jc, pc) slab packs
        // at most one padded KC×NC B slab plus `tiles` padded MC×KC A
        // blocks. Measured pack traffic must stay ≤ this.
        let slabs = n.div_ceil(nc) * k.div_ceil(kc);
        let per_slab = kc.min(k) * nc.min(n).next_multiple_of(nr)
            + tiles * mc.next_multiple_of(mr) * kc.min(k);
        prof::call_end(
            cp,
            width,
            gemm_flops(m, n, k),
            (slabs * per_slab * elem) as u64,
            elem,
            kind,
        );
    }
}

/// Triple-loop reference kernel, used only by tests to validate [`gemm`].
pub fn gemm_naive<T: Scalar>(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: T,
    a: &Mat<T>,
    b: &Mat<T>,
    beta: T,
    c: &mut Mat<T>,
) {
    let (m, k) = op_a.apply_shape(a.rows(), a.cols());
    let (kb, n) = op_b.apply_shape(b.rows(), b.cols());
    assert_eq!(k, kb, "inner dimensions disagree");
    assert_eq!(c.shape(), (m, n), "C shape mismatch");
    let av = |i: usize, l: usize| match op_a {
        GemmOp::NoTrans => a.get(i, l),
        GemmOp::Trans => a.get(l, i),
    };
    let bv = |l: usize, j: usize| match op_b {
        GemmOp::NoTrans => b.get(l, j),
        GemmOp::Trans => b.get(j, l),
    };
    for i in 0..m {
        for j in 0..n {
            let mut acc = T::ZERO;
            for l in 0..k {
                acc += av(i, l) * bv(l, j);
            }
            let old = c.get(i, j);
            c.set(i, j, alpha * acc + beta * old);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{MR, NR};
    use crate::part::Rect;
    use crate::random::fill_random;
    use crate::tune::{set_gemm_blocking, Blocking};
    use std::mem::size_of;

    fn check_against_naive(
        m: usize,
        n: usize,
        k: usize,
        op_a: GemmOp,
        op_b: GemmOp,
        alpha: f64,
        beta: f64,
    ) {
        let (ar, ac) = match op_a {
            GemmOp::NoTrans => (m, k),
            GemmOp::Trans => (k, m),
        };
        let (br, bc) = match op_b {
            GemmOp::NoTrans => (k, n),
            GemmOp::Trans => (n, k),
        };
        let mut a = Mat::<f64>::zeros(ar, ac);
        let mut b = Mat::<f64>::zeros(br, bc);
        let mut c = Mat::<f64>::zeros(m, n);
        fill_random(&mut a, 1);
        fill_random(&mut b, 2);
        fill_random(&mut c, 3);
        let mut c_ref = c.clone();

        gemm(op_a, op_b, alpha, &a, &b, beta, &mut c);
        gemm_naive(op_a, op_b, alpha, &a, &b, beta, &mut c_ref);
        let tol = 1e-12 * (k.max(1) as f64);
        assert!(
            c.max_abs_diff(&c_ref) < tol,
            "packed vs naive mismatch m={m} n={n} k={k} {op_a:?} {op_b:?}"
        );
    }

    #[test]
    fn matches_naive_square() {
        check_against_naive(33, 33, 33, GemmOp::NoTrans, GemmOp::NoTrans, 1.0, 0.0);
    }

    #[test]
    fn matches_naive_rect_all_ops() {
        for &(op_a, op_b) in &[
            (GemmOp::NoTrans, GemmOp::NoTrans),
            (GemmOp::Trans, GemmOp::NoTrans),
            (GemmOp::NoTrans, GemmOp::Trans),
            (GemmOp::Trans, GemmOp::Trans),
        ] {
            check_against_naive(17, 29, 41, op_a, op_b, 1.0, 0.0);
        }
    }

    #[test]
    fn alpha_beta_combinations() {
        check_against_naive(10, 12, 14, GemmOp::NoTrans, GemmOp::NoTrans, 2.5, 0.5);
        check_against_naive(10, 12, 14, GemmOp::Trans, GemmOp::Trans, -1.0, 1.0);
        check_against_naive(10, 12, 14, GemmOp::NoTrans, GemmOp::NoTrans, 0.0, 2.0);
    }

    #[test]
    fn sizes_crossing_register_block_boundaries() {
        // Around the MR/NR register blocks.
        check_against_naive(65, 300, 200, GemmOp::NoTrans, GemmOp::NoTrans, 1.0, 0.0);
        check_against_naive(1, 1, 513, GemmOp::NoTrans, GemmOp::NoTrans, 1.0, 0.0);
        check_against_naive(513, 1, 1, GemmOp::NoTrans, GemmOp::NoTrans, 1.0, 0.0);
        for d in [MR - 1, MR, MR + 1, NR - 1, NR, NR + 1] {
            check_against_naive(d, d, d, GemmOp::NoTrans, GemmOp::NoTrans, 1.0, 0.0);
        }
    }

    #[test]
    fn sizes_crossing_cache_block_boundaries() {
        // Pin a tiny blocking so m/n/k cross the MC/NC/KC block boundaries
        // with cheap shapes: KC = 8, MC = 8, NC = 32.
        set_gemm_blocking(Some(Blocking {
            mc: 8,
            kc: 8,
            nc: 32,
        }));
        for k in [7, 8, 9, 16, 17, 25] {
            check_against_naive(13, 21, k, GemmOp::Trans, GemmOp::NoTrans, 1.0, 1.0);
        }
        for m in [7, 8, 9, 24, 25] {
            check_against_naive(m, 33, 20, GemmOp::NoTrans, GemmOp::Trans, 1.0, -0.5);
        }
        for n in [31, 32, 33, 64, 65] {
            check_against_naive(9, n, 12, GemmOp::NoTrans, GemmOp::NoTrans, 2.0, 0.0);
        }
        set_gemm_blocking(None);
    }

    #[test]
    fn degenerate_dimensions() {
        // k = 0 with beta = 0 must zero C
        let a = Mat::<f64>::zeros(3, 0);
        let b = Mat::<f64>::zeros(0, 4);
        let mut c = Mat::from_fn(3, 4, |_, _| 7.0);
        gemm(GemmOp::NoTrans, GemmOp::NoTrans, 1.0, &a, &b, 0.0, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));

        // m = 0 / n = 0 are no-ops
        let a = Mat::<f64>::zeros(0, 5);
        let b = Mat::<f64>::zeros(5, 4);
        let mut c = Mat::<f64>::zeros(0, 4);
        gemm(GemmOp::NoTrans, GemmOp::NoTrans, 1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    fn f32_instantiation() {
        let a = Mat::<f32>::from_fn(8, 8, |i, j| (i + j) as f32 * 0.25);
        let b = Mat::<f32>::from_fn(8, 8, |i, j| (i as f32 - j as f32) * 0.5);
        let mut c = Mat::<f32>::zeros(8, 8);
        let mut c_ref = Mat::<f32>::zeros(8, 8);
        gemm(GemmOp::NoTrans, GemmOp::NoTrans, 1.0, &a, &b, 0.0, &mut c);
        gemm_naive(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            0.0,
            &mut c_ref,
        );
        assert!(c.max_abs_diff(&c_ref) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let a = Mat::<f64>::zeros(2, 3);
        let b = Mat::<f64>::zeros(4, 2);
        let mut c = Mat::<f64>::zeros(2, 2);
        gemm(GemmOp::NoTrans, GemmOp::NoTrans, 1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    fn op_shape_helper() {
        assert_eq!(GemmOp::NoTrans.apply_shape(2, 3), (2, 3));
        assert_eq!(GemmOp::Trans.apply_shape(2, 3), (3, 2));
        assert_eq!(GemmOp::from_flag(0), GemmOp::NoTrans);
        assert_eq!(GemmOp::from_flag(1), GemmOp::Trans);
    }

    #[test]
    fn effective_mc_preserves_grain_and_alignment() {
        // Serial keeps the tuned value; parallel shrinks to >= 3 tiles per
        // thread, mr-aligned, never below mr.
        assert_eq!(effective_mc(512, 1024, 1, MR), 512);
        let mc4 = effective_mc(512, 1024, 4, MR);
        assert!(mc4 <= 512 && mc4.is_multiple_of(MR));
        assert!(1024usize.div_ceil(mc4) >= 3 * 4);
        assert_eq!(effective_mc(512, 2, 8, MR), MR);
        // Wider-mr kernels keep their own alignment.
        assert_eq!(effective_mc(512, 2, 8, 12), 12);
        assert!(effective_mc(512, 1024, 4, 6).is_multiple_of(6));
    }

    #[test]
    fn forced_parallel_width_matches_serial_per_kernel() {
        // For EVERY available kernel: pin a width wider than the host and a
        // small blocking so the pool path and several cache blocks really
        // engage, then check bitwise equality against width 1. (The matrix
        // clears the parallel flop cutoff.) This is the per-kernel
        // thread-width determinism contract from the module docs.
        set_gemm_blocking(Some(Blocking {
            mc: 32,
            kc: 16,
            nc: 48,
        }));
        let mut a = Mat::<f64>::zeros(130, 70);
        let mut b = Mat::<f64>::zeros(70, 90);
        let mut c0 = Mat::<f64>::zeros(130, 90);
        fill_random(&mut a, 11);
        fill_random(&mut b, 12);
        fill_random(&mut c0, 13);

        for kind in KernelKind::ALL {
            if !kind.available() {
                continue;
            }
            kernel::set_gemm_kernel(Some(kind));
            let mut c1 = c0.clone();
            let mut c4 = c0.clone();
            crate::pool::set_rank_gemm_threads(Some(1));
            gemm(GemmOp::NoTrans, GemmOp::NoTrans, 1.5, &a, &b, 0.5, &mut c1);
            crate::pool::set_rank_gemm_threads(Some(4));
            gemm(GemmOp::NoTrans, GemmOp::NoTrans, 1.5, &a, &b, 0.5, &mut c4);
            crate::pool::set_rank_gemm_threads(None);
            assert_eq!(
                c1.as_slice(),
                c4.as_slice(),
                "thread width changed bits under {} kernel",
                kind.name()
            );
        }
        kernel::set_gemm_kernel(None);
        set_gemm_blocking(None);
    }

    /// Bit patterns of a matrix's elements, `f32` widened exactly.
    fn bits<T: Scalar>(c: &Mat<T>) -> Vec<u64> {
        c.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// For every available kernel: a full register tile written by the
    /// kernel's own epilogue is bit for bit the clipped store of an edge
    /// tile. The top-left `a·MR × b·NR` region of an
    /// `(a·MR+1)×(b·NR+1)` product (its full tiles, next to edge tiles)
    /// equals the `a·MR × b·NR` product (full tiles only), and every row of
    /// the larger product equals that row computed alone (`m = 1`: every
    /// tile is an edge tile). Each of beta 0, 1, 0.5 and 0.7 (`0.7·C` is
    /// inexact, so a fused multiply-add in the scaling epilogue would
    /// show), with k below and above the kernel's KC.
    #[test]
    fn fused_store_equals_clipped_store() {
        fn check<T: Scalar>(kind: KernelKind) {
            let (mr, nr) = kind.geom(std::mem::size_of::<T>());
            let kc = tune::blocking_for::<T>(kind).kc;
            let (m, n) = (2 * mr, 3 * nr);
            for k in [5, kc + 7] {
                let a = crate::random::random_mat::<T>(m + 1, k, 31);
                let b = crate::random::random_mat::<T>(k, n + 1, 32);
                let c0 = crate::random::random_mat::<T>(m + 1, n + 1, 33);
                let top = Rect::new(0, 0, m, n);
                for beta in [0.0, 1.0, 0.5, 0.7].map(T::from_f64) {
                    let run = |a: &Mat<T>, b: &Mat<T>, c: &Mat<T>| {
                        let mut c = c.clone();
                        gemm(GemmOp::NoTrans, GemmOp::NoTrans, T::ONE, a, b, beta, &mut c);
                        c
                    };
                    let big = run(&a, &b, &c0);
                    let full = run(
                        &a.block(Rect::new(0, 0, m, k)),
                        &b.block(Rect::new(0, 0, k, n)),
                        &c0.block(top),
                    );
                    let what = format!("{} {}B k={k} beta={beta}", kind.name(), size_of::<T>());
                    assert_eq!(bits(&big.block(top)), bits(&full), "{what}: full tiles");
                    for i in 0..=m {
                        let row = Rect::new(i, 0, 1, n + 1);
                        let alone = run(&a.block(Rect::new(i, 0, 1, k)), &b, &c0.block(row));
                        assert_eq!(bits(&big.block(row)), bits(&alone), "{what}: row {i}");
                    }
                }
            }
        }
        for kind in KernelKind::ALL {
            if !kind.available() {
                continue;
            }
            kernel::set_gemm_kernel(Some(kind));
            check::<f64>(kind);
            check::<f32>(kind);
        }
        kernel::set_gemm_kernel(None);
    }

    /// `gemm_ksplit_new` of one product is `gemm` with `beta = 1` into
    /// zeros, bit for bit, for every available kernel, both scalar types,
    /// k below and above KC, `k = 0` and empty `m` or `n`, into a new or a
    /// reused buffer.
    #[test]
    fn fresh_product_equals_zeros_plus_accumulate() {
        fn check<T: Scalar>(kind: KernelKind) {
            let (mr, nr) = kind.geom(std::mem::size_of::<T>());
            let kc = tune::blocking_for::<T>(kind).kc;
            let (m, n) = (2 * mr + 3, nr + 5);
            for (m, n, k) in [(m, n, 9), (m, n, kc + 3), (m, n, 0), (0, n, 4), (m, 0, 4)] {
                for op_a in [GemmOp::NoTrans, GemmOp::Trans] {
                    let (ar, ac) = op_a.apply_shape(m, k);
                    let a = crate::random::random_mat::<T>(ar, ac, 41);
                    let b = crate::random::random_mat::<T>(k, n, 42);
                    let alpha = T::from_f64(1.5);
                    let new = |buf| gemm_ksplit_new(op_a, GemmOp::NoTrans, alpha, &[(&a, &b)], buf);
                    let fresh = new(Vec::new());
                    // A reused buffer, too small and holding stale values.
                    let stale = vec![T::from_f64(9.0); 3];
                    let reused = new(stale);
                    assert_eq!(bits(&reused), bits(&fresh));
                    let mut acc = Mat::zeros(m, n);
                    gemm(op_a, GemmOp::NoTrans, alpha, &a, &b, T::ONE, &mut acc);
                    assert_eq!(fresh.shape(), (m, n));
                    assert_eq!(
                        bits(&fresh),
                        bits(&acc),
                        "{} {}B {m}x{n}x{k} {op_a:?}",
                        kind.name(),
                        size_of::<T>()
                    );
                }
            }
        }
        for kind in KernelKind::ALL {
            if !kind.available() {
                continue;
            }
            kernel::set_gemm_kernel(Some(kind));
            check::<f64>(kind);
            check::<f32>(kind);
        }
        kernel::set_gemm_kernel(None);
        // A zero-sized scalar has a shape and nothing else.
        let s = Mat::<crate::Shape64>::zeros(3, 4);
        let t = Mat::<crate::Shape64>::zeros(4, 5);
        let p = gemm_ksplit_new(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            crate::Shape64,
            &[(&s, &t)],
            Vec::new(),
        );
        assert_eq!(p.shape(), (3, 5));
    }

    #[test]
    fn all_kernels_match_naive() {
        // Odd shapes exercise ragged mr/nr tails of every geometry.
        let mut a = Mat::<f64>::zeros(29, 31);
        let mut b = Mat::<f64>::zeros(31, 37);
        let mut c_ref = Mat::<f64>::zeros(29, 37);
        fill_random(&mut a, 21);
        fill_random(&mut b, 22);
        gemm_naive(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            0.0,
            &mut c_ref,
        );
        for kind in KernelKind::ALL {
            if !kind.available() {
                continue;
            }
            kernel::set_gemm_kernel(Some(kind));
            let mut c = Mat::<f64>::zeros(29, 37);
            gemm(GemmOp::NoTrans, GemmOp::NoTrans, 1.0, &a, &b, 0.0, &mut c);
            assert!(
                c.max_abs_diff(&c_ref) < 1e-11,
                "{} kernel diverged from naive",
                kind.name()
            );
        }
        kernel::set_gemm_kernel(None);
    }
}
