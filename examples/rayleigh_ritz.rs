//! Rayleigh–Ritz projection — the paper's second named driver workload
//! (§IV-A: "The large-K and large-M classes are used in CholeskyQR and
//! Rayleigh–Ritz projection"; §V names "the Rayleigh–Ritz step in
//! Chebyshev-filtered subspace iteration" as a target application).
//!
//! Given a symmetric operator `H ∈ ℝ^{n×n}` and a subspace basis
//! `V ∈ ℝ^{n×b}` (`b ≪ n`):
//!
//! 1. orthonormalize `V` by CholeskyQR (one **large-K** PGEMM `VᵀV` and one
//!    **large-M** PGEMM `V·R⁻¹`);
//! 2. apply the operator: `W = H·V` — a **large-M** PGEMM (`n × b × n`);
//! 3. project: `G = VᵀW` — a **large-K** PGEMM (`b × b × n`);
//! 4. solve the small `b × b` symmetric eigenproblem `G = U·Θ·Uᵀ`
//!    (serial Jacobi iteration, redundantly on every rank);
//! 5. form Ritz vectors `X = V·U` (**large-M** PGEMM) and check the
//!    residuals `‖H·xᵢ − θᵢ·xᵢ‖`.
//!
//! With `H` the 1D Laplacian (eigenvalues `2 − 2cos(kπ/(n+1))`), the Ritz
//! values must lie inside `[0, 4]` and converge toward true eigenvalues —
//! which the example verifies.
//!
//! ```text
//! cargo run --release --example rayleigh_ritz -- [nprocs] [n] [b]
//! ```

use ca3dmm::{Ca3dmm, Ca3dmmOptions};
use dense::gemm::GemmOp;
use dense::linalg::{cholesky_upper, upper_triangular_inverse};
use dense::Mat;
use gridopt::Problem;
use layout::Layout;
use msgpass::collectives::{allgatherv_mode, allreduce, Collectives};
use msgpass::{Comm, World};

/// The 1D Laplacian stencil: `2` on the diagonal, `−1` off-diagonal.
fn laplacian(i: usize, j: usize) -> f64 {
    match i.abs_diff(j) {
        0 => 2.0,
        1 => -1.0,
        _ => 0.0,
    }
}

/// Serial cyclic Jacobi eigenvalue iteration for a small symmetric matrix;
/// returns (eigenvalues ascending, orthogonal U with columns = vectors).
fn jacobi_eig(g: &Mat<f64>) -> (Vec<f64>, Mat<f64>) {
    let b = g.rows();
    let mut a = g.clone();
    let mut u = Mat::from_fn(b, b, |i, j| if i == j { 1.0 } else { 0.0 });
    for _sweep in 0..60 {
        let mut off = 0.0f64;
        for p in 0..b {
            for q in p + 1..b {
                off += a.get(p, q) * a.get(p, q);
            }
        }
        if off < 1e-24 {
            break;
        }
        for p in 0..b {
            for q in p + 1..b {
                let apq = a.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let theta = (a.get(q, q) - a.get(p, p)) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // rotate rows/columns p, q of A and columns of U
                for k in 0..b {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp - s * akq);
                    a.set(k, q, s * akp + c * akq);
                }
                for k in 0..b {
                    let apk = a.get(p, k);
                    let aqk = a.get(q, k);
                    a.set(p, k, c * apk - s * aqk);
                    a.set(q, k, s * apk + c * aqk);
                }
                for k in 0..b {
                    let ukp = u.get(k, p);
                    let ukq = u.get(k, q);
                    u.set(k, p, c * ukp - s * ukq);
                    u.set(k, q, s * ukp + c * ukq);
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..b).collect();
    order.sort_by(|&x, &y| a.get(x, x).partial_cmp(&a.get(y, y)).unwrap());
    let vals: Vec<f64> = order.iter().map(|&x| a.get(x, x)).collect();
    let vecs = Mat::from_fn(b, b, |i, j| u.get(i, order[j]));
    (vals, vecs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nprocs: usize = args.first().map(|s| s.parse().unwrap()).unwrap_or(8);
    let n: usize = args.get(1).map(|s| s.parse().unwrap()).unwrap_or(4000);
    let b: usize = args.get(2).map(|s| s.parse().unwrap()).unwrap_or(12);
    println!("Rayleigh-Ritz: H is {n} x {n} (1D Laplacian), basis {n} x {b}, {nprocs} ranks");

    // Distributions: H in 2D blocks, the tall-skinny bases 1D row, the
    // small b x b matrices 1D column.
    let pr = (nprocs as f64).sqrt().floor() as usize;
    let h_layout = pad(Layout::two_d_block(n, n, pr, nprocs / pr), nprocs, n, n);
    let v_layout = Layout::one_d_row(n, b, nprocs);
    let s_layout = Layout::one_d_col(b, b, nprocs);

    // Three PGEMM shapes (grids chosen by CA3DMM's search):
    let gram = Ca3dmm::new(Problem::new(b, b, n, nprocs), &Ca3dmmOptions::default()); // large-K
    let tall = Ca3dmm::new(Problem::new(n, b, b, nprocs), &Ca3dmmOptions::default()); // large-M
    let apply = Ca3dmm::new(Problem::new(n, b, n, nprocs), &Ca3dmmOptions::default()); // operator
    for (what, mm) in [
        ("V^T W (large-K)", &gram),
        ("V*U   (large-M)", &tall),
        ("H*V   (apply) ", &apply),
    ] {
        let g = mm.stats().grid;
        println!("grid for {what}: {} x {} x {}", g.pm, g.pn, g.pk);
    }

    let (ritz, max_resid) = World::run(nprocs, async |ctx| {
        let world = Comm::world(ctx);
        let me = world.rank();
        let h_blocks: Vec<Mat<f64>> = h_layout
            .owned(me)
            .iter()
            .map(|r| Mat::from_fn(r.rows, r.cols, |i, j| laplacian(r.row0 + i, r.col0 + j)))
            .collect();
        // random initial basis
        let mut v_blocks: Vec<Mat<f64>> = v_layout
            .owned(me)
            .iter()
            .map(|r| {
                Mat::from_fn(r.rows, r.cols, |i, j| {
                    dense::random::global_entry(55, r.row0 + i, r.col0 + j)
                })
            })
            .collect();

        // Step 1: CholeskyQR orthonormalization of V.
        let g_parts = gram
            .multiply(
                ctx,
                &world,
                GemmOp::Trans,
                &v_layout,
                &v_blocks,
                GemmOp::NoTrans,
                &v_layout,
                &v_blocks,
                &s_layout,
            )
            .await;
        let g_full = replicate_small(ctx, &world, &s_layout, &g_parts, b).await;
        let r_inv = upper_triangular_inverse(&cholesky_upper(&g_full));
        let rinv_layout = Layout::on_single_rank(b, b, world.size(), 0);
        let rinv_blocks = if me == 0 { vec![r_inv] } else { vec![] };
        v_blocks = tall
            .multiply(
                ctx,
                &world,
                GemmOp::NoTrans,
                &v_layout,
                &v_blocks,
                GemmOp::NoTrans,
                &rinv_layout,
                &rinv_blocks,
                &v_layout,
            )
            .await;

        // Step 2: W = H V (the operator apply).
        let w_blocks = apply
            .multiply(
                ctx,
                &world,
                GemmOp::NoTrans,
                &h_layout,
                &h_blocks,
                GemmOp::NoTrans,
                &v_layout,
                &v_blocks,
                &v_layout,
            )
            .await;

        // Step 3: G = V^T W.
        let g_parts = gram
            .multiply(
                ctx,
                &world,
                GemmOp::Trans,
                &v_layout,
                &v_blocks,
                GemmOp::NoTrans,
                &v_layout,
                &w_blocks,
                &s_layout,
            )
            .await;
        let g_full = replicate_small(ctx, &world, &s_layout, &g_parts, b).await;

        // Step 4: small eigenproblem, redundant on every rank.
        let (theta, u) = jacobi_eig(&g_full);

        // Step 5: Ritz vectors X = V U, residuals R = W U - X diag(theta).
        let u_layout = Layout::on_single_rank(b, b, world.size(), 0);
        let u_blocks = if me == 0 { vec![u.clone()] } else { vec![] };
        let x_blocks = tall
            .multiply(
                ctx,
                &world,
                GemmOp::NoTrans,
                &v_layout,
                &v_blocks,
                GemmOp::NoTrans,
                &u_layout,
                &u_blocks,
                &v_layout,
            )
            .await;
        let wu_blocks = tall
            .multiply(
                ctx,
                &world,
                GemmOp::NoTrans,
                &v_layout,
                &w_blocks,
                GemmOp::NoTrans,
                &u_layout,
                &u_blocks,
                &v_layout,
            )
            .await;
        // local residual column sums of squares
        let mut local = vec![0.0f64; b];
        for ((rect, x_b), wu_b) in v_layout.owned(me).iter().zip(&x_blocks).zip(&wu_blocks) {
            for i in 0..rect.rows {
                for j in 0..rect.cols {
                    let col = rect.col0 + j;
                    let r = wu_b.get(i, j) - theta[col] * x_b.get(i, j);
                    local[col] += r * r;
                }
            }
        }
        let sums = allreduce(&world, ctx, local).await;
        let resid: Vec<f64> = sums.iter().map(|s| s.sqrt()).collect();
        let max_resid = resid.iter().cloned().fold(0.0f64, f64::max);
        (theta, max_resid)
    })
    .into_iter()
    .next()
    .expect("at least one rank");

    println!("\nlowest Ritz values: {:?}", &ritz[..ritz.len().min(5)]);
    println!("max residual ||H x - theta x|| = {max_resid:.3e}");
    // Spectrum of the 1D Laplacian lies in (0, 4).
    assert!(
        ritz.iter().all(|&t| t > 0.0 && t < 4.0),
        "Ritz values must lie inside the operator's spectral bounds"
    );
    // One projection step of a random b-dim subspace is a coarse
    // approximation; residuals are bounded by the spectral width.
    assert!(max_resid < 4.0, "residuals out of range: {max_resid}");
    println!("Rayleigh-Ritz projection verified: Ritz pairs within spectral bounds.");
}

/// Extends a layout defined over fewer ranks to the whole world.
fn pad(l: Layout, p: usize, rows: usize, cols: usize) -> Layout {
    let mut rects: Vec<Vec<dense::Rect>> = (0..p).map(|_| Vec::new()).collect();
    for (r, slot) in rects.iter_mut().enumerate().take(l.nranks()) {
        *slot = l.owned(r).to_vec();
    }
    Layout::from_rects(rows, cols, rects)
}

/// Replicates a small 1D-column-distributed `b × b` matrix on every rank.
async fn replicate_small(
    ctx: &msgpass::RankCtx,
    world: &Comm,
    layout: &Layout,
    parts: &[Mat<f64>],
    b: usize,
) -> Mat<f64> {
    let mine: Vec<f64> = parts.iter().flat_map(|m| m.as_slice().to_vec()).collect();
    let counts: Vec<usize> = (0..world.size()).map(|r| layout.owned_elems(r)).collect();
    let flat = allgatherv_mode(Collectives::Flat, world, ctx, mine, &counts).await;
    let mut g = Mat::<f64>::zeros(b, b);
    let mut pos = 0;
    for r in 0..layout.nranks() {
        for rect in layout.owned(r) {
            let blk = Mat::from_vec(rect.rows, rect.cols, flat[pos..pos + rect.area()].to_vec());
            pos += rect.area();
            g.set_block(*rect, &blk);
        }
    }
    g
}
