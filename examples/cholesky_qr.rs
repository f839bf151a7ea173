//! CholeskyQR of a tall-and-skinny matrix — the paper's motivating
//! workload for the large-K and large-M problem classes (§IV-A: "the
//! large-K and large-M classes are used in CholeskyQR and Rayleigh–Ritz
//! projection", refs [8, 29, 30]).
//!
//! Given `A ∈ ℝ^{m×n}` with `m ≫ n`:
//!
//! 1. the Gram matrix `G = AᵀA` — a **large-K** PGEMM (`n × n × m`) that
//!    also exercises CA3DMM's transpose-folding redistribution;
//! 2. the Cholesky factorization `G = RᵀR` — a small serial `n × n`
//!    problem, done redundantly on every rank;
//! 3. `Q = A·R⁻¹` — a **large-M** PGEMM (`m × n × n`);
//! 4. verification `‖QᵀQ − I‖` — another large-K PGEMM.
//!
//! ```text
//! cargo run --release --example cholesky_qr -- [nprocs] [m] [n]
//! ```

use ca3dmm::{Ca3dmm, Ca3dmmOptions};
use dense::gemm::GemmOp;
use dense::Mat;
use gridopt::Problem;
use layout::Layout;
use msgpass::collectives::{allgatherv_mode, Collectives};
use msgpass::{Comm, World};

use dense::linalg::{cholesky_upper, upper_triangular_inverse};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nprocs: usize = args.first().map(|s| s.parse().unwrap()).unwrap_or(8);
    let m: usize = args.get(1).map(|s| s.parse().unwrap()).unwrap_or(20_000);
    let n: usize = args.get(2).map(|s| s.parse().unwrap()).unwrap_or(48);
    println!("CholeskyQR: A is {m} x {n} on {nprocs} ranks");

    // A lives 1D row-partitioned (the natural tall-skinny layout).
    let a_layout = Layout::one_d_row(m, n, nprocs);
    // Small matrices are 1D column partitioned across ranks.
    let g_layout = Layout::one_d_col(n, n, nprocs);

    // Step 1: G = A^T A  (large-K: n x n x m)
    let gram = Ca3dmm::new(Problem::new(n, n, m, nprocs), &Ca3dmmOptions::default());
    let gg = gram.stats().grid;
    println!(
        "Gram PGEMM grid (n x n x m): {} x {} x {}",
        gg.pm, gg.pn, gg.pk
    );
    // Step 3: Q = A R^{-1}  (large-M: m x n x n)
    let apply = Ca3dmm::new(Problem::new(m, n, n, nprocs), &Ca3dmmOptions::default());
    let ga = apply.stats().grid;
    println!(
        "Apply PGEMM grid (m x n x n): {} x {} x {}",
        ga.pm, ga.pn, ga.pk
    );

    let ortho_err = World::run(nprocs, async |ctx| {
        let world = Comm::world(ctx);
        let me = world.rank();
        // Seeded tall-skinny A; shift the diagonal band up to keep the Gram
        // matrix comfortably positive definite.
        let a_blocks: Vec<Mat<f64>> = a_layout
            .owned(me)
            .iter()
            .map(|r| {
                Mat::from_fn(r.rows, r.cols, |i, j| {
                    let (gi, gj) = (r.row0 + i, r.col0 + j);
                    let noise: f64 = dense::random::global_entry(77, gi, gj);
                    if gi % n == gj {
                        noise + 4.0
                    } else {
                        noise
                    }
                })
            })
            .collect();

        // G = A^T A: op(A) = Trans with the stored A layout for both sides.
        let g_parts = gram
            .multiply(
                ctx,
                &world,
                GemmOp::Trans,
                &a_layout,
                &a_blocks,
                GemmOp::NoTrans,
                &a_layout,
                &a_blocks,
                &g_layout,
            )
            .await;
        // replicate G on every rank (it is tiny) and factorize redundantly
        let mine: Vec<f64> = g_parts.iter().flat_map(|b| b.as_slice().to_vec()).collect();
        let counts: Vec<usize> = (0..nprocs).map(|r| g_layout.owned_elems(r)).collect();
        let flat = allgatherv_mode(Collectives::Flat, &world, ctx, mine, &counts).await;
        let g_full = reassemble_cols(&g_layout, &flat, n);
        let r_up = cholesky_upper(&g_full);
        let r_inv = upper_triangular_inverse(&r_up);

        // Q = A R^{-1}: R^{-1} enters replicated; hand CA3DMM the copy on
        // rank 0 (a single-rank layout) and keep Q in A's row layout.
        let rinv_layout = Layout::on_single_rank(n, n, nprocs, 0);
        let rinv_blocks = if me == 0 { vec![r_inv] } else { vec![] };
        let q_parts = apply
            .multiply(
                ctx,
                &world,
                GemmOp::NoTrans,
                &a_layout,
                &a_blocks,
                GemmOp::NoTrans,
                &rinv_layout,
                &rinv_blocks,
                &a_layout,
            )
            .await;

        // Verify: ||Q^T Q - I||_max via one more large-K PGEMM.
        let qtq_parts = gram
            .multiply(
                ctx,
                &world,
                GemmOp::Trans,
                &a_layout,
                &q_parts,
                GemmOp::NoTrans,
                &a_layout,
                &q_parts,
                &g_layout,
            )
            .await;
        let mut err = 0.0f64;
        for (rect, blk) in g_layout.owned(me).iter().zip(&qtq_parts) {
            for i in 0..rect.rows {
                for j in 0..rect.cols {
                    let want = if rect.row0 + i == rect.col0 + j {
                        1.0
                    } else {
                        0.0
                    };
                    err = err.max((blk.get(i, j) - want).abs());
                }
            }
        }
        msgpass::collectives::allreduce(&world, ctx, vec![err]).await[0]
    });

    // allreduce sums the per-rank maxima; each rank's value was its local
    // max, so the sum bounds the true max within a factor nprocs — report
    // the per-rank max from rank 0's world view instead.
    let err = ortho_err[0];
    println!("\n||Q^T Q - I||  <= {err:.3e} (summed per-rank maxima)");
    assert!(err < 1e-10 * m as f64, "Q is not orthonormal: {err:.3e}");
    println!("CholeskyQR succeeded: Q has orthonormal columns.");
}

/// Rebuilds the small `n × n` matrix from the flat allgathered 1D-column
/// pieces.
fn reassemble_cols(layout: &Layout, flat: &[f64], n: usize) -> Mat<f64> {
    let mut g = Mat::<f64>::zeros(n, n);
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
