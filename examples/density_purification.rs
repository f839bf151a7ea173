//! McWeeny density-matrix purification — the paper's motivating
//! computational-chemistry workload (§I refs [7, 9]; the "square" problem
//! class of the evaluation, and the driver algorithm named in §V:
//! "repeated matrix multiplications in density matrix purification").
//!
//! Given a Hamiltonian `H`, the density matrix at zero temperature is the
//! spectral projector onto the occupied states. Purification builds it
//! without diagonalization: start from a linearized guess `P₀` with
//! eigenvalues in [0, 1] and iterate the McWeeny polynomial
//!
//! ```text
//! P ← 3P² − 2P³
//! ```
//!
//! which drives every eigenvalue to 0 or 1. Each iteration is two *square*
//! PGEMMs — exactly the workload CA3DMM's square class models. `P` stays
//! distributed in a 2D block layout between iterations (the layout CA3DMM
//! redistributes from/to), and the idempotency error `‖P² − P‖_F` and the
//! electron count `tr(P)` are tracked distributedly.
//!
//! ```text
//! cargo run --release --example density_purification -- [nprocs] [n] [iters]
//! ```

use ca3dmm::{Ca3dmmOptions, Dtype, Plan};
use dense::gemm::GemmOp;
use dense::Mat;
use gridopt::Problem;
use layout::Layout;
use msgpass::collectives::allreduce;
use msgpass::{Comm, World};

/// Dimerized 1D tight-binding Hamiltonian (an SSH chain): alternating
/// hoppings `-1` and `-0.55`, zero diagonal. The dimerization opens a
/// spectral gap at zero energy, so at chemical potential `μ = 0` the system
/// is an insulator with exactly half the states occupied — the regime where
/// density-matrix purification is used in practice (McWeeny iterations
/// repel eigenvalues from the unstable fixed point ½ at only a linear rate,
/// so a gapless metal would converge impractically slowly).
fn hamiltonian(i: usize, j: usize) -> f64 {
    if i.abs_diff(j) == 1 {
        if i.min(j).is_multiple_of(2) {
            -1.0
        } else {
            -0.55
        }
    } else {
        0.0
    }
}

/// Linearized initial guess (Palser–Manolopoulos): `P₀ = ½I − (H − μI)/(2·‖H‖)`,
/// eigenvalues safely inside [0, 1].
fn p0(i: usize, j: usize) -> f64 {
    let h = hamiltonian(i, j);
    let diag = if i == j { 0.5 } else { 0.0 };
    diag - h / (2.0 * 2.5) // ‖H‖₂ ≤ 2 for the chain; 2.5 gives margin
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nprocs: usize = args.first().map(|s| s.parse().unwrap()).unwrap_or(8);
    let n: usize = args.get(1).map(|s| s.parse().unwrap()).unwrap_or(600);
    let iters: usize = args.get(2).map(|s| s.parse().unwrap()).unwrap_or(30);

    println!("McWeeny purification: n = {n}, {nprocs} ranks, {iters} iterations");
    // P lives in a 2D block layout between iterations (a "natural"
    // application layout; CA3DMM redistributes it in and out each call).
    let pr = (nprocs as f64).sqrt().floor() as usize;
    let pc = nprocs / pr;
    let layout = Layout::two_d_block(n, n, pr, pc);
    let layout_all = pad_layout(layout, nprocs, n);
    // Both products of every iteration, P·P and P²·P, have the same shape
    // and layouts: one plan serves all 2·iters multiplies.
    let plan = Plan::build(
        Problem::new(n, n, n, nprocs),
        &Ca3dmmOptions::default(),
        Dtype::F64,
        GemmOp::NoTrans,
        &layout_all,
        GemmOp::NoTrans,
        &layout_all,
        &layout_all,
    );
    let g = plan.ca3dmm().stats().grid;
    println!("CA3DMM grid: {} x {} x {}\n", g.pm, g.pn, g.pk);

    let traces = World::run(nprocs, async |ctx| {
        let world = Comm::world(ctx);
        let me = world.rank();
        // build my local blocks of P0 from the formula
        let mut p: Vec<Mat<f64>> = layout_all
            .owned(me)
            .iter()
            .map(|r| Mat::from_fn(r.rows, r.cols, |i, j| p0(r.row0 + i, r.col0 + j)))
            .collect();

        let mut history = Vec::new();
        for it in 0..iters {
            // P2 = P * P
            let p2 = plan.multiply_async(ctx, &world, &p, &p).await;
            // P3 = P2 * P
            let p3 = plan.multiply_async(ctx, &world, &p2, &p).await;
            // local diagnostics before the update: idempotency and trace
            let mut idem2 = 0.0f64;
            let mut trace = 0.0f64;
            for ((rect, p_b), p2_b) in layout_all.owned(me).iter().zip(&p).zip(&p2) {
                for i in 0..rect.rows {
                    for j in 0..rect.cols {
                        let d = p2_b.get(i, j) - p_b.get(i, j);
                        idem2 += d * d;
                        if rect.row0 + i == rect.col0 + j {
                            trace += p_b.get(i, j);
                        }
                    }
                }
            }
            let sums = allreduce(&world, ctx, vec![idem2, trace]).await;
            if me == 0 {
                history.push((it, sums[0].sqrt(), sums[1]));
            }
            // P <- 3 P2 - 2 P3, blockwise local update
            for ((p_b, p2_b), p3_b) in p.iter_mut().zip(&p2).zip(&p3) {
                for ((pv, &p2v), &p3v) in p_b
                    .as_mut_slice()
                    .iter_mut()
                    .zip(p2_b.as_slice())
                    .zip(p3_b.as_slice())
                {
                    *pv = 3.0 * p2v - 2.0 * p3v;
                }
            }
        }
        history
    });

    println!("iter   ||P^2 - P||_F     tr(P)");
    for &(it, idem, trace) in &traces[0] {
        println!("{it:4}   {idem:12.6e}   {trace:10.4}");
    }
    let (_, final_idem, final_trace) = *traces[0].last().expect("at least one iteration");
    let expect_ne = n as f64 / 2.0;
    println!(
        "\nfinal: idempotency error {final_idem:.3e}, electron count {final_trace:.4} (expected {expect_ne})"
    );
    assert!(
        final_idem < 1e-8,
        "purification failed to converge: idempotency {final_idem:.3e}"
    );
    assert!(
        (final_trace - expect_ne).abs() < 1e-3 * expect_ne,
        "electron count drifted: {final_trace}"
    );
    println!("converged: the distributed purification matches the physics.");
}

/// The 2D block layout only covers `pr·pc` ranks; extend the rank list to
/// the full world (extra ranks own nothing) so every thread participates
/// in the CA3DMM redistribution steps.
fn pad_layout(l: Layout, p: usize, n: usize) -> Layout {
    let mut rects: Vec<Vec<dense::Rect>> = (0..p).map(|_| Vec::new()).collect();
    for (r, slot) in rects.iter_mut().enumerate().take(l.nranks()) {
        *slot = l.owned(r).to_vec();
    }
    Layout::from_rects(n, n, rects)
}
