//! Umbrella crate for the CA3DMM reproduction workspace.
//!
//! This root package exists to host the workspace-level `examples/` and
//! `tests/` directories; all functionality lives in the member crates and is
//! re-exported here for convenience.
//!
//! # Algorithm 1 on user layouts
//!
//! `A`, `B` and `C` live in whatever layouts the application uses. A
//! [`ca3dmm::Plan`] is built once per shape, outside the ranks: the grid
//! search and the three redistribution programs (user `A`/`B` → native,
//! native `C` → user). Every rank then runs any number of multiplies
//! through it:
//!
//! ```
//! use ca3dmm::{Ca3dmmOptions, Dtype, Plan};
//! use dense::gemm::{gemm_naive, GemmOp};
//! use dense::random::global_block;
//! use dense::testing::gemm_tolerance;
//! use dense::{Mat, Rect};
//! use gridopt::Problem;
//! use layout::Layout;
//! use msgpass::{Comm, World};
//!
//! let (m, n, k, p) = (96, 80, 64, 4);
//! let la = Layout::one_d_col(m, k, p);
//! let lb = Layout::one_d_row(k, n, p);
//! let lc = Layout::two_d_block(m, n, 2, 2);
//! let prob = Problem::new(m, n, k, p);
//! let opts = Ca3dmmOptions::default();
//! let (nt, dt) = (GemmOp::NoTrans, Dtype::F64);
//! let plan = Plan::build(prob, &opts, dt, nt, &la, nt, &lb, &lc);
//! let parts = World::run(p, async |ctx| {
//!     let world = Comm::world(ctx);
//!     let me = world.rank();
//!     let a: Vec<Mat<f64>> = la.owned(me).iter().map(|r| global_block(1, *r)).collect();
//!     let b: Vec<Mat<f64>> = lb.owned(me).iter().map(|r| global_block(2, *r)).collect();
//!     plan.multiply_async(ctx, &world, &a, &b).await
//! });
//!
//! let a = global_block::<f64>(1, Rect::new(0, 0, m, k));
//! let b = global_block::<f64>(2, Rect::new(0, 0, k, n));
//! let mut c_ref = Mat::zeros(m, n);
//! gemm_naive(nt, nt, 1.0, &a, &b, 0.0, &mut c_ref);
//! let diff = lc.assemble(&parts).max_abs_diff(&c_ref);
//! assert!(diff <= gemm_tolerance::<f64>(k) * c_ref.max_abs().max(1.0));
//! ```

pub use baselines;
pub use ca3dmm;
pub use dense;
pub use gridopt;
pub use layout;
pub use msgpass;
pub use netmodel;
