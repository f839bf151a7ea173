//! Every PGEMM algorithm of the paper's unified view (§III-A/C) except
//! CA3DMM itself: [`SummaPgemm`] (SUMMA \[14\]), [`Ca3dmmSumma`] (CA3DMM-S,
//! §III-E), [`CosmaLike`] (COSMA as §III-C describes its source),
//! [`Orig3d`] (original 3D \[15\]) and [`C25d`] (2.5D \[16\] as in CTF
//! \[24\]). Each implements `ca3dmm::Pgemm`: a grid rule, an initial
//! placement and the step that turns its initial blocks into a partial `C`.
//! The native layouts, the native multiply and the virtual-time simulation
//! (`Pgemm::simulate_native`, shape-only at paper scale) come from the
//! trait, shared with CA3DMM — `ca3dmm::grid3d`, where the table of all six
//! lives.
//!
//! All five validate against the serial reference and pin their traffic in
//! the workspace's `tests/e2e_all_algorithms.rs`. [`CosmaLike`] and
//! [`C25d`] — the two baselines of Fig. 3 — also build a
//! [`netmodel::Schedule`] for paper-scale cost evaluation (the 2.5D one
//! includes the cyclic-layout conversion CTF always performs, the paper's
//! explanation for CTF's weaker results in §IV-A).

pub mod c25d;
pub mod cosma;
pub mod orig3d;
pub mod summa;

pub use c25d::C25d;
pub use cosma::CosmaLike;
pub use orig3d::Orig3d;
pub use summa::{Ca3dmmSumma, SummaPgemm};

use ca3dmm::Pgemm;
use dense::{Mat, Scalar};
use layout::Layout;
use msgpass::{Comm, RankCtx};

/// Bytes per element the [`CosmaLike`] and [`C25d`] schedules price: `f64`,
/// the element type of every paper experiment.
const ELEM_BYTES: f64 = 8.0;

/// The inherent names the frozen benchmark calls on three baselines:
/// [`Pgemm`]'s layouts and a blocking native multiply.
macro_rules! frozen_facades {
    ($($alg:ty),*) => {$(
        impl $alg {
            /// [`Pgemm::layout_a`], kept for the frozen benchmark until
            /// item 7 (ROADMAP.md).
            pub fn layout_a(&self) -> Layout {
                Pgemm::layout_a(self)
            }

            /// [`Pgemm::layout_b`], kept for the frozen benchmark until
            /// item 7 (ROADMAP.md).
            pub fn layout_b(&self) -> Layout {
                Pgemm::layout_b(self)
            }

            /// [`Pgemm::layout_c`], kept for the frozen benchmark until
            /// item 7 (ROADMAP.md).
            pub fn layout_c(&self) -> Layout {
                Pgemm::layout_c(self)
            }

            /// Blocking façade over [`Pgemm::multiply_native_async`], kept for
            /// the frozen benchmark until item 7 (ROADMAP.md). Panics on a
            /// virtual rank.
            pub fn multiply_native<T: Scalar>(
                &self,
                ctx: &RankCtx,
                world: &Comm,
                a_init: Option<Mat<T>>,
                b_init: Option<Mat<T>>,
            ) -> Option<Mat<T>> {
                ctx.block_on(self.multiply_native_async(ctx, world, a_init, b_init))
            }
        }
    )*};
}

frozen_facades!(SummaPgemm, CosmaLike, C25d);
