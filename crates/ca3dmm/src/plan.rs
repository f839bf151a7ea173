//! Multiplication plans: Algorithm 1 on user layouts, built once and run
//! any number of times — the one user-layout entry point, and the unit of
//! the `ca3dmm-serve` plan cache.
//!
//! [`Ca3dmm::new`] + the redistribution geometry of Algorithm 1 steps 4/8
//! are pure arithmetic, identical for every multiply with the same
//! `(m, n, k, p, ops, layouts, options)` — exactly the part an iterative
//! application or a long-running PGEMM service should pay once per shape,
//! not once per multiply. A [`Plan`] bundles the solved grid ([`Ca3dmm`],
//! including its precomputed sub-communicator membership) with the three
//! [`RedistPlan`]s (user A → native A, user B → native B, native C → user
//! C), and a [`PlanKey`] identifies it in a cache.
//!
//! Determinism: [`Plan::multiply_async`] runs [`layout::multiply_planned`]
//! around its [`Ca3dmm`]'s [`Pgemm::multiply_native_in_async`], and neither
//! depends on how many multiplies the plan has run — so a cached plan
//! produces exactly the bytes a freshly built one would (property-tested in
//! this module).

use crate::exec::{Ca3dmm, Ca3dmmOptions};
use crate::grid3d::{GridComms, Pgemm};
use dense::gemm::GemmOp;
use dense::{Mat, Scalar};
use gridopt::Problem;
use layout::{multiply_planned, Layout, RedistPlan};
use msgpass::{Comm, RankCtx};

/// Element type of a request, as far as plan identity is concerned. The
/// plan's geometry is dtype-independent, but a serving cache keys on it so
/// statistics and memory accounting stay per-dtype.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dtype {
    F32,
    F64,
}

impl Dtype {
    /// Wire name (`"f32"` / `"f64"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
        }
    }

    /// Parses [`Dtype::as_str`] output.
    pub fn parse(s: &str) -> Option<Dtype> {
        match s {
            "f32" => Some(Dtype::F32),
            "f64" => Some(Dtype::F64),
            _ => None,
        }
    }

    /// Bytes per element.
    pub fn size(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::F64 => 8,
        }
    }
}

/// Everything that determines a [`Plan`], flattened into a totally ordered,
/// hashable key. Two requests with equal keys can share one cached plan;
/// layouts enter via [`Layout::fingerprint`] so the key stays small.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanKey {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub p: usize,
    pub dtype: Dtype,
    pub a_trans: bool,
    pub b_trans: bool,
    pub a_layout: u64,
    pub b_layout: u64,
    pub c_layout: u64,
    pub overlap: bool,
    pub hier_collectives: bool,
    pub grid_override: Option<(usize, usize, usize)>,
}

impl PlanKey {
    /// Builds the key of the plan [`Plan::build`] would produce for these
    /// arguments. Cheap (three layout fingerprints); cache lookups call
    /// this without constructing anything.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        prob: &Problem,
        opts: &Ca3dmmOptions,
        dtype: Dtype,
        op_a: GemmOp,
        a_layout: &Layout,
        op_b: GemmOp,
        b_layout: &Layout,
        c_layout: &Layout,
    ) -> PlanKey {
        PlanKey {
            m: prob.m,
            n: prob.n,
            k: prob.k,
            p: prob.p,
            dtype,
            a_trans: matches!(op_a, GemmOp::Trans),
            b_trans: matches!(op_b, GemmOp::Trans),
            a_layout: a_layout.fingerprint(),
            b_layout: b_layout.fingerprint(),
            c_layout: c_layout.fingerprint(),
            overlap: opts.overlap,
            hier_collectives: matches!(opts.collectives, crate::Collectives::Hier),
            grid_override: opts.grid_override.map(|g| (g.pm, g.pn, g.pk)),
        }
    }
}

/// A fully solved multiplication: grid + rank order + the three
/// redistribution programs. Build once per shape
/// ([`Plan::build`]), then run any number of multiplies through it —
/// [`Plan::multiply`] for one, [`Plan::multiply_batch`] for several under
/// one set of sub-communicators.
///
/// `Plan` is `Send + Sync` plain data: build it outside
/// [`msgpass::World::run`], share one instance across all rank threads.
pub struct Plan {
    mm: Ca3dmm,
    opts: Ca3dmmOptions,
    dtype: Dtype,
    op_a: GemmOp,
    op_b: GemmOp,
    a_layout: Layout,
    b_layout: Layout,
    c_layout: Layout,
    redist_a: RedistPlan,
    redist_b: RedistPlan,
    redist_c: RedistPlan,
    /// Wall seconds spent in [`Plan::build`] (grid search + geometry +
    /// redistribution programs) — the cost a cache hit saves.
    build_secs: f64,
}

impl Plan {
    /// Solves the grid (unless forced), precomputes the sub-communicator
    /// membership and the three redistribution programs.
    ///
    /// # Panics
    /// On inconsistent shapes: `op_a(a_layout)` must be `m×k`,
    /// `op_b(b_layout)` must be `k×n`, `c_layout` must be `m×n`, and all
    /// three layouts must span exactly `p` ranks.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        prob: Problem,
        opts: &Ca3dmmOptions,
        dtype: Dtype,
        op_a: GemmOp,
        a_layout: &Layout,
        op_b: GemmOp,
        b_layout: &Layout,
        c_layout: &Layout,
    ) -> Plan {
        assert_eq!(
            c_layout.nranks(),
            prob.p,
            "C layout must span exactly P ranks"
        );
        let t0 = std::time::Instant::now();
        let mm = Ca3dmm::new(prob, opts);
        let gc = mm.grid_context();
        let redist_a = RedistPlan::new(a_layout, &gc.layout_a(), op_a);
        let redist_b = RedistPlan::new(b_layout, &gc.layout_b(), op_b);
        let redist_c = RedistPlan::new(&gc.layout_c(), c_layout, GemmOp::NoTrans);
        Plan {
            mm,
            opts: *opts,
            dtype,
            op_a,
            op_b,
            a_layout: a_layout.clone(),
            b_layout: b_layout.clone(),
            c_layout: c_layout.clone(),
            redist_a,
            redist_b,
            redist_c,
            build_secs: t0.elapsed().as_secs_f64(),
        }
    }

    /// The key under which a cache should store this plan.
    pub fn key(&self) -> PlanKey {
        PlanKey::new(
            self.mm.grid_context().problem(),
            &self.opts,
            self.dtype,
            self.op_a,
            &self.a_layout,
            self.op_b,
            &self.b_layout,
            &self.c_layout,
        )
    }

    /// The solved grid and options.
    pub fn ca3dmm(&self) -> &Ca3dmm {
        &self.mm
    }

    /// Stored-A layout (shape `k×m` when `op_a == Trans`).
    pub fn a_layout(&self) -> &Layout {
        &self.a_layout
    }

    /// Stored-B layout.
    pub fn b_layout(&self) -> &Layout {
        &self.b_layout
    }

    /// Output layout (`m×n`).
    pub fn c_layout(&self) -> &Layout {
        &self.c_layout
    }

    /// Request dtype this plan was keyed under.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// The `op` applied to the stored A.
    pub fn op_a(&self) -> GemmOp {
        self.op_a
    }

    /// The `op` applied to the stored B.
    pub fn op_b(&self) -> GemmOp {
        self.op_b
    }

    /// Wall seconds [`Plan::build`] took — what a cache hit amortizes.
    pub fn build_secs(&self) -> f64 {
        self.build_secs
    }

    /// Blocking façade over [`Plan::multiply_async`], kept for the frozen benchmark
    /// until item 7 (ROADMAP.md). Panics on a virtual rank.
    pub fn multiply<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_blocks: &[Mat<T>],
        b_blocks: &[Mat<T>],
    ) -> Vec<Mat<T>> {
        ctx.block_on(self.multiply_async(ctx, world, a_blocks, b_blocks))
    }

    /// The full Algorithm 1 via the precomputed programs: redistributes `A`
    /// and `B` from this plan's layouts into the native distributions
    /// (applying `op_a`/`op_b` on the way), multiplies, and redistributes
    /// `C` into the plan's `C` layout. Collective over `world` (`P` ranks);
    /// idle ranks take part in the redistribution steps only, as in the
    /// paper.
    ///
    /// `a_blocks` are this rank's blocks of the stored `A` in
    /// [`Plan::a_layout`] (shape `k×m` when `op_a == Trans`); likewise for
    /// `B`. Returns this rank's blocks of `C` in [`Plan::c_layout`].
    pub async fn multiply_async<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_blocks: &[Mat<T>],
        b_blocks: &[Mat<T>],
    ) -> Vec<Mat<T>> {
        let comms = self.mm.comms(ctx, world);
        self.multiply_in_async(ctx, world, &comms, a_blocks, b_blocks)
            .await
    }

    /// Several same-shape multiplies under one set of sub-communicators.
    /// Each item is `(a_blocks, b_blocks)`, moved into its redistribution
    /// (no copy of the operands is made); results come back in order. The
    /// serving scheduler runs one item per job.
    #[allow(clippy::type_complexity)]
    pub async fn multiply_batch<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        items: Vec<(Vec<Mat<T>>, Vec<Mat<T>>)>,
    ) -> Vec<Vec<Mat<T>>> {
        let comms = self.mm.comms(ctx, world);
        let mut out = Vec::with_capacity(items.len());
        for (a, b) in items {
            out.push(self.multiply_owned(ctx, world, &comms, a, b).await);
        }
        out
    }

    /// Blocking façade over [`Plan::multiply_in_async`], kept for the frozen
    /// benchmark until item 7 (ROADMAP.md). Panics on a virtual rank.
    pub fn multiply_in<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        comms: &Option<GridComms>,
        a_blocks: &[Mat<T>],
        b_blocks: &[Mat<T>],
    ) -> Vec<Mat<T>> {
        ctx.block_on(self.multiply_in_async(ctx, world, comms, a_blocks, b_blocks))
    }

    /// One multiply under caller-provided sub-communicators. The borrowed
    /// blocks are cloned once so the peers can read them.
    pub async fn multiply_in_async<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        comms: &Option<GridComms>,
        a_blocks: &[Mat<T>],
        b_blocks: &[Mat<T>],
    ) -> Vec<Mat<T>> {
        let (a, b) = (a_blocks.to_vec(), b_blocks.to_vec());
        self.multiply_owned(ctx, world, comms, a, b).await
    }

    async fn multiply_owned<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        comms: &Option<GridComms>,
        a_blocks: Vec<Mat<T>>,
        b_blocks: Vec<Mat<T>>,
    ) -> Vec<Mat<T>> {
        let me = world.rank();
        multiply_planned(
            world,
            ctx,
            (self.redist_a.for_rank(me), a_blocks),
            (self.redist_b.for_rank(me), b_blocks),
            self.redist_c.for_rank(me),
            async |a, b| {
                self.mm
                    .multiply_native_in_async(ctx, world, comms, a, b)
                    .await
            },
        )
        .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::part::Rect;
    use dense::random::global_block;
    use msgpass::World;
    use proptest::prelude::*;

    /// One multiply through a plan built for it alone.
    #[allow(clippy::too_many_arguments)]
    fn run_fresh(
        prob: Problem,
        op_a: GemmOp,
        op_b: GemmOp,
        la: &Layout,
        lb: &Layout,
        lc: &Layout,
        a: &Mat<f64>,
        b: &Mat<f64>,
    ) -> Vec<Vec<Mat<f64>>> {
        let opts = Ca3dmmOptions::default();
        let plan = Plan::build(prob, &opts, Dtype::F64, op_a, la, op_b, lb, lc);
        World::run(prob.p, async |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            plan.multiply_async(ctx, &world, &la.extract(a, me), &lb.extract(b, me))
                .await
        })
    }

    fn run_planned(
        plan: &Plan,
        p: usize,
        a: &Mat<f64>,
        b: &Mat<f64>,
        reps: usize,
    ) -> Vec<Vec<Vec<Mat<f64>>>> {
        World::run(p, async |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            let items: Vec<_> = (0..reps)
                .map(|_| {
                    (
                        plan.a_layout().extract(a, me),
                        plan.b_layout().extract(b, me),
                    )
                })
                .collect();
            plan.multiply_batch(ctx, &world, items).await
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// The serve cache's core contract: one Plan reused back-to-back
        /// across a batch is bitwise identical, for every rank, block and
        /// repetition, to a Plan built for a single multiply.
        #[test]
        fn cached_plan_reuse_is_bitwise_identical(
            m in 1usize..40,
            n in 1usize..40,
            k in 1usize..40,
            p in 1usize..9,
            a_trans in proptest::bool::ANY,
            b_trans in proptest::bool::ANY,
        ) {
            let op_a = if a_trans { GemmOp::Trans } else { GemmOp::NoTrans };
            let op_b = if b_trans { GemmOp::Trans } else { GemmOp::NoTrans };
            let (ar, ac) = match op_a { GemmOp::NoTrans => (m, k), GemmOp::Trans => (k, m) };
            let (br, bc) = match op_b { GemmOp::NoTrans => (k, n), GemmOp::Trans => (n, k) };
            let a = global_block::<f64>(7, Rect::new(0, 0, ar, ac));
            let b = global_block::<f64>(8, Rect::new(0, 0, br, bc));
            let la = Layout::one_d_col(ar, ac, p);
            let lb = Layout::one_d_row(br, bc, p);
            let lc = Layout::two_d_block(m, n, 1, p);
            let prob = Problem::new(m, n, k, p);

            let fresh = run_fresh(prob, op_a, op_b, &la, &lb, &lc, &a, &b);
            let reused = Plan::build(
                prob, &Ca3dmmOptions::default(), Dtype::F64,
                op_a, &la, op_b, &lb, &lc,
            );
            // two batched reps through the same plan: both must equal fresh
            let planned = run_planned(&reused, p, &a, &b, 2);
            for (rank, (f, reps)) in fresh.iter().zip(&planned).enumerate() {
                for (rep, got) in reps.iter().enumerate() {
                    prop_assert_eq!(f.len(), got.len(), "rank {} rep {} block count", rank, rep);
                    for (x, y) in f.iter().zip(got) {
                        prop_assert_eq!(x.as_slice(), y.as_slice(), "rank {} rep {} bytes differ", rank, rep);
                    }
                }
            }
        }
    }

    #[test]
    fn plan_key_separates_shapes_and_opts() {
        let p = 4;
        let la = Layout::one_d_col(8, 6, p);
        let lb = Layout::one_d_col(6, 10, p);
        let lc = Layout::one_d_col(8, 10, p);
        let prob = Problem::new(8, 10, 6, p);
        let opts = Ca3dmmOptions::default();
        let base = PlanKey::new(
            &prob,
            &opts,
            Dtype::F64,
            GemmOp::NoTrans,
            &la,
            GemmOp::NoTrans,
            &lb,
            &lc,
        );
        // same arguments -> same key
        let again = PlanKey::new(
            &prob,
            &opts,
            Dtype::F64,
            GemmOp::NoTrans,
            &la,
            GemmOp::NoTrans,
            &lb,
            &lc,
        );
        assert_eq!(base, again);
        // dtype flips the key
        let f32_key = PlanKey {
            dtype: Dtype::F32,
            ..base
        };
        assert_ne!(base, f32_key);
        // option changes flip the key
        let blocking = PlanKey::new(
            &prob,
            &Ca3dmmOptions {
                overlap: false,
                ..Default::default()
            },
            Dtype::F64,
            GemmOp::NoTrans,
            &la,
            GemmOp::NoTrans,
            &lb,
            &lc,
        );
        assert_ne!(base, blocking);
        // a different layout with the same shape flips the key
        let la_row = Layout::one_d_row(8, 6, p);
        let diff_layout = PlanKey::new(
            &prob,
            &opts,
            Dtype::F64,
            GemmOp::NoTrans,
            &la_row,
            GemmOp::NoTrans,
            &lb,
            &lc,
        );
        assert_ne!(base, diff_layout);
    }

    #[test]
    fn plan_key_round_trips_from_plan() {
        let p = 4;
        let la = Layout::one_d_col(8, 6, p);
        let lb = Layout::one_d_col(6, 10, p);
        let lc = Layout::one_d_col(8, 10, p);
        let prob = Problem::new(8, 10, 6, p);
        let opts = Ca3dmmOptions::default();
        let plan = Plan::build(
            prob,
            &opts,
            Dtype::F64,
            GemmOp::NoTrans,
            &la,
            GemmOp::NoTrans,
            &lb,
            &lc,
        );
        let direct = PlanKey::new(
            &prob,
            &opts,
            Dtype::F64,
            GemmOp::NoTrans,
            &la,
            GemmOp::NoTrans,
            &lb,
            &lc,
        );
        assert_eq!(plan.key(), direct);
        assert!(plan.build_secs() >= 0.0);
    }

    /// `C = op_a(A) × B` with `m, n, k = 8, 10, 6` on `p = 4` ranks.
    fn build_8x10x6(op_a: GemmOp, la: &Layout, lb: &Layout, lc: &Layout) -> Plan {
        let opts = Ca3dmmOptions::default();
        let prob = Problem::new(8, 10, 6, 4);
        Plan::build(prob, &opts, Dtype::F64, op_a, la, GemmOp::NoTrans, lb, lc)
    }

    #[test]
    #[should_panic(expected = "dst layout shape must equal op(src) shape")]
    fn build_rejects_an_operand_shape_that_disagrees_with_the_problem() {
        // op(A) = Aᵀ is 6×8 where the problem needs m×k = 8×6
        let la = Layout::one_d_col(8, 6, 4);
        build_8x10x6(
            GemmOp::Trans,
            &la,
            &Layout::one_d_col(6, 10, 4),
            &Layout::one_d_col(8, 10, 4),
        );
    }

    #[test]
    #[should_panic(expected = "C layout must span exactly P ranks")]
    fn build_rejects_a_c_layout_over_another_rank_count() {
        let lc = Layout::one_d_col(8, 10, 5);
        build_8x10x6(
            GemmOp::NoTrans,
            &Layout::one_d_col(8, 6, 4),
            &Layout::one_d_col(6, 10, 4),
            &lc,
        );
    }

    #[test]
    #[should_panic(expected = "src/dst layouts span different rank counts")]
    fn build_rejects_an_operand_layout_over_another_rank_count() {
        let la = Layout::one_d_col(8, 6, 3);
        build_8x10x6(
            GemmOp::NoTrans,
            &la,
            &Layout::one_d_col(6, 10, 4),
            &Layout::one_d_col(8, 10, 4),
        );
    }
}
