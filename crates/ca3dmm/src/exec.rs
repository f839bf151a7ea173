//! The CA3DMM executor: Algorithm 1 steps 1–3 and 5–7 on the `msgpass`
//! runtime. Steps 4 and 8, the redistributions from and to user layouts,
//! wrap it in [`crate::Plan`].

use crate::cannon::{cannon_multi_shift, LocalC};
use crate::grid3d::{Coord, Family, Grid3d, GridComms, Pgemm};
use crate::grid_ctx::GridContext;
use crate::replicate::replicate_block;
use dense::part::{split_even, Rect};
use dense::{Mat, Scalar};
use gridopt::{ca3dmm_grid, Grid, Problem, DEFAULT_UTILIZATION_FLOOR};
use msgpass::collectives::Collectives;
use msgpass::{Comm, RankCtx};

/// Tuning knobs of a CA3DMM run.
#[derive(Clone, Copy, Debug)]
pub struct Ca3dmmOptions {
    /// Force a specific process grid (the artifact CLI's optional
    /// `mp np kp` arguments, used by Table II); `None` runs the step-1
    /// search.
    pub grid_override: Option<Grid>,
    /// §III-F multi-shift batching: when the Cannon blocks' k-extent is
    /// below this, several shifts feed one local GEMM
    /// ([`crate::cannon_multi_shift`]'s `min_k_per_gemm`). Defaults to
    /// [`dense::tune::KC_FLOOR`] (64), the shallowest depth slab of any
    /// host's GEMM blocking: a thinner product under-fills the slab and
    /// pays a full pass over the `C` block for it. 0 is plain Cannon, one
    /// GEMM per round (the ablation).
    pub multi_shift_min_k: usize,
    /// §III-F communication/computation overlap: run the Cannon shifts as
    /// a double-buffered nonblocking pipeline (default). `false` is the
    /// blocking ablation — every shift completes before its GEMM starts.
    pub overlap: bool,
    /// Which collective algorithms the replication and reduction phases
    /// use. `Hier` routes them through the two-level node-aware entry
    /// points (which fall back to flat per communicator when the topology
    /// doesn't engage); `Flat` (default) forces the single-level baselines.
    pub collectives: Collectives,
}

impl Default for Ca3dmmOptions {
    fn default() -> Self {
        Ca3dmmOptions {
            grid_override: None,
            multi_shift_min_k: dense::tune::KC_FLOOR,
            overlap: true,
            collectives: Collectives::Flat,
        }
    }
}

/// Summary of a configured CA3DMM run (the artifact's "CA3DMM partition
/// info" report).
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// The chosen (or forced) grid.
    pub grid: Grid,
    /// Active fraction of the `P` ranks.
    pub utilization: f64,
    /// Per-process communication volume over the eq. 9 lower bound.
    pub volume_ratio: f64,
    /// Work cuboid block sizes `⌈m/pm⌉ × ⌈n/pn⌉ × ⌈k/pk⌉`.
    pub cuboid: (usize, usize, usize),
}

jsonlite::record! {
    /// The `meta` block of a CA3DMM `RunReport`: enough of the run that
    /// `ca3dmm-report netdiff` can rebuild the schedule it executed and price
    /// it on a model machine, with no side channel beyond the report file.
    /// Written by [`Ca3dmm::report_meta`] and [`Ca3dmm::report_meta_serving`].
    #[derive(Clone, Debug, PartialEq)]
    pub struct RunMeta {
        /// The artifact's name.
        pub name: String,
        /// Rows of C.
        pub m: usize as jsonlite::Positive,
        /// Columns of C.
        pub n: usize as jsonlite::Positive,
        /// Inner dimension.
        pub k: usize as jsonlite::Positive,
        /// Ranks.
        pub p: usize as jsonlite::Positive,
        /// The executed process grid.
        pub grid: Grid,
        /// Whether Cannon ran its dual-buffered pipeline.
        pub overlap: bool,
        /// The collective mode of the replication and reduction phases.
        pub collectives: Collectives,
        /// Whether the run carries kernel profiles.
        pub gemm_prof: bool,
        /// Serving only: wall seconds the step-1 grid search took.
        pub grid_search_secs: Option<f64> as jsonlite::Optional,
        /// Serving only: whether the run reused a cached plan.
        pub plan_cached: Option<bool> as jsonlite::Optional,
        /// Serving only: the local-GEMM microkernel the dispatcher selected.
        pub gemm_kernel: Option<String> as jsonlite::Optional,
    }
}

impl RunMeta {
    /// The problem the run multiplied.
    pub fn problem(&self) -> Problem {
        Problem::new(self.m, self.n, self.k, self.p)
    }
}

/// A configured CA3DMM multiplication `C = op(A) × op(B)` on `P` ranks, in
/// the native layouts. For operands in user layouts build a
/// [`crate::Plan`], which owns one of these.
///
/// Construction (grid search + geometry) is pure arithmetic and identical
/// on every rank, so a `Ca3dmm` can be built either once outside
/// [`msgpass::World::run`] and shared, or independently inside each rank.
pub struct Ca3dmm {
    gc: GridContext,
    multi_shift_min_k: usize,
    overlap: bool,
    collectives: Collectives,
    /// Wall seconds the step-1 grid search took (0 for a forced grid).
    /// Re-running the search is exactly the cost a plan cache amortizes.
    grid_search_secs: f64,
}

impl Ca3dmm {
    /// Chooses the process grid for `prob` (Algorithm 1 step 1, at the
    /// paper's utilization floor `l = 0.95`) and builds the geometry.
    ///
    /// # Panics
    /// If a forced grid violates eq. 7 or exceeds `P`.
    pub fn new(prob: Problem, opts: &Ca3dmmOptions) -> Self {
        let (grid, search_secs) = match opts.grid_override {
            Some(g) => (g, 0.0),
            None => {
                let t0 = std::time::Instant::now();
                let grid = ca3dmm_grid(&prob, DEFAULT_UTILIZATION_FLOOR).grid;
                (grid, t0.elapsed().as_secs_f64())
            }
        };
        Ca3dmm {
            gc: GridContext::new(prob, grid),
            multi_shift_min_k: opts.multi_shift_min_k,
            overlap: opts.overlap,
            collectives: opts.collectives,
            grid_search_secs: search_secs,
        }
    }

    /// The geometry of this run.
    pub fn grid_context(&self) -> &GridContext {
        &self.gc
    }

    /// Wall seconds Algorithm 1 step 1 (the grid enumeration) took at
    /// construction; 0 when the grid was forced. This is the dominant
    /// per-construction cost a plan cache saves on repeat shapes.
    pub fn grid_search_secs(&self) -> f64 {
        self.grid_search_secs
    }

    /// The `meta` block for a `RunReport` artifact
    /// ([`msgpass::RunReport::to_json`]): this run's [`RunMeta`]. `report`
    /// is the run the meta will describe: `gemm_prof` records whether it
    /// carries kernel profiles.
    pub fn report_meta(&self, name: &str, report: &msgpass::RunReport) -> jsonlite::Json {
        self.run_meta(name, report).to_json()
    }

    /// [`Ca3dmm::report_meta`] plus plan-construction provenance: the
    /// [`RunMeta`] fields that are host-dependent, so the deterministic
    /// figure artifacts (which the tests diff byte for byte) must not embed
    /// them, while serving reports want them front and center.
    /// `plan_cached` is whether this run reused a cached plan, when the
    /// caller ran through a plan cache.
    pub fn report_meta_serving(
        &self,
        name: &str,
        report: &msgpass::RunReport,
        plan_cached: Option<bool>,
    ) -> jsonlite::Json {
        RunMeta {
            grid_search_secs: Some(self.grid_search_secs),
            plan_cached,
            gemm_kernel: Some(dense::kernel::gemm_kernel().name().to_owned()),
            ..self.run_meta(name, report)
        }
        .to_json()
    }

    fn run_meta(&self, name: &str, report: &msgpass::RunReport) -> RunMeta {
        let prob = self.gc.problem();
        RunMeta {
            name: name.to_owned(),
            m: prob.m,
            n: prob.n,
            k: prob.k,
            p: prob.p,
            grid: *self.gc.grid(),
            overlap: self.overlap,
            collectives: self.collectives,
            gemm_prof: !report.compute.is_empty(),
            grid_search_secs: None,
            plan_cached: None,
            gemm_kernel: None,
        }
    }

    /// The partition-info summary.
    pub fn stats(&self) -> RunStats {
        let prob = *self.gc.problem();
        let grid = *self.gc.grid();
        let choice = gridopt::GridChoice {
            grid,
            s_total: grid.surface(prob.m, prob.n, prob.k),
        };
        RunStats {
            grid,
            utilization: choice.utilization(prob.p),
            volume_ratio: choice.volume_ratio(&prob),
            cuboid: (
                prob.m.div_ceil(grid.pm),
                prob.n.div_ceil(grid.pn),
                prob.k.div_ceil(grid.pk),
            ),
        }
    }

    /// Builds the three sub-communicators of this grid (Cannon, replication
    /// and reduction groups), each from this rank's own group, so the cost
    /// follows the group sizes, not `P`. Collective over `world`; `None` on
    /// idle ranks. Any number of multiplies on the same grid can reuse one
    /// set ([`Pgemm::multiply_native_in_async`], [`crate::Plan::multiply_in`]).
    pub fn comms(&self, ctx: &RankCtx, world: &Comm) -> Option<GridComms> {
        self.gc.geo().comms(ctx, world)
    }

    /// Blocking façade over [`Pgemm::multiply_native_async`], kept for the
    /// frozen benchmark until item 7 (ROADMAP.md). Panics on a virtual rank.
    pub fn multiply_native<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        ctx.block_on(self.multiply_native_async(ctx, world, a_init, b_init))
    }

    /// Blocking façade over [`Pgemm::multiply_native_in_async`], kept for the
    /// frozen benchmark until item 7 (ROADMAP.md). Panics on a virtual rank.
    pub fn multiply_native_in<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        comms: &Option<GridComms>,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        ctx.block_on(self.multiply_native_in_async(ctx, world, comms, a_init, b_init))
    }

    /// [`Pgemm::simulate_native`], kept for the frozen benchmark until
    /// item 7 (ROADMAP.md).
    pub fn simulate_native(
        &self,
        machine: &netmodel::Machine,
        opts: msgpass::SimOptions,
    ) -> msgpass::RunReport {
        Pgemm::simulate_native(self, machine, opts)
    }
}

/// Steps 5–7 on the native layouts ([`GridContext::layout_a`] /
/// [`GridContext::layout_b`] in, the native C layout out): the
/// configuration §III-D analyses (steps 4/8 skipped) and the one the
/// strong-scaling figures call "library-native partitioning".
impl Pgemm for Ca3dmm {
    fn geo(&self) -> &Grid3d {
        self.gc.geo()
    }

    fn native(&self, at: Coord) -> [Option<Rect>; 2] {
        self.gc.native(at)
    }

    fn reduce(&self) -> Collectives {
        self.collectives
    }

    /// Step 5, allgather the replicated operand over the `c` peers, and
    /// step 6, Cannon on the tile; step 7 is the trait's reduction.
    async fn partial_c<T: Scalar>(
        &self,
        ctx: &RankCtx,
        comms: &GridComms,
        ab: [Option<Mat<T>>; 2],
    ) -> Mat<T> {
        let [Some(a_blk), Some(b_blk)] = ab else {
            unreachable!("every position holds an A and a B block")
        };
        let (gc, coord) = (&self.gc, self.gc.coord_at(comms.at()));
        // Step 5: replicate A or B across the Cannon groups.
        ctx.set_phase("replicate_ab");
        let replicate = async |slice: Mat<T>, blk: Rect| {
            let widths = split_even(blk.cols, gc.c);
            let peers = comms.of(Family::Peers);
            replicate_block(ctx, peers, slice, blk.rows, &widths, self.collectives).await
        };
        let (a_full, b_full) = if gc.a_replicated {
            (replicate(a_blk, gc.a_block(&coord)).await, b_blk)
        } else {
            (a_blk, replicate(b_blk, gc.b_block(&coord)).await)
        };
        // Step 6: Cannon within the group.
        ctx.set_phase("cannon_shift");
        let c = LocalC::reserve(a_full.rows(), b_full.cols());
        cannon_multi_shift(
            ctx,
            comms.of(Family::Tile),
            gc.s,
            (0, gc.s),
            a_full,
            b_full,
            c,
            self.multi_shift_min_k,
            self.overlap,
        )
        .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Dtype, Plan};
    use dense::gemm::{gemm_naive, GemmOp};
    use dense::random::global_block;
    use dense::testing::assert_gemm_close;
    use layout::Layout;
    use msgpass::World;

    /// End-to-end CA3DMM vs serial reference, with 1D-column user layouts
    /// (the artifact example program's configuration).
    fn check(m: usize, n: usize, k: usize, p: usize, op_a: GemmOp, op_b: GemmOp) {
        check_opts(m, n, k, p, op_a, op_b, &Ca3dmmOptions::default());
    }

    fn check_opts(
        m: usize,
        n: usize,
        k: usize,
        p: usize,
        op_a: GemmOp,
        op_b: GemmOp,
        opts: &Ca3dmmOptions,
    ) {
        // stored shapes
        let (ar, ac) = match op_a {
            GemmOp::NoTrans => (m, k),
            GemmOp::Trans => (k, m),
        };
        let (br, bc) = match op_b {
            GemmOp::NoTrans => (k, n),
            GemmOp::Trans => (n, k),
        };
        let a_stored = global_block::<f64>(11, Rect::new(0, 0, ar, ac));
        let b_stored = global_block::<f64>(22, Rect::new(0, 0, br, bc));
        let a_layout = Layout::one_d_col(ar, ac, p);
        let b_layout = Layout::one_d_col(br, bc, p);
        let c_layout = Layout::one_d_col(m, n, p);

        let plan = Plan::build(
            Problem::new(m, n, k, p),
            opts,
            Dtype::F64,
            op_a,
            &a_layout,
            op_b,
            &b_layout,
            &c_layout,
        );
        let parts = World::run(p, async |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            let a_blocks = a_layout.extract(&a_stored, me);
            let b_blocks = b_layout.extract(&b_stored, me);
            plan.multiply_async(ctx, &world, &a_blocks, &b_blocks).await
        });

        let mut c_ref = Mat::zeros(m, n);
        gemm_naive(op_a, op_b, 1.0, &a_stored, &b_stored, 0.0, &mut c_ref);
        let c_got = c_layout.assemble(&parts);
        assert_gemm_close(
            &c_got,
            &c_ref,
            k,
            &format!("ca3dmm m={m} n={n} k={k} p={p} {op_a:?}{op_b:?}"),
        );
    }

    /// A default-options plan for `C = A × B` in the given layouts.
    fn nn_plan(prob: Problem, dtype: Dtype, la: &Layout, lb: &Layout, lc: &Layout) -> Plan {
        let opts = Ca3dmmOptions::default();
        Plan::build(
            prob,
            &opts,
            dtype,
            GemmOp::NoTrans,
            la,
            GemmOp::NoTrans,
            lb,
            lc,
        )
    }

    #[test]
    fn paper_example_1_shape() {
        check(32, 64, 16, 8, GemmOp::NoTrans, GemmOp::NoTrans);
    }

    #[test]
    fn paper_example_2_shape() {
        check(32, 32, 64, 16, GemmOp::NoTrans, GemmOp::NoTrans);
    }

    #[test]
    fn paper_example_3_idle_rank() {
        check(32, 32, 64, 17, GemmOp::NoTrans, GemmOp::NoTrans);
    }

    #[test]
    fn uneven_dimensions() {
        check(33, 65, 17, 8, GemmOp::NoTrans, GemmOp::NoTrans);
        check(29, 31, 37, 12, GemmOp::NoTrans, GemmOp::NoTrans);
    }

    #[test]
    fn transposes() {
        check(20, 24, 28, 8, GemmOp::Trans, GemmOp::NoTrans);
        check(20, 24, 28, 8, GemmOp::NoTrans, GemmOp::Trans);
        check(20, 24, 28, 8, GemmOp::Trans, GemmOp::Trans);
    }

    #[test]
    fn single_process() {
        check(9, 7, 5, 1, GemmOp::NoTrans, GemmOp::NoTrans);
    }

    #[test]
    fn prime_process_count() {
        check(24, 24, 24, 7, GemmOp::NoTrans, GemmOp::NoTrans);
        check(24, 24, 24, 13, GemmOp::NoTrans, GemmOp::NoTrans);
    }

    #[test]
    fn degenerate_problems() {
        // rank-1 update
        check(16, 16, 1, 8, GemmOp::NoTrans, GemmOp::NoTrans);
        // matrix-vector
        check(32, 1, 32, 8, GemmOp::NoTrans, GemmOp::NoTrans);
        // inner product
        check(1, 1, 64, 8, GemmOp::NoTrans, GemmOp::NoTrans);
    }

    #[test]
    fn tall_skinny_classes() {
        // large-K
        check(6, 6, 240, 12, GemmOp::NoTrans, GemmOp::NoTrans);
        // large-M
        check(240, 6, 6, 12, GemmOp::NoTrans, GemmOp::NoTrans);
        // flat
        check(48, 48, 4, 12, GemmOp::NoTrans, GemmOp::NoTrans);
    }

    #[test]
    fn forced_grids() {
        // Table II scenario: run the same problem under several explicit
        // grids, all must be correct.
        for grid in [
            Grid::new(2, 2, 4),
            Grid::new(4, 2, 2),
            Grid::new(2, 4, 2),
            Grid::new(4, 4, 1),
            Grid::new(1, 1, 16),
            Grid::new(16, 1, 1),
        ] {
            check_opts(
                24,
                20,
                28,
                16,
                GemmOp::NoTrans,
                GemmOp::NoTrans,
                &Ca3dmmOptions {
                    grid_override: Some(grid),
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn f32_end_to_end() {
        let p = 8;
        let (m, n, k) = (16, 20, 24);
        let a = global_block::<f32>(1, Rect::new(0, 0, m, k));
        let b = global_block::<f32>(2, Rect::new(0, 0, k, n));
        let la = Layout::one_d_col(m, k, p);
        let lb = Layout::one_d_col(k, n, p);
        let lc = Layout::one_d_col(m, n, p);
        let plan = nn_plan(Problem::new(m, n, k, p), Dtype::F32, &la, &lb, &lc);
        let parts = World::run(p, async |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            plan.multiply_async(ctx, &world, &la.extract(&a, me), &lb.extract(&b, me))
                .await
        });
        let mut c_ref = Mat::<f32>::zeros(m, n);
        gemm_naive(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            0.0,
            &mut c_ref,
        );
        assert_gemm_close(&lc.assemble(&parts), &c_ref, k, "f32");
    }

    #[test]
    fn stats_report() {
        let mm = Ca3dmm::new(Problem::new(32, 32, 64, 17), &Ca3dmmOptions::default());
        let st = mm.stats();
        assert_eq!(st.grid, Grid::new(2, 2, 4));
        assert!(st.utilization < 1.0 && st.utilization > 0.9);
        assert!(st.volume_ratio >= 0.99);
        assert_eq!(st.cuboid, (16, 16, 16));
    }

    #[test]
    fn phases_are_labelled() {
        // traffic report must contain the paper's phase names
        let p = 8;
        let (m, n, k) = (32, 64, 16); // example 1: c=2 -> replication happens
        let a = global_block::<f64>(1, Rect::new(0, 0, m, k));
        let b = global_block::<f64>(2, Rect::new(0, 0, k, n));
        let la = Layout::one_d_col(m, k, p);
        let lb = Layout::one_d_col(k, n, p);
        let lc = Layout::one_d_col(m, n, p);
        let plan = nn_plan(Problem::new(m, n, k, p), Dtype::F64, &la, &lb, &lc);
        let (_, report) = World::run_traced(p, async |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            plan.multiply_async(ctx, &world, &la.extract(&a, me), &lb.extract(&b, me))
                .await
        });
        assert!(report.phase_total("redist").bytes > 0);
        assert!(
            report.phase_total("replicate_ab").bytes > 0,
            "c=2 must replicate"
        );
        assert!(report.phase_total("cannon_shift").bytes > 0);
        // pk = 1 here: no reduce traffic
        assert_eq!(report.phase_total("reduce_c").bytes, 0);
    }
}
