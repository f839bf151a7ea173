//! The CA3DMM executor: Algorithm 1, steps 1–8, on the `msgpass` runtime.

use crate::cannon::cannon_multi_shift;
use crate::grid3d::{Family, GridComms};
use crate::grid_ctx::GridContext;
use crate::replicate::replicate_block;
use dense::gemm::GemmOp;
use dense::part::{split_even, Rect};
use dense::{Mat, Scalar, Shape64};
use gridopt::{ca3dmm_grid, Grid, Problem, DEFAULT_UTILIZATION_FLOOR};
use layout::Layout;
use msgpass::collectives::Collectives;
use msgpass::{Comm, RankCtx};
use std::sync::OnceLock;

/// Tuning knobs of a CA3DMM run.
#[derive(Clone, Copy, Debug)]
pub struct Ca3dmmOptions {
    /// Force a specific process grid (the artifact CLI's optional
    /// `mp np kp` arguments, used by Table II); `None` runs the step-1
    /// search.
    pub grid_override: Option<Grid>,
    /// §III-F multi-shift batching: when the Cannon blocks' k-extent is
    /// below this, several shifts feed one local GEMM. 0 disables.
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
            multi_shift_min_k: 0,
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

/// A configured CA3DMM multiplication `C = op(A) × op(B)` on `P` ranks.
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
    /// The native `[A, B, C]` layouts, built by the first [`Ca3dmm::multiply`]
    /// and shared by every rank after it: validating a layout is quadratic
    /// in `P`, too much to repeat on each of `P` ranks.
    native_layouts: OnceLock<[Layout; 3]>,
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
            native_layouts: OnceLock::new(),
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
    /// ([`msgpass::RunReport::to_json`]): enough of the problem and grid
    /// that `ca3dmm-report netdiff` can rebuild the schedule this run
    /// executed and price it on a model machine — without any side-channel
    /// beyond the report file itself. `report` is the run the meta will
    /// describe: `gemm_prof` records whether it carries kernel profiles.
    pub fn report_meta(&self, name: &str, report: &msgpass::RunReport) -> jsonlite::Json {
        let prob = self.gc.problem();
        let grid = self.gc.grid();
        jsonlite::Json::obj([
            ("name", jsonlite::Json::Str(name.to_owned())),
            ("m", jsonlite::Json::Num(prob.m as f64)),
            ("n", jsonlite::Json::Num(prob.n as f64)),
            ("k", jsonlite::Json::Num(prob.k as f64)),
            ("p", jsonlite::Json::Num(prob.p as f64)),
            ("overlap", jsonlite::Json::Bool(self.overlap)),
            (
                "gemm_prof",
                jsonlite::Json::Bool(!report.compute.is_empty()),
            ),
            (
                "collectives",
                jsonlite::Json::Str(self.collectives.as_str().to_owned()),
            ),
            (
                "grid",
                jsonlite::Json::obj([
                    ("pm", jsonlite::Json::Num(grid.pm as f64)),
                    ("pn", jsonlite::Json::Num(grid.pn as f64)),
                    ("pk", jsonlite::Json::Num(grid.pk as f64)),
                ]),
            ),
        ])
    }

    /// [`Ca3dmm::report_meta`] plus plan-construction provenance: the wall
    /// seconds the grid search took (`grid_search_secs`), whether this run
    /// reused a cached plan (when the caller ran through a plan cache), and
    /// the local-GEMM microkernel the dispatcher selected. Kept separate
    /// from `report_meta` because these are host-dependent — the
    /// deterministic figure artifacts (which CI diffs byte-for-byte) must
    /// not embed them, while serving reports want them front and center.
    pub fn report_meta_serving(
        &self,
        name: &str,
        report: &msgpass::RunReport,
        plan_cached: Option<bool>,
    ) -> jsonlite::Json {
        let mut meta = self.report_meta(name, report);
        if let jsonlite::Json::Obj(m) = &mut meta {
            m.insert(
                "grid_search_secs".to_owned(),
                jsonlite::Json::Num(self.grid_search_secs),
            );
            if let Some(hit) = plan_cached {
                m.insert("plan_cached".to_owned(), jsonlite::Json::Bool(hit));
            }
            m.insert(
                "gemm_kernel".to_owned(),
                jsonlite::Json::Str(dense::kernel::gemm_kernel().name().to_owned()),
            );
        }
        meta
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

    /// The full Algorithm 1: redistributes `A` and `B` from the caller's
    /// layouts into the native distributions (applying `op_a`/`op_b` on the
    /// way), multiplies, and redistributes `C` into `c_layout`. Collective
    /// over `world` (which must have `P` ranks); idle ranks participate in
    /// the redistribution steps only, as in the paper.
    ///
    /// `a_layout` describes the *stored* `A` (shape `k×m` when
    /// `op_a == Trans`), and `a_blocks` are this rank's local blocks in
    /// that layout; likewise for `B`. Returns this rank's blocks of `C` in
    /// `c_layout`.
    #[allow(clippy::too_many_arguments)]
    pub async fn multiply<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        op_a: GemmOp,
        a_layout: &Layout,
        a_blocks: &[Mat<T>],
        op_b: GemmOp,
        b_layout: &Layout,
        b_blocks: &[Mat<T>],
        c_layout: &Layout,
    ) -> Vec<Mat<T>> {
        let gc = &self.gc;
        let comms = self.comms(ctx, world);
        let [na, nb, nc] =
            (self.native_layouts).get_or_init(|| [gc.layout_a(), gc.layout_b(), gc.layout_c()]);
        layout::multiply_in_layouts(
            world,
            ctx,
            (op_a, a_layout, a_blocks),
            (op_b, b_layout, b_blocks),
            c_layout,
            [na, nb, nc],
            async |a, b| {
                self.multiply_native_in_async(ctx, world, &comms, a, b)
                    .await
            },
        )
        .await
    }

    /// Builds the three sub-communicators of this grid (Cannon, replication
    /// and reduction groups). Collective over `world`; the membership lists
    /// were already solved at construction, so this only performs the
    /// `subgroup` calls; `None` on idle ranks. A batch of multiplies on the
    /// same grid can reuse one set across every item — that is the
    /// "same-shape requests share one grid launch" half of the serving
    /// batcher.
    pub fn comms(&self, ctx: &RankCtx, world: &Comm) -> Option<GridComms> {
        self.gc.geo().comms(ctx, world)
    }

    /// Blocking façade over [`Ca3dmm::multiply_native_async`], kept for the frozen
    /// benchmark until item 7 (ROADMAP.md). Panics on a virtual rank.
    pub fn multiply_native<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        ctx.block_on(self.multiply_native_async(ctx, world, a_init, b_init))
    }

    /// Steps 5–7 only: inputs already in the native layouts
    /// ([`GridContext::layout_a`] / [`GridContext::layout_b`]), output left
    /// in the native C layout. This is the configuration §III-D analyses
    /// (steps 4/8 skipped) and the one the strong-scaling figures call
    /// "library-native partitioning".
    ///
    /// Collective over `world`. Active ranks pass their initial block
    /// (`None` if their native rectangle is empty) and receive their final
    /// C strip; idle ranks pass `None` and receive `None`.
    pub async fn multiply_native_async<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        let comms = self.comms(ctx, world);
        self.multiply_native_in_async(ctx, world, &comms, a_init, b_init)
            .await
    }

    /// Blocking façade over [`Ca3dmm::multiply_native_in_async`], kept for the
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

    /// Steps 5–7 with caller-provided sub-communicators (see
    /// [`Ca3dmm::comms`]), which must have been built over `world`: the
    /// unified driver ([`GridComms::multiply_native`]) with CA3DMM's
    /// closure — allgather the replicated operand over the `c` peers, then
    /// Cannon on the tile.
    pub async fn multiply_native_in_async<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        comms: &Option<GridComms>,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        let (gc, comms) = (&self.gc, comms.as_ref()?);
        debug_assert_eq!(gc.geo().coord(world.rank()), Some(comms.at()));
        let coord = gc.coord_at(comms.at());
        let (init, native) = ([a_init, b_init], gc.native(comms.at()));
        let partial_c = async |ab: [Option<Mat<T>>; 2]| {
            let [Some(a_blk), Some(b_blk)] = ab else {
                unreachable!("every position holds an A and a B block")
            };
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
            let mut c_partial = Mat::zeros(a_full.rows(), b_full.cols());
            cannon_multi_shift(
                ctx,
                comms.of(Family::Tile),
                gc.s,
                (0, gc.s),
                a_full,
                b_full,
                &mut c_partial,
                self.multi_shift_min_k,
                self.overlap,
            )
            .await;
            c_partial
        };
        // Step 7, the reduction of the pk partial results, is the driver's.
        let reduce = self.collectives;
        Some(
            comms
                .multiply_native(ctx, init, native, reduce, partial_c)
                .await,
        )
    }

    /// Runs steps 5–7 under the virtual-time backend
    /// ([`msgpass::World::simulate`]): the *same*
    /// [`Ca3dmm::multiply_native_async`] program every wall-clock test
    /// executes, but on `P` simulated ranks
    /// whose sends, receives, and local GEMMs are charged against
    /// `machine`. This is how the strong-scaling figures run CA3DMM at
    /// paper-scale process counts (`p` in the thousands) on one host.
    ///
    /// The communication pattern, which is what virtual time measures, does
    /// not depend on the matrix values, so numerical output is meaningless
    /// here. `opts.execute_compute` picks the element type the one generic
    /// schedule runs over: `f64` zero blocks when the arithmetic is to be
    /// executed, [`Shape64`] when it is skipped (the configuration to use at
    /// scale) — then no block, message or partial result owns any memory
    /// and nothing is copied or summed, while message sizes, counts, clocks
    /// and the report are identical to the `f64` run.
    pub fn simulate_native(
        &self,
        machine: &netmodel::Machine,
        opts: msgpass::SimOptions,
    ) -> msgpass::RunReport {
        if opts.execute_compute {
            self.simulate_native_over::<f64>(machine, opts)
        } else {
            self.simulate_native_over::<Shape64>(machine, opts)
        }
    }

    fn simulate_native_over<T: Scalar>(
        &self,
        machine: &netmodel::Machine,
        opts: msgpass::SimOptions,
    ) -> msgpass::RunReport {
        let p = self.gc.problem().p;
        // Missing initial blocks default to zeros of the native shape.
        let (_, report) = msgpass::World::simulate(p, machine, opts, async |ctx| {
            let world = Comm::world(ctx);
            self.multiply_native_async::<T>(ctx, &world, None, None)
                .await;
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gemm::gemm_naive;
    use dense::random::global_block;
    use dense::testing::assert_gemm_close;
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

        let mm = Ca3dmm::new(Problem::new(m, n, k, p), opts);
        let parts = World::run(p, async |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            let a_blocks = a_layout.extract(&a_stored, me);
            let b_blocks = b_layout.extract(&b_stored, me);
            mm.multiply(
                ctx, &world, op_a, &a_layout, &a_blocks, op_b, &b_layout, &b_blocks, &c_layout,
            )
            .await
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
        let mm = Ca3dmm::new(Problem::new(m, n, k, p), &Ca3dmmOptions::default());
        let parts = World::run(p, async |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            mm.multiply(
                ctx,
                &world,
                GemmOp::NoTrans,
                &la,
                &la.extract(&a, me),
                GemmOp::NoTrans,
                &lb,
                &lb.extract(&b, me),
                &lc,
            )
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
        let mm = Ca3dmm::new(Problem::new(m, n, k, p), &Ca3dmmOptions::default());
        let (_, report) = World::run_traced(p, async |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            mm.multiply(
                ctx,
                &world,
                GemmOp::NoTrans,
                &la,
                &la.extract(&a, me),
                GemmOp::NoTrans,
                &lb,
                &lb.extract(&b, me),
                &lc,
            )
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
