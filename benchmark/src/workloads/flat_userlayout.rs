//! `flat_userlayout`: a flat (small-k) multiply through the full
//! Algorithm 1, with user layouts that share nothing with the native ones:
//! A stored transposed in 1D column blocks, B block-cyclic, C in 1D row
//! blocks. Redistribution (steps 4/8) and replication (step 5, `c = 2`)
//! do most of the work; `dense` runs skinny-k and pack-bound.

use super::{bind_ranks, corrupt_one_element, job_options, JobLedger, Workload};
use crate::rng::derive_seed;
use crate::span::Tracer;
use crate::verify::{freivalds, Stored, Verdict};
use ca3dmm::{Ca3dmmOptions, Dtype, Plan};
use dense::gemm::GemmOp;
use dense::part::Rect;
use dense::Mat;
use gridopt::Problem;
use layout::Layout;
use msgpass::{Comm, PersistentWorld, RunReport};
use serve::engine::seeded_blocks;
use std::collections::BTreeMap;
use std::sync::Arc;

pub const M: usize = 2048;
pub const N: usize = 2048;
pub const K: usize = 48;
pub const P: usize = 8;

pub fn problem() -> Problem {
    Problem::new(M, N, K, P)
}

/// Stored `A` is `k × m` (`op_a = Trans`), 1D column blocks.
pub fn layout_a() -> Layout {
    Layout::one_d_col(K, M, P)
}

/// `B` is `k × n`, block-cyclic over a 2×4 rank grid with 32×32 tiles.
pub fn layout_b() -> Layout {
    Layout::block_cyclic(K, N, 2, 4, 32, 32)
}

/// `C` is `m × n`, 1D row blocks.
pub fn layout_c() -> Layout {
    Layout::one_d_row(M, N, P)
}

pub fn build_plan() -> Plan {
    Plan::build(
        problem(),
        &Ca3dmmOptions::default(),
        Dtype::F64,
        GemmOp::Trans,
        &layout_a(),
        GemmOp::NoTrans,
        &layout_b(),
        &layout_c(),
    )
}

type UserBlocks = Arc<Vec<Vec<Mat<f64>>>>;

pub fn user_blocks(layout: &Layout, seed: u64) -> UserBlocks {
    Arc::new(
        (0..layout.nranks())
            .map(|r| seeded_blocks::<f64>(layout, r, seed))
            .collect(),
    )
}

pub struct FlatUserLayout {
    plan: Arc<Plan>,
    world: PersistentWorld,
    a: UserBlocks,
    b: UserBlocks,
    seed_a: u64,
    seed_b: u64,
    check_seed: u64,
    last: Option<(Vec<Vec<Mat<f64>>>, RunReport)>,
    ledger: JobLedger,
}

impl FlatUserLayout {
    pub fn setup(seed: u64, tr: &Tracer, parent: u64) -> FlatUserLayout {
        let world = tr.in_span("msgpass.world_spawn", parent, 0, || PersistentWorld::new(P));
        bind_ranks(&world);
        let plan = tr.in_span("ca3dmm.plan_build", parent, 0, build_plan);
        let (seed_a, seed_b) = (derive_seed(seed, 1), derive_seed(seed, 2));
        let (a, b) = tr.in_span("dense.operand_gen", parent, 0, || {
            (
                user_blocks(plan.a_layout(), seed_a),
                user_blocks(plan.b_layout(), seed_b),
            )
        });
        FlatUserLayout {
            plan: Arc::new(plan),
            world,
            a,
            b,
            seed_a,
            seed_b,
            check_seed: derive_seed(seed, 3),
            last: None,
            ledger: JobLedger::default(),
        }
    }
}

impl Workload for FlatUserLayout {
    fn op(&mut self, tr: &Tracer, parent: u64, op_id: u64) {
        let (plan, a, b) = (
            Arc::clone(&self.plan),
            Arc::clone(&self.a),
            Arc::clone(&self.b),
        );
        let job = tr.span("msgpass.run_job", parent, op_id);
        let (tr, job_id) = (tr.clone(), job.id());
        let out = self
            .world
            .run_job(job_options(), move |ctx| {
                let rank = tr.span("rank", job_id, op_id);
                let world = Comm::world(ctx);
                let me = world.rank();
                // Plan::multiply, split at its one internal seam so the
                // sub-communicator build shows as its own span.
                let comms = tr.in_span("ca3dmm.comms", rank.id(), op_id, || {
                    plan.ca3dmm().comms(ctx, &world)
                });
                tr.in_span("ca3dmm.plan_multiply_in", rank.id(), op_id, || {
                    plan.multiply_in(ctx, &world, &comms, &a[me], &b[me])
                })
            })
            .expect("a rank panicked in flat_userlayout");
        self.last = Some(out);
    }

    fn account(&mut self, op_secs: f64) -> bool {
        match &self.last {
            Some((_, report)) => {
                self.ledger.record(report, op_secs);
                true
            }
            None => false,
        }
    }

    fn verify(&mut self, inject_fault: bool) -> Verdict {
        let Some((parts, _)) = &mut self.last else {
            return Verdict::FAIL;
        };
        if inject_fault {
            corrupt_one_element(parts.iter_mut().flatten());
        }
        let layout_c = self.plan.c_layout();
        let blocks: Vec<(Rect, &Mat<f64>)> = parts
            .iter()
            .enumerate()
            .flat_map(|(r, mats)| layout_c.owned(r).iter().copied().zip(mats))
            .collect();
        let a = Stored {
            seed: self.seed_a,
            rows: K,
            cols: M,
            trans: true,
        };
        let b = Stored {
            seed: self.seed_b,
            rows: K,
            cols: N,
            trans: false,
        };
        freivalds(a, b, &blocks, self.check_seed)
    }

    fn ledger(&mut self, out: &mut BTreeMap<String, f64>) {
        self.ledger.emit(out);
        out.insert(
            "dense.flops_per_op".to_owned(),
            dense::gemm::gemm_flops(M, N, K),
        );
        out.insert(
            "gridopt.volume_ratio".to_owned(),
            self.plan.ca3dmm().stats().volume_ratio,
        );
    }
}
