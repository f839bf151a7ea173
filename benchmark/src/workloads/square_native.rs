//! `square_native`: one large square multiply in the library's native
//! layouts — the configuration §III-D of the paper analyses (steps 4/8
//! skipped). `dense` does most of the work; `layout` and `serve` are idle.

use super::{bind_ranks, corrupt_one_element, job_options, JobLedger, Workload};
use crate::rng::derive_seed;
use crate::span::Tracer;
use crate::verify::{freivalds, Stored, Verdict};
use ca3dmm::{Ca3dmm, Ca3dmmOptions};
use dense::part::Rect;
use dense::random::global_block;
use dense::Mat;
use gridopt::Problem;
use msgpass::{Comm, PersistentWorld, RunReport};
use std::collections::BTreeMap;
use std::sync::Arc;

pub const M: usize = 1536;
pub const N: usize = 1536;
pub const K: usize = 1536;
pub const P: usize = 8;

pub fn problem() -> Problem {
    Problem::new(M, N, K, P)
}

type NativeBlocks = Arc<Vec<Option<Mat<f64>>>>;

pub struct SquareNative {
    mm: Arc<Ca3dmm>,
    world: PersistentWorld,
    a: NativeBlocks,
    b: NativeBlocks,
    seed_a: u64,
    seed_b: u64,
    check_seed: u64,
    last: Option<(Vec<Option<Mat<f64>>>, RunReport)>,
    ledger: JobLedger,
}

/// Every rank's initial block of a seeded global matrix under a native
/// layout (one rectangle per active rank, none for idle ranks).
fn native_blocks(layout: &layout::Layout, seed: u64) -> NativeBlocks {
    Arc::new(
        (0..layout.nranks())
            .map(|r| {
                layout
                    .owned(r)
                    .first()
                    .map(|rect| global_block(seed, *rect))
            })
            .collect(),
    )
}

impl SquareNative {
    pub fn setup(seed: u64, tr: &Tracer, parent: u64) -> SquareNative {
        let world = tr.in_span("msgpass.world_spawn", parent, 0, || PersistentWorld::new(P));
        bind_ranks(&world);
        let mm = tr.in_span("ca3dmm.plan_build", parent, 0, || {
            Ca3dmm::new(problem(), &Ca3dmmOptions::default())
        });
        let (seed_a, seed_b) = (derive_seed(seed, 1), derive_seed(seed, 2));
        let gc = mm.grid_context();
        let (a, b) = tr.in_span("dense.operand_gen", parent, 0, || {
            (
                native_blocks(&gc.layout_a(), seed_a),
                native_blocks(&gc.layout_b(), seed_b),
            )
        });
        SquareNative {
            mm: Arc::new(mm),
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

impl Workload for SquareNative {
    fn op(&mut self, tr: &Tracer, parent: u64, op_id: u64) {
        let (mm, a, b) = (
            Arc::clone(&self.mm),
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
                // multiply_native consumes its inputs, so every op starts
                // from a fresh copy of the rank's initial blocks.
                let (ai, bi) = (a[me].clone(), b[me].clone());
                let comms = tr.in_span("ca3dmm.comms", rank.id(), op_id, || mm.comms(ctx, &world));
                tr.in_span("ca3dmm.multiply_native_in", rank.id(), op_id, || {
                    mm.multiply_native_in(ctx, &world, &comms, ai, bi)
                })
            })
            .expect("a rank panicked in square_native");
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
        let layout_c = self.mm.grid_context().layout_c();
        let blocks: Vec<(Rect, &Mat<f64>)> = parts
            .iter()
            .enumerate()
            .filter_map(|(r, m)| Some((*layout_c.owned(r).first()?, m.as_ref()?)))
            .collect();
        let a = Stored {
            seed: self.seed_a,
            rows: M,
            cols: K,
            trans: false,
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
            self.mm.stats().volume_ratio,
        );
    }
}
