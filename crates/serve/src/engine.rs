//! The execution engine: runs plan batches on a persistent world.
//!
//! One [`Engine`] owns one [`msgpass::PersistentWorld`] of `p` rank
//! threads; the scheduler gives each of its concurrency slots its own
//! engine. A batch executes as one job: every rank generates its local
//! input blocks deterministically from the request seeds
//! ([`dense::random::global_block`]), runs [`Plan::multiply_batch`] (one
//! sub-communicator build for the whole batch), and digests its `C` blocks.
//!
//! # The checksum
//!
//! This is the one definition; the protocol, README and DESIGN §11 refer
//! here.
//!
//! * **Order.** `C`'s elements are read as one stream per rank: the rank's
//!   blocks in the order of `c_layout.owned(rank)`, each block row-major.
//!   Only the concatenated stream matters, not where the block boundaries
//!   fall.
//! * **Word fold.** Each element `x` contributes one 64-bit word, the bit
//!   pattern of `x as f64` (exact for `f32`): starting from the FNV offset
//!   basis `0xcbf29ce484222325`, `h = (h ^ word) · 0x100000001b3 mod 2⁶⁴`.
//! * **Finaliser.** The rank digest is the SplitMix64 mixer applied to `h`
//!   (the same mixer as in `dense::random`), so that the high bits of the
//!   last words reach the low digest bits.
//! * **Combine.** The request's checksum is the same fold and finaliser over
//!   the `p` rank digests in rank order, printed as 16 hex digits.
//! * **Sum.** The same pass adds the elements up — per block, then across
//!   the rank's blocks, then across ranks — as the response's `sum`.
//!
//! It promises that equal requests (shape, dtype, ops, layouts, seeds, `p`)
//! have equal checksums — cached plan or not, batched or not, whatever the
//! kernel thread count — and that any single changed element (`+0.0` vs
//! `-0.0` included) changes it: every fold step and the finaliser are
//! bijections of `h`. It is not cryptographic, it is not comparable across
//! `p` or layouts (the order is per rank), and its *values* are not part of
//! the protocol: only their equality is.

use ca3dmm::{Dtype, Plan};
use dense::random::global_block;
use dense::{Mat, Scalar};
use layout::Layout;
use msgpass::{Comm, JobPanic, PersistentWorld, RunOptions, RunReport};
use std::sync::Arc;
use std::time::Instant;

/// The word fold of the module-level checksum definition.
struct WordHash(u64);

impl WordHash {
    fn new() -> WordHash {
        WordHash(0xcbf2_9ce4_8422_2325)
    }

    /// Folds each item's word in and returns the sum of the items' values,
    /// in `Iterator::sum`'s order — one pass for both.
    fn fold_summing(&mut self, items: impl Iterator<Item = (u64, f64)>) -> f64 {
        let values = items.map(|(word, value)| {
            self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01B3);
            value
        });
        values.sum()
    }

    /// The SplitMix64 finaliser over the folded state.
    fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Digest and sum of one rank's (or one matrix region's) elements.
fn digest_blocks<T: Scalar>(blocks: &[Mat<T>]) -> (u64, f64) {
    let mut hash = WordHash::new();
    let word_and_value = |v: &T| (v.to_f64().to_bits(), v.to_f64());
    let per_block = blocks
        .iter()
        .map(|b| hash.fold_summing(b.as_slice().iter().map(word_and_value)));
    let sum = per_block.sum();
    (hash.finish(), sum)
}

/// Combines per-rank `(digest, sum)` pairs, in rank order, into a result.
fn combine(per_rank: impl Iterator<Item = (u64, f64)>) -> ItemResult {
    let mut hash = WordHash::new();
    let sum = hash.fold_summing(per_rank);
    ItemResult {
        checksum: format!("{:016x}", hash.finish()),
        sum,
    }
}

/// The result of one multiply in a batch.
#[derive(Clone, Debug, PartialEq)]
pub struct ItemResult {
    /// Hex digest of `C`'s elements in `(rank, block, row-major)` order
    /// (see the module docs) — the protocol's bitwise-identity observable.
    pub checksum: String,
    /// Plain element sum of `C` (numerically comparable to a serial
    /// reference).
    pub sum: f64,
}

/// One executed batch.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-request results, in batch order.
    pub items: Vec<ItemResult>,
    /// The job's run report (timeline populated when traced).
    pub report: RunReport,
    /// Wall seconds the whole batch took (communication + compute).
    pub exec_secs: f64,
}

/// A persistent `p`-rank execution engine.
pub struct Engine {
    world: PersistentWorld,
}

impl Engine {
    /// Spawns the rank workers.
    pub fn new(p: usize) -> Engine {
        Engine {
            world: PersistentWorld::new(p),
        }
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// Warms the kernel pool and the rank workers with one tiny GEMM per
    /// rank, so the first real request doesn't pay thread spawn latency.
    pub fn warm(&self) {
        let _ = self.world.run_job(RunOptions::default(), |_ctx| {
            let a = Mat::<f64>::zeros(8, 8);
            let b = Mat::<f64>::zeros(8, 8);
            let mut c = Mat::<f64>::zeros(8, 8);
            dense::gemm(
                dense::GemmOp::NoTrans,
                dense::GemmOp::NoTrans,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
            );
        });
    }

    /// Runs `seeds.len()` same-plan multiplies as one job. `trace` turns on
    /// the event timeline (for per-request RunReport emission — the
    /// scheduler only traces unbatched report requests).
    ///
    /// # Errors
    /// [`JobPanic`] if a rank panicked; the engine remains usable.
    pub fn run_batch(
        &self,
        plan: &Arc<Plan>,
        seeds: &[(u64, u64)],
        kernel_threads: usize,
        trace: bool,
    ) -> Result<BatchOutcome, JobPanic> {
        let opts = RunOptions {
            trace,
            kernel_threads_per_rank: Some(kernel_threads),
            ..RunOptions::default()
        };
        let t0 = Instant::now();
        let (per_rank, report) = match plan.dtype() {
            Dtype::F64 => self.run_typed::<f64>(Arc::clone(plan), seeds.to_vec(), opts)?,
            Dtype::F32 => self.run_typed::<f32>(Arc::clone(plan), seeds.to_vec(), opts)?,
        };
        let exec_secs = t0.elapsed().as_secs_f64();
        let items = (0..seeds.len())
            .map(|i| combine(per_rank.iter().map(|rank| rank[i])))
            .collect();
        Ok(BatchOutcome {
            items,
            report,
            exec_secs,
        })
    }

    /// The job itself: owns `plan` and `seeds` (the job closure is
    /// `'static`) and returns each rank's per-item `(digest, sum)`.
    #[allow(clippy::type_complexity)]
    fn run_typed<T: Scalar>(
        &self,
        plan: Arc<Plan>,
        seeds: Vec<(u64, u64)>,
        opts: RunOptions,
    ) -> Result<(Vec<Vec<(u64, f64)>>, RunReport), JobPanic> {
        self.world.run_job(opts, move |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            let items: Vec<(Vec<Mat<T>>, Vec<Mat<T>>)> = seeds
                .iter()
                .map(|&(sa, sb)| {
                    (
                        seeded_blocks::<T>(plan.a_layout(), me, sa),
                        seeded_blocks::<T>(plan.b_layout(), me, sb),
                    )
                })
                .collect();
            let outs = ctx.block_on(plan.multiply_batch(ctx, &world, items));
            outs.iter()
                .map(|blocks| digest_blocks(blocks))
                .collect::<Vec<_>>()
        })
    }
}

/// Rank `me`'s blocks of the deterministic global matrix `seed` under
/// `layout` — generated directly per rectangle, no global materialization.
pub fn seeded_blocks<T: Scalar>(layout: &Layout, me: usize, seed: u64) -> Vec<Mat<T>> {
    layout
        .owned(me)
        .iter()
        .map(|r| global_block::<T>(seed, *r))
        .collect()
}

/// The checksum/sum a distributed result with `layout` would produce if its
/// elements were exactly `global` — the serial-reference counterpart of the
/// engine's digest (same rank/block/row-major order).
pub fn digest_of_global<T: Scalar>(global: &Mat<T>, layout: &Layout) -> ItemResult {
    combine((0..layout.nranks()).map(|rank| digest_blocks(&layout.extract(global, rank))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca3dmm::Ca3dmmOptions;
    use dense::gemm::{gemm_naive, GemmOp};
    use dense::part::Rect;
    use gridopt::Problem;

    fn small_plan(m: usize, n: usize, k: usize, p: usize, dtype: Dtype) -> Arc<Plan> {
        let la = Layout::one_d_col(m, k, p);
        let lb = Layout::one_d_col(k, n, p);
        let lc = Layout::one_d_col(m, n, p);
        Arc::new(Plan::build(
            Problem::new(m, n, k, p),
            &Ca3dmmOptions::default(),
            dtype,
            GemmOp::NoTrans,
            &la,
            GemmOp::NoTrans,
            &lb,
            &lc,
        ))
    }

    #[test]
    fn equal_requests_have_equal_checksums_and_match_fresh_runs() {
        let engine = Engine::new(4);
        let plan = small_plan(24, 20, 16, 4, Dtype::F64);
        // one batch of three: two identical, one different seed
        let out = engine
            .run_batch(&plan, &[(5, 6), (5, 6), (7, 6)], 1, false)
            .unwrap();
        assert_eq!(out.items[0], out.items[1], "identical requests");
        assert_ne!(
            out.items[0].checksum, out.items[2].checksum,
            "different seed_a"
        );
        // a separate single-request job reproduces the same checksum
        let again = engine.run_batch(&plan, &[(5, 6)], 2, false).unwrap();
        assert_eq!(
            again.items[0], out.items[0],
            "batching does not change bits"
        );
    }

    #[test]
    fn sums_match_a_serial_reference() {
        let (m, n, k, p) = (18, 14, 10, 4);
        let engine = Engine::new(p);
        let plan = small_plan(m, n, k, p, Dtype::F64);
        let out = engine.run_batch(&plan, &[(3, 4)], 1, false).unwrap();
        let a = global_block::<f64>(3, Rect::new(0, 0, m, k));
        let b = global_block::<f64>(4, Rect::new(0, 0, k, n));
        let mut c = Mat::<f64>::zeros(m, n);
        gemm_naive(GemmOp::NoTrans, GemmOp::NoTrans, 1.0, &a, &b, 0.0, &mut c);
        let reference = digest_of_global(&c, plan.c_layout());
        let scale = (k as f64) * reference.sum.abs().max(1.0);
        assert!(
            (out.items[0].sum - reference.sum).abs() <= 1e-12 * scale,
            "distributed sum {} vs serial {}",
            out.items[0].sum,
            reference.sum
        );
    }

    /// Two blocks of seeded values, 5 rows of 4 in all.
    fn two_blocks() -> Vec<Mat<f64>> {
        vec![
            global_block(9, Rect::new(0, 0, 3, 4)),
            global_block(9, Rect::new(3, 0, 2, 4)),
        ]
    }

    #[test]
    fn any_single_bit_flip_changes_the_digest() {
        let base = digest_blocks(&two_blocks()).0;
        for block in 0..2 {
            for elem in 0..two_blocks()[block].len() {
                for bit in 0..64 {
                    let mut flipped = two_blocks();
                    let v = &mut flipped[block].as_mut_slice()[elem];
                    *v = f64::from_bits(v.to_bits() ^ (1 << bit));
                    assert_ne!(
                        digest_blocks(&flipped).0,
                        base,
                        "block {block} elem {elem} bit {bit}"
                    );
                }
            }
        }
        let zeros = |z: f64| digest_blocks(&[Mat::from_vec(1, 2, vec![1.5, z])]).0;
        assert_ne!(zeros(0.0), zeros(-0.0), "the digest reads bits, not values");
    }

    #[test]
    fn digest_follows_the_stream_order_not_the_block_split() {
        let base = digest_blocks(&two_blocks()).0;
        // swapping two unequal elements, within a block and across blocks
        let mut swapped = two_blocks();
        swapped[0].as_mut_slice().swap(1, 10);
        assert_ne!(digest_blocks(&swapped).0, base);
        let mut swapped = two_blocks();
        let (x, y) = (swapped[0].get(2, 3), swapped[1].get(0, 0));
        assert_ne!(x, y);
        swapped[0].set(2, 3, y);
        swapped[1].set(0, 0, x);
        assert_ne!(digest_blocks(&swapped).0, base);
        // the same 20 elements split 2 + 3 rows instead of 3 + 2
        let resplit = [
            global_block::<f64>(9, Rect::new(0, 0, 2, 4)),
            global_block::<f64>(9, Rect::new(2, 0, 3, 4)),
        ];
        assert_eq!(digest_blocks(&resplit).0, base);
        // an empty rank still has a digest, and it is not the empty word
        assert_ne!(digest_blocks::<f64>(&[]).0, 0);
    }

    #[test]
    fn sum_keeps_the_two_pass_association() {
        let blocks = [
            global_block::<f64>(3, Rect::new(0, 0, 250, 400)),
            global_block::<f64>(3, Rect::new(250, 0, 7, 400)),
        ];
        // the parent's second pass: per block, then across blocks
        let reference: f64 = blocks
            .iter()
            .map(|b| b.as_slice().iter().map(|v| v.to_f64()).sum::<f64>())
            .sum();
        assert_eq!(digest_blocks(&blocks).1.to_bits(), reference.to_bits());
        assert_eq!(digest_blocks::<f64>(&[]).1.to_bits(), (-0.0f64).to_bits());
    }

    /// The engine's per-rank digests equal the serial [`digest_of_global`]
    /// of the same product, assembled from a bare job on another world.
    fn engine_matches_serial_digest<T: Scalar>(dtype: Dtype) {
        let (m, n, k, p) = (33, 29, 37, 4);
        let plan = small_plan(m, n, k, p, dtype);
        let out = Engine::new(p)
            .run_batch(&plan, &[(3, 4)], 1, false)
            .unwrap();
        let parts = msgpass::World::run(p, async |ctx| {
            let world = Comm::world(ctx);
            let a = seeded_blocks::<T>(plan.a_layout(), world.rank(), 3);
            let b = seeded_blocks::<T>(plan.b_layout(), world.rank(), 4);
            let mut outs = plan.multiply_batch(ctx, &world, vec![(a, b)]).await;
            outs.remove(0)
        });
        let c = plan.c_layout().assemble(&parts);
        assert_eq!(out.items[0], digest_of_global(&c, plan.c_layout()));
        // and that product is the right one
        let a = global_block::<T>(3, Rect::new(0, 0, m, k));
        let b = global_block::<T>(4, Rect::new(0, 0, k, n));
        let mut serial = Mat::<T>::zeros(m, n);
        let (nt, one, zero) = (GemmOp::NoTrans, T::ONE, T::ZERO);
        gemm_naive(nt, nt, one, &a, &b, zero, &mut serial);
        assert!(c.max_abs_diff(&serial) <= 64.0 * k as f64 * T::EPSILON.to_f64());
    }

    #[test]
    fn engine_digest_equals_serial_digest_on_an_uneven_shape() {
        engine_matches_serial_digest::<f64>(Dtype::F64);
        engine_matches_serial_digest::<f32>(Dtype::F32);
    }

    #[test]
    fn a_batch_returns_exactly_its_single_request_results() {
        let engine = Engine::new(4);
        let plan = small_plan(33, 29, 37, 4, Dtype::F64);
        let seeds = [(1, 2), (3, 4), (5, 6)];
        let batch = engine.run_batch(&plan, &seeds, 1, false).unwrap();
        assert_eq!(batch.items.len(), 3);
        for (pair, item) in seeds.iter().zip(&batch.items) {
            let single = engine.run_batch(&plan, &[*pair], 1, false).unwrap();
            assert_eq!(single.items, std::slice::from_ref(item));
        }
        assert_ne!(batch.items[0].checksum, batch.items[1].checksum);
        assert_ne!(batch.items[1].checksum, batch.items[2].checksum);
    }

    #[test]
    fn f32_requests_run() {
        let engine = Engine::new(2);
        let plan = small_plan(9, 9, 9, 2, Dtype::F32);
        let out = engine.run_batch(&plan, &[(1, 2)], 1, false).unwrap();
        assert_eq!(out.items.len(), 1);
        assert!(out.items[0].sum.is_finite());
    }

    #[test]
    fn traced_batches_carry_a_timeline() {
        let engine = Engine::new(4);
        let plan = small_plan(16, 16, 16, 4, Dtype::F64);
        let out = engine.run_batch(&plan, &[(1, 2)], 1, true).unwrap();
        assert_eq!(out.report.timeline.ranks(), 4);
        assert!(!out.report.timeline.is_empty());
        assert!(out.exec_secs > 0.0);
        let _ = plan.key(); // key remains accessible post-run
    }
}
