//! Per-layer probes: each layer measured on its own, through public
//! functions only, at the shapes the workload gives it. A probe times a
//! call `reps` times and reports the 10th percentile — the call's own cost
//! when the host is quiet — unless the value is exact (a count).
//!
//! Host-level probes (kernel peak, memcpy, channel latency/bandwidth, …)
//! run for every workload; shaped probes run only where the workload uses
//! the layer, and the driver reports 0 for the rest ("this layer does no
//! work here").

use crate::rng::derive_seed;
use crate::stats;
use crate::workloads::{flat_userlayout, job_options, serve_mix, sim_scale, square_native};
use baselines::{C25d, CosmaLike, SummaPgemm};
use ca3dmm::{Ca3dmm, Ca3dmmOptions, Dtype, GridContext, Plan, RankCoord};
use dense::gemm::GemmOp;
use dense::part::Rect;
use dense::random::global_block;
use dense::{Mat, Scalar};
use gridopt::Problem;
use jsonlite::Json;
use layout::{redistribute_planned, Layout, RedistPlan};
use msgpass::collectives::{allgatherv, reduce_scatter};
use msgpass::{Comm, PersistentWorld, RankCtx, SimOptions, World};
use netmodel::Machine;
use serve::engine::seeded_blocks;
use serve::Engine;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

type Out = BTreeMap<String, f64>;

/// 10th percentile of `reps` timings of `f`, seconds.
fn p10_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::quantile_of(&samples, 0.10)
}

/// 10th percentile over `reps` jobs of the slowest rank's own timing of
/// `f` — for collective calls, which only make sense inside a job.
fn p10_job_secs<F>(world: &PersistentWorld, reps: usize, f: F) -> f64
where
    F: Fn(&RankCtx, &Comm) + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let f = Arc::clone(&f);
            let (secs, _) = world
                .run_job(job_options(), move |ctx| {
                    let comm = Comm::world(ctx);
                    let t0 = Instant::now();
                    f(ctx, &comm);
                    t0.elapsed().as_secs_f64()
                })
                .expect("a rank panicked in a probe job");
            secs.into_iter().fold(0.0, f64::max)
        })
        .collect();
    stats::quantile_of(&samples, 0.10)
}

// ---------------------------------------------------------------- host --

fn host_probes(out: &mut Out, world_p: usize) {
    out.insert(
        "dense.probed_peak_gflops".to_owned(),
        dense::probed_peak_gflops::<f64>(),
    );

    // 64 MiB per buffer: far beyond L2 (the L3 a VM reports is not ours).
    const COPY_BYTES: usize = 64 << 20;
    let src = vec![1u8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    let secs = p10_secs(8, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    out.insert(
        "bench.memcpy_gbs".to_owned(),
        COPY_BYTES as f64 / secs / 1e9,
    );
    drop((src, dst));

    let pair = PersistentWorld::new(2);
    const TRIPS: usize = 500;
    let secs = p10_job_secs(&pair, 20, |ctx, comm| {
        let peer = 1 - comm.rank();
        for trip in 0..TRIPS as u64 {
            if comm.rank() == 0 {
                comm.send(ctx, peer, 1, trip);
                let _: u64 = comm.recv(ctx, peer, 1);
            } else {
                let v: u64 = comm.recv(ctx, peer, 1);
                comm.send(ctx, peer, 1, v);
            }
        }
    });
    out.insert(
        "msgpass.pingpong_us".to_owned(),
        secs * 1e6 / (2 * TRIPS) as f64,
    );

    const P2P_ELEMS: usize = 1 << 20; // 8 MiB of f64
    let secs = p10_job_secs(&pair, 12, |ctx, comm| {
        let peer = 1 - comm.rank();
        if comm.rank() == 0 {
            comm.send(ctx, peer, 2, vec![1.0f64; P2P_ELEMS]);
            let _: u64 = comm.recv(ctx, peer, 3);
        } else {
            let v: Vec<f64> = comm.recv(ctx, peer, 2);
            comm.send(ctx, peer, 3, v.len() as u64);
        }
    });
    out.insert(
        "msgpass.p2p_gbs".to_owned(),
        (P2P_ELEMS * 8) as f64 / secs / 1e9,
    );
    drop(pair);

    let world = PersistentWorld::new(world_p);
    let secs = p10_secs(200, || {
        world
            .run_job(job_options(), |_ctx| ())
            .expect("empty job cannot panic");
    });
    out.insert("msgpass.job_roundtrip_us".to_owned(), secs * 1e6);

    // Three subgroup builds over a partition into pairs: the same three
    // exchanges `Ca3dmm::comms` performs, on generic groups.
    let pairs: Vec<Vec<usize>> = (0..world_p / 2).map(|g| vec![2 * g, 2 * g + 1]).collect();
    let secs = p10_job_secs(&world, 50, move |ctx, comm| {
        for _ in 0..3 {
            black_box(comm.subgroup(ctx, &pairs));
        }
    });
    out.insert("msgpass.subgroup_us".to_owned(), secs * 1e6);

    let big = Problem::new(3072, 3072, 6144, 3072);
    let secs = p10_secs(20, || {
        black_box(gridopt::ca3dmm_grid(
            black_box(&big),
            gridopt::DEFAULT_UTILIZATION_FLOOR,
        ));
    });
    out.insert("gridopt.search_p3072_us".to_owned(), secs * 1e6);

    let shape = &serve_mix::shapes(1)[24];
    let line = serve_mix::request_line(shape, "r0");
    let secs = p10_secs(2000, || {
        black_box(Json::parse(black_box(&line)).expect("request line is JSON"));
    });
    out.insert("jsonlite.parse_us".to_owned(), secs * 1e6);
    let limits = serve::Limits::default();
    let secs = p10_secs(2000, || {
        black_box(
            serve::protocol::parse_request(black_box(&line), serve_mix::P, &limits)
                .expect("request line is valid"),
        );
    });
    out.insert("serve.parse_us".to_owned(), secs * 1e6);
    let response = Json::obj([
        ("id", Json::Str("r0".to_owned())),
        ("ok", Json::Bool(true)),
        ("cache", Json::Str("hit".to_owned())),
        ("batched", Json::Num(1.0)),
        ("plan_ms", Json::Num(0.001_234)),
        ("exec_ms", Json::Num(0.734_519)),
        ("total_ms", Json::Num(0.801_337)),
        ("checksum", Json::Str("cbf29ce484222325".to_owned())),
        ("sum", Json::Num(-12.345_678_901_234)),
        (
            "grid",
            Json::obj([
                ("pm", Json::Num(2.0)),
                ("pn", Json::Num(2.0)),
                ("pk", Json::Num(1.0)),
            ]),
        ),
    ]);
    let secs = p10_secs(2000, || {
        black_box(black_box(&response).to_string());
    });
    out.insert("jsonlite.emit_us".to_owned(), secs * 1e6);

    let machine = Machine::phoenix_cpu();
    let placement = machine.pure_mpi();
    let sim = Ca3dmm::new(sim_scale::problem(), &Ca3dmmOptions::default());
    let secs = p10_secs(50, || {
        black_box(sim_scale::model_cost(&sim, &machine, placement));
    });
    out.insert("netmodel.eval_us".to_owned(), secs * 1e6);
}

// -------------------------------------------------------------- shaped --

/// One `dense::gemm` at the shape a rank multiplies per Cannon step, on
/// one thread: (ms, % of the probed kernel peak).
fn gemm_block<T: Scalar>(out: &mut Out, gc: &GridContext) {
    let coord = gc.coord_of(0);
    let (ra, rb) = (gc.a_block(&coord), gc.b_block(&coord));
    let a = global_block::<T>(1, Rect::full(ra.rows, ra.cols));
    let b = global_block::<T>(2, Rect::full(rb.rows, rb.cols));
    let mut c = Mat::<T>::zeros(ra.rows, rb.cols);
    dense::pool::set_rank_gemm_threads(Some(1));
    let secs = p10_secs(20, || {
        dense::gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            T::ONE,
            &a,
            &b,
            T::ZERO,
            &mut c,
        );
        black_box(&mut c);
    });
    dense::pool::set_rank_gemm_threads(None);
    let gflops = dense::gemm::gemm_flops(ra.rows, rb.cols, ra.cols) / secs / 1e9;
    out.insert("dense.gemm_block_ms".to_owned(), secs * 1e3);
    out.insert(
        "dense.gemm_block_peak_pct".to_owned(),
        100.0 * gflops / dense::probed_peak_gflops::<T>(),
    );
}

/// `global_block` for the rectangles one rank owns of A and B.
fn operand_gen(out: &mut Out, la: &Layout, lb: &Layout) {
    let secs = p10_secs(20, || {
        black_box(seeded_blocks::<f64>(la, 0, 11));
        black_box(seeded_blocks::<f64>(lb, 0, 12));
    });
    out.insert("dense.operand_gen_ms".to_owned(), secs * 1e3);
}

fn world_spawn(out: &mut Out, p: usize) {
    let mut worlds = Vec::new();
    let secs = p10_secs(20, || worlds.push(PersistentWorld::new(p)));
    out.insert("msgpass.world_spawn_ms".to_owned(), secs * 1e3);
}

fn grid_search(out: &mut Out, prob: Problem) {
    let secs = p10_secs(50, || {
        black_box(gridopt::ca3dmm_grid(
            black_box(&prob),
            gridopt::DEFAULT_UTILIZATION_FLOOR,
        ));
    });
    out.insert("gridopt.search_us".to_owned(), secs * 1e6);
}

fn comms_build(out: &mut Out, world: &PersistentWorld, mm: &Arc<Ca3dmm>) {
    let mm = Arc::clone(mm);
    let secs = p10_job_secs(world, 50, move |ctx, comm| {
        black_box(mm.comms(ctx, comm));
    });
    out.insert("ca3dmm.comms_build_us".to_owned(), secs * 1e6);
}

/// The step-5 allgather and the step-7 reduce-scatter on their own, over
/// the real groups at the real message sizes, all groups at once as in the
/// multiply. A phase the grid does not have (c = 1, pk = 1) reports 0.
fn phase_collectives(out: &mut Out, world: &PersistentWorld, gc: &GridContext) {
    let (s, c, pk) = (gc.s, gc.c, gc.grid().pk);
    let coord0 = gc.coord_of(0);
    let mut us = |name: &str, secs: f64| {
        out.insert(name.to_owned(), secs * 1e6);
    };

    if c > 1 {
        let groups: Vec<Vec<usize>> = (0..pk)
            .flat_map(|kt| {
                (0..s * s).map(move |idx| RankCoord {
                    i: idx % s,
                    j: idx / s,
                    cg: 0,
                    kt,
                })
            })
            .map(|coord| gc.replication_group(&coord))
            .collect();
        let blk = if gc.a_replicated {
            gc.a_block(&coord0)
        } else {
            gc.b_block(&coord0)
        };
        let counts: Vec<usize> = dense::split_even(blk.cols, c)
            .iter()
            .map(|w| blk.rows * w)
            .collect();
        let secs = p10_job_secs(world, 20, move |ctx, comm| {
            if let Some(group) = comm.subgroup(ctx, &groups) {
                let mine = vec![1.0f64; counts[group.rank()]];
                black_box(allgatherv(&group, ctx, mine, &counts));
            }
        });
        us("msgpass.allgatherv_us", secs);
    } else {
        us("msgpass.allgatherv_us", 0.0);
    }

    if pk > 1 {
        let groups: Vec<Vec<usize>> = (0..c)
            .flat_map(|cg| {
                (0..s * s).map(move |idx| RankCoord {
                    i: idx % s,
                    j: idx / s,
                    cg,
                    kt: 0,
                })
            })
            .map(|coord| gc.reduce_group(&coord))
            .collect();
        let blk = gc.c_block(&coord0);
        let counts: Vec<usize> = dense::split_even(blk.rows, pk)
            .iter()
            .map(|r| r * blk.cols)
            .collect();
        let secs = p10_job_secs(world, 20, move |ctx, comm| {
            if let Some(group) = comm.subgroup(ctx, &groups) {
                let data = vec![1.0f64; counts.iter().sum()];
                black_box(reduce_scatter(&group, ctx, data, &counts));
            }
        });
        us("msgpass.reduce_scatter_us", secs);
    } else {
        us("msgpass.reduce_scatter_us", 0.0);
    }
}

/// PGEMM baselines on the same problem in their own native layouts, next to
/// CA3DMM's native multiply (context, not a gate: 5 reps each).
fn baseline_algos(out: &mut Out, world: &PersistentWorld, prob: Problem) {
    fn run<F>(world: &PersistentWorld, la: Layout, lb: Layout, f: F) -> f64
    where
        F: Fn(&RankCtx, &Comm, Option<Mat<f64>>, Option<Mat<f64>>) + Send + Sync + 'static,
    {
        let a: Vec<Option<Mat<f64>>> = (0..la.nranks())
            .map(|r| la.owned(r).first().map(|rect| global_block(1, *rect)))
            .collect();
        let b: Vec<Option<Mat<f64>>> = (0..lb.nranks())
            .map(|r| lb.owned(r).first().map(|rect| global_block(2, *rect)))
            .collect();
        let f = Arc::new(f);
        let (a, b) = (Arc::new(a), Arc::new(b));
        p10_secs(5, || {
            let (f, a, b) = (Arc::clone(&f), Arc::clone(&a), Arc::clone(&b));
            world
                .run_job(job_options(), move |ctx| {
                    let comm = Comm::world(ctx);
                    let me = comm.rank();
                    f(ctx, &comm, a[me].clone(), b[me].clone());
                })
                .expect("a rank panicked in a baseline");
        })
    }

    let ca = Ca3dmm::new(prob, &Ca3dmmOptions::default());
    let gc = ca.grid_context();
    let ca_secs = run(world, gc.layout_a(), gc.layout_b(), move |ctx, w, a, b| {
        black_box(ca.multiply_native(ctx, w, a, b));
    });
    let cosma = CosmaLike::new(prob, None);
    let cosma_secs = run(
        world,
        cosma.layout_a(),
        cosma.layout_b(),
        move |ctx, w, a, b| {
            black_box(cosma.multiply_native(ctx, w, a, b));
        },
    );
    let summa = SummaPgemm::new(prob, None);
    let summa_secs = run(
        world,
        summa.layout_a(),
        summa.layout_b(),
        move |ctx, w, a, b| {
            black_box(summa.multiply_native(ctx, w, a, b));
        },
    );
    let c25d = C25d::new(prob, None);
    let c25d_secs = run(
        world,
        c25d.layout_a(),
        c25d.layout_b(),
        move |ctx, w, a, b| {
            black_box(c25d.multiply_native(ctx, w, a, b));
        },
    );
    out.insert("baselines.cosma_ms".to_owned(), cosma_secs * 1e3);
    out.insert("baselines.summa_ms".to_owned(), summa_secs * 1e3);
    out.insert("baselines.c25d_ms".to_owned(), c25d_secs * 1e3);
    let best = cosma_secs.min(summa_secs).min(c25d_secs);
    out.insert("baselines.ca3dmm_vs_best".to_owned(), ca_secs / best);
}

// ----------------------------------------------------------- workloads --

fn square_native_probes(out: &mut Out) {
    let prob = square_native::problem();
    host_probes(out, prob.p);
    let mm = Arc::new(Ca3dmm::new(prob, &Ca3dmmOptions::default()));
    let gc = mm.grid_context();
    gemm_block::<f64>(out, gc);
    operand_gen(out, &gc.layout_a(), &gc.layout_b());
    world_spawn(out, prob.p);
    grid_search(out, prob);
    let secs = p10_secs(20, || {
        black_box(Ca3dmm::new(prob, &Ca3dmmOptions::default()));
    });
    out.insert("ca3dmm.plan_build_ms".to_owned(), secs * 1e3);
    let world = PersistentWorld::new(prob.p);
    comms_build(out, &world, &mm);
    phase_collectives(out, &world, gc);
    baseline_algos(out, &world, prob);
}

fn flat_userlayout_probes(out: &mut Out, seed: u64) {
    let prob = flat_userlayout::problem();
    host_probes(out, prob.p);
    let plan = Arc::new(flat_userlayout::build_plan());
    let mm = Arc::new(Ca3dmm::new(prob, &Ca3dmmOptions::default()));
    let gc = mm.grid_context();
    gemm_block::<f64>(out, gc);
    operand_gen(out, plan.a_layout(), plan.b_layout());
    world_spawn(out, prob.p);
    grid_search(out, prob);
    let secs = p10_secs(20, || {
        black_box(flat_userlayout::build_plan());
    });
    out.insert("ca3dmm.plan_build_ms".to_owned(), secs * 1e3);

    // The three redistribution programs exactly as `Plan::build` makes them.
    let (ua, ub, uc) = (
        flat_userlayout::layout_a(),
        flat_userlayout::layout_b(),
        flat_userlayout::layout_c(),
    );
    let (na, nb, nc) = (gc.layout_a(), gc.layout_b(), gc.layout_c());
    let secs = p10_secs(20, || {
        black_box(RedistPlan::new(&ua, &na, GemmOp::Trans));
        black_box(RedistPlan::new(&ub, &nb, GemmOp::NoTrans));
        black_box(RedistPlan::new(&nc, &uc, GemmOp::NoTrans));
    });
    out.insert("layout.redist_plan_ms".to_owned(), secs * 1e3);

    let world = PersistentWorld::new(prob.p);
    let redist_a = Arc::new(RedistPlan::new(&ua, &na, GemmOp::Trans));
    let redist_b = Arc::new(RedistPlan::new(&ub, &nb, GemmOp::NoTrans));
    let redist_c = Arc::new(RedistPlan::new(&nc, &uc, GemmOp::NoTrans));
    let a = flat_userlayout::user_blocks(&ua, derive_seed(seed, 1));
    let b = flat_userlayout::user_blocks(&ub, derive_seed(seed, 2));
    let secs_in = p10_job_secs(&world, 20, move |ctx, comm| {
        let me = comm.rank();
        black_box(redistribute_planned(
            comm,
            ctx,
            redist_a.for_rank(me),
            &a[me],
        ));
        black_box(redistribute_planned(
            comm,
            ctx,
            redist_b.for_rank(me),
            &b[me],
        ));
    });
    let c_native = flat_userlayout::user_blocks(&nc, 3);
    let secs_out = p10_job_secs(&world, 20, move |ctx, comm| {
        let me = comm.rank();
        black_box(redistribute_planned(
            comm,
            ctx,
            redist_c.for_rank(me),
            &c_native[me],
        ));
    });
    out.insert("layout.redist_in_ms".to_owned(), secs_in * 1e3);
    out.insert("layout.redist_out_ms".to_owned(), secs_out * 1e3);
    // Every element of A, B and C crosses the redistribution once.
    let bytes = 8.0 * (prob.m * prob.k + prob.k * prob.n + prob.m * prob.n) as f64;
    out.insert(
        "layout.redist_gbs".to_owned(),
        bytes / (secs_in + secs_out) / 1e9,
    );

    comms_build(out, &world, &mm);
    phase_collectives(out, &world, gc);
    baseline_algos(out, &world, prob);
}

/// p10 seconds of one bare `Plan::multiply` job with operands generated
/// beforehand — what a served request would cost if the engine added
/// nothing.
fn bare_job_secs<T: Scalar>(
    world: &PersistentWorld,
    plan: &Arc<Plan>,
    seeds: (u64, u64),
    reps: usize,
) -> f64 {
    let p = world.size();
    let a: Arc<Vec<Vec<Mat<T>>>> = Arc::new(
        (0..p)
            .map(|r| seeded_blocks(plan.a_layout(), r, seeds.0))
            .collect(),
    );
    let b: Arc<Vec<Vec<Mat<T>>>> = Arc::new(
        (0..p)
            .map(|r| seeded_blocks(plan.b_layout(), r, seeds.1))
            .collect(),
    );
    p10_secs(reps, || {
        let (plan, a, b) = (Arc::clone(plan), Arc::clone(&a), Arc::clone(&b));
        world
            .run_job(job_options(), move |ctx| {
                let comm = Comm::world(ctx);
                let me = comm.rank();
                black_box(plan.multiply(ctx, &comm, &a[me], &b[me]));
            })
            .expect("a rank panicked in a bare multiply");
    })
}

fn serve_plan(s: &serve_mix::Shape) -> Plan {
    let p = serve_mix::P;
    Plan::build(
        Problem::new(s.m, s.n, s.k, p),
        &Ca3dmmOptions::default(),
        s.dtype,
        GemmOp::NoTrans,
        &Layout::one_d_col(s.m, s.k, p),
        GemmOp::NoTrans,
        &Layout::one_d_col(s.k, s.n, p),
        &Layout::one_d_col(s.m, s.n, p),
    )
}

fn serve_mix_probes(out: &mut Out, seed: u64) {
    let p = serve_mix::P;
    host_probes(out, p);
    let shapes = serve_mix::shapes(seed);
    // Representative shape for the shaped single-call probes: 128³ f64.
    let rep = shapes
        .iter()
        .find(|s| (s.m, s.n, s.k) == (128, 128, 128))
        .expect("128^3 is one of the 48 shapes");
    assert_eq!(rep.dtype, Dtype::F64);
    let rep_prob = Problem::new(rep.m, rep.n, rep.k, p);
    let rep_plan = Arc::new(serve_plan(rep));
    gemm_block::<f64>(out, rep_plan.ca3dmm().grid_context());
    operand_gen(out, rep_plan.a_layout(), rep_plan.b_layout());
    world_spawn(out, p);
    grid_search(out, rep_prob);
    let secs = p10_secs(50, || {
        black_box(serve_plan(rep));
    });
    out.insert("ca3dmm.plan_build_ms".to_owned(), secs * 1e3);
    let secs = p10_secs(50, || {
        let gc = rep_plan.ca3dmm().grid_context();
        black_box(RedistPlan::new(
            rep_plan.a_layout(),
            &gc.layout_a(),
            GemmOp::NoTrans,
        ));
        black_box(RedistPlan::new(
            rep_plan.b_layout(),
            &gc.layout_b(),
            GemmOp::NoTrans,
        ));
        black_box(RedistPlan::new(
            &gc.layout_c(),
            rep_plan.c_layout(),
            GemmOp::NoTrans,
        ));
    });
    out.insert("layout.redist_plan_ms".to_owned(), secs * 1e3);

    let mut servers = Vec::new();
    let secs = p10_secs(5, || {
        servers.push(serve::Server::new(&serve_mix::server_config()))
    });
    out.insert("serve.server_start_ms".to_owned(), secs * 1e3);
    servers.into_iter().for_each(serve::Server::finish);

    let engine = Engine::new(p);
    engine.warm();
    let one = [(rep.seed_a, rep.seed_b)];
    let eight = [(rep.seed_a, rep.seed_b); 8];
    let batch = |seeds: &[(u64, u64)]| {
        p10_secs(20, || {
            black_box(
                engine
                    .run_batch(&rep_plan, seeds, 1, false)
                    .expect("a rank panicked in a probe batch"),
            );
        })
    };
    out.insert("serve.engine_batch1_ms".to_owned(), batch(&one) * 1e3);
    out.insert(
        "serve.engine_batch8_ms_per_item".to_owned(),
        batch(&eight) * 1e3 / 8.0,
    );

    // Engine overhead over the cycle's own shapes, weighted by how often
    // each one is requested: 1 − Σ bare job / Σ Engine::run_batch.
    let world = PersistentWorld::new(p);
    comms_build(
        out,
        &world,
        &Arc::new(Ca3dmm::new(rep_prob, &Ca3dmmOptions::default())),
    );
    let mut counts = vec![0usize; shapes.len()];
    for s in serve_mix::cycle() {
        counts[s] += 1;
    }
    let (mut bare_total, mut engine_total) = (0.0, 0.0);
    for (s, &count) in shapes.iter().zip(&counts) {
        if count == 0 {
            continue;
        }
        let plan = Arc::new(serve_plan(s));
        let seeds = (s.seed_a, s.seed_b);
        let bare = match s.dtype {
            Dtype::F64 => bare_job_secs::<f64>(&world, &plan, seeds, 5),
            Dtype::F32 => bare_job_secs::<f32>(&world, &plan, seeds, 5),
        };
        let eng = p10_secs(5, || {
            black_box(
                engine
                    .run_batch(&plan, &[seeds], 1, false)
                    .expect("a rank panicked in a probe batch"),
            );
        });
        bare_total += count as f64 * bare;
        engine_total += count as f64 * eng;
    }
    out.insert(
        "serve.engine_overhead_share".to_owned(),
        1.0 - bare_total / engine_total,
    );
}

fn sim_scale_probes(out: &mut Out) {
    host_probes(out, 8);
    let prob = sim_scale::problem();
    grid_search(out, prob);
    let secs = p10_secs(20, || {
        black_box(Ca3dmm::new(prob, &Ca3dmmOptions::default()));
    });
    out.insert("ca3dmm.plan_build_ms".to_owned(), secs * 1e3);
    let machine = Machine::phoenix_cpu();
    let secs = p10_secs(8, || {
        let opts = SimOptions {
            execute_compute: false,
            ..SimOptions::default()
        };
        black_box(World::run_sim(prob.p, &machine, opts, |_ctx| ()));
    });
    out.insert("msgpass.sim_spawn_ms".to_owned(), secs * 1e3);
}

/// Runs every probe of `workload`.
pub fn run(workload: &str, seed: u64) -> Result<Out, String> {
    dense::pool::set_gemm_threads(crate::host::nproc());
    let mut out = Out::new();
    match workload {
        "square_native" => square_native_probes(&mut out),
        "flat_userlayout" => flat_userlayout_probes(&mut out, seed),
        "serve_mix" => serve_mix_probes(&mut out, seed),
        "sim_scale" => sim_scale_probes(&mut out),
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(out)
}
