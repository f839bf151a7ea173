//! End-to-end guarantees of the virtual-time backend (`msgpass::sim`):
//!
//! * a 2-rank ping-pong's virtual makespan equals the closed-form
//!   `2·(α + β·bytes)` — the base charging rule, checked exactly;
//! * virtual timestamps are deterministic: two simulations of the same
//!   CA3DMM problem produce **byte-identical** `RunReport` JSON artifacts,
//!   (property test over random problems);
//! * the simulated executor is still the real executor: CA3DMM at p = 768
//!   virtual ranks with compute executed produces the same numbers as a
//!   serial GEMM;
//! * the five baselines charge their local GEMMs to the virtual clock too;
//! * wait attribution is in *virtual* seconds: an imbalanced 4-rank run
//!   (one rank computes while three wait) shows the imbalance as nonzero
//!   wait% in its dashboard;
//! * compute-free runs carry shapes, not data: `execute_compute = false`
//!   (zero-sized `Shape64` blocks) yields the same artifact as
//!   `execute_compute = true` (`f64` blocks, GEMMs executed) except for
//!   the flag itself (property test over problems, overlap, collectives,
//!   multi-shift batching and node sizes).

use baselines::{C25d, Ca3dmmSumma, CosmaLike, Orig3d, SummaPgemm};
use ca3dmm::{Ca3dmm, Ca3dmmOptions};
use dense::gemm::{gemm_naive, GemmOp};
use dense::part::Rect;
use dense::random::global_block;
use dense::testing::assert_gemm_close;
use dense::Mat;
use gridopt::{Grid, Problem};
use jsonlite::Json;
use layout::Layout;
use msgpass::collectives::{neighbor_alltoallv, Collectives};
use msgpass::{Comm, RankCtx, RunReport, RunReportDoc, SimOptions, World};
use netmodel::{Machine, Placement};
use proptest::prelude::*;

/// Ping-pong between two ranks: the makespan must be exactly two one-way
/// transfer times, and each rank's blocked time exactly one. The uniform
/// machine places one rank per node, so both messages price as inter-node:
/// `α = 1 µs`, `β = 1 ns/B` at full single-rank bandwidth.
#[test]
fn ping_pong_matches_closed_form() {
    const ELEMS: usize = 64;
    let bytes = (ELEMS * std::mem::size_of::<f64>()) as f64;
    let machine = Machine::uniform();
    let one_way = machine.alpha_inter + machine.beta_inter(1.0) * bytes;

    let (_, report) = World::simulate(2, &machine, SimOptions::default(), async |ctx| {
        let comm = Comm::world(ctx);
        ctx.set_phase("pp");
        if comm.rank() == 0 {
            comm.send(ctx, 1, 0, vec![1.0f64; ELEMS]);
            let _: Vec<f64> = comm.recv_async(ctx, 1, 1).await;
        } else {
            let v: Vec<f64> = comm.recv_async(ctx, 0, 0).await;
            comm.send(ctx, 0, 1, v);
        }
    });

    let sim = report.sim.as_ref().expect("sim info");
    assert_eq!(sim.makespan_secs, 2.0 * one_way, "makespan = 2(α + β·n)");
    // Rank 1 blocks from virtual 0 until the request arrives at `one_way`;
    // rank 0 blocks from `one_way` until the reply arrives at `2·one_way`.
    assert_eq!(report.traffic.wait_secs(1, "pp"), one_way);
    assert_eq!(report.traffic.wait_secs(0, "pp"), one_way);
}

/// A sparse exchange costs its neighbours, not the communicator: rank 0 of
/// 6 addresses two peers and is charged two transfers, where an exchange
/// that also sent empty messages would charge it at least `5·α`.
#[test]
fn neighbour_exchange_charges_one_latency_per_neighbour() {
    const ELEMS: usize = 64;
    let bytes = (ELEMS * std::mem::size_of::<f64>()) as f64;
    let machine = Machine::uniform();
    let one_way = machine.alpha_inter + machine.beta_inter(1.0) * bytes;

    let (_, report) = World::simulate(6, &machine, SimOptions::default(), async |ctx| {
        let comm = Comm::world(ctx);
        ctx.set_phase("star");
        let (sends, sources) = match comm.rank() {
            0 => (
                vec![(1, vec![1.0f64; ELEMS]), (2, vec![2.0; ELEMS])],
                vec![],
            ),
            1 | 2 => (vec![], vec![0]),
            _ => (vec![], vec![]),
        };
        neighbor_alltoallv(&comm, ctx, sends, &sources).await.len()
    });

    assert_eq!(report.traffic.phase(0, "star").msgs, 2);
    assert_eq!(report.traffic.phase_total("star").msgs, 2);
    // The second message leaves when the first is out, so its receiver is
    // the last rank to finish, and the ranks that take no part never wait.
    assert_eq!(
        report.sim.as_ref().expect("sim info").makespan_secs,
        2.0 * one_way
    );
    assert_eq!(report.traffic.wait_secs(1, "star"), one_way);
    assert_eq!(report.traffic.wait_secs(2, "star"), 2.0 * one_way);
    assert_eq!(report.traffic.wait_secs(3, "star"), 0.0);
}

/// CA3DMM executed on 768 virtual ranks (with the local GEMMs actually
/// performed) must equal the serial reference — the sim backend runs the
/// real algorithm, it does not approximate it.
#[test]
fn ca3dmm_at_p768_sim_matches_serial_gemm() {
    let (m, n, k, p) = (96, 96, 192, 768);
    let a_full = global_block::<f64>(1, Rect::new(0, 0, m, k));
    let b_full = global_block::<f64>(2, Rect::new(0, 0, k, n));
    let a_layout = Layout::one_d_col(m, k, p);
    let b_layout = Layout::one_d_col(k, n, p);
    let c_layout = Layout::one_d_col(m, n, p);
    let mm = Ca3dmm::new(Problem::new(m, n, k, p), &Ca3dmmOptions::default());

    let machine = Machine::phoenix_cpu();
    let (parts, report) = World::simulate(p, &machine, SimOptions::default(), async |ctx| {
        let world = Comm::world(ctx);
        let me = world.rank();
        let a_blocks = a_layout.extract(&a_full, me);
        let b_blocks = b_layout.extract(&b_full, me);
        mm.multiply(
            ctx,
            &world,
            GemmOp::NoTrans,
            &a_layout,
            &a_blocks,
            GemmOp::NoTrans,
            &b_layout,
            &b_blocks,
            &c_layout,
        )
        .await
    });

    let mut c_ref = Mat::zeros(m, n);
    gemm_naive(
        GemmOp::NoTrans,
        GemmOp::NoTrans,
        1.0,
        &a_full,
        &b_full,
        0.0,
        &mut c_ref,
    );
    assert_gemm_close(&c_layout.assemble(&parts), &c_ref, k, "sim p=768");

    let sim = report.sim.as_ref().expect("sim info");
    assert!(sim.execute_compute);
    assert!(sim.makespan_secs > 0.0);
    // Compute was charged, not just executed: virtual time includes γ·flops.
    let gemm_secs = 2.0 * (m * n * k) as f64
        / sim.placement.flops_per_rank
        / (report.traffic.per_rank.len() as f64);
    assert!(sim.makespan_secs > gemm_secs / 2.0);
}

/// The §III-F overlap charging rule: post the transfers, compute, then
/// wait — the round must cost `max(compute, communication)`, not the sum.
/// Both regimes are pinned exactly: compute-bound (transfer fully hidden,
/// zero residual wait) and communication-bound (wait exposes exactly the
/// remainder of the transfer).
#[test]
fn overlap_round_charges_max_of_comm_and_compute() {
    const ELEMS: usize = 4096;
    let machine = Machine::uniform();
    let bytes = (ELEMS * std::mem::size_of::<f64>()) as f64;
    let one_way = machine.alpha_inter + machine.beta_inter(1.0) * bytes;
    // On the uniform machine 1e9 flops = 1 virtual second.
    for comp_secs in [one_way * 4.0, one_way / 4.0] {
        let (_, report) = World::simulate(2, &machine, SimOptions::default(), async |ctx| {
            let comm = Comm::world(ctx);
            ctx.set_phase("round");
            let peer = 1 - comm.rank();
            let req = comm.irecv::<Vec<f64>>(ctx, peer, 0);
            comm.isend(ctx, peer, 0, vec![1.0f64; ELEMS]);
            ctx.charge_flops(comp_secs * 1e9);
            let _ = req.wait(ctx).await;
        });
        let sim = report.sim.as_ref().expect("sim info");
        let want = comp_secs.max(one_way);
        assert!(
            (sim.makespan_secs - want).abs() < 1e-12,
            "overlap round: makespan {} != max(comp {comp_secs}, comm {one_way})",
            sim.makespan_secs
        );
        // Residual wait: what the compute failed to hide.
        let residual = (one_way - comp_secs).max(0.0);
        assert!(
            (report.traffic.wait_secs(0, "round") - residual).abs() < 1e-12,
            "residual wait {} != {residual}",
            report.traffic.wait_secs(0, "round")
        );
    }
}

/// Back-to-back nonblocking sends serialize on the sender's NIC pipe: two
/// isends posted at virtual t=0 arrive at `1·transfer` and `2·transfer`,
/// not both at `1·transfer` — so overlap cannot fabricate bandwidth.
#[test]
fn isends_serialize_on_the_nic_pipe() {
    const ELEMS: usize = 1024;
    let machine = Machine::uniform();
    let bytes = (ELEMS * std::mem::size_of::<f64>()) as f64;
    let one_way = machine.alpha_inter + machine.beta_inter(1.0) * bytes;
    let (_, report) = World::simulate(2, &machine, SimOptions::default(), async |ctx| {
        let comm = Comm::world(ctx);
        ctx.set_phase("pipe");
        if comm.rank() == 0 {
            comm.isend(ctx, 1, 0, vec![0.0f64; ELEMS]);
            comm.isend(ctx, 1, 1, vec![0.0f64; ELEMS]);
        } else {
            let a = comm.irecv::<Vec<f64>>(ctx, 0, 0);
            let b = comm.irecv::<Vec<f64>>(ctx, 0, 1);
            let _ = a.wait(ctx).await;
            let _ = b.wait(ctx).await;
        }
    });
    let sim = report.sim.as_ref().expect("sim info");
    assert!(
        (sim.makespan_secs - 2.0 * one_way).abs() < 1e-12,
        "two isends must drain sequentially: {} != {}",
        sim.makespan_secs,
        2.0 * one_way
    );
}

/// The executed overlap ablation at the CA3DMM level: on the same problem,
/// machine, and grid, the overlapped pipeline's virtual makespan is never
/// worse than the blocking one's (and the traffic is identical).
#[test]
fn overlapped_ca3dmm_sim_is_no_slower_than_blocking() {
    let machine = Machine::phoenix_cpu();
    let prob = Problem::new(96, 96, 192, 48);
    let run = |overlap: bool| {
        let alg = Ca3dmm::new(
            prob,
            &Ca3dmmOptions {
                overlap,
                ..Default::default()
            },
        );
        let report = alg.simulate_native(
            &machine,
            SimOptions {
                execute_compute: false,
                ..Default::default()
            },
        );
        (
            report.sim.as_ref().expect("sim info").makespan_secs,
            report.traffic.max_rank_bytes(),
        )
    };
    let (t_overlap, bytes_overlap) = run(true);
    let (t_blocking, bytes_blocking) = run(false);
    assert_eq!(
        bytes_overlap, bytes_blocking,
        "overlap must not change traffic"
    );
    assert!(
        t_overlap <= t_blocking + 1e-12,
        "overlap {t_overlap} must not exceed blocking {t_blocking}"
    );
    assert!(
        t_overlap < t_blocking,
        "a comm-heavy shape must show a real overlap win ({t_overlap} vs {t_blocking})"
    );
}

/// The five baselines charge their local GEMMs to the virtual clock, as
/// CA3DMM's Cannon does. On a machine whose γ dwarfs the network, every
/// makespan covers the busiest rank's `γ·2·m_i·n_j·k_kt`; skipping the
/// arithmetic (`execute_compute = false`) changes neither the traffic nor
/// the makespan.
#[test]
fn baselines_charge_their_local_gemms_under_virtual_time() {
    let (m, n, k, p) = (48, 48, 48, 8);
    let prob = Problem::new(m, n, k, p);
    let machine = Machine::uniform();
    // 1 Mflop/s per rank: one rank's share of 2·48³ flops takes tens of
    // virtual milliseconds, the whole exchange tens of microseconds.
    let placement = Placement {
        flops_per_rank: 1e6,
        ..machine.pure_mpi()
    };
    let (pr, pc) = gridopt::summa_grid(&prob);
    let c25d = C25d::new(prob, None);
    let (summa, ca3dmm_s) = (SummaPgemm::new(prob, None), Ca3dmmSumma::new(prob, None));
    let (cosma, orig3d) = (CosmaLike::new(prob, None), Orig3d::new(prob));
    let check = |name: &str, grid: Grid, alg: &dyn Fn(SimOptions) -> RunReport| {
        assert!(m % grid.pm == 0 && n % grid.pn == 0 && k % grid.pk == 0);
        let run = |execute_compute: bool| {
            alg(SimOptions {
                placement: Some(placement),
                execute_compute,
            })
        };
        let (executed, skipped) = (run(true), run(false));
        let makespan = |r: &RunReport| r.sim.as_ref().expect("sim info").makespan_secs;
        let flops = 2.0 * ((m / grid.pm) * (n / grid.pn) * (k / grid.pk)) as f64;
        let gemm_secs = flops / placement.flops_per_rank;
        assert!(
            makespan(&executed) >= gemm_secs,
            "{name}: makespan {} misses the busiest rank's GEMM {gemm_secs}",
            makespan(&executed)
        );
        assert_eq!(makespan(&executed), makespan(&skipped), "{name}");
        assert_eq!(executed.per_rank, skipped.per_rank, "{name}");
        assert_eq!(executed.matrix, skipped.matrix, "{name}");
    };
    // Each algorithm's native multiply on `p` virtual ranks under `opts`.
    macro_rules! native {
        ($alg:expr) => {
            &|opts| {
                let alg = $alg;
                let go = async |ctx: &RankCtx| {
                    let world = Comm::world(ctx);
                    alg.multiply_native_async::<f64>(ctx, &world, None, None)
                        .await
                };
                World::simulate(p, &machine, opts, go).1
            }
        };
    }
    check("summa", Grid::new(pr, pc, 1), native!(&summa));
    check("ca3dmm-s", *ca3dmm_s.grid(), native!(&ca3dmm_s));
    check("cosma", *cosma.grid(), native!(&cosma));
    check("orig3d", gridopt::cube_grid(p), native!(&orig3d));
    check("c25d", Grid::new(c25d.s, c25d.s, c25d.c), native!(&c25d));
}

/// An imbalanced 4-rank run — rank 0 charges a long local compute before
/// releasing the others — must attribute the idle ranks' time to *virtual*
/// wait, visible as nonzero wait% in the parsed artifact and its dashboard.
#[test]
fn imbalanced_sim_shows_virtual_wait() {
    let machine = Machine::uniform();
    let (_, report) = World::simulate(4, &machine, SimOptions::default(), async |ctx| {
        let comm = Comm::world(ctx);
        ctx.set_phase("imbalance");
        if comm.rank() == 0 {
            ctx.charge_flops(1e9); // 1 virtual second on the uniform machine
            for dst in 1..4 {
                comm.send(ctx, dst, 7, vec![0u8; 8]);
            }
        } else {
            let _: Vec<u8> = comm.recv_async(ctx, 0, 7).await;
        }
    });
    let text = report
        .to_json(Json::obj([("name", Json::Str("imbalance".into()))]))
        .to_string_pretty();
    let doc = RunReportDoc::parse(&text).expect("artifact parses");
    assert_eq!(doc.time_domain, "virtual");
    let row = doc
        .phases
        .iter()
        .find(|r| r.phase == "imbalance")
        .expect("phase row");
    assert!(
        row.wait_max > 0.9,
        "idle ranks blocked ~1 virtual second, got {}",
        row.wait_max
    );
    assert!(row.secs_max >= row.wait_max);

    let dash = doc.render_dashboard();
    assert!(dash.contains("virtual time"), "{dash}");
    let line = dash
        .lines()
        .find(|l| l.starts_with("imbalance"))
        .expect("dashboard phase line");
    assert!(
        !line.trim_end().ends_with(" 0.0%"),
        "wait%% must be nonzero: {line}"
    );
}

/// A simulation runs every rank on the calling thread: no rank sees
/// another thread, even at 10 000 ranks, where a dissemination barrier
/// (14 rounds, 140 000 messages) takes well under a second.
#[test]
fn simulated_ranks_are_tasks_on_the_calling_thread() {
    let caller = std::thread::current().id();
    let p = 10_000;
    let (ids, report) =
        World::simulate(p, &Machine::uniform(), SimOptions::default(), async |ctx| {
            ctx.set_phase("barrier");
            msgpass::collectives::barrier(&Comm::world(ctx), ctx).await;
            std::thread::current().id()
        });
    assert!(ids.iter().all(|&id| id == caller));
    assert_eq!(report.phase(0, "barrier").msgs, 14);
    assert_eq!(report.phase_total("barrier").msgs, 14 * p as u64);
}

/// Runs `f`, which must make a simulation fail, on a thread of its own with
/// a GEMM-thread cap set, and returns the panic message; fails if that takes
/// more than ten seconds (a hang). Afterwards the thread must be as the
/// caller left it: the cap restored, and the next simulation on it fine.
fn fails_cleanly(f: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        dense::pool::set_rank_gemm_threads(Some(3));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the simulation must fail");
        assert_eq!(dense::pool::gemm_threads(), 3, "caller's cap restored");
        let mm = Ca3dmm::new(Problem::new(32, 32, 32, 8), &Ca3dmmOptions::default());
        let report = mm.simulate_native(&Machine::uniform(), SimOptions::default());
        assert!(report.sim.expect("sim info").makespan_secs > 0.0);
        assert_eq!(dense::pool::gemm_threads(), 3, "caller's cap restored");
        let msg = err.downcast_ref::<String>().cloned();
        tx.send(msg.unwrap_or_default()).unwrap();
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("the simulation hung or the thread was not left clean")
}

/// A rank that panics inside a ring, with its neighbours waiting for the
/// block it would have forwarded, fails the run with its own message.
#[test]
fn rank_panic_mid_collective_fails_the_simulation() {
    let msg = fails_cleanly(|| {
        World::simulate(4, &Machine::uniform(), SimOptions::default(), async |ctx| {
            let comm = Comm::world(ctx);
            // Rank 2 expects a longer block from rank 1 than rank 1 sends.
            let counts = if comm.rank() == 2 {
                [1, 2, 1, 1]
            } else {
                [1; 4]
            };
            let mine = vec![0u64; counts[comm.rank()]];
            msgpass::collectives::allgatherv_mode(Collectives::Flat, &comm, ctx, mine, &counts)
                .await
        });
    });
    assert!(
        msg.starts_with("rank 2 panicked: ") && msg.contains("allgatherv count mismatch"),
        "{msg}"
    );
}

/// Two ranks each waiting for the other's message is reported as a
/// deadlock naming what each one awaits, not a hang.
#[test]
fn receive_cycle_is_reported_as_a_deadlock() {
    let msg = fails_cleanly(|| {
        World::simulate(2, &Machine::uniform(), SimOptions::default(), async |ctx| {
            let comm = Comm::world(ctx);
            let peer = 1 - comm.rank();
            let _: u64 = comm.recv_async(ctx, peer, 5 + comm.rank() as u64).await;
        });
    });
    assert!(msg.starts_with("deadlock: "), "{msg}");
    assert!(msg.contains("rank 0 awaits (src 1, tag 5)"), "{msg}");
    assert!(msg.contains("rank 1 awaits (src 0, tag 6)"), "{msg}");
}

/// A message nobody receives fails the run once every rank has finished.
#[test]
#[should_panic(
    expected = "undelivered message: rank 1 never received the message from rank 0 (tag 9)"
)]
fn unreceived_message_fails_the_simulation() {
    World::simulate(2, &Machine::uniform(), SimOptions::default(), async |ctx| {
        let comm = Comm::world(ctx);
        if comm.rank() == 0 {
            comm.send(ctx, 1, 9, 1u64);
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Determinism: simulating the same problem twice yields byte-identical
    /// artifacts, for arbitrary problem shapes (and therefore arbitrary
    /// grids, group structures, and message interleavings).
    #[test]
    fn sim_artifacts_are_byte_identical(
        m in 8usize..48,
        n in 8usize..48,
        k in 8usize..64,
        p in 2usize..24,
    ) {
        let machine = Machine::phoenix_cpu();
        let alg = Ca3dmm::new(Problem::new(m, n, k, p), &Ca3dmmOptions::default());
        let run = || {
            let report = alg.simulate_native(
                &machine,
                SimOptions {
                    execute_compute: false,
                    ..Default::default()
                },
            );
            report
                .to_json(alg.report_meta("determinism", &report))
                .to_string_pretty()
        };
        let (first, second) = (run(), run());
        prop_assert_eq!(first, second);
    }

    /// The contract compute-free simulation rests on: running the schedule
    /// over zero-sized shape-only blocks (`execute_compute = false`) changes
    /// nothing the artifact records — traffic matrix, histograms, phase
    /// seconds, waits and makespan are bit-equal to the run that allocates
    /// `f64` blocks and executes every GEMM. Small nodes make the
    /// hierarchical collectives engage; a large `multi_shift_min_k` batches
    /// every Cannon round into one GEMM.
    #[test]
    fn compute_free_report_equals_executed_report(
        m in 4usize..40,
        n in 4usize..40,
        k in 4usize..56,
        p in 2usize..28,
        rpn in 1usize..7,
        overlap in proptest::bool::ANY,
        hier in proptest::bool::ANY,
        batch_all in proptest::bool::ANY,
    ) {
        let machine = Machine::phoenix_cpu();
        let placement = Placement { ranks_per_node: rpn, ..machine.pure_mpi() };
        let alg = Ca3dmm::new(
            Problem::new(m, n, k, p),
            &Ca3dmmOptions {
                overlap,
                collectives: if hier { Collectives::Hier } else { Collectives::Flat },
                multi_shift_min_k: if batch_all { usize::MAX } else { 0 },
                ..Default::default()
            },
        );
        let run = |execute_compute: bool| {
            let report = alg.simulate_native(
                &machine,
                SimOptions {
                    placement: Some(placement),
                    execute_compute,
                },
            );
            prop_assert_eq!(report.sim.as_ref().map(|s| s.execute_compute), Some(execute_compute));
            let mut doc = report.to_json(alg.report_meta("shape_only", &report));
            let Json::Obj(top) = &mut doc else { panic!("report is an object") };
            let Some(Json::Obj(sim)) = top.get_mut("sim") else { panic!("sim block present") };
            prop_assert!(sim.insert("execute_compute".to_owned(), Json::Null).is_some());
            doc.to_string_pretty()
        };
        prop_assert_eq!(run(true), run(false));
    }
}
