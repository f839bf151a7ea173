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
//! * the five baselines charge their local GEMMs to the virtual clock too,
//!   shape-only or executed alike;
//! * wait attribution is in *virtual* seconds: an imbalanced 4-rank run
//!   (one rank computes while three wait) shows the imbalance as nonzero
//!   wait% in its dashboard;
//! * the twelve Fig. 3 points at p = 192 keep their pinned makespans and
//!   message counts, and cost their messages, not their elements, in a
//!   debug build;
//! * compute-free runs carry shapes, not data: `execute_compute = false`
//!   (zero-sized `Shape64` blocks) yields the same artifact as
//!   `execute_compute = true` (`f64` blocks, GEMMs executed) except for
//!   the flag itself (property test over problems, overlap, collectives
//!   and node sizes).

use baselines::{C25d, Ca3dmmSumma, CosmaLike, Orig3d, SummaPgemm};
use ca3dmm::{Ca3dmm, Ca3dmmOptions, Dtype, Pgemm, Plan};
use dense::gemm::{gemm_naive, GemmOp};
use dense::part::Rect;
use dense::random::global_block;
use dense::testing::assert_gemm_close;
use dense::{Mat, Shape64};
use gridopt::Problem;
use jsonlite::Json;
use layout::Layout;
use msgpass::collectives::{neighbor_alltoallv, Collectives};
use msgpass::{Comm, RunReport, RunReportDoc, SimOptions, World};
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
    let plan = Plan::build(
        Problem::new(m, n, k, p),
        &Ca3dmmOptions::default(),
        Dtype::F64,
        GemmOp::NoTrans,
        &a_layout,
        GemmOp::NoTrans,
        &b_layout,
        &c_layout,
    );

    let machine = Machine::phoenix_cpu();
    let (parts, report) = World::simulate(p, &machine, SimOptions::default(), async |ctx| {
        let world = Comm::world(ctx);
        let me = world.rank();
        let a_blocks = a_layout.extract(&a_full, me);
        let b_blocks = b_layout.extract(&b_full, me);
        plan.multiply_async(ctx, &world, &a_blocks, &b_blocks).await
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
/// arithmetic (`execute_compute = false`, shape-only blocks) changes
/// neither the traffic nor the makespan.
#[test]
fn baselines_charge_their_local_gemms_under_virtual_time() {
    let prob = Problem::new(48, 48, 48, 8);
    check_charged_gemms("summa", &SummaPgemm::new(prob, None));
    check_charged_gemms("ca3dmm-s", &Ca3dmmSumma::new(prob, None));
    check_charged_gemms("cosma", &CosmaLike::new(prob, None));
    check_charged_gemms("orig3d", &Orig3d::new(prob));
    check_charged_gemms("c25d", &C25d::new(prob, None));
}

/// One algorithm of [`baselines_charge_their_local_gemms_under_virtual_time`]
/// on a problem its grid divides evenly.
fn check_charged_gemms(name: &str, alg: &impl Pgemm) {
    let (Problem { m, n, k, .. }, grid) = (*alg.geo().prob(), *alg.geo().grid());
    assert!(m % grid.pm == 0 && n % grid.pn == 0 && k % grid.pk == 0);
    let machine = Machine::uniform();
    // 1 Mflop/s per rank: one rank's share of 2·48³ flops takes tens of
    // virtual milliseconds, the whole exchange tens of microseconds.
    let placement = Placement {
        flops_per_rank: 1e6,
        ..machine.pure_mpi()
    };
    let run = |execute_compute: bool| {
        let opts = SimOptions {
            placement: Some(placement),
            execute_compute,
        };
        alg.simulate_native(&machine, opts)
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
}

/// The paper's Fig. 3 problems at its smallest process count, shape-only:
/// CA3DMM, COSMA-like and CTF-like (2.5D) on the four classes of
/// [`bench::CPU_CLASSES`] at p = 192 on `phoenix_cpu`, each makespan's bits
/// and message count pinned. Large-M's CA3DMM joins its replicated operand
/// over c = 192 peers.
///
/// A shape-only op costs its messages, not its elements, in every build:
/// all twelve take a fraction of a second in a debug build. Before every
/// copy, join and sum of a zero-sized element was only its length, a
/// single debug square point took 70–100 s; the time bound catches that
/// with two orders of magnitude to spare.
#[test]
fn fig3_points_at_p192_cost_their_messages_in_every_build() {
    /// Per class: (makespan bits, messages) of CA3DMM, COSMA-like, CTF-like.
    const PINS: [[(u64, u64); 3]; 4] = [
        [
            (0x403474f3129fce21, 2592),
            (0x4034ed3ed64a521c, 2880),
            (0x4051a16eb410c49c, 384),
        ],
        [
            (0x401c3e5300ca9ca6, 36672),
            (0x401c3e5300ca9ca6, 36672),
            (0x404b5bccb6fd57af, 384),
        ],
        [
            (0x401c3e5300ca9ce4, 36672),
            (0x401c3e5300ca9ce4, 36672),
            (0x4046c2fe46c25c31, 384),
        ],
        [
            (0x401ef54a6acef288, 3408),
            (0x4020592db37bd76f, 4992),
            (0x40237d0dc3854bb7, 4368),
        ],
    ];
    const P: usize = 192;
    let machine = Machine::phoenix_cpu();
    let opts = || SimOptions {
        placement: Some(machine.pure_mpi()),
        execute_compute: false,
    };
    let point = |report: RunReport| {
        let makespan = report.sim.as_ref().expect("sim info").makespan_secs;
        let msgs: u64 = (0..P).map(|r| report.rank_total(r).msgs).sum();
        (makespan.to_bits(), msgs)
    };
    let start = std::time::Instant::now();
    for ((class, m, n, k), pins) in bench::CPU_CLASSES.into_iter().zip(PINS) {
        let prob = Problem::new(m, n, k, P);
        let got = [
            point(Ca3dmm::new(prob, &Ca3dmmOptions::default()).simulate_native(&machine, opts())),
            point(CosmaLike::new(prob, None).simulate_native(&machine, opts())),
            point(C25d::new(prob, None).simulate_native(&machine, opts())),
        ];
        for ((name, got), pin) in ["CA3DMM", "COSMA-like", "CTF-like"]
            .iter()
            .zip(got)
            .zip(pins)
        {
            assert_eq!(
                got,
                pin,
                "{class} {name}: (makespan {} s, msgs) moved",
                f64::from_bits(got.0)
            );
        }
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(secs < 20.0, "twelve shape-only points took {secs:.1} s");
}

/// The custom half of Fig. 3 at its smallest process count: CA3DMM on the
/// 1D-column user layouts of §IV (A, B and C each split into column
/// blocks over all 192 ranks), shape-only, through
/// `Plan::multiply_async`: Algorithm 1 redistributes A and B into the
/// native layouts (step 4) and C back out (step 8). Each makespan's bits
/// and message count are pinned.
///
/// The four points must take under 10 s in a debug build; they take about
/// one. A shape-only redistribution costs its messages, not its rows ×
/// segments: `gather` in `layout::redist` returns a zero-sized element's
/// block by its shape. Without that branch the four points took 25 s in a
/// debug build, and large-M alone 2.5 s in release.
#[test]
fn fig3_custom_points_at_p192_cost_their_messages_in_every_build() {
    /// Per class: (makespan bits, messages) of CA3DMM.
    const PINS: [(u64, u64); 4] = [
        (0x40350e564f9ce660, 12_996),
        (0x401e58653bc93ff9, 110_016),
        (0x4020304000da53cf, 110_016),
        (0x401f636f698bfc69, 8_151),
    ];
    const P: usize = 192;
    let machine = Machine::phoenix_cpu();
    let opts = || SimOptions {
        placement: Some(machine.pure_mpi()),
        execute_compute: false,
    };
    let start = std::time::Instant::now();
    let point = |(m, n, k)| {
        let col = |rows, cols| Layout::one_d_col(rows, cols, P);
        let (a_layout, b_layout) = (col(m, k), col(k, n));
        let plan = Plan::build(
            Problem::new(m, n, k, P),
            &Ca3dmmOptions::default(),
            Dtype::F64,
            GemmOp::NoTrans,
            &a_layout,
            GemmOp::NoTrans,
            &b_layout,
            &col(m, n),
        );
        let (_, report) = World::simulate(P, &machine, opts(), async |ctx| {
            let world = Comm::world(ctx);
            let blocks = |layout: &Layout| -> Vec<Mat<Shape64>> {
                let owned = layout.owned(world.rank()).iter();
                owned.map(|r| Mat::zeros(r.rows, r.cols)).collect()
            };
            plan.multiply_async(ctx, &world, &blocks(&a_layout), &blocks(&b_layout))
                .await;
        });
        let makespan = report.sim.as_ref().expect("sim info").makespan_secs;
        let msgs: u64 = (0..P).map(|r| report.rank_total(r).msgs).sum();
        (makespan.to_bits(), msgs)
    };
    let got = bench::CPU_CLASSES.map(|(_, m, n, k)| point((m, n, k)));
    let secs = start.elapsed().as_secs_f64();
    let shown: Vec<String> = (got.iter())
        .map(|&(bits, msgs)| format!("({bits:#x}, {msgs}) {} s", f64::from_bits(bits)))
        .collect();
    assert_eq!(got, PINS, "(makespan bits, msgs) moved: {shown:?}");
    assert!(
        secs < 10.0,
        "four shape-only custom points took {secs:.1} s"
    );
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
    /// hierarchical collectives engage; with `k` below the multi-shift
    /// threshold (64) every Cannon round batches into one GEMM (plain
    /// Cannon's one GEMM per round is C25d's, checked in
    /// `baselines_charge_their_local_gemms_under_virtual_time`).
    #[test]
    fn compute_free_report_equals_executed_report(
        m in 4usize..40,
        n in 4usize..40,
        k in 4usize..56,
        p in 2usize..28,
        rpn in 1usize..7,
        overlap in proptest::bool::ANY,
        hier in proptest::bool::ANY,
    ) {
        let machine = Machine::phoenix_cpu();
        let placement = Placement { ranks_per_node: rpn, ..machine.pure_mpi() };
        let alg = Ca3dmm::new(
            Problem::new(m, n, k, p),
            &Ca3dmmOptions {
                overlap,
                collectives: if hier { Collectives::Hier } else { Collectives::Flat },
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
