//! One table-driven test of the strict reader behind every record the
//! `jsonlite::record!` codec declares: `PhaseRow`, `CritRow`, `Totals`,
//! `SimInfo`, `Machine`, `Placement`, `Grid`, `KernelProfile` and
//! `RunMeta`. Each round-trips; and a missing key, a wrong type, and a
//! negative or fractional value in an integer field each fail with an error
//! that names the JSON path of the field.

use ca3dmm::{Collectives, RunMeta};
use dense::KernelProfile;
use gridopt::Grid;
use jsonlite::{Json, Value};
use msgpass::report::{CritRow, PhaseRow, Totals};
use msgpass::{RunReportDoc, SimInfo};
use netmodel::Machine;
use std::fmt::Debug;

/// One record: a sample's JSON form, its reader, the path it is read at,
/// its integer keys and the keys it may omit.
struct Case {
    json: Json,
    read: fn(&Json, &str) -> Result<(), String>,
    path: &'static str,
    ints: &'static [&'static str],
    optional: &'static [&'static str],
}

fn read<T: Value>(v: &Json, path: &str) -> Result<(), String> {
    T::read(v, path).map(drop)
}

/// `sample` round-trips through its JSON text; the case reads it at `path`.
fn case<T: Value + PartialEq + Debug>(
    sample: T,
    path: &'static str,
    ints: &'static [&'static str],
    optional: &'static [&'static str],
) -> Case {
    let json = sample.to_json();
    let back = T::read(&Json::parse(&json.to_string()).unwrap(), path);
    assert_eq!(back.as_ref(), Ok(&sample), "{path} round trip");
    Case {
        json,
        read: read::<T>,
        path,
        ints,
        optional,
    }
}

fn with(json: &Json, key: &str, value: Option<Json>) -> Json {
    let mut obj = json.as_obj().expect("records are objects").clone();
    match value {
        Some(v) => obj.insert(key.to_owned(), v),
        None => obj.remove(key),
    };
    Json::Obj(obj)
}

fn cases() -> Vec<Case> {
    let cpu = Machine::phoenix_cpu();
    vec![
        case(
            PhaseRow {
                phase: "cannon".to_owned(),
                sent_bytes: 4096,
                sent_msgs: 8,
                recv_bytes: 4096,
                recv_msgs: 8,
                max_rank_sent_bytes: 1024,
                max_rank_sent_msgs: 2,
                secs_max: 0.5,
                wait_max: 0.125,
            },
            "phases[0]",
            &[
                "sent_bytes",
                "sent_msgs",
                "recv_bytes",
                "recv_msgs",
                "max_rank_sent_bytes",
                "max_rank_sent_msgs",
            ],
            &[],
        ),
        case(
            CritRow {
                phase: "reduce".to_owned(),
                crit_secs: 0.75,
                crit_rank: 3,
                comm_secs: 0.5,
                comp_secs: 0.25,
                mean_secs: 0.5,
            },
            "critical_path[1]",
            &["crit_rank"],
            &[],
        ),
        case(
            Totals {
                max_rank_bytes: 1 << 20,
                max_rank_msgs: 12,
            },
            "totals",
            &["max_rank_bytes", "max_rank_msgs"],
            &[],
        ),
        case(
            SimInfo {
                machine: cpu.clone(),
                placement: cpu.pure_mpi(),
                execute_compute: false,
                makespan_secs: 1.5,
            },
            "sim",
            &[],
            &[],
        ),
        case(cpu.clone(), "sim.machine", &["cores_per_node"], &[]),
        case(cpu.pure_mpi(), "sim.placement", &["ranks_per_node"], &[]),
        case(Grid::new(4, 2, 3), "meta.grid", &["pm", "pn", "pk"], &[]),
        case(
            RunMeta {
                name: "record_codec".to_owned(),
                m: 96,
                n: 80,
                k: 64,
                p: 24,
                grid: Grid::new(4, 2, 3),
                overlap: true,
                collectives: Collectives::Hier,
                gemm_prof: false,
                grid_search_secs: Some(0.001),
                plan_cached: Some(true),
                gemm_kernel: Some("portable".to_owned()),
            },
            "meta",
            &["m", "n", "k", "p"],
            &["grid_search_secs", "plan_cached", "gemm_kernel"],
        ),
        case(
            KernelProfile {
                gemm_calls: 2,
                flops: 2e6,
                gemm_wall_secs: 0.25,
                thread_secs: 1.0,
                pack_a_secs: 0.125,
                pack_b_secs: 0.125,
                compute_secs: 0.5,
                idle_secs: 0.25,
                pack_bytes: 4096,
                pack_bound_bytes: 8192,
                achieved_gflops: 4.0,
                kernel: "portable",
                peak_gflops: 8.0,
                imbalance: 1.0,
                coverage: 1.0,
                submit_wake_secs: 0.0,
                spans: Vec::new(),
            },
            "compute[0]",
            &["gemm_calls", "pack_bytes", "pack_bound_bytes"],
            &[],
        ),
    ]
}

fn case_at(path: &str) -> Case {
    cases()
        .into_iter()
        .find(|c| c.path == path)
        .expect("a case at that path")
}

#[test]
fn every_record_reader_names_the_path_of_a_bad_field() {
    for c in cases() {
        let err = |json: &Json| (c.read)(json, c.path).expect_err("reader accepted a bad field");
        for (key, value) in c.json.as_obj().unwrap() {
            let at = format!("{}.{key}", c.path);
            // A missing key: an error unless the record may omit it.
            let missing = with(&c.json, key, None);
            if c.optional.contains(&key.as_str()) {
                (c.read)(&missing, c.path).expect("an optional key may be absent");
            } else {
                let e = err(&missing);
                assert!(e.starts_with(&format!("{at}: ")), "{e}");
                assert!(e.ends_with(&format!("is missing field {key:?}")), "{e}");
            }
            // A wrong type.
            let wrong = match value {
                Json::Str(_) => Json::Num(1.0),
                _ => Json::Str("x".to_owned()),
            };
            let e = err(&with(&c.json, key, Some(wrong)));
            assert!(e.starts_with(&format!("{at} ")), "{e}");
        }
        // A negative or fractional integer.
        for key in c.ints {
            let at = format!("{}.{key}", c.path);
            for bad in [-1.0, 2.5] {
                let e = err(&with(&c.json, key, Some(Json::Num(bad))));
                assert_eq!(e, format!("{at} = {bad} is not a non-negative integer"));
            }
        }
    }
}

#[test]
fn reader_errors_keep_their_wording() {
    let c = &case_at("phases[0]");
    let read = |json: Json| (c.read)(&json, c.path).unwrap_err();
    assert_eq!(
        read(with(&c.json, "sent_bytes", None)),
        r#"phases[0].sent_bytes: phases[0] is missing field "sent_bytes""#
    );
    assert_eq!(
        read(with(&c.json, "sent_bytes", Some(Json::Bool(true)))),
        "phases[0].sent_bytes is not a number"
    );
    assert_eq!(
        read(with(&c.json, "phase", Some(Json::Null))),
        "phases[0].phase is not a string"
    );
    // Nested records extend the path; the report reader roots it at
    // `report`.
    let sim = case_at("sim");
    let machine = with(
        sim.json.get("machine").unwrap(),
        "cores_per_node",
        Some(Json::Num(2.5)),
    );
    assert_eq!(
        (sim.read)(&with(&sim.json, "machine", Some(machine)), "report.sim").unwrap_err(),
        "report.sim.machine.cores_per_node = 2.5 is not a non-negative integer"
    );
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/REPORT_fig5_small.json"),
    )
    .expect("committed report");
    let e = RunReportDoc::parse(&text.replacen(r#""recv_msgs": "#, r#""recv_msgs": -"#, 1))
        .unwrap_err();
    assert!(
        e.starts_with("report.phases[0].recv_msgs = -")
            && e.ends_with("is not a non-negative integer"),
        "{e}"
    );
    // Zero processes along a grid axis is no grid; a collective mode must
    // be one the runtime has.
    let grid = &case_at("meta.grid");
    assert_eq!(
        (grid.read)(&with(&grid.json, "pk", Some(Json::Num(0.0))), "meta.grid").unwrap_err(),
        "meta.grid.pk = 0 is not a positive integer"
    );
    let meta = &case_at("meta");
    let mode = Some(Json::Str("ring".to_owned()));
    assert_eq!(
        (meta.read)(&with(&meta.json, "collectives", mode), "meta").unwrap_err(),
        r#"meta.collectives = "ring" is not a collective mode"#
    );
}

#[test]
fn machine_infinities_round_trip_through_null() {
    // `uniform()` disables the pack and degrade thresholds with +∞, which
    // the writer spells `null`; the reader brings the infinity back, and
    // `null` stays an error in a field where ∞ means nothing.
    let m = Machine::uniform();
    let text = m.to_json().to_string();
    assert!(text.contains(r#""pack_bw":null"#), "{text}");
    assert!(
        text.contains(r#""reduce_scatter_degrade_threshold":null"#),
        "{text}"
    );
    let back = Machine::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert!(back.pack_bw.is_infinite() && back.reduce_scatter_degrade_threshold.is_infinite());
    assert_eq!(back, m);
    let e = Machine::from_json(&with(&m.to_json(), "alpha_intra", Some(Json::Null))).unwrap_err();
    assert_eq!(e, "Machine.alpha_intra is not a number");
}
