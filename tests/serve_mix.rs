//! The daemon's protocol contract, driven through `Server::handle_line` at
//! p = 4 on two slots with the request mix an operator sends:
//!
//! 1. the first request for a shape is a plan-cache miss; repeats are hits
//!    with bitwise-identical checksums, the fastest of which takes at most
//!    half the miss's `plan_ms` (the amortisation the cache exists for);
//! 2. malformed, oversized and invalid requests get structured errors and
//!    the daemon keeps serving;
//! 3. `stats` reports the hits, the error count and a per-shape latency
//!    histogram;
//! 4. a `report: true` request writes a RunReport into the report
//!    directory, whose neighbour-exchange histogram shows the pinned
//!    message count of the redistribution and no 0 B message;
//! 5. `shutdown` with multiplies in flight still answers every one of them;
//!    sent over a Unix socket, it also stops the daemon's accept loop, even
//!    while another connection sits idle.

use jsonlite::Json;
use msgpass::RunReportDoc;
use serve::{Listen, ResponseSink, SchedulerConfig, Server, ServerConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc::Receiver;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A server and every response it has sent, by id (`<null>` for none).
struct Client {
    server: Server,
    sink: ResponseSink,
    rx: Receiver<Json>,
    got: HashMap<String, Json>,
}

impl Client {
    fn send(&self, line: &str) {
        self.server.handle_line(line, &self.sink);
    }

    /// Waits for the responses to `ids`, in that order.
    fn wait<const N: usize>(&mut self, ids: [&str; N]) -> [Json; N] {
        while let Some(missing) = ids.iter().find(|id| !self.got.contains_key(**id)) {
            let resp = self
                .rx
                .recv_timeout(Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("no response for {missing}"));
            let id = resp.get("id").and_then(Json::as_str).unwrap_or("<null>");
            self.got.insert(id.to_owned(), resp.clone());
        }
        ids.map(|id| self.got[id].clone())
    }
}

fn num(resp: &Json, path: &[&str]) -> f64 {
    let mut v = resp;
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("{path:?} missing in {resp}"));
    }
    v.as_f64()
        .unwrap_or_else(|| panic!("{path:?} not a number in {resp}"))
}

fn str_at<'a>(resp: &'a Json, key: &str) -> &'a str {
    resp.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} in {resp}"))
}

fn ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_code(resp: &Json) -> &str {
    resp.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or("")
}

#[test]
fn scripted_request_mix_keeps_the_protocol_contract() {
    let reports = std::env::temp_dir().join(format!("serve_mix_{}", std::process::id()));
    std::fs::create_dir_all(&reports).expect("report dir");
    let (sink, rx) = serve::channel_sink();
    let mut s = Client {
        server: Server::new(&ServerConfig {
            sched: SchedulerConfig {
                p: 4,
                slots: 2,
                report_dir: Some(reports.clone()),
                ..SchedulerConfig::default()
            },
            ..ServerConfig::default()
        }),
        sink,
        rx,
        got: HashMap::new(),
    };
    let shape = |id: &str, extra: &str| {
        format!(
            r#"{{"cmd":"multiply","id":"{id}","m":96,"n":96,"k":96,"seed_a":11,"seed_b":12{extra}}}"#
        )
    };
    let small = |id: &str, dtype: &str| {
        format!(r#"{{"cmd":"multiply","id":"{id}","m":48,"n":64,"k":32,"dtype":"{dtype}"}}"#)
    };

    // 1. A cold request misses; waiting for it means the repeats find its
    // plan cached (on two slots a repeat could otherwise build it too).
    // The repeats are queued together and a second shape rides along, so
    // hits run on both slots, next to a miss.
    s.send(&shape("cold", ""));
    let [cold] = s.wait(["cold"]);
    assert!(ok(&cold) && str_at(&cold, "cache") == "miss", "{cold}");
    let reps = ["rep0", "rep1", "rep2", "rep3"];
    for id in reps {
        s.send(&shape(id, ""));
    }
    s.send(&small("other", "f32"));
    let mut fastest_hit = f64::INFINITY;
    for rep in s.wait(reps) {
        assert!(ok(&rep) && str_at(&rep, "cache") == "hit", "{rep}");
        assert_eq!(
            str_at(&rep, "checksum"),
            str_at(&cold, "checksum"),
            "a hit changed bits"
        );
        fastest_hit = fastest_hit.min(num(&rep, &["plan_ms"]));
    }
    // Noise (steal, a preempted thread) only adds CPU time, so the fastest
    // of the four concurrent hits is the one that measures the hit path.
    let miss = num(&cold, &["plan_ms"]);
    assert!(
        fastest_hit * 2.0 <= miss,
        "fastest hit plan_ms {fastest_hit} not below half of the miss's {miss}"
    );
    let [other] = s.wait(["other"]);
    assert!(ok(&other) && str_at(&other, "cache") == "miss", "{other}");
    assert_ne!(str_at(&other, "checksum"), str_at(&cold, "checksum"));
    // Equal requests have equal checksums; the f64 twin of an f32 request
    // (same shape, same default seeds) does not. The two run concurrently,
    // one on each slot.
    s.send(&small("other-again", "f32"));
    s.send(&small("other-f64", "f64"));
    let [again, twin] = s.wait(["other-again", "other-f64"]);
    assert!(
        ok(&again) && str_at(&again, "checksum") == str_at(&other, "checksum"),
        "{again}"
    );
    assert!(
        ok(&twin) && str_at(&twin, "checksum") != str_at(&other, "checksum"),
        "{twin}"
    );

    // 2. Structured errors, and the daemon still serves afterwards.
    s.send("{this is not json");
    s.send(r#"{"cmd":"multiply","id":"huge","m":99999999,"n":8,"k":8}"#);
    s.send(r#"{"cmd":"multiply","id":"badlay","m":8,"n":8,"k":8,"layout_a":"block:3x3"}"#);
    let [bad, huge, badlay] = s.wait(["<null>", "huge", "badlay"]);
    assert_eq!(error_code(&bad), "bad_json", "{bad}");
    assert!(!ok(&huge) && error_code(&huge) == "too_large", "{huge}");
    assert!(
        !ok(&badlay) && error_code(&badlay) == "bad_request",
        "{badlay}"
    );
    s.send(&shape("after-errors", ""));
    let [after] = s.wait(["after-errors"]);
    assert!(
        ok(&after) && str_at(&after, "checksum") == str_at(&cold, "checksum"),
        "{after}"
    );

    // 4. The per-request RunReport, read with the one parser.
    s.send(&shape("traced", r#","report":true"#));
    let [traced] = s.wait(["traced"]);
    assert!(ok(&traced), "{traced}");
    let text = std::fs::read_to_string(str_at(&traced, "report_path")).expect("report file");
    let doc = RunReportDoc::parse(&text).expect("per-request RunReport parses");
    assert_eq!(
        doc.meta.get("plan_cached").and_then(Json::as_bool),
        Some(true)
    );
    assert!(num(&doc.meta, &["grid_search_secs"]) >= 0.0);
    // From `col` layouts to the 2×2×1 grid at p = 4 the neighbour exchange
    // takes 12 messages (36 when every rank wrote to every peer), none 0 B.
    let redist = &doc.hist_by_algo["neighbor_alltoallv"];
    assert_eq!((redist.msgs, redist.count(0)), (12, 0));

    // 3. Stats: hits, misses, errors, per-shape histograms.
    s.send(r#"{"cmd":"stats","id":"stats"}"#);
    let [stats] = s.wait(["stats"]);
    assert!(num(&stats, &["stats", "cache", "hits"]) > 0.0, "{stats}");
    assert!(num(&stats, &["stats", "cache", "misses"]) >= 2.0, "{stats}");
    assert_eq!(num(&stats, &["stats", "requests", "error"]), 3.0, "{stats}");
    assert_eq!(num(&stats, &["stats", "requests", "ok"]), 10.0, "{stats}");
    assert_eq!(
        num(&stats, &["stats", "shapes", "96x96x96/f64", "count"]),
        7.0
    );

    // 5. Shutdown with three multiplies in flight: each still answers.
    let tails = ["tail0", "tail1", "tail2"];
    for (i, id) in tails.iter().enumerate() {
        s.send(&shape(id, "").replace(r#""seed_a":11"#, &format!(r#""seed_a":{}"#, 20 + i)));
    }
    s.send(r#"{"cmd":"shutdown","id":"bye"}"#);
    assert!(s.server.shutdown_requested());
    let [bye] = s.wait(["bye"]);
    assert!(ok(&bye) && bye.get("shutting_down").and_then(Json::as_bool) == Some(true));
    s.server.finish();
    for resp in s.rx.try_iter() {
        s.got.insert(str_at(&resp, "id").to_owned(), resp);
    }
    for id in tails {
        assert!(s.got.get(id).is_some_and(ok), "{id} unanswered or failed");
    }
    std::fs::remove_dir_all(&reports).expect("remove report dir");
}

/// `serve::run` on a Unix socket at `dir/daemon.sock`, on its own thread,
/// and a channel that reports its return.
fn unix_daemon(dir: &Path) -> (PathBuf, Receiver<()>, JoinHandle<std::io::Result<()>>) {
    std::fs::create_dir_all(dir).expect("socket dir");
    let path = dir.join("daemon.sock");
    let cfg = ServerConfig {
        sched: SchedulerConfig {
            p: 2,
            slots: 1,
            ..SchedulerConfig::default()
        },
        listen: Listen::Unix(path.to_str().expect("UTF-8 temp path").to_owned()),
        ..ServerConfig::default()
    };
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let daemon = std::thread::spawn(move || {
        let result = serve::run(&cfg);
        let _ = done_tx.send(());
        result
    });
    (path, done_rx, daemon)
}

/// Connects to the daemon's socket once it listens.
fn connect(path: &Path) -> UnixStream {
    let t0 = Instant::now();
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(e) if t0.elapsed() > Duration::from_secs(60) => {
                panic!("daemon never listened: {e}")
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Reads `n` answers from a connection, as `id → ok`.
fn answers(stream: &UnixStream, n: usize) -> HashMap<String, bool> {
    let lines = BufReader::new(stream).lines().take(n);
    let parse = |line: std::io::Result<String>| {
        let resp = Json::parse(&line.expect("answer")).expect("answer is JSON");
        (str_at(&resp, "id").to_owned(), ok(&resp))
    };
    lines.map(parse).collect()
}

/// `serve::run` on a Unix socket returns once a client sends `shutdown`:
/// the accept loop is woken, not left blocked until another client
/// connects. The multiply sent before it is still answered.
#[test]
fn socket_daemon_returns_after_shutdown() {
    let dir = std::env::temp_dir().join(format!("serve_socket_{}", std::process::id()));
    let (path, done_rx, daemon) = unix_daemon(&dir);
    let mut stream = connect(&path);
    writeln!(
        stream,
        r#"{{"cmd":"multiply","id":"a","m":48,"n":64,"k":32}}"#
    )
    .and_then(|()| writeln!(stream, r#"{{"cmd":"shutdown","id":"bye"}}"#))
    .expect("send");
    assert_eq!(
        answers(&stream, 2),
        HashMap::from([("a".to_owned(), true), ("bye".to_owned(), true)])
    );
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("serve::run still running 5 s after shutdown");
    daemon.join().expect("daemon thread").expect("serve::run");
    std::fs::remove_dir_all(&dir).expect("remove socket dir");
}

/// A connection that stays open and silent does not keep `serve::run`
/// alive after another client's `shutdown`: the accept loop shuts every
/// live connection's read half, so the idle reader sees end of input.
#[test]
fn idle_connection_does_not_hold_the_daemon_after_shutdown() {
    let dir = std::env::temp_dir().join(format!("serve_idle_{}", std::process::id()));
    let (path, done_rx, daemon) = unix_daemon(&dir);
    let idle = connect(&path);
    let mut stream = connect(&path);
    writeln!(stream, r#"{{"cmd":"shutdown","id":"bye"}}"#).expect("send");
    assert_eq!(
        answers(&stream, 1),
        HashMap::from([("bye".to_owned(), true)])
    );
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("serve::run still running 5 s after shutdown, held by an idle connection");
    drop(idle);
    daemon.join().expect("daemon thread").expect("serve::run");
    std::fs::remove_dir_all(&dir).expect("remove socket dir");
}
