//! Wire fuzzing of the daemon's request path: arbitrary bytes, token soup
//! and single-field mutations of a valid multiply line must each come back
//! from `serve::protocol::parse_request` and `Json::parse` as `Ok` or a
//! structured error — never a panic, never a stack overflow — and a server
//! that was sent junk keeps answering.
//!
//! Every line is parsed on a thread with the 2 MiB stack a TCP/unix
//! connection thread gets, so a parser that recurses without bound aborts
//! this test binary instead of passing quietly on a bigger stack.

use jsonlite::Json;
use proptest::prelude::*;
use serve::protocol::{parse_request, Limits};
use serve::{SchedulerConfig, Server, ServerConfig};
use std::time::Duration;

const P: usize = 4;

/// Stack of a connection thread (`std::thread` default).
const CONN_STACK: usize = 2 << 20;

/// The two lines that used to take the daemon down: unbounded JSON nesting
/// (stack overflow, SIGABRT) and a `block:` grid whose `r·c` wraps to p
/// (overflow panic in debug builds, "capacity overflow" in release).
fn killer_lines() -> [String; 2] {
    [
        "[".repeat(60_000),
        r#"{"cmd":"multiply","id":"wrap","m":8,"n":8,"k":8,"layout_a":"block:4611686018427387905x4"}"#
            .to_owned(),
    ]
}

/// Runs `f` on a thread with a connection thread's stack.
fn on_conn_stack<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(CONN_STACK)
            .spawn_scoped(s, f)
            .expect("spawn parser thread")
            .join()
            .expect("a parser panicked")
    })
}

/// Parses every line with both entry points; an error must carry one of the
/// protocol's structured codes.
fn parse_all(lines: &[String]) {
    on_conn_stack(|| {
        let limits = Limits::default();
        for line in lines {
            if let Err(e) = parse_request(line, P, &limits) {
                assert!(
                    matches!(e.code, "bad_json" | "bad_request" | "too_large"),
                    "unstructured error {e} for {line:?}"
                );
            }
            let _ = Json::parse(line);
        }
    });
}

/// The fields of a valid multiply line, as `(key, raw JSON value)`.
const VALID: [(&str, &str); 16] = [
    ("cmd", r#""multiply""#),
    ("id", r#""f""#),
    ("m", "8"),
    ("n", "8"),
    ("k", "8"),
    ("dtype", r#""f64""#),
    ("seed_a", "1"),
    ("seed_b", "2"),
    ("op_a", r#""n""#),
    ("op_b", r#""t""#),
    ("layout_a", r#""col""#),
    ("layout_b", r#""block:2x2""#),
    ("layout_c", r#""cyclic:2x2:3x3""#),
    ("report", "false"),
    ("grid", "[2,2,1]"),
    ("opts", r#"{"overlap":true}"#),
];

/// Hostile replacement values (raw JSON, some of it not JSON at all).
const HOSTILE: [&str; 29] = [
    "0",
    "-1",
    "8.5",
    "1e308",
    "-1e308",
    "18446744073709551616",
    "4611686018427387905",
    "null",
    "true",
    r#""""#,
    r#""t""#,
    r#""f16""#,
    r#""block:4611686018427387905x4""#,
    r#""cyclic:4x4611686018427387905:2x2""#,
    r#""cyclic:2x2:0x1""#,
    r#""cyclic:2x2:18446744073709551615x1""#,
    r#""block:18446744073709551615x18446744073709551615""#,
    r#""block:1x4x""#,
    "[]",
    "[1,2,3]",
    "[4611686018427387905,4611686018427387905,1]",
    "[1e300,1,1]",
    "[1,2,1]",
    "{}",
    r#"{"overlap":1}"#,
    r#""\ud800""#,
    r#""\u00""#,
    "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
    "",
];

/// One field of [`VALID`] replaced (`kind` 0), dropped (1), renamed to
/// another field's key (2) or given a random integer (3).
fn mutated_line(field: usize, kind: u8, value: usize, number: u64) -> String {
    let fields: Vec<String> = VALID
        .iter()
        .enumerate()
        .filter_map(|(i, &(key, raw))| {
            if i != field {
                return Some(format!(r#""{key}":{raw}"#));
            }
            match kind {
                0 => Some(format!(r#""{key}":{}"#, HOSTILE[value % HOSTILE.len()])),
                1 => None,
                2 => Some(format!(r#""{}":{raw}"#, VALID[value % VALID.len()].0)),
                _ => Some(format!(r#""{key}":{number}"#)),
            }
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The characters token soup is built from.
const SOUP: &[u8] = b"{}[]\":,0123456789";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_answered_not_fatal(
        bytes in proptest::collection::vec(0u16..256, 0..2048)
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let mut lines = killer_lines().to_vec();
        lines.push(String::from_utf8_lossy(&bytes).into_owned());
        parse_all(&lines);
    }

    #[test]
    fn token_soup_is_answered_not_fatal(
        picks in proptest::collection::vec(0usize..SOUP.len(), 0..4096)
    ) {
        let soup: String = picks.iter().map(|&i| SOUP[i] as char).collect();
        // Also as the value of a valid request's field, where the parser
        // is one level deep and the protocol layer sees whatever parses.
        let wrapped = format!(r#"{{"cmd":"multiply","id":"s","m":8,"n":8,"k":8,"grid":{soup}}}"#);
        let mut lines = killer_lines().to_vec();
        lines.extend([soup, wrapped]);
        parse_all(&lines);
    }

    #[test]
    fn single_field_mutations_are_answered_not_fatal(
        field in 0usize..VALID.len(),
        kind in 0u8..4,
        value in 0usize..64,
        number in 0u64..u64::MAX
    ) {
        let mut lines = killer_lines().to_vec();
        lines.push(mutated_line(field, kind, value, number));
        parse_all(&lines);
    }
}

#[test]
fn unmutated_line_is_a_valid_multiply() {
    let line = mutated_line(usize::MAX, 0, 0, 0);
    let req = parse_request(&line, P, &Limits::default()).expect("valid line");
    assert!(matches!(req, serve::Request::Multiply(_)), "{line}");
}

#[test]
fn killer_lines_get_structured_errors() {
    let [deep, wrap] = killer_lines();
    let codes = on_conn_stack(|| {
        let limits = Limits::default();
        [&deep, &wrap].map(|line| parse_request(line, P, &limits).unwrap_err().code)
    });
    assert_eq!(codes, ["bad_json", "bad_request"]);
}

/// The transport path: every junk line gets exactly one error response and
/// the server still answers the `stats` request that follows them.
#[test]
fn server_answers_each_junk_line_once_and_keeps_serving() {
    let server = Server::new(&ServerConfig {
        sched: SchedulerConfig {
            p: P,
            slots: 1,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    });
    let (sink, rx) = serve::channel_sink();
    let mut junk = killer_lines().to_vec();
    junk.extend(
        [
            "\u{fffd}\u{0}garbage",
            "{\"cmd\":",
            "]]]]",
            r#"{"cmd":"multiply","id":"cyc","m":8,"n":8,"k":8,"layout_c":"cyclic:4611686018427387905x4:1x1"}"#,
            r#"{"cmd":"frobnicate","id":"x"}"#,
        ]
        .map(str::to_owned),
    );
    on_conn_stack(|| {
        for line in &junk {
            server.handle_line(line, &sink);
        }
        server.handle_line(r#"{"cmd":"stats","id":"after"}"#, &sink);
    });

    let next = || {
        rx.recv_timeout(Duration::from_secs(60))
            .expect("a response for every line")
    };
    for line in &junk {
        let resp = next();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(false),
            "{line:.80}"
        );
        let code = resp
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        assert!(
            matches!(code, Some("bad_json" | "bad_request")),
            "{code:?} for {line:.80}"
        );
    }
    let stats = next();
    assert_eq!(stats.get("id").and_then(Json::as_str), Some("after"));
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    let errors = stats
        .get("stats")
        .and_then(|s| s.get("requests"))
        .and_then(|r| r.get("error"))
        .and_then(Json::as_f64);
    assert_eq!(errors, Some(junk.len() as f64));
    assert!(rx.try_recv().is_err(), "one response per line, no more");
    server.finish();
}
