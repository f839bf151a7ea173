//! Transport front-ends: stdio (NDJSON over stdin/stdout), TCP, and Unix
//! domain sockets, all speaking the same line protocol and feeding the same
//! [`Scheduler`].
//!
//! Each connection gets a reader thread; responses go back through a
//! mutex-wrapped writer so concurrent dispatcher completions interleave by
//! whole lines, never by bytes. A `shutdown` command (from any connection)
//! answers immediately, then the listeners stop and the scheduler runs
//! what is still queued.

use crate::protocol::{parse_request, Limits, Request};
use crate::scheduler::{ResponseSink, Scheduler, SchedulerConfig};
use jsonlite::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Where the daemon listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Listen {
    /// Serve stdin→stdout (the default; what CI drives).
    Stdio,
    /// `tcp:HOST:PORT`
    Tcp(String),
    /// `unix:PATH`
    Unix(String),
}

impl Listen {
    /// Parses `stdio`, `tcp:HOST:PORT`, or `unix:PATH`.
    pub fn parse(s: &str) -> Result<Listen, String> {
        if s == "stdio" {
            return Ok(Listen::Stdio);
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.rsplit_once(':').is_none() {
                return Err(format!("tcp listen address needs HOST:PORT, got {addr:?}"));
            }
            return Ok(Listen::Tcp(addr.to_owned()));
        }
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix listen address needs a path".to_owned());
            }
            return Ok(Listen::Unix(path.to_owned()));
        }
        Err(format!(
            "unknown listen spec {s:?} (want stdio, tcp:HOST:PORT, unix:PATH)"
        ))
    }
}

/// Full daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    pub sched: SchedulerConfig,
    pub limits: Limits,
    pub listen: Listen,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            sched: SchedulerConfig::default(),
            limits: Limits::default(),
            listen: Listen::Stdio,
        }
    }
}

/// A running daemon: scheduler plus the shutdown latch the transports poll.
pub struct Server {
    sched: Scheduler,
    limits: Limits,
    shutdown: AtomicBool,
    p: usize,
}

impl Server {
    /// Starts the scheduler (spawning and warming its slots).
    pub fn new(cfg: &ServerConfig) -> Server {
        Server {
            sched: Scheduler::new(cfg.sched.clone()),
            limits: cfg.limits,
            shutdown: AtomicBool::new(false),
            p: cfg.sched.p,
        }
    }

    /// True once some connection issued `shutdown`.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handles one request line: enqueues multiplies, answers stats
    /// inline, arms the shutdown latch. Every line produces exactly one
    /// response through `sink` (now or when the multiply completes).
    pub fn handle_line(&self, line: &str, sink: &ResponseSink) {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        self.sched.note_request();
        match parse_request(line, self.p, &self.limits) {
            Err(e) => {
                self.sched.note_error();
                sink(e.to_response(extract_id(line).as_deref()));
            }
            Ok(Request::Stats { id }) => {
                let mut resp = Json::obj([("id", Json::Str(id)), ("ok", Json::Bool(true))]);
                if let Json::Obj(map) = &mut resp {
                    map.insert("stats".to_owned(), self.sched.stats_json());
                }
                sink(resp);
            }
            Ok(Request::Shutdown { id }) => {
                sink(Json::obj([
                    ("id", Json::Str(id)),
                    ("ok", Json::Bool(true)),
                    ("shutting_down", Json::Bool(true)),
                ]));
                self.shutdown.store(true, Ordering::SeqCst);
            }
            Ok(Request::Multiply(req)) => {
                self.sched.submit(req, Arc::clone(sink));
            }
        }
    }

    /// Runs every queued multiply, then stops the dispatchers. Consumes
    /// the server: every response has reached its sink when this returns.
    pub fn finish(self) {
        self.sched.shutdown();
    }
}

/// Best-effort id recovery from an unparseable line, so error responses can
/// still correlate. Only attempted on valid JSON objects (a `bad_request`
/// whose shape was fine); junk bytes yield `None`.
fn extract_id(line: &str) -> Option<String> {
    Json::parse(line)
        .ok()?
        .get("id")?
        .as_str()
        .map(str::to_owned)
}

/// A line writer shared by dispatcher threads: one lock per response keeps
/// lines whole.
fn writer_sink<W: Write + Send + 'static>(w: W) -> ResponseSink {
    let w = Mutex::new(w);
    Arc::new(move |resp: Json| {
        let mut w = w.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(w, "{resp}");
        let _ = w.flush();
    })
}

/// Runs the daemon until `shutdown` (or EOF on stdio), then drains.
pub fn run(cfg: &ServerConfig) -> std::io::Result<()> {
    let server = Server::new(cfg);
    match &cfg.listen {
        Listen::Stdio => {
            let sink = writer_sink(std::io::stdout());
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let line = line?;
                server.handle_line(&line, &sink);
                if server.shutdown_requested() {
                    break;
                }
            }
        }
        Listen::Tcp(addr) => {
            let listener = TcpListener::bind(addr)?;
            let mut wake_addr = listener.local_addr()?;
            if wake_addr.ip().is_unspecified() {
                wake_addr.set_ip(match wake_addr {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            serve_listener(
                &server,
                || {
                    let (s, _) = listener.accept()?;
                    let (w, stop) = (s.try_clone()?, s.try_clone()?);
                    Ok((s, w, move || drop(stop.shutdown(Shutdown::Read))))
                },
                || drop(TcpStream::connect(wake_addr)),
            )?;
        }
        Listen::Unix(path) => {
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            let result = serve_listener(
                &server,
                || {
                    let (s, _) = listener.accept()?;
                    let (w, stop) = (s.try_clone()?, s.try_clone()?);
                    Ok((s, w, move || drop(stop.shutdown(Shutdown::Read))))
                },
                || drop(UnixStream::connect(path)),
            );
            let _ = std::fs::remove_file(path);
            result?;
        }
    }
    server.finish();
    Ok(())
}

/// Accept loop shared by the socket transports. `accept` yields a
/// (reader, writer, stop) triple per connection; each connection gets a
/// reader thread, and `stop` shuts its read half. Returns when some
/// connection requests shutdown and every reader has stopped.
///
/// `accept` blocks, so the reader that sees the shutdown latch set calls
/// `wake`, which connects to the listener once: the acceptor returns with
/// that connection, finds the latch set, and stops every live connection's
/// read half, so a reader blocked on an idle connection sees end of input.
/// Write halves stay open: queued multiplies still answer.
fn serve_listener<R, W, S, A, K>(server: &Server, accept: A, wake: K) -> std::io::Result<()>
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
    S: FnOnce() + Send,
    A: Fn() -> std::io::Result<(R, W, S)>,
    K: Fn() + Sync,
{
    // The `stop` of every connection whose reader is still running.
    let live = Mutex::new(BTreeMap::<usize, S>::new());
    let lock = || live.lock().unwrap_or_else(PoisonError::into_inner);
    let (wake, lock) = (&wake, &lock);
    std::thread::scope(|scope| {
        for id in 0usize.. {
            let (r, w, stop) = match accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if server.shutdown_requested() {
                std::mem::take(&mut *lock())
                    .into_values()
                    .for_each(|stop| stop());
                return Ok(());
            }
            lock().insert(id, stop);
            scope.spawn(move || {
                let sink = writer_sink(w);
                for line in BufReader::new(r).lines() {
                    let Ok(line) = line else { break };
                    server.handle_line(&line, &sink);
                    if server.shutdown_requested() {
                        wake();
                        break;
                    }
                }
                lock().remove(&id);
            });
        }
        unreachable!("connection numbers ran out")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel_sink;

    fn test_server(p: usize, slots: usize) -> Server {
        let cfg = ServerConfig {
            sched: SchedulerConfig {
                p,
                slots,
                ..SchedulerConfig::default()
            },
            ..ServerConfig::default()
        };
        Server::new(&cfg)
    }

    #[test]
    fn listen_spec_parses() {
        assert_eq!(Listen::parse("stdio").unwrap(), Listen::Stdio);
        assert_eq!(
            Listen::parse("tcp:127.0.0.1:9000").unwrap(),
            Listen::Tcp("127.0.0.1:9000".to_owned())
        );
        assert_eq!(
            Listen::parse("unix:/tmp/s.sock").unwrap(),
            Listen::Unix("/tmp/s.sock".to_owned())
        );
        assert!(Listen::parse("tcp:nohost").is_err());
        assert!(Listen::parse("unix:").is_err());
        assert!(Listen::parse("ftp:x").is_err());
    }

    #[test]
    fn malformed_lines_yield_error_responses_not_panics() {
        let server = test_server(2, 1);
        let (sink, rx) = channel_sink();
        server.handle_line("{broken", &sink);
        let resp = rx.recv().unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad_json")
        );
        // a well-formed object with a bad field keeps its id in the error
        server.handle_line(r#"{"cmd":"multiply","id":"bad1","m":0,"n":8,"k":8}"#, &sink);
        let resp = rx.recv().unwrap();
        assert_eq!(resp.get("id").and_then(Json::as_str), Some("bad1"));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        server.finish();
    }

    #[test]
    fn stats_and_shutdown_round_trip() {
        let server = test_server(2, 1);
        let (sink, rx) = channel_sink();
        server.handle_line(r#"{"cmd":"multiply","id":"m1","m":8,"n":8,"k":8}"#, &sink);
        let resp = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("multiply response");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        server.handle_line(r#"{"cmd":"stats","id":"s1"}"#, &sink);
        let stats = rx.recv().unwrap();
        assert_eq!(stats.get("id").and_then(Json::as_str), Some("s1"));
        let body = stats.get("stats").expect("stats body");
        assert!(body.get("cache").is_some());
        assert!(!server.shutdown_requested());
        server.handle_line(r#"{"cmd":"shutdown","id":"bye"}"#, &sink);
        let bye = rx.recv().unwrap();
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        assert!(server.shutdown_requested());
        server.finish();
    }

    #[test]
    fn empty_lines_are_ignored() {
        let server = test_server(2, 1);
        let (sink, rx) = channel_sink();
        server.handle_line("", &sink);
        server.handle_line("   ", &sink);
        assert!(rx.try_recv().is_err());
        server.finish();
    }

    #[test]
    fn finish_runs_every_queued_multiply() {
        for slots in [1, 2] {
            let server = test_server(2, slots);
            let (sink, rx) = channel_sink();
            let shapes = [(24, 20, 16), (8, 8, 8)];
            let ids: Vec<String> = (0..8).map(|i| format!("q{i}")).collect();
            for (i, id) in ids.iter().enumerate() {
                let (m, n, k) = shapes[i % 2];
                let line = format!(r#"{{"cmd":"multiply","id":"{id}","m":{m},"n":{n},"k":{k}}}"#);
                server.handle_line(&line, &sink);
            }
            server.finish();
            let mut answered: Vec<String> = rx
                .try_iter()
                .map(|resp| {
                    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
                    resp.get("id").and_then(Json::as_str).unwrap().to_owned()
                })
                .collect();
            answered.sort();
            assert_eq!(answered, ids, "slots {slots}");
        }
    }
}
