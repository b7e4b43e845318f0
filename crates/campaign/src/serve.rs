//! `prac-bench serve`: the result store as a long-running query service.
//!
//! The server speaks newline-delimited JSON (one request object per line,
//! one response object per line) over TCP or — on Unix — a Unix domain
//! socket, so `nc`, shell scripts and future sweep workers can all talk to
//! it without a client library:
//!
//! ```text
//! → {"op":"ping"}
//! ← {"ok":true,"pong":true}
//! → {"op":"query","spec":{"kind":"solve_window","nrh":4096,"counter_reset":true}}
//! ← {"ok":true,"hit":false,"key":"…16 hex…","metrics":{…},"wall_ms":0.2}
//! → {"op":"query","spec":{"kind":"solve_window","nrh":4096,"counter_reset":true}}
//! ← {"ok":true,"hit":true,"key":"…same…","metrics":{…},"wall_ms":0.2}
//! → {"op":"shutdown"}
//! ← {"ok":true,"stopping":true}
//! ```
//!
//! Supported ops: `ping`, `stats`, `get` (by 16-hex-digit key), `query`
//! (by canonical spec JSON; serve-from-store on hit, run-on-miss via the
//! campaign exec path and persist), and `shutdown` (clean stop: the accept
//! loop drains and the store index is flushed).  Hits never construct a
//! simulation — the reply is an index probe plus one segment read.
//!
//! A request line, newline included, may be at most [`MAX_REQUEST_BYTES`]
//! long.  A longer line is answered with an `ok:false` error, and the
//! connection closes once the rest of that line has been read and dropped.
//! At most [`MAX_CONNECTIONS`] connections are served at once; one more is
//! answered with an `ok:false` error and closed.  A connection that sends
//! nothing for [`IDLE_TIMEOUT`] is closed, which frees its slot.

use std::io::{self, BufRead, BufReader, Read};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde_json::{Map, Value};
use system_sim::EngineKind;

use crate::cache::{CachedResult, ResultCache};
use crate::exec::execute_with;
use crate::scenario::{Scenario, ScenarioSpec};

/// How long the accept loop sleeps between polls of a quiet listener.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Read timeout on connection streams: an idle handler wakes this often to
/// check the shutdown flag, so joining in-flight handlers at shutdown never
/// blocks on a silent client.
const READ_POLL: Duration = Duration::from_millis(50);

/// Longest request line the server buffers, newline included.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Most connections served at once.  One more is answered with an
/// `ok:false` error and closed, so a flood of idle clients cannot spawn
/// unbounded handler threads.
pub const MAX_CONNECTIONS: usize = 64;

/// How long a connection may stay silent before the server closes it and
/// frees its [`MAX_CONNECTIONS`] slot, counted from the last byte received
/// or the last reply sent.  A client may hold a connection open between
/// requests, but never past this.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// The query service: a [`ResultCache`] plus the engine used to run misses.
///
/// Cloning is cheap (the cache, the shutdown flag and the handler registry
/// are shared), which is how per-connection threads get their handle.
#[derive(Debug, Clone)]
pub struct Server {
    cache: ResultCache,
    engine: EngineKind,
    shutdown: Arc<AtomicBool>,
    /// Join handles of spawned connection threads.  The serve loop joins
    /// every live handler before the shutdown flush so an in-flight miss
    /// run is persisted (and its reply delivered) rather than lost.
    handlers: Arc<Mutex<Vec<JoinHandle<io::Result<()>>>>>,
    /// Test hook: artificial delay inserted before a miss run.
    miss_delay: Option<Duration>,
}

impl Server {
    /// Creates a server answering queries from (and persisting misses to)
    /// `cache`, running misses under `engine`.
    #[must_use]
    pub fn new(cache: ResultCache, engine: EngineKind) -> Self {
        Self {
            cache,
            engine,
            shutdown: Arc::new(AtomicBool::new(false)),
            handlers: Arc::new(Mutex::new(Vec::new())),
            miss_delay: None,
        }
    }

    /// Test hook: sleeps for `delay` before executing a query miss, making
    /// shutdown-vs-in-flight-miss races reproducible.  Not part of the
    /// public protocol surface.
    #[doc(hidden)]
    #[must_use]
    pub fn with_miss_delay(mut self, delay: Duration) -> Self {
        self.miss_delay = Some(delay);
        self
    }

    /// The shared shutdown flag: setting it stops the serve loop at its next
    /// poll (the `shutdown` protocol op sets it for you).
    #[must_use]
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serves connections from `listener` until shutdown, joins every
    /// in-flight connection handler, then flushes the store.  Bind the
    /// listener yourself so `127.0.0.1:0` tests can learn the resolved port
    /// before serving.
    ///
    /// # Errors
    ///
    /// Propagates listener errors other than the non-blocking wait, and the
    /// final store flush error.
    pub fn serve_tcp(&self, listener: &TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.serve(|| {
            let (stream, _peer) = listener.accept()?;
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(READ_POLL))?;
            Ok(stream)
        })
    }

    /// Serves connections from a Unix domain socket listener until shutdown,
    /// joins every in-flight connection handler, then flushes the store.
    ///
    /// # Errors
    ///
    /// Propagates listener errors other than the non-blocking wait, and the
    /// final store flush error.
    #[cfg(unix)]
    pub fn serve_unix(&self, listener: &std::os::unix::net::UnixListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.serve(|| {
            let (stream, _peer) = listener.accept()?;
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(READ_POLL))?;
            Ok(stream)
        })
    }

    /// The accept loop behind both transports.  `accept` polls a
    /// non-blocking listener and returns the next connection as a blocking
    /// stream with the [`READ_POLL`] timeout.  At most [`MAX_CONNECTIONS`]
    /// handlers run at once; a connection beyond that is refused with an
    /// `ok:false` reply and closed.
    fn serve<S>(&self, accept: impl Fn() -> io::Result<S>) -> io::Result<()>
    where
        S: io::Read + io::Write + Send + 'static,
    {
        while !self.shutdown.load(Ordering::SeqCst) {
            match accept() {
                Ok(stream) => {
                    let mut handlers = self.handlers.lock().expect("handler registry poisoned");
                    // Finished handlers no longer count and need no join.
                    handlers.retain(|h| !h.is_finished());
                    if handlers.len() < MAX_CONNECTIONS {
                        let server = self.clone();
                        handlers.push(std::thread::spawn(move || server.handle_connection(stream)));
                    } else {
                        drop(handlers);
                        // The refused client's I/O errors are its own.
                        let _ = refuse(stream);
                    }
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(error) => return Err(error),
            }
        }
        self.join_handlers();
        self.cache.flush()
    }

    /// Joins every tracked connection handler.  Called after the accept
    /// loop exits and before the store flush: an in-flight miss run gets to
    /// persist its result and deliver its reply before the server exits.
    fn join_handlers(&self) {
        let handlers =
            std::mem::take(&mut *self.handlers.lock().expect("handler registry poisoned"));
        for handle in handlers {
            // A failed or panicked handler must not abort the final flush.
            let _ = handle.join();
        }
    }

    fn handle_connection<S: io::Read + io::Write>(&self, stream: S) -> io::Result<()> {
        self.handle_connection_within(stream, IDLE_TIMEOUT)
    }

    /// [`Server::handle_connection`] with the idle deadline as a parameter,
    /// so tests need not wait out [`IDLE_TIMEOUT`].
    fn handle_connection_within<S: io::Read + io::Write>(
        &self,
        stream: S,
        idle: Duration,
    ) -> io::Result<()> {
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let mut last_heard = Instant::now();
        loop {
            // At most one byte past the limit is ever buffered: enough to
            // tell an over-limit line from one that fits.
            let budget = (MAX_REQUEST_BYTES + 1 - line.len()) as u64;
            let received = line.len();
            match reader.by_ref().take(budget).read_line(&mut line) {
                Ok(0) => return Ok(()), // client hung up
                Ok(_) => {}
                Err(error) if is_timeout(&error) => {
                    // Read timed out.  Any bytes already received stay
                    // appended to `line` and the next read continues the
                    // same request, so a slow writer is never corrupted —
                    // but once shutdown begins an idle connection must
                    // return promptly so the serve loop can join us, and
                    // a silent one closes once the idle deadline passes.
                    if line.len() > received {
                        last_heard = Instant::now();
                    }
                    if self.shutdown.load(Ordering::SeqCst) || last_heard.elapsed() >= idle {
                        return Ok(());
                    }
                    continue;
                }
                Err(error) => return Err(error),
            }
            if line.len() > MAX_REQUEST_BYTES {
                let error = format!("request exceeds {MAX_REQUEST_BYTES} bytes");
                write_reply(reader.get_mut(), &error_reply(&error))?;
                if line.ends_with('\n') {
                    return Ok(());
                }
                // Drop the rest of the line before closing: closing over
                // unread input resets the connection, which can discard
                // the reply before the client reads it.
                return self.skip_line(&mut reader, idle);
            }
            if line.trim().is_empty() {
                line.clear();
                continue;
            }
            let (response, stop) = self.respond(line.trim());
            line.clear();
            write_reply(reader.get_mut(), &response)?;
            last_heard = Instant::now();
            if stop {
                self.shutdown.store(true, Ordering::SeqCst);
                return Ok(());
            }
        }
    }

    /// Reads and drops input up to the next newline or end of stream,
    /// without buffering it; gives up at shutdown or once the client has
    /// been silent for `idle`.
    fn skip_line(&self, reader: &mut impl BufRead, idle: Duration) -> io::Result<()> {
        let mut last_heard = Instant::now();
        loop {
            let (used, done) = match reader.fill_buf() {
                Ok([]) => return Ok(()),
                Ok(buffer) => match buffer.iter().position(|&byte| byte == b'\n') {
                    Some(newline) => (newline + 1, true),
                    None => (buffer.len(), false),
                },
                Err(error) if is_timeout(&error) => {
                    if self.shutdown.load(Ordering::SeqCst) || last_heard.elapsed() >= idle {
                        return Ok(());
                    }
                    continue;
                }
                Err(error) => return Err(error),
            };
            reader.consume(used);
            if done {
                return Ok(());
            }
            last_heard = Instant::now();
        }
    }

    /// Answers one protocol line.  Returns the response and whether this op
    /// requested shutdown.
    #[must_use]
    pub fn respond(&self, line: &str) -> (Value, bool) {
        let request = match serde_json::from_str(line) {
            Ok(request) => request,
            Err(error) => return (error_reply(&format!("bad request JSON: {error}")), false),
        };
        match request.get("op").and_then(Value::as_str) {
            Some("ping") => {
                let mut reply = ok_reply();
                reply.insert("pong".into(), true.into());
                (Value::Object(reply), false)
            }
            Some("stats") => (self.stats_reply(), false),
            Some("get") => (self.get_reply(&request), false),
            Some("query") => (self.query_reply(&request), false),
            Some("shutdown") => {
                let mut reply = ok_reply();
                reply.insert("stopping".into(), true.into());
                (Value::Object(reply), true)
            }
            Some(other) => (error_reply(&format!("unknown op `{other}`")), false),
            None => (error_reply("request missing string `op`"), false),
        }
    }

    fn stats_reply(&self) -> Value {
        let stats = self.cache.store_handle().stats();
        let mut reply = ok_reply();
        reply.insert("live_records".into(), stats.live_records.into());
        reply.insert("total_records".into(), stats.total_records.into());
        reply.insert("superseded_records".into(), stats.superseded_records.into());
        reply.insert("corrupt_lines".into(), stats.corrupt_lines.into());
        reply.insert("segments".into(), stats.segments.into());
        reply.insert("bytes".into(), stats.bytes.into());
        reply.insert("dedup_ratio".into(), stats.dedup_ratio().into());
        Value::Object(reply)
    }

    fn get_reply(&self, request: &Value) -> Value {
        let Some(key) = request
            .get("key")
            .and_then(Value::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        else {
            return error_reply("`get` needs a 16-hex-digit `key`");
        };
        let mut reply = ok_reply();
        reply.insert("key".into(), format!("{key:016x}").into());
        match self.cache.store_handle().get(key) {
            Some(record) => {
                reply.insert("hit".into(), true.into());
                reply.insert("payload".into(), record.payload);
            }
            None => {
                reply.insert("hit".into(), false.into());
            }
        }
        Value::Object(reply)
    }

    /// The tentpole op: serve-from-store on hit, run-on-miss + persist.
    fn query_reply(&self, request: &Value) -> Value {
        let Some(spec_json) = request.get("spec") else {
            return error_reply("`query` needs a `spec` object");
        };
        let spec = match ScenarioSpec::from_json(spec_json) {
            Ok(spec) => spec,
            Err(error) => return error_reply(&format!("bad spec: {error}")),
        };
        let scenario = Scenario::new("serve", spec);
        let mut reply = ok_reply();
        reply.insert("key".into(), format!("{:016x}", scenario.key()).into());
        // Hit path: index probe + one segment read, no simulation.
        if let Some(cached) = self.cache.lookup(&scenario) {
            reply.insert("hit".into(), true.into());
            reply.insert("metrics".into(), Value::Object(cached.metrics));
            reply.insert("wall_ms".into(), cached.wall_ms.into());
            return Value::Object(reply);
        }
        // Miss path: run through the campaign exec path and persist, so the
        // next query (from anyone) hits.
        if let Some(delay) = self.miss_delay {
            std::thread::sleep(delay);
        }
        let started = Instant::now();
        let metrics = execute_with(&scenario.spec, self.engine);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let result = CachedResult {
            metrics: metrics.clone(),
            wall_ms,
        };
        if let Err(error) = self.cache.store(&scenario, &result) {
            return error_reply(&format!("executed but failed to persist: {error}"));
        }
        reply.insert("hit".into(), false.into());
        reply.insert("metrics".into(), Value::Object(metrics));
        reply.insert("wall_ms".into(), wall_ms.into());
        Value::Object(reply)
    }
}

/// Whether a read failed only because the stream's read timeout elapsed.
fn is_timeout(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Answers a connection over [`MAX_CONNECTIONS`] with an `ok:false` reply
/// and closes it.  Before closing, one read drops what the client has sent
/// so far (closing over unread input resets the connection, which can
/// discard the reply); it waits at most one [`READ_POLL`], so a refused
/// client holds up the accept loop no longer than that.
fn refuse(mut stream: impl io::Read + io::Write) -> io::Result<()> {
    let error = format!("server busy: {MAX_CONNECTIONS} connections open");
    write_reply(&mut stream, &error_reply(&error))?;
    let _dropped = stream.read(&mut [0; 4096])?;
    Ok(())
}

/// Writes one reply line and flushes it.
fn write_reply(stream: &mut impl io::Write, reply: &Value) -> io::Result<()> {
    let mut text = reply.to_string();
    text.push('\n');
    stream.write_all(text.as_bytes())?;
    stream.flush()
}

fn ok_reply() -> Map {
    let mut map = Map::new();
    map.insert("ok".into(), true.into());
    map
}

fn error_reply(message: &str) -> Value {
    let mut map = Map::new();
    map.insert("ok".into(), false.into());
    map.insert("error".into(), message.into());
    Value::Object(map)
}

/// Client-side helpers for the serve protocol (used by `prac-bench query`
/// and tests).
pub mod client {
    use super::*;

    /// Sends one request line over TCP and returns the parsed response.
    ///
    /// # Errors
    ///
    /// Propagates connect/write/read errors; a non-JSON response becomes
    /// `InvalidData`.
    pub fn request_tcp(addr: impl ToSocketAddrs, request: &Value) -> io::Result<Value> {
        let stream = TcpStream::connect(addr)?;
        roundtrip(stream, request)
    }

    /// Sends one request line over a Unix domain socket and returns the
    /// parsed response.
    ///
    /// # Errors
    ///
    /// Propagates connect/write/read errors; a non-JSON response becomes
    /// `InvalidData`.
    #[cfg(unix)]
    pub fn request_unix(path: &std::path::Path, request: &Value) -> io::Result<Value> {
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        roundtrip(stream, request)
    }

    fn roundtrip<S: io::Read + io::Write>(mut stream: S, request: &Value) -> io::Result<Value> {
        let mut line = request.to_string();
        line.push('\n');
        stream.write_all(line.as_bytes())?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply)?;
        serde_json::from_str(reply.trim())
            .map_err(|error| io::Error::new(io::ErrorKind::InvalidData, error.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("prac-serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn server(tag: &str) -> Server {
        Server::new(
            ResultCache::open(temp_root(tag)).unwrap(),
            EngineKind::default(),
        )
    }

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    #[test]
    fn ping_stats_and_errors_answer_inline() {
        let server = server("inline");
        let (reply, stop) = server.respond(r#"{"op":"ping"}"#);
        assert_eq!(reply.get("pong"), Some(&Value::Bool(true)));
        assert!(!stop);
        let (reply, _) = server.respond(r#"{"op":"stats"}"#);
        assert_eq!(reply.get("live_records").and_then(Value::as_u64), Some(0));
        let (reply, _) = server.respond("not json");
        assert_eq!(reply.get("ok"), Some(&Value::Bool(false)));
        let (reply, _) = server.respond(r#"{"op":"warp"}"#);
        assert!(reply
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("warp"));
        let (_, stop) = server.respond(r#"{"op":"shutdown"}"#);
        assert!(stop);
    }

    #[test]
    fn query_misses_then_hits_with_identical_metrics() {
        let server = server("query");
        let request = parse(
            r#"{"op":"query","spec":{"kind":"solve_window","counter_reset":true,"nrh":4096}}"#,
        );
        let line = request.to_string();
        let (first, _) = server.respond(&line);
        assert_eq!(first.get("hit"), Some(&Value::Bool(false)), "{first}");
        let (second, _) = server.respond(&line);
        assert_eq!(second.get("hit"), Some(&Value::Bool(true)), "{second}");
        assert_eq!(first.get("key"), second.get("key"));
        assert_eq!(first.get("metrics"), second.get("metrics"));
        // And `get` by the returned key finds the persisted record.
        let key = first.get("key").and_then(Value::as_str).unwrap();
        let (got, _) = server.respond(&format!(r#"{{"op":"get","key":"{key}"}}"#));
        assert_eq!(got.get("hit"), Some(&Value::Bool(true)));
    }

    #[test]
    fn tcp_roundtrip_and_clean_shutdown() {
        let server = server("tcp");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serving = {
            let server = server.clone();
            std::thread::spawn(move || server.serve_tcp(&listener))
        };
        let reply = client::request_tcp(addr, &parse(r#"{"op":"ping"}"#)).unwrap();
        assert_eq!(reply.get("pong"), Some(&Value::Bool(true)));
        let reply = client::request_tcp(addr, &parse(r#"{"op":"shutdown"}"#)).unwrap();
        assert_eq!(reply.get("stopping"), Some(&Value::Bool(true)));
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_waits_for_inflight_miss_and_persists_it() {
        // Regression: handlers used to be detached, so a protocol shutdown
        // could flush the store and exit while a miss run was still
        // executing — losing the computed result and the client's reply.
        let root = temp_root("race");
        let server = Server::new(
            ResultCache::open(root.clone()).unwrap(),
            EngineKind::default(),
        )
        .with_miss_delay(Duration::from_millis(300));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serving = {
            let server = server.clone();
            std::thread::spawn(move || server.serve_tcp(&listener))
        };
        let spec_json = r#"{"kind":"solve_window","counter_reset":true,"nrh":4096}"#;
        let query = {
            let request = parse(&format!(r#"{{"op":"query","spec":{spec_json}}}"#));
            std::thread::spawn(move || client::request_tcp(addr, &request))
        };
        // Let the miss start (the handler sleeps 300 ms before executing),
        // then race a shutdown against it.
        std::thread::sleep(Duration::from_millis(100));
        let reply = client::request_tcp(addr, &parse(r#"{"op":"shutdown"}"#)).unwrap();
        assert_eq!(reply.get("stopping"), Some(&Value::Bool(true)));
        serving.join().unwrap().unwrap();
        // The racing query still received a real reply...
        let reply = query.join().unwrap().unwrap();
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{reply}");
        assert_eq!(reply.get("hit"), Some(&Value::Bool(false)));
        assert!(reply.get("metrics").is_some());
        // ...and its result was persisted before the shutdown flush.
        let reopened = ResultCache::open(root).unwrap();
        let spec = ScenarioSpec::from_json(&parse(spec_json)).unwrap();
        let scenario = Scenario::new("serve", spec);
        assert!(
            reopened.lookup(&scenario).is_some(),
            "in-flight miss result must survive shutdown"
        );
    }

    /// A connected TCP pair: the client end, and the server end with the
    /// read timeout the accept loop sets.
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_read_timeout(Some(READ_POLL)).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        (client, served)
    }

    #[test]
    fn silent_connections_close_at_the_idle_deadline() {
        let server = server("idle");
        let idle = Duration::from_millis(300);
        let (mut client, served) = tcp_pair();
        let started = Instant::now();
        let handler = std::thread::spawn(move || server.handle_connection_within(served, idle));
        // The handler closes the connection: the client reads end of stream.
        assert_eq!(client.read(&mut [0; 64]).unwrap(), 0);
        assert!(
            started.elapsed() >= idle,
            "closed after {:?}",
            started.elapsed()
        );
        handler.join().unwrap().unwrap();
    }

    #[test]
    fn the_idle_deadline_restarts_at_every_byte_and_reply() {
        use std::io::Write;
        let server = server("slow");
        let idle = Duration::from_millis(400);
        let (mut client, served) = tcp_pair();
        let handler = std::thread::spawn(move || server.handle_connection_within(served, idle));
        // A request trickled in over more than the deadline, and a pause
        // shorter than it between two requests, are both answered.
        for _ in 0..2 {
            for part in [r#"{"op":"#, r#""ping"}"#, "\n"] {
                std::thread::sleep(idle / 4);
                client.write_all(part.as_bytes()).unwrap();
            }
        }
        let mut replies = BufReader::new(client);
        for _ in 0..2 {
            let mut line = String::new();
            replies.read_line(&mut line).unwrap();
            assert_eq!(parse(&line).get("pong"), Some(&Value::Bool(true)), "{line}");
        }
        // Then silence closes it.
        assert_eq!(replies.read_line(&mut String::new()).unwrap(), 0);
        handler.join().unwrap().unwrap();
    }

    #[test]
    fn an_over_limit_line_left_unfinished_closes_at_the_idle_deadline() {
        use std::io::Write;
        let server = server("unfinished");
        let idle = Duration::from_millis(300);
        let (mut client, served) = tcp_pair();
        let handler = std::thread::spawn(move || server.handle_connection_within(served, idle));
        client
            .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 10])
            .unwrap();
        let mut replies = BufReader::new(client);
        let mut line = String::new();
        replies.read_line(&mut line).unwrap();
        assert_eq!(parse(&line).get("ok"), Some(&Value::Bool(false)), "{line}");
        // The line never ends; the handler stops skipping it once the
        // client falls silent.
        assert_eq!(replies.read_line(&mut String::new()).unwrap(), 0);
        handler.join().unwrap().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_roundtrip() {
        let server = server("unix");
        let path = std::env::temp_dir().join(format!("prac-serve-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let serving = {
            let server = server.clone();
            std::thread::spawn(move || server.serve_unix(&listener))
        };
        let reply = client::request_unix(&path, &parse(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)));
        let reply = client::request_unix(&path, &parse(r#"{"op":"shutdown"}"#)).unwrap();
        assert_eq!(reply.get("stopping"), Some(&Value::Bool(true)));
        serving.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
