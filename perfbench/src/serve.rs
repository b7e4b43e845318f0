//! The `serve-mixed` workload: an in-process `Server` on a loopback TCP
//! listener and two closed-loop clients.
//!
//! Set-up fills a fresh store through `CampaignRunner` with the quick
//! `fig10`, `fig13`, `scaling`, `fig07` and `storage` cells, reopens it and
//! binds the listener.  Each client then sends a seeded mix: `query` hits on
//! the prefilled specs, `get`-by-key hits, and a small share of `query`
//! misses on `solve_window` thresholds the store lacks, so every miss runs
//! one cheap execution and appends one record.  Every hit reply must equal
//! the reply the prefilled record implies, byte for byte; every miss reply
//! must carry the metrics `execute` gives for its spec.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use campaign::exec::execute;
use campaign::{CampaignRunner, ResultCache, Scenario, ScenarioSpec, Server};
use serde_json::{Map, Value};
use system_sim::EngineKind;

use crate::campaigns::build_campaign;
use crate::stats::{digest, median, percentile, Rng};
use crate::trace::Tracer;
use crate::Layers;

const PREFILL: [&str; 5] = ["fig10", "fig13", "scaling", "fig07", "storage"];
const CLIENTS: usize = 2;
/// Requests per client in the traced run (once untraced, once traced).
const TRACE_REQUESTS: usize = 10_000;
/// Shares of the request mix, per mille.  Misses stay under 1%, so the
/// p99 round trip is a hit's, and the store grows by the same few thousand
/// records in every run.
const MISS_PER_MILLE: usize = 5;
const GET_PER_MILLE: usize = 95;
/// Length of the windows the untraced run's metrics are medians over.
const WINDOW_S: f64 = 1.0;
/// Thresholds the miss stream draws from, with counter reset on.  The
/// registry solves thresholds up to 4096 only, so none of these is
/// prefilled, and each solves in ~80 µs (below 8192, or without the reset,
/// a solve can take milliseconds), so a miss stays one cheap execution.
const MISS_NRH: std::ops::RangeInclusive<u32> = 8_192..=65_535;

/// One prefilled record, with the exact requests that reach it and the
/// exact replies the server owes.
#[derive(Debug)]
struct Hit {
    scenario: Scenario,
    query: String,
    query_reply: String,
    get: String,
    get_reply: String,
}

/// Everything the serve workload builds before its first request.
#[derive(Debug)]
pub struct Prepared {
    cache: ResultCache,
    server: Server,
    listener: TcpListener,
    hits: Vec<Hit>,
    misses: Vec<u32>,
    pub prefill: Vec<(String, Map)>,
    pub store_open_ms: f64,
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// Set-up: prefill, reopen, bind.  `dir` must not exist yet.
pub fn prepare(mix: u64, seed: u64, dir: &Path) -> io::Result<Prepared> {
    let cache = ResultCache::open(dir)?;
    let runner = CampaignRunner::new()
        .with_workers(1)
        .with_cache(cache.clone());
    let mut prefill = Vec::new();
    let mut hits = Vec::new();
    let mut seen = HashSet::new();
    for name in PREFILL {
        let campaign = build_campaign(name, false, mix);
        let summary = runner.run(&campaign)?;
        for record in summary.records {
            prefill.push((
                format!("{name}/{}", record.scenario.name),
                record.metrics.clone(),
            ));
            let key = record.scenario.key();
            if !seen.insert(key) {
                continue;
            }
            let key = format!("{key:016x}");
            let spec = record.scenario.spec.to_json();
            let metrics = Value::Object(record.metrics.clone());
            let wall_ms = Value::from(record.wall_ms);
            let hit = |field: &str, value: Value| {
                object(vec![
                    ("ok", true.into()),
                    ("key", key.clone().into()),
                    ("hit", true.into()),
                    (field, value),
                ])
            };
            let mut query_reply = hit("metrics", metrics.clone());
            if let Value::Object(map) = &mut query_reply {
                map.insert("wall_ms".into(), wall_ms.clone());
            }
            let payload = object(vec![
                ("spec", spec.clone()),
                ("metrics", metrics),
                ("wall_ms", wall_ms),
            ]);
            hits.push(Hit {
                scenario: record.scenario.clone(),
                query: object(vec![("op", "query".into()), ("spec", spec)]).to_string(),
                query_reply: query_reply.to_string(),
                get: object(vec![("op", "get".into()), ("key", key.clone().into())]).to_string(),
                get_reply: hit("payload", payload).to_string(),
            });
        }
    }
    cache.flush()?;
    drop(runner);
    drop(cache);

    let started = Instant::now();
    let cache = ResultCache::open(dir)?;
    let store_open_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut misses: Vec<u32> = MISS_NRH.collect();
    let mut rng = Rng::new(seed ^ 0x5E57_E000);
    for i in (1..misses.len()).rev() {
        misses.swap(i, rng.below(i + 1));
    }
    let server = Server::new(cache.clone(), EngineKind::default());
    let listener = TcpListener::bind("127.0.0.1:0")?;
    Ok(Prepared {
        cache,
        server,
        listener,
        hits,
        misses,
        prefill,
        store_open_ms,
    })
}

fn miss_spec(nrh: u32) -> ScenarioSpec {
    ScenarioSpec::SolveWindow {
        nrh,
        counter_reset: true,
    }
}

/// What a request must be answered with.
enum Expect<'a> {
    Exact(&'a str),
    Miss(ScenarioSpec),
}

/// One client's seeded request stream.
struct Stream<'a> {
    rng: Rng,
    hits: &'a [Hit],
    misses: std::iter::StepBy<std::slice::Iter<'a, u32>>,
}

impl<'a> Stream<'a> {
    /// Stream `lane` of `lanes`: lanes draw disjoint miss thresholds.
    fn new(prep: &'a Prepared, seed: u64, lane: usize, lanes: usize) -> Self {
        Self {
            rng: Rng::new(seed ^ (0xC11E_0000 + lane as u64)),
            hits: &prep.hits,
            misses: prep.misses[lane..].iter().step_by(lanes),
        }
    }

    fn next(&mut self) -> (String, Expect<'a>) {
        let draw = self.rng.below(1000);
        if draw < MISS_PER_MILLE {
            if let Some(&nrh) = self.misses.next() {
                let spec = miss_spec(nrh);
                let line = object(vec![("op", "query".into()), ("spec", spec.to_json())]);
                return (line.to_string(), Expect::Miss(spec));
            }
        }
        let hit = &self.hits[self.rng.below(self.hits.len())];
        if draw < MISS_PER_MILLE + GET_PER_MILLE {
            (hit.get.clone(), Expect::Exact(&hit.get_reply))
        } else {
            (hit.query.clone(), Expect::Exact(&hit.query_reply))
        }
    }
}

/// One client's record of a closed loop.
#[derive(Debug, Default)]
struct ClientLog {
    /// Completion time of each request, in seconds since the drive began.
    done_s: Vec<f64>,
    rt_us: Vec<f64>,
    miss_rt_us: Vec<f64>,
    problems: Vec<String>,
    misses: Vec<(ScenarioSpec, String)>,
}

/// Sends requests back to back until `stop` says so.
fn client(
    addr: SocketAddr,
    mut stream: Stream<'_>,
    origin: Instant,
    stop: &dyn Fn(usize) -> bool,
) -> io::Result<ClientLog> {
    let connection = TcpStream::connect(addr)?;
    connection.set_nodelay(true)?;
    let mut writer = connection.try_clone()?;
    let mut reader = BufReader::new(connection);
    let mut log = ClientLog::default();
    let mut reply = String::new();
    while !stop(log.rt_us.len()) {
        let (mut line, expect) = stream.next();
        line.push('\n');
        reply.clear();
        let started = Instant::now();
        writer.write_all(line.as_bytes())?;
        if reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server hung up",
            ));
        }
        let rt_us = started.elapsed().as_secs_f64() * 1e6;
        log.done_s.push(origin.elapsed().as_secs_f64());
        log.rt_us.push(rt_us);
        match expect {
            Expect::Exact(expected) if reply.trim_end() == expected => {}
            Expect::Exact(_) => log
                .problems
                .push(format!("hit reply differs: {}", reply.trim_end())),
            Expect::Miss(spec) => {
                log.miss_rt_us.push(rt_us);
                log.misses.push((spec, reply.trim_end().to_string()));
            }
        }
    }
    Ok(log)
}

/// Runs both clients against `addr` and returns their logs and the wall
/// time until both finished.
fn drive(
    addr: SocketAddr,
    streams: Vec<Stream<'_>>,
    stop: &(dyn Fn(usize) -> bool + Sync),
) -> io::Result<(Vec<ClientLog>, f64)> {
    let started = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| scope.spawn(move || client(addr, stream, started, stop)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    Ok((logs, started.elapsed().as_secs_f64()))
}

/// Serves through `Server::serve_tcp` while `body` runs, then stops it.
fn with_server<T>(prep: &Prepared, body: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| prep.server.serve_tcp(&prep.listener));
        let outcome = body();
        prep.server.shutdown_flag().store(true, Ordering::SeqCst);
        let served = serving.join().expect("serve thread panicked");
        let value = outcome?;
        served.map(|()| value)
    })
}

/// What a closed loop measured.  `windows` holds, per whole window of
/// `WINDOW_S`, the requests completed in it and their p50 and p99 round
/// trips.
pub struct LoopOutcome {
    pub requests: usize,
    pub wall_s: f64,
    pub rt_us: Vec<f64>,
    pub miss_rt_us: Vec<f64>,
    pub windows: Vec<(f64, f64, f64)>,
    pub problems: Vec<String>,
}

pub fn run_untraced(prep: &Prepared, seed: u64, seconds: f64) -> io::Result<LoopOutcome> {
    let addr = prep.listener.local_addr()?;
    let streams = (0..CLIENTS)
        .map(|lane| Stream::new(prep, seed, lane, CLIENTS))
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let stop = move |_sent: usize| Instant::now() >= deadline;
    let (logs, wall_s) = with_server(prep, || drive(addr, streams, &stop))?;
    Ok(summarize(logs, wall_s))
}

fn summarize(logs: Vec<ClientLog>, wall_s: f64) -> LoopOutcome {
    let whole = ((wall_s / WINDOW_S) as usize).max(1);
    let mut by_window: Vec<Vec<f64>> = vec![Vec::new(); whole];
    for log in &logs {
        for (&done_s, &rt_us) in log.done_s.iter().zip(&log.rt_us) {
            let window = ((done_s / WINDOW_S) as usize).min(whole);
            if let Some(window) = by_window.get_mut(window) {
                window.push(rt_us);
            }
        }
    }
    let span = WINDOW_S.min(wall_s);
    let mut out = LoopOutcome {
        requests: 0,
        wall_s,
        rt_us: Vec::new(),
        miss_rt_us: Vec::new(),
        windows: by_window
            .iter()
            .map(|rts| (rts.len() as f64 / span, median(rts), percentile(rts, 99.0)))
            .collect(),
        problems: Vec::new(),
    };
    for log in logs {
        out.requests += log.rt_us.len();
        out.rt_us.extend(log.rt_us);
        out.miss_rt_us.extend(log.miss_rt_us);
        out.problems.extend(log.problems);
        for (spec, reply) in log.misses {
            if let Some(problem) = miss_problem(&spec, &reply) {
                out.problems.push(problem);
            }
        }
    }
    out
}

/// A miss reply must be a fresh execution whose metrics equal `execute`.
fn miss_problem(spec: &ScenarioSpec, reply: &str) -> Option<String> {
    let parsed: Value = match serde_json::from_str(reply) {
        Ok(value) => value,
        Err(error) => return Some(format!("miss reply is not JSON: {error}")),
    };
    let fresh = parsed.get("ok") == Some(&Value::Bool(true))
        && parsed.get("hit") == Some(&Value::Bool(false));
    let expected = Value::Object(execute(spec));
    (!fresh || parsed.get("metrics") != Some(&expected))
        .then(|| format!("miss reply differs from execute: {reply}"))
}

/// The traced run: a fixed number of requests per client, first through
/// `serve_tcp` (untraced), then through a loop that answers each line with
/// `Server::respond` inside a span.
pub fn run_traced(
    prep: &Prepared,
    seed: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> io::Result<LoopOutcome> {
    let addr = prep.listener.local_addr()?;
    let mut streams: Vec<Stream<'_>> = (0..2 * CLIENTS)
        .map(|lane| Stream::new(prep, seed, lane, 2 * CLIENTS))
        .collect();
    let traced_streams = streams.split_off(CLIENTS);
    let stop = |sent: usize| sent >= TRACE_REQUESTS;
    let (untraced, untraced_s) = with_server(prep, || drive(addr, streams, &stop))?;

    let origin = Instant::now();
    let (traced, traced_s, handlers) = std::thread::scope(|scope| {
        let handlers = scope.spawn(|| -> io::Result<Vec<Handler>> {
            let listener = &prep.listener;
            listener.set_nonblocking(false)?;
            let mut connections = Vec::new();
            for _ in 0..CLIENTS {
                connections.push(listener.accept()?.0);
            }
            std::thread::scope(|inner| {
                let handles: Vec<_> = connections
                    .into_iter()
                    .enumerate()
                    .map(|(id, connection)| {
                        inner.spawn(move || respond_loop(&prep.server, connection, id, origin))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("handler thread panicked"))
                    .collect()
            })
        });
        let driven = drive(addr, traced_streams, &stop);
        let handlers = handlers.join().expect("accept thread panicked");
        driven.map(|(logs, wall)| (logs, wall, handlers))
    })?;
    let handlers = handlers?;

    let mut hit_us = Vec::new();
    let mut miss_us = Vec::new();
    let mut errors = 0.0;
    for handler in handlers {
        hit_us.extend(handler.hit_us.iter());
        miss_us.extend(handler.miss_us.iter());
        errors += handler.errors as f64;
        tracer.absorb(handler.tracer);
    }
    let traced = summarize(traced, traced_s);
    let untraced = summarize(untraced, untraced_s);
    let respond_all: Vec<f64> = hit_us.iter().chain(&miss_us).copied().collect();
    // Share of each connection's traced wall spent inside `respond`.
    layers.insert(
        "trace.coverage",
        respond_all.iter().sum::<f64>() / (CLIENTS as f64 * traced_s * 1e6),
    );
    layers.insert("serve.respond_hit_us_p50", median(&hit_us));
    layers.insert("serve.respond_miss_us_p50", median(&miss_us));
    layers.insert(
        "serve.transport_us_p50",
        median(&traced.rt_us) - median(&respond_all),
    );
    layers.insert(
        "serve.hit_ratio",
        hit_us.len() as f64 / respond_all.len().max(1) as f64,
    );
    layers.insert("serve.error_replies", errors);
    layers.insert("serve.miss_p99_us", percentile(&traced.miss_rt_us, 99.0));
    layers.insert("trace.untraced_ms", untraced_s * 1e3);
    layers.insert("trace.traced_ms", traced_s * 1e3);

    // Store layer: probe every prefilled record, then append each to a
    // scratch store, every call inside a span.
    let mut out = untraced;
    out.requests += traced.requests;
    out.problems.extend(traced.problems);
    let mut found = Vec::new();
    for hit in &prep.hits {
        match tracer.span("store.lookup", |_| prep.cache.lookup(&hit.scenario)) {
            Some(result) => found.push((&hit.scenario, result)),
            None => out.problems.push(format!(
                "prefilled {} missing from the store",
                hit.scenario.name
            )),
        }
    }
    let scratch = ResultCache::open(prep.cache.store_handle().root().with_extension("scratch"))?;
    for (scenario, result) in found {
        tracer.span("store.insert", |_| scratch.store(scenario, &result))?;
    }
    let stats = prep.cache.store_handle().stats();
    layers.insert("store.records", stats.live_records as f64);
    layers.insert("store.bytes", stats.bytes as f64);
    layers.insert("store.open_ms", prep.store_open_ms);
    Ok(out)
}

/// What one traced connection handler saw.
struct Handler {
    tracer: Tracer,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    errors: u64,
}

fn respond_loop(
    server: &Server,
    connection: TcpStream,
    id: usize,
    origin: Instant,
) -> io::Result<Handler> {
    connection.set_nodelay(true)?;
    let mut writer = connection.try_clone()?;
    let mut reader = BufReader::new(connection);
    let mut handler = Handler {
        tracer: Tracer::new(origin),
        hit_us: Vec::new(),
        miss_us: Vec::new(),
        errors: 0,
    };
    let mut line = String::new();
    let mut op = (id as u64) << 32;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(handler);
        }
        handler.tracer.set_op(op);
        op += 1;
        let (reply, _stop) = handler
            .tracer
            .span("serve.respond", |_| server.respond(line.trim()));
        let us = handler.tracer.last_span_us();
        match reply.get("hit") {
            Some(Value::Bool(true)) => handler.hit_us.push(us),
            Some(Value::Bool(false)) => handler.miss_us.push(us),
            _ => handler.errors += 1,
        }
        let mut text = reply.to_string();
        text.push('\n');
        writer.write_all(text.as_bytes())?;
    }
}

/// Seed-0 digests of the prefilled records, keyed `campaign/cell`.
pub fn prefill_digests(prep: &Prepared) -> HashMap<String, u64> {
    prep.prefill
        .iter()
        .map(|(name, metrics)| (name.clone(), digest(metrics)))
        .collect()
}
