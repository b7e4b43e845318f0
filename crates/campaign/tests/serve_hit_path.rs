//! The tentpole acceptance test: a repeated scenario query against the
//! serve loop is answered from the store with *zero* simulation work — the
//! hit path never constructs a `SystemSimulation`.
//!
//! The first test asserts on the process-wide simulation-construction
//! counter, so no other test in this file may build a simulation: a sibling
//! running full-system cells in parallel would make the exact-equality check
//! racy.  The oversized-request test below builds none.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use campaign::serve::{client, MAX_REQUEST_BYTES};
use campaign::{ResultCache, Scenario, ScenarioSpec, Server};
use serde_json::{Map, Value};
use system_sim::{simulations_built, EngineKind, MitigationSetup};

#[test]
fn serve_hit_path_never_constructs_a_simulation() {
    let root = std::env::temp_dir().join(format!("prac-serve-hit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = Server::new(ResultCache::open(&root).unwrap(), EngineKind::default());

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serving = {
        let server = server.clone();
        std::thread::spawn(move || server.serve_tcp(&listener))
    };

    // A real full-system performance cell: the miss path must simulate,
    // which is what gives the counter its baseline movement.
    let spec = ScenarioSpec::Perf(Box::new(campaign::PerfScenario {
        setup: MitigationSetup::AboOnly,
        rowhammer_threshold: 1024,
        prac_level: prac_core::config::PracLevel::One,
        workload: workloads::quick_suite().remove(0),
        instructions_per_core: 2_000,
        cores: 1,
        channels: 1,
        ranks: 0,
        profile: dram_sim::DeviceProfile::JedecBaseline,
        attack: None,
        seed: 99,
    }));
    let expected_key = format!("{:016x}", Scenario::new("probe", spec.clone()).key());
    let mut request = Map::new();
    request.insert("op".into(), "query".into());
    request.insert("spec".into(), spec.to_json());
    let request = Value::Object(request);

    let before_miss = simulations_built();
    let miss = client::request_tcp(addr, &request).unwrap();
    assert_eq!(miss.get("ok"), Some(&Value::Bool(true)), "{miss}");
    assert_eq!(miss.get("hit"), Some(&Value::Bool(false)), "{miss}");
    assert_eq!(
        miss.get("key").and_then(Value::as_str),
        Some(expected_key.as_str())
    );
    let after_miss = simulations_built();
    assert!(
        after_miss > before_miss,
        "the miss path must run the simulation (built {before_miss} -> {after_miss})"
    );

    // The tentpole assertion: the repeated query hits the store and the
    // construction counter does not move at all.
    let hit = client::request_tcp(addr, &request).unwrap();
    assert_eq!(hit.get("hit"), Some(&Value::Bool(true)), "{hit}");
    assert_eq!(
        simulations_built(),
        after_miss,
        "the hit path constructed a SystemSimulation"
    );
    assert_eq!(
        hit.get("metrics"),
        miss.get("metrics"),
        "served metrics must be byte-identical to the executed ones"
    );

    // Clean shutdown, and the persisted record survives a fresh open.
    let mut shutdown = Map::new();
    shutdown.insert("op".into(), "shutdown".into());
    client::request_tcp(addr, &Value::Object(shutdown)).unwrap();
    serving.join().unwrap().unwrap();
    let reopened = ResultCache::open(&root).unwrap();
    assert!(reopened.lookup(&Scenario::new("probe", spec)).is_some());
    let _ = std::fs::remove_dir_all(&root);
}

/// A request line at the limit is answered; a longer one gets an `ok:false`
/// error naming the limit and its connection closes; the server keeps
/// serving, so a fresh connection still answers `ping`.
#[test]
fn oversized_request_is_refused_and_the_server_keeps_serving() {
    let root = std::env::temp_dir().join(format!("prac-serve-oversize-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = Server::new(ResultCache::open(&root).unwrap(), EngineKind::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serving = {
        let server = server.clone();
        std::thread::spawn(move || server.serve_tcp(&listener))
    };

    // A ping padded to exactly `len` bytes, newline included.
    let padded_ping = |len: usize| {
        let frame = r#"{"op":"ping","pad":""}"#.len() + 1;
        format!(r#"{{"op":"ping","pad":"{}"}}"#, "x".repeat(len - frame)) + "\n"
    };
    let refusal = format!("request exceeds {MAX_REQUEST_BYTES} bytes");
    let mut connection = BufReader::new(TcpStream::connect(addr).unwrap());
    let at_limit = exchange(&mut connection, &padded_ping(MAX_REQUEST_BYTES));
    assert_eq!(at_limit.get("pong"), Some(&Value::Bool(true)), "{at_limit}");
    // One byte over (the line still ends in its newline), then far over
    // (the rest of the line is dropped unread): both refused, both closed.
    for (len, mut connection) in [
        (MAX_REQUEST_BYTES + 1, connection),
        (
            4 * MAX_REQUEST_BYTES,
            BufReader::new(TcpStream::connect(addr).unwrap()),
        ),
    ] {
        let reply = exchange(&mut connection, &padded_ping(len));
        assert_eq!(reply.get("ok"), Some(&Value::Bool(false)), "{reply}");
        assert_eq!(
            reply.get("error").and_then(Value::as_str),
            Some(refusal.as_str())
        );
        assert_eq!(
            connection.read_line(&mut String::new()).unwrap(),
            0,
            "the connection must close after the refusal"
        );
    }

    let mut ping = Map::new();
    ping.insert("op".into(), "ping".into());
    let pong = client::request_tcp(addr, &Value::Object(ping)).unwrap();
    assert_eq!(pong.get("pong"), Some(&Value::Bool(true)), "{pong}");

    server
        .shutdown_flag()
        .store(true, std::sync::atomic::Ordering::SeqCst);
    serving.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// Writes one request line and reads one reply line on an open connection.
fn exchange(connection: &mut BufReader<TcpStream>, line: &str) -> Value {
    connection.get_mut().write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    connection.read_line(&mut reply).unwrap();
    serde_json::from_str(reply.trim()).unwrap()
}
