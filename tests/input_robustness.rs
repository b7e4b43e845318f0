//! Robustness of the two parsers that face untrusted input: the scenario
//! spec parser (`ScenarioSpec::from_json`) and the serve loop's line handler
//! (`Server::respond`).
//!
//! Each property decodes proptest bytes into inputs: wholly random JSON
//! values and request lines, and real specs and requests with a few random
//! edits, which reach the deep field checks a random value rarely gets
//! past.  Neither parser may panic.  Malformed input must be refused with
//! an error, and the same input must get the same error every time.
//!
//! A request that would run a simulation (a `query` whose spec parses) is
//! skipped: these properties cover refusal, not execution.

use prac_timing::campaign::registry::{all_campaigns, Profile};
use prac_timing::campaign::{ResultCache, ScenarioSpec, Server};
use prac_timing::system_sim::EngineKind;
use proptest::collection;
use proptest::prelude::*;
use serde_json::{Map, Value};

/// Fuzz bytes read as a stream of choices; an exhausted tape reads zeros.
struct Tape<'a>(&'a [u8]);

impl Tape<'_> {
    fn byte(&mut self) -> u8 {
        match self.0.split_first() {
            Some((&byte, rest)) => {
                self.0 = rest;
                byte
            }
            None => 0,
        }
    }

    fn below(&mut self, n: usize) -> usize {
        ((usize::from(self.byte()) << 8) | usize::from(self.byte())) % n
    }

    fn pick<'s, T>(&mut self, items: &'s [T]) -> &'s T {
        &items[self.below(items.len())]
    }
}

/// Small numbers, some of them valid field values.
const NUMBERS: &[u64] = &[0, 1, 2, 3, 4, 8, 64, 1024, 4096];

/// Input sources: the canonical JSON of every registered quick-profile
/// scenario, and every key and string in it (the words the parsers look
/// for) plus a few words they do not know.
struct Fuzz {
    registered: Vec<Value>,
    words: Vec<String>,
}

impl Fuzz {
    fn new() -> Self {
        let registered: Vec<Value> = all_campaigns(&Profile::quick())
            .iter()
            .flat_map(|campaign| campaign.scenarios.iter().map(|s| s.spec.to_json()))
            .collect();
        let mut words: Vec<String> = ["", "x", "\u{fffd}", "op", "spec", "key"]
            .map(String::from)
            .to_vec();
        let mut stack: Vec<&Value> = registered.iter().collect();
        while let Some(value) = stack.pop() {
            match value {
                Value::String(word) => words.push(word.clone()),
                Value::Array(items) => stack.extend(items),
                Value::Object(map) => {
                    words.extend(map.keys().cloned());
                    stack.extend(map.values());
                }
                _ => {}
            }
        }
        words.sort();
        words.dedup();
        Self { registered, words }
    }

    fn value(&self, tape: &mut Tape, depth: u32) -> Value {
        // Arrays and objects only above the depth limit.
        match tape.below(if depth == 0 { 7 } else { 9 }) {
            0 => Value::Null,
            1 => Value::Bool(tape.byte() & 1 == 1),
            2 => Value::from(*tape.pick(NUMBERS)),
            // 2^k - 1: the limit of every integer width the parsers narrow to.
            3 => Value::from(u64::MAX >> (tape.byte() % 64)),
            4 => Value::from(-(i64::from(tape.byte()) + 1)),
            5 => Value::from(f64::from(tape.byte()) / 7.0 - 9.0),
            6 => Value::from(tape.pick(&self.words).as_str()),
            7 => Value::from(
                (0..tape.below(4))
                    .map(|_| self.value(tape, depth - 1))
                    .collect::<Vec<_>>(),
            ),
            _ => {
                let mut map = Map::new();
                for _ in 0..tape.below(5) {
                    let key = tape.pick(&self.words).clone();
                    map.insert(key, self.value(tape, depth - 1));
                }
                Value::Object(map)
            }
        }
    }

    /// Applies one random edit somewhere inside `value`: replace a member,
    /// drop it, or add one.
    fn mutate(&self, value: &mut Value, tape: &mut Tape) {
        match value {
            Value::Object(map) if !map.is_empty() => {
                let keys: Vec<String> = map.keys().cloned().collect();
                let key = tape.pick(&keys).clone();
                match tape.below(4) {
                    0 => *map.get_mut(&key).expect("key was listed") = self.value(tape, 2),
                    1 => {
                        map.remove(&key);
                    }
                    2 => {
                        map.insert(tape.pick(&self.words).clone(), self.value(tape, 2));
                    }
                    _ => self.mutate(map.get_mut(&key).expect("key was listed"), tape),
                }
            }
            Value::Array(items) if !items.is_empty() => {
                let index = tape.below(items.len());
                self.mutate(&mut items[index], tape);
            }
            other => *other = self.value(tape, 2),
        }
    }

    /// A spec to parse: random, or a registered one with up to three edits.
    fn spec(&self, tape: &mut Tape) -> Value {
        if tape.below(4) == 0 {
            return self.value(tape, 3);
        }
        let mut spec = tape.pick(&self.registered).clone();
        for _ in 0..=tape.below(3) {
            self.mutate(&mut spec, tape);
        }
        spec
    }

    /// A request line: a well-formed request of every op, then up to four
    /// random byte edits, read back as lossy UTF-8.
    fn request_line(&self, tape: &mut Tape) -> String {
        let mut request = Map::new();
        let op = *tape.pick(&["ping", "stats", "get", "query", "shutdown", "warp"]);
        request.insert("op".into(), op.into());
        match op {
            "get" => {
                let key = format!("{:016x}", tape.pick(NUMBERS));
                request.insert("key".into(), key.into());
            }
            "query" => {
                request.insert("spec".into(), self.spec(tape));
            }
            _ => {}
        }
        let mut bytes = Value::Object(request).to_string().into_bytes();
        for _ in 0..tape.below(5) {
            let at = tape.below(bytes.len() + 1);
            match tape.below(4) {
                0 => bytes.truncate(at),
                1 => bytes.insert(at, tape.byte()),
                2 if at < bytes.len() => bytes[at] = tape.byte(),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// Whether `line` is a query the server would answer by simulating.
fn runs_a_simulation(line: &str) -> bool {
    let Ok(request) = serde_json::from_str(line) else {
        return false;
    };
    request.get("op").and_then(Value::as_str) == Some("query")
        && request
            .get("spec")
            .is_some_and(|spec| ScenarioSpec::from_json(spec).is_ok())
}

/// A server over an empty store in a per-process, per-test directory.
fn server(tag: &str) -> Server {
    let root = std::env::temp_dir().join(format!("prac-robustness-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    Server::new(ResultCache::open(root).unwrap(), EngineKind::default())
}

/// Answers `line` twice and checks the reply is well formed and, when it is
/// a refusal, identical both times.
fn assert_deterministic_reply(server: &Server, line: &str) {
    let (reply, stop) = server.respond(line);
    let ok = reply.get("ok").and_then(Value::as_bool);
    assert!(
        ok.is_some(),
        "reply without boolean `ok` to {line:?}: {reply}"
    );
    if ok == Some(false) {
        assert!(!stop, "a refusal must not stop the server: {line:?}");
        assert!(
            reply.get("error").and_then(Value::as_str).is_some(),
            "refusal without an error message for {line:?}: {reply}"
        );
        assert_eq!(
            server.respond(line),
            (reply, stop),
            "the same malformed line got two different replies: {line:?}"
        );
    }
}

proptest! {
    #[test]
    fn spec_parser_refuses_malformed_json_deterministically(
        bytes in collection::vec(0u8.., 512..4096),
    ) {
        let fuzz = Fuzz::new();
        let mut tape = Tape(&bytes);
        for _ in 0..8 {
            let spec = fuzz.spec(&mut tape);
            if let Err(error) = ScenarioSpec::from_json(&spec) {
                prop_assert!(!error.is_empty(), "empty error for {spec}");
                prop_assert_eq!(
                    ScenarioSpec::from_json(&spec),
                    Err(error),
                    "the same spec got two different errors: {}",
                    spec
                );
            }
        }
    }

    #[test]
    fn respond_never_panics_on_arbitrary_bytes(
        bytes in collection::vec(0u8.., 0..512),
    ) {
        let line = String::from_utf8_lossy(&bytes);
        if !runs_a_simulation(&line) {
            assert_deterministic_reply(&server("bytes"), &line);
        }
    }

    #[test]
    fn respond_refuses_edited_requests_deterministically(
        bytes in collection::vec(0u8.., 512..4096),
    ) {
        let fuzz = Fuzz::new();
        let server = server("edits");
        let mut tape = Tape(&bytes);
        for _ in 0..8 {
            let line = fuzz.request_line(&mut tape);
            if !runs_a_simulation(&line) {
                assert_deterministic_reply(&server, &line);
            }
        }
    }
}
