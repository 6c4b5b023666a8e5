//! Protocol error corpus: one test per malformed-request class. Every
//! case asserts (a) a structured error reply with the right `kind`, and
//! (b) that the service keeps serving — the next well-formed request on
//! the same instance succeeds. A malformed line must never terminate the
//! daemon.

use ltf_baselines::full_solver;
use ltf_graph::generate::fig1_diamond;
use ltf_platform::Platform;
use ltf_serve::{Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Value};

fn service() -> Service {
    Service::new(ServiceConfig::default())
}

fn small_service(max_tasks: usize) -> Service {
    Service::new(ServiceConfig {
        max_tasks,
        ..ServiceConfig::default()
    })
}

const VALID: &str = r#"{"id":100,"heuristic":"rltf","graph":{"tasks":[{"name":"a","exec":2.0},{"name":"b","exec":3.0}],"edges":[{"src":0,"dst":1,"volume":1.0}]},"platform":{"speeds":[1.0,1.0],"delays":[0.0,0.5,0.5,0.0]},"config":{"epsilon":1,"period":30.0}}"#;

/// Decode a response line's envelope fields.
fn envelope(line: &str) -> (Option<u64>, String, Option<String>, String) {
    let v: Value = serde_json::from_str(line).expect("response is valid JSON");
    let Value::Map(entries) = &v else {
        panic!("response is not a map: {line}")
    };
    let field = |name: &str| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let id = field("id").and_then(|v| u64::from_value(v).ok());
    let status = String::from_value(field("status").expect("status field")).unwrap();
    let kind = field("kind").and_then(|v| String::from_value(v).ok());
    let message = field("message")
        .and_then(|v| String::from_value(v).ok())
        .unwrap_or_default();
    (id, status, kind, message)
}

/// Run one malformed line, assert its error class, then prove the service
/// still answers a valid request.
fn assert_error_then_recovery(service: &Service, line: &str, expect_kind: &str, needle: &str) {
    let before = service.stats_report().served;
    let resp = service.handle_line(line);
    let (_, status, kind, message) = envelope(&resp);
    assert_eq!(status, "error", "for {line}: {resp}");
    assert_eq!(kind.as_deref(), Some(expect_kind), "for {line}: {resp}");
    assert!(
        message.contains(needle),
        "message {message:?} misses {needle:?}"
    );
    // The daemon keeps serving: same service, next request succeeds.
    let (id, status, ..) = envelope(&service.handle_line(VALID));
    assert_eq!((id, status.as_str()), (Some(100), "ok"));
    assert_eq!(service.stats_report().served, before + 2);
}

#[test]
fn truncated_line() {
    let s = service();
    let truncated = &VALID[..VALID.len() / 2];
    assert_error_then_recovery(&s, truncated, "parse", "");
    assert_error_then_recovery(&s, r#"{"id":1,"heuristic":"ltf""#, "parse", "");
    assert_eq!(s.stats_report().errors_by_kind["parse"], 2);
}

#[test]
fn unknown_field() {
    let s = service();
    let line = VALID.replace(r#""id":100"#, r#""id":1,"priority":"high""#);
    assert_error_then_recovery(&s, &line, "bad-request", "unknown field `priority`");
    // Unknown fields nested in the config are caught by the same strict
    // decoding.
    let line = VALID.replace(r#""epsilon":1"#, r#""epsilon":1,"retries":3"#);
    assert_error_then_recovery(&s, &line, "bad-request", "unknown field `retries`");
}

#[test]
fn wrong_type() {
    let s = service();
    let line = VALID.replace(r#""epsilon":1"#, r#""epsilon":"one""#);
    assert_error_then_recovery(&s, &line, "bad-request", "epsilon");
    let line = VALID.replace(r#""speeds":[1.0,1.0]"#, r#""speeds":"fast""#);
    assert_error_then_recovery(&s, &line, "bad-request", "platform");
    let line = VALID.replace(r#""exec":2.0"#, r#""exec":true"#);
    assert_error_then_recovery(&s, &line, "bad-request", "exec");
}

#[test]
fn missing_field() {
    let s = service();
    let line = VALID.replace(r#""heuristic":"rltf","#, "");
    assert_error_then_recovery(&s, &line, "bad-request", "missing field `heuristic`");
}

#[test]
fn unknown_heuristic_name() {
    let s = service();
    let line = VALID.replace(r#""heuristic":"rltf""#, r#""heuristic":"magic""#);
    assert_error_then_recovery(&s, &line, "unknown-heuristic", "magic");
    // The reply echoes the offending name in the heuristic field.
    let resp = s.handle_line(&line);
    assert!(resp.contains(r#""heuristic":"magic""#), "{resp}");
}

/// Serve resolves names with the registry's own lookup: every canonical
/// name, every alias and an unknown name canonicalize exactly as a
/// `full_solver` session resolves them.
#[test]
fn canonicalize_agrees_with_the_solver_registry() {
    let s = service();
    let (g, p) = (fig1_diamond(), Platform::fig1_platform());
    let solver = full_solver(&g, &p);
    let names = s
        .heuristics()
        .iter()
        .flat_map(|h| std::iter::once(h.name.as_str()).chain(h.aliases.iter().map(String::as_str)));
    for name in names.chain(["zeus"]) {
        assert_eq!(
            s.canonicalize(name),
            solver.heuristic(name).map(|h| h.name()),
            "{name}"
        );
    }
}

#[test]
fn oversized_graph() {
    let s = small_service(4);
    // Five tasks against a four-task limit.
    let tasks: Vec<String> = (0..5)
        .map(|i| format!(r#"{{"name":"t{i}","exec":1.0}}"#))
        .collect();
    let line = format!(
        r#"{{"id":9,"heuristic":"ltf","graph":{{"tasks":[{}],"edges":[]}},"platform":{{"speeds":[1.0],"delays":[0.0]}},"config":{{"epsilon":0,"period":100.0}}}}"#,
        tasks.join(",")
    );
    let resp = s.handle_line(&line);
    let (id, status, kind, message) = envelope(&resp);
    assert_eq!(id, Some(9));
    assert_eq!(status, "error");
    assert_eq!(kind.as_deref(), Some("too-large"));
    assert!(message.contains("5 tasks"), "{message}");
    // A two-task request (under the limit) still succeeds.
    let (_, status, ..) = envelope(&s.handle_line(VALID));
    assert_eq!(status, "ok");
}

/// A platform above the engine's 128-processor ceiling is a typed
/// `too-large`, not an engine assert that takes the daemon down.
#[test]
fn oversized_platform() {
    let s = service();
    let m = 130;
    let speeds = vec!["1.0"; m].join(",");
    let delays: Vec<&str> = (0..m * m)
        .map(|i| if i / m == i % m { "0.0" } else { "0.5" })
        .collect();
    let line = VALID.replace(
        r#""speeds":[1.0,1.0],"delays":[0.0,0.5,0.5,0.0]"#,
        &format!(r#""speeds":[{speeds}],"delays":[{}]"#, delays.join(",")),
    );
    assert_error_then_recovery(&s, &line, "too-large", "130 processors");
}

#[test]
fn invalid_structures_and_values() {
    let s = service();
    // Structurally invalid graph (cycle) — rejected by construction.
    let line = VALID.replace(
        r#""edges":[{"src":0,"dst":1,"volume":1.0}]"#,
        r#""edges":[{"src":0,"dst":1,"volume":1.0},{"src":1,"dst":0,"volume":1.0}]"#,
    );
    assert_error_then_recovery(&s, &line, "bad-request", "cyclic");
    // Invalid platform (non-zero self-delay).
    let line = VALID.replace(
        r#""delays":[0.0,0.5,0.5,0.0]"#,
        r#""delays":[0.9,0.5,0.5,0.0]"#,
    );
    assert_error_then_recovery(&s, &line, "bad-request", "self-delay");
    // Non-positive period.
    let line = VALID.replace(r#""period":30.0"#, r#""period":-1.0"#);
    assert_error_then_recovery(&s, &line, "bad-request", "period");
    // JSON scalar instead of an object.
    assert_error_then_recovery(&s, "42", "bad-request", "");
    // Unknown control command.
    assert_error_then_recovery(&s, r#"{"cmd":"shutdown"}"#, "bad-request", "shutdown");
}

/// The topology platform form: every structural rejection class of the
/// `{"topology": {...}}` block surfaces as a typed `bad-request`, and a
/// well-formed routed request actually solves.
#[test]
fn topology_platform_rejections() {
    let s = service();
    let with_topology = |links: &str, model: &str| {
        VALID.replace(
            r#""delays":[0.0,0.5,0.5,0.0]"#,
            &format!(r#""topology":{{"links":{links}{model}}}"#),
        )
    };
    // Endpoint out of the speed vector's range.
    let line = with_topology("[[0,7,0.5]]", "");
    assert_error_then_recovery(&s, &line, "bad-request", "out of range");
    // Self-link.
    let line = with_topology("[[1,1,0.5]]", "");
    assert_error_then_recovery(&s, &line, "bad-request", "self-link");
    // Non-positive link delay.
    let line = with_topology("[[0,1,-0.5]]", "");
    assert_error_then_recovery(&s, &line, "bad-request", "delay is -0.5");
    // Disconnected topology (no links at all between the two processors).
    let line = with_topology("[]", "");
    assert_error_then_recovery(&s, &line, "bad-request", "disconnected");
    // Unknown communication model tag.
    let line = with_topology("[[0,1,0.5]]", r#","model":"Turbo""#);
    assert_error_then_recovery(&s, &line, "bad-request", "unknown variant");
    // Unknown field inside the topology block.
    let line = with_topology("[[0,1,0.5]]", r#","wires":3"#);
    assert_error_then_recovery(&s, &line, "bad-request", "wires");
    // Both forms at once.
    let line = VALID.replace(
        r#""delays":[0.0,0.5,0.5,0.0]"#,
        r#""delays":[0.0,0.5,0.5,0.0],"topology":{"links":[[0,1,0.5]]}"#,
    );
    assert_error_then_recovery(&s, &line, "bad-request", "not both");
    // And the well-formed routed request solves (both modes).
    for model in ["", r#","model":"Contended""#, r#","model":"Uniform""#] {
        let line = with_topology("[[0,1,0.5]]", model).replace(r#""id":100"#, r#""id":101"#);
        let (id, status, ..) = envelope(&s.handle_line(&line));
        assert_eq!((id, status.as_str()), (Some(101), "ok"), "model {model:?}");
    }
}

/// A failed verdict is answered from the verdict cache: ten repeats of
/// the golden fixture's infeasible request get ten identical replies,
/// while the solution cache counts every one of them as a miss.
#[test]
fn repeated_infeasible_request() {
    let golden = |file: &str| {
        let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(path)
            .expect("golden fixture")
            .lines()
            .find(|l| l.starts_with(r#"{"id":7,"#))
            .expect("the fixture's infeasible line")
            .to_string()
    };
    let (request, response) = (golden("requests.jsonl"), golden("responses.jsonl"));
    let s = service();
    for _ in 0..10 {
        assert_eq!(s.handle_line(&request), response);
    }
    let report = s.stats_report();
    assert_eq!((report.cache_hits, report.cache_misses), (0, 10));
    assert_eq!(report.verdict_hits, 9);
    assert_eq!(report.errors_by_kind["infeasible"], 10);
    let (id, status, ..) = envelope(&s.handle_line(VALID));
    assert_eq!((id, status.as_str()), (Some(100), "ok"));
}

/// An instance whose busy time overflows `f64` is a `bad-request`. Golden
/// request 1 with two `1e308` unit delays makes a volume-2 message take
/// `+∞`; the makespan heuristics used to look for a port-timeline gap
/// that fits it forever. Each solve runs on a helper thread, so a hang
/// fails the test instead of stalling it (the hung thread is not joined).
#[test]
fn overflowing_instance_is_rejected_not_hung() {
    let golden = format!("{}/tests/golden/requests.jsonl", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(golden).expect("golden fixture");
    let request = golden.lines().next().expect("golden request 1");
    let repro = request
        .replace(
            r#""delays":[0.0,1.0,1.0,1.0,1.0,0.0,"#,
            r#""delays":[0.0,1e308,1.0,1.0,1e308,0.0,"#,
        )
        .replace(r#""epsilon":1"#, r#""epsilon":0"#);
    assert_ne!(repro, request, "the fixture changed shape");
    for h in ["heft", "etf", "task-parallel", "throughput-first"] {
        let line = repro.replace(r#""heuristic":"rltf""#, &format!(r#""heuristic":"{h}""#));
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let s = service();
            let _ = tx.send((s.handle_line(&line), s.handle_line(VALID)));
        });
        let (resp, next) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("{h}: no reply within 10 s ({e})"));
        worker.join().expect("the solving thread finished cleanly");
        let (id, status, kind, message) = envelope(&resp);
        assert_eq!((id, status.as_str()), (Some(1), "error"), "{h}: {resp}");
        assert_eq!(kind.as_deref(), Some("bad-request"), "{h}: {resp}");
        assert!(message.contains("overflows"), "{h}: {message}");
        let (id, status, ..) = envelope(&next);
        assert_eq!((id, status.as_str()), (Some(100), "ok"), "{h}: {next}");
    }
}

/// Shard requests whose specs would expand past the campaign limits used
/// to abort the daemon on a failed allocation (or draw the OOM killer).
/// Both are `shard-failed` replies now, and the next line is answered.
#[test]
fn oversized_shard_specs_are_rejected_not_allocated() {
    let s = service();
    let pareto = r#"{"cmd":"shard","id":0,"spec":{"name":"big","graphs":["workload"],"heuristics":["rltf"],"instances":100000000000},"shard":"0/1000000000"}"#;
    let slo = r#"{"cmd":"shard","id":1,"spec":{"name":"long","graphs":["fig1"],"heuristics":["rltf"],"epsilons":[{"max":1}],"failure":{"rate":0.01,"period":30.0,"items":10000000000}},"shard":"0/1"}"#;
    for (line, field) in [(pareto, "\"instances\""), (slo, "\"failure.items\"")] {
        let v: Value = serde_json::from_str(&s.handle_line(line)).expect("JSON reply");
        let Value::Map(entries) = &v else {
            panic!("reply is not a map: {v:?}")
        };
        let field_of = |name: &str| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        assert_eq!(field_of("ok"), Some(&Value::Bool(false)), "{v:?}");
        assert_eq!(
            field_of("error"),
            Some(&Value::Str("shard-failed".to_string())),
            "{v:?}"
        );
        let message = String::from_value(field_of("message").expect("message")).unwrap();
        assert!(message.contains(field), "{message}");
        let (_, status, ..) = envelope(&s.handle_line(r#"{"cmd":"heuristics"}"#));
        assert_eq!(status, "ok");
    }
}

#[test]
fn error_storm_leaves_service_healthy() {
    // A mixed storm of every malformed class, then a burst of valid work:
    // counters add up and the cache still functions.
    let s = service();
    let bad = [
        "",
        "{",
        "null",
        r#"{"cmd":17}"#,
        r#"{"id":1}"#,
        r#"{"id":2,"heuristic":"nope","graph":{"tasks":[{"name":"a","exec":1.0}],"edges":[]},"platform":{"speeds":[1.0],"delays":[0.0]},"config":{"epsilon":0,"period":1.0}}"#,
    ];
    let lines: Vec<&str> = bad
        .iter()
        .cycle()
        .take(60)
        .chain(std::iter::repeat_n(&VALID, 10))
        .copied()
        .collect();
    let responses: Vec<String> = lines.iter().map(|l| s.handle_line(l)).collect();
    for resp in &responses[..60] {
        assert!(resp.contains(r#""status":"error""#), "{resp}");
    }
    for resp in &responses[60..] {
        assert!(resp.contains(r#""status":"ok""#), "{resp}");
    }
    let report = s.stats_report();
    assert_eq!(report.served, 70);
    assert_eq!(report.errors, 60);
    assert_eq!(report.ok, 10);
    // One real solve, nine cache hits.
    assert_eq!(report.cache_misses, 1);
    assert_eq!(report.cache_hits, 9);
}

/// One seeded mutation of a golden request line: byte flips, a
/// truncation, a splice of two lines, a number replaced by an edge case,
/// or nesting wrappers up to 10^6 levels deep.
fn mutate(corpus: &[&str], rng: &mut StdRng) -> String {
    let pick = |rng: &mut StdRng| corpus[rng.gen_range(0..corpus.len())].as_bytes();
    let mut line = pick(rng).to_vec();
    match rng.gen_range(0..5) {
        0 => {
            for _ in 0..rng.gen_range(1..4) {
                let i = rng.gen_range(0..line.len());
                line[i] ^= 1u8 << rng.gen_range(0..8u32);
            }
        }
        1 => line.truncate(rng.gen_range(0..line.len())),
        2 => {
            let other = pick(rng);
            line.truncate(rng.gen_range(0..line.len()));
            line.extend_from_slice(&other[rng.gen_range(0..other.len())..]);
        }
        3 => {
            // The number tokens: a digit or '-' right after ':', '[' or ','.
            let starts: Vec<usize> = (1..line.len())
                .filter(|&i| b":[,".contains(&line[i - 1]))
                .filter(|&i| line[i] == b'-' || line[i].is_ascii_digit())
                .collect();
            if !starts.is_empty() {
                let i = starts[rng.gen_range(0..starts.len())];
                let len = line[i..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit() || b"-+.eE".contains(b))
                    .count();
                let odd = ["1e400", "-0", "18446744073709551616"][rng.gen_range(0..3usize)];
                line.splice(i..i + len, odd.bytes());
            }
        }
        _ => {
            let depth = [1, 127, 128, 129, 1000, 1_000_000][rng.gen_range(0..6usize)];
            let (open, close) = [("[", "]"), (r#"{"a":"#, "}")][rng.gen_range(0..2usize)];
            line = [
                open.repeat(depth).as_bytes(),
                &line,
                close.repeat(depth).as_bytes(),
            ]
            .concat();
        }
    }
    String::from_utf8_lossy(&line).into_owned()
}

/// A regression guard over the golden request corpus: seeded mutations
/// each get exactly one reply — a JSON object whose
/// `status` is `ok` or `error` — and the service still answers afterwards.
/// Nesting a line 10^6 levels deep used to overflow the parser's stack,
/// which aborts the whole daemon.
#[test]
fn mutated_golden_requests_each_get_one_reply() {
    let corpus: Vec<&str> = include_str!("golden/requests.jsonl").lines().collect();
    assert_eq!(corpus.len(), 16);
    let mut rng = StdRng::seed_from_u64(0xF0221);
    let s = service();
    for _ in 0..1000 {
        let line = mutate(&corpus, &mut rng);
        let reply = s.handle_line(&line);
        let (_, status, ..) = envelope(&reply);
        assert!(
            status == "ok" || status == "error",
            "{reply} for {:?}",
            line.chars().take(300).collect::<String>()
        );
    }
    let (_, status, ..) = envelope(&s.handle_line(r#"{"cmd":"heuristics"}"#));
    assert_eq!(status, "ok");
}
