//! Pipe-mode golden test: a fixed request stream must produce the exact
//! committed response stream, byte for byte. This is what makes the
//! service scriptable — solve responses carry no timestamps or other
//! nondeterminism (timings live only in `{"cmd":"stats"}` replies, which
//! are deliberately absent from the fixture).
//!
//! Regenerate the fixtures after an intentional protocol change with
//! `LTF_SERVE_BLESS=1 cargo test -p ltf-serve --test golden`.
//! CI additionally pipes `requests.jsonl` through the real binary and
//! diffs against `responses.jsonl` (see `.github/workflows/ci.yml`).

use ltf_graph::generate::{fig1_diamond, fig2_workflow_variant};
use ltf_platform::{Platform, Topology};
use ltf_serve::proto::RequestConfig;
use ltf_serve::{Service, ServiceConfig, SolveRequest};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn request(
    id: u64,
    heuristic: &str,
    g: &ltf_graph::TaskGraph,
    p: &Platform,
    epsilon: u8,
    period: f64,
) -> String {
    serde_json::to_string(&SolveRequest {
        id: Some(id),
        heuristic: heuristic.to_string(),
        graph: g.clone(),
        platform: p.clone(),
        config: RequestConfig {
            epsilon,
            period,
            chunk_size: None,
            seed: None,
            use_one_to_one: None,
            rule1: None,
            rule2: None,
            cluster_ties: None,
        },
    })
    .expect("request")
}

/// The fixture's request stream: worked examples through several
/// heuristics, a duplicate (exercising `cached:true`), every error class,
/// the deterministic `heuristics` control command, and LTF/R-LTF on two
/// Contended platforms (routed wire form, link-aware fingerprint and
/// solve).
fn requests() -> Vec<String> {
    let fig1_g = fig1_diamond();
    let fig1_p = Platform::fig1_platform();
    let fig2_g = fig2_workflow_variant();
    let fig2_p = Platform::homogeneous(8, 1.0, 0.5);
    let mut lines = vec![
        request(1, "rltf", &fig1_g, &fig1_p, 1, 30.0),
        request(2, "ltf", &fig1_g, &fig1_p, 1, 30.0),
        request(3, "fault-free", &fig1_g, &fig1_p, 0, 30.0),
        request(4, "rltf", &fig2_g, &fig2_p, 1, 40.0),
        request(5, "heft", &fig1_g, &fig1_p, 0, 30.0),
        // Duplicate of request 1 (different id, same key): cache hit.
        request(6, "RLTF", &fig1_g, &fig1_p, 1, 30.0),
        // Solver-level failure: period far too tight.
        request(7, "ltf", &fig2_g, &fig2_p, 3, 4.0),
    ];
    lines.push(r#"{"cmd":"heuristics"}"#.to_string());
    // Protocol-level failures, one per class.
    lines.push(r#"{"id":8,"heuristic":"magic","graph":{"tasks":[{"name":"a","exec":1.0}],"edges":[]},"platform":{"speeds":[1.0],"delays":[0.0]},"config":{"epsilon":0,"period":5.0}}"#.to_string());
    lines.push(r#"{"id":9,"heuristic":"ltf","graph":{"tasks":[{"name":"a","exec":1.0}],"edges":[]},"platform":{"speeds":[1.0],"delays":[0.0]},"config":{"epsilon":0,"period":5.0},"shiny":true}"#.to_string());
    lines.push(r#"{"id":10,"heuristic":"ltf","graph":{"tasks":[{"name":"a","exec":"fast"}],"edges":[]},"platform":{"speeds":[1.0],"delays":[0.0]},"config":{"epsilon":0,"period":5.0}}"#.to_string());
    lines.push(r#"{"id":11,"heuristic":"ltf","#.to_string());
    let chain = Topology::chain(vec![1.0; 8], 0.5).into_contended_platform();
    let star = Topology::star(vec![1.0; 8], 0.4).into_contended_platform();
    let mut id = 12;
    for p in [chain.expect("connected"), star.expect("connected")] {
        for heuristic in ["ltf", "rltf"] {
            lines.push(request(id, heuristic, &fig2_g, &p, 1, 40.0));
            id += 1;
        }
    }
    lines
}

#[test]
fn golden_pipe_responses() {
    let lines = requests();
    let service = Service::new(ServiceConfig::default());
    let responses: Vec<String> = lines.iter().map(|l| service.handle_line(l)).collect();
    let requests_text = lines.join("\n") + "\n";
    let responses_text = responses.join("\n") + "\n";

    let dir = golden_dir();
    let req_path = dir.join("requests.jsonl");
    let resp_path = dir.join("responses.jsonl");
    if std::env::var_os("LTF_SERVE_BLESS").is_some() {
        std::fs::create_dir_all(&dir).expect("golden dir");
        std::fs::write(&req_path, &requests_text).expect("write requests");
        std::fs::write(&resp_path, &responses_text).expect("write responses");
        return;
    }
    let want_req = std::fs::read_to_string(&req_path).expect("requests.jsonl (bless first)");
    let want_resp = std::fs::read_to_string(&resp_path).expect("responses.jsonl (bless first)");
    assert_eq!(
        requests_text, want_req,
        "request generator drifted from tests/golden/requests.jsonl — \
         rerun with LTF_SERVE_BLESS=1 if intentional"
    );
    assert_eq!(
        responses_text, want_resp,
        "service output drifted from tests/golden/responses.jsonl — \
         rerun with LTF_SERVE_BLESS=1 if intentional"
    );
}

#[test]
fn golden_fixture_sanity() {
    // Independent of the byte-level diff: the committed fixture exercises
    // a cache hit, both error layers, and at least one success per
    // worked example.
    let service = Service::new(ServiceConfig::default());
    let responses: Vec<String> = requests().iter().map(|l| service.handle_line(l)).collect();
    assert!(responses.iter().any(|r| r.contains(r#""cached":true"#)));
    assert!(responses.iter().any(|r| r.contains(r#""cached":false"#)));
    for kind in ["unknown-heuristic", "bad-request", "parse", "infeasible"] {
        assert!(
            responses
                .iter()
                .any(|r| r.contains(&format!(r#""kind":"{kind}""#))),
            "no {kind} response in the fixture"
        );
    }
    let report = service.stats_report();
    assert_eq!(report.served as usize, responses.len() - 1); // heuristics cmd is uncounted
    assert_eq!(report.cache_hits, 1);
}
