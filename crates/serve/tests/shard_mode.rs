//! Campaign shard mode: the `{"cmd":"shard",...}` worker half of the
//! `ltf-campaign` coordinator's connect mode. Asserts the reply envelope
//! (`ok`/`id`/`shard`/`items`/`results`), that the results are exactly
//! what the in-process shard runner produces, and that malformed shard
//! requests draw structured `"ok":false` replies without killing the
//! service.

use ltf_core::shard::Shard;
use ltf_experiments::campaign::{
    run_shard, CampaignSpec, ItemResult, ParetoKind, SloItemResult, SloKind,
};
use ltf_serve::{Service, ServiceConfig};
use serde::{Deserialize, Value};

const SPEC: &str = r#"{
  "name": "shard-mode",
  "graphs": ["fig1", "fig2-variant"],
  "heuristics": ["rltf", "ltf"],
  "epsilons": [{"max": 1}]
}"#;

fn service() -> Service {
    Service::new(ServiceConfig {
        threads: 1,
        ..ServiceConfig::default()
    })
}

fn shard_line(spec_json: &str, shard: &str, id: u64) -> String {
    let spec: Value = serde_json::from_str(spec_json).unwrap();
    let v = Value::Map(vec![
        ("cmd".to_string(), Value::Str("shard".to_string())),
        ("id".to_string(), Value::UInt(id)),
        ("spec".to_string(), spec),
        ("shard".to_string(), Value::Str(shard.to_string())),
    ]);
    serde_json::to_string(&v).unwrap()
}

fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

#[test]
fn shard_reply_matches_in_process_run() {
    let s = service();
    let resp = s.handle_line(&shard_line(SPEC, "1/2", 7));
    let v: Value = serde_json::from_str(&resp).expect("reply is JSON");
    assert_eq!(field(&v, "ok"), Some(&Value::Bool(true)), "{resp}");
    assert_eq!(field(&v, "id"), Some(&Value::UInt(7)));
    assert_eq!(field(&v, "shard"), Some(&Value::Str("1/2".to_string())));
    let Some(Value::Seq(results)) = field(&v, "results") else {
        panic!("no results array: {resp}");
    };
    let got: Vec<ItemResult> = results
        .iter()
        .map(|r| ItemResult::from_value(r).expect("typed result"))
        .collect();

    let spec = CampaignSpec::parse(SPEC).unwrap();
    let shard: Shard = "1/2".parse().unwrap();
    let mut want = Vec::new();
    let kind = ParetoKind::new(&spec).unwrap();
    run_shard(&kind, shard, 1, None, |r| want.push(r)).unwrap();
    assert_eq!(got, want, "wire results differ from in-process run_shard");
    assert_eq!(field(&v, "items"), Some(&Value::UInt(want.len() as u64)));
}

#[test]
fn slo_shard_reply_matches_in_process_run() {
    const SLO_SPEC: &str = r#"{
      "name": "shard-mode-slo",
      "graphs": ["fig1"],
      "heuristics": ["rltf"],
      "epsilons": [{"max": 1}],
      "failure": {"rate": 0.002, "traces": 4, "items": 6, "block": 2,
                  "period": 30.0, "policy": "reroute"},
      "slo": {"max_latency": 200.0, "max_violation_rate": 0.1}
    }"#;
    let s = service();
    let resp = s.handle_line(&shard_line(SLO_SPEC, "0/2", 11));
    let v: Value = serde_json::from_str(&resp).expect("reply is JSON");
    assert_eq!(field(&v, "ok"), Some(&Value::Bool(true)), "{resp}");
    let Some(Value::Seq(results)) = field(&v, "results") else {
        panic!("no results array: {resp}");
    };
    let got: Vec<SloItemResult> = results
        .iter()
        .map(|r| SloItemResult::from_value(r).expect("typed slo result"))
        .collect();

    let spec = CampaignSpec::parse(SLO_SPEC).unwrap();
    let shard: Shard = "0/2".parse().unwrap();
    let mut want = Vec::new();
    let kind = SloKind::new(&spec, spec.failure.as_ref().unwrap()).unwrap();
    run_shard(&kind, shard, 1, None, |r| want.push(r)).unwrap();
    assert_eq!(got, want, "wire results differ from in-process run_shard");
    assert_eq!(field(&v, "items"), Some(&Value::UInt(want.len() as u64)));
}

#[test]
fn bad_shard_string_is_rejected() {
    let s = service();
    let resp = s.handle_line(&shard_line(SPEC, "5/2", 1));
    let v: Value = serde_json::from_str(&resp).unwrap();
    assert_eq!(field(&v, "ok"), Some(&Value::Bool(false)), "{resp}");
    assert_eq!(
        field(&v, "error"),
        Some(&Value::Str("bad-request".to_string()))
    );
}

#[test]
fn invalid_spec_fails_structurally_and_service_survives() {
    let s = service();
    let bad = SPEC.replace("fig2-variant", "fig9");
    let resp = s.handle_line(&shard_line(&bad, "0/1", 2));
    let v: Value = serde_json::from_str(&resp).unwrap();
    assert_eq!(field(&v, "ok"), Some(&Value::Bool(false)), "{resp}");
    assert_eq!(
        field(&v, "error"),
        Some(&Value::Str("shard-failed".to_string()))
    );
    let msg = field(&v, "message").cloned();
    assert!(
        matches!(msg, Some(Value::Str(m)) if m.contains("fig9")),
        "{resp}"
    );
    // Same instance keeps serving.
    let resp = s.handle_line(&shard_line(SPEC, "0/2", 3));
    let v: Value = serde_json::from_str(&resp).unwrap();
    assert_eq!(field(&v, "ok"), Some(&Value::Bool(true)), "{resp}");

    // Per-processor failure rates that do not fit a fig family's pinned
    // platform (fig1 has 4 processors) are rejected at validation instead
    // of tripping an assert mid-shard and taking the daemon down.
    let bad_rates = r#"{"name":"bad-rates","graphs":["fig1"],"heuristics":["rltf"],
      "epsilons":[{"max":1}],"failure":{"rates":[0.01,0.01],"period":30}}"#;
    let resp = s.handle_line(&shard_line(bad_rates, "0/1", 4));
    let v: Value = serde_json::from_str(&resp).unwrap();
    assert_eq!(
        field(&v, "error"),
        Some(&Value::Str("shard-failed".to_string())),
        "{resp}"
    );
    assert!(resp.contains("failure.rates"), "{resp}");
    let resp = s.handle_line(r#"{"cmd":"heuristics"}"#);
    assert!(
        resp.starts_with(r#"{"status":"ok","heuristics":"#),
        "{resp}"
    );
}

#[test]
fn unknown_field_in_shard_request_is_a_bad_request() {
    let s = service();
    let line = shard_line(SPEC, "0/1", 4).replace(r#""cmd":"shard""#, r#""cmd":"shard","oops":1"#);
    let resp = s.handle_line(&line);
    // Shape errors surface through the standard error envelope (the line
    // never reached the shard handler).
    assert!(resp.contains(r#""status":"error""#), "{resp}");
    assert!(resp.contains(r#""kind":"bad-request""#), "{resp}");
    assert!(resp.contains("oops"), "{resp}");
}
