//! End-to-end campaign runs: sharded execution across real worker
//! processes (spawned children and TCP daemons) must produce output
//! **byte-identical** to a single-process serial run — including after a
//! worker is killed mid-shard and its shard is reassigned and resumed
//! from the checkpoint journal.

use ltf_campaign::{run_campaign, serial_lines, Mode, RunConfig};
use ltf_experiments::campaign::{CampaignSpec, ABORT_ENV};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Spawn tests toggle the process-global crash-injection env var, which
/// child workers inherit — serialize them so one test's setting cannot
/// leak into another's children.
static ENV_LOCK: Mutex<()> = Mutex::new(());

const SPEC: &str = r#"{
  "name": "e2e",
  "graphs": ["fig1", "fig2-variant"],
  "heuristics": ["rltf", "ltf"],
  "epsilons": [{"max": 1}]
}"#;

/// An SLO campaign over the same graphs: trace blocks instead of front
/// enumerations, a per-cell distribution report instead of front lines.
const SLO_SPEC: &str = r#"{
  "name": "e2e-slo",
  "graphs": ["fig1"],
  "heuristics": ["rltf", "ltf"],
  "epsilons": [{"max": 1}],
  "failure": {"rate": 0.002, "traces": 4, "items": 6, "block": 2,
              "period": 30.0, "policy": "reroute"},
  "slo": {"max_latency": 200.0, "max_violation_rate": 0.25}
}"#;

/// A fresh scratch dir under the test-scoped target tmpdir.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("campaign-{tag}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write_spec(dir: &Path) -> PathBuf {
    let path = dir.join("spec.json");
    std::fs::write(&path, SPEC).expect("write spec");
    path
}

fn write_slo_spec(dir: &Path) -> PathBuf {
    let path = dir.join("slo-spec.json");
    std::fs::write(&path, SLO_SPEC).expect("write slo spec");
    path
}

fn spawn_config(dir: &Path) -> RunConfig {
    RunConfig {
        shards: 2,
        workers: 2,
        mode: Mode::Spawn,
        journal_dir: Some(dir.join("journals")),
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_ltf-campaign"))),
        retries: 3,
        worker_threads: 1,
    }
}

#[test]
fn two_spawned_workers_match_serial_byte_for_byte() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = scratch("spawn");
    let spec_path = write_spec(&dir);
    let spec = CampaignSpec::load(&spec_path).unwrap();

    let serial = serial_lines(&spec, 1, None).unwrap();
    let report = run_campaign(&spec_path, &spec, &spawn_config(&dir)).unwrap();

    assert!(!serial.is_empty());
    assert_eq!(report.lines, serial, "sharded merge must equal serial run");
    assert_eq!(report.retries_used, 0);
}

#[test]
fn killed_worker_is_reassigned_and_output_is_identical() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = scratch("kill");
    let spec_path = write_spec(&dir);
    let spec = CampaignSpec::load(&spec_path).unwrap();
    let serial = serial_lines(&spec, 1, None).unwrap();

    // Arm the crash hook: the first worker incarnation to emit an item
    // creates the marker and hard-aborts; every later incarnation sees
    // the marker and runs to completion. Exactly one worker dies.
    let marker = dir.join("abort-once.marker");
    std::env::set_var(ABORT_ENV, &marker);
    let result = run_campaign(&spec_path, &spec, &spawn_config(&dir));
    std::env::remove_var(ABORT_ENV);
    let report = result.unwrap();

    assert!(marker.exists(), "crash hook must actually have fired");
    assert!(
        report.retries_used >= 1,
        "the killed worker's shard must have been reassigned"
    );
    assert_eq!(
        report.lines, serial,
        "output after a mid-campaign kill must still equal the serial run"
    );
    // The dead incarnation journaled its progress; the rerun resumed
    // from a non-empty journal rather than recomputing blind.
    let journals: Vec<_> = std::fs::read_dir(dir.join("journals"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(!journals.is_empty(), "journaling was configured");
    assert!(journals
        .iter()
        .any(|p| std::fs::metadata(p).unwrap().len() > 0));
}

#[test]
fn exhausted_retries_fail_the_run_with_a_diagnostic() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = scratch("exhaust");
    let spec_path = write_spec(&dir);
    let spec = CampaignSpec::load(&spec_path).unwrap();
    let cfg = RunConfig {
        retries: 0,
        // No journal: nothing marks the crash as "already happened", so
        // with retries=0 the first crash is fatal.
        journal_dir: None,
        ..spawn_config(&dir)
    };
    let marker = dir.join("abort-once.marker");
    std::env::set_var(ABORT_ENV, &marker);
    let result = run_campaign(&spec_path, &spec, &cfg);
    std::env::remove_var(ABORT_ENV);
    let err = result.unwrap_err();
    assert!(err.contains("giving up"), "{err}");
}

#[test]
fn slo_spawned_workers_match_serial_byte_for_byte() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = scratch("slo-spawn");
    let spec_path = write_slo_spec(&dir);
    let spec = CampaignSpec::load(&spec_path).unwrap();

    let serial = serial_lines(&spec, 1, None).unwrap();
    let report = run_campaign(&spec_path, &spec, &spawn_config(&dir)).unwrap();

    assert!(!serial.is_empty());
    assert_eq!(report.lines, serial, "sharded SLO report must equal serial");
    assert_eq!(report.retries_used, 0);
    // One rendered row per cell: 2 heuristics × 2 ε values, with the
    // per-cell distribution fields present.
    assert_eq!(report.lines.len(), 4);
    for line in &report.lines {
        assert!(
            line.contains("\"p99\":") && line.contains("\"slo_ok\":"),
            "{line}"
        );
    }
}

#[test]
fn slo_killed_worker_is_reassigned_and_report_is_identical() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = scratch("slo-kill");
    let spec_path = write_slo_spec(&dir);
    let spec = CampaignSpec::load(&spec_path).unwrap();
    let serial = serial_lines(&spec, 1, None).unwrap();

    let marker = dir.join("abort-once.marker");
    std::env::set_var(ABORT_ENV, &marker);
    let result = run_campaign(&spec_path, &spec, &spawn_config(&dir));
    std::env::remove_var(ABORT_ENV);
    let report = result.unwrap();

    assert!(marker.exists(), "crash hook must actually have fired");
    assert!(report.retries_used >= 1, "killed shard must be reassigned");
    assert_eq!(
        report.lines, serial,
        "SLO report after a mid-campaign kill must still equal serial"
    );
}

#[test]
fn slo_tcp_workers_match_serial_byte_for_byte() {
    let dir = scratch("slo-tcp");
    let spec_path = write_slo_spec(&dir);
    let spec = CampaignSpec::load(&spec_path).unwrap();
    let serial = serial_lines(&spec, 1, None).unwrap();

    let cfg = RunConfig {
        shards: 2,
        workers: 2,
        mode: Mode::Connect(vec![start_tcp_worker(), start_tcp_worker()]),
        journal_dir: None,
        worker_bin: None,
        retries: 3,
        worker_threads: 1,
    };
    let report = run_campaign(&spec_path, &spec, &cfg).unwrap();
    assert_eq!(
        report.lines, serial,
        "TCP-sharded SLO report must equal serial"
    );
}

/// An in-process `ltf-serve` daemon: the library's accept loop over a
/// fresh service — exactly what `ltf-serve --listen` runs, minus the
/// process boundary.
fn start_tcp_worker() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let service = ltf_serve::Service::new(ltf_serve::ServiceConfig {
            threads: 1,
            ..Default::default()
        });
        ltf_serve::tcp::serve(&listener, &service);
    });
    addr
}

#[test]
fn tcp_workers_match_serial_byte_for_byte() {
    let dir = scratch("tcp");
    let spec_path = write_spec(&dir);
    let spec = CampaignSpec::load(&spec_path).unwrap();
    let serial = serial_lines(&spec, 1, None).unwrap();

    let cfg = RunConfig {
        shards: 2,
        workers: 2,
        mode: Mode::Connect(vec![start_tcp_worker(), start_tcp_worker()]),
        journal_dir: None,
        worker_bin: None,
        retries: 3,
        worker_threads: 1,
    };
    let report = run_campaign(&spec_path, &spec, &cfg).unwrap();
    assert_eq!(report.lines, serial, "TCP-sharded merge must equal serial");
}

#[test]
fn dead_address_is_absorbed_by_the_surviving_worker() {
    let dir = scratch("dead-addr");
    let spec_path = write_spec(&dir);
    let spec = CampaignSpec::load(&spec_path).unwrap();
    let serial = serial_lines(&spec, 1, None).unwrap();

    // Bind-then-drop: a port that refuses connections.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let cfg = RunConfig {
        shards: 2,
        workers: 2,
        mode: Mode::Connect(vec![dead, start_tcp_worker()]),
        journal_dir: None,
        worker_bin: None,
        retries: 3,
        worker_threads: 1,
    };
    let report = run_campaign(&spec_path, &spec, &cfg).unwrap();
    assert_eq!(report.lines, serial);
    assert!(report.retries_used >= 1, "dead address cost one requeue");
}
