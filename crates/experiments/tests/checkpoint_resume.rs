//! Kill-and-resume differential tests: a checkpointed sweep interrupted
//! mid-way (journal chopped inside a record, the on-disk signature of a
//! `SIGKILL` during a write) and resumed must produce exactly the same
//! records as an uninterrupted run — and must not re-journal (i.e. not
//! recompute) the work items that were already complete.

use ltf_core::shard::Shard;
use ltf_experiments::campaign::{run_shard, CampaignSpec, ParetoKind};
use ltf_experiments::figures::{sweep_checkpointed, SweepConfig};
use ltf_experiments::pareto::FrontRow;
use ltf_experiments::scaling::{scaling_sweep_checkpointed, ScalingConfig};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ltf-resume-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Chop the journal after `keep` complete lines and leave a torn prefix
/// of the next one, as a kill mid-write would.
fn interrupt(path: &PathBuf, keep: usize) {
    let text = std::fs::read_to_string(path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() > keep + 1,
        "journal too short to interrupt: {} lines",
        lines.len()
    );
    let mut chopped: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
    chopped.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(path, chopped).unwrap();
}

/// The workload Pareto sweep as the CLI builds it (`pareto --graph
/// workload --instances 6 --algo ALGO --max-eps 1 --max-procs 3`): a
/// one-experiment campaign, here with smaller search budgets.
fn sweep_spec(algo: &str) -> CampaignSpec {
    CampaignSpec::parse(&format!(
        r#"{{"name": "pareto", "seed": 65261, "instances": 6, "graphs": ["workload"],
            "heuristics": ["{algo}"], "epsilons": [{{"max": 1}}], "utilizations": [0.25],
            "max_procs": 3, "relax_steps": 1, "iterations": 10}}"#
    ))
    .unwrap()
}

const INSTANCES: usize = 6;

/// Run the sweep's single shard on two threads, collecting the front rows
/// in emission order.
fn sweep(spec: &CampaignSpec, journal: Option<&Path>) -> Vec<FrontRow> {
    let kind = ParetoKind::new(spec).unwrap();
    let mut rows = Vec::new();
    run_shard(&kind, Shard::solo(), 2, journal, |r| rows.extend(r.rows)).unwrap();
    rows
}

#[test]
fn workload_sweep_resumes_identically() {
    let spec = sweep_spec("rltf");

    // Uninterrupted run, no journal: the reference row stream.
    let reference = sweep(&spec, None);
    assert!(
        reference.len() >= INSTANCES,
        "at least one row per instance"
    );

    // Checkpointed run, then kill it mid-journal.
    let journal = tmp("workload");
    let first = sweep(&spec, Some(&journal));
    assert_eq!(first, reference, "journalling must not change the rows");
    let full_text = std::fs::read_to_string(&journal).unwrap();
    interrupt(&journal, 3);

    // Resume: replayed + freshly computed rows, in the original order.
    let resumed = sweep(&spec, Some(&journal));
    assert_eq!(resumed, reference, "resumed row stream differs");

    // The journal healed to exactly the uninterrupted state: same
    // complete set of keys, the untouched prefix byte-identical, and the
    // already-complete items not re-journalled (no duplicate keys).
    let healed_text = std::fs::read_to_string(&journal).unwrap();
    let full: Vec<&str> = full_text.lines().collect();
    let healed: Vec<&str> = healed_text.lines().collect();
    assert_eq!(healed.len(), full.len(), "journal line count");
    assert_eq!(&healed[..3], &full[..3], "completed prefix was rewritten");
    let mut keys: Vec<String> = healed
        .iter()
        .map(|l| l.split("\"record\"").next().unwrap().to_string())
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), INSTANCES, "duplicate journal keys");
    // The sweep journals under campaign keys: name, signature, item.
    let first_key = format!(
        r#"{{"key":"campaign:pareto:{:016x}:item=000000","#,
        spec.signature()
    );
    assert!(healed[0].starts_with(&first_key), "{}", healed[0]);

    // Resuming a *complete* journal recomputes nothing: every row is
    // replayed and the file is untouched.
    let replay_only = sweep(&spec, Some(&journal));
    assert_eq!(replay_only, reference);
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), healed_text);

    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn journal_shared_across_configs_never_mixes_records() {
    // Regression: the replay filter used to accept any `pareto:` key, so
    // a journal shared across --algo runs emitted the old config's rows
    // on top of recomputing the new one; fig keys used the granularity
    // *index*, silently replaying records measured at other
    // granularities. Keys now pin the full configuration (the campaign
    // signature covers every spec field).
    let journal = tmp("cross-config");
    let spec_rltf = sweep_spec("rltf");
    let rltf_rows = sweep(&spec_rltf, Some(&journal));

    // Same journal, different heuristic: none of the rltf rows may leak
    // into the output, and the ltf work is computed (journal grows).
    let lines_before = std::fs::read_to_string(&journal).unwrap().lines().count();
    let spec_ltf = sweep_spec("ltf");
    let reference_ltf = sweep(&spec_ltf, None);
    let shared_ltf = sweep(&spec_ltf, Some(&journal));
    assert_eq!(
        shared_ltf, reference_ltf,
        "foreign rows leaked into the output"
    );
    let lines_after = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(
        lines_after,
        lines_before + INSTANCES,
        "ltf run must journal its own items without disturbing rltf's"
    );

    // And the original configuration still resumes cleanly from the now
    // mixed journal.
    assert_eq!(sweep(&spec_rltf, Some(&journal)), rltf_rows);

    // Figure sweeps: same journal, different granularity grid — the old
    // index-based keys would have replayed g=0.6 records as g=0.8 data.
    let fig_cfg = SweepConfig {
        graphs_per_point: 2,
        granularities: vec![0.6],
        crash_draws: 2,
        threads: 2,
        ..Default::default()
    };
    sweep_checkpointed(1, 1, &fig_cfg, Some(&journal)).unwrap();
    let other_grid = SweepConfig {
        granularities: vec![0.8],
        ..fig_cfg.clone()
    };
    let fresh = sweep_checkpointed(1, 1, &other_grid, None).unwrap();
    let shared = sweep_checkpointed(1, 1, &other_grid, Some(&journal)).unwrap();
    assert_eq!(shared.by_granularity[0].0, 0.8);
    let (a, b) = (&shared.by_granularity[0].1, &fresh.by_granularity[0].1);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.granularity, y.granularity,
            "foreign-granularity record replayed"
        );
        assert_eq!(x.latency_ub, y.latency_ub);
    }
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn figure_sweep_resumes_identically() {
    let cfg = SweepConfig {
        graphs_per_point: 4,
        granularities: vec![0.6, 1.2],
        crash_draws: 2,
        threads: 2,
        ..Default::default()
    };
    let reference = sweep_checkpointed(1, 1, &cfg, None).unwrap();

    let journal = tmp("figs");
    sweep_checkpointed(1, 1, &cfg, Some(&journal)).unwrap();
    interrupt(&journal, 2);
    let resumed = sweep_checkpointed(1, 1, &cfg, Some(&journal)).unwrap();

    // Same shape, same records, same order (timings of replayed records
    // come from the journal, so the comparison must skip sched_micros —
    // compare everything else field by field).
    assert_eq!(resumed.by_granularity.len(), reference.by_granularity.len());
    for ((g_a, recs_a), (g_b, recs_b)) in
        resumed.by_granularity.iter().zip(&reference.by_granularity)
    {
        assert_eq!(g_a, g_b);
        assert_eq!(recs_a.len(), recs_b.len());
        for (a, b) in recs_a.iter().zip(recs_b) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.algo, b.algo);
            assert_eq!(a.feasible, b.feasible);
            assert_eq!(a.stages, b.stages);
            assert_eq!(a.latency_ub, b.latency_ub);
            assert_eq!(a.latency_0, b.latency_0);
            assert_eq!(a.latency_crash, b.latency_crash);
            assert_eq!(a.crash_losses, b.crash_losses);
            assert_eq!(a.comms, b.comms);
            assert_eq!(a.procs_used, b.procs_used);
        }
    }
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn scaling_sweep_resumes_identically() {
    let cfg = ScalingConfig {
        task_counts: vec![20],
        proc_counts: vec![8],
        epsilons: vec![1],
        reps: 2,
        threads: 2,
        ..Default::default()
    };
    let reference = scaling_sweep_checkpointed(&cfg, None).unwrap();

    let journal = tmp("scaling");
    scaling_sweep_checkpointed(&cfg, Some(&journal)).unwrap();
    interrupt(&journal, 2);
    let resumed = scaling_sweep_checkpointed(&cfg, Some(&journal)).unwrap();

    assert_eq!(resumed.len(), reference.len());
    for (a, b) in resumed.iter().zip(&reference) {
        assert_eq!(
            (a.v, a.m, a.epsilon, &a.algo),
            (b.v, b.m, b.epsilon, &b.algo)
        );
        assert_eq!(a.feasible, b.feasible);
        assert_eq!(a.reps, b.reps);
        // micros is a wall-clock measurement; replayed points keep the
        // measuring run's value, fresh points re-measure — both are fine.
    }
    std::fs::remove_file(&journal).unwrap();
}

/// Copy a committed journal to a temp file the sweep may write to.
fn golden_journal(name: &str) -> (PathBuf, String) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let text = std::fs::read_to_string(&golden).unwrap();
    let journal = tmp(name.trim_end_matches(".journal.jsonl"));
    std::fs::write(&journal, &text).unwrap();
    (journal, text)
}

/// Every journal line is `{"key":...,"record":<payload>}`, and `payload`
/// must re-serialize to exactly the bytes that were journalled.
fn assert_replayed<T: serde::Serialize>(text: &str, payloads: &[T]) {
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), payloads.len(), "one payload per journal line");
    for (line, payload) in lines.iter().zip(payloads) {
        let record = format!(r#""record":{}}}"#, serde_json::to_string(payload).unwrap());
        assert!(line.ends_with(&record), "not replayed verbatim: {line}");
    }
}

#[test]
fn fig3_journal_from_an_older_build_replays() {
    // Written by `ltf-experiments fig3 --quick --graphs 2 --threads 2
    // --checkpoint FILE` before the record types derived `Deserialize`.
    let (journal, text) = golden_journal("fig3-quick.journal.jsonl");
    let cfg = SweepConfig {
        threads: 2,
        crash_draws: 10,
        ..SweepConfig::quick(2)
    };
    let data = sweep_checkpointed(1, 1, &cfg, Some(&journal)).unwrap();
    assert_eq!(
        std::fs::read_to_string(&journal).unwrap(),
        text,
        "a record was recomputed and re-journalled"
    );
    // Each line holds one instance's records (R-LTF, LTF, FF), including
    // the measuring run's `sched_micros`.
    let recs: Vec<_> = data.by_granularity.iter().flat_map(|(_, r)| r).collect();
    let per_instance: Vec<_> = recs.chunks(3).collect();
    assert_replayed(&text, &per_instance);
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn scaling_journal_from_an_older_build_replays() {
    // Written by `ltf-experiments scaling --quick --threads 2 --checkpoint
    // FILE` before the record types derived `Deserialize`.
    let (journal, text) = golden_journal("scaling-quick.journal.jsonl");
    let cfg = ScalingConfig {
        task_counts: vec![25, 50],
        proc_counts: vec![10],
        epsilons: vec![0, 1],
        reps: 2,
        seed: 0xB10B,
        threads: 2,
    };
    let points = scaling_sweep_checkpointed(&cfg, Some(&journal)).unwrap();
    assert_eq!(
        std::fs::read_to_string(&journal).unwrap(),
        text,
        "a point was re-measured and re-journalled"
    );
    // Wall-clock timings only match the journal when they were replayed.
    assert_replayed(&text, &points);
    std::fs::remove_file(&journal).unwrap();
}
