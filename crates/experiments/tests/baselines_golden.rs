//! Every baseline's verdict pinned byte for byte: HEFT, ETF, task- and
//! data-parallel and throughput-first on the worked examples and on six
//! paper-workload instances (matrix, Contended chain and Contended star
//! platforms), each at ε ∈ {0, 1, 2} and three periods around the
//! instance's own. One line per case: the case, then the full schedule
//! wire form when the baseline finds one, or the diagnostics text (and
//! the error's debug form, which keeps every bit of a reported load)
//! when it does not.
//!
//! On a mismatch the regenerated file is written to Cargo's temporary
//! directory for integration tests (named in the failure message) so the
//! drift can be diffed.

use ltf_baselines::full_solver;
use ltf_core::AlgoConfig;
use ltf_experiments::campaign::{TopologyShape, TopologySpec};
use ltf_experiments::{gen_instance_on, PaperWorkload};
use ltf_graph::generate::{fig1_diamond, fig2_workflow_variant};
use ltf_graph::TaskGraph;
use ltf_platform::Platform;

const BASELINES: [&str; 5] = [
    "heft",
    "etf",
    "task-parallel",
    "data-parallel",
    "throughput-first",
];

/// `(name, graph, platform, Δ₀)` for every pinned instance.
fn instances() -> Vec<(String, TaskGraph, Platform, f64)> {
    let mut out = vec![
        (
            "fig1".to_string(),
            fig1_diamond(),
            Platform::fig1_platform(),
            30.0,
        ),
        (
            "fig2-variant".to_string(),
            fig2_workflow_variant(),
            Platform::homogeneous(8, 1.0, 0.5),
            20.0,
        ),
    ];
    let wl = PaperWorkload {
        tasks: (10, 30),
        procs: 8,
        ..Default::default()
    };
    // Seeds with 11–22 tasks keep the file well under 1 MB.
    let shapes = [
        ("matrix", None, [1, 2]),
        ("chain-0.5", Some(TopologyShape::Chain(0.5)), [4, 10]),
        ("star-0.4", Some(TopologyShape::Star(0.4)), [11, 14]),
    ];
    for (label, shape, seeds) in shapes {
        let topology = shape.map(|shape| TopologySpec { shape, mode: None });
        for seed in seeds {
            let inst = gen_instance_on(&wl, seed, topology.as_ref());
            out.push((
                format!("workload-{label} seed={seed}"),
                inst.graph,
                inst.platform,
                inst.period,
            ));
        }
    }
    out
}

fn render() -> String {
    let mut out = String::new();
    for (name, g, p, base) in instances() {
        let solver = full_solver(&g, &p);
        for scale in [0.35, 1.0, 5.0] {
            let period = scale * base;
            for epsilon in 0..=2u8 {
                for heuristic in BASELINES {
                    let case = format!(
                        "{{\"instance\":{},\"heuristic\":\"{heuristic}\",\"epsilon\":{epsilon},\"period\":{}",
                        serde_json::to_string(&name).unwrap(),
                        serde_json::to_string(&period).unwrap(),
                    );
                    let verdict = match solver.solve(heuristic, &AlgoConfig::new(epsilon, period)) {
                        Ok(sol) => format!(
                            "\"schedule\":{}",
                            serde_json::to_string(&sol.schedule.to_data()).unwrap()
                        ),
                        Err(d) => format!(
                            "\"error\":{},\"debug\":{}",
                            serde_json::to_string(&d.to_string()).unwrap(),
                            serde_json::to_string(&format!("{:?}", d.error)).unwrap(),
                        ),
                    };
                    out.push_str(&format!("{case},{verdict}}}\n"));
                }
            }
        }
    }
    out
}

#[test]
fn baseline_verdicts_match_golden() {
    let got = render();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/baselines.jsonl");
    let want = std::fs::read_to_string(path).unwrap_or_default();
    if got != want {
        let fresh = concat!(env!("CARGO_TARGET_TMPDIR"), "/baselines.jsonl");
        std::fs::write(fresh, &got).unwrap();
        panic!("baseline verdicts drifted from {path}; regenerated output in {fresh}");
    }
}

#[test]
fn golden_covers_every_outcome_kind() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/baselines.jsonl");
    let text = std::fs::read_to_string(path).unwrap();
    assert!(text.len() < 1_000_000, "golden is {} bytes", text.len());
    for kind in ["Unsupported(", "Overloaded {", "Infeasible {"] {
        assert!(text.contains(kind), "no {kind} verdict pinned");
    }
    for heuristic in BASELINES {
        let contended_feasible = text.lines().any(|l| {
            l.contains(&format!("\"heuristic\":\"{heuristic}\""))
                && (l.contains("workload-chain") || l.contains("workload-star"))
                && l.contains("\"schedule\":")
        });
        assert!(
            contended_feasible,
            "{heuristic}: no feasible Contended schedule pinned"
        );
    }
}
