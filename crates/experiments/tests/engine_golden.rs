//! LTF and R-LTF pinned at paper scale: six paper-workload instances on
//! m = 20 processors with 50–100 tasks (two matrix platforms, a Contended
//! chain and a Contended star, each routed pair with its Uniform twin),
//! solved at ε ∈ {1, 3} and at 1 and 0.6 × the instance's calibrated
//! period, plus every ablation knob on one matrix instance and the
//! fault-free reference on two. The differential suites compare the
//! engine with the exhaustive oracle only on matrix platforms and smaller
//! graphs; this file holds the production path to its own recorded
//! output on routed platforms and at full size.
//!
//! One line per case: the case, then the stage count, the latency bound,
//! the message count and an FNV-1a-64 digest of the schedule's wire form
//! (full schedules run to tens of KB each at this size), or the error's
//! debug form, then the run's period window. The window pins the order and
//! values of condition (1)'s checks, which identical schedules do not: the
//! Pareto memo reuses a run at every period its window admits. On a
//! mismatch the regenerated file is written to Cargo's temporary directory
//! for integration tests (named in the failure message) so the drift can
//! be diffed.

use ltf_core::{lookup, AlgoConfig, Solver, BUILTIN};
use ltf_experiments::campaign::{TopologyShape, TopologySpec};
use ltf_experiments::{gen_instance_on, Instance, PaperWorkload};
use ltf_platform::CommMode;

/// FNV-1a, 64 bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(label, seed, topology)` of the six pinned instances.
fn instances() -> Vec<(&'static str, u64, Option<TopologySpec>)> {
    let routed = |shape: TopologyShape, mode: CommMode| {
        Some(TopologySpec {
            shape,
            mode: Some(mode),
        })
    };
    vec![
        ("matrix", 3, None),
        ("matrix", 8, None),
        (
            "chain-0.5",
            5,
            routed(TopologyShape::Chain(0.5), CommMode::Contended),
        ),
        (
            "chain-0.5-uniform",
            5,
            routed(TopologyShape::Chain(0.5), CommMode::Uniform),
        ),
        (
            "star-0.4",
            2,
            routed(TopologyShape::Star(0.4), CommMode::Contended),
        ),
        (
            "star-0.4-uniform",
            2,
            routed(TopologyShape::Star(0.4), CommMode::Uniform),
        ),
    ]
}

/// The instance calibrated at `epsilon` (the period and the time scale
/// both depend on the replication degree).
fn instance(seed: u64, topology: Option<&TopologySpec>, epsilon: u8) -> Instance {
    let wl = PaperWorkload {
        tasks: (50, 100),
        epsilon,
        ..Default::default()
    };
    gen_instance_on(&wl, seed, topology)
}

/// One golden line: `case` (an open JSON object) closed with the verdict.
fn line(solver: &Solver<'_>, heuristic: &str, cfg: &AlgoConfig, case: String) -> String {
    let verdict = match solver.solve(heuristic, cfg) {
        Ok(sol) => {
            let wire = serde_json::to_string(&sol.schedule.to_data()).unwrap();
            format!(
                "\"stages\":{},\"latency_upper_bound\":{},\"comm_count\":{},\"digest\":\"{:016x}\"",
                sol.metrics.stages,
                serde_json::to_string(&sol.metrics.latency_upper_bound).unwrap(),
                sol.metrics.comm_count,
                fnv1a64(wire.as_bytes()),
            )
        }
        Err(d) => format!(
            "\"error\":{}",
            serde_json::to_string(&format!("{:?}", d.error)).unwrap()
        ),
    };
    format!(
        "{case},{verdict},\"window\":{}}}\n",
        window(solver, heuristic, cfg)
    )
}

/// The run's [`ltf_core::PeriodWindow`] as `{"pass_max", "fail_min"}`, each
/// in Rust's shortest round-trip float text: JSON has no `±∞`, which an
/// edge without a recorded check takes.
fn window(solver: &Solver<'_>, heuristic: &str, cfg: &AlgoConfig) -> String {
    let h = lookup(&BUILTIN, heuristic).expect("built-in heuristic");
    match h.schedule_windowed(solver.instance(), cfg).1 {
        Some(w) => {
            assert!(
                w.admits(cfg.period),
                "{heuristic}: window excludes its own period"
            );
            format!(
                "{{\"pass_max\":\"{:?}\",\"fail_min\":\"{:?}\"}}",
                w.pass_max(),
                w.fail_min()
            )
        }
        None => "null".to_string(),
    }
}

fn case(label: &str, seed: u64, heuristic: &str, cfg: &AlgoConfig, knob: &str) -> String {
    format!(
        "{{\"instance\":\"{label} seed={seed}\",\"heuristic\":\"{heuristic}\",\"epsilon\":{},\"period\":{},\"knob\":\"{knob}\"",
        cfg.epsilon,
        serde_json::to_string(&cfg.period).unwrap(),
    )
}

fn render() -> String {
    let mut out = String::new();
    for (label, seed, topology) in instances() {
        for epsilon in [1u8, 3] {
            let inst = instance(seed, topology.as_ref(), epsilon);
            let solver = Solver::builtin(&inst.graph, &inst.platform);
            for factor in [1.0, 0.6] {
                let cfg = AlgoConfig::new(epsilon, factor * inst.period);
                for heuristic in ["ltf", "rltf"] {
                    let case = case(label, seed, heuristic, &cfg, "default");
                    out.push_str(&line(&solver, heuristic, &cfg, case));
                }
            }
        }
    }

    // Every ablation knob on the first matrix instance at ε = 1.
    let (label, seed, _) = instances()[0].clone();
    let inst = instance(seed, None, 1);
    let solver = Solver::builtin(&inst.graph, &inst.platform);
    let base = AlgoConfig::new(1, inst.period);
    let knobs: [(&str, AlgoConfig); 5] = [
        (
            "cluster_ties=false",
            AlgoConfig {
                cluster_ties: false,
                ..base.clone()
            },
        ),
        (
            "use_one_to_one=false",
            AlgoConfig {
                use_one_to_one: false,
                ..base.clone()
            },
        ),
        (
            "rule1=false",
            AlgoConfig {
                rule1: false,
                ..base.clone()
            },
        ),
        (
            "rule2=false",
            AlgoConfig {
                rule2: false,
                ..base.clone()
            },
        ),
        (
            "chunk_size=1",
            AlgoConfig {
                chunk_size: Some(1),
                ..base.clone()
            },
        ),
    ];
    for (knob, cfg) in &knobs {
        for heuristic in ["ltf", "rltf"] {
            let case = case(label, seed, heuristic, cfg, knob);
            out.push_str(&line(&solver, heuristic, cfg, case));
        }
    }

    // The fault-free reference on one matrix and one Contended instance.
    for (label, seed, topology) in [instances()[1].clone(), instances()[2].clone()] {
        let inst = instance(seed, topology.as_ref(), 1);
        let solver = Solver::builtin(&inst.graph, &inst.platform);
        for factor in [1.0, 0.6] {
            let cfg = AlgoConfig::new(1, factor * inst.period);
            let case = case(label, seed, "fault-free", &cfg, "default");
            out.push_str(&line(&solver, "fault-free", &cfg, case));
        }
    }
    out
}

#[test]
fn ltf_and_rltf_match_golden_at_paper_scale() {
    let got = render();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/engine.jsonl");
    let want = std::fs::read_to_string(path).unwrap_or_default();
    if got != want {
        let fresh = concat!(env!("CARGO_TARGET_TMPDIR"), "/engine.jsonl");
        std::fs::write(fresh, &got).unwrap();
        panic!("LTF/R-LTF verdicts drifted from {path}; regenerated output in {fresh}");
    }
}

#[test]
fn golden_covers_infeasible_and_contended_verdicts() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/engine.jsonl");
    let text = std::fs::read_to_string(path).unwrap();
    assert!(text.lines().any(|l| l.contains("\"error\":")));
    for heuristic in ["ltf", "rltf"] {
        let pinned = text.lines().any(|l| {
            l.contains(&format!("\"heuristic\":\"{heuristic}\""))
                && l.contains("\"epsilon\":3")
                && (l.contains("chain-0.5 seed") || l.contains("star-0.4 seed"))
                && l.contains("\"digest\":")
        });
        assert!(pinned, "{heuristic}: no feasible ε = 3 Contended line");
    }
}
