//! Differential tests for the incremental placement engine.
//!
//! The production path compares R-LTF's task-level modes through an undo
//! journal (rollback + replay); the retained reference path re-runs the
//! pre-incremental speculation control flow built on whole-engine
//! snapshots. Over seeded random instances spanning both heuristics,
//! replication degrees and graph families, the two paths must produce
//! *identical* schedules — same hosts, bit-identical times, same stages,
//! same source structure, same message set — or fail with the same error.
//!
//! Scope note: both paths share the overlay probe, the bucketed interval
//! index and the stage fast path, so these tests isolate the
//! journal/rollback/replay machinery and the candidate scans: the
//! production path probes only the candidates that `Engine::probe_bound`
//! leaves able to win, while the reference probes every processor. The shared layers are differentially
//! pinned against naive recomputation by the property tests
//! (`ltf-schedule/tests/interval_index_props.rs`,
//! `ltf-core/tests/prio_props.rs`) and by the debug assertion in
//! `Schedule::with_stages`, which is active throughout this suite.

mod common;

use common::{assert_identical, schedule_with};
use ltf_sched::core::{schedule_with_reference, AlgoConfig, AlgoKind, PreparedInstance};
use ltf_sched::experiments::workload::{gen_instance, PaperWorkload};
use ltf_sched::graph::generate::{series_parallel, SeriesParallelConfig};
use ltf_sched::graph::TaskGraph;
use ltf_sched::platform::Platform;

fn compare_paths(kind: AlgoKind, g: &TaskGraph, p: &Platform, cfg: &AlgoConfig, ctx: &str) {
    let inc = schedule_with(kind, g, p, cfg);
    let refr = schedule_with_reference(kind, g, p, cfg);
    match (inc, refr) {
        (Ok(a), Ok(b)) => assert_identical(&a, &b, ctx),
        (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{ctx}: error kind"),
        (a, b) => panic!(
            "{ctx}: feasibility disagreement (incremental {:?}, reference {:?})",
            a.map(|s| s.num_stages()),
            b.map(|s| s.num_stages())
        ),
    }
}

#[test]
fn incremental_matches_reference_on_paper_workloads() {
    for eps in [0u8, 1, 3] {
        for seed in 0..4u64 {
            let wl = PaperWorkload {
                tasks: (40, 60),
                epsilon: eps,
                granularity: 1.0,
                ..Default::default()
            };
            let inst = gen_instance(&wl, 0xD1FF ^ (seed << 8) ^ ((eps as u64) << 32));
            for kind in [AlgoKind::Ltf, AlgoKind::Rltf] {
                let cfg = AlgoConfig::new(eps, inst.period).seeded(seed);
                let ctx = format!("{kind} eps={eps} seed={seed}");
                compare_paths(kind, &inst.graph, &inst.platform, &cfg, &ctx);
            }
        }
    }
}

#[test]
fn incremental_matches_reference_on_series_parallel() {
    use rand::{rngs::StdRng, SeedableRng};
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED ^ seed);
        let g = series_parallel(&SeriesParallelConfig::default(), &mut rng);
        let p = Platform::homogeneous(12, 1.0, 0.01);
        // Generous period: total work over a third of the machines.
        let period = g.total_exec() / 4.0;
        for eps in [0u8, 1] {
            for kind in [AlgoKind::Ltf, AlgoKind::Rltf] {
                let cfg = AlgoConfig::new(eps, period).seeded(seed);
                let ctx = format!("SP {kind} eps={eps} seed={seed}");
                compare_paths(kind, &g, &p, &cfg, &ctx);
            }
        }
    }
}

/// The paper's worked examples: the Fig. 1 diamond on its heterogeneous
/// 3-processor platform and the Fig. 2 workflow reconstruction on 8
/// homogeneous processors — including the feasibility edge the fig2
/// variant sits on. Small enough that a single misplaced message shows up
/// as a direct field mismatch.
#[test]
fn incremental_matches_reference_on_worked_examples() {
    use ltf_sched::graph::generate::{fig1_diamond, fig2_workflow_variant};

    let g1 = fig1_diamond();
    let p1 = Platform::fig1_platform();
    for eps in [0u8, 1] {
        for period in [20.0, 30.0, 60.0] {
            for kind in [AlgoKind::Ltf, AlgoKind::Rltf] {
                let cfg = AlgoConfig::new(eps, period).seeded(7);
                let ctx = format!("fig1 {kind} eps={eps} T=1/{period}");
                compare_paths(kind, &g1, &p1, &cfg, &ctx);
            }
        }
    }

    let g2 = fig2_workflow_variant();
    let p2 = Platform::homogeneous(8, 1.0, 1.0);
    for eps in [0u8, 1] {
        for period in [20.0, 40.0] {
            for kind in [AlgoKind::Ltf, AlgoKind::Rltf] {
                let cfg = AlgoConfig::new(eps, period).seeded(7);
                let ctx = format!("fig2v {kind} eps={eps} T=1/{period}");
                compare_paths(kind, &g2, &p2, &cfg, &ctx);
            }
        }
    }
}

/// Random layered DAGs (the paper's §5 workload family) across the full
/// replication range, exercising deep rollback/replay chains: ε = 3 means
/// four copies per task and heavy receive-from-all fall-backs.
#[test]
fn incremental_matches_reference_on_layered_graphs() {
    use ltf_sched::graph::generate::{layered, LayeredConfig};
    use rand::{rngs::StdRng, SeedableRng};

    for eps in [0u8, 1, 3] {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(0x1A7E ^ (seed << 4) ^ ((eps as u64) << 32));
            let g = layered(&LayeredConfig::with_tasks(60), &mut rng);
            let p = Platform::homogeneous(16, 1.0, 0.005);
            // Scale headroom with replication: each task runs ε+1 times.
            let period = g.total_exec() * (eps as f64 + 1.0) / 8.0;
            for kind in [AlgoKind::Ltf, AlgoKind::Rltf] {
                let cfg = AlgoConfig::new(eps, period).seeded(seed);
                let ctx = format!("layered {kind} eps={eps} seed={seed}");
                compare_paths(kind, &g, &p, &cfg, &ctx);
            }
        }
    }
}

/// Infeasible configurations must fail identically through both paths.
#[test]
fn incremental_matches_reference_on_infeasible_periods() {
    let wl = PaperWorkload {
        tasks: (30, 30),
        epsilon: 1,
        granularity: 1.0,
        ..Default::default()
    };
    let inst = gen_instance(&wl, 0xBAD);
    for kind in [AlgoKind::Ltf, AlgoKind::Rltf] {
        // A period far below the workload's calibrated one is infeasible.
        let cfg = AlgoConfig::new(1, inst.period / 50.0).seeded(3);
        let ctx = format!("infeasible {kind}");
        compare_paths(kind, &inst.graph, &inst.platform, &cfg, &ctx);
    }
}

/// The search-oriented prepared instance must be a pure cache: scheduling
/// repeatedly through one shared instance equals a fresh one per call.
#[test]
fn prepared_instance_matches_one_shot() {
    let wl = PaperWorkload {
        tasks: (50, 50),
        epsilon: 1,
        granularity: 1.0,
        ..Default::default()
    };
    let inst = gen_instance(&wl, 0xCAC4E);
    let prep = PreparedInstance::new(&inst.graph, &inst.platform);
    for kind in [AlgoKind::Ltf, AlgoKind::Rltf] {
        // Several periods, as the binary searches would probe.
        for factor in [1.0, 1.5, 3.0] {
            let cfg = AlgoConfig::new(1, inst.period * factor).seeded(9);
            let a = kind.heuristic().schedule(&prep, &cfg);
            let b = schedule_with(kind, &inst.graph, &inst.platform, &cfg);
            match (a, b) {
                (Ok(a), Ok(b)) => assert_identical(&a, &b, &format!("prepared {kind} x{factor}")),
                (Err(ea), Err(eb)) => assert_eq!(ea, eb),
                _ => panic!("prepared-instance feasibility disagreement"),
            }
        }
    }
}
