//! Structural validity and fault-tolerance guarantees across graph shapes,
//! replication degrees, and both heuristics.

use ltf_sched::baselines::{full_solver, FULL};
use ltf_sched::core::{AlgoConfig, AlgoKind, PreparedInstance};
use ltf_sched::graph::generate::{
    fork_join, in_tree, layered, out_tree, pipeline, series_parallel, LayeredConfig,
    SeriesParallelConfig,
};
use ltf_sched::graph::{GraphBuilder, TaskGraph};
use ltf_sched::platform::Platform;
use ltf_sched::schedule::{failures, validate, CrashSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn shapes(rng: &mut StdRng) -> Vec<(String, TaskGraph)> {
    vec![
        ("pipeline".into(), pipeline(12, 1.5, 2.0)),
        ("fork_join".into(), fork_join(6, 1.0, 1.5)),
        ("out_tree".into(), out_tree(3, 2, 1.0, 1.0)),
        ("in_tree".into(), in_tree(3, 2, 1.0, 1.0)),
        (
            "layered".into(),
            layered(
                &LayeredConfig {
                    tasks: 28,
                    exec_range: (0.5, 2.0),
                    volume_range: (1.0, 4.0),
                    ..Default::default()
                },
                rng,
            ),
        ),
        (
            "series_parallel".into(),
            series_parallel(
                &SeriesParallelConfig {
                    tasks: 24,
                    exec_range: (0.5, 2.0),
                    volume_range: (1.0, 4.0),
                    ..Default::default()
                },
                rng,
            ),
        ),
    ]
}

#[test]
fn schedules_validate_across_shapes_and_epsilons() {
    let m = 10;
    let p = Platform::homogeneous(m, 1.0, 0.2);
    let mut rng = StdRng::seed_from_u64(11);
    let period = 14.0;
    let mut checked = 0;
    for (name, g) in shapes(&mut rng) {
        for eps in [0u8, 1, 2] {
            for kind in [AlgoKind::Ltf, AlgoKind::Rltf] {
                let cfg = AlgoConfig::new(eps, period).seeded(3);
                let Ok(s) = kind
                    .heuristic()
                    .schedule(&PreparedInstance::new(&g, &p), &cfg)
                else {
                    continue; // infeasibility is legitimate; validity is not optional
                };
                validate(&g, &p, &s)
                    .unwrap_or_else(|v| panic!("{kind} on {name} (ε={eps}) invalid: {v:?}"));
                assert!(s.achieved_throughput() + 1e-12 >= 1.0 / period);
                assert_eq!(s.replicas_per_task(), eps as usize + 1);
                checked += 1;
            }
        }
    }
    assert!(checked >= 24, "only {checked} feasible combinations");
}

/// One task forking to two over transfers that take no time: zero-volume
/// edges on a unit-delay platform, and unit-volume edges on a zero-delay
/// platform. Every heuristic treats such a cross-processor pair as free
/// (no message, data ready at the producer's finish).
fn zero_cost_forks() -> Vec<(&'static str, TaskGraph, Platform)> {
    let fork = |volume| {
        let mut b = GraphBuilder::new();
        let a = b.add_task(4.0);
        for _ in 0..2 {
            let t = b.add_task(4.0);
            b.add_edge(a, t, volume);
        }
        b.build().unwrap()
    };
    vec![
        ("zero-volume", fork(0.0), Platform::homogeneous(3, 1.0, 1.0)),
        ("zero-delay", fork(1.0), Platform::homogeneous(3, 1.0, 0.0)),
    ]
}

#[test]
fn zero_cost_transfers_validate_for_every_heuristic() {
    let mut checked = 0;
    for (name, g, p) in zero_cost_forks() {
        let solver = full_solver(&g, &p);
        for h in FULL {
            for eps in [0u8, 1] {
                let Ok(sol) = solver.solve(h.name(), &AlgoConfig::new(eps, 10.0)) else {
                    continue;
                };
                validate(&g, &p, &sol.schedule)
                    .unwrap_or_else(|v| panic!("{} on {name} (ε={eps}) invalid: {v:?}", h.name()));
                checked += 1;
            }
        }
    }
    assert!(checked >= 16, "only {checked} feasible combinations");
}

#[test]
fn exhaustive_crash_tolerance_eps1_and_eps2() {
    let m = 10;
    let p = Platform::homogeneous(m, 1.0, 0.1);
    let mut rng = StdRng::seed_from_u64(23);
    for (name, g) in shapes(&mut rng) {
        for eps in [1u8, 2] {
            for kind in [AlgoKind::Ltf, AlgoKind::Rltf] {
                let cfg = AlgoConfig::new(eps, 16.0).seeded(9);
                let Ok(s) = kind
                    .heuristic()
                    .schedule(&PreparedInstance::new(&g, &p), &cfg)
                else {
                    continue;
                };
                assert!(
                    failures::tolerates_all_crashes(&g, &s, m, eps as usize),
                    "{kind} on {name} (ε={eps}) loses an output under some \
                     {eps}-crash pattern"
                );
            }
        }
    }
}

#[test]
fn effective_latency_monotone_in_crashes() {
    // Killing more processors can only push the delivered latency up
    // (while the pattern is survived at all).
    let p = Platform::homogeneous(8, 1.0, 0.1);
    let mut rng = StdRng::seed_from_u64(5);
    let g = layered(
        &LayeredConfig {
            tasks: 24,
            exec_range: (0.5, 1.5),
            volume_range: (1.0, 3.0),
            ..Default::default()
        },
        &mut rng,
    );
    let cfg = AlgoConfig::new(2, 14.0).seeded(1);
    let s = AlgoKind::Rltf
        .heuristic()
        .schedule(&PreparedInstance::new(&g, &p), &cfg)
        .expect("feasible");
    let l0 = failures::effective_latency(&g, &s, &CrashSet::empty(8)).unwrap();
    for single in failures::all_crash_sets(8, 1) {
        let l1 = failures::effective_latency(&g, &s, &single).unwrap();
        assert!(l1 + 1e-9 >= l0);
        let first = single.procs()[0];
        for second in 0..8u16 {
            if single.contains(ltf_sched::platform::ProcId(second)) {
                continue;
            }
            let pair = CrashSet::from_procs(&[first, ltf_sched::platform::ProcId(second)], 8);
            let l2 = failures::effective_latency(&g, &s, &pair).unwrap();
            assert!(l2 + 1e-9 >= l1, "latency shrank when adding a crash");
        }
    }
    // Everything stays below the guaranteed bound.
    let ub = s.latency_upper_bound();
    for pair in failures::all_crash_sets(8, 2) {
        let l = failures::effective_latency(&g, &s, &pair).unwrap();
        assert!(l <= ub + 1e-9);
    }
}

#[test]
fn one_to_one_keeps_comm_budget_on_series_parallel() {
    // The paper's §4.2 remark: on series-parallel graphs without
    // throughput pressure, R-LTF needs at most e(ε+1) messages.
    let p = Platform::homogeneous(12, 1.0, 0.05);
    let mut rng = StdRng::seed_from_u64(31);
    for eps in [1u8, 2, 3] {
        let g = series_parallel(
            &SeriesParallelConfig {
                tasks: 20,
                exec_range: (0.5, 1.0),
                volume_range: (0.5, 1.0),
                ..Default::default()
            },
            &mut rng,
        );
        let cfg = AlgoConfig::new(eps, 1000.0).seeded(2); // no pressure
        let s = AlgoKind::Rltf
            .heuristic()
            .schedule(&PreparedInstance::new(&g, &p), &cfg)
            .expect("feasible");
        let budget = g.num_edges() * (eps as usize + 1);
        assert!(
            s.comm_count() <= budget,
            "ε={eps}: {} messages exceed e(ε+1) = {budget}",
            s.comm_count()
        );
    }
}

#[test]
fn failure_modes_reported_cleanly() {
    let g = pipeline(4, 10.0, 1.0);
    // ε+1 > m.
    let p = Platform::homogeneous(2, 1.0, 1.0);
    let cfg = AlgoConfig::new(3, 100.0);
    assert!(matches!(
        AlgoKind::Rltf
            .heuristic()
            .schedule(&PreparedInstance::new(&g, &p), &cfg),
        Err(ltf_sched::core::ScheduleError::TooFewProcessors { .. })
    ));
    // Period too small for the biggest task.
    let p = Platform::homogeneous(4, 1.0, 1.0);
    let cfg = AlgoConfig::new(0, 5.0);
    assert!(matches!(
        AlgoKind::Ltf
            .heuristic()
            .schedule(&PreparedInstance::new(&g, &p), &cfg),
        Err(ltf_sched::core::ScheduleError::Infeasible { .. })
    ));
    // Bad period.
    let cfg = AlgoConfig::new(0, f64::NAN);
    assert!(matches!(
        AlgoKind::Ltf
            .heuristic()
            .schedule(&PreparedInstance::new(&g, &p), &cfg),
        Err(ltf_sched::core::ScheduleError::BadConfig(_))
    ));
}
