//! Property-based tests for the baseline schedulers, and the contract of
//! the `FULL` registry table every name lookup goes through.

use ltf_baselines::{data_parallel, etf, heft, task_parallel, throughput_first, FULL};
use ltf_core::{lookup, Heuristic, BUILTIN};
use ltf_graph::generate::{layered, LayeredConfig};
use ltf_graph::levels::{bottom_levels, Weights};
use ltf_graph::TaskGraph;
use ltf_platform::{HeterogeneousConfig, Platform, ProcId};
use ltf_schedule::validate;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_workload() -> impl Strategy<Value = (TaskGraph, Platform)> {
    (4usize..26, 2usize..8, any::<u64>()).prop_map(|(v, m, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = layered(
            &LayeredConfig {
                tasks: v,
                exec_range: (0.5, 2.0),
                volume_range: (0.2, 1.0),
                ..Default::default()
            },
            &mut rng,
        );
        let p = HeterogeneousConfig {
            procs: m,
            speed_range: (0.5, 2.0),
            delay_range: (0.05, 0.3),
            symmetric: true,
        }
        .build(&mut rng);
        (g, p)
    })
}

fn check_makespan_schedule(
    g: &TaskGraph,
    p: &Platform,
    s: &ltf_baselines::MakespanSchedule,
) -> Result<(), TestCaseError> {
    // Precedence with communication gaps.
    for eid in g.edge_ids() {
        let e = g.edge(eid);
        let gap = if s.proc(e.src) == s.proc(e.dst) {
            0.0
        } else {
            p.comm_time(e.volume, s.proc(e.src), s.proc(e.dst))
        };
        prop_assert!(
            s.start[e.dst.index()] + 1e-9 >= s.finish[e.src.index()] + gap,
            "precedence violated on {} -> {}",
            e.src,
            e.dst
        );
    }
    // Per-processor serialization.
    for u in p.procs() {
        let mut spans: Vec<(f64, f64)> = g
            .tasks()
            .filter(|t| s.proc(*t) == u)
            .map(|t| (s.start[t.index()], s.finish[t.index()]))
            .collect();
        spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in spans.windows(2) {
            prop_assert!(w[0].1 <= w[1].0 + 1e-9, "overlap on {u}");
        }
    }
    // Exec times honour processor speeds.
    for t in g.tasks() {
        let want = p.exec_time(g.exec(t), s.proc(t));
        prop_assert!((s.finish[t.index()] - s.start[t.index()] - want).abs() < 1e-9);
    }
    // Makespan sandwiched between the critical path on the fastest
    // processor and the fully serial slowest execution.
    let w = Weights::new(
        g.tasks().map(|t| g.exec(t) / p.max_speed()).collect(),
        vec![0.0; g.num_edges()],
    );
    let cp = g
        .entries()
        .iter()
        .map(|t| bottom_levels(g, &w)[t.index()])
        .fold(0.0f64, f64::max);
    prop_assert!(s.makespan + 1e-9 >= cp, "below the critical-path bound");
    let serial = g.total_exec() / p.min_speed();
    prop_assert!(s.makespan <= serial + 1e-6, "worse than fully serial");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn heft_and_etf_produce_legal_schedules((g, p) in arb_workload()) {
        let procs: Vec<ProcId> = p.procs().collect();
        check_makespan_schedule(&g, &p, &heft(&g, &p, &procs))?;
        check_makespan_schedule(&g, &p, &etf(&g, &p, &procs))?;
    }

    #[test]
    fn task_parallel_lanes_disjoint_and_consistent((g, p) in arb_workload()) {
        let eps = 1u8.min((p.num_procs() - 1) as u8);
        let out = task_parallel(&g, &p, eps);
        let mut seen = std::collections::HashSet::new();
        for lane in &out.lanes {
            for u in lane {
                prop_assert!(seen.insert(*u), "processor in two lanes");
            }
        }
        prop_assert!(out.latency <= 1.0 / out.throughput + 1e-9);
        for s in &out.lane_schedules {
            check_makespan_schedule(&g, &p, s)?;
        }
    }

    #[test]
    fn data_parallel_throughput_bounds((g, p) in arb_workload()) {
        let out = data_parallel(&g, &p, 1.min((p.num_procs() - 1) as u8));
        prop_assert!(out.throughput_guaranteed <= out.throughput_optimistic + 1e-12);
        // Aggregate rate cannot beat total speed / total work.
        let cap: f64 = p.procs().map(|u| p.speed(u)).sum::<f64>() / g.total_exec();
        prop_assert!(out.throughput_optimistic <= cap + 1e-9);
    }

    #[test]
    fn throughput_first_valid_when_feasible((g, p) in arb_workload()) {
        // Generous period: must succeed and validate.
        let period = 2.0 * g.total_exec() / p.min_speed();
        match throughput_first(&g, &p, period) {
            Ok(s) => {
                prop_assert!(validate(&g, &p, &s).is_ok());
                prop_assert!(s.achieved_throughput() + 1e-12 >= 1.0 / period);
            }
            Err(e) => prop_assert!(false, "generous period infeasible: {e}"),
        }
    }
}

#[test]
fn full_begins_with_builtin_in_order() {
    let names = |t: &[&dyn Heuristic]| t.iter().map(|h| h.name()).collect::<Vec<_>>();
    assert_eq!(names(&FULL[..BUILTIN.len()]), names(&BUILTIN));
}

#[test]
fn every_name_and_alias_resolves_to_its_owner_in_any_case() {
    for owner in FULL {
        for name in std::iter::once(owner.name()).chain(owner.aliases().iter().copied()) {
            for spelled in [name.to_ascii_uppercase(), name.to_ascii_lowercase()] {
                let found = lookup(&FULL, &spelled).expect("registered name resolves");
                assert_eq!(found.name(), owner.name(), "{spelled}");
            }
        }
    }
    assert!(lookup(&FULL, "zeus").is_none());
}

#[test]
fn no_alias_shadows_another_canonical_name() {
    for owner in FULL {
        for alias in owner.aliases() {
            for other in FULL {
                assert!(
                    !alias.eq_ignore_ascii_case(other.name()),
                    "{}'s alias {alias} is {}'s canonical name",
                    owner.name(),
                    other.name()
                );
            }
        }
    }
}

/// Only the paper's heuristics report a period window: the baselines keep
/// period logic of their own (whole-mapping load checks), so a search
/// solves them at every probed period.
#[test]
fn only_the_builtin_heuristics_report_a_period_window() {
    let g = ltf_graph::generate::fig1_diamond();
    let p = Platform::fig1_platform();
    let prep = ltf_core::PreparedInstance::new(&g, &p);
    let cfg = ltf_core::AlgoConfig::new(0, 40.0);
    for h in FULL {
        let (verdict, window) = h.schedule_windowed(&prep, &cfg);
        let builtin = BUILTIN.iter().any(|b| b.name() == h.name());
        assert_eq!(window.is_some(), builtin, "{}", h.name());
        assert_eq!(
            verdict.ok().map(|s| s.to_data()),
            h.schedule(&prep, &cfg).ok().map(|s| s.to_data())
        );
    }
    let (_, window) = lookup(&FULL, "heft")
        .unwrap()
        .schedule_windowed(&prep, &cfg);
    assert!(window.is_none());
}
