//! Cross-validation of the three latency views: the closed-form bound
//! `L = (2S − 1)/T`, the effective-stage failure analysis, and the two
//! simulator disciplines.

use ltf_sched::baselines::{full_solver, FULL};
use ltf_sched::core::{AlgoConfig, AlgoKind, PreparedInstance};
use ltf_sched::graph::generate::{layered, LayeredConfig};
use ltf_sched::graph::GraphBuilder;
use ltf_sched::platform::Platform;
use ltf_sched::schedule::{failures, CrashSet};
use ltf_sched::sim::{asap, synchronous, CrashTrace, RecoveryPolicy, SimReport, TraceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload(seed: u64) -> ltf_sched::graph::TaskGraph {
    layered(
        &LayeredConfig {
            tasks: 26,
            exec_range: (0.5, 2.0),
            volume_range: (1.0, 4.0),
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(seed),
    )
}

/// `run` is the closed form laid out over the stream: every item has
/// latency `want`, item `k` completes at `k·Δ + want`, and the makespan is
/// the last completion.
fn assert_closed_form(run: &SimReport, want: Option<f64>, period: f64, what: &str) {
    let done: Vec<Option<f64>> = (0..run.item_latency.len())
        .map(|k| want.map(|l| k as f64 * period + l))
        .collect();
    assert_eq!(run.item_latency, vec![want; done.len()], "{what}");
    assert_eq!(run.item_completion, done, "{what}");
    assert_eq!(
        run.makespan,
        done.last().copied().flatten().unwrap_or(0.0),
        "{what}"
    );
}

#[test]
fn synchronous_simulation_equals_effective_latency() {
    // The synchronous replay re-derives stages item by item, independently
    // of `failures`: with a never-failing trace and with a fixed crash set
    // failing at time 0 it must reproduce the closed form bit for bit.
    let m = 10;
    let items = 5;
    let p = Platform::homogeneous(m, 1.0, 0.2);
    let mut schedules = 0;
    for seed in 0..8u64 {
        let g = workload(seed);
        for kind in [AlgoKind::Ltf, AlgoKind::Rltf] {
            for eps in 0..=2u8 {
                let cfg = AlgoConfig::new(eps, 15.0).seeded(seed);
                let Ok(s) = kind
                    .heuristic()
                    .schedule(&PreparedInstance::new(&g, &p), &cfg)
                else {
                    continue;
                };
                schedules += 1;
                let period = s.period();
                let l0 = failures::effective_latency(&g, &s, &CrashSet::empty(m));
                assert!(l0.is_some_and(|l| l <= s.latency_upper_bound() + 1e-9));
                let what = format!("seed {seed} {kind} ε={eps}");
                for policy in [RecoveryPolicy::FailStop, RecoveryPolicy::Reroute] {
                    let never = TraceConfig::new(items, CrashTrace::never(m), policy);
                    let run = synchronous(&g, &s, &never);
                    assert_closed_form(&run, l0, period, &format!("{what} never {policy:?}"));
                }

                // Every 1- and 2-processor crash set, failing from the start.
                for crash in (1..=2).flat_map(|c| failures::all_crash_sets(m, c)) {
                    let want = failures::effective_latency(&g, &s, &crash);
                    if let Some(l) = want {
                        assert!(l <= s.latency_upper_bound() + 1e-9);
                    }
                    let what = format!("{what} crash {:?}", crash.procs());
                    let trace = TraceConfig::new(
                        items,
                        CrashTrace::from_crash_set(&crash, m, 0.0),
                        RecoveryPolicy::FailStop,
                    );
                    assert_closed_form(&synchronous(&g, &s, &trace), want, period, &what);
                }
            }
        }
    }
    assert!(schedules >= 40, "only {schedules} feasible schedules");
}

#[test]
fn asap_never_slower_than_synchronous() {
    let m = 10;
    let p = Platform::homogeneous(m, 1.0, 0.2);
    for seed in 0..4u64 {
        let g = workload(seed + 10);
        let cfg = AlgoConfig::new(1, 15.0).seeded(seed);
        let Ok(s) = AlgoKind::Rltf
            .heuristic()
            .schedule(&PreparedInstance::new(&g, &p), &cfg)
        else {
            continue;
        };
        let items = 12;
        let never = TraceConfig::new(items, CrashTrace::never(m), RecoveryPolicy::FailStop);
        let sync = synchronous(&g, &s, &never);
        let fast = asap(&g, &p, &s, &never);
        assert_eq!(fast.produced(), items);
        for (a, b) in fast.item_latency.iter().zip(&sync.item_latency) {
            assert!(
                a.unwrap() <= b.unwrap() + 1e-9,
                "ASAP {a:?} slower than synchronous {b:?}"
            );
        }
    }
}

#[test]
fn asap_sustains_the_period() {
    let m = 10;
    let p = Platform::homogeneous(m, 1.0, 0.2);
    let g = workload(42);
    let cfg = AlgoConfig::new(1, 15.0).seeded(0);
    let s = AlgoKind::Rltf
        .heuristic()
        .schedule(&PreparedInstance::new(&g, &p), &cfg)
        .expect("feasible");
    let never = TraceConfig::new(60, CrashTrace::never(m), RecoveryPolicy::FailStop);
    let run = asap(&g, &p, &s, &never);
    assert_eq!(run.produced(), 60);
    // Throughput keeps up with the admission rate in steady state.
    let period = run.achieved_period().unwrap();
    assert!(
        period <= 15.0 + 1e-6,
        "achieved period {period} exceeds Δ = 15"
    );
}

#[test]
fn asap_single_crash_from_start_loses_nothing() {
    let m = 10;
    let p = Platform::homogeneous(m, 1.0, 0.2);
    let g = workload(43);
    let cfg = AlgoConfig::new(1, 15.0).seeded(0);
    let s = AlgoKind::Rltf
        .heuristic()
        .schedule(&PreparedInstance::new(&g, &p), &cfg)
        .expect("feasible");
    for crash in failures::all_crash_sets(m, 1) {
        let trace = CrashTrace::from_crash_set(&crash, m, 0.0);
        let run = asap(
            &g,
            &p,
            &s,
            &TraceConfig::new(8, trace, RecoveryPolicy::FailStop),
        );
        assert_eq!(run.produced(), 8, "a single crash must be masked");
    }
}

/// A transfer that takes no time — a zero-volume edge, or a zero-delay
/// pair — is free in every heuristic: no message, data ready at the
/// producer's finish. Without failures, ASAP must still feed the consumer
/// and produce every item, as the synchronous replay does.
#[test]
fn asap_delivers_zero_cost_transfers_for_every_heuristic() {
    let fork = |volume| {
        let mut b = GraphBuilder::new();
        let a = b.add_task(4.0);
        for _ in 0..2 {
            let t = b.add_task(4.0);
            b.add_edge(a, t, volume);
        }
        b.build().unwrap()
    };
    let inputs = [
        ("zero-volume", fork(0.0), Platform::homogeneous(3, 1.0, 1.0)),
        ("zero-delay", fork(1.0), Platform::homogeneous(3, 1.0, 0.0)),
    ];
    let items = 8;
    let never = TraceConfig::new(items, CrashTrace::never(3), RecoveryPolicy::FailStop);
    let mut replays = 0;
    for (name, g, p) in &inputs {
        let solver = full_solver(g, p);
        for h in FULL {
            for eps in [0u8, 1] {
                let Ok(sol) = solver.solve(h.name(), &AlgoConfig::new(eps, 10.0)) else {
                    continue;
                };
                let what = format!("{} on {name} (ε={eps})", h.name());
                assert_eq!(
                    synchronous(g, &sol.schedule, &never).produced(),
                    items,
                    "{what}"
                );
                assert_eq!(
                    asap(g, p, &sol.schedule, &never).produced(),
                    items,
                    "{what}"
                );
                replays += 1;
            }
        }
    }
    assert!(replays >= 16, "only {replays} feasible combinations");
}
