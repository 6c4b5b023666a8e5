//! Differential tests for the `Solver`/`Heuristic` API: every registered
//! heuristic, dispatched by name through the registry (one shared prepared
//! instance per session), must reproduce the direct heuristic call on a
//! fresh `PreparedInstance` bit for bit — same hosts, identical times, same
//! stages, same source structure, same message set — on the paper's worked
//! examples and on random layered graphs. `fault-free` must equal R-LTF
//! run at ε = 0.
//!
//! The baselines are also compared against their legacy entry points,
//! which return strategy-specific outcome types (HEFT/ETF makespan
//! schedules, the task-/data-parallel outcomes), field by field.

mod common;

use common::assert_identical;
use ltf_sched::baselines::{self, full_solver};
use ltf_sched::core::search::{self, SearchOptions};
use ltf_sched::core::{AlgoConfig, Heuristic, Ltf, PreparedInstance, Rltf, ScheduleError, Solver};
use ltf_sched::experiments::workload::{gen_instance, PaperWorkload};
use ltf_sched::graph::generate::{fig1_diamond, fig2_workflow, fig2_workflow_variant};
use ltf_sched::graph::TaskGraph;
use ltf_sched::platform::{Platform, ProcId};
use ltf_sched::schedule::{validate, ReplicaId, Schedule};

/// Solver dispatch vs a direct heuristic call, both sides of feasibility.
fn compare_core(
    solver: &Solver<'_>,
    name: &str,
    cfg: &AlgoConfig,
    legacy: Result<Schedule, ScheduleError>,
    ctx: &str,
) {
    match (solver.solve(name, cfg), legacy) {
        (Ok(sol), Ok(b)) => {
            assert_eq!(sol.heuristic, name, "{ctx}: canonical name");
            assert_identical(&sol.schedule, &b, ctx);
            validate(solver.graph(), solver.platform(), &sol.schedule)
                .unwrap_or_else(|v| panic!("{ctx}: invalid schedule: {v:?}"));
        }
        (Err(d), Err(e)) => assert_eq!(d.error, e, "{ctx}: error kind"),
        (a, b) => panic!(
            "{ctx}: feasibility disagreement (solver {:?}, legacy {:?})",
            a.map(|s| s.metrics.stages),
            b.map(|s| s.num_stages())
        ),
    }
}

/// All seven-plus strategies on one instance at (ε, Δ) — the paper trio
/// against direct heuristic calls, the baselines against their legacy
/// outcome types.
fn compare_all(g: &TaskGraph, p: &Platform, epsilon: u8, period: f64, seed: u64, ctx: &str) {
    let solver = full_solver(g, p);
    let cfg = AlgoConfig::new(epsilon, period).seeded(seed);
    let direct =
        |h: &dyn Heuristic, cfg: &AlgoConfig| h.schedule(&PreparedInstance::new(g, p), cfg);

    compare_core(
        &solver,
        "ltf",
        &cfg,
        direct(&Ltf, &cfg),
        &format!("{ctx}/ltf"),
    );
    compare_core(
        &solver,
        "rltf",
        &cfg,
        direct(&Rltf, &cfg),
        &format!("{ctx}/rltf"),
    );
    // The fault-free reference of §5 is R-LTF without replication.
    compare_core(
        &solver,
        "fault-free",
        &cfg,
        direct(&Rltf, &AlgoConfig::new(0, period).seeded(seed)),
        &format!("{ctx}/fault-free"),
    );

    // Baselines: single-copy strategies run at ε = 0.
    let cfg0 = AlgoConfig::new(0, period).seeded(seed);

    if let Ok(sol) = solver.solve("throughput-first", &cfg0) {
        let legacy = baselines::throughput_first(g, p, period).expect("legacy agrees feasible");
        assert_identical(&sol.schedule, &legacy, &format!("{ctx}/throughput-first"));
    } else {
        assert!(
            baselines::throughput_first(g, p, period).is_err(),
            "{ctx}/throughput-first: legacy disagrees on feasibility"
        );
    }

    let procs: Vec<ProcId> = p.procs().collect();
    for (name, legacy) in [
        ("heft", baselines::heft(g, p, &procs)),
        ("etf", baselines::etf(g, p, &procs)),
    ] {
        if let Ok(sol) = solver.solve(name, &cfg0) {
            for t in g.tasks() {
                let r = ReplicaId::new(t, 0);
                assert_eq!(
                    sol.schedule.proc(r),
                    legacy.proc_of[t.index()],
                    "{ctx}/{name}"
                );
                assert_eq!(
                    sol.schedule.start(r),
                    legacy.start[t.index()],
                    "{ctx}/{name}"
                );
                assert_eq!(
                    sol.schedule.finish(r),
                    legacy.finish[t.index()],
                    "{ctx}/{name}"
                );
            }
            assert_eq!(
                sol.schedule.comm_count(),
                legacy.comms.len(),
                "{ctx}/{name}"
            );
            validate(g, p, &sol.schedule)
                .unwrap_or_else(|v| panic!("{ctx}/{name}: invalid: {v:?}"));
        }
    }

    if p.num_procs() > epsilon as usize {
        if let Ok(sol) = solver.solve("task-parallel", &cfg) {
            let legacy = baselines::task_parallel(g, p, epsilon);
            for (k, ls) in legacy.lane_schedules.iter().enumerate() {
                for t in g.tasks() {
                    let r = ReplicaId::new(t, k as u8);
                    assert_eq!(sol.schedule.proc(r), ls.proc_of[t.index()], "{ctx}/tp");
                    assert_eq!(sol.schedule.start(r), ls.start[t.index()], "{ctx}/tp");
                    assert_eq!(sol.schedule.finish(r), ls.finish[t.index()], "{ctx}/tp");
                }
            }
            validate(g, p, &sol.schedule).unwrap_or_else(|v| panic!("{ctx}/tp: invalid: {v:?}"));
        }
        if let Ok(sol) = solver.solve("data-parallel", &cfg) {
            let legacy = baselines::data_parallel(g, p, epsilon);
            for (k, &u) in legacy.groups[0].iter().enumerate() {
                for t in g.tasks() {
                    assert_eq!(sol.schedule.proc(ReplicaId::new(t, k as u8)), u, "{ctx}/dp");
                }
            }
            validate(g, p, &sol.schedule).unwrap_or_else(|v| panic!("{ctx}/dp: invalid: {v:?}"));
        }
    }
}

#[test]
fn solver_matches_legacy_on_worked_examples() {
    // Fig. 1 diamond at the paper's period.
    let g = fig1_diamond();
    let p = Platform::fig1_platform();
    compare_all(&g, &p, 1, 30.0, 7, "fig1 eps1");
    compare_all(&g, &p, 0, 40.0, 7, "fig1 eps0");
    compare_all(&g, &p, 1, 60.0, 7, "fig1 slack");

    // Fig. 2: reconstruction and variant, m = 8 and 10 (the period where
    // R-LTF fails on the reconstruction with m = 8 — the diagnostics and
    // the legacy error must agree).
    for (label, g) in [
        ("fig2", fig2_workflow()),
        ("fig2v", fig2_workflow_variant()),
    ] {
        for m in [8usize, 10] {
            let p = Platform::homogeneous(m, 1.0, 1.0);
            compare_all(&g, &p, 1, 20.0, 11, &format!("{label} m{m}"));
        }
    }
}

#[test]
fn solver_matches_legacy_on_random_layered_graphs() {
    for eps in [0u8, 1, 3] {
        for seed in 0..4u64 {
            let wl = PaperWorkload {
                tasks: (40, 70),
                epsilon: eps,
                granularity: 1.0,
                ..Default::default()
            };
            let inst = gen_instance(&wl, 0x50D1FF ^ (seed << 8) ^ ((eps as u64) << 32));
            let ctx = format!("layered eps={eps} seed={seed}");
            compare_all(&inst.graph, &inst.platform, eps, inst.period, seed, &ctx);
            // A generous period exercises the baselines' feasible side.
            compare_all(
                &inst.graph,
                &inst.platform,
                eps,
                inst.period * 8.0,
                seed,
                &format!("{ctx} slack"),
            );
        }
    }
}

#[test]
fn searches_accept_any_heuristic_including_baselines() {
    let g = fig1_diamond();
    let p = Platform::fig1_platform();
    let opts = SearchOptions::default();

    // Driving R-LTF by its registry name equals driving the built-in.
    let new = search::min_period(&g, &p, &Rltf, &opts).expect("feasible");
    let solver = full_solver(&g, &p);
    let rltf = solver.heuristic("rltf").expect("registered");
    let old = search::min_period(&g, &p, rltf, &opts).expect("feasible");
    assert_eq!(new.0, old.0, "min_period period");
    assert_identical(&new.1, &old.1, "min_period witness");

    // A baseline as the search oracle: throughput-first (ε = 0).
    let (t_tf, sched) = search::min_period(&g, &p, &baselines::ThroughputFirst, &opts)
        .expect("throughput-first brackets a period");
    validate(&g, &p, &sched).expect("valid");
    assert!(t_tf >= new.0 - 1e-9, "greedy cannot beat R-LTF's period");

    // HEFT as the min-processors oracle. The witness schedule lives on
    // the winning platform *prefix*, so validate against that.
    let (m, sched) = search::min_processors(&g, &p, &baselines::Heft, 0, 60.0, 1)
        .expect("heft schedules the diamond at Δ=60");
    assert!(m >= 1 && m <= p.num_procs());
    validate(&g, &p.prefix(m), &sched).expect("valid");

    // max_epsilon over task-parallel: lanes shrink until infeasible.
    let got = search::max_epsilon(&g, &p, &baselines::TaskParallel, 60.0, None, 1);
    if let Some((eps, sched)) = got {
        assert!(eps >= 1, "two lanes fit at Δ=60");
        validate(&g, &p, &sched).expect("valid");
    }
}

#[test]
fn every_registered_name_dispatches() {
    let g = fig1_diamond();
    let p = Platform::fig1_platform();
    let solver = full_solver(&g, &p);
    assert_eq!(solver.names().len(), 8, "3 built-ins + 5 baselines");
    // ε = 0 with a generous period: every strategy must produce a valid
    // schedule through the registry.
    let cfg = AlgoConfig::new(0, 200.0).seeded(1);
    for name in solver.names() {
        let sol = solver
            .solve(name, &cfg)
            .unwrap_or_else(|d| panic!("{name} infeasible at slack period: {d}"));
        validate(&g, &p, &sol.schedule).unwrap_or_else(|v| panic!("{name}: {v:?}"));
        assert_eq!(sol.heuristic, name);
    }
}
