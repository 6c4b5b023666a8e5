//! Differential tests for the layered communication model.
//!
//! A topology platform communicates in one of two modes: `Uniform` (the
//! paper's flattened bottleneck-delay matrix) and `Contended` (the platform
//! keeps its route table and messages reserve every physical link they
//! traverse). Two families of guarantees are pinned here:
//!
//! * **Uniform is bit-identical to the pre-refactor code.** A topology
//!   lowered with `CommMode::Uniform` must schedule exactly like the same
//!   topology eagerly flattened by `into_platform` and run through the
//!   frozen `schedule_with_reference` oracle — same hosts, bit-identical
//!   times, same stages, same message set, or the same error. Checked on
//!   the paper's worked examples and on seeded layered graphs at
//!   ε ∈ {0, 1, 3}.
//!
//! * **Contention never helps.** Link reservation only constrains the
//!   placement engine: on the pinned instances a `Contended` run is never
//!   feasible where `Uniform` fails, and never achieves a lower latency
//!   bound at the same period. (For a greedy heuristic this is not a
//!   theorem over all instances — divergent early placements could luck
//!   out — so the suite pins fixed seeds; the per-probe monotonicity that
//!   *is* a theorem is unit-tested in `ltf-core`.)

mod common;

use common::{assert_identical, schedule_with};
use ltf_sched::core::{schedule_with_reference, AlgoConfig, AlgoKind};
use ltf_sched::graph::generate::{fig1_diamond, fig2_workflow, layered, LayeredConfig};
use ltf_sched::graph::TaskGraph;
use ltf_sched::platform::{CommMode, Platform, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Production solver on the `Uniform`-mode lowering vs the frozen reference
/// oracle on the eager flattening. Also cross-checks that the two lowerings
/// agree on every matrix entry — the routed table's (bottleneck, hops)
/// tie-break must never change a bottleneck value.
fn pin_uniform(mk: &dyn Fn() -> Topology, g: &TaskGraph, cfg: &AlgoConfig, ctx: &str) {
    let flat = mk().into_platform().expect("connected topology");
    let routed = mk()
        .into_platform_with(CommMode::Uniform)
        .expect("connected topology");
    assert!(!routed.is_contended(), "{ctx}: Uniform keeps no links");
    for k in flat.procs() {
        for h in flat.procs() {
            assert_eq!(
                flat.unit_delay(k, h).to_bits(),
                routed.unit_delay(k, h).to_bits(),
                "{ctx}: delay {k}->{h}"
            );
        }
    }
    for kind in [AlgoKind::Ltf, AlgoKind::Rltf] {
        let prod = schedule_with(kind, g, &routed, cfg);
        let oracle = schedule_with_reference(kind, g, &flat, cfg);
        match (prod, oracle) {
            (Ok(a), Ok(b)) => assert_identical(&a, &b, &format!("{ctx}/{kind:?}")),
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{ctx}/{kind:?}: error kind"),
            (a, b) => panic!(
                "{ctx}/{kind:?}: feasibility disagreement (production {:?}, reference {:?})",
                a.map(|s| s.num_stages()),
                b.map(|s| s.num_stages())
            ),
        }
    }
}

/// On one instance, compare a `Contended` run against the `Uniform` run.
/// Feasibility is strictly monotone (link reservation only removes
/// placements, so contended-feasible ⇒ uniform-feasible — enforced here by
/// panic). Latency is monotone per *probe* but not per *run*: a constrained
/// early placement can steer the greedy heuristic into a luckier basin, so
/// the rare instances where contended ends up with a lower latency bound
/// are returned for the caller to pin instead of asserted away.
///
/// Returns `(both_feasible, contended_beat_uniform)`.
fn check_monotone(
    kind: AlgoKind,
    g: &TaskGraph,
    uniform: &Platform,
    contended: &Platform,
    cfg: &AlgoConfig,
    ctx: &str,
) -> (bool, bool) {
    let u = schedule_with(kind, g, uniform, cfg);
    let c = schedule_with(kind, g, contended, cfg);
    match (&u, &c) {
        (Err(_), Ok(_)) => panic!("{ctx}: contended feasible where uniform failed"),
        (Ok(us), Ok(cs)) => (
            true,
            cs.latency_upper_bound() < us.latency_upper_bound() - 1e-9,
        ),
        _ => (false, false),
    }
}

fn chain4() -> Topology {
    Topology::chain(vec![1.0, 1.0, 1.0, 1.0], 0.5)
}

fn star5() -> Topology {
    Topology::star(vec![2.0, 1.0, 1.0, 1.0, 1.0], 0.4)
}

fn hetero_mesh() -> Topology {
    // A 5-processor partial mesh with two speed classes and a delay spread:
    // routes genuinely differ in hop count, so the minimax tie-break is
    // exercised beyond the chain/star specials.
    Topology::new(vec![2.0, 1.5, 1.0, 1.0, 0.5])
        .link(0, 1, 0.2)
        .link(1, 2, 0.4)
        .link(2, 3, 0.3)
        .link(3, 4, 0.6)
        .link(0, 4, 0.5)
        .link(1, 3, 0.7)
}

#[test]
fn uniform_matches_reference_on_worked_examples() {
    let fig1 = fig1_diamond();
    let fig2 = fig2_workflow();
    for eps in [0u8, 1] {
        for period in [6.0, 9.0, 20.0] {
            let cfg = AlgoConfig::new(eps, period);
            pin_uniform(
                &chain4,
                &fig1,
                &cfg,
                &format!("fig1/chain4 eps={eps} T={period}"),
            );
            pin_uniform(
                &star5,
                &fig1,
                &cfg,
                &format!("fig1/star5 eps={eps} T={period}"),
            );
            pin_uniform(
                &chain4,
                &fig2,
                &cfg,
                &format!("fig2/chain4 eps={eps} T={period}"),
            );
            pin_uniform(
                &hetero_mesh,
                &fig2,
                &cfg,
                &format!("fig2/mesh eps={eps} T={period}"),
            );
        }
    }
}

#[test]
fn uniform_matches_reference_on_seeded_layered_graphs() {
    for seed in 0u64..6 {
        let mut rng = StdRng::seed_from_u64(0xC0DE ^ (seed << 8));
        let g = layered(&LayeredConfig::with_tasks(24 + 4 * seed as usize), &mut rng);
        for eps in [0u8, 1, 3] {
            // Period scaled to the work so the sweep crosses the
            // feasibility boundary: matching Err kinds are as load-bearing
            // as matching schedules.
            let base = g.total_exec() * (eps as f64 + 1.0) / 5.0;
            for factor in [0.9, 1.6, 3.0] {
                let cfg = AlgoConfig::new(eps, base * factor).seeded(seed);
                let ctx = format!("layered seed={seed} eps={eps} f={factor}");
                pin_uniform(&hetero_mesh, &g, &cfg, &ctx);
                pin_uniform(&star5, &g, &cfg, &format!("{ctx} star"));
            }
        }
    }
}

#[test]
fn contended_never_beats_uniform_on_pinned_instances() {
    // The combos where the constrained run happens to land in a better
    // greedy basin (see `check_monotone`). Every one is LTF at the loosest
    // period, where the placement order has the most slack to diverge.
    // Pinned exactly: a change that grows OR shrinks this set is a
    // behavioral change that must be looked at, not absorbed.
    const EXPECTED_DIVERGENT: &[&str] = &[
        "chain4 seed=1 eps=0 f=2.5 Ltf",
        "chain4 seed=2 eps=0 f=2.5 Ltf",
        "chain4 seed=2 eps=1 f=2.5 Ltf",
        "star5 seed=0 eps=0 f=2.5 Ltf",
        "star5 seed=1 eps=0 f=2.5 Ltf",
    ];
    let mut compared = 0usize;
    let mut divergent: Vec<String> = Vec::new();
    for (name, mk) in [
        ("chain4", &chain4 as &dyn Fn() -> Topology),
        ("star5", &star5),
        ("mesh", &hetero_mesh),
    ] {
        let uniform = mk().into_platform_with(CommMode::Uniform).unwrap();
        let contended = mk().into_contended_platform().unwrap();
        for seed in 0u64..4 {
            let mut rng = StdRng::seed_from_u64(0xFACE ^ (seed << 6));
            let g = layered(&LayeredConfig::with_tasks(20 + 6 * seed as usize), &mut rng);
            for eps in [0u8, 1, 3] {
                let base = g.total_exec() * (eps as f64 + 1.0) / 4.0;
                for factor in [1.2, 2.5] {
                    let cfg = AlgoConfig::new(eps, base * factor).seeded(seed);
                    for kind in [AlgoKind::Ltf, AlgoKind::Rltf] {
                        let ctx = format!("{name} seed={seed} eps={eps} f={factor} {kind:?}");
                        let (both, beat) =
                            check_monotone(kind, &g, &uniform, &contended, &cfg, &ctx);
                        if both {
                            compared += 1;
                        }
                        if beat {
                            divergent.push(ctx);
                        }
                    }
                }
            }
        }
    }
    assert!(
        compared >= 20,
        "sweep too vacuous: only {compared} feasible pairs"
    );
    assert_eq!(divergent, EXPECTED_DIVERGENT, "greedy divergence set moved");
}

/// The headline example for the contended model: an instance where link
/// reservation changes the *chosen* schedule, and for the better along the
/// link axis. Under `Uniform` the engine only sees endpoint ports, packs
/// aggressively onto the chain's far processors, and drives the hottest
/// physical link to ~145% of the period — a schedule the wire could not
/// actually sustain. Under `Contended` the same heuristic places
/// differently and keeps every link under ~89%.
#[test]
fn contended_changes_schedule_and_lowers_link_utilization() {
    let uniform = chain4().into_platform_with(CommMode::Uniform).unwrap();
    let contended = chain4().into_contended_platform().unwrap();
    let mut rng = StdRng::seed_from_u64(0xFACE ^ (4 << 6));
    let g = layered(&LayeredConfig::with_tasks(20 + 6 * 4), &mut rng);
    let cfg = AlgoConfig::new(1, g.total_exec() * 2.0 / 4.0 * 1.2).seeded(4);

    let us = schedule_with(AlgoKind::Ltf, &g, &uniform, &cfg).expect("uniform feasible");
    let cs = schedule_with(AlgoKind::Ltf, &g, &contended, &cfg).expect("contended feasible");

    // Matrix platforms have no link identity to measure against…
    assert_eq!(us.max_link_utilization(&uniform), None);
    // …so both schedules are measured on the routed platform's links.
    let uu = us.max_link_utilization(&contended).unwrap();
    let cu = cs.max_link_utilization(&contended).unwrap();
    assert!(
        us.replicas().any(|r| us.proc(r) != cs.proc(r)),
        "contention must change at least one placement"
    );
    assert!(uu > 1.0, "uniform overloads a physical link (got {uu})");
    assert!(
        cu <= 1.0 + 1e-9,
        "contended respects link capacity (got {cu})"
    );
    assert!(cu < uu - 1e-9, "strictly lower peak link utilization");
}

#[test]
fn contended_worked_examples_stay_monotone() {
    let fig1 = fig1_diamond();
    let fig2 = fig2_workflow();
    let mut compared = 0usize;
    for (name, mk) in [
        ("chain4", &chain4 as &dyn Fn() -> Topology),
        ("star5", &star5),
    ] {
        let uniform = mk().into_platform_with(CommMode::Uniform).unwrap();
        let contended = mk().into_contended_platform().unwrap();
        for (gname, g) in [("fig1", &fig1), ("fig2", &fig2)] {
            for eps in [0u8, 1] {
                for period in [7.0, 12.0, 25.0, 40.0] {
                    let cfg = AlgoConfig::new(eps, period);
                    for kind in [AlgoKind::Ltf, AlgoKind::Rltf] {
                        let ctx = format!("{name}/{gname} eps={eps} T={period} {kind:?}");
                        let (both, beat) =
                            check_monotone(kind, g, &uniform, &contended, &cfg, &ctx);
                        if both {
                            compared += 1;
                        }
                        // On the small worked examples the greedy basins
                        // coincide: monotonicity holds outright.
                        assert!(!beat, "{ctx}: contended beat uniform");
                    }
                }
            }
        }
    }
    assert!(compared >= 10, "only {compared} feasible pairs");
}
