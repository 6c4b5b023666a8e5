//! [`Heuristic`] adapters: every baseline strategy as a real
//! [`Schedule`]-emitting entry of the [`FULL`] registry table.
//!
//! The legacy entry points of this crate return strategy-specific outcome
//! types ([`crate::MakespanSchedule`], [`crate::TaskParallelOutcome`],
//! [`crate::DataParallelOutcome`]); the adapters here
//! project each strategy into the pipelined single-item schedule model so
//! it can be dispatched, validated, simulated and searched over exactly
//! like LTF/R-LTF:
//!
//! * [`Heft`] / [`Etf`] — the contention-aware makespan list schedules
//!   over the whole platform, run once per data set (ε = 0 only);
//! * [`TaskParallel`] — Fig. 1(b): `ε+1` disjoint HEFT lanes, each
//!   executing every data set;
//! * [`DataParallel`] — Fig. 1(c): whole graph per processor. The
//!   round-robin stream scaling is not expressible in the single-item
//!   model, so the adapter emits the schedule of the *fastest replica
//!   group* (the one achieving the legacy outcome's latency); the legacy
//!   [`data_parallel()`](crate::data_parallel()) outcome remains the
//!   stream-level analysis;
//! * [`ThroughputFirst`] — the greedy stage partitioning, which already
//!   emits a [`Schedule`].
//!
//! All adapters first run [`PreparedInstance::check`] (a finite positive
//! period, and an instance whose busy time fits an `f64`), then check
//! condition (1) — per-processor compute and port loads within the
//! period — and fail with [`ScheduleError::Overloaded`] naming the
//! violating processor, or [`ScheduleError::Unsupported`] when asked for a
//! replication degree the strategy cannot express.
//!
//! ```
//! use ltf_baselines::full_solver;
//! use ltf_core::AlgoConfig;
//! use ltf_graph::generate::fig1_diamond;
//! use ltf_platform::Platform;
//!
//! let g = fig1_diamond();
//! let p = Platform::fig1_platform();
//! let solver = full_solver(&g, &p); // ltf, rltf, fault-free + 5 baselines
//! let sol = solver.solve("task-parallel", &AlgoConfig::new(1, 39.0)).unwrap();
//! assert_eq!(sol.metrics.epsilon, 1);
//! ```

use crate::makespan::{self, lanes_schedule};
use crate::throughput_first;
use ltf_core::{
    AlgoConfig, FaultFree, Heuristic, Ltf, PreparedInstance, Rltf, ScheduleError, Solver,
};
use ltf_graph::TaskGraph;
use ltf_platform::{Platform, ProcId};
use ltf_schedule::{Schedule, EPS};

/// Reject replication for single-copy strategies.
fn require_epsilon_zero(strategy: &str, cfg: &AlgoConfig) -> Result<(), ScheduleError> {
    if cfg.epsilon != 0 {
        return Err(ScheduleError::Unsupported(format!(
            "{strategy} does not replicate; requested ε = {} (use ε = 0)",
            cfg.epsilon
        )));
    }
    Ok(())
}

/// Condition (1): every processor's cycle time fits the period.
fn check_condition1(p: &Platform, sched: Schedule) -> Result<Schedule, ScheduleError> {
    for u in p.procs() {
        let load = sched.cycle_time(u);
        if load > sched.period() + EPS {
            return Err(ScheduleError::Overloaded {
                proc: u,
                load,
                capacity: sched.period(),
            });
        }
    }
    Ok(sched)
}

/// **HEFT** over the whole platform (ε = 0): upward-rank list scheduling
/// with insertion-based earliest finish time, run once per data set. The
/// *task parallelism* scenario of Fig. 1(b) without replication.
#[derive(Debug, Clone, Copy, Default)]
pub struct Heft;

impl Heuristic for Heft {
    fn name(&self) -> &'static str {
        "heft"
    }

    fn schedule(
        &self,
        inst: &PreparedInstance<'_>,
        cfg: &AlgoConfig,
    ) -> Result<Schedule, ScheduleError> {
        inst.check(cfg)?;
        require_epsilon_zero("heft", cfg)?;
        let (g, p) = (inst.graph(), inst.platform());
        let procs: Vec<ProcId> = p.procs().collect();
        let ms = makespan::heft(g, p, &procs);
        check_condition1(p, lanes_schedule(g, p, &[ms], cfg.period))
    }
}

/// **ETF** over the whole platform (ε = 0): earliest-start-first list
/// scheduling under the one-port model, run once per data set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Etf;

impl Heuristic for Etf {
    fn name(&self) -> &'static str {
        "etf"
    }

    fn schedule(
        &self,
        inst: &PreparedInstance<'_>,
        cfg: &AlgoConfig,
    ) -> Result<Schedule, ScheduleError> {
        inst.check(cfg)?;
        require_epsilon_zero("etf", cfg)?;
        let (g, p) = (inst.graph(), inst.platform());
        let procs: Vec<ProcId> = p.procs().collect();
        let ms = makespan::etf(g, p, &procs);
        check_condition1(p, lanes_schedule(g, p, &[ms], cfg.period))
    }
}

/// **Task parallelism** (Fig. 1(b)): the platform is dealt into `ε+1`
/// disjoint lanes by descending speed; every lane list-schedules (HEFT)
/// the whole DAG per data set. Copy `k` of every task lives on lane `k`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskParallel;

impl Heuristic for TaskParallel {
    fn name(&self) -> &'static str {
        "task-parallel"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["task_parallel"]
    }

    fn schedule(
        &self,
        inst: &PreparedInstance<'_>,
        cfg: &AlgoConfig,
    ) -> Result<Schedule, ScheduleError> {
        inst.check(cfg)?;
        let (g, p) = (inst.graph(), inst.platform());
        let nrep = cfg.replicas();
        if p.num_procs() < nrep {
            return Err(ScheduleError::TooFewProcessors {
                needed: nrep,
                available: p.num_procs(),
            });
        }
        let out = crate::task_parallel(g, p, cfg.epsilon);
        check_condition1(p, lanes_schedule(g, p, &out.lane_schedules, cfg.period))
    }
}

/// **Data parallelism** (Fig. 1(c)): whole graph on single processors.
/// The adapter schedules the *fastest replica group* of the legacy
/// dealing — copy `k` of every task runs sequentially (topological
/// order) on group member `k` — because the single-item pipelined model
/// cannot express the round-robin throughput multiplication over groups.
#[derive(Debug, Clone, Copy, Default)]
pub struct DataParallel;

impl Heuristic for DataParallel {
    fn name(&self) -> &'static str {
        "data-parallel"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["data_parallel"]
    }

    fn schedule(
        &self,
        inst: &PreparedInstance<'_>,
        cfg: &AlgoConfig,
    ) -> Result<Schedule, ScheduleError> {
        inst.check(cfg)?;
        let (g, p) = (inst.graph(), inst.platform());
        let nrep = cfg.replicas();
        if p.num_procs() < nrep {
            return Err(ScheduleError::TooFewProcessors {
                needed: nrep,
                available: p.num_procs(),
            });
        }
        let out = crate::data_parallel(g, p, cfg.epsilon);
        // Group 0 holds the overall fastest processor, so it attains the
        // legacy outcome's (fastest-member) latency. Each member is a lane
        // running the whole graph sequentially.
        let mut lanes = Vec::with_capacity(nrep);
        for &u in &out.groups[0] {
            let lane = makespan::sequential(g, p, u);
            if lane.makespan > cfg.period + EPS {
                return Err(ScheduleError::Overloaded {
                    proc: u,
                    load: lane.makespan,
                    capacity: cfg.period,
                });
            }
            lanes.push(lane);
        }
        Ok(lanes_schedule(g, p, &lanes, cfg.period))
    }
}

/// **Throughput-first** greedy stage partitioning (§3 related work
/// flavour): satisfies the throughput constraint first-fit with no
/// replication and no latency objective.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThroughputFirst;

impl Heuristic for ThroughputFirst {
    fn name(&self) -> &'static str {
        "throughput-first"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["throughput_first"]
    }

    fn schedule(
        &self,
        inst: &PreparedInstance<'_>,
        cfg: &AlgoConfig,
    ) -> Result<Schedule, ScheduleError> {
        inst.check(cfg)?;
        require_epsilon_zero("throughput-first", cfg)?;
        throughput_first(inst.graph(), inst.platform(), cfg.period).map_err(|e| {
            ScheduleError::Infeasible {
                task: e.task,
                copy: 0,
            }
        })
    }
}

/// The full strategy family, in registration order: the
/// [`ltf_core::BUILTIN`] entries `ltf`, `rltf` and `fault-free`, then the
/// five baselines `heft`, `etf`, `task-parallel`, `data-parallel` and
/// `throughput-first`.
pub static FULL: [&dyn Heuristic; 8] = [
    &Ltf,
    &Rltf,
    &FaultFree,
    &Heft,
    &Etf,
    &TaskParallel,
    &DataParallel,
    &ThroughputFirst,
];

/// A [`Solver`] session over [`FULL`].
pub fn full_solver<'a>(g: &'a TaskGraph, p: &'a Platform) -> Solver<'a> {
    Solver::new(g, p, &FULL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltf_graph::generate::fig1_diamond;
    use ltf_schedule::{validate, ReplicaId};

    fn fig1() -> (TaskGraph, Platform) {
        (fig1_diamond(), Platform::fig1_platform())
    }

    #[test]
    fn full_solver_registers_eight_names() {
        let (g, p) = fig1();
        let solver = full_solver(&g, &p);
        assert_eq!(
            solver.names(),
            vec![
                "ltf",
                "rltf",
                "fault-free",
                "heft",
                "etf",
                "task-parallel",
                "data-parallel",
                "throughput-first",
            ]
        );
    }

    #[test]
    fn heft_adapter_emits_valid_schedule() {
        let (g, p) = fig1();
        let solver = full_solver(&g, &p);
        let sol = solver.solve("heft", &AlgoConfig::new(0, 40.0)).unwrap();
        validate(&g, &p, &sol.schedule).expect("valid");
        assert_eq!(sol.metrics.epsilon, 0);
        // Makespan list schedule over the full platform: every task done
        // within the HEFT makespan.
        assert!(sol.metrics.achieved_throughput >= 1.0 / 40.0 - 1e-12);
    }

    #[test]
    fn heft_adapter_rejects_replication() {
        let (g, p) = fig1();
        let solver = full_solver(&g, &p);
        let err = solver.solve("heft", &AlgoConfig::new(1, 40.0)).unwrap_err();
        assert!(matches!(err.error, ScheduleError::Unsupported(_)));
    }

    #[test]
    fn task_parallel_adapter_matches_legacy_lanes() {
        let (g, p) = fig1();
        let solver = full_solver(&g, &p);
        // Paper Fig. 1(b): both mirror lanes reach makespan 39.
        let sol = solver
            .solve("task-parallel", &AlgoConfig::new(1, 39.0))
            .unwrap();
        validate(&g, &p, &sol.schedule).expect("valid");
        let legacy = crate::task_parallel(&g, &p, 1);
        for (k, ls) in legacy.lane_schedules.iter().enumerate() {
            for t in g.tasks() {
                let r = ReplicaId::new(t, k as u8);
                assert_eq!(sol.schedule.proc(r), ls.proc_of[t.index()]);
                assert_eq!(sol.schedule.start(r), ls.start[t.index()]);
                assert_eq!(sol.schedule.finish(r), ls.finish[t.index()]);
            }
        }
        // Condition (1) is per-processor load, not lane makespan: the
        // busiest lane processor carries 30 time units, so Δ = 25 fails.
        let err = solver
            .solve("task-parallel", &AlgoConfig::new(1, 25.0))
            .unwrap_err();
        assert!(matches!(err.error, ScheduleError::Overloaded { .. }));
    }

    #[test]
    fn data_parallel_adapter_matches_legacy_group() {
        let (g, p) = fig1();
        let solver = full_solver(&g, &p);
        // Fig. 1(c): fastest group finishes the whole graph in 40, the
        // slow member needs 60 — feasible from Δ = 60 up.
        let sol = solver
            .solve("data-parallel", &AlgoConfig::new(1, 60.0))
            .unwrap();
        validate(&g, &p, &sol.schedule).expect("valid");
        assert_eq!(sol.metrics.stages, 1);
        assert_eq!(sol.metrics.comm_count, 0);
        let legacy = crate::data_parallel(&g, &p, 1);
        for (k, &u) in legacy.groups[0].iter().enumerate() {
            for t in g.tasks() {
                assert_eq!(sol.schedule.proc(ReplicaId::new(t, k as u8)), u);
            }
        }
        let err = solver
            .solve("data-parallel", &AlgoConfig::new(1, 50.0))
            .unwrap_err();
        assert!(matches!(err.error, ScheduleError::Overloaded { .. }));
    }

    #[test]
    fn throughput_first_adapter_matches_legacy() {
        let (g, p) = fig1();
        let solver = full_solver(&g, &p);
        let sol = solver
            .solve("throughput-first", &AlgoConfig::new(0, 30.0))
            .unwrap();
        let legacy = throughput_first(&g, &p, 30.0).unwrap();
        assert_eq!(sol.metrics.stages, legacy.num_stages());
        for r in legacy.replicas() {
            assert_eq!(sol.schedule.proc(r), legacy.proc(r));
            assert_eq!(sol.schedule.start(r), legacy.start(r));
        }
    }

    #[test]
    fn too_few_processors_is_typed() {
        let g = fig1_diamond();
        let p = Platform::homogeneous(1, 1.0, 1.0);
        let solver = full_solver(&g, &p);
        for name in ["task-parallel", "data-parallel"] {
            let err = solver.solve(name, &AlgoConfig::new(1, 100.0)).unwrap_err();
            assert!(
                matches!(err.error, ScheduleError::TooFewProcessors { .. }),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn bad_periods_rejected_like_core() {
        // NaN/∞/non-positive periods must be BadConfig, not a vacuous
        // pass through the `load > period` overload checks.
        let (g, p) = fig1();
        let solver = full_solver(&g, &p);
        for period in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
            for name in solver.names() {
                let eps = u8::from(matches!(name, "task-parallel" | "data-parallel"));
                let err = solver
                    .solve(name, &AlgoConfig::new(eps, period))
                    .unwrap_err();
                assert!(
                    matches!(err.error, ScheduleError::BadConfig(_)),
                    "{name} at Δ={period}: {err}"
                );
            }
        }
    }
}
