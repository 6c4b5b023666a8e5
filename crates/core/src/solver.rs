//! The unified scheduling API: pluggable [`Heuristic`] strategies behind a
//! [`Solver`] session with typed [`Solution`] / [`Diagnostics`] outcomes.
//!
//! The paper contributes a *family* of period/latency/replication
//! trade-offs — LTF, R-LTF, the fault-free reference, and the baseline
//! execution scenarios it compares against. This module exposes them (and
//! any user strategy) through one composable surface:
//!
//! * [`Heuristic`] — one mapping strategy: a name plus
//!   `schedule(&PreparedInstance, &AlgoConfig) -> Result<Schedule, _>`.
//!   [`Ltf`], [`Rltf`] and [`FaultFree`] implement it here, and also
//!   report the [`PeriodWindow`] their runs hold in
//!   ([`Heuristic::schedule_windowed`]); the `ltf-baselines` crate
//!   implements it for the comparison strategies.
//! * [`Solver`] — a session owning a [`PreparedInstance`] (the reversed
//!   graph and level caches are derived lazily, once) over a static
//!   registry table of heuristics addressable by name ([`BUILTIN`] here,
//!   `ltf_baselines::FULL` for the whole family), so CLIs and experiment
//!   sweeps dispatch uniformly. [`lookup`] resolves a name in any table.
//! * [`Solution`] — a schedule bundled with its derived metrics and the
//!   name of the heuristic that produced it.
//! * [`Diagnostics`] — a [`ScheduleError`] bundled with the context it
//!   occurred in (heuristic, ε, period).
//!
//! ```
//! use ltf_core::{AlgoConfig, Solver};
//! use ltf_graph::generate::fig2_workflow_variant;
//! use ltf_platform::Platform;
//!
//! let g = fig2_workflow_variant();
//! let p = Platform::homogeneous(8, 1.0, 1.0);
//! let solver = Solver::builtin(&g, &p);
//! let cfg = AlgoConfig::with_throughput(1, 0.05); // ε = 1, T = 0.05
//! let sol = solver.solve("rltf", &cfg).unwrap();
//! assert!(sol.metrics.latency_upper_bound <= 140.0);
//! ```

use crate::api::{self, PreparedInstance};
use crate::config::{AlgoConfig, AlgoKind, PeriodWindow, ScheduleError};
use ltf_graph::TaskGraph;
use ltf_platform::Platform;
use ltf_schedule::Schedule;
use serde::{Deserialize, Serialize};

/// One mapping strategy: everything the [`Solver`], the objective-space
/// searches and the experiment harness need to drive an algorithm.
///
/// Implementations must be deterministic in `(instance, cfg)`: the
/// differential test suite holds every registered heuristic to
/// reproducing its legacy entry point bit for bit.
pub trait Heuristic: Send + Sync {
    /// Canonical registry name (lower-case, kebab-case), e.g. `"rltf"`.
    /// [`Solver`] lookup is case-insensitive over this name and
    /// [`Heuristic::aliases`].
    fn name(&self) -> &'static str;

    /// Alternative lookup names (e.g. `"r-ltf"`, `"ff"`).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// Map the instance under `cfg`, producing a complete replicated
    /// pipelined [`Schedule`] or a typed [`ScheduleError`].
    fn schedule(
        &self,
        inst: &PreparedInstance<'_>,
        cfg: &AlgoConfig,
    ) -> Result<Schedule, ScheduleError>;

    /// [`Heuristic::schedule`], plus the [`PeriodWindow`] the run's
    /// decisions hold in. Searches that probe one instance at many periods
    /// reuse a windowed verdict for every period the window admits.
    ///
    /// Contract: return a window only when `cfg.period` enters the run
    /// solely through the comparisons recorded in it. A run at any admitted
    /// period must then reproduce this verdict, and this schedule apart
    /// from its period. The default returns no window, so a strategy with
    /// period logic of its own, or a wrapper that re-solves, is solved at
    /// every probed period.
    fn schedule_windowed(&self, inst: &PreparedInstance<'_>, cfg: &AlgoConfig) -> Windowed {
        (self.schedule(inst, cfg), None)
    }
}

/// A verdict with the [`PeriodWindow`] it holds in, if the heuristic
/// reports one ([`Heuristic::schedule_windowed`]).
pub type Windowed = (Result<Schedule, ScheduleError>, Option<PeriodWindow>);

/// **LTF** (paper §4.1): forward chunked traversal by priority `tℓ + bℓ`,
/// one-to-one replica mapping while singleton processors remain,
/// minimum-finish-time placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ltf;

impl Heuristic for Ltf {
    fn name(&self) -> &'static str {
        "ltf"
    }

    fn schedule(
        &self,
        inst: &PreparedInstance<'_>,
        cfg: &AlgoConfig,
    ) -> Result<Schedule, ScheduleError> {
        api::ltf_cached(inst, cfg).0
    }

    fn schedule_windowed(&self, inst: &PreparedInstance<'_>, cfg: &AlgoConfig) -> Windowed {
        api::ltf_cached(inst, cfg)
    }
}

/// **R-LTF** (paper §4.2): the same machinery driven bottom-up, with
/// Rule 1 (prefer placements that keep the pipeline stage count from
/// growing) and Rule 2 (one-to-one spreading across linear chain
/// sections). The paper's evaluation shows R-LTF dominating LTF.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rltf;

impl Heuristic for Rltf {
    fn name(&self) -> &'static str {
        "rltf"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["r-ltf"]
    }

    fn schedule(
        &self,
        inst: &PreparedInstance<'_>,
        cfg: &AlgoConfig,
    ) -> Result<Schedule, ScheduleError> {
        api::rltf_cached(inst, cfg).0
    }

    fn schedule_windowed(&self, inst: &PreparedInstance<'_>, cfg: &AlgoConfig) -> Windowed {
        api::rltf_cached(inst, cfg)
    }
}

/// The **fault-free reference** of §5: R-LTF with the fault-tolerance
/// degree forced to `ε = 0` (a completely safe system). All other knobs of
/// the passed [`AlgoConfig`] (period, seed, ablation switches) are
/// honoured. The paper's overhead metric is `(L_algo − L_FF) / L_FF`
/// against this schedule's latency.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultFree;

impl Heuristic for FaultFree {
    fn name(&self) -> &'static str {
        "fault-free"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["ff", "fault_free"]
    }

    fn schedule(
        &self,
        inst: &PreparedInstance<'_>,
        cfg: &AlgoConfig,
    ) -> Result<Schedule, ScheduleError> {
        self.schedule_windowed(inst, cfg).0
    }

    /// R-LTF's window: the period reaches the ε = 0 run unchanged.
    fn schedule_windowed(&self, inst: &PreparedInstance<'_>, cfg: &AlgoConfig) -> Windowed {
        let mut cfg = cfg.clone();
        cfg.epsilon = 0;
        api::rltf_cached(inst, &cfg)
    }
}

impl AlgoKind {
    /// Registry name of the corresponding built-in heuristic.
    pub fn name(self) -> &'static str {
        match self {
            AlgoKind::Ltf => "ltf",
            AlgoKind::Rltf => "rltf",
        }
    }

    /// The corresponding built-in [`Heuristic`] as a trait object (handy
    /// for the objective-space searches and for migrating `AlgoKind`-based
    /// call sites).
    pub fn heuristic(self) -> &'static dyn Heuristic {
        match self {
            AlgoKind::Ltf => &Ltf,
            AlgoKind::Rltf => &Rltf,
        }
    }
}

/// Derived metrics of a [`Solution`], serializable for reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolutionMetrics {
    /// Fault-tolerance degree ε of the schedule.
    pub epsilon: u8,
    /// Iteration period `Δ` the schedule guarantees.
    pub period: f64,
    /// Requested throughput `T = 1/Δ`.
    pub throughput: f64,
    /// Throughput actually achievable by the mapping, `1 / max_u ∆_u`.
    pub achieved_throughput: f64,
    /// Pipeline stage count `S`.
    pub stages: u32,
    /// Guaranteed latency `L = (2S − 1)·Δ`.
    pub latency_upper_bound: f64,
    /// Distinct processors hosting at least one replica.
    pub procs_used: usize,
    /// Inter-processor messages per data set.
    pub comm_count: usize,
}

/// A successful [`Solver`] outcome: the [`Schedule`] bundled with its
/// derived metrics and the canonical name of the heuristic that produced
/// it.
///
/// Serializes (via the workspace `serde`) as a flat report of the
/// heuristic name and metrics; use
/// [`ltf_schedule::export::summarize`] on [`Solution::schedule`] for the
/// full placement detail.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Canonical name of the producing heuristic.
    pub heuristic: String,
    /// Metrics derived from the schedule at solve time.
    pub metrics: SolutionMetrics,
    /// The complete replicated pipelined schedule.
    pub schedule: Schedule,
}

impl Solution {
    /// Bundle a schedule produced by `heuristic` with its derived metrics.
    pub fn new(heuristic: &str, schedule: Schedule) -> Self {
        let metrics = SolutionMetrics {
            epsilon: schedule.epsilon(),
            period: schedule.period(),
            throughput: schedule.throughput(),
            achieved_throughput: schedule.achieved_throughput(),
            stages: schedule.num_stages(),
            latency_upper_bound: schedule.latency_upper_bound(),
            procs_used: schedule.procs_used(),
            comm_count: schedule.comm_count(),
        };
        Self {
            heuristic: heuristic.to_string(),
            metrics,
            schedule,
        }
    }

    /// Consume the report, keeping only the schedule.
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }
}

impl Serialize for Solution {
    fn serialize<S: serde::Sink>(&self, s: &mut S) {
        s.begin_map();
        s.entry("heuristic", &self.heuristic);
        serde::serialize_fields(&self.metrics, s);
        s.end_map();
    }
}

impl std::fmt::Display for Solution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = &self.metrics;
        write!(
            f,
            "{}: ε={} Δ={:.3} S={} L≤{:.3} procs={} comms={} (achievable T {:.5})",
            self.heuristic,
            m.epsilon,
            m.period,
            m.stages,
            m.latency_upper_bound,
            m.procs_used,
            m.comm_count,
            m.achieved_throughput,
        )
    }
}

/// A failed [`Solver`] outcome: the underlying [`ScheduleError`] plus the
/// context it occurred in — which heuristic, at which fault-tolerance
/// degree and period. The error itself names the task/replica that failed
/// to place when one exists.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostics {
    /// Name the heuristic was addressed by (canonical when known).
    pub heuristic: String,
    /// Fault-tolerance degree ε of the failed request.
    pub epsilon: u8,
    /// Period `Δ` of the failed request.
    pub period: f64,
    /// The underlying typed error.
    pub error: ScheduleError,
}

impl Diagnostics {
    /// Attach request context to a [`ScheduleError`].
    pub fn new(heuristic: &str, cfg: &AlgoConfig, error: ScheduleError) -> Self {
        Self {
            heuristic: heuristic.to_string(),
            epsilon: cfg.epsilon,
            period: cfg.period,
            error,
        }
    }
}

impl std::fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failed at ε={}, Δ={:.4}: {}",
            self.heuristic, self.epsilon, self.period, self.error
        )
    }
}

impl std::error::Error for Diagnostics {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The paper's own strategies, in registration order: [`Ltf`], [`Rltf`]
/// and [`FaultFree`]. `ltf_baselines::FULL` starts with these three and
/// appends the comparison baselines.
pub static BUILTIN: [&dyn Heuristic; 3] = [&Ltf, &Rltf, &FaultFree];

/// Look a heuristic up in a registry table by canonical name or alias,
/// case-insensitively. Canonical names win over aliases, so an entry is
/// always reachable by its own name even when an earlier entry carries
/// that name as an alias.
pub fn lookup<'r>(registry: &[&'r dyn Heuristic], name: &str) -> Option<&'r dyn Heuristic> {
    let is = |s: &str| s.eq_ignore_ascii_case(name);
    let by_name = registry.iter().find(|h| is(h.name()));
    by_name
        .or_else(|| registry.iter().find(|h| h.aliases().iter().any(|a| is(a))))
        .copied()
}

/// A scheduling session over one `(graph, platform)` instance: owns a
/// [`PreparedInstance`] (lazy, shared derivations) and solves with the
/// [`Heuristic`]s of a static registry table, addressable by name.
///
/// ```
/// use ltf_core::{AlgoConfig, Solver};
/// use ltf_graph::generate::fig1_diamond;
/// use ltf_platform::Platform;
///
/// let g = fig1_diamond();
/// let p = Platform::fig1_platform();
/// let solver = Solver::builtin(&g, &p);
/// let sol = solver.solve("rltf", &AlgoConfig::new(1, 30.0)).unwrap();
/// assert_eq!(sol.metrics.stages, 2); // the paper's S = 2, L = 90
/// let err = solver.solve("rltf", &AlgoConfig::new(3, 4.0)).unwrap_err();
/// assert_eq!(err.epsilon, 3); // diagnostics carry the request context
/// ```
pub struct Solver<'a> {
    inst: PreparedInstance<'a>,
    registry: &'static [&'static dyn Heuristic],
}

impl<'a> Solver<'a> {
    /// A session dispatching over `registry`. A custom strategy joins a
    /// table of its own (`static MINE: [&dyn Heuristic; 2] = [&Rltf, &Mine];`)
    /// or runs unregistered through [`Solver::solve_with`].
    pub fn new(
        g: &'a TaskGraph,
        p: &'a Platform,
        registry: &'static [&'static dyn Heuristic],
    ) -> Self {
        Self {
            inst: PreparedInstance::new(g, p),
            registry,
        }
    }

    /// A session over [`BUILTIN`], the paper's own strategies
    /// (`ltf_baselines::full_solver` adds the comparison baselines).
    pub fn builtin(g: &'a TaskGraph, p: &'a Platform) -> Self {
        Self::new(g, p, &BUILTIN)
    }

    /// The prepared instance this session solves over.
    pub fn instance(&self) -> &PreparedInstance<'a> {
        &self.inst
    }

    /// The application graph of the session.
    pub fn graph(&self) -> &TaskGraph {
        self.inst.graph()
    }

    /// The platform of the session.
    pub fn platform(&self) -> &Platform {
        self.inst.platform()
    }

    /// Canonical names of the registered heuristics, in registration
    /// order.
    pub fn names(&self) -> Vec<&'static str> {
        self.registry.iter().map(|h| h.name()).collect()
    }

    /// All registered heuristics, in registration order.
    pub fn heuristics(&self) -> &'static [&'static dyn Heuristic] {
        self.registry
    }

    /// Look a heuristic up by canonical name or alias (see [`lookup`]).
    pub fn heuristic(&self, name: &str) -> Option<&'static dyn Heuristic> {
        lookup(self.registry, name)
    }

    /// Solve with the named heuristic. Unknown names yield
    /// [`ScheduleError::UnknownHeuristic`] diagnostics.
    pub fn solve(&self, name: &str, cfg: &AlgoConfig) -> Result<Solution, Diagnostics> {
        match self.heuristic(name) {
            Some(h) => self.solve_with(h, cfg),
            None => Err(Diagnostics::new(
                name,
                cfg,
                ScheduleError::UnknownHeuristic(name.to_string()),
            )),
        }
    }

    /// Solve with an explicit heuristic (it does not need to be
    /// registered), reusing the session's cached derivations.
    pub fn solve_with(&self, h: &dyn Heuristic, cfg: &AlgoConfig) -> Result<Solution, Diagnostics> {
        h.schedule(&self.inst, cfg)
            .map(|s| Solution::new(h.name(), s))
            .map_err(|e| Diagnostics::new(h.name(), cfg, e))
    }

    /// Solve with every registered heuristic, in registration order.
    /// Infeasibilities are per-heuristic outcomes, not a sweep failure.
    pub fn solve_all(&self, cfg: &AlgoConfig) -> Vec<Result<Solution, Diagnostics>> {
        self.registry
            .iter()
            .map(|h| self.solve_with(*h, cfg))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltf_graph::generate::fig2_workflow_variant;

    fn fixture() -> (TaskGraph, Platform) {
        (fig2_workflow_variant(), Platform::homogeneous(8, 1.0, 1.0))
    }

    #[test]
    fn builtin_names_and_aliases_resolve() {
        let (g, p) = fixture();
        let solver = Solver::builtin(&g, &p);
        assert_eq!(solver.names(), vec!["ltf", "rltf", "fault-free"]);
        for name in ["ltf", "LTF", "rltf", "R-LTF", "fault-free", "FF"] {
            assert!(solver.heuristic(name).is_some(), "{name} should resolve");
        }
        assert!(solver.heuristic("nope").is_none());
    }

    #[test]
    fn solve_matches_direct_heuristic_call() {
        let (g, p) = fixture();
        let solver = Solver::builtin(&g, &p);
        let cfg = AlgoConfig::with_throughput(1, 0.05);
        let sol = solver.solve("rltf", &cfg).expect("feasible");
        let direct = Rltf.schedule(solver.instance(), &cfg).expect("feasible");
        assert_eq!(sol.metrics.stages, direct.num_stages());
        assert_eq!(
            sol.metrics.latency_upper_bound,
            direct.latency_upper_bound()
        );
        assert_eq!(sol.heuristic, "rltf");
    }

    #[test]
    fn fault_free_forces_epsilon_zero() {
        let (g, p) = fixture();
        let solver = Solver::builtin(&g, &p);
        let cfg = AlgoConfig::new(3, 20.0);
        let sol = solver.solve("ff", &cfg).expect("ε=0 feasible");
        assert_eq!(sol.metrics.epsilon, 0);
        assert_eq!(sol.heuristic, "fault-free");
    }

    #[test]
    fn unknown_heuristic_is_typed() {
        let (g, p) = fixture();
        let solver = Solver::builtin(&g, &p);
        let err = solver.solve("zeus", &AlgoConfig::new(0, 1.0)).unwrap_err();
        assert!(matches!(err.error, ScheduleError::UnknownHeuristic(_)));
        assert!(err.to_string().contains("zeus"));
    }

    #[test]
    fn diagnostics_carry_context() {
        // R-LTF fails on the text-pinned fig2 reconstruction with m = 8
        // (see tests/fig2_worked.rs): the diagnostics must say which
        // replica could not be placed, under which request.
        let g = ltf_graph::generate::fig2_workflow();
        let p = Platform::homogeneous(8, 1.0, 1.0);
        let solver = Solver::builtin(&g, &p);
        let cfg = AlgoConfig::with_throughput(1, 0.05);
        let err = solver.solve("rltf", &cfg).unwrap_err();
        assert_eq!(err.heuristic, "rltf");
        assert_eq!(err.epsilon, 1);
        assert!((err.period - 20.0).abs() < 1e-12);
        assert!(matches!(err.error, ScheduleError::Infeasible { .. }));
        assert!(err.to_string().contains("rltf failed at ε=1"));
    }

    #[test]
    fn canonical_name_wins_over_alias() {
        // A heuristic whose canonical name collides with an earlier
        // entry's alias must stay reachable by its own name.
        struct Ff;
        impl Heuristic for Ff {
            fn name(&self) -> &'static str {
                "ff"
            }
            fn schedule(
                &self,
                inst: &PreparedInstance<'_>,
                cfg: &AlgoConfig,
            ) -> Result<Schedule, ScheduleError> {
                Rltf.schedule(inst, cfg)
            }
        }
        static TABLE: [&dyn Heuristic; 4] = [&Ltf, &Rltf, &FaultFree, &Ff];
        // "ff" resolves to the new entry (canonical beats FaultFree's
        // alias), in any case; "fault-free" still reaches the built-in.
        assert_eq!(lookup(&TABLE, "ff").unwrap().name(), "ff");
        assert_eq!(lookup(&TABLE, "FF").unwrap().name(), "ff");
        assert_eq!(lookup(&TABLE, "fault-free").unwrap().name(), "fault-free");
        assert_eq!(lookup(&TABLE, "fault_free").unwrap().name(), "fault-free");
        assert!(lookup(&TABLE, "nope").is_none());
        let (g, p) = fixture();
        let solver = Solver::new(&g, &p, &TABLE);
        let sol = solver
            .solve("ff", &AlgoConfig::with_throughput(1, 0.05))
            .expect("feasible");
        assert_eq!(sol.heuristic, "ff");
        assert_eq!(sol.metrics.epsilon, 1, "not FaultFree's forced ε = 0");
    }

    #[test]
    fn solve_all_covers_registry() {
        let (g, p) = fixture();
        let solver = Solver::builtin(&g, &p);
        let outcomes = solver.solve_all(&AlgoConfig::with_throughput(1, 0.05));
        assert_eq!(outcomes.len(), 3);
        for (out, name) in outcomes.iter().zip(["ltf", "rltf", "fault-free"]) {
            let sol = out.as_ref().expect("variant feasible for all built-ins");
            assert_eq!(sol.heuristic, name);
        }
    }

    #[test]
    fn solution_serializes_flat() {
        let (g, p) = fixture();
        let solver = Solver::builtin(&g, &p);
        let sol = solver
            .solve("rltf", &AlgoConfig::with_throughput(1, 0.05))
            .expect("feasible");
        let json = serde_json::to_string(&sol).unwrap();
        assert!(json.contains("\"heuristic\":\"rltf\""));
        assert!(json.contains("\"latency_upper_bound\""));
        assert!(json.contains("\"procs_used\""));
    }

    #[test]
    fn algokind_bridges() {
        assert_eq!(AlgoKind::Ltf.name(), "ltf");
        assert_eq!(AlgoKind::Rltf.heuristic().name(), "rltf");
    }
}
