//! Objective-space searches around any [`Heuristic`].
//!
//! The paper's conclusion lists "symmetric" problems: maximizing throughput
//! for a given latency and failure count, and maximizing the number of
//! supported failures for given latency/throughput. These searches drive
//! a heuristic as an oracle:
//!
//! * [`min_period`] — smallest feasible period (largest throughput),
//!   optionally under a latency budget, by exponential + binary search;
//! * [`max_epsilon`] — largest fault-tolerance degree schedulable at a
//!   given period (and optional latency budget);
//! * [`min_processors`] — smallest prefix of the platform that still
//!   schedules the workload.
//!
//! All three take `&dyn Heuristic`, so they sweep the paper's algorithms
//! and the `ltf-baselines` comparison strategies alike:
//!
//! ```
//! use ltf_core::search::{min_period, SearchOptions};
//! use ltf_core::{Ltf, Rltf};
//! use ltf_graph::generate::fig1_diamond;
//! use ltf_platform::Platform;
//!
//! let g = fig1_diamond();
//! let p = Platform::fig1_platform();
//! let opts = SearchOptions::default();
//! let (t_rltf, _) = min_period(&g, &p, &Rltf, &opts).unwrap();
//! let (t_ltf, _) = min_period(&g, &p, &Ltf, &opts).unwrap();
//! assert!(t_rltf > 0.0 && t_ltf > 0.0);
//! ```
//!
//! The heuristics are not monotone oracles in general, so the results are
//! best-effort (exact for the search points actually probed); this matches
//! how the binary-search-over-period technique is used in the literature
//! (Hoang & Rabaey).
//!
//! All searches probe one instance many times, so they run through
//! [`PreparedInstance`]: the reversed graph and the platform-averaged
//! level caches are derived once per `(graph, platform)` and shared by
//! every candidate probe instead of being rebuilt per schedule attempt.
//!
//! # Probes that repeat a run
//!
//! The period `Δ` enters an LTF/R-LTF run only through condition (1)'s
//! four checks in the engine's probe, each the float expression
//! `v > Δ + EPS` (`EPS` = 1e-6) on the compute load `σ_u + w`, a route
//! link's load (Contended platforms), the output port load `C^O` and the
//! input port load `C^I`. Nothing else reads `Δ`, and the schedule only
//! stores it. So a run at `Δ'` makes exactly the decisions of a run at
//! `Δ` whenever every value the run checked lands on the same side of
//! `Δ' + EPS`: the largest value that passed must not exceed it, the
//! smallest that failed must still exceed it. That is the run's
//! [`PeriodWindow`](crate::PeriodWindow), returned by
//! [`Heuristic::schedule_windowed`]; it has to use the engine's own
//! expression, since any other tolerance misjudges values that sit
//! within a rounding error of the boundary.
//!
//! A window records only the candidates the run probed. The placement
//! scans skip candidates whose period-free lower bound cannot beat the
//! incumbent, and a skipped candidate checks nothing. The window is still
//! exact: at any period it admits, every probed candidate passes or fails
//! as before, the same incumbents arise and the same candidates are
//! skipped, and a skipped one cannot win at any period.
//!
//! [`min_period_prepared`] and the Pareto cells answer each probe through
//! a memo of the windowed runs of their cell: a probe inside a recorded
//! window takes that run's verdict, a feasible one moved to the probed
//! period with [`Schedule::with_period`] and checked against the latency
//! budget again. On the Pareto campaigns about 73 % of the probes land in
//! an earlier probe's window. The baselines report no window: they read
//! `Δ` in checks of their own (whole-mapping load checks, period-driven
//! placement), which no window records, so every probe of a baseline, or
//! of any wrapper that only forwards [`Heuristic::schedule`], is solved.
//! [`max_epsilon`] and [`min_processors`] never probe one cell twice and
//! solve every probe too.
//!
//! The [`pareto`] submodule composes these single-objective searches into
//! a multi-objective enumerator over (latency, period, ε, processor
//! count).

mod memo;
pub mod pareto;

use crate::api::PreparedInstance;
use crate::config::AlgoConfig;
use crate::solver::Heuristic;
use ltf_graph::TaskGraph;
use ltf_platform::Platform;
use ltf_schedule::Schedule;
use memo::ProbeMemo;

/// Options shared by the objective-space searches.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Fault-tolerance degree.
    pub epsilon: u8,
    /// Optional latency budget: candidate schedules whose guaranteed
    /// latency exceeds it are treated as infeasible.
    pub max_latency: Option<f64>,
    /// Binary search iterations after bracketing (relative precision
    /// halves per iteration).
    pub iterations: u32,
    /// Tie-breaking seed passed to the heuristic.
    pub seed: u64,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            epsilon: 0,
            max_latency: None,
            iterations: 40,
            seed: 0xC0FFEE,
        }
    }
}

fn try_period(
    prep: &PreparedInstance<'_>,
    h: &dyn Heuristic,
    opts: &SearchOptions,
    period: f64,
) -> Option<Schedule> {
    let cfg = AlgoConfig::new(opts.epsilon, period).seeded(opts.seed);
    within_budget(h.schedule(prep, &cfg).ok()?, opts)
}

/// `sched`, unless its guaranteed latency exceeds the latency budget.
fn within_budget(sched: Schedule, opts: &SearchOptions) -> Option<Schedule> {
    match opts.max_latency {
        Some(budget) if sched.latency_upper_bound() > budget => None,
        _ => Some(sched),
    }
}

/// Smallest feasible period (i.e. maximal throughput) for the workload
/// under heuristic `h`, as found by exponential bracketing plus binary
/// search. Returns the period and the witnessing schedule, or `None` when
/// even very long periods are infeasible (e.g. a latency budget that can
/// never be met).
pub fn min_period(
    g: &TaskGraph,
    p: &Platform,
    h: &dyn Heuristic,
    opts: &SearchOptions,
) -> Option<(f64, Schedule)> {
    let prep = PreparedInstance::new(g, p);
    min_period_prepared(&prep, h, opts)
}

/// [`min_period`] over an already-prepared instance, sharing its cached
/// derivations with the caller. The Pareto enumerator probes every
/// `(ε, prefix)` cell of one prefix platform through the same
/// [`PreparedInstance`], so the reversed graph and level caches are built
/// once per prefix rather than once per cell.
pub fn min_period_prepared(
    prep: &PreparedInstance<'_>,
    h: &dyn Heuristic,
    opts: &SearchOptions,
) -> Option<(f64, Schedule)> {
    min_period_in(prep, h, opts, &mut ProbeMemo::default())
}

/// [`min_period_prepared`] with every probe answered through `memo`, the
/// probe memo of the caller's cell.
fn min_period_in(
    prep: &PreparedInstance<'_>,
    h: &dyn Heuristic,
    opts: &SearchOptions,
    memo: &mut ProbeMemo,
) -> Option<(f64, Schedule)> {
    let (g, p) = (prep.graph(), prep.platform());
    // Absolute lower bound: every task must fit on its fastest processor,
    // and the replicated total work must fit the aggregate capacity.
    let per_task = g
        .tasks()
        .map(|t| g.exec(t) / p.max_speed())
        .fold(0.0f64, f64::max);
    let total_speed: f64 = p.procs().map(|u| p.speed(u)).sum();
    let work_bound = (opts.epsilon as f64 + 1.0) * g.total_exec() / total_speed;
    let lower = per_task.max(work_bound).max(f64::MIN_POSITIVE);

    // Bracket a feasible period. Doubling from a large lower bound can
    // overflow to +inf well before the 60 attempts run out (e.g. huge
    // execution times, or a latency budget no period can meet); probing
    // the heuristic with a non-finite period is meaningless, so give up
    // cleanly instead.
    let mut hi = lower.max(1e-12);
    let mut witness = None;
    for _ in 0..60 {
        if !hi.is_finite() {
            return None;
        }
        if let Some(s) = memo.try_period(prep, h, opts, hi) {
            witness = Some(s);
            break;
        }
        hi *= 2.0;
    }
    let mut best = witness?;
    let mut lo = lower;
    let mut hi_p = best.period();
    for _ in 0..opts.iterations {
        let mid = 0.5 * (lo + hi_p);
        if mid <= lo || mid >= hi_p {
            break;
        }
        match memo.try_period(prep, h, opts, mid) {
            Some(s) => {
                hi_p = mid;
                best = s;
            }
            None => lo = mid,
        }
    }
    Some((best.period(), best))
}

/// Largest fault-tolerance degree ε for which heuristic `h` schedules the
/// workload at the given period.
///
/// Heuristic feasibility is **not** guaranteed monotone in ε (e.g. the
/// data-parallel baseline projects one replica group, so a larger ε can
/// succeed where a smaller one starved a processor), so the whole
/// `0..=m−1` range is scanned — it is at most `m` cheap probes — and the
/// largest success is returned rather than stopping at the first failure.
pub fn max_epsilon(
    g: &TaskGraph,
    p: &Platform,
    h: &dyn Heuristic,
    period: f64,
    max_latency: Option<f64>,
    seed: u64,
) -> Option<(u8, Schedule)> {
    let prep = PreparedInstance::new(g, p);
    let mut best = None;
    let cap = (p.num_procs() - 1).min(u8::MAX as usize) as u8;
    for eps in 0..=cap {
        let opts = SearchOptions {
            epsilon: eps,
            max_latency,
            seed,
            ..Default::default()
        };
        if let Some(s) = try_period(&prep, h, &opts, period) {
            best = Some((eps, s));
        }
    }
    best
}

/// Smallest processor-count prefix of `p` that heuristic `h` schedules
/// the workload on (binary search assuming monotonicity in the processor
/// count; exact at the probed points).
pub fn min_processors(
    g: &TaskGraph,
    p: &Platform,
    h: &dyn Heuristic,
    epsilon: u8,
    period: f64,
    seed: u64,
) -> Option<(usize, Schedule)> {
    let opts = SearchOptions {
        epsilon,
        max_latency: None,
        seed,
        ..Default::default()
    };
    // Each prefix is its own platform (different averaged weights), so a
    // fresh prepared instance per probed prefix; the binary search visits
    // every prefix size at most once.
    let feasible = |m: usize| -> Option<Schedule> {
        let sub = p.prefix(m);
        let prep = PreparedInstance::new(g, &sub);
        try_period(&prep, h, &opts, period)
    };
    let full = feasible(p.num_procs())?;
    let mut lo = epsilon as usize + 1; // need ε+1 distinct processors
    let mut hi = p.num_procs();
    let mut best = full;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match feasible(mid) {
            Some(s) => {
                best = s;
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    Some((hi, best))
}
