//! Pareto-front enumeration over (latency, period, ε, processor count).
//!
//! The paper's conclusion frames the mapping problem as a trade-off among
//! the pipeline latency `L`, the period `Δ = 1/T`, the fault-tolerance
//! degree ε and the platform size `m`; the single-objective searches of
//! the parent module each pin three of the four. [`pareto_front`]
//! enumerates the whole trade-off surface a heuristic can reach instead:
//!
//! * sweep ε from 0 to `m − 1` (capped by
//!   [`ParetoOptions::max_epsilon`]) and the processor-count **prefixes**
//!   of the platform (capped by [`ParetoOptions::max_procs`] — the
//!   processor-budget variant);
//! * per `(ε, prefix)` cell, drive the period bisection of
//!   [`min_period_prepared`](super::min_period_prepared) under the
//!   optional latency cap ([`ParetoOptions::max_latency`] — the
//!   latency-budget variant), then probe relaxed periods adaptively (a
//!   looser period can buy fewer pipeline stages, i.e. a lower latency —
//!   a genuine L/T trade the minimum-period point misses): a
//!   golden-section search minimizes `L(Δ)` over a geometric bracket
//!   above the minimum period, concentrating the probe budget around the
//!   latency minimum instead of blindly doubling;
//! * keep only the **non-dominated** set, where a point dominates another
//!   when its latency, period and processor count are no larger, its ε is
//!   no smaller, and at least one objective is strictly better.
//!
//! # One memo per cell
//!
//! The bracket, the bisection and the golden-section probes of one
//! `(prefix, heuristic, ε)` cell share one probe memo. LTF, R-LTF and
//! `fault-free` report the [`PeriodWindow`](crate::PeriodWindow) each run
//! holds in (the period reaches a run only through condition (1)'s
//! `v > Δ + EPS` checks; see the parent module), and a probe whose period
//! falls in an earlier probe's window reuses that verdict: the same
//! schedule at the new period, or the same infeasibility. The bisection
//! narrows onto a point, so most of its late probes land in a window, and
//! so do most golden-section probes; on the Pareto campaigns the memo
//! answers about 73 % of the probes. The front is byte-identical to
//! solving every probe. A memo never outlives its cell and is never
//! shared across prefixes, heuristics, ε or instances; baselines report no
//! window and are solved at every probe.
//!
//! # Parallel enumeration
//!
//! The sweep is embarrassingly parallel over the platform prefixes: each
//! prefix owns its [`PreparedInstance`] (different averaged weights), and
//! no cell reads another cell's result. [`ParetoOptions::threads`] fans
//! the prefixes out over the scoped worker pool of
//! [`crate::par::parallel_map`]; per-prefix candidate lists are collected
//! back **in prefix order**, so the concatenated candidate sequence — and
//! therefore the pruned front — is bit-identical to the serial
//! enumeration no matter the thread count or scheduling interleaving.
//!
//! Every surviving [`ParetoPoint`] carries its witness schedule (as a
//! typed [`Solution`]), so callers can re-validate or deploy any point of
//! the front directly. [`pareto_front_all`] merges the fronts of every
//! heuristic registered in a [`Solver`] and prunes across them, labelling
//! each survivor with the heuristic that reached it.
//!
//! ```
//! use ltf_core::search::pareto::{pareto_front, ParetoOptions};
//! use ltf_core::Rltf;
//! use ltf_graph::generate::fig1_diamond;
//! use ltf_platform::Platform;
//!
//! let g = fig1_diamond();
//! let p = Platform::fig1_platform();
//! let front = pareto_front(&g, &p, &Rltf, &ParetoOptions::default());
//! assert!(!front.is_empty());
//! // No point of the front dominates another.
//! for a in &front {
//!     assert!(!front.iter().any(|b| b.objectives.dominates(&a.objectives)));
//! }
//! ```

use super::{min_period_in, ProbeMemo, SearchOptions};
use crate::api::PreparedInstance;
use crate::par;
use crate::solver::{Heuristic, Solution, Solver};
use ltf_graph::TaskGraph;
use ltf_platform::Platform;
use ltf_schedule::Schedule;
use serde::{Serialize, Sink};

/// The four objective values of one point of the front. Latency, period
/// and processor count are minimized; ε is maximized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ParetoObjectives {
    /// Guaranteed pipeline latency `L = (2S − 1)·Δ` of the witness.
    pub latency: f64,
    /// Iteration period `Δ` of the witness (inverse throughput).
    pub period: f64,
    /// Fault-tolerance degree ε of the witness.
    pub epsilon: u8,
    /// Distinct processors the witness actually uses.
    pub procs: usize,
}

impl ParetoObjectives {
    /// Read the objective vector off a witness schedule.
    pub fn of(sched: &Schedule) -> Self {
        Self {
            latency: sched.latency_upper_bound(),
            period: sched.period(),
            epsilon: sched.epsilon(),
            procs: sched.procs_used(),
        }
    }

    /// The throughput `T = 1/Δ` of the point.
    pub fn throughput(&self) -> f64 {
        1.0 / self.period
    }

    /// Strict Pareto dominance: `self` is at least as good on every
    /// objective (≤ latency, ≤ period, ≥ ε, ≤ processors) and strictly
    /// better on at least one. Equal objective vectors dominate in
    /// neither direction.
    pub fn dominates(&self, other: &Self) -> bool {
        let no_worse = self.latency <= other.latency
            && self.period <= other.period
            && self.epsilon >= other.epsilon
            && self.procs <= other.procs;
        let better = self.latency < other.latency
            || self.period < other.period
            || self.epsilon > other.epsilon
            || self.procs < other.procs;
        no_worse && better
    }
}

/// One non-dominated point of the enumerated front: the objective vector,
/// the heuristic that reached it, and the witness schedule (with derived
/// metrics) proving the point is achievable.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// The four objective values.
    pub objectives: ParetoObjectives,
    /// Canonical name of the heuristic that produced the witness.
    pub heuristic: String,
    /// Size of the platform prefix the witness was scheduled on. The
    /// `procs` objective counts the processors the witness actually uses
    /// (≤ this); re-validating the witness needs the platform it was built
    /// against, i.e. `platform.prefix(platform_procs)`.
    pub platform_procs: usize,
    /// The witness schedule bundled with its derived metrics.
    pub solution: Solution,
    /// Peak per-link utilization of the witness on the platform it was
    /// scheduled against ([`Schedule::max_link_utilization`]). `None` on
    /// matrix platforms, which keep no link identity. Reported alongside
    /// the objectives but not part of the dominance order; the contended
    /// engine already keeps every link's load within the period.
    pub link_utilization: Option<f64>,
}

impl ParetoPoint {
    fn new(h: &dyn Heuristic, platform_procs: usize, sched: Schedule, p: &Platform) -> Self {
        Self {
            objectives: ParetoObjectives::of(&sched),
            heuristic: h.name().to_string(),
            platform_procs,
            link_utilization: sched.max_link_utilization(p),
            solution: Solution::new(h.name(), sched),
        }
    }
}

impl Serialize for ParetoPoint {
    fn serialize<S: Sink>(&self, s: &mut S) {
        s.begin_map();
        s.entry("heuristic", &self.heuristic);
        serde::serialize_fields(&self.objectives, s);
        s.entry("throughput", &self.objectives.throughput());
        s.entry("platform_procs", &self.platform_procs);
        // Only routed platforms measure link utilization; matrix-platform
        // output keeps the wire form it had before routed platforms.
        if let Some(u) = self.link_utilization {
            s.entry("link_utilization", &u);
        }
        s.entry("solution", &self.solution);
        s.end_map();
    }
}

impl std::fmt::Display for ParetoPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = &self.objectives;
        write!(
            f,
            "ε={} m={} Δ={:.3} L≤{:.3} S={} [{}]",
            o.epsilon, o.procs, o.period, o.latency, self.solution.metrics.stages, self.heuristic
        )
    }
}

/// Options of the Pareto enumeration. The two `max_*` budgets double as
/// the conclusion's budget-constrained problem variants: a latency cap
/// rejects candidate schedules during the period bisection, a processor
/// budget truncates the prefix sweep.
#[derive(Debug, Clone)]
pub struct ParetoOptions {
    /// Cap on the swept fault-tolerance degree (default: `m − 1`, the
    /// largest ε any prefix can support).
    pub max_epsilon: Option<u8>,
    /// Floor on the swept fault-tolerance degree (default: 0). Together
    /// with [`max_epsilon`](Self::max_epsilon) this restricts the sweep to
    /// an ε band — campaign specs use it to split one enumeration into
    /// disjoint ε ranges whose fronts cover exactly the same cells as a
    /// single full sweep.
    pub min_epsilon: Option<u8>,
    /// Latency budget: candidate schedules whose guaranteed latency
    /// exceeds it never enter the front.
    pub max_latency: Option<f64>,
    /// Processor budget: only platform prefixes up to this size are swept.
    pub max_procs: Option<usize>,
    /// Relaxed-period probe budget per cell after the bisection: the
    /// golden-section search over `[Δ_min, Δ_min · 2^relax_steps]`
    /// shrinks its bracket this many times (`relax_steps + 2` heuristic
    /// probes total), looking for lower-latency (fewer-stage) schedules
    /// at lower throughput. 0 keeps only the minimum-period point per
    /// cell.
    pub relax_steps: u32,
    /// Bisection iterations per cell (see [`SearchOptions::iterations`]).
    pub iterations: u32,
    /// Tie-breaking seed passed to the heuristic.
    pub seed: u64,
    /// Worker threads for the prefix sweep (`0` = all cores). The
    /// parallel front is **bit-identical** to the serial one — see the
    /// module docs — so this is purely a wall-clock knob.
    pub threads: usize,
}

impl Default for ParetoOptions {
    fn default() -> Self {
        Self {
            max_epsilon: None,
            min_epsilon: None,
            max_latency: None,
            max_procs: None,
            relax_steps: 3,
            iterations: 40,
            seed: 0xC0FFEE,
            threads: 1,
        }
    }
}

impl ParetoOptions {
    /// Default enumeration under a latency budget.
    pub fn with_latency_cap(cap: f64) -> Self {
        Self {
            max_latency: Some(cap),
            ..Self::default()
        }
    }

    /// Default enumeration under a processor budget.
    pub fn with_proc_budget(budget: usize) -> Self {
        Self {
            max_procs: Some(budget),
            ..Self::default()
        }
    }

    /// Same enumeration on `threads` workers (`0` = all cores).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }
}

/// Enumerate the non-dominated (latency, period, ε, processors) front
/// heuristic `h` can reach on `(g, p)`. See the module docs for the sweep
/// structure. The front is exact over the probed cells (the heuristic is
/// not an exact oracle, so the true Pareto surface can only be
/// approximated — same caveat as the single-objective searches); it is
/// returned sorted by (ε, processors, period) for deterministic output.
///
/// ```
/// use ltf_core::search::pareto::{pareto_front, ParetoOptions};
/// use ltf_core::Ltf;
/// use ltf_graph::generate::fig1_diamond;
/// use ltf_platform::Platform;
///
/// let g = fig1_diamond();
/// let p = Platform::fig1_platform();
///
/// // Restrict the sweep to replicated schedules on at most 3 processors.
/// let opts = ParetoOptions {
///     min_epsilon: Some(1),
///     max_procs: Some(3),
///     ..ParetoOptions::default()
/// };
/// let front = pareto_front(&g, &p, &Ltf, &opts);
/// assert!(!front.is_empty());
/// assert!(front.iter().all(|pt| pt.objectives.epsilon >= 1));
/// assert!(front.iter().all(|pt| pt.platform_procs <= 3));
/// // Every point carries a witness schedule proving it is achievable.
/// assert!(front.iter().all(|pt| pt.solution.schedule.epsilon() == pt.objectives.epsilon));
/// ```
pub fn pareto_front(
    g: &TaskGraph,
    p: &Platform,
    h: &dyn Heuristic,
    opts: &ParetoOptions,
) -> Vec<ParetoPoint> {
    front_over(g, p, &[h], opts)
}

/// Merge the fronts of every heuristic registered in `solver` and prune
/// across them: the result is the non-dominated set of the union, each
/// point labelled with the heuristic that reached it. Exact objective
/// ties resolve to the smallest platform prefix, then to registration
/// order. The prefix loop is outermost so all heuristics share one
/// [`PreparedInstance`] (reversed graph, level caches) per prefix.
pub fn pareto_front_all(solver: &Solver<'_>, opts: &ParetoOptions) -> Vec<ParetoPoint> {
    front_over(solver.graph(), solver.platform(), solver.heuristics(), opts)
}

/// The shared sweep: enumerate every `(ε, prefix)` cell for every
/// heuristic, prefixes fanned out over the worker pool, and prune the
/// concatenated candidates. Workers return their candidate lists indexed
/// by prefix, so the merged sequence — and hence the pruned front — is
/// identical to the serial `for m in 1..=max` loop.
fn front_over(
    g: &TaskGraph,
    p: &Platform,
    hs: &[&dyn Heuristic],
    opts: &ParetoOptions,
) -> Vec<ParetoPoint> {
    let prefixes: Vec<usize> = (1..=max_prefix(p, opts)).collect();
    let threads = par::resolve_threads(opts.threads);
    let per_prefix = par::parallel_map(&prefixes, threads, |&m| {
        let sub = p.prefix(m);
        let prep = PreparedInstance::new(g, &sub);
        let mut out = Vec::new();
        for h in hs {
            cell_sweep(&prep, m, *h, opts, &mut out);
        }
        out
    });
    prune(per_prefix.into_iter().flatten().collect())
}

/// Largest platform prefix the sweep visits.
fn max_prefix(p: &Platform, opts: &ParetoOptions) -> usize {
    opts.max_procs.unwrap_or(usize::MAX).min(p.num_procs())
}

/// Run the ε sweep of one `(heuristic, prefix)` pair, appending every
/// feasible candidate point (minimum-period plus relaxed-period probes)
/// to `out`. `prep` must be prepared on the `m`-processor prefix.
fn cell_sweep(
    prep: &PreparedInstance<'_>,
    m: usize,
    h: &dyn Heuristic,
    opts: &ParetoOptions,
    out: &mut Vec<ParetoPoint>,
) {
    let mut eps_cap = (m - 1).min(u8::MAX as usize) as u8;
    if let Some(cap) = opts.max_epsilon {
        eps_cap = eps_cap.min(cap);
    }
    let eps_lo = opts.min_epsilon.unwrap_or(0);
    if eps_lo > eps_cap {
        return;
    }
    for eps in eps_lo..=eps_cap {
        let sopts = SearchOptions {
            epsilon: eps,
            max_latency: opts.max_latency,
            iterations: opts.iterations,
            seed: opts.seed,
        };
        // The memo lives exactly as long as the cell: its windows speak
        // only for this instance, heuristic, ε and seed.
        let mut memo = ProbeMemo::default();
        cell(prep, m, h, &sopts, opts.relax_steps, &mut memo, out);
    }
}

/// One `(prefix, heuristic, ε)` cell: the period bisection of
/// [`min_period_prepared`](super::min_period_prepared), then the
/// relaxed-period probes, every probe answered through the cell's `memo`.
/// Appends each feasible candidate point to `out`.
pub(super) fn cell(
    prep: &PreparedInstance<'_>,
    m: usize,
    h: &dyn Heuristic,
    sopts: &SearchOptions,
    relax_steps: u32,
    memo: &mut ProbeMemo,
    out: &mut Vec<ParetoPoint>,
) {
    let Some((t_min, sched)) = min_period_in(prep, h, sopts, memo) else {
        return;
    };
    out.push(ParetoPoint::new(h, m, sched, prep.platform()));
    // An infeasible probe scores +inf, steering the bracket back toward
    // feasible periods without special-casing.
    relaxed_probes(relax_steps, t_min, |period| {
        match memo.try_period(prep, h, sopts, period) {
            Some(s) => {
                let latency = s.latency_upper_bound();
                out.push(ParetoPoint::new(h, m, s, prep.platform()));
                latency
            }
            None => f64::INFINITY,
        }
    });
}

/// Probe relaxed (larger) periods after the bisection: a looser period
/// can need fewer pipeline stages, and the guaranteed latency
/// `L = (2S − 1)·Δ` drops whenever `S` falls faster than `Δ` grows.
/// Instead of blindly doubling, run a golden-section search minimizing
/// `L(Δ)` over the bracket `[Δ_min, Δ_min · 2^relax_steps]` — the same
/// span the old doubling ladder covered, but the probes concentrate
/// adaptively around the latency minimum. `probe` returns the latency
/// at a period; the caller keeps every feasible probe (and prunes
/// dominated ones later), so the intermediate L/T trades visited on the
/// way survive too. `L(Δ)` is piecewise linear and not unimodal in
/// general, so the result is best-effort — exact at the probed periods,
/// like every heuristic-driven search in this module.
fn relaxed_probes(relax_steps: u32, t_min: f64, mut probe: impl FnMut(f64) -> f64) {
    if relax_steps == 0 {
        return;
    }
    const INV_PHI: f64 = 0.618_033_988_749_894_9; // (√5 − 1) / 2
    let (mut lo, mut hi) = (t_min, t_min * 2f64.powi(relax_steps.min(60) as i32));
    if !hi.is_finite() {
        return;
    }
    let mut x1 = hi - INV_PHI * (hi - lo);
    let mut x2 = lo + INV_PHI * (hi - lo);
    let mut f1 = probe(x1);
    let mut f2 = probe(x2);
    for _ in 0..relax_steps {
        if f1 <= f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - INV_PHI * (hi - lo);
            f1 = probe(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + INV_PHI * (hi - lo);
            f2 = probe(x2);
        }
    }
}

/// Reduce `points` to its non-dominated subset: dominated points and
/// exact-duplicate objective vectors (first occurrence wins) are dropped,
/// points with non-finite objectives are discarded defensively, and the
/// survivors are sorted by (ε, processors, period, latency).
pub fn prune(mut points: Vec<ParetoPoint>) -> Vec<ParetoPoint> {
    points.retain(|pt| pt.objectives.latency.is_finite() && pt.objectives.period.is_finite());
    let mut keep = vec![true; points.len()];
    for i in 0..points.len() {
        for j in 0..points.len() {
            if i == j {
                continue;
            }
            // Transitivity makes it safe to test against already-dropped
            // points: whatever dominated them dominates `i` too.
            if points[j].objectives.dominates(&points[i].objectives)
                || (j < i && points[j].objectives == points[i].objectives)
            {
                keep[i] = false;
                break;
            }
        }
    }
    let mut front: Vec<ParetoPoint> = points
        .into_iter()
        .zip(keep)
        .filter_map(|(p, k)| k.then_some(p))
        .collect();
    front.sort_by(|a, b| {
        (a.objectives.epsilon, a.objectives.procs)
            .cmp(&(b.objectives.epsilon, b.objectives.procs))
            .then(a.objectives.period.total_cmp(&b.objectives.period))
            .then(a.objectives.latency.total_cmp(&b.objectives.latency))
    });
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ltf, Rltf};
    use ltf_graph::generate::fig1_diamond;

    fn fig1_front() -> Vec<ParetoPoint> {
        pareto_front(
            &fig1_diamond(),
            &Platform::fig1_platform(),
            &Rltf,
            &ParetoOptions::default(),
        )
    }

    #[test]
    fn dominance_relation() {
        let a = ParetoObjectives {
            latency: 10.0,
            period: 5.0,
            epsilon: 1,
            procs: 3,
        };
        let mut b = a;
        assert!(!a.dominates(&b), "equal points dominate neither way");
        b.latency = 11.0;
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        b.epsilon = 2; // b now trades latency for ε: incomparable
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn fig1_front_is_nonempty_and_nondominated() {
        let front = fig1_front();
        assert!(!front.is_empty());
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                assert!(
                    i == j || !a.objectives.dominates(&b.objectives),
                    "{a} dominates {b}"
                );
                assert!(
                    i == j || a.objectives != b.objectives,
                    "duplicate objective vector {a}"
                );
            }
        }
        // The sweep spans ε = 0 and some replicated points on 4 processors.
        assert!(front.iter().any(|p| p.objectives.epsilon == 0));
        assert!(front.iter().any(|p| p.objectives.epsilon >= 1));
    }

    #[test]
    fn objectives_match_witness() {
        for pt in fig1_front() {
            let m = &pt.solution.metrics;
            assert_eq!(pt.objectives.latency, m.latency_upper_bound);
            assert_eq!(pt.objectives.period, m.period);
            assert_eq!(pt.objectives.epsilon, m.epsilon);
            assert_eq!(pt.objectives.procs, m.procs_used);
            assert_eq!(pt.heuristic, pt.solution.heuristic);
        }
    }

    #[test]
    fn latency_budget_filters_front() {
        let g = fig1_diamond();
        let p = Platform::fig1_platform();
        let full = pareto_front(&g, &p, &Rltf, &ParetoOptions::default());
        let cap = full
            .iter()
            .map(|pt| pt.objectives.latency)
            .fold(f64::NEG_INFINITY, f64::max)
            * 0.5;
        let capped = pareto_front(&g, &p, &Rltf, &ParetoOptions::with_latency_cap(cap));
        assert!(capped.iter().all(|pt| pt.objectives.latency <= cap + 1e-9));
    }

    #[test]
    fn epsilon_band_partitions_sweep() {
        // Splitting the ε axis into disjoint bands visits exactly the
        // cells of the full sweep, so pruning the union of the band
        // candidates must reproduce the full front (this is what lets a
        // campaign spec shard one enumeration into ε ranges).
        let g = fig1_diamond();
        let p = Platform::fig1_platform();
        let full = fig1_front();
        let band = |lo: u8, hi: u8| {
            pareto_front(
                &g,
                &p,
                &Rltf,
                &ParetoOptions {
                    min_epsilon: Some(lo),
                    max_epsilon: Some(hi),
                    ..Default::default()
                },
            )
        };
        let low = band(0, 1);
        let high = band(2, u8::MAX);
        assert!(low.iter().all(|pt| pt.objectives.epsilon <= 1));
        assert!(high.iter().all(|pt| pt.objectives.epsilon >= 2));
        let mut union: Vec<ParetoPoint> = low;
        union.extend(high);
        let merged = prune(union);
        assert_eq!(merged.len(), full.len());
        for (a, b) in merged.iter().zip(&full) {
            assert_eq!(a.objectives, b.objectives);
        }
        // An empty band (floor above every reachable ε) yields no points.
        assert!(band(200, u8::MAX).is_empty());
        // min_epsilon: None behaves exactly like Some(0).
        let explicit_zero = band(0, u8::MAX);
        assert_eq!(explicit_zero.len(), full.len());
    }

    #[test]
    fn proc_budget_truncates_sweep() {
        let g = fig1_diamond();
        let p = Platform::fig1_platform();
        let capped = pareto_front(&g, &p, &Rltf, &ParetoOptions::with_proc_budget(2));
        assert!(!capped.is_empty());
        assert!(capped.iter().all(|pt| pt.objectives.procs <= 2));
        assert!(capped.iter().all(|pt| pt.objectives.epsilon <= 1));
    }

    #[test]
    fn cross_heuristic_merge_is_nondominated_and_labelled() {
        let g = fig1_diamond();
        let p = Platform::fig1_platform();
        let solver = Solver::builtin(&g, &p);
        let front = pareto_front_all(&solver, &ParetoOptions::default());
        assert!(!front.is_empty());
        let names = solver.names();
        for (i, a) in front.iter().enumerate() {
            assert!(names.contains(&a.heuristic.as_str()), "{}", a.heuristic);
            for (j, b) in front.iter().enumerate() {
                assert!(i == j || !a.objectives.dominates(&b.objectives));
            }
        }
        // The merged front is no worse than any single heuristic's front:
        // every LTF point is matched or dominated by a merged point.
        for pt in pareto_front(&g, &p, &Ltf, &ParetoOptions::default()) {
            assert!(front.iter().any(|m| {
                m.objectives == pt.objectives || m.objectives.dominates(&pt.objectives)
            }));
        }
    }

    #[test]
    fn parallel_front_is_bit_identical_to_serial() {
        let g = fig1_diamond();
        let p = Platform::fig1_platform();
        let serial = pareto_front(&g, &p, &Rltf, &ParetoOptions::default());
        for threads in [2, 4, 8] {
            let par = pareto_front(&g, &p, &Rltf, &ParetoOptions::with_threads(threads));
            assert_eq!(par.len(), serial.len());
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.objectives, b.objectives);
                assert_eq!(a.heuristic, b.heuristic);
                assert_eq!(a.platform_procs, b.platform_procs);
            }
        }
    }

    #[test]
    fn relaxed_probes_can_lower_latency() {
        // With probes disabled every cell keeps only its minimum-period
        // point; the golden-section probes may only add points that are
        // incomparable (better latency at worse period), never lose the
        // min-period extremes.
        let g = fig1_diamond();
        let p = Platform::fig1_platform();
        let no_probe = pareto_front(
            &g,
            &p,
            &Rltf,
            &ParetoOptions {
                relax_steps: 0,
                ..Default::default()
            },
        );
        let probed = fig1_front();
        for pt in &no_probe {
            assert!(
                probed.iter().any(
                    |q| q.objectives == pt.objectives || q.objectives.dominates(&pt.objectives)
                ),
                "min-period point {pt} lost by probing"
            );
        }
        let best = |f: &[ParetoPoint]| {
            f.iter()
                .map(|p| p.objectives.latency)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(best(&probed) <= best(&no_probe) + 1e-9);
    }

    #[test]
    fn prune_drops_nonfinite_and_duplicates() {
        let front = fig1_front();
        let mut doubled = front.clone();
        doubled.extend(front.iter().cloned());
        let mut nan = front[0].clone();
        nan.objectives.latency = f64::NAN;
        doubled.push(nan);
        let pruned = prune(doubled);
        assert_eq!(pruned.len(), front.len());
    }

    #[test]
    fn pareto_point_serializes_flat() {
        let front = fig1_front();
        let json = serde_json::to_string(&front[0]).unwrap();
        assert!(json.contains("\"heuristic\":\"rltf\""));
        assert!(json.contains("\"latency\""));
        assert!(json.contains("\"procs\""));
        assert!(json.contains("\"solution\""));
    }
}
