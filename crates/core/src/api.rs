//! The prepared problem instance and the two paper algorithms over it.
//!
//! [`Ltf`](crate::Ltf) and [`Rltf`](crate::Rltf) dispatch here through the
//! [`Heuristic`](crate::Heuristic) trait; [`schedule_with_reference`] runs
//! the frozen reference engine, the differential oracle.

use crate::config::{AlgoConfig, AlgoKind, ScheduleError};
use crate::convert;
use crate::driver::{self, Policy};
use crate::engine::Engine;
use crate::prio::LevelCache;
use crate::solver::Windowed;
use ltf_graph::TaskGraph;
use ltf_platform::Platform;
use ltf_schedule::Schedule;
use std::sync::OnceLock;

/// The **LTF** algorithm (paper §4.1, Algorithm 4.1) over a prepared
/// instance, reusing its forward level cache: forward chunked list mapping
/// with the one-to-one replication procedure and minimum-finish-time
/// processor selection, under the throughput constraint `T = 1/cfg.period`
/// and fault-tolerance degree `cfg.epsilon`.
///
/// The run's [`PeriodWindow`](crate::PeriodWindow) comes back with the
/// verdict; a config that fails [`PreparedInstance::check`] never reaches
/// the engine and has none.
pub(crate) fn ltf_cached(inst: &PreparedInstance<'_>, cfg: &AlgoConfig) -> Windowed {
    if let Err(e) = inst.check(cfg) {
        return (Err(e), None);
    }
    let (g, p) = (inst.graph(), inst.platform());
    let mut engine = Engine::new(g, p, cfg);
    let (verdict, window) = driver::run(&mut engine, cfg, Policy::Ltf, inst.levels_forward());
    let sched = verdict.map(|()| convert::forward_schedule(engine, g, p, cfg.epsilon, cfg.period));
    (sched, Some(window))
}

/// The **R-LTF** algorithm (paper §4.2) over a prepared instance, reusing
/// its reversed graph, level cache and reversal slot table: bottom-up
/// traversal guided by Rule 1 (never grow the pipeline stage count when
/// avoidable) and Rule 2 (one-to-one replica spreading on linear chain
/// sections), minimizing the pipeline latency `L = (2S − 1)/T`. Returns
/// the run's window like [`ltf_cached`].
pub(crate) fn rltf_cached(inst: &PreparedInstance<'_>, cfg: &AlgoConfig) -> Windowed {
    if let Err(e) = inst.check(cfg) {
        return (Err(e), None);
    }
    let (g, p) = (inst.graph(), inst.platform());
    let mut engine = Engine::new_reversed(inst.reversed(), g, inst.reversal(), p, cfg);
    let (verdict, window) = driver::run(&mut engine, cfg, Policy::Rltf, inst.levels_reversed());
    let sched = verdict.map(|()| convert::reversed_schedule(engine, g, p, cfg.epsilon, cfg.period));
    (sched, Some(window))
}

/// A `(graph, platform)` pair with the period-independent derivations —
/// the reversed graph for bottom-up traversals, the platform-averaged
/// level caches for both directions and the busy-time totals of
/// [`PreparedInstance::check`] — computed lazily, at most once, and shared
/// by every schedule attempt on the instance.
///
/// The objective-space searches probe the same instance at dozens of
/// candidate periods (or ε values); preparing once keeps each probe's
/// setup cost at "allocate an engine" instead of "re-derive levels,
/// averaged weights and the reversed graph". Laziness means a session that
/// only ever runs forward heuristics never pays for the reversed
/// derivations (and vice versa).
pub struct PreparedInstance<'a> {
    g: &'a TaskGraph,
    p: &'a Platform,
    rev: OnceLock<TaskGraph>,
    fwd_cache: OnceLock<LevelCache>,
    rev_cache: OnceLock<LevelCache>,
    rev_slots: OnceLock<Vec<u32>>,
    busy: OnceLock<(f64, f64)>,
}

impl<'a> PreparedInstance<'a> {
    /// Wrap `g` on `p`; direction-specific derivations are computed on
    /// first use.
    pub fn new(g: &'a TaskGraph, p: &'a Platform) -> Self {
        Self {
            g,
            p,
            rev: OnceLock::new(),
            fwd_cache: OnceLock::new(),
            rev_cache: OnceLock::new(),
            rev_slots: OnceLock::new(),
            busy: OnceLock::new(),
        }
    }

    /// The checks every heuristic runs before it places anything. The
    /// period must be finite and positive: the `load > Δ + EPS` overload
    /// checks are vacuously false for NaN or `+∞`. And the instance's
    /// total busy time at `cfg.epsilon`, `(ε+1)·Σ exec / s_min +
    /// (ε+1)²·Σ vol · d_max`, must be finite: an infinite task or message
    /// interval would enter a port timeline, where no gap ever fits it.
    /// Both failures are [`ScheduleError::BadConfig`].
    pub fn check(&self, cfg: &AlgoConfig) -> Result<(), ScheduleError> {
        if !(cfg.period.is_finite() && cfg.period > 0.0) {
            return Err(ScheduleError::BadConfig(format!(
                "period must be positive, got {}",
                cfg.period
            )));
        }
        let (exec, comm) = *self.busy.get_or_init(|| {
            (
                self.p.slowest_exec_time(self.g.total_exec()),
                self.p.slowest_comm_time(self.g.total_volume()),
            )
        });
        let copies = cfg.replicas() as f64;
        let busy = copies * exec + copies * copies * comm;
        if !busy.is_finite() {
            return Err(ScheduleError::BadConfig(format!(
                "instance too large: its total busy time at ε = {} overflows ({busy})",
                cfg.epsilon
            )));
        }
        Ok(())
    }

    /// The application graph this instance was prepared for.
    pub fn graph(&self) -> &TaskGraph {
        self.g
    }

    /// The platform this instance was prepared for.
    pub fn platform(&self) -> &Platform {
        self.p
    }

    /// The reversed application graph (computed on first use), shared by
    /// every bottom-up traversal over this instance.
    pub fn reversed(&self) -> &TaskGraph {
        self.rev.get_or_init(|| self.g.reversed())
    }

    /// Platform-averaged level cache of the forward graph (computed on
    /// first use). Drives LTF's priorities.
    pub fn levels_forward(&self) -> &LevelCache {
        self.fwd_cache
            .get_or_init(|| LevelCache::compute(self.g, self.p))
    }

    /// Platform-averaged level cache of the reversed graph (computed on
    /// first use). Drives R-LTF's priorities.
    pub fn levels_reversed(&self) -> &LevelCache {
        self.rev_cache
            .get_or_init(|| LevelCache::compute(self.reversed(), self.p))
    }

    /// Reversal slot table (computed on first use): `slots[e]` is the
    /// position of edge `e` in `g.pred_edges(dst(e))`. A reverse-mode
    /// engine uses it to maintain the forward source relation
    /// incrementally, so the reversal transposition is cached per instance
    /// instead of re-derived per solve (see
    /// [`crate::convert::reversed_schedule`]).
    pub(crate) fn reversal(&self) -> &[u32] {
        self.rev_slots.get_or_init(|| {
            let mut slots = vec![0u32; self.g.num_edges()];
            for y in self.g.tasks() {
                for (i, &e) in self.g.pred_edges(y).iter().enumerate() {
                    slots[e.index()] = i as u32;
                }
            }
            slots
        })
    }
}

/// Schedule through the frozen snapshot-based reference implementation
/// ([`crate::reference`]): the pre-arena parallel-`Vec` engine, the
/// clone-based R-LTF speculation and the batch reversal transposition,
/// kept as an independent oracle for differential testing of the
/// production path (struct-of-arrays state, scratch arenas, undo journal,
/// incremental reversal). The overlay probe and interval-index layers are
/// shared — their equivalence with naive recomputation is covered
/// separately by the property tests in `ltf-schedule`. Must produce
/// schedules identical to the production heuristics on every input.
#[doc(hidden)]
pub fn schedule_with_reference(
    kind: AlgoKind,
    g: &TaskGraph,
    p: &Platform,
    cfg: &AlgoConfig,
) -> Result<Schedule, ScheduleError> {
    crate::reference::schedule(kind, g, p, cfg)
}
