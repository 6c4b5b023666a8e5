//! Crash traces and online recovery policies.
//!
//! A fixed [`CrashSet`] answers the paper's worst-case question — "does
//! the schedule survive these ε processors failing?". Stochastic failure
//! campaigns ask a different one: *when* processors fail at sampled
//! times, what do the latency and loss distributions look like? A
//! [`CrashTrace`] carries one sampled answer per processor (the absolute
//! time its host dies, `+∞` for "never"), and a [`RecoveryPolicy`] chooses
//! what the runtime does about it:
//!
//! * [`RecoveryPolicy::FailStop`] — the paper's model: consumers only ever
//!   read from their scheduled source replicas; a dead lane stays dead.
//! * [`RecoveryPolicy::Reroute`] — an online recovery hook: when every
//!   scheduled source of an in-edge is dead, the consumer re-routes the
//!   fetch to any surviving replica of the predecessor task mid-stream
//!   (paying the real communication cost between the new endpoints).
//!
//! Both simulators take a [`TraceConfig`]. An all-`+∞` trace is a
//! failure-free run, and [`CrashTrace::from_crash_set`] turns the paper's
//! fixed [`CrashSet`] into the trace in which its members fail together.

use ltf_platform::ProcId;
use ltf_schedule::CrashSet;

/// Per-processor absolute crash times; `+∞` means the processor never
/// fails within the simulated horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashTrace {
    crash_at: Vec<f64>,
}

impl CrashTrace {
    /// A trace in which none of the `m` processors ever fails.
    pub fn never(m: usize) -> Self {
        Self {
            crash_at: vec![f64::INFINITY; m],
        }
    }

    /// A trace from explicit per-processor crash times (`+∞` = never).
    /// Times must be non-negative and not NaN.
    pub fn from_crash_times(crash_at: Vec<f64>) -> Self {
        assert!(
            crash_at.iter().all(|t| *t >= 0.0 && !t.is_nan()),
            "crash times must be non-negative"
        );
        Self { crash_at }
    }

    /// The fixed-set model as a trace: members of `crash` fail at `at`,
    /// everyone else never does.
    pub fn from_crash_set(crash: &CrashSet, m: usize, at: f64) -> Self {
        let crash_at = (0..m)
            .map(|u| {
                if crash.contains(ProcId(u as u16)) {
                    at
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        Self { crash_at }
    }

    /// Number of processors the trace covers.
    pub fn num_procs(&self) -> usize {
        self.crash_at.len()
    }

    /// The absolute crash time of processor `u` (`+∞` = never).
    pub fn crash_time(&self, u: usize) -> f64 {
        self.crash_at[u]
    }

    /// Whether processor `u` is dead strictly after `time`
    /// (`time > crash_at`): work completing exactly at the crash instant
    /// still counts.
    pub fn crashed(&self, u: usize, time: f64) -> bool {
        time > self.crash_at[u]
    }

    /// Earliest crash in the trace (`+∞` when nothing fails).
    pub fn first_crash(&self) -> f64 {
        self.crash_at.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// What the runtime does when scheduled source replicas die mid-stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Paper semantics: consumers read only from their scheduled sources;
    /// an in-edge whose sources are all dead starves the consumer.
    FailStop,
    /// Online recovery: an in-edge whose scheduled sources are all dead is
    /// re-routed to a surviving replica of the predecessor task, at the
    /// real communication cost between the new processor pair.
    Reroute,
}

/// Configuration for the simulators ([`crate::synchronous()`],
/// [`crate::asap()`]).
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of stream items to push through the pipeline.
    pub items: usize,
    /// When each processor dies.
    pub trace: CrashTrace,
    /// What the runtime does about it.
    pub policy: RecoveryPolicy,
}

impl TraceConfig {
    /// Replay `trace` over `items` items under `policy`.
    pub fn new(items: usize, trace: CrashTrace, policy: RecoveryPolicy) -> Self {
        Self {
            items,
            trace,
            policy,
        }
    }
}

/// The fixed-set crash model over 4 processors, as the unit tests use it:
/// `procs` (none when empty) fail at `at`, under fail-stop.
#[cfg(test)]
pub(crate) fn fixed(items: usize, procs: &[u16], at: f64) -> TraceConfig {
    let procs: Vec<ProcId> = procs.iter().map(|&u| ProcId(u)).collect();
    let trace = CrashTrace::from_crash_set(&CrashSet::from_procs(&procs, 4), 4, at);
    TraceConfig::new(items, trace, RecoveryPolicy::FailStop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_conventions() {
        let t = CrashTrace::never(3);
        assert_eq!(t.num_procs(), 3);
        assert!(!t.crashed(0, 1e12));
        assert_eq!(t.first_crash(), f64::INFINITY);

        let t = CrashTrace::from_crash_times(vec![5.0, f64::INFINITY]);
        assert!(!t.crashed(0, 5.0)); // boundary: work at the instant counts
        assert!(t.crashed(0, 5.0 + 1e-12));
        assert!(!t.crashed(1, 1e12));
        assert_eq!(t.first_crash(), 5.0);

        let set = CrashSet::from_procs(&[ProcId(1)], 3);
        let t = CrashTrace::from_crash_set(&set, 3, 0.0);
        assert!(t.crashed(1, 0.1) && !t.crashed(0, 0.1) && !t.crashed(2, 0.1));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_crash_time_rejected() {
        CrashTrace::from_crash_times(vec![-1.0]);
    }
}
