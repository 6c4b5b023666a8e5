//! Algorithm configuration, errors and the period window of a run.

use ltf_graph::TaskId;
use ltf_platform::ProcId;
use ltf_schedule::EPS;
use serde::{Deserialize, Serialize};

/// Configuration shared by LTF and R-LTF.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgoConfig {
    /// Fault-tolerance degree ε: the schedule must survive any ε processor
    /// failures; every task is replicated ε+1 times.
    pub epsilon: u8,
    /// Iteration period `Δ = 1/T` (the inverse of the desired throughput).
    pub period: f64,
    /// Chunk size `B`: how many ready tasks are mapped per round. The paper
    /// sets `B = m` (working with a subset of critical ready tasks gives a
    /// better load balance than one-at-a-time list scheduling). `None`
    /// defaults to `m`.
    pub chunk_size: Option<usize>,
    /// Seed for the random tie-breaking of the head function `H(ℓ)`.
    pub seed: u64,
    /// Enable the one-to-one mapping procedure (Algorithm 4.2). Disabling
    /// it forces every replica through the receive-from-all fallback — the
    /// `(ε+1)²`-communications regime the paper's §4 warns about. Ablation
    /// knob; default `true`.
    pub use_one_to_one: bool,
    /// R-LTF only: enable Rule 1 (prefer placements that do not grow the
    /// pipeline stage count). Ablation knob; default `true`.
    pub rule1: bool,
    /// R-LTF only: enable Rule 2 (one-to-one mapping across linear chain
    /// sections). Ablation knob; default `true`.
    pub rule2: bool,
    /// R-LTF only: break stage ties towards processors already in use.
    /// In reverse time the finish value carries no latency meaning, so
    /// minimum-finish tie-breaking would scatter stage-tied replicas over
    /// fresh processors and destroy every upstream co-location
    /// opportunity. Ablation knob; default `true`.
    pub cluster_ties: bool,
}

impl AlgoConfig {
    /// Standard configuration for a period `Δ` and fault-tolerance `ε`.
    pub fn new(epsilon: u8, period: f64) -> Self {
        Self {
            epsilon,
            period,
            chunk_size: None,
            seed: 0xC0FFEE,
            use_one_to_one: true,
            rule1: true,
            rule2: true,
            cluster_ties: true,
        }
    }

    /// Configuration from a desired throughput `T` (period `1/T`).
    pub fn with_throughput(epsilon: u8, throughput: f64) -> Self {
        assert!(throughput > 0.0, "throughput must be positive");
        Self::new(epsilon, 1.0 / throughput)
    }

    /// Builder-style seed override.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of replicas per task, `ε + 1`.
    pub fn replicas(&self) -> usize {
        self.epsilon as usize + 1
    }
}

/// Why an algorithm could not produce a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// No processor can host this replica without violating the throughput
    /// constraint (paper §4.1: "the algorithm fails if no processor can
    /// accommodate the task"). LTF genuinely fails this way on the worked
    /// example of Fig. 2 with m = 8.
    Infeasible {
        /// Task whose replica could not be placed.
        task: TaskId,
        /// Replica copy number (0-based).
        copy: u8,
    },
    /// Fewer processors than replicas: `m < ε + 1` makes distinct placement
    /// impossible.
    TooFewProcessors {
        /// Required processor count (`ε + 1`).
        needed: usize,
        /// Available processor count `m`.
        available: usize,
    },
    /// Invalid configuration (non-positive period, …).
    BadConfig(String),
    /// A whole-mapping strategy (one that places every task before
    /// checking the throughput constraint, like the makespan baselines)
    /// produced a mapping whose per-period load on `proc` exceeds the
    /// period. Unlike [`ScheduleError::Infeasible`] there is no single
    /// culprit replica: the processor's aggregate cycle time is the
    /// violation.
    Overloaded {
        /// The overloaded processor.
        proc: ProcId,
        /// Its cycle time `max(Σ_u, C^I_u, C^O_u)` under the mapping.
        load: f64,
        /// The period `Δ` the load had to fit into.
        capacity: f64,
    },
    /// The heuristic does not support the requested configuration (e.g. a
    /// non-replicating baseline asked for ε > 0). The payload names the
    /// unsupported feature.
    Unsupported(String),
    /// No heuristic with this name is registered in the
    /// [`Solver`](crate::Solver) the request went through.
    UnknownHeuristic(String),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Infeasible { task, copy } => write!(
                f,
                "throughput constraint unsatisfiable: no processor can host copy {} of {task}",
                copy + 1
            ),
            ScheduleError::TooFewProcessors { needed, available } => write!(
                f,
                "need at least {needed} processors for ε+1 replicas, have {available}"
            ),
            ScheduleError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            ScheduleError::Overloaded {
                proc,
                load,
                capacity,
            } => write!(
                f,
                "{proc} cycle time {load:.4} exceeds the period {capacity:.4}"
            ),
            ScheduleError::Unsupported(what) => write!(f, "unsupported: {what}"),
            ScheduleError::UnknownHeuristic(name) => {
                write!(f, "no heuristic named {name:?} is registered")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The periods at which one LTF/R-LTF run makes exactly the same
/// decisions.
///
/// The period `Δ` enters a run only through condition (1)'s checks, each
/// of the form `v > Δ + EPS`: the compute load `σ_u + w`, the output and
/// input port loads `C^O`/`C^I` and, on a contended platform, each route
/// link's load. The window keeps the largest checked value that passed
/// and the smallest that failed. A run at any `Δ'` the window
/// [admits](Self::admits) takes every one of those comparisons the same
/// way, so it repeats the recorded run step for step: the same verdict,
/// and the same schedule apart from its stored period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodWindow {
    pass_max: f64,
    fail_min: f64,
}

impl Default for PeriodWindow {
    /// No check recorded yet: every period is admitted.
    fn default() -> Self {
        Self {
            pass_max: f64::NEG_INFINITY,
            fail_min: f64::INFINITY,
        }
    }
}

impl PeriodWindow {
    /// Condition (1)'s period check, `value > period + EPS`, with its
    /// outcome recorded. Every period comparison of a run goes through
    /// here, so the window sees all of them.
    #[inline]
    pub(crate) fn exceeds(&mut self, value: f64, period: f64) -> bool {
        let over = value > period + EPS;
        if over {
            self.fail_min = self.fail_min.min(value);
        } else {
            self.pass_max = self.pass_max.max(value);
        }
        over
    }

    /// Whether a run at `period` takes every recorded comparison the way
    /// the recorded run did: no passed value exceeds `period + EPS` and
    /// every failed one still does. The float expression is the engine's
    /// own, so the answer is exact.
    // A check passes when `!(v > Δ + EPS)`; the negation is spelled the
    // engine's way on purpose.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn admits(&self, period: f64) -> bool {
        !(self.pass_max > period + EPS) && self.fail_min > period + EPS
    }

    /// Largest checked value that passed (`−∞` when none did).
    pub fn pass_max(&self) -> f64 {
        self.pass_max
    }

    /// Smallest checked value that failed (`+∞` when none did).
    pub fn fail_min(&self) -> f64 {
        self.fail_min
    }
}

/// Which of the paper's two heuristics to run (used by the searches and
/// the experiment harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoKind {
    /// LTF (§4.1): forward traversal, minimum-finish-time placement.
    Ltf,
    /// R-LTF (§4.2): bottom-up traversal, stage-count-first placement.
    Rltf,
}

impl std::fmt::Display for AlgoKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgoKind::Ltf => write!(f, "LTF"),
            AlgoKind::Rltf => write!(f, "R-LTF"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_conversion() {
        let c = AlgoConfig::with_throughput(1, 0.05);
        assert_eq!(c.period, 20.0);
        assert_eq!(c.replicas(), 2);
        assert!(c.use_one_to_one && c.rule1 && c.rule2);
    }

    #[test]
    fn seeded_builder() {
        let c = AlgoConfig::new(0, 1.0).seeded(7);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn error_display() {
        let e = ScheduleError::Infeasible {
            task: TaskId(6),
            copy: 0,
        };
        assert!(e.to_string().contains("t6"));
        let e = ScheduleError::TooFewProcessors {
            needed: 4,
            available: 2,
        };
        assert!(e.to_string().contains('4'));
        assert_eq!(AlgoKind::Ltf.to_string(), "LTF");
        assert_eq!(AlgoKind::Rltf.to_string(), "R-LTF");
    }
}
