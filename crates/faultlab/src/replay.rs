//! Replaying a sampled crash trace through a simulator.
//!
//! One thin, typed dispatch point: a campaign cell declares which
//! executable semantics ([`SimEngine`]) and which online recovery policy
//! it measures under, and [`replay`] runs one trace through the matching
//! `ltf-sim` entry point. Keeping the dispatch here (rather than inside
//! the campaign loop) is what the replay-level property tests hang off:
//! same trace, both engines, compare item by item.

use ltf_graph::TaskGraph;
use ltf_platform::Platform;
use ltf_schedule::Schedule;
use ltf_sim::{asap, synchronous, CrashTrace, RecoveryPolicy, SimReport, TraceConfig};

/// Which executable semantics a cell is measured under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEngine {
    /// Stage-synchronous windows (the paper's latency model; default).
    Synchronous,
    /// Event-driven ASAP execution with one-port contention.
    Asap,
}

impl SimEngine {
    /// Parse the spec-file name of an engine.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "synchronous" => Some(Self::Synchronous),
            "asap" => Some(Self::Asap),
            _ => None,
        }
    }

    /// The spec-file name of the engine.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Synchronous => "synchronous",
            Self::Asap => "asap",
        }
    }
}

/// How a cell replays its traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Stream items pushed through the pipeline per trace.
    pub items: usize,
    /// What the runtime does when scheduled sources die.
    pub policy: RecoveryPolicy,
    /// Which simulator measures the trace.
    pub engine: SimEngine,
}

/// Replay one crash trace through the configured simulator.
pub fn replay(
    g: &TaskGraph,
    p: &Platform,
    sched: &Schedule,
    trace: CrashTrace,
    cfg: &ReplayConfig,
) -> SimReport {
    let tc = TraceConfig::new(cfg.items, trace, cfg.policy);
    match cfg.engine {
        SimEngine::Synchronous => synchronous(g, sched, &tc),
        SimEngine::Asap => asap(g, p, sched, &tc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_round_trip() {
        for e in [SimEngine::Synchronous, SimEngine::Asap] {
            assert_eq!(SimEngine::parse(e.name()), Some(e));
        }
        assert_eq!(SimEngine::parse("warp"), None);
    }
}
