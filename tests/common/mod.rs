//! Helpers shared by the differential suites. Each suite compiles this
//! module on its own and may leave some helpers unused.
#![allow(dead_code)]

use ltf_sched::core::{AlgoConfig, AlgoKind, PreparedInstance, ScheduleError};
use ltf_sched::graph::TaskGraph;
use ltf_sched::platform::Platform;
use ltf_sched::schedule::Schedule;

/// The production path: the built-in heuristic over a fresh prepared
/// instance (what `Solver::solve` runs, minus the report), call-symmetric
/// with the frozen `schedule_with_reference` oracle.
pub fn schedule_with(
    kind: AlgoKind,
    g: &TaskGraph,
    p: &Platform,
    cfg: &AlgoConfig,
) -> Result<Schedule, ScheduleError> {
    kind.heuristic().schedule(&PreparedInstance::new(g, p), cfg)
}

/// Same hosts, bit-identical times, same stages, same source structure and
/// the same message set.
pub fn assert_identical(a: &Schedule, b: &Schedule, ctx: &str) {
    assert_eq!(a.epsilon(), b.epsilon(), "{ctx}: epsilon");
    assert_eq!(a.period(), b.period(), "{ctx}: period");
    assert_eq!(a.num_stages(), b.num_stages(), "{ctx}: stage count");
    for r in a.replicas() {
        assert_eq!(a.proc(r), b.proc(r), "{ctx}: host of {r}");
        assert_eq!(a.start(r), b.start(r), "{ctx}: start of {r}");
        assert_eq!(a.finish(r), b.finish(r), "{ctx}: finish of {r}");
        assert_eq!(a.stage(r), b.stage(r), "{ctx}: stage of {r}");
        assert_eq!(a.sources(r), b.sources(r), "{ctx}: sources of {r}");
    }
    assert_eq!(a.comm_events(), b.comm_events(), "{ctx}: comm events");
}
