//! Baseline mapping strategies.
//!
//! These implement the execution scenarios the paper's §1 contrasts with
//! pipelined execution (Fig. 1), plus related-work-flavoured comparators:
//!
//! * [`makespan`] — contention-aware makespan list scheduling: HEFT-style
//!   (upward ranks, insertion-based earliest finish time) and ETF
//!   (earliest-start-first), both under the one-port model. These drive
//!   the *task parallelism* scenario.
//! * [`task_parallel()`](task_parallel()) — Fig. 1(b): the whole DAG list-scheduled per data
//!   set and repeated serially, with `ε+1` replica lanes on disjoint
//!   processor groups.
//! * [`data_parallel()`](data_parallel()) — Fig. 1(c): the whole graph on single processors,
//!   items dealt round-robin to `ε+1`-sized replica groups.
//! * [`throughput_first()`](throughput_first()) — a greedy stage-partitioning heuristic in the
//!   spirit of the related work (§3: Hary–Özgüner pre-clustering, TDA):
//!   it satisfies the throughput constraint first-fit with no replication
//!   and no latency objective, providing an ε = 0 comparator that emits a
//!   real [`ltf_schedule::Schedule`].

//!
//! Every strategy is also a [`ltf_core::Heuristic`] (module
//! [`heuristics`]): the static table [`FULL`] lists the paper's algorithms
//! *and* all baselines, and [`full_solver`] builds a [`ltf_core::Solver`]
//! session over it, dispatchable by name.

pub mod data_parallel;
pub mod heuristics;
pub mod makespan;
pub mod task_parallel;
pub mod throughput_first;

pub use crate::data_parallel::{data_parallel, DataParallelOutcome};
pub use crate::heuristics::{
    full_solver, DataParallel, Etf, Heft, TaskParallel, ThroughputFirst, FULL,
};
pub use crate::makespan::{etf, heft, MakespanComm, MakespanSchedule};
pub use crate::task_parallel::{task_parallel, TaskParallelOutcome};
pub use crate::throughput_first::throughput_first;
