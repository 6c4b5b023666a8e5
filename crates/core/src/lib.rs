//! The LTF and R-LTF scheduling algorithms of
//! *"Optimizing the Latency of Streaming Applications under Throughput and
//! Reliability Constraints"* (Benoit, Hakem, Robert, 2009), behind a
//! unified [`Solver`]/[`Heuristic`] API.
//!
//! Both heuristics map every task of a streaming workflow DAG — replicated
//! `ε+1` times to survive `ε` fail-silent/fail-stop processor failures —
//! onto a heterogeneous one-port platform so that the prescribed throughput
//! `T` is met (condition (1): per-processor compute and per-port
//! communication loads fit the period `Δ = 1/T`), while minimizing the
//! pipeline latency `L = (2S − 1)/T`.
//!
//! # The Solver API
//!
//! Every strategy — [`Ltf`] (Algorithm 4.1), [`Rltf`] (§4.2, the paper's
//! winner), [`FaultFree`] (the ε = 0 reference of §5) and the comparison
//! baselines of `ltf-baselines` — implements the [`Heuristic`] trait and is
//! dispatched by name through a [`Solver`] session over a static registry
//! table ([`BUILTIN`], or `ltf_baselines::FULL`). The session owns the
//! per-instance derivations and returns typed [`Solution`] /
//! [`Diagnostics`] outcomes:
//!
//! ```
//! use ltf_core::{AlgoConfig, ScheduleError, Solver};
//! use ltf_graph::generate::{fig2_workflow, fig2_workflow_variant};
//! use ltf_platform::Platform;
//!
//! let g = fig2_workflow_variant();
//! let p = Platform::homogeneous(8, 1.0, 1.0);
//! let solver = Solver::builtin(&g, &p); // ltf, rltf, fault-free
//! let cfg = AlgoConfig::with_throughput(1, 0.05); // ε = 1, T = 0.05
//!
//! let sol = solver.solve("rltf", &cfg).unwrap();
//! assert!(sol.metrics.latency_upper_bound <= 140.0);
//!
//! // Infeasible requests come back as typed diagnostics naming the
//! // heuristic, the request, and the replica that could not be placed
//! // (R-LTF paints itself into a corner on the fig2 reconstruction).
//! let g2 = fig2_workflow();
//! let solver2 = Solver::builtin(&g2, &p);
//! let err = solver2.solve("rltf", &cfg).unwrap_err();
//! assert_eq!(err.epsilon, 1);
//! assert!(matches!(err.error, ScheduleError::Infeasible { .. }));
//! ```
//!
//! The [`search`] module drives any [`Heuristic`] as an oracle for the
//! conclusion's "symmetric" objectives: maximize throughput under a
//! latency budget ([`search::min_period`]), maximize ε
//! ([`search::max_epsilon`]), minimize processors
//! ([`search::min_processors`]); [`search::pareto`] composes them into a
//! Pareto-front enumeration over (latency, period, ε, processors), with
//! latency-cap / processor-budget variants and a cross-heuristic merge
//! over a whole [`Solver`] registry.

#[cfg(test)]
mod alloc_probe;
mod api;
mod config;
mod convert;
mod driver;
mod engine;
pub mod par;
pub mod prio;
mod reference;
pub mod search;
pub mod shard;
pub mod solver;
pub mod stats;

pub use crate::api::{schedule_with_reference, PreparedInstance};
pub use crate::config::{AlgoConfig, AlgoKind, PeriodWindow, ScheduleError};
pub use crate::engine::MAX_PROCS;
pub use crate::prio::LevelCache;
pub use crate::solver::{
    lookup, Diagnostics, FaultFree, Heuristic, Ltf, Rltf, Solution, SolutionMetrics, Solver,
    Windowed, BUILTIN,
};
