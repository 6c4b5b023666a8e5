//! Discrete-event simulation of pipelined schedule execution.
//!
//! The paper evaluates schedules both through the stage bound
//! `L = (2S − 1)/T` and by "computing the real execution time for a given
//! schedule rather than just bounds" (§5). This crate provides both
//! executable semantics for a [`ltf_schedule::Schedule`] driven by a stream
//! of data items, with optional processor-crash injection:
//!
//! * [`synchronous()`](synchronous()) — the Hary–Özgüner stage-synchronous
//!   discipline behind the latency formula: time is divided into windows
//!   of length `Δ`; an item is computed by stage-`s` replicas in window
//!   `k + 2(s−1)` and shipped in window `k + 2s − 1`. Per-item latency is
//!   exactly `(2·S_eff − 1)·Δ` with the effective (best-alive-source) stage
//!   of the item's surviving exit replicas, re-derived item by item. With a
//!   fixed crash set that is `ltf_schedule::failures::effective_latency`
//!   for every item, and the replay is cross-validated against it.
//! * [`asap()`](asap()) — an event-driven ASAP (as-soon-as-possible)
//!   execution: every replica starts an item as soon as one copy of each
//!   input has arrived and its processor is free; messages contend for
//!   send/receive ports under the one-port model. Latencies are ≤ the
//!   synchronous ones; the gap measures the slack the window model leaves
//!   on the table.
//!
//! Crash injection is fail-silent/fail-stop: from the crash time onward a
//! crashed processor finishes nothing and sends nothing.
//!
//! Both disciplines replay a [`TraceConfig`]: a [`CrashTrace`] carries
//! per-processor crash times and a [`RecoveryPolicy`] decides whether
//! consumers starve when their scheduled sources die
//! ([`RecoveryPolicy::FailStop`]) or re-route the fetch to a surviving
//! replica mid-stream ([`RecoveryPolicy::Reroute`]). The paper's fixed
//! crash set (one set of processors failing at one instant) is the trace
//! [`CrashTrace::from_crash_set`] under fail-stop. `ltf-faultlab` builds
//! its stochastic SLO campaigns on these two entry points.

pub mod asap;
pub mod fault;
pub mod report;
pub mod synchronous;

pub use crate::asap::asap;
pub use crate::fault::{CrashTrace, RecoveryPolicy, TraceConfig};
pub use crate::report::SimReport;
pub use crate::synchronous::synchronous;
