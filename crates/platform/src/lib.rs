//! Heterogeneous target platform model (paper §2).
//!
//! A platform is a set of `m` fully-interconnected processors
//! `P = {P1, …, Pm}` with speeds `s_u`. The link between `P_k` and `P_h`
//! has a *unit message delay* `d_kh` (the inverse of its bandwidth): sending
//! `vol` data units from `P_k` to `P_h` takes `vol · d_kh` time. Links may
//! be physical or routed paths; only the bottleneck bandwidth is retained.
//!
//! The communication architecture is the **bi-directional one-port model**
//! (Bhat, Raghavendra, Prasanna): at any time a processor is engaged in at
//! most one send and at most one receive, which may overlap with each other
//! and with (independent) computation. The *enforcement* of one-port
//! serialization lives in the scheduling and simulation crates; this crate
//! only describes the hardware.

pub mod builders;
pub mod comm;
pub mod platform;
pub mod topology;

pub use crate::builders::HeterogeneousConfig;
pub use crate::comm::{CommMode, Link, LinkId, Route, RouteTable};
pub use crate::platform::{AverageWeights, AverageWeightsInput, Channels, Platform, ProcId};
pub use crate::topology::Topology;
