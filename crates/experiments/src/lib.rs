//! Experiment harness reproducing the paper's evaluation (§5).
//!
//! * [`workload`] — the calibrated random workload: 50–150-task layered
//!   DAGs, 20 heterogeneous processors, granularity sweep, throughput
//!   `1/(10(ε+1))`.
//! * [`runner`] — per-instance measurement (LTF, R-LTF, fault-free
//!   reference; latency bounds, effective latencies, crash draws) on the
//!   shared [`ltf_core::par`] worker pool.
//! * [`figures`] — the sweeps behind Figs. 3 and 4 and their three panels
//!   (latency bounds / latency with crashes / overhead).
//! * [`scaling`] — runtime scaling against `v`, `m`, `ε` (Theorem 1).
//! * [`ablation`] — design ablations (Rule 1, Rule 2, one-to-one, chunk
//!   size).
//! * [`pareto`] — Pareto-front enumeration over (latency, period, ε,
//!   processors) on the worked examples or the §5 workload.
//! * [`checkpoint`] — streamed JSON-lines journals with kill-safe
//!   resume-on-restart for the long-running sweeps.
//! * [`campaign`] — declarative JSON campaign specs expanded into an
//!   experiment matrix, run as round-robin shards over the checkpoint
//!   journals, and merged back byte-identical to a serial run. It is the
//!   one pipeline behind Pareto campaigns, SLO campaigns and the
//!   thousands-of-instances `pareto --graph workload` sweep (the
//!   `ltf-campaign` coordinator drives multiple worker processes through
//!   it).
//! * [`stats`], [`ascii`] — aggregation, CSV and terminal charts.
//!
//! The `ltf-experiments` binary exposes all of this on the command line;
//! `cargo run -p ltf-experiments --release -- all` regenerates every
//! figure of the paper. Distributed campaigns and their worker processes
//! run through `ltf-campaign` (see `docs/campaign-spec.md`).

pub mod ablation;
pub mod ascii;
pub mod campaign;
pub mod checkpoint;
pub mod figures;
pub mod pareto;
pub mod runner;
pub mod scaling;
pub mod stats;
pub mod workload;

pub use crate::checkpoint::Checkpoint;
pub use crate::figures::{panel, sweep, sweep_checkpointed, Panel, SweepConfig, SweepData};
pub use crate::runner::{measure_instance, RunRecord};
pub use crate::stats::{Figure, Series, SeriesPoint};
pub use crate::workload::{gen_instance, gen_instance_on, Instance, PaperWorkload};

/// Pull the next argument as `flag`'s value and parse it, turning both
/// failure modes into one diagnostic shape: `flag: got 'X', expected
/// <what>` / `flag: missing value, expected <what>`. Shared by the
/// `ltf-experiments`, `ltf-campaign` and `ltf-serve` command lines.
pub fn take<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    expected: &str,
) -> Result<T, String> {
    let raw = args
        .next()
        .ok_or_else(|| format!("{flag}: missing value, expected {expected}"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: got '{raw}', expected {expected}"))
}
