//! Declarative experiment campaigns: spec → matrix → sharded, checkpointed
//! execution → deterministic merge.
//!
//! A campaign is described by a JSON [`spec`] file (graph
//! families × heuristics × ε ranges × platform sizes × instance counts),
//! expanded into an ordered experiment matrix and flattened into a global
//! work-item list. One [`pipeline`] runs every campaign: its shard runner
//! executes one round-robin shard of the item list — journalling each
//! completed item to a checkpoint so a killed worker resumes instead of
//! recomputing — and the [`merge`] side recombines per-shard results into
//! output **byte-identical** to a single-process run, failing loudly on
//! missing items or nondeterministic duplicates.
//!
//! Two [`CampaignKind`]s plug into it. A plain spec is a [`pareto`]
//! campaign: one front enumeration per item. A spec with a `failure` block
//! is an [`slo`] campaign: cells solve one witness schedule each and
//! replay sampled crash traces through it, aggregating SLO distribution
//! statistics (`ltf-faultlab`). [`Kind::of`] makes that decision, and
//! nothing else does.
//!
//! The `ltf-campaign` binary builds the multi-process coordinator
//! (spawned `campaign-worker` children or remote LDJSON shards) on top of
//! exactly these pieces. See `docs/campaign-spec.md` for the spec format,
//! `docs/slo-campaign.md` for SLO campaigns, and `ARCHITECTURE.md` for
//! where campaigns sit in the stack.

pub mod merge;
pub mod pareto;
pub mod pipeline;
pub mod slo;
pub mod spec;

pub use merge::{CampaignResult, Merger};
pub use pareto::{render_item, render_lines, work_items, ItemResult, ParetoKind, WorkItem};
pub use pipeline::{
    campaign_of, journal_key, run_serial, run_shard, worker_main, Campaign, CampaignKind, Kind,
    WireMerger, ABORT_ENV,
};
pub use slo::{
    build_slo_report, slo_cells, slo_work_items, SloCell, SloItemResult, SloKind, SloWorkItem,
};
pub use spec::{
    CampaignSpec, EpsRange, Experiment, FailureSpec, SloSpec, SpecError, TopologyShape,
    TopologySpec, DEFAULT_SEED, MAX_FAILURE_ITEMS, MAX_WORK_ITEMS,
};
