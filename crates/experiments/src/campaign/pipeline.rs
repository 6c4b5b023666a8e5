//! The one campaign pipeline: shard runner, serial reference and worker
//! entry point, generic over the campaign kind.
//!
//! A [`CampaignKind`] says what a work item is and how it computes and
//! renders; everything else — round-robin sharding over the global item
//! index ([`ltf_core::shard::Shard`]), checkpoint journalling and replay,
//! the merge and the worker wire — is written once here. Sharding is a
//! pure function of the spec and the shard count, so any process can
//! recompute any shard, which is what lets the coordinator reassign a dead
//! worker's shard and still merge byte-identical output.
//!
//! [`Kind::of`] is the only place a spec's kind is decided (a `failure`
//! block makes it an SLO campaign). The coordinator, the serve shard
//! handler, the worker, the serial reference and `ltf-campaign expand` hold
//! the result as a [`Campaign`] trait object and never ask which kind it
//! is.

use super::merge::{CampaignResult, Merger};
use super::pareto::ParetoKind;
use super::slo::SloKind;
use super::spec::{CampaignSpec, Experiment, SpecError};
use crate::checkpoint::{resume, window_for};
use ltf_core::shard::Shard;
use serde::{Deserialize, Serialize, Value};
use std::io::Write;
use std::path::Path;

/// Crash-injection hook for the kill-a-worker tests: when this variable
/// names a marker file, the worker hard-aborts after its first emitted
/// item *unless the marker already exists* (it creates the marker first,
/// so exactly one incarnation dies and its retry runs to completion).
pub const ABORT_ENV: &str = "LTF_CAMPAIGN_ABORT_AFTER_ITEM";

/// One campaign kind: its ordered work items, its journal-key prefix, how
/// one item computes, and how merged results render.
pub trait CampaignKind: Sync {
    /// One unit of work (the unit of sharding, journalling and retry).
    type Item: Sync;
    /// One completed item: the journal record, the worker wire line and
    /// the unit the [`Merger`] collects.
    type Result: CampaignResult + Serialize + Deserialize + Send;
    /// Journal-key prefix; keeps the kinds' records disjoint even in a
    /// shared journal file.
    const PREFIX: &'static str;

    /// The spec the kind was built from (its name and signature key the
    /// journal).
    fn spec(&self) -> &CampaignSpec;
    /// The global work-item list, in item order: item `i` sits at `[i]`.
    fn items(&self) -> &[Self::Item];
    /// Compute one item. Self-contained: any shard, thread or retry
    /// computes the identical result.
    fn compute(&self, item: &Self::Item) -> Self::Result;
    /// Render merged results (global item order) into the canonical
    /// output lines.
    fn render(&self, merged: &[Self::Result]) -> Result<Vec<String>, String>;
    /// The `ltf-campaign expand` lines: one per experiment, then the
    /// kind's own summary.
    fn describe(&self) -> Vec<String>;
}

/// The journal key of work item `item` of a campaign named `name` with
/// signature `sig`: name + signature pin the exact configuration, so a
/// shared or stale journal never cross-replays between campaigns.
pub fn journal_key(prefix: &str, name: &str, sig: u64, item: usize) -> String {
    format!("{prefix}:{name}:{sig:016x}:item={item:06}")
}

/// Run one shard: keep the items the shard owns, replay the journalled
/// ones, compute the rest in checkpointed windows, and hand every result
/// to `emit` exactly once (replayed first, then fresh, in item order).
/// Returns the number of results emitted — always the shard's full item
/// count on success.
pub fn run_shard<K: CampaignKind>(
    kind: &K,
    shard: Shard,
    threads: usize,
    journal: Option<&Path>,
    mut emit: impl FnMut(K::Result),
) -> Result<usize, String> {
    let spec = kind.spec();
    let sig = spec.signature();
    let owned: Vec<usize> = (0..kind.items().len()).filter(|&i| shard.owns(i)).collect();
    let mut emitted = 0usize;
    resume(
        journal,
        &owned,
        threads,
        window_for(threads),
        |&i| journal_key(K::PREFIX, &spec.name, sig, i),
        |&i| kind.compute(&kind.items()[i]),
        |_, r| {
            emitted += 1;
            emit(r);
        },
    )
    .map_err(|e| format!("checkpoint: {e}"))?;
    Ok(emitted)
}

/// The serial reference: the whole campaign as the one-shard run through
/// the same runner and [`Merger`] every distributed run uses, so "serial
/// equals distributed" is structural. Returns the merged results in
/// global item order.
pub fn run_serial<K: CampaignKind>(
    kind: &K,
    threads: usize,
    journal: Option<&Path>,
) -> Result<Vec<K::Result>, String> {
    let mut collected = Vec::new();
    run_shard(kind, Shard::solo(), threads, journal, |r| collected.push(r))?;
    let mut merger = Merger::new(kind.items().len());
    for r in collected {
        merger.insert(r)?;
    }
    merger.finish()
}

/// A campaign of either kind, with results in their wire form
/// ([`Value`]).
pub trait Campaign {
    /// Work items in the whole campaign.
    fn item_count(&self) -> usize;
    /// [`CampaignKind::describe`].
    fn expand_lines(&self) -> Vec<String>;
    /// [`run_shard`], emitting each result as a [`Value`].
    fn run_shard(
        &self,
        shard: Shard,
        threads: usize,
        journal: Option<&Path>,
        emit: &mut dyn FnMut(Value),
    ) -> Result<usize, String>;
    /// [`run_serial`], rendered: the golden lines every distributed run
    /// must equal byte for byte.
    fn serial(&self, threads: usize, journal: Option<&Path>) -> Result<Vec<String>, String>;
    /// A merger over wire-form results from any shard, rendering once
    /// complete.
    fn merger(&self) -> Box<dyn WireMerger + Send + '_>;
}

/// Collects wire-form results in any arrival order (see [`Merger`]).
pub trait WireMerger {
    /// Decode and add one result; a result that does not decode, or
    /// conflicts with an earlier one for the same item, is an error.
    fn insert(&mut self, v: &Value) -> Result<(), String>;
    /// Finish the merge and render it, or name the missing items.
    fn finish(self: Box<Self>) -> Result<Vec<String>, String>;
}

impl<K: CampaignKind> Campaign for K {
    fn item_count(&self) -> usize {
        self.items().len()
    }

    fn expand_lines(&self) -> Vec<String> {
        self.describe()
    }

    fn run_shard(
        &self,
        shard: Shard,
        threads: usize,
        journal: Option<&Path>,
        emit: &mut dyn FnMut(Value),
    ) -> Result<usize, String> {
        run_shard(self, shard, threads, journal, |r| emit(r.to_value()))
    }

    fn serial(&self, threads: usize, journal: Option<&Path>) -> Result<Vec<String>, String> {
        self.render(&run_serial(self, threads, journal)?)
    }

    fn merger(&self) -> Box<dyn WireMerger + Send + '_> {
        Box::new(TypedMerger {
            kind: self,
            merger: Merger::new(self.items().len()),
        })
    }
}

struct TypedMerger<'k, K: CampaignKind> {
    kind: &'k K,
    merger: Merger<K::Result>,
}

impl<K: CampaignKind> WireMerger for TypedMerger<'_, K> {
    fn insert(&mut self, v: &Value) -> Result<(), String> {
        let r = K::Result::from_value(v).map_err(|e| format!("merge: bad result: {e}"))?;
        self.merger.insert(r)
    }

    fn finish(self: Box<Self>) -> Result<Vec<String>, String> {
        self.kind.render(&self.merger.finish()?)
    }
}

/// A spec's campaign kind.
pub enum Kind<'a> {
    /// No `failure` block: one front enumeration per work item.
    Pareto(ParetoKind<'a>),
    /// A `failure` block: sampled crash traces replayed per cell.
    Slo(SloKind<'a>),
}

impl<'a> Kind<'a> {
    /// Validate and expand `spec` and decide its kind — the only place the
    /// decision is made.
    pub fn of(spec: &'a CampaignSpec) -> Result<Self, SpecError> {
        Ok(match &spec.failure {
            None => Self::Pareto(ParetoKind::new(spec)?),
            Some(f) => Self::Slo(SloKind::new(spec, f)?),
        })
    }

    /// The kind behind the kind-agnostic [`Campaign`] face.
    pub fn campaign(self) -> Box<dyn Campaign + 'a> {
        match self {
            Self::Pareto(k) => Box::new(k),
            Self::Slo(k) => Box::new(k),
        }
    }
}

/// [`Kind::of`] as a [`Campaign`], with the spec error rendered as text.
pub fn campaign_of(spec: &CampaignSpec) -> Result<Box<dyn Campaign + '_>, String> {
    Kind::of(spec)
        .map(Kind::campaign)
        .map_err(|e| e.to_string())
}

/// The `expand` lines every kind starts with: one per experiment.
pub(super) fn experiment_lines(exps: &[Experiment]) -> Vec<String> {
    exps.iter()
        .map(|exp| {
            format!(
                "{:>4}  {}  [{} instance(s)]",
                exp.index, exp.label, exp.instances
            )
        })
        .collect()
}

/// The worker-process entry point behind `ltf-campaign campaign-worker`:
/// load the spec, run the shard, and stream the wire form the coordinator
/// consumes — one JSON line per result, each flushed as soon as it
/// completes, then `{"done":true,"shard":"K/N","items":N}`, which tells a
/// clean finish from a crash mid-shard.
pub fn worker_main(
    spec_path: &Path,
    shard: Shard,
    threads: usize,
    journal: Option<&Path>,
    out: &mut impl Write,
) -> Result<usize, String> {
    let spec = CampaignSpec::load(spec_path).map_err(|e| e.to_string())?;
    let campaign = campaign_of(&spec)?;
    let abort_marker = std::env::var_os(ABORT_ENV).map(std::path::PathBuf::from);
    let mut io_err: Option<String> = None;
    let emitted = campaign.run_shard(shard, threads, journal, &mut |v| {
        if io_err.is_some() {
            return;
        }
        let line = serde_json::to_string(&v).expect("value writer is infallible");
        if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
            io_err = Some(format!("worker stdout: {e}"));
            return;
        }
        if let Some(marker) = &abort_marker {
            if !marker.exists() {
                // First incarnation: leave the marker so the retry
                // survives, then die the hard way (no unwinding, no
                // cleanup) — the same failure the SIGKILL CI smoke
                // injects.
                let _ = std::fs::write(marker, b"aborted\n");
                std::process::abort();
            }
        }
    })?;
    if let Some(e) = io_err {
        return Err(e);
    }
    let done = Value::Map(vec![
        ("done".to_string(), Value::Bool(true)),
        ("shard".to_string(), Value::Str(shard.to_string())),
        ("items".to_string(), Value::UInt(emitted as u64)),
    ]);
    let line = serde_json::to_string(&done).expect("value writer is infallible");
    writeln!(out, "{line}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("worker stdout: {e}"))?;
    Ok(emitted)
}
