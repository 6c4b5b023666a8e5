//! Pareto campaigns: one front enumeration per work item.
//!
//! The work item is one (graph instance, ε band) front enumeration,
//! numbered globally across the whole expanded experiment matrix in
//! expansion order; the merged output is one JSON line per front row.

use super::merge::CampaignResult;
use super::pipeline::{experiment_lines, CampaignKind};
use super::spec::{CampaignSpec, Experiment, SpecError};
use crate::pareto::{enumerate, validate_front, FrontRow, ParetoInstance};
use crate::workload::gen_instance_on;
use serde::{Deserialize, Serialize, Value};

/// One unit of campaign work: instance `instance` of experiment
/// `experiment`, at global position `item` in the flattened list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Global index across all experiments (the sharding key).
    pub item: usize,
    /// Index into the expanded experiment list.
    pub experiment: usize,
    /// Instance number within the experiment.
    pub instance: usize,
    /// The instance's deterministic seed.
    pub seed: u64,
}

/// Flatten the expanded experiment matrix into the global ordered
/// work-item list (experiment-major, instance-minor). Deterministic in
/// the experiment list alone.
pub fn work_items(exps: &[Experiment]) -> Vec<WorkItem> {
    let mut out = Vec::new();
    for exp in exps {
        for k in 0..exp.instances {
            out.push(WorkItem {
                item: out.len(),
                experiment: exp.index,
                instance: k,
                seed: exp.base_seed.wrapping_add(k as u64),
            });
        }
    }
    out
}

/// The completed result of one work item: the journal record, the worker
/// stdout line, and the unit the coordinator merges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemResult {
    /// Global work-item index.
    pub item: u64,
    /// Experiment index the item belongs to.
    pub experiment: u64,
    /// The experiment's label (carried so merged output lines are
    /// self-describing without re-expanding the spec).
    pub label: String,
    /// Instance seed the front was enumerated on.
    pub seed: u64,
    /// The instance's compact front rows.
    pub rows: Vec<FrontRow>,
}

impl CampaignResult for ItemResult {
    fn item_index(&self) -> u64 {
        self.item
    }

    fn summary(&self) -> String {
        format!("{} rows, label {:?}", self.rows.len(), self.label)
    }
}

/// Render one item's front rows as output lines: each row becomes a flat
/// JSON object prefixed with the experiment label and item index.
pub fn render_item(r: &ItemResult) -> Vec<String> {
    r.rows
        .iter()
        .map(|row| {
            let mut fields = vec![
                ("experiment".to_string(), Value::Str(r.label.clone())),
                ("item".to_string(), Value::UInt(r.item)),
            ];
            match row.to_value() {
                Value::Map(m) => fields.extend(m),
                other => fields.push(("row".to_string(), other)),
            }
            serde_json::to_string(&Value::Map(fields)).expect("value writer is infallible")
        })
        .collect()
}

/// Render merged results (global item order) into the canonical campaign
/// output: one JSON line per front row.
pub fn render_lines(results: &[ItemResult]) -> Vec<String> {
    results.iter().flat_map(render_item).collect()
}

/// A Pareto campaign: the expanded spec and its work items.
pub struct ParetoKind<'a> {
    spec: &'a CampaignSpec,
    exps: Vec<Experiment>,
    items: Vec<WorkItem>,
}

impl<'a> ParetoKind<'a> {
    /// Validate and expand `spec` as a Pareto campaign.
    pub fn new(spec: &'a CampaignSpec) -> Result<Self, SpecError> {
        let exps = spec.expand()?;
        let items = work_items(&exps);
        Ok(Self { spec, exps, items })
    }
}

impl CampaignKind for ParetoKind<'_> {
    type Item = WorkItem;
    type Result = ItemResult;
    const PREFIX: &'static str = "campaign";

    fn spec(&self) -> &CampaignSpec {
        self.spec
    }

    fn items(&self) -> &[WorkItem] {
        &self.items
    }

    /// Enumerate one item's front. Every witness is re-validated against
    /// its platform prefix first; a validation failure is a scheduler bug
    /// and panics (propagated with its payload by the worker pool) rather
    /// than journalling a bogus result as completed work.
    fn compute(&self, wi: &WorkItem) -> ItemResult {
        let exp = &self.exps[wi.experiment];
        let (g, p) = match exp.family {
            ParetoInstance::Workload => {
                let inst = gen_instance_on(&exp.workload, wi.seed, exp.topology.as_ref());
                (inst.graph, inst.platform)
            }
            fam => {
                let (g, p, _) = fam.build(wi.seed, exp.workload.utilization);
                (g, p)
            }
        };
        let front = enumerate(&g, &p, &exp.algo, &exp.opts).expect("algo validated at expansion");
        if let Err(e) = validate_front(&g, &p, &front) {
            panic!("campaign item {} ({}): {e}", wi.item, exp.label);
        }
        ItemResult {
            item: wi.item as u64,
            experiment: wi.experiment as u64,
            label: exp.label.clone(),
            seed: wi.seed,
            rows: front.iter().map(|pt| FrontRow::new(wi.seed, pt)).collect(),
        }
    }

    fn render(&self, merged: &[ItemResult]) -> Result<Vec<String>, String> {
        Ok(render_lines(merged))
    }

    fn describe(&self) -> Vec<String> {
        let mut lines = experiment_lines(&self.exps);
        lines.push(format!(
            "campaign {:?}: {} experiment(s), {} work item(s), signature {:016x}",
            self.spec.name,
            self.exps.len(),
            self.items.len(),
            self.spec.signature()
        ));
        lines
    }
}
