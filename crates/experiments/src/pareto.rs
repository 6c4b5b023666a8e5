//! Pareto-front runner behind the `ltf-experiments pareto` subcommand:
//! instance selection (the paper's worked examples or a calibrated random
//! workload), front enumeration through the full `Solver` registry, witness
//! re-validation, and the CSV / JSON-lines record rendering. Workload-scale
//! sweeps (`pareto --graph workload --instances N`) run as one-experiment
//! campaigns through [`crate::campaign`], one compact [`FrontRow`] list
//! per instance.

use crate::workload::{gen_instance, PaperWorkload};
use ltf_baselines::full_solver;
use ltf_core::search::pareto::{pareto_front, pareto_front_all, ParetoOptions, ParetoPoint};
use ltf_graph::generate::{fig1_diamond, fig2_workflow, fig2_workflow_variant};
use ltf_graph::TaskGraph;
use ltf_platform::Platform;
use ltf_schedule::validate;
use serde::{Deserialize, Serialize};

/// Which instance the front is enumerated on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParetoInstance {
    /// Fig. 1's motivating 4-task diamond on the paper's 4 processors.
    Fig1,
    /// Fig. 2's text-pinned 7-task reconstruction on 10 unit processors.
    Fig2,
    /// The Fig. 2 variant (`E(t2) = 3`, DESIGN.md §2.10) on 8 unit
    /// processors — the repo's canonical worked example.
    Fig2Variant,
    /// One calibrated random instance of the paper's §5 workload.
    Workload,
}

impl ParetoInstance {
    /// Parse a CLI `--graph` value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fig1" => Some(Self::Fig1),
            "fig2" => Some(Self::Fig2),
            "fig2-variant" => Some(Self::Fig2Variant),
            "workload" => Some(Self::Workload),
            _ => None,
        }
    }

    /// Materialize the instance. `seed` and `utilization` only affect
    /// [`ParetoInstance::Workload`].
    pub fn build(self, seed: u64, utilization: f64) -> (TaskGraph, Platform, String) {
        match self {
            Self::Fig1 => (
                fig1_diamond(),
                Platform::fig1_platform(),
                "fig1".to_string(),
            ),
            Self::Fig2 => (
                fig2_workflow(),
                Platform::homogeneous(10, 1.0, 1.0),
                "fig2".to_string(),
            ),
            Self::Fig2Variant => (
                fig2_workflow_variant(),
                Platform::homogeneous(8, 1.0, 1.0),
                "fig2-variant".to_string(),
            ),
            Self::Workload => {
                let wl = PaperWorkload {
                    utilization,
                    ..Default::default()
                };
                let inst = gen_instance(&wl, seed);
                (
                    inst.graph,
                    inst.platform,
                    format!("paper-workload seed={seed:#x}"),
                )
            }
        }
    }
}

/// Enumerate the front on `(g, p)` with heuristic `algo` (a registry name,
/// or `"all"` for the cross-heuristic merge over the full registry —
/// the paper's heuristics plus every baseline).
pub fn enumerate(
    g: &TaskGraph,
    p: &Platform,
    algo: &str,
    opts: &ParetoOptions,
) -> Result<Vec<ParetoPoint>, String> {
    let solver = full_solver(g, p);
    if algo == "all" {
        Ok(pareto_front_all(&solver, opts))
    } else {
        let h = solver.heuristic(algo).ok_or_else(|| {
            format!(
                "unknown heuristic {algo:?} (registered: {}, or \"all\")",
                solver.names().join(", ")
            )
        })?;
        Ok(pareto_front(g, p, h, opts))
    }
}

/// Re-validate every witness schedule against the platform prefix it was
/// computed on. Returns the first violation rendered as text.
pub fn validate_front(g: &TaskGraph, p: &Platform, front: &[ParetoPoint]) -> Result<(), String> {
    for pt in front {
        let prefix = p.prefix(pt.platform_procs);
        if let Err(violations) = validate(g, &prefix, &pt.solution.schedule) {
            let first = violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default();
            return Err(format!("witness of point [{pt}] is invalid: {first}"));
        }
    }
    Ok(())
}

/// CSV header matching [`csv_line`].
pub const CSV_HEADER: &str =
    "instance,heuristic,epsilon,procs,platform_procs,period,throughput,latency,stages,comms";

/// One CSV row per front point (streamed by the CLI as points are
/// written).
pub fn csv_line(instance: &str, pt: &ParetoPoint) -> String {
    let o = &pt.objectives;
    format!(
        "{},{},{},{},{},{:.6},{:.6},{:.6},{},{}",
        instance.replace(',', ";"),
        pt.heuristic,
        o.epsilon,
        o.procs,
        pt.platform_procs,
        o.period,
        o.throughput(),
        o.latency,
        pt.solution.metrics.stages,
        pt.solution.metrics.comm_count,
    )
}

/// One compact front point of a workload-scale sweep: the objectives and
/// summary metrics, without the witness schedule (a thousand-instance
/// sweep cannot afford to journal full schedules, and the witnesses are
/// re-validated before the row is emitted anyway).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontRow {
    /// Instance seed the front was enumerated on.
    pub seed: u64,
    /// Heuristic that reached the point.
    pub heuristic: String,
    /// Fault-tolerance degree ε.
    pub epsilon: u8,
    /// Distinct processors the witness uses.
    pub procs: usize,
    /// Platform prefix the witness was scheduled on.
    pub platform_procs: usize,
    /// Iteration period Δ.
    pub period: f64,
    /// Guaranteed pipeline latency.
    pub latency: f64,
    /// Pipeline stage count of the witness.
    pub stages: u32,
    /// Inter-processor messages per data set.
    pub comms: usize,
}

impl FrontRow {
    /// Compact one front point, tagged with its instance seed.
    pub fn new(seed: u64, pt: &ParetoPoint) -> Self {
        let o = &pt.objectives;
        Self {
            seed,
            heuristic: pt.heuristic.clone(),
            epsilon: o.epsilon,
            procs: o.procs,
            platform_procs: pt.platform_procs,
            period: o.period,
            latency: o.latency,
            stages: pt.solution.metrics.stages,
            comms: pt.solution.metrics.comm_count,
        }
    }

    /// CSV row matching [`SWEEP_CSV_HEADER`].
    pub fn csv_line(&self) -> String {
        format!(
            "{:#x},{},{},{},{},{:.6},{:.6},{:.6},{},{}",
            self.seed,
            self.heuristic,
            self.epsilon,
            self.procs,
            self.platform_procs,
            self.period,
            1.0 / self.period,
            self.latency,
            self.stages,
            self.comms,
        )
    }
}

/// CSV header matching [`FrontRow::csv_line`].
pub const SWEEP_CSV_HEADER: &str =
    "seed,heuristic,epsilon,procs,platform_procs,period,throughput,latency,stages,comms";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_all_instances() {
        assert_eq!(ParetoInstance::parse("fig1"), Some(ParetoInstance::Fig1));
        assert_eq!(ParetoInstance::parse("fig2"), Some(ParetoInstance::Fig2));
        assert_eq!(
            ParetoInstance::parse("fig2-variant"),
            Some(ParetoInstance::Fig2Variant)
        );
        assert_eq!(
            ParetoInstance::parse("workload"),
            Some(ParetoInstance::Workload)
        );
        assert_eq!(ParetoInstance::parse("fig9"), None);
    }

    #[test]
    fn fig1_front_enumerates_and_validates() {
        let (g, p, label) = ParetoInstance::Fig1.build(0, 0.25);
        let front = enumerate(&g, &p, "rltf", &ParetoOptions::default()).unwrap();
        assert!(!front.is_empty());
        validate_front(&g, &p, &front).expect("witnesses valid");
        let line = csv_line(&label, &front[0]);
        assert_eq!(line.split(',').count(), CSV_HEADER.split(',').count());
        assert!(line.starts_with("fig1,rltf,"));
    }

    #[test]
    fn cross_heuristic_merge_through_full_registry() {
        let (g, p, _) = ParetoInstance::Fig1.build(0, 0.25);
        let front = enumerate(&g, &p, "all", &ParetoOptions::default()).unwrap();
        assert!(!front.is_empty());
        validate_front(&g, &p, &front).expect("witnesses valid");
    }

    #[test]
    fn unknown_heuristic_is_an_error() {
        let (g, p, _) = ParetoInstance::Fig1.build(0, 0.25);
        let err = enumerate(&g, &p, "zeus", &ParetoOptions::default()).unwrap_err();
        assert!(err.contains("zeus") && err.contains("rltf"));
    }
}
