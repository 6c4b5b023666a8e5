//! Design ablations: what each mechanism of the heuristics buys.
//!
//! Variants (all on identical instances):
//!
//! * `R-LTF` — the full algorithm;
//! * `R-LTF -rule1` — stage-count preference disabled;
//! * `R-LTF -rule2` — linear-chain one-to-one spreading disabled;
//! * `R-LTF -oto` / `LTF -oto` — one-to-one mapping disabled entirely
//!   (every replica receives from all copies: the `(ε+1)²` regime);
//! * `LTF` — the full forward heuristic;
//! * `LTF B=1` — chunk size 1 (classical one-task-at-a-time list
//!   scheduling instead of the paper's `B = m` chunks).

use crate::workload::{gen_instance, PaperWorkload};
use ltf_core::par::parallel_map;
use ltf_core::{AlgoConfig, AlgoKind, PreparedInstance};
use serde::Serialize;

/// Aggregated outcome of one variant.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRecord {
    /// Variant label.
    pub variant: String,
    /// Instances scheduled successfully.
    pub feasible: usize,
    /// Total instances.
    pub total: usize,
    /// Mean stage count over feasible runs.
    pub stages: f64,
    /// Mean guaranteed latency over feasible runs.
    pub latency: f64,
    /// Mean message count over feasible runs.
    pub comms: f64,
}

/// Configuration for [`ablation`].
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Fault-tolerance degree.
    pub epsilon: u8,
    /// Instance granularity.
    pub granularity: f64,
    /// Number of instances.
    pub instances: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self {
            epsilon: 1,
            granularity: 1.0,
            instances: 30,
            seed: 0xAB1A7E,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

struct Variant {
    label: &'static str,
    kind: AlgoKind,
    tweak: fn(&mut AlgoConfig),
}

const VARIANTS: &[Variant] = &[
    Variant {
        label: "R-LTF",
        kind: AlgoKind::Rltf,
        tweak: |_| {},
    },
    Variant {
        label: "R-LTF -rule1",
        kind: AlgoKind::Rltf,
        tweak: |c| c.rule1 = false,
    },
    Variant {
        label: "R-LTF -rule2",
        kind: AlgoKind::Rltf,
        tweak: |c| c.rule2 = false,
    },
    Variant {
        label: "R-LTF -oto",
        kind: AlgoKind::Rltf,
        tweak: |c| c.use_one_to_one = false,
    },
    Variant {
        label: "R-LTF -cluster",
        kind: AlgoKind::Rltf,
        tweak: |c| c.cluster_ties = false,
    },
    Variant {
        label: "LTF",
        kind: AlgoKind::Ltf,
        tweak: |_| {},
    },
    Variant {
        label: "LTF -oto",
        kind: AlgoKind::Ltf,
        tweak: |c| c.use_one_to_one = false,
    },
    Variant {
        label: "LTF B=1",
        kind: AlgoKind::Ltf,
        tweak: |c| c.chunk_size = Some(1),
    },
];

/// Run every variant over the same instance set.
pub fn ablation(cfg: &AblationConfig) -> Vec<AblationRecord> {
    let wl = PaperWorkload {
        epsilon: cfg.epsilon,
        granularity: cfg.granularity,
        ..Default::default()
    };
    let seeds: Vec<u64> = (0..cfg.instances).map(|k| cfg.seed ^ k as u64).collect();

    VARIANTS
        .iter()
        .map(|variant| {
            let outcomes = parallel_map(&seeds, cfg.threads, |&s| {
                let inst = gen_instance(&wl, s);
                let mut acfg = AlgoConfig::new(cfg.epsilon, inst.period).seeded(s);
                (variant.tweak)(&mut acfg);
                let prep = PreparedInstance::new(&inst.graph, &inst.platform);
                variant
                    .kind
                    .heuristic()
                    .schedule(&prep, &acfg)
                    .ok()
                    .map(|sch| {
                        (
                            sch.num_stages() as f64,
                            sch.latency_upper_bound(),
                            sch.comm_count() as f64,
                        )
                    })
            });
            let ok: Vec<_> = outcomes.iter().flatten().collect();
            let n = ok.len().max(1) as f64;
            AblationRecord {
                variant: variant.label.to_string(),
                feasible: ok.len(),
                total: cfg.instances,
                stages: ok.iter().map(|o| o.0).sum::<f64>() / n,
                latency: ok.iter().map(|o| o.1).sum::<f64>() / n,
                comms: ok.iter().map(|o| o.2).sum::<f64>() / n,
            }
        })
        .collect()
}

/// Render ablation records as an aligned text table.
pub fn table(records: &[AblationRecord]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "{:<14} {:>9} {:>8} {:>12} {:>8}",
        "variant", "feasible", "stages", "latency", "comms"
    )
    .unwrap();
    for r in records {
        writeln!(
            s,
            "{:<14} {:>5}/{:<3} {:>8.2} {:>12.1} {:>8.1}",
            r.variant, r.feasible, r.total, r.stages, r.latency, r.comms
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_covers_all_variants() {
        let cfg = AblationConfig {
            instances: 3,
            threads: 4,
            ..Default::default()
        };
        let recs = ablation(&cfg);
        assert_eq!(recs.len(), 8);
        assert!(recs.iter().any(|r| r.variant == "R-LTF"));
        assert!(recs.iter().any(|r| r.variant == "LTF B=1"));
        let t = table(&recs);
        assert!(t.contains("R-LTF -oto"));
    }
}
