//! Algorithm-runtime scaling experiments (Theorem 1).
//!
//! The paper bounds LTF's complexity by
//! `O(e·m·(ε+1)²·log(ε+1) + v·log ω)`. These sweeps measure wall-clock
//! scheduling time against each driver (task count `v` with `e ≈ 2v`,
//! processor count `m`, replication degree `ε`) so the empirical growth
//! can be compared with the bound.

use crate::checkpoint::resume;
use crate::workload::{gen_instance, PaperWorkload};
use ltf_core::par::parallel_map;
use ltf_core::{AlgoConfig, AlgoKind, PreparedInstance};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

/// One aggregated scaling measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Task count of the instances.
    pub v: usize,
    /// Processor count.
    pub m: usize,
    /// Fault-tolerance degree.
    pub epsilon: u8,
    /// Algorithm name.
    pub algo: String,
    /// Mean scheduling time (µs) over the repetitions.
    pub micros: f64,
    /// How many runs produced a feasible schedule.
    pub feasible: usize,
    /// Repetitions.
    pub reps: usize,
}

/// Configuration for [`scaling_sweep`].
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Task counts to probe (processor count and ε fixed at defaults).
    pub task_counts: Vec<usize>,
    /// Processor counts to probe.
    pub proc_counts: Vec<usize>,
    /// Replication degrees to probe.
    pub epsilons: Vec<u8>,
    /// Instances per point.
    pub reps: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        Self {
            task_counts: vec![25, 50, 100, 200, 400],
            proc_counts: vec![10, 20, 40],
            epsilons: vec![0, 1, 2, 3],
            reps: 5,
            seed: 0x5CA1E,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

fn measure_point(
    v: usize,
    m: usize,
    epsilon: u8,
    kind: AlgoKind,
    cfg: &ScalingConfig,
) -> ScalingPoint {
    let wl = PaperWorkload {
        tasks: (v, v),
        procs: m,
        epsilon,
        granularity: 1.0,
        // Low utilization keeps large-ε points schedulable so the timing
        // reflects a full run, not an early failure.
        utilization: 0.4,
        ..Default::default()
    };
    let seeds: Vec<u64> = (0..cfg.reps)
        .map(|k| {
            cfg.seed ^ ((v as u64) << 32) ^ ((m as u64) << 16) ^ ((epsilon as u64) << 8) ^ k as u64
        })
        .collect();
    let results = parallel_map(&seeds, cfg.threads, |&s| {
        let inst = gen_instance(&wl, s);
        let acfg = AlgoConfig::new(epsilon, inst.period).seeded(s);
        // The prepared instance is lazy, so the timed region still covers
        // the level-cache/reversal derivations, as the bound requires.
        let prep = PreparedInstance::new(&inst.graph, &inst.platform);
        let t0 = Instant::now();
        let ok = kind.heuristic().schedule(&prep, &acfg).is_ok();
        (t0.elapsed().as_micros() as f64, ok)
    });
    let micros = results.iter().map(|(t, _)| *t).sum::<f64>() / results.len() as f64;
    let feasible = results.iter().filter(|(_, ok)| *ok).count();
    ScalingPoint {
        v,
        m,
        epsilon,
        algo: kind.to_string(),
        micros,
        feasible,
        reps: cfg.reps,
    }
}

/// Run the three scaling sweeps for both algorithms.
pub fn scaling_sweep(cfg: &ScalingConfig) -> Vec<ScalingPoint> {
    scaling_sweep_checkpointed(cfg, None).expect("no journal, no I/O to fail")
}

/// [`scaling_sweep`] with an optional `--checkpoint` journal: each
/// `(algo, v, m, ε)` point is journalled as soon as it is measured, and a
/// restart replays completed points instead of re-measuring them (the
/// reps *inside* a point still run on `cfg.threads` workers). Replayed
/// timings are reused verbatim — a resumed sweep reports the measurements
/// of the run that made them.
pub fn scaling_sweep_checkpointed(
    cfg: &ScalingConfig,
    journal: Option<&Path>,
) -> std::io::Result<Vec<ScalingPoint>> {
    // The key pins everything the point depends on (including the base
    // seed and the rep count): a journal shared across configurations
    // only ever replays records measured under identical parameters.
    let keyed = |&(kind, v, m, eps): &(AlgoKind, usize, usize, u8)| {
        format!(
            "scaling:{kind}:v={v}:m={m}:eps={eps}:reps={}:seed={:#x}",
            cfg.reps, cfg.seed
        )
    };
    let mut combos: Vec<(AlgoKind, usize, usize, u8)> = Vec::new();
    for kind in [AlgoKind::Ltf, AlgoKind::Rltf] {
        for &v in &cfg.task_counts {
            combos.push((kind, v, 20, 1));
        }
        for &m in &cfg.proc_counts {
            combos.push((kind, 100, m, 1));
        }
        for &eps in &cfg.epsilons {
            combos.push((kind, 100, 20, eps));
        }
    }
    // One point at a time, journalled as soon as it is measured: the reps
    // inside a point are what runs on `cfg.threads` workers.
    let mut out = vec![None; combos.len()];
    resume(
        journal,
        &combos,
        1,
        1,
        keyed,
        |&(kind, v, m, eps)| measure_point(v, m, eps, kind, cfg),
        |i, pt| out[i] = Some(pt),
    )?;
    Ok(out
        .into_iter()
        .map(|pt| pt.expect("every point is replayed or measured"))
        .collect())
}

/// Render scaling points as an aligned text table.
pub fn table(points: &[ScalingPoint]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "{:<8} {:>6} {:>4} {:>4} {:>12} {:>9}",
        "algo", "v", "m", "ε", "mean µs", "feasible"
    )
    .unwrap();
    for p in points {
        writeln!(
            s,
            "{:<8} {:>6} {:>4} {:>4} {:>12.1} {:>6}/{:<2}",
            p.algo, p.v, p.m, p.epsilon, p.micros, p.feasible, p.reps
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scaling_runs() {
        let cfg = ScalingConfig {
            task_counts: vec![20],
            proc_counts: vec![8],
            epsilons: vec![1],
            reps: 2,
            threads: 4,
            ..Default::default()
        };
        let pts = scaling_sweep(&cfg);
        // 2 algorithms × (1 + 1 + 1) sweeps.
        assert_eq!(pts.len(), 6);
        for p in &pts {
            assert!(p.micros >= 0.0);
            assert!(p.reps == 2);
        }
        let t = table(&pts);
        assert!(t.contains("LTF"));
    }
}
