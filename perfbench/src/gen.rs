//! Seeded, pure input generators: every request line and campaign spec a
//! workload sends is a function of `(workload, seed)` alone.

use ltf_experiments::campaign::{TopologyShape, TopologySpec};
use ltf_experiments::{gen_instance_on, PaperWorkload};
use ltf_graph::generate::{fig1_diamond, fig2_workflow_variant};
use ltf_graph::TaskGraph;
use ltf_platform::{CommMode, Platform};
use ltf_serve::proto::RequestConfig;
use ltf_serve::{Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeCold,
    CampaignPareto,
    CampaignSlo,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "serve-hot" => Some(Self::ServeHot),
            "serve-cold" => Some(Self::ServeCold),
            "campaign-pareto" => Some(Self::CampaignPareto),
            "campaign-slo" => Some(Self::CampaignSlo),
            _ => None,
        }
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Self::ServeHot | Self::ServeCold)
    }
}

/// Zipf skew of the serve-hot key popularity.
pub const DEFAULT_ALPHA: f64 = 0.9;
/// The daemon's default LRU capacity (`ServiceConfig::default`).
pub const CACHE_CAPACITY: usize = 256;
/// Distinct serve-hot keys: four times the LRU capacity.
pub const HOT_POOL: usize = 4 * CACHE_CAPACITY;
/// Small §5 instances in the serve-hot pool (besides the two worked
/// examples).
const HOT_INSTANCES: u64 = 62;
/// Distinct serve-cold instances (each key adds a unique tie-break seed).
const COLD_BASES: usize = 144;

/// How a request's platform communicates (the Contended-next-to-Uniform
/// twin rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Matrix,
    UniformTwin,
    ContendedTwin,
}

/// One serve-cold instance, pre-serialized up to its config.
pub struct ColdBase {
    /// `,"heuristic":..,"graph":..,"platform":..,"config":` (the part of
    /// the line after the id and before the config).
    middle: String,
    epsilon: u8,
    period: f64,
    class: Class,
    /// Speeds and shape of the routed platform (twins only).
    topology: Option<(TopologyShape, Vec<f64>)>,
}

/// The request stream of a serve workload: request `i` is a pure
/// function of `(seed, i)`.
pub enum ServeInputs {
    /// A Zipf-skewed stream over a fixed pool of distinct request lines.
    Hot {
        seed: u64,
        pool: Vec<String>,
        /// Cumulative Zipf weights by popularity rank.
        cdf: Vec<f64>,
        /// Popularity rank → pool index.
        rank_to_key: Vec<usize>,
    },
    /// Every request a distinct key: base instances × unique seeds.
    Cold { bases: Vec<ColdBase> },
}

/// SplitMix64 finalizer: the per-request hash of the stream position.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes, for input and output digests.
pub fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;

fn config_json(epsilon: u8, period: f64, seed: u64) -> String {
    serde_json::to_string(&RequestConfig {
        epsilon,
        period,
        chunk_size: None,
        seed: Some(seed),
        use_one_to_one: None,
        rule1: None,
        rule2: None,
        cluster_ties: None,
    })
    .expect("config serializes")
}

fn middle(heuristic: &str, graph: &TaskGraph, platform_json: &str) -> String {
    format!(
        r#","heuristic":"{heuristic}","graph":{},"platform":{platform_json},"config":"#,
        serde_json::to_string(graph).expect("graph serializes")
    )
}

impl ServeInputs {
    pub fn new(workload: Workload, seed: u64, alpha: f64) -> Self {
        match workload {
            Workload::ServeHot => Self::hot(seed, alpha),
            Workload::ServeCold => Self::cold(seed),
            _ => panic!("{workload:?} is not a serve workload"),
        }
    }

    /// Worked-example and small §5 instances (≤ 30 tasks) under rotating
    /// heuristics, ε and periods.
    fn hot(seed: u64, alpha: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4855_5431);
        let mut instances: Vec<(TaskGraph, Platform, [f64; 4])> = vec![
            (
                fig1_diamond(),
                Platform::fig1_platform(),
                [20.0, 30.0, 40.0, 60.0],
            ),
            (
                fig2_workflow_variant(),
                Platform::homogeneous(8, 1.0, 0.5),
                [20.0, 30.0, 40.0, 60.0],
            ),
        ];
        for k in 0..HOT_INSTANCES {
            let wl = PaperWorkload {
                tasks: (10, 30),
                procs: 8,
                epsilon: 1,
                granularity: [0.5, 1.0, 2.0][k as usize % 3],
                ..Default::default()
            };
            let inst = gen_instance_on(&wl, rng.gen_range(0..u64::MAX), None);
            let d = inst.period;
            instances.push((inst.graph, inst.platform, [d * 0.2, d * 0.35, d * 0.6, d]));
        }
        let names: Vec<String> = Service::new(ServiceConfig::default())
            .heuristics()
            .iter()
            .map(|h| h.name.clone())
            .collect();
        let graphs: Vec<String> = instances
            .iter()
            .map(|(g, _, _)| serde_json::to_string(g).expect("graph serializes"))
            .collect();
        let platforms: Vec<String> = instances
            .iter()
            .map(|(_, p, _)| serde_json::to_string(p).expect("platform serializes"))
            .collect();
        let mut seen = HashSet::new();
        let mut pool = Vec::with_capacity(HOT_POOL);
        while pool.len() < HOT_POOL {
            let inst = rng.gen_range(0..instances.len());
            let h = rng.gen_range(0..names.len());
            let eps: u8 = rng.gen_range(0..3u8);
            let per = rng.gen_range(0..4usize);
            let tie = rng.gen_range(0..7u64);
            if !seen.insert((inst, h, eps, per, tie)) {
                continue;
            }
            let id = pool.len();
            pool.push(format!(
                r#"{{"id":{id},"heuristic":"{}","graph":{},"platform":{},"config":{}}}"#,
                names[h],
                graphs[inst],
                platforms[inst],
                config_json(eps, instances[inst].2[per], tie)
            ));
        }
        let mut cdf = Vec::with_capacity(HOT_POOL);
        let mut acc = 0.0;
        for r in 0..HOT_POOL {
            acc += 1.0 / ((r + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        // Popularity is independent of pool order: shuffle rank → key.
        let mut rank_to_key: Vec<usize> = (0..HOT_POOL).collect();
        for i in (1..HOT_POOL).rev() {
            let j = rng.gen_range(0..=i);
            rank_to_key.swap(i, j);
        }
        Self::Hot {
            seed,
            pool,
            cdf,
            rank_to_key,
        }
    }

    /// §5 paper instances (50–150 tasks, m = 20, ε ∈ {1, 3}, several
    /// granularities, `rltf`/`ltf`); every third instance is sent as a
    /// Uniform/Contended twin over a chain or star interconnect.
    fn cold(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x434f_4c44);
        let mut bases = Vec::new();
        for k in 0..COLD_BASES {
            let epsilon = if k % 2 == 0 { 1 } else { 3 };
            let wl = PaperWorkload::paper(epsilon, [0.5, 1.0, 2.0][k / 2 % 3]);
            let heuristic = if k % 4 < 2 { "rltf" } else { "ltf" };
            let inst_seed = rng.gen_range(0..u64::MAX);
            if k % 3 == 2 {
                let shape = if k % 2 == 0 {
                    TopologyShape::Chain(0.5)
                } else {
                    TopologyShape::Star(0.4)
                };
                let spec = TopologySpec {
                    shape: shape.clone(),
                    mode: Some(CommMode::Contended),
                };
                let inst = gen_instance_on(&wl, inst_seed, Some(&spec));
                let speeds: Vec<f64> = inst
                    .platform
                    .procs()
                    .map(|u| inst.platform.speed(u))
                    .collect();
                let contended = serde_json::to_string(&inst.platform).expect("platform serializes");
                let uniform = contended.replace(r#""model":"Contended""#, r#""model":"Uniform""#);
                for (class, platform) in [
                    (Class::UniformTwin, uniform),
                    (Class::ContendedTwin, contended),
                ] {
                    bases.push(ColdBase {
                        middle: middle(heuristic, &inst.graph, &platform),
                        epsilon,
                        period: inst.period,
                        class,
                        topology: Some((shape.clone(), speeds.clone())),
                    });
                }
            } else {
                let inst = gen_instance_on(&wl, inst_seed, None);
                let platform = serde_json::to_string(&inst.platform).expect("platform serializes");
                bases.push(ColdBase {
                    middle: middle(heuristic, &inst.graph, &platform),
                    epsilon,
                    period: inst.period,
                    class: Class::Matrix,
                    topology: None,
                });
            }
        }
        Self::Cold { bases }
    }

    /// The pool key of request `i` (serve-cold: `i` itself, all unique).
    pub fn key(&self, i: usize) -> usize {
        match self {
            Self::Hot {
                seed,
                cdf,
                rank_to_key,
                ..
            } => {
                let u = (mix64(seed ^ mix64(i as u64)) >> 11) as f64 / (1u64 << 53) as f64;
                let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                rank_to_key[rank]
            }
            Self::Cold { .. } => i,
        }
    }

    /// Request line `i`. Repeated keys are byte-identical lines.
    pub fn line(&self, i: usize) -> std::borrow::Cow<'_, str> {
        match self {
            Self::Hot { pool, .. } => pool[self.key(i)].as_str().into(),
            Self::Cold { bases } => {
                let b = &bases[i % bases.len()];
                format!(
                    r#"{{"id":{i}{}{}}}"#,
                    b.middle,
                    config_json(b.epsilon, b.period, i as u64)
                )
                .into()
            }
        }
    }

    /// The request line of pool key `key` (request lines carry their key
    /// as the id).
    pub fn line_of_key(&self, key: usize) -> std::borrow::Cow<'_, str> {
        match self {
            Self::Hot { pool, .. } => pool[key].as_str().into(),
            Self::Cold { .. } => self.line(key),
        }
    }

    /// The quality pass: the distinct keys the client sends once before
    /// the window (serve-hot: the whole pool; serve-cold: one request per
    /// base instance and twin).
    pub fn quality_set(&self) -> std::ops::Range<usize> {
        match self {
            Self::Hot { pool, .. } => 0..pool.len(),
            Self::Cold { bases } => 0..bases.len(),
        }
    }

    /// First request index of the timed window (serve-cold keys must not
    /// repeat the quality pass).
    pub fn window_start(&self) -> usize {
        match self {
            Self::Hot { .. } => 0,
            Self::Cold { bases } => bases.len(),
        }
    }

    /// The communication class of request `i`.
    pub fn class(&self, i: usize) -> Class {
        match self {
            Self::Hot { .. } => Class::Matrix,
            Self::Cold { bases } => bases[i % bases.len()].class,
        }
    }

    /// The routed interconnect request `i` declares, if any.
    pub fn topology(&self, i: usize) -> Option<&(TopologyShape, Vec<f64>)> {
        match self {
            Self::Hot { .. } => None,
            Self::Cold { bases } => bases[i % bases.len()].topology.as_ref(),
        }
    }

    /// Digest of the first `n` request lines (the determinism check).
    pub fn digest(&self, n: usize) -> u64 {
        (0..n).fold(FNV_OFFSET, |h, i| {
            fnv(self.line(i).as_bytes(), fnv(b"\n", h))
        })
    }
}

/// The campaign spec of a campaign workload, as JSON text.
pub fn campaign_spec(workload: Workload, seed: u64) -> String {
    let base = mix64(seed) >> 16;
    match workload {
        // 6 experiments × 12 instances = 72 front enumerations, kept cheap
        // (3 platform prefixes, 20 bisection steps) so that many distinct
        // instances average out; a run still takes ~2 s, so that a short
        // stall of the machine is a small share of it.
        Workload::CampaignPareto => format!(
            r#"{{"name":"perf-pareto","seed":{base},"instances":12,"graphs":["workload"],"heuristics":["rltf","ltf"],"epsilons":[{{"max":2}}],"platform_procs":[8],"granularities":[0.5,1.0,2.0],"max_procs":3,"iterations":20,"relax_steps":2}}"#
        ),
        // 2 heuristics × ε ∈ {0, 1} × 24 instances = 96 cells, 4 traces
        // each: 96 items (one witness solve each), 384 traces.
        Workload::CampaignSlo => format!(
            r#"{{"name":"perf-slo","seed":{base},"instances":24,"graphs":["workload"],"heuristics":["rltf","ltf"],"epsilons":[{{"min":0,"max":1}}],"platform_procs":[8],"failure":{{"rate":0.0002,"traces":4,"items":64,"block":4,"engine":"asap","policy":"reroute"}}}}"#
        ),
        _ => panic!("{workload:?} is not a campaign workload"),
    }
}
