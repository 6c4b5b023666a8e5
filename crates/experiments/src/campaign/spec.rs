//! The declarative campaign spec: JSON format, validation, and expansion
//! into the experiment matrix.
//!
//! A spec file declares axes — graph families × heuristics × ε ranges ×
//! platform sizes × utilizations × granularities — plus an instance count
//! and shared enumeration budgets. [`CampaignSpec::expand`] validates
//! every axis and takes the cartesian product into an ordered list of
//! [`Experiment`]s; the order (and the per-instance seeds derived from
//! it) depends only on the spec, never on how the work is later sharded,
//! which is what makes a distributed run byte-identical to a serial one.
//! See `docs/campaign-spec.md` for the full field reference.

use crate::pareto::ParetoInstance;
use crate::workload::PaperWorkload;
use ltf_baselines::FULL;
use ltf_core::search::pareto::ParetoOptions;
use ltf_core::{lookup, MAX_PROCS};
use ltf_platform::{CommMode, Platform, Topology};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Default base seed of a campaign (`"seed"` absent).
pub const DEFAULT_SEED: u64 = 0xB10B5EED;

/// Most work items one campaign may expand to. The count comes from the
/// axes alone, so a larger spec is rejected before any item exists.
pub const MAX_WORK_ITEMS: usize = 1 << 20;

/// Most stream items one SLO crash trace may replay (`failure.items`).
pub const MAX_FAILURE_ITEMS: usize = 4096;

/// One inclusive ε band of the sweep. Both bounds optional: `{}` means
/// the full `0..=m−1` range, `{"min": 1}` drops the fault-free row,
/// `{"max": 2}` caps the degree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpsRange {
    /// Smallest swept ε (default 0).
    pub min: Option<u8>,
    /// Largest swept ε (default `m − 1` per platform prefix).
    pub max: Option<u8>,
}

impl EpsRange {
    /// Compact label used in experiment names.
    fn label(&self) -> String {
        match (self.min, self.max) {
            (None, None) => "eps=all".to_string(),
            (Some(a), None) => format!("eps={a}.."),
            (None, Some(b)) => format!("eps=..{b}"),
            (Some(a), Some(b)) => format!("eps={a}..{b}"),
        }
    }
}

/// The `failure` block: what turns a Pareto campaign into a stochastic
/// SLO campaign. Declares the per-processor failure model and how many
/// sampled crash traces each cell replays. See `docs/slo-campaign.md`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureSpec {
    /// Uniform per-processor failure rate λ (crashes per unit time).
    /// Exactly one of `rate` / `rates` must be set.
    pub rate: Option<f64>,
    /// Explicit per-processor rates (heterogeneous hosts); the length
    /// must match every cell's platform size.
    pub rates: Option<Vec<f64>>,
    /// Sampled crash traces per cell (default 16).
    pub traces: Option<usize>,
    /// Stream items replayed per trace (default 32).
    pub items: Option<usize>,
    /// Traces per work item — the unit of sharding and checkpointing
    /// (default 4).
    pub block: Option<usize>,
    /// Period Δ each cell's witness schedule is solved at. Defaults to
    /// the workload's calibrated `Δ = 10(ε+1)`; required for fig graph
    /// families, which carry no natural period.
    pub period: Option<f64>,
    /// Recovery policy: `"fail-stop"` (default) or `"reroute"`.
    pub policy: Option<String>,
    /// Simulator: `"synchronous"` (default) or `"asap"`.
    pub engine: Option<String>,
}

impl FailureSpec {
    /// Traces per cell.
    pub fn traces(&self) -> usize {
        self.traces.unwrap_or(16)
    }

    /// Stream items per trace.
    pub fn items(&self) -> usize {
        self.items.unwrap_or(32)
    }

    /// Traces per work item.
    pub fn block(&self) -> usize {
        self.block.unwrap_or(4)
    }
}

/// The `topology` block: routes generated workload platforms through a
/// declared physical interconnect instead of the paper's random complete
/// delay matrix. Processor speeds are still drawn per instance; only the
/// communication layer changes. Applies to the `"workload"` graph family
/// only — the fig worked examples pin their own platforms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Interconnect shape, instantiated at every swept `platform_procs`
    /// size.
    pub shape: TopologyShape,
    /// Communication model over the links (default
    /// [`CommMode::Contended`]).
    pub mode: Option<CommMode>,
}

/// Declarative interconnect shapes. Wire form is externally tagged:
/// `{"Chain": 0.5}`, `{"Star": 0.4}`, or
/// `{"Links": [[0, 1, 0.5], [1, 2, 0.25]]}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologyShape {
    /// Linear chain `P1 - P2 - … - Pm` with this uniform link delay.
    Chain(f64),
    /// Star around hub processor 0 with this per-spoke delay.
    Star(f64),
    /// Explicit undirected `(a, b, unit_delay)` links. Endpoints must be
    /// valid (and the graph connected) at every swept platform size.
    Links(Vec<(usize, usize, f64)>),
}

impl TopologySpec {
    /// The effective communication model.
    pub fn comm_mode(&self) -> CommMode {
        self.mode.unwrap_or(CommMode::Contended)
    }

    /// Build the routed platform over the given processor speeds.
    ///
    /// # Panics
    /// When the shape is invalid at `speeds.len()` processors. Campaign
    /// specs are validated before expansion, so worker-side construction
    /// never fails on a spec that passed [`CampaignSpec::expand`].
    pub fn build_platform(&self, speeds: Vec<f64>) -> Platform {
        self.topology(speeds)
            .expect("validated: links obey the link rules")
            .into_platform_with(self.comm_mode())
            .expect("validated: topology is connected")
    }

    /// The interconnect over `speeds`, every link added through
    /// [`Topology::try_link`]. A `Chain` or `Star` delay is first checked on
    /// a probe link, so a bad one is rejected even at `m = 1`, where the
    /// shape has no link.
    fn topology(&self, speeds: Vec<f64>) -> Result<Topology, String> {
        let probe = |d: f64| Topology::new(vec![1.0; 2]).try_link(0, 1, d);
        match &self.shape {
            TopologyShape::Chain(d) => probe(*d).map(|_| Topology::chain(speeds, *d)),
            TopologyShape::Star(d) => probe(*d).map(|_| Topology::star(speeds, *d)),
            TopologyShape::Links(links) => links
                .iter()
                .try_fold(Topology::new(speeds), |t, &(a, b, d)| t.try_link(a, b, d)),
        }
    }

    /// Check the shape against one platform size (the campaign validator
    /// calls this per swept `platform_procs` entry; the CLI calls it once
    /// for its fixed instance size).
    pub fn validate_for(&self, m: usize) -> Result<(), SpecError> {
        if matches!(&self.shape, TopologyShape::Links(links) if links.is_empty()) {
            return Err(SpecError::BadTopology(
                "\"Links\" must declare at least one link".into(),
            ));
        }
        let topo = self
            .topology(vec![1.0; m])
            .map_err(|e| SpecError::BadTopology(format!("{e} at m={m}")))?;
        // Connectivity at this size: every pair needs a route.
        if topo.route_table().is_none() {
            return Err(SpecError::BadTopology(format!("disconnected at m={m}")));
        }
        Ok(())
    }
}

/// The `slo` block: the declared objective every cell is judged against
/// (violations themselves are defined in `ltf-faultlab`: an item is a
/// violation when lost or produced above `max_latency`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Per-item latency bound (`None` = only losses violate).
    pub max_latency: Option<f64>,
    /// Tolerated violation rate in `[0, 1]` (`None` = zero tolerance).
    pub max_violation_rate: Option<f64>,
}

/// A declarative experiment campaign, as parsed from a JSON spec file.
///
/// Every axis field is a list; the expansion is the cartesian product of
/// all axes. Workload-model axes (`platform_procs`, `utilizations`,
/// `granularities`, `instances`) only apply to the `"workload"` graph
/// family — the fig worked examples pin their own platform, so those axes
/// collapse to a single experiment per (figure, heuristic, ε range).
///
/// A spec with a `failure` block is an **SLO campaign** instead of a
/// Pareto campaign: each cell solves one witness schedule and replays
/// sampled crash traces through it (`ltf-experiments slo`, or
/// `ltf-campaign`; [`super::Kind::of`] dispatches on the block).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name: prefixes journal keys and output labels.
    pub name: String,
    /// Base seed; per-instance seeds derive deterministically from it
    /// (default [`DEFAULT_SEED`]).
    pub seed: Option<u64>,
    /// Random instances per workload experiment (default 1; must be ≥ 1).
    pub instances: Option<usize>,
    /// Graph families: any of `fig1`, `fig2`, `fig2-variant`, `workload`.
    pub graphs: Vec<String>,
    /// Heuristic registry names, or `"all"` for the cross-heuristic merge.
    pub heuristics: Vec<String>,
    /// ε bands to sweep (default one full-range band).
    pub epsilons: Option<Vec<EpsRange>>,
    /// Platform sizes for generated workload instances (default `[20]`).
    pub platform_procs: Option<Vec<usize>>,
    /// Target utilizations `U*` for workload calibration (default `[0.25]`).
    pub utilizations: Option<Vec<f64>>,
    /// Target granularities `g(G, P)` (default `[1.0]`).
    pub granularities: Option<Vec<f64>>,
    /// Physical interconnect for generated workload platforms (default:
    /// the paper's random complete delay matrix).
    pub topology: Option<TopologySpec>,
    /// Latency budget forwarded to the enumeration (`ParetoOptions`).
    pub max_latency: Option<f64>,
    /// Processor budget forwarded to the enumeration.
    pub max_procs: Option<usize>,
    /// Relaxed-period probe budget per cell (default 3).
    pub relax_steps: Option<u32>,
    /// Period-bisection iterations per cell (default 40).
    pub iterations: Option<u32>,
    /// Stochastic failure model: present ⇒ this is an SLO campaign.
    pub failure: Option<FailureSpec>,
    /// Declared service-level objective (SLO campaigns only).
    pub slo: Option<SloSpec>,
}

/// Typed spec rejection: each validation class is its own variant, so
/// callers (and the error-corpus tests) can tell a malformed document
/// from an empty axis from a bad ε band without string matching.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The file could not be read.
    Io(String),
    /// Malformed JSON, an unknown field, or a wrong-typed field — the
    /// strict derived decoder's message, verbatim.
    Parse(String),
    /// A declared axis list is empty, so the matrix has no cells.
    EmptyAxis(&'static str),
    /// An ε band with `min > max` matches no degree at all.
    BadEpsilonRange {
        /// The band's floor.
        min: u8,
        /// The band's ceiling.
        max: u8,
    },
    /// A field value outside its domain (zero instances, nonpositive
    /// utilization…), with the offending field and value named.
    BadValue(String),
    /// A malformed `topology` block: bad delay, bad link endpoints, or a
    /// shape that leaves some swept platform size disconnected.
    BadTopology(String),
    /// A graph family name `ParetoInstance::parse` does not know.
    UnknownGraph(String),
    /// A heuristic name the solver registry does not know.
    UnknownHeuristic(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "spec: {e}"),
            Self::Parse(e) => write!(f, "spec: {e}"),
            Self::EmptyAxis(axis) => write!(f, "spec: axis {axis:?} is empty"),
            Self::BadEpsilonRange { min, max } => {
                write!(f, "spec: epsilon range min={min} > max={max} is empty")
            }
            Self::BadValue(msg) => write!(f, "spec: {msg}"),
            Self::BadTopology(msg) => write!(f, "spec: topology: {msg}"),
            Self::UnknownGraph(g) => write!(
                f,
                "spec: unknown graph family {g:?} (known: fig1, fig2, fig2-variant, workload)"
            ),
            Self::UnknownHeuristic(h) => write!(f, "spec: unknown heuristic {h:?} (or \"all\")"),
        }
    }
}

impl std::error::Error for SpecError {}

/// One cell of the expanded matrix: everything a worker needs to generate
/// its instances and enumerate their fronts. Experiments are *not* sent
/// over the wire — both sides re-expand the spec, and the expansion is
/// deterministic, so indices and seeds always agree.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Position in the expansion order (stable across runs and shards).
    pub index: usize,
    /// Human-readable cell label, e.g. `workload/rltf/eps=all/m=20/u=0.25/g=1`.
    pub label: String,
    /// Which instance family the cell enumerates on.
    pub family: ParetoInstance,
    /// Heuristic registry name, or `"all"`.
    pub algo: String,
    /// Calibrated workload parameters (fig families ignore all but
    /// `utilization`, which their `build` signature carries through).
    pub workload: PaperWorkload,
    /// Declared interconnect for generated platforms (`None` = the
    /// paper's random complete delay matrix; always `None` for fig
    /// families, which pin their own platforms).
    pub topology: Option<TopologySpec>,
    /// Random instances in this cell (1 for fig families).
    pub instances: usize,
    /// First instance seed of the cell; instance `k` uses `base_seed + k`.
    pub base_seed: u64,
    /// Per-instance enumeration options (ε band, budgets; threads = 1 —
    /// parallelism lives across work items, not inside one).
    pub opts: ParetoOptions,
}

impl CampaignSpec {
    /// Parse a spec document. Unknown fields, wrong types and malformed
    /// JSON all surface as [`SpecError::Parse`] with the decoder's
    /// message.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        serde_json::from_str(text).map_err(|e| SpecError::Parse(e.to_string()))
    }

    /// Read and parse a spec file.
    pub fn load(path: &Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// FNV-1a fingerprint of the canonical serialized spec. Journal keys
    /// embed it so a checkpoint file is never cross-replayed between
    /// different campaign configurations.
    pub fn signature(&self) -> u64 {
        let text = serde_json::to_string(self).expect("value writer is infallible");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Validate every axis and expand the cartesian product into the
    /// ordered experiment list. The order — and therefore every derived
    /// index and seed — depends only on the spec.
    pub fn expand(&self) -> Result<Vec<Experiment>, SpecError> {
        self.validate()?;
        let instances = self.instances.unwrap_or(1);
        let epsilons = self
            .epsilons
            .clone()
            .unwrap_or_else(|| vec![EpsRange::default()]);
        let procs_axis = self.platform_procs.clone().unwrap_or_else(|| vec![20]);
        let util_axis = self.utilizations.clone().unwrap_or_else(|| vec![0.25]);
        let gran_axis = self.granularities.clone().unwrap_or_else(|| vec![1.0]);
        let seed = self.seed.unwrap_or(DEFAULT_SEED);

        let mut out = Vec::new();
        for graph in &self.graphs {
            let family = ParetoInstance::parse(graph).expect("validated");
            // Fig worked examples pin their own graph and platform: the
            // workload axes collapse to one point and instances to 1.
            let workloadish = family == ParetoInstance::Workload;
            let one_usize = vec![procs_axis[0]];
            let one_util = vec![util_axis[0]];
            let one_gran = vec![gran_axis[0]];
            let (procs, utils, grans, inst_count) = if workloadish {
                (&procs_axis, &util_axis, &gran_axis, instances)
            } else {
                (&one_usize, &one_util, &one_gran, 1)
            };
            for algo in &self.heuristics {
                for eps in &epsilons {
                    for &m in procs {
                        for &u in utils {
                            for &g in grans {
                                let index = out.len();
                                let mut label = format!("{graph}/{algo}/{}", eps.label());
                                if workloadish {
                                    label = format!("{label}/m={m}/u={u}/g={g}");
                                }
                                out.push(Experiment {
                                    index,
                                    label,
                                    family,
                                    algo: algo.clone(),
                                    workload: PaperWorkload {
                                        procs: m,
                                        utilization: u,
                                        granularity: g,
                                        ..Default::default()
                                    },
                                    topology: if workloadish {
                                        self.topology.clone()
                                    } else {
                                        None
                                    },
                                    instances: inst_count,
                                    base_seed: seed.wrapping_add(
                                        (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                                    ),
                                    opts: ParetoOptions {
                                        min_epsilon: eps.min,
                                        max_epsilon: eps.max,
                                        max_latency: self.max_latency,
                                        max_procs: self.max_procs,
                                        relax_steps: self.relax_steps.unwrap_or(3),
                                        iterations: self.iterations.unwrap_or(40),
                                        ..Default::default()
                                    },
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn validate(&self) -> Result<(), SpecError> {
        if self.name.trim().is_empty() {
            return Err(SpecError::BadValue("\"name\" must be non-empty".into()));
        }
        if self.graphs.is_empty() {
            return Err(SpecError::EmptyAxis("graphs"));
        }
        if self.heuristics.is_empty() {
            return Err(SpecError::EmptyAxis("heuristics"));
        }
        for (axis, empty) in [
            (
                "epsilons",
                self.epsilons.as_ref().is_some_and(Vec::is_empty),
            ),
            (
                "platform_procs",
                self.platform_procs.as_ref().is_some_and(Vec::is_empty),
            ),
            (
                "utilizations",
                self.utilizations.as_ref().is_some_and(Vec::is_empty),
            ),
            (
                "granularities",
                self.granularities.as_ref().is_some_and(Vec::is_empty),
            ),
        ] {
            if empty {
                return Err(SpecError::EmptyAxis(axis));
            }
        }
        for eps in self.epsilons.iter().flatten() {
            if let (Some(min), Some(max)) = (eps.min, eps.max) {
                if min > max {
                    return Err(SpecError::BadEpsilonRange { min, max });
                }
            }
        }
        if self.instances == Some(0) {
            return Err(SpecError::BadValue("\"instances\" must be ≥ 1".into()));
        }
        for &m in self.platform_procs.iter().flatten() {
            if m == 0 {
                return Err(SpecError::BadValue(
                    "\"platform_procs\" entries must be ≥ 1".into(),
                ));
            }
            if m > MAX_PROCS {
                return Err(SpecError::BadValue(format!(
                    "\"platform_procs\" entry {m} exceeds the engine's limit of {MAX_PROCS} processors"
                )));
            }
        }
        for &u in self.utilizations.iter().flatten() {
            if !(u > 0.0 && u.is_finite()) {
                return Err(SpecError::BadValue(format!(
                    "\"utilizations\" entry {u} must be a positive finite number"
                )));
            }
        }
        for &g in self.granularities.iter().flatten() {
            if !(g > 0.0 && g.is_finite()) {
                return Err(SpecError::BadValue(format!(
                    "\"granularities\" entry {g} must be a positive finite number"
                )));
            }
        }
        if let Some(l) = self.max_latency {
            if !(l > 0.0 && l.is_finite()) {
                return Err(SpecError::BadValue(format!(
                    "\"max_latency\" {l} must be a positive finite number"
                )));
            }
        }
        for graph in &self.graphs {
            if ParetoInstance::parse(graph).is_none() {
                return Err(SpecError::UnknownGraph(graph.clone()));
            }
        }
        if let Some(t) = &self.topology {
            if self.graphs.iter().any(|g| g != "workload") {
                return Err(SpecError::BadTopology(
                    "\"topology\" applies only to the \"workload\" graph family".into(),
                ));
            }
            for &m in self.platform_procs.as_deref().unwrap_or(&[20]) {
                t.validate_for(m)?;
            }
        }
        for algo in &self.heuristics {
            if algo != "all" && lookup(&FULL, algo).is_none() {
                return Err(SpecError::UnknownHeuristic(algo.clone()));
            }
        }
        self.validate_slo()?;
        self.validate_work_items()
    }

    /// Validation of the SLO blocks (`failure` / `slo`). SLO cells need
    /// one concrete (ε, schedule) witness each, so the looser Pareto
    /// conventions — unbounded ε bands, the `"all"` cross-heuristic
    /// merge — are rejected here rather than silently reinterpreted.
    fn validate_slo(&self) -> Result<(), SpecError> {
        let Some(f) = &self.failure else {
            if self.slo.is_some() {
                return Err(SpecError::BadValue(
                    "\"slo\" requires a \"failure\" block".into(),
                ));
            }
            return Ok(());
        };
        match (&f.rate, &f.rates) {
            (Some(_), Some(_)) | (None, None) => {
                return Err(SpecError::BadValue(
                    "\"failure\" needs exactly one of \"rate\" / \"rates\"".into(),
                ));
            }
            (Some(r), None) => {
                if !(r.is_finite() && *r >= 0.0) {
                    return Err(SpecError::BadValue(format!(
                        "\"failure.rate\" {r} must be a non-negative finite number"
                    )));
                }
            }
            (None, Some(rs)) => {
                if rs.is_empty() {
                    return Err(SpecError::EmptyAxis("failure.rates"));
                }
                if let Some(bad) = rs.iter().find(|r| !(r.is_finite() && **r >= 0.0)) {
                    return Err(SpecError::BadValue(format!(
                        "\"failure.rates\" entry {bad} must be a non-negative finite number"
                    )));
                }
                // Every cell replays on its family's platform: the swept
                // `platform_procs` for workloads, the pinned size for figs.
                for graph in &self.graphs {
                    let sizes = match ParetoInstance::parse(graph).expect("validated") {
                        ParetoInstance::Workload => {
                            self.platform_procs.clone().unwrap_or_else(|| vec![20])
                        }
                        fig => vec![fig.build(0, 0.25).1.num_procs()],
                    };
                    if let Some(m) = sizes.into_iter().find(|&m| m != rs.len()) {
                        return Err(SpecError::BadValue(format!(
                            "\"failure.rates\" has {} entries but {graph:?} cells have m={m} \
                             processors",
                            rs.len()
                        )));
                    }
                }
            }
        }
        for (field, zero) in [
            ("failure.traces", f.traces == Some(0)),
            ("failure.items", f.items == Some(0)),
            ("failure.block", f.block == Some(0)),
        ] {
            if zero {
                return Err(SpecError::BadValue(format!("\"{field}\" must be ≥ 1")));
            }
        }
        if f.items() > MAX_FAILURE_ITEMS {
            return Err(SpecError::BadValue(format!(
                "\"failure.items\" {} exceeds the limit of {MAX_FAILURE_ITEMS}",
                f.items()
            )));
        }
        match f.period {
            Some(p) if !(p > 0.0 && p.is_finite()) => {
                return Err(SpecError::BadValue(format!(
                    "\"failure.period\" {p} must be a positive finite number"
                )));
            }
            None if self.graphs.iter().any(|g| g != "workload") => {
                return Err(SpecError::BadValue(
                    "\"failure.period\" is required for fig graph families".into(),
                ));
            }
            _ => {}
        }
        if let Some(p) = &f.policy {
            if !matches!(p.as_str(), "fail-stop" | "reroute") {
                return Err(SpecError::BadValue(format!(
                    "\"failure.policy\" {p:?} must be \"fail-stop\" or \"reroute\""
                )));
            }
        }
        if let Some(e) = &f.engine {
            if ltf_faultlab::SimEngine::parse(e).is_none() {
                return Err(SpecError::BadValue(format!(
                    "\"failure.engine\" {e:?} must be \"synchronous\" or \"asap\""
                )));
            }
        }
        // Each cell replays one concrete ε: bands must be explicit and
        // bounded (the Pareto default "ε up to m−1" depends on a platform
        // prefix no SLO cell sweeps).
        let bounded = self
            .epsilons
            .as_ref()
            .is_some_and(|eps| eps.iter().all(|b| b.max.is_some()));
        if !bounded {
            return Err(SpecError::BadValue(
                "SLO campaigns need explicit bounded \"epsilons\" bands (each with \"max\")".into(),
            ));
        }
        if self.heuristics.iter().any(|h| h == "all") {
            return Err(SpecError::BadValue(
                "SLO campaigns need concrete heuristics (\"all\" has no single witness)".into(),
            ));
        }
        if let Some(s) = &self.slo {
            if let Some(l) = s.max_latency {
                if !(l > 0.0 && l.is_finite()) {
                    return Err(SpecError::BadValue(format!(
                        "\"slo.max_latency\" {l} must be a positive finite number"
                    )));
                }
            }
            if let Some(v) = s.max_violation_rate {
                if !(0.0..=1.0).contains(&v) || v.is_nan() {
                    return Err(SpecError::BadValue(format!(
                        "\"slo.max_violation_rate\" {v} must be in [0, 1]"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Reject a spec that expands to more than [`MAX_WORK_ITEMS`] work
    /// items, counted from the axes (saturating) before anything is
    /// expanded: Σ instances over the experiments for a Pareto campaign,
    /// cells × ⌈traces / block⌉ for an SLO campaign, whose ε bands the
    /// checks before this one have bounded.
    fn validate_work_items(&self) -> Result<(), SpecError> {
        let workload = [
            self.platform_procs.as_ref().map_or(1, Vec::len),
            self.utilizations.as_ref().map_or(1, Vec::len),
            self.granularities.as_ref().map_or(1, Vec::len),
            self.instances.unwrap_or(1),
        ]
        .into_iter()
        .fold(1, usize::saturating_mul);
        // Fig families pin one instance per (heuristic, ε band).
        let graphs = self
            .graphs
            .iter()
            .map(|g| if g == "workload" { workload } else { 1 })
            .fold(0, usize::saturating_add);
        // A Pareto item sweeps a whole ε band; an SLO cell is one degree.
        let degrees = |b: &EpsRange| match (&self.failure, b.max) {
            (Some(_), Some(max)) => usize::from(max - b.min.unwrap_or(0)) + 1,
            _ => 1,
        };
        let bands = match &self.epsilons {
            Some(bands) => bands.iter().map(degrees).sum(),
            None => 1,
        };
        let cells = graphs
            .saturating_mul(bands)
            .saturating_mul(self.heuristics.len());
        let (items, count) = match &self.failure {
            Some(f) => (
                cells.saturating_mul(f.traces().div_ceil(f.block())),
                "SLO cells × ⌈\"failure.traces\" / \"failure.block\"⌉",
            ),
            None => (cells, "\"instances\" summed over the experiments"),
        };
        if items > MAX_WORK_ITEMS {
            return Err(SpecError::BadValue(format!(
                "the expanded matrix has at least {items} work items ({count}); \
                 the limit is {MAX_WORK_ITEMS}"
            )));
        }
        Ok(())
    }
}
