//! Wire protocol of the solve service.
//!
//! Every request and response is one line of JSON (LDJSON). A request is
//! either a **solve request**,
//!
//! ```json
//! {"id":1,"heuristic":"rltf",
//!  "graph":{"tasks":[{"name":"t0","exec":2.0}],"edges":[]},
//!  "platform":{"speeds":[1.0],"delays":[0.0]},
//!  "config":{"epsilon":0,"period":10.0}}
//! ```
//!
//! or a **control command** — a map carrying a `cmd` key (`stats`,
//! `heuristics`, `shard`). Unknown fields anywhere are rejected (the
//! vendored derive is strict), so typos surface as structured errors
//! instead of silently ignored knobs. The full wire reference lives in
//! `docs/protocol.md`.

use ltf_core::{AlgoConfig, Diagnostics, Solution};
use ltf_graph::TaskGraph;
use ltf_platform::Platform;
use ltf_schedule::{Schedule, ScheduleData};
use serde::{Deserialize, Serialize, Value};

/// Solve-request configuration: `epsilon` and `period` are mandatory,
/// every other [`AlgoConfig`] knob is optional and defaults as
/// [`AlgoConfig::new`] would.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestConfig {
    /// Fault-tolerance degree ε.
    pub epsilon: u8,
    /// Iteration period `Δ = 1/T`.
    pub period: f64,
    /// Chunk size `B` (defaults to `m`).
    pub chunk_size: Option<usize>,
    /// Tie-breaking seed.
    pub seed: Option<u64>,
    /// Enable the one-to-one mapping procedure.
    pub use_one_to_one: Option<bool>,
    /// R-LTF Rule 1.
    pub rule1: Option<bool>,
    /// R-LTF Rule 2.
    pub rule2: Option<bool>,
    /// R-LTF stage-tie clustering.
    pub cluster_ties: Option<bool>,
}

impl RequestConfig {
    /// Resolve the optional knobs into a full [`AlgoConfig`].
    pub fn to_algo(&self) -> Result<AlgoConfig, String> {
        if !(self.period.is_finite() && self.period > 0.0) {
            return Err(format!(
                "period must be finite and positive, got {}",
                self.period
            ));
        }
        let mut cfg = AlgoConfig::new(self.epsilon, self.period);
        cfg.chunk_size = self.chunk_size;
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        if let Some(v) = self.use_one_to_one {
            cfg.use_one_to_one = v;
        }
        if let Some(v) = self.rule1 {
            cfg.rule1 = v;
        }
        if let Some(v) = self.rule2 {
            cfg.rule2 = v;
        }
        if let Some(v) = self.cluster_ties {
            cfg.cluster_ties = v;
        }
        Ok(cfg)
    }

    /// Wire form of a full [`AlgoConfig`] (all knobs explicit).
    pub fn from_algo(cfg: &AlgoConfig) -> Self {
        Self {
            epsilon: cfg.epsilon,
            period: cfg.period,
            chunk_size: cfg.chunk_size,
            seed: Some(cfg.seed),
            use_one_to_one: Some(cfg.use_one_to_one),
            rule1: Some(cfg.rule1),
            rule2: Some(cfg.rule2),
            cluster_ties: Some(cfg.cluster_ties),
        }
    }
}

/// One solve request: which heuristic to run on which instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Heuristic name or alias (case-insensitive).
    pub heuristic: String,
    /// The application DAG (see `ltf_graph::wire` for the shape).
    pub graph: TaskGraph,
    /// The target platform.
    pub platform: Platform,
    /// Objective and algorithm knobs.
    pub config: RequestConfig,
}

/// One campaign-shard request: the worker half of the `ltf-campaign`
/// coordinator's connect mode (see `docs/protocol.md` §shard). The spec
/// travels *in* the request — the remote worker has no spec file — and
/// `shard` is a `"K/N"` partition selector ([`ltf_core::shard::Shard`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardRequest {
    /// Always `"shard"` (the dispatch key; kept so the strict derive can
    /// decode the whole line in one pass).
    pub cmd: String,
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// The full campaign spec to expand.
    pub spec: ltf_experiments::campaign::CampaignSpec,
    /// Which shard of the expanded work-item list to compute, as `"K/N"`.
    pub shard: String,
}

/// A parsed input line.
#[derive(Debug, Clone)]
pub enum Request {
    /// A solve request.
    Solve(Box<SolveRequest>),
    /// `{"cmd":"stats"}` — service-time and cache statistics.
    Stats,
    /// `{"cmd":"heuristics"}` — registered heuristic names and aliases.
    Heuristics,
    /// `{"cmd":"shard",...}` — compute one campaign shard.
    Shard(Box<ShardRequest>),
}

/// Parse one input line into a [`Request`].
///
/// The error carries the response `kind` (`"parse"` for malformed JSON,
/// `"bad-request"` for a well-formed document of the wrong shape) plus the
/// message, and echoes the request `id` when one could be recovered from
/// the broken document.
pub fn parse_request(line: &str) -> Result<Request, (&'static str, String, Option<u64>)> {
    let v: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return Err(("parse", e.to_string(), None)),
    };
    // Salvage the correlation id before shape checks so even a
    // wrong-shaped request gets a correlated error reply.
    let id = match &v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == "id")
            .and_then(|(_, v)| u64::from_value(v).ok()),
        _ => None,
    };
    if let Value::Map(entries) = &v {
        if let Some((_, cmd)) = entries.iter().find(|(k, _)| k == "cmd") {
            let name = match cmd {
                Value::Str(s) => s.as_str(),
                other => {
                    return Err((
                        "bad-request",
                        format!("cmd must be a string, got {}", other.kind()),
                        id,
                    ))
                }
            };
            return match name {
                "stats" | "heuristics" => {
                    if let Some((k, _)) = entries.iter().find(|(k, _)| k != "cmd") {
                        return Err(("bad-request", format!("unknown field `{k}` in command"), id));
                    }
                    Ok(match name {
                        "stats" => Request::Stats,
                        _ => Request::Heuristics,
                    })
                }
                "shard" => ShardRequest::from_value(&v)
                    .map(|r| Request::Shard(Box::new(r)))
                    .map_err(|e| ("bad-request", e.to_string(), id)),
                other => Err(("bad-request", format!("unknown command {other:?}"), id)),
            };
        }
    }
    match SolveRequest::from_value(&v) {
        Ok(req) => Ok(Request::Solve(Box::new(req))),
        Err(e) => Err(("bad-request", e.to_string(), id)),
    }
}

/// Wire form of a [`Solution`]: the schedule travels as raw
/// [`ScheduleData`] and is shape-checked and re-assembled on arrival
/// ([`SolutionWire::into_solution`]); checking its constraints with
/// `ltf_schedule::validate` is the client's to do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolutionWire {
    /// Canonical name of the producing heuristic.
    pub heuristic: String,
    /// Metrics derived at solve time.
    pub metrics: ltf_core::SolutionMetrics,
    /// Full-fidelity schedule payload.
    pub schedule: ScheduleData,
}

impl SolutionWire {
    /// Capture a solved [`Solution`] for the wire.
    pub fn from_solution(sol: &Solution) -> Self {
        Self {
            heuristic: sol.heuristic.clone(),
            metrics: sol.metrics.clone(),
            schedule: sol.schedule.to_data(),
        }
    }

    /// Rebuild the full [`Solution`] against the instance it was solved
    /// for. The shape check makes the panicking [`Schedule::new`] safe on
    /// untrusted data; metrics are recomputed from the rebuilt schedule
    /// (they are derived state, so a tampered wire copy is discarded).
    pub fn into_solution(self, g: &TaskGraph, p: &Platform) -> Result<Solution, String> {
        self.schedule.validate_shape(g, p)?;
        let schedule = Schedule::new(g, p, self.schedule);
        Ok(Solution::new(&self.heuristic, schedule))
    }
}

/// Successful solve reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OkResponse {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"ok"`.
    pub status: String,
    /// Whether the solution came from the LRU cache.
    pub cached: bool,
    /// The solution payload.
    pub solution: SolutionWire,
}

impl OkResponse {
    /// Build an `ok` reply.
    pub fn new(id: Option<u64>, cached: bool, solution: SolutionWire) -> Self {
        Self {
            id,
            status: "ok".to_string(),
            cached,
            solution,
        }
    }
}

/// Error reply: request-level failures (`parse`, `bad-request`,
/// `unknown-heuristic`, `too-large`) and solver-level failures
/// (`infeasible`) share one shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrResponse {
    /// Echo of the request id when one was recoverable.
    pub id: Option<u64>,
    /// Always `"error"`.
    pub status: String,
    /// Machine-readable error class.
    pub kind: String,
    /// Heuristic the request addressed, when known.
    pub heuristic: Option<String>,
    /// Human-readable detail.
    pub message: String,
}

impl ErrResponse {
    /// Build an `error` reply.
    pub fn new(id: Option<u64>, kind: &str, heuristic: Option<String>, message: String) -> Self {
        Self {
            id,
            status: "error".to_string(),
            kind: kind.to_string(),
            heuristic,
            message,
        }
    }

    /// Map failed-solve [`Diagnostics`] onto the wire.
    pub fn from_diagnostics(id: Option<u64>, d: &Diagnostics) -> Self {
        use ltf_core::ScheduleError;
        let kind = match d.error {
            ScheduleError::UnknownHeuristic(_) => "unknown-heuristic",
            ScheduleError::BadConfig(_) => "bad-request",
            _ => "infeasible",
        };
        Self::new(id, kind, Some(d.heuristic.clone()), d.to_string())
    }
}

/// Render any response type as its wire line.
pub fn to_line<T: Serialize>(resp: &T) -> String {
    serde_json::to_string(resp).expect("wire serialization is infallible")
}

/// The wire line of an `ok` reply around an already encoded solution
/// (`solution` is `to_line` of a [`SolutionWire`]): the bytes of
/// `to_line(&OkResponse::new(id, cached, ..))`, built without encoding the
/// solution again.
pub fn ok_line(id: Option<u64>, cached: bool, solution: &str) -> String {
    use std::fmt::Write as _;
    // The envelope around the solution is at most 68 bytes (a 20-digit id).
    let mut line = String::with_capacity(solution.len() + 68);
    line.push_str(r#"{"id":"#);
    match id {
        Some(id) => {
            let _ = write!(line, "{id}");
        }
        None => line.push_str("null"),
    }
    line.push_str(if cached {
        r#","status":"ok","cached":true,"solution":"#
    } else {
        r#","status":"ok","cached":false,"solution":"#
    });
    line.push_str(solution);
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_dispatches_commands_and_solves() {
        assert!(matches!(
            parse_request(r#"{"cmd":"stats"}"#).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"heuristics"}"#).unwrap(),
            Request::Heuristics
        ));
        let line = r#"{"id":7,"heuristic":"ltf",
            "graph":{"tasks":[{"name":"a","exec":1.0}],"edges":[]},
            "platform":{"speeds":[1.0],"delays":[0.0]},
            "config":{"epsilon":0,"period":5.0}}"#
            .replace('\n', " ");
        match parse_request(&line).unwrap() {
            Request::Solve(req) => {
                assert_eq!(req.id, Some(7));
                assert_eq!(req.heuristic, "ltf");
                assert_eq!(req.config.to_algo().unwrap().period, 5.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_kind_and_id() {
        let (kind, _, id) = parse_request(r#"{"id":3,"heuristic""#).unwrap_err();
        assert_eq!((kind, id), ("parse", None));
        let (kind, msg, id) = parse_request(r#"{"id":3,"heuristic":"ltf"}"#).unwrap_err();
        assert_eq!((kind, id), ("bad-request", Some(3)));
        assert!(msg.contains("missing field"), "{msg}");
        let (kind, msg, _) = parse_request(r#"{"cmd":"reboot"}"#).unwrap_err();
        assert_eq!(kind, "bad-request");
        assert!(msg.contains("reboot"));
        let (kind, msg, _) = parse_request(r#"{"cmd":"stats","verbose":true}"#).unwrap_err();
        assert_eq!(kind, "bad-request");
        assert!(msg.contains("unknown field `verbose`"));
    }

    #[test]
    fn ok_line_matches_the_derived_encoding() {
        let g = ltf_graph::generate::fig1_diamond();
        let p = Platform::fig1_platform();
        let sol = ltf_baselines::full_solver(&g, &p)
            .solve("rltf", &AlgoConfig::new(1, 30.0))
            .expect("the worked example is feasible");
        let wire = SolutionWire::from_solution(&sol);
        let text = to_line(&wire);
        for id in [Some(7), Some(u64::MAX), None] {
            for cached in [true, false] {
                assert_eq!(
                    ok_line(id, cached, &text),
                    to_line(&OkResponse::new(id, cached, wire.clone())),
                    "id {id:?}, cached {cached}"
                );
            }
        }
    }

    #[test]
    fn request_config_defaults_mirror_algo_config() {
        let wire: RequestConfig = serde_json::from_str(r#"{"epsilon":2,"period":8.0}"#).unwrap();
        let cfg = wire.to_algo().unwrap();
        assert_eq!(cfg, {
            let mut c = AlgoConfig::new(2, 8.0);
            c.chunk_size = None;
            c
        });
        assert!(RequestConfig {
            period: f64::NAN,
            ..wire
        }
        .to_algo()
        .is_err());
    }
}
