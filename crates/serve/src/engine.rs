//! The service engine: parses request lines, answers repeats from its
//! caches, and solves the rest.
//!
//! # Caches
//!
//! A repeated request whose key is still cached is answered without
//! solving or serializing it again. Solutions live in an [`LruCache`];
//! failed verdicts (the error reply of a failed solve, in practice
//! `infeasible`) in a second one with the same capacity and key, looked
//! up only after the solution cache misses, so the solution cache behaves
//! exactly as it would alone (see the [`cache`](crate::cache) module docs
//! for why). A solution enters the cache as its [`SolutionWire`]; its
//! first hit serializes it, outside the lock, and swaps the entry for
//! that text (`LruCache::update`, which leaves recency and counters
//! alone). Later hits splice the text into their reply with [`ok_line`].
//! A solution that is never reused is never serialized for the cache, and
//! no entry holds both forms.
//!
//! # Determinism
//!
//! [`Service::handle_line`] is the one request path, and the caches are
//! transparent: a reply equals the reply of a service without caches,
//! except that a reply served from the solution cache says
//! `"cached":true` (`tests/lru_props.rs`). Service *times* are the one
//! non-deterministic output, and they only ever appear in
//! `{"cmd":"stats"}` replies — solve responses are bit-stable, which is
//! what makes pipe-mode golden tests possible.
//!
//! # Concurrency
//!
//! A [`Service`] is shared by reference between callers (the TCP
//! transport runs one thread per connection). One internal lock guards
//! the caches and the counters, and it is held only for cache lookups,
//! inserts and updates and counter updates: parsing, fingerprinting,
//! solving, shard compute and reply encoding run outside it, in parallel
//! across callers. A single caller's `cached` flags and counters are
//! those of its lines in order; with several, they reflect how their
//! lines actually interleaved (two callers missing on one key both solve
//! it), while the solution or error in each reply is the one a serial run
//! gives, because solves are pure.

use crate::cache::{CacheKey, LruCache};
use crate::lines::Reject;
use crate::proto::{
    ok_line, parse_request, to_line, ErrResponse, Request, ShardRequest, SolutionWire, SolveRequest,
};
use crate::stats::{ServiceStats, StatsReport};
use ltf_baselines::{full_solver, FULL};
use ltf_core::par::resolve_threads;
use ltf_core::shard::Shard;
use ltf_core::{lookup, AlgoConfig, MAX_PROCS};
use serde::{Serialize, Value};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Tuning knobs of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads for a shard request's compute; `0` = all cores.
    /// Each solve request is solved on its caller's thread.
    pub threads: usize,
    /// Capacity of each LRU, in cached solutions and in cached failed
    /// verdicts; `0` disables caching.
    pub cache_capacity: usize,
    /// Reject graphs with more tasks than this (`too-large`).
    pub max_tasks: usize,
    /// Reject graphs with more edges than this (`too-large`).
    pub max_edges: usize,
}

impl ServiceConfig {
    /// Longest request line the transports buffer, in bytes. Sized from
    /// the graph limits: 256 bytes per task or edge is several times
    /// what a wire task (`{"exec":…}`) or edge (`{"src":…,"dst":…,
    /// "volume":…}`) takes at full float precision, and 1 MiB covers the
    /// platform (a 128 × 128 delay matrix is about 0.3 MiB) and the
    /// request envelope. At the defaults:
    /// 256 × (10,000 + 100,000) + 1 MiB ≈ 29 MB.
    pub fn line_limit(&self) -> usize {
        256usize
            .saturating_mul(self.max_tasks.saturating_add(self.max_edges))
            .saturating_add(1 << 20)
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            cache_capacity: 256,
            max_tasks: 10_000,
            max_edges: 100_000,
        }
    }
}

/// One registered heuristic as reported by `{"cmd":"heuristics"}`.
#[derive(Debug, Clone, Serialize)]
pub struct HeuristicInfo {
    /// Canonical name.
    pub name: String,
    /// Accepted aliases.
    pub aliases: Vec<String>,
}

/// Reply to `{"cmd":"heuristics"}`.
#[derive(Debug, Clone, Serialize)]
struct HeuristicsReply {
    status: String,
    heuristics: Vec<HeuristicInfo>,
}

/// Reply to `{"cmd":"stats"}`.
#[derive(Debug, Clone, Serialize)]
struct StatsReply {
    status: String,
    stats: StatsReport,
}

/// The scheduler service: the registry's name table, solution and
/// verdict caches, and accounting. One instance serves any number of independent
/// requests, from any number of threads; the graph/platform travel *in*
/// each request, so no instance state outlives a line except the caches
/// and the counters.
pub struct Service {
    config: ServiceConfig,
    names: Vec<HeuristicInfo>,
    shared: Mutex<Shared>,
}

/// The state callers share, behind [`Service`]'s one lock.
struct Shared {
    cache: LruCache<Cached>,
    /// Error replies of failed solves, `id` unset.
    verdicts: LruCache<ErrResponse>,
    stats: ServiceStats,
}

/// A solution-cache entry: the solution as solved until its first hit,
/// its wire text after.
#[derive(Clone)]
enum Cached {
    Wire(Arc<SolutionWire>),
    Text(Arc<str>),
}

/// A decoded solve line, ready for the caches.
struct SolveSlot {
    req: Box<SolveRequest>,
    cfg: AlgoConfig,
    canonical: String,
    key: CacheKey,
    /// Microseconds spent decoding the line.
    decode_us: u64,
}

/// One line after decoding.
enum Slot {
    /// Response already final (control reply or error).
    Done(String),
    /// Needs the caches or a solve.
    Solve(SolveSlot),
}

impl Service {
    /// A service over the full strategy family (`ltf_baselines::FULL`).
    pub fn new(config: ServiceConfig) -> Self {
        let names = FULL
            .iter()
            .map(|h| HeuristicInfo {
                name: h.name().to_string(),
                aliases: h.aliases().iter().map(|a| a.to_string()).collect(),
            })
            .collect();
        Self {
            shared: Mutex::new(Shared {
                cache: LruCache::new(config.cache_capacity),
                verdicts: LruCache::new(config.cache_capacity),
                stats: ServiceStats::new(),
            }),
            config,
            names,
        }
    }

    /// Lock the cache and the counters. A poisoned lock is recovered: only
    /// `LruCache` and `ServiceStats` updates run under it, none of them
    /// panics on request input, and a panic elsewhere in one caller must
    /// not stop the service for every other caller.
    fn shared(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registered heuristics (canonical name + aliases).
    pub fn heuristics(&self) -> &[HeuristicInfo] {
        &self.names
    }

    /// Resolve a request's heuristic name to its canonical form with the
    /// registry's own [`lookup`].
    pub fn canonicalize(&self, name: &str) -> Option<&str> {
        lookup(&FULL, name).map(|h| h.name())
    }

    /// Current statistics snapshot.
    pub fn stats_report(&self) -> StatsReport {
        let shared = self.shared();
        shared.stats.report(
            shared.cache.hits(),
            shared.cache.misses(),
            shared.cache.len(),
            shared.verdicts.hits(),
        )
    }

    /// Longest request line the transports accept
    /// ([`ServiceConfig::line_limit`]).
    pub fn line_limit(&self) -> usize {
        self.config.line_limit()
    }

    /// The reply to a line the transports reject unread
    /// ([`Line::Rejected`](crate::lines::Line::Rejected)): one error with
    /// no `id` (the line was never parsed), counted like any other error.
    /// A line over [`Service::line_limit`] is `too-large`, a line that is
    /// not UTF-8 is `parse`.
    pub fn reject(&self, why: Reject) -> String {
        let (kind, message) = match why {
            Reject::TooLong => (
                "too-large",
                format!("request line exceeds {} bytes", self.line_limit()),
            ),
            Reject::NotUtf8 => ("parse", "request line is not valid UTF-8".to_string()),
        };
        self.shared().stats.record_error(kind, 0);
        to_line(&ErrResponse::new(None, kind, None, message))
    }

    /// Answer one request line. Never panics on malformed input; every
    /// line gets exactly one response line.
    ///
    /// ```
    /// use ltf_serve::{Service, ServiceConfig};
    ///
    /// let svc = Service::new(ServiceConfig::default());
    /// let ok = svc.handle_line(r#"{"cmd":"heuristics"}"#);
    /// assert!(ok.contains(r#""status":"ok""#));
    /// // A bad line yields a structured error, and the service goes on.
    /// let bad = svc.handle_line("definitely not json");
    /// assert!(bad.contains(r#""kind":"parse""#));
    /// assert_eq!(svc.stats_report().errors, 1);
    /// ```
    pub fn handle_line(&self, line: &str) -> String {
        match self.decode(line) {
            Slot::Done(reply) => reply,
            Slot::Solve(s) => self.resolve(s),
        }
    }

    fn decode(&self, line: &str) -> Slot {
        let t0 = Instant::now();
        let req = match parse_request(line) {
            Ok(Request::Stats) => {
                return Slot::Done(to_line(&StatsReply {
                    status: "ok".to_string(),
                    stats: self.stats_report(),
                }))
            }
            Ok(Request::Heuristics) => {
                return Slot::Done(to_line(&HeuristicsReply {
                    status: "ok".to_string(),
                    heuristics: self.names.clone(),
                }))
            }
            Ok(Request::Shard(req)) => {
                let line = self.handle_shard(&req);
                let us = t0.elapsed().as_micros() as u64;
                let mut shared = self.shared();
                if line.starts_with(r#"{"ok":true"#) {
                    shared.stats.record_ok("campaign-shard", us);
                } else {
                    shared.stats.record_error("shard-failed", us);
                }
                return Slot::Done(line);
            }
            Ok(Request::Solve(req)) => req,
            Err((kind, message, id)) => {
                self.shared()
                    .stats
                    .record_error(kind, t0.elapsed().as_micros() as u64);
                return Slot::Done(to_line(&ErrResponse::new(id, kind, None, message)));
            }
        };
        let id = req.id;
        let err = |kind: &str, heuristic: Option<String>, message: String| {
            self.shared()
                .stats
                .record_error(kind, t0.elapsed().as_micros() as u64);
            Slot::Done(to_line(&ErrResponse::new(id, kind, heuristic, message)))
        };
        if req.graph.num_tasks() > self.config.max_tasks
            || req.graph.num_edges() > self.config.max_edges
        {
            return err(
                "too-large",
                None,
                format!(
                    "graph has {} tasks / {} edges, limits are {} / {}",
                    req.graph.num_tasks(),
                    req.graph.num_edges(),
                    self.config.max_tasks,
                    self.config.max_edges
                ),
            );
        }
        if req.platform.num_procs() > MAX_PROCS {
            return err(
                "too-large",
                None,
                format!(
                    "platform has {} processors, the limit is {MAX_PROCS}",
                    req.platform.num_procs()
                ),
            );
        }
        let Some(canonical) = self.canonicalize(&req.heuristic).map(str::to_string) else {
            return err(
                "unknown-heuristic",
                Some(req.heuristic.clone()),
                format!("no heuristic named {:?} is registered", req.heuristic),
            );
        };
        let cfg = match req.config.to_algo() {
            Ok(cfg) => cfg,
            Err(msg) => return err("bad-request", Some(canonical), msg),
        };
        let key = CacheKey::new(&req.graph, &req.platform, &canonical, &cfg);
        Slot::Solve(SolveSlot {
            req,
            cfg,
            canonical,
            key,
            decode_us: t0.elapsed().as_micros() as u64,
        })
    }

    /// Compute one campaign shard inline and render the one-line reply:
    /// `{"ok":true,"id":...,"shard":"K/N","items":N,"results":[...]}` on
    /// success, `{"ok":false,"id":...,"error":KIND,"message":...}` on
    /// failure. Runs serially within the request (a shard is a batch of
    /// work already; the compute parallelizes internally over
    /// [`ServiceConfig::threads`]), so responses stay bit-stable and the
    /// campaign merge can cross-check determinism.
    fn handle_shard(&self, req: &ShardRequest) -> String {
        let reply = |entries: Vec<(&str, Value)>| {
            to_line(&Value::Map(
                entries
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ))
        };
        let id = match req.id {
            Some(id) => Value::UInt(id),
            None => Value::Null,
        };
        let fail = |kind: &str, message: String| {
            reply(vec![
                ("ok", Value::Bool(false)),
                ("id", id.clone()),
                ("error", Value::Str(kind.to_string())),
                ("message", Value::Str(message)),
            ])
        };
        let shard: Shard = match req.shard.parse() {
            Ok(s) => s,
            Err(e) => return fail("bad-request", e),
        };
        let threads = resolve_threads(self.config.threads);
        let mut results = Vec::new();
        let run = ltf_experiments::campaign::campaign_of(&req.spec)
            .and_then(|c| c.run_shard(shard, threads, None, &mut |v| results.push(v)));
        match run {
            Ok(items) => reply(vec![
                ("ok", Value::Bool(true)),
                ("id", id),
                ("shard", Value::Str(shard.to_string())),
                ("items", Value::UInt(items as u64)),
                ("results", Value::Seq(results)),
            ]),
            Err(e) => fail("shard-failed", e),
        }
    }

    /// Answer one solve line from a cache, or solve it and cache the
    /// outcome.
    fn resolve(&self, s: SolveSlot) -> String {
        let id = s.req.id;
        // A block of its own, so the lock is released before encoding.
        let found = {
            let mut shared = self.shared();
            if let Some(entry) = shared.cache.get(&s.key) {
                shared.stats.record_ok(&s.canonical, s.decode_us);
                Some(Ok(entry))
            } else if let Some(err) = shared.verdicts.get(&s.key) {
                shared.stats.record_error(&err.kind, s.decode_us);
                Some(Err(err))
            } else {
                None
            }
        };
        match found {
            Some(Ok(Cached::Text(text))) => return ok_line(id, true, &text),
            Some(Ok(Cached::Wire(wire))) => {
                // First hit: serialize once, keep only the text.
                let text: Arc<str> = to_line(&*wire).into();
                self.shared()
                    .cache
                    .update(&s.key, Cached::Text(Arc::clone(&text)));
                return ok_line(id, true, &text);
            }
            Some(Err(mut err)) => {
                err.id = id;
                return to_line(&err);
            }
            None => {}
        }
        // Missed both caches (each miss counted by its failed `get`):
        // solve from scratch, outside the lock.
        let t0 = Instant::now();
        let solver = full_solver(&s.req.graph, &s.req.platform);
        let outcome = match solver.solve(&s.canonical, &s.cfg) {
            Ok(sol) => Ok(SolutionWire::from_solution(&sol)),
            Err(d) => Err(ErrResponse::from_diagnostics(None, &d)),
        };
        let us = s.decode_us + t0.elapsed().as_micros() as u64;
        match outcome {
            Ok(wire) => {
                let line = ok_line(id, false, &to_line(&wire));
                let mut shared = self.shared();
                shared.cache.insert(s.key, Cached::Wire(Arc::new(wire)));
                shared.stats.record_ok(&s.canonical, us);
                line
            }
            Err(mut err) => {
                err.heuristic = Some(s.canonical);
                {
                    let mut shared = self.shared();
                    shared.verdicts.insert(s.key, err.clone());
                    shared.stats.record_error(&err.kind, us);
                }
                err.id = id;
                to_line(&err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_hit_swaps_the_solution_for_its_text() {
        let svc = Service::new(ServiceConfig::default());
        let line = r#"{"id":3,"heuristic":"rltf","graph":{"tasks":[{"name":"a","exec":2.0},{"name":"b","exec":3.0}],"edges":[{"src":0,"dst":1,"volume":1.0}]},"platform":{"speeds":[1.0,1.0],"delays":[0.0,0.5,0.5,0.0]},"config":{"epsilon":1,"period":30.0}}"#;
        let miss = svc.handle_line(line);
        let key = svc
            .shared()
            .cache
            .keys_lru_first()
            .next()
            .cloned()
            .expect("the solution was cached");
        let entry = || svc.shared().cache.get(&key).expect("still cached");
        assert!(matches!(entry(), Cached::Wire(_)));
        // The first hit encodes the solution, the next two reuse its text.
        let hits: Vec<String> = (0..3).map(|_| svc.handle_line(line)).collect();
        assert!(matches!(entry(), Cached::Text(_)));
        assert_eq!(
            hits[0],
            miss.replacen(r#""cached":false"#, r#""cached":true"#, 1)
        );
        assert_eq!(hits[1], hits[0]);
        assert_eq!(hits[2], hits[0]);
    }
}
