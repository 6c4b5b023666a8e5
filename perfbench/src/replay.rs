//! The traced in-process replays: the same generated inputs the timed
//! run sends, pushed through the layers' public functions with a span
//! around each call.
//!
//! Each replay composes the library calls exactly as the production path
//! does, and its output is checked byte for byte against the production
//! path (`Service::handle_line`, the campaign's merged output), so the
//! spans time the real work.

use crate::gen::{fnv, Class, ServeInputs, FNV_OFFSET};
use crate::trace::{layers, percentile, root_ns, Tracer};
use ltf_baselines::full_solver;
use ltf_core::search::pareto::pareto_front;
use ltf_core::{AlgoConfig, Heuristic, PreparedInstance, ScheduleError};
use ltf_experiments::campaign::{
    build_slo_report, render_lines, slo::slo_threshold, slo_cells, slo_work_items, work_items,
    CampaignResult, CampaignSpec, Experiment, FailureSpec, ItemResult, Merger, SloCell,
    SloItemResult, SloWorkItem, WorkItem,
};
use ltf_experiments::gen_instance_on;
use ltf_experiments::pareto::{validate_front, FrontRow, ParetoInstance};
use ltf_faultlab::{replay, CellStats, FailureModel, ReplayConfig, SimEngine, SloThreshold};
use ltf_platform::Topology;
use ltf_schedule::Schedule;
use ltf_serve::proto::{parse_request, to_line, ErrResponse, OkResponse, Request, SolutionWire};
use ltf_serve::{CacheKey, LruCache, Service, ServiceConfig};
use ltf_sim::RecoveryPolicy;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a replay measured: per-layer metrics plus the output checks.
pub struct Replay {
    pub metrics: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
    /// Units replayed (requests or work items).
    pub attempted: u64,
    /// Units whose composed output differs from the production path.
    pub failed: u64,
}

/// Counters of one composed pass.
#[derive(Default)]
struct Counts {
    solves: u64,
    feasible: u64,
    hits: u64,
    misses: u64,
    infeasible_resolves: u64,
    infeasible_replies: u64,
}

/// The serve engine's single-line path rebuilt from the layers' public
/// functions (mirrors `Service::handle_line`).
struct Composed {
    names: Service,
    cache: LruCache,
    config: ServiceConfig,
    answered_infeasible: HashSet<CacheKey>,
    counts: Counts,
}

impl Composed {
    fn new() -> Self {
        let config = ServiceConfig::default();
        Self {
            names: Service::new(config.clone()),
            cache: LruCache::new(config.cache_capacity),
            config,
            answered_infeasible: HashSet::new(),
            counts: Counts::default(),
        }
    }

    fn handle(&mut self, line: &str, id: u64, tr: &mut Tracer) -> String {
        tr.span("serve.request", id, |tr| self.handle_in(line, id, tr))
    }

    fn handle_in(&mut self, line: &str, id: u64, tr: &mut Tracer) -> String {
        let parsed = tr.span("serve.proto.parse", id, |_| parse_request(line));
        let encode_err = |tr: &mut Tracer, err: ErrResponse| {
            tr.span("serve.proto.encode", id, |_| to_line(&err))
        };
        let req = match parsed {
            Ok(Request::Solve(req)) => req,
            Ok(_) => {
                let err = ErrResponse::new(None, "bench", None, "control line".into());
                return encode_err(tr, err);
            }
            Err((kind, message, rid)) => {
                return encode_err(tr, ErrResponse::new(rid, kind, None, message))
            }
        };
        if req.graph.num_tasks() > self.config.max_tasks
            || req.graph.num_edges() > self.config.max_edges
        {
            let message = format!(
                "graph has {} tasks / {} edges, limits are {} / {}",
                req.graph.num_tasks(),
                req.graph.num_edges(),
                self.config.max_tasks,
                self.config.max_edges
            );
            return encode_err(tr, ErrResponse::new(req.id, "too-large", None, message));
        }
        let Some(canonical) = self.names.canonicalize(&req.heuristic).map(str::to_string) else {
            let message = format!("no heuristic named {:?} is registered", req.heuristic);
            let err = ErrResponse::new(
                req.id,
                "unknown-heuristic",
                Some(req.heuristic.clone()),
                message,
            );
            return encode_err(tr, err);
        };
        let cfg = match req.config.to_algo() {
            Ok(cfg) => cfg,
            Err(msg) => {
                return encode_err(
                    tr,
                    ErrResponse::new(req.id, "bad-request", Some(canonical), msg),
                )
            }
        };
        let key = tr.span("serve.cache.key", id, |_| {
            CacheKey::new(&req.graph, &req.platform, &canonical, &cfg)
        });
        if let Some(wire) = tr.span("serve.cache.lookup", id, |_| self.cache.get(&key)) {
            self.counts.hits += 1;
            return tr.span("serve.proto.encode", id, |_| {
                to_line(&OkResponse::new(req.id, true, wire))
            });
        }
        self.counts.misses += 1;
        if self.answered_infeasible.contains(&key) {
            self.counts.infeasible_resolves += 1;
        }
        let solver = tr.span("core.solver.build", id, |_| {
            full_solver(&req.graph, &req.platform)
        });
        let outcome = tr.span("core.solve", id, |_| solver.solve(&canonical, &cfg));
        self.counts.solves += 1;
        match outcome {
            Ok(sol) => {
                self.counts.feasible += 1;
                let wire = tr.span("serve.proto.encode", id, |_| {
                    SolutionWire::from_solution(&sol)
                });
                tr.span("serve.cache.insert", id, |_| {
                    self.cache.insert(key, wire.clone())
                });
                tr.span("serve.proto.encode", id, |_| {
                    to_line(&OkResponse::new(req.id, false, wire))
                })
            }
            Err(d) => {
                self.counts.infeasible_replies += 1;
                self.answered_infeasible.insert(key);
                let mut err = ErrResponse::from_diagnostics(None, &d);
                err.id = req.id;
                err.heuristic = Some(canonical);
                encode_err(tr, err)
            }
        }
    }
}

fn hash(s: &str) -> u64 {
    fnv(s.as_bytes(), FNV_OFFSET)
}

/// Replay the serve workload in-process for about `budget_s` seconds:
/// `Service::handle_line` (timed per call), then the composed pipeline
/// with spans off and with spans on over the same requests, each reply
/// checked against the engine's.
pub fn serve(inputs: &ServeInputs, budget_s: f64) -> Replay {
    let mut service = Service::new(ServiceConfig::default());
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(budget_s / 3.0);
    let mut reference = Vec::new();
    let mut handle_ns = Vec::new();
    while Instant::now() < deadline {
        let line = inputs.line(reference.len());
        let t0 = Instant::now();
        let reply = service.handle_line(&line);
        handle_ns.push(t0.elapsed().as_nanos() as u64);
        reference.push(hash(&reply));
    }
    let n = reference.len();

    // Spans off and spans on, request by request over two identical
    // pipelines (alternating which goes first), so machine drift cancels
    // out of the overhead ratio.
    let mut failed = 0u64;
    let (mut plain, mut traced) = (Composed::new(), Composed::new());
    let (mut off, mut tr) = (Tracer::new(false), Tracer::new(true));
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
    for (i, want) in reference.iter().enumerate() {
        let line = inputs.line(i);
        let timed = |c: &mut Composed, t: &mut Tracer| {
            let t0 = Instant::now();
            let reply = c.handle(&line, i as u64, t);
            (t0.elapsed().as_nanos() as u64, hash(&reply) != *want)
        };
        let ((p_ns, p_bad), (t_ns, t_bad)) = if i % 2 == 0 {
            let p = timed(&mut plain, &mut off);
            (p, timed(&mut traced, &mut tr))
        } else {
            let t = timed(&mut traced, &mut tr);
            (timed(&mut plain, &mut off), t)
        };
        plain_ns += p_ns;
        traced_ns += t_ns;
        failed += (p_bad || t_bad) as u64;
    }
    let counts = traced.counts;
    let (plain_s, traced_s) = (plain_ns as f64 * 1e-9, traced_ns as f64 * 1e-9);

    // Route construction of the twins' interconnects, rebuilt beside the
    // pipeline (the daemon builds one route table per routed request
    // while parsing it).
    for i in 0..n {
        if let Some((shape, speeds)) = inputs.topology(i) {
            let topo = match shape {
                ltf_experiments::campaign::TopologyShape::Chain(d) => {
                    Topology::chain(speeds.clone(), *d)
                }
                ltf_experiments::campaign::TopologyShape::Star(d) => {
                    Topology::star(speeds.clone(), *d)
                }
                ltf_experiments::campaign::TopologyShape::Links(_) => continue,
            };
            tr.span("platform.route", i as u64, |_| topo.route_table());
        }
    }

    let solve_p50 = |class: Class| {
        let d: Vec<u64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == "core.solve" && inputs.class(s.id as usize) == class)
            .map(|s| s.dur_ns())
            .collect();
        percentile(&d, 50.0) as f64 * 1e-3
    };
    let uniform_p50 = solve_p50(Class::UniformTwin);
    let contended_p50 = solve_p50(Class::ContendedTwin);
    let lookups = (counts.hits + counts.misses).max(1) as f64;
    let mut metrics = vec![
        (
            "serve.engine.handle_p50_us",
            percentile(&handle_ns, 50.0) as f64 * 1e-3,
        ),
        ("serve.cache.hit_ratio", counts.hits as f64 / lookups),
        (
            "serve.cache.infeasible_resolves",
            counts.infeasible_resolves as f64,
        ),
        (
            "serve.infeasible_share",
            counts.infeasible_replies as f64 / n.max(1) as f64,
        ),
        ("serve.replay.requests", n as f64),
        ("core.solve.uniform_p50_us", uniform_p50),
        ("core.solve.contended_p50_us", contended_p50),
    ];
    metrics.extend(common(
        &tr,
        counts.solves,
        counts.feasible,
        traced_s,
        plain_s,
    ));
    Replay {
        metrics,
        tracer: tr,
        attempted: n as u64,
        failed,
    }
}

/// A heuristic wrapper that counts and times every call the Pareto
/// search makes.
struct Counting<'a> {
    inner: &'a dyn Heuristic,
    origin: Instant,
    record: bool,
    calls: AtomicU64,
    feasible: AtomicU64,
    times: Mutex<Vec<(u64, u64)>>,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn Heuristic, tr: &Tracer) -> Self {
        Self {
            inner,
            origin: tr.origin(),
            record: tr.enabled(),
            calls: AtomicU64::new(0),
            feasible: AtomicU64::new(0),
            times: Mutex::new(Vec::new()),
        }
    }
}

impl Heuristic for Counting<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn aliases(&self) -> &'static [&'static str] {
        self.inner.aliases()
    }

    fn schedule(
        &self,
        inst: &PreparedInstance<'_>,
        cfg: &AlgoConfig,
    ) -> Result<Schedule, ScheduleError> {
        let start = self.origin.elapsed().as_nanos() as u64;
        let r = self.inner.schedule(inst, cfg);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.feasible.fetch_add(r.is_ok() as u64, Ordering::Relaxed);
        if self.record {
            self.times
                .lock()
                .expect("no heuristic call panicked while recording")
                .push((start, end));
        }
        r
    }
}

/// Counters of the traced campaign pass.
#[derive(Default)]
struct CampaignCounts {
    calls: u64,
    feasible: u64,
    solves: u64,
    solves_ok: u64,
}

/// Run every work item twice, with spans off and with spans on,
/// alternating which goes first, so machine drift cancels out of the
/// overhead ratio. Returns both result lists and each side's time.
fn interleaved<R>(
    n: usize,
    on: &mut Tracer,
    counts: &mut CampaignCounts,
    mut item: impl FnMut(usize, &mut Tracer, &mut CampaignCounts) -> Result<R, String>,
) -> Result<(Vec<R>, Vec<R>, f64, f64), String> {
    let mut off = Tracer::new(false);
    let mut discarded = CampaignCounts::default();
    let (mut plain, mut traced) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for k in 0..n {
        for traced_side in [k % 2 == 1, k % 2 == 0] {
            let t0 = Instant::now();
            if traced_side {
                traced.push(item(k, on, counts)?);
                traced_s += t0.elapsed().as_secs_f64();
            } else {
                plain.push(item(k, &mut off, &mut discarded)?);
                plain_s += t0.elapsed().as_secs_f64();
            }
        }
    }
    Ok((plain, traced, plain_s, traced_s))
}

/// One Pareto work item through the worker's layers (mirrors
/// `campaign::compute_item`).
fn pareto_item(
    exps: &[Experiment],
    wi: &WorkItem,
    tr: &mut Tracer,
    counts: &mut CampaignCounts,
) -> Result<ItemResult, String> {
    let id = wi.item as u64;
    let exp = &exps[wi.experiment];
    tr.span("campaign.item", id, |tr| {
        let inst = tr.span("experiments.workload.gen", id, |_| {
            gen_instance_on(&exp.workload, wi.seed, exp.topology.as_ref())
        });
        let (g, p) = (inst.graph, inst.platform);
        let solver = tr.span("core.solver.build", id, |_| full_solver(&g, &p));
        let h = solver
            .heuristic(&exp.algo)
            .ok_or_else(|| format!("unknown heuristic {:?}", exp.algo))?;
        let counting = Counting::new(h, tr);
        let front = tr.span("core.pareto.front", id, |tr| {
            let front = pareto_front(&g, &p, &counting, &exp.opts);
            let times = std::mem::take(&mut *counting.times.lock().expect("calls finished"));
            tr.adopt("core.pareto.heuristic", id, &times);
            front
        });
        counts.calls += counting.calls.load(Ordering::Relaxed);
        counts.feasible += counting.feasible.load(Ordering::Relaxed);
        tr.span("schedule.validate", id, |_| validate_front(&g, &p, &front))?;
        Ok(ItemResult {
            item: id,
            experiment: wi.experiment as u64,
            label: exp.label.clone(),
            seed: wi.seed,
            rows: front.iter().map(|pt| FrontRow::new(wi.seed, pt)).collect(),
        })
    })
}

/// What every SLO trace block shares.
struct SloCtx<'a> {
    spec: &'a CampaignSpec,
    failure: &'a FailureSpec,
    exps: &'a [Experiment],
    cells: Vec<SloCell>,
    sig: u64,
    slo: SloThreshold,
    cfg: ReplayConfig,
}

/// One SLO trace block through the worker's layers (mirrors
/// `campaign::compute_slo_item`): one witness solve, then sample →
/// replay → record per trace.
fn slo_item(
    ctx: &SloCtx,
    wi: &SloWorkItem,
    tr: &mut Tracer,
    counts: &mut CampaignCounts,
) -> Result<SloItemResult, String> {
    let id = wi.item as u64;
    let f = ctx.failure;
    let cell = &ctx.cells[wi.cell];
    let exp = &ctx.exps[cell.experiment];
    tr.span("campaign.item", id, |tr| {
        let inst = tr.span("experiments.workload.gen", id, |_| {
            let mut wl = exp.workload.clone();
            wl.epsilon = cell.epsilon;
            gen_instance_on(&wl, cell.seed, exp.topology.as_ref())
        });
        let period = f.period.unwrap_or(inst.period);
        let (g, p) = (inst.graph, inst.platform);
        let solver = tr.span("core.solver.build", id, |_| full_solver(&g, &p));
        let witness = tr.span("experiments.campaign.slo.witness", id, |tr| {
            tr.span("core.solve", id, |_| {
                solver.solve(&exp.algo, &AlgoConfig::new(cell.epsilon, period))
            })
        });
        counts.solves += 1;
        let mut stats = CellStats::new();
        let feasible = witness.is_ok();
        if let Ok(sol) = witness {
            counts.solves_ok += 1;
            tr.span("schedule.validate", id, |_| {
                ltf_schedule::validate(&g, &p, &sol.schedule)
            })
            .map_err(|v| format!("item {id}: witness fails validation: {v:?}"))?;
            let model = match (&f.rate, &f.rates) {
                (Some(r), None) => FailureModel::uniform(p.num_procs(), *r),
                (None, Some(rs)) => FailureModel::from_rates(rs.clone()),
                _ => return Err("failure block needs exactly one of rate/rates".to_string()),
            };
            let traces = f.traces();
            for t in wi.t0..wi.t1 {
                let stream = (cell.index * traces + t) as u64;
                let trace = tr.span("faultlab.sample", id, |_| {
                    model.sample_trace(ctx.sig, stream)
                });
                let rep = tr.span("faultlab.replay", id, |_| {
                    replay(&g, &p, &sol.schedule, trace, &ctx.cfg)
                });
                tr.span("faultlab.stats", id, |_| stats.record(&rep, &ctx.slo));
            }
        }
        Ok(SloItemResult {
            item: id,
            cell: cell.index as u64,
            label: cell.label.clone(),
            feasible,
            stats,
        })
    })
}

fn merge<R: CampaignResult>(
    results: Vec<R>,
    tr: &mut Tracer,
    render: impl FnOnce(&[R]) -> Result<Vec<String>, String>,
) -> Result<Vec<String>, String> {
    tr.span("experiments.campaign.merge", 0, |_| {
        let mut merger = Merger::new(results.len());
        for r in results {
            merger.insert(r)?;
        }
        render(&merger.finish()?)
    })
}

/// Replay a campaign in-process, every work item with spans off and on,
/// and check both merged outputs against the distributed run's.
pub fn campaign(spec: &CampaignSpec, expected: &[String]) -> Result<Replay, String> {
    let mut tr = Tracer::new(true);
    let exps = tr
        .span("experiments.campaign.expand", 0, |_| spec.expand())
        .map_err(|e| e.to_string())?;
    if let Some(e) = exps.iter().find(|e| e.family != ParetoInstance::Workload) {
        return Err(format!(
            "{}: only the workload graph family is replayed",
            e.label
        ));
    }
    let mut counts = CampaignCounts::default();
    let mut off = Tracer::new(false);
    let (plain, traced, plain_s, traced_s) = match &spec.failure {
        None => {
            let items = work_items(&exps);
            let (a, b, ps, ts) = interleaved(items.len(), &mut tr, &mut counts, |k, tr, c| {
                pareto_item(&exps, &items[k], tr, c)
            })?;
            let render = |r: &[ItemResult]| Ok(render_lines(r));
            (
                merge(a, &mut off, render)?,
                merge(b, &mut tr, render)?,
                ps,
                ts,
            )
        }
        Some(failure) => {
            let cells = slo_cells(&exps);
            let items = slo_work_items(failure, &cells);
            let ctx = SloCtx {
                spec,
                failure,
                exps: &exps,
                cells,
                sig: spec.signature(),
                slo: slo_threshold(spec),
                cfg: ReplayConfig {
                    items: failure.items(),
                    policy: match failure.policy.as_deref() {
                        Some("reroute") => RecoveryPolicy::Reroute,
                        _ => RecoveryPolicy::FailStop,
                    },
                    engine: failure
                        .engine
                        .as_deref()
                        .and_then(SimEngine::parse)
                        .unwrap_or(SimEngine::Synchronous),
                },
            };
            let (a, b, ps, ts) = interleaved(items.len(), &mut tr, &mut counts, |k, tr, c| {
                slo_item(&ctx, &items[k], tr, c)
            })?;
            let render = |r: &[SloItemResult]| Ok(build_slo_report(ctx.spec, r)?.json_lines());
            (
                merge(a, &mut off, render)?,
                merge(b, &mut tr, render)?,
                ps,
                ts,
            )
        }
    };
    let items = tr
        .spans()
        .iter()
        .filter(|s| s.name == "campaign.item")
        .count() as u64;
    let failed = [&plain, &traced]
        .iter()
        .filter(|lines| lines.as_slice() != expected)
        .count() as u64
        * items;
    let l = layers(tr.spans());
    let mut metrics = vec![
        (
            "core.pareto.front_p50_ms",
            l.get("core.pareto.front")
                .map_or(0.0, |x| x.pct_us(50.0) * 1e-3),
        ),
        ("core.pareto.heuristic_calls", counts.calls as f64),
        (
            "core.pareto.feasible_ratio",
            counts.feasible as f64 / counts.calls.max(1) as f64,
        ),
        (
            "experiments.campaign.slo.witness_solves",
            l.get("experiments.campaign.slo.witness")
                .map_or(0, |x| x.count) as f64,
        ),
        (
            "experiments.campaign.slo.witness_busy_s",
            l.get("experiments.campaign.slo.witness")
                .map_or(0.0, |x| x.busy_s()),
        ),
        (
            "faultlab.replay_p50_us",
            l.get("faultlab.replay").map_or(0.0, |x| x.pct_us(50.0)),
        ),
        (
            "campaign.compute_busy_s",
            l.get("campaign.item").map_or(0.0, |x| x.busy_s()),
        ),
    ];
    metrics.extend(common(
        &tr,
        counts.solves,
        counts.solves_ok,
        traced_s,
        plain_s,
    ));
    Ok(Replay {
        metrics,
        tracer: tr,
        attempted: items,
        failed,
    })
}

/// Metrics every replay reports from its spans.
fn common(
    tr: &Tracer,
    solves: u64,
    feasible: u64,
    traced_s: f64,
    plain_s: f64,
) -> Vec<(&'static str, f64)> {
    let l = layers(tr.spans());
    let busy = |name: &str| l.get(name).map_or(0.0, |x| x.busy_s());
    let root_s = root_ns(tr.spans()) as f64 * 1e-9;
    // Time inside a request or item span that no layer span covers: the
    // glue between the layer calls.
    let glue_ns: u64 = ["serve.request", "campaign.item"]
        .iter()
        .filter_map(|name| l.get(name))
        .map(|x| x.self_ns)
        .sum();
    vec![
        ("serve.proto.parse_busy_s", busy("serve.proto.parse")),
        (
            "serve.proto.parse_p50_us",
            l.get("serve.proto.parse").map_or(0.0, |x| x.pct_us(50.0)),
        ),
        ("serve.proto.encode_busy_s", busy("serve.proto.encode")),
        ("serve.cache.key_busy_s", busy("serve.cache.key")),
        ("core.solver.build_busy_s", busy("core.solver.build")),
        ("core.solve.calls", solves as f64),
        ("core.solve.busy_s", busy("core.solve")),
        (
            "core.solve.busy_share",
            busy("core.solve") / root_s.max(1e-12),
        ),
        (
            "core.solve.feasible_ratio",
            feasible as f64 / solves.max(1) as f64,
        ),
        ("platform.route_busy_s", busy("platform.route")),
        (
            "experiments.workload.gen_busy_s",
            busy("experiments.workload.gen"),
        ),
        ("schedule.validate_busy_s", busy("schedule.validate")),
        (
            "experiments.campaign.merge_busy_s",
            busy("experiments.campaign.merge"),
        ),
        ("faultlab.sample_busy_s", busy("faultlab.sample")),
        ("faultlab.replay_busy_s", busy("faultlab.replay")),
        ("faultlab.stats_busy_s", busy("faultlab.stats")),
        ("trace.overhead_ratio", traced_s / plain_s.max(1e-12) - 1.0),
        ("trace.root_s", root_s),
        (
            "trace.unattributed_share",
            glue_ns as f64 * 1e-9 / root_s.max(1e-12),
        ),
    ]
}
