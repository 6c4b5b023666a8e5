//! The chunked mapping loop shared by LTF (Algorithm 4.1) and R-LTF, with
//! the one-to-one mapping procedure (Algorithm 4.2).
//!
//! Each round selects a chunk `β` of up to `B` highest-priority ready tasks
//! (the paper sets `B = m`) and places the `ε+1` copies of every chunk
//! task.
//!
//! ### Replica-validity discipline (crash cones)
//!
//! The paper gates the one-to-one procedure on *singleton processors* and
//! locked sets. That test is a local proxy for the real invariant — no
//! single processor failure may silence two copies of the same task,
//! transitively through single-source feeding chains. We enforce the exact
//! invariant instead (`DESIGN.md` §2.4):
//!
//! * **LTF (forward)**: every replica carries its *crash cone* — the set
//!   of processors whose individual failure silences it: its host plus,
//!   per in-edge, the cone of its single source (one-to-one) or the
//!   intersection of all sources' cones (receive-from-all, which is empty
//!   once the predecessor's copies have disjoint cones). A new copy must
//!   keep its cone disjoint from its siblings' cones.
//! * **R-LTF (reverse)**: cones cannot be evaluated bottom-up (a replica's
//!   feeders are scheduled after it), so the engine tracks the dual
//!   objects: the *downstream closure* `D(r)` (replicas transitively fed
//!   by `r` through single-source pairings, fixed at placement) and the
//!   hosts of every replica known to feed each replica (`ushost`). A
//!   placement on processor `u` is admissible iff (a) its combined
//!   downstream closure never contains two copies of one task and (b) `u`
//!   does not appear among the upstream hosts of any *sibling copy* of a
//!   task in that closure. To keep the receive-from-all semantics exact,
//!   R-LTF decides per *task* (not per copy) between an all-one-to-one
//!   perfect matching and an all-receive-from-all placement.
//!
//! Both disciplines are verified by exhaustive crash enumeration in the
//! test suite.
//!
//! ### Scratch arenas and incremental speculation
//!
//! The whole mapping loop runs out of one [`ProbeScratch`] arena: chunk
//! selection buffers, per-candidate source plans, probe outcomes,
//! incumbent/candidate double buffers (promoted by `mem::swap`, never
//! copied), closure bitsets and the replay records. Everything is
//! `clear()`ed and reused, so the steady-state placement loops perform no
//! heap allocation (pinned by the counting-allocator tests in
//! [`crate::alloc_probe`]).
//!
//! R-LTF's two task-level attempts used to be compared by snapshotting the
//! whole engine (three `Engine::clone`s per task — the dominant cost at
//! scale). Both attempts now run under one engine checkpoint: the
//! receive-from-all attempt goes first and records its per-copy probes,
//! the journal unwinds it, the one-to-one attempt runs second. A
//! one-to-one win keeps its state in place (nothing to replay — no clone
//! of the closure sets either); a receive-from-all win unwinds the
//! one-to-one attempt and re-applies the recorded probes, which is pure
//! bookkeeping — no placement logic re-runs. Rollback restores engine
//! state bit-for-bit and both scores depend only on the probes and the
//! ready tracker, so the attempt order cannot change the decision; the
//! snapshot-era control flow survives verbatim in [`crate::reference`] and
//! the differential suite pins both paths to identical schedules.
//!
//! ### Placement policy
//!
//! * **LTF**: copy `N` of every chunk task before copy `N+1` of any
//!   (the paper's interleaved order); per copy, one-to-one placement
//!   (heads ranked by communication finish time, processor with minimum
//!   finish time) whenever a cone-disjoint single-source candidate exists,
//!   otherwise the receive-from-all fallback on the minimum-finish-time
//!   processor satisfying condition (1).
//! * **R-LTF**: per chunk task, both task-level modes are attempted;
//!   Rule 1 prefers the one yielding the smaller global stage count,
//!   Rule 2 breaks stage ties towards one-to-one spreading on linear chain
//!   sections, and remaining ties go to the earlier aggregate finish time.
//!
//! ### Bounded candidate scans
//!
//! Every copy is placed by probing candidate processors, and most probes
//! cannot change the decision. [`Engine::probe_bound`] gives, without
//! reading a port, a link or the period, the exact stage of a probe and a
//! finish no later than its own. The scans use it to skip candidates that
//! cannot win; they choose exactly what probing every candidate chooses.
//!
//! * **R-LTF** keeps, per copy, the passing candidate with the smallest
//!   key `(stage, opens a fresh processor, finish)`. Replacing the
//!   incumbent only on a strictly smaller key in processor order keeps
//!   the lowest-index minimum: the argmin of `(key, processor)`. Both
//!   attempts bound every admissible processor, sort by
//!   `(bound key, processor)` and probe in that order. The scan stops at
//!   the first candidate whose `(bound key, processor)` is not below the
//!   incumbent's `(key, processor)`: every later candidate has a key at
//!   least its bound, so none can be smaller. The bound's stage and the
//!   clustering flag are exact; only the finish is a bound. The
//!   one-to-one attempt keeps each candidate's heads in a row of its own
//!   and runs the closure checks, which only filter, on the probed ones.
//! * **LTF** keeps the first candidate in processor order and replaces it
//!   only when a later one finishes more than `EPS` earlier. That rule
//!   depends on the order: with A = 10 before B = 10 − 0.6·EPS, processor
//!   order keeps A, where best-first order would keep B. So LTF scans in
//!   processor order, and skips a candidate once an incumbent exists and
//!   the candidate's bound finish is at least the incumbent's finish −
//!   `EPS`.
//!
//! A skipped candidate makes no period comparison; the [`crate::search`]
//! module docs show why the run's [`PeriodWindow`] stays exact.

use crate::config::{AlgoConfig, PeriodWindow, ScheduleError};
use crate::engine::{Engine, PlanBuf, ProbeBuf, ProbeWorkspace, ProcMask, ReplicaSet};
use crate::prio::{LevelCache, PrioTracker};
use ltf_graph::traversal::ReadyTracker;
use ltf_graph::{TaskGraph, TaskId};
use ltf_platform::ProcId;
use ltf_schedule::{ReplicaId, EPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Placement policy: the only behavioural difference between the two
/// heuristics once the traversal direction is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Policy {
    Ltf,
    Rltf,
}

/// Sentinel marking a consumed head copy in the flat `remaining` table.
const CONSUMED: u8 = u8::MAX;

/// Chunk-selection buffers, reused across rounds.
#[derive(Default)]
struct SelectScratch {
    beta: Vec<TaskId>,
    tied: Vec<usize>,
    newly: Vec<TaskId>,
    ctxs: Vec<LtfCtx>,
}

/// One recorded receive-from-all commit, replayable after a rollback.
/// Slots are recycled (`rfa_len` marks the live prefix) so the probe
/// buffers warm up once.
struct RfaCommit {
    copy: u8,
    probe: ProbeBuf,
}

/// Per-placement working memory: candidate/incumbent double buffers for
/// probes, plans and closure bitsets, the probe workspace, R-LTF's
/// best-first scan order and per-candidate head choices, the one-to-one
/// head-consumption table and the receive-from-all replay records. Split
/// from [`SelectScratch`] so the chunk loop can hold a mutable `LtfCtx`
/// while placement borrows this half.
#[derive(Default)]
struct PlaceScratch {
    ws: ProbeWorkspace,
    cand: ProbeBuf,
    best: ProbeBuf,
    plan: PlanBuf,
    best_plan: PlanBuf,
    cand_dset: ReplicaSet,
    best_dset: ReplicaSet,
    /// R-LTF candidates by bound key, sorted best-first.
    order: Vec<RltfKey>,
    /// One-to-one head choice per candidate and in-edge, flat
    /// `m × in_degree`.
    head_rows: Vec<u8>,
    /// Flat `in_degree × nrep` table of unconsumed head copies
    /// ([`CONSUMED`] marks a used slot).
    remaining: Vec<u8>,
    rfa: Vec<RfaCommit>,
    rfa_len: usize,
}

/// The per-run scratch arena (see the module docs). Created once per
/// [`run`]; every placement loop below draws its buffers from here.
struct ProbeScratch {
    sel: SelectScratch,
    place: PlaceScratch,
}

impl ProbeScratch {
    fn new() -> Self {
        Self {
            sel: SelectScratch::default(),
            place: PlaceScratch {
                plan: PlanBuf::new(),
                best_plan: PlanBuf::new(),
                ..PlaceScratch::default()
            },
        }
    }
}

/// Run the chunked mapping loop to completion. The verdict comes back
/// with the run's [`PeriodWindow`] on both exits, so an infeasible run is
/// as reusable as a feasible one. `TooFewProcessors` fires before any
/// probe, so its window is unbounded: that verdict ignores the period.
pub(crate) fn run(
    engine: &mut Engine<'_>,
    cfg: &AlgoConfig,
    policy: Policy,
    cache: &LevelCache,
) -> (Result<(), ScheduleError>, PeriodWindow) {
    let mut scratch = ProbeScratch::new();
    let verdict = map_all(engine, cfg, policy, cache, &mut scratch);
    (verdict, scratch.place.ws.window())
}

/// The mapping loop behind [`run`], drawing every buffer from `scratch`.
fn map_all(
    engine: &mut Engine<'_>,
    cfg: &AlgoConfig,
    policy: Policy,
    cache: &LevelCache,
    scratch: &mut ProbeScratch,
) -> Result<(), ScheduleError> {
    let g = engine.g;
    let p = engine.p;
    if p.num_procs() < cfg.replicas() {
        return Err(ScheduleError::TooFewProcessors {
            needed: cfg.replicas(),
            available: p.num_procs(),
        });
    }
    // Priorities tℓ + bℓ (§2) come precomputed in the level cache; tℓ is
    // refined online with actual finish times as the partial clustering
    // takes shape ("update priority values of its successors"), tracked
    // through a dirty set flushed once per chunk round.
    let mut prio = PrioTracker::new(cache);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut tracker = ReadyTracker::new(g);
    let mut alpha: Vec<TaskId> = g.entries().to_vec();
    let chunk_cap = cfg.chunk_size.unwrap_or(p.num_procs()).max(1);

    while !alpha.is_empty() {
        // Select the chunk β of up to B highest-priority ready tasks.
        prio.flush(g);
        scratch.sel.beta.clear();
        while scratch.sel.beta.len() < chunk_cap && !alpha.is_empty() {
            let idx = head_index(&alpha, prio.values(), &mut rng, &mut scratch.sel.tied);
            scratch.sel.beta.push(alpha.swap_remove(idx));
        }

        match policy {
            Policy::Ltf => {
                scratch.sel.ctxs.clear();
                scratch
                    .sel
                    .ctxs
                    .extend(scratch.sel.beta.iter().map(|&t| LtfCtx::new(t)));
                for copy in 0..engine.nrep as u8 {
                    for ctx in &mut scratch.sel.ctxs {
                        ltf_place_copy(engine, cfg, ctx, copy, &mut scratch.place)?;
                    }
                }
            }
            Policy::Rltf => {
                for &t in &scratch.sel.beta {
                    rltf_place_task(engine, cfg, t, &tracker, &mut scratch.place)?;
                }
            }
        }

        for &t in &scratch.sel.beta {
            tracker.complete_into(g, t, &mut scratch.sel.newly);
            alpha.extend_from_slice(&scratch.sel.newly);
            // Dynamic top-level refinement: successors inherit the actual
            // task finish plus the averaged edge weight.
            prio.mark_finished(t, engine.task_finish(t));
        }
    }
    debug_assert!(engine.all_placed(), "ready loop ended early");
    debug_assert!(tracker.all_done(g), "tasks left unscheduled");
    Ok(())
}

/// The head function `H(ℓ)`: index of a maximum-priority task, ties broken
/// randomly (paper §2). `tied` is scratch for the tie set.
fn head_index(alpha: &[TaskId], prio: &[f64], rng: &mut StdRng, tied: &mut Vec<usize>) -> usize {
    debug_assert!(!alpha.is_empty());
    let best = alpha
        .iter()
        .map(|t| prio[t.index()])
        .fold(f64::NEG_INFINITY, f64::max);
    tied.clear();
    tied.extend((0..alpha.len()).filter(|&i| prio[alpha[i].index()] >= best - EPS));
    tied[rng.gen_range(0..tied.len())]
}

// ---------------------------------------------------------------------------
// LTF (forward direction): per-copy crash-cone discipline.
// ---------------------------------------------------------------------------

/// Per-chunk-task state for LTF: the union of the crash cones of the
/// already placed copies (the exact form of the paper's locked set `P̄`).
struct LtfCtx {
    task: TaskId,
    used: ProcMask,
}

impl LtfCtx {
    fn new(task: TaskId) -> Self {
        Self { task, used: 0 }
    }
}

fn ltf_place_copy(
    engine: &mut Engine<'_>,
    cfg: &AlgoConfig,
    ctx: &mut LtfCtx,
    copy: u8,
    s: &mut PlaceScratch,
) -> Result<(), ScheduleError> {
    let t = ctx.task;
    // Fair-share cone budget: with ε+1 lanes on m processors a copy whose
    // crash cone exceeds ⌈m/(ε+1)⌉ processors starves its later siblings
    // of cone-free hosts.
    let cone_budget = engine.p.num_procs().div_ceil(engine.nrep) as u32;
    if !ltf_best_placement(engine, ctx, copy, cone_budget, cfg.use_one_to_one, s) {
        return Err(ScheduleError::Infeasible { task: t, copy });
    }
    ctx.used |= s.best.kill;
    engine.commit(t, copy, &s.best, &s.best_plan);
    Ok(())
}

/// LTF placement for one copy: scan the processors outside the task's
/// used cone in order with a per-edge source plan, probe those whose
/// bound can still beat the incumbent (see the module docs), and keep the
/// placement with the earliest finish time. On success the winner sits in
/// `s.best` / `s.best_plan`.
///
/// The per-edge plan generalizes Algorithm 4.2: an edge uses the
/// cone-disjoint head with the earliest communication finish onto the
/// candidate (lane-aligned copies preferred — wandering lanes inflate the
/// crash cones until no cone-disjoint placement is left, matching the
/// copy-wise pairing of the paper's worked traces) as long as the
/// accumulated cone stays within the fair-share budget; otherwise the edge
/// falls back to receive-from-all, which contributes nothing to the cone
/// (the intersection of the predecessor's disjoint cones is empty) at the
/// price of `ε+1` messages. With `one_to_one` disabled every edge uses
/// receive-from-all (the `(ε+1)²` ablation).
fn ltf_best_placement(
    engine: &Engine<'_>,
    ctx: &LtfCtx,
    copy: u8,
    cone_budget: u32,
    one_to_one: bool,
    s: &mut PlaceScratch,
) -> bool {
    let g = engine.g;
    let t = ctx.task;
    let pred_edges = g.pred_edges(t);
    let mut have_best = false;

    for u in engine.p.procs() {
        if ctx.used >> u.index() & 1 == 1 {
            continue;
        }
        s.plan.clear();
        let mut acc_kill: ProcMask = 1u128 << u.index();
        for &eid in pred_edges.iter() {
            let pred = g.edge(eid).src;
            let mut pick: Option<(bool, f64, u8)> = None;
            if one_to_one {
                for c in 0..engine.nrep as u8 {
                    let k = engine.kill_of(pred, c);
                    if k & ctx.used != 0 {
                        continue;
                    }
                    if (acc_kill | k).count_ones() > cone_budget {
                        continue;
                    }
                    let src = ReplicaId::new(pred, c);
                    let key = (c != copy, engine.arrival_estimate(eid, src, u), c);
                    if pick.is_none_or(|p| key < p) {
                        pick = Some(key);
                    }
                }
            }
            match pick {
                Some((_, _, c)) => {
                    acc_kill |= engine.kill_of(pred, c);
                    s.plan.push_single(eid, c);
                }
                // No affordable single source: receive from every copy
                // (cone contribution: the empty intersection).
                None => s.plan.push_all(eid, engine.nrep),
            }
        }
        // A candidate wins only with a finish below the incumbent's by
        // more than EPS, which its bound can rule out unprobed.
        if have_best && engine.probe_bound(t, u, &s.plan).1 >= s.best.finish - EPS {
            continue;
        }
        if !engine.probe(t, u, &s.plan, &mut s.ws, &mut s.cand) {
            continue;
        }
        debug_assert!(bound_holds(engine.probe_bound(t, u, &s.plan), &s.cand));
        if s.cand.kill & ctx.used != 0 {
            continue;
        }
        if !have_best || s.cand.finish < s.best.finish - EPS {
            std::mem::swap(&mut s.cand, &mut s.best);
            std::mem::swap(&mut s.plan, &mut s.best_plan);
            have_best = true;
        }
    }
    have_best
}

// ---------------------------------------------------------------------------
// R-LTF (reverse direction): task-level modes with downstream closures.
// ---------------------------------------------------------------------------

/// Outcome summary of a task-level placement attempt.
struct AttemptScore {
    max_stage: u32,
    total_finish: f64,
}

/// Decide between the two task-level modes given their scores.
fn pick_one_to_one(
    engine: &Engine<'_>,
    cfg: &AlgoConfig,
    t: TaskId,
    tracker: &ReadyTracker,
    o: &AttemptScore,
    r: &AttemptScore,
) -> bool {
    if cfg.rule1 && o.max_stage != r.max_stage {
        // Rule 1: the mode with the smaller global stage count.
        o.max_stage < r.max_stage
    } else if cfg.rule2 && rule2_condition(engine.g, t, tracker) {
        // Rule 2: linear chain sections spread one-to-one.
        true
    } else {
        // One-to-one also wins finish-time ties: it costs fewer messages.
        o.total_finish <= r.total_finish + EPS
    }
}

/// Incremental R-LTF task placement: both modes run under one engine
/// checkpoint. Receive-from-all goes first, recording its probes; the
/// journal unwinds it and one-to-one runs second, so a one-to-one win —
/// the common case — keeps its committed state in place with nothing to
/// replay, and a receive-from-all win re-applies the records. Both
/// attempts start from bit-identical state and the decision depends only
/// on their scores, so the order flip cannot change the outcome (the
/// differential suite pins this against the snapshot-era reference).
fn rltf_place_task(
    engine: &mut Engine<'_>,
    cfg: &AlgoConfig,
    t: TaskId,
    tracker: &ReadyTracker,
    s: &mut PlaceScratch,
) -> Result<(), ScheduleError> {
    let mark = engine.checkpoint();

    s.rfa_len = 0;
    let rfa_score = rltf_try_receive_from_all(engine, t, cfg.cluster_ties, s);
    // A failed attempt leaves partial placements behind: always restart
    // the one-to-one attempt from the checkpoint.
    engine.rollback_to(mark);
    let oto_score = if cfg.use_one_to_one {
        rltf_try_one_to_one(engine, t, cfg.cluster_ties, s)
    } else {
        None
    };

    let keep_oto = match (&oto_score, &rfa_score) {
        (None, None) => {
            // The engine stays in the (failed, partially mutated)
            // one-to-one state; the caller aborts anyway.
            engine.discard_journal();
            return Err(ScheduleError::Infeasible { task: t, copy: 0 });
        }
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (Some(o), Some(r)) => pick_one_to_one(engine, cfg, t, tracker, o, r),
    };
    if keep_oto {
        // The winner's commits are already in place.
        engine.discard_journal();
    } else {
        engine.rollback_to(mark);
        engine.discard_journal();
        // Replay the recorded receive-from-all decisions: pure
        // bookkeeping, no placement logic re-runs.
        s.plan.fill_receive_from_all(engine.g, t, engine.nrep);
        for k in 0..s.rfa_len {
            let rec = &s.rfa[k];
            engine.commit(t, rec.copy, &rec.probe, &s.plan);
            let rep = engine.dense(t, rec.copy);
            let host = rec.probe.proc.index();
            let mut dset = engine.take_set();
            dset.insert(rep);
            engine.set_down(rep, dset);
            engine.register_upstream_host(rep, host);
        }
    }
    Ok(())
}

/// The paper's Rule 2 condition, evaluated on the scheduling-direction
/// graph: `t` has a single predecessor `t'` (its unique successor in the
/// application graph), and every successor of `t'` (sibling of `t` in the
/// application graph) has `t'` as its only predecessor and is already
/// scheduled or ready.
fn rule2_condition(g: &TaskGraph, t: TaskId, tracker: &ReadyTracker) -> bool {
    if g.in_degree(t) != 1 {
        return false;
    }
    let tp = g.preds(t).next().expect("in-degree 1");
    g.succs(tp)
        .all(|s| g.in_degree(s) == 1 && (tracker.is_done(s) || tracker.is_ready(s)))
}

/// R-LTF's placement key: stage first; then, with clustering, processors
/// already in use; then finish time. In reverse time the finish value
/// carries no latency meaning, and spreading stage-tied replicas across
/// fresh processors would deny every upstream task a co-location target
/// (its consumers would sit on different processors, forcing a new stage
/// per level). The processor comes last, so the smallest key is the
/// lowest-index minimum that a scan in processor order keeps.
type RltfKey = (u32, bool, f64, ProcId);

fn rltf_key(engine: &Engine<'_>, cluster: bool, u: ProcId, stage: u32, finish: f64) -> RltfKey {
    (stage, cluster && !engine.proc_used(u), finish, u)
}

/// Sort R-LTF's candidates by bound key. The bounds are finite and the
/// processors distinct, so the order is total.
fn sort_best_first(order: &mut [RltfKey]) {
    order.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
}

/// Whether a passing probe honours its [`Engine::probe_bound`]: the same
/// stage, and a finish at or after the bound's.
fn bound_holds((stage, finish): (u32, f64), probe: &ProbeBuf) -> bool {
    probe.stage == stage && probe.finish >= finish
}

/// Attempt to place all copies of `t` with one-to-one pairings forming a
/// perfect matching per in-edge. Mutates the engine; on failure the caller
/// rolls back.
fn rltf_try_one_to_one(
    engine: &mut Engine<'_>,
    t: TaskId,
    cluster: bool,
    s: &mut PlaceScratch,
) -> Option<AttemptScore> {
    let g = engine.g;
    let nrep = engine.nrep;
    let pred_edges = g.pred_edges(t);
    let deg = pred_edges.len();
    // Unconsumed head copies per in-edge (perfect matching across copies),
    // flat `in_degree × nrep`.
    s.remaining.clear();
    for _ in 0..deg {
        s.remaining.extend(0..nrep as u8);
    }

    let mut max_stage = 0u32;
    let mut total_finish = 0.0f64;

    for copy in 0..nrep as u8 {
        let rep_dense = ReplicaId::new(t, copy).dense(nrep);

        // Head per candidate and in-edge: smallest (stage contribution,
        // arrival) among unconsumed copies. Each candidate is bounded with
        // its own heads.
        s.order.clear();
        s.head_rows.clear();
        for u in engine.p.procs() {
            s.plan.clear();
            for (i, &eid) in pred_edges.iter().enumerate() {
                let pred = g.edge(eid).src;
                let mut pick: Option<(u32, f64, u8)> = None;
                for &c in &s.remaining[i * nrep..(i + 1) * nrep] {
                    if c == CONSUMED {
                        continue;
                    }
                    let src = ReplicaId::new(pred, c);
                    let key = (
                        engine.stage_contribution(src, u),
                        engine.arrival_estimate(eid, src, u),
                        c,
                    );
                    if pick.is_none_or(|p| key < p) {
                        pick = Some(key);
                    }
                }
                // No heads left for some edge: no copy can pair (the
                // consumption table is processor-independent).
                let (_, _, c) = pick?;
                s.plan.push_single(eid, c);
                s.head_rows.push(c);
            }
            let (stage, finish) = engine.probe_bound(t, u, &s.plan);
            s.order.push(rltf_key(engine, cluster, u, stage, finish));
        }
        sort_best_first(&mut s.order);

        let mut best: Option<RltfKey> = None;
        for &bound in &s.order {
            if best.is_some_and(|b| bound >= b) {
                break;
            }
            let u = bound.3;
            let heads = &s.head_rows[u.index() * deg..][..deg];
            // Downstream closure of the would-be replica, and the validity
            // checks (no two copies of one task downstream; host outside
            // every sibling's upstream hosts).
            s.cand_dset.clear();
            s.cand_dset.insert(rep_dense);
            for (&eid, &c) in pred_edges.iter().zip(heads) {
                let head = ReplicaId::new(g.edge(eid).src, c).dense(nrep);
                s.cand_dset.union_with(&engine.state.down[head]);
            }
            if closure_has_copy_conflict(&s.cand_dset, nrep) {
                continue;
            }
            let forbid = forbidden_hosts(engine, &s.cand_dset, nrep);
            if forbid >> u.index() & 1 == 1 {
                continue;
            }

            s.plan.clear();
            for (&eid, &c) in pred_edges.iter().zip(heads) {
                s.plan.push_single(eid, c);
            }
            if !engine.probe(t, u, &s.plan, &mut s.ws, &mut s.cand) {
                continue;
            }
            debug_assert!(bound_holds((bound.0, bound.2), &s.cand));
            let key = rltf_key(engine, cluster, u, s.cand.stage, s.cand.finish);
            if best.is_none_or(|b| key < b) {
                std::mem::swap(&mut s.cand, &mut s.best);
                std::mem::swap(&mut s.plan, &mut s.best_plan);
                std::mem::swap(&mut s.cand_dset, &mut s.best_dset);
                best = Some(key);
            }
        }

        let best_u = best?.3;
        // Consume the heads (each copy value appears at most once per row).
        let heads = &s.head_rows[best_u.index() * deg..][..deg];
        for (i, &c) in heads.iter().enumerate() {
            for k in 0..nrep {
                if s.remaining[i * nrep + k] == c {
                    s.remaining[i * nrep + k] = CONSUMED;
                    break;
                }
            }
        }
        max_stage = max_stage.max(s.best.stage);
        total_finish += s.best.finish;
        let host = s.best.proc.index();
        engine.commit(t, copy, &s.best, &s.best_plan);
        // Hand the incumbent closure to the engine, backfilling the slot
        // from the recycling pool.
        let dset = std::mem::replace(&mut s.best_dset, engine.take_set());
        engine.set_down(rep_dense, dset);
        engine.register_upstream_host(rep_dense, host);
    }

    Some(AttemptScore {
        max_stage: max_stage.max(engine.state.max_stage),
        total_finish,
    })
}

/// Attempt to place all copies of `t` receive-from-all, recording every
/// committed probe into the scratch's replay slots. Mutates the engine; on
/// failure the caller rolls back.
fn rltf_try_receive_from_all(
    engine: &mut Engine<'_>,
    t: TaskId,
    cluster: bool,
    s: &mut PlaceScratch,
) -> Option<AttemptScore> {
    let nrep = engine.nrep;
    s.plan.fill_receive_from_all(engine.g, t, nrep);
    let mut max_stage = 0u32;
    let mut total_finish = 0.0f64;

    for copy in 0..nrep as u8 {
        let rep_dense = ReplicaId::new(t, copy).dense(nrep);
        // Sibling upstream hosts are forbidden (their crash must not be
        // able to take out this copy as well).
        let forbid = engine.state.allush[t.index()];
        s.order.clear();
        for u in engine.p.procs() {
            if forbid >> u.index() & 1 == 0 {
                let (stage, finish) = engine.probe_bound(t, u, &s.plan);
                s.order.push(rltf_key(engine, cluster, u, stage, finish));
            }
        }
        sort_best_first(&mut s.order);

        let mut best: Option<RltfKey> = None;
        for &bound in &s.order {
            if best.is_some_and(|b| bound >= b) {
                break;
            }
            let u = bound.3;
            if !engine.probe(t, u, &s.plan, &mut s.ws, &mut s.cand) {
                continue;
            }
            debug_assert!(bound_holds((bound.0, bound.2), &s.cand));
            let key = rltf_key(engine, cluster, u, s.cand.stage, s.cand.finish);
            if best.is_none_or(|b| key < b) {
                std::mem::swap(&mut s.cand, &mut s.best);
                best = Some(key);
            }
        }
        best?;
        max_stage = max_stage.max(s.best.stage);
        total_finish += s.best.finish;
        let host = s.best.proc;
        engine.commit(t, copy, &s.best, &s.plan);
        let mut dset = engine.take_set();
        dset.insert(rep_dense);
        engine.set_down(rep_dense, dset);
        engine.register_upstream_host(rep_dense, host.index());

        // Record for replay (slots recycled across tasks).
        if s.rfa_len == s.rfa.len() {
            s.rfa.push(RfaCommit {
                copy,
                probe: ProbeBuf::new(),
            });
        }
        let rec = &mut s.rfa[s.rfa_len];
        rec.copy = copy;
        rec.probe.copy_from(&s.best);
        s.rfa_len += 1;
    }

    Some(AttemptScore {
        max_stage: max_stage.max(engine.state.max_stage),
        total_finish,
    })
}

/// `true` when the closure contains two distinct copies of some task.
fn closure_has_copy_conflict(dset: &ReplicaSet, nrep: usize) -> bool {
    let mut last_task = usize::MAX;
    for idx in dset.iter() {
        let task = idx / nrep;
        if task == last_task {
            return true; // dense indices of one task are contiguous
        }
        last_task = task;
    }
    false
}

/// Hosts that the new replica must avoid: for every replica `(y, j)` in
/// its downstream closure, the upstream hosts already registered for the
/// *sibling* copies of `y`.
fn forbidden_hosts(engine: &Engine<'_>, dset: &ReplicaSet, nrep: usize) -> ProcMask {
    let mut forbid: ProcMask = 0;
    for idx in dset.iter() {
        let task = idx / nrep;
        // Disjointness invariant lets us subtract this copy's own hosts.
        forbid |= engine.state.allush[task] & !engine.state.ushost[idx];
    }
    forbid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_probe::measure;
    use ltf_graph::GraphBuilder;
    use ltf_platform::Platform;

    /// Two entry tasks feeding one join, replicated twice.
    fn join_graph() -> (TaskGraph, [TaskId; 3]) {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        let t = b.add_task(1.0);
        b.add_edge(a, t, 1.0);
        b.add_edge(c, t, 1.0);
        (b.build().unwrap(), [a, c, t])
    }

    /// The steady-state LTF placement sweep — plan building, bounding and
    /// probing the candidates, incumbent promotion — performs zero heap
    /// allocations once the scratch arena is warm: on a matrix platform,
    /// and on a Contended chain, where every message also holds the
    /// channel slots of its route links.
    #[test]
    fn ltf_placement_sweep_allocates_nothing_when_warm() {
        let chain = ltf_platform::Topology::chain(vec![1.0; 4], 1.0)
            .into_contended_platform()
            .unwrap();
        for (label, p) in [
            ("matrix", Platform::homogeneous(4, 1.0, 1.0)),
            ("chain", chain),
        ] {
            let (g, [a, c, t]) = join_graph();
            let cfg = AlgoConfig::new(1, 100.0);
            let mut engine = Engine::new(&g, &p, &cfg);
            let mut s = PlaceScratch::default();
            let budget = p.num_procs().div_ceil(engine.nrep) as u32;

            // Place both copies of both entry tasks through the real path.
            for task in [a, c] {
                let mut ctx = LtfCtx::new(task);
                for copy in 0..engine.nrep as u8 {
                    assert!(ltf_best_placement(
                        &engine, &ctx, copy, budget, true, &mut s
                    ));
                    ctx.used |= s.best.kill;
                    engine.commit(task, copy, &s.best, &s.best_plan);
                }
            }

            // Warm the scratch on the join task, then measure an identical
            // (read-only) sweep. Two warm-up sweeps: the bound can skip the
            // probes that would warm one of the two probe buffers, and an
            // odd number of promotions swaps the buffers' roles between
            // sweeps.
            let ctx = LtfCtx::new(t);
            for _ in 0..2 {
                assert!(ltf_best_placement(&engine, &ctx, 0, budget, true, &mut s));
            }
            let (allocs, found) =
                measure(|| ltf_best_placement(&engine, &ctx, 0, budget, true, &mut s));
            assert!(found);
            assert!(
                s.best.num_planned() > 0,
                "{label}: the join receives no message"
            );
            assert_eq!(
                allocs, 0,
                "{label}: steady-state LTF probe sweep hit the heap"
            );
        }
    }

    /// A full R-LTF run allocates a bounded (small-constant-per-replica)
    /// number of times: committed source lists, event-log growth and arena
    /// warm-up — never per-probe or per-candidate traffic. The snapshot
    /// era cloned the whole engine three times per task (hundreds of
    /// allocations each); this bound is far below one clone.
    #[test]
    fn rltf_run_allocations_bounded() {
        let mut b = GraphBuilder::new();
        let mut prev = b.add_task(1.0);
        for i in 0..40 {
            let t = b.add_task(1.0 + f64::from(i % 3));
            b.add_edge(prev, t, 1.0);
            prev = t;
        }
        let g = b.build().unwrap();
        let rev = g.reversed();
        let mut slots = vec![0u32; g.num_edges()];
        for y in g.tasks() {
            for (i, &e) in g.pred_edges(y).iter().enumerate() {
                slots[e.index()] = i as u32;
            }
        }
        let p = Platform::homogeneous(6, 1.0, 0.1);
        let cfg = AlgoConfig::new(1, 60.0);
        let cache = LevelCache::compute(&rev, &p);
        let mut engine = Engine::new_reversed(&rev, &g, &slots, &p, &cfg);
        let n = engine.num_replicas();

        let (allocs, (res, _)) = measure(|| run(&mut engine, &cfg, Policy::Rltf, &cache));
        res.unwrap();
        assert!(engine.all_placed());
        assert!(
            allocs <= 40 * n + 500,
            "R-LTF run made {allocs} allocations for {n} replicas"
        );
    }
}
