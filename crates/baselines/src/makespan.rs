//! Contention-aware makespan list scheduling (HEFT and ETF), and the
//! list-scheduling state every baseline places through.
//!
//! Both schedulers assign every task exactly once (no replication) to a
//! subset of the platform's processors, minimizing the schedule length of
//! one data set. Communications respect the bi-directional one-port model:
//! a message occupies the sender's send port and the receiver's receive
//! port; port reservations use earliest-gap insertion.
//!
//! The crate-private `MapState` is the one place a baseline reserves
//! processor time and ports, and `lanes_schedule` the one place a
//! baseline's placement becomes a replicated [`Schedule`].

use ltf_core::LevelCache;
use ltf_graph::traversal::ReadyTracker;
use ltf_graph::{EdgeId, TaskGraph, TaskId};
use ltf_platform::{Platform, ProcId};
use ltf_schedule::intervals::earliest_common_fit;
use ltf_schedule::{CommEvent, IntervalSet, ReplicaId, Schedule, ScheduleData, SourceChoice, EPS};

/// One scheduled cross-processor message of a [`MakespanSchedule`]. The
/// endpoint processors are recoverable from the edge's tasks and
/// [`MakespanSchedule::proc_of`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MakespanComm {
    /// The application edge whose data is carried.
    pub edge: EdgeId,
    /// Transfer start time.
    pub start: f64,
    /// Transfer end time (`finish - start = volume · d`).
    pub finish: f64,
}

/// A single-copy (non-replicated) timed mapping of the whole graph.
#[derive(Debug, Clone)]
pub struct MakespanSchedule {
    /// Host of each task.
    pub proc_of: Vec<ProcId>,
    /// Start time of each task.
    pub start: Vec<f64>,
    /// Finish time of each task.
    pub finish: Vec<f64>,
    /// Schedule length (latest finish).
    pub makespan: f64,
    /// All scheduled cross-processor messages (one-port reservations).
    pub comms: Vec<MakespanComm>,
}

impl MakespanSchedule {
    /// Host of `t`.
    pub fn proc(&self, t: TaskId) -> ProcId {
        self.proc_of[t.index()]
    }
}

/// A candidate placement of one task: its execution window and the
/// messages `(edge, sender, start, finish)` it needs reserved.
pub(crate) struct Fit {
    pub(crate) start: f64,
    pub(crate) finish: f64,
    pub(crate) comms: Vec<(EdgeId, ProcId, f64, f64)>,
}

/// The state of a single-copy list schedule: every committed task's host
/// and window, each processor's CPU, send-port and receive-port
/// timelines, and the ready list (entry tasks first; a committed task's
/// successors join it, in `g.succs` order, once all their predecessors
/// are placed).
pub(crate) struct MapState<'a> {
    g: &'a TaskGraph,
    p: &'a Platform,
    pub(crate) ready: Vec<TaskId>,
    tracker: ReadyTracker,
    pub(crate) proc_of: Vec<ProcId>,
    start: Vec<f64>,
    finish: Vec<f64>,
    cpu: Vec<IntervalSet>,
    send: Vec<IntervalSet>,
    recv: Vec<IntervalSet>,
    comms: Vec<MakespanComm>,
}

impl<'a> MapState<'a> {
    pub(crate) fn new(g: &'a TaskGraph, p: &'a Platform) -> Self {
        let (v, m) = (g.num_tasks(), p.num_procs());
        Self {
            g,
            p,
            ready: g.entries().to_vec(),
            tracker: ReadyTracker::new(g),
            proc_of: vec![ProcId(0); v],
            start: vec![0.0; v],
            finish: vec![0.0; v],
            cpu: vec![IntervalSet::new(); m],
            send: vec![IntervalSet::new(); m],
            recv: vec![IntervalSet::new(); m],
            comms: Vec::new(),
        }
    }

    /// Earliest placement of `t` on `u` when its incoming messages are
    /// reserved one after the other in `order` (the in-edges of `t`):
    /// each takes the earliest gap common to its sender's send port and
    /// `u`'s receive port after the producer finishes, and `t` the
    /// earliest CPU gap on `u` after its last input arrives.
    pub(crate) fn fit(&self, t: TaskId, u: ProcId, order: &[EdgeId]) -> Fit {
        let mut ready = 0.0f64;
        let mut recv_scratch: Option<IntervalSet> = None;
        let mut send_scratch: Vec<Option<IntervalSet>> = vec![None; self.p.num_procs()];
        let mut comms = Vec::new();
        for &eid in order {
            let e = self.g.edge(eid);
            debug_assert!(self.tracker.is_done(e.src));
            let h = self.proc_of[e.src.index()];
            let dur = if h == u {
                0.0
            } else {
                self.p.comm_time(e.volume, h, u)
            };
            if dur <= EPS {
                ready = ready.max(self.finish[e.src.index()]);
                continue;
            }
            let hs = send_scratch[h.index()].get_or_insert_with(|| self.send[h.index()].clone());
            let rs = recv_scratch.get_or_insert_with(|| self.recv[u.index()].clone());
            let st = earliest_common_fit(hs, rs, self.finish[e.src.index()], dur);
            hs.insert(st, st + dur);
            rs.insert(st, st + dur);
            comms.push((eid, h, st, st + dur));
            ready = ready.max(st + dur);
        }
        let exec = self.p.exec_time(self.g.exec(t), u);
        let start = self.cpu[u.index()].next_fit(ready, exec);
        Fit {
            start,
            finish: start + exec,
            comms,
        }
    }

    /// HEFT/ETF's earliest finish time: [`MapState::fit`] with the
    /// messages reserved by producer finish time (ties by edge id).
    fn eft(&self, t: TaskId, u: ProcId) -> Fit {
        let mut preds = self.g.pred_edges(t).to_vec();
        preds.sort_by(|a, b| {
            let fa = self.finish[self.g.edge(*a).src.index()];
            let fb = self.finish[self.g.edge(*b).src.index()];
            fa.partial_cmp(&fb).unwrap().then(a.cmp(b))
        });
        self.fit(t, u, &preds)
    }

    /// Place `t` on `u` as `fit` planned, and release the successors
    /// this makes ready.
    pub(crate) fn commit(&mut self, t: TaskId, u: ProcId, fit: Fit) {
        self.proc_of[t.index()] = u;
        self.start[t.index()] = fit.start;
        self.finish[t.index()] = fit.finish;
        self.cpu[u.index()].insert(fit.start, fit.finish);
        for (edge, h, start, finish) in fit.comms {
            self.send[h.index()].insert(start, finish);
            self.recv[u.index()].insert(start, finish);
            self.comms.push(MakespanComm {
                edge,
                start,
                finish,
            });
        }
        self.ready.extend(self.tracker.complete(self.g, t));
    }

    pub(crate) fn into_schedule(self) -> MakespanSchedule {
        let makespan = self.finish.iter().copied().fold(0.0, f64::max);
        MakespanSchedule {
            proc_of: self.proc_of,
            start: self.start,
            finish: self.finish,
            makespan,
            comms: self.comms,
        }
    }
}

/// Remove and return the ready task with the highest `key` (the first
/// one in ready-list order on ties).
pub(crate) fn take_highest(ready: &mut Vec<TaskId>, key: &[f64]) -> TaskId {
    let mut best = 0usize;
    for i in 1..ready.len() {
        if key[ready[i].index()] > key[ready[best].index()] {
            best = i;
        }
    }
    ready.swap_remove(best)
}

/// The whole graph run sequentially, in topological order, on `u`.
pub(crate) fn sequential(g: &TaskGraph, p: &Platform, u: ProcId) -> MakespanSchedule {
    let v = g.num_tasks();
    let (mut start, mut finish) = (vec![0.0f64; v], vec![0.0f64; v]);
    let mut clock = 0.0f64;
    for &t in g.topo_order() {
        let exec = p.exec_time(g.exec(t), u);
        start[t.index()] = clock;
        finish[t.index()] = clock + exec;
        clock += exec;
    }
    MakespanSchedule {
        proc_of: vec![u; v],
        start,
        finish,
        makespan: clock,
        comms: Vec::new(),
    }
}

/// Combine per-lane makespan schedules (disjoint processor sets, lane `k`
/// hosting copy `k` of every task) into one replicated schedule. A single
/// lane is the ε = 0 projection of one makespan schedule.
pub(crate) fn lanes_schedule(
    g: &TaskGraph,
    p: &Platform,
    lane_schedules: &[MakespanSchedule],
    period: f64,
) -> Schedule {
    let nrep = lane_schedules.len();
    let epsilon = (nrep - 1) as u8;
    let n = g.num_tasks() * nrep;
    let mut proc_of = vec![ProcId(0); n];
    let mut start = vec![0.0f64; n];
    let mut finish = vec![0.0f64; n];
    let mut sources: Vec<Vec<SourceChoice>> = vec![Vec::new(); n];
    let mut comm_events = Vec::new();
    for (k, ls) in lane_schedules.iter().enumerate() {
        for t in g.tasks() {
            let r = ReplicaId::new(t, k as u8).dense(nrep);
            proc_of[r] = ls.proc_of[t.index()];
            start[r] = ls.start[t.index()];
            finish[r] = ls.finish[t.index()];
            sources[r] = g
                .pred_edges(t)
                .iter()
                .map(|&e| SourceChoice::one(e, k as u8))
                .collect();
        }
        for c in &ls.comms {
            let e = g.edge(c.edge);
            comm_events.push(CommEvent {
                edge: c.edge,
                src: ReplicaId::new(e.src, k as u8),
                dst: ReplicaId::new(e.dst, k as u8),
                src_proc: ls.proc_of[e.src.index()],
                dst_proc: ls.proc_of[e.dst.index()],
                start: c.start,
                finish: c.finish,
            });
        }
    }
    Schedule::new(
        g,
        p,
        ScheduleData {
            epsilon,
            period,
            proc_of,
            start,
            finish,
            sources,
            comm_events,
        },
    )
}

/// HEFT: tasks ordered by decreasing upward rank (platform-averaged bottom
/// level), each mapped to the processor (within `procs`) with the earliest
/// insertion-based finish time.
pub fn heft(g: &TaskGraph, p: &Platform, procs: &[ProcId]) -> MakespanSchedule {
    assert!(!procs.is_empty());
    let rank = LevelCache::compute(g, p).bottom;
    // Priority scheduling loop: always map the ready task with the highest
    // upward rank (equivalent to HEFT's rank-sorted order, but robust to
    // zero-weight rank ties that could break topological feasibility).
    let mut st = MapState::new(g, p);
    while !st.ready.is_empty() {
        let t = take_highest(&mut st.ready, &rank);
        let (u, fit) = procs
            .iter()
            .map(|&u| (u, st.eft(t, u)))
            .reduce(|best, c| if c.1.finish < best.1.finish { c } else { best })
            .expect("non-empty processor set");
        st.commit(t, u, fit);
    }
    st.into_schedule()
}

/// ETF (Hwang et al.): among all (ready task, processor) pairs, schedule
/// the one with the earliest start time, breaking ties by higher upward
/// rank.
pub fn etf(g: &TaskGraph, p: &Platform, procs: &[ProcId]) -> MakespanSchedule {
    assert!(!procs.is_empty());
    let rank = LevelCache::compute(g, p).bottom;
    let mut st = MapState::new(g, p);
    while !st.ready.is_empty() {
        let mut chosen: Option<(usize, ProcId, Fit)> = None;
        for (i, &t) in st.ready.iter().enumerate() {
            for &u in procs {
                let fit = st.eft(t, u);
                let better = match &chosen {
                    None => true,
                    Some((bi, _, b)) => {
                        fit.start < b.start - EPS
                            || ((fit.start - b.start).abs() <= EPS
                                && rank[t.index()] > rank[st.ready[*bi].index()])
                    }
                };
                if better {
                    chosen = Some((i, u, fit));
                }
            }
        }
        let (i, u, fit) = chosen.expect("non-empty ready set");
        let t = st.ready.swap_remove(i);
        st.commit(t, u, fit);
    }
    st.into_schedule()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltf_graph::generate::fig1_diamond;

    fn all_procs(p: &Platform) -> Vec<ProcId> {
        p.procs().collect()
    }

    #[test]
    fn heft_chain_on_fastest_proc() {
        let g = ltf_graph::generate::pipeline(4, 10.0, 1.0);
        let p = Platform::fig1_platform();
        let s = heft(&g, &p, &all_procs(&p));
        // Chain stays on a fast processor: 4 × 10/1.5.
        assert!((s.makespan - 4.0 * 10.0 / 1.5).abs() < 1e-9);
        let u = s.proc(TaskId(0));
        assert!(g.tasks().all(|t| s.proc(t) == u));
    }

    #[test]
    fn heft_fig1_lane_reproduces_paper_value() {
        // Fig. 1(b): on the lane {P1 (s=1.5), P2 (s=1)} the list schedule
        // of the diamond finishes at 39.
        let g = fig1_diamond();
        let p = Platform::fig1_platform();
        let s = heft(&g, &p, &[ProcId(0), ProcId(1)]);
        assert!((s.makespan - 39.0).abs() < 1e-9, "makespan {}", s.makespan);
    }

    #[test]
    fn heft_respects_precedence() {
        let g = fig1_diamond();
        let p = Platform::fig1_platform();
        let s = heft(&g, &p, &all_procs(&p));
        for eid in g.edge_ids() {
            let e = g.edge(eid);
            let gap = if s.proc(e.src) == s.proc(e.dst) {
                0.0
            } else {
                p.comm_time(e.volume, s.proc(e.src), s.proc(e.dst))
            };
            assert!(
                s.start[e.dst.index()] + 1e-9 >= s.finish[e.src.index()] + gap,
                "edge {} -> {} violated",
                e.src,
                e.dst
            );
        }
    }

    #[test]
    fn etf_terminates_and_orders() {
        let g = fig1_diamond();
        let p = Platform::fig1_platform();
        let s = etf(&g, &p, &all_procs(&p));
        assert!(s.makespan > 0.0);
        // ETF is usually no better than HEFT on this graph but must be a
        // valid schedule.
        for eid in g.edge_ids() {
            let e = g.edge(eid);
            assert!(
                s.finish[e.src.index()] <= s.start[e.dst.index()] + 1e-9
                    || s.proc(e.src) != s.proc(e.dst)
            );
        }
    }

    #[test]
    fn single_proc_subset_serializes() {
        let g = fig1_diamond();
        let p = Platform::fig1_platform();
        let s = heft(&g, &p, &[ProcId(1)]);
        // All on P2 (speed 1): 4 × 15.
        assert!((s.makespan - 60.0).abs() < 1e-9);
    }
}
