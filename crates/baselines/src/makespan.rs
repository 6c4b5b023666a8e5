//! Contention-aware makespan list scheduling (HEFT and ETF).
//!
//! Both schedulers assign every task exactly once (no replication) to a
//! subset of the platform's processors, minimizing the schedule length of
//! one data set. Communications respect the bi-directional one-port model:
//! a message occupies the sender's send port and the receiver's receive
//! port; port reservations use earliest-gap insertion.

use ltf_core::LevelCache;
use ltf_graph::{EdgeId, TaskGraph, TaskId};
use ltf_platform::{Platform, ProcId};
use ltf_schedule::intervals::earliest_common_fit;
use ltf_schedule::IntervalSet;

/// Port reservations `(edge, source proc, start, end)` required by a
/// placement.
type PlannedComms = Vec<(EdgeId, ProcId, f64, f64)>;

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

struct MapState<'a> {
    g: &'a TaskGraph,
    p: &'a Platform,
    procs: Vec<ProcId>,
    proc_of: Vec<ProcId>,
    start: Vec<f64>,
    finish: Vec<f64>,
    placed: Vec<bool>,
    cpu: Vec<IntervalSet>,
    send: Vec<IntervalSet>,
    recv: Vec<IntervalSet>,
    comms: Vec<MakespanComm>,
}

impl<'a> MapState<'a> {
    fn new(g: &'a TaskGraph, p: &'a Platform, procs: &[ProcId]) -> Self {
        let m = p.num_procs();
        Self {
            g,
            p,
            procs: procs.to_vec(),
            proc_of: vec![ProcId(0); g.num_tasks()],
            start: vec![0.0; g.num_tasks()],
            finish: vec![0.0; g.num_tasks()],
            placed: vec![false; g.num_tasks()],
            cpu: vec![IntervalSet::new(); m],
            send: vec![IntervalSet::new(); m],
            recv: vec![IntervalSet::new(); m],
            comms: Vec::new(),
        }
    }

    /// Earliest start/finish of `t` on `u`, with the port reservations the
    /// placement would need. Returns `(start, finish, comms)`.
    fn eft(&self, t: TaskId, u: ProcId) -> (f64, f64, PlannedComms) {
        let mut ready = 0.0f64;
        let mut recv_scratch: Option<IntervalSet> = None;
        let mut send_scratch: Vec<Option<IntervalSet>> = vec![None; self.p.num_procs()];
        let mut comms = Vec::new();
        // Deterministic order: by producer finish time.
        let mut preds: Vec<_> = self.g.pred_edges(t).to_vec();
        preds.sort_by(|a, b| {
            let fa = self.finish[self.g.edge(*a).src.index()];
            let fb = self.finish[self.g.edge(*b).src.index()];
            fa.partial_cmp(&fb).unwrap().then(a.cmp(b))
        });
        for eid in preds {
            let e = self.g.edge(eid);
            debug_assert!(self.placed[e.src.index()]);
            let h = self.proc_of[e.src.index()];
            if h == u {
                ready = ready.max(self.finish[e.src.index()]);
                continue;
            }
            let dur = self.p.comm_time(e.volume, h, u);
            if dur <= ltf_schedule::EPS {
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
        (start, start + exec, comms)
    }

    fn commit(
        &mut self,
        t: TaskId,
        u: ProcId,
        start: f64,
        finish: f64,
        comms: &[(EdgeId, ProcId, f64, f64)],
    ) {
        self.placed[t.index()] = true;
        self.proc_of[t.index()] = u;
        self.start[t.index()] = start;
        self.finish[t.index()] = finish;
        self.cpu[u.index()].insert(start, finish);
        for &(edge, h, s, f) in comms {
            self.send[h.index()].insert(s, f);
            self.recv[u.index()].insert(s, f);
            self.comms.push(MakespanComm {
                edge,
                start: s,
                finish: f,
            });
        }
    }

    fn into_schedule(self) -> MakespanSchedule {
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

/// HEFT: tasks ordered by decreasing upward rank (platform-averaged bottom
/// level), each mapped to the processor (within `procs`) with the earliest
/// insertion-based finish time.
pub fn heft(g: &TaskGraph, p: &Platform, procs: &[ProcId]) -> MakespanSchedule {
    assert!(!procs.is_empty());
    let rank = LevelCache::compute(g, p).bottom;
    // Priority scheduling loop: always map the ready task with the highest
    // upward rank (equivalent to HEFT's rank-sorted order, but robust to
    // zero-weight rank ties that could break topological feasibility).
    let mut st = MapState::new(g, p, procs);
    let mut indeg: Vec<usize> = g.tasks().map(|t| g.in_degree(t)).collect();
    let mut ready: Vec<TaskId> = g.entries().to_vec();
    while !ready.is_empty() {
        // Highest rank first.
        let mut best = 0usize;
        for i in 1..ready.len() {
            if rank[ready[i].index()] > rank[ready[best].index()] {
                best = i;
            }
        }
        let t = ready.swap_remove(best);
        let mut chosen: Option<(ProcId, f64, f64, PlannedComms)> = None;
        for &u in &st.procs {
            let (s, f, comms) = st.eft(t, u);
            if chosen.as_ref().is_none_or(|c| f < c.2) {
                chosen = Some((u, s, f, comms));
            }
        }
        let (u, s, f, comms) = chosen.expect("non-empty processor set");
        st.commit(t, u, s, f, &comms);
        for succ in g.succs(t) {
            indeg[succ.index()] -= 1;
            if indeg[succ.index()] == 0 {
                ready.push(succ);
            }
        }
    }
    st.into_schedule()
}

/// ETF (Hwang et al.): among all (ready task, processor) pairs, schedule
/// the one with the earliest start time, breaking ties by higher upward
/// rank.
pub fn etf(g: &TaskGraph, p: &Platform, procs: &[ProcId]) -> MakespanSchedule {
    assert!(!procs.is_empty());
    let rank = LevelCache::compute(g, p).bottom;

    let mut st = MapState::new(g, p, procs);
    let mut indeg: Vec<usize> = g.tasks().map(|t| g.in_degree(t)).collect();
    let mut ready: Vec<TaskId> = g.entries().to_vec();
    while !ready.is_empty() {
        let mut chosen: Option<(usize, ProcId, f64, f64, PlannedComms)> = None;
        for (i, &t) in ready.iter().enumerate() {
            for &u in &st.procs {
                let (s, f, comms) = st.eft(t, u);
                let better = match &chosen {
                    None => true,
                    Some((bi, _, bs, _, _)) => {
                        s < *bs - ltf_schedule::EPS
                            || ((s - *bs).abs() <= ltf_schedule::EPS
                                && rank[t.index()] > rank[ready[*bi].index()])
                    }
                };
                if better {
                    chosen = Some((i, u, s, f, comms));
                }
            }
        }
        let (i, u, s, f, comms) = chosen.expect("non-empty ready set");
        let t = ready.swap_remove(i);
        st.commit(t, u, s, f, &comms);
        for succ in g.succs(t) {
            indeg[succ.index()] -= 1;
            if indeg[succ.index()] == 0 {
                ready.push(succ);
            }
        }
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
