//! Greedy throughput-first stage partitioning (related-work comparator).
//!
//! In the spirit of the §3 heuristics (Hary–Özgüner's pre-clustering, TDA's
//! top-down stage partitioning): walk the graph in topological priority
//! order and place each task, without replication, on a processor that
//! keeps every per-period load within `Δ` — preferring a processor that
//! already hosts one of its predecessors (saving the communication), then
//! the least-loaded feasible one. No attempt is made to bound the pipeline
//! stage count, which is exactly the deficiency R-LTF addresses; the
//! emitted [`Schedule`] makes the comparison measurable.

use ltf_core::LevelCache;
use ltf_graph::{TaskGraph, TaskId};
use ltf_platform::{Platform, ProcId};
use ltf_schedule::intervals::earliest_common_fit;
use ltf_schedule::{CommEvent, IntervalSet, ReplicaId, Schedule, ScheduleData, SourceChoice, EPS};

/// Error: some task cannot be placed without violating the period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Infeasible {
    /// The task that could not be placed.
    pub task: TaskId,
}

impl std::fmt::Display for Infeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "throughput-first baseline cannot place {}", self.task)
    }
}

impl std::error::Error for Infeasible {}

/// Map the graph without replication under period `period`.
pub fn throughput_first(g: &TaskGraph, p: &Platform, period: f64) -> Result<Schedule, Infeasible> {
    assert!(period.is_finite() && period > 0.0);
    let m = p.num_procs();
    let v = g.num_tasks();

    let prio = LevelCache::compute(g, p).base_prio;

    let mut proc_of = vec![ProcId(0); v];
    let mut start = vec![0.0f64; v];
    let mut finish = vec![0.0f64; v];
    let mut placed = vec![false; v];
    let mut sigma = vec![0.0f64; m];
    let mut cin = vec![0.0f64; m];
    let mut cout = vec![0.0f64; m];
    let mut cpu = vec![IntervalSet::new(); m];
    let mut send = vec![IntervalSet::new(); m];
    let mut recv = vec![IntervalSet::new(); m];
    let mut comm_events = Vec::new();

    let mut indeg: Vec<usize> = g.tasks().map(|t| g.in_degree(t)).collect();
    let mut ready: Vec<TaskId> = g.entries().to_vec();

    while !ready.is_empty() {
        // Highest priority ready task.
        let mut best = 0usize;
        for i in 1..ready.len() {
            if prio[ready[i].index()] > prio[ready[best].index()] {
                best = i;
            }
        }
        let t = ready.swap_remove(best);

        // Candidate order: predecessor hosts first (cheapest), then all
        // processors by ascending compute load.
        let mut cands: Vec<ProcId> = g.preds(t).map(|pr| proc_of[pr.index()]).collect();
        let mut rest: Vec<ProcId> = p.procs().collect();
        rest.sort_by(|a, b| sigma[a.index()].partial_cmp(&sigma[b.index()]).unwrap());
        cands.extend(rest);

        let mut done = false;
        for u in cands {
            if placed[t.index()] {
                break;
            }
            let exec_t = p.exec_time(g.exec(t), u);
            if sigma[u.index()] + exec_t > period + EPS {
                continue;
            }
            // Tentative port reservations for the incoming messages.
            let mut recv_scratch = recv[u.index()].clone();
            let mut send_scratch: Vec<Option<IntervalSet>> = vec![None; m];
            let mut planned = Vec::new();
            let mut cin_add = 0.0;
            let mut cout_add = vec![0.0f64; m];
            let mut ready_at = 0.0f64;
            let mut ok = true;
            for &eid in g.pred_edges(t) {
                let e = g.edge(eid);
                let h = proc_of[e.src.index()];
                if h == u {
                    ready_at = ready_at.max(finish[e.src.index()]);
                    continue;
                }
                let dur = p.comm_time(e.volume, h, u);
                if dur <= EPS {
                    ready_at = ready_at.max(finish[e.src.index()]);
                    continue;
                }
                let hs = send_scratch[h.index()].get_or_insert_with(|| send[h.index()].clone());
                let st = earliest_common_fit(hs, &recv_scratch, finish[e.src.index()], dur);
                hs.insert(st, st + dur);
                recv_scratch.insert(st, st + dur);
                cin_add += dur;
                cout_add[h.index()] += dur;
                if cout[h.index()] + cout_add[h.index()] > period + EPS {
                    ok = false;
                    break;
                }
                planned.push((eid, e.src, h, st, dur));
                ready_at = ready_at.max(st + dur);
            }
            if !ok || cin[u.index()] + cin_add > period + EPS {
                continue;
            }
            let s = cpu[u.index()].next_fit(ready_at, exec_t);
            // Commit.
            placed[t.index()] = true;
            proc_of[t.index()] = u;
            start[t.index()] = s;
            finish[t.index()] = s + exec_t;
            sigma[u.index()] += exec_t;
            cpu[u.index()].insert(s, s + exec_t);
            cin[u.index()] += cin_add;
            for (eid, src, h, st, dur) in planned {
                send[h.index()].insert(st, st + dur);
                recv[u.index()].insert(st, st + dur);
                cout[h.index()] += dur;
                comm_events.push(CommEvent {
                    edge: eid,
                    src: ReplicaId::new(src, 0),
                    dst: ReplicaId::new(t, 0),
                    src_proc: h,
                    dst_proc: u,
                    start: st,
                    finish: st + dur,
                });
            }
            done = true;
        }
        if !done {
            return Err(Infeasible { task: t });
        }
        for s in g.succs(t) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.push(s);
            }
        }
    }

    let sources: Vec<Vec<SourceChoice>> = g
        .tasks()
        .map(|t| {
            g.pred_edges(t)
                .iter()
                .map(|&e| SourceChoice::one(e, 0))
                .collect()
        })
        .collect();
    Ok(Schedule::new(
        g,
        p,
        ScheduleData {
            epsilon: 0,
            period,
            proc_of,
            start,
            finish,
            sources,
            comm_events,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltf_graph::generate::{fig1_diamond, pipeline};
    use ltf_schedule::validate;

    #[test]
    fn produces_valid_schedule() {
        let g = fig1_diamond();
        let p = Platform::fig1_platform();
        let s = throughput_first(&g, &p, 30.0).expect("feasible");
        validate(&g, &p, &s).expect("valid");
        assert!(s.achieved_throughput() + 1e-12 >= 1.0 / 30.0);
    }

    #[test]
    fn colocates_when_period_allows() {
        // Period large enough for the whole chain on one processor.
        let g = pipeline(4, 5.0, 1.0);
        let p = Platform::homogeneous(3, 1.0, 1.0);
        let s = throughput_first(&g, &p, 100.0).expect("feasible");
        assert_eq!(s.num_stages(), 1);
        assert_eq!(s.comm_count(), 0);
    }

    #[test]
    fn splits_into_stages_when_tight() {
        let g = pipeline(4, 5.0, 1.0);
        let p = Platform::homogeneous(4, 1.0, 1.0);
        // Period 5: one task per processor.
        let s = throughput_first(&g, &p, 5.0).expect("feasible");
        validate(&g, &p, &s).expect("valid");
        assert_eq!(s.num_stages(), 4);
        assert_eq!(s.procs_used(), 4);
    }

    #[test]
    fn infeasible_reported() {
        let g = pipeline(4, 10.0, 1.0);
        let p = Platform::homogeneous(2, 1.0, 1.0);
        // Period 12 fits one task per proc (10), but 4 tasks on 2 procs
        // need 20 per proc: infeasible.
        assert!(throughput_first(&g, &p, 12.0).is_err());
    }
}
