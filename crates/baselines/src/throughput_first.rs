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
//!
//! Placement reserves processor time and ports through the list-scheduling
//! state HEFT and ETF use ([`crate::makespan`]); only the candidate order
//! and the condition (1) ledger (`σ`, `C^I`, `C^O`) are this strategy's.

use crate::makespan::{lanes_schedule, take_highest, MapState};
use ltf_core::LevelCache;
use ltf_graph::{TaskGraph, TaskId};
use ltf_platform::{Platform, ProcId};
use ltf_schedule::{Schedule, EPS};

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
    let prio = LevelCache::compute(g, p).base_prio;
    let mut st = MapState::new(g, p);
    // Condition (1) ledger: compute load σ, input load C^I and output
    // load C^O of every processor.
    let (mut sigma, mut cin, mut cout) = (vec![0.0f64; m], vec![0.0f64; m], vec![0.0f64; m]);
    while !st.ready.is_empty() {
        let t = take_highest(&mut st.ready, &prio);
        // Candidate order: predecessor hosts first (cheapest), then all
        // processors by ascending compute load.
        let mut cands: Vec<ProcId> = g.preds(t).map(|pr| st.proc_of[pr.index()]).collect();
        let mut rest: Vec<ProcId> = p.procs().collect();
        rest.sort_by(|a, b| sigma[a.index()].partial_cmp(&sigma[b.index()]).unwrap());
        cands.extend(rest);

        let placement = cands.into_iter().find_map(|u| {
            let exec = p.exec_time(g.exec(t), u);
            if sigma[u.index()] + exec > period + EPS {
                return None;
            }
            let fit = st.fit(t, u, g.pred_edges(t));
            // Each message's duration, summed in message order.
            let mut cin_add = 0.0;
            let mut cout_add = vec![0.0f64; m];
            for &(eid, h, ..) in &fit.comms {
                let dur = p.comm_time(g.edge(eid).volume, h, u);
                cin_add += dur;
                cout_add[h.index()] += dur;
            }
            let over = |load: f64, add: f64| load + add > period + EPS;
            let senders_over = fit
                .comms
                .iter()
                .any(|&(_, h, ..)| over(cout[h.index()], cout_add[h.index()]));
            if senders_over || over(cin[u.index()], cin_add) {
                return None;
            }
            Some((u, exec, cin_add, fit))
        });
        let Some((u, exec, cin_add, fit)) = placement else {
            return Err(Infeasible { task: t });
        };
        sigma[u.index()] += exec;
        cin[u.index()] += cin_add;
        for &(eid, h, ..) in &fit.comms {
            cout[h.index()] += p.comm_time(g.edge(eid).volume, h, u);
        }
        st.commit(t, u, fit);
    }
    Ok(lanes_schedule(g, p, &[st.into_schedule()], period))
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
