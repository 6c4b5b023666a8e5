//! Stage-synchronous execution discipline (the latency formula's model).

use crate::fault::{RecoveryPolicy, TraceConfig};
use crate::report::SimReport;
use ltf_graph::TaskGraph;
use ltf_schedule::stages::latency_for_stages;
use ltf_schedule::{ReplicaId, Schedule, SourceChoice};

/// Execute the schedule under the stage-synchronous discipline while a
/// [`crate::CrashTrace`] kills processors at their own times.
///
/// A stage-`s` replica computes item `k` in window `k + 2(s−1)` (each
/// window lasting `Δ`, so it ends at `(k + 2s − 1)·Δ`) and ships it in
/// window `k + 2s − 1` (ending at `(k + 2s)·Δ`); the schedule's throughput
/// constraints (`Σ_u, C^I_u, C^O_u ≤ Δ`, which the validator checks) give
/// every window the capacity. A replica therefore produces item `k` only
/// if its host survives through its compute window, and a *remote* source
/// is usable only if it also survives through its ship window — work
/// completing exactly at the crash instant still counts. Stages are
/// re-derived per item along the topological order, so the effective
/// stage (and hence the latency `(2S−1)·Δ`) degrades item by item as the
/// trace unfolds.
///
/// Under [`RecoveryPolicy::Reroute`], an in-edge whose scheduled sources
/// are all unusable for an item falls back to the best usable replica of
/// the predecessor task (the online re-route, expressed in window terms);
/// under [`RecoveryPolicy::FailStop`] the consumer starves.
///
/// A fixed crash set is the trace [`crate::CrashTrace::from_crash_set`]
/// failing at time 0 under fail-stop. Every item then sees the same
/// effective stage count, so every item's latency is
/// [`ltf_schedule::failures::effective_latency`], `(2·S_eff − 1)·Δ`, and
/// item `k` completes at `k·Δ + L`; an all-`+∞` trace gives the
/// failure-free latency the same way.
pub fn synchronous(g: &TaskGraph, sched: &Schedule, cfg: &TraceConfig) -> SimReport {
    let nrep = sched.replicas_per_task();
    let n_rep = g.num_tasks() * nrep;
    let period = sched.period();
    let trace = &cfg.trace;
    let proc_of: Vec<usize> = sched.replicas().map(|r| sched.proc(r).index()).collect();
    let sources: Vec<Vec<SourceChoice>> = sched
        .replicas()
        .map(|r| sched.sources(r).to_vec())
        .collect();

    let mut alive = vec![false; n_rep];
    let mut stage = vec![0u32; n_rep];
    let mut item_latency = Vec::with_capacity(cfg.items);
    let mut item_completion = Vec::with_capacity(cfg.items);
    let mut makespan = 0.0f64;

    for k in 0..cfg.items {
        // Best usable source stage for one in-edge, over the given copies:
        // a source must have produced the item, and a remote source must
        // survive its ship window.
        let usable = |alive: &[bool],
                      stage: &[u32],
                      pred: ltf_graph::TaskId,
                      copies: &mut dyn Iterator<Item = u8>,
                      my_proc: usize|
         -> Option<u32> {
            let mut best: Option<u32> = None;
            for c in copies {
                let src = ReplicaId::new(pred, c).dense(nrep);
                if !alive[src] {
                    continue;
                }
                let eta = u32::from(proc_of[src] != my_proc);
                if eta == 1 {
                    let ship_end = (k as f64 + 2.0 * stage[src] as f64) * period;
                    if trace.crashed(proc_of[src], ship_end) {
                        continue;
                    }
                }
                let cand = stage[src] + eta;
                best = Some(best.map_or(cand, |b: u32| b.min(cand)));
            }
            best
        };

        for &t in g.topo_order() {
            for c in 0..nrep {
                let r = ReplicaId::new(t, c as u8).dense(nrep);
                let u = proc_of[r];
                let mut ok = true;
                let mut s = 1u32;
                for choice in &sources[r] {
                    let pred = g.edge(choice.edge).src;
                    let mut best =
                        usable(&alive, &stage, pred, &mut choice.sources.iter().copied(), u);
                    if best.is_none() && cfg.policy == RecoveryPolicy::Reroute {
                        // Online recovery: fall back to any usable replica
                        // of the predecessor task.
                        best = usable(&alive, &stage, pred, &mut (0..nrep as u8), u);
                    }
                    match best {
                        Some(b) => s = s.max(b),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    alive[r] = false;
                    continue;
                }
                // The host must survive through the compute window of the
                // stage this item runs at.
                let compute_end = (k as f64 + 2.0 * s as f64 - 1.0) * period;
                alive[r] = !trace.crashed(u, compute_end);
                stage[r] = s;
            }
        }

        // Effective stage of item k: fastest usable replica per exit task,
        // slowest over exit tasks (every stream output must be produced).
        let mut total: Option<u32> = Some(1);
        for &t in g.exits() {
            let best = (0..nrep)
                .filter_map(|c| {
                    let r = ReplicaId::new(t, c as u8).dense(nrep);
                    alive[r].then_some(stage[r])
                })
                .min();
            total = match (total, best) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
        }
        match total {
            Some(s) => {
                let l = latency_for_stages(s, period);
                let done = k as f64 * period + l;
                item_latency.push(Some(l));
                item_completion.push(Some(done));
                makespan = makespan.max(done);
            }
            None => {
                item_latency.push(None);
                item_completion.push(None);
            }
        }
    }

    SimReport {
        item_latency,
        item_completion,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{fixed, CrashTrace};
    use ltf_platform::{Platform, ProcId};
    use ltf_schedule::{CommEvent, ScheduleData};

    /// ε=1 chain t0 -> t1 on 4 procs, one-to-one lanes; stage 2 on both
    /// lanes.
    fn sample() -> (TaskGraph, Schedule) {
        let mut b = ltf_graph::GraphBuilder::new();
        let t0 = b.add_task(4.0);
        let t1 = b.add_task(2.0);
        let e = b.add_edge(t0, t1, 3.0);
        let g = b.build().unwrap();
        let p = Platform::homogeneous(4, 1.0, 1.0);
        let r00 = ReplicaId::new(t0, 0);
        let r01 = ReplicaId::new(t0, 1);
        let r10 = ReplicaId::new(t1, 0);
        let r11 = ReplicaId::new(t1, 1);
        let data = ScheduleData {
            epsilon: 1,
            period: 10.0,
            proc_of: vec![ProcId(0), ProcId(1), ProcId(2), ProcId(3)],
            start: vec![0.0, 0.0, 7.0, 7.0],
            finish: vec![4.0, 4.0, 9.0, 9.0],
            sources: vec![
                vec![],
                vec![],
                vec![SourceChoice::one(e, 0)],
                vec![SourceChoice::one(e, 1)],
            ],
            comm_events: vec![
                CommEvent {
                    edge: e,
                    src: r00,
                    dst: r10,
                    src_proc: ProcId(0),
                    dst_proc: ProcId(2),
                    start: 4.0,
                    finish: 7.0,
                },
                CommEvent {
                    edge: e,
                    src: r01,
                    dst: r11,
                    src_proc: ProcId(1),
                    dst_proc: ProcId(3),
                    start: 4.0,
                    finish: 7.0,
                },
            ],
        };
        let s = Schedule::new(&g, &p, data);
        (g, s)
    }

    #[test]
    fn no_crash_matches_formula() {
        let (g, s) = sample();
        let rep = synchronous(&g, &s, &fixed(5, &[], 0.0));
        assert_eq!(rep.produced(), 5);
        // S = 2, Δ = 10 -> L = 30 for every item.
        for l in &rep.item_latency {
            assert_eq!(*l, Some(30.0));
        }
        // Items complete Δ apart.
        assert_eq!(rep.achieved_period(), Some(10.0));
        assert_eq!(rep.makespan, 4.0 * 10.0 + 30.0);
    }

    #[test]
    fn single_crash_keeps_all_items() {
        let (g, s) = sample();
        let rep = synchronous(&g, &s, &fixed(5, &[0], 0.0));
        assert_eq!(rep.produced(), 5);
        assert_eq!(rep.item_latency[0], Some(30.0)); // surviving lane has S=2
    }

    #[test]
    fn double_crash_loses_everything() {
        let (g, s) = sample();
        // Kill both exit hosts.
        let rep = synchronous(&g, &s, &fixed(3, &[2, 3], 0.0));
        assert_eq!(rep.produced(), 0);
        assert_eq!(rep.lost(), 3);
        assert_eq!(rep.mean_latency(), None);
    }

    #[test]
    fn trace_degrades_item_by_item() {
        let (g, s) = sample();
        // The fast exit host P3 (lane 0's t1) dies at t=45. Item k's exit
        // compute window ends at (k+3)·10; items 0 (ends 30) and 1 (ends
        // 40) make it on either lane, later items must use lane 1 — which
        // is also stage 2 here, so items survive with the same latency
        // until lane 1's own host dies at t=85: items with (k+3)·10 ≤ 85,
        // i.e. k ≤ 5, survive.
        let trace = CrashTrace::from_crash_times(vec![f64::INFINITY, f64::INFINITY, 45.0, 85.0]);
        let cfg = TraceConfig::new(10, trace, RecoveryPolicy::FailStop);
        let rep = synchronous(&g, &s, &cfg);
        for k in 0..=5 {
            assert_eq!(rep.item_latency[k], Some(30.0), "item {k}");
        }
        for k in 6..10 {
            assert_eq!(rep.item_latency[k], None, "item {k}");
        }
    }

    #[test]
    fn reroute_survives_crossed_crashes() {
        let (g, s) = sample();
        // Kill lane 0's entry host (P1) and lane 1's exit host (P4) from
        // the start: fail-stop loses everything (each lane is half dead),
        // re-route crosses the lanes (t0^2 on P2 feeds t1^1 on P3).
        let trace = CrashTrace::from_crash_times(vec![0.0, f64::INFINITY, f64::INFINITY, 0.0]);
        let failstop = synchronous(
            &g,
            &s,
            &TraceConfig::new(4, trace.clone(), RecoveryPolicy::FailStop),
        );
        assert_eq!(failstop.produced(), 0);
        let reroute = synchronous(&g, &s, &TraceConfig::new(4, trace, RecoveryPolicy::Reroute));
        assert_eq!(reroute.produced(), 4);
        // The crossed path hops processors at every edge: stage 2, L = 30.
        assert_eq!(reroute.item_latency[0], Some(30.0));
    }
}
