//! Structural schedule validation.
//!
//! A schedule is *valid* when it satisfies every rule the paper's framework
//! imposes:
//!
//! 1. replica placement: each task's `ε+1` copies sit on pairwise distinct
//!    processors (a single crash may not take out two copies);
//! 2. throughput (condition (1)): per processor, `Σ_u ≤ Δ`, `C^I_u ≤ Δ`,
//!    `C^O_u ≤ Δ`;
//! 3. communication structure: every non-entry replica has at least one
//!    recorded source per in-edge; every cross-processor source pair has
//!    exactly one scheduled message of the right duration, unless the
//!    transfer takes at most `EPS` (a zero volume or a zero delay), when it
//!    may have none; co-located pairs have none;
//! 4. causality: a message starts after its producer finishes and arrives
//!    before its consumer starts; a replica runs for `E(t)/s_u`;
//! 5. one-port: messages sharing a send port or a receive port never
//!    overlap; replicas sharing a processor never overlap;
//! 6. stage consistency: entry replicas are in stage 1 and every recorded
//!    communication crosses at most one stage boundary (the stored stages
//!    are recomputed by construction, so this is a defensive check).

use crate::replica::ReplicaId;
use crate::schedule::Schedule;
use crate::{IntervalSet, EPS};
use ltf_graph::{TaskGraph, TaskId};
use ltf_platform::{Platform, ProcId};
use std::collections::HashMap;

/// One validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Two replicas of `task` share processor `proc`.
    ReplicaCollision { task: TaskId, proc: ProcId },
    /// `Σ_u` exceeds the period.
    ComputeOverload { proc: ProcId, sigma: f64 },
    /// `C^I_u` exceeds the period.
    InputOverload { proc: ProcId, cin: f64 },
    /// `C^O_u` exceeds the period.
    OutputOverload { proc: ProcId, cout: f64 },
    /// A replica has no (or an incomplete) source record for an in-edge.
    MissingSource { replica: ReplicaId },
    /// A source refers to a copy number ≥ ε+1.
    BadSourceCopy { replica: ReplicaId, copy: u8 },
    /// A cross-processor source pair has no scheduled message.
    MissingCommEvent { dst: ReplicaId, src: ReplicaId },
    /// A scheduled message does not correspond to any source pair, is
    /// co-located, or duplicates another.
    SpuriousCommEvent { dst: ReplicaId, src: ReplicaId },
    /// Message duration differs from `vol · d_kh`.
    WrongCommDuration { dst: ReplicaId, src: ReplicaId },
    /// Message starts before its producer finishes.
    CommBeforeSourceFinish { dst: ReplicaId, src: ReplicaId },
    /// Message arrives after its consumer starts.
    ArrivalAfterStart { dst: ReplicaId, src: ReplicaId },
    /// Replica runtime differs from `E(t)/s_u`.
    WrongExecTime { replica: ReplicaId },
    /// Non-finite time encountered.
    NonFiniteTime { replica: ReplicaId },
    /// Two messages overlap on a send or receive port.
    PortOverlap { proc: ProcId, send: bool },
    /// Two replicas overlap on the same processor.
    ComputeOverlap { proc: ProcId },
    /// Stage numbering violates the η rule.
    StageInconsistent { replica: ReplicaId },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::ReplicaCollision { task, proc } => {
                write!(f, "two replicas of {task} share {proc}")
            }
            Violation::ComputeOverload { proc, sigma } => {
                write!(f, "{proc} compute load {sigma:.4} exceeds period")
            }
            Violation::InputOverload { proc, cin } => {
                write!(f, "{proc} input comm {cin:.4} exceeds period")
            }
            Violation::OutputOverload { proc, cout } => {
                write!(f, "{proc} output comm {cout:.4} exceeds period")
            }
            Violation::MissingSource { replica } => {
                write!(f, "{replica} lacks a source for some in-edge")
            }
            Violation::BadSourceCopy { replica, copy } => {
                write!(f, "{replica} references non-existent source copy {copy}")
            }
            Violation::MissingCommEvent { dst, src } => {
                write!(f, "no message scheduled for {src} -> {dst}")
            }
            Violation::SpuriousCommEvent { dst, src } => {
                write!(f, "unexpected message {src} -> {dst}")
            }
            Violation::WrongCommDuration { dst, src } => {
                write!(f, "message {src} -> {dst} has wrong duration")
            }
            Violation::CommBeforeSourceFinish { dst, src } => {
                write!(f, "message {src} -> {dst} starts before producer ends")
            }
            Violation::ArrivalAfterStart { dst, src } => {
                write!(f, "message {src} -> {dst} arrives after consumer starts")
            }
            Violation::WrongExecTime { replica } => {
                write!(f, "{replica} runtime differs from E/s")
            }
            Violation::NonFiniteTime { replica } => write!(f, "{replica} has non-finite times"),
            Violation::PortOverlap { proc, send } => {
                let port = if *send { "send" } else { "receive" };
                write!(f, "{proc} {port} port has overlapping messages")
            }
            Violation::ComputeOverlap { proc } => {
                write!(f, "{proc} executes two replicas simultaneously")
            }
            Violation::StageInconsistent { replica } => {
                write!(f, "{replica} stage violates the η rule")
            }
        }
    }
}

/// Validate `sched` against the graph and platform. Returns all violations
/// found (empty ⇒ `Ok`).
pub fn validate(g: &TaskGraph, p: &Platform, sched: &Schedule) -> Result<(), Vec<Violation>> {
    let mut out = Vec::new();
    let nrep = sched.replicas_per_task();
    let period = sched.period();

    // 1. Replica placement.
    for t in g.tasks() {
        let mut seen: Vec<ProcId> = Vec::with_capacity(nrep);
        for copy in 0..nrep {
            let u = sched.proc(ReplicaId::new(t, copy as u8));
            if seen.contains(&u) {
                out.push(Violation::ReplicaCollision { task: t, proc: u });
            }
            seen.push(u);
        }
    }

    // 2. Throughput condition.
    for u in p.procs() {
        if sched.sigma(u) > period + EPS {
            out.push(Violation::ComputeOverload {
                proc: u,
                sigma: sched.sigma(u),
            });
        }
        if sched.cin(u) > period + EPS {
            out.push(Violation::InputOverload {
                proc: u,
                cin: sched.cin(u),
            });
        }
        if sched.cout(u) > period + EPS {
            out.push(Violation::OutputOverload {
                proc: u,
                cout: sched.cout(u),
            });
        }
    }

    // Index events by (dst replica, src replica, edge).
    let mut by_pair: HashMap<(usize, usize, u32), usize> = HashMap::new();
    for (i, ev) in sched.comm_events().iter().enumerate() {
        let key = (ev.dst.dense(nrep), ev.src.dense(nrep), ev.edge.0);
        if by_pair.insert(key, i).is_some() {
            out.push(Violation::SpuriousCommEvent {
                dst: ev.dst,
                src: ev.src,
            });
        }
        if ev.src_proc == ev.dst_proc {
            out.push(Violation::SpuriousCommEvent {
                dst: ev.dst,
                src: ev.src,
            });
        }
        if sched.proc(ev.src) != ev.src_proc || sched.proc(ev.dst) != ev.dst_proc {
            out.push(Violation::SpuriousCommEvent {
                dst: ev.dst,
                src: ev.src,
            });
        }
    }
    let mut matched = vec![false; sched.comm_events().len()];

    // 3 & 4. Source structure, causality, exec times.
    for t in g.tasks() {
        for copy in 0..nrep {
            let r = ReplicaId::new(t, copy as u8);
            let u = sched.proc(r);
            let (rs, rf) = (sched.start(r), sched.finish(r));
            if !rs.is_finite() || !rf.is_finite() {
                out.push(Violation::NonFiniteTime { replica: r });
                continue;
            }
            let want = p.exec_time(g.exec(t), u);
            if (rf - rs - want).abs() > EPS {
                out.push(Violation::WrongExecTime { replica: r });
            }

            // Every in-edge must be covered by a non-empty source choice.
            let choices = sched.sources(r);
            for &eid in g.pred_edges(t) {
                let choice = choices.iter().find(|c| c.edge == eid);
                match choice {
                    None => out.push(Violation::MissingSource { replica: r }),
                    Some(c) if c.sources.is_empty() => {
                        out.push(Violation::MissingSource { replica: r })
                    }
                    Some(c) => {
                        let pred = g.edge(eid).src;
                        for &sc in &c.sources {
                            if sc as usize >= nrep {
                                out.push(Violation::BadSourceCopy {
                                    replica: r,
                                    copy: sc,
                                });
                                continue;
                            }
                            let src = ReplicaId::new(pred, sc);
                            let h = sched.proc(src);
                            if h == u {
                                // Co-located: data ready when producer ends.
                                if sched.finish(src) > rs + EPS {
                                    out.push(Violation::ArrivalAfterStart { dst: r, src });
                                }
                                continue;
                            }
                            let want = p.comm_time(g.edge(eid).volume, h, u);
                            match by_pair.get(&(r.dense(nrep), src.dense(nrep), eid.0)) {
                                // A transfer that takes no time needs no
                                // message: checked like a co-located pair.
                                None if want <= EPS => {
                                    if sched.finish(src) > rs + EPS {
                                        out.push(Violation::ArrivalAfterStart { dst: r, src });
                                    }
                                }
                                None => out.push(Violation::MissingCommEvent { dst: r, src }),
                                Some(&i) => {
                                    matched[i] = true;
                                    let ev = sched.comm_events()[i];
                                    if (ev.duration() - want).abs() > EPS {
                                        out.push(Violation::WrongCommDuration { dst: r, src });
                                    }
                                    if ev.start < sched.finish(src) - EPS {
                                        out.push(Violation::CommBeforeSourceFinish { dst: r, src });
                                    }
                                    if ev.finish > rs + EPS {
                                        out.push(Violation::ArrivalAfterStart { dst: r, src });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    for (i, ev) in sched.comm_events().iter().enumerate() {
        if !matched[i] {
            out.push(Violation::SpuriousCommEvent {
                dst: ev.dst,
                src: ev.src,
            });
        }
    }

    // 5. One-port serialization and compute serialization.
    let m = p.num_procs();
    let mut send: Vec<IntervalSet> = vec![IntervalSet::new(); m];
    let mut recv: Vec<IntervalSet> = vec![IntervalSet::new(); m];
    for ev in sched.comm_events() {
        if ev.duration() <= EPS {
            continue;
        }
        if !send[ev.src_proc.index()].is_free(ev.start, ev.finish) {
            out.push(Violation::PortOverlap {
                proc: ev.src_proc,
                send: true,
            });
        } else {
            send[ev.src_proc.index()].insert(ev.start, ev.finish);
        }
        if !recv[ev.dst_proc.index()].is_free(ev.start, ev.finish) {
            out.push(Violation::PortOverlap {
                proc: ev.dst_proc,
                send: false,
            });
        } else {
            recv[ev.dst_proc.index()].insert(ev.start, ev.finish);
        }
    }
    for u in p.procs() {
        let mut cpu = IntervalSet::new();
        let mut reps = sched.replicas_on(u);
        reps.sort_by(|a, b| sched.start(*a).partial_cmp(&sched.start(*b)).unwrap());
        for r in reps {
            let (s, f) = (sched.start(r), sched.finish(r));
            if f - s <= EPS {
                continue;
            }
            if !cpu.is_free(s, f) {
                out.push(Violation::ComputeOverlap { proc: u });
            } else {
                cpu.insert(s, f);
            }
        }
    }

    // 6. Stage consistency (defensive: stages are recomputed at build time).
    for t in g.tasks() {
        for copy in 0..nrep {
            let r = ReplicaId::new(t, copy as u8);
            let stage = sched.stage(r);
            if g.in_degree(t) == 0 {
                if stage != 1 {
                    out.push(Violation::StageInconsistent { replica: r });
                }
                continue;
            }
            let mut want = 1u32;
            for choice in sched.sources(r) {
                let pred = g.edge(choice.edge).src;
                for &sc in &choice.sources {
                    if sc as usize >= nrep {
                        continue;
                    }
                    let src = ReplicaId::new(pred, sc);
                    let eta = u32::from(sched.proc(src) != sched.proc(r));
                    want = want.max(sched.stage(src) + eta);
                }
            }
            if stage != want {
                out.push(Violation::StageInconsistent { replica: r });
            }
        }
    }

    if out.is_empty() {
        Ok(())
    } else {
        Err(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommEvent;
    use crate::replica::SourceChoice;
    use crate::schedule::ScheduleData;
    use ltf_graph::GraphBuilder;

    /// A correct ε=1 schedule of a 2-task chain on 4 processors:
    /// copy k of each task on its own processor pair, one-to-one comms.
    fn good_schedule() -> (TaskGraph, Platform, Schedule) {
        let mut b = GraphBuilder::new();
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
        (g, p, s)
    }

    #[test]
    fn good_schedule_validates() {
        let (g, p, s) = good_schedule();
        assert_eq!(validate(&g, &p, &s), Ok(()));
        assert_eq!(s.num_stages(), 2);
        assert_eq!(s.comm_count(), 2);
    }

    fn rebuild_with(g: &TaskGraph, p: &Platform, f: impl FnOnce(&mut ScheduleData)) -> Schedule {
        let (_, _, s) = good_schedule();
        let mut data = ScheduleData {
            epsilon: s.epsilon(),
            period: s.period(),
            proc_of: s.replicas().map(|r| s.proc(r)).collect(),
            start: s.replicas().map(|r| s.start(r)).collect(),
            finish: s.replicas().map(|r| s.finish(r)).collect(),
            sources: s.replicas().map(|r| s.sources(r).to_vec()).collect(),
            comm_events: s.comm_events().to_vec(),
        };
        f(&mut data);
        Schedule::new(g, p, data)
    }

    #[test]
    fn replica_collision_detected() {
        let (g, p, _) = good_schedule();
        let s = rebuild_with(&g, &p, |d| {
            d.proc_of[1] = ProcId(0); // t0^2 joins t0^1 on P1
        });
        let errs = validate(&g, &p, &s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::ReplicaCollision { .. })));
    }

    #[test]
    fn compute_overload_detected() {
        let (g, p, _) = good_schedule();
        let s = rebuild_with(&g, &p, |d| {
            d.period = 3.0; // t0 takes 4 > 3
        });
        let errs = validate(&g, &p, &s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::ComputeOverload { .. })));
    }

    #[test]
    fn io_overload_detected() {
        let (g, p, _) = good_schedule();
        let s = rebuild_with(&g, &p, |d| {
            d.period = 2.5; // message takes 3 > 2.5 (and compute too)
        });
        let errs = validate(&g, &p, &s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::InputOverload { .. })));
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::OutputOverload { .. })));
    }

    #[test]
    fn missing_source_detected() {
        let (g, p, _) = good_schedule();
        let s = rebuild_with(&g, &p, |d| {
            d.sources[2].clear();
        });
        let errs = validate(&g, &p, &s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::MissingSource { .. })));
    }

    #[test]
    fn missing_comm_event_detected() {
        let (g, p, _) = good_schedule();
        let s = rebuild_with(&g, &p, |d| {
            d.comm_events.pop();
        });
        let errs = validate(&g, &p, &s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::MissingCommEvent { .. })));
    }

    #[test]
    fn wrong_duration_detected() {
        let (g, p, _) = good_schedule();
        let s = rebuild_with(&g, &p, |d| {
            d.comm_events[0].finish = 6.0; // should be 7.0 (duration 3)
        });
        let errs = validate(&g, &p, &s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::WrongCommDuration { .. })));
    }

    #[test]
    fn causality_violations_detected() {
        let (g, p, _) = good_schedule();
        // Message starts before producer finishes.
        let s = rebuild_with(&g, &p, |d| {
            d.comm_events[0].start = 3.0;
            d.comm_events[0].finish = 6.0;
        });
        let errs = validate(&g, &p, &s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::CommBeforeSourceFinish { .. })));
        // Consumer starts before arrival.
        let s = rebuild_with(&g, &p, |d| {
            d.start[2] = 5.0;
            d.finish[2] = 7.0;
        });
        let errs = validate(&g, &p, &s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::ArrivalAfterStart { .. })));
    }

    #[test]
    fn wrong_exec_time_detected() {
        let (g, p, _) = good_schedule();
        let s = rebuild_with(&g, &p, |d| {
            d.finish[0] = 5.0; // exec should be 4
        });
        let errs = validate(&g, &p, &s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::WrongExecTime { .. })));
    }

    #[test]
    fn port_overlap_detected() {
        let (g, p, _) = good_schedule();
        // Route both messages through the same send port at the same time.
        let s = rebuild_with(&g, &p, |d| {
            d.proc_of[1] = ProcId(0); // also triggers ReplicaCollision
            d.comm_events[1].src_proc = ProcId(0);
        });
        let errs = validate(&g, &p, &s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::PortOverlap { send: true, .. })));
    }

    #[test]
    fn compute_overlap_detected() {
        let (g, p, _) = good_schedule();
        let s = rebuild_with(&g, &p, |d| {
            // Put t1^1 on P1 overlapping t0^1's execution window, with a
            // co-located source so no comm event is expected...
            d.proc_of[2] = ProcId(0);
            d.start[2] = 2.0;
            d.finish[2] = 4.0;
            d.comm_events.remove(0);
        });
        let errs = validate(&g, &p, &s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::ComputeOverlap { .. })));
    }

    #[test]
    fn spurious_event_detected() {
        let (g, p, _) = good_schedule();
        let s = rebuild_with(&g, &p, |d| {
            // Cross pairing: claim t1^1 receives from t0^2 as well, without
            // recording the source.
            let mut ev = d.comm_events[0];
            ev.src = ReplicaId::new(ltf_graph::TaskId(0), 1);
            ev.src_proc = ProcId(1);
            d.comm_events.push(ev);
        });
        let errs = validate(&g, &p, &s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::SpuriousCommEvent { .. })));
    }
}
