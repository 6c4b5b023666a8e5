//! The schedule structure produced by every mapping algorithm.

use crate::comm::CommEvent;
use crate::replica::{ReplicaId, SourceChoice};
use crate::stages;
use ltf_graph::TaskGraph;
use ltf_platform::{Platform, ProcId};
use serde::{Deserialize, Serialize};

/// Raw algorithm output, consumed by [`Schedule::new`].
///
/// All per-replica vectors are indexed densely by
/// [`ReplicaId::dense`] with `nrep = ε + 1`.
///
/// This is also the full-fidelity *wire form* of a schedule: a
/// [`Schedule`] round-trips as `to_data` → JSON → [`Schedule::new`]
/// (the derived quantities — stages, loads — are recomputed on arrival).
/// Decoded data from an untrusted source must pass
/// [`ScheduleData::validate_shape`] before being handed to the panicking
/// constructor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleData {
    /// Fault-tolerance degree ε (each task has `ε + 1` replicas).
    pub epsilon: u8,
    /// Iteration period `Δ = 1/T`.
    pub period: f64,
    /// Host processor of each replica.
    pub proc_of: Vec<ProcId>,
    /// Start time of each replica on the iteration timeline.
    pub start: Vec<f64>,
    /// Finish time of each replica on the iteration timeline.
    pub finish: Vec<f64>,
    /// For each replica, one [`SourceChoice`] per in-edge of its task.
    pub sources: Vec<Vec<SourceChoice>>,
    /// All scheduled inter-processor messages.
    pub comm_events: Vec<CommEvent>,
}

impl ScheduleData {
    /// Check that this (possibly hostile, e.g. freshly deserialized) data
    /// is shape-consistent with `g` and `p`, so that [`Schedule::new`]
    /// cannot panic and every later index access is in bounds. Semantic
    /// validity (precedence, ports, throughput) is the job of
    /// [`crate::validate()`](crate::validate()) on the built schedule.
    pub fn validate_shape(&self, g: &TaskGraph, p: &Platform) -> Result<(), String> {
        let nrep = self.epsilon as usize + 1;
        let n = g.num_tasks() * nrep;
        if !(self.period.is_finite() && self.period > 0.0) {
            return Err(format!("bad period {}", self.period));
        }
        for (what, len) in [
            ("proc_of", self.proc_of.len()),
            ("start", self.start.len()),
            ("finish", self.finish.len()),
            ("sources", self.sources.len()),
        ] {
            if len != n {
                return Err(format!("{what} has {len} entries, expected {n}"));
            }
        }
        let m = p.num_procs();
        if let Some(u) = self.proc_of.iter().find(|u| u.index() >= m) {
            return Err(format!(
                "replica placed on {u}, platform has {m} processors"
            ));
        }
        if let Some(x) = self
            .start
            .iter()
            .chain(self.finish.iter())
            .find(|x| !x.is_finite())
        {
            return Err(format!("non-finite replica time {x}"));
        }
        let e = g.num_edges();
        for (r, choices) in self.sources.iter().enumerate() {
            let task = ReplicaId::from_dense(r, nrep).task;
            if choices.len() != g.in_degree(task) {
                return Err(format!(
                    "replica {} has {} source choices, task has in-degree {}",
                    ReplicaId::from_dense(r, nrep),
                    choices.len(),
                    g.in_degree(task)
                ));
            }
            for c in choices {
                if c.edge.index() >= e {
                    return Err(format!("source choice references unknown edge {}", c.edge));
                }
                if let Some(&copy) = c.sources.iter().find(|&&copy| copy as usize >= nrep) {
                    return Err(format!(
                        "source copy {copy} out of range (ε = {})",
                        self.epsilon
                    ));
                }
            }
        }
        for ev in &self.comm_events {
            if ev.edge.index() >= e
                || ev.src.dense(nrep) >= n
                || ev.dst.dense(nrep) >= n
                || ev.src_proc.index() >= m
                || ev.dst_proc.index() >= m
            {
                return Err(format!("comm event {ev:?} references out-of-range ids"));
            }
            if !(ev.start.is_finite() && ev.finish.is_finite() && ev.finish >= ev.start) {
                return Err(format!("comm event {ev:?} has an invalid time window"));
            }
        }
        Ok(())
    }
}

/// A complete replicated pipelined schedule.
///
/// Immutable once built; analyses that need the application graph or the
/// platform take them as parameters (the schedule stores only indices).
#[derive(Debug, Clone)]
pub struct Schedule {
    epsilon: u8,
    period: f64,
    nrep: usize,
    num_tasks: usize,
    proc_of: Vec<ProcId>,
    start: Vec<f64>,
    finish: Vec<f64>,
    sources: Vec<Vec<SourceChoice>>,
    comm_events: Vec<CommEvent>,
    /// Guaranteed (worst-source) pipeline stage of each replica.
    stage: Vec<u32>,
    /// Total number of pipeline stages `S = max stage`.
    num_stages: u32,
    /// Per-processor compute load `Σ_u`.
    sigma: Vec<f64>,
    /// Per-processor input communication cycle time `C^I_u`.
    cin: Vec<f64>,
    /// Per-processor output communication cycle time `C^O_u`.
    cout: Vec<f64>,
}

impl Schedule {
    /// Assemble a schedule: computes pipeline stages from the recorded
    /// source structure and re-derives the per-processor loads from the
    /// placements and communication events.
    ///
    /// # Panics
    /// If vector sizes are inconsistent with `g`/`ε`.
    pub fn new(g: &TaskGraph, p: &Platform, data: ScheduleData) -> Self {
        Self::build(g, p, data, None)
    }

    /// Assemble a schedule from an algorithm that already maintains the
    /// guaranteed (worst-source) stage vector incrementally — the forward
    /// placement engine tracks it per commit — skipping the topological
    /// recomputation of [`Schedule::new`]. Debug builds verify the
    /// provided stages against the recomputation.
    ///
    /// # Panics
    /// If vector sizes are inconsistent with `g`/`ε`.
    pub fn with_stages(g: &TaskGraph, p: &Platform, data: ScheduleData, stage: Vec<u32>) -> Self {
        Self::build(g, p, data, Some(stage))
    }

    fn build(g: &TaskGraph, p: &Platform, data: ScheduleData, stage: Option<Vec<u32>>) -> Self {
        let nrep = data.epsilon as usize + 1;
        let n = g.num_tasks() * nrep;
        assert_eq!(data.proc_of.len(), n, "proc_of size");
        assert_eq!(data.start.len(), n, "start size");
        assert_eq!(data.finish.len(), n, "finish size");
        assert_eq!(data.sources.len(), n, "sources size");
        assert!(data.period.is_finite() && data.period > 0.0, "bad period");

        let stage = match stage {
            Some(s) => {
                assert_eq!(s.len(), n, "stage size");
                debug_assert_eq!(
                    s,
                    stages::guaranteed_stages(g, nrep, &data.proc_of, &data.sources),
                    "provided stages disagree with recomputation"
                );
                s
            }
            None => stages::guaranteed_stages(g, nrep, &data.proc_of, &data.sources),
        };
        let num_stages = stage.iter().copied().max().unwrap_or(1);

        let m = p.num_procs();
        let mut sigma = vec![0.0; m];
        for t in g.tasks() {
            for copy in 0..nrep {
                let r = ReplicaId::new(t, copy as u8).dense(nrep);
                let u = data.proc_of[r];
                sigma[u.index()] += p.exec_time(g.exec(t), u);
            }
        }
        let mut cin = vec![0.0; m];
        let mut cout = vec![0.0; m];
        for ev in &data.comm_events {
            cout[ev.src_proc.index()] += ev.duration();
            cin[ev.dst_proc.index()] += ev.duration();
        }

        Self {
            epsilon: data.epsilon,
            period: data.period,
            nrep,
            num_tasks: g.num_tasks(),
            proc_of: data.proc_of,
            start: data.start,
            finish: data.finish,
            sources: data.sources,
            comm_events: data.comm_events,
            stage,
            num_stages,
            sigma,
            cin,
            cout,
        }
    }

    /// The same placements, timings and sources at another period `Δ'`.
    /// Stages and loads do not depend on the period, so they carry over;
    /// everything derived from `Δ` (latency bound, throughput,
    /// utilization) follows the new value.
    ///
    /// # Panics
    /// If `period` is not finite and positive.
    pub fn with_period(&self, period: f64) -> Self {
        assert!(period.is_finite() && period > 0.0, "bad period");
        Self {
            period,
            ..self.clone()
        }
    }

    /// Extract the raw [`ScheduleData`] this schedule was built from —
    /// the inverse of [`Schedule::new`], used to put a schedule on the
    /// wire. Derived state (stages, loads) is dropped and recomputed by
    /// the receiving constructor.
    pub fn to_data(&self) -> ScheduleData {
        ScheduleData {
            epsilon: self.epsilon,
            period: self.period,
            proc_of: self.proc_of.clone(),
            start: self.start.clone(),
            finish: self.finish.clone(),
            sources: self.sources.clone(),
            comm_events: self.comm_events.clone(),
        }
    }

    /// Fault-tolerance degree ε.
    #[inline]
    pub fn epsilon(&self) -> u8 {
        self.epsilon
    }

    /// Number of replicas per task, `ε + 1`.
    #[inline]
    pub fn replicas_per_task(&self) -> usize {
        self.nrep
    }

    /// Number of tasks of the scheduled graph.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// Iteration period `Δ`.
    #[inline]
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Throughput `T = 1/Δ`.
    #[inline]
    pub fn throughput(&self) -> f64 {
        1.0 / self.period
    }

    /// All replicas of all tasks.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        let nrep = self.nrep;
        (0..self.num_tasks * nrep).map(move |i| ReplicaId::from_dense(i, nrep))
    }

    /// Host processor of a replica.
    #[inline]
    pub fn proc(&self, r: ReplicaId) -> ProcId {
        self.proc_of[r.dense(self.nrep)]
    }

    /// Start time of a replica on the iteration timeline.
    #[inline]
    pub fn start(&self, r: ReplicaId) -> f64 {
        self.start[r.dense(self.nrep)]
    }

    /// Finish time of a replica on the iteration timeline.
    #[inline]
    pub fn finish(&self, r: ReplicaId) -> f64 {
        self.finish[r.dense(self.nrep)]
    }

    /// Guaranteed pipeline stage `S(t^(N))` of a replica (1-based).
    #[inline]
    pub fn stage(&self, r: ReplicaId) -> u32 {
        self.stage[r.dense(self.nrep)]
    }

    /// Source choices (one per in-edge) of a replica.
    #[inline]
    pub fn sources(&self, r: ReplicaId) -> &[SourceChoice] {
        &self.sources[r.dense(self.nrep)]
    }

    /// Total number of pipeline stages `S`.
    #[inline]
    pub fn num_stages(&self) -> u32 {
        self.num_stages
    }

    /// Guaranteed pipeline latency `L = (2S − 1) · Δ` (paper §4,
    /// borrowing the stage model of Hary & Özgüner). This is the
    /// "UpperBound" series of the paper's figures: it holds whichever ≤ ε
    /// processors fail.
    pub fn latency_upper_bound(&self) -> f64 {
        (2.0 * self.num_stages as f64 - 1.0) * self.period
    }

    /// All scheduled inter-processor messages.
    #[inline]
    pub fn comm_events(&self) -> &[CommEvent] {
        &self.comm_events
    }

    /// Number of inter-processor messages per data set (the replication
    /// communication overhead the one-to-one mapping minimizes).
    pub fn comm_count(&self) -> usize {
        self.comm_events.len()
    }

    /// Peak per-link utilization `max_l (busy_l / Δ)` under the platform's
    /// routed communication model: every message charges its duration to
    /// each physical link on its route (circuit-style, matching the
    /// engine's per-link capacity accounting). `None` when the platform
    /// keeps no route table — matrix platforms have no link identity to
    /// measure against.
    pub fn max_link_utilization(&self, p: &Platform) -> Option<f64> {
        let table = p.route_table()?;
        let mut load = vec![0.0f64; table.num_links()];
        for ev in &self.comm_events {
            for &l in table.route(ev.src_proc, ev.dst_proc).links() {
                load[l.index()] += ev.duration();
            }
        }
        Some(load.iter().fold(0.0f64, |a, &x| a.max(x)) / self.period)
    }

    /// Compute load `Σ_u` of a processor per iteration.
    #[inline]
    pub fn sigma(&self, u: ProcId) -> f64 {
        self.sigma[u.index()]
    }

    /// Input communication cycle time `C^I_u` per iteration.
    #[inline]
    pub fn cin(&self, u: ProcId) -> f64 {
        self.cin[u.index()]
    }

    /// Output communication cycle time `C^O_u` per iteration.
    #[inline]
    pub fn cout(&self, u: ProcId) -> f64 {
        self.cout[u.index()]
    }

    /// Cycle time `∆_u = max(Σ_u, C^I_u, C^O_u)` of a processor (paper §4,
    /// with the I/O cycle split per port direction).
    pub fn cycle_time(&self, u: ProcId) -> f64 {
        self.sigma[u.index()]
            .max(self.cin[u.index()])
            .max(self.cout[u.index()])
    }

    /// The throughput actually achievable by this mapping,
    /// `1 / max_u ∆_u` (≥ the requested throughput when the schedule
    /// respects condition (1)).
    pub fn achieved_throughput(&self) -> f64 {
        let mut worst = 0.0f64;
        for u in 0..self.sigma.len() {
            worst = worst.max(self.cycle_time(ProcId(u as u16)));
        }
        if worst == 0.0 {
            f64::INFINITY
        } else {
            1.0 / worst
        }
    }

    /// Processor utilization `U_u = T · Σ_u ∈ [0, 1]`.
    pub fn utilization(&self, u: ProcId) -> f64 {
        self.sigma[u.index()] / self.period
    }

    /// Number of distinct processors used by at least one replica.
    pub fn procs_used(&self) -> usize {
        let mut used = vec![false; self.sigma.len()];
        for &u in &self.proc_of {
            used[u.index()] = true;
        }
        used.iter().filter(|&&b| b).count()
    }

    /// Replicas hosted on processor `u`, in start-time order.
    pub fn replicas_on(&self, u: ProcId) -> Vec<ReplicaId> {
        let mut reps: Vec<ReplicaId> = self.replicas().filter(|r| self.proc(*r) == u).collect();
        reps.sort_by(|a, b| {
            self.start(*a)
                .partial_cmp(&self.start(*b))
                .expect("finite times")
        });
        reps
    }

    /// Pretty-print a per-processor summary (used by examples).
    pub fn describe(&self, g: &TaskGraph, p: &Platform) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(
            s,
            "schedule: ε={} Δ={:.3} S={} L≤{:.3} comms={}",
            self.epsilon,
            self.period,
            self.num_stages,
            self.latency_upper_bound(),
            self.comm_count()
        )
        .unwrap();
        for u in p.procs() {
            let reps = self.replicas_on(u);
            if reps.is_empty() {
                continue;
            }
            let names: Vec<String> = reps
                .iter()
                .map(|r| format!("{}^({})[s{}]", g.name(r.task), r.copy + 1, self.stage(*r)))
                .collect();
            writeln!(
                s,
                "  {}: Σ={:.2} Cin={:.2} Cout={:.2}  {}",
                u,
                self.sigma(u),
                self.cin(u),
                self.cout(u),
                names.join(" ")
            )
            .unwrap();
        }
        s
    }

    /// Internal: dense processor slice for analyses in sibling modules.
    #[inline]
    pub(crate) fn proc_slice(&self) -> &[ProcId] {
        &self.proc_of
    }

    /// Internal: dense source slice for analyses in sibling modules.
    #[inline]
    pub(crate) fn sources_slice(&self) -> &[Vec<SourceChoice>] {
        &self.sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltf_graph::GraphBuilder;

    /// Two-task chain, ε = 0, both tasks on P1, no comms.
    fn tiny_colocated() -> (TaskGraph, Platform, Schedule) {
        let mut b = GraphBuilder::new();
        let t0 = b.add_task(4.0);
        let t1 = b.add_task(6.0);
        let e = b.add_edge(t0, t1, 2.0);
        let g = b.build().unwrap();
        let p = Platform::homogeneous(2, 2.0, 1.0);
        let data = ScheduleData {
            epsilon: 0,
            period: 10.0,
            proc_of: vec![ProcId(0), ProcId(0)],
            start: vec![0.0, 2.0],
            finish: vec![2.0, 5.0],
            sources: vec![vec![], vec![SourceChoice::one(e, 0)]],
            comm_events: vec![],
        };
        let s = Schedule::new(&g, &p, data);
        (g, p, s)
    }

    #[test]
    fn colocated_single_stage() {
        let (_, _, s) = tiny_colocated();
        assert_eq!(s.num_stages(), 1);
        assert_eq!(s.latency_upper_bound(), 10.0);
        assert_eq!(s.sigma(ProcId(0)), 5.0); // (4+6)/2
        assert_eq!(s.sigma(ProcId(1)), 0.0);
        assert_eq!(s.cin(ProcId(0)), 0.0);
        assert_eq!(s.comm_count(), 0);
        assert_eq!(s.procs_used(), 1);
        assert_eq!(s.utilization(ProcId(0)), 0.5);
        assert_eq!(s.achieved_throughput(), 1.0 / 5.0);
        assert_eq!(s.throughput(), 0.1);
    }

    #[test]
    fn cross_proc_two_stages() {
        let mut b = GraphBuilder::new();
        let t0 = b.add_task(4.0);
        let t1 = b.add_task(6.0);
        let e = b.add_edge(t0, t1, 2.0);
        let g = b.build().unwrap();
        let p = Platform::homogeneous(2, 1.0, 1.0);
        let r0 = ReplicaId::new(t0, 0);
        let r1 = ReplicaId::new(t1, 0);
        let data = ScheduleData {
            epsilon: 0,
            period: 10.0,
            proc_of: vec![ProcId(0), ProcId(1)],
            start: vec![0.0, 6.0],
            finish: vec![4.0, 12.0],
            sources: vec![vec![], vec![SourceChoice::one(e, 0)]],
            comm_events: vec![CommEvent {
                edge: e,
                src: r0,
                dst: r1,
                src_proc: ProcId(0),
                dst_proc: ProcId(1),
                start: 4.0,
                finish: 6.0,
            }],
        };
        let s = Schedule::new(&g, &p, data);
        assert_eq!(s.num_stages(), 2);
        assert_eq!(s.stage(r0), 1);
        assert_eq!(s.stage(r1), 2);
        assert_eq!(s.latency_upper_bound(), 30.0);
        assert_eq!(s.cout(ProcId(0)), 2.0);
        assert_eq!(s.cin(ProcId(1)), 2.0);
        assert_eq!(s.cycle_time(ProcId(0)), 4.0);
        assert_eq!(s.comm_count(), 1);
        assert_eq!(s.procs_used(), 2);
    }

    #[test]
    fn replicas_on_sorted_by_start() {
        let (_, _, s) = tiny_colocated();
        let reps = s.replicas_on(ProcId(0));
        assert_eq!(reps.len(), 2);
        assert!(s.start(reps[0]) <= s.start(reps[1]));
    }

    #[test]
    fn describe_mentions_processors() {
        let (g, p, s) = tiny_colocated();
        let text = s.describe(&g, &p);
        assert!(text.contains("P1"));
        assert!(text.contains("S=1"));
    }
}
