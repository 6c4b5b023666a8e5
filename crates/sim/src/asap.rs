//! Event-driven ASAP execution of a schedule on a stream of items.
//!
//! Each replica starts computing item `k` as soon as (a) the item has been
//! admitted (`k·Δ`), (b) for every in-edge at least one copy of the input
//! has arrived (active replication delivers identical data), and (c) its
//! processor is free. Messages follow the schedule's communication
//! structure and hold the channels [`Platform::channels`] names — the
//! sender's send port, the receiver's receive port and, on a `Contended`
//! platform, every physical link of the route — for their whole transfer,
//! FIFO by readiness: the placement engine's reservation rule, so
//! transfers sharing a link serialize even between distinct port pairs.
//! A transfer that takes at most `EPS`, like one between co-located
//! replicas, is a local delivery: it holds no channel, as the placement
//! engine plans none for it. Crashed processors finish nothing and send
//! nothing from the crash time onward.
//!
//! [`asap`] replays a [`CrashTrace`] with per-processor crash times under
//! an online [`RecoveryPolicy`]; the fixed-set crash model (all failures
//! at one instant) is the trace [`CrashTrace::from_crash_set`] under
//! [`RecoveryPolicy::FailStop`]. Under
//! [`RecoveryPolicy::Reroute`], an in-edge whose scheduled sources have
//! all died is re-routed mid-stream to a surviving replica of the
//! predecessor task: re-route messages are injected into the event world
//! at the real communication cost between the new processor pair and
//! contend for ports like any scheduled message.
//!
//! # Event order
//!
//! Events pop in `(time, seq)` key order, `seq` numbering the pushes:
//! first one crash event per dying processor (re-route runs only, in
//! processor order; say `c` of them), then every entry-replica admission —
//! item `k` of the `j`-th entry replica (entry tasks, then copies) at `k·Δ`
//! with `seq = c + 1 + j·items + k` — then whatever the handlers push, in
//! push order. That key is the whole tie rule. The queue keeps it while
//! holding only events that are really in flight:
//!
//! * Admissions come from a cursor, not the heap. `Δ > 0`, so `k·Δ`
//!   strictly increases with `k` and key order is item-major,
//!   replica-minor.
//! * No event is pushed before the current instant (a `debug_assert!` in
//!   `push`). So an event pushed *at* the current instant sorts after every
//!   queued event of that instant and after every earlier such push: it
//!   joins a FIFO that drains once the heap and the cursor hold nothing
//!   more for the instant. Only future events enter the heap.
//!
//! # Re-route scans
//!
//! An attempt to recover item `k` on in-edge slot `s` acts only while
//! (1) `(s, k)` is missing with no re-route in flight, (2) the consumer is
//! alive, (3) every scheduled source of `s` is dead and (4) a surviving
//! producer has item `k`. Conditions 1 and 2 only turn false, except when
//! a re-route is cut, and `on_msg_cut` then retries at once. Condition 3
//! turns true once, at `dead_at(s)`, the latest crash time of the slot's
//! scheduled sources. Condition 4 turns true only in `on_job_finish`,
//! which re-attempts right away. Crash events pop before every other event
//! of their instant, in processor order. So only the first crash event at
//! or after `dead_at(s)` can act on `s`. Each crash event scans just the
//! slots it is first for, in `(replica, slot)` order with items inner: the
//! full scan's order, minus attempts that cannot act. Two cases need more.
//! A transfer whose sender dies before it can start is cut, and retried,
//! at its would-be start time, later than the current instant; (2) or (4)
//! may fail by then yet hold at a crash event in between, so the next
//! crash event retries that `(s, k)` too. And a slot without any source
//! choice gets no `on_job_finish` retries, so every crash event scans it.

use crate::fault::{CrashTrace, RecoveryPolicy, TraceConfig};
use crate::report::SimReport;
use ltf_graph::{EdgeId, TaskGraph};
use ltf_platform::{Platform, ProcId};
use ltf_schedule::{ReplicaId, Schedule, EPS};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A compute job became ready (inputs present, item admitted).
    JobReady { rep: u32, item: u32 },
    /// A compute job finished on its processor.
    JobFinish { rep: u32, item: u32 },
    /// A message became ready to leave its source.
    MsgReady { ev: u32, item: u32 },
    /// A message fully arrived at its destination.
    MsgArrive { ev: u32, item: u32 },
    /// A processor died (only scheduled under [`RecoveryPolicy::Reroute`]
    /// — it triggers the re-route scan).
    ProcCrash { proc: u32 },
}

/// One point-to-point transfer: the scheduled communication events, plus
/// any re-route messages injected at runtime.
#[derive(Debug, Clone)]
struct Msg {
    dst_rep: u32,
    dst_slot: u32,
    src_proc: usize,
    dst_proc: usize,
    dur: f64,
    /// Injected by the re-route policy (its in-flight flag must be cleared
    /// if the transfer is cut, so recovery can be retried elsewhere).
    reroute: bool,
}

/// An event's queue key: `(time bits, seq)`. Event times are finite and
/// ≥ 0, so their bit patterns order like the times themselves.
type Key = (u64, u64);

/// Whether key `a` pops before `b` (an absent key never does).
fn before(a: Option<Key>, b: Option<Key>) -> bool {
    a.is_some_and(|a| b.is_none_or(|b| a < b))
}

/// The entry-replica admissions, yielded in key order without queueing
/// them: item-major, then replica (entry tasks, then copies).
struct Admissions {
    reps: Vec<u32>,
    period: f64,
    items: usize,
    /// Sequence number of admission `(0, 0)`; `(j, k)` has `+ j·items + k`.
    seq0: u64,
    /// Next admission: item `k` of `reps[j]` (exhausted at `k == items`).
    j: usize,
    k: usize,
}

impl Admissions {
    fn key(&self) -> Option<Key> {
        (self.k < self.items).then(|| {
            let seq = self.seq0 + (self.j * self.items + self.k) as u64;
            ((self.k as f64 * self.period).to_bits(), seq)
        })
    }

    fn next(&mut self) -> Event {
        let e = Event::JobReady {
            rep: self.reps[self.j],
            item: self.k as u32,
        };
        self.j += 1;
        if self.j == self.reps.len() {
            self.j = 0;
            self.k += 1;
        }
        e
    }
}

/// `Runner::scan_by` value of a slot that no crash event can recover.
const NO_SCAN: u32 = u32::MAX;
/// `Runner::scan_by` value of a slot without any source choice: no
/// `on_job_finish` retries it, so every crash event scans it.
const EVERY_SCAN: u32 = u32::MAX - 1;

/// The time of processor `u`'s crash event. Crash times are ≥ 0, so `abs`
/// only maps `-0.0` to `0.0`, whose bits sort like the time; `-0.0` keyed
/// as is would sort after every other instant.
fn crash_key(trace: &CrashTrace, u: usize) -> f64 {
    trace.crash_time(u).abs()
}

/// Execute the schedule ASAP under a crash trace and recovery policy.
/// Returns per-item latency measurements. The platform prices transfers,
/// re-route messages included, and names the channels each one holds.
///
/// Panics if `cfg.items == 0`, or if the trace or the platform covers
/// fewer processors than the schedule uses.
pub fn asap(g: &TaskGraph, p: &Platform, sched: &Schedule, cfg: &TraceConfig) -> SimReport {
    Runner::new(g, p, sched, cfg.items, &cfg.trace, cfg.policy).run()
}

struct Runner<'a> {
    g: &'a TaskGraph,
    platform: &'a Platform,
    sched: &'a Schedule,
    trace: &'a CrashTrace,
    policy: RecoveryPolicy,
    items: usize,
    nrep: usize,
    n_rep: usize,
    max_deg: usize,
    // Static structure.
    proc_of: Vec<usize>,
    /// Per replica, its in-edges in slot order (`g.pred_edges` order).
    slot_edges: Vec<Vec<u32>>,
    /// Per (replica, slot) at `replica · max_deg + slot`: the latest crash
    /// time of the slot's scheduled source processors (`-∞` without any),
    /// from which instant on all of them count as dead.
    dead_at: Vec<f64>,
    /// Per (replica, slot), same layout: the processor whose crash event
    /// scans the slot — the first crash event at or after `dead_at`
    /// ([`NO_SCAN`] when there is none, or [`EVERY_SCAN`]).
    scan_by: Vec<u32>,
    /// Per source replica, local deliveries (same processor, or a
    /// transfer of at most `EPS`): (dst, slot).
    local_out: Vec<Vec<(u32, u32)>>,
    /// Per source replica, scheduled outgoing message ids.
    out_msgs: Vec<Vec<u32>>,
    /// Per task, the (consumer replica, slot) pairs fed by its output.
    consumers: Vec<Vec<(u32, u32)>>,
    msgs: Vec<Msg>,
    // Dynamic state.
    edge_done: Vec<bool>,
    reroute_inflight: Vec<bool>,
    edges_missing: Vec<u32>,
    job_done_at: Vec<f64>,
    job_scheduled: Vec<bool>,
    produced: Vec<bool>,
    proc_free: Vec<f64>,
    /// Next-free time of each channel of the platform (a scalar horizon,
    /// not an interval set: replay only ever appends at the FIFO frontier).
    chan_free: Vec<f64>,
    /// Events after the current instant.
    heap: BinaryHeap<Reverse<(u64, u64, Event)>>,
    /// Events pushed at the current instant, in push (= key) order.
    fifo: VecDeque<(u64, u64, Event)>,
    admit: Admissions,
    /// `(replica, slot, item)` whose cut was retried after the current
    /// instant; the next crash event retries them as well.
    late_retries: Vec<(u32, u32, u32)>,
    /// The instant being processed.
    now: f64,
    seq: u64,
    makespan: f64,
}

impl<'a> Runner<'a> {
    fn new(
        g: &'a TaskGraph,
        platform: &'a Platform,
        sched: &'a Schedule,
        items: usize,
        trace: &'a CrashTrace,
        policy: RecoveryPolicy,
    ) -> Self {
        assert!(items > 0, "need at least one item");
        let nrep = sched.replicas_per_task();
        let n_rep = g.num_tasks() * nrep;
        let m = 1 + sched
            .replicas()
            .map(|r| sched.proc(r).index())
            .max()
            .unwrap_or(0);
        assert!(
            trace.num_procs() >= m,
            "trace covers {} processors, schedule uses {m}",
            trace.num_procs()
        );
        assert!(
            platform.num_procs() >= m,
            "platform has {} processors, schedule uses {m}",
            platform.num_procs()
        );
        let rep_of = |t: ltf_graph::TaskId, c: u8| ReplicaId::new(t, c).dense(nrep);

        let proc_of: Vec<usize> = sched.replicas().map(|r| sched.proc(r).index()).collect();
        let mut slot_edges = vec![Vec::new(); n_rep];
        for t in g.tasks() {
            let edges: Vec<u32> = g.pred_edges(t).iter().map(|e| e.0).collect();
            for c in 0..nrep as u8 {
                slot_edges[rep_of(t, c)] = edges.clone();
            }
        }
        let slot_of = |slots: &[u32], edge: u32| -> u32 {
            slots
                .iter()
                .position(|e| *e == edge)
                .expect("edge of replica") as u32
        };
        let max_deg = slot_edges.iter().map(Vec::len).max().unwrap_or(0).max(1);

        // Scheduled sources: per (consumer, slot) the moment all of them
        // are dead, local deliveries, and the reverse consumer index per
        // task.
        let mut dead_at = vec![f64::NEG_INFINITY; n_rep * max_deg];
        let mut scan_by = vec![EVERY_SCAN; n_rep * max_deg];
        let mut local_out = vec![Vec::<(u32, u32)>::new(); n_rep];
        let mut consumers = vec![Vec::<(u32, u32)>::new(); g.num_tasks()];
        let proc = |r: usize| ProcId(proc_of[r] as u16);
        for t in g.tasks() {
            for c in 0..nrep as u8 {
                let r = rep_of(t, c);
                for choice in sched.sources(ReplicaId::new(t, c)) {
                    let e = g.edge(choice.edge);
                    let slot = slot_of(&slot_edges[r], choice.edge.0);
                    consumers[e.src.index()].push((r as u32, slot));
                    let si = r * max_deg + slot as usize;
                    scan_by[si] = NO_SCAN;
                    for &sc in &choice.sources {
                        let src = rep_of(e.src, sc);
                        dead_at[si] = dead_at[si].max(trace.crash_time(proc_of[src]));
                        if platform.comm_time(e.volume, proc(src), proc(r)) <= EPS {
                            local_out[src].push((r as u32, slot));
                        }
                    }
                }
            }
        }
        // Crash events pop in (time, processor) order: each slot with a
        // source choice is scanned by the first one at or after `dead_at`.
        let mut crashes: Vec<usize> = (0..m)
            .filter(|&u| trace.crash_time(u).is_finite())
            .collect();
        crashes.sort_by_key(|&u| crash_key(trace, u).to_bits());
        for (si, scan) in scan_by.iter_mut().enumerate() {
            if *scan == NO_SCAN {
                let first = crashes.partition_point(|&u| trace.crash_time(u) < dead_at[si]);
                if let Some(&u) = crashes.get(first) {
                    *scan = u as u32;
                }
            }
        }

        let events = sched.comm_events();
        let mut out_msgs = vec![Vec::<u32>::new(); n_rep];
        let mut msgs = Vec::with_capacity(events.len());
        for (i, ev) in events.iter().enumerate() {
            let dst = ev.dst.dense(nrep);
            out_msgs[ev.src.dense(nrep)].push(i as u32);
            msgs.push(Msg {
                dst_rep: dst as u32,
                dst_slot: slot_of(&slot_edges[dst], ev.edge.0),
                src_proc: ev.src_proc.index(),
                dst_proc: ev.dst_proc.index(),
                dur: ev.duration(),
                reroute: false,
            });
        }

        let edges_missing = (0..n_rep * items)
            .map(|i| slot_edges[i / items].len() as u32)
            .collect();
        let entry_reps = g
            .entries()
            .iter()
            .flat_map(|&t| (0..nrep as u8).map(move |c| rep_of(t, c) as u32))
            .collect();
        Self {
            g,
            platform,
            sched,
            trace,
            policy,
            items,
            nrep,
            n_rep,
            max_deg,
            proc_of,
            slot_edges,
            dead_at,
            scan_by,
            local_out,
            out_msgs,
            consumers,
            msgs,
            edge_done: vec![false; n_rep * items * max_deg],
            reroute_inflight: vec![false; n_rep * items * max_deg],
            edges_missing,
            job_done_at: vec![f64::NAN; n_rep * items],
            job_scheduled: vec![false; n_rep * items],
            produced: vec![false; n_rep * items],
            proc_free: vec![0.0; m],
            chan_free: vec![0.0; platform.num_channels()],
            heap: BinaryHeap::new(),
            fifo: VecDeque::new(),
            admit: Admissions {
                reps: entry_reps,
                period: sched.period(),
                items,
                seq0: 0,
                j: 0,
                k: 0,
            },
            late_retries: Vec::new(),
            now: f64::NEG_INFINITY,
            seq: 0,
            makespan: 0.0,
        }
    }

    #[inline]
    fn idx(&self, rep: usize, item: usize) -> usize {
        rep * self.items + item
    }

    #[inline]
    fn eidx(&self, rep: usize, item: usize, slot: usize) -> usize {
        (rep * self.items + item) * self.max_deg + slot
    }

    /// Strictly dead: the fixed-set convention (`time > crash_at` — work
    /// completing exactly at the crash instant still counts).
    #[inline]
    fn crashed(&self, proc: usize, time: f64) -> bool {
        self.trace.crashed(proc, time)
    }

    /// Dead for re-route decisions (`crash_at ≤ now`): at the crash
    /// instant itself the processor already counts as unrecoverable, so
    /// the `ProcCrash` event fired at exactly that time sees it dead.
    #[inline]
    fn dead_by(&self, proc: usize, time: f64) -> bool {
        self.trace.crash_time(proc) <= time
    }

    fn push(&mut self, t: f64, e: Event) {
        debug_assert!(
            t.is_finite() && t >= self.now,
            "event at {t} pushed before the current instant {}",
            self.now
        );
        self.seq += 1;
        let key = (t.to_bits(), self.seq, e);
        if key.0 == self.now.to_bits() {
            self.fifo.push_back(key);
        } else {
            self.heap.push(Reverse(key));
        }
    }

    /// The next event in key order, from the cursor, the FIFO or the heap.
    fn pop(&mut self) -> Option<(u64, Event)> {
        let heap = self.heap.peek().map(|Reverse((t, s, _))| (*t, *s));
        let fifo = self.fifo.front().map(|&(t, s, _)| (t, s));
        let admit = self.admit.key();
        if before(fifo, heap) && before(fifo, admit) {
            self.fifo.pop_front().map(|(t, _, e)| (t, e))
        } else if before(admit, heap) {
            admit.map(|(t, _)| (t, self.admit.next()))
        } else {
            self.heap.pop().map(|Reverse((t, _, e))| (t, e))
        }
    }

    /// Record a first-arrival on an in-edge slot; when every in-edge of
    /// the replica has data, emit `JobReady`.
    fn deliver(&mut self, dst: usize, slot: usize, item: usize, now: f64) {
        let ei = self.eidx(dst, item, slot);
        if self.edge_done[ei] {
            return; // later copies of the same input are redundant
        }
        self.edge_done[ei] = true;
        let miss = &mut self.edges_missing[dst * self.items + item];
        *miss -= 1;
        if *miss == 0 {
            self.push(
                now,
                Event::JobReady {
                    rep: dst as u32,
                    item: item as u32,
                },
            );
        }
    }

    /// Try to recover `(dst, slot, item)` from a surviving replica of the
    /// predecessor task. No-op unless the policy is `Reroute`, the slot is
    /// still missing, no recovery is already in flight, the consumer is
    /// alive, and every scheduled source is dead.
    fn attempt_reroute(&mut self, dst: usize, slot: usize, item: usize, now: f64) {
        if self.policy != RecoveryPolicy::Reroute {
            return;
        }
        let ei = self.eidx(dst, item, slot);
        if self.edge_done[ei] || self.reroute_inflight[ei] {
            return;
        }
        let dst_proc = self.proc_of[dst];
        if self.crashed(dst_proc, now) || self.dead_at[dst * self.max_deg + slot] > now {
            return;
        }
        let edge = self.slot_edges[dst][slot];
        let pred = self.g.edge(EdgeId(edge)).src;
        // Deterministic pick: the lowest-index replica of the predecessor
        // that has produced the item and strictly outlives `now`.
        let mut pick = None;
        for c in 0..self.nrep as u8 {
            let src = ReplicaId::new(pred, c).dense(self.nrep);
            if self.produced[self.idx(src, item)] && !self.dead_by(self.proc_of[src], now) {
                pick = Some(src);
                break;
            }
        }
        let Some(src) = pick else { return };
        let src_proc = self.proc_of[src];
        let vol = self.g.edge(EdgeId(edge)).volume;
        let dur = self
            .platform
            .comm_time(vol, ProcId(src_proc as u16), ProcId(dst_proc as u16));
        if dur <= EPS {
            // Co-located, or a transfer that takes no time.
            self.deliver(dst, slot, item, now);
            return;
        }
        let mi = self.msgs.len() as u32;
        self.msgs.push(Msg {
            dst_rep: dst as u32,
            dst_slot: slot as u32,
            src_proc,
            dst_proc,
            dur,
            reroute: true,
        });
        self.reroute_inflight[ei] = true;
        self.push(
            now,
            Event::MsgReady {
                ev: mi,
                item: item as u32,
            },
        );
    }

    /// A transfer was cut by its sender's death: clear the in-flight flag
    /// if it was a re-route message, then try to recover from elsewhere at
    /// `at`, the instant the cut is noticed.
    fn on_msg_cut(&mut self, ev: usize, item: usize, at: f64) {
        let (dst, slot, reroute) = {
            let m = &self.msgs[ev];
            (m.dst_rep as usize, m.dst_slot as usize, m.reroute)
        };
        let ei = self.eidx(dst, item, slot);
        if reroute {
            self.reroute_inflight[ei] = false;
        }
        self.attempt_reroute(dst, slot, item, at);
        // A retry after the current instant may fail where a crash event
        // before `at` would succeed (consumer or producers dying between).
        if self.policy == RecoveryPolicy::Reroute
            && at > self.now
            && !self.edge_done[ei]
            && !self.reroute_inflight[ei]
        {
            self.late_retries
                .push((dst as u32, slot as u32, item as u32));
        }
    }

    fn run(mut self) -> SimReport {
        // Crash events drive the re-route scan; without re-routing they
        // would be pure no-ops, so they are only scheduled under the
        // policy that uses them.
        if self.policy == RecoveryPolicy::Reroute {
            for u in 0..self.proc_free.len() {
                if self.trace.crash_time(u).is_finite() {
                    let t = crash_key(self.trace, u);
                    self.push(t, Event::ProcCrash { proc: u as u32 });
                }
            }
        }
        // The admissions take the next sequence numbers, as if pushed here.
        self.admit.seq0 = self.seq + 1;
        self.seq += (self.admit.reps.len() * self.items) as u64;

        while let Some((tbits, event)) = self.pop() {
            let now = f64::from_bits(tbits);
            self.now = now;
            match event {
                Event::JobReady { rep, item } => self.on_job_ready(rep, item, now),
                Event::JobFinish { rep, item } => self.on_job_finish(rep, item, now),
                Event::MsgReady { ev, item } => self.on_msg_ready(ev, item, now),
                Event::MsgArrive { ev, item } => self.on_msg_arrive(ev, item, now),
                Event::ProcCrash { proc } => self.on_proc_crash(proc, now),
            }
        }

        let period = self.sched.period();
        self.finish(period)
    }

    fn on_job_ready(&mut self, rep: u32, item: u32, now: f64) {
        let (r, k) = (rep as usize, item as usize);
        if self.job_scheduled[self.idx(r, k)] {
            return;
        }
        let i = self.idx(r, k);
        self.job_scheduled[i] = true;
        let rid = ReplicaId::from_dense(r, self.nrep);
        let u = self.proc_of[r];
        let exec = self.sched.finish(rid) - self.sched.start(rid);
        let start = now.max(self.proc_free[u]);
        self.proc_free[u] = start + exec;
        self.push(start + exec, Event::JobFinish { rep, item });
    }

    fn on_job_finish(&mut self, rep: u32, item: u32, now: f64) {
        let (r, k) = (rep as usize, item as usize);
        let u = self.proc_of[r];
        if self.crashed(u, now) {
            return; // fail-silent: no output
        }
        let i = self.idx(r, k);
        self.job_done_at[i] = now;
        self.produced[i] = true;
        self.makespan = self.makespan.max(now);
        // Local deliveries are instantaneous.
        for li in 0..self.local_out[r].len() {
            let (dst, slot) = self.local_out[r][li];
            self.deliver(dst as usize, slot as usize, k, now);
        }
        for mi in 0..self.out_msgs[r].len() {
            let ev = self.out_msgs[r][mi];
            self.push(now, Event::MsgReady { ev, item });
        }
        // A late producer is the recovery source for consumers whose
        // scheduled lanes died before this output existed.
        if self.policy == RecoveryPolicy::Reroute {
            let t = ReplicaId::from_dense(r, self.nrep).task;
            for ci in 0..self.consumers[t.index()].len() {
                let (dst, slot) = self.consumers[t.index()][ci];
                self.attempt_reroute(dst as usize, slot as usize, k, now);
            }
        }
    }

    fn on_msg_ready(&mut self, ev: u32, item: u32, now: f64) {
        let (h, u, dur) = {
            let m = &self.msgs[ev as usize];
            (m.src_proc, m.dst_proc, m.dur)
        };
        // The transfer waits for, then holds, every channel it needs. The
        // ports are handled apart from the links: one chained iterator
        // over all of them cost about 5 % of an ASAP SLO campaign's CPU
        // time (2-core x86-64, 16 alternated pairs).
        let ch = self.platform.channels(ProcId(h as u16), ProcId(u as u16));
        let free = &self.chan_free;
        let ports = now.max(free[ch.send]).max(free[ch.recv]);
        let start = ch.links().fold(ports, |t, c| t.max(free[c]));
        if self.crashed(h, start) {
            // Sender dead before transmission.
            self.on_msg_cut(ev as usize, item as usize, start);
            return;
        }
        let end = start + dur;
        self.chan_free[ch.send] = end;
        self.chan_free[ch.recv] = end;
        for c in ch.links() {
            self.chan_free[c] = end;
        }
        self.push(end, Event::MsgArrive { ev, item });
    }

    fn on_msg_arrive(&mut self, ev: u32, item: u32, now: f64) {
        let (h, dst, slot) = {
            let m = &self.msgs[ev as usize];
            (m.src_proc, m.dst_rep as usize, m.dst_slot as usize)
        };
        if self.crashed(h, now) {
            // The tail of the transmission was cut off.
            self.on_msg_cut(ev as usize, item as usize, now);
            return;
        }
        self.deliver(dst, slot, item as usize, now);
    }

    /// Recovery scan at `proc`'s crash: every slot this event is the
    /// first at or after `dead_at` for, all items, plus the late retries,
    /// in `(replica, slot, item)` order (items produced only later are
    /// picked up by `on_job_finish`).
    fn on_proc_crash(&mut self, proc: u32, now: f64) {
        let mut late = std::mem::take(&mut self.late_retries);
        late.sort_unstable();
        let mut next = 0;
        for dst in 0..self.n_rep {
            for slot in 0..self.slot_edges[dst].len() {
                let scan = self.scan_by[dst * self.max_deg + slot];
                let whole = scan == proc || scan == EVERY_SCAN;
                if whole {
                    for k in 0..self.items {
                        self.attempt_reroute(dst, slot, k, now);
                    }
                }
                while let Some(&(d, s, k)) = late.get(next) {
                    if (d as usize, s as usize) != (dst, slot) {
                        break;
                    }
                    if !whole {
                        self.attempt_reroute(dst, slot, k as usize, now);
                    }
                    next += 1;
                }
            }
        }
        late.clear();
        self.late_retries = late;
    }

    fn finish(self, period: f64) -> SimReport {
        // Per-item completion: earliest surviving exit replica per exit
        // task, latest over exit tasks.
        let mut item_latency = Vec::with_capacity(self.items);
        let mut item_completion = Vec::with_capacity(self.items);
        for k in 0..self.items {
            let mut done: Option<f64> = Some(0.0);
            for &t in self.g.exits() {
                let best = (0..self.nrep as u8)
                    .filter_map(|c| {
                        let r = ReplicaId::new(t, c).dense(self.nrep);
                        self.produced[self.idx(r, k)].then(|| self.job_done_at[self.idx(r, k)])
                    })
                    .fold(None, |acc: Option<f64>, v| {
                        Some(acc.map_or(v, |a| a.min(v)))
                    });
                done = match (done, best) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    _ => None,
                };
            }
            match done {
                Some(d) => {
                    item_completion.push(Some(d));
                    item_latency.push(Some(d - k as f64 * period));
                }
                None => {
                    item_completion.push(None);
                    item_latency.push(None);
                }
            }
        }
        SimReport {
            item_latency,
            item_completion,
            makespan: self.makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::fixed;
    use ltf_schedule::{CommEvent, ScheduleData, SourceChoice};

    fn sample() -> (TaskGraph, Platform, Schedule) {
        lanes(&[0, 1], &[2, 3], 10.0)
    }

    /// One lane t0^c → t1^c per replica: t0^c (4 units) on processor
    /// `src[c]` sends 3 units to t1^c (2 units) on `dst[c]`.
    fn lanes(src: &[u16], dst: &[u16], period: f64) -> (TaskGraph, Platform, Schedule) {
        let mut b = ltf_graph::GraphBuilder::new();
        let t0 = b.add_task(4.0);
        let t1 = b.add_task(2.0);
        let e = b.add_edge(t0, t1, 3.0);
        let g = b.build().unwrap();
        let n = src.len();
        let p = Platform::homogeneous(2 * n, 1.0, 1.0);
        let lane = |c: usize| CommEvent {
            edge: e,
            src: ReplicaId::new(t0, c as u8),
            dst: ReplicaId::new(t1, c as u8),
            src_proc: ProcId(src[c]),
            dst_proc: ProcId(dst[c]),
            start: 4.0,
            finish: 7.0,
        };
        let sources = (0..n).map(|c| vec![SourceChoice::one(e, c as u8)]);
        let data = ScheduleData {
            epsilon: n as u8 - 1,
            period,
            proc_of: src.iter().chain(dst).map(|&u| ProcId(u)).collect(),
            start: [vec![0.0; n], vec![7.0; n]].concat(),
            finish: [vec![4.0; n], vec![9.0; n]].concat(),
            sources: vec![vec![]; n].into_iter().chain(sources).collect(),
            comm_events: (0..n).map(lane).collect(),
        };
        let s = Schedule::new(&g, &p, data);
        (g, p, s)
    }

    /// Two independent pipelines t0 → t1 (P1 → P4) and t2 → t3 (P2 → P3)
    /// on a 4-processor chain: disjoint port pairs, but both routes cross
    /// the middle link P2–P3, which only the Contended platform charges.
    fn two_pipelines(routed: bool) -> (TaskGraph, Platform, Schedule) {
        use ltf_platform::{CommMode, Topology};
        let mut b = ltf_graph::GraphBuilder::new();
        let t0 = b.add_task(4.0);
        let t1 = b.add_task(2.0);
        let t2 = b.add_task(4.0);
        let t3 = b.add_task(2.0);
        let e0 = b.add_edge(t0, t1, 3.0);
        let e1 = b.add_edge(t2, t3, 3.0);
        let g = b.build().unwrap();
        let chain = Topology::chain(vec![1.0; 4], 1.0);
        let p = if routed {
            chain.into_platform_with(CommMode::Contended)
        } else {
            chain.into_platform()
        }
        .unwrap();
        let msg = |edge, src, dst, src_proc, dst_proc| CommEvent {
            edge,
            src: ReplicaId::new(src, 0),
            dst: ReplicaId::new(dst, 0),
            src_proc: ProcId(src_proc),
            dst_proc: ProcId(dst_proc),
            start: 4.0,
            finish: 7.0,
        };
        let data = ScheduleData {
            epsilon: 0,
            period: 20.0,
            proc_of: vec![ProcId(0), ProcId(3), ProcId(1), ProcId(2)],
            start: vec![0.0, 7.0, 0.0, 7.0],
            finish: vec![4.0, 9.0, 4.0, 9.0],
            sources: vec![
                vec![],
                vec![SourceChoice::one(e0, 0)],
                vec![],
                vec![SourceChoice::one(e1, 0)],
            ],
            comm_events: vec![msg(e0, t0, t1, 0, 3), msg(e1, t2, t3, 1, 2)],
        };
        let s = Schedule::new(&g, &p, data);
        (g, p, s)
    }

    #[test]
    fn asap_latency_at_most_synchronous() {
        let (g, p, s) = sample();
        let rep = asap(&g, &p, &s, &fixed(4, &[], 0.0));
        assert_eq!(rep.produced(), 4);
        // First item: t0 done at 4, msg 4..7, t1 done at 9 -> latency 9,
        // well under the synchronous 30.
        assert_eq!(rep.item_latency[0], Some(9.0));
        for l in rep.item_latency.iter().flatten() {
            assert!(*l <= 30.0 + 1e-9);
        }
    }

    #[test]
    fn asap_steady_state_period_respected() {
        let (g, p, s) = sample();
        let rep = asap(&g, &p, &s, &fixed(20, &[], 0.0));
        // Period 10 is far above the bottleneck load (4): completions are
        // period-spaced.
        let p = rep.achieved_period().unwrap();
        assert!((p - 10.0).abs() < 1e-9, "period {p}");
    }

    #[test]
    fn crash_from_start_uses_surviving_lane() {
        let (g, p, s) = sample();
        let rep = asap(&g, &p, &s, &fixed(4, &[2], 0.0));
        assert_eq!(rep.produced(), 4);
        // Lane 1 (P2 -> P4) still delivers every item at the same times.
        assert_eq!(rep.item_latency[0], Some(9.0));
    }

    #[test]
    fn mid_stream_crash_loses_late_items_when_both_lanes_cut() {
        let (g, p, s) = sample();
        // Both exit hosts die at t=25: items completing before that
        // survive, later ones are lost.
        let rep = asap(&g, &p, &s, &fixed(6, &[2, 3], 25.0));
        assert!(rep.produced() >= 2, "early items survive");
        assert!(rep.lost() >= 2, "late items lost");
    }

    #[test]
    fn double_crash_from_start_loses_all() {
        let (g, p, s) = sample();
        let rep = asap(&g, &p, &s, &fixed(3, &[2, 3], 0.0));
        assert_eq!(rep.produced(), 0);
    }

    #[test]
    fn trace_never_matches_failure_free() {
        // Nothing fails, so re-routing has nothing to do.
        let (g, p, s) = sample();
        let base = asap(&g, &p, &s, &fixed(8, &[], 0.0));
        let cfg = TraceConfig::new(8, CrashTrace::never(4), RecoveryPolicy::Reroute);
        let rep = asap(&g, &p, &s, &cfg);
        assert_eq!(rep.item_latency, base.item_latency);
        assert_eq!(rep.item_completion, base.item_completion);
        assert_eq!(rep.makespan.to_bits(), base.makespan.to_bits());
    }

    #[test]
    fn reroute_recovers_items_fail_stop_loses() {
        let (g, p, s) = sample();
        // t0's lane-0 host (P1) dies at t=15: from item ~2 onward, lane 0's
        // consumer (t1 on P3) starves under fail-stop... but its sibling
        // t0^2 on P2 survives, so re-routing keeps feeding it. Meanwhile
        // lane 1 stays fully alive, so nothing is lost either way — kill
        // P2's t1 host (P4... ProcId(3)) too, leaving only the crossed
        // path t0^2 (P2) -> re-route -> t1^1 (P3).
        let trace = CrashTrace::from_crash_times(vec![15.0, f64::INFINITY, f64::INFINITY, 15.0]);
        let failstop = asap(
            &g,
            &p,
            &s,
            &TraceConfig::new(8, trace.clone(), RecoveryPolicy::FailStop),
        );
        let reroute = asap(
            &g,
            &p,
            &s,
            &TraceConfig::new(8, trace, RecoveryPolicy::Reroute),
        );
        assert!(
            reroute.produced() > failstop.produced(),
            "re-route should recover items fail-stop loses ({} vs {})",
            reroute.produced(),
            failstop.produced()
        );
        // With one entry and one exit replica surviving, every item should
        // still be produced via the re-routed path.
        assert_eq!(reroute.produced(), 8);
    }

    #[test]
    fn trace_replay_serializes_messages_sharing_a_link() {
        let cfg = TraceConfig::new(1, CrashTrace::never(4), RecoveryPolicy::FailStop);
        // Matrix platform: ports are free, both transfers run 4..7 and both
        // sinks finish at 9.
        let (g, flat, s) = two_pipelines(false);
        assert_eq!(asap(&g, &flat, &s, &cfg).item_latency[0], Some(9.0));
        // Contended platform: the second transfer waits for the shared
        // middle link (7..10), so its sink finishes at 12.
        let (g, routed, s) = two_pipelines(true);
        assert_eq!(asap(&g, &routed, &s, &cfg).item_latency[0], Some(12.0));
    }

    /// Replays `crash_at` under `policy` and checks the report bit for bit
    /// against values recorded on the engine that queued every admission
    /// up front and re-scanned every in-edge at every crash event.
    fn assert_replay(
        (g, p, s): &(TaskGraph, Platform, Schedule),
        crash_at: &[f64],
        policy: RecoveryPolicy,
        (latency, completion, makespan): &Want,
    ) {
        let trace = CrashTrace::from_crash_times(crash_at.to_vec());
        let rep = asap(g, p, s, &TraceConfig::new(latency.len(), trace, policy));
        let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
            v.iter().map(|t| t.map(f64::to_bits)).collect()
        };
        let what = format!("crashes at {crash_at:?}, {policy:?}");
        assert_eq!(bits(&rep.item_latency), bits(latency), "{what}: latency");
        assert_eq!(
            bits(&rep.item_completion),
            bits(completion),
            "{what}: completion"
        );
        assert_eq!(
            rep.makespan.to_bits(),
            makespan.to_bits(),
            "{what}: makespan"
        );
    }

    /// An expected report: item latencies, item completions, makespan.
    type Want = (Vec<Option<f64>>, Vec<Option<f64>>, f64);

    /// Items with these latencies (`NAN` = lost), admitted every `period`.
    fn want(latency: &[f64], period: f64, makespan: f64) -> Want {
        let latency: Vec<_> = latency
            .iter()
            .map(|&l| (!l.is_nan()).then_some(l))
            .collect();
        let completion = latency
            .iter()
            .enumerate()
            .map(|(k, l)| l.map(|l| l + k as f64 * period))
            .collect();
        (latency, completion, makespan)
    }

    /// Tie rules under both policies: simultaneous crashes (at an instant
    /// shared with admissions or arrivals), a crash at time 0, and crashes
    /// after the stream has drained.
    #[test]
    fn crash_ties_replay_bit_for_bit() {
        const INF: f64 = f64::INFINITY;
        const X: f64 = f64::NAN;
        let (sample, chain) = (sample(), two_pipelines(true));
        // (fixture, crash times, expected under FailStop, under Reroute)
        let cases = [
            // P2 and P4 die together while item 2 is on lane 0's wire; its
            // only source is P4, the higher index: the re-route runs in P2's
            // crash event, which pops first.
            (
                &lanes(&[3, 2], &[0, 1], 10.0),
                [INF, 25.0, INF, 25.0],
                want(&[9.0, 9.0, X, X, X, X], 10.0, 54.0),
                want(&[9.0, 9.0, 12.0, 12.0, 12.0, 12.0], 10.0, 62.0),
            ),
            // Every processor dies at item 2's admission.
            (
                &sample,
                [20.0; 4],
                want(&[9.0, 9.0, X, X, X, X], 10.0, 19.0),
                want(&[9.0, 9.0, X, X, X, X], 10.0, 19.0),
            ),
            // Lane 0's source is dead from the start: re-routing feeds t1^0
            // from t0^1, which only moves the makespan.
            (
                &sample,
                [0.0, INF, INF, INF],
                want(&[9.0; 6], 10.0, 59.0),
                want(&[9.0; 6], 10.0, 62.0),
            ),
            (
                &sample,
                [1000.0; 4],
                want(&[9.0; 6], 10.0, 59.0),
                want(&[9.0; 6], 10.0, 59.0),
            ),
            // Both sources die at item 2's admission; the second pipeline's
            // source P2 has the higher index. ε = 0: nothing to re-route.
            (
                &chain,
                [40.0, 40.0, INF, INF],
                want(&[12.0, 12.0, X, X, X, X], 20.0, 32.0),
                want(&[12.0, 12.0, X, X, X, X], 20.0, 32.0),
            ),
            // Every processor dies as item 2's first message arrives.
            (
                &chain,
                [47.0; 4],
                want(&[12.0, 12.0, X, X, X, X], 20.0, 44.0),
                want(&[12.0, 12.0, X, X, X, X], 20.0, 44.0),
            ),
            (
                &chain,
                [INF, 0.0, INF, INF],
                want(&[X; 6], 20.0, 109.0),
                want(&[X; 6], 20.0, 109.0),
            ),
            (
                &chain,
                [1000.0; 4],
                want(&[12.0; 6], 20.0, 112.0),
                want(&[12.0; 6], 20.0, 112.0),
            ),
        ];
        for (fixture, crash_at, failstop, reroute) in &cases {
            assert_replay(fixture, crash_at, RecoveryPolicy::FailStop, failstop);
            assert_replay(fixture, crash_at, RecoveryPolicy::Reroute, reroute);
        }
    }

    /// Where a recovery runs within its instant decides who gets a port or
    /// a processor first.
    #[test]
    fn same_instant_recovery_order() {
        const INF: f64 = f64::INFINITY;
        // Lanes 0 and 1 lose their sources (P4 and P2) at 15 while item 1
        // is on the wire, and P6 is dead from the start. Both re-routes run
        // in P2's crash event, in replica order, so t0^2 on P3 sends to lane
        // 0 first and t1^0 finishes at 22. Lane 1's consumer dies at 21,
        // before its copy arrives. Scanning lane 0 in P4's own crash event
        // would send lane 1 first: its output dies, and item 1 ends at 25.
        assert_replay(
            &lanes(&[3, 1, 2], &[0, 4, 5], 10.0),
            &[INF, 15.0, INF, 15.0, 21.0, 0.0],
            RecoveryPolicy::Reroute,
            &want(&[9.0, 12.0, 12.0, 12.0], 10.0, 42.0),
        );
        // Δ = 5 and t1^1 shares P1 with t0^0. P2 dies at 10 with item 1 on
        // the wire to P1: its crash event delivers the item locally from
        // t0^0, but item 2's admissions at 10 pop before that delivery, so
        // t0^0 takes the processor first.
        assert_replay(
            &lanes(&[0, 1], &[2, 0], 5.0),
            &[INF, 10.0, INF, INF],
            RecoveryPolicy::Reroute,
            &want(&[9.0, 9.0, 10.0, 10.0], 5.0, 26.0),
        );
    }

    /// A cut noticed when its transfer would start, after the current
    /// instant, retries at that later time, so the next crash event must
    /// retry it as well. Three lanes, Δ = 5. P1 dies at 10 while item 1 is
    /// on the wire to P4: its crash event re-routes the item from t0^1 on
    /// P2, whose send port is busy until 12. P2 dies at 11, so the re-route
    /// is cut at 12 and retried at 12, when the consumer P4 (dead at 11.5)
    /// is gone. P2's own crash event at 11 still sees P4 alive and
    /// re-routes from t0^2 on P3. That transfer dies with P4 but holds P3's
    /// send port from 12 to 15, which delays lane 2's item 2: latency 13,
    /// not 10.
    #[test]
    fn cut_retried_later_is_retried_by_the_next_crash() {
        let inf = f64::INFINITY;
        assert_replay(
            &lanes(&[0, 1, 2], &[3, 4, 5], 5.0),
            &[10.0, 11.0, inf, 11.5, inf, inf],
            RecoveryPolicy::Reroute,
            &want(&[9.0, 9.0, 13.0, 14.0], 5.0, 32.0),
        );
    }

    /// A slot without any source choice (a schedule `validate` rejects)
    /// is fed only by crash-event re-routes, so every crash event scans
    /// it. Here t1^1 has none: P1's crash at 25 recovers items 0–2 for it,
    /// and P3's at 45 recovers items 3 and 4, which t1^0 on P3 never
    /// delivers.
    #[test]
    fn slot_without_source_choice_is_scanned_by_every_crash() {
        let (g, p, s) = lanes(&[0, 1], &[2, 3], 10.0);
        let mut data = s.to_data();
        data.sources[3].clear();
        data.comm_events.truncate(1);
        let s = Schedule::new(&g, &p, data);
        let inf = f64::INFINITY;
        assert_replay(
            &(g, p, s),
            &[25.0, inf, 45.0, inf],
            RecoveryPolicy::Reroute,
            &want(&[9.0, 9.0, 12.0, 14.0, 15.0, f64::NAN], 10.0, 55.0),
        );
    }

    /// A re-route over a pair whose transfer takes no time is a local
    /// delivery at the producer's finish. P1 is dead from the start, so
    /// t1^0 on P3 is fed from t0^1 on P2, and the P2 → P3 delay is 0: t1^0
    /// runs 4..6. As a 0-long message the re-route would queue behind lane
    /// 1's transfer on P2's send port (4..7) and every item would take 9.
    #[test]
    fn zero_cost_reroute_is_delivered_locally() {
        let (g, _, s) = sample();
        let mut delays = vec![1.0; 16];
        for (i, d) in delays.iter_mut().enumerate() {
            if i % 5 == 0 || i == 4 + 2 {
                *d = 0.0; // the diagonal, and P2 → P3
            }
        }
        let p = Platform::from_parts(vec![1.0; 4], delays);
        let inf = f64::INFINITY;
        assert_replay(
            &(g, p, s),
            &[0.0, inf, inf, inf],
            RecoveryPolicy::Reroute,
            &want(&[6.0; 4], 10.0, 39.0),
        );
    }

    #[test]
    fn reroute_without_any_survivor_still_loses() {
        let (g, p, s) = sample();
        // Both exit hosts die: no amount of re-routing produces outputs.
        let trace = CrashTrace::from_crash_times(vec![f64::INFINITY, f64::INFINITY, 5.0, 5.0]);
        let rep = asap(
            &g,
            &p,
            &s,
            &TraceConfig::new(6, trace, RecoveryPolicy::Reroute),
        );
        assert_eq!(rep.produced(), 0);
    }
}
