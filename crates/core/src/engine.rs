//! The contention-aware scheduling engine shared by LTF and R-LTF.
//!
//! The engine holds the partially-built schedule in its *scheduling
//! direction*: LTF runs it directly on the application graph, R-LTF on the
//! reversed graph (a bottom-up traversal of `G` is a forward traversal of
//! `Ĝ`; edge ids are shared, so decisions map back one-to-one — see
//! [`crate::convert`]).
//!
//! Placement works in two phases: [`Engine::probe`] computes, without
//! mutating anything, where a replica would land on a candidate processor —
//! start/finish times under insertion-based compute scheduling, the channel
//! reservations of its incoming messages, the resulting pipeline stage,
//! and whether condition (1) (the throughput constraint) holds.
//! [`Engine::commit`] then applies the chosen probe.
//!
//! Every message holds the channels [`Platform::channels`] names — its
//! sender's send port, its receiver's receive port and each link of its
//! route — for one common window, found by
//! [`common_fit`](ltf_schedule::intervals::common_fit). The engine keeps
//! one timeline and one load per channel, so the one-port model and link
//! contention are one rule: a matrix platform's messages simply hold no
//! link.
//! [`Engine::probe_bound`] is the cheap, period-free lower bound the
//! driver's candidate scans use to skip probes that cannot win.
//!
//! ### Memory layout
//!
//! The committed schedule lives in [`EngineState`], a struct-of-arrays
//! block indexed by dense replica id (`task.index() * nrep + copy`) on the
//! replica axis and by `ProcId::index()` on the processor axis. The probe
//! loops in [`crate::driver`] never touch the allocator in steady state:
//!
//! * Every per-probe buffer — the flattened transfer list, the per-channel
//!   overlay deltas, the planned-message list — lives in a caller-owned
//!   [`ProbeWorkspace`] / [`ProbeBuf`] and is `clear()`ed, not rebuilt.
//!   Source plans are flat [`PlanBuf`] arenas (edge list + offset table +
//!   copy pool) instead of nested `Vec<(EdgeId, Vec<u8>)>`.
//! * Probing evaluates channel contention against [`OverlayView`]s — the
//!   committed channel timelines from the bucketed [`IntervalIndex`] plus
//!   a small delta of the candidate's own planned messages. Rejected
//!   candidates leave nothing to clean up, and no `IntervalSet` is ever
//!   cloned on the probe path.
//! * Committing can be journaled: between [`Engine::checkpoint`] and
//!   [`Engine::rollback_to`] every mutation records its exact inverse
//!   (old float values, not deltas, so rollback is bit-exact). The journal
//!   itself is flat — fixed-size records plus two side stacks for the
//!   variable-length parts, the `(channel, old load)` pairs of committed
//!   messages and the upstream entries — and its buffers are retained across
//!   [`Engine::discard_journal`], so speculation allocates nothing once
//!   warm. Downstream-closure bitsets released by a rollback are recycled
//!   through a free pool ([`Engine::take_set`]).
//!
//! ### Incremental reversal (R-LTF)
//!
//! A reverse-mode engine ([`Engine::new_reversed`]) additionally maintains
//! the *forward* source relation while it schedules `Ĝ`: committing copy
//! `i` of `x` with source copies `J` of `y` over edge `e` records `i` as a
//! forward source of each `(y, j)` on `e`, into a slot pre-laid in the
//! original graph's in-edge order (the per-instance slot table comes from
//! [`crate::api::PreparedInstance`]). Rollback pops the same entries, so
//! after a complete run [`crate::convert::reversed_schedule`] takes the
//! transposed relation ready-made instead of re-deriving it per solve.
//! Copies commit in ascending order, so each slot's source list is sorted
//! by construction — bit-identical to the batch transposition it replaces.

use crate::config::{AlgoConfig, PeriodWindow};
use ltf_graph::{EdgeId, TaskGraph, TaskId};
use ltf_platform::{Platform, ProcId};
use ltf_schedule::intervals::common_fit;
use ltf_schedule::{CommEvent, IntervalIndex, OverlayDelta, ReplicaId, SourceChoice, EPS};

/// A flat source plan: which predecessor copies feed each in-edge of a
/// replica being placed. Replaces the nested `Vec<(EdgeId, Vec<u8>)>` so a
/// plan can be rebuilt per candidate without heap traffic: `edges[i]` is
/// fed by `copies[offs[i]..offs[i + 1]]`.
#[derive(Debug, Default)]
pub(crate) struct PlanBuf {
    edges: Vec<EdgeId>,
    offs: Vec<u32>,
    copies: Vec<u8>,
}

impl PlanBuf {
    pub fn new() -> Self {
        Self {
            edges: Vec::new(),
            offs: vec![0],
            copies: Vec::new(),
        }
    }

    /// Reset to the empty plan, keeping all three buffers.
    pub fn clear(&mut self) {
        self.edges.clear();
        self.copies.clear();
        self.offs.truncate(1);
        if self.offs.is_empty() {
            self.offs.push(0); // Default-constructed buffer.
        }
    }

    /// Append an edge fed by a single copy.
    pub fn push_single(&mut self, e: EdgeId, c: u8) {
        self.edges.push(e);
        self.copies.push(c);
        self.offs.push(self.copies.len() as u32);
    }

    /// Append an edge fed by every copy (receive-from-all).
    pub fn push_all(&mut self, e: EdgeId, nrep: usize) {
        self.edges.push(e);
        self.copies.extend(0..nrep as u8);
        self.offs.push(self.copies.len() as u32);
    }

    /// Rebuild as the full receive-from-all plan of `t`.
    pub fn fill_receive_from_all(&mut self, g: &TaskGraph, t: TaskId, nrep: usize) {
        self.clear();
        for &e in g.pred_edges(t) {
            self.push_all(e, nrep);
        }
    }

    /// Iterate `(edge, feeding copies)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, &[u8])> + '_ {
        self.edges.iter().enumerate().map(move |(i, &e)| {
            let lo = self.offs[i] as usize;
            let hi = self.offs[i + 1] as usize;
            (e, &self.copies[lo..hi])
        })
    }

    /// Number of edges in the plan.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// One planned (not yet committed) incoming message.
#[derive(Debug, Clone, Copy)]
struct PlannedComm {
    edge: EdgeId,
    src: ReplicaId,
    src_proc: ProcId,
    start: f64,
    dur: f64,
}

/// Set of processors as a bitmask (the engine asserts `m ≤ MAX_PROCS`).
pub(crate) type ProcMask = u128;

/// The most processors a platform may have: the engine keeps processor
/// sets in one 128-bit mask and asserts this bound on construction. Entry
/// points that take platforms from outside the program reject larger ones
/// with a typed error before solving.
pub const MAX_PROCS: usize = ProcMask::BITS as usize;

/// A set of replicas (dense indices) as a growable bitset. Used to track
/// downstream closures through single-source feeding chains. Grows lazily
/// on insertion, so the engine's `n`-element closure table costs `O(n)`
/// empty sets up front instead of `O(n²)` words.
#[derive(Debug, Clone, Eq, Default)]
pub(crate) struct ReplicaSet {
    words: Vec<u64>,
}

/// Set equality (a lazily-grown set equals its fixed-capacity twin).
impl PartialEq for ReplicaSet {
    fn eq(&self, other: &Self) -> bool {
        let n = self.words.len().min(other.words.len());
        self.words[..n] == other.words[..n]
            && self.words[n..].iter().all(|&w| w == 0)
            && other.words[n..].iter().all(|&w| w == 0)
    }
}

impl ReplicaSet {
    #[inline]
    pub fn insert(&mut self, idx: usize) {
        let w = idx / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (idx % 64);
    }

    pub fn union_with(&mut self, other: &ReplicaSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// Reset to the empty set, keeping the allocation (scratch reuse in
    /// the per-candidate loops).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterate the contained dense indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(w * 64 + b)
                }
            })
        })
    }
}

/// Result of probing one `(replica, processor)` placement. Reusable: the
/// driver keeps a candidate and an incumbent buffer and swaps them, so the
/// planned-message list is never reallocated in steady state.
#[derive(Debug)]
pub(crate) struct ProbeBuf {
    /// Candidate processor.
    pub proc: ProcId,
    /// Computed start time (insertion-based).
    pub start: f64,
    /// Computed finish time `F_u(t)`.
    pub finish: f64,
    /// Pipeline stage the replica would get (scheduling-direction).
    pub stage: u32,
    /// Crash cone: processors whose single failure would silence this
    /// replica (its host, plus — through single-source edges — the cones
    /// of its designated producers).
    pub kill: ProcMask,
    planned: Vec<PlannedComm>,
}

impl Default for ProbeBuf {
    fn default() -> Self {
        Self {
            proc: ProcId(0),
            start: 0.0,
            finish: 0.0,
            stage: 0,
            kill: 0,
            planned: Vec::new(),
        }
    }
}

impl ProbeBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite with `other`'s contents, reusing the planned buffer.
    pub fn copy_from(&mut self, other: &ProbeBuf) {
        self.proc = other.proc;
        self.start = other.start;
        self.finish = other.finish;
        self.stage = other.stage;
        self.kill = other.kill;
        self.planned.clear();
        self.planned.extend_from_slice(&other.planned);
    }

    /// Number of planned (cross-processor, non-zero) incoming messages.
    #[cfg(test)]
    pub fn num_planned(&self) -> usize {
        self.planned.len()
    }

    /// Start times of the planned messages (test inspection).
    #[cfg(test)]
    pub fn planned_starts(&self) -> Vec<f64> {
        self.planned.iter().map(|pc| pc.start).collect()
    }
}

/// Per-probe working memory: the flattened transfer list and the tentative
/// channel reservations. Owned by the driver's scratch arena and reused
/// for every candidate; a steady-state probe performs no heap allocation.
#[derive(Debug, Default)]
pub(crate) struct ProbeWorkspace {
    items: Vec<(EdgeId, ReplicaId)>,
    /// One slot per channel the probe's messages hold; the first `live`
    /// are in use, the rest keep their buffers for later probes.
    slots: Vec<ChanSlot>,
    live: usize,
    /// Per channel, `(probe, i)`: the channel holds slot `i` in probe
    /// number `probe`. Entries of earlier probes are stale, so nothing is
    /// cleared between probes, and a route link is found without a scan.
    slot_of: Vec<(u64, u32)>,
    /// Number of the current probe (the first is 1).
    probes: u64,
    /// Slot indices of the current message's channels, in
    /// [`Platform::channels`] order (cleared per message, capacity
    /// retained).
    msg: Vec<usize>,
    /// Every period comparison of every probe made through this workspace
    /// (one run's worth: the driver owns one workspace per run).
    window: PeriodWindow,
}

/// Tentative reservations on one channel a probe's messages hold.
#[derive(Debug)]
struct ChanSlot {
    chan: usize,
    delta: OverlayDelta,
    load: f64,
}

impl ProbeWorkspace {
    /// The period window of the probes made so far.
    pub fn window(&self) -> PeriodWindow {
        self.window
    }

    /// Index of the slot for `chan`, reusing retired slots before growing.
    fn slot(&mut self, chan: usize) -> usize {
        let (probe, i) = self.slot_of[chan];
        if probe == self.probes {
            return i as usize;
        }
        let i = self.live;
        self.slot_of[chan] = (self.probes, i as u32);
        if i == self.slots.len() {
            self.slots.push(ChanSlot {
                chan,
                delta: OverlayDelta::new(),
                load: 0.0,
            });
        } else {
            let s = &mut self.slots[i];
            s.chan = chan;
            s.delta.clear();
            s.load = 0.0;
        }
        self.live += 1;
        i
    }
}

/// Saved metadata of a replica slot, restored verbatim on rollback.
#[derive(Debug, Clone, Copy)]
struct ReplicaMeta {
    proc: ProcId,
    start: f64,
    finish: f64,
    stage: u32,
    kill: ProcMask,
}

/// One journaled mutation with everything needed to revert it exactly.
/// Old values (not deltas) are recorded so floating-point state is
/// restored bit-for-bit. Variable-length payloads (channel loads, touched
/// upstream entries) live on the journal's side stacks; the records here
/// only carry counts, so pushing and popping them never allocates.
#[derive(Debug)]
enum UndoRec {
    /// Inverse of [`Engine::commit`]; pops the commit's `n_comms` messages
    /// off the event log, and each message's channels off the channel
    /// stack.
    Commit {
        r: u32,
        proc: ProcId,
        old_meta: ReplicaMeta,
        old_sigma: f64,
        old_max_stage: u32,
        cpu_iv: (f64, f64),
        n_comms: u32,
    },
    /// Inverse of [`Engine::set_down`]; the displaced set is recycled into
    /// the free pool on rollback or discard.
    Down { r: u32, old: ReplicaSet },
    /// Inverse of [`Engine::register_upstream_host`]; pops `n` entries off
    /// the upstream-undo stack.
    Upstream { n: u32 },
}

/// Flat undo journal. All buffers are retained across
/// [`Engine::discard_journal`], so a warm speculation cycle is
/// allocation-free.
#[derive(Debug, Default)]
struct Journal {
    active: bool,
    recs: Vec<UndoRec>,
    /// `(channel, old load)` of each channel a committed message holds, in
    /// commit order; a message's event says how many are its own.
    chans: Vec<(u32, f64)>,
    upstream: Vec<(u32, ProcMask, ProcMask)>,
}

/// Position in the undo journal returned by [`Engine::checkpoint`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineMark(usize);

/// The committed schedule, struct-of-arrays. Replica attributes are dense
/// vectors over `task.index() * nrep + copy`; processor attributes over
/// `ProcId::index()`. Read-mostly: only [`Engine::commit`] and the
/// closure/upstream trackers write to it, every probe merely reads.
#[derive(Debug, Clone)]
pub(crate) struct EngineState {
    // Per replica.
    pub placed: Vec<bool>,
    pub proc_of: Vec<ProcId>,
    pub start: Vec<f64>,
    pub finish: Vec<f64>,
    pub stage: Vec<u32>,
    /// Crash cone of each placed replica (see [`ProbeBuf::kill`]);
    /// meaningful in forward (LTF) mode, where predecessors are placed
    /// first.
    pub kill: Vec<ProcMask>,
    /// Committed source structure (scheduling-direction).
    pub sources: Vec<Vec<SourceChoice>>,
    /// Reverse (R-LTF) mode: downstream closure of each replica — the set
    /// of replicas it transitively feeds through single-source edges
    /// (in application-graph direction). Fixed at placement time.
    pub down: Vec<ReplicaSet>,
    /// Reverse mode: hosts of the upstream closure gathered so far for
    /// each replica (its own host plus the hosts of every replica known to
    /// feed it through single-source chains).
    pub ushost: Vec<ProcMask>,
    // Per task.
    /// Reverse mode: per task, the union of `ushost` over its copies.
    pub allush: Vec<ProcMask>,
    // Per processor.
    pub sigma: Vec<f64>,
    pub cpu: IntervalIndex,
    // Per channel (`Platform::channels`: send ports, receive ports, links).
    /// Busy timeline of each channel.
    pub chan: IntervalIndex,
    /// Committed transfer load of each channel: `C^O` of a send port,
    /// `C^I` of a receive port, a link's traffic. Condition (1) keeps each
    /// one within the period.
    pub load: Vec<f64>,
    // Scalars / event log.
    pub comm_events: Vec<CommEvent>,
    /// Largest stage assigned so far (scheduling-direction); drives
    /// R-LTF's Rule 1.
    pub max_stage: u32,
}

impl EngineState {
    fn new(n: usize, num_tasks: usize, m: usize, nchan: usize) -> Self {
        Self {
            placed: vec![false; n],
            proc_of: vec![ProcId(0); n],
            start: vec![0.0; n],
            finish: vec![0.0; n],
            stage: vec![0; n],
            kill: vec![0; n],
            sources: vec![Vec::new(); n],
            down: vec![ReplicaSet::default(); n],
            ushost: vec![0; n],
            allush: vec![0; num_tasks],
            sigma: vec![0.0; m],
            cpu: IntervalIndex::new(m),
            chan: IntervalIndex::new(nchan),
            load: vec![0.0; nchan],
            comm_events: Vec::new(),
            max_stage: 0,
        }
    }
}

/// Reverse-mode companion state: the forward source relation, maintained
/// incrementally as `Ĝ` commits happen (see the module docs).
struct RevView<'a> {
    /// The ORIGINAL application graph `G`.
    orig: &'a TaskGraph,
    /// `edge_slot[e]` = position of `e` in `G.pred_edges(dst_G(e))`; comes
    /// from the prepared instance, computed once per `(G, P)` pair.
    edge_slot: &'a [u32],
    /// Forward sources per original-direction replica, pre-laid with one
    /// (initially empty) [`SourceChoice`] per in-edge of the task in `G`.
    fwd_sources: Vec<Vec<SourceChoice>>,
}

/// Partially-built schedule state.
pub(crate) struct Engine<'a> {
    pub g: &'a TaskGraph,
    pub p: &'a Platform,
    pub period: f64,
    pub nrep: usize,
    pub state: EngineState,
    rev: Option<RevView<'a>>,
    journal: Journal,
    /// Recycled closure bitsets: rollbacks and discards return the sets
    /// they displace, [`Engine::take_set`] hands them back out.
    free_sets: Vec<ReplicaSet>,
}

impl<'a> Engine<'a> {
    pub fn new(g: &'a TaskGraph, p: &'a Platform, cfg: &AlgoConfig) -> Self {
        let nrep = cfg.replicas();
        let n = g.num_tasks() * nrep;
        let m = p.num_procs();
        assert!(
            m <= MAX_PROCS,
            "ProcMask supports up to {MAX_PROCS} processors"
        );
        Self {
            g,
            p,
            period: cfg.period,
            nrep,
            state: EngineState::new(n, g.num_tasks(), m, p.num_channels()),
            rev: None,
            journal: Journal::default(),
            free_sets: Vec::new(),
        }
    }

    /// Reverse-mode engine: schedules `rev` (`= orig.reversed()`) while
    /// maintaining the forward source relation for
    /// [`crate::convert::reversed_schedule`]. `edge_slot` is the
    /// per-instance slot table (see [`RevView::edge_slot`]).
    pub fn new_reversed(
        rev: &'a TaskGraph,
        orig: &'a TaskGraph,
        edge_slot: &'a [u32],
        p: &'a Platform,
        cfg: &AlgoConfig,
    ) -> Self {
        let mut e = Self::new(rev, p, cfg);
        let nrep = e.nrep;
        let mut fwd_sources: Vec<Vec<SourceChoice>> = vec![Vec::new(); e.num_replicas()];
        for y in orig.tasks() {
            let pe = orig.pred_edges(y);
            for j in 0..nrep as u8 {
                fwd_sources[ReplicaId::new(y, j).dense(nrep)].extend(pe.iter().map(|&edge| {
                    SourceChoice {
                        edge,
                        sources: Vec::new(),
                    }
                }));
            }
        }
        e.rev = Some(RevView {
            orig,
            edge_slot,
            fwd_sources,
        });
        e
    }

    /// Total number of replicas (`v · (ε+1)`).
    #[inline]
    pub fn num_replicas(&self) -> usize {
        self.state.placed.len()
    }

    #[inline]
    pub fn dense(&self, t: TaskId, copy: u8) -> usize {
        ReplicaId::new(t, copy).dense(self.nrep)
    }

    /// Test helper: whether a replica has been committed.
    #[cfg(test)]
    pub fn is_placed(&self, t: TaskId, copy: u8) -> bool {
        self.state.placed[self.dense(t, copy)]
    }

    /// Test helper: host of a committed replica.
    #[cfg(test)]
    pub fn proc_of(&self, t: TaskId, copy: u8) -> ProcId {
        self.state.proc_of[self.dense(t, copy)]
    }

    /// Latest finish time over the copies of `t` (used for dynamic priority
    /// updates).
    pub fn task_finish(&self, t: TaskId) -> f64 {
        (0..self.nrep)
            .map(|c| self.state.finish[self.dense(t, c as u8)])
            .fold(0.0, f64::max)
    }

    /// Crash cone of a placed replica.
    #[inline]
    pub fn kill_of(&self, t: TaskId, copy: u8) -> ProcMask {
        self.state.kill[self.dense(t, copy)]
    }

    /// Whether any replica has been committed to `u` yet (drives R-LTF's
    /// clustering tie-break).
    #[inline]
    pub fn proc_used(&self, u: ProcId) -> bool {
        self.state.sigma[u.index()] > 0.0
    }

    /// A cleared closure bitset from the recycling pool (or a fresh one).
    pub fn take_set(&mut self) -> ReplicaSet {
        match self.free_sets.pop() {
            Some(mut s) => {
                s.clear();
                s
            }
            None => ReplicaSet::default(),
        }
    }

    /// Estimated arrival time of data from a placed source replica onto
    /// processor `u`, ignoring port queueing (used to rank one-to-one
    /// heads, the paper's sort of `B(t_i)` by communication finish times).
    pub fn arrival_estimate(&self, edge: EdgeId, src: ReplicaId, u: ProcId) -> f64 {
        let sidx = src.dense(self.nrep);
        debug_assert!(self.state.placed[sidx], "source not placed");
        let h = self.state.proc_of[sidx];
        let vol = self.g.edge(edge).volume;
        self.state.finish[sidx] + self.p.comm_time(vol, h, u)
    }

    /// Stage the replica would take from a single source over `edge` when
    /// hosted on `u`.
    pub fn stage_contribution(&self, src: ReplicaId, u: ProcId) -> u32 {
        let sidx = src.dense(self.nrep);
        self.state.stage[sidx] + u32::from(self.state.proc_of[sidx] != u)
    }

    /// Probe placing a copy of `t` on `u` with the given sources, writing
    /// the outcome into `out`. Returns `false` when condition (1) — the
    /// throughput constraint — would be violated. Does not mutate the
    /// engine, and performs no heap allocation once `ws`/`out` are warm.
    /// Condition (1)'s checks are the only place the period enters a run:
    /// `σ_u + w` first; then, per message, each route link's load and the
    /// sender's `C^O`; then `u`'s `C^I` once. Each goes through
    /// [`PeriodWindow::exceeds`], which records it in `ws`.
    ///
    /// Channel contention is evaluated against overlays of the committed
    /// timelines; no per-candidate `IntervalSet` clone takes place.
    pub fn probe(
        &self,
        t: TaskId,
        u: ProcId,
        plan: &PlanBuf,
        ws: &mut ProbeWorkspace,
        out: &mut ProbeBuf,
    ) -> bool {
        let st = &self.state;
        let ui = u.index();
        let exec = self.p.exec_time(self.g.exec(t), u);
        if ws.window.exceeds(st.sigma[ui] + exec, self.period) {
            return false;
        }

        // Flatten and order incoming transfers by producer finish time so
        // the channel reservations are deterministic. The comparator is a
        // strict total order over the (distinct) items, so the unstable
        // sort is deterministic too.
        ws.items.clear();
        for (edge, copies) in plan.iter() {
            let pred = self.g.edge(edge).src;
            for &c in copies {
                ws.items.push((edge, ReplicaId::new(pred, c)));
            }
        }
        ws.items.sort_unstable_by(|a, b| {
            let fa = st.finish[a.1.dense(self.nrep)];
            let fb = st.finish[b.1.dense(self.nrep)];
            fa.partial_cmp(&fb)
                .expect("finite times")
                .then(a.0.cmp(&b.0))
                .then(a.1.copy.cmp(&b.1.copy))
        });

        // Every message holds `u`'s receive port, so its slot comes first
        // and stays; its `C^I` is checked once, after the last message.
        ws.probes += 1;
        ws.live = 0;
        ws.slot_of.resize(self.p.num_channels(), (0, 0));
        let recv = ws.slot(self.p.channels(u, u).recv);
        let mut ready = 0.0f64;
        let mut stage = 1u32;
        out.planned.clear();

        // Crash cone: host plus, per in-edge, the intersection of the
        // sources' cones (a single crash starves the edge only when it is
        // in every source's cone; with a single source this is its cone).
        let mut kill: ProcMask = 1u128 << ui;
        for (edge, copies) in plan.iter() {
            let pred = self.g.edge(edge).src;
            let mut edge_kill: ProcMask = !0;
            for &c in copies {
                edge_kill &= st.kill[self.dense(pred, c)];
            }
            if !copies.is_empty() {
                kill |= edge_kill;
            }
        }

        for k in 0..ws.items.len() {
            let (edge, src) = ws.items[k];
            let sidx = src.dense(self.nrep);
            debug_assert!(st.placed[sidx], "predecessor replica not placed");
            let h = st.proc_of[sidx];
            if h == u {
                ready = ready.max(st.finish[sidx]);
                stage = stage.max(st.stage[sidx]);
                continue;
            }
            stage = stage.max(st.stage[sidx] + 1);
            let dur = self.p.comm_time(self.g.edge(edge).volume, h, u);
            if dur <= EPS {
                // A transfer of zero volume or zero delay crosses
                // processors (η = 1) but holds no channel.
                ready = ready.max(st.finish[sidx]);
                continue;
            }
            // The message holds its channels for one common window, fitted
            // from its producer's finish.
            let ch = self.p.channels(h, u);
            ws.msg.clear();
            let send = ws.slot(ch.send);
            ws.msg.extend([send, recv]);
            for c in ch.links() {
                let l = ws.slot(c);
                ws.msg.push(l);
            }
            let fit = |i: usize| {
                let s = &ws.slots[ws.msg[i]];
                st.chan.overlay(s.chan, &s.delta)
            };
            let start = common_fit(ws.msg.len(), fit, st.finish[sidx], dur);
            for &i in &ws.msg {
                let s = &mut ws.slots[i];
                s.delta.insert(start, start + dur);
                s.load += dur;
            }
            // Condition (1): each route link's load, then the sender's `C^O`.
            for &i in ws.msg[2..].iter().chain(&ws.msg[..1]) {
                let s = &ws.slots[i];
                if ws.window.exceeds(st.load[s.chan] + s.load, self.period) {
                    return false;
                }
            }
            out.planned.push(PlannedComm {
                edge,
                src,
                src_proc: h,
                start,
                dur,
            });
            ready = ready.max(start + dur);
        }
        let r = &ws.slots[recv];
        if ws.window.exceeds(st.load[r.chan] + r.load, self.period) {
            return false;
        }

        let start = st.cpu.bucket(ui).next_fit(ready, exec);
        out.proc = u;
        out.start = start;
        out.finish = start + exec;
        out.stage = stage;
        out.kill = kill;
        true
    }

    /// A lower bound on [`Engine::probe`] that reads no port, link or
    /// period: `(stage, finish)` where `stage` is exactly the stage a
    /// passing probe reports and `finish` is no later than its finish.
    ///
    /// Every incoming message is taken to leave the moment its producer
    /// finished. A probed message never starts earlier: each fit starts
    /// its search there. A local source, or a remote one whose transfer
    /// takes at most `EPS`, counts only its producer's finish, as the
    /// probe does. The replica is then fitted on the CPU with
    /// [`IntervalSet::fit_lower_bound`](ltf_schedule::IntervalSet::fit_lower_bound),
    /// which stays below the fit from any later ready time. The bound does
    /// not depend on the period, so a candidate it rules out loses at every
    /// period.
    pub fn probe_bound(&self, t: TaskId, u: ProcId, plan: &PlanBuf) -> (u32, f64) {
        let st = &self.state;
        let mut ready = 0.0f64;
        let mut stage = 1u32;
        for (edge, copies) in plan.iter() {
            let e = self.g.edge(edge);
            for &c in copies {
                let sidx = self.dense(e.src, c);
                let (h, f) = (st.proc_of[sidx], st.finish[sidx]);
                if h == u {
                    ready = ready.max(f);
                    stage = stage.max(st.stage[sidx]);
                    continue;
                }
                stage = stage.max(st.stage[sidx] + 1);
                let dur = self.p.comm_time(e.volume, h, u);
                ready = ready.max(if dur <= EPS { f } else { f + dur });
            }
        }
        let exec = self.p.exec_time(self.g.exec(t), u);
        let start = st.cpu.bucket(u.index()).fit_lower_bound(ready, exec);
        (stage, start + exec)
    }

    /// Apply a probe: place the replica, reserve its CPU time and its
    /// messages' channels, record the communication events and the source
    /// structure (and, in reverse mode, the transposed forward sources).
    /// Journaled when a checkpoint is outstanding.
    pub fn commit(&mut self, t: TaskId, copy: u8, probe: &ProbeBuf, plan: &PlanBuf) {
        let st = &mut self.state;
        let r = self.nrep * t.index() + copy as usize;
        debug_assert_eq!(r, ReplicaId::new(t, copy).dense(self.nrep));
        assert!(!st.placed[r], "replica committed twice");
        let u = probe.proc;
        let ui = u.index();
        let rep = ReplicaId::new(t, copy);

        if self.journal.active {
            self.journal.recs.push(UndoRec::Commit {
                r: r as u32,
                proc: u,
                old_meta: ReplicaMeta {
                    proc: st.proc_of[r],
                    start: st.start[r],
                    finish: st.finish[r],
                    stage: st.stage[r],
                    kill: st.kill[r],
                },
                old_sigma: st.sigma[ui],
                old_max_stage: st.max_stage,
                cpu_iv: (probe.start, probe.finish),
                n_comms: probe.planned.len() as u32,
            });
        }

        st.placed[r] = true;
        st.proc_of[r] = u;
        st.start[r] = probe.start;
        st.finish[r] = probe.finish;
        st.stage[r] = probe.stage;
        st.kill[r] = probe.kill;
        st.max_stage = st.max_stage.max(probe.stage);

        st.sigma[ui] += probe.finish - probe.start;
        st.cpu.insert(ui, probe.start, probe.finish);

        // Each message holds its channels over its window. A journaled
        // commit records each channel's load before the message adds to it.
        for pc in &probe.planned {
            let end = pc.start + pc.dur;
            for c in self.p.channels(pc.src_proc, u).iter() {
                if self.journal.active {
                    self.journal.chans.push((c as u32, st.load[c]));
                }
                st.chan.insert(c, pc.start, end);
                st.load[c] += pc.dur;
            }
            st.comm_events.push(CommEvent {
                edge: pc.edge,
                src: pc.src,
                dst: rep,
                src_proc: pc.src_proc,
                dst_proc: u,
                start: pc.start,
                finish: end,
            });
        }

        debug_assert!(st.sources[r].is_empty());
        st.sources[r].reserve(plan.num_edges());
        for (edge, copies) in plan.iter() {
            st.sources[r].push(SourceChoice {
                edge,
                sources: copies.to_vec(),
            });
        }

        // Reverse mode: record the transposed forward sources. Copies
        // commit in ascending order, so each slot stays sorted.
        if let Some(rev) = self.rev.as_mut() {
            let nrep = self.nrep;
            for (edge, copies) in plan.iter() {
                let y = rev.orig.edge(edge).dst;
                let slot = rev.edge_slot[edge.index()] as usize;
                for &j in copies {
                    rev.fwd_sources[ReplicaId::new(y, j).dense(nrep)][slot]
                        .sources
                        .push(copy);
                }
            }
        }
    }

    /// Record the downstream closure of a freshly committed replica
    /// (reverse mode). Journaled when a checkpoint is outstanding.
    pub fn set_down(&mut self, r: usize, dset: ReplicaSet) {
        let old = std::mem::replace(&mut self.state.down[r], dset);
        if self.journal.active {
            self.journal.recs.push(UndoRec::Down { r: r as u32, old });
        } else {
            self.free_sets.push(old);
        }
    }

    /// Register `host` as an upstream host of every replica fed by `r`
    /// (including itself), reverse mode. Journaled when a checkpoint is
    /// outstanding.
    pub fn register_upstream_host(&mut self, r: usize, host: usize) {
        let bit: ProcMask = 1 << host;
        let nrep = self.nrep;
        let record = self.journal.active;
        let dset = std::mem::take(&mut self.state.down[r]);
        let mut n = 0u32;
        for idx in dset.iter() {
            if record {
                self.journal.upstream.push((
                    idx as u32,
                    self.state.ushost[idx],
                    self.state.allush[idx / nrep],
                ));
                n += 1;
            }
            self.state.ushost[idx] |= bit;
            self.state.allush[idx / nrep] |= bit;
        }
        self.state.down[r] = dset;
        if record {
            self.journal.recs.push(UndoRec::Upstream { n });
        }
    }

    /// Start (or extend) speculative execution: subsequent mutations are
    /// journaled and can be reverted with [`Engine::rollback_to`].
    pub fn checkpoint(&mut self) -> EngineMark {
        self.journal.active = true;
        EngineMark(self.journal.recs.len())
    }

    /// Revert every mutation journaled after `mark`, restoring the exact
    /// engine state (floats included) at checkpoint time. Journaling stays
    /// enabled so a second attempt can be rolled back to the same mark.
    pub fn rollback_to(&mut self, mark: EngineMark) {
        debug_assert!(self.journal.active, "rollback without checkpoint");
        while self.journal.recs.len() > mark.0 {
            match self.journal.recs.pop().expect("length checked") {
                UndoRec::Commit {
                    r,
                    proc,
                    old_meta,
                    old_sigma,
                    old_max_stage,
                    cpu_iv,
                    n_comms,
                } => {
                    let r = r as usize;
                    let st = &mut self.state;
                    let ui = proc.index();
                    // A message's event gives its window; one channel
                    // entry per channel it held.
                    for _ in 0..n_comms {
                        let ev = st.comm_events.pop().expect("comm event underflow");
                        for _ in self.p.channels(ev.src_proc, ev.dst_proc).iter() {
                            let (c, old) =
                                self.journal.chans.pop().expect("channel undo underflow");
                            st.chan.remove(c as usize, ev.start, ev.finish);
                            st.load[c as usize] = old;
                        }
                    }
                    st.cpu.remove(ui, cpu_iv.0, cpu_iv.1);
                    st.sigma[ui] = old_sigma;
                    st.max_stage = old_max_stage;
                    st.placed[r] = false;
                    st.proc_of[r] = old_meta.proc;
                    st.start[r] = old_meta.start;
                    st.finish[r] = old_meta.finish;
                    st.stage[r] = old_meta.stage;
                    st.kill[r] = old_meta.kill;
                    // Reverse mode: pop the transposed entries this commit
                    // pushed (strictly LIFO across commits, so each slot's
                    // last element is ours).
                    if let Some(rev) = self.rev.as_mut() {
                        let nrep = self.nrep;
                        let copy = (r % nrep) as u8;
                        for choice in self.state.sources[r].iter().rev() {
                            let y = rev.orig.edge(choice.edge).dst;
                            let slot = rev.edge_slot[choice.edge.index()] as usize;
                            for &j in choice.sources.iter().rev() {
                                let popped = rev.fwd_sources[ReplicaId::new(y, j).dense(nrep)]
                                    [slot]
                                    .sources
                                    .pop();
                                debug_assert_eq!(popped, Some(copy));
                            }
                        }
                    }
                    self.state.sources[r].clear();
                }
                UndoRec::Down { r, old } => {
                    let cur = std::mem::replace(&mut self.state.down[r as usize], old);
                    self.free_sets.push(cur);
                }
                UndoRec::Upstream { n } => {
                    for _ in 0..n {
                        let (idx, old_ushost, old_allush) = self
                            .journal
                            .upstream
                            .pop()
                            .expect("upstream undo underflow");
                        self.state.ushost[idx as usize] = old_ushost;
                        self.state.allush[idx as usize / self.nrep] = old_allush;
                    }
                }
            }
        }
    }

    /// End speculative execution: drop all undo records and stop
    /// journaling. Call once the current decision is final. Buffers (and
    /// the closure sets held by `Down` records) are retained for reuse.
    pub fn discard_journal(&mut self) {
        self.journal.active = false;
        for rec in self.journal.recs.drain(..) {
            if let UndoRec::Down { old, .. } = rec {
                self.free_sets.push(old);
            }
        }
        self.journal.chans.clear();
        self.journal.upstream.clear();
    }

    /// `true` once every replica of every task is placed.
    pub fn all_placed(&self) -> bool {
        self.state.placed.iter().all(|&b| b)
    }

    /// Reverse mode: take the incrementally maintained forward source
    /// relation (one entry per in-edge of each task in the original graph,
    /// in `pred_edges` order, sources ascending).
    pub fn take_fwd_sources(&mut self) -> Vec<Vec<SourceChoice>> {
        std::mem::take(
            &mut self
                .rev
                .as_mut()
                .expect("forward sources on a reverse-mode engine")
                .fwd_sources,
        )
    }

    /// Consume the engine into its raw parts
    /// `(proc_of, start, finish, stage, sources, comm_events)`. The stage
    /// vector is the per-commit worst-source stage in scheduling
    /// direction; for a forward (LTF) engine it equals the guaranteed
    /// stages the schedule layer would recompute.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(
        self,
    ) -> (
        Vec<ProcId>,
        Vec<f64>,
        Vec<f64>,
        Vec<u32>,
        Vec<Vec<SourceChoice>>,
        Vec<CommEvent>,
    ) {
        (
            self.state.proc_of,
            self.state.start,
            self.state.finish,
            self.state.stage,
            self.state.sources,
            self.state.comm_events,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltf_graph::GraphBuilder;

    fn chain2() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let t0 = b.add_task(4.0);
        let t1 = b.add_task(2.0);
        b.add_edge(t0, t1, 3.0);
        b.build().unwrap()
    }

    /// Convenience wrapper around the buffer-based probe for tests.
    fn probe(e: &Engine<'_>, t: TaskId, u: ProcId, plan: &PlanBuf) -> Option<ProbeBuf> {
        let mut ws = ProbeWorkspace::default();
        let mut out = ProbeBuf::new();
        e.probe(t, u, plan, &mut ws, &mut out).then_some(out)
    }

    fn rfa_plan(g: &TaskGraph, t: TaskId, nrep: usize) -> PlanBuf {
        let mut plan = PlanBuf::new();
        plan.fill_receive_from_all(g, t, nrep);
        plan
    }

    #[test]
    fn probe_and_commit_entry_task() {
        let g = chain2();
        let p = Platform::homogeneous(2, 1.0, 1.0);
        let cfg = AlgoConfig::new(0, 10.0);
        let mut e = Engine::new(&g, &p, &cfg);
        let plan = PlanBuf::new();
        let pr = probe(&e, TaskId(0), ProcId(0), &plan).unwrap();
        assert_eq!(pr.start, 0.0);
        assert_eq!(pr.finish, 4.0);
        assert_eq!(pr.stage, 1);
        e.commit(TaskId(0), 0, &pr, &plan);
        assert!(e.is_placed(TaskId(0), 0));
        assert_eq!(e.proc_of(TaskId(0), 0), ProcId(0));
        assert_eq!(e.task_finish(TaskId(0)), 4.0);
    }

    #[test]
    fn probe_cross_processor_comm() {
        let g = chain2();
        let p = Platform::homogeneous(2, 1.0, 1.0);
        let cfg = AlgoConfig::new(0, 10.0);
        let mut e = Engine::new(&g, &p, &cfg);
        let empty = PlanBuf::new();
        let pr = probe(&e, TaskId(0), ProcId(0), &empty).unwrap();
        e.commit(TaskId(0), 0, &pr, &empty);

        let plan = rfa_plan(&g, TaskId(1), 1);
        // Remote placement: message of duration 3 after t0 ends at 4.
        let pr = probe(&e, TaskId(1), ProcId(1), &plan).unwrap();
        assert_eq!(pr.start, 7.0);
        assert_eq!(pr.finish, 9.0);
        assert_eq!(pr.stage, 2);
        // Local placement: no message.
        let pr_local = probe(&e, TaskId(1), ProcId(0), &plan).unwrap();
        assert_eq!(pr_local.start, 4.0);
        assert_eq!(pr_local.stage, 1);
        // With every port free the bound is the probe itself; the local
        // source adds no stage.
        assert_eq!(e.probe_bound(TaskId(1), ProcId(1), &plan), (2, 9.0));
        assert_eq!(e.probe_bound(TaskId(1), ProcId(0), &plan), (1, 6.0));
    }

    #[test]
    fn probe_rejects_compute_overload() {
        let g = chain2();
        let p = Platform::homogeneous(1, 1.0, 1.0);
        let cfg = AlgoConfig::new(0, 5.0);
        let mut e = Engine::new(&g, &p, &cfg);
        let empty = PlanBuf::new();
        let pr = probe(&e, TaskId(0), ProcId(0), &empty).unwrap();
        e.commit(TaskId(0), 0, &pr, &empty);
        // 4 + 2 = 6 > 5: infeasible.
        let plan = rfa_plan(&g, TaskId(1), 1);
        assert!(probe(&e, TaskId(1), ProcId(0), &plan).is_none());
    }

    #[test]
    fn probe_rejects_io_overload() {
        let mut b = GraphBuilder::new();
        let t0 = b.add_task(1.0);
        let t1 = b.add_task(1.0);
        b.add_edge(t0, t1, 6.0);
        let g = b.build().unwrap();
        let p = Platform::homogeneous(2, 1.0, 1.0);
        let cfg = AlgoConfig::new(0, 5.0);
        let mut e = Engine::new(&g, &p, &cfg);
        let empty = PlanBuf::new();
        let pr = probe(&e, TaskId(0), ProcId(0), &empty).unwrap();
        e.commit(TaskId(0), 0, &pr, &empty);
        // Message of 6 > period 5 on both ports: remote infeasible,
        // local fine.
        let plan = rfa_plan(&g, TaskId(1), 1);
        assert!(probe(&e, TaskId(1), ProcId(1), &plan).is_none());
        assert!(probe(&e, TaskId(1), ProcId(0), &plan).is_some());
    }

    #[test]
    fn one_port_serializes_probes() {
        // Two predecessors on distinct processors both send to u: the
        // receive port must serialize the two messages.
        let mut b = GraphBuilder::new();
        let a = b.add_task(2.0);
        let c = b.add_task(2.0);
        let t = b.add_task(1.0);
        b.add_edge(a, t, 4.0);
        b.add_edge(c, t, 4.0);
        let g = b.build().unwrap();
        let p = Platform::homogeneous(3, 1.0, 1.0);
        let cfg = AlgoConfig::new(0, 10.0);
        let mut e = Engine::new(&g, &p, &cfg);
        let empty = PlanBuf::new();
        for (task, proc) in [(a, ProcId(0)), (c, ProcId(1))] {
            let pr = probe(&e, task, proc, &empty).unwrap();
            e.commit(task, 0, &pr, &empty);
        }
        let plan = rfa_plan(&g, t, 1);
        let pr = probe(&e, t, ProcId(2), &plan).unwrap();
        // Both messages ready at 2, each lasts 4; serialized on the
        // receive port: arrivals at 6 and 10.
        assert_eq!(pr.start, 10.0);
        assert_eq!(pr.num_planned(), 2);
        let starts = pr.planned_starts();
        let (s0, s1) = (starts[0], starts[1]);
        assert_eq!(s0.min(s1), 2.0);
        assert_eq!(s0.max(s1), 6.0);
        // The bound reads no port: both messages arrive at 6.
        assert_eq!((pr.stage, pr.finish), (2, 11.0));
        assert_eq!(e.probe_bound(t, ProcId(2), &plan), (2, 7.0));
    }

    /// A zero-volume remote message crosses processors (one more stage)
    /// but takes no port time: the bound counts only its producer.
    #[test]
    fn probe_bound_zero_volume_message() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(4.0);
        let t = b.add_task(2.0);
        b.add_edge(a, t, 0.0);
        let g = b.build().unwrap();
        let p = Platform::homogeneous(2, 1.0, 1.0);
        let cfg = AlgoConfig::new(0, 10.0);
        let mut e = Engine::new(&g, &p, &cfg);
        let empty = PlanBuf::new();
        let pr = probe(&e, a, ProcId(0), &empty).unwrap();
        e.commit(a, 0, &pr, &empty);
        let plan = rfa_plan(&g, t, 1);
        let pr = probe(&e, t, ProcId(1), &plan).unwrap();
        assert_eq!((pr.stage, pr.finish), (2, 6.0));
        assert_eq!(e.probe_bound(t, ProcId(1), &plan), (2, 6.0));
    }

    /// A message that waits for a busy send port makes the probe finish
    /// later than the bound, which reads no port; the stage is exact.
    #[test]
    fn probe_bound_ignores_a_busy_send_port() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(2.0);
        let x = b.add_task(1.0);
        let t = b.add_task(1.0);
        b.add_edge(a, x, 4.0);
        b.add_edge(a, t, 4.0);
        let g = b.build().unwrap();
        let p = Platform::homogeneous(3, 1.0, 1.0);
        let cfg = AlgoConfig::new(0, 30.0);
        let mut e = Engine::new(&g, &p, &cfg);
        let empty = PlanBuf::new();
        let pr = probe(&e, a, ProcId(0), &empty).unwrap();
        e.commit(a, 0, &pr, &empty);
        // x's message holds P0's send port over [2, 6), so a's message to
        // t on P2 leaves at 6.
        let plan_x = rfa_plan(&g, x, 1);
        let pr = probe(&e, x, ProcId(1), &plan_x).unwrap();
        e.commit(x, 0, &pr, &plan_x);
        let plan_t = rfa_plan(&g, t, 1);
        let pr = probe(&e, t, ProcId(2), &plan_t).unwrap();
        assert_eq!((pr.stage, pr.finish), (2, 11.0));
        assert_eq!(e.probe_bound(t, ProcId(2), &plan_t), (2, 7.0));
    }

    #[test]
    fn arrival_estimate_and_stage_contribution() {
        let g = chain2();
        let p = Platform::homogeneous(2, 1.0, 2.0);
        let cfg = AlgoConfig::new(0, 20.0);
        let mut e = Engine::new(&g, &p, &cfg);
        let empty = PlanBuf::new();
        let pr = probe(&e, TaskId(0), ProcId(0), &empty).unwrap();
        e.commit(TaskId(0), 0, &pr, &empty);
        let src = ReplicaId::new(TaskId(0), 0);
        // Volume 3 × delay 2 = 6 after finish 4.
        assert_eq!(e.arrival_estimate(EdgeId(0), src, ProcId(1)), 10.0);
        assert_eq!(e.arrival_estimate(EdgeId(0), src, ProcId(0)), 4.0);
        assert_eq!(e.stage_contribution(src, ProcId(0)), 1);
        assert_eq!(e.stage_contribution(src, ProcId(1)), 2);
    }

    /// Commit under a checkpoint, roll back, and verify the engine state
    /// matches a pre-commit snapshot field by field (bit-exact floats).
    #[test]
    fn rollback_restores_snapshot_state() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(2.0);
        let c = b.add_task(2.0);
        let t = b.add_task(1.0);
        b.add_edge(a, t, 4.0);
        b.add_edge(c, t, 4.0);
        let g = b.build().unwrap();
        let p = Platform::homogeneous(3, 1.0, 1.0);
        let cfg = AlgoConfig::new(0, 20.0);
        let mut e = Engine::new(&g, &p, &cfg);
        let empty = PlanBuf::new();
        for (task, proc) in [(a, ProcId(0)), (c, ProcId(1))] {
            let pr = probe(&e, task, proc, &empty).unwrap();
            e.commit(task, 0, &pr, &empty);
        }
        let snapshot = e.state.clone();

        let mark = e.checkpoint();
        let plan = rfa_plan(&g, t, 1);
        let pr = probe(&e, t, ProcId(2), &plan).unwrap();
        e.commit(t, 0, &pr, &plan);
        let r = e.dense(t, 0);
        let mut dset = e.take_set();
        dset.insert(r);
        e.set_down(r, dset);
        e.register_upstream_host(r, 2);
        assert!(e.is_placed(t, 0));
        assert_ne!(e.state.ushost[r], snapshot.ushost[r]);

        e.rollback_to(mark);
        e.discard_journal();
        assert!(!e.is_placed(t, 0));
        assert_eq!(e.state.sigma, snapshot.sigma);
        assert_eq!(e.state.load, snapshot.load);
        assert_eq!(e.state.comm_events.len(), snapshot.comm_events.len());
        assert_eq!(e.state.max_stage, snapshot.max_stage);
        assert_eq!(e.state.ushost, snapshot.ushost);
        assert_eq!(e.state.allush, snapshot.allush);
        assert_eq!(e.state.down, snapshot.down);
        for u in 0..3 {
            assert_eq!(
                e.state.cpu.bucket(u).intervals(),
                snapshot.cpu.bucket(u).intervals()
            );
        }
        for c in 0..p.num_channels() {
            assert_eq!(
                e.state.chan.bucket(c).intervals(),
                snapshot.chan.bucket(c).intervals()
            );
        }

        // The freed capacity is reusable: the same placement succeeds again.
        let pr2 = probe(&e, t, ProcId(2), &plan).unwrap();
        assert_eq!(pr2.start, pr.start);
        e.commit(t, 0, &pr2, &plan);
        assert!(e.is_placed(t, 0));
    }

    /// Two speculative attempts rolled back to the same mark leave the
    /// engine identical each time — and the displaced closure sets flow
    /// through the recycling pool instead of the allocator.
    #[test]
    fn double_rollback_to_same_mark() {
        let g = chain2();
        let p = Platform::homogeneous(2, 1.0, 1.0);
        let cfg = AlgoConfig::new(0, 10.0);
        let mut e = Engine::new(&g, &p, &cfg);
        let empty = PlanBuf::new();
        let pr = probe(&e, TaskId(0), ProcId(0), &empty).unwrap();
        e.commit(TaskId(0), 0, &pr, &empty);
        let snapshot = e.state.clone();

        let mark = e.checkpoint();
        let plan = rfa_plan(&g, TaskId(1), 1);
        for u in [ProcId(1), ProcId(0)] {
            let pr = probe(&e, TaskId(1), u, &plan).unwrap();
            e.commit(TaskId(1), 0, &pr, &plan);
            let r = e.dense(TaskId(1), 0);
            let mut dset = e.take_set();
            dset.insert(r);
            e.set_down(r, dset);
            e.rollback_to(mark);
            assert!(!e.is_placed(TaskId(1), 0));
            assert_eq!(e.state.sigma, snapshot.sigma);
            assert_eq!(e.state.comm_events.len(), snapshot.comm_events.len());
        }
        e.discard_journal();
        // Both rollbacks and the discard recycled their sets.
        assert!(!e.free_sets.is_empty());
    }

    /// Two tasks on distinct processors feed two consumers on two other
    /// distinct processors: every endpoint port is free, but on a chain
    /// the two messages share a middle link — the contended model
    /// serializes them, the uniform model does not.
    #[test]
    fn contended_shared_link_serializes() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(2.0);
        let c = b.add_task(2.0);
        let x = b.add_task(1.0);
        let y = b.add_task(1.0);
        b.add_edge(a, x, 4.0);
        b.add_edge(c, y, 4.0);
        let g = b.build().unwrap();
        let cfg = AlgoConfig::new(0, 20.0);

        let run = |p: &Platform| {
            let mut e = Engine::new(&g, p, &cfg);
            let empty = PlanBuf::new();
            for (task, proc) in [(a, ProcId(0)), (c, ProcId(1))] {
                let pr = probe(&e, task, proc, &empty).unwrap();
                e.commit(task, 0, &pr, &empty);
            }
            let plan_x = rfa_plan(&g, x, 1);
            let pr = probe(&e, x, ProcId(2), &plan_x).unwrap();
            e.commit(x, 0, &pr, &plan_x);
            let plan_y = rfa_plan(&g, y, 1);
            let pr = probe(&e, y, ProcId(3), &plan_y).unwrap();
            // The bound reads no link: the message arrives at 6.
            assert_eq!(e.probe_bound(y, ProcId(3), &plan_y), (2, 7.0));
            pr.start
        };

        // Uniform: message P1 → P3 starts at 2 (all ports free), y at 6.
        let uniform = Platform::homogeneous(4, 1.0, 1.0);
        assert_eq!(run(&uniform), 6.0);
        // Contended chain: both routes cross link P2 – P3, busy [2, 6)
        // from x's message, so y's message waits and y starts at 10.
        let contended = ltf_platform::Topology::chain(vec![1.0; 4], 1.0)
            .into_contended_platform()
            .unwrap();
        assert_eq!(run(&contended), 10.0);
    }

    /// Link capacity extends condition (1): traffic over one physical
    /// link must fit the period even when every endpoint port has room.
    #[test]
    fn contended_link_capacity_rejects() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        let x = b.add_task(1.0);
        let y = b.add_task(1.0);
        b.add_edge(a, x, 4.0);
        b.add_edge(c, y, 4.0);
        let g = b.build().unwrap();
        // Period 7: each endpoint port carries 4 ≤ 7, but the shared
        // middle link would carry 8 > 7.
        let cfg = AlgoConfig::new(0, 7.0);
        let contended = ltf_platform::Topology::chain(vec![1.0; 4], 1.0)
            .into_contended_platform()
            .unwrap();
        let uniform = Platform::homogeneous(4, 1.0, 1.0);

        let run = |p: &Platform| {
            let mut e = Engine::new(&g, p, &cfg);
            let empty = PlanBuf::new();
            for (task, proc) in [(a, ProcId(0)), (c, ProcId(1))] {
                let pr = probe(&e, task, proc, &empty).unwrap();
                e.commit(task, 0, &pr, &empty);
            }
            let plan_x = rfa_plan(&g, x, 1);
            let pr = probe(&e, x, ProcId(2), &plan_x).unwrap();
            e.commit(x, 0, &pr, &plan_x);
            probe(&e, y, ProcId(3), &rfa_plan(&g, y, 1)).is_some()
        };
        assert!(run(&uniform));
        assert!(!run(&contended));
    }

    /// Probe-level monotonicity: with identical committed state, the
    /// contended model never places a message (hence a replica) earlier
    /// than the uniform model — extra timelines only delay the fit.
    #[test]
    fn contended_probe_never_beats_uniform() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(2.0);
        let c = b.add_task(3.0);
        let t = b.add_task(1.0);
        b.add_edge(a, t, 2.0);
        b.add_edge(c, t, 5.0);
        let g = b.build().unwrap();
        let cfg = AlgoConfig::new(0, 50.0);
        let uniform = Platform::homogeneous(5, 1.0, 1.0);
        let contended = ltf_platform::Topology::star(vec![1.0; 5], 1.0)
            .into_contended_platform()
            .unwrap();
        for (pa, pc) in [(1, 2), (1, 1), (0, 3), (4, 2)] {
            let place = |p: &Platform| {
                let mut e = Engine::new(&g, p, &cfg);
                let empty = PlanBuf::new();
                let pr = probe(&e, a, ProcId(pa), &empty).unwrap();
                e.commit(a, 0, &pr, &empty);
                let pr = probe(&e, c, ProcId(pc), &empty).unwrap();
                e.commit(c, 0, &pr, &empty);
                let plan = rfa_plan(&g, t, 1);
                probe(&e, t, ProcId(3), &plan).map(|pr| pr.start)
            };
            let (u, k) = (place(&uniform), place(&contended));
            let (u, k) = (u.unwrap(), k.unwrap());
            assert!(k >= u, "contended start {k} beats uniform {u}");
        }
    }

    /// Rollback restores the channel timelines and loads, links included,
    /// bit-exactly on a contended platform.
    #[test]
    fn contended_rollback_restores_link_state() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(2.0);
        let t = b.add_task(1.0);
        b.add_edge(a, t, 3.0);
        let g = b.build().unwrap();
        let p = ltf_platform::Topology::chain(vec![1.0; 3], 1.0)
            .into_contended_platform()
            .unwrap();
        let cfg = AlgoConfig::new(0, 20.0);
        let mut e = Engine::new(&g, &p, &cfg);
        let empty = PlanBuf::new();
        let pr = probe(&e, a, ProcId(0), &empty).unwrap();
        e.commit(a, 0, &pr, &empty);
        let snapshot = e.state.clone();

        let mark = e.checkpoint();
        let plan = rfa_plan(&g, t, 1);
        // P1 → P3 crosses both chain links.
        let links: Vec<usize> = p.channels(ProcId(0), ProcId(2)).links().collect();
        assert_eq!(links.len(), 2);
        let link_loads =
            |e: &Engine<'_>| links.iter().map(|&c| e.state.load[c]).collect::<Vec<_>>();
        let pr = probe(&e, t, ProcId(2), &plan).unwrap();
        e.commit(t, 0, &pr, &plan);
        assert_eq!(link_loads(&e), vec![3.0, 3.0]);
        assert_eq!(e.state.chan.bucket(links[0]).len(), 1);

        e.rollback_to(mark);
        e.discard_journal();
        assert_eq!(e.state.load, snapshot.load);
        for c in 0..p.num_channels() {
            assert_eq!(
                e.state.chan.bucket(c).intervals(),
                snapshot.chan.bucket(c).intervals()
            );
        }
        // The freed link capacity is reusable bit-for-bit.
        let pr2 = probe(&e, t, ProcId(2), &plan).unwrap();
        assert_eq!(pr2.start, pr.start);
        e.commit(t, 0, &pr2, &plan);
        assert_eq!(link_loads(&e), vec![3.0, 3.0]);
    }

    /// The lazily-grown replica set equals its eagerly-sized twin, and
    /// clearing keeps capacity.
    #[test]
    fn replica_set_grows_and_compares() {
        let mut lazy = ReplicaSet::default();
        let mut sized = ReplicaSet::default();
        sized.insert(200);
        sized.clear();
        assert_eq!(lazy, sized); // both empty, different word lengths
        lazy.insert(130);
        assert_ne!(lazy, sized);
        sized.insert(130);
        assert_eq!(lazy, sized);
        let mut other = ReplicaSet::default();
        other.insert(5);
        lazy.union_with(&other);
        assert_eq!(lazy.iter().collect::<Vec<_>>(), vec![5, 130]);
    }

    /// Reverse-mode bookkeeping: commits push transposed forward sources,
    /// rollback pops them exactly.
    #[test]
    fn reverse_mode_maintains_fwd_sources() {
        // G: 0 -> 1 (edge 0). Reverse-mode engine schedules Ĝ: 1 -> 0.
        let g = chain2();
        let rev = g.reversed();
        // edge_slot[e] = position of e in G.pred_edges(dst(e)).
        let edge_slot = vec![0u32];
        let p = Platform::homogeneous(2, 1.0, 1.0);
        let cfg = AlgoConfig::new(0, 20.0);
        let mut e = Engine::new_reversed(&rev, &g, &edge_slot, &p, &cfg);

        // Place task 1 (entry of Ĝ), then task 0 receiving from it.
        let empty = PlanBuf::new();
        let pr = probe(&e, TaskId(1), ProcId(0), &empty).unwrap();
        e.commit(TaskId(1), 0, &pr, &empty);

        let plan = rfa_plan(&rev, TaskId(0), 1);
        let mark = e.checkpoint();
        let pr = probe(&e, TaskId(0), ProcId(1), &plan).unwrap();
        e.commit(TaskId(0), 0, &pr, &plan);
        {
            let fwd = &e.rev.as_ref().unwrap().fwd_sources;
            // Forward: replica (1, 0) is fed on edge 0 by copy 0 of task 0.
            let tgt = ReplicaId::new(TaskId(1), 0).dense(1);
            assert_eq!(fwd[tgt].len(), 1);
            assert_eq!(fwd[tgt][0].edge, EdgeId(0));
            assert_eq!(fwd[tgt][0].sources, vec![0]);
        }
        e.rollback_to(mark);
        {
            let fwd = &e.rev.as_ref().unwrap().fwd_sources;
            let tgt = ReplicaId::new(TaskId(1), 0).dense(1);
            assert!(fwd[tgt][0].sources.is_empty());
        }
        e.discard_journal();

        let pr = probe(&e, TaskId(0), ProcId(1), &plan).unwrap();
        e.commit(TaskId(0), 0, &pr, &plan);
        let fwd = e.take_fwd_sources();
        let tgt = ReplicaId::new(TaskId(1), 0).dense(1);
        assert_eq!(fwd[tgt][0].sources, vec![0]);
    }
}
