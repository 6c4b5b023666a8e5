//! The platform structure.

use crate::comm::{CommMode, Link, LinkId, RouteTable};
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Dense identifier of a processor, `0..m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcId(pub u16);

impl ProcId {
    /// The processor id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // 1-based in display to match the paper's P1..Pm convention.
        write!(f, "P{}", self.0 + 1)
    }
}

/// A fully-interconnected heterogeneous platform: processor speeds, the
/// `m × m` unit-delay matrix, and an optional [`RouteTable`].
///
/// The logical view is always the matrix (the paper's model). A platform
/// built from a [`Topology`] under [`CommMode::Contended`] also keeps the
/// topology's route table: the matrix still holds the bottleneck delays
/// (so every formula over `d_kh` is unchanged), but placement engines also
/// see the physical links behind each pair and reserve their capacity.
#[derive(Debug, Clone)]
pub struct Platform {
    speeds: Vec<f64>,
    /// Row-major `m × m` unit message delays; `delay[u][u] = 0`.
    delays: Vec<f64>,
    /// The physical links behind the matrix; `Some` only for contended
    /// topology platforms.
    routes: Option<Arc<RouteTable>>,
}

/// The speed rules: between 1 and `u16::MAX` processors, each with a
/// finite positive speed.
fn check_speeds(speeds: &[f64]) -> Result<(), String> {
    if speeds.is_empty() {
        return Err("platform needs at least one processor".into());
    }
    if speeds.len() > u16::MAX as usize {
        return Err("too many processors".into());
    }
    match speeds.iter().position(|s| !(s.is_finite() && *s > 0.0)) {
        Some(i) => Err(format!("speed of P{} is {}", i + 1, speeds[i])),
        None => Ok(()),
    }
}

/// The delay-matrix rules: `m × m` finite, non-negative unit delays with a
/// zero diagonal.
fn check_delays(m: usize, delays: &[f64]) -> Result<(), String> {
    if delays.len() != m * m {
        return Err(format!(
            "delay matrix has {} entries, expected {m}x{m} = {}",
            delays.len(),
            m * m
        ));
    }
    for (i, &d) in delays.iter().enumerate() {
        let (k, h) = (i / m + 1, i % m + 1);
        if !(d.is_finite() && d >= 0.0) {
            return Err(format!("delay P{k}->P{h} is {d}"));
        }
        if k == h && d != 0.0 {
            return Err(format!("self-delay of P{k} must be zero"));
        }
    }
    Ok(())
}

impl serde::Serialize for Platform {
    /// Matrix platforms keep the historical `{"speeds", "delays"}` wire
    /// form bit-for-bit; routed (contended) platforms emit the
    /// `{"speeds", "topology"}` form instead, so link identity survives
    /// the round-trip.
    fn serialize<S: serde::Sink>(&self, s: &mut S) {
        s.begin_map();
        s.entry("speeds", &self.speeds);
        match self.route_table() {
            None => s.entry("delays", &self.delays),
            Some(table) => {
                s.key("topology");
                s.begin_map();
                s.key("links");
                s.begin_seq();
                for l in table.links() {
                    (l.a, l.b, l.delay).serialize(s);
                }
                s.end_seq();
                s.entry("model", &CommMode::Contended);
                s.end_map();
            }
        }
        s.end_map();
    }
}

/// Decode the `"topology"` block of the wire form: physical links plus the
/// optional `"model"` tag (default [`CommMode::Contended`] — describing a
/// topology and then flattening it away is the exceptional case).
fn topology_from_value(speeds: Vec<f64>, v: &serde::Value) -> Result<Platform, serde::DeError> {
    let entries = match v {
        serde::Value::Map(entries) => entries,
        other => {
            return Err(serde::DeError::expected(
                "map for platform field `topology`",
                other,
            ))
        }
    };
    for (k, _) in entries.iter() {
        if k != "links" && k != "model" {
            return Err(serde::DeError::unknown_field(k, "topology"));
        }
    }
    let mut topo = Topology::new(speeds);
    let links = match entries.iter().find(|(k, _)| k == "links") {
        Some((_, serde::Value::Seq(items))) => items,
        Some((_, other)) => {
            return Err(serde::DeError::expected(
                "sequence for topology field `links`",
                other,
            ))
        }
        None => return Err(serde::DeError::custom("topology is missing `links`")),
    };
    for (i, item) in links.iter().enumerate() {
        let triple = match item {
            serde::Value::Seq(t) if t.len() == 3 => t,
            other => {
                return Err(serde::DeError::expected(
                    "[from, to, delay] triple for a physical link",
                    other,
                ))
            }
        };
        let a: usize = serde::Deserialize::from_value(&triple[0]).map_err(|e| e.at_index(i))?;
        let b: usize = serde::Deserialize::from_value(&triple[1]).map_err(|e| e.at_index(i))?;
        let d: f64 = serde::Deserialize::from_value(&triple[2]).map_err(|e| e.at_index(i))?;
        topo = topo
            .try_link(a, b, d)
            .map_err(|e| serde::DeError::custom(e).at_index(i))?;
    }
    let mode = match entries.iter().find(|(k, _)| k == "model") {
        Some((_, v)) => CommMode::from_value(v)?,
        None => CommMode::Contended,
    };
    topo.into_platform_with(mode)
        .ok_or_else(|| serde::DeError::custom("topology is disconnected"))
}

impl serde::Deserialize for Platform {
    /// Decode either wire form with full validation: the matrix form
    /// `{"speeds": [...], "delays": [...]}` or the topology form
    /// `{"speeds": [...], "topology": {"links": [[a, b, delay], ...],
    /// "model": "Uniform"|"Contended"}}`. Every invariant
    /// [`Platform::from_parts`] would *panic* on (size mismatch,
    /// non-positive speed, negative or non-zero diagonal delay) — and every
    /// topology defect (bad endpoints, self-links, non-positive link delay,
    /// disconnection) — comes back as a typed error instead, so a malformed
    /// service request can never take the process down.
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = match v {
            serde::Value::Map(entries) => entries,
            other => return Err(serde::DeError::expected("map for struct `Platform`", other)),
        };
        for (k, _) in entries.iter() {
            if k != "speeds" && k != "delays" && k != "topology" {
                return Err(serde::DeError::unknown_field(k, "Platform"));
            }
        }
        let speeds: Vec<f64> = serde::__field(entries, "speeds", "Platform")?;
        check_speeds(&speeds).map_err(serde::DeError::custom)?;
        let has_delays = entries.iter().any(|(k, _)| k == "delays");
        let topology = entries.iter().find(|(k, _)| k == "topology");
        match (has_delays, topology) {
            (true, Some(_)) => Err(serde::DeError::custom(
                "platform takes either `delays` or `topology`, not both",
            )),
            (false, Some((_, t))) => topology_from_value(speeds, t),
            (false, None) => Err(serde::DeError::custom(
                "platform needs `delays` or `topology`",
            )),
            (true, None) => {
                let delays: Vec<f64> = serde::__field(entries, "delays", "Platform")?;
                check_delays(speeds.len(), &delays).map_err(serde::DeError::custom)?;
                Ok(Self::from_parts(speeds, delays))
            }
        }
    }
}

impl Platform {
    /// Build from explicit speeds and a unit-delay matrix (row-major,
    /// `delays[k*m + h]` = unit delay from `P_k` to `P_h`).
    ///
    /// # Panics
    /// If sizes mismatch, any speed is ≤ 0, any delay is negative, or a
    /// diagonal delay is non-zero, with the wire decoder's message.
    pub fn from_parts(speeds: Vec<f64>, delays: Vec<f64>) -> Self {
        if let Err(e) = check_speeds(&speeds).and_then(|()| check_delays(speeds.len(), &delays)) {
            panic!("{e}");
        }
        Self {
            speeds,
            delays,
            routes: None,
        }
    }

    /// Build a routed platform from a topology's [`RouteTable`]: the delay
    /// matrix holds the effective (bottleneck) delay of every cached route,
    /// and under [`CommMode::Contended`] the platform keeps the table.
    /// Crate-internal; reached through [`Topology::into_platform_with`].
    pub(crate) fn routed(speeds: Vec<f64>, table: RouteTable, mode: CommMode) -> Self {
        let m = speeds.len();
        debug_assert_eq!(table.num_procs(), m);
        // A processor's route to itself is empty, with delay 0.
        let proc = |i: usize| ProcId(i as u16);
        let delays = (0..m * m)
            .map(|i| table.route(proc(i / m), proc(i % m)).delay())
            .collect();
        Self {
            routes: (mode == CommMode::Contended).then(|| Arc::new(table)),
            ..Self::from_parts(speeds, delays)
        }
    }

    /// The route table of a contended platform; `None` on a matrix one.
    #[inline]
    pub fn route_table(&self) -> Option<&RouteTable> {
        self.routes.as_deref()
    }

    /// `true` when transfers reserve per-link capacity (routed contended
    /// platform).
    #[inline]
    pub fn is_contended(&self) -> bool {
        self.routes.is_some()
    }

    /// Number of physical links with reservable capacity (0 on a matrix platform).
    #[inline]
    pub fn num_links(&self) -> usize {
        self.route_table().map_or(0, RouteTable::num_links)
    }

    /// The physical links a `k → h` message traverses (empty for the
    /// matrix model or a co-located pair).
    #[inline]
    pub fn route(&self, k: ProcId, h: ProcId) -> &[LinkId] {
        self.route_table().map_or(&[], |t| t.route(k, h).links())
    }

    /// Number of channels a message can hold: `m` send ports, `m` receive
    /// ports, then the physical links ([`Platform::channels`]).
    #[inline]
    pub fn num_channels(&self) -> usize {
        2 * self.num_procs() + self.num_links()
    }

    /// The channels a `k → h` message holds for one common window: `k`'s
    /// send port, `h`'s receive port, then each link of the route — the
    /// one-port model (§2) and link contention as one rule. Send port `k`
    /// is channel `k`, receive port `h` is `m + h`, link `l` is `2m + l`.
    #[inline]
    pub fn channels(&self, k: ProcId, h: ProcId) -> Channels<'_> {
        let m = self.num_procs();
        Channels {
            send: k.index(),
            recv: m + h.index(),
            link_base: 2 * m,
            route: self.route(k, h),
        }
    }

    /// Unit delay of one physical link of a contended platform.
    ///
    /// # Panics
    /// On a matrix platform, which has no links, or when `l` is out of
    /// range.
    #[inline]
    pub fn link_delay(&self, l: LinkId) -> f64 {
        match self.route_table() {
            Some(t) => t.link(l).delay,
            None => panic!("matrix platform has no link {l}"),
        }
    }

    /// The physical links of a contended platform, in `LinkId` order
    /// (empty for the matrix model).
    pub fn topology_links(&self) -> &[Link] {
        self.route_table().map_or(&[], RouteTable::links)
    }

    /// Fully homogeneous platform: `m` processors of speed `speed`, all
    /// links with unit delay `delay`.
    pub fn homogeneous(m: usize, speed: f64, delay: f64) -> Self {
        let mut delays = vec![delay; m * m];
        for u in 0..m {
            delays[u * m + u] = 0.0;
        }
        Self::from_parts(vec![speed; m], delays)
    }

    /// The 4-processor platform of the paper's Fig. 1 example:
    /// `s1 = s3 = 1.5`, `s2 = s4 = 1`, all links unit bandwidth.
    pub fn fig1_platform() -> Self {
        let unit = Self::homogeneous(4, 1.0, 1.0);
        Self::from_parts(vec![1.5, 1.0, 1.5, 1.0], unit.delays)
    }

    /// Number of processors `m`.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.speeds.len()
    }

    /// Iterator over processor ids `P1..Pm`.
    pub fn procs(&self) -> impl Iterator<Item = ProcId> + '_ {
        (0..self.num_procs() as u16).map(ProcId)
    }

    /// Speed `s_u` of processor `u`.
    #[inline]
    pub fn speed(&self, u: ProcId) -> f64 {
        self.speeds[u.index()]
    }

    /// Unit message delay of link `l_kh` (0 when `k == h`).
    #[inline]
    pub fn unit_delay(&self, k: ProcId, h: ProcId) -> f64 {
        self.delays[k.index() * self.num_procs() + h.index()]
    }

    /// Execution time of a task with reference cost `exec` on `u`:
    /// `exec / s_u`.
    #[inline]
    pub fn exec_time(&self, exec: f64, u: ProcId) -> f64 {
        exec / self.speeds[u.index()]
    }

    /// Communication time for `volume` data units from `k` to `h`
    /// (zero when co-located).
    #[inline]
    pub fn comm_time(&self, volume: f64, k: ProcId, h: ProcId) -> f64 {
        volume * self.unit_delay(k, h)
    }

    /// The slowest execution time of a reference cost over all processors:
    /// `exec / min_u s_u`. Used by the granularity `g(G, P)`.
    pub fn slowest_exec_time(&self, exec: f64) -> f64 {
        exec / self.min_speed()
    }

    /// The slowest communication time of a volume over all distinct pairs:
    /// `volume · max_{k≠h} d_kh`.
    pub fn slowest_comm_time(&self, volume: f64) -> f64 {
        volume * self.max_delay()
    }

    /// Minimum processor speed.
    pub fn min_speed(&self) -> f64 {
        self.speeds.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum processor speed.
    pub fn max_speed(&self) -> f64 {
        self.speeds.iter().copied().fold(0.0, f64::max)
    }

    /// Mean of `1/s_u` (the HEFT-style expected slowdown of a unit task).
    pub fn mean_inv_speed(&self) -> f64 {
        self.speeds.iter().map(|s| 1.0 / s).sum::<f64>() / self.num_procs() as f64
    }

    /// Maximum unit delay over distinct processor pairs (0 for `m = 1`).
    pub fn max_delay(&self) -> f64 {
        let m = self.num_procs();
        let mut best = 0.0f64;
        for k in 0..m {
            for h in 0..m {
                if k != h {
                    best = best.max(self.delays[k * m + h]);
                }
            }
        }
        best
    }

    /// Mean unit delay over distinct processor pairs (0 for `m = 1`).
    pub fn mean_delay(&self) -> f64 {
        let m = self.num_procs();
        if m < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        for k in 0..m {
            for h in 0..m {
                if k != h {
                    sum += self.delays[k * m + h];
                }
            }
        }
        sum / (m * (m - 1)) as f64
    }

    /// The fastest processor id (ties broken by lowest id).
    pub fn fastest_proc(&self) -> ProcId {
        let mut best = ProcId(0);
        for u in self.procs() {
            if self.speed(u) > self.speed(best) {
                best = u;
            }
        }
        best
    }

    /// Processor ids sorted by decreasing speed (stable for equal speeds).
    pub fn procs_by_speed_desc(&self) -> Vec<ProcId> {
        let mut ids: Vec<ProcId> = self.procs().collect();
        ids.sort_by(|a, b| {
            self.speed(*b)
                .partial_cmp(&self.speed(*a))
                .expect("speeds are finite")
                .then(a.0.cmp(&b.0))
        });
        ids
    }

    /// A sub-platform keeping only the first `m` processors (used by
    /// processor-count searches).
    ///
    /// A routed platform keeps its full route table: processors beyond the
    /// prefix no longer compute, but the physical links through them still
    /// forward traffic — shrinking the compute pool does not rewire the
    /// interconnect. The table is shared, so the prefix is cheap.
    pub fn prefix(&self, m: usize) -> Platform {
        assert!(m >= 1 && m <= self.num_procs());
        let rows = self.delays.chunks(self.num_procs()).take(m);
        let delays = rows.flat_map(|row| &row[..m]).copied().collect();
        Platform {
            routes: self.routes.clone(),
            ..Platform::from_parts(self.speeds[..m].to_vec(), delays)
        }
    }

    /// HEFT-style averaged weights for priority computation: node weight
    /// `E(t) · mean(1/s)`, edge weight `vol · mean(delay)`.
    pub fn average_weights(&self, g: &AverageWeightsInput<'_>) -> AverageWeights {
        let inv = self.mean_inv_speed();
        let del = self.mean_delay();
        AverageWeights {
            node: g.exec.iter().map(|e| e * inv).collect(),
            edge: g.volume.iter().map(|v| v * del).collect(),
        }
    }
}

/// The channels of one message ([`Platform::channels`]), each a number in
/// `0..Platform::num_channels()`. The ports are plain fields, so a loop
/// that handles them apart from the links walks no iterator for them.
#[derive(Debug, Clone, Copy)]
pub struct Channels<'a> {
    /// The sender's send port.
    pub send: usize,
    /// The receiver's receive port.
    pub recv: usize,
    /// Channel number of link 0.
    link_base: usize,
    /// The route, source to destination (empty on a matrix platform).
    route: &'a [LinkId],
}

impl<'a> Channels<'a> {
    /// The route's links as channel numbers, source to destination.
    #[inline]
    pub fn links(&self) -> impl ExactSizeIterator<Item = usize> + 'a {
        let base = self.link_base;
        self.route.iter().map(move |l| base + l.index())
    }

    /// Every channel, in order: send port, receive port, then the links.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = usize> + 'a {
        [self.send, self.recv].into_iter().chain(self.links())
    }
}

/// Borrowed task/edge reference costs for [`Platform::average_weights`].
pub struct AverageWeightsInput<'a> {
    /// Per-task reference execution costs.
    pub exec: &'a [f64],
    /// Per-edge data volumes.
    pub volume: &'a [f64],
}

/// Platform-averaged node/edge weights (HEFT-style).
#[derive(Debug, Clone)]
pub struct AverageWeights {
    /// `E(t) · mean_u(1/s_u)` per task.
    pub node: Vec<f64>,
    /// `vol(e) · mean_{k≠h}(d_kh)` per edge.
    pub edge: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_basics() {
        let p = Platform::homogeneous(4, 2.0, 0.5);
        assert_eq!(p.num_procs(), 4);
        assert_eq!(p.speed(ProcId(2)), 2.0);
        assert_eq!(p.unit_delay(ProcId(0), ProcId(1)), 0.5);
        assert_eq!(p.unit_delay(ProcId(3), ProcId(3)), 0.0);
        assert_eq!(p.exec_time(10.0, ProcId(0)), 5.0);
        assert_eq!(p.comm_time(10.0, ProcId(0), ProcId(1)), 5.0);
        assert_eq!(p.comm_time(10.0, ProcId(1), ProcId(1)), 0.0);
    }

    #[test]
    fn fig1_platform_shape() {
        let p = Platform::fig1_platform();
        assert_eq!(p.num_procs(), 4);
        assert_eq!(p.speed(ProcId(0)), 1.5);
        assert_eq!(p.speed(ProcId(1)), 1.0);
        assert_eq!(p.min_speed(), 1.0);
        assert_eq!(p.max_speed(), 1.5);
        assert_eq!(p.fastest_proc(), ProcId(0));
        // Unit bandwidth everywhere: a volume-2 message takes 2 time units.
        assert_eq!(p.comm_time(2.0, ProcId(0), ProcId(3)), 2.0);
    }

    #[test]
    fn aggregates() {
        let p = Platform::from_parts(vec![1.0, 2.0], vec![0.0, 0.25, 0.75, 0.0]);
        assert_eq!(p.min_speed(), 1.0);
        assert_eq!(p.mean_inv_speed(), 0.75);
        assert_eq!(p.max_delay(), 0.75);
        assert_eq!(p.mean_delay(), 0.5);
        assert_eq!(p.slowest_exec_time(4.0), 4.0);
        assert_eq!(p.slowest_comm_time(4.0), 3.0);
    }

    #[test]
    fn sorted_procs_and_prefix() {
        let m = 3;
        let mut delays = vec![0.8; m * m];
        for u in 0..m {
            delays[u * m + u] = 0.0;
        }
        let p = Platform::from_parts(vec![1.0, 3.0, 2.0], delays);
        assert_eq!(
            p.procs_by_speed_desc(),
            vec![ProcId(1), ProcId(2), ProcId(0)]
        );
        let q = p.prefix(2);
        assert_eq!(q.num_procs(), 2);
        assert_eq!(q.speed(ProcId(1)), 3.0);
        assert_eq!(q.unit_delay(ProcId(0), ProcId(1)), 0.8);
    }

    #[test]
    #[should_panic(expected = "speed")]
    fn zero_speed_rejected() {
        Platform::from_parts(vec![0.0], vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "self-delay")]
    fn nonzero_self_delay_rejected() {
        Platform::from_parts(vec![1.0, 1.0], vec![0.1, 0.5, 0.5, 0.0]);
    }

    #[test]
    fn average_weights() {
        let p = Platform::from_parts(vec![1.0, 2.0], vec![0.0, 0.5, 0.5, 0.0]);
        let exec = [10.0, 20.0];
        let volume = [4.0];
        let w = p.average_weights(&AverageWeightsInput {
            exec: &exec,
            volume: &volume,
        });
        assert_eq!(w.node, vec![7.5, 15.0]);
        assert_eq!(w.edge, vec![2.0]);
    }

    #[test]
    fn display() {
        assert_eq!(ProcId(0).to_string(), "P1");
        assert_eq!(ProcId(19).to_string(), "P20");
    }

    #[test]
    fn deserialize_roundtrip() {
        let p = Platform::from_parts(vec![1.0, 2.0], vec![0.0, 0.25, 0.75, 0.0]);
        let v = serde::Serialize::to_value(&p);
        let q = <Platform as Deserialize>::from_value(&v).unwrap();
        assert_eq!(q.speeds, p.speeds);
        assert_eq!(q.delays, p.delays);
    }

    #[test]
    fn contended_platform_roundtrips_topology_form() {
        let p = Topology::new(vec![1.0, 2.0, 1.0])
            .link(0, 1, 0.5)
            .link(1, 2, 1.5)
            .into_contended_platform()
            .expect("connected");
        let v = serde::Serialize::to_value(&p);
        // The topology form is emitted, not the matrix form.
        if let serde::Value::Map(entries) = &v {
            assert!(entries.iter().any(|(k, _)| k == "topology"));
            assert!(!entries.iter().any(|(k, _)| k == "delays"));
        } else {
            panic!("expected map");
        }
        let q = <Platform as Deserialize>::from_value(&v).unwrap();
        assert!(q.is_contended());
        assert_eq!(q.speeds, p.speeds);
        assert_eq!(q.delays, p.delays);
        assert_eq!(q.num_links(), 2);
        assert_eq!(q.route(ProcId(0), ProcId(2)), p.route(ProcId(0), ProcId(2)));
    }

    #[test]
    fn uniform_topology_form_flattens() {
        let v = serde::Value::Map(vec![
            (
                "speeds".into(),
                serde::Value::Seq(vec![serde::Value::Float(1.0), serde::Value::Float(1.0)]),
            ),
            (
                "topology".into(),
                serde::Value::Map(vec![
                    (
                        "links".into(),
                        serde::Value::Seq(vec![serde::Value::Seq(vec![
                            serde::Value::UInt(0),
                            serde::Value::UInt(1),
                            serde::Value::Float(2.0),
                        ])]),
                    ),
                    ("model".into(), serde::Value::Str("Uniform".into())),
                ]),
            ),
        ]);
        let p = <Platform as Deserialize>::from_value(&v).unwrap();
        assert!(!p.is_contended());
        assert_eq!(p.unit_delay(ProcId(0), ProcId(1)), 2.0);
        // Uniform platforms serialize in the matrix form.
        let back = serde::Serialize::to_value(&p);
        if let serde::Value::Map(entries) = &back {
            assert!(entries.iter().any(|(k, _)| k == "delays"));
        } else {
            panic!("expected map");
        }
    }

    #[test]
    fn deserialize_rejects_bad_topologies() {
        fn topo_value(links: Vec<serde::Value>, model: Option<&str>) -> serde::Value {
            let mut topo = vec![("links".to_string(), serde::Value::Seq(links))];
            if let Some(m) = model {
                topo.push(("model".to_string(), serde::Value::Str(m.into())));
            }
            serde::Value::Map(vec![
                (
                    "speeds".into(),
                    serde::Value::Seq(vec![
                        serde::Value::Float(1.0),
                        serde::Value::Float(1.0),
                        serde::Value::Float(1.0),
                    ]),
                ),
                ("topology".into(), serde::Value::Map(topo)),
            ])
        }
        let link = |a: u64, b: u64, d: f64| {
            serde::Value::Seq(vec![
                serde::Value::UInt(a),
                serde::Value::UInt(b),
                serde::Value::Float(d),
            ])
        };
        let err = |v: &serde::Value| {
            <Platform as Deserialize>::from_value(v)
                .unwrap_err()
                .to_string()
        };
        assert!(err(&topo_value(vec![link(0, 7, 1.0)], None)).contains("out of range"));
        assert!(err(&topo_value(vec![link(1, 1, 1.0)], None)).contains("self-link"));
        assert!(err(&topo_value(vec![link(0, 1, -2.0)], None)).contains("delay is -2"));
        assert!(err(&topo_value(vec![link(3, 0, 1.0)], None)).contains("out of range"));
        assert!(err(&topo_value(vec![link(0, 1, 0.0)], None)).contains("delay is 0"));
        assert!(err(&topo_value(vec![link(0, 1, f64::NAN)], None)).contains("delay is NaN"));
        // The link index comes first, then the defect.
        let second = err(&topo_value(vec![link(0, 1, 1.0), link(2, 2, 1.0)], None));
        assert!(
            second.starts_with("[1]: link (2, 2): self-link"),
            "{second}"
        );
        assert!(err(&topo_value(vec![link(0, 1, 1.0)], None)).contains("disconnected"));
        assert!(err(&topo_value(
            vec![link(0, 1, 1.0), link(1, 2, 1.0)],
            Some("Turbo")
        ))
        .contains("unknown variant"));
        // Both forms at once, and neither form at all.
        let both = serde::Value::Map(vec![
            (
                "speeds".into(),
                serde::Value::Seq(vec![serde::Value::Float(1.0)]),
            ),
            (
                "delays".into(),
                serde::Value::Seq(vec![serde::Value::Float(0.0)]),
            ),
            ("topology".into(), serde::Value::Map(vec![])),
        ]);
        assert!(err(&both).contains("not both"));
        let neither = serde::Value::Map(vec![(
            "speeds".into(),
            serde::Value::Seq(vec![serde::Value::Float(1.0)]),
        )]);
        assert!(err(&neither).contains("`delays` or `topology`"));
    }

    #[test]
    fn prefix_keeps_routed_comm() {
        let p = Topology::chain(vec![1.0; 4], 0.5)
            .into_contended_platform()
            .expect("connected");
        let q = p.prefix(2);
        assert!(q.is_contended());
        assert_eq!(q.num_links(), 3);
        assert_eq!(q.route(ProcId(0), ProcId(1)).len(), 1);
        assert_eq!(q.unit_delay(ProcId(0), ProcId(1)), 0.5);
    }

    #[test]
    fn deserialize_rejects_invalid() {
        fn decode(speeds: serde::Value, delays: serde::Value) -> Result<Platform, serde::DeError> {
            let v = serde::Value::Map(vec![("speeds".into(), speeds), ("delays".into(), delays)]);
            <Platform as Deserialize>::from_value(&v)
        }
        let floats =
            |xs: &[f64]| serde::Value::Seq(xs.iter().map(|&x| serde::Value::Float(x)).collect());
        // Every case below would be a panic through `from_parts`.
        assert!(decode(floats(&[]), floats(&[]))
            .unwrap_err()
            .to_string()
            .contains("at least one"));
        assert!(decode(floats(&[1.0, 1.0]), floats(&[0.0]))
            .unwrap_err()
            .to_string()
            .contains("2x2"));
        assert!(decode(floats(&[0.0]), floats(&[0.0]))
            .unwrap_err()
            .to_string()
            .contains("speed"));
        assert!(decode(floats(&[1.0]), floats(&[f64::NAN]))
            .unwrap_err()
            .to_string()
            .contains("delay"));
        assert!(decode(floats(&[1.0]), floats(&[0.5]))
            .unwrap_err()
            .to_string()
            .contains("self-delay"));
        let extra = serde::Value::Map(vec![
            ("speeds".into(), floats(&[1.0])),
            ("delays".into(), floats(&[0.0])),
            ("cores".into(), serde::Value::UInt(8)),
        ]);
        assert!(<Platform as Deserialize>::from_value(&extra)
            .unwrap_err()
            .to_string()
            .contains("unknown field `cores`"));
    }
}
