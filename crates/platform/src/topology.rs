//! Platforms derived from physical topologies.
//!
//! Paper §2: "we do not need physical links between processor pairs, we may
//! have a switch, or even a path composed of several physical links to
//! interconnect `P_k` and `P_h`; in the latter case we would retain the
//! bandwidth of the slowest link in the path for the bandwidth of `l_kh`."
//!
//! [`Topology`] holds the physical links; [`Topology::into_platform`]
//! derives the fully-connected logical platform by routing every pair along
//! its *bottleneck-optimal* path — the path minimizing the maximum unit
//! delay (equivalently, maximizing the slowest link's bandwidth), computed
//! with a Dijkstra variant under the minimax metric.

use crate::comm::{CommMode, Link, LinkId, Route, RouteTable};
use crate::platform::Platform;

/// A physical interconnect: undirected links with unit message delays.
#[derive(Debug, Clone)]
pub struct Topology {
    speeds: Vec<f64>,
    /// `(a, b, unit_delay)` undirected physical links.
    links: Vec<(usize, usize, f64)>,
}

impl Topology {
    /// Start a topology over `speeds.len()` processors.
    pub fn new(speeds: Vec<f64>) -> Self {
        assert!(!speeds.is_empty());
        Self {
            speeds,
            links: Vec::new(),
        }
    }

    /// Add an undirected physical link with the given unit delay
    /// (`= 1/bandwidth`).
    ///
    /// # Panics
    /// With [`Topology::try_link`]'s message when the link breaks a rule.
    pub fn link(self, a: usize, b: usize, unit_delay: f64) -> Self {
        self.try_link(a, b, unit_delay)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Add an undirected physical link, or say which link rule it breaks:
    /// both endpoints in range, no self-link, a finite positive delay.
    /// This is the one place those rules are written.
    pub fn try_link(mut self, a: usize, b: usize, unit_delay: f64) -> Result<Self, String> {
        let m = self.speeds.len();
        let defect = if a >= m || b >= m {
            format!("endpoint out of range for {m} processors")
        } else if a == b {
            format!("self-link on P{}", a + 1)
        } else if !(unit_delay.is_finite() && unit_delay > 0.0) {
            format!("delay is {unit_delay}, not a positive finite number")
        } else {
            self.links.push((a, b, unit_delay));
            return Ok(self);
        };
        Err(format!("link ({a}, {b}): {defect}"))
    }

    /// Common shape: a linear chain `P1 - P2 - … - Pm` with uniform delay.
    pub fn chain(speeds: Vec<f64>, unit_delay: f64) -> Self {
        let m = speeds.len();
        let mut t = Self::new(speeds);
        for i in 0..m.saturating_sub(1) {
            t = t.link(i, i + 1, unit_delay);
        }
        t
    }

    /// Common shape: a star around a switch-like hub processor 0 (delay per
    /// spoke; the hub still computes).
    pub fn star(speeds: Vec<f64>, unit_delay: f64) -> Self {
        let m = speeds.len();
        let mut t = Self::new(speeds);
        for i in 1..m {
            t = t.link(0, i, unit_delay);
        }
        t
    }

    /// Derive the fully-connected logical platform: the effective unit
    /// delay between every pair is the minimax (bottleneck) path delay
    /// through the physical links.
    ///
    /// Returns `None` when the topology is disconnected (some pair has no
    /// path at all).
    pub fn into_platform(self) -> Option<Platform> {
        let m = self.speeds.len();
        let mut adj = vec![Vec::<(usize, f64)>::new(); m];
        for &(a, b, d) in &self.links {
            adj[a].push((b, d));
            adj[b].push((a, d));
        }
        let mut delays = vec![0.0f64; m * m];
        for src in 0..m {
            // Dijkstra under the minimax metric: dist[v] = the smallest
            // achievable "largest link delay" on a path src → v.
            let mut dist = vec![f64::INFINITY; m];
            dist[src] = 0.0;
            let mut done = vec![false; m];
            for _ in 0..m {
                let mut u = usize::MAX;
                let mut best = f64::INFINITY;
                for v in 0..m {
                    if !done[v] && dist[v] < best {
                        best = dist[v];
                        u = v;
                    }
                }
                if u == usize::MAX {
                    break;
                }
                done[u] = true;
                for &(v, d) in &adj[u] {
                    let cand = dist[u].max(d);
                    if cand < dist[v] {
                        dist[v] = cand;
                    }
                }
            }
            for (v, &dv) in dist.iter().enumerate() {
                if v != src {
                    if !dv.is_finite() {
                        return None;
                    }
                    delays[src * m + v] = dv;
                }
            }
        }
        Some(Platform::from_parts(self.speeds, delays))
    }

    /// Derive the logical platform while keeping link identity: the
    /// returned platform carries this topology's [`RouteTable`] and places
    /// communications under the chosen [`CommMode`]. With
    /// [`CommMode::Uniform`] the result schedules bit-identically to
    /// [`Topology::into_platform`]; with [`CommMode::Contended`] every
    /// transfer additionally reserves the physical links on its route.
    ///
    /// Returns `None` when the topology is disconnected.
    pub fn into_platform_with(self, mode: CommMode) -> Option<Platform> {
        let table = self.route_table()?;
        Some(Platform::routed(self.speeds, table, mode))
    }

    /// Shorthand for [`Topology::into_platform_with`] under
    /// [`CommMode::Contended`].
    pub fn into_contended_platform(self) -> Option<Platform> {
        self.into_platform_with(CommMode::Contended)
    }

    /// The physical links added so far, in declaration (`LinkId`) order.
    pub fn links(&self) -> &[(usize, usize, f64)] {
        &self.links
    }

    /// Processor speeds.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// Compute the per-pair route cache: for every ordered pair the
    /// bottleneck-optimal physical path (minimal largest link delay, ties
    /// broken by fewest hops, then smallest predecessor id — so the
    /// extracted paths are deterministic) and its effective delay.
    ///
    /// The effective delays agree exactly with the matrix
    /// [`Topology::into_platform`] computes: the hop/id tie-breaks only
    /// choose *which* optimal path is cached, never its bottleneck value.
    ///
    /// Returns `None` when some pair has no path at all.
    pub fn route_table(&self) -> Option<RouteTable> {
        let m = self.speeds.len();
        let mut adj = vec![Vec::<(usize, usize)>::new(); m];
        for (i, &(a, b, _)) in self.links.iter().enumerate() {
            adj[a].push((b, i));
            adj[b].push((a, i));
        }
        let links: Vec<Link> = self
            .links
            .iter()
            .map(|&(a, b, delay)| Link { a, b, delay })
            .collect();
        let mut routes = vec![Route::default(); m * m];
        let mut path = Vec::new();
        for src in 0..m {
            // Minimax Dijkstra under the lexicographic (bottleneck, hops)
            // metric, recording the parent link of each settled node.
            let mut bott = vec![f64::INFINITY; m];
            let mut hops = vec![usize::MAX; m];
            let mut parent: Vec<Option<(usize, usize)>> = vec![None; m];
            bott[src] = 0.0;
            hops[src] = 0;
            let mut done = vec![false; m];
            for _ in 0..m {
                let mut u = usize::MAX;
                for v in 0..m {
                    if !done[v]
                        && bott[v].is_finite()
                        && (u == usize::MAX || (bott[v], hops[v]) < (bott[u], hops[u]))
                    {
                        u = v;
                    }
                }
                if u == usize::MAX {
                    break;
                }
                done[u] = true;
                for &(v, link) in &adj[u] {
                    let d = self.links[link].2;
                    let cand = (bott[u].max(d), hops[u] + 1);
                    if cand < (bott[v], hops[v]) {
                        bott[v] = cand.0;
                        hops[v] = cand.1;
                        parent[v] = Some((u, link));
                    }
                }
            }
            for v in 0..m {
                if v == src {
                    continue;
                }
                if !bott[v].is_finite() {
                    return None;
                }
                path.clear();
                let mut cur = v;
                while let Some((pred, link)) = parent[cur] {
                    path.push(LinkId(link as u32));
                    cur = pred;
                }
                debug_assert_eq!(cur, src);
                path.reverse();
                routes[src * m + v] = Route::from_parts(path.clone(), bott[v]);
            }
        }
        Some(RouteTable::from_parts(m, links, routes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::ProcId;

    #[test]
    fn chain_bottleneck_delays() {
        // P1 -1- P2 -3- P3 -2- P4: effective delay = max along the chain.
        let t = Topology::new(vec![1.0; 4])
            .link(0, 1, 1.0)
            .link(1, 2, 3.0)
            .link(2, 3, 2.0);
        let p = t.into_platform().expect("connected");
        assert_eq!(p.unit_delay(ProcId(0), ProcId(1)), 1.0);
        assert_eq!(p.unit_delay(ProcId(0), ProcId(2)), 3.0);
        assert_eq!(p.unit_delay(ProcId(0), ProcId(3)), 3.0);
        assert_eq!(p.unit_delay(ProcId(2), ProcId(3)), 2.0);
        // Symmetric.
        assert_eq!(
            p.unit_delay(ProcId(3), ProcId(0)),
            p.unit_delay(ProcId(0), ProcId(3))
        );
    }

    #[test]
    fn redundant_path_takes_better_bottleneck() {
        // Two routes 0 → 2: direct slow link (5) vs two fast hops (2, 2).
        let t = Topology::new(vec![1.0; 3])
            .link(0, 2, 5.0)
            .link(0, 1, 2.0)
            .link(1, 2, 2.0);
        let p = t.into_platform().expect("connected");
        assert_eq!(p.unit_delay(ProcId(0), ProcId(2)), 2.0);
    }

    #[test]
    fn star_routes_through_hub() {
        let p = Topology::star(vec![1.0; 5], 0.5)
            .into_platform()
            .expect("connected");
        // Spoke to spoke goes through the hub: bottleneck is still 0.5.
        assert_eq!(p.unit_delay(ProcId(1), ProcId(4)), 0.5);
        assert_eq!(p.unit_delay(ProcId(0), ProcId(3)), 0.5);
    }

    #[test]
    fn disconnected_rejected() {
        let t = Topology::new(vec![1.0; 3]).link(0, 1, 1.0);
        assert!(t.into_platform().is_none());
    }

    #[test]
    fn chain_constructor() {
        let p = Topology::chain(vec![1.0, 2.0, 1.0], 0.25)
            .into_platform()
            .expect("connected");
        assert_eq!(p.unit_delay(ProcId(0), ProcId(2)), 0.25);
        assert_eq!(p.speed(ProcId(1)), 2.0);
    }

    #[test]
    fn try_link_names_each_defect_and_link_panics_with_it() {
        let three = || Topology::new(vec![1.0; 3]);
        for (a, b, d, defect) in [
            (0, 3, 1.0, "endpoint out of range for 3 processors"),
            (3, 0, 1.0, "endpoint out of range for 3 processors"),
            (1, 1, 1.0, "self-link on P2"),
            (0, 1, 0.0, "delay is 0,"),
            (0, 1, -1.0, "delay is -1,"),
            (0, 1, f64::NAN, "delay is NaN,"),
            (0, 1, f64::INFINITY, "delay is inf,"),
        ] {
            let err = three().try_link(a, b, d).unwrap_err();
            assert!(err.contains(defect), "({a}, {b}, {d}): {err}");
            let payload = std::panic::catch_unwind(|| three().link(a, b, d)).unwrap_err();
            assert_eq!(payload.downcast_ref::<String>(), Some(&err));
        }
        let t = three().try_link(0, 2, 0.5).expect("valid link");
        assert_eq!(t.links(), &[(0, 2, 0.5)]);
    }

    #[test]
    fn route_table_extracts_paths() {
        let t = Topology::new(vec![1.0; 4])
            .link(0, 1, 1.0)
            .link(1, 2, 3.0)
            .link(2, 3, 2.0);
        let table = t.route_table().expect("connected");
        assert_eq!(table.num_links(), 3);
        let r = table.route(ProcId(0), ProcId(3));
        assert_eq!(r.links(), &[LinkId(0), LinkId(1), LinkId(2)]);
        assert_eq!(r.delay(), 3.0);
        assert_eq!(r.hops(), 3);
        // Reverse direction traverses the same links, reversed.
        let back = table.route(ProcId(3), ProcId(0));
        assert_eq!(back.links(), &[LinkId(2), LinkId(1), LinkId(0)]);
        // Self-routes are empty.
        assert!(table.route(ProcId(2), ProcId(2)).links().is_empty());
    }

    #[test]
    fn route_prefers_better_bottleneck_then_fewer_hops() {
        // 0 → 2: direct slow link (5) loses to two fast hops (2, 2).
        let t = Topology::new(vec![1.0; 3])
            .link(0, 2, 5.0)
            .link(0, 1, 2.0)
            .link(1, 2, 2.0);
        let table = t.route_table().expect("connected");
        assert_eq!(
            table.route(ProcId(0), ProcId(2)).links(),
            &[LinkId(1), LinkId(2)]
        );
        // Equal bottleneck: the direct hop wins over a detour.
        let t = Topology::new(vec![1.0; 3])
            .link(0, 2, 2.0)
            .link(0, 1, 2.0)
            .link(1, 2, 2.0);
        let table = t.route_table().expect("connected");
        assert_eq!(table.route(ProcId(0), ProcId(2)).links(), &[LinkId(0)]);
    }

    #[test]
    fn route_table_disconnected_rejected() {
        let t = Topology::new(vec![1.0; 3]).link(0, 1, 1.0);
        assert!(t.route_table().is_none());
        assert!(Topology::new(vec![1.0; 3])
            .link(0, 1, 1.0)
            .into_contended_platform()
            .is_none());
    }

    #[test]
    fn contended_platform_matches_uniform_matrix() {
        // The routed delay matrix is bit-identical to the flattened one.
        let build = || {
            Topology::new(vec![1.5, 1.0, 1.0, 2.0])
                .link(0, 1, 1.0)
                .link(1, 2, 3.0)
                .link(2, 3, 2.0)
                .link(0, 3, 7.0)
        };
        let flat = build().into_platform().expect("connected");
        let routed = build().into_contended_platform().expect("connected");
        assert!(routed.is_contended());
        assert_eq!(routed.num_links(), 4);
        for k in flat.procs() {
            for h in flat.procs() {
                assert_eq!(flat.unit_delay(k, h), routed.unit_delay(k, h));
            }
        }
        // Uniform-mode topology platform: same matrix, no links kept.
        let uni = build()
            .into_platform_with(CommMode::Uniform)
            .expect("connected");
        assert!(!uni.is_contended());
        assert_eq!(uni.num_links(), 0);
        assert_eq!(uni.unit_delay(ProcId(0), ProcId(3)), 3.0);
    }

    #[test]
    fn star_routes_two_hops_through_hub() {
        let p = Topology::star(vec![1.0; 4], 0.5)
            .into_contended_platform()
            .expect("connected");
        assert_eq!(p.route(ProcId(1), ProcId(3)).len(), 2);
        assert_eq!(p.route(ProcId(0), ProcId(2)).len(), 1);
        assert_eq!(p.link_delay(LinkId(0)), 0.5);
    }

    #[test]
    fn derived_platform_has_standard_invariants() {
        let p = Topology::chain(vec![1.0; 4], 0.2)
            .into_platform()
            .expect("connected");
        assert_eq!(p.num_procs(), 4);
        assert_eq!(p.max_delay(), 0.2);
        assert_eq!(p.unit_delay(ProcId(2), ProcId(2)), 0.0);
    }
}
