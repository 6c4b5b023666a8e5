//! Routed communication: link identity underneath the logical delay
//! matrix.
//!
//! The paper's platform (§2) reduces a routed path to its bottleneck
//! bandwidth in an `m × m` unit-delay matrix. That cannot express link
//! *contention*: when several transfers share one physical link, the link
//! — not the endpoint ports — bounds what the schedule can sustain.
//!
//! [`RouteTable`] keeps the physical links of a [`crate::Topology`] and,
//! per ordered processor pair, the [`Route`] its messages take (the
//! bottleneck-optimal path and its delay). A [`crate::Platform`] built
//! under [`CommMode::Contended`] carries one: each message reserves every
//! link on its route for its whole transfer window `[start, start +
//! vol·d_kh)`, so transfers sharing a link serialize, and per-link load
//! counts against the period. A platform without a table is the paper's
//! matrix model: no links, every route empty.

use crate::platform::ProcId;
use serde::{Deserialize, Serialize};

/// Dense identifier of a physical link, `0..L` in topology declaration
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The link id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0 + 1)
    }
}

/// One undirected physical link: endpoints and unit message delay
/// (`= 1/bandwidth`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// First endpoint (processor index).
    pub a: usize,
    /// Second endpoint (processor index).
    pub b: usize,
    /// Unit message delay of the link.
    pub delay: f64,
}

/// The routed path of one ordered processor pair: the physical links the
/// message traverses, in order from source to destination, plus the
/// effective (bottleneck) unit delay — the largest link delay on the path,
/// which is what [`crate::Topology::into_platform`] keeps in the matrix.
#[derive(Debug, Clone, Default)]
pub struct Route {
    links: Vec<LinkId>,
    delay: f64,
}

impl Route {
    /// Build from a link path and its bottleneck delay (crate-internal;
    /// routes come out of [`crate::Topology::route_table`]).
    pub(crate) fn from_parts(links: Vec<LinkId>, delay: f64) -> Self {
        Self { links, delay }
    }

    /// The links traversed, source to destination. Empty for a processor
    /// talking to itself.
    #[inline]
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Effective (bottleneck) unit delay of the route.
    #[inline]
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// Number of physical hops.
    #[inline]
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// Physical links plus the per-pair route cache. Built once per topology by
/// [`crate::Topology::route_table`]; shared by every prefix of a contended
/// platform and every engine scheduling on it.
#[derive(Debug, Clone)]
pub struct RouteTable {
    m: usize,
    links: Vec<Link>,
    /// Row-major `m × m`; `routes[k*m + h]` is the route `P_k → P_h`.
    routes: Vec<Route>,
}

impl RouteTable {
    /// Build from raw parts (crate-internal; use
    /// [`crate::Topology::route_table`]).
    pub(crate) fn from_parts(m: usize, links: Vec<Link>, routes: Vec<Route>) -> Self {
        debug_assert_eq!(routes.len(), m * m);
        Self { m, links, routes }
    }

    /// Number of processors the table routes between.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.m
    }

    /// Number of physical links.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The physical links, in declaration order (`LinkId` order).
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// One physical link.
    #[inline]
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.index()]
    }

    /// The cached route of an ordered pair.
    #[inline]
    pub fn route(&self, k: ProcId, h: ProcId) -> &Route {
        &self.routes[k.index() * self.m + h.index()]
    }
}

/// Wire tag selecting how a topology-described platform models
/// communication: `Uniform` flattens routes into the delay matrix (the
/// paper's model), `Contended` keeps link identity and reserves per-link
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommMode {
    /// Matrix model: routes are flattened to bottleneck delays.
    Uniform,
    /// Routed model: transfers reserve every link on their route.
    Contended,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use crate::topology::Topology;

    #[test]
    fn uniform_has_no_links() {
        let p = Topology::chain(vec![1.0; 3], 2.0).into_platform_with(CommMode::Uniform);
        let p = p.expect("connected");
        assert!(!p.is_contended() && p.route_table().is_none());
        assert_eq!(p.num_links(), 0);
        assert!(p.route(ProcId(0), ProcId(2)).is_empty());
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn uniform_link_delay_panics() {
        Platform::homogeneous(2, 1.0, 1.0).link_delay(LinkId(0));
    }

    #[test]
    fn contended_routes_through_table() {
        let p = Topology::chain(vec![1.0; 3], 2.0).into_contended_platform();
        let p = p.expect("connected");
        assert!(p.is_contended());
        assert_eq!(p.route_table().map(RouteTable::num_links), Some(2));
        // 0 → 2 crosses both chain links, in order.
        assert_eq!(p.route(ProcId(0), ProcId(2)), &[LinkId(0), LinkId(1)]);
        assert_eq!(p.route(ProcId(2), ProcId(0)), &[LinkId(1), LinkId(0)]);
        assert!(p.route(ProcId(1), ProcId(1)).is_empty());
        assert_eq!(p.link_delay(LinkId(1)), 2.0);
    }

    #[test]
    fn display_and_mode_roundtrip() {
        assert_eq!(LinkId(0).to_string(), "L1");
        let v = serde::Serialize::to_value(&CommMode::Contended);
        assert_eq!(
            <CommMode as serde::Deserialize>::from_value(&v).unwrap(),
            CommMode::Contended
        );
    }
}
