//! LRU cache properties: capacity-bounded eviction in recency order,
//! in-place updates that leave recency alone, case-insensitive
//! heuristic-name keying, and hit/miss counters that match a naive
//! unbounded-map replay. Also the engine-level property the protocol
//! relies on: the caches change no reply but its `cached` flag.

use ltf_core::AlgoConfig;
use ltf_graph::generate::{fig1_diamond, layered, LayeredConfig};
use ltf_graph::TaskGraph;
use ltf_platform::Platform;
use ltf_serve::cache::{graph_fingerprint, platform_fingerprint};
use ltf_serve::{CacheKey, LruCache, Service, ServiceConfig, SolutionWire};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

fn instance() -> (TaskGraph, Platform) {
    (fig1_diamond(), Platform::fig1_platform())
}

/// A distinct key per `seed` (the config seed is part of the key).
fn key_for(g: &TaskGraph, p: &Platform, heuristic: &str, seed: u64) -> CacheKey {
    CacheKey::new(g, p, heuristic, &AlgoConfig::new(0, 10.0).seeded(seed))
}

/// Any cached payload; eviction tests only care about keys.
fn payload(g: &TaskGraph, p: &Platform) -> SolutionWire {
    let solver = ltf_baselines::full_solver(g, p);
    SolutionWire::from_solution(&solver.solve("ltf", &AlgoConfig::new(0, 100.0)).unwrap())
}

#[test]
fn capacity_evicts_least_recently_used() {
    let (g, p) = instance();
    let wire = payload(&g, &p);
    let mut cache = LruCache::new(3);
    let keys: Vec<CacheKey> = (0..5).map(|s| key_for(&g, &p, "ltf", s)).collect();
    for k in &keys[..3] {
        cache.insert(k.clone(), wire.clone());
    }
    assert_eq!(cache.len(), 3);
    // Touch key 0 so key 1 becomes the LRU entry.
    assert!(cache.get(&keys[0]).is_some());
    cache.insert(keys[3].clone(), wire.clone());
    assert!(!cache.contains(&keys[1]), "LRU entry must be evicted");
    assert!(cache.contains(&keys[0]) && cache.contains(&keys[2]) && cache.contains(&keys[3]));
    // Order introspection agrees: 2 is now least recently used.
    cache.insert(keys[4].clone(), wire.clone());
    assert!(!cache.contains(&keys[2]));
    assert_eq!(cache.len(), 3);
    // Re-inserting an existing key refreshes recency instead of growing.
    cache.insert(keys[0].clone(), wire.clone());
    assert_eq!(cache.len(), 3);
    assert_eq!(cache.keys_lru_first().last().expect("non-empty"), &keys[0]);
}

#[test]
fn zero_capacity_disables_caching() {
    let (g, p) = instance();
    let wire = payload(&g, &p);
    let mut cache = LruCache::new(0);
    let k = key_for(&g, &p, "ltf", 1);
    cache.insert(k.clone(), wire);
    assert!(cache.is_empty());
    assert!(cache.get(&k).is_none());
    assert_eq!((cache.hits(), cache.misses()), (0, 1));
}

/// `update` swaps a value in place: recency and counters stay as they
/// were, and an absent key is not inserted.
#[test]
fn update_keeps_recency_and_counters() {
    let (g, p) = instance();
    let keys: Vec<CacheKey> = (0..3).map(|s| key_for(&g, &p, "ltf", s)).collect();
    let mut cache: LruCache<u32> = LruCache::new(2);
    cache.insert(keys[0].clone(), 0);
    cache.insert(keys[1].clone(), 1);
    assert_eq!(cache.get(&keys[1]), Some(1));
    let counters = (cache.hits(), cache.misses());
    cache.update(&keys[0], 10);
    cache.update(&keys[2], 12);
    assert_eq!((cache.hits(), cache.misses()), counters);
    assert!(!cache.contains(&keys[2]), "an absent key stays absent");
    assert_eq!(
        cache.keys_lru_first().collect::<Vec<_>>(),
        [&keys[0], &keys[1]]
    );
    // The updated entry is still the least recently used one.
    cache.insert(keys[2].clone(), 2);
    assert!(!cache.contains(&keys[0]));
    cache.update(&keys[1], 11);
    assert_eq!(cache.get(&keys[1]), Some(11));
}

#[test]
fn heuristic_name_keys_are_case_insensitive() {
    let (g, p) = instance();
    for (a, b) in [
        ("ltf", "LTF"),
        ("rltf", "Rltf"),
        ("fault-free", "FAULT-FREE"),
    ] {
        assert_eq!(key_for(&g, &p, a, 7), key_for(&g, &p, b, 7));
    }
    assert_ne!(key_for(&g, &p, "ltf", 7), key_for(&g, &p, "rltf", 7));
}

#[test]
fn fingerprints_separate_instances() {
    let mut rng = StdRng::seed_from_u64(0xF1_99);
    let mut graph_fps = HashSet::new();
    let mut plat_fps = HashSet::new();
    for i in 0..50 {
        let g = layered(
            &LayeredConfig {
                tasks: 6 + (i % 10),
                exec_range: (0.5, 2.0),
                volume_range: (0.2, 1.0),
                ..Default::default()
            },
            &mut rng,
        );
        let p = Platform::homogeneous(2 + (i % 5), 1.0 + i as f64 * 0.01, 0.25);
        assert!(graph_fps.insert(graph_fingerprint(&g)), "graph collision");
        assert!(
            plat_fps.insert(platform_fingerprint(&p)),
            "platform collision"
        );
        // Fingerprints are pure functions of the content.
        assert_eq!(graph_fingerprint(&g), graph_fingerprint(&g.clone()));
        assert_eq!(platform_fingerprint(&p), platform_fingerprint(&p.clone()));
    }
    // A weight nudge changes the graph fingerprint.
    let g = fig1_diamond();
    let mut h = g.clone();
    h.scale_exec_times(1.0000001);
    assert_ne!(graph_fingerprint(&g), graph_fingerprint(&h));

    // A contended platform shares its delay matrix with its flattened twin
    // but schedules differently, so the fingerprints must differ; the
    // Uniform-mode lowering is matrix-equivalent and hashes identically.
    use ltf_platform::{CommMode, Topology};
    let chain = || Topology::chain(vec![1.0; 4], 0.5);
    let flat = chain().into_platform().unwrap();
    let uniform = chain().into_platform_with(CommMode::Uniform).unwrap();
    let contended = chain().into_contended_platform().unwrap();
    assert_eq!(platform_fingerprint(&flat), platform_fingerprint(&uniform));
    assert_ne!(
        platform_fingerprint(&flat),
        platform_fingerprint(&contended)
    );
}

/// Replay a random request stream against the LRU and against a naive
/// unbounded map, asserting the counters agree whenever the capacity is
/// large enough, and that LRU hits are a subset of naive hits otherwise.
#[test]
fn counters_match_naive_map_replay() {
    let (g, p) = instance();
    let wire = payload(&g, &p);
    let mut rng = StdRng::seed_from_u64(0x10_0F);
    for &capacity in &[2usize, 5, 16, 64] {
        let mut cache = LruCache::new(capacity);
        let mut naive: HashSet<u64> = HashSet::new();
        let mut naive_hits = 0u64;
        let mut naive_misses = 0u64;
        for _ in 0..300 {
            let seed = rng.gen_range(0u64..12);
            let key = key_for(&g, &p, "ltf", seed);
            let lru_hit = cache.get(&key).is_some();
            if !lru_hit {
                cache.insert(key, wire.clone());
            }
            if naive.insert(seed) {
                naive_misses += 1;
                assert!(!lru_hit, "LRU cannot hit a key never inserted");
            } else {
                naive_hits += 1;
            }
            assert!(cache.len() <= capacity, "capacity breached");
        }
        assert_eq!(cache.hits() + cache.misses(), 300);
        if capacity >= 12 {
            // Working set (12 keys) fits: LRU behaves exactly like the
            // unbounded map.
            assert_eq!((cache.hits(), cache.misses()), (naive_hits, naive_misses));
        } else {
            // Evictions can only turn would-be hits into misses.
            assert!(cache.hits() <= naive_hits);
            assert!(cache.misses() >= naive_misses);
        }
    }
}

/// The engine invariant everything above feeds into: the caches are
/// transparent. At every capacity — tiny ones evicting from both caches
/// included — each reply equals the reply of a service without caches,
/// once `"cached":true` is read as `false`, over duplicate requests and
/// repeated infeasible keys.
#[test]
fn caches_change_no_reply_but_its_cached_flag() {
    let (g, p) = instance();
    let mut rng = StdRng::seed_from_u64(0x5E_41);
    let heuristics = ["ltf", "RLTF", "fault-free", "heft"];
    // Period 1 is below every diamond task's time on the fastest
    // processor (15 / 1.5), so those solves fail.
    let periods = [30.0, 40.0, 1.0];
    let lines: Vec<String> = (0..64)
        .map(|i| {
            let heuristic = heuristics[rng.gen_range(0usize..heuristics.len())];
            let req = ltf_serve::SolveRequest {
                id: Some(i),
                heuristic: heuristic.to_string(),
                graph: g.clone(),
                platform: p.clone(),
                config: ltf_serve::proto::RequestConfig {
                    epsilon: rng.gen_range(0u8..2),
                    period: periods[rng.gen_range(0usize..periods.len())],
                    chunk_size: None,
                    seed: Some(rng.gen_range(0u64..3)),
                    use_one_to_one: None,
                    rule1: None,
                    rule2: None,
                    cluster_ties: None,
                },
            };
            serde_json::to_string(&req).unwrap()
        })
        .collect();
    let service = |cache_capacity| {
        Service::new(ServiceConfig {
            cache_capacity,
            ..ServiceConfig::default()
        })
    };
    let uncached = service(0);
    let want: Vec<String> = lines.iter().map(|l| uncached.handle_line(l)).collect();
    let ur = uncached.stats_report();
    assert!(ur.errors_by_kind["infeasible"] > 0);
    for capacity in [1usize, 2, 64] {
        let cached = service(capacity);
        for (i, (line, want)) in lines.iter().zip(&want).enumerate() {
            let got = cached.handle_line(line);
            assert_eq!(
                &got.replacen(r#""cached":true"#, r#""cached":false"#, 1),
                want,
                "capacity {capacity}, line {i}"
            );
        }
        let cr = cached.stats_report();
        assert_eq!(cr.cache_hits + cr.cache_misses, 64, "capacity {capacity}");
        assert!(cr.cache_len <= capacity);
        assert_eq!((cr.ok, cr.errors), (ur.ok, ur.errors));
        assert_eq!(cr.errors_by_kind, ur.errors_by_kind);
        if capacity == 64 {
            // Both caches answer repeats when nothing is evicted.
            assert!(cr.cache_hits > 0 && cr.verdict_hits > 0, "{cr:?}");
        }
    }
}
