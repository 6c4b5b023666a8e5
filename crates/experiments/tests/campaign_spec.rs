//! Campaign-spec error corpus and expansion goldens: one test per
//! rejection class (each asserting the *typed* [`SpecError`] variant, not
//! just "some error"), plus golden checks on matrix expansion order,
//! work-item flattening, and shard partition coverage — the properties
//! the distributed merge's byte-identity rests on.

use ltf_core::shard::Shard;
use ltf_experiments::campaign::{
    journal_key, slo_cells, slo_work_items, work_items, CampaignKind, CampaignSpec, ParetoKind,
    SloKind, SpecError, TopologyShape, DEFAULT_SEED, MAX_FAILURE_ITEMS, MAX_WORK_ITEMS,
};
use ltf_experiments::{gen_instance, gen_instance_on};

/// A minimal valid spec; each corpus test breaks exactly one thing.
fn valid() -> String {
    r#"{
      "name": "corpus",
      "graphs": ["fig1"],
      "heuristics": ["rltf"]
    }"#
    .to_string()
}

#[test]
fn valid_spec_parses_and_expands() {
    let spec = CampaignSpec::parse(&valid()).unwrap();
    let exps = spec.expand().unwrap();
    assert_eq!(exps.len(), 1);
    assert_eq!(exps[0].label, "fig1/rltf/eps=all");
    assert_eq!(exps[0].instances, 1);
    assert_eq!(exps[0].base_seed, DEFAULT_SEED);
}

#[test]
fn malformed_json_is_a_parse_error() {
    match CampaignSpec::parse(r#"{"name": "x", "graphs": ["#) {
        Err(SpecError::Parse(_)) => {}
        other => panic!("expected Parse, got {other:?}"),
    }
}

#[test]
fn unknown_field_is_a_parse_error_naming_the_field() {
    let text = valid().replace(r#""name": "corpus","#, r#""name": "corpus", "grpahs": [],"#);
    match CampaignSpec::parse(&text) {
        Err(SpecError::Parse(msg)) => assert!(msg.contains("grpahs"), "{msg}"),
        other => panic!("expected Parse, got {other:?}"),
    }
}

#[test]
fn wrong_typed_field_is_a_parse_error() {
    let text = valid().replace(r#"["fig1"]"#, r#""fig1""#);
    match CampaignSpec::parse(&text) {
        Err(SpecError::Parse(_)) => {}
        other => panic!("expected Parse, got {other:?}"),
    }
}

#[test]
fn empty_axis_is_typed_and_names_the_axis() {
    let text = valid().replace(r#"["rltf"]"#, "[]");
    let spec = CampaignSpec::parse(&text).unwrap();
    match spec.expand() {
        Err(SpecError::EmptyAxis(axis)) => assert_eq!(axis, "heuristics"),
        other => panic!("expected EmptyAxis, got {other:?}"),
    }
    // Optional axes declared-but-empty are rejected too (absence means
    // "default", an empty list means "no cells" — a silent zero-matrix).
    let mut spec = CampaignSpec::parse(&valid()).unwrap();
    spec.platform_procs = Some(vec![]);
    match spec.expand() {
        Err(SpecError::EmptyAxis(axis)) => assert_eq!(axis, "platform_procs"),
        other => panic!("expected EmptyAxis, got {other:?}"),
    }
}

#[test]
fn inverted_epsilon_band_is_typed_with_both_bounds() {
    let text = valid().replace(
        r#""heuristics": ["rltf"]"#,
        r#""heuristics": ["rltf"], "epsilons": [{"min": 3, "max": 1}]"#,
    );
    let spec = CampaignSpec::parse(&text).unwrap();
    match spec.expand() {
        Err(SpecError::BadEpsilonRange { min: 3, max: 1 }) => {}
        other => panic!("expected BadEpsilonRange{{3,1}}, got {other:?}"),
    }
}

#[test]
fn out_of_domain_values_are_bad_values() {
    let mut spec = CampaignSpec::parse(&valid()).unwrap();
    spec.instances = Some(0);
    assert!(matches!(spec.expand(), Err(SpecError::BadValue(_))));
    let mut spec = CampaignSpec::parse(&valid()).unwrap();
    spec.utilizations = Some(vec![-0.5]);
    assert!(matches!(spec.expand(), Err(SpecError::BadValue(_))));
    // Above the engine's processor ceiling: a typed rejection, not the
    // engine's assert mid-campaign.
    let mut spec = CampaignSpec::parse(&valid()).unwrap();
    spec.platform_procs = Some(vec![130]);
    assert!(matches!(spec.expand(), Err(SpecError::BadValue(_))));
}

#[test]
fn unknown_graph_and_heuristic_are_distinct_errors() {
    let spec = CampaignSpec::parse(&valid().replace("fig1", "fig9")).unwrap();
    match spec.expand() {
        Err(SpecError::UnknownGraph(name)) => assert_eq!(name, "fig9"),
        other => panic!("expected UnknownGraph, got {other:?}"),
    }
    let spec = CampaignSpec::parse(&valid().replace("rltf", "magic")).unwrap();
    match spec.expand() {
        Err(SpecError::UnknownHeuristic(name)) => assert_eq!(name, "magic"),
        other => panic!("expected UnknownHeuristic, got {other:?}"),
    }
}

/// Expansion order is the contract item indices, seeds and the merge all
/// hang off: graphs × heuristics × ε-bands, outermost first.
#[test]
fn expansion_order_is_the_documented_cartesian_product() {
    let text = r#"{
      "name": "order",
      "graphs": ["fig1", "fig2-variant"],
      "heuristics": ["rltf", "ltf"],
      "epsilons": [{"max": 1}, {"min": 2, "max": 2}]
    }"#;
    let spec = CampaignSpec::parse(text).unwrap();
    let labels: Vec<String> = spec
        .expand()
        .unwrap()
        .into_iter()
        .map(|e| e.label)
        .collect();
    assert_eq!(
        labels,
        [
            "fig1/rltf/eps=..1",
            "fig1/rltf/eps=2..2",
            "fig1/ltf/eps=..1",
            "fig1/ltf/eps=2..2",
            "fig2-variant/rltf/eps=..1",
            "fig2-variant/rltf/eps=2..2",
            "fig2-variant/ltf/eps=..1",
            "fig2-variant/ltf/eps=2..2",
        ]
    );
}

#[test]
fn seeds_are_stable_per_experiment_not_per_run() {
    let spec = CampaignSpec::parse(&valid()).unwrap();
    let a = spec.expand().unwrap();
    let b = spec.expand().unwrap();
    let key = |e: &ltf_experiments::campaign::Experiment| (e.index, e.label.clone(), e.base_seed);
    assert_eq!(
        a.iter().map(&key).collect::<Vec<_>>(),
        b.iter().map(&key).collect::<Vec<_>>(),
        "expansion must be a pure function of the spec"
    );
    // An explicit seed shifts every experiment deterministically.
    let mut seeded = spec.clone();
    seeded.seed = Some(42);
    let c = seeded.expand().unwrap();
    assert_ne!(a[0].base_seed, c[0].base_seed);
}

/// Every work item is owned by exactly one shard, for any shard count —
/// the partition the coordinator's merge completeness check relies on.
#[test]
fn work_items_partition_exactly_across_shards() {
    let text = r#"{
      "name": "partition",
      "graphs": ["workload"],
      "heuristics": ["rltf"],
      "instances": 5,
      "platform_procs": [4, 8]
    }"#;
    let spec = CampaignSpec::parse(text).unwrap();
    let items = work_items(&spec.expand().unwrap());
    assert_eq!(items.len(), 10, "2 experiments × 5 instances");
    // Items are globally indexed in order.
    for (i, wi) in items.iter().enumerate() {
        assert_eq!(wi.item, i);
    }
    for n in 1..=4 {
        let mut owned = vec![0usize; items.len()];
        for k in 0..n {
            let shard = Shard::new(k, n).unwrap();
            for wi in &items {
                if shard.owns(wi.item) {
                    owned[wi.item] += 1;
                }
            }
        }
        assert!(
            owned.iter().all(|&c| c == 1),
            "every item owned exactly once for n={n}: {owned:?}"
        );
    }
}

#[test]
fn signature_tracks_spec_content() {
    let a = CampaignSpec::parse(&valid()).unwrap();
    let mut b = a.clone();
    assert_eq!(a.signature(), b.signature());
    b.seed = Some(1);
    assert_ne!(
        a.signature(),
        b.signature(),
        "journal keys must not collide across different specs"
    );
}

/// A minimal valid SLO spec; each corpus test below breaks one thing.
fn valid_slo() -> String {
    r#"{
      "name": "slo-corpus",
      "graphs": ["fig1"],
      "heuristics": ["rltf"],
      "epsilons": [{"max": 1}],
      "failure": {"rate": 0.01, "period": 30.0},
      "slo": {"max_latency": 100.0, "max_violation_rate": 0.1}
    }"#
    .to_string()
}

/// Expand a broken-by-substitution SLO spec and return its `BadValue`
/// message (panicking on any other outcome). Validation runs at
/// expansion, like the rest of the corpus.
fn slo_bad_value(from: &str, to: &str) -> String {
    let spec = CampaignSpec::parse(&valid_slo().replace(from, to)).unwrap();
    match spec.expand() {
        Err(SpecError::BadValue(msg)) => msg,
        other => panic!("expected BadValue for {to:?}, got {other:?}"),
    }
}

#[test]
fn valid_slo_spec_parses_and_expands_cells() {
    let spec = CampaignSpec::parse(&valid_slo()).unwrap();
    let exps = spec.expand().unwrap();
    let cells = slo_cells(&exps);
    assert_eq!(cells.len(), 2, "ε ∈ {{0, 1}} × 1 instance");
    assert_eq!(cells[0].label, "fig1/rltf/eps=..1/eps=0/inst=0");
    assert_eq!(cells[1].epsilon, 1);
    let f = spec.failure.as_ref().unwrap();
    let items = slo_work_items(f, &cells);
    // Default 16 traces in blocks of 4 → 4 blocks per cell.
    assert_eq!(items.len(), 8);
    for (i, wi) in items.iter().enumerate() {
        assert_eq!(wi.item, i, "global item indices are dense");
        assert!(wi.t0 < wi.t1 && wi.t1 <= f.traces());
    }
}

#[test]
fn slo_without_failure_is_rejected() {
    let text = valid_slo().replace(r#""failure": {"rate": 0.01, "period": 30.0},"#, "");
    let spec = CampaignSpec::parse(&text).unwrap();
    match spec.expand() {
        Err(SpecError::BadValue(msg)) => assert!(msg.contains("requires"), "{msg}"),
        other => panic!("expected BadValue, got {other:?}"),
    }
}

#[test]
fn failure_needs_exactly_one_rate_form() {
    let msg = slo_bad_value(r#""rate": 0.01,"#, "");
    assert!(msg.contains("exactly one"), "{msg}");
    let msg = slo_bad_value(r#""rate": 0.01"#, r#""rate": 0.01, "rates": [0.01]"#);
    assert!(msg.contains("exactly one"), "{msg}");
    let msg = slo_bad_value(r#""rate": 0.01"#, r#""rate": -0.5"#);
    assert!(msg.contains("non-negative"), "{msg}");
    // Explicit rates must fit every swept platform, including the fig
    // families' pinned sizes (fig1 has 4 processors).
    let msg = slo_bad_value(r#""rate": 0.01"#, r#""rates": [0.01, 0.01]"#);
    assert!(msg.contains("\"fig1\" cells have m=4"), "{msg}");
    let fits = valid_slo().replace(r#""rate": 0.01"#, r#""rates": [0.01, 0.01, 0.01, 0.01]"#);
    assert!(CampaignSpec::parse(&fits).unwrap().expand().is_ok());
}

/// Both journal-key formats, literally: resumable journals written by one
/// build must replay under the next, so the key layout is a file format.
#[test]
fn journal_keys_are_pinned_per_kind() {
    assert_eq!(
        journal_key(ParetoKind::PREFIX, "n", 0xabc, 3),
        "campaign:n:0000000000000abc:item=000003"
    );
    assert_eq!(
        journal_key(SloKind::PREFIX, "n", 0xabc, 3),
        "slo:n:0000000000000abc:item=000003"
    );
}

#[test]
fn failure_counts_must_be_positive() {
    for field in ["traces", "items", "block"] {
        let msg = slo_bad_value(r#""rate": 0.01"#, &format!(r#""rate": 0.01, "{field}": 0"#));
        assert!(msg.contains(field) && msg.contains("≥ 1"), "{msg}");
    }
}

/// A spec that would expand past the work-item limit is a typed rejection
/// before any item exists, through both campaign kinds; the limit itself
/// still expands.
#[test]
fn work_item_count_is_capped_before_expansion() {
    let big =
        r#"{"name":"big","graphs":["workload"],"heuristics":["rltf"],"instances":100000000000}"#;
    let spec = CampaignSpec::parse(big).unwrap();
    match ParetoKind::new(&spec) {
        Err(SpecError::BadValue(msg)) => {
            assert!(msg.contains("\"instances\""), "{msg}");
            assert!(msg.contains(&MAX_WORK_ITEMS.to_string()), "{msg}");
        }
        other => panic!("expected BadValue, got {:?}", other.err()),
    }
    let at_limit = big.replace("100000000000", &MAX_WORK_ITEMS.to_string());
    assert!(CampaignSpec::parse(&at_limit).unwrap().expand().is_ok());
    // SLO: cells × ⌈traces / block⌉ = 2 × 2^20 blocks.
    let text = valid_slo().replace(
        r#""rate": 0.01"#,
        &format!(r#""rate": 0.01, "traces": {MAX_WORK_ITEMS}, "block": 1"#),
    );
    let spec = CampaignSpec::parse(&text).unwrap();
    match SloKind::new(&spec, spec.failure.as_ref().unwrap()) {
        Err(SpecError::BadValue(msg)) => assert!(msg.contains("failure.traces"), "{msg}"),
        other => panic!("expected BadValue, got {:?}", other.err()),
    }
}

#[test]
fn failure_items_are_capped() {
    let msg = slo_bad_value(r#""rate": 0.01"#, r#""rate": 0.01, "items": 10000000000"#);
    assert!(msg.contains("\"failure.items\""), "{msg}");
    assert!(msg.contains(&MAX_FAILURE_ITEMS.to_string()), "{msg}");
    let at_limit = valid_slo().replace(
        r#""rate": 0.01"#,
        &format!(r#""rate": 0.01, "items": {MAX_FAILURE_ITEMS}"#),
    );
    assert!(CampaignSpec::parse(&at_limit).unwrap().expand().is_ok());
}

#[test]
fn fig_families_require_an_explicit_period() {
    let msg = slo_bad_value(r#", "period": 30.0"#, "");
    assert!(msg.contains("period"), "{msg}");
    let msg = slo_bad_value(r#""period": 30.0"#, r#""period": 0.0"#);
    assert!(msg.contains("positive"), "{msg}");
}

#[test]
fn policy_and_engine_domains_are_closed() {
    let msg = slo_bad_value(r#""period": 30.0"#, r#""period": 30.0, "policy": "heal""#);
    assert!(msg.contains("fail-stop"), "{msg}");
    let msg = slo_bad_value(r#""period": 30.0"#, r#""period": 30.0, "engine": "magic""#);
    assert!(msg.contains("asap"), "{msg}");
}

#[test]
fn slo_campaigns_reject_unbounded_bands_and_the_all_heuristic() {
    let msg = slo_bad_value(r#""epsilons": [{"max": 1}],"#, "");
    assert!(msg.contains("bounded"), "{msg}");
    let msg = slo_bad_value(r#"[{"max": 1}]"#, r#"[{"min": 1}]"#);
    assert!(msg.contains("bounded"), "{msg}");
    let msg = slo_bad_value(r#"["rltf"]"#, r#"["all"]"#);
    assert!(msg.contains("witness"), "{msg}");
}

#[test]
fn slo_threshold_domains_are_checked() {
    let msg = slo_bad_value(r#""max_latency": 100.0"#, r#""max_latency": -1.0"#);
    assert!(msg.contains("max_latency"), "{msg}");
    let msg = slo_bad_value(
        r#""max_violation_rate": 0.1"#,
        r#""max_violation_rate": 1.5"#,
    );
    assert!(msg.contains("[0, 1]"), "{msg}");
}

/// A minimal valid routed-workload spec; the topology corpus below breaks
/// one thing per case.
fn valid_topology() -> String {
    r#"{
      "name": "topo-corpus",
      "graphs": ["workload"],
      "heuristics": ["rltf"],
      "platform_procs": [4],
      "topology": {"shape": {"Chain": 0.5}}
    }"#
    .to_string()
}

/// Expand a broken-by-substitution topology spec and return its
/// `BadTopology` message (panicking on any other outcome).
fn topology_rejection(from: &str, to: &str) -> String {
    let spec = CampaignSpec::parse(&valid_topology().replace(from, to)).unwrap();
    match spec.expand() {
        Err(SpecError::BadTopology(msg)) => msg,
        other => panic!("expected BadTopology for {to:?}, got {other:?}"),
    }
}

#[test]
fn topology_spec_builds_routed_platforms() {
    let spec = CampaignSpec::parse(&valid_topology()).unwrap();
    let exps = spec.expand().unwrap();
    assert_eq!(exps.len(), 1);
    let topo = exps[0].topology.as_ref().expect("carried into the cell");
    // Default model is Contended: the platform keeps link identity — a
    // 4-processor chain has 3 physical links.
    let inst = gen_instance_on(&exps[0].workload, exps[0].base_seed, Some(topo));
    assert!(inst.platform.is_contended());
    assert_eq!(inst.platform.num_procs(), 4);
    assert_eq!(inst.platform.num_links(), 3);
    // Uniform mode flattens: same matrix, no links kept.
    let text =
        valid_topology().replace(r#"{"Chain": 0.5}"#, r#"{"Chain": 0.5}, "mode": "Uniform""#);
    let uni = CampaignSpec::parse(&text).unwrap().expand().unwrap();
    let flat = gen_instance_on(&uni[0].workload, uni[0].base_seed, uni[0].topology.as_ref());
    assert!(!flat.platform.is_contended());
    for k in flat.platform.procs() {
        assert_eq!(flat.platform.speed(k), inst.platform.speed(k));
        for h in flat.platform.procs() {
            assert_eq!(
                flat.platform.unit_delay(k, h).to_bits(),
                inst.platform.unit_delay(k, h).to_bits()
            );
        }
    }
    // Without a topology, `gen_instance_on` is exactly `gen_instance`.
    let a = gen_instance(&exps[0].workload, 7);
    let b = gen_instance_on(&exps[0].workload, 7, None);
    assert_eq!(a.graph.num_tasks(), b.graph.num_tasks());
    for k in a.platform.procs() {
        for h in a.platform.procs() {
            assert_eq!(
                a.platform.unit_delay(k, h).to_bits(),
                b.platform.unit_delay(k, h).to_bits()
            );
        }
    }
}

#[test]
fn topology_shapes_round_trip_through_the_wire_format() {
    // The `Links` shape rides the externally-tagged enum encoding with
    // `(a, b, delay)` triples.
    let text = valid_topology().replace(
        r#"{"Chain": 0.5}"#,
        r#"{"Links": [[0, 1, 0.5], [1, 2, 0.25], [2, 3, 0.5]]}"#,
    );
    let spec = CampaignSpec::parse(&text).unwrap();
    match &spec.topology.as_ref().unwrap().shape {
        TopologyShape::Links(links) => assert_eq!(links[1], (1, 2, 0.25)),
        other => panic!("expected Links, got {other:?}"),
    }
    let reparsed = CampaignSpec::parse(&serde_json::to_string(&spec).unwrap()).unwrap();
    assert_eq!(reparsed, spec);
    assert_eq!(reparsed.signature(), spec.signature());
    // Star parses too, and expansion accepts it.
    let star = valid_topology().replace("Chain", "Star");
    assert!(CampaignSpec::parse(&star).unwrap().expand().is_ok());
}

#[test]
fn topology_rejections_are_typed() {
    let msg = topology_rejection("0.5", "0.0");
    assert!(msg.contains("positive"), "{msg}");
    let msg = topology_rejection(r#"["workload"]"#, r#"["fig1"]"#);
    assert!(msg.contains("workload"), "{msg}");
    let links = |to: &str| topology_rejection(r#"{"Chain": 0.5}"#, to);
    let msg = links(r#"{"Links": []}"#);
    assert!(msg.contains("at least one"), "{msg}");
    let msg = links(r#"{"Links": [[0, 9, 0.5]]}"#);
    assert!(msg.contains("out of range"), "{msg}");
    let msg = links(r#"{"Links": [[1, 1, 0.5]]}"#);
    assert!(msg.contains("self-link"), "{msg}");
    let msg = links(r#"{"Links": [[0, 1, -2.0]]}"#);
    assert!(msg.contains("delay is -2"), "{msg}");
    let msg = links(r#"{"Links": [[0, 4, 0.5]]}"#);
    assert!(
        msg.contains("link (0, 4): endpoint out of range for 4 processors at m=4"),
        "{msg}"
    );
    // A bad Chain or Star delay is rejected even at m = 1, where the shape
    // has no link.
    let one = valid_topology().replace("[4]", "[1]");
    for shape in ["Chain", "Star"] {
        let text = one.replace(r#"{"Chain": 0.5}"#, &format!(r#"{{"{shape}": -1.0}}"#));
        match CampaignSpec::parse(&text).unwrap().expand() {
            Err(SpecError::BadTopology(msg)) => assert!(msg.contains("delay is -1"), "{msg}"),
            other => panic!("expected BadTopology for {shape}, got {other:?}"),
        }
    }
    let msg = links(r#"{"Links": [[0, 1, 0.5]]}"#);
    assert!(msg.contains("disconnected at m=4"), "{msg}");
    // A shape valid at one swept size but not another names the bad size.
    let text = valid_topology().replace("[4]", "[4, 8]").replace(
        r#"{"Chain": 0.5}"#,
        r#"{"Links": [[0, 1, 0.5], [1, 2, 0.5], [2, 3, 0.5]]}"#,
    );
    match CampaignSpec::parse(&text).unwrap().expand() {
        Err(SpecError::BadTopology(msg)) => {
            assert!(msg.contains("disconnected at m=8"), "{msg}")
        }
        other => panic!("expected BadTopology, got {other:?}"),
    }
    // An unknown shape tag is a strict-decoder parse error.
    let text = valid_topology().replace("Chain", "Torus");
    assert!(matches!(
        CampaignSpec::parse(&text),
        Err(SpecError::Parse(_))
    ));
}

#[test]
fn topology_block_feeds_the_signature() {
    let a = CampaignSpec::parse(&valid_topology()).unwrap();
    let b = CampaignSpec::parse(&valid_topology().replace("Chain", "Star")).unwrap();
    let mut plain = a.clone();
    plain.topology = None;
    assert_ne!(a.signature(), b.signature());
    assert_ne!(a.signature(), plain.signature());
}

#[test]
fn failure_block_feeds_the_signature() {
    let a = CampaignSpec::parse(&valid_slo()).unwrap();
    let b = CampaignSpec::parse(&valid_slo().replace("0.01", "0.02")).unwrap();
    assert_ne!(
        a.signature(),
        b.signature(),
        "trace sampling is keyed by the signature, so failure params must feed it"
    );
}
