//! Contended Pareto fronts pinned byte for byte. Each example spec runs a
//! routed, link-contended platform (chain and star topologies), so these
//! goldens cover the per-link load check of condition (1) under the
//! period bisection and the relaxed-period probes — a path no
//! matrix-platform front reaches.

use ltf_experiments::campaign::{run_serial, CampaignKind, CampaignSpec, ParetoKind};

#[test]
fn contended_pareto_fronts_match_goldens() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for name in ["pareto-chain", "pareto-star"] {
        let text = std::fs::read_to_string(format!("{root}/docs/examples/{name}.json")).unwrap();
        let spec = CampaignSpec::parse(&text).unwrap();
        let kind = ParetoKind::new(&spec).unwrap();
        let lines = kind.render(&run_serial(&kind, 1, None).unwrap()).unwrap();
        let got: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let want = std::fs::read_to_string(format!(
            "{root}/crates/experiments/tests/golden/{name}.jsonl"
        ))
        .unwrap();
        assert!(
            got == want,
            "{name}: Contended front drifted from the golden"
        );
    }
}
