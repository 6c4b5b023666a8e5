//! Shared helpers for the Criterion benches (see `benches/`).
//!
//! Every bench regenerates the data behind one of the paper's figures (the
//! series are printed to stderr before timing starts) and then times the
//! computational kernel involved, so `cargo bench` doubles as the
//! reproduction harness at reduced sample counts. The full-scale figures
//! come from the `ltf-experiments` CLI.
//!
//! Two environment variables drive the CI integration:
//!
//! * `LTF_BENCH_QUICK=1` shrinks sampling further (5 samples, ~0.5 s per
//!   benchmark) for the smoke-test job;
//! * `CRITERION_JSON=<path>` (handled by the criterion shim) writes the
//!   results as JSON for the `bench-gate` regression check. Use it with a
//!   single `--bench` target: each bench target is its own process and
//!   overwrites the file, so a bare `cargo bench` would keep only the
//!   last target's results.

use criterion::Criterion;
use serde::Deserialize;

pub mod gate;

/// Criterion configuration shared by all benches: small samples, short
/// measurement windows — the kernels are deterministic and the suite has
/// many of them. `LTF_BENCH_QUICK=1` shrinks the windows further for CI
/// smoke runs.
pub fn quick_criterion() -> Criterion {
    let c = if std::env::var_os("LTF_BENCH_QUICK").is_some() {
        Criterion::default()
            .sample_size(5)
            .warm_up_time(std::time::Duration::from_millis(100))
            .measurement_time(std::time::Duration::from_millis(500))
    } else {
        Criterion::default()
            .sample_size(10)
            .warm_up_time(std::time::Duration::from_millis(300))
            .measurement_time(std::time::Duration::from_millis(1200))
    };
    c.configure_from_args()
}

/// One parsed benchmark entry: name, median, and (when present) the
/// minimum of the per-sample means.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Benchmark id, e.g. `scaling_tasks/LTF/200`.
    pub name: String,
    /// Median ns/iter.
    pub median_ns: f64,
    /// Minimum ns/iter (best sample); `None` for hand-written baselines
    /// that omit it.
    pub min_ns: Option<f64>,
}

/// One entry as the criterion shim and the committed `BENCH_*.json`
/// baselines write it. The derive rejects any other field; the gate reads
/// only the name, the median and the minimum.
#[derive(Deserialize)]
struct RawEntry {
    name: String,
    median_ns: f64,
    min_ns: Option<f64>,
    #[allow(dead_code)]
    max_ns: Option<f64>,
    #[allow(dead_code)]
    pre_pr_median_ns: Option<f64>,
}

#[derive(Deserialize)]
struct BenchDoc {
    #[allow(dead_code)]
    schema: Option<String>,
    /// Cores of the machine that ran the benches; absent in documents
    /// written before the shim recorded it.
    cores: Option<u64>,
    entries: Vec<RawEntry>,
}

/// A decoded bench document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Cores of the machine that ran the benches, when recorded.
    pub cores: Option<u64>,
    /// The benchmark entries, in file order.
    pub entries: Vec<BenchEntry>,
}

/// Decode a `{"schema": ..., "entries": [{"name": ..., "median_ns": ...}]}`
/// document written by the criterion shim (or a checked-in `BENCH_*.json`
/// baseline). Every entry needs a positive finite `median_ns`, and a
/// positive finite `min_ns` when it has one; anything else is an error
/// naming the entry, so the gate never silently skips a baseline row it
/// cannot read.
///
/// Used by the `bench-gate` binary; lives in the library so it is unit-
/// and doc-testable.
///
/// ```
/// let doc = r#"{"cores": 2, "entries": [{"name": "g/A/1", "median_ns": 42.0}]}"#;
/// let run = ltf_bench::parse_bench_json(doc).unwrap();
/// assert_eq!(run.cores, Some(2));
/// assert_eq!(run.entries[0].name, "g/A/1");
/// assert_eq!(run.entries[0].median_ns, 42.0);
/// assert_eq!(run.entries[0].min_ns, None);
/// ```
pub fn parse_bench_json(text: &str) -> Result<BenchRun, String> {
    let doc: BenchDoc = serde_json::from_str(text).map_err(|e| e.to_string())?;
    for e in &doc.entries {
        for (field, v) in [("median_ns", Some(e.median_ns)), ("min_ns", e.min_ns)] {
            if let Some(v) = v.filter(|v| !(v.is_finite() && *v > 0.0)) {
                let name = &e.name;
                return Err(format!(
                    "entry `{name}`: {field} {v} is not a positive finite number"
                ));
            }
        }
    }
    let entries = doc
        .entries
        .into_iter()
        .map(|e| BenchEntry {
            name: e.name,
            median_ns: e.median_ns,
            min_ns: e.min_ns,
        })
        .collect();
    Ok(BenchRun {
        cores: doc.cores,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_shim_output_shape() {
        let doc = r#"{
  "schema": "ltf-bench-v1",
  "entries": [
    {"name": "scaling_tasks/LTF/50", "median_ns": 1437331.3, "min_ns": 1265887.0, "max_ns": 1699975.3},
    {"name": "scaling_tasks/R-LTF/50", "median_ns": 4505392.0, "min_ns": 4025046.0, "max_ns": 4940126.0}
  ]
}"#;
        let run = parse_bench_json(doc).unwrap();
        assert_eq!(run.cores, None);
        let entries = run.entries;
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "scaling_tasks/LTF/50");
        assert_eq!(entries[0].median_ns, 1437331.3);
        assert_eq!(entries[0].min_ns, Some(1265887.0));
        assert_eq!(entries[1].name, "scaling_tasks/R-LTF/50");
    }

    #[test]
    fn tolerates_extra_fields_and_order() {
        let doc = r#"{"entries": [
            {"pre_pr_median_ns": 9.0, "name": "a/b", "median_ns": 1.5e3}
        ]}"#;
        let entries = parse_bench_json(doc).unwrap().entries;
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "a/b");
        assert_eq!(entries[0].median_ns, 1500.0);
        assert_eq!(entries[0].min_ns, None);
        // The committed baselines carry `max_ns` and `pre_pr_median_ns`,
        // and record their machine's core count.
        for (file, cores) in [
            ("BENCH_scaling.json", Some(2)),
            ("BENCH_pareto.json", Some(2)),
        ] {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let run = parse_bench_json(&std::fs::read_to_string(path).unwrap()).unwrap();
            assert!(run.entries.iter().all(|e| e.min_ns.is_some()), "{file}");
            assert_eq!(run.cores, cores, "{file}");
        }
    }

    /// Every malformed document or entry fails the whole parse, with an
    /// error that names the entry (by name, or by its position when it
    /// does not decode) — the gate never skips a baseline row.
    #[test]
    fn empty_and_garbage_inputs() {
        assert_eq!(
            parse_bench_json(r#"{"entries": []}"#),
            Ok(BenchRun {
                cores: None,
                entries: vec![]
            })
        );
        assert!(parse_bench_json(r#"{"cores": "2", "entries": []}"#).is_err());
        assert!(parse_bench_json("").is_err());
        assert!(parse_bench_json(r#""name": truncated"#).is_err());
        let cases = [
            (
                r#""median_ns": "1000.0", "min_ns": "1.0""#,
                "[0]: median_ns: expected number",
            ),
            (r#""median_ns": 1,000.0"#, "at byte"),
            (r#""median_ns": 0"#, "`b/y`: median_ns 0"),
            (r#""median_ns": -5.0"#, "`b/y`: median_ns -5"),
            (r#""median_ns": 1e400"#, "`b/y`: median_ns inf"),
            (r#""median_ns": 10.0, "min_ns": 0.0"#, "`b/y`: min_ns 0"),
            (
                r#""median_ns": 10.0, "min_ns": "9""#,
                "[0]: min_ns: expected number",
            ),
            (
                r#""median_ns": 10.0, "mean_ns": 9.0"#,
                "[0]: unknown field `mean_ns`",
            ),
            (r#""min_ns": 10.0"#, "[0]: missing field `median_ns`"),
        ];
        for (fields, needle) in cases {
            let doc = format!(r#"{{"entries": [{{"name": "b/y", {fields}}}]}}"#);
            let err = parse_bench_json(&doc).unwrap_err();
            assert!(err.contains(needle), "{fields}: {err:?} misses {needle:?}");
        }
    }
}
