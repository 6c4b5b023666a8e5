//! Benchmark regression gate for CI.
//!
//! Compares a fresh `CRITERION_JSON` run against a checked-in baseline
//! (`BENCH_scaling.json`) and fails when any shared benchmark regressed
//! beyond the tolerance:
//!
//! ```text
//! bench-gate <current.json> <baseline.json>
//!            [--tolerance 0.25] [--normalize] [--stat median|min]
//! ```
//!
//! Two flags tame cross-machine and sampling noise for CI smoke runs:
//!
//! * `--normalize` divides every current value by the median of the
//!   current/baseline ratios before applying the tolerance. A uniformly
//!   faster or slower machine shifts all ratios equally and is factored
//!   out; the cost is that a change slowing *every* benchmark by the same
//!   factor is invisible — acceptable on shared CI virtual machines whose
//!   absolute timings are incomparable to the baseline hardware anyway.
//! * `--stat min` gates on the best observed sample instead of the
//!   median. For deterministic CPU-bound kernels the minimum is far more
//!   stable across noisy runs (scheduling interference only ever adds
//!   time), which keeps a tight tolerance meaningful at the smoke job's
//!   small sample counts. Entries lacking `min_ns` fall back to the
//!   median.
//!
//! When both files record the core count of their machine (`"cores"`)
//! and the counts differ, the gate says so before its table: the
//! parallel rows scale with it.
//!
//! Exit codes: 0 all within tolerance, 1 regression (or baseline entry
//! missing from the current run), 2 usage/IO error or an entry that does
//! not decode. Benchmarks present only in the current run warn and are
//! skipped — never a failure — so new benches can land before their
//! baseline does (the policy lives in [`ltf_bench::gate`], where it is
//! unit-tested).

use ltf_bench::gate::{compare, GateOptions, Verdict};
use ltf_bench::{parse_bench_json, BenchRun};
use std::process::ExitCode;

const USAGE: &str = "usage: bench-gate <current.json> <baseline.json> \
                     [--tolerance 0.25] [--normalize] [--stat median|min]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut opts = GateOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => {
                let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("bench-gate: --tolerance needs a numeric argument");
                    return ExitCode::from(2);
                };
                opts.tolerance = v;
            }
            "--normalize" => opts.normalize = true,
            "--stat" => match it.next().map(String::as_str) {
                Some("median") => opts.use_min = false,
                Some("min") => opts.use_min = true,
                _ => {
                    eprintln!("bench-gate: --stat needs 'median' or 'min'");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => files.push(a.clone()),
        }
    }
    let [current_path, baseline_path] = files.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let read = |p: &str| -> Option<BenchRun> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
        match text.and_then(|t| parse_bench_json(&t).map_err(|e| format!("{p}: {e}"))) {
            Ok(run) => Some(run),
            Err(e) => {
                eprintln!("bench-gate: {e}");
                None
            }
        }
    };
    let Some(current) = read(current_path) else {
        return ExitCode::from(2);
    };
    let Some(baseline) = read(baseline_path) else {
        return ExitCode::from(2);
    };
    if baseline.entries.is_empty() {
        eprintln!("bench-gate: no entries parsed from baseline {baseline_path}");
        return ExitCode::from(2);
    }
    // Parallel rows scale with the core count, so say when the two runs
    // come from machines of different widths.
    if let (Some(now), Some(then)) = (current.cores, baseline.cores) {
        if now != then {
            println!("cores: current run on {now}, baseline recorded on {then}");
        }
    }

    let report = compare(&current.entries, &baseline.entries, &opts);
    let stat_name = if opts.use_min { "min" } else { "median" };
    if opts.normalize {
        println!(
            "machine-speed normalization: x{:.3} (median current/baseline ratio)",
            report.scale
        );
    }
    println!(
        "{:<28} {:>14} {:>14} {:>9}  verdict  ({stat_name} ns/iter)",
        "benchmark", "baseline", "current", "delta"
    );
    let num = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |n| format!("{n:.0}"));
    for line in &report.lines {
        let delta = line
            .delta
            .map_or_else(|| "-".to_string(), |d| format!("{:>+8.1}%", d * 100.0));
        let verdict = match line.verdict {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::MissingFromRun => "MISSING",
            Verdict::NewNoBaseline => "new: skipped (no baseline)",
        };
        println!(
            "{:<28} {:>14} {:>14} {:>9}  {verdict}",
            line.name,
            num(line.baseline_ns),
            num(line.current_ns),
            delta
        );
    }

    if report.failed {
        eprintln!(
            "bench-gate: FAILED — at least one benchmark regressed more than {:.0}% \
             (or disappeared) vs {baseline_path}",
            opts.tolerance * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "bench-gate: ok — all {} baseline benchmarks within {:.0}%",
            baseline.entries.len(),
            opts.tolerance * 100.0
        );
        ExitCode::SUCCESS
    }
}
