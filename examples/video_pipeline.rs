//! A realistic streaming scenario: a 1080p video analytics pipeline with
//! branch-heavy structure, scheduled fault-tolerantly and then *executed*
//! in the discrete-event simulator — including a mid-stream crash drill.
//!
//! ```text
//! cargo run --release --example video_pipeline
//! ```

use ltf_sched::core::{AlgoConfig, Solver};
use ltf_sched::graph::{GraphBuilder, TaskGraph};
use ltf_sched::platform::Platform;
use ltf_sched::schedule::{validate, CrashSet};
use ltf_sched::sim::{asap, synchronous, CrashTrace, RecoveryPolicy, TraceConfig};

/// Decode → {object detection, optical flow, color histogram} → tracker →
/// {annotate, index} → mux. Times in milliseconds per frame (exec) and
/// megabytes per frame (volumes).
fn video_graph() -> TaskGraph {
    let mut b = GraphBuilder::new();
    let decode = b.add_named_task("decode", 8.0);
    let detect = b.add_named_task("detect", 14.0);
    let flow = b.add_named_task("optflow", 11.0);
    let hist = b.add_named_task("histogram", 4.0);
    let track = b.add_named_task("track", 9.0);
    let annotate = b.add_named_task("annotate", 6.0);
    let index = b.add_named_task("index", 3.0);
    let mux = b.add_named_task("mux", 5.0);
    b.add_edge(decode, detect, 6.0);
    b.add_edge(decode, flow, 6.0);
    b.add_edge(decode, hist, 6.0);
    b.add_edge(detect, track, 1.0);
    b.add_edge(flow, track, 1.0);
    b.add_edge(track, annotate, 0.5);
    b.add_edge(track, index, 0.5);
    b.add_edge(hist, index, 0.2);
    b.add_edge(annotate, mux, 2.0);
    b.add_edge(index, mux, 0.2);
    b.build().expect("acyclic pipeline")
}

fn main() {
    let g = video_graph();
    // An edge cluster: two big cores, six efficiency cores; 1 ms/MB links.
    let speeds = vec![2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
    let m = speeds.len();
    let mut delays = vec![1.0; m * m];
    for u in 0..m {
        delays[u * m + u] = 0.0;
    }
    let p = Platform::from_parts(speeds, delays);

    // 30 fps with one-crash tolerance: period 33.3 ms, ε = 1.
    let cfg = AlgoConfig::with_throughput(1, 30.0 / 1000.0);
    let sched = Solver::builtin(&g, &p)
        .solve("rltf", &cfg)
        .expect("pipeline schedulable at 30 fps")
        .into_schedule();
    validate(&g, &p, &sched).expect("valid schedule");
    println!("{}", sched.describe(&g, &p));

    // Execute 300 frames (10 s of video).
    let never = TraceConfig::new(300, CrashTrace::never(m), RecoveryPolicy::FailStop);
    let run = synchronous(&g, &sched, &never);
    println!(
        "synchronous model : {} frames, per-frame latency {:.1} ms, period {:.1} ms",
        run.produced(),
        run.mean_latency().unwrap(),
        run.achieved_period().unwrap()
    );
    let run = asap(&g, &p, &sched, &never);
    println!(
        "ASAP execution    : {} frames, mean latency {:.1} ms (max {:.1} ms)",
        run.produced(),
        run.mean_latency().unwrap(),
        run.max_latency().unwrap()
    );

    // Crash drill: the busiest processor dies 3 seconds in.
    let victim = p
        .procs()
        .max_by(|a, b| sched.sigma(*a).partial_cmp(&sched.sigma(*b)).unwrap())
        .unwrap();
    let crash = CrashTrace::from_crash_set(&CrashSet::from_procs(&[victim], m), m, 3000.0);
    let run = asap(
        &g,
        &p,
        &sched,
        &TraceConfig::new(300, crash, RecoveryPolicy::FailStop),
    );
    println!(
        "crash drill       : {victim} dies at t=3000 ms → {} frames delivered, {} lost, mean latency {:.1} ms",
        run.produced(),
        run.lost(),
        run.mean_latency().unwrap()
    );
    assert_eq!(run.lost(), 0, "ε = 1 must mask a single crash");
    println!("single-processor crash fully masked by the replication ✓");
}
