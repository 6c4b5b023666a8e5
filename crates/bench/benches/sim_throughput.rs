//! Simulator throughput: items pushed through the discrete-event ASAP
//! engine and the synchronous window model per second, a crash-trace
//! replay under re-routing, plus the failure analysis used by the crash
//! experiments.

use criterion::{black_box, Criterion};
use ltf_bench::quick_criterion;
use ltf_core::{AlgoConfig, Heuristic, PreparedInstance, Rltf};
use ltf_experiments::workload::{gen_instance, PaperWorkload};
use ltf_schedule::{failures, CrashSet};
use ltf_sim::{asap, synchronous, CrashTrace, RecoveryPolicy, TraceConfig};

fn main() {
    let mut c: Criterion = quick_criterion();
    let wl = PaperWorkload::paper(1, 1.0);
    let inst = gen_instance(&wl, 3);
    let cfg = AlgoConfig::new(1, inst.period).seeded(3);
    let prep = PreparedInstance::new(&inst.graph, &inst.platform);
    let sched = Rltf.schedule(&prep, &cfg).expect("feasible");
    eprintln!(
        "\nsim bench schedule: v={} S={} comms={}\n",
        inst.graph.num_tasks(),
        sched.num_stages(),
        sched.comm_count()
    );

    let m = inst.platform.num_procs();
    let never = TraceConfig::new(100, CrashTrace::never(m), RecoveryPolicy::FailStop);
    let mut group = c.benchmark_group("sim");
    group.bench_function("asap_100_items", |b| {
        b.iter(|| {
            asap(
                black_box(&inst.graph),
                black_box(&inst.platform),
                black_box(&sched),
                black_box(&never),
            )
        })
    });
    group.bench_function("asap_trace_reroute_64_items", |b| {
        // Every processor dies at a finite time, so every crash event
        // fires; every sixth one dies inside the 64-item horizon and
        // triggers re-routes.
        let horizon = 64.0 * sched.period();
        let times = (0..m)
            .map(|u| match u % 6 {
                1 => horizon * (u + 1) as f64 / (m + 1) as f64,
                _ => horizon * (2 + u) as f64,
            })
            .collect();
        let cfg = TraceConfig::new(
            64,
            CrashTrace::from_crash_times(times),
            RecoveryPolicy::Reroute,
        );
        b.iter(|| {
            asap(
                black_box(&inst.graph),
                black_box(&inst.platform),
                black_box(&sched),
                black_box(&cfg),
            )
        })
    });
    group.bench_function("synchronous_100_items", |b| {
        b.iter(|| synchronous(black_box(&inst.graph), black_box(&sched), black_box(&never)))
    });
    group.bench_function("crash_analysis_single", |b| {
        let crash = CrashSet::from_procs(&[ltf_platform::ProcId(3)], 20);
        b.iter(|| failures::effective_latency(black_box(&inst.graph), black_box(&sched), &crash))
    });
    group.bench_function("crash_analysis_all_pairs", |b| {
        b.iter(|| failures::tolerates_all_crashes(black_box(&inst.graph), &sched, 20, 1))
    });
    group.finish();
    c.final_summary();
}
