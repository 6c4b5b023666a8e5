//! Command-line entry point regenerating the paper's evaluation.
//!
//! ```text
//! ltf-experiments <command> [--graphs N] [--seed S] [--out DIR]
//!                 [--crash-draws K] [--util U] [--threads T] [--quick]
//!                 [--json] [--algo NAME] [--eps E] [--period D]
//!                 [--instances N] [--checkpoint FILE]
//!
//! commands:
//!   fig1      motivating example (§1, Fig. 1): task/data/pipelined parallelism
//!   fig2      worked example (§4.3, Fig. 2): LTF vs R-LTF traces
//!   fig3      granularity sweep, ε = 1 (panels a, b, c + feasibility)
//!   fig4      granularity sweep, ε = 3 (panels a, b, c + feasibility)
//!   solve     one paper-workload instance through the Solver registry
//!   pareto    Pareto front over (latency, period, ε, processors)
//!   slo       stochastic failure campaign with SLO distribution report
//!   scaling   runtime scaling vs v, m, ε (Theorem 1)
//!   ablation  design ablations (Rule 1 / Rule 2 / one-to-one / chunk)
//!   all       fig1 fig2 fig3 fig4 (the default; scaling and ablation
//!             run long, so they stay opt-in)
//! ```

use ltf_baselines::full_solver;
use ltf_core::{AlgoConfig, Solution};
use ltf_experiments::ablation::{ablation, table as ablation_table, AblationConfig};
use ltf_experiments::ascii;
use ltf_experiments::figures::{feasibility, panel, sweep_checkpointed, Panel, SweepConfig};
use ltf_experiments::scaling::{scaling_sweep_checkpointed, table as scaling_table, ScalingConfig};
use ltf_experiments::stats::Figure;
use ltf_experiments::take;
use ltf_experiments::workload::{gen_instance_on, PaperWorkload};
use serde::Serialize;
use std::path::{Path, PathBuf};

#[derive(Debug)]
struct Opts {
    command: String,
    graphs: usize,
    seed: u64,
    out: PathBuf,
    crash_draws: usize,
    utilization: f64,
    threads: usize,
    quick: bool,
    json: bool,
    csv: bool,
    algo: String,
    eps: u8,
    period: Option<f64>,
    graph: String,
    max_eps: Option<u8>,
    max_latency: Option<f64>,
    max_procs: Option<usize>,
    instances: usize,
    checkpoint: Option<PathBuf>,
    spec: Option<PathBuf>,
    topology: Option<PathBuf>,
}

/// Parse a full argument list. Pure so the error paths are unit-testable:
/// the binary's `parse_args` wrapper turns `Err` into a usage message and
/// `exit(2)` instead of the bare `expect("number")` panic (plus backtrace)
/// malformed values used to die with. `--help` parses to the `help`
/// pseudo-command.
fn parse_args_from(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        command: String::new(),
        graphs: 60,
        seed: 0xB10B,
        out: PathBuf::from("results"),
        crash_draws: 10,
        utilization: 0.25,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        quick: false,
        json: false,
        csv: false,
        algo: "rltf".to_string(),
        eps: 1,
        period: None,
        graph: "fig1".to_string(),
        max_eps: None,
        max_latency: None,
        max_procs: None,
        instances: 1,
        checkpoint: None,
        spec: None,
        topology: None,
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let args = &mut args;
        match a.as_str() {
            "--graphs" => opts.graphs = take(args, "--graphs", "a non-negative integer")?,
            "--seed" => opts.seed = take(args, "--seed", "an unsigned integer")?,
            "--out" => opts.out = PathBuf::from(take::<String>(args, "--out", "a path")?),
            "--crash-draws" => {
                opts.crash_draws = take(args, "--crash-draws", "a non-negative integer")?
            }
            "--util" => opts.utilization = take(args, "--util", "a number")?,
            "--threads" => opts.threads = take(args, "--threads", "a thread count")?,
            "--quick" => opts.quick = true,
            "--json" => opts.json = true,
            "--csv" => opts.csv = true,
            "--algo" => opts.algo = take(args, "--algo", "a heuristic name")?,
            "--eps" => opts.eps = take(args, "--eps", "an integer in 0..=255")?,
            "--period" => opts.period = Some(take(args, "--period", "a number")?),
            "--graph" => opts.graph = take(args, "--graph", "a graph name")?,
            "--max-eps" => opts.max_eps = Some(take(args, "--max-eps", "an integer in 0..=255")?),
            "--max-latency" => opts.max_latency = Some(take(args, "--max-latency", "a number")?),
            "--max-procs" => {
                opts.max_procs = Some(take(args, "--max-procs", "a positive integer")?)
            }
            "--instances" => {
                opts.instances = take(args, "--instances", "a positive integer")?;
                if opts.instances == 0 {
                    return Err("--instances: got '0', expected a positive integer".into());
                }
            }
            "--checkpoint" => {
                opts.checkpoint = Some(PathBuf::from(take::<String>(
                    args,
                    "--checkpoint",
                    "a journal path",
                )?))
            }
            "--spec" => {
                opts.spec = Some(PathBuf::from(take::<String>(
                    args,
                    "--spec",
                    "a campaign spec path",
                )?))
            }
            "--topology" => {
                opts.topology = Some(PathBuf::from(take::<String>(
                    args,
                    "--topology",
                    "a topology spec path",
                )?))
            }
            "--help" | "-h" => {
                opts.command = "help".into();
                return Ok(opts);
            }
            cmd if !cmd.starts_with('-') && opts.command.is_empty() => {
                opts.command = cmd.to_string();
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.command.is_empty() {
        opts.command = "all".into();
    }
    Ok(opts)
}

fn parse_args() -> Opts {
    match parse_args_from(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn sweep_config(o: &Opts) -> SweepConfig {
    let mut cfg = if o.quick {
        SweepConfig::quick(o.graphs.min(8))
    } else {
        SweepConfig {
            graphs_per_point: o.graphs,
            ..Default::default()
        }
    };
    cfg.seed = o.seed;
    cfg.crash_draws = o.crash_draws;
    cfg.utilization = o.utilization;
    cfg.threads = o.threads;
    cfg
}

fn save_figure(dir: &Path, fig: &Figure) {
    std::fs::create_dir_all(dir).expect("create output dir");
    let csv_path = dir.join(format!("{}.csv", fig.id));
    std::fs::write(&csv_path, fig.to_csv()).expect("write csv");
    let json_path = dir.join(format!("{}.json", fig.id));
    std::fs::write(
        &json_path,
        serde_json::to_string_pretty(fig).expect("serialize"),
    )
    .expect("write json");
    println!("{}", ascii::render(fig, 64, 18));
    println!(
        "  wrote {} and {}\n",
        csv_path.display(),
        json_path.display()
    );
}

fn run_granularity_figure(o: &Opts, eps: u8, crashes: usize) {
    let cfg = sweep_config(o);
    let fignum = if eps == 1 { 3 } else { 4 };
    eprintln!(
        "running fig{fignum} sweep: ε={eps}, c={crashes}, {} graphs/point, {} points…",
        cfg.graphs_per_point,
        cfg.granularities.len()
    );
    let t0 = std::time::Instant::now();
    let data = match sweep_checkpointed(eps, crashes, &cfg, o.checkpoint.as_deref()) {
        Ok(data) => data,
        Err(e) => {
            eprintln!("checkpoint error: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("sweep done in {:.1?}", t0.elapsed());
    for p in [Panel::Bounds, Panel::Crashes, Panel::Overhead] {
        save_figure(&o.out, &panel(&data, p));
    }
    save_figure(&o.out, &feasibility(&data));
}

fn run_fig1() {
    use ltf_baselines::{data_parallel, task_parallel};
    use ltf_core::Solver;
    use ltf_graph::generate::fig1_diamond;
    use ltf_platform::Platform;

    println!("=== Fig. 1: motivating example (4-task diamond, 4 processors) ===\n");
    let g = fig1_diamond();
    let p = Platform::fig1_platform();

    let tp = task_parallel(&g, &p, 1);
    println!(
        "(b) task parallelism : latency {:.1}, throughput 1/{:.1}",
        tp.latency,
        1.0 / tp.throughput
    );
    let dp = data_parallel(&g, &p, 1);
    println!(
        "(c) data parallelism : latency {:.1}, optimistic throughput 1/{:.1} (guaranteed 1/{:.1})",
        dp.latency,
        1.0 / dp.throughput_optimistic,
        1.0 / dp.throughput_guaranteed
    );
    // (d) pipelined execution at the paper's period 30.
    let solver = Solver::builtin(&g, &p);
    match solver.solve("rltf", &AlgoConfig::new(1, 30.0)) {
        Ok(sol) => println!(
            "(d) pipelined (R-LTF): latency {:.1}, throughput 1/{:.1}, S = {}",
            sol.metrics.latency_upper_bound, sol.metrics.period, sol.metrics.stages
        ),
        Err(d) => println!("(d) pipelined (R-LTF): infeasible ({d})"),
    }
    println!("\npaper's values: (b) L=39, T=1/39   (c) T=2/40=1/20   (d) L=90, T=1/30, S=2\n");
}

/// One `--json` row: the solve outcome plus the context that identifies
/// it (which instance, how many processors, feasible or not). Infeasible
/// outcomes are emitted with their diagnostics instead of being dropped.
#[derive(Serialize)]
struct OutcomeRecord {
    /// Instance label (graph name or workload seed).
    instance: String,
    /// Processor count of the platform.
    procs: usize,
    /// Name the heuristic was addressed by.
    heuristic: String,
    /// Whether a schedule satisfying the constraints was found.
    feasible: bool,
    /// Diagnostics text when infeasible.
    error: Option<String>,
    /// The solution report when feasible.
    solution: Option<Solution>,
}

impl OutcomeRecord {
    fn new(
        instance: &str,
        procs: usize,
        name: &str,
        outcome: &Result<Solution, ltf_core::Diagnostics>,
    ) -> Self {
        Self {
            instance: instance.to_string(),
            procs,
            heuristic: name.to_string(),
            feasible: outcome.is_ok(),
            error: outcome.as_ref().err().map(|d| d.to_string()),
            solution: outcome.as_ref().ok().cloned(),
        }
    }
}

fn run_fig2(json: bool) {
    use ltf_core::Solver;
    use ltf_graph::generate::{fig2_workflow, fig2_workflow_variant};
    use ltf_platform::Platform;

    let cfg = AlgoConfig::with_throughput(1, 0.05);
    let mut records: Vec<OutcomeRecord> = Vec::new();
    if !json {
        println!("=== Fig. 2: worked example (7 tasks, ε = 1, T = 0.05) ===\n");
    }
    for (name, g) in [
        ("reconstruction", fig2_workflow()),
        (
            "variant E(t2)=3 (see DESIGN.md §2.10)",
            fig2_workflow_variant(),
        ),
    ] {
        if !json {
            println!("--- graph: {name} ---");
        }
        for m in [8usize, 10] {
            let p = Platform::homogeneous(m, 1.0, 1.0);
            let solver = Solver::builtin(&g, &p);
            for (algo, label) in [("ltf", "LTF"), ("rltf", "R-LTF")] {
                let outcome = solver.solve(algo, &cfg);
                if json {
                    records.push(OutcomeRecord::new(name, m, algo, &outcome));
                    continue;
                }
                match outcome {
                    Ok(sol) => println!(
                        "  {label:<5} m={m:<2} S={} L={:<6.0} comms={:<2} procs={}",
                        sol.metrics.stages,
                        sol.metrics.latency_upper_bound,
                        sol.metrics.comm_count,
                        sol.metrics.procs_used
                    ),
                    Err(d) => println!("  {label:<5} m={m:<2} FAILS ({})", d.error),
                }
            }
        }
        if !json {
            println!();
        }
    }
    if json {
        println!("{}", serde_json::to_string_pretty(&records).unwrap());
    } else {
        println!("paper's values: R-LTF m=8: S=3 L=100; LTF m=8 fails; LTF m=10: S=4 L=140\n");
    }
}

/// Load and validate a `--topology` file: the `TopologySpec` wire form,
/// e.g. `{"shape": {"Chain": 0.5}, "mode": "Contended"}`.
fn load_topology(path: &Path, procs: usize) -> ltf_experiments::campaign::TopologySpec {
    let bail = |msg: String| -> ! {
        eprintln!("error: --topology {}: {msg}", path.display());
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| bail(e.to_string()));
    let spec: ltf_experiments::campaign::TopologySpec =
        serde_json::from_str(&text).unwrap_or_else(|e| bail(e.to_string()));
    if let Err(e) = spec.validate_for(procs) {
        bail(e.to_string());
    }
    spec
}

/// Run one paper-workload instance through the full Solver registry (the
/// paper's heuristics plus every baseline), by name.
fn run_solve(o: &Opts) {
    let wl = PaperWorkload {
        epsilon: o.eps,
        utilization: o.utilization,
        ..Default::default()
    };
    let topology = o.topology.as_ref().map(|p| load_topology(p, wl.procs));
    let inst = gen_instance_on(&wl, o.seed, topology.as_ref());
    let solver = full_solver(&inst.graph, &inst.platform);
    let period = o.period.unwrap_or(inst.period);
    let cfg = AlgoConfig::new(o.eps, period).seeded(o.seed);

    let outcomes: Vec<(String, Result<Solution, ltf_core::Diagnostics>)> = if o.algo == "all" {
        solver
            .names()
            .into_iter()
            .map(|n| (n.to_string(), solver.solve(n, &cfg)))
            .collect()
    } else {
        vec![(o.algo.clone(), solver.solve(&o.algo, &cfg))]
    };

    if o.json {
        let routed = if topology.is_some() { " routed" } else { "" };
        let instance = format!("paper-workload seed={:#x}{routed}", o.seed);
        let records: Vec<OutcomeRecord> = outcomes
            .iter()
            .map(|(n, r)| OutcomeRecord::new(&instance, inst.platform.num_procs(), n, r))
            .collect();
        println!("{}", serde_json::to_string_pretty(&records).unwrap());
    } else {
        let routed = match &topology {
            Some(t) => format!(" links={} ({:?})", inst.platform.num_links(), t.comm_mode()),
            None => String::new(),
        };
        println!(
            "instance: seed={:#x} v={} m={} ε={} Δ={:.3}{routed}  (registered: {})",
            o.seed,
            inst.graph.num_tasks(),
            inst.platform.num_procs(),
            o.eps,
            period,
            solver.names().join(", ")
        );
        for (name, outcome) in &outcomes {
            match outcome {
                Ok(sol) => println!("  {sol}"),
                Err(d) => println!("  {name}: INFEASIBLE — {d}"),
            }
        }
    }
    if outcomes.iter().all(|(_, r)| r.is_err()) {
        std::process::exit(1);
    }
}

/// Enumerate the Pareto front over (latency, period, ε, processors) on a
/// worked example or a paper-workload instance, re-validate every witness,
/// and stream the front as text, CSV or JSON lines.
fn run_pareto(o: &Opts) {
    use ltf_core::search::pareto::ParetoOptions;
    use ltf_experiments::pareto::{
        csv_line, enumerate, validate_front, ParetoInstance, CSV_HEADER,
    };

    let Some(which) = ParetoInstance::parse(&o.graph) else {
        eprintln!(
            "unknown --graph {:?} (choose fig1, fig2, fig2-variant, workload)\n",
            o.graph
        );
        std::process::exit(2);
    };
    // Workload-scale sweeps (--instances and/or --checkpoint) stream
    // compact rows per instance instead of buffering one front.
    if which == ParetoInstance::Workload && (o.instances > 1 || o.checkpoint.is_some()) {
        return run_pareto_sweep(o);
    }
    let popts = ParetoOptions {
        max_epsilon: o.max_eps,
        max_latency: o.max_latency,
        max_procs: o.max_procs,
        threads: o.threads,
        ..Default::default()
    };
    if o.instances > 1 {
        eprintln!("--instances is only meaningful with --graph workload\n");
        std::process::exit(2);
    }
    let (g, p, instance) = which.build(o.seed, o.utilization);
    let front = match enumerate(&g, &p, &o.algo, &popts) {
        Ok(front) => front,
        Err(msg) => {
            eprintln!("{msg}\n");
            std::process::exit(2);
        }
    };
    // Acceptance gate: every emitted point carries a schedule that passes
    // the full structural validation. A violation here is a scheduler bug,
    // so fail loudly rather than emitting a bogus front.
    if let Err(msg) = validate_front(&g, &p, &front) {
        eprintln!("pareto front validation failed: {msg}");
        std::process::exit(1);
    }
    // An empty front means no (ε, prefix) cell was feasible — on the
    // known-feasible worked examples that is a scheduler regression, so
    // bail before emitting a plausible-looking empty artifact (this is
    // what makes the CI smoke step a real gate).
    if front.is_empty() {
        eprintln!("error: empty front (budgets too tight, or nothing schedulable)");
        std::process::exit(1);
    }
    if o.json {
        // JSON lines, one record per point, streamed in front order.
        for pt in &front {
            println!("{}", serde_json::to_string(pt).expect("serialize"));
        }
    } else if o.csv {
        println!("{CSV_HEADER}");
        for pt in &front {
            println!("{}", csv_line(&instance, pt));
        }
    } else {
        println!(
            "=== Pareto front over (L, Δ, ε, m): {instance}, algo {}, {} point(s) ===\n",
            o.algo,
            front.len()
        );
        for pt in &front {
            println!("  {pt}");
        }
        println!("\nall witness schedules validated; no point dominates another");
    }
}

/// Workload-scale Pareto sweep: `--instances N` random §5 instances as a
/// one-experiment campaign run in this process (shard `0/1`), one front
/// per instance, rows streamed in instance order (text, CSV or JSON lines)
/// and journalled to `--checkpoint` for resume-on-restart.
fn run_pareto_sweep(o: &Opts) {
    use ltf_experiments::campaign::{run_shard, CampaignSpec, EpsRange, ParetoKind};
    use ltf_experiments::pareto::SWEEP_CSV_HEADER;

    let spec = CampaignSpec {
        name: "pareto".into(),
        seed: Some(o.seed),
        instances: Some(o.instances),
        graphs: vec!["workload".into()],
        heuristics: vec![o.algo.clone()],
        epsilons: Some(vec![EpsRange {
            min: None,
            max: o.max_eps,
        }]),
        utilizations: Some(vec![o.utilization]),
        max_latency: o.max_latency,
        max_procs: o.max_procs,
        ..Default::default()
    };
    let kind = ParetoKind::new(&spec).unwrap_or_else(|e| {
        eprintln!("{e}\n");
        std::process::exit(2);
    });
    if o.csv {
        println!("{SWEEP_CSV_HEADER}");
    }
    let t0 = std::time::Instant::now();
    let mut rows = 0usize;
    let run = run_shard(
        &kind,
        ltf_core::shard::Shard::solo(),
        o.threads,
        o.checkpoint.as_deref(),
        |item| {
            for row in &item.rows {
                rows += 1;
                if o.json {
                    println!("{}", serde_json::to_string(row).expect("serialize"));
                } else if o.csv {
                    println!("{}", row.csv_line());
                } else {
                    println!(
                        "seed={:#x} ε={} m={} Δ={:.3} L≤{:.3} S={} [{}]",
                        row.seed,
                        row.epsilon,
                        row.procs,
                        row.period,
                        row.latency,
                        row.stages,
                        row.heuristic
                    );
                }
            }
        },
    );
    match run {
        Ok(_) => eprintln!(
            "pareto sweep: {} instance(s), {rows} front row(s), {:.1?}{}",
            o.instances,
            t0.elapsed(),
            o.checkpoint
                .as_deref()
                .map(|p| format!(", journal {}", p.display()))
                .unwrap_or_default()
        ),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
}

/// `slo`: run a whole SLO campaign (a spec with a `failure` block) in
/// this process and render its report — JSON lines on stdout (CSV with
/// `--csv`), both files under `--out`. Distributed runs go through
/// `ltf-campaign` instead; this is the golden serial reference they are
/// byte-compared against. See `docs/slo-campaign.md`.
fn run_slo(o: &Opts) {
    use ltf_experiments::campaign::{build_slo_report, run_serial, CampaignSpec, Kind};

    let Some(spec_path) = &o.spec else {
        eprintln!("slo requires --spec FILE\n");
        std::process::exit(2);
    };
    let bail = |code: i32, msg: String| -> ! {
        eprintln!("slo: {msg}");
        std::process::exit(code);
    };
    let spec = CampaignSpec::load(spec_path).unwrap_or_else(|e| bail(2, e.to_string()));
    let kind = match Kind::of(&spec) {
        Ok(Kind::Slo(kind)) => kind,
        Ok(Kind::Pareto(_)) => bail(
            2,
            format!("spec {} has no \"failure\" block", spec_path.display()),
        ),
        Err(e) => bail(1, e.to_string()),
    };
    let report = run_serial(&kind, o.threads, o.checkpoint.as_deref())
        .and_then(|merged| build_slo_report(&spec, &merged))
        .unwrap_or_else(|e| bail(1, e));
    let json = report.json_lines();
    let csv = report.csv_lines();
    for line in if o.csv { &csv } else { &json } {
        println!("{line}");
    }
    std::fs::create_dir_all(&o.out).expect("create output dir");
    let json_path = o.out.join("slo.jsonl");
    let csv_path = o.out.join("slo.csv");
    std::fs::write(&json_path, json.join("\n") + "\n").expect("write slo.jsonl");
    std::fs::write(&csv_path, csv.join("\n") + "\n").expect("write slo.csv");
    eprintln!(
        "slo: {} cell(s); wrote {} and {}",
        report.rows.len(),
        json_path.display(),
        csv_path.display()
    );
}

fn print_usage() {
    eprintln!(
        "usage: ltf-experiments [COMMAND] [OPTIONS]\n\
         \n\
         commands:\n\
         \x20 fig1       motivating example (4-task diamond)\n\
         \x20 fig2       worked example (ε = 1, T = 0.05)\n\
         \x20 fig3       granularity sweep, ε = 1, c = 1\n\
         \x20 fig4       granularity sweep, ε = 3, c = 2\n\
         \x20 solve      one paper-workload instance through the Solver registry\n\
         \x20 pareto     Pareto front over (latency, period, ε, processors)\n\
         \x20 slo        run an SLO campaign serially (--spec with a\n\
         \x20            \"failure\" block; report on stdout + --out files)\n\
         \x20 scaling    runtime scaling over (v, m, ε)\n\
         \x20 ablation   R-LTF rule ablations\n\
         \x20 all        fig1 fig2 fig3 fig4 (default)\n\
         \n\
         options:\n\
         \x20 --graphs N       graphs per sweep point (default 60)\n\
         \x20 --seed N         base RNG seed\n\
         \x20 --out DIR        output directory (default results/)\n\
         \x20 --crash-draws N  sampled crash sets per instance (default 10)\n\
         \x20 --util X         target platform utilization (default 0.25)\n\
         \x20 --threads N      worker threads (default: all cores)\n\
         \x20 --quick          reduced sizes for smoke runs\n\
         \x20 --json           solve/fig2: emit Solution reports as JSON;\n\
         \x20                  pareto: stream the front as JSON lines\n\
         \x20 --csv            pareto: stream the front as CSV rows\n\
         \x20 --algo NAME      solve/pareto: heuristic name or 'all' (default rltf);\n\
         \x20                  names: ltf rltf fault-free heft etf\n\
         \x20                  task-parallel data-parallel throughput-first\n\
         \x20 --eps E          solve: fault-tolerance degree ε (default 1)\n\
         \x20 --period D       solve: period Δ (default: the workload's)\n\
         \x20 --graph G        pareto: fig1 (default), fig2, fig2-variant,\n\
         \x20                  or workload (uses --seed/--util)\n\
         \x20 --max-eps E      pareto: cap the swept ε\n\
         \x20 --max-latency L  pareto: latency budget on every point\n\
         \x20 --max-procs M    pareto: processor budget (prefix sweep cap)\n\
         \x20 --instances N    pareto --graph workload: enumerate fronts on N\n\
         \x20                  random instances, streaming compact rows\n\
         \x20 --checkpoint F   journal completed work items to F (JSON lines)\n\
         \x20                  and resume from it on restart; honoured by\n\
         \x20                  pareto --graph workload, fig3/fig4, scaling\n\
         \x20                  and slo\n\
         \x20 --spec F         slo: the campaign spec file\n\
         \x20 --topology F     solve: route the generated platform through a\n\
         \x20                  topology spec file, e.g. {{\"shape\":{{\"Chain\":0.5}}}}\n\
         \x20                  (shapes: Chain, Star, Links; mode: Contended|Uniform)\n\
         \x20 --help, -h       this message"
    );
}

fn main() {
    let o = parse_args();
    match o.command.as_str() {
        "help" => {
            print_usage();
            std::process::exit(0);
        }
        "fig1" => run_fig1(),
        "fig2" => run_fig2(o.json),
        "fig3" => run_granularity_figure(&o, 1, 1),
        "fig4" => run_granularity_figure(&o, 3, 2),
        "solve" => run_solve(&o),
        "pareto" => run_pareto(&o),
        "slo" => run_slo(&o),
        "scaling" => {
            let mut cfg = ScalingConfig {
                seed: o.seed,
                threads: o.threads,
                ..Default::default()
            };
            if o.quick {
                cfg.task_counts = vec![25, 50];
                cfg.proc_counts = vec![10];
                cfg.epsilons = vec![0, 1];
                cfg.reps = 2;
            }
            let pts = match scaling_sweep_checkpointed(&cfg, o.checkpoint.as_deref()) {
                Ok(pts) => pts,
                Err(e) => {
                    eprintln!("checkpoint error: {e}");
                    std::process::exit(1);
                }
            };
            println!("{}", scaling_table(&pts));
            std::fs::create_dir_all(&o.out).expect("create output dir");
            let path = o.out.join("scaling.json");
            std::fs::write(&path, serde_json::to_string_pretty(&pts).unwrap()).unwrap();
            println!("wrote {}", path.display());
        }
        "ablation" => {
            for eps in [1u8, 3] {
                let cfg = AblationConfig {
                    epsilon: eps,
                    instances: if o.quick { 6 } else { 30 },
                    seed: o.seed,
                    threads: o.threads,
                    ..Default::default()
                };
                let recs = ablation(&cfg);
                println!("=== ablation, ε = {eps} ===\n{}", ablation_table(&recs));
                std::fs::create_dir_all(&o.out).expect("create output dir");
                let path = o.out.join(format!("ablation_eps{eps}.json"));
                std::fs::write(&path, serde_json::to_string_pretty(&recs).unwrap()).unwrap();
                println!("wrote {}\n", path.display());
            }
        }
        "all" => {
            run_fig1();
            run_fig2(o.json);
            run_granularity_figure(&o, 1, 1);
            run_granularity_figure(&o, 3, 2);
        }
        other => {
            eprintln!("unknown command: {other}\n");
            print_usage();
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_args_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_basic_flags() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.command, "all");
        assert_eq!(o.graphs, 60);
        assert_eq!(o.instances, 1);
        assert!(o.checkpoint.is_none());
        let o = parse(&[
            "pareto",
            "--graph",
            "workload",
            "--instances",
            "1000",
            "--checkpoint",
            "j.jsonl",
            "--threads",
            "8",
        ])
        .unwrap();
        assert_eq!(o.command, "pareto");
        assert_eq!(o.instances, 1000);
        assert_eq!(o.checkpoint.as_deref(), Some(Path::new("j.jsonl")));
        assert_eq!(o.threads, 8);
    }

    #[test]
    fn malformed_values_name_flag_value_and_expectation() {
        // Regression: these used to die as `expect("number")` panics with
        // a backtrace instead of a diagnostic.
        let err = parse(&["--graphs", "abc"]).unwrap_err();
        assert_eq!(err, "--graphs: got 'abc', expected a non-negative integer");
        let err = parse(&["--eps", "300"]).unwrap_err();
        assert_eq!(err, "--eps: got '300', expected an integer in 0..=255");
        let err = parse(&["--util", "fast"]).unwrap_err();
        assert_eq!(err, "--util: got 'fast', expected a number");
        let err = parse(&["--max-latency", "1e"]).unwrap_err();
        assert!(err.starts_with("--max-latency: got '1e'"), "{err}");
    }

    #[test]
    fn missing_values_are_reported() {
        let err = parse(&["--seed"]).unwrap_err();
        assert_eq!(err, "--seed: missing value, expected an unsigned integer");
        let err = parse(&["fig3", "--checkpoint"]).unwrap_err();
        assert_eq!(err, "--checkpoint: missing value, expected a journal path");
    }

    #[test]
    fn zero_instances_and_unknown_flags_rejected() {
        let err = parse(&["--instances", "0"]).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert_eq!(err, "unknown argument: --frobnicate");
        let err = parse(&["fig1", "fig2"]).unwrap_err();
        assert_eq!(err, "unknown argument: fig2");
    }

    #[test]
    fn help_wins_and_negative_numbers_parse() {
        assert_eq!(parse(&["--help"]).unwrap().command, "help");
        assert_eq!(parse(&["fig3", "-h"]).unwrap().command, "help");
        // A negative value is a parse error for unsigned flags, not an
        // "unknown argument" (it is consumed as the flag's value).
        let err = parse(&["--graphs", "-3"]).unwrap_err();
        assert_eq!(err, "--graphs: got '-3', expected a non-negative integer");
    }
}
