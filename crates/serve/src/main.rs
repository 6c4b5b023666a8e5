//! `ltf-serve` — the scheduling daemon.
//!
//! ```text
//! ltf-serve [--listen ADDR] [--threads N] [--cache-cap N]
//!           [--max-tasks N] [--max-edges N] [--stats] [--soak N]
//!
//! modes:
//!   (default)      pipe mode: read LDJSON requests from stdin, write one
//!                  response line per request to stdout, exit at EOF
//!   --listen ADDR  TCP mode: accept connections on ADDR (e.g.
//!                  127.0.0.1:7475), serve each line-by-line on its own
//!                  thread
//!   --soak N       self-test: generate N worked-example-sized requests,
//!                  serve them in-process, assert zero protocol errors
//!                  and print the service-time percentiles to stderr
//! ```
//!
//! Pipe mode answers each line before it reads the next, as one TCP
//! connection does; responses are bit-stable across runs, so piped output
//! can be diffed against goldens. `--threads` sets the thread count of
//! shard compute. `--stats` prints a final statistics report to *stderr*
//! at EOF (stderr so the stdout stream stays golden-diffable).

use ltf_experiments::take;
use ltf_serve::lines::{answer, Failed};
use ltf_serve::proto::to_line;
use ltf_serve::{Service, ServiceConfig};
use std::process::exit;

#[derive(Debug, Clone)]
struct Opts {
    listen: Option<String>,
    threads: usize,
    cache_cap: usize,
    max_tasks: usize,
    max_edges: usize,
    stats: bool,
    soak: Option<usize>,
    help: bool,
}

fn parse_args_from(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let defaults = ServiceConfig::default();
    let mut opts = Opts {
        listen: None,
        threads: 0,
        cache_cap: defaults.cache_capacity,
        max_tasks: defaults.max_tasks,
        max_edges: defaults.max_edges,
        stats: false,
        soak: None,
        help: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => opts.listen = Some(take(&mut args, "--listen", "host:port")?),
            "--threads" => opts.threads = take(&mut args, "--threads", "a thread count")?,
            "--cache-cap" => opts.cache_cap = take(&mut args, "--cache-cap", "a capacity")?,
            "--max-tasks" => opts.max_tasks = take(&mut args, "--max-tasks", "a task limit")?,
            "--max-edges" => opts.max_edges = take(&mut args, "--max-edges", "an edge limit")?,
            "--stats" => opts.stats = true,
            "--soak" => opts.soak = Some(take(&mut args, "--soak", "a request count")?),
            "--help" | "-h" => opts.help = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

fn service_config(opts: &Opts) -> ServiceConfig {
    ServiceConfig {
        threads: opts.threads,
        cache_capacity: opts.cache_cap,
        max_tasks: opts.max_tasks,
        max_edges: opts.max_edges,
    }
}

fn main() {
    let opts = match parse_args_from(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("ltf-serve: {msg}");
            eprintln!("usage: ltf-serve [--listen ADDR] [--threads N] [--cache-cap N] [--max-tasks N] [--max-edges N] [--stats] [--soak N]");
            exit(2);
        }
    };
    if opts.help {
        println!("ltf-serve: LDJSON scheduling service; see README.md §Service");
        println!("usage: ltf-serve [--listen ADDR] [--threads N] [--cache-cap N] [--max-tasks N] [--max-edges N] [--stats] [--soak N]");
        return;
    }
    let service = Service::new(service_config(&opts));
    if let Some(n) = opts.soak {
        exit(soak(&service, n));
    }
    match &opts.listen {
        Some(addr) => serve_tcp(&service, addr),
        None => serve_pipe(&service, &opts),
    }
}

/// Pipe mode: answer stdin's lines on stdout, exit at EOF. A reader that
/// goes away ends pipe mode quietly, since nobody can read the remaining
/// replies. A stdin read error (after the lines read before it are
/// answered) and any other stdout error fail with one line on stderr.
fn serve_pipe(service: &Service, opts: &Opts) {
    let failed = match answer(service, std::io::stdin().lock(), std::io::stdout().lock()) {
        Ok(()) => None,
        Err(Failed::Write(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => None,
        Err(Failed::Read(e)) => Some(("stdin", e)),
        Err(Failed::Write(e)) => Some(("stdout", e)),
    };
    if let Some((stream, e)) = failed {
        eprintln!("ltf-serve: {stream}: {e}");
        exit(1);
    }
    if opts.stats {
        eprintln!("{}", to_line(&service.stats_report()));
    }
}

/// TCP mode: bind `addr`, announce it, and serve connections forever.
fn serve_tcp(service: &Service, addr: &str) {
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("ltf-serve: cannot listen on {addr}: {e}");
            exit(1);
        }
    };
    // Print the *resolved* address: with `--listen 127.0.0.1:0` the OS
    // picks the port, and campaign drivers scrape it from this line.
    match listener.local_addr() {
        Ok(local) => eprintln!("ltf-serve: listening on {local}"),
        Err(_) => eprintln!("ltf-serve: listening on {addr}"),
    }
    ltf_serve::tcp::serve(&listener, service);
}

/// Soak mode: hammer the in-process service with `n` worked-example-sized
/// requests (the paper's Fig. 1 and Fig. 2 instances under rotating
/// heuristics, ε, periods and seeds), assert that no request draws a
/// protocol-level error, and report the percentiles. Returns the process
/// exit code.
fn soak(service: &Service, n: usize) -> i32 {
    let fig1_g = ltf_graph::generate::fig1_diamond();
    let fig1_p = ltf_platform::Platform::fig1_platform();
    let fig2_g = ltf_graph::generate::fig2_workflow_variant();
    let fig2_p = ltf_platform::Platform::homogeneous(8, 1.0, 0.5);
    let heuristics: Vec<String> = service
        .heuristics()
        .iter()
        .map(|h| h.name.clone())
        .collect();
    let periods = [20.0, 30.0, 40.0, 60.0];

    let t0 = std::time::Instant::now();
    for i in 0..n {
        let (g, p) = if i % 2 == 0 {
            (&fig1_g, &fig1_p)
        } else {
            (&fig2_g, &fig2_p)
        };
        let heuristic = &heuristics[i % heuristics.len()];
        let req = ltf_serve::SolveRequest {
            id: Some(i as u64),
            heuristic: heuristic.clone(),
            graph: g.clone(),
            platform: p.clone(),
            config: ltf_serve::proto::RequestConfig {
                epsilon: (i % 3) as u8,
                period: periods[(i / 3) % periods.len()],
                chunk_size: None,
                seed: Some((i % 7) as u64),
                use_one_to_one: None,
                rule1: None,
                rule2: None,
                cluster_ties: None,
            },
        };
        service.handle_line(&serde_json::to_string(&req).expect("soak request"));
    }
    let elapsed = t0.elapsed();
    let report = service.stats_report();
    let served = report.served as usize;
    eprintln!(
        "soak: {served} requests in {:.2}s ({:.0} req/s)",
        elapsed.as_secs_f64(),
        served as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    eprintln!("soak: {}", to_line(&report));
    // Solver-level "infeasible" is a legitimate outcome on these
    // instances (LTF genuinely fails on Fig. 2 at m = 8 for some ε);
    // protocol-level errors are not.
    let protocol_errors: u64 = ["parse", "bad-request", "unknown-heuristic", "too-large"]
        .iter()
        .map(|k| report.errors_by_kind.get(*k).copied().unwrap_or(0))
        .sum();
    if served != n || protocol_errors != 0 {
        eprintln!("soak: FAILED ({served}/{n} served, {protocol_errors} protocol errors)");
        return 1;
    }
    eprintln!(
        "soak: ok (p50 {}us, p90 {}us, p99 {}us, hit ratio {:.3})",
        report.p50_us, report.p90_us, report.p99_us, report.cache_hit_ratio
    );
    0
}
