//! Closed-loop TCP load generator for `ltf-serve --listen`, plus the
//! after-the-window reply checks.
//!
//! [`CONNECTIONS`] connections share one request counter: request `i`
//! goes to whichever connection is free next, and each connection sends
//! its next request only after the previous reply arrived. Requests sent
//! during the first [`WARMUP`] are not timed; then the window runs for
//! `seconds`. Before that, an untimed pipelined pass sends a fixed set of
//! distinct keys once; schedule quality is taken over that set, so it
//! does not depend on how fast the daemon is.

use crate::gen::ServeInputs;
use crate::trace::percentile;
use ltf_serve::proto::{parse_request, OkResponse, Request};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client connections: at most `nproc` on the 2-core reference box.
const CONNECTIONS: usize = 2;
/// Untimed lead-in before the window.
const WARMUP: Duration = Duration::from_millis(500);
/// Per-request socket timeout; a request without a reply by then is lost.
const TIMEOUT: Duration = Duration::from_secs(20);

pub struct ClientOpts {
    pub addr: String,
    /// Length of the measured window.
    pub seconds: f64,
}

/// Outcome of one reply as read off the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ok {
        cached: bool,
    },
    Infeasible,
    /// Any other error kind, or a reply that does not echo the id.
    Protocol,
}

fn classify(reply: &str, id: usize) -> Status {
    let head = format!(r#"{{"id":{id},"status":""#);
    let Some(rest) = reply.strip_prefix(head.as_str()) else {
        return Status::Protocol;
    };
    if rest.starts_with(r#"ok","cached":true,"#) {
        Status::Ok { cached: true }
    } else if rest.starts_with(r#"ok","cached":false,"#) {
        Status::Ok { cached: false }
    } else if rest.starts_with(r#"error","kind":"infeasible","#) {
        Status::Infeasible
    } else {
        Status::Protocol
    }
}

const CACHED_TRUE: &str = r#""cached":true"#;
const CACHED_FALSE: &str = r#""cached":false"#;

/// The reply with its `cached` flag cleared (hits and misses of one key
/// must agree on every other byte).
fn normalized(reply: &str) -> String {
    reply.replacen(CACHED_TRUE, CACHED_FALSE, 1)
}

#[derive(Default)]
struct ConnOut {
    latencies_ns: Vec<u64>,
    attempted: u64,
    lost: u64,
    protocol: u64,
    mismatched: u64,
    ok: u64,
    infeasible: u64,
    hits: u64,
    /// First (normalized) reply per key.
    first: HashMap<usize, String>,
    /// Keys answered `ok` by the quality pass.
    pass_ok: Vec<usize>,
    /// Completion time of the last measured reply, relative to the
    /// window start.
    last_ns: u64,
}

impl ConnOut {
    /// Classify the reply to `key` and compare it with the key's first
    /// reply.
    fn record(&mut self, key: usize, reply: &str, in_pass: bool) {
        match classify(reply, key) {
            Status::Protocol => {
                self.protocol += 1;
                return;
            }
            Status::Infeasible => self.infeasible += 1,
            Status::Ok { cached } => {
                self.ok += 1;
                self.hits += cached as u64;
                if in_pass {
                    self.pass_ok.push(key);
                }
            }
        }
        match self.first.get(&key) {
            Some(prev) => {
                if normalized(reply) != *prev {
                    self.mismatched += 1;
                }
            }
            None => {
                self.first.insert(key, normalized(reply));
            }
        }
    }
}

/// The quality pass: every request of `inputs.quality_set()` pipelined on
/// one connection (a writer thread sends, this thread reads the replies
/// in order). It is untimed, fills the daemon's cache before the window,
/// and fixes the key set `sched_latency_gmean` is taken over.
fn quality_pass(inputs: &ServeInputs, opts: &ClientOpts) -> ConnOut {
    let set = inputs.quality_set();
    // Every key is sent; the ones without a reply are lost.
    let mut out = ConnOut {
        attempted: set.len() as u64,
        lost: set.len() as u64,
        ..ConnOut::default()
    };
    let Ok((mut w, mut r)) = connect(opts) else {
        return out;
    };
    std::thread::scope(|s| {
        let keys = set.clone();
        s.spawn(move || {
            for key in keys {
                let mut line = inputs.line_of_key(key).into_owned();
                line.push('\n');
                if w.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
        });
        let mut reply = String::new();
        for key in set {
            reply.clear();
            if !matches!(r.read_line(&mut reply), Ok(n) if n > 0 && reply.ends_with('\n')) {
                break;
            }
            out.lost -= 1;
            reply.pop();
            out.record(key, &reply, true);
        }
    });
    out
}

/// Drive one connection until the window closes.
fn drive(inputs: &ServeInputs, opts: &ClientOpts, next: &AtomicUsize, t0: Instant) -> ConnOut {
    let warm_end = t0 + WARMUP;
    let end = warm_end + Duration::from_secs_f64(opts.seconds);
    let mut out = ConnOut::default();
    let Ok((mut w, mut r)) = connect(opts) else {
        out.attempted += 1;
        out.lost += 1;
        return out;
    };
    let mut buf = String::new();
    let mut reply = String::new();
    loop {
        let start = Instant::now();
        if start >= end {
            break;
        }
        let i = inputs.window_start() + next.fetch_add(1, Ordering::Relaxed);
        out.attempted += 1;
        buf.clear();
        buf.push_str(&inputs.line(i));
        buf.push('\n');
        reply.clear();
        let answered = w.write_all(buf.as_bytes()).is_ok()
            && matches!(r.read_line(&mut reply), Ok(n) if n > 0 && reply.ends_with('\n'));
        if !answered {
            // Dead daemon, reset or timeout: the request in flight is
            // lost and the connection is finished.
            out.lost += 1;
            break;
        }
        let done = Instant::now();
        if start >= warm_end {
            out.latencies_ns.push((done - start).as_nanos() as u64);
            out.last_ns = out.last_ns.max((done - warm_end).as_nanos() as u64);
        }
        reply.pop();
        out.record(inputs.key(i), &reply, false);
    }
    out
}

fn connect(opts: &ClientOpts) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let s = TcpStream::connect(&opts.addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(TIMEOUT))?;
    s.set_write_timeout(Some(TIMEOUT))?;
    let r = BufReader::new(s.try_clone()?);
    Ok((s, r))
}

/// Client-side results, ready for the report.
pub struct ClientReport {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

/// Run the closed loop and check every distinct reply.
pub fn run(inputs: &ServeInputs, opts: &ClientOpts) -> ClientReport {
    let pass = quality_pass(inputs, opts);
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut outs: Vec<ConnOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| s.spawn(|| drive(inputs, opts, &next, t0)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client connection thread panicked"))
            .collect()
    });
    outs.push(pass);

    let mut total = ConnOut::default();
    for o in outs {
        total.latencies_ns.extend(o.latencies_ns);
        total.attempted += o.attempted;
        total.lost += o.lost;
        total.protocol += o.protocol;
        total.mismatched += o.mismatched;
        total.ok += o.ok;
        total.infeasible += o.infeasible;
        total.hits += o.hits;
        total.pass_ok.extend(o.pass_ok);
        total.last_ns = total.last_ns.max(o.last_ns);
        for (k, reply) in o.first {
            match total.first.get(&k) {
                Some(prev) if *prev != reply => total.mismatched += 1,
                Some(_) => {}
                None => {
                    total.first.insert(k, reply);
                }
            }
        }
    }

    // Rebuild and independently validate every distinct `ok` reply.
    let mut invalid = 0u64;
    let mut latency_of: HashMap<usize, f64> = HashMap::new();
    let mut keys: Vec<usize> = total.first.keys().copied().collect();
    keys.sort_unstable();
    for k in keys {
        let reply = &total.first[&k];
        if !reply.contains(r#""status":"ok""#) {
            continue;
        }
        match check_reply(inputs, k, reply) {
            Some(l) => {
                latency_of.insert(k, l);
            }
            None => invalid += 1,
        }
    }
    total.pass_ok.sort_unstable();
    total.pass_ok.dedup();
    let quality: Vec<f64> = total
        .pass_ok
        .iter()
        .filter_map(|k| latency_of.get(k).copied())
        .collect();
    let gmean = if quality.is_empty() {
        0.0
    } else {
        (quality.iter().map(|l| l.ln()).sum::<f64>() / quality.len() as f64).exp()
    };

    let measured = total.latencies_ns.len() as f64;
    let elapsed_s = total.last_ns as f64 * 1e-9;
    let failed = total.lost + total.protocol + total.mismatched + invalid;
    let answered_ok = (total.ok + total.infeasible).max(1) as f64;
    let metrics = vec![
        ("throughput_per_s", measured / elapsed_s.max(1e-9)),
        (
            "latency_p50_us",
            percentile(&total.latencies_ns, 50.0) as f64 * 1e-3,
        ),
        (
            "latency_p99_us",
            percentile(&total.latencies_ns, 99.0) as f64 * 1e-3,
        ),
        ("sched_latency_gmean", gmean),
        ("samples", measured),
        ("quality_keys", quality.len() as f64),
        ("window_s", elapsed_s),
        ("infeasible_share", total.infeasible as f64 / answered_ok),
        ("client_hit_ratio", total.hits as f64 / answered_ok),
        ("distinct_keys", total.first.len() as f64),
        ("lost", total.lost as f64),
        ("protocol_errors", total.protocol as f64),
        ("mismatched", total.mismatched as f64),
        ("invalid", invalid as f64),
    ];
    ClientReport {
        metrics,
        attempted: total.attempted,
        failed,
    }
}

/// Rebuild an `ok` reply against its request's instance and validate it
/// with the independent checker; returns the schedule's latency bound.
fn check_reply(inputs: &ServeInputs, key: usize, reply: &str) -> Option<f64> {
    let req = match parse_request(&inputs.line_of_key(key)) {
        Ok(Request::Solve(req)) => req,
        _ => return None,
    };
    let resp: OkResponse = serde_json::from_str(reply).ok()?;
    let wire_metrics = resp.solution.metrics.clone();
    let sol = resp
        .solution
        .into_solution(&req.graph, &req.platform)
        .ok()?;
    ltf_schedule::validate(&req.graph, &req.platform, &sol.schedule).ok()?;
    (sol.metrics == wire_metrics).then_some(sol.metrics.latency_upper_bound)
}
