//! The supervisor: shard queue, worker lifecycles, crash retry, and the
//! deterministic merge.
//!
//! Both execution modes drain one shared shard queue. **Spawn mode**
//! runs up to [`RunConfig::workers`] `campaign-worker` child processes
//! concurrently, each streaming one JSON line per result on stdout and a
//! final `{"done":true,...}` line; a child that exits without the done
//! line (crash, kill, nonzero exit) has its shard pushed back and rerun
//! by the next free slot, resuming from its per-shard checkpoint journal
//! when [`RunConfig::journal_dir`] is set. **Connect mode** sends each
//! shard as one `{"cmd":"shard",...}` LDJSON request to a remote
//! `ltf-serve` daemon (one coordinator thread per address, one
//! connection per shard); an address that fails is retired after its
//! shard is requeued, so the remaining workers absorb its load.
//!
//! Results from any shard, attempt or transport funnel into one
//! [`WireMerger`], which re-orders by global item index and rejects
//! conflicting duplicates — the merged output is byte-identical to
//! [`serial_lines`] on the same spec, which the kill-a-worker tests and
//! the CI smoke assert literally.
//!
//! The coordinator never asks which kind of campaign it runs (Pareto
//! fronts or SLO trace blocks): it holds the spec as a
//! `ltf_experiments::campaign::Campaign`, and only that campaign's merger
//! decodes and renders the results.

use ltf_experiments::campaign::{campaign_of, CampaignSpec, WireMerger};
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How shards reach their workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Spawn `campaign-worker` child processes on this machine.
    Spawn,
    /// Send shards to remote LDJSON daemons at these addresses.
    Connect(Vec<String>),
}

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Shard count (the `N` of `K/N`; every shard is one worker run).
    pub shards: usize,
    /// Concurrent child processes in spawn mode (ignored in connect
    /// mode, where concurrency is one in-flight shard per address).
    pub workers: usize,
    /// Transport: spawn children, or connect to remote daemons.
    pub mode: Mode,
    /// Per-shard checkpoint journals live here (spawn mode). `None`
    /// disables journaling: a retried shard recomputes from scratch.
    pub journal_dir: Option<PathBuf>,
    /// Worker executable (spawn mode); defaults to this very binary
    /// (`current_exe`), which carries the `campaign-worker` subcommand.
    pub worker_bin: Option<PathBuf>,
    /// How many times a shard may be rerun after a crash before the
    /// campaign fails.
    pub retries: usize,
    /// `--threads` forwarded to each spawned worker.
    pub worker_threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            workers: 2,
            mode: Mode::Spawn,
            journal_dir: None,
            worker_bin: None,
            retries: 3,
            worker_threads: 1,
        }
    }
}

/// The outcome of a distributed campaign run.
#[derive(Debug)]
pub struct RunReport {
    /// The merged canonical output: one JSON line per front row, in
    /// global item order — byte-identical to a serial run.
    pub lines: Vec<String>,
    /// Work items merged.
    pub items: usize,
    /// Shard reruns that were needed (0 on a crash-free run).
    pub retries_used: usize,
}

/// The journal path of shard `k` of `n` under `dir`. The shard count is
/// part of the name: re-running the same spec with a different `N`
/// repartitions the items, so shard journals must not be shared across
/// partitions (item keys would cross-replay fine — they are global —
/// but keeping partitions separate keeps each file a clean prefix of
/// its own shard).
pub fn shard_journal(dir: &Path, k: usize, n: usize) -> PathBuf {
    dir.join(format!("shard-{k}-of-{n}.jsonl"))
}

/// Run the campaign distributed per `cfg` and merge the result.
/// `spec_path` is the spec file handed to spawned workers (both sides
/// re-expand it; connect mode embeds the parsed spec in the request
/// instead). The campaign's kind only shows in what its merger decodes
/// and renders.
pub fn run_campaign(
    spec_path: &Path,
    spec: &CampaignSpec,
    cfg: &RunConfig,
) -> Result<RunReport, String> {
    if cfg.shards == 0 {
        return Err("campaign: shard count must be ≥ 1".into());
    }
    let campaign = campaign_of(spec)?;
    if let Some(dir) = &cfg.journal_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("journal dir {}: {e}", dir.display()))?;
    }
    let (lines, retries_used) = drive(spec_path, spec, cfg, campaign.merger())?;
    Ok(RunReport {
        lines,
        items: campaign.item_count(),
        retries_used,
    })
}

/// The serial golden reference for `spec`: the rendered lines a
/// distributed [`run_campaign`] must equal byte-for-byte (`--verify`
/// asserts exactly this).
pub fn serial_lines(
    spec: &CampaignSpec,
    threads: usize,
    journal: Option<&Path>,
) -> Result<Vec<String>, String> {
    campaign_of(spec)?.serial(threads, journal)
}

/// The transport-agnostic supervisor core: drain the shard queue through
/// spawned workers or remote daemons, retry crashed shards, and merge
/// every streamed result into global item order.
fn drive(
    spec_path: &Path,
    spec: &CampaignSpec,
    cfg: &RunConfig,
    merger: Box<dyn WireMerger + Send + '_>,
) -> Result<(Vec<String>, usize), String> {
    // The shared shard queue: (shard index, attempts so far).
    let queue: Mutex<VecDeque<(usize, usize)>> =
        Mutex::new((0..cfg.shards).map(|k| (k, 0)).collect());
    let merger = Mutex::new(merger);
    let retries_used = AtomicUsize::new(0);
    let fatal: Mutex<Option<String>> = Mutex::new(None);

    let set_fatal = |msg: String| {
        let mut f = fatal.lock().unwrap();
        if f.is_none() {
            *f = Some(msg);
        }
    };
    let pop = || -> Option<(usize, usize)> {
        if fatal.lock().unwrap().is_some() {
            return None; // stop draining once the run is doomed
        }
        queue.lock().unwrap().pop_front()
    };
    // One shard attempt failed: requeue within the retry budget.
    let handle_failure = |k: usize, attempts: usize, err: String| {
        if attempts >= cfg.retries {
            set_fatal(format!(
                "campaign: shard {k}/{} failed {} time(s), giving up: {err}",
                cfg.shards,
                attempts + 1
            ));
        } else {
            eprintln!(
                "campaign: shard {k}/{} attempt {} failed ({err}); reassigning",
                cfg.shards,
                attempts + 1
            );
            retries_used.fetch_add(1, Ordering::Relaxed);
            queue.lock().unwrap().push_back((k, attempts + 1));
        }
    };
    let absorb = |results: Vec<Value>| {
        let mut m = merger.lock().unwrap();
        for r in &results {
            if let Err(e) = m.insert(r) {
                set_fatal(e);
                return;
            }
        }
    };

    std::thread::scope(|s| {
        match &cfg.mode {
            Mode::Spawn => {
                for _ in 0..cfg.workers.max(1) {
                    s.spawn(|| {
                        while let Some((k, attempts)) = pop() {
                            match spawn_shard(spec_path, cfg, k) {
                                Ok(results) => absorb(results),
                                Err(e) => handle_failure(k, attempts, e),
                            }
                        }
                    });
                }
            }
            Mode::Connect(addrs) => {
                for addr in addrs {
                    s.spawn(move || {
                        while let Some((k, attempts)) = pop() {
                            match connect_shard(addr, spec, cfg.shards, k) {
                                Ok(results) => absorb(results),
                                Err(e) => {
                                    handle_failure(k, attempts, e);
                                    // The address failed a whole shard
                                    // round-trip: retire it and let the
                                    // surviving addresses take the queue.
                                    eprintln!("campaign: retiring worker address {addr}");
                                    return;
                                }
                            }
                        }
                    });
                }
            }
        }
    });

    if let Some(msg) = fatal.into_inner().unwrap() {
        return Err(msg);
    }
    // All workers retired with shards still queued (connect mode with
    // every address dead) surfaces here as missing items.
    let lines = merger.into_inner().unwrap().finish()?;
    Ok((lines, retries_used.into_inner()))
}

/// Run shard `k` as a child process, collecting its streamed results.
/// Success requires both the `{"done":true,...}` line *and* a clean
/// exit — a worker killed after its last item but before the done line
/// still counts as crashed (its journal makes the rerun cheap).
fn spawn_shard(spec_path: &Path, cfg: &RunConfig, k: usize) -> Result<Vec<Value>, String> {
    let bin = match &cfg.worker_bin {
        Some(p) => p.clone(),
        None => std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
    };
    let mut cmd = Command::new(&bin);
    cmd.arg("campaign-worker")
        .arg("--spec")
        .arg(spec_path)
        .arg("--shard")
        .arg(format!("{k}/{}", cfg.shards))
        .arg("--threads")
        .arg(cfg.worker_threads.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if let Some(dir) = &cfg.journal_dir {
        cmd.arg("--checkpoint")
            .arg(shard_journal(dir, k, cfg.shards));
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().expect("stdout piped");
    let mut results = Vec::new();
    let mut saw_done = None;
    for line in BufReader::new(stdout).lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break, // pipe died with the worker; wait() decides
        };
        match parse_worker_line(&line) {
            Some(WorkerLine::Result(r)) => results.push(r),
            Some(WorkerLine::Done { items }) => saw_done = Some(items),
            None => {
                // A torn write from a dying worker, or stray noise:
                // ignore it — correctness rests on the journal and the
                // done/exit handshake, not on every stdout byte.
                eprintln!(
                    "campaign: ignoring unparseable worker line ({} bytes)",
                    line.len()
                );
            }
        }
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!("worker exited with {status}"));
    }
    match saw_done {
        None => return Err("worker exited without its done line".into()),
        Some(n) if n as usize != results.len() => {
            return Err(format!(
                "worker reported {n} item(s) but streamed {}",
                results.len()
            ));
        }
        Some(_) => {}
    }
    Ok(results)
}

/// One parsed worker stdout line.
enum WorkerLine {
    Result(Value),
    Done { items: u64 },
}

/// The worker's closing `{"done":true,"shard":"K/N","items":N}` line.
/// Result lines never carry a `done` key, so they fail this strict decode.
#[derive(Deserialize)]
struct DoneLine {
    done: bool,
    #[allow(dead_code)]
    shard: Option<String>,
    items: Option<u64>,
}

fn parse_worker_line(line: &str) -> Option<WorkerLine> {
    let v: Value = serde_json::from_str(line).ok()?;
    match DoneLine::from_value(&v) {
        Ok(d) => d.done.then(|| WorkerLine::Done {
            items: d.items.unwrap_or(0),
        }),
        Err(_) => Some(WorkerLine::Result(v)),
    }
}

/// The `{"cmd":"shard",...}` request line for shard `k` of `n`, with the
/// parsed spec embedded (the remote worker has no spec file).
pub fn shard_request_line(spec: &CampaignSpec, k: usize, n: usize, id: u64) -> String {
    let v = Value::Map(vec![
        ("cmd".to_string(), Value::Str("shard".to_string())),
        ("id".to_string(), Value::UInt(id)),
        ("spec".to_string(), spec.to_value()),
        ("shard".to_string(), Value::Str(format!("{k}/{n}"))),
    ]);
    serde_json::to_string(&v).expect("value writer is infallible")
}

/// A daemon's reply to a `shard` request: the shard reply (`ok`, `id`,
/// `shard`, `items`, `results`, or `error`, `message`), or the generic
/// error reply (`id`, `status`, `kind`, `heuristic`, `message`).
#[derive(Deserialize)]
struct ShardReply {
    ok: Option<bool>,
    #[allow(dead_code)]
    id: Option<u64>,
    #[allow(dead_code)]
    shard: Option<String>,
    #[allow(dead_code)]
    items: Option<u64>,
    results: Option<Vec<Value>>,
    error: Option<String>,
    message: Option<String>,
    #[allow(dead_code)]
    status: Option<String>,
    #[allow(dead_code)]
    kind: Option<String>,
    #[allow(dead_code)]
    heuristic: Option<String>,
}

/// Split a `shard` response line into its wire-form results, surfacing
/// protocol errors (`"ok":false` replies) as text.
pub fn parse_shard_response(line: &str) -> Result<Vec<Value>, String> {
    let reply: ShardReply =
        serde_json::from_str(line).map_err(|e| format!("unparseable shard response: {e}"))?;
    if reply.ok != Some(true) {
        let kind = reply.error.as_deref().unwrap_or("unknown");
        let msg = reply.message.as_deref().unwrap_or("");
        return Err(format!("worker rejected shard: {kind}: {msg}"));
    }
    reply
        .results
        .ok_or_else(|| "shard response has no results array".into())
}

/// Run shard `k` remotely: one TCP connection, one request line, one
/// response line. The line and its newline go out in one write with
/// Nagle off, so no part of the request waits for the daemon's delayed
/// ACK.
fn connect_shard(
    addr: &str,
    spec: &CampaignSpec,
    n: usize,
    k: usize,
) -> Result<Vec<Value>, String> {
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut req = shard_request_line(spec, k, n, k as u64);
    req.push('\n');
    stream
        .set_nodelay(true)
        .and_then(|()| stream.write_all(req.as_bytes()))
        .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    if line.is_empty() {
        return Err(format!("{addr} closed the connection without replying"));
    }
    parse_shard_response(line.trim_end())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltf_experiments::campaign::{ItemResult, SloItemResult};
    use serde::Deserialize;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::parse(
            r#"{"name":"t","graphs":["fig1"],"heuristics":["rltf"],"epsilons":[{"max":1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn shard_request_roundtrips_through_value() {
        #[derive(Deserialize)]
        struct Request {
            cmd: String,
            id: u64,
            spec: CampaignSpec,
            shard: String,
        }
        let spec = tiny_spec();
        let req: Request = serde_json::from_str(&shard_request_line(&spec, 1, 4, 7)).unwrap();
        assert_eq!(req.cmd, "shard");
        assert_eq!(req.shard, "1/4");
        assert_eq!(req.id, 7);
        assert_eq!(req.spec, spec);
    }

    #[test]
    fn shard_response_errors_are_surfaced() {
        let err = parse_shard_response(
            r#"{"ok":false,"error":"bad-request","message":"spec: axis \"graphs\" is empty"}"#,
        )
        .unwrap_err();
        assert!(
            err.contains("bad-request") && err.contains("graphs"),
            "{err}"
        );
        let err = parse_shard_response("not json").unwrap_err();
        assert!(err.contains("unparseable"), "{err}");
        let err = parse_shard_response(r#"{"ok":true}"#).unwrap_err();
        assert!(err.contains("no results"), "{err}");
        // The daemon's generic error reply, for a request line it rejected.
        let err = parse_shard_response(
            r#"{"id":3,"status":"error","kind":"bad-request","heuristic":null,"message":"spec: bad"}"#,
        )
        .unwrap_err();
        assert!(
            err.contains("rejected shard") && err.contains("spec: bad"),
            "{err}"
        );
    }

    #[test]
    fn worker_lines_parse_results_done_and_noise() {
        assert!(matches!(
            parse_worker_line(r#"{"done":true,"shard":"0/2","items":3}"#),
            Some(WorkerLine::Done { items: 3 })
        ));
        assert!(parse_worker_line("garbage").is_none());
        assert!(parse_worker_line(r#"{"done":false}"#).is_none());
        let r = r#"{"item":4,"experiment":1,"label":"fig1/rltf/eps=all","seed":9,"rows":[]}"#;
        match parse_worker_line(r) {
            Some(WorkerLine::Result(v)) => {
                let ir = ItemResult::from_value(&v).unwrap();
                assert_eq!(ir.item, 4);
                assert_eq!(ir.label, "fig1/rltf/eps=all");
            }
            _ => panic!("result line must parse"),
        }
        // SLO worker lines ride the same wire with a different payload.
        let r = r#"{"item":2,"cell":1,"label":"fig1/rltf/eps=0/inst=0","feasible":false,"stats":{"traces":0,"items":0,"produced":0,"lost":0,"violations":0,"latency":{"buckets":[],"count":0,"min":null,"max":null}}}"#;
        match parse_worker_line(r) {
            Some(WorkerLine::Result(v)) => {
                let sr = SloItemResult::from_value(&v).unwrap();
                assert_eq!(sr.item, 2);
                assert!(!sr.feasible);
            }
            _ => panic!("slo result line must parse"),
        }
    }

    #[test]
    fn shard_journal_names_partition() {
        let p = shard_journal(Path::new("/tmp/j"), 2, 5);
        assert_eq!(p, PathBuf::from("/tmp/j/shard-2-of-5.jsonl"));
    }
}
