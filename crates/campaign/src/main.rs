//! `ltf-campaign`: run declarative experiment campaigns across worker
//! processes.
//!
//! ```text
//! ltf-campaign run --spec FILE [--shards N] [--workers N] [--serial]
//!                  [--connect ADDR]... [--journal-dir DIR] [--out FILE]
//!                  [--worker-bin PATH] [--threads N] [--retries N] [--verify]
//! ltf-campaign expand --spec FILE
//! ltf-campaign campaign-worker --spec FILE --shard K/N
//!                  [--checkpoint FILE] [--threads N]
//! ```
//!
//! `run` shards the campaign across spawned `campaign-worker` children
//! (default), or across remote `ltf-serve --listen` daemons when
//! `--connect` addresses are given; `--serial` runs everything in this
//! process instead, and `--verify` runs *both* and fails unless the
//! merged distributed output is byte-identical to the serial one. See
//! `docs/campaign-spec.md` for the spec format.

use ltf_campaign::{run_campaign, serial_lines, Mode, RunConfig};
use ltf_core::shard::Shard;
use ltf_experiments::campaign::{campaign_of, worker_main, CampaignSpec};
use ltf_experiments::take;
use std::path::PathBuf;

#[derive(Debug)]
struct Opts {
    command: String,
    spec: Option<PathBuf>,
    shards: Option<usize>,
    workers: usize,
    serial: bool,
    connect: Vec<String>,
    journal_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    worker_bin: Option<PathBuf>,
    threads: usize,
    retries: usize,
    verify: bool,
    shard: Shard,
    checkpoint: Option<PathBuf>,
}

fn parse_args_from(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        command: String::new(),
        spec: None,
        shards: None,
        workers: 2,
        serial: false,
        connect: Vec::new(),
        journal_dir: None,
        out: None,
        worker_bin: None,
        threads: 1,
        retries: 3,
        verify: false,
        shard: Shard::solo(),
        checkpoint: None,
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let args = &mut args;
        match a.as_str() {
            "--spec" => {
                opts.spec = Some(PathBuf::from(take::<String>(
                    args,
                    "--spec",
                    "a spec path",
                )?))
            }
            "--shards" => {
                let n: usize = take(args, "--shards", "a positive integer")?;
                if n == 0 {
                    return Err("--shards: got '0', expected a positive integer".into());
                }
                opts.shards = Some(n);
            }
            "--workers" => {
                let n: usize = take(args, "--workers", "a positive integer")?;
                if n == 0 {
                    return Err("--workers: got '0', expected a positive integer".into());
                }
                opts.workers = n;
            }
            "--serial" => opts.serial = true,
            "--connect" => opts
                .connect
                .push(take(args, "--connect", "a host:port address")?),
            "--journal-dir" => {
                opts.journal_dir = Some(PathBuf::from(take::<String>(
                    args,
                    "--journal-dir",
                    "a directory path",
                )?))
            }
            "--out" => opts.out = Some(PathBuf::from(take::<String>(args, "--out", "a path")?)),
            "--worker-bin" => {
                opts.worker_bin = Some(PathBuf::from(take::<String>(
                    args,
                    "--worker-bin",
                    "an executable path",
                )?))
            }
            "--threads" => opts.threads = take(args, "--threads", "a thread count")?,
            "--retries" => opts.retries = take(args, "--retries", "a non-negative integer")?,
            "--verify" => opts.verify = true,
            "--shard" => opts.shard = take(args, "--shard", "K/N (shard K of N)")?,
            "--checkpoint" => {
                opts.checkpoint = Some(PathBuf::from(take::<String>(
                    args,
                    "--checkpoint",
                    "a journal path",
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
        return Err("missing command (run, expand, campaign-worker)".into());
    }
    Ok(opts)
}

fn print_usage() {
    eprintln!(
        "usage: ltf-campaign COMMAND [OPTIONS]\n\
         \n\
         commands:\n\
         \x20 run              shard a campaign across workers and merge the fronts\n\
         \x20 expand           print the expanded experiment matrix of a spec\n\
         \x20 campaign-worker  run one shard (spawned internally by `run`)\n\
         \n\
         options:\n\
         \x20 --spec FILE      the campaign spec (JSON; see docs/campaign-spec.md)\n\
         \x20 --shards N       partition the work into N shards (default: worker count)\n\
         \x20 --workers N      concurrent spawned workers (default 2)\n\
         \x20 --serial         run everything in-process (the golden reference)\n\
         \x20 --connect A      send shards to the ltf-serve daemon at A (host:port;\n\
         \x20                  repeatable — one in-flight shard per address)\n\
         \x20 --journal-dir D  per-shard checkpoint journals in D (crash resume)\n\
         \x20 --out FILE       write merged front lines to FILE (default stdout)\n\
         \x20 --worker-bin P   worker executable (default: this binary)\n\
         \x20 --threads N      worker threads per process (default 1)\n\
         \x20 --retries N      shard rerun budget after crashes (default 3)\n\
         \x20 --verify         also run serially and fail unless byte-identical\n\
         \x20 --shard K/N      campaign-worker: which shard to run (default 0/1)\n\
         \x20 --checkpoint F   campaign-worker: journal completed items to F\n\
         \x20 --help, -h       this message"
    );
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn require_spec(o: &Opts) -> (&PathBuf, CampaignSpec) {
    let Some(path) = &o.spec else {
        eprintln!("error: {} requires --spec FILE\n", o.command);
        print_usage();
        std::process::exit(2);
    };
    match CampaignSpec::load(path) {
        Ok(spec) => (path, spec),
        Err(e) => fail(&e.to_string()),
    }
}

fn emit_lines(o: &Opts, lines: &[String]) {
    match &o.out {
        Some(path) => {
            let mut text = lines.join("\n");
            if !text.is_empty() {
                text.push('\n');
            }
            if let Err(e) = std::fs::write(path, text) {
                fail(&format!("write {}: {e}", path.display()));
            }
            eprintln!(
                "campaign: wrote {} line(s) to {}",
                lines.len(),
                path.display()
            );
        }
        None => {
            for line in lines {
                println!("{line}");
            }
        }
    }
}

fn run(o: &Opts) {
    let (path, spec) = require_spec(o);
    if o.serial {
        match serial_lines(&spec, o.threads, o.checkpoint.as_deref()) {
            Ok(lines) => {
                eprintln!("campaign: serial run, {} line(s)", lines.len());
                emit_lines(o, &lines);
            }
            Err(e) => fail(&e),
        }
        return;
    }
    let mode = if o.connect.is_empty() {
        Mode::Spawn
    } else {
        Mode::Connect(o.connect.clone())
    };
    let default_shards = match &mode {
        Mode::Spawn => o.workers,
        Mode::Connect(addrs) => addrs.len(),
    };
    let cfg = RunConfig {
        shards: o.shards.unwrap_or(default_shards.max(1)),
        workers: o.workers,
        mode,
        journal_dir: o.journal_dir.clone(),
        worker_bin: o.worker_bin.clone(),
        retries: o.retries,
        worker_threads: o.threads,
    };
    let report = match run_campaign(path, &spec, &cfg) {
        Ok(r) => r,
        Err(e) => fail(&e),
    };
    eprintln!(
        "campaign: {} item(s) over {} shard(s), {} retry(ies), {} line(s)",
        report.items,
        cfg.shards,
        report.retries_used,
        report.lines.len()
    );
    if o.verify {
        let serial = match serial_lines(&spec, o.threads, None) {
            Ok(lines) => lines,
            Err(e) => fail(&format!("verify (serial rerun): {e}")),
        };
        if serial != report.lines {
            fail(&format!(
                "verify: distributed output differs from serial ({} vs {} lines)",
                report.lines.len(),
                serial.len()
            ));
        }
        eprintln!(
            "campaign: verify OK — merged output byte-identical to serial ({} lines)",
            serial.len()
        );
    }
    emit_lines(o, &report.lines);
}

fn expand(o: &Opts) {
    let (_, spec) = require_spec(o);
    let campaign = campaign_of(&spec).unwrap_or_else(|e| fail(&e));
    println!("{}", campaign.expand_lines().join("\n"));
}

fn worker(o: &Opts) {
    let Some(spec) = &o.spec else {
        eprintln!("error: campaign-worker requires --spec FILE\n");
        print_usage();
        std::process::exit(2);
    };
    let mut out = std::io::stdout().lock();
    match worker_main(spec, o.shard, o.threads, o.checkpoint.as_deref(), &mut out) {
        Ok(items) => eprintln!("campaign-worker: shard {} done, {items} item(s)", o.shard),
        Err(e) => fail(&e),
    }
}

fn main() {
    let o = match parse_args_from(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            print_usage();
            std::process::exit(2);
        }
    };
    match o.command.as_str() {
        "help" => print_usage(),
        "run" => run(&o),
        "expand" => expand(&o),
        "campaign-worker" => worker(&o),
        other => {
            eprintln!("error: unknown command: {other}\n");
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
    fn run_flags_parse() {
        let o = parse(&[
            "run",
            "--spec",
            "c.json",
            "--shards",
            "4",
            "--workers",
            "2",
            "--connect",
            "a:1",
            "--connect",
            "b:2",
            "--journal-dir",
            "j",
            "--verify",
        ])
        .unwrap();
        assert_eq!(o.command, "run");
        assert_eq!(o.spec.as_deref(), Some(std::path::Path::new("c.json")));
        assert_eq!(o.shards, Some(4));
        assert_eq!(o.connect, vec!["a:1", "b:2"]);
        assert!(o.verify);
        assert_eq!(o.journal_dir.as_deref(), Some(std::path::Path::new("j")));
    }

    #[test]
    fn worker_flags_parse() {
        let o = parse(&["campaign-worker", "--spec", "c.json", "--shard", "1/3"]).unwrap();
        assert_eq!(o.shard, "1/3".parse().unwrap());
        assert!(o.checkpoint.is_none());
    }

    #[test]
    fn bad_values_are_diagnosed() {
        assert!(parse(&[]).unwrap_err().contains("missing command"));
        assert_eq!(
            parse(&["run", "--shards", "0"]).unwrap_err(),
            "--shards: got '0', expected a positive integer"
        );
        assert_eq!(
            parse(&["run", "--workers", "x"]).unwrap_err(),
            "--workers: got 'x', expected a positive integer"
        );
        let err = parse(&["campaign-worker", "--shard", "3/2"]).unwrap_err();
        assert!(err.starts_with("--shard: got '3/2'"), "{err}");
        assert_eq!(
            parse(&["run", "--frobnicate"]).unwrap_err(),
            "unknown argument: --frobnicate"
        );
    }
}
