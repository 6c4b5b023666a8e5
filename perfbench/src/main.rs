//! `ltf-perfbench`: the benchmark's client and in-process replays.
//!
//! ```text
//! ltf-perfbench digest    --workload W --seed S
//! ltf-perfbench spec      --workload W --seed S --out FILE
//! ltf-perfbench client    --workload W --seed S --addr HOST:PORT --seconds T
//!                         [--alpha A]
//! ltf-perfbench reference --spec FILE --out FILE
//! ltf-perfbench trace     --workload W --seed S --seconds T --out-dir DIR
//!                         [--spec FILE --expected FILE] [--alpha A]
//! ```
//!
//! Every subcommand that measures prints one JSON object on stdout:
//! `{"attempted":N,"failed":N,"metrics":{name:value,...}}`. `perfbench/run.py`
//! drives the daemons and campaigns and assembles the final report.

mod client;
mod gen;
mod replay;
mod trace;

use gen::{campaign_spec, ServeInputs, Workload, DEFAULT_ALPHA};
use ltf_experiments::campaign::CampaignSpec;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::exit;

/// Requests the serve determinism digest covers.
const DIGEST_REQUESTS: usize = 20_000;

struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut raw = raw.peekable();
        while let Some(flag) = raw.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = raw.next().ok_or_else(|| format!("{flag}: missing value"))?;
            map.insert(name.to_string(), value);
        }
        Ok(Self(map))
    }

    fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.0.get(name) {
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: got {raw:?}, expected a number")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.str("workload")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

fn report(attempted: u64, failed: u64, metrics: &[(&str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_num(*v)))
        .collect();
    println!(
        r#"{{"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn load_spec(path: &str) -> Result<CampaignSpec, String> {
    CampaignSpec::load(std::path::Path::new(path)).map_err(|e| e.to_string())
}

fn run(cmd: &str, a: &Args) -> Result<(), String> {
    match cmd {
        "digest" => {
            let w = a.workload()?;
            let seed = a.num("seed", None)?;
            let digest = if w.is_serve() {
                ServeInputs::new(w, seed, a.num("alpha", Some(DEFAULT_ALPHA))?)
                    .digest(DIGEST_REQUESTS)
            } else {
                gen::fnv(campaign_spec(w, seed).as_bytes(), gen::FNV_OFFSET)
            };
            println!("{digest:016x}");
        }
        "spec" => {
            let w = a.workload()?;
            let text = campaign_spec(w, a.num("seed", None)?);
            CampaignSpec::parse(&text).map_err(|e| format!("generated spec: {e}"))?;
            std::fs::write(a.str("out")?, text + "\n").map_err(|e| e.to_string())?;
        }
        "client" => {
            let w = a.workload()?;
            let inputs = ServeInputs::new(
                w,
                a.num("seed", None)?,
                a.num("alpha", Some(DEFAULT_ALPHA))?,
            );
            let opts = client::ClientOpts {
                addr: a.str("addr")?.to_string(),
                seconds: a.num("seconds", None)?,
            };
            println!("digest {:016x}", inputs.digest(DIGEST_REQUESTS));
            let r = client::run(&inputs, &opts);
            report(r.attempted, r.failed, &r.metrics);
        }
        "reference" => {
            let spec = load_spec(a.str("spec")?)?;
            let lines = ltf_campaign::serial_lines(&spec, 1, None)?;
            let mut text = lines.join("\n");
            text.push('\n');
            std::fs::write(a.str("out")?, text).map_err(|e| e.to_string())?;
        }
        "trace" => {
            let w = a.workload()?;
            let seed: u64 = a.num("seed", None)?;
            let dir = PathBuf::from(a.str("out-dir")?);
            let replay = if w.is_serve() {
                let inputs = ServeInputs::new(w, seed, a.num("alpha", Some(DEFAULT_ALPHA))?);
                replay::serve(&inputs, a.num("seconds", None)?)
            } else {
                let spec = load_spec(a.str("spec")?)?;
                let expected =
                    std::fs::read_to_string(a.str("expected")?).map_err(|e| e.to_string())?;
                let expected: Vec<String> = expected.lines().map(str::to_string).collect();
                replay::campaign(&spec, &expected)?
            };
            let stem = format!("trace-{}-{seed}", a.str("workload")?);
            replay
                .tracer
                .write_jsonl(&dir.join(format!("{stem}.jsonl")))
                .map_err(|e| e.to_string())?;
            let table = trace::self_time_table(replay.tracer.spans());
            std::fs::write(dir.join(format!("{stem}.selftime.txt")), &table)
                .map_err(|e| e.to_string())?;
            eprint!("{table}");
            report(replay.attempted, replay.failed, &replay.metrics);
        }
        other => return Err(format!("unknown command {other:?}")),
    }
    Ok(())
}

fn main() {
    let mut raw = std::env::args().skip(1);
    let cmd = raw.next().unwrap_or_default();
    let result = Args::parse(raw).and_then(|a| run(&cmd, &a));
    if let Err(e) = result {
        eprintln!("ltf-perfbench: {e}");
        exit(2);
    }
}
