#!/usr/bin/env python3
"""End-to-end benchmark of ltf-serve and ltf-campaign, with a traced
per-layer replay.

Run from the repository root:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The script builds the daemon, the coordinator and the benchmark harness
from source, drives one workload through the real binaries (tracing off)
and prints one row of end-to-end metrics per workload. With `--trace 1`
it also replays the same generated inputs in-process with a span around
every layer call and reports the per-layer metrics instead. The last line
of standard output is the result as one JSON object; the exit code is 0
only when every output check passed. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ["serve-hot", "serve-cold", "campaign-pareto", "campaign-slo"]

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("sched_latency_gmean", "model_time"),
]

PER_LAYER = [
    ("serve.proto.parse_busy_s", "s"),
    ("serve.proto.parse_p50_us", "us"),
    ("serve.proto.encode_busy_s", "s"),
    ("serve.cache.key_busy_s", "s"),
    ("serve.engine.handle_p50_us", "us"),
    ("serve.transport_p50_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.infeasible_resolves", "count"),
    ("serve.infeasible_share", "ratio"),
    ("core.solver.build_busy_s", "s"),
    ("core.solve.calls", "count"),
    ("core.solve.busy_s", "s"),
    ("core.solve.busy_share", "ratio"),
    ("core.solve.feasible_ratio", "ratio"),
    ("core.solve.uniform_p50_us", "us"),
    ("core.solve.contended_p50_us", "us"),
    ("platform.route_busy_s", "s"),
    ("core.pareto.front_p50_ms", "ms"),
    ("core.pareto.heuristic_calls", "count"),
    ("core.pareto.feasible_ratio", "ratio"),
    ("experiments.workload.gen_busy_s", "s"),
    ("schedule.validate_busy_s", "s"),
    ("experiments.campaign.merge_busy_s", "s"),
    ("campaign.parallel_efficiency", "ratio"),
    ("experiments.campaign.slo.witness_solves", "count"),
    ("experiments.campaign.slo.witness_busy_s", "s"),
    ("faultlab.sample_busy_s", "s"),
    ("faultlab.replay_busy_s", "s"),
    ("faultlab.replay_p50_us", "us"),
    ("faultlab.stats_busy_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
]

# Daemon launches / spec expansions per run: SETUP_WARMUP untimed ones
# first (a ~1 ms process start right after the build check reads slow),
# then SETUP_REPEATS timed ones spread over the run; setup_s is their
# median.
SETUP_WARMUP = 5
SETUP_REPEATS = 31
# Campaign runs per window, at least.
MIN_CAMPAIGN_RUNS = 3
WORKERS = 2
CAMPAIGN_TIMEOUT_S = 120
ZIPF_ALPHA = 0.9

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(BENCH_DIR, "work")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail_setup(msg):
    """Abort without a result line (the benchmark could not run at all)."""
    log(f"error: {msg}")
    sys.exit(2)


def cores():
    return len(os.sched_getaffinity(0))


def median(values):
    return statistics.median(values) if values else 0.0


def nearest_rank(values, pct):
    if not values:
        return 0.0
    v = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(v)))
    return v[min(rank, len(v)) - 1]


def gmean(values):
    values = [v for v in values if v and v > 0 and math.isfinite(v)]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# --------------------------------------------------------------------------
# Build and context


def build():
    """Build the daemon, the coordinator and the harness from source."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "ltf-serve", "-p", "ltf-campaign"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail_setup(f"build failed: {' '.join(cmd)}")
    bins = {name: os.path.join(target, "release", name)
            for name in ("ltf-serve", "ltf-campaign", "ltf-perfbench")}
    for path in bins.values():
        if not os.path.exists(path):
            fail_setup(f"missing binary {path}")
    return bins


def command_output(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def context(workload, seed, seconds, trace):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": cores(),
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "rustc": command_output(["rustc", "--version"]),
        "workers": WORKERS,
        "zipf_alpha": ZIPF_ALPHA,
    }


def harness(bins, *args, timeout=170):
    """Run an ltf-perfbench subcommand; returns (stdout lines, result)."""
    cmd = [bins["ltf-perfbench"], *map(str, args)]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if r.stderr:
        sys.stderr.write(r.stderr)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {r.returncode}")
    lines = r.stdout.splitlines()
    result = next((json.loads(l) for l in reversed(lines) if l.startswith("{")), None)
    return lines, result


# --------------------------------------------------------------------------
# Serve workloads


class Daemon:
    """An `ltf-serve --listen` process on an OS-chosen port."""

    def __init__(self, binary):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--listen", "127.0.0.1:0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env=dict(os.environ, MALLOC_ARENA_MAX="1"), start_new_session=True)
        self.addr = None
        buf = b""
        deadline = t0 + 30
        fd = self.proc.stderr.fileno()
        while self.addr is None:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                self.stop()
                raise RuntimeError("daemon did not report its address")
            chunk = os.read(fd, 4096)
            if not chunk:
                self.stop()
                raise RuntimeError("daemon exited before listening")
            buf += chunk
            complete = buf.decode(errors="replace").split("\n")[:-1]
            for line in complete:
                if "listening on " in line:
                    self.addr = line.split("listening on ", 1)[1].strip()
        self.setup_s = time.perf_counter() - t0
        # Keep draining stderr (one line per closed connection).
        self.drain = threading.Thread(target=self._drain, daemon=True)
        self.drain.start()

    def _drain(self):
        try:
            while os.read(self.proc.stderr.fileno(), 4096):
                pass
        except OSError:
            pass

    def peak_rss_mb(self):
        try:
            with open(f"/proc/{self.proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if getattr(self, "drain", None) is not None:
            self.drain.join(timeout=5)
        self.proc.stderr.close()


def time_launches(binary, count):
    """Setup times of `count` daemon launches (each stopped again)."""
    times = []
    for _ in range(count):
        d = Daemon(binary)
        times.append(d.setup_s)
        d.stop()
    return times


def run_serve(bins, workload, seed, seconds, trace, kill_after):
    # Half the timed launches before the window and half after it, so
    # that setup_s samples more than one moment of the machine.
    time_launches(bins["ltf-serve"], SETUP_WARMUP)
    setups = time_launches(bins["ltf-serve"], SETUP_REPEATS // 2)
    daemon = Daemon(bins["ltf-serve"])
    killer = None
    if kill_after is not None:
        killer = threading.Timer(kill_after, lambda: os.kill(daemon.proc.pid, signal.SIGKILL))
        killer.start()
    try:
        lines, client = harness(
            bins, "client", "--workload", workload, "--seed", seed, "--addr", daemon.addr,
            "--seconds", seconds, "--alpha", ZIPF_ALPHA,
            timeout=seconds + 150)
        rss = daemon.peak_rss_mb()
        died = daemon.proc.poll() is not None
    finally:
        if killer is not None:
            killer.cancel()
        daemon.stop()
    setups += time_launches(bins["ltf-serve"], SETUP_REPEATS - len(setups))
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    m = client["metrics"]
    failed = client["failed"]
    checks = {
        "client_failed": failed,
        "daemon_died": int(died),
        "input_digest_stable": int(digest == harness(bins, "digest", "--workload", workload,
                                                     "--seed", seed, "--alpha", ZIPF_ALPHA)[0][0]),
    }
    if died:
        failed = max(failed, 1)
    if not checks["input_digest_stable"]:
        failed += 1
    e2e = {
        "setup_s": median(setups),
        "throughput_per_s": m["throughput_per_s"],
        "latency_p50_us": m["latency_p50_us"],
        "latency_p99_us": m["latency_p99_us"],
        "peak_rss_mb": rss,
        "sched_latency_gmean": m["sched_latency_gmean"],
    }
    extra = {k: m[k] for k in ("samples", "quality_keys", "window_s", "infeasible_share",
                               "client_hit_ratio", "distinct_keys", "lost", "protocol_errors",
                               "mismatched", "invalid")}
    extra.update(checks)
    extra["input_digest"] = digest
    extra["counts"] = {"requests": client["attempted"]}
    layer = {}
    attempted = client["attempted"]
    if trace:
        _, rep = harness(bins, "trace", "--workload", workload, "--seed", seed,
                         "--seconds", seconds / 2, "--alpha", ZIPF_ALPHA, "--out-dir", WORK,
                         timeout=seconds * 2 + 120)
        layer = dict(rep["metrics"])
        layer["serve.transport_p50_us"] = e2e["latency_p50_us"] - layer["serve.engine.handle_p50_us"]
        attempted += rep["attempted"]
        failed += rep["failed"]
        extra["counts"]["replayed_requests"] = rep["attempted"]
        extra["replay_mismatches"] = rep["failed"]
    return attempted, failed, e2e, layer, extra


# --------------------------------------------------------------------------
# Campaign workloads


def expand_counts(text, workload):
    """(work items, traces) of one campaign, from `ltf-campaign expand`."""
    last = text.strip().splitlines()[-1]
    if workload == "campaign-pareto":
        return int(last.split(" work item(s)")[0].split()[-1]), 0
    cells = int(last.split(" cell(s)")[0].split()[-1])
    per_cell = int(last.split(" trace(s)/cell")[0].split()[-1])
    blocks = int(last.split(" block(s)")[0].split()[-1])
    return blocks, cells * per_cell


def run_campaign_once(binary, spec, out, kill_after):
    """One `ltf-campaign run`; returns (wall_s, exit status, peak RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [binary, "run", "--spec", spec, "--workers", str(WORKERS), "--out", out],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    killer = threading.Timer(
        CAMPAIGN_TIMEOUT_S if kill_after is None else kill_after,
        lambda: os.killpg(proc.pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Reap any worker the coordinator left behind before the next run.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def quality(workload, text):
    rows = [json.loads(l) for l in text.splitlines() if l.strip()]
    if workload == "campaign-pareto":
        return gmean([r["latency"] for r in rows])
    return gmean([r["p50"] for r in rows if r.get("feasible") and r.get("p50")])


def run_campaign(bins, workload, seed, seconds, trace, kill_after):
    os.makedirs(WORK, exist_ok=True)
    spec = os.path.join(WORK, f"spec-{workload}-{seed}.json")
    harness(bins, "spec", "--workload", workload, "--seed", seed, "--out", spec)
    with open(spec, "rb") as f:
        first = f.read()
    harness(bins, "spec", "--workload", workload, "--seed", seed, "--out", spec + ".again")
    with open(spec + ".again", "rb") as f:
        spec_stable = first == f.read()
    os.remove(spec + ".again")

    def time_expands(count):
        """Setup times of `count` spec expansions; returns the last output."""
        out = ""
        for _ in range(count):
            t0 = time.perf_counter()
            r = subprocess.run([bins["ltf-campaign"], "expand", "--spec", spec],
                               capture_output=True, text=True, timeout=60)
            setups.append(time.perf_counter() - t0)
            if r.returncode != 0:
                fail_setup(f"expand failed: {r.stderr.strip()}")
            out = r.stdout
        return out

    setups = []
    items, traces = expand_counts(time_expands(SETUP_WARMUP), workload)
    setups.clear()
    # Throughput counts items (Pareto) or traces (SLO).
    units = traces or items

    walls, rss, outputs, statuses = [], [], [], []
    out = os.path.join(WORK, f"out-{workload}-{seed}.jsonl")
    # One untimed run first: the first run after a build is consistently
    # slower (cold page cache); its output is still checked.
    warm = kill_after is None
    t_start = time.perf_counter()
    while warm or len(walls) < MIN_CAMPAIGN_RUNS or time.perf_counter() - t_start < seconds:
        if os.path.exists(out):
            os.remove(out)
        # Spread the timed expansions over the window's gaps, so that
        # setup_s samples more than one moment of the machine.
        time_expands(min(4, SETUP_REPEATS - len(setups)))
        wall, status, peak = run_campaign_once(bins["ltf-campaign"], spec, out, kill_after)
        try:
            with open(out) as f:
                outputs.append(f.read())
        except OSError:
            outputs.append(None)
        statuses.append(status)
        if warm:
            warm = False
            t_start = time.perf_counter()
            continue
        walls.append(wall)
        rss.append(peak)
        if kill_after is not None:
            break

    time_expands(SETUP_REPEATS - len(setups))
    layer, extra = {}, {}
    attempted = units * len(statuses)
    ok_outputs = [o for o, s in zip(outputs, statuses) if s == 0 and o is not None]
    if trace:
        # The traced replay must reproduce the distributed output byte
        # for byte; every run must match it too.
        expected = ok_outputs[0] if ok_outputs else ""
        ref_path = os.path.join(WORK, f"expected-{workload}-{seed}.jsonl")
        with open(ref_path, "w") as f:
            f.write(expected)
        _, rep = harness(bins, "trace", "--workload", workload, "--seed", seed,
                         "--seconds", seconds, "--spec", spec, "--expected", ref_path,
                         "--out-dir", WORK, timeout=170)
        layer = dict(rep["metrics"])
        layer["campaign.parallel_efficiency"] = (
            layer.pop("campaign.compute_busy_s") / (WORKERS * median(walls)))
        reference = expected
        extra["replay_mismatched_items"] = rep["failed"]
        failed_replay = rep["failed"]
    else:
        ref_path = os.path.join(WORK, f"reference-{workload}-{seed}.jsonl")
        harness(bins, "reference", "--spec", spec, "--out", ref_path, timeout=170)
        with open(ref_path) as f:
            reference = f.read()
        failed_replay = 0
    bad_runs = sum(1 for o, s in zip(outputs, statuses) if s != 0 or o != reference)
    failed = bad_runs * units + failed_replay + (0 if spec_stable else 1)
    if not reference:
        failed = max(failed, units)
    per_unit = [units / w for w in walls]
    e2e = {
        "setup_s": median(setups),
        "throughput_per_s": median(per_unit),
        "latency_p50_us": median(walls) * 1e6,
        "latency_p99_us": nearest_rank(walls, 99) * 1e6,
        "peak_rss_mb": median(rss),
        "sched_latency_gmean": quality(workload, reference) if reference else 0.0,
    }
    extra.update({
        "counts": {"campaign_runs": len(statuses), "items": items * len(statuses),
                   **({"traces": traces * len(statuses)} if traces else {})},
        "runs": len(walls),
        "units_per_run": units,
        "walls_s": walls,
        "bad_runs": bad_runs,
        "exit_codes": statuses,
        "spec_stable": int(spec_stable),
        "input_digest": harness(bins, "digest", "--workload", workload, "--seed", seed)[0][0],
    })
    return attempted, failed, e2e, layer, extra


# --------------------------------------------------------------------------
# Report


def run_workload(bins, workload, seed, seconds, trace, kill_after):
    runner = run_serve if workload.startswith("serve") else run_campaign
    attempted, failed, e2e, layer, extra = runner(bins, workload, seed, seconds, trace, kill_after)
    ctx = context(workload, seed, seconds, trace)
    ctx["attempted"] = attempted
    ctx.update(extra["counts"])
    if trace:
        for name, _ in PER_LAYER:
            layer.setdefault(name, 0.0)
        names, values = PER_LAYER, layer
    else:
        names, values = END_TO_END, e2e
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"result-{workload}-{seed}-trace{trace}.json"), "w") as f:
        json.dump({"context": ctx, "result": result, "end_to_end": e2e,
                   "per_layer": layer, "detail": extra}, f, indent=1)
    return ctx, result, e2e, extra


def print_table(rows):
    """One row per workload: every end-to-end metric with its unit."""
    heads = ["workload"] + [f"{n} [{u}]" for n, u in END_TO_END] + ["failed_share", "attempted"]
    body = []
    for workload, result, e2e in rows:
        share = result["failed"] / max(1, result["attempted"])
        body.append([workload] + [f"{e2e[n]:.6g}" for n, _ in END_TO_END]
                    + [f"{share:.6g}", str(result["attempted"])])
    widths = [max(len(r[i]) for r in [heads] + body) for i in range(len(heads))]
    for r in [heads] + body:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest-kill-after", type=float, default=None,
                    help="SIGKILL the daemon (or the campaign coordinator) after this many "
                         "seconds; the run must then report failures and exit non-zero")
    args = ap.parse_args()

    for needed in ("Cargo.toml", os.path.join("crates", "serve", "Cargo.toml"),
                   os.path.join("crates", "campaign", "Cargo.toml")):
        if not os.path.exists(needed):
            fail_setup(f"run from the repository root: {needed} not found")
    bins = build()
    os.makedirs(WORK, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    rows, results = [], {}
    for w in workloads:
        ctx, result, e2e, extra = run_workload(
            bins, w, args.seed, args.seconds, args.trace, args.selftest_kill_after)
        rows.append((w, result, e2e))
        results[w] = result
        print(f"# context {json.dumps(ctx, sort_keys=True)}")
        if result["failed"]:
            log(f"{w}: {result['failed']} of {result['attempted']} failed: "
                f"{json.dumps(extra, sort_keys=True)}")
    print_table(rows)
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
