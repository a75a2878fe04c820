#!/usr/bin/env python3
"""The repository benchmark: `stms-experiments` end to end, and per layer.

    python3 perfbench/run.py --workload paper_cold|warm_rerun|long_stream|all
                             [--seed N] [--seconds S] [--trace 0|1]

Builds the release `stms-experiments` binary and the traced-run program
(`perfbench/tracer`) into $CARGO_TARGET_DIR (default `.bench_build`), then
measures one workload for about `--seconds` seconds.

`--trace 0` runs the workload's command as one closed-loop client, a fresh
process per run, and prints the end-to-end metrics. `--trace 1` runs the
traced in-process program instead and prints the per-layer metrics. Every
CLI run's stdout is checked against the digest recorded in
`perfbench/digests.json`; the traced run checks its own outputs against the
untraced library path. The last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

The CLI takes no seed, so `--seed` only re-seeds the traced run's workload
presets (0 keeps the paper's preset seeds). Scratch files go to
`.bench_work/`. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import stats  # noqa: E402

THREADS = 2
PAPER_ACCESSES = 100_000
LONG_ACCESSES = 2_400_000
# The cold workloads' rerun latency: p90 of 100 runs has ten beyond it.
MIN_RERUNS = 100
# Share of each cold run's length spent on the warm reruns after it.
RERUN_SHARE = 0.1
MIN_RUNS = 3
# CLI reruns per traced pass, for render.process_ms.
TRACED_RERUNS = 21
COMMAND_TIMEOUT_S = 150
FIG9_NOTE = re.compile(rb"STMS achieves a geometric-mean (\d+)% of idealized coverage")
WORK = ROOT / ".bench_work"


class Workload(NamedTuple):
    name: str
    figures: str
    accesses: int
    stream: bool
    # Jobs in the selection: with `accesses`, the fixed numerator of
    # sim_maccess_per_s.
    jobs: int
    # Heading of the first figure that needs a replay.
    heading: bytes
    # Key of the expected stdout digest in digests.json.
    digest: str
    # The timed command reruns against the result cache filled in set-up.
    warm: bool


WORKLOADS = {
    w.name: w
    for w in [
        Workload("paper_cold", "all", PAPER_ACCESSES, False, 350, b"== Table 2", "paper_cold", False),
        Workload("warm_rerun", "all", PAPER_ACCESSES, False, 350, b"== Table 2", "paper_cold", True),
        Workload("long_stream", "table1,fig9", LONG_ACCESSES, True, 24, b"== Figure 9", "long_stream", False),
    ]
}

END_TO_END = {
    "campaign_s": "s",
    "sim_maccess_per_s": "Maccess/s",
    "first_result_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rerun_p50_ms": "ms",
    "rerun_p90_ms": "ms",
    "fig9_coverage_pct": "pct",
}

PER_LAYER = {
    "workloads.gen_ns_per_access": "ns",
    "workloads.gen_share": "frac",
    "engine.self_ns_per_access": "ns",
    **{f"engine.ns_per_access.{f}": "ns" for f in
       ["baseline", "markov", "fixed_depth", "ideal_tms", "stms", "miss_collect"]},
    "cache.l1.ns_per_access": "ns",
    "cache.l2.ns_per_access": "ns",
    "cache.l1.hit_ratio": "frac",
    "cache.l2.hit_ratio": "frac",
    "dram.ns_per_access": "ns",
    "dram.accesses_per_kaccess": "1/kaccess",
    "stride.ns_per_train": "ns",
    **{f"pf.{f}.{m}": u for f in ["stms", "ideal_tms", "markov", "fixed_depth"] for m, u in [
        ("trigger_ns", "ns"), ("next_chunk_ns", "ns"), ("record_ns", "ns"),
        ("hook_share", "frac"), ("trigger_hit_ratio", "frac"),
        ("coverage", "frac"), ("accuracy", "frac")]},
    "stms.index_hit_ratio": "frac",
    "stms.history_blocks_per_trigger": "blocks",
    "stms.meta_bytes_per_useful_byte": "B/B",
    "campaign.jobs": "count",
    "campaign.unique_job_frac": "frac",
    "campaign.busy_s": "s",
    "campaign.pool_idle_frac": "frac",
    "campaign.job_max_s": "s",
    "campaign.failed_jobs": "count",
    "result_store.get_us": "us",
    "result_store.put_us": "us",
    "result_store.hit_ratio": "frac",
    "result_store.blob_bytes": "B",
    "render.plans_ms": "ms",
    "render.warm_figures_ms": "ms",
    "render.process_ms": "ms",
    "trace.overhead_frac": "frac",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def target_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build() -> Tuple[Path, Path]:
    """Builds both programs from source; exits nonzero if either fails."""
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "stms-sim", "--bin", "stms-experiments"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(BENCH / "tracer" / "Cargo.toml")],
    ):
        if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            log(f"error: `{' '.join(argv)}` failed")
            sys.exit(1)
    return target / "release" / "stms-experiments", target / "release" / "stms-perfbench-tracer"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Run(NamedTuple):
    code: int
    stdout: bytes
    wall_s: float
    # Spawn to the first stdout byte / to the first replayed figure's heading.
    setup_s: Optional[float]
    first_s: Optional[float]
    rss_mb: float

    def ok(self, expected: str) -> bool:
        return (self.code == 0 and self.first_s is not None
                and digest(self.stdout) == expected)


def spawn(argv: List[str], heading: bytes, stderr_path: Path) -> Run:
    """Runs one command to completion, timing its stdout as it streams.

    Peak RSS is the child's own (`wait4`), not the running maximum over
    every child this process has reaped.
    """
    with open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, child.kill)
    watchdog.start()
    out = bytearray()
    setup = first = None
    try:
        fd = child.stdout.fileno()
        while True:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            now = time.perf_counter()
            if setup is None:
                setup = now - started
            out += chunk
            if first is None and heading in out:
                first = now - started
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if child.returncode is None:
            child.kill()
            child.wait()
        child.stdout.close()
    return Run(child.returncode, bytes(out), wall, setup, first, usage.ru_maxrss / 1024.0)


class Tally:
    """Attempted and failed command runs (nonzero exit or wrong stdout)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)
        return ok


class Sampler:
    """Runs one workload's commands and keeps the runs that passed."""

    def __init__(self, wl: Workload, expected: str, work: Path, tally: Tally) -> None:
        self.wl, self.expected, self.work, self.tally = wl, expected, work, tally

    def run(self, argv: List[str], what: str, into: List[Run]) -> bool:
        run = spawn(argv, self.wl.heading, self.work / "stderr.txt")
        ok = self.tally.check(run.ok(self.expected), f"{what}: exit {run.code}")
        if ok:
            into.append(run)
        return ok


def cli_argv(binary: Path, wl: Workload, cache: Optional[Path] = None,
             materialized: bool = False) -> List[str]:
    argv = [str(binary), "--figures", wl.figures, "--accesses", str(wl.accesses),
            "--threads", str(THREADS)]
    if wl.stream and not materialized:
        argv.append("--stream-traces")
    if cache is not None:
        argv += ["--result-cache", str(cache)]
    return argv


def describe(name: str, samples: List[float], scale: float, unit: str) -> str:
    s = stats.summarize(samples)
    tail = (f", p{s.tail_pct:g} {s.tail * scale:.4f}" if s.tail is not None
            else ", no tail (under 20 samples)")
    return f"  {name}: median {s.median * scale:.4f} {unit}{tail}, n={s.count}"


def end_to_end(wl: Workload, binary: Path, seconds: float, expected: str,
               tally: Tally) -> dict:
    work = fresh_dir(WORK / wl.name)
    cache = work / "results"
    sampler = Sampler(wl, expected, work, tally)
    # Set-up: one untimed run fills the result cache. For long_stream it is
    # the materialized path, so matching the streamed digest proves the two
    # paths print the same bytes.
    fill: List[Run] = []
    if not sampler.run(cli_argv(binary, wl, cache, materialized=True), "set-up cache fill", fill):
        return {}
    warm_argv = cli_argv(binary, wl, cache)
    if wl.warm:
        # Warm and cold runs of the same selection print the same bytes.
        first = spawn(warm_argv, wl.heading, work / "stderr.txt")
        tally.check(first.code == 0 and first.stdout == fill[0].stdout,
                    "set-up warm rerun differs from the cold run")

    # Closed loop until `seconds` would be overrun. The cold workloads
    # follow each timed run with warm reruns for a tenth of its length, so
    # every metric samples the same stretch of time and the few slow reruns
    # right after a cold run stay a small share.
    main_argv = warm_argv if wl.warm else cli_argv(binary, wl)
    runs: List[Run] = []
    reruns: List[Run] = runs if wl.warm else []
    started = time.perf_counter()
    n = 0
    while True:
        n += 1
        run_started = time.perf_counter()
        sampler.run(main_argv, f"timed run {n}", runs)
        if not wl.warm:
            batch_end = time.perf_counter() + RERUN_SHARE * (time.perf_counter() - run_started)
            while True:
                sampler.run(warm_argv, f"rerun after run {n}", reruns)
                if time.perf_counter() >= batch_end:
                    break
        elapsed = time.perf_counter() - started
        if n >= (MIN_RERUNS if wl.warm else MIN_RUNS) and elapsed * (n + 1) / n > seconds:
            break
    while not wl.warm and len(reruns) < MIN_RERUNS and tally.failed == 0:
        sampler.run(warm_argv, "rerun top-up", reruns)
    if not runs or not reruns:
        return {}
    # Set-up is the same work in a cold run and a warm rerun (the warm one
    # also opens the result store), so both count; the reruns give the
    # cold workloads enough samples for a steady median.
    setups = [r.setup_s for r in (runs if wl.warm else runs + reruns)]

    walls = [r.wall_s for r in runs]
    rerun_walls = [r.wall_s for r in reruns]
    for name, samples, scale, unit in [
        ("wall", walls, 1, "s"),
        ("first result", [r.first_s for r in runs], 1, "s"),
        ("first byte", setups, 1e3, "ms"),
        ("peak rss", [r.rss_mb for r in runs], 1, "MB"),
        ("warm rerun", rerun_walls, 1e3, "ms"),
    ]:
        log(describe(name, samples, scale, unit))
    note = FIG9_NOTE.search(runs[0].stdout)
    if not tally.check(note is not None, "no Figure 9 note in stdout"):
        return {}
    campaign_s = stats.median(walls)
    return {
        "campaign_s": (campaign_s, len(runs)),
        "sim_maccess_per_s": (wl.jobs * wl.accesses / campaign_s / 1e6, len(runs)),
        "first_result_s": (stats.median([r.first_s for r in runs]), len(runs)),
        "setup_s": (stats.median(setups), len(setups)),
        "peak_rss_mb": (stats.median([r.rss_mb for r in runs]), len(runs)),
        "rerun_p50_ms": (stats.median(rerun_walls) * 1e3, len(reruns)),
        "rerun_p90_ms": (stats.percentile(rerun_walls, 90) * 1e3, len(reruns)),
        "fig9_coverage_pct": (int(note.group(1)), 1),
    }


def traced(wl: Workload, binary: Path, tracer: Path, seed: int, seconds: float,
           expected: str, tally: Tally) -> dict:
    passes: List[dict] = []
    started = time.perf_counter()
    n = 0
    while True:
        n += 1
        work = fresh_dir(WORK / wl.name / "traced")
        argv = [str(tracer), "--figures", wl.figures, "--accesses", str(wl.accesses),
                "--seed", str(seed), "--work", str(work)]
        if wl.stream:
            argv.append("--stream-traces")
        code = subprocess.run(argv, cwd=ROOT, stdout=sys.stderr,
                              timeout=COMMAND_TIMEOUT_S).returncode
        report = json.loads((work / "metrics.json").read_text()) if code == 0 else None
        ok = (report is not None and not any(report["checks"].values())
              and digest((work / "render.txt").read_bytes()) == expected)
        if tally.check(ok, f"traced pass {n}: exit {code}, checks "
                           f"{report and report['checks']}"):
            # The CLI's own rerun against the warm store the traced pass
            # left: what process start and I/O add to the in-process render.
            sampler = Sampler(wl, expected, work, tally)
            reruns: List[Run] = []
            for i in range(TRACED_RERUNS):
                sampler.run(cli_argv(binary, wl, work / "results"), f"traced rerun {i}", reruns)
            metrics = report["metrics"]
            if reruns:
                metrics["render.process_ms"] = (
                    stats.median([r.wall_s for r in reruns]) * 1e3
                    - metrics["render.warm_figures_ms"])
                passes.append(metrics)
            log(f"  traced pass {n}: spans in {work / 'spans.jsonl'}")
        elapsed = time.perf_counter() - started
        if elapsed * (n + 1) / n > seconds:
            break
    if not passes:
        return {}
    return {name: (stats.median([p[name] for p in passes]), len(passes))
            for name in PER_LAYER if all(name in p for p in passes)}


def run_workload(wl: Workload, args, binary: Path, tracer: Path, digests: dict) -> dict:
    log(f"[{wl.name}] {'traced' if args.trace else 'end-to-end'} run, "
        f"{args.seconds} s, seed {args.seed}")
    tally = Tally()
    expected = digests[wl.digest]
    if args.trace:
        measured, units = traced(wl, binary, tracer, args.seed, args.seconds, expected, tally), PER_LAYER
    else:
        measured, units = end_to_end(wl, binary, args.seconds, expected, tally), END_TO_END
    missing = [name for name in units if name not in measured]
    tally.check(not missing, f"metrics not measured: {missing}")
    for problem in tally.problems:
        log(f"  FAILED: {problem}")
    for name, (value, count) in measured.items():
        print(f"{wl.name} {name} = {value:.6g} {units[name]} (n={count})")
    print(f"{wl.name} failed_frac = {tally.failed / max(tally.attempted, 1):.4g} "
          f"({tally.failed} of {tally.attempted} runs)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in measured.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary, tracer = build()
    digests = json.loads((BENCH / "digests.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args, binary, tracer, digests)
               for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
