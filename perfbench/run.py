#!/usr/bin/env python3
"""Runs one workload of the ULC benchmark and prints its result line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (`perfbench/`, a cargo package of its own) against
the repository's crates, runs it in a child process and prints, as the
last line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics of `BENCHMARK.json` from the plain build; `--trace 1` reports the
per-layer metrics from the traced build (observability recording and the
counting allocator compiled in), plus `bench.tracing_overhead` from a
shorter plain run beside it, and writes the run's span tree under the
build directory. See `perfbench/NOTES.md`.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
BINARY = "ulc-perfbench"
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 175
TRACING_OVERHEAD = "bench.tracing_overhead"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(traced):
    profile = ["--profile", "traced", "--features", "traced"] if traced else ["--release"]
    cmd = ["cargo", "build", "--offline", "--quiet", "--manifest-path", str(MANIFEST)] + profile
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target_dir() / ("traced" if traced else "release") / BINARY


def run(binary, args, deadline):
    """Runs the benchmark binary and returns its parsed result line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before the run started")
    # A fixed glibc mmap threshold: every large table is mapped on
    # allocation and unmapped on free. Left dynamic, the threshold rises
    # after the first large free and the high-water mark then depends on
    # heap history (37 vs 52 MiB on the same inputs), not on the workload.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    try:
        done = subprocess.run(
            [str(binary)] + args,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    if done.returncode != 0:
        fail(f"{binary.name} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        fail(f"no result line: {e}")


def host():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release()}


def check_names(metrics, declared):
    got = {name: m["unit"] for name, m in metrics.items()}
    want = {d["name"]: d["unit"] for d in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        unexpected = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {unexpected}, wrong units {wrong}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {a.workload!r}")

    plain = build(traced=False)
    traced = build(traced=True) if a.trace else None
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", a.workload, "--seed", str(a.seed)]

    if not a.trace:
        result = run(plain, common + ["--seconds", str(a.seconds)], deadline)
        check_names(result["metrics"], spec["end_to_end"])
    else:
        # Half the time on a plain run (the tracing-overhead baseline),
        # half on the traced run with the layer ladder.
        half = str(a.seconds / 2)
        base = run(plain, common + ["--seconds", half, "--setup-reps", "1"], deadline)
        spans = target_dir() / "perfbench-spans" / f"{a.workload}-seed{a.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        args = common + ["--seconds", half, "--setup-reps", "1", "--layers", "--spans", str(spans)]
        traced_result = run(traced, args, deadline)
        print(f"perfbench: span tree written to {spans}", file=sys.stderr)
        plain_rate = base["metrics"]["refs_per_s"]["value"]
        traced_rate = traced_result["metrics"]["refs_per_s"]["value"]
        layers = {n: m for n, m in traced_result["metrics"].items()
                  if n in {d["name"] for d in spec["per_layer"]}}
        layers[TRACING_OVERHEAD] = {"value": plain_rate / traced_rate, "unit": "ratio"}
        result = {
            "correct": base["correct"] and traced_result["correct"],
            "attempted": base["attempted"] + traced_result["attempted"],
            "failed": base["failed"] + traced_result["failed"],
            "metrics": layers,
        }
        check_names(result["metrics"], spec["per_layer"])

    print("host: " + json.dumps(host()))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
