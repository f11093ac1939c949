#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The benchmark is
compiled from source into $CARGO_TARGET_DIR (default `.bench_build`),
then each workload runs in a fresh process, so that its set-up time and
peak memory are its own. With `--trace 0` the last line of standard
output is one JSON object holding every end-to-end metric named in
BENCHMARK.json; with `--trace 1` it holds every per-layer metric, taken
from a traced run, plus `trace.overhead_pct`, the traced run's read
throughput relative to an untraced run's. `--workload all` runs every
workload and prints each one's metrics.

The exit code is 0 only when every run built, finished and was correct.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The workload processes of one command must finish within this many
# seconds.
DEADLINE_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    """BENCHMARK.json, checked against perfbench/metrics.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        meta = json.loads((BENCH_DIR / "metrics.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read the benchmark definition: {err}")
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            described = meta["metrics"].get(metric["name"])
            if described is None or any(
                described[key] != metric[key] for key in ("unit", "better")
            ):
                fail(f"metrics.json disagrees with BENCHMARK.json on {metric['name']}")
    return spec


def build():
    """Compiles the benchmark binary and returns its path."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} holds no ProbeSim sources to build the benchmark from")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    binary = Path(env["CARGO_TARGET_DIR"])
    if not binary.is_absolute():
        binary = ROOT / binary
    return binary / "release" / "perfbench"


def run_once(binary, workload, seed, seconds, traced, deadline):
    """One workload in a fresh process; returns its parsed result line."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in time")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} exited with code {proc.returncode} and printed no result")
    if proc.returncode != 0 and result["correct"]:
        fail(f"{workload} exited with code {proc.returncode}")
    return result


def pick(result, spec_metrics):
    """The named metrics of one result, with units checked."""
    out = {}
    for metric in spec_metrics:
        measured = result["metrics"].get(metric["name"])
        if measured is None or measured["unit"] != metric["unit"]:
            fail(f"{result['workload']} did not report {metric['name']} in {metric['unit']}")
        out[metric["name"]] = {"value": measured["value"], "unit": metric["unit"]}
    return out


def run_workload(binary, spec, workload, seed, seconds, traced, deadline):
    """Returns the contract result of one workload."""
    untraced = run_once(binary, workload, seed, seconds, False, deadline)
    if not traced:
        return {
            "correct": untraced["correct"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "metrics": pick(untraced, spec["end_to_end"]),
        }
    traced_run = run_once(binary, workload, seed, seconds, True, deadline)
    base_qps = untraced["metrics"]["query_qps"]["value"]
    traced_qps = traced_run["metrics"]["query_qps"]["value"]
    traced_run["metrics"]["trace.overhead_pct"] = {
        "value": 100.0 * (1.0 - traced_qps / base_qps),
        "unit": "%",
        "samples": 2,
    }
    return {
        "correct": untraced["correct"] and traced_run["correct"],
        "attempted": untraced["attempted"] + traced_run["attempted"],
        "failed": untraced["failed"] + traced_run["failed"],
        "metrics": pick(traced_run, spec["per_layer"]),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload}; choose one of {', '.join(names)} or all")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    binary = build()
    # The first run in a checkout also compiles; the runs themselves get
    # the budget of one run after that.
    deadline = time.monotonic() + DEADLINE_S

    if args.workload != "all":
        result = run_workload(binary, spec, args.workload, args.seed, args.seconds,
                              args.trace == 1, deadline)
        print(json.dumps(result))
        sys.exit(0 if result["correct"] else 1)

    # Every workload, each with the full time budget of one run.
    results = {}
    for workload in names:
        results[workload] = run_workload(
            binary, spec, workload, args.seed, args.seconds, args.trace == 1,
            time.monotonic() + DEADLINE_S)
    section = spec["per_layer" if args.trace == 1 else "end_to_end"]
    print(f"{'metric':<26}" + "".join(f"{w:>16}" for w in names))
    for metric in section:
        row = "".join(f"{results[w]['metrics'][metric['name']]['value']:>16.4f}" for w in names)
        print(f"{metric['name']:<26}{row}  {metric['unit']}")
    for key in ("attempted", "failed"):
        print(f"{'ops_' + key:<26}" + "".join(f"{results[w][key]:>16}" for w in names))
    print(json.dumps(results))
    sys.exit(0 if all(r["correct"] for r in results.values()) else 1)


if __name__ == "__main__":
    main()
