#!/usr/bin/env python3
"""Sweep benchmark for hullflow.

    python3 sweepbench/run.py --workload group-sweeps --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; hullflow is imported from its `src`, so no
install is needed.  One run:

1. With `--trace 0`, times fresh interpreters until `hullflow.cli` is
   imported (`setup_s`, the median of several).
2. Starts one fresh sweeping process (`sweeper.py`) that drives the
   workload's sweeps through `hullflow.cli.main(argv)` in whole rounds for
   `--seconds` seconds.  With `--trace 1` untraced and traced rounds
   alternate, and the traced ones give the per-layer split.
3. Checks every payload against `oracles.py`, which shares no code with
   hullflow, and prints each sweep's payload sha256.

Timings are scaled by the `reference` yardstick measured in the same run,
so that they read as seconds on one reference machine; the raw wall times
are printed too.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` (sweeps) and `metrics`.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import DEFAULT_SEED, MAX_COUNTEREXAMPLES, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
DEADLINE_S = 170.0
IMPORT_CODE = "import hullflow.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result at all."""


def child_env() -> dict[str, str]:
    """The environment of every interpreter the benchmark starts: hullflow
    from this checkout's `src`, with bytecode caches written there as an
    install would have them, so that `setup_s` does not time compiling."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup() -> tuple[float, float]:
    """Median wall times of fresh interpreters importing hullflow.cli and
    running the reference import, launched alternately.  One untimed
    launch first writes the bytecode caches of a fresh checkout."""
    env = child_env()

    def launch(code: str) -> float:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
        if proc.returncode != 0 or line != b"ready\n":
            raise BenchError(f"interpreter start-up failed: {err.decode(errors='replace')}")
        return elapsed

    launch(IMPORT_CODE)
    pairs = [(launch(IMPORT_CODE), launch(reference.SETUP_CODE)) for _ in range(SETUP_SAMPLES)]
    return statistics.median(p[0] for p in pairs), statistics.median(p[1] for p in pairs)


def run_sweeper(workload: str, seed: int, seconds: float, trace: int, budget: float) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".sweepbench-") as dump_dir:
        cmd = [
            sys.executable, os.path.join(HERE, "sweeper.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--dump-dir", dump_dir,
        ]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                timeout=max(budget, 1.0),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"sweeping process exceeded {budget:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"sweeping process failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def judge(workload: str, seed: int, doc: dict) -> tuple[list[list[str]], list[int]]:
    """Problems per sweep of the workload (empty when correct) and the
    instance count each contributes to a round."""
    sweeps = WORKLOADS[workload]
    problems, counts = [], []
    for i, sweep in enumerate(sweeps):
        first = doc["rounds"][0]["sweeps"][i]
        found = oracles.check_payload(
            sweep, seed, MAX_COUNTEREXAMPLES, first["code"], doc["payloads"][i]
        )
        if first["error"]:
            found.append(f"raised: {first['error'].strip().splitlines()[-1]}")
        if first["code"] not in (0, 1) and doc["stderr"][i].strip():
            found.append(f"stderr: {doc['stderr'][i].strip().splitlines()[-1]}")
        ref = doc["serial"][i]
        if ref is not None and ref["stdout"] != doc["payloads"][i]:
            found.append("payload differs from the serial sweep's")
        problems.append(found)
        try:
            counts.append(0 if found else json.loads(doc["payloads"][i])["result"]["instance_count"])
        except (ValueError, KeyError, TypeError):
            counts.append(0)
    return problems, counts


def main() -> int:
    parser = argparse.ArgumentParser(description="hullflow sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "hullflow", "cli.py")):
        print(f"sweepbench: no hullflow sources under {SRC}", file=sys.stderr)
        return 2
    try:
        setup = None if args.trace else measure_setup()
        budget = DEADLINE_S - (time.perf_counter() - start)
        doc = run_sweeper(args.workload, args.seed, args.seconds, args.trace, budget)
    except BenchError as exc:
        print(f"sweepbench: {exc}", file=sys.stderr)
        return 1

    sweeps = WORKLOADS[args.workload]
    problems, counts = judge(args.workload, args.seed, doc)
    rounds = doc["rounds"]
    attempted = failed = 0
    for rnd in rounds:
        for i, r in enumerate(rnd["sweeps"]):
            first = rounds[0]["sweeps"][i]
            attempted += 1
            # Later rounds must reproduce the first round's bytes exactly.
            if problems[i] or (r["sha256"], r["code"]) != (first["sha256"], first["code"]):
                failed += 1

    print(f"workload {args.workload}: seed {args.seed}, {len(rounds)} rounds, "
          f"python {doc['python']}, nproc {os.cpu_count()}, "
          f"kernels {doc['implementation'] or 'n/a'}")
    print("  round seconds: " + ", ".join(
        f"{r['seconds']:.3f}" + (" traced" if r["traced"] else "") for r in rounds))
    for i, sweep in enumerate(sweeps):
        secs = [rnd["sweeps"][i]["seconds"] for rnd in rounds if not rnd["traced"]]
        status = "ok" if not problems[i] else "FAILED: " + "; ".join(problems[i])
        print(f"  {sweep.label:<34} median {statistics.median(secs):7.3f} s  "
              f"payload sha256 {rounds[0]['sweeps'][i]['sha256']}  {status}")

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        overhead = statistics.median(r["seconds"] for r in traced) - statistics.median(
            r["seconds"] for r in plain
        )
        per_round = [tracing.layer_metrics(r["trace"], sum(counts), overhead) for r in traced]
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_round), "unit": unit}
            for name, (unit, _) in tracing.PER_LAYER.items()
        }
        split = sorted(
            ((k, v) for k, v in traced[0]["trace"]["layer_self"].items()), key=lambda kv: -kv[1]
        )
        print("  layer self seconds (first traced round): "
              + ", ".join(f"{k} {v:.3f}" for k, v in split))
    else:
        # Host load moved a fixed loop's speed by half within an hour, so
        # each sweep's time is divided by the yardstick timed just before
        # it; each sweep contributes its median over the rounds.
        raw_s = sum(
            statistics.median(r["sweeps"][i]["seconds"] for r in plain) for i in range(len(sweeps))
        )
        scaled_s = reference.NOMINAL_S * sum(
            statistics.median(r["sweeps"][i]["seconds"] / r["sweeps"][i]["ref_s"] for r in plain)
            for i in range(len(sweeps))
        )
        growth = max(
            (s["workers_growth_kb"] for r in rounds for s in r["sweeps"]), default=0
        )
        setup_raw, setup_ref = setup
        setup_s = setup_raw * reference.SETUP_NOMINAL_S / setup_ref
        print(f"  wall: setup {setup_raw:.4f} s (yardstick {setup_ref:.4f} s), "
              f"{sum(counts) / raw_s:.1f} instances/s")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "instances_per_s": {"value": sum(counts) / scaled_s, "unit": "1/s"},
            "peak_rss_mb": {"value": (doc["self_peak_kb"] + growth) / 1024, "unit": "MB"},
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
