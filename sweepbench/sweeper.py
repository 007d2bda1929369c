"""The sweeping process of one benchmark run.

Runs a workload's sweeps in rounds through `hullflow.cli.main(argv)`, with
the CLI's stdout captured, until the measuring time is used up.  With
tracing on, untraced and traced rounds alternate.  Prints one JSON line:
per-round and per-sweep wall times (each sweep preceded by a timing of
the `reference` yardstick), exit codes and payload hashes, the
first round's payloads, the peak resident memory of this process and of
its pool workers, and the traced layer counters.

Pool workers report through a file each in the dump directory, written
when they exit; see `WorkerProbe`.  Started by `run.py`, not by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from multiprocessing import util as mp_util

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ENV_DUMP = "SWEEPBENCH_DUMP_DIR"
ENV_TRACE = "SWEEPBENCH_TRACE"


def current_rss_kb() -> int:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            resident_pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0
    return resident_pages * os.sysconf("SC_PAGE_SIZE") // 1024


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class WorkerProbe:
    """Makes a multiprocessing child write, as it exits, its peak resident
    memory above what it started with and, when tracing, its layer
    counters.  Forked workers inherit the probe and the installed tracer and
    start it after the fork; spawned ones import this file as `__mp_main__`
    and start a probe of their own (see the end of the file)."""

    def __init__(self, dump_dir: str, tracer: tracing.Tracer) -> None:
        self.dump_dir = dump_dir
        self.tracer = tracer
        self.start_kb = 0

    def start(self) -> None:
        self.start_kb = current_rss_kb()
        self.tracer.clear_counters()
        mp_util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        doc = {
            "growth_kb": max(0, peak_rss_kb() - self.start_kb),
            "trace": self.tracer.snapshot() if self.tracer.installed else None,
        }
        path = os.path.join(self.dump_dir, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(path + ".tmp", path)

    def collect(self) -> list[dict]:
        docs = []
        for name in sorted(os.listdir(self.dump_dir)):
            if name.startswith("worker-") and name.endswith(".json"):
                path = os.path.join(self.dump_dir, name)
                with open(path, encoding="utf-8") as fh:
                    docs.append(json.load(fh))
                os.remove(path)
        return docs


def run_sweep(cli, argv: list[str], probe: WorkerProbe) -> dict:
    ref_s = reference.time_work()
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed sweep, not a failed run
        code = None
        error = traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - t0
    workers = probe.collect()
    text = out.getvalue()
    return {
        "code": code,
        "seconds": seconds,
        "ref_s": ref_s,
        "stdout": text,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "stderr": err.getvalue()[-2000:],
        "error": error,
        "workers_growth_kb": sum(w["growth_kb"] for w in workers),
        "worker_traces": [w["trace"] for w in workers if w["trace"]],
    }


def run_round(cli, sweeps, seed: int, probe: WorkerProbe, tracer, traced: bool) -> dict:
    if traced:
        tracer.install(sys.modules["hullflow"])
        tracer.clear_counters()
        os.environ[ENV_TRACE] = "1"
    try:
        results = [run_sweep(cli, s.argv(seed), probe) for s in sweeps]
    finally:
        if traced:
            snapshot = tracer.snapshot()
            tracer.uninstall()
            os.environ.pop(ENV_TRACE, None)
    rnd = {
        "traced": traced,
        "seconds": sum(r["seconds"] for r in results),
        "sweeps": results,
    }
    if traced:
        rnd["trace"] = tracing.merge(
            [snapshot] + [t for r in results for t in r["worker_traces"]]
        )
    for r in results:
        del r["worker_traces"]
    return rnd


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dump-dir", required=True)
    args = parser.parse_args()

    import hullflow
    import hullflow.cli as cli

    os.environ[ENV_DUMP] = args.dump_dir
    tracer = tracing.Tracer()
    probe = WorkerProbe(args.dump_dir, tracer)
    mp_util.register_after_fork(probe, WorkerProbe.start)
    sweeps = WORKLOADS[args.workload]

    rounds = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(cli, sweeps, args.seed, probe, tracer, traced))
        kinds = {r["traced"] for r in rounds}
        if time.perf_counter() - start >= args.seconds and len(kinds) == 1 + args.trace:
            break
    self_peak_kb = peak_rss_kb()

    payloads = [r.pop("stdout") for r in rounds[0]["sweeps"]]
    stderr = [r["stderr"] for r in rounds[0]["sweeps"]]
    for rnd in rounds:
        for r in rnd["sweeps"]:
            r.pop("stdout", None)
            r.pop("stderr", None)

    # Serial references for the parallel sweeps, outside the timed rounds.
    serial = []
    for s in sweeps:
        if s.jobs > 1:
            ref = run_sweep(cli, s.serial().argv(args.seed), probe)
            serial.append({"code": ref["code"], "stdout": ref["stdout"], "error": ref["error"]})
        else:
            serial.append(None)

    doc = {
        "rounds": rounds,
        "payloads": payloads,
        "stderr": stderr,
        "serial": serial,
        "self_peak_kb": self_peak_kb,
        "implementation": getattr(hullflow, "IMPLEMENTATION", None),
        "python": sys.version.split()[0],
    }
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__mp_main__" and os.environ.get(ENV_DUMP):
    # A spawned pool worker imports this file as its main module: give it
    # the same probe (and tracer) that forked workers inherit.
    import hullflow

    _tracer = tracing.Tracer()
    if os.environ.get(ENV_TRACE):
        _tracer.install(hullflow)
    _probe = WorkerProbe(os.environ[ENV_DUMP], _tracer)
    _probe.start()

if __name__ == "__main__":
    sys.exit(main())
