#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python twins.

Times three kernels (closure tables, the group-table coherence scan and
pairwise closure checks) and one end-to-end sweep with each
implementation.  Sweeps decide coherence by orbit saturation, so the
coherence scan is timed only as the brute-force oracle the tests use.

Run it from anywhere, without an install: `python3 benchmarks/bench_kernels.py`.
"""

import argparse
import itertools
import os
import random
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)


def _timeit(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def kernel_cases(n, count, seed=0):
    rnd = random.Random(seed)
    systems = []
    for _ in range(count):
        masks = [m for m in range(1 << n) if rnd.random() < 0.5]
        masks.append((1 << n) - 1)
        systems.append(masks)
    perms = [list(p) for p in itertools.permutations(range(n))]
    return systems, perms


def bench_kernels(mod, n, systems, perms):
    def closure_tables():
        for masks in systems:
            mod.closure_table(n, masks)

    tables = [mod.perm_table(p) for p in perms]

    def coherence():
        for chi in range(1, 1 << n):
            mod.coherent_block(tables, chi, False)

    def pairwise():
        for masks in systems:
            mod.pairwise_closed(masks)

    return {
        "closure_table": _timeit(closure_tables, 3),
        "coherent_block (oracle)": _timeit(coherence, 3),
        "pairwise_closed": _timeit(pairwise, 3),
    }


def bench_sweep(impl_env):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    env.pop("HULLFLOW_PURE", None)
    if impl_env:
        env["HULLFLOW_PURE"] = "1"
    code = (
        "import time; from hullflow.verify import sweep, TheoremId;"
        "t0=time.perf_counter();"
        "r=sweep(TheoremId.L1_3, 4, 'exhaustive');"
        "print(time.perf_counter()-t0)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    if out.returncode != 0:
        raise RuntimeError(
            f"sweep child exited with {out.returncode}:\n{out.stderr.strip()}"
        )
    return float(out.stdout.strip())


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--systems", type=int, default=400)
    args = parser.parse_args()

    from hullflow import _kernels_py

    try:
        from hullflow import _kernels
    except ImportError:
        _kernels = None

    systems, perms = kernel_cases(args.n, args.systems)
    rows = {"python": bench_kernels(_kernels_py, args.n, systems, perms)}
    if _kernels is not None:
        rows["cython"] = bench_kernels(_kernels, args.n, systems, perms)

    print(f"kernel microbenchmarks (n={args.n}, {args.systems} systems)")
    names = sorted(next(iter(rows.values())))
    header = f"{'kernel':<24}" + "".join(f"{impl:>12}" for impl in rows)
    if len(rows) == 2:
        header += f"{'speedup':>10}"
    print(header)
    for name in names:
        line = f"{name:<24}" + "".join(f"{rows[impl][name] * 1e3:>10.2f}ms" for impl in rows)
        if len(rows) == 2:
            line += f"{rows['python'][name] / rows['cython'][name]:>9.1f}x"
        print(line)

    print("\nend-to-end sweep (L1_3 exhaustive, n=4)")
    pure = bench_sweep(True)
    print(f"{'python':<24}{pure:>10.2f}s")
    if _kernels is not None:
        fast = bench_sweep(False)
        print(f"{'cython':<24}{fast:>10.2f}s{pure / fast:>9.1f}x")


if __name__ == "__main__":
    main()
