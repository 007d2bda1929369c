"""The benchmark's workloads: fixed lists of `hullflow sweep` invocations.

Each sweep is described by the CLI argv that runs it; the seed given to the
benchmark reaches only the random sweeps.  Claims and sizes are fixed; the
random sample count is chosen so that one round of every workload takes a
few seconds on a 2-core machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Cap on witnesses per payload; every returned witness is re-checked.
MAX_COUNTEREXAMPLES = 32

#: Random samples in the `L3_1` n=8 sweep of `closure-sweeps`.
L3_1_SAMPLES = 500

#: Seed of the random sweeps when none is given.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Sweep:
    theorem: str
    n: int
    samples: Optional[int] = None  # None: exhaustive
    jobs: int = 1

    @property
    def label(self) -> str:
        space = "exhaustive" if self.samples is None else f"random {self.samples}"
        jobs = f" --jobs {self.jobs}" if self.jobs > 1 else ""
        return f"{self.theorem} n={self.n} {space}{jobs}"

    def argv(self, seed: int) -> list[str]:
        out = ["sweep", self.theorem, "--n", str(self.n)]
        if self.samples is None:
            out.append("--exhaustive")
        else:
            out += ["--samples", str(self.samples), "--seed", str(seed)]
        out += ["--max-counterexamples", str(MAX_COUNTEREXAMPLES)]
        if self.jobs > 1:
            out += ["--jobs", str(self.jobs)]
        return out

    def serial(self) -> "Sweep":
        return Sweep(self.theorem, self.n, self.samples, 1)


WORKLOADS: dict[str, tuple[Sweep, ...]] = {
    # Group generation in dynsys dominates; orbit saturation must show here.
    "group-sweeps": (
        Sweep("L1_3", 4),
        Sweep("K3_9", 3),
        Sweep("CHAIN_karrenk", 3),
    ),
    # Closure tables, enumeration and Cantor memberships; no group is built.
    "closure-sweeps": (
        Sweep("IDEM_ydwed", 4),
        Sweep("L3_1", 8, samples=L3_1_SAMPLES),
        Sweep("S3_8_all", 3),
    ),
    # The parallel path: cheap instances (IDEM) where shipping dominates,
    # costly ones (L1_3) where the workers' own work dominates.
    "parallel-sweeps": (
        Sweep("IDEM_ydwed", 4, jobs=2),
        Sweep("L1_3", 4, jobs=2),
    ),
}
