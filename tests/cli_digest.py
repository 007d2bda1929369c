"""One sha256 over the CLI output of every claim's sweeps, to show that a
change leaves every payload byte-identical.

Run it from the root of a checkout, at the parent commit and at the
change, and compare the two lines it prints:

    python3 tests/cli_digest.py

It imports hullflow from the checkout's `src` and calls
`hullflow.cli.main` in this process for 144 rows: every claim, in the
order of `TheoremId`, under the full and then the nonempty convention,
swept exhaustively at n=1, 2 and 3 and at random at n=4 (300 samples,
seed 7), every counterexample kept.  A row's sha256 is taken over
`code\\0stdout\\0stderr`; the digest is the sha256 of the rows' hex
sha256s joined by newlines.  pytest does not collect this file;
`tests/test_payload_hashes.py::test_cli_digest` imports it and pins the
digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hullflow.cli import main  # noqa: E402
from hullflow.verify import TheoremId  # noqa: E402

#: The sweeps of each claim and convention, as the CLI arguments after
#: `--n`: exhaustive at n=1..3, then random at n=4.
SWEEPS = (
    ["1", "--exhaustive"],
    ["2", "--exhaustive"],
    ["3", "--exhaustive"],
    ["4", "--samples", "300", "--seed", "7"],
)

#: Larger than any sweep's failure count, so every counterexample is kept.
KEEP_ALL = "1000000"


def row(argv: list[str]) -> str:
    """The hex sha256 of one CLI call's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def digest() -> str:
    rows = [
        row(["--convention", conv, "sweep", theorem.value, "--n", *sweep,
             "--max-counterexamples", KEEP_ALL])
        for theorem in TheoremId
        for conv in ("full", "nonempty")
        for sweep in SWEEPS
    ]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


if __name__ == "__main__":
    print(digest())
