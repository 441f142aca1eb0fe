"""Golden byte digests of the CLI: exit code, stdout and stderr of a fixed
argv set in every output format, plus the written file of `--out` runs.

`test_golden.py` compares the program against `golden_digests.json`.  A
change that alters a report on purpose lists the cases whose digest differs,
without writing, with

    PYTHONPATH=src python tests/golden.py --changed

names them in CHANGES.md, and regenerates the file with

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

DIGESTS = Path(__file__).with_name("golden_digests.json")
FORMATS = ("json", "csv", "pretty")
OUT_FILE = "report.out"

# Every command, each run in all three formats.
ARGVS = [
    # decompose: the spherical node table at three sizes, q = 0 (signed
    # zeros in b) and the q = 1/3 boundary, and the four-vector method
    ["decompose", "--q", "0.2", "--nodes", "2", "3"],
    ["decompose", "--q", "0.1", "--nodes", "7", "11"],
    ["decompose", "--q", "0.2", "--nodes", "64", "128"],
    ["decompose", "--q", "0"],
    ["decompose", "--q", "0.3333333333333333", "--nodes", "3", "5"],
    ["decompose", "--q", "0.2", "--method", "wootters"],
    ["decompose", "--q", "0", "--method", "wootters"],
    # ppt: one q on each side of the threshold, and two sweeps
    ["ppt", "--q", "0.2"],
    ["ppt", "--q", "0.9"],
    ["ppt", "--sweep", "0", "1", "11"],
    ["ppt", "--sweep", "0", "1", "1001"],
    # verify: the default grid, and grids with skipped rows (the skip text
    # carries a comma that CSV replaces)
    ["verify"],
    ["verify", "--grid", "0", "1", "7"],
    ["verify", "--grid", "0", "1", "1001"],
    # verify: a grid whose every row is skipped, a descending grid, a grid
    # of 4167 tested rows, and the seed-1 argv of the verify_grid benchmark
    ["verify", "--grid", "0.5", "1", "3"],
    ["verify", "--grid", "1", "0", "1001"],
    ["verify", "--grid", "0.3", "0.34", "5001"],
    ["verify", "--grid", "0.0026872848822480245", "0.9969486747387446", "1001"],
    ["matrix", "--q", "0.2"],
    ["matrix", "--q", "1"],
    # hvsim: seeded runs, one with the axis-normalization warning on stderr
    # and one whose draws all give the same outcome
    ["hvsim", "--q", "0.2", "--samples", "10000", "--seed", "3"],
    ["hvsim", "--q", "0.1", "--l", "0", "0", "2", "--m", "1", "1", "0",
     "--samples", "5000", "--seed", "11"],
    ["hvsim", "--q", "0.2", "--samples", "2", "--seed", "0"],
    # a negative axis component in exponent form is a value, not an option
    ["hvsim", "--q", "0.2", "--samples", "100", "--l", "1", "0", "-1e-5"],
    # reports written with --out
    ["decompose", "--q", "0.1", "--nodes", "7", "11", "--out", OUT_FILE],
    ["ppt", "--sweep", "0", "1", "11", "--out", OUT_FILE],
    ["verify", "--grid", "0", "1", "7", "--out", OUT_FILE],
    # exit 2: invalid or non-finite arguments, an unwritable --out
    ["matrix", "--q", "1.5"],
    ["matrix", "--q", "nan"],
    ["ppt", "--sweep", "0", "1", "2.5"],
    ["ppt", "--sweep", "0", "nan", "3"],
    ["verify", "--grid", "0", "inf", "3"],
    ["decompose", "--q", "0.2", "--nodes", "1", "3"],
    ["hvsim", "--q", "0.2", "--samples", "1"],
    ["hvsim", "--q", "0.1", "--l", "0", "0", "0"],
    ["hvsim", "--q", "0.1", "--l", "nan", "0", "0"],
    ["hvsim", "--q", "0.2", "--samples", "1000000000000000"],
    ["hvsim", "--q", "0.2", "--samples", "1152921504606846976"],
    ["hvsim", "--q", "0.2", "--samples", "18446744073709551616"],
    ["matrix", "--q", "0.2", "--out", "missing/report.json"],
    # exit 3: an inseparable q for a separable-only operation
    ["decompose", "--q", "0.4"],
    ["decompose", "--q", "0.5", "--method", "wootters"],
    ["hvsim", "--q", "0.4", "--samples", "10"],
]

# The separability boundary: a q past 1/3 by 6.7e-11, the accepted edge
# SEPARABLE_Q_EDGE and the first double past it, each through every command
# that decides on q.
for _q in ("0.3333333334", "0.33333333333333687", "0.3333333333333369"):
    ARGVS += [
        ["ppt", "--q", _q],
        ["decompose", "--q", _q],
        ["decompose", "--q", _q, "--method", "wootters"],
        ["hvsim", "--q", _q, "--samples", "10"],
        ["verify", "--grid", _q, _q, "1"],
    ]

CASES = [argv + ["--format", fmt] for argv in ARGVS for fmt in FORMATS]


def case_id(argv: list[str]) -> str:
    return " ".join(argv)


def digest(argv: list[str]) -> str:
    """sha256 of [exit code, stdout, stderr] of one in-process run, plus the
    text of the --out file when the run names one.  Runs in a fresh
    temporary directory, so relative --out paths land there."""
    from wernerkit import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            record = [code, out.getvalue(), err.getvalue()]
            if OUT_FILE in argv:
                record.append(Path(OUT_FILE).read_text())
        finally:
            os.chdir(cwd)
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def load() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def changed() -> list[str]:
    """The ids of the cases whose digest differs from, or is missing in,
    the recorded file."""
    recorded = load()
    return [case_id(argv) for argv in CASES if recorded.get(case_id(argv)) != digest(argv)]


def write() -> None:
    digests = {case_id(argv): digest(argv) for argv in CASES}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] == ["--changed"]:
        for cid in changed():
            print(cid)
    elif sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--changed]")
    else:
        write()
