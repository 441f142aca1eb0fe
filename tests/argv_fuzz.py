"""A hypothesis fuzz of `wernerkit.cli.main(argv)` over every subcommand and
all three formats, with numbers that are finite, non-finite, huge, negative
and in exponent form.

Every argv must either exit 0 or 1, with `--format json` output that
`json.loads` accepts with NaN and Infinity refused, or exit 2 or 3 (a
SystemExit code counts) with no stdout and exactly one stderr line that
starts `error: `.  Exit 1 is a failure for `matrix`, `ppt` and `verify`,
whose checks are all deterministic.  No other exception may escape.  The
examples are drawn deterministically and the sizes are bounded, so a run
takes a few seconds:

    PYTHONPATH=src python tests/argv_fuzz.py

`test_cli.py::TestArgvFuzz` runs it in one child process under an
address-space limit, so that an unallocatable size fails fast.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wernerkit.cli import main
from wernerkit.states import SEPARABLE_Q_EDGE

EXAMPLES = 400
OUT_FILE = "report.out"

# Spellings float() and int() may or may not take, past the float range and
# at its ends, and the q at the separability edge, the double past it and the
# double nearest 1/3.
_SPECIAL = [
    "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-Infinity", "1e400", "-1e400",
    "1e-320", "-1e-320", "0", "-0", "-0.0", "1e308", "-1e308", "1_000", "0x10", "abc", "",
    repr(SEPARABLE_Q_EDGE), repr(math.nextafter(SEPARABLE_Q_EDGE, 1.0)), "0.3333333333333333",
]

# The commands whose checks are all deterministic: a failed check there is a
# fault of the program, not a draw outside its band.
_DETERMINISTIC = {"matrix", "ppt", "verify"}

_FINITE = st.floats(-2.0, 2.0) | st.floats(allow_nan=False, allow_infinity=False)
_NUMBER = _FINITE.flatmap(
    lambda x: st.sampled_from([repr(x), f"{x:e}", f"{x:.3E}", f"{x:.0e}"])
) | st.sampled_from(_SPECIAL)

# Counts: grid steps, node counts, samples and seeds.  Small ones run; the
# huge ones cannot be allocated, or are refused before any allocation.
_SMALL = st.integers(-3, 12)
_COUNT = (
    _SMALL.map(str)
    | _SMALL.map(lambda n: f"{n}.0")
    | _SMALL.map(lambda n: f"{n:e}")
    | st.sampled_from(["2.5", "nan", "-inf", "1e12", "1000000000000000", "18446744073709551616"])
)
_SAMPLES = st.integers(-1, 3000).map(str) | _COUNT
_SEED = st.integers(-2, 2**64).map(str) | _COUNT


def _option(flag: str, *values) -> st.SearchStrategy[list[str]]:
    """flag and its values, or nothing."""
    return st.just([]) | st.tuples(*values).map(lambda v: [flag, *v])


_COMMANDS = {
    "matrix": [_option("--q", _NUMBER)],
    "ppt": [_option("--q", _NUMBER), _option("--sweep", _NUMBER, _NUMBER, _COUNT)],
    "decompose": [
        _option("--q", _NUMBER),
        _option("--method", st.sampled_from(["spherical", "wootters", "other"])),
        _option("--nodes", _COUNT, _COUNT) | st.just(["--nodes", "100000", "100000"]),
    ],
    "hvsim": [
        _option("--q", _NUMBER),
        _option("--l", _NUMBER, _NUMBER, _NUMBER),
        _option("--m", _NUMBER, _NUMBER, _NUMBER),
        _option("--samples", _SAMPLES),
        _option("--seed", _SEED),
    ],
    "verify": [_option("--grid", _NUMBER, _NUMBER, _COUNT)],
}


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for option in _COMMANDS[command]:
        argv += draw(option)
    argv += draw(_option("--format", st.sampled_from(["json", "csv", "pretty", "xml"])))
    argv += draw(_option("--out", st.sampled_from([OUT_FILE, "missing/report.out"])))
    # now and then a stray token, such as a number an option cannot take
    argv += draw(st.lists(_NUMBER, max_size=1))
    return argv


def _refuse(constant: str):
    raise ValueError(f"{constant} in a JSON report")


def outcome(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check(argv: list[str]) -> None:
    """The fuzz property for one argv; runs in a directory of its own, so a
    written --out file is this run's."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            code, out, err = outcome(argv)
            text = open(OUT_FILE).read() if code in (0, 1) and OUT_FILE in argv else out
        finally:
            os.chdir(cwd)
    if code in (0, 1):
        assert code == 0 or argv[0] not in _DETERMINISTIC, (argv, text)
        if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
            json.loads(text, parse_constant=_refuse)
    else:
        assert code in (2, 3), (code, err)
        assert out == "", out
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


# A node count leggauss cannot take, with a valid --q, so that the count
# reaches the quadrature's own check; the drawn counts never pair with one.
@example(["decompose", "--q", "0.2", "--nodes", "18446744073709551616", "3"])
# Node counts given to the four-vector method, which takes none.
@example(["decompose", "--q", "0.2", "--method", "wootters", "--nodes", "4", "8"])
@settings(
    max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
    suppress_health_check=list(HealthCheck),
)
@given(argvs())
def fuzz(argv: list[str]) -> None:
    check(argv)


if __name__ == "__main__":
    fuzz()
    print(f"{EXAMPLES} argv checked")
