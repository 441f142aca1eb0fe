"""Command-line surface with machine-readable reports.

Every command emits a RunReport: {command, parameters, results, checks[],
seed?, tool_version}.  Each check carries name, pass, observed, expected and
tolerance.  Exit codes: 0 all checks pass, 1 a check failed, 2 invalid
argument, 3 domain error (an inseparable q was requested for a
separable-only operation).
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .decomposition import (
    MOMENT_TOL,
    SCHMIDT_TOL,
    DecompositionDomainError,
    MomentReport,
    _assemble,
    local_bloch_norm,
    local_margin,
    moment_check,
    phase_constraint_residual,
    reconstruct,
    schmidt_determinant,
    spherical_decomposition,
    wootters_decomposition,
)
from .hiddenvar import MAX_SAMPLES, HvEstimate, estimate_all
from .linalg import HERMITIAN_TOL, _hermitian_deviation
from .separability import ppt_test, werner_pt_eigenvalues_closed_form
from .states import (
    PPT_TOL,
    PositivityError,
    SEPARABLE_Q_EDGE,
    SEPARABLE_Q_MAX,
    UNIT_AXIS_TOL,
    _scaled_norm,
    werner,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# Tolerances pinned by the library's contracts.
# matrix's trace check, on werner(q) alone: its four rounded diagonal
# entries summed to 1 within 2.2e-16 (1 eps) over 1.2e6 q, and 1e-15 is 4.5 eps.
TRACE_TOL = 1e-15
EIGENVALUE_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-12
NORM_SUM_TOL = 1e-12
PHASE_TOL = 1e-13
CROSS_DECOMPOSITION_TOL = 1e-11
WEIGHT_SUM_TOL = 1e-14
SIGMA_BAND = 5.0
# The most --sweep or --grid steps: a float STEPS holds every count up to it.
MAX_GRID_STEPS = 2**53


@dataclass
class Check:
    name: str
    passed: bool
    observed: object
    expected: object
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "observed": self.observed,
            "expected": self.expected,
            "tolerance": self.tolerance,
        }


def check_equal(name: str, observed, expected) -> Check:
    return Check(name, observed == expected, observed, expected, 0.0)


def check_value(name: str, observed, expected: float, tol: float) -> Check:
    """The one rule of a numeric check: observed within tol of expected.
    observed is a value or a stack with one entry per q or row; a stack
    reports its entry farthest from expected, and a NaN entry first."""
    stack = np.asarray(observed, dtype=float)
    worst = float(stack.flat[np.argmax(np.abs(stack - expected))])
    expected = float(expected)
    return Check(name, abs(worst - expected) <= tol, worst, expected, float(tol))


def _max_abs(x, axis=None):
    """The largest magnitude in x, or along the given axes of a stack."""
    return np.max(np.abs(x), axis=axis)


@dataclass
class Nullable:
    """A column that is null where present is clear.  Where it is set, the
    column holds values: a float array with one entry per such row, in
    order, or one fixed string for every such row."""

    present: np.ndarray
    values: np.ndarray | str


class Table:
    """Report rows held as named columns: each column an array with one
    entry, shape (n,), or one vector, shape (n, k), per row, a Nullable, or a
    list of Python scalars, such as strings, with None for null.  JSON writes
    a table as a list of row objects, each vector as a list."""

    def __init__(self, **columns):
        self.columns = columns


@dataclass
class RunReport:
    command: str
    parameters: dict
    results: dict
    checks: list[Check] = field(default_factory=list)
    seed: int | None = None
    # The CSV projection: a header name per CSV field, and the columns the
    # fields come from, each an array (an (n, k) array gives k fields), a
    # Nullable or a list of scalars.
    csv_header: list[str] | None = None
    csv_columns: list | None = None
    # Lines for stderr, written only once the report is.
    warnings: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        payload["tool_version"] = __version__
        return payload


def matrix_payload(m: np.ndarray) -> np.ndarray:
    """Complex entries as [re, im] pairs along a new last axis."""
    return np.stack((m.real, m.imag), axis=-1)


# A string as JSON writes it, ASCII with escapes (json.dumps's default).
_json_str = json.encoder.encode_basestring_ascii

# Every renderer writes each float through one of two finite checks: one
# np.isfinite per array column of a table or CSV projection, or one
# math.isfinite per scalar.  A report never shows a NaN or an infinity; it
# fails with ValueError (exit 2) instead.

def _not_finite(value) -> ValueError:
    return ValueError(f"report value {value} is not finite")


def _fmt_scalar(value) -> str:
    """A scalar as JSON writes it, except that a string stays unquoted."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise _not_finite(value)
        return repr(float(value))
    if isinstance(value, str):
        return value
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def _json_scalar(value) -> str:
    """A scalar as JSON writes it."""
    return _json_str(value) if isinstance(value, str) else _fmt_scalar(value)


def _csv_scalar(value) -> str:
    """A scalar as one CSV field: text unquoted, with its commas written as
    semicolons, and None as an empty field."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value.replace(",", ";")
    return _fmt_scalar(value)


def _width(column) -> int:
    """The number of scalar columns of a column: k for an (n, k) array."""
    return column.shape[1] if isinstance(column, np.ndarray) and column.ndim == 2 else 1


def _with_nulls(present: np.ndarray, values, text) -> np.ndarray:
    """A nullable column's strings: values on the present rows, in order,
    and the format's null text on the others."""
    column = np.full(present.shape, text(None), dtype=object)
    column[present] = values
    return column


def _scalar_columns(columns, text) -> list[np.ndarray]:
    """Columns as their scalar columns, an (n, k) array giving k, each a 1-D
    object array of n strings as the format writes them.  The floats of all
    the columns take one float.__repr__ per distinct magnitude, as repr(x) ==
    "-" + repr(-x) for finite x < 0, -0.0 included; a float scalar column is
    a row view into those strings.  A list column, a Nullable's fixed string
    and a Nullable's null rows are written by the format's text."""
    scalars, floats, placed = [], [], []
    for column in columns:
        present = None
        if isinstance(column, Nullable):
            present, column = column.present, column.values
            if isinstance(column, str):
                scalars.append(_with_nulls(present, text(column), text))
                continue
            column = np.asarray(column, dtype=float)
        elif not isinstance(column, np.ndarray):
            scalars.append(np.array([text(v) for v in column], dtype=object))
            continue
        if column.ndim > 2 or column.dtype.kind not in "biuf":
            raise TypeError(f"cannot serialize a {column.dtype} column into a report")
        subs = column.T if column.ndim == 2 else column[None]
        if column.dtype == bool:
            scalars += list(np.array(["false", "true"], dtype=object)[subs.view(np.uint8)])
        elif column.dtype.kind != "f":
            scalars += list(subs.astype(str).astype(object))
        else:
            placed.append((len(scalars), present))
            floats.append(subs)
            scalars += [None] * len(subs)
    if not floats:
        return scalars
    values = np.concatenate([v.ravel() for v in floats])
    finite = np.isfinite(values)
    if not finite.all():
        raise _not_finite(values[~finite][0])
    magnitudes, inverse = np.unique(np.abs(values), return_inverse=True)
    texts = [repr(m) for m in magnitudes.tolist()]
    # every entry of one magnitude and sign, in any column, shares one string
    inverse += np.signbit(values) * len(texts)
    strings = np.array(texts + ["-" + t for t in texts], dtype=object)[inverse]
    end = 0
    for (at, present), v in zip(placed, floats):
        subs = list(strings[end : end + v.size].reshape(v.shape))
        end += v.size
        if present is not None:
            subs = [_with_nulls(present, subs[0], text)]
        scalars[at : at + len(subs)] = subs
    return scalars


_SLOT = "\0"  # a value's mark in a row template: _json_str escapes it in names


def _enclose(open_: str, parts: list[str], close: str, nl: str | None) -> str:
    """Members joined as json.dumps(indent=2) writes a container whose own
    line break and indentation is nl (None: unindented)."""
    if not parts:
        return open_ + close
    inner = nl and nl + "  "
    return open_ + (inner or "") + ("," + (inner or " ")).join(parts) + (nl or "") + close


def _rows(template: str, values: list[np.ndarray]) -> list[str]:
    """The fragments of one row per entry of the scalar columns values, each
    the template with its _SLOT marks filled in order, from one (n, 2k + 1)
    object array of the template's pieces and the columns, flattened once."""
    pieces = template.split(_SLOT)
    cells = np.empty((len(values[0]), len(pieces) + len(values)), dtype=object)
    cells[:, ::2] = np.array(pieces, dtype=object)
    for j, column in enumerate(values):
        cells[:, 2 * j + 1] = column
    return cells.ravel().tolist()


def _table_fragments(table: Table, values: list[np.ndarray], nl: str | None) -> list[str]:
    """A table as the fragments of a JSON list of row objects, from its
    scalar columns values, every row from one template built for its depth."""
    if not values or not len(values[0]):
        return ["[]"]
    row_nl = nl and nl + "  "
    field_nl = row_nl and row_nl + "  "
    fields = []
    for name, column in table.columns.items():
        slot = _SLOT
        if isinstance(column, np.ndarray) and column.ndim == 2:
            slot = _enclose("[", [_SLOT] * column.shape[1], "]", field_nl)
        fields.append(_json_str(name) + ": " + slot)
    # each row ends in the separator of a list's members; the last row's is
    # its list's closing text instead
    sep = "," + (row_nl or " ")
    rows = _rows(_enclose("{", fields, "}", row_nl) + sep, values)
    rows[0] = "[" + (row_nl or "") + rows[0]
    rows[-1] = rows[-1][: -len(sep)] + (nl or "") + "]"
    return rows


class _Fragments:
    """A report's JSON text as a list of fragments, joined once.  Every float
    it writes, in a table or not, comes from one pool: a float or a table
    holds its place in the list until `text` writes them all, and every
    table column, with one _scalar_columns call, so each distinct magnitude
    is formatted once per report."""

    def __init__(self):
        self.out = []
        self.floats = []  # the places of the floats
        self.tables = []  # (place, table, nl) of each table

    def scalar(self, value) -> None:
        """Append a scalar as _fmt_scalar writes it."""
        if isinstance(value, (float, np.floating)):
            self.floats.append(len(self.out))
            self.out.append(value)
        else:
            self.out.append(_fmt_scalar(value))

    def write(self, value, nl: str | None) -> None:
        """Append value as json.dumps(value, indent=2) writes it, placed on a
        line whose line break and indentation is nl (None: unindented)."""
        out = self.out
        if isinstance(value, str):
            out.append(_json_str(value))
        elif isinstance(value, Table):
            self.tables.append((len(out), value, nl))
            out.append(None)
        elif isinstance(value, np.ndarray):
            self.write(value.tolist(), nl)
        elif not isinstance(value, (dict, list, tuple)):
            self.scalar(value)
        elif not value:
            out.append("{}" if isinstance(value, dict) else "[]")
        else:
            keyed = isinstance(value, dict)
            inner = nl and nl + "  "
            sep = ("{" if keyed else "[") + (inner or "")
            for member in value.items() if keyed else value:
                if keyed:
                    sep, member = sep + _json_str(member[0]) + ": ", member[1]
                out.append(sep)
                self.write(member, inner)
                sep = "," + (inner or " ")
            out.append((nl or "") + ("}" if keyed else "]"))

    def text(self) -> str:
        out = self.out
        loose = np.array([out[i] for i in self.floats], dtype=float)
        columns = [c for _, table, _ in self.tables for c in table.columns.values()]
        values = _scalar_columns(columns + [loose], _json_scalar)
        for i, string in zip(self.floats, values.pop()):
            out[i] = string
        # each table replaces its place, the last first so that the places
        # before it stay put.  Copying the fragments into a second list
        # instead made a 64 x 128 decompose op map about 1700 fresh pages,
        # not 25, beside another program's ops in one process
        end = len(values)
        for at, table, nl in reversed(self.tables):
            start = end - sum(map(_width, table.columns.values()))
            out[at : at + 1] = _table_fragments(table, values[start:end], nl)
            end = start
        return "".join(out)


def emit_json(report: RunReport) -> str:
    fragments = _Fragments()
    fragments.write(report.to_dict(), "\n")
    fragments.out.append("\n")
    return fragments.text()


def emit_csv(report: RunReport) -> str:
    if report.csv_header is None or report.csv_columns is None:
        raise ValueError(f"command {report.command!r} has no CSV projection")
    values = _scalar_columns(report.csv_columns, _csv_scalar)
    out = [",".join(report.csv_header) + "\n"]
    if values and len(values[0]):
        out += _rows(",".join([_SLOT] * len(values)) + "\n", values)
    return "".join(out)


def emit_pretty(report: RunReport) -> str:
    fragments = _Fragments()
    out = fragments.out
    out.append(f"command: {report.command}\n")
    if report.seed is not None:
        out.append(f"seed: {report.seed}\n")
    out.append("parameters: ")
    fragments.write(report.parameters, None)
    out.append("\nresults:\n  ")
    fragments.write(report.results, "\n  ")
    out.append("\n")
    if report.checks:
        out.append("checks:\n")
        for c in report.checks:
            out.append(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}: observed=")
            fragments.scalar(c.observed)
            out.append(" expected=")
            fragments.scalar(c.expected)
            out.append(" tolerance=")
            fragments.scalar(c.tolerance)
            out.append("\n")
    out.append(f"tool_version: {__version__}\n")
    return fragments.text()


_RENDERERS = {"json": emit_json, "csv": emit_csv, "pretty": emit_pretty}


def _normalized_axis(values, flag: str) -> tuple[np.ndarray, list[str]]:
    """The unit axis of a --l or --m value, and its warning if it was not one."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"axis {flag} must be finite, got {v.tolist()}")
    if not v.any():
        raise ValueError(f"axis {flag} must be nonzero")
    # a subnormal axis is normalized from its rescaled entries, which keep
    # their digits
    scale, norm = _scaled_norm(v)
    if abs(norm * scale - 1.0) > UNIT_AXIS_TOL:
        normalized = v / scale / norm
        return normalized, [
            f"warning: axis {flag} has norm {norm * scale}; normalized to "
            f"[{', '.join(repr(float(x)) for x in normalized)}]"
        ]
    return v, []


def cmd_matrix(args) -> RunReport:
    rho = werner(args.q)
    entries = matrix_payload(rho)
    index = np.arange(4)
    return RunReport(
        command="matrix",
        parameters={"q": args.q},
        results={"q": args.q, "matrix": entries},
        checks=[
            check_value("trace_one", abs(complex(np.trace(rho)) - 1.0), 0.0, TRACE_TOL),
            check_value("hermitian", _hermitian_deviation(rho), 0.0, HERMITIAN_TOL),
        ],
        csv_header=["row", "col", "re", "im"],
        csv_columns=[np.repeat(index, 4), np.tile(index, 4), entries.reshape(16, 2)],
    )


def _ppt_table(q: np.ndarray, rho: np.ndarray) -> Table:
    """The ppt report rows of a q grid, from the stack rho = werner(q): one
    PT test and one closed form over the whole grid."""
    verdict = ppt_test(rho)
    closed = werner_pt_eigenvalues_closed_form(q)
    return Table(
        q=q,
        eigenvalues=verdict.eigenvalues,
        closed_form=closed,
        min_eigenvalue=verdict.min_eigenvalue,
        separable=verdict.separable,
        closed_form_deviation=np.max(np.abs(verdict.eigenvalues - closed), axis=-1),
        expected_separable=q <= SEPARABLE_Q_EDGE,
        tol=np.full(q.shape, verdict.tol),
    )


def _ppt_checks(ppt: dict, prefix: str = "") -> list[Check]:
    """The checks of a ppt table's columns over its whole grid."""
    deviation, match = ppt["closed_form_deviation"], ppt["separable"] == ppt["expected_separable"]
    return [
        check_value(prefix + "eigenvalues_match_closed_form", deviation, 0.0, EIGENVALUE_TOL),
        check_equal(prefix + "verdict_matches_closed_form", bool(np.all(match)), True),
    ]


def _q_grid(q_min: float, q_max: float, steps: float, kind: str) -> tuple[np.ndarray, int]:
    """The inclusive linear q grid of --sweep or --grid, and its whole
    number of steps."""
    if not float(steps).is_integer():
        raise ValueError(f"{kind} steps must be a whole number, got {steps}")
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"{kind} steps must be >= 1, got {steps}")
    if steps > MAX_GRID_STEPS:
        raise ValueError(f"{kind} steps must be <= {MAX_GRID_STEPS}, got {steps}")
    for name, value in (("Q_MIN", q_min), ("Q_MAX", q_max)):
        if not math.isfinite(value):
            raise ValueError(f"{kind} {name} must be finite, got {value}")
    if steps == 1 and q_min != q_max:  # linspace's one point is Q_MIN
        raise ValueError(f"{kind} of 1 step needs Q_MIN = Q_MAX, got {q_min} and {q_max}")
    return np.linspace(q_min, q_max, steps), steps


def cmd_ppt(args) -> RunReport:
    if args.sweep is not None:
        q_min, q_max, steps = args.sweep
        q, steps = _q_grid(q_min, q_max, steps, "sweep")
        parameters = {"sweep": {"q_min": q_min, "q_max": q_max, "steps": steps}}
    else:
        q = np.array([args.q])
        parameters = {"q": args.q}

    table = _ppt_table(q, werner(q))
    c = table.columns
    return RunReport(
        command="ppt",
        parameters=parameters,
        results={"rows": table} if args.sweep is not None else {k: v[0] for k, v in c.items()},
        checks=_ppt_checks(c),
        csv_header=["q", "lambda_1", "lambda_2", "lambda_3", "lambda_4", "separable"],
        csv_columns=[q, c["eigenvalues"], c["separable"]],
    )


# Each decomposition's checks, name -> (expected, tolerance).  A check
# builder gives each one's observed value per q.
_SPHERICAL_CHECKS = {
    "reconstruction_error": (0.0, RECONSTRUCTION_TOL),
    "weight_sum_deviation": (0.0, WEIGHT_SUM_TOL),
    "first_moment_a": (0.0, MOMENT_TOL),
    "first_moment_b": (0.0, MOMENT_TOL),
    "second_moment_deviation": (0.0, MOMENT_TOL),
    "anti_alignment": (0.0, 0.0),
}
_WOOTTERS_CHECKS = {
    "reconstruction_error": (0.0, RECONSTRUCTION_TOL),
    "schmidt_determinant_max": (0.0, SCHMIDT_TOL),
    "phase_constraint_residual": (0.0, PHASE_TOL),
    "norm_squared_sum": (1.0, NORM_SUM_TOL),
}


def _spherical_checks(dec, target: np.ndarray) -> tuple[np.ndarray, MomentReport, dict]:
    """The reconstructions of a spherical decomposition of a stack of q, its
    moment report, and each check's observed value, each with one entry per
    q.  target is the stack of Werner matrices."""
    moments = moment_check(dec)
    recon = _assemble(dec, moments.matrix)
    second_dev = moments.second_moment + dec.q[:, None, None] * np.eye(3)
    observed = {
        "reconstruction_error": _max_abs(recon - target, (-2, -1)),
        "weight_sum_deviation": np.full(dec.q.shape, abs(math.fsum(dec.weights.tolist()) - 1.0)),
        "first_moment_a": _max_abs(moments.first_moment_a, -1),
        "first_moment_b": _max_abs(moments.first_moment_b, -1),
        "second_moment_deviation": _max_abs(second_dev, (-2, -1)),
        "anti_alignment": _max_abs(dec.a + dec.b, (-2, -1)),
    }
    return recon, moments, observed


def _wootters_checks(dec, target: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """The reconstructions of a four-vector decomposition of a stack of q, its
    Schmidt determinants' magnitudes, and each check's observed value, each
    with one entry per q.  target is the stack of Werner matrices."""
    recon = reconstruct(dec)
    z = np.stack(dec.z, axis=-2)
    det = schmidt_determinant(z)
    # np.hypot and the batched dot round as abs() of a complex scalar and
    # np.vdot of each vector do
    dets = np.hypot(det.real, det.imag)
    norms = np.matmul(z.conj()[..., None, :], z[..., :, None])[..., 0, 0].real
    residual = phase_constraint_residual(dec.thetas, dec.q)
    observed = {
        "reconstruction_error": _max_abs(recon - target, (-2, -1)),
        "schmidt_determinant_max": np.max(dets, axis=-1),
        "phase_constraint_residual": residual,
        "norm_squared_sum": sum(norms.T),  # added in vector order
    }
    return recon, dets, observed


def _checks(observed: dict, specs: dict) -> list[Check]:
    """A decomposition's checks over its whole stack of q."""
    return [check_value(name, observed[name], *spec) for name, spec in specs.items()]


def _spherical_report(q: float, n_theta: int, n_phi: int) -> RunReport:
    dec = spherical_decomposition(np.array([q]), n_theta, n_phi)
    _, moments, observed = _spherical_checks(dec, werner(dec.q))
    nodes = Table(
        theta=dec.nodes[:, 0], phi=dec.nodes[:, 1], weight=dec.weights, a=dec.a[0], b=dec.b[0]
    )
    fields = ("first_moment_a", "first_moment_b", "second_moment", "f_second_moment")
    return RunReport(
        command="decompose",
        parameters={"q": q, "method": "spherical", "n_theta": n_theta, "n_phi": n_phi},
        results={
            "q": q, "bloch_norm": local_bloch_norm(q), "nodes": nodes,
            "reconstruction_max_error": observed["reconstruction_error"][0],
            "moments": {k: getattr(moments, k)[0] for k in fields},
        },
        checks=_checks(observed, _SPHERICAL_CHECKS),
        csv_header=["theta", "phi", "weight", "a_x", "a_y", "a_z", "b_x", "b_y", "b_z"],
        csv_columns=list(nodes.columns.values()),
    )


def _wootters_report(q: float) -> RunReport:
    dec = wootters_decomposition(np.array([q]))
    _, dets, observed = _wootters_checks(dec, werner(dec.q))
    thetas = [float(t[0]) for t in dec.thetas]
    z = matrix_payload(np.stack([v[0] for v in dec.z]))
    return RunReport(
        command="decompose",
        parameters={"q": q, "method": "wootters"},
        results={
            "q": q, "thetas": thetas, "z_vectors": z,
            "reconstruction_max_error": observed["reconstruction_error"][0],
            "schmidt_abs_determinants": dets[0],
            "phase_constraint_residual": observed["phase_constraint_residual"][0],
            "norm_squared_sum": observed["norm_squared_sum"][0],
        },
        checks=_checks(observed, _WOOTTERS_CHECKS),
        csv_header=["vector", "theta"]
        + [f"c{i}_{part}" for i in range(4) for part in ("re", "im")],
        csv_columns=[np.arange(1, 5), thetas, z.reshape(4, 8)],
    )


def cmd_decompose(args) -> RunReport:
    n_theta, n_phi = (int(x) for x in args.nodes)
    if args.method == "spherical":
        return _spherical_report(args.q, n_theta, n_phi)
    return _wootters_report(args.q)


def _sigma_band(est: HvEstimate) -> float:
    """The 5-sigma tolerance of a +/-1 estimate.  A run whose draws all gave
    the same outcome has standard error 0; its band uses 1/sqrt(n - 1), the
    largest standard error n +/-1 outcomes can show, so it never has zero
    width."""
    std_error = est.std_error or 1.0 / math.sqrt(est.n_samples - 1)
    return SIGMA_BAND * std_error


def cmd_hvsim(args) -> RunReport:
    # One draw has no sample standard deviation (n - 1 = 0), so the 5-sigma
    # checks are undefined.
    if args.samples < 2:
        raise ValueError(f"--samples must be >= 2, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be <= {MAX_SAMPLES}, got {args.samples}")
    axis_a, warnings_a = _normalized_axis(args.l, "--l")
    axis_b, warnings_b = _normalized_axis(args.m, "--m")
    est = estimate_all(args.q, axis_a, axis_b, args.samples, args.seed)
    corr, marg_a, marg_b = est.correlation, est.marginal_a, est.marginal_b
    analytic = -args.q * float(np.dot(axis_a, axis_b))

    return RunReport(
        command="hvsim",
        parameters={
            "q": args.q,
            "l": axis_a.tolist(),
            "m": axis_b.tolist(),
            "samples": args.samples,
        },
        results={
            "correlation": {"mean": corr.mean, "std_error": corr.std_error},
            "analytic": analytic,
            "marginal_a": {"mean": marg_a.mean, "std_error": marg_a.std_error},
            "marginal_b": {"mean": marg_b.mean, "std_error": marg_b.std_error},
            "n_samples": args.samples,
        },
        checks=[
            check_value("correlation_within_5_sigma", corr.mean, analytic, _sigma_band(corr)),
            check_value("marginal_a_within_5_sigma", marg_a.mean, 0.0, _sigma_band(marg_a)),
            check_value("marginal_b_within_5_sigma", marg_b.mean, 0.0, _sigma_band(marg_b)),
        ],
        seed=args.seed,
        warnings=warnings_a + warnings_b,
        csv_header=["q", "l_x", "l_y", "l_z", "m_x", "m_y", "m_z", "n_samples", "seed",
                    "mean", "std_error", "analytic"],
        csv_columns=[
            [value]
            for value in (args.q, *axis_a.tolist(), *axis_b.tolist(), args.samples,
                          args.seed, corr.mean, corr.std_error, analytic)
        ],
    )


# Each verify row's decomposition deviations, and the check over the grid
# that takes their maximum.
_VERIFY_CHECKS = {
    "spherical_error": ("spherical_reconstruction", RECONSTRUCTION_TOL),
    "wootters_error": ("wootters_reconstruction", RECONSTRUCTION_TOL),
    "cross_error": ("cross_decomposition_agreement", CROSS_DECOMPOSITION_TOL),
    "moment_deviation": ("moment_conditions", MOMENT_TOL),
    "schmidt_max": ("schmidt_determinants", SCHMIDT_TOL),
    "phase_residual": ("phase_constraint_residuals", PHASE_TOL),
}


# The skipped field of a verify row past SEPARABLE_Q_EDGE; its local_margin
# gives the number.
SKIP_REASON = "decomposition checks skipped: q > 1/3 (local_margin < 0)"


def _verify_rows(q: np.ndarray, rho: np.ndarray) -> tuple[Table, Table, list[Check]]:
    """The verify report rows of a q grid, from the stack rho = werner(q),
    the skipped rows' q and local margins, and the checks over the grid.

    Each row holds its ppt row's PT fields, the smallest eigenvalue of the
    local states (local_margin), then the deviations of both decompositions
    of W(q).  The tested q, those <= SEPARABLE_Q_EDGE, are decomposed and
    checked in one pass; on the other rows the deviations are null and
    skipped is SKIP_REASON.  The local states' positivity, margin >=
    -PPT_TOL, must give the PT verdict on every row.  No q tested gives only
    the PT and local checks."""
    ppt = _ppt_table(q, rho).columns
    tested = ppt["expected_separable"]
    margin = local_margin(q)
    deviations = {}
    if tested.any():
        recon_s, _, s = _spherical_checks(spherical_decomposition(q[tested]), rho[tested])
        recon_w, _, w = _wootters_checks(wootters_decomposition(q[tested]), rho[tested])
        deviations = {
            "spherical_error": s["reconstruction_error"],
            "wootters_error": w["reconstruction_error"],
            "cross_error": _max_abs(recon_s - recon_w, (-2, -1)),
            "moment_deviation": np.maximum(
                np.maximum(s["first_moment_a"], s["first_moment_b"]),
                s["second_moment_deviation"],
            ),
            "schmidt_max": w["schmidt_determinant_max"],
            "phase_residual": w["phase_constraint_residual"],
        }
    rows = Table(
        q=q,
        ppt_deviation=ppt["closed_form_deviation"],
        separable=ppt["separable"],
        verdict_matches=ppt["separable"] == ppt["expected_separable"],
        local_margin=margin,
        **{key: Nullable(tested, deviations.get(key, ())) for key in _VERIFY_CHECKS},
        skipped=Nullable(~tested, SKIP_REASON),
    )
    local_matches = (margin >= -PPT_TOL) == ppt["separable"]
    local = check_equal("local_positivity_matches_ppt", bool(np.all(local_matches)), True)
    checks = _ppt_checks(ppt, "ppt_") + [local] + [
        check_value(name, deviations[key], 0.0, tol)
        for key, (name, tol) in _VERIFY_CHECKS.items()
        if deviations
    ]
    return rows, Table(q=q[~tested], local_margin=margin[~tested]), checks


def cmd_verify(args) -> RunReport:
    if args.grid is not None:
        q_min, q_max, steps = args.grid
        default_grid = False
    else:
        q_min, q_max, steps = 0.0, SEPARABLE_Q_MAX, 21
        default_grid = True
    q, steps = _q_grid(q_min, q_max, steps, "grid")
    rows, skipped, checks = _verify_rows(q, werner(q))

    parameters = {
        "grid": {"q_min": q_min, "q_max": q_max, "steps": steps},
    }
    if default_grid:
        # default endpoint is the double nearest 1/3
        parameters["grid"]["q_max_ratio"] = "1/3"

    csv_header = ["q", "ppt_deviation", "separable", "local_margin", *_VERIFY_CHECKS, "skipped"]
    return RunReport(
        command="verify",
        parameters=parameters,
        results={"rows": rows, "skipped": skipped},
        checks=checks,
        csv_header=csv_header,
        csv_columns=[rows.columns[name] for name in csv_header],
    )


def _stderr(line: str) -> None:
    """Write one line on stderr, or nothing where stderr is closed: None, as
    the interpreter sets it when fd 2 is closed at start (print would then
    write to stdout), or a stream whose write fails.  A lost diagnostic
    changes neither the report nor the exit code."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(line + "\n")
        sys.stderr.flush()
    except OSError:
        pass


def _error(message) -> None:
    """Write the one stderr line of a run that exits 2 or 3."""
    _stderr("error: " + " ".join(str(message).splitlines()))


class _Parser(argparse.ArgumentParser):
    """A number in any float() syntax, such as -1e-5 or -inf, is a value,
    never an option; an error is one line and exit 2."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

    def error(self, message):
        _error(message)
        self.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wernerkit",
        description=(
            "Werner state toolkit: matrix construction, partial-transpose "
            "separability, product-state decompositions, and a hidden "
            "variable Monte Carlo simulation"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--format", choices=("json", "csv", "pretty"), default="json",
            help="output format (default: json)",
        )
        p.add_argument("--out", default=None, help="write the report to FILE instead of stdout")

    p_matrix = sub.add_parser("matrix", help="emit the 4x4 Werner matrix")
    p_matrix.add_argument("--q", type=float, required=True, help="mixing parameter in [0, 1]")
    add_common(p_matrix)
    p_matrix.set_defaults(handler=cmd_matrix)

    p_ppt = sub.add_parser("ppt", help="partial-transpose separability test")
    group = p_ppt.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=float, help="single mixing parameter")
    group.add_argument(
        "--sweep", nargs=3, type=float, metavar=("Q_MIN", "Q_MAX", "STEPS"),
        help="evaluate an inclusive linear grid of q values",
    )
    add_common(p_ppt)
    p_ppt.set_defaults(handler=cmd_ppt)

    p_dec = sub.add_parser("decompose", help="explicit product-state decomposition")
    p_dec.add_argument("--q", type=float, required=True)
    p_dec.add_argument(
        "--method", choices=("spherical", "wootters"), default="spherical",
    )
    p_dec.add_argument(
        "--nodes", nargs=2, type=int, default=(4, 8), metavar=("N_THETA", "N_PHI"),
        help="quadrature node counts for the spherical method (default: 4 8)",
    )
    add_common(p_dec)
    p_dec.set_defaults(handler=cmd_decompose)

    p_hv = sub.add_parser("hvsim", help="hidden variable Monte Carlo simulation")
    p_hv.add_argument("--q", type=float, required=True)
    p_hv.add_argument("--l", nargs=3, type=float, default=(0.0, 0.0, 1.0), metavar=("X", "Y", "Z"))
    p_hv.add_argument("--m", nargs=3, type=float, default=(0.0, 0.0, 1.0), metavar=("X", "Y", "Z"))
    p_hv.add_argument("--samples", type=int, default=1_000_000)
    p_hv.add_argument("--seed", type=int, default=0)
    add_common(p_hv)
    p_hv.set_defaults(handler=cmd_hvsim)

    p_ver = sub.add_parser("verify", help="run the full invariant suite over a q grid")
    p_ver.add_argument(
        "--grid", nargs=3, type=float, metavar=("Q_MIN", "Q_MAX", "STEPS"),
        help="grid specification (default: 0 to 1/3 in 21 steps)",
    )
    add_common(p_ver)
    p_ver.set_defaults(handler=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on main's first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.handler(args)
        text = _RENDERERS[args.format](report)
    except DecompositionDomainError as err:
        _error(err)
        return EXIT_DOMAIN
    except (PositivityError, ValueError) as err:
        _error(err)
        return EXIT_USAGE
    except MemoryError:
        _error(f"the {args.command} report needs more memory than can be allocated")
        return EXIT_USAGE

    if args.out is not None:
        try:
            # the path as given: a trailing slash names a directory
            with open(args.out, "w") as out:
                out.write(text)
        except OSError as err:
            _error(f"cannot write report to {args.out}: {err.strerror}")
            return EXIT_USAGE
    for line in report.warnings:
        _stderr(line)
    if args.out is None:
        # a failed flush drops its bytes, so the interpreter's own flush at
        # exit adds no second message
        try:
            if sys.stdout is None:  # fd 1 was closed at start
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as err:
            _error(f"cannot write report to stdout: {err.strerror}")
            return EXIT_USAGE
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
