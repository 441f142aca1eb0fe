"""Independent checks of each workload's CLI output.

Each checker takes the argv, the exit code and the captured stdout of one
`wernerkit.cli.main` call and raises CheckFailed on the first defect.  They
recompute what they compare against from the argv with plain numpy and never
call wernerkit.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-12
STD_ERROR_REL_TOL = 0.01
PPT_CSV_HEADER = "q,lambda_1,lambda_2,lambda_3,lambda_4,separable"

_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _reject_constant(token: str):
    raise CheckFailed(f"non-finite JSON token {token}")


def parse_report(code: int, text: str, command: str) -> dict:
    """Exit code 0, strict JSON (no NaN/Infinity) and every report check passing."""
    require(code == 0, f"exit code {code}")
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise CheckFailed(f"report is not JSON: {err}") from None
    require(report.get("command") == command, f"command is {report.get('command')!r}")
    failing = [c["name"] for c in report["checks"] if c["pass"] is not True]
    require(not failing, f"report checks failed: {failing}")
    return report


def _flag(argv: list[str], flag: str, n: int = 1) -> list[str]:
    i = argv.index(flag)
    return argv[i + 1 : i + 1 + n]


def _grid(argv: list[str], flag: str) -> tuple[np.ndarray, int]:
    q_min, q_max, steps = _flag(argv, flag, 3)
    return np.linspace(float(q_min), float(q_max), int(steps)), int(steps)


def werner(q: float) -> np.ndarray:
    return q * np.outer(_PSI_MINUS, _PSI_MINUS) + (1.0 - q) / 4.0 * np.eye(4)


def check_hvsim(argv: list[str], code: int, text: str) -> None:
    report = parse_report(code, text, "hvsim")
    q = float(_flag(argv, "--q")[0])
    l = [float(x) for x in _flag(argv, "--l", 3)]
    m = [float(x) for x in _flag(argv, "--m", 3)]
    n = int(_flag(argv, "--samples")[0])
    res = report["results"]
    require(report["seed"] == int(_flag(argv, "--seed")[0]), "seed not echoed")
    require(res["n_samples"] == n, f"n_samples {res['n_samples']} != {n}")
    analytic = -q * sum(x * y for x, y in zip(l, m))
    require(abs(res["analytic"] - analytic) <= TOL, f"analytic {res['analytic']} != {analytic}")
    for key in ("correlation", "marginal_a", "marginal_b"):
        mean, se = res[key]["mean"], res[key]["std_error"]
        require(-1.0 <= mean <= 1.0, f"{key} mean {mean} outside [-1, 1]")
        bernoulli = math.sqrt((1.0 - mean * mean) / n)
        require(
            abs(se - bernoulli) <= STD_ERROR_REL_TOL * bernoulli,
            f"{key} std_error {se} vs Bernoulli {bernoulli}",
        )


def check_ppt_sweep(argv: list[str], code: int, text: str) -> None:
    require(code == 0, f"exit code {code}")
    qs, steps = _grid(argv, "--sweep")
    lines = text.split("\n")
    require(lines[-1] == "", "CSV does not end with a newline")
    require(lines[0] == PPT_CSV_HEADER, f"CSV header {lines[0]!r}")
    rows = lines[1:-1]
    require(len(rows) == steps, f"{len(rows)} CSV rows, expected {steps}")
    for q_expected, row in zip(qs, rows):
        fields = row.split(",")
        require(len(fields) == 6, f"row {row!r} has {len(fields)} fields")
        values = [float(x) for x in fields[:5]]
        require(all(math.isfinite(v) for v in values), f"non-finite value in row {row!r}")
        q, eigs = values[0], values[1:]
        require(q == q_expected, f"q {q} is not the grid value {q_expected}")
        closed = sorted([(1.0 - 3.0 * q) / 4.0] + [(1.0 + q) / 4.0] * 3)
        dev = max(abs(a - b) for a, b in zip(eigs, closed))
        require(dev <= TOL, f"q = {q}: eigenvalues deviate from closed form by {dev}")
        require(fields[5] in ("true", "false"), f"verdict {fields[5]!r}")
        require((fields[5] == "true") == (q <= 1.0 / 3.0), f"q = {q}: verdict {fields[5]}")


def check_verify_grid(argv: list[str], code: int, text: str) -> None:
    report = parse_report(code, text, "verify")
    qs, steps = _grid(argv, "--grid")
    rows = report["results"]["rows"]
    require(len(rows) == steps, f"{len(rows)} rows, expected {steps}")
    n_over = 0
    for q_expected, row in zip(qs, rows):
        q = row["q"]
        require(q == q_expected, f"q {q} is not the grid value {q_expected}")
        over = q > 1.0 / 3.0
        n_over += over
        require((row["skipped"] is not None) == over, f"q = {q}: skip path is {row['skipped']!r}")
        if not over:
            require(row["spherical_error"] <= TOL and row["wootters_error"] <= TOL,
                    f"q = {q}: reconstruction errors {row['spherical_error']}, {row['wootters_error']}")
    require(len(report["results"]["skipped"]) == n_over, "skipped list does not match the rows")


def check_decompose_dense(argv: list[str], code: int, text: str) -> None:
    report = parse_report(code, text, "decompose")
    q = float(_flag(argv, "--q")[0])
    n_theta, n_phi = (int(x) for x in _flag(argv, "--nodes", 2))
    nodes = report["results"]["nodes"]
    require(len(nodes) == n_theta * n_phi, f"{len(nodes)} nodes, expected {n_theta * n_phi}")
    w = np.array([n["weight"] for n in nodes], dtype=float)
    a = np.array([n["a"] for n in nodes], dtype=float)
    b = np.array([n["b"] for n in nodes], dtype=float)
    require(a.shape == b.shape == (len(nodes), 3), "node vectors are not 3-vectors")
    require(abs(math.fsum(w) - 1.0) <= TOL, f"weights sum to {math.fsum(w)}")
    eye = np.eye(2)
    rho_a = 0.5 * (eye + np.einsum("ni,ijk->njk", a, _SIGMA))
    rho_b = 0.5 * (eye + np.einsum("ni,ijk->njk", b, _SIGMA))
    rho = np.einsum("n,nij,nkl->ikjl", w, rho_a, rho_b).reshape(4, 4)
    err = float(np.max(np.abs(rho - werner(q))))
    require(err <= TOL, f"rebuilt state deviates from W({q}) by {err}")


CHECKERS = {
    "hvsim_mc": check_hvsim,
    "ppt_sweep": check_ppt_sweep,
    "verify_grid": check_verify_grid,
    "decompose_dense": check_decompose_dense,
}


def failure(workload: str, argv: list[str], code: int, text: str) -> str | None:
    """None if the output passes the workload's checker, else the reason."""
    try:
        CHECKERS[workload](argv, code, text)
    except CheckFailed as err:
        return str(err)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return f"malformed output: {err!r}"
    return None
