"""Command-line surface with machine-readable reports.

Every command emits a report.RunReport, written in the format that --format
names.  Exit codes: 0 all checks pass, 1 a check failed, 2 invalid
argument, 3 domain error (an inseparable q was requested for a
separable-only operation).
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .decomposition import (
    DecompositionDomainError,
    MomentReport,
    _assemble,
    _schmidt_terms,
    direction_moment,
    local_bloch_norm,
    local_margin,
    moment_check,
    reconstruct,
    spherical_decomposition,
    wootters_decomposition,
    wootters_phase_residual,
)
from .hiddenvar import MAX_SAMPLES, estimate_all
from .linalg import _hermitian_deviation
from .report import _RENDERERS, Check, Nullable, RunReport, Table, check_equal, check_value
from .separability import ppt_test, werner_pt_eigenvalues_closed_form
from .states import PositivityError, _scaled_norm, werner
from .tolerances import (
    CROSS_DECOMPOSITION_TOL,
    EIGENVALUE_TOL,
    HERMITIAN_TOL,
    MOMENT_TOL,
    NORM_SUM_TOL,
    PHASE_TOL,
    PPT_TOL,
    RECONSTRUCTION_TOL,
    SCHMIDT_TOL,
    SEPARABLE_Q_EDGE,
    SEPARABLE_Q_MAX,
    SIGMA_BAND,
    TRACE_TOL,
    UNIT_AXIS_TOL,
    WEIGHT_SUM_TOL,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# The most --sweep or --grid steps: a float STEPS holds every count up to it.
MAX_GRID_STEPS = 2**53


def _max_abs(x, axis=None):
    """The largest magnitude in x, or along the given axes of a stack."""
    return np.max(np.abs(x), axis=axis)


def matrix_payload(m: np.ndarray) -> np.ndarray:
    """Complex entries as [re, im] pairs along a new last axis."""
    return np.stack((m.real, m.imag), axis=-1)


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


def _ppt_columns(q: np.ndarray, rho: np.ndarray) -> dict[str, np.ndarray]:
    """The ppt report columns of a q grid, from the stack rho = werner(q):
    one PT test and one closed form over the whole grid."""
    verdict = ppt_test(rho)
    closed = werner_pt_eigenvalues_closed_form(q)
    return {
        "q": q,
        "eigenvalues": verdict.eigenvalues,
        "closed_form": closed,
        "min_eigenvalue": verdict.min_eigenvalue,
        "separable": verdict.separable,
        "closed_form_deviation": np.max(np.abs(verdict.eigenvalues - closed), axis=-1),
        "expected_separable": q <= SEPARABLE_Q_EDGE,
        "tol": np.full(q.shape, verdict.tol),
    }


# A q grid is evaluated this many q at a time, so that its stacked
# intermediates (matrices, node vectors, reconstructions) never outgrow one
# block and only the rows' columns are kept.  Each stacked entry equals its
# own q's result bit for bit, so no row depends on the block size.
_EVAL_ROWS = 2**12


def _by_blocks(build, q: np.ndarray) -> dict[str, np.ndarray]:
    """The columns build gives for a q grid, built from _EVAL_ROWS q at a
    time and joined in order, each block's part freed once joined."""
    parts = [build(q[at : at + _EVAL_ROWS]) for at in range(0, len(q), _EVAL_ROWS)]
    return {name: np.concatenate([part.pop(name) for part in parts]) for name in list(parts[0])}


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

    c = _by_blocks(lambda q: _ppt_columns(q, werner(q)), q)
    return RunReport(
        command="ppt",
        parameters=parameters,
        results={"rows": Table(**c)} if args.sweep is not None else {k: v[0] for k, v in c.items()},
        checks=_ppt_checks(c),
        csv_header=["q", "lambda_1", "lambda_2", "lambda_3", "lambda_4", "separable"],
        csv_columns=[q, c["eigenvalues"], c["separable"]],
    )


# Each decomposition's checks, name -> (expected, tolerance).  A check
# builder gives each one's observed value per q; anti_alignment, which only
# decompose reports, is added by _spherical_report.
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
    moment report, and each check's observed value but anti_alignment's,
    each with one entry per q.  target is the stack of Werner matrices."""
    moments = moment_check(dec)
    recon = _assemble(dec, moments.matrix)
    second_dev = moments.second_moment + dec.q[:, None, None] * np.eye(3)
    observed = {
        "reconstruction_error": _max_abs(recon - target, (-2, -1)),
        "weight_sum_deviation": np.full(dec.q.shape, abs(math.fsum(dec.weights.tolist()) - 1.0)),
        "first_moment_a": _max_abs(moments.first_moment_a, -1),
        "first_moment_b": _max_abs(moments.first_moment_b, -1),
        "second_moment_deviation": _max_abs(second_dev, (-2, -1)),
    }
    return recon, moments, observed


def _wootters_checks(dec, target: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """The reconstructions of a four-vector decomposition of a stack of q, its
    Schmidt determinants' magnitudes, shape (4, m) as dec.z's vector axis
    leads, and each check's observed value, with one entry per q.  target is
    the stack of Werner matrices.  The Schmidt check takes each |det z_i|
    relative to <z_i|z_i>, the rule of schmidt_rank_one_check."""
    recon = reconstruct(dec)
    dets, norms = _schmidt_terms(dec.z)
    observed = {
        "reconstruction_error": _max_abs(recon - target, (-2, -1)),
        "schmidt_determinant_max": np.max(dets / norms, axis=0),
        "phase_constraint_residual": wootters_phase_residual(dec),
        "norm_squared_sum": sum(norms),  # added in vector order
    }
    return recon, dets, observed


def _checks(observed: dict, specs: dict) -> list[Check]:
    """A decomposition's checks over its whole stack of q."""
    return [check_value(name, observed[name], *spec) for name, spec in specs.items()]


def _spherical_report(q: float, n_theta: int, n_phi: int) -> RunReport:
    dec = spherical_decomposition(np.array([q]), n_theta, n_phi)
    _, moments, observed = _spherical_checks(dec, werner(dec.q))
    observed["anti_alignment"] = _max_abs(dec.a + dec.b, (-2, -1))
    nodes = Table(
        theta=dec.nodes[:, 0], phi=dec.nodes[:, 1], weight=dec.weights, a=dec.a[0], b=dec.b[0]
    )
    return RunReport(
        command="decompose",
        parameters={"q": q, "method": "spherical", "n_theta": n_theta, "n_phi": n_phi},
        results={
            "q": q, "bloch_norm": local_bloch_norm(q), "nodes": nodes,
            "reconstruction_max_error": observed["reconstruction_error"][0],
            "moments": {
                "first_moment_a": moments.first_moment_a[0],
                "first_moment_b": moments.first_moment_b[0],
                "second_moment": moments.second_moment[0],
                "f_second_moment": direction_moment(dec),
            },
        },
        checks=_checks(observed, _SPHERICAL_CHECKS),
        csv_header=["theta", "phi", "weight", "a_x", "a_y", "a_z", "b_x", "b_y", "b_z"],
        csv_columns=list(nodes.columns.values()),
    )


def _wootters_report(q: float) -> RunReport:
    dec = wootters_decomposition(np.array([q]))
    _, dets, observed = _wootters_checks(dec, werner(dec.q))
    thetas = np.array(dec.thetas)[:, 0]
    z = matrix_payload(dec.z[:, 0])
    return RunReport(
        command="decompose",
        parameters={"q": q, "method": "wootters"},
        results={
            "q": q, "thetas": thetas, "z_vectors": z,
            "reconstruction_max_error": observed["reconstruction_error"][0],
            "schmidt_abs_determinants": dets[:, 0],
            "phase_constraint_residual": observed["phase_constraint_residual"][0],
            "norm_squared_sum": observed["norm_squared_sum"][0],
        },
        checks=_checks(observed, _WOOTTERS_CHECKS),
        csv_header=["vector", "theta"]
        + [f"c{i}_{part}" for i in range(4) for part in ("re", "im")],
        csv_columns=[np.arange(1, 5), thetas, z.reshape(4, 8)],
    )


def cmd_decompose(args) -> RunReport:
    if args.method == "spherical":
        return _spherical_report(args.q, *(args.nodes or (4, 8)))
    if args.nodes is not None:
        raise ValueError("--nodes applies only to --method spherical")
    return _wootters_report(args.q)


def _sigma_band(mu: float, n: int) -> float:
    """The 5-sigma tolerance of the mean of n +/-1 outcomes whose model mean
    is mu: SIGMA_BAND standard errors of the model, sqrt((1 - mu^2) / n),
    never zero for |mu| <= 1/3.  Taken from the model, not the sample, the
    band does not shrink with a run that happens to show little spread."""
    return SIGMA_BAND * math.sqrt((1.0 - mu * mu) / n)


def cmd_hvsim(args) -> RunReport:
    # One draw has no sample standard deviation (n - 1 = 0), so the reported
    # standard errors would be undefined.
    if args.samples < 2:
        raise ValueError(f"--samples must be >= 2, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be <= {MAX_SAMPLES}, got {args.samples}")
    axis_a, warnings_a = _normalized_axis(args.l, "--l")
    axis_b, warnings_b = _normalized_axis(args.m, "--m")
    est = estimate_all(args.q, axis_a, axis_b, args.samples, args.seed)
    corr, marg_a, marg_b = est.correlation, est.marginal_a, est.marginal_b
    analytic = -args.q * float(np.dot(axis_a, axis_b))
    marginal_band = _sigma_band(0.0, args.samples)

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
            check_value("correlation_within_5_sigma", corr.mean, analytic,
                        _sigma_band(analytic, args.samples)),
            check_value("marginal_a_within_5_sigma", marg_a.mean, 0.0, marginal_band),
            check_value("marginal_b_within_5_sigma", marg_b.mean, 0.0, marginal_band),
        ],
        seed=args.seed,
        warnings=warnings_a + warnings_b,
        csv_header=["q", "l_x", "l_y", "l_z", "m_x", "m_y", "m_z", "n_samples", "seed",
                    "mean", "std_error", "analytic"],
        # one row of one-element columns; a seed of 2^63 or more is uint64
        csv_columns=[
            np.array([value])
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


def _verify_block(q: np.ndarray) -> dict[str, np.ndarray]:
    """The columns of the verify rows of a block of q: its ppt rows' PT
    fields, the smallest eigenvalue of the local states (local_margin), and
    the deviations of both decompositions of W(q), one entry per tested q,
    those <= SEPARABLE_Q_EDGE, which are decomposed and checked in one
    pass."""
    rho = werner(q)
    ppt = _ppt_columns(q, rho)
    tested = ppt["expected_separable"]
    deviations = dict.fromkeys(_VERIFY_CHECKS, np.empty(0))
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
    keep = ("closed_form_deviation", "separable", "expected_separable")
    return {"local_margin": local_margin(q), **{k: ppt[k] for k in keep}, **deviations}


def _verify_rows(q: np.ndarray) -> tuple[Table, Table, list[Check]]:
    """The verify report rows of a q grid, evaluated by _verify_block, the
    skipped rows' q and local margins, and the checks over the grid.

    On the rows past SEPARABLE_Q_EDGE the deviations are null and skipped
    is SKIP_REASON.  The local states' positivity, margin >= -PPT_TOL, must
    give the PT verdict on every row.  No q tested gives only the PT and
    local checks."""
    c = _by_blocks(_verify_block, q)
    tested, margin = c["expected_separable"], c["local_margin"]
    rows = Table(
        q=q,
        ppt_deviation=c["closed_form_deviation"],
        separable=c["separable"],
        verdict_matches=c["separable"] == tested,
        local_margin=margin,
        **{key: Nullable(tested, c[key]) for key in _VERIFY_CHECKS},
        skipped=Nullable(~tested, SKIP_REASON),
    )
    local_matches = (margin >= -PPT_TOL) == c["separable"]
    local = check_equal("local_positivity_matches_ppt", bool(np.all(local_matches)), True)
    checks = _ppt_checks(c, "ppt_") + [local] + [
        check_value(name, c[key], 0.0, tol)
        for key, (name, tol) in _VERIFY_CHECKS.items()
        if tested.any()
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
    rows, skipped, checks = _verify_rows(q)

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
        "--nodes", nargs=2, type=int, default=None, metavar=("N_THETA", "N_PHI"),
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
    no_memory = f"the {args.command} report needs more memory than can be allocated"
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
        _error(no_memory)
        return EXIT_USAGE

    # every gate has passed: the report is written chunk by chunk
    try:
        if args.out is not None:
            # the path as given: a trailing slash names a directory
            with open(args.out, "w") as out:
                for chunk in text:
                    out.write(chunk)
        else:
            for line in report.warnings:
                _stderr(line)
            # a failed flush drops its bytes, so the interpreter's own flush
            # at exit adds no second message
            if sys.stdout is None:  # fd 1 was closed at start
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            for chunk in text:
                sys.stdout.write(chunk)
            sys.stdout.flush()
    except OSError as err:
        _error(f"cannot write report to {'stdout' if args.out is None else args.out}: {err.strerror}")
        return EXIT_USAGE
    except MemoryError:
        _error(no_memory)
        return EXIT_USAGE
    if args.out is not None:
        for line in report.warnings:
            _stderr(line)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
