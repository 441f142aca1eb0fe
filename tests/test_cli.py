import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
from helpers import (
    EXACT_SUM_TOL,
    THRESHOLD_QS,
    assert_bitwise_equal,
    binomial_pmf,
    reference_moments,
    reference_node_sum,
    reference_norm_squared_sum,
    reference_phase_residual,
    reference_schmidt_determinant,
    reference_wootters,
    reference_wootters_sum,
    wootters_phase_factors,
)
from wernerkit import cli, decomposition, hiddenvar
from wernerkit import report as render
from wernerkit.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from wernerkit.decomposition import (
    MAX_NODE_COUNT,
    MAX_THETA_COUNT,
    DecompositionDomainError,
    WoottersDecomposition,
    spherical_decomposition,
    wootters_decomposition,
)
from wernerkit.hiddenvar import MAX_SAMPLES
from wernerkit.linalg import partial_transpose_b
from wernerkit.report import Check, RunReport, check_value, emit_csv, emit_json
from wernerkit.separability import ppt_test, werner_pt_eigenvalues_closed_form
from wernerkit.states import werner
from wernerkit.tolerances import SEPARABLE_Q_EDGE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def count_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name with a wrapper that appends one entry per call."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def reference_ppt_row(q: float) -> dict:
    """A ppt report row built from one-state calls for this q alone: the
    per-q loop that the grid path replaces."""
    verdict = ppt_test(werner(q))
    closed = werner_pt_eigenvalues_closed_form(q)
    return {
        "q": q,
        "eigenvalues": list(verdict.eigenvalues),
        "closed_form": closed.tolist(),
        "min_eigenvalue": verdict.min_eigenvalue,
        "separable": verdict.separable,
        "closed_form_deviation": float(np.max(np.abs(np.asarray(verdict.eigenvalues) - closed))),
        "expected_separable": q <= SEPARABLE_Q_EDGE,
        "tol": verdict.tol,
    }


def max_abs(x) -> float:
    return float(np.max(np.abs(x)))


def reference_schmidt_ratio(v) -> float:
    """|det v| / <v|v> in complex scalar arithmetic: the product-state rule
    of schmidt_rank_one_check."""
    return float(abs(reference_schmidt_determinant(v))) / float(np.real(np.vdot(v, v)))


def reference_verify_row(q: float) -> dict:
    """A verify report row built from one-q calls for this q alone, with the
    decompositions resummed and checked by the per-q oracles: the loop that
    the grid path replaces."""
    ppt = reference_ppt_row(q)
    row = {
        "q": q,
        "ppt_deviation": ppt["closed_form_deviation"],
        "separable": ppt["separable"],
        "verdict_matches": ppt["separable"] == ppt["expected_separable"],
        "local_margin": ((1.0 - 2.0 * q) - q) / (2.0 * (1.0 + math.sqrt(3.0 * q))),
    }
    try:
        dec = spherical_decomposition(q)
        wootters_decomposition(q)
    except DecompositionDomainError:
        row.update(dict.fromkeys(cli._VERIFY_CHECKS))
        row["skipped"] = "decomposition checks skipped: q > 1/3 (local_margin < 0)"
        return row
    target = werner(q)
    z, _ = reference_wootters(q)
    recon_s = reference_node_sum(dec.weights, dec.a)
    recon_w = reference_wootters_sum(z)
    first_a, first_b, second = reference_moments(dec.weights, dec.a)
    row.update(
        spherical_error=max_abs(recon_s - target),
        wootters_error=max_abs(recon_w - target),
        cross_error=max_abs(recon_s - recon_w),
        moment_deviation=max(
            max_abs(first_a), max_abs(first_b), max_abs(second + q * np.eye(3))
        ),
        schmidt_max=max(reference_schmidt_ratio(v) for v in z),
        phase_residual=reference_phase_residual(wootters_phase_factors(q), q),
        skipped=None,
    )
    return row


# verify row fields taken from spherical node sums, which the per-q
# reference adds exactly
NODE_SUM_FIELDS = ("spherical_error", "cross_error", "moment_deviation")


def column_values(column) -> list:
    """A table column as a list of Python values, null as None."""
    if isinstance(column, cli.Nullable):
        values = column.values
        values = [values] * len(column) if isinstance(values, str) else column_values(values)
        return [v if p else None for p, v in zip(column.present.tolist(), values)]
    return np.asarray(column).tolist()


def table_rows(table: cli.Table) -> list[dict]:
    """A cli.Table as its list of row objects, built from column_values."""
    names = list(table.columns)
    return [dict(zip(names, row)) for row in zip(*map(column_values, table.columns.values()))]


def as_json(value, **kwargs) -> str:
    """JSON text of value, numpy scalars and arrays written as the Python
    values they hold, and a cli.Table as its list of row objects."""
    return json.dumps(
        value, default=lambda v: table_rows(v) if isinstance(v, cli.Table) else v.tolist(), **kwargs
    )


# Q_MIN Q_MAX STEPS of a three-point grid on the doubles around 1/3.
THRESHOLD_GRID = (repr(float(THRESHOLD_QS[0])), repr(float(THRESHOLD_QS[-1])), "3")


class TestGridOracle:
    """Every row of a grid command against the per-q reference loop.  JSON
    text is compared, so -0.0 and 0.0 differ."""

    @pytest.mark.parametrize("grid", [("0", "1", "1001"), THRESHOLD_GRID])
    def test_ppt_sweep_rows(self, capsys, grid):
        code, report, _ = run_json(capsys, "ppt", "--sweep", *grid)
        assert code == EXIT_OK
        rows = report["results"]["rows"]
        if grid == THRESHOLD_GRID:
            assert [r["q"] for r in rows] == THRESHOLD_QS.tolist()
        assert len(rows) == int(grid[2])
        for row in rows:
            assert json.dumps(row) == json.dumps(reference_ppt_row(row["q"]))

    @pytest.mark.parametrize("q", [0.0, 0.2, *THRESHOLD_QS.tolist(), 0.5, 1.0])
    def test_ppt_single_q(self, capsys, q):
        _, report, _ = run_json(capsys, "ppt", "--q", repr(q))
        assert json.dumps(report["results"]) == json.dumps(reference_ppt_row(q))

    @pytest.mark.parametrize("grid", [("0", "1", "1001"), THRESHOLD_GRID])
    def test_verify_grid_rows(self, capsys, grid):
        code, report, _ = run_json(capsys, "verify", "--grid", *grid)
        assert code == EXIT_OK
        rows = report["results"]["rows"]
        if grid == THRESHOLD_GRID:
            assert [r["q"] for r in rows] == THRESHOLD_QS.tolist()
        assert len(rows) == int(grid[2])
        for row in rows:
            reference = reference_verify_row(row["q"])
            for key in NODE_SUM_FIELDS:
                if reference[key] is not None:
                    assert abs(row[key] - reference[key]) <= EXACT_SUM_TOL
                    reference[key] = row[key]
            assert json.dumps(row) == as_json(reference)


class TestGridPassCount:
    """A grid of up to cli._EVAL_ROWS q is evaluated in one pass: one Werner
    stack, one eigensolve, of its partial transpose, and one quadrature
    build.  The gate certifies every Werner state from its Gershgorin discs,
    so it takes no spectrum."""

    @staticmethod
    def assert_one_pt_stack(eigvalsh, werner_calls):
        # the one eigvalsh stack is the partial transpose of the one werner stack
        (stack,) = [args[0] for args in eigvalsh if np.ndim(args[0]) == 3]
        ((q,),) = werner_calls
        assert_bitwise_equal(stack, partial_transpose_b(werner(q)))
        return stack

    def test_ppt_sweep(self, capsys, monkeypatch):
        eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
        werner_calls = count_calls(monkeypatch, cli, "werner")
        code, _, _ = run(capsys, "ppt", "--sweep", "0", "1", "1001", "--format", "csv")
        assert code == EXIT_OK
        assert len(eigvalsh) == 1
        assert self.assert_one_pt_stack(eigvalsh, werner_calls).shape == (1001, 4, 4)

    def test_ppt_single_q_is_a_grid_of_one(self, capsys, monkeypatch):
        eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
        werner_calls = count_calls(monkeypatch, cli, "werner")
        assert run(capsys, "ppt", "--q", "0.2")[0] == EXIT_OK
        assert len(eigvalsh) == 1
        assert self.assert_one_pt_stack(eigvalsh, werner_calls).shape == (1, 4, 4)

    def test_default_verify(self, capsys, monkeypatch):
        decomposition._quadrature.cache_clear()
        eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
        leggauss = count_calls(monkeypatch, np.polynomial.legendre, "leggauss")
        werner_calls = count_calls(monkeypatch, cli, "werner")
        code, report, _ = run_json(capsys, "verify")
        assert code == EXIT_OK
        assert len(report["results"]["rows"]) == 21
        # the PT stack of the density matrices is real, solved as float64;
        # then leggauss makes its own eigvalsh call, on one 2-d companion matrix
        assert [np.ndim(args[0]) for args in eigvalsh] == [3, 2]
        stack = self.assert_one_pt_stack(eigvalsh, werner_calls)
        assert (stack.shape, stack.dtype) == ((21, 4, 4), np.float64)
        assert len(leggauss) == 1

    @pytest.mark.parametrize("command", ["ppt --sweep", "verify --grid"])
    def test_a_larger_grid_takes_one_pass_per_block(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "_EVAL_ROWS", 7)
        eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
        werner_calls = count_calls(monkeypatch, cli, "werner")
        assert run(capsys, *command.split(), "0", "1", "30", "--format", "csv")[0] == EXIT_OK
        assert [len(q) for (q,) in werner_calls] == [7, 7, 7, 7, 2]
        assert [len(args[0]) for args in eigvalsh if np.ndim(args[0]) == 3] == [7, 7, 7, 7, 2]


class TestDecompositionPassCount:
    """verify decomposes the tested q of a block in one pass: one call of each
    constructor, of the moment check and of the four-vector reconstruction
    for the grid, and none when no q is tested.  The spherical
    reconstruction is assembled from the moment check's matrix, so each
    node moment matrix is built once.  decompose is that pass on a stack of
    one."""

    @staticmethod
    def count_decomposition_calls(monkeypatch) -> dict:
        names = ("spherical_decomposition", "wootters_decomposition", "reconstruct", "moment_check")
        calls = {name: count_calls(monkeypatch, cli, name) for name in names}
        calls["_moment_matrix"] = count_calls(monkeypatch, decomposition, "_moment_matrix")
        return calls

    def test_verify_grid(self, capsys, monkeypatch):
        calls = self.count_decomposition_calls(monkeypatch)
        code, report, _ = run_json(capsys, "verify", "--grid", "0", "1", "1001")
        assert code == EXIT_OK
        assert [type(args[0]) for args in calls["reconstruct"]] == [WoottersDecomposition]
        assert len(calls["moment_check"]) == 1
        # M = sum w (1, a)(1, b)^T once; the direction moments, which verify
        # does not report, never
        assert len(calls["_moment_matrix"]) == 1
        (spherical,), (wootters,) = calls["spherical_decomposition"], calls["wootters_decomposition"]
        assert len(report["results"]["skipped"]) == 1001 - 334
        assert spherical[0].shape == wootters[0].shape == (334,)

    def test_verify_without_tested_q(self, capsys, monkeypatch):
        calls = self.count_decomposition_calls(monkeypatch)
        code, report, _ = run_json(capsys, "verify", "--grid", "0.5", "1", "3")
        assert code == EXIT_OK
        assert all(not c for c in calls.values())
        assert [c["name"] for c in report["checks"]] == [
            "ppt_eigenvalues_match_closed_form", "ppt_verdict_matches_closed_form",
            "local_positivity_matches_ppt",
        ]
        rows = report["results"]["rows"]
        assert all(row[key] is None for row in rows for key in cli._VERIFY_CHECKS)
        assert [s["q"] for s in report["results"]["skipped"]] == [0.5, 0.75, 1.0]

    @pytest.mark.parametrize("method", ["spherical", "wootters"])
    def test_decompose_is_a_stack_of_one(self, capsys, monkeypatch, method):
        builder = count_calls(monkeypatch, cli, f"_{method}_checks")
        calls = self.count_decomposition_calls(monkeypatch)
        assert run(capsys, "decompose", "--q", "0.2", "--method", method)[0] == EXIT_OK
        (args,) = builder
        assert args[0].q.shape == (1,)
        assert len(calls["reconstruct"]) == (method == "wootters")
        assert len(calls["moment_check"]) == len(calls["_moment_matrix"]) // 2 == (method == "spherical")

    def test_verify_builds_no_angle_and_no_direction_moment(self, monkeypatch):
        # the phase angles and the direction moments are printed only by
        # decompose, so the check builders verify shares never form them
        def refuse(*args):
            raise AssertionError("called by verify's check builders")

        monkeypatch.setattr(decomposition.math, "atan2", refuse)
        monkeypatch.setattr(decomposition, "direction_moment", refuse)
        q = np.linspace(0.0, 1.0, 31)
        _, skipped, checks = cli._verify_rows(q)
        assert len(skipped.columns["q"]) == 31 - 11
        assert [c.name for c in checks][-1] == "phase_constraint_residuals"
        assert all(c.passed for c in checks)


def assert_same_columns(actual: dict, expected: dict) -> None:
    """Table columns equal name by name, bit for bit, a Nullable's mask and
    values each."""
    assert list(actual) == list(expected)
    for name, column in expected.items():
        other = actual[name]
        if isinstance(column, cli.Nullable):
            assert_bitwise_equal(other.present, column.present)
            other, column = other.values, column.values
            if isinstance(column, str):
                assert other == column
                continue
        assert_bitwise_equal(other, column)


def assert_same_checks(actual: list[Check], expected: list[Check]) -> None:
    """Checks equal field by field, each observed value bit for bit."""
    fields = [(c.name, c.passed, c.expected, c.tolerance, type(c.observed)) for c in expected]
    assert [(c.name, c.passed, c.expected, c.tolerance, type(c.observed)) for c in actual] == fields
    assert_bitwise_equal([c.observed for c in actual], [c.observed for c in expected])


# q on consecutive doubles across 1/3 and the window (1/3, SEPARABLE_Q_EDGE],
# 64 ulps wide, and beyond it
_WINDOW_GRID = 1.0 / 3.0 + np.spacing(1.0 / 3.0) * np.arange(-10.0, 80.0, 3.0)


class TestBlockedEvaluation:
    """A grid evaluated _EVAL_ROWS q at a time gives the rows and checks of
    one whole-grid pass bit for bit: here in blocks of 7 q, against one
    block.  check_value then reduces the joined columns, so a NaN in any
    block is reported first, and of tied worst entries the first in grid
    order wins."""

    GRIDS = [np.linspace(0.0, 1.0, 50), _WINDOW_GRID]
    GRIDS += [grid[::-1].copy() for grid in GRIDS]
    # two tested q of the 0 to 1 grid, in different blocks of 7 either way
    EARLY, LATE = GRIDS[0][2], GRIDS[0][15]

    @staticmethod
    def both_ways(monkeypatch, evaluate):
        whole = evaluate()
        monkeypatch.setattr(cli, "_EVAL_ROWS", 7)
        return evaluate(), whole

    @staticmethod
    def mark_residuals(monkeypatch, marks: dict) -> None:
        """Set the phase residual of each q in marks to its value."""
        residual = cli.wootters_phase_residual

        def marked(dec):
            values = np.array(residual(dec))
            for q, value in marks.items():
                values[dec.q == q] = value
            return values

        monkeypatch.setattr(cli, "wootters_phase_residual", marked)

    def verify(self, monkeypatch, q):
        blocked, whole = self.both_ways(monkeypatch, lambda: cli._verify_rows(q))
        for b, w in zip(blocked[:2], whole[:2]):
            assert_same_columns(b.columns, w.columns)
        assert_same_checks(blocked[2], whole[2])
        return {c.name: c for c in blocked[2]}

    @pytest.mark.parametrize("grid", range(len(GRIDS)))
    def test_verify_rows_and_checks(self, monkeypatch, grid):
        q = self.GRIDS[grid]
        assert len(q) > 7 * 3
        checks = self.verify(monkeypatch, q)
        assert all(c.passed for c in checks.values())
        assert len(checks) == 9

    @pytest.mark.parametrize("grid", range(len(GRIDS)))
    def test_ppt_rows_and_checks(self, monkeypatch, grid):
        q = self.GRIDS[grid]
        args = cli.build_parser().parse_args(["ppt", "--q", "0.2"])
        monkeypatch.setattr(cli, "_q_grid", lambda *_: (q, len(q)))
        args.sweep = (0.0, 1.0, float(len(q)))
        blocked, whole = self.both_ways(monkeypatch, lambda: cli.cmd_ppt(args))
        assert_same_columns(blocked.results["rows"].columns, whole.results["rows"].columns)
        assert_same_checks(blocked.checks, whole.checks)

    @pytest.mark.parametrize("descending", [False, True])
    def test_a_nan_in_one_block_is_reported_first(self, monkeypatch, descending):
        # a finite worst entry in another block does not hide it
        self.mark_residuals(monkeypatch, {self.EARLY: 0.5, self.LATE: math.nan})
        q = self.GRIDS[2 if descending else 0]
        checks = self.verify(monkeypatch, q)
        assert math.isnan(checks["phase_constraint_residuals"].observed)
        assert not checks["phase_constraint_residuals"].passed

    @pytest.mark.parametrize("descending", [False, True])
    def test_of_tied_worst_entries_the_first_wins(self, monkeypatch, descending):
        self.mark_residuals(monkeypatch, {self.EARLY: -0.5, self.LATE: 0.5})
        q = self.GRIDS[2 if descending else 0]
        checks = self.verify(monkeypatch, q)
        first = 0.5 if descending else -0.5
        assert checks["phase_constraint_residuals"].observed == first


class TestCheckBuilderOracle:
    """The stacked check builders' fields against the per-q oracles: bit for
    bit, or for spherical node sums within EXACT_SUM_TOL of the exact sum."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0.0, SEPARABLE_Q_EDGE), min_size=1, max_size=70).map(np.array))
    def test_wootters_fields(self, qs):
        _, dets, observed = cli._wootters_checks(wootters_decomposition(qs), werner(qs))
        for k, q in enumerate(qs.tolist()):
            z, _ = reference_wootters(q)
            reference_dets = [float(abs(reference_schmidt_determinant(v))) for v in z]
            assert dets[:, k].tolist() == reference_dets
            assert observed["schmidt_determinant_max"][k] == max(map(reference_schmidt_ratio, z))
            residual = reference_phase_residual(wootters_phase_factors(q), q)
            assert observed["phase_constraint_residual"][k] == residual
            assert observed["norm_squared_sum"][k] == reference_norm_squared_sum(z)
            target = werner(q)
            assert observed["reconstruction_error"][k] == max_abs(reference_wootters_sum(z) - target)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.floats(0.0, SEPARABLE_Q_EDGE), min_size=1, max_size=70).map(np.array))
    def test_spherical_fields(self, qs):
        dec = spherical_decomposition(qs)
        _, moments, observed = cli._spherical_checks(dec, werner(qs))
        for k, q in enumerate(qs.tolist()):
            one = spherical_decomposition(q)
            first_a, first_b, second = reference_moments(one.weights, one.a)
            recon = reference_node_sum(one.weights, one.a)
            for name, exact in (
                ("reconstruction_error", max_abs(recon - werner(q))),
                ("first_moment_a", max_abs(first_a)),
                ("first_moment_b", max_abs(first_b)),
                ("second_moment_deviation", max_abs(second + q * np.eye(3))),
            ):
                assert abs(observed[name][k] - exact) <= EXACT_SUM_TOL
            assert max_abs(moments.second_moment[k] - second) <= EXACT_SUM_TOL
        # anti_alignment is decompose's check alone (TestDecomposeCommand)
        assert "anti_alignment" not in observed


class TestFineGrids:
    """Node sums whose rounding does not grow with the node count: a correct
    decomposition on a fine grid passes its own checks."""

    @pytest.mark.parametrize("nodes", [("1000", "1000"), ("2", "100000")], ids="x".join)
    def test_fine_grid_passes_every_check(self, nodes):
        args = cli.build_parser().parse_args(["decompose", "--q", "0.2", "--nodes", *nodes])
        report = cli.cmd_decompose(args)
        assert report.all_pass, [c for c in report.checks if not c.passed]
        if nodes == ("2", "100000"):
            # a node-order (strided) sum is 1.8e-13 off here
            second = report.results["moments"]["second_moment"]
            assert max_abs(second + 0.2 * np.eye(3)) <= 1e-15


class TestGridErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("ppt", "--sweep", "-0.5", "1", "11"), "mixing parameter q must be in [0, 1], got -0.5"),
            (("ppt", "--sweep", "0", "1.5", "11"), "mixing parameter q must be in [0, 1], got 1.05"),
            (
                ("verify", "--grid", "0.2", "1.5", "4"),
                "mixing parameter q must be in [0, 1], got 1.0666666666666667",
            ),
            (("verify", "--grid", "-1", "1", "4"), "mixing parameter q must be in [0, 1], got -1.0"),
        ],
    )
    def test_first_bad_grid_point_is_named(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("ppt", "--sweep", "inf", "1", "3"), "sweep Q_MIN must be finite, got inf"),
            (("ppt", "--sweep", "0", "inf", "3"), "sweep Q_MAX must be finite, got inf"),
            (("ppt", "--sweep", "nan", "1", "3"), "sweep Q_MIN must be finite, got nan"),
            (("ppt", "--sweep", "0", "1e400", "3"), "sweep Q_MAX must be finite, got inf"),
            (("verify", "--grid", "0", "inf", "3"), "grid Q_MAX must be finite, got inf"),
            (("verify", "--grid", "nan", "1", "3"), "grid Q_MIN must be finite, got nan"),
        ],
    )
    def test_non_finite_endpoints_exit_2(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("verify", "--grid", "0", "5", "1"),
                "grid of 1 step needs Q_MIN = Q_MAX, got 0.0 and 5.0",
            ),
            (
                ("ppt", "--sweep", "0.1", "-3", "1"),
                "sweep of 1 step needs Q_MIN = Q_MAX, got 0.1 and -3.0",
            ),
            (
                ("ppt", "--sweep", "0.2", "0.3", "1"),
                "sweep of 1 step needs Q_MIN = Q_MAX, got 0.2 and 0.3",
            ),
        ],
    )
    def test_one_step_grid_needs_equal_ends(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [("verify", "--grid"), ("ppt", "--sweep")])
    def test_one_step_grid_of_one_q(self, capsys, command):
        code, report, _ = run_json(capsys, *command, "0.2", "0.2", "1")
        assert code == EXIT_OK
        assert [row["q"] for row in report["results"]["rows"]] == [0.2]


class TestSizeCaps:
    """A node count or a grid step count outside its bounds exits 2 with one
    line naming the bound, judged before any allocation.  The counts at the
    caps are taken: --nodes 1000 1000 runs in TestFineGrids and renders
    within TestOutOfMemory's limit, and 2^53 grid steps fail only for
    memory there."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("decompose", "--q", "0.2", "--nodes", "18446744073709551616", "3"),
             "n_theta must be <= 1000, got 18446744073709551616"),
            (("decompose", "--q", "0.2", "--nodes", "100001", "3"),
             "n_theta must be <= 1000, got 100001"),
            # the node total n_theta * n_phi has its own cap
            (("decompose", "--q", "0.2", "--nodes", "1000", "1001"),
             "n_theta * n_phi must be <= 1000000, got 1001000"),
            (("decompose", "--q", "0.2", "--nodes", "1000", "100000"),
             "n_theta * n_phi must be <= 1000000, got 100000000"),
            (("ppt", "--sweep", "0", "1", "1e30"),
             "sweep steps must be <= 9007199254740992, got 1000000000000000019884624838656"),
            (("verify", "--grid", "0", "1", "1e19"),
             "grid steps must be <= 9007199254740992, got 10000000000000000000"),
            # the double after 2^53: 2^53 + 1 reads as 2^53
            (("ppt", "--sweep", "0", "1", "9007199254740994"),
             "sweep steps must be <= 9007199254740992, got 9007199254740994"),
            (("verify", "--grid", "0", "1", "9007199254740994"),
             "grid steps must be <= 9007199254740992, got 9007199254740994"),
            # and at least one step, -0 included
            (("ppt", "--sweep", "0", "1", "0"), "sweep steps must be >= 1, got 0"),
            (("verify", "--grid", "0", "0.3", "-2"), "grid steps must be >= 1, got -2"),
            (("ppt", "--sweep", "0", "1", "-0"), "sweep steps must be >= 1, got 0"),
            # n_theta has its own, tighter cap
            (("decompose", "--q", "0.2", "--nodes", "1001", "100000"),
             "n_theta must be <= 1000, got 1001"),
        ],
    )
    def test_count_past_its_cap_exits_2(self, capsys, argv, message):
        for fmt in ("json", "csv", "pretty"):
            assert run(capsys, *argv, "--format", fmt) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_node_count_cap(self):
        # the cap is on the node total, whatever its split
        assert MAX_NODE_COUNT == MAX_THETA_COUNT**2 == 1_000_000
        half = MAX_NODE_COUNT // 2
        assert spherical_decomposition(0.2, 2, half).weights.shape == (MAX_NODE_COUNT,)
        decomposition._quadrature.cache_clear()
        for n_theta, n_phi, message in (
            (2, half + 1, "n_theta * n_phi must be <= 1000000, got 1000002"),
            (MAX_THETA_COUNT, 1001, "n_theta * n_phi must be <= 1000000, got 1001000"),
            (MAX_THETA_COUNT + 1, 1000, "n_theta must be <= 1000, got 1001"),
        ):
            with pytest.raises(ValueError) as err:
                spherical_decomposition(0.2, n_theta, n_phi)
            assert str(err.value) == message

    def test_theta_count_cap(self):
        assert MAX_THETA_COUNT == 1000
        assert spherical_decomposition(0.2, MAX_THETA_COUNT, 3).weights.shape == (3 * MAX_THETA_COUNT,)
        with pytest.raises(ValueError, match="n_theta must be <= 1000"):
            spherical_decomposition(0.2, MAX_THETA_COUNT + 1, 3)

    def test_theta_past_its_cap_exits_before_leggauss(self, capsys, monkeypatch):
        # the count that made leggauss ask for 3.2 GB is refused at once
        calls = []
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n))
        code, out, err = run(capsys, "decompose", "--q", "0.2", "--nodes", "20000", "3")
        assert (code, out, err, calls) == (EXIT_USAGE, "", "error: n_theta must be <= 1000, got 20000\n", [])

    def test_grid_step_cap(self):
        assert cli.MAX_GRID_STEPS == 2**53
        assert float(cli.MAX_GRID_STEPS + 1) == cli.MAX_GRID_STEPS  # no larger count is typed exactly


class TestMatrixCommand:
    def test_q_02_entries(self, capsys):
        code, report, _ = run_json(capsys, "matrix", "--q", "0.2")
        assert code == EXIT_OK
        m = report["results"]["matrix"]
        diag = [m[i][i][0] for i in range(4)]
        assert diag == pytest.approx([0.2, 0.3, 0.3, 0.2], abs=1e-15)
        assert m[1][2][0] == pytest.approx(-0.1, abs=1e-15)
        assert m[2][1][0] == pytest.approx(-0.1, abs=1e-15)
        assert all(m[i][j][1] == 0.0 for i in range(4) for j in range(4))
        assert report["tool_version"] == "0.1.0"

    def test_q_zero_identity_quarter(self, capsys):
        _, report, _ = run_json(capsys, "matrix", "--q", "0")
        m = report["results"]["matrix"]
        for i in range(4):
            for j in range(4):
                expected = 0.25 if i == j else 0.0
                assert m[i][j] == [expected, 0.0]

    def test_out_of_range_exits_2(self, capsys):
        code, out, err = run(capsys, "matrix", "--q", "1.5")
        assert code == EXIT_USAGE
        assert out == ""
        assert "mixing parameter" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "matrix", "--q", "0.2", "--format", "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 17
        assert "\r" not in out
        # floats are emitted in shortest round-trip form
        row = lines[1].split(",")
        assert float(row[2]) == 0.2

    def test_pretty_format_has_check_lines(self, capsys):
        code, out, _ = run(capsys, "matrix", "--q", "0.2", "--format", "pretty")
        assert code == EXIT_OK
        assert "[PASS] trace_one" in out


class TestPptCommand:
    def test_single_q_inseparable(self, capsys):
        code, report, _ = run_json(capsys, "ppt", "--q", "0.5")
        assert code == EXIT_OK
        res = report["results"]
        assert res["separable"] is False
        assert res["min_eigenvalue"] == pytest.approx(-0.125, abs=1e-12)

    def test_critical_point(self, capsys):
        code, report, _ = run_json(capsys, "ppt", "--q", "0.3333333333333333")
        assert code == EXIT_OK
        assert report["results"]["separable"] is True
        assert abs(report["results"]["min_eigenvalue"]) < 1e-12

    def test_sweep_rows_and_flip(self, capsys):
        code, out, _ = run(capsys, "ppt", "--sweep", "0", "1", "11", "--format", "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 12
        verdicts = [ln.split(",")[-1] for ln in lines[1:]]
        assert verdicts[:4] == ["true"] * 4  # q = 0.0, 0.1, 0.2, 0.3
        assert verdicts[4:] == ["false"] * 7  # q = 0.4 ... 1.0

    @pytest.mark.parametrize("steps", ["2.7", "nan", "inf"])
    def test_non_integral_steps_exit_2(self, capsys, steps):
        code, out, err = run(capsys, "ppt", "--sweep", "0", "1", steps)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: sweep steps must be a whole number, got {float(steps)}\n"

    @pytest.mark.parametrize("steps", ["11", "11.0"])
    def test_integral_steps_run_every_point(self, capsys, steps):
        code, report, _ = run_json(capsys, "ppt", "--sweep", "0", "1", steps)
        assert code == EXIT_OK
        assert report["parameters"]["sweep"]["steps"] == 11
        assert len(report["results"]["rows"]) == 11

    def test_requires_q_or_sweep(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ppt"])
        assert exc.value.code == EXIT_USAGE


class TestDecomposeCommand:
    def test_spherical_checks_pass(self, capsys):
        code, report, _ = run_json(capsys, "decompose", "--q", "0.2", "--method", "spherical")
        assert code == EXIT_OK
        assert report["results"]["reconstruction_max_error"] <= 1e-12
        names = {c["name"]: c["pass"] for c in report["checks"]}
        assert all(names.values())
        assert "second_moment_deviation" in names

    @settings(max_examples=10, deadline=None)
    @given(st.floats(0.0, SEPARABLE_Q_EDGE))
    def test_spherical_anti_alignment(self, q):
        # b = -a node for node, reported after the moment checks
        args = cli.build_parser().parse_args(["decompose", "--q", repr(q)])
        checks = cli.cmd_decompose(args).checks
        assert [c.name for c in checks] == list(cli._SPHERICAL_CHECKS)
        (anti,) = [c for c in checks if c.name == "anti_alignment"]
        assert (anti.passed, anti.observed, anti.expected, anti.tolerance) == (True, 0.0, 0.0, 0.0)

    def test_spherical_node_budget(self, capsys):
        _, report, _ = run_json(
            capsys, "decompose", "--q", "0.1", "--nodes", "2", "3"
        )
        assert len(report["results"]["nodes"]) == 6

    def test_spherical_nodes_are_a_column_table(self):
        args = cli.build_parser().parse_args(["decompose", "--q", "0.2", "--nodes", "2", "3"])
        nodes = cli.cmd_decompose(args).results["nodes"]
        assert isinstance(nodes, cli.Table)
        assert {name: column.shape for name, column in nodes.columns.items()} == {
            "theta": (6,), "phi": (6,), "weight": (6,), "a": (6, 3), "b": (6, 3),
        }

    def test_domain_error_exits_3(self, capsys):
        code, out, err = run(capsys, "decompose", "--q", "0.34", "--method", "spherical")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert repr(math.sqrt(3 * 0.34)) in err

    def test_wootters_all_product_states(self, capsys):
        code, report, _ = run_json(capsys, "decompose", "--q", "0.1", "--method", "wootters")
        assert code == EXIT_OK
        assert len(report["results"]["z_vectors"]) == 4
        names = {c["name"]: c["pass"] for c in report["checks"]}
        assert names["schmidt_determinant_max"]
        assert names["phase_constraint_residual"]

    @pytest.mark.parametrize("nodes", [("2", "200"), ("8", "300"), ("32", "128")])
    def test_weight_sum_check_holds_on_large_grids(self, capsys, nodes):
        # the deviation is of the weights' exact sum, so it does not grow
        # with the node count as a left-to-right sum's rounding does
        code, report, _ = run_json(capsys, "decompose", "--q", "0.2", "--nodes", *nodes)
        assert code == EXIT_OK
        check = {c["name"]: c for c in report["checks"]}["weight_sum_deviation"]
        assert check["pass"]
        assert check["observed"] <= 3.3e-16

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize("nodes", [("0", "0"), ("4", "8")])
    def test_wootters_refuses_nodes(self, capsys, nodes, fmt):
        # the spherical method's default grid is no reason to accept it here
        argv = ("decompose", "--q", "0.2", "--method", "wootters", "--nodes", *nodes)
        assert run(capsys, *argv, "--format", fmt) == (
            EXIT_USAGE, "", "error: --nodes applies only to --method spherical\n"
        )

    def test_spherical_nodes_default_to_4_by_8(self):
        args = cli.build_parser().parse_args(["decompose", "--q", "0.2"])
        assert args.nodes is None
        report = cli.cmd_decompose(args)
        assert (report.parameters["n_theta"], report.parameters["n_phi"]) == (4, 8)

    def test_wootters_domain_error(self, capsys):
        code, _, _ = run(capsys, "decompose", "--q", "0.5", "--method", "wootters")
        assert code == EXIT_DOMAIN

    def test_wootters_csv(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--q", "0.1", "--method", "wootters", "--format", "csv"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("vector,theta,")


class TestHvsimCommand:
    ARGS = (
        "hvsim", "--q", "0.3", "--l", "0", "0", "1", "--m", "0", "0", "1",
        "--samples", "200000", "--seed", "7",
    )

    def test_correlation_matches_analytic(self, capsys):
        code, report, _ = run_json(capsys, *self.ARGS)
        assert code == EXIT_OK
        corr = report["results"]["correlation"]
        assert report["results"]["analytic"] == -0.3
        assert abs(corr["mean"] - (-0.3)) <= 5 * corr["std_error"]
        assert report["seed"] == 7

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, *self.ARGS)
        _, out2, _ = run(capsys, *self.ARGS)
        assert out1 == out2

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_seed_outside_64_bits_exits_2(self, capsys, seed):
        code, out, err = run(
            capsys, "hvsim", "--q", "0.2", "--samples", "1000", "--seed", seed, "--format", "csv"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: seed must be in [0, 2**64), got {seed}\n"

    @pytest.mark.parametrize("seed", ["0", "18446744073709551615"])
    def test_seeds_at_the_64_bit_range_ends_run(self, capsys, seed):
        code, report, _ = run_json(capsys, "hvsim", "--q", "0.2", "--samples", "1000", "--seed", seed)
        assert code == EXIT_OK
        assert report["seed"] == int(seed)

    def test_q_zero(self, capsys):
        code, report, _ = run_json(
            capsys, "hvsim", "--q", "0", "--samples", "100000", "--seed", "3"
        )
        assert code == EXIT_OK
        corr = report["results"]["correlation"]
        assert abs(corr["mean"]) <= 5 * corr["std_error"]

    def test_axis_normalization_warns_and_reports(self, capsys):
        code, out, err = run(
            capsys, "hvsim", "--q", "0.1", "--l", "0", "0", "2",
            "--samples", "1000", "--seed", "1",
        )
        assert code == EXIT_OK
        assert "normalized" in err
        report = json.loads(out)
        assert report["parameters"]["l"] == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize(
        "axis, unit",
        [
            (("1e308", "1e308", "1e308"), [1 / math.sqrt(3.0)] * 3),
            (("1e-320", "0", "0"), [1.0, 0.0, 0.0]),
            # a subnormal axis normalized by its rounded norm would be off
            # by 7e-5
            (("1e-320", "3e-320", "0"), [1 / math.sqrt(10.0), 3 / math.sqrt(10.0), 0.0]),
            (("3e-162", "4e-162", "0"), [0.6, 0.8, 0.0]),
        ],
    )
    def test_axis_whose_squared_norm_leaves_the_normal_range(self, capsys, axis, unit):
        # the squared norm overflows, underflows to 0 or is a subnormal with
        # few digits; the axis is still a finite nonzero direction
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "hvsim", "--q", "0.1", "--l", *axis,
                "--samples", "1000", "--seed", "1",
            )
        assert code == EXIT_OK
        assert err.startswith("warning: axis --l has norm ")
        assert err.count("\n") == 1
        np.testing.assert_allclose(json.loads(out)["parameters"]["l"], unit, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "axis, warning",
        [
            (("1e-200", "0", "0"),
             "has norm 1e-200; normalized to [1.0, 0.0, 0.0]"),
            (("1e-160", "1e-160", "0"),
             "has norm 1.4142135623730952e-160; normalized to "
             "[0.7071067811865475, 0.7071067811865475, 0.0]"),
            (("1e151", "1e151", "0"),
             "has norm 1.414213562373095e+151; normalized to "
             "[0.7071067811865475, 0.7071067811865475, 0.0]"),
            (("1e200", "0", "0"),
             "has norm 1e+200; normalized to [1.0, 0.0, 0.0]"),
        ],
    )
    def test_far_scaled_axis_warning_text(self, capsys, axis, warning):
        # the norm of an axis far from 1 is taken from the axis over its
        # largest entry, by the rule the library's axis checks use
        code, out, err = run(
            capsys, "hvsim", "--q", "0.1", "--l", *axis, "--samples", "1000", "--seed", "1",
        )
        assert code == EXIT_OK
        assert err == f"warning: axis --l {warning}\n"

    def test_zero_axis_exits_2(self, capsys):
        code, _, err = run(
            capsys, "hvsim", "--q", "0.1", "--l", "0", "0", "0",
            "--samples", "1000", "--seed", "1",
        )
        assert code == EXIT_USAGE
        assert "nonzero" in err

    def test_domain_error_exits_3(self, capsys):
        code, _, _ = run(capsys, "hvsim", "--q", "0.4", "--samples", "10", "--seed", "0")
        assert code == EXIT_DOMAIN

    def test_single_sample_exits_2(self, capsys):
        # one draw has no sample standard error to report
        code, out, err = run(capsys, "hvsim", "--q", "0.2", "--samples", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: --samples must be >= 2")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("samples", [2, 3])
    def test_all_same_outcomes_keep_a_nonzero_band(self, capsys, samples):
        # seed 0 draws the same outcome every time on at least one estimate;
        # its standard error is 0, but the band is the model's,
        # 5 sqrt((1 - mu^2) / n), whatever the draws show
        code, report, _ = run_json(
            capsys, "hvsim", "--q", "0.2", "--samples", str(samples), "--seed", "0"
        )
        assert code == EXIT_OK
        results = report["results"]
        bands = dict(zip(("correlation", "marginal_a", "marginal_b"), report["checks"]))
        degenerate = [key for key in bands if results[key]["std_error"] == 0.0]
        assert degenerate
        for key in degenerate:
            assert abs(results[key]["mean"]) == 1.0
        for key, check in bands.items():
            mu = results["analytic"] if key == "correlation" else 0.0
            assert check["expected"] == mu
            assert check["tolerance"] == 5.0 * math.sqrt((1.0 - mu * mu) / samples) > 0.0

    def test_band_false_failure_rate_is_exact_and_small(self):
        # A correct run of n draws with model mean mu counts k outcomes +1
        # with probability binomial_pmf(n, (1 + mu)/2)[k], and fails its
        # check when its mean (2k - n)/n leaves the band around mu.  Summed
        # over every k, the worst rate is 1.67e-6 (n = 23, mu = +/-1/3); a
        # band from the sample standard error reaches 5.86e-3 (n = 12, mu = 0).
        mus = np.arange(-20, 21) / 60
        assert {0.0, 1.0 / 3.0, -1.0 / 3.0} <= set(mus.tolist())
        worst = 0.0
        for n in range(2, 501):
            means = (2 * np.arange(n + 1) - n) / n
            bands = np.array([cli._sigma_band(mu, n) for mu in mus.tolist()])
            fails = np.abs(means - mus[:, None]) > bands[:, None]
            rates = np.sum(binomial_pmf(n, (1.0 + mus) / 2.0) * fails, axis=1)
            worst = max(worst, float(rates.max()))
        assert 1e-6 < worst < 2e-6

    def test_four_samples_pass_at_the_boundary_for_every_seed(self, capsys):
        # the band 5 sqrt((1 - mu^2) / n) is at least 1 + |mu| for |mu| <= 1/3
        # and n <= 12, so it covers every run, all-same ones included
        for seed in range(200):
            code = main(["hvsim", "--q", repr(1.0 / 3.0), "--samples", "4", "--seed", str(seed)])
            assert code == EXIT_OK, seed
        capsys.readouterr()

    @pytest.mark.parametrize(
        "samples",
        [
            # one draw above the cap, 10^15 draws (days of sampling), and
            # counts beyond any integer type numpy has
            str(MAX_SAMPLES + 1),
            "1000000000000000",
            "1152921504606846976",
            "9223372036854775807",
            "18446744073709551616",
        ],
    )
    def test_unallocatable_sample_count_exits_2(self, capsys, samples):
        # refused before the q, the axes and the seed are read
        code, out, err = run(capsys, "hvsim", "--q", "0.5", "--samples", samples)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: --samples must be <= {MAX_SAMPLES}, got {samples}\n"

    def test_one_draw_per_block(self, capsys, monkeypatch):
        # the correlation and both marginals come from a single pass, which
        # draws each block of the stream once, in order
        sizes = []
        draw_block = hiddenvar._draw_block

        def counting(streams, out):
            sizes.append(out.shape[1])
            return draw_block(streams, out)

        monkeypatch.setattr(hiddenvar, "_draw_block", counting)
        code, _, _ = run(capsys, *self.ARGS)
        assert code == EXIT_OK
        n, block = 200_000, hiddenvar._BLOCK
        assert sizes == [min(block, n - start) for start in range(0, n, block)]

    def test_sampling_loads_no_thread_pool(self):
        # every estimate runs on the caller's thread, so a many-block run
        # loads no thread pool module
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (
            "import sys, contextlib, io\n"
            "import wernerkit.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert wernerkit.cli.main(['hvsim', '--q', '0.2', '--samples', '100000']) == 0\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("--q", "0.5"), EXIT_DOMAIN),
            (("--q", "0.2", "--seed", "-1"), EXIT_USAGE),
            (("--q", "0.2", "--out", "missing/x.json"), EXIT_USAGE),
        ],
    )
    def test_failing_run_writes_only_its_error(self, capsys, tmp_path, monkeypatch, argv, code):
        # the --l axis needs normalizing, but the run fails after it is read
        monkeypatch.chdir(tmp_path)
        got, out, err = run(capsys, "hvsim", "--l", "0", "0", "2", "--samples", "10", *argv)
        assert got == code
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_axis_exits_2(self, capsys, bad):
        code, out, err = run(
            capsys, "hvsim", "--q", "0.1", "--l", bad, "0", "0",
            "--samples", "1000", "--seed", "1",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: axis --l must be finite")
        assert err.count("\n") == 1


class TestArgumentParsing:
    def test_negative_number_in_exponent_form_is_a_value(self, capsys):
        axis = ("hvsim", "--q", "0.2", "--samples", "100", "--l", "1", "0")
        code, out, err = run(capsys, *axis, "-1e-5")
        assert code == EXIT_OK
        assert (code, out, err) == run(capsys, *axis, "-0.00001")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("matrix", "--q", "-1e-300"), "mixing parameter q must be in [0, 1], got -1e-300"),
            (("matrix", "--q", "-inf"), "mixing parameter q must be in [0, 1], got -inf"),
            (("ppt", "--sweep", "-1e-3", "1", "3"), "mixing parameter q must be in [0, 1], got -0.001"),
        ],
    )
    def test_negative_exponent_form_reaches_the_range_check(self, capsys, argv, message):
        assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("decompose", "--q", "0.2", "--nodes", "1e3", "8"),
             "argument --nodes: invalid int value: '1e3'"),
            (("hvsim", "--q", "0.2", "--l", "1", "0"), "argument --l: expected 3 arguments"),
            (("ppt",), "one of the arguments --q --sweep is required"),
            (("matrix", "--q", "0.2", "x"), "unrecognized arguments: x"),
            (("matrix", "--q", "0.2", "a\nb"), "unrecognized arguments: a b"),
        ],
    )
    def test_argparse_error_is_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")

    # Pairs of calls whose second must not see the first's arguments: an
    # argv then its option's default, and a parse error then a valid argv.
    PARSER_SEQUENCE = [
        ("ppt", "--sweep", "0", "1", "3"),
        ("ppt", "--q", "0.2"),
        ("hvsim", "--q", "0.2", "--samples", "1000", "--l", "1", "0", "0", "--m", "0", "1", "0"),
        ("hvsim", "--q", "0.2", "--samples", "1000"),
        ("decompose", "--q", "0.2", "--nodes", "2", "3", "--format", "csv"),
        ("decompose", "--q", "0.2", "--format", "csv"),
        ("ppt", "--q", "0.2", "--sweep", "0", "1", "3"),
        ("ppt", "--q", "0.9", "--format", "pretty"),
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        fresh = []
        for argv in self.PARSER_SEQUENCE:
            cli._parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        cli._parser.cache_clear()
        built = count_calls(monkeypatch, cli, "build_parser")
        for argv, expected in zip(self.PARSER_SEQUENCE, fresh):
            assert self.outcome(capsys, argv) == expected, argv
        assert len(built) == 1
        assert [code for code, _, _ in fresh] == [EXIT_OK] * 6 + [EXIT_USAGE, EXIT_OK]

    def test_import_builds_no_parser(self):
        # a child process counts every parser constructed while it imports cli
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import wernerkit.cli\n"
            "print(len(built))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr

    def test_help_and_version_are_unchanged(self, capsys):
        for flag, text in (("--version", "0.1.0\n"), ("--help", "usage: wernerkit [-h]")):
            with pytest.raises(SystemExit) as exc:
                main([flag])
            assert exc.value.code == 0
            out, err = capsys.readouterr()
            assert out.startswith(text)
            assert err == ""


class TestVerifyCommand:
    def test_default_grid_passes(self, capsys):
        code, report, _ = run_json(capsys, "verify")
        assert code == EXIT_OK
        assert report["parameters"]["grid"]["q_max_ratio"] == "1/3"
        assert len(report["results"]["rows"]) == 21
        assert report["results"]["skipped"] == []

    def test_explicit_separable_grid(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "--grid", "0", "0.3333333333333333", "21"
        )
        assert code == EXIT_OK
        assert all(c["pass"] for c in report["checks"])

    def test_full_grid_skips_inseparable(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--grid", "0", "1", "11")
        assert code == EXIT_OK
        skipped = report["results"]["skipped"]
        assert len(skipped) == 7  # q = 0.4 ... 1.0
        # each skipped row's margin is the smallest eigenvalue (1 - sqrt(3q))/2
        # of its local states, negative past 1/3
        rows = {row["q"]: row for row in report["results"]["rows"]}
        for s in skipped:
            assert set(s) == {"q", "local_margin"}
            assert s["local_margin"] == rows[s["q"]]["local_margin"] < 0
            assert s["local_margin"] == pytest.approx((1 - math.sqrt(3 * s["q"])) / 2, rel=1e-15)
            assert rows[s["q"]]["skipped"] == cli.SKIP_REASON
        assert all(row["skipped"] is None for row in rows.values() if row["q"] < 1 / 3)
        ppt_checks = [c for c in report["checks"] if c["name"].startswith("ppt")]
        assert all(c["pass"] for c in ppt_checks)

    def test_non_integral_steps_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--grid", "0", "1", "2.7")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: grid steps must be a whole number, got 2.7\n"

    @pytest.mark.parametrize("steps", ["11", "11.0"])
    def test_integral_steps_run_every_point(self, capsys, steps):
        code, report, _ = run_json(capsys, "verify", "--grid", "0", "1", steps)
        assert code == EXIT_OK
        assert report["parameters"]["grid"]["steps"] == 11
        assert len(report["results"]["rows"]) == 11

    @pytest.mark.parametrize("q", ["0.0", "0.15", "0.3333333333333333"])
    def test_same_deviations_as_decompose(self, capsys, q):
        _, verify, _ = run_json(capsys, "verify", "--grid", q, q, "1")
        row = verify["results"]["rows"][0]
        _, spherical, _ = run_json(capsys, "decompose", "--q", q, "--nodes", "4", "8")
        _, wootters, _ = run_json(capsys, "decompose", "--q", q, "--method", "wootters")
        s = {c["name"]: c["observed"] for c in spherical["checks"]}
        w = {c["name"]: c["observed"] for c in wootters["checks"]}
        assert row["spherical_error"] == s["reconstruction_error"]
        assert row["moment_deviation"] == max(
            s["first_moment_a"], s["first_moment_b"], s["second_moment_deviation"]
        )
        assert row["wootters_error"] == w["reconstruction_error"]
        assert row["schmidt_max"] == w["schmidt_determinant_max"]
        assert row["phase_residual"] == w["phase_constraint_residual"]

    def test_csv_projection(self, capsys):
        code, out, _ = run(capsys, "verify", "--grid", "0", "1", "5", "--format", "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[0].split(",")[0] == "q"

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_all_skipped_grid_writes_null_deviations(self, capsys, fmt):
        code, out, _ = run(capsys, "verify", "--grid", "0.5", "1", "3", "--format", fmt)
        assert code == EXIT_OK
        if fmt == "csv":
            header, *lines = out.splitlines()
            rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
            assert [[row[key] for key in cli._VERIFY_CHECKS] for row in rows] == [[""] * 6] * 3
        else:
            for key in cli._VERIFY_CHECKS:
                assert out.count(f'"{key}": null') == out.count(f'"{key}": ') == 3


class TestReportMachinery:
    def test_json_round_trip(self, capsys):
        for argv in (
            ["matrix", "--q", "0.3"],
            ["ppt", "--q", "0.2"],
            ["decompose", "--q", "0.1"],
            ["hvsim", "--q", "0.1", "--samples", "1000", "--seed", "5"],
        ):
            _, out, _ = run(capsys, *argv)
            parsed = json.loads(out)
            assert json.dumps(parsed, indent=2) + "\n" == out

    def test_check_schema_keys(self, capsys):
        _, report, _ = run_json(capsys, "ppt", "--q", "0.2")
        for check in report["checks"]:
            assert set(check) == {"name", "pass", "observed", "expected", "tolerance"}

    def test_failing_check_maps_to_exit_1(self, capsys, monkeypatch):
        # shift the closed form the ppt report compares against, so its
        # eigenvalue check fails: the report must say FAIL and exit 1
        def shifted(q):
            return werner_pt_eigenvalues_closed_form(q) + 1e-6

        monkeypatch.setattr(cli, "werner_pt_eigenvalues_closed_form", shifted)
        code, report, _ = run_json(capsys, "ppt", "--q", "0.2")
        assert code == EXIT_CHECK_FAILED
        assert any(not c["pass"] for c in report["checks"])

    def test_all_pass_requires_every_check(self):
        report = RunReport(
            command="demo",
            parameters={},
            results={},
            checks=[Check("ok", True, 0.0, 0.0, 0.1), Check("bad", False, 1.0, 0.0, 0.5)],
        )
        assert not report.all_pass

    def test_check_value_boundary(self):
        assert check_value("edge", 1e-13, 0.0, 1e-13).passed
        assert not check_value("edge", 1.1e-13, 0.0, 1e-13).passed

    @pytest.mark.parametrize("stack, worst", [([1.0, 0.7, 1.2, 1.25], 0.7), ([1.0, 1.5, 0.6], 1.5)])
    def test_check_value_reports_the_stack_entry_farthest_from_expected(self, stack, worst):
        for tol, passed in ((0.6, True), (0.2, False)):
            check = check_value("c", np.array(stack), 1.0, tol)
            assert (check.observed, check.expected, check.tolerance) == (worst, 1.0, tol)
            assert check.passed is passed

    def test_check_value_reports_a_nan_entry(self):
        check = check_value("c", np.array([1.0, 9.0, math.nan, 1.0]), 1.0, 0.5)
        assert math.isnan(check.observed)
        assert check.passed is False

    @pytest.mark.parametrize("value", [0.25, -0.0, 3e-17, -2.5, math.inf])
    def test_check_value_on_a_0d_stack_equals_the_scalar_call(self, value):
        scalar = check_value("c", value, 0.0, 1e-16)
        for stacked in (np.array(value), np.float64(value)):
            check = check_value("c", stacked, 0.0, 1e-16)
            assert repr(dataclasses.astuple(check)) == repr(dataclasses.astuple(scalar))

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_nan_entry_of_a_stacked_check_exits_2(self, capsys, monkeypatch, fmt):
        residual = cli.wootters_phase_residual

        def nan_at_one_q(dec):
            values = np.array(residual(dec))
            values[1] = math.nan
            return values

        monkeypatch.setattr(cli, "wootters_phase_residual", nan_at_one_q)
        args = cli.build_parser().parse_args(["verify", "--grid", "0", "0.3", "4"])
        checks = {c.name: c for c in cli.cmd_verify(args).checks}
        assert math.isnan(checks["phase_constraint_residuals"].observed)
        assert not checks["phase_constraint_residuals"].passed
        code, out, err = run(capsys, "verify", "--grid", "0", "0.3", "4", "--format", fmt)
        assert (code, out, err) == (EXIT_USAGE, "", "error: report value nan is not finite\n")

    def test_csv_requires_projection(self):
        report = RunReport(command="demo", parameters={}, results={})
        with pytest.raises(ValueError, match="CSV"):
            emit_csv(report)

    def test_seed_key_only_when_present(self):
        with_seed = RunReport(command="x", parameters={}, results={}, seed=3)
        without = RunReport(command="x", parameters={}, results={})
        assert "seed" in with_seed.to_dict()
        assert "seed" not in without.to_dict()

    def test_emit_json_handles_numpy_scalars(self):
        report = RunReport(
            command="x",
            parameters={"v": np.float64(0.5), "n": np.int64(3), "b": np.bool_(True)},
            results={"arr": np.arange(3.0)},
        )
        parsed = json.loads(emit_json(report))
        assert parsed["parameters"] == {"v": 0.5, "n": 3, "b": True}
        assert parsed["results"]["arr"] == [0.0, 1.0, 2.0]

    def test_emit_json_rejects_non_finite_values(self):
        report = RunReport(command="x", parameters={}, results={"mean": float("nan")})
        with pytest.raises(ValueError):
            emit_json(report)


def _finite_report() -> RunReport:
    column = np.array([0.5, 2.0])
    nullable = cli.Nullable(np.array([False, True]), np.array([0.0, 0.75]))
    return RunReport(
        command="x",
        parameters={"q": 0.5},
        results={"mean": 0.25, "values": [0.5, 1.5], "rows": cli.Table(v=column, n=nullable)},
        checks=[check_value("c", 0.0, 0.0, 1.0)],
        csv_header=["v", "n"],
        csv_columns=[column, nullable],
    )


class TestNonFiniteGate:
    """No format writes a NaN or an infinity: rendering fails with
    ValueError, and the CLI exits 2 with one line, whatever the format."""

    def test_finite_report_renders(self):
        for emit in cli._RENDERERS.values():
            assert emit(_finite_report())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "fmt, where",
        [(fmt, where) for fmt in ("json", "pretty")
         for where in ("parameter", "scalar", "list", "table", "check", "nullable")]
        # the CSV projection: columns shared with a table
        + [("csv", "table"), ("csv", "nullable")],
    )
    def test_every_format_refuses_a_non_finite_value(self, fmt, where, bad):
        report = _finite_report()
        if where == "parameter":
            report.parameters["q"] = np.float64(bad)
        elif where == "scalar":
            report.results["mean"] = bad
        elif where == "list":
            report.results["values"][1] = bad
        elif where == "table":
            report.results["rows"].columns["v"][1] = bad
        elif where == "nullable":
            report.results["rows"].columns["n"].values[1] = bad
        else:
            report.checks[0].observed = bad
        with pytest.raises(ValueError, match="is not finite"):
            cli._RENDERERS[fmt](report)

    def test_null_rows_are_never_judged_or_written(self):
        # a Nullable holds one entry per row; those of its null rows may be
        # anything, a NaN or an infinity included
        column = cli.Nullable(np.array([False, True, False]), np.array([math.nan, 0.5, math.inf]))
        report = RunReport(command="x", parameters={}, results={"rows": cli.Table(n=column)},
                           csv_header=["n"], csv_columns=[column])
        rows = [{"n": None}, {"n": 0.5}, {"n": None}]
        assert json.loads(emit_json(report))["results"]["rows"] == rows
        assert emit_csv(report) == "n\n\n0.5\n\n"
        pretty = render.emit_pretty(report).splitlines()
        assert pretty[3:-1] == ["  " + line for line in as_json({"rows": rows}, indent=2).splitlines()]
        column.values[1] = math.inf
        for emit in cli._RENDERERS.values():
            with pytest.raises(ValueError, match="report value inf is not finite"):
                emit(report)

    def test_every_format_refuses_a_list_column(self):
        # a column is an array or a Nullable, so every float a report writes
        # passes the pool's one finite check
        report = _finite_report()
        report.results["rows"].columns["w"] = [0.5, 1.5]
        report.csv_header.append("w")
        report.csv_columns.append([0.5, 1.5])
        for emit in cli._RENDERERS.values():
            with pytest.raises(TypeError, match="cannot serialize a list column"):
                emit(report)

    @pytest.mark.parametrize("column, kind", [([], "list"), (0.5, "float"), (None, "NoneType")])
    def test_a_table_of_no_rows_is_gated_too(self, column, kind):
        # it writes nothing, yet its columns pass the same gate
        report = RunReport(command="x", parameters={}, results={"rows": cli.Table(w=column)},
                           csv_header=["w"], csv_columns=[column])
        for emit in cli._RENDERERS.values():
            with pytest.raises(TypeError, match=f"cannot serialize a {kind} column"):
                emit(report)

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_non_finite_report_exits_2(self, capsys, monkeypatch, fmt):
        ppt_test = cli.ppt_test

        def nan_eigenvalues(rho):
            verdict = ppt_test(rho)
            return dataclasses.replace(verdict, eigenvalues=verdict.eigenvalues * np.nan)

        monkeypatch.setattr(cli, "ppt_test", nan_eigenvalues)
        code, out, err = run(capsys, "ppt", "--sweep", "0", "1", "3", "--format", fmt)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: report value nan is not finite\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize("column", ["plain", "nullable"])
    def test_non_finite_column_entry_exits_2(self, capsys, monkeypatch, column, fmt, bad):
        if column == "plain":
            # one eigenvalue of a ppt sweep
            ppt_test = cli.ppt_test

            def one_bad(rho):
                verdict = ppt_test(rho)
                eigenvalues = verdict.eigenvalues.copy()
                eigenvalues[1, 2] = bad
                return dataclasses.replace(verdict, eigenvalues=eigenvalues)

            monkeypatch.setattr(cli, "ppt_test", one_bad)
            argv = ["ppt", "--sweep", "0", "1", "3"]
        else:
            # the phase residual of a tested row of a grid whose rows past
            # 1/3 are null: a present entry is never written as null
            residual = cli.wootters_phase_residual

            def one_bad(dec):
                values = np.array(residual(dec))
                values[1] = bad
                return values

            monkeypatch.setattr(cli, "wootters_phase_residual", one_bad)
            argv = ["verify", "--grid", "0", "1", "7"]
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: report value {bad} is not finite\n")


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def _strings(column, n: int) -> list[str]:
    """A scalar column that _scalar_columns returns, as a list, after
    checking that it is a 1-D object array of n strings."""
    assert isinstance(column, np.ndarray)
    assert (column.dtype, column.shape) == (object, (n,))
    assert all(type(x) is str for x in column)
    return column.tolist()


# Fixed strings that a format's text rule must write: JSON escapes a quote, a
# backslash, a control character and non-ASCII text, CSV turns a comma into
# a semicolon, and "%" and "\0" mark slots in the renderer's own templates.
_TRICKY_TEXTS = ['say "', '\\ a,b\x07 \u00e9 %s\0 ', " \u2603, \U0001f600", ""]


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 4))
    columns = {}
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["float", "vector", "bool", "int", "masked", "fixed text"]))
        # names that a %-template or a split on "\0" would misread
        name = draw(st.sampled_from(["c", "%", "%s", "50%s%%", "\0"])) + str(i)
        if kind == "masked":
            present = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            values = draw(st.lists(_FLOATS, min_size=n, max_size=n))
            columns[name] = cli.Nullable(np.array(present, dtype=bool), np.array(values))
        elif kind == "fixed text":
            # one string on the present rows, which may need JSON's escapes
            # or CSV's comma rule, or hold the marks of the renderer's own
            # templates
            present = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            text = draw(st.sampled_from(_TRICKY_TEXTS) | st.text(max_size=6))
            columns[name] = cli.Nullable(np.array(present, dtype=bool), text)
        elif kind == "bool":
            columns[name] = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        elif kind == "int":
            columns[name] = np.array(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
        else:
            k = 3 if kind == "vector" else None
            values = draw(st.lists(_FLOATS, min_size=n * (k or 1), max_size=n * (k or 1)))
            columns[name] = np.array(values, dtype=float).reshape((n, k) if k else (n,))
    return cli.Table(**columns)


# A table of one row with a column of each kind, named with "%" and "%s".
_ONE_ROW = cli.Table(**{
    "%s": np.array([-0.0]),
    "%": np.array([[1e16, -5e-324, 0.5]]),
    "n%%s": np.array([-7]),
    "b": np.array([True]),
    "m": cli.Nullable(np.array([False]), np.array([np.nan])),
    "mt": cli.Nullable(np.array([True]), 'q = "%s, \0'),
    "nt": cli.Nullable(np.array([False]), ","),
})


# A table of no rows, with a vector column and a fixed-text column.
_NO_ROWS = cli.Table(q=np.empty(0), v=np.empty((0, 3)), reason=cli.Nullable(np.empty(0, bool), "x"))


class TestRendererOracle:
    """The array renderer writes what json.dumps writes for the same values."""

    @example(table=_NO_ROWS, scalar=0.0, text="")
    @example(table=_ONE_ROW, scalar=-0.0, text="%s")
    @settings(max_examples=60, deadline=None)
    @given(table=_tables(), scalar=_FLOATS, text=st.text(max_size=8))
    def test_json_and_pretty_match_json_dumps(self, table, scalar, text):
        # the table at each depth pretty writes: on the unindented parameters
        # line, and in the results at two indentations
        results = {"x": scalar, "s": text, "empty": [], "none": None, "rows": table,
                   "nested": [{"rows": table}]}
        report = RunReport(command="t", parameters={"p": [scalar, text], "rows": table},
                           results=results)
        assert render.emit_json(report) == as_json(report.to_dict(), indent=2) + "\n"
        pretty = render.emit_pretty(report).splitlines()
        assert pretty[1] == "parameters: " + as_json(report.parameters)
        body = as_json(results, indent=2).splitlines()
        assert pretty[3 : 3 + len(body)] == ["  " + line for line in body]

    @staticmethod
    def csv_field(value) -> str:
        if value is None:
            return ""
        if isinstance(value, str):
            return value.replace(",", ";")
        return json.dumps(value)

    @classmethod
    def csv_text(cls, header, columns) -> str:
        """The CSV rule: the header, then one line per row of the columns,
        each field as csv_field writes its Python value."""
        lines = [",".join(header)]
        for row in table_rows(cli.Table(**{f"f{i}": c for i, c in enumerate(columns)})):
            flat = [x for v in row.values() for x in (v if isinstance(v, list) else [v])]
            lines.append(",".join(cls.csv_field(x) for x in flat))
        return "\n".join(lines) + "\n"

    @example(table=_NO_ROWS)
    @example(table=_ONE_ROW)
    @settings(max_examples=60, deadline=None)
    @given(table=_tables())
    def test_csv_matches_the_rows(self, table):
        n_fields = sum(np.shape(c)[1] if np.ndim(c) == 2 else 1 for c in table.columns.values())
        header = [f"f{i}" for i in range(n_fields)]
        report = RunReport(command="t", parameters={}, results={}, csv_header=header,
                           csv_columns=list(table.columns.values()))
        assert render.emit_csv(report) == self.csv_text(header, report.csv_columns)

    @example(table=_NO_ROWS)
    @example(table=_ONE_ROW)
    @settings(max_examples=60, deadline=None)
    @given(table=_tables())
    def test_every_scalar_column_is_an_object_array_of_strings(self, table):
        n = len(table_rows(table))
        for text in (render._json_scalar, render._csv_scalar):
            written = render._scalar_columns(list(table.columns.values()), text)
            assert len(written) == sum(map(render._width, table.columns.values()))
            for column in written:
                _strings(column, n)

    @pytest.mark.parametrize(
        "argv",
        [
            # a zero-row skipped table beside the rows
            ["verify", "--grid", "0", "0.3", "5"],
            # one-row tables
            ["verify", "--grid", "0.5", "0.5", "1"],
            ["ppt", "--sweep", "0.2", "0.2", "1"],
            # integer columns in CSV
            ["matrix", "--q", "0.2"],
            ["decompose", "--q", "0.2", "--method", "wootters"],
            ["decompose", "--q", "0.2", "--nodes", "2", "3"],
        ],
    )
    def test_command_reports_match_the_oracles(self, argv):
        args = cli.build_parser().parse_args(argv)
        report = args.handler(args)
        assert render.emit_json(report) == as_json(report.to_dict(), indent=2) + "\n"
        assert render.emit_csv(report) == self.csv_text(report.csv_header, report.csv_columns)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            # every verify argv of golden.py that gives a report
            ["verify"],
            ["verify", "--grid", "0", "1", "7"],
            ["verify", "--grid", "0", "1", "1001"],
            ["verify", "--grid", "0.5", "1", "3"],
            ["verify", "--grid", "1", "0", "1001"],
            ["verify", "--grid", "0.3", "0.34", "5001"],
            ["verify", "--grid", "0.0026872848822480245", "0.9969486747387446", "1001"],
            *(["verify", "--grid", q, q, "1"]
              for q in ("0.3333333334", "0.33333333333333687", "0.3333333333333369")),
        ],
    )
    def test_oracles_give_the_recorded_verify_digests(self, argv, fmt):
        # the golden digest of each verify report, skip texts included,
        # recomputed from the oracles' text alone
        args = cli.build_parser().parse_args(argv)
        report = args.handler(args)
        if fmt == "json":
            text = as_json(report.to_dict(), indent=2) + "\n"
        else:
            text = self.csv_text(report.csv_header, report.csv_columns)
        code = EXIT_OK if report.all_pass else EXIT_CHECK_FAILED
        record = [code, text, "".join(line + "\n" for line in report.warnings)]
        expected = golden.load()[golden.case_id([*argv, "--format", fmt])]
        assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == expected


# Floats whose repr is easy to get wrong: the signed zeros, the smallest
# subnormals, the largest doubles, and the doubles on each side of the
# points where repr switches to exponent notation.
_EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
    1.7976931348623157e308, -1.7976931348623157e308,
]


@st.composite
def _float_columns(draw) -> np.ndarray:
    """A float column of shape (n,) or (n, k), n >= 0, its values drawn
    freely, all negative, or from a pool of at most three."""
    n, k = draw(st.integers(0, 12)), draw(st.sampled_from([None, 1, 3]))
    size = n * (k or 1)
    floats = st.sampled_from(_EDGE_FLOATS) | _FLOATS
    mode = draw(st.sampled_from(["free", "negative", "repeated"]))
    if mode == "repeated":
        floats = st.sampled_from(draw(st.lists(floats, min_size=1, max_size=3)))
    values = draw(st.lists(floats, min_size=size, max_size=size))
    if mode == "negative":
        values = [-abs(v) for v in values]
    return np.array(values, dtype=float).reshape((n, k) if k else (n,))


class TestFloatColumnOracle:
    """A float column is written with one repr per distinct magnitude, yet
    every entry reads exactly as repr of its own value, in JSON and CSV."""

    @example(np.array(_EDGE_FLOATS))
    @example(np.array(_EDGE_FLOATS).reshape(5, 2))
    @example(-np.abs(np.array(_EDGE_FLOATS)))
    @example(np.full((4, 3), -0.0))
    @example(np.empty(0))
    @example(np.empty((0, 3)))
    @example(np.array([-5e-324]))
    @example(np.array([[1e16, -0.0, 9.999999999999999e-05]]))
    @settings(max_examples=200, deadline=None)
    @given(_float_columns())
    def test_every_entry_is_its_own_repr(self, column):
        subs = column.T if column.ndim == 2 else column[None]
        expected = [[repr(v) for v in sub] for sub in subs.tolist()]
        magnitudes = len(np.unique(np.abs(column)))
        for text in (render._json_scalar, render._csv_scalar):
            written = [_strings(c, len(column)) for c in render._scalar_columns([column], text)]
            assert written == expected
            # entries of one magnitude and sign share one string
            assert len({id(x) for sub in written for x in sub}) <= 2 * magnitudes

    def test_nullable_column(self):
        column = cli.Nullable(np.array([True, False, True, False]), np.array([-0.0, 0.0, 2.5, 0.0]))
        (json_column,) = render._scalar_columns([column], render._json_scalar)
        (csv_column,) = render._scalar_columns([column], render._csv_scalar)
        assert _strings(json_column, 4) == ["-0.0", "null", "2.5", "null"]
        assert _strings(csv_column, 4) == ["-0.0", "", "2.5", ""]

    @pytest.mark.parametrize("text", _TRICKY_TEXTS)
    def test_fixed_text_nullable_column(self, text):
        # JSON writes the string escaped as json.dumps does, CSV with its
        # commas as semicolons, and both write null rows as null
        column = cli.Nullable(np.array([False, True, True]), text)
        (json_column,) = render._scalar_columns([column], render._json_scalar)
        (csv_column,) = render._scalar_columns([column], render._csv_scalar)
        assert _strings(json_column, 3) == ["null", json.dumps(text), json.dumps(text)]
        assert _strings(csv_column, 3) == ["", text.replace(",", ";"), text.replace(",", ";")]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_float_columns(), min_size=1, max_size=4), st.booleans())
    def test_one_string_per_magnitude_and_sign_across_columns(self, columns, mirror):
        # the float columns of a table share one string per distinct
        # magnitude and sign, as the node table's b = -a shares a's
        n = min(len(c) for c in columns)
        columns = [c[:n] for c in columns]
        if mirror:
            columns.append(-columns[0])
        # an integer or a boolean column gives JSON's text
        columns.insert(1, np.arange(n))
        columns.insert(2, np.arange(n) % 3 == 0)
        expected = [
            [repr(v) if isinstance(v, float) else json.dumps(v) for v in sub]
            for c in columns
            for sub in (c.T if c.ndim == 2 else c[None]).tolist()
        ]
        from_floats = [c.dtype == float for c in columns for _ in range(render._width(c))]
        magnitudes = np.unique(np.abs(np.concatenate([c.ravel() for c in columns if c.dtype == float])))
        for text in (render._json_scalar, render._csv_scalar):
            written = [_strings(c, n) for c in render._scalar_columns(columns, text)]
            assert written == expected
            floats = [x for sub, f in zip(written, from_floats) if f for x in sub]
            assert len({id(x) for x in floats}) <= 2 * len(magnitudes)

    def test_node_table_shares_a_strings_with_b(self):
        dec = spherical_decomposition(np.array([0.2]), 64, 128)
        columns = [dec.nodes[:, 0], dec.nodes[:, 1], dec.weights, dec.a[0], dec.b[0]]
        n = len(dec.weights)
        written = [_strings(c, n) for c in render._scalar_columns(columns, render._json_scalar)]
        magnitudes = np.unique(np.abs(np.concatenate([c.ravel() for c in columns])))
        assert len({id(x) for sub in written for x in sub}) <= 2 * len(magnitudes)
        # each b entry is a's string with its sign flipped
        for a, b in zip(written[3:6], written[6:9]):
            assert b == [x[1:] if x.startswith("-") else "-" + x for x in a]


def test_verify_grid_json_formats_each_distinct_magnitude_once(monkeypatch, capsys):
    # the seed-1 verify_grid report: its tables, parameters and checks share
    # one pool of float strings, so cli calls repr on a float once per
    # distinct magnitude the report writes
    formatted = []

    def counting_repr(value):
        if isinstance(value, float):
            formatted.append(value)
        return repr(value)

    monkeypatch.setattr(render, "repr", counting_repr, raising=False)
    code, out, _ = run(capsys, "verify", "--grid", "0.0026872848822480245", "0.9969486747387446", "1001")
    assert code == EXIT_OK
    written = []
    report = json.loads(out, parse_float=lambda s: written.append(float(s)) or float(s))
    assert len(report["results"]["skipped"]) == 668
    assert len(formatted) == len({abs(x) for x in written})


def test_decompose_dense_json_formats_each_distinct_magnitude_once(monkeypatch, capsys):
    # the seed-1 decompose_dense report: the 73,728 floats of its node table
    # hold 5,866 distinct magnitudes, and the report makes one repr per
    # distinct magnitude it writes, its parameters and checks included
    formatted = []

    def counting_repr(value):
        if isinstance(value, float):
            formatted.append(value)
        return repr(value)

    monkeypatch.setattr(render, "repr", counting_repr, raising=False)
    code, out, _ = run(capsys, "decompose", "--q", "0.044788081370800405", "--method", "spherical",
                       "--nodes", "64", "128")
    assert code == EXIT_OK
    written = []
    report = json.loads(out, parse_float=lambda s: written.append(float(s)) or float(s))
    nodes = report["results"]["nodes"]
    assert len(nodes) == 64 * 128
    table = [x for row in nodes for v in row.values() for x in (v if isinstance(v, list) else [v])]
    assert len({abs(x) for x in table}) == 5866
    assert len(formatted) == len({abs(x) for x in written})


class TestOutOfMemory:
    """An argument whose arrays cannot be allocated exits 2 with one line.
    Each run is a child process with a 1 GiB address-space limit that the
    test sets on the child alone."""

    @staticmethod
    def _limit_address_space(limit=1 << 30):
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    @staticmethod
    def _run_limited(argv, limit=1 << 30, **kwargs):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        return subprocess.run(
            [sys.executable, "-m", "wernerkit.cli", *argv], text=True, env=env, timeout=120,
            preexec_fn=lambda: TestOutOfMemory._limit_address_space(limit), **kwargs,
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["ppt", "--sweep", "0", "1", "1e12"],
            ["verify", "--grid", "0", "1", "1e12"],
            # 2^53 steps, the most _q_grid takes
            ["ppt", "--sweep", "0", "1", "9007199254740992"],
            ["verify", "--grid", "0", "1", "9007199254740992"],
        ],
    )
    def test_unallocatable_report_exits_2(self, argv):
        proc = self._run_limited(argv, capture_output=True)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == f"error: the {argv[0]} report needs more memory than can be allocated\n"

    def test_largest_node_grid_renders_within_the_limit(self):
        # the node caps take no grid that this limit refuses: 1000 x 1000
        # nodes, about 364 MB of JSON, exit 0
        argv = ["decompose", "--q", "0.2", "--nodes", "1000", "1000"]
        proc = self._run_limited(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_large_node_table_renders_in_bounded_memory(self, fmt):
        # 200,000 node rows, about 50 MB of text, under a 384 MiB limit.
        # Written as one list of fragments joined once, the report needed
        # about 310 MiB in either format; writing one string per container
        # level needed about 450 MiB for JSON and 338 MiB for CSV.
        argv = ["decompose", "--q", "0.2", "--nodes", "200", "1000", "--format", fmt]
        proc = self._run_limited(
            argv, 384 << 20, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")

    def test_large_grid_renders_within_a_limit_one_pass_exceeds(self):
        # 100,000 tested verify rows, about 51 MB of JSON, under a 256 MiB
        # limit.  Evaluated as one stack and written as one string, the
        # report took about 342 MB of RSS and exited 2 under this limit
        argv = ["verify", "--grid", "0", "0.3333333333333333", "100000"]
        proc = self._run_limited(argv, 256 << 20, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")


class TestStreamedWrite:
    """A report is written chunk by chunk once every gate has passed: blocks
    of report._POOL_ROWS table rows, each formatted from one pool of float
    strings, written report._CHUNK_ROWS rows at a time, give the bytes of one
    whole-report pass, and a report that exits 2 has written nothing."""

    ARGVS = [
        # a rows table of 23 and a skipped table of 15 that share blocks
        ["verify", "--grid", "0", "1", "23"],
        # an empty skipped table after the rows
        ["verify", "--grid", "0", "0.3", "5"],
        ["ppt", "--sweep", "0", "1", "11"],
        ["decompose", "--q", "0.2", "--nodes", "3", "5"],
        # reports whose JSON floats all sit outside tables
        ["hvsim", "--q", "0.2", "--samples", "100", "--seed", "1"],
        ["decompose", "--q", "0.2", "--method", "wootters"],
        ["matrix", "--q", "0.3"],
    ]

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize("argv", ARGVS)
    # a block of 23 rows ends where the verify rows table does
    @pytest.mark.parametrize("pool, chunk", [(1, 1), (5, 3), (23, 2)])
    def test_blocks_and_chunks_write_the_same_bytes(self, capsys, monkeypatch, argv, fmt, pool, chunk):
        expected = run(capsys, *argv, "--format", fmt)
        monkeypatch.setattr(render, "_POOL_ROWS", pool)
        monkeypatch.setattr(render, "_CHUNK_ROWS", chunk)
        assert run(capsys, *argv, "--format", fmt) == expected

    def test_a_table_is_written_in_chunks(self, monkeypatch):
        # 11 rows 3 at a time: the header goes with the first chunk
        monkeypatch.setattr(render, "_CHUNK_ROWS", 3)
        args = cli.build_parser().parse_args(["ppt", "--sweep", "0", "1", "11"])
        text = cli._RENDERERS["csv"](args.handler(args))
        chunks = list(text)
        assert [chunk.count("\n") for chunk in chunks] == [4, 3, 3, 2]
        assert "".join(chunks) == str(text) == emit_csv(args.handler(args))
        assert text.encode() == str(text).encode()

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_a_non_finite_last_row_writes_nothing(self, capsys, monkeypatch, tmp_path, fmt):
        monkeypatch.setattr(render, "_POOL_ROWS", 1)
        monkeypatch.setattr(render, "_CHUNK_ROWS", 1)
        ppt_test = cli.ppt_test

        def last_row_bad(rho):
            verdict = ppt_test(rho)
            eigenvalues = verdict.eigenvalues.copy()
            eigenvalues[-1, -1] = math.inf
            return dataclasses.replace(verdict, eigenvalues=eigenvalues)

        monkeypatch.setattr(cli, "ppt_test", last_row_bad)
        argv = ["ppt", "--sweep", "0", "1", "11", "--format", fmt]
        failed = (EXIT_USAGE, "", "error: report value inf is not finite\n")
        assert run(capsys, *argv) == failed
        target = tmp_path / "report.out"
        assert run(capsys, *argv, "--out", str(target)) == failed
        assert not target.exists()

    def test_a_failed_second_write_exits_2_with_one_line(self, capsys, monkeypatch):
        class SecondWriteFails(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 2:
                    raise OSError(errno.EPIPE, os.strerror(errno.EPIPE))
                return super().write(text)

        argv = ["ppt", "--sweep", "0", "1", "11", "--format", "csv"]
        _, expected, _ = run(capsys, *argv)
        monkeypatch.setattr(render, "_CHUNK_ROWS", 2)
        stdout = SecondWriteFails()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: cannot write report to stdout: Broken pipe\n"
        # the first chunk, the header and two rows, was written
        assert stdout.getvalue() == "".join(expected.splitlines(True)[:3])

    def test_a_failed_write_to_stdout_writes_no_axis_warning(self, capsys, monkeypatch):
        # hvsim's axis warnings follow a written report, on stdout as with
        # --out, so a run that exits 2 writes the error line alone
        class WriteFails(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", WriteFails())
        assert main(["hvsim", "--q", "0.2", "--samples", "10", "--l", "2", "0", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: cannot write report to stdout: No space left on device\n"


class TestArgvFuzz:
    """The hypothesis fuzz of main(argv) in argv_fuzz.py, run in one child
    process with one BLAS thread and a 1 GiB address-space limit that the
    test sets on the child alone.  A numpy RuntimeWarning is an error there,
    since it would add a second stderr line."""

    def test_every_argv_gives_a_report_or_one_error_line(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = os.path.join(os.path.dirname(__file__), "argv_fuzz.py")
        threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", script],
            capture_output=True, text=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src, **threads), timeout=300,
            preexec_fn=TestOutOfMemory._limit_address_space,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.endswith(" argv checked\n")


class TestOutputFile:
    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "matrix", "--q", "0.2", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        parsed = json.loads(target.read_text())
        assert parsed["command"] == "matrix"

    @pytest.mark.parametrize("where", ["missing/report.json", "."])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, where):
        target = tmp_path / where
        code, out, err = run(capsys, "matrix", "--q", "0.2", "--out", str(target))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: cannot write report to {target}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("exists", [False, True])
    def test_trailing_slash_names_a_directory(self, tmp_path, capsys, exists):
        # the path is used as given: its slash is never dropped to write a
        # file named report.json, or to write over an existing one
        if exists:
            (tmp_path / "report.json").write_text("kept\n")
        target = f"{tmp_path / 'report.json'}/"
        code, out, err = run(capsys, "verify", "--grid", "0", "0.3", "2", "--out", target)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: cannot write report to {target}: Is a directory\n")
        assert [p.name for p in tmp_path.iterdir()] == (["report.json"] if exists else [])
        if exists:
            assert (tmp_path / "report.json").read_text() == "kept\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "argv", [["ppt", "--q", "0.2"], ["decompose", "--q", "0.2", "--nodes", "64", "128"]]
    )
    def test_full_stdout_exits_2_with_one_line(self, argv):
        # a child process, so that the interpreter's own flush of stdout at
        # exit runs too; the write fails whether the report fits the
        # stream's buffer or not
        src = os.path.dirname(os.path.dirname(cli.__file__))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "wernerkit", *argv], stdout=full, stderr=subprocess.PIPE,
                text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
            )
        assert (proc.returncode, proc.stderr) == (
            EXIT_USAGE, "error: cannot write report to stdout: No space left on device\n"
        )

    @staticmethod
    def _run_closed(argv, fd, **kwargs):
        """A child process run with file descriptor fd (1 or 2) closed, as a
        shell's >&- or 2>&- leaves it."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        return subprocess.run(
            [sys.executable, "-m", "wernerkit", *argv], text=True, preexec_fn=lambda: os.close(fd),
            env=dict(os.environ, PYTHONPATH=src), timeout=120, **kwargs,
        )

    def test_closed_stdout_exits_2_with_one_line(self):
        proc = self._run_closed(["ppt", "--q", "0.2"], 1, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (
            EXIT_USAGE, "error: cannot write report to stdout: Bad file descriptor\n"
        )

    @pytest.mark.parametrize(
        "argv, code",
        [
            # the axis warning is lost; the report and its exit code are not
            (["hvsim", "--q", "0.2", "--l", "2", "0", "0", "--samples", "1000", "--format", "csv"], EXIT_OK),
            (["ppt", "--q", "2"], EXIT_USAGE),
        ],
    )
    def test_closed_stderr_keeps_the_report_and_the_exit_code(self, capsys, argv, code):
        proc = self._run_closed(argv, 2, stdout=subprocess.PIPE)
        expected_code, expected_out, _ = run(capsys, *argv)
        assert (proc.returncode, proc.stdout) == (code, expected_out)
        assert expected_code == code
