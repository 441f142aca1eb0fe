"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines on the terminal.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import werner_matrix_closed_form
from wernerkit.cli import main
from wernerkit.decomposition import (
    DecompositionDomainError,
    moment_check,
    reconstruct,
    schmidt_determinant,
    schmidt_rank_one_check,
    spherical_decomposition,
    wootters_decomposition,
    wootters_phase_residual,
)
from wernerkit.separability import ppt_test, werner_pt_eigenvalues_closed_form
from wernerkit.states import werner
from wernerkit.tolerances import PHASE_TOL, SCHMIDT_TOL

Q_THIRD = 1.0 / 3.0
Q_GRID_101 = np.linspace(0.0, 1.0, 101)

HV_SEED = 7
HV_SAMPLES = 1_000_000
HV_QS = [0.0, 0.15, Q_THIRD]
HV_AXIS_PAIRS = [
    ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
    ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
]


def report_line(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def test_criterion_1_werner_matrix_fidelity():
    start = time.perf_counter()
    max_err = max(
        float(np.max(np.abs(werner(q) - werner_matrix_closed_form(q))))
        for q in Q_GRID_101
    )
    elapsed = time.perf_counter() - start
    ok = max_err <= 1e-15 and elapsed < 0.1
    report_line(1, ok, f"matrix fidelity max error {max_err:.2e} (tol 1e-15), {elapsed:.3f}s")
    assert max_err <= 1e-15
    assert elapsed < 0.1


def test_criterion_2_partial_transpose_spectrum():
    start = time.perf_counter()
    max_dev = 0.0
    for q in Q_GRID_101:
        verdict = ppt_test(werner(q))
        closed = werner_pt_eigenvalues_closed_form(q)
        max_dev = max(max_dev, float(np.max(np.abs(np.array(verdict.eigenvalues) - closed))))
    at_critical = ppt_test(werner(Q_THIRD)).separable
    past_critical = ppt_test(werner(Q_THIRD + 1e-9)).separable
    elapsed = time.perf_counter() - start
    ok = max_dev <= 1e-12 and at_critical and not past_critical and elapsed < 1.0
    report_line(
        2,
        ok,
        f"spectrum max deviation {max_dev:.2e} (tol 1e-12), verdict flips at 1/3, {elapsed:.3f}s",
    )
    assert max_dev <= 1e-12
    assert at_critical and not past_critical
    assert elapsed < 1.0


def test_criterion_3_spherical_reconstruction():
    start = time.perf_counter()
    max_recon = 0.0
    max_moment = 0.0
    for q in (0.0, 0.1, 0.2, Q_THIRD):
        for n_theta, n_phi in ((2, 3), (8, 16)):
            dec = spherical_decomposition(q, n_theta, n_phi)
            err = float(np.max(np.abs(reconstruct(dec) - werner(q))))
            max_recon = max(max_recon, err)
            moments = moment_check(dec)
            max_moment = max(
                max_moment,
                float(np.max(np.abs(moments.first_moment_a))),
                float(np.max(np.abs(moments.first_moment_b))),
                float(np.max(np.abs(moments.second_moment + q * np.eye(3)))),
            )
    elapsed = time.perf_counter() - start
    ok = max_recon <= 1e-12 and max_moment <= 1e-13 and elapsed < 0.1
    report_line(
        3,
        ok,
        f"reconstruction max error {max_recon:.2e} (tol 1e-12), "
        f"moments max deviation {max_moment:.2e} (tol 1e-13), {elapsed:.3f}s",
    )
    assert max_recon <= 1e-12
    assert max_moment <= 1e-13
    assert elapsed < 0.1


def test_criterion_4_positivity_threshold():
    rejected = []
    for q in (Q_THIRD + 1e-6, 0.5, 1.0):
        with pytest.raises(DecompositionDomainError) as spherical_exc:
            spherical_decomposition(q)
        with pytest.raises(DecompositionDomainError):
            wootters_decomposition(q)
        payload_ok = spherical_exc.value.bloch_norm == pytest.approx(math.sqrt(3 * q), abs=1e-15)
        rejected.append(payload_ok)
    accepted = []
    for q in (0.0, Q_THIRD):
        accepted.append(
            spherical_decomposition(q).q == q and wootters_decomposition(q).q == q
        )
    ok = all(rejected) and all(accepted)
    report_line(
        4,
        ok,
        "both constructors reject q in {1/3+1e-6, 0.5, 1.0} with |a| = sqrt(3q) payload "
        "and accept q in {0, 1/3}",
    )
    assert all(rejected)
    assert all(accepted)


def test_criterion_5_wootters_decomposition():
    # every z_i is judged by the one product-state rule,
    # |det z_i| <= SCHMIDT_TOL <z_i|z_i>, and the phases by the residual of
    # the factors that build z, the rules the CLI's checks share
    start = time.perf_counter()
    max_recon = 0.0
    max_ratio = 0.0
    products = True
    max_residual = 0.0
    for q in (0.0, 0.05, 0.1, 0.2, 0.3, Q_THIRD):
        dec = wootters_decomposition(q)
        max_recon = max(max_recon, float(np.max(np.abs(reconstruct(dec) - werner(q)))))
        products = products and all(schmidt_rank_one_check(z) for z in dec.z)
        max_ratio = max(
            max_ratio, *(abs(schmidt_determinant(z)) / np.vdot(z, z).real for z in dec.z)
        )
        max_residual = max(max_residual, wootters_phase_residual(dec))
    elapsed = time.perf_counter() - start
    ok = max_recon <= 1e-12 and products and max_residual <= PHASE_TOL and elapsed < 0.1
    report_line(
        5,
        ok,
        f"resummation max error {max_recon:.2e} (tol 1e-12), Schmidt |det|/<z|z> max "
        f"{max_ratio:.2e} (tol {SCHMIDT_TOL:g}), phase residual max {max_residual:.2e} "
        f"(tol {PHASE_TOL:g}), {elapsed:.3f}s",
    )
    assert max_recon <= 1e-12
    assert products
    assert max_residual <= PHASE_TOL
    assert elapsed < 0.1


def _hvsim_argv(q, l, m):
    return [
        "hvsim",
        "--q", repr(q),
        "--l", repr(l[0]), repr(l[1]), repr(l[2]),
        "--m", repr(m[0]), repr(m[1]), repr(m[2]),
        "--samples", str(HV_SAMPLES),
        "--seed", str(HV_SEED),
    ]


def _run_hvsim_reports(capsys):
    reports = []
    for q in HV_QS:
        for l, m in HV_AXIS_PAIRS:
            code = main(_hvsim_argv(q, l, m))
            out = capsys.readouterr().out
            reports.append((q, l, m, code, out))
    return reports


def test_criterion_6_hidden_variable_monte_carlo(capsys):
    start = time.perf_counter()
    reports = _run_hvsim_reports(capsys)
    elapsed = time.perf_counter() - start
    worst = 0.0
    all_ok = True
    for q, l, m, code, out in reports:
        payload = json.loads(out)
        corr = payload["results"]["correlation"]
        analytic = -q * float(np.dot(l, m))
        corr_ok = abs(corr["mean"] - analytic) <= 5 * corr["std_error"]
        marg_ok = all(
            abs(payload["results"][key]["mean"]) <= 5 * payload["results"][key]["std_error"]
            for key in ("marginal_a", "marginal_b")
        )
        all_ok = all_ok and corr_ok and marg_ok and code == 0
        if corr["std_error"] > 0:
            worst = max(worst, abs(corr["mean"] - analytic) / corr["std_error"])
    ok = all_ok and elapsed < 10.0
    report_line(
        6,
        ok,
        f"9 (q, axes) combos at {HV_SAMPLES} samples, worst deviation "
        f"{worst:.2f} sigma (band 5 sigma), marginals within 5 sigma, {elapsed:.2f}s (limit 10s)",
    )
    assert all_ok
    assert elapsed < 10.0


def test_criterion_7_cross_decomposition_consistency():
    max_gap = 0.0
    for q in (0.0, 0.05, 0.1, 0.2, 0.3, Q_THIRD):
        spherical = reconstruct(spherical_decomposition(q))
        wootters = reconstruct(wootters_decomposition(q))
        max_gap = max(max_gap, float(np.max(np.abs(spherical - wootters))))
    ok = max_gap <= 1e-11
    report_line(7, ok, f"spherical vs four-vector max gap {max_gap:.2e} (tol 1e-11)")
    assert max_gap <= 1e-11


def test_criterion_8_determinism(capsys):
    first = _run_hvsim_reports(capsys)
    second = _run_hvsim_reports(capsys)
    identical = all(a[4] == b[4] for a, b in zip(first, second))
    ok = identical and len(first) == 9
    report_line(8, ok, "re-running the 9 seeded reports reproduces byte-identical JSON")
    assert identical
