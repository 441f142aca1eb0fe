"""One separability boundary: the PT verdict, the positivity of the local
states, both decompositions, the hidden-variable sampler and every command
that decides on q give the same answer at every q around 1/3, and that answer
is q <= SEPARABLE_Q_EDGE."""

import decimal
import json
import math

import numpy as np
import pytest

from wernerkit import separability
from wernerkit.cli import EXIT_CHECK_FAILED, EXIT_DOMAIN, EXIT_OK, main
from wernerkit.decomposition import (
    DecompositionDomainError,
    local_margin,
    spherical_decomposition,
    wootters_decomposition,
)
from wernerkit.separability import ppt_test
from wernerkit.states import (
    BLOCH_NORM_MAX,
    PPT_TOL,
    SEPARABLE_Q_EDGE,
    SEPARABLE_Q_MAX,
    product_state,
    werner,
)

# 1/3 -+ offsets well past rounding, on both sides of the threshold.
OFFSET_QS = [SEPARABLE_Q_MAX + s * d for d in (1e-13, 1e-12, 1e-11, 1e-10, 1.4e-10) for s in (-1, 1)]

# The double nearest 1/3 and every double within 2^14 ulps of it, which are
# the doubles within 2^-40 of 1/3.
NEAR_ULPS = np.arange(-(2**14), 2**14 + 1)
NEAR_QS = SEPARABLE_Q_MAX + NEAR_ULPS * math.ulp(SEPARABLE_Q_MAX)


def accepts(decomposition, q) -> bool:
    """Whether the constructor accepts q, or every q of a stack of q."""
    try:
        decomposition(q)
    except DecompositionDomainError:
        return False
    return True


def test_near_qs_are_consecutive_doubles_around_the_edge():
    assert np.all(np.nextafter(NEAR_QS[:-1], 1.0) == NEAR_QS[1:])
    assert NEAR_QS[0] < SEPARABLE_Q_MAX < SEPARABLE_Q_EDGE < NEAR_QS[-1]
    assert SEPARABLE_Q_EDGE in NEAR_QS


def test_verdict_and_decompositions_agree_with_the_edge_at_every_q():
    qs = np.concatenate([NEAR_QS, OFFSET_QS])
    inside = qs <= SEPARABLE_Q_EDGE
    separable = ppt_test(werner(qs)).separable
    mismatched = qs[separable != inside]
    assert mismatched.size == 0, mismatched[:5].tolist()
    # a stack is accepted only if every q in it is, and its entries equal the
    # one-q results (TestStackOracle), so the accepted q take one call each;
    # a stack stops at its first refused q, so those are run one by one
    assert accepts(spherical_decomposition, qs[inside])
    assert accepts(wootters_decomposition, qs[inside])
    for q in qs[~inside].tolist():
        assert not accepts(spherical_decomposition, q), q
        assert not accepts(wootters_decomposition, q), q


def test_local_positivity_gives_the_pt_verdict_at_every_q():
    # the paper's reading of the threshold: W(q) is separable where its local
    # states (I +- a.sigma)/2, |a| = sqrt(3q), are positive
    local = local_margin(NEAR_QS) >= -PPT_TOL
    assert np.array_equal(local, ppt_test(werner(NEAR_QS)).separable)
    assert np.array_equal(local, NEAR_QS <= SEPARABLE_Q_EDGE)


def test_the_naive_margin_misses_the_edge_by_two_doubles():
    # (1 - sqrt(3q))/2 rounds across -PPT_TOL 65 and 66 doubles above 1/3,
    # past the edge at 64, which is why local_margin takes the numerator
    # (1 - 2q) - q, exact near 1/3
    assert NEAR_QS[NEAR_ULPS == 64] == SEPARABLE_Q_EDGE
    naive = (1 - np.sqrt(3 * NEAR_QS)) / 2 >= -PPT_TOL
    assert NEAR_ULPS[naive != (NEAR_QS <= SEPARABLE_Q_EDGE)].tolist() == [65, 66]


def test_local_margin_is_within_3_ulps_of_the_exact_value():
    # against (1 - sqrt(3q))/2 at 60 digits, on a grid of [0, 1] and every
    # eighth double near 1/3; the worst of these is 2.70 ulps, at q = 0.19125
    qs = np.concatenate([np.linspace(0.0, 1.0, 20001), NEAR_QS[::8]])
    worst = 0
    with decimal.localcontext() as context:
        context.prec = 60
        for q, margin in zip(qs.tolist(), local_margin(qs).tolist()):
            exact = (1 - (3 * decimal.Decimal(q)).sqrt()) / 2
            worst = max(worst, abs(decimal.Decimal(margin) - exact) / decimal.Decimal(math.ulp(float(exact))))
    assert worst <= 3


def ppt_separable(pairs) -> np.ndarray:
    return ppt_test(np.array([product_state(a, b) for a, b in pairs])).separable


def test_product_states_on_the_axes_at_the_bloch_bound_are_separable():
    # PPT_TOL leaves room for every norm bloch_state accepts: the diagonal
    # PT spectra here are exact and reach (1 - BLOCH_NORM_MAX)/2
    axes = [s * r * e for e in np.eye(3) for s in (1.0, -1.0) for r in (1.0, BLOCH_NORM_MAX)]
    assert ppt_separable([(a, b) for a in axes for b in axes]).all()


def test_random_pure_product_states_are_separable():
    rng = np.random.default_rng(7)
    unit = rng.normal(size=(4000, 3))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    at_bound = unit * BLOCH_NORM_MAX
    # the vectors whose norm, as np.linalg.norm gives it for one vector,
    # rounds to at most the bound
    at_bound = at_bound[[np.linalg.norm(v) <= BLOCH_NORM_MAX for v in at_bound]]
    assert len(at_bound) > 3000
    for v in (unit, at_bound):
        half = len(v) // 2
        assert ppt_separable(zip(v[:half], v[half:2 * half])).all()


@pytest.mark.parametrize("nodes", [(2, 3), (7, 11), (16, 32)])
def test_edge_decomposition_nodes_are_separable_states(nodes):
    dec = spherical_decomposition(SEPARABLE_Q_EDGE, *nodes)
    assert ppt_separable(zip(dec.a, dec.b)).all()


def run_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


CLI_QS = [
    *OFFSET_QS,
    math.nextafter(SEPARABLE_Q_EDGE, 0.0),
    SEPARABLE_Q_EDGE,
    math.nextafter(SEPARABLE_Q_EDGE, 1.0),
    0.3333333334,
]


@pytest.mark.parametrize("q", CLI_QS, ids=repr)
def test_every_command_gives_one_answer(capsys, q):
    arg = repr(q)
    code, report = run_json(capsys, "ppt", "--q", arg)
    assert code == EXIT_OK
    separable = report["results"]["separable"]
    assert separable == (q <= SEPARABLE_Q_EDGE)

    expected = EXIT_OK if separable else EXIT_DOMAIN
    for argv in (
        ["decompose", "--q", arg],
        ["decompose", "--q", arg, "--method", "wootters"],
        ["hvsim", "--q", arg, "--samples", "1000"],
    ):
        assert main(argv) == expected, argv
    capsys.readouterr()

    code, report = run_json(capsys, "verify", "--grid", arg, arg, "1")
    assert code == EXIT_OK
    [row] = report["results"]["rows"]
    assert row["separable"] is separable
    assert (row["local_margin"] >= -PPT_TOL) is separable
    assert (row["skipped"] is None) is separable


def test_verdict_check_sees_a_widened_pt_tolerance(capsys, monkeypatch):
    # a PT tolerance of 1e-10 accepts q up to 1/3 + 1.3e-10; the check
    # compares the verdict with q <= SEPARABLE_Q_EDGE, not with that tolerance
    monkeypatch.setattr(separability, "PPT_TOL", 1e-10)
    code, report = run_json(capsys, "ppt", "--q", "0.3333333334")
    assert code == EXIT_CHECK_FAILED
    assert report["results"]["separable"] is True
    assert report["results"]["expected_separable"] is False
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    assert checks == {"eigenvalues_match_closed_form": True, "verdict_matches_closed_form": False}


def test_golden_set_pins_the_edge_and_the_double_past_it():
    import golden

    qs = {argv[2] for argv in golden.ARGVS if argv[:2] == ["ppt", "--q"]}
    assert {repr(SEPARABLE_Q_EDGE), repr(math.nextafter(SEPARABLE_Q_EDGE, 1.0))} <= qs
