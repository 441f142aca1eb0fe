import contextlib
import io

import numpy as np
import pytest

import tracing
import wernerkit.cli as cli
from wernerkit import decomposition, hiddenvar, separability, states


def test_self_times_subtract_direct_children():
    # root A [0, 100] holds B [10, 40] and C [50, 90]; C holds D [60, 70];
    # a second root A [200, 205] adds to A's total.
    name_id = [0, 1, 2, 3, 0]
    start = [0, 10, 50, 60, 200]
    end = [100, 40, 90, 70, 205]
    parent = [-1, 0, 0, 2, -1]
    got = tracing.self_times(name_id, start, end, parent, 4)
    assert got.tolist() == [35.0, 30.0, 30.0, 10.0]


def test_self_times_sum_to_root_durations():
    rng = np.random.default_rng(3)
    # A chain of nested spans, each starting after and ending before its parent.
    start = np.cumsum(rng.integers(1, 5, 6))
    end = start[-1] + np.cumsum(rng.integers(1, 5, 6))[::-1]
    parent = np.arange(-1, 5)
    got = tracing.self_times(np.arange(6), start, end, parent, 6)
    assert got.sum() == end[0] - start[0]


def _library_results():
    rho = states.werner(0.2)
    return (
        rho,
        separability.ppt_test(states.werner(0.5)),
        decomposition.reconstruct(decomposition.spherical_decomposition(0.25, 3, 5)),
        decomposition.wootters_decomposition(0.1).thetas,
        hiddenvar.estimate_correlation(0.3, (0, 0, 1), (1, 0, 0), n_samples=2000, seed=4),
        hiddenvar.estimate_local(0.3, (0, 1, 0), "B", n_samples=2000, seed=4),
    )


def test_wrappers_leave_return_values_unchanged():
    plain = _library_results()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = _library_results()
    for a, b in zip(plain, traced):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert a == b
    calls = tracer.calls()
    assert calls["separability.ppt_test"] == 1
    assert calls["linalg.hermitian_eigenvalues"] == 2
    assert calls["states.product_state"] == 15
    assert tracer.counts["hiddenvar.draws"] == 4000
    assert tracer.counts["decomposition.nodes_built"] == 15


def test_originals_are_restored():
    before = tracing.public_functions()
    renderers = dict(cli._RENDERERS)
    with tracing.Tracer().installed():
        assert states.werner is not before["states.werner"]
        assert separability.hermitian_eigenvalues is not before["linalg.hermitian_eigenvalues"]
    assert tracing.public_functions() == before
    assert separability.hermitian_eigenvalues is before["linalg.hermitian_eigenvalues"]
    assert cli._RENDERERS == renderers


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["ppt", "--sweep", "0.0", "1.0", "11", "--format", "csv"],
        ["verify", "--grid", "0.0", "1.0", "7"],
        ["decompose", "--q", "0.2", "--nodes", "3", "4"],
        ["hvsim", "--q", "0.2", "--samples", "1000", "--seed", "9"],
    ],
)
def test_cli_output_is_byte_identical_under_tracing(argv):
    plain = _cli(argv)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = _cli(argv)
    assert traced == plain
    calls = tracer.calls()
    assert calls["cli.main"] == 1
    assert calls["cli.render"] == 1
    assert tracer.counts["cli.output_bytes"] == len(plain[1].encode())


def test_reinstalling_reuses_the_wrappers():
    tracer = tracing.Tracer()
    for _ in range(3):
        with tracer.installed():
            _cli(["ppt", "--q", "0.2", "--format", "csv"])
    calls = tracer.calls()
    assert calls["cli.main"] == calls["cli.render"] == calls["separability.ppt_test"] == 3
    assert set(tracer.self_seconds()) == set(calls)


def test_escaping_exceptions_are_counted_per_layer():
    tracer = tracing.Tracer()
    with tracer.installed(), pytest.raises(ValueError):
        states.werner(2.0)
    assert tracer.counts["states.errors"] == 1
    assert tracer.calls()["states.werner"] == 1


def test_saved_spans_give_the_same_self_times(tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.op_id = 0
        _cli(["verify", "--grid", "0.0", "0.5", "5"])
    tracer.save(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as spans:
        names = spans["names"].tolist()
        assert set(spans["op"].tolist()) == {0}
        assert spans["parent"][0] == -1
        ns = tracing.self_times(spans["name_id"], spans["start_ns"], spans["end_ns"],
                                spans["parent"], len(names))
    assert len(set(names)) == len(names)
    assert dict(zip(names, ns * 1e-9)) == pytest.approx(tracer.self_seconds())
