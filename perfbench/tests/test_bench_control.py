import contextlib
import io

import pytest

import run
import spec
import tracing
import wernerkit
import wernerkit.cli
import wernerkit_control
import wernerkit_control.cli as control


def test_ratios_pair_program_and_control_ops_in_order():
    assert run.ratios([2.0, 3.0, 1.0], [1.0, 2.0, 4.0]) == [0.25, 1.5, 2.0]
    with pytest.raises(ValueError):
        run.ratios([1.0, 2.0], [1.0])


@pytest.mark.parametrize("values, mean", [
    ([5.0], 5.0),
    ([1.0, 2.0, 3.0], 2.0),
    ([0.1, 1.0, 2.0, 90.0], 1.5),
    ([0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 9.0, 9.0], 2.5),
])
def test_middle_mean_drops_the_outer_quarters(values, mean):
    assert run.middle_mean(values) == mean


def test_control_is_a_separate_package():
    assert wernerkit_control is not wernerkit
    assert control.main is not wernerkit.cli.main
    assert control.werner is not wernerkit.states.werner


def test_tracer_leaves_the_control_unwrapped():
    originals = dict(vars(control))
    with tracing.Tracer().installed():
        assert all(vars(control)[k] is v for k, v in originals.items())


@pytest.mark.parametrize("workload", spec.WORKLOADS.values(), ids=lambda w: w.name)
def test_control_runs_every_workload_argv(workload):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert control.main(workload.argv(5)) == 0
