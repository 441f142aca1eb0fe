"""Workloads and metrics of the wernerkit benchmark.

This file is the single source of BENCHMARK.json at the repository root;
`python3 perfbench/spec.py` rewrites that file from the tables below.

Every workload turns the seed into one CLI argv.  The program only ever sees
that argv: `run.py` calls `wernerkit.cli.main(argv)` in a closed loop from one
process and one client thread.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 27

# op_tail_s reports the highest percentile (a multiple of 5, never below the
# median) that leaves at least this many ops beyond it at the op count a run
# completed when the benchmark was defined.
TAIL_MIN_BEYOND = 10

# Median wall time of a fresh interpreter importing the control's CLI and
# building its parser, on the host the benchmark was defined on.
CONTROL_SETUP_S = 0.30

GRID_STEPS = 1001
HV_SAMPLES = 1_000_000
DENSE_NODES = (64, 128)
LAYERS = ("hiddenvar", "linalg", "separability", "states", "decomposition", "cli")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None

    def manifest(self) -> dict:
        entry = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            entry["bound"] = self.bound
        return entry


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: tuple[str, ...]
    bypasses: tuple[str, ...]
    make_argv: Callable[[random.Random], list[str]]
    items_per_op: int
    # Program ops one run completed on a 2-vCPU Xeon when the benchmark was
    # defined (each paired with a control op).
    defined_ops: int
    # Median latency of the control's op on that host: the unit in which the
    # run's program/control ratios are reported as seconds.
    control_s: float

    @property
    def tail_pct(self) -> int:
        return tail_percentile(self.defined_ops)

    def argv(self, seed: int) -> list[str]:
        return self.make_argv(random.Random(seed))

    def record(self) -> dict:
        return {
            "why": self.why,
            "stresses": list(self.stresses),
            "bypasses": list(self.bypasses),
            "items_per_op": self.items_per_op,
            "tail_pct": self.tail_pct,
        }


def tail_percentile(n_ops: int) -> int:
    """Highest multiple of 5 percent, at least 50, with TAIL_MIN_BEYOND ops
    beyond it out of n_ops."""
    pct = 5 * math.floor(20 * (1.0 - TAIL_MIN_BEYOND / n_ops))
    return max(50, pct)


def _num(x: float) -> str:
    return repr(float(x))


def _unit_vector(rng: random.Random) -> list[str]:
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in v))
    return [_num(x / norm) for x in v]


def grid_ends(rng: random.Random) -> tuple[float, float]:
    """Sweep endpoints near 0 and near 1, so the PT flip at q = 1/3 always
    falls inside the grid."""
    return rng.uniform(0.0, 0.02), rng.uniform(0.98, 1.0)


def _hvsim_argv(rng: random.Random) -> list[str]:
    q = rng.uniform(0.0, 1.0 / 3.0)
    l, m = _unit_vector(rng), _unit_vector(rng)
    return ["hvsim", "--q", _num(q), "--l", *l, "--m", *m,
            "--samples", str(HV_SAMPLES), "--seed", str(rng.randrange(2**31))]


def _ppt_argv(rng: random.Random) -> list[str]:
    q_min, q_max = grid_ends(rng)
    return ["ppt", "--sweep", _num(q_min), _num(q_max), str(GRID_STEPS), "--format", "csv"]


def _verify_argv(rng: random.Random) -> list[str]:
    q_min, q_max = grid_ends(rng)
    return ["verify", "--grid", _num(q_min), _num(q_max), str(GRID_STEPS)]


def _decompose_argv(rng: random.Random) -> list[str]:
    q = rng.uniform(0.0, 1.0 / 3.0)
    return ["decompose", "--q", _num(q), "--method", "spherical",
            "--nodes", *(str(n) for n in DENSE_NODES)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hvsim_mc",
            "hvsim at 10^6 samples: the Monte Carlo sampler does ~99% of the work, so a sampler change shows here and nowhere else",
            stresses=("hiddenvar",),
            bypasses=("linalg", "separability", "states", "decomposition"),
            make_argv=_hvsim_argv,
            items_per_op=HV_SAMPLES,
            defined_ops=23,
            control_s=0.533,
        ),
        Workload(
            "ppt_sweep",
            "ppt --sweep over 1001 q points as CSV: the partial-transpose test and its Jacobi solver, with no decomposition or sampling",
            stresses=("linalg", "separability", "states"),
            bypasses=("hiddenvar", "decomposition"),
            make_argv=_ppt_argv,
            items_per_op=GRID_STEPS,
            defined_ops=40,
            control_s=0.332,
        ),
        Workload(
            "verify_grid",
            "verify over 1001 q points: ~330 small decompositions plus the PT test per call, so per-call costs of every layer show",
            stresses=("decomposition", "states", "linalg", "separability"),
            bypasses=("hiddenvar",),
            make_argv=_verify_argv,
            items_per_op=GRID_STEPS,
            defined_ops=8,
            control_s=1.48,
        ),
        Workload(
            "decompose_dense",
            "one spherical decomposition of 64x128 nodes and its ~3 MB JSON report: per-node throughput and CLI rendering",
            stresses=("decomposition", "states", "cli"),
            bypasses=("hiddenvar", "separability"),
            make_argv=_decompose_argv,
            items_per_op=DENSE_NODES[0] * DENSE_NODES[1],
            defined_ops=11,
            control_s=0.922,
        ),
    )
}

# Timings are program/control ratios (see run.py), which cancel the host's
# drift between minutes but not its ±10% from one op to the next on the shared
# 2-vCPU host the benchmark was defined on; so the timing bounds are the
# widest allowed.
END_TO_END = (
    Metric("items_per_s", "items/s", "higher", 0.25),
    Metric("op_p50_s", "s", "lower", 0.25),
    Metric("op_tail_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)


def _layer_metrics() -> tuple[Metric, ...]:
    s, c = "s/op", "calls/op"
    rows = [
        ("hiddenvar.estimate_correlation.self_s", s),
        ("hiddenvar.estimate_correlation.calls", c),
        ("hiddenvar.estimate_local.self_s", s),
        ("hiddenvar.estimate_local.calls", c),
        ("hiddenvar.draws_per_sample", "draws/sample"),
        ("linalg.hermitian_eigenvalues.self_s", s),
        ("linalg.hermitian_eigenvalues.calls", c),
        ("linalg.is_hermitian.self_s", s),
        ("linalg.is_hermitian.calls", c),
        ("linalg.partial_transpose_b.self_s", s),
        ("linalg.kron.self_s", s),
        ("linalg.eig_calls_per_ppt", "calls/call"),
        ("separability.ppt_test.self_s", s),
        ("separability.ppt_test.calls", c),
        ("separability.werner_pt_eigenvalues_closed_form.self_s", s),
        ("states.werner.self_s", s),
        ("states.werner.calls", c),
        ("states.werner_calls_per_q", "calls/q"),
        ("states.product_state.self_s", s),
        ("states.product_state.calls", c),
        ("states.product_states_per_node", "calls/node"),
        ("states.bloch_state.self_s", s),
        ("decomposition.spherical_decomposition.self_s", s),
        ("decomposition.spherical_decomposition.calls", c),
        ("decomposition.wootters_decomposition.self_s", s),
        ("decomposition.reconstruct.self_s", s),
        ("decomposition.reconstruct.calls", c),
        ("decomposition.moment_check.self_s", s),
        ("decomposition.phase_constraint_residual.self_s", s),
        ("decomposition.sphere_direction.self_s", s),
        ("decomposition.sphere_direction.calls", c),
        ("decomposition.nodes_built", "nodes/op"),
        ("cli.main.self_s", s),
        ("cli.render.self_s", s),
        ("cli.output_bytes", "bytes/op"),
    ]
    rows += [(f"{layer}.errors", "count") for layer in LAYERS]
    rows.append(("trace.overhead_frac", "fraction"))
    return tuple(Metric(name, unit, "lower") for name, unit in rows)


PER_LAYER = _layer_metrics()


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [m.manifest() for m in END_TO_END],
        "per_layer": [m.manifest() for m in PER_LAYER],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").write_text(manifest_text())
