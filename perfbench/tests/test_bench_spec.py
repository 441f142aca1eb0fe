import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_checked_in_manifest_is_generated_from_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.manifest_text()


def test_manifest_names_units_and_bounds_are_well_formed():
    m = spec.manifest()
    metrics = m["end_to_end"] + m["per_layer"]
    names = [w["name"] for w in m["workloads"]] + [x["name"] for x in metrics]
    assert all(NAME.fullmatch(n) for n in names)
    assert len({x["name"] for x in metrics}) == len(metrics)
    assert all(UNIT.fullmatch(x["unit"]) for x in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in m["workloads"])
    bounds = {x["name"]: x["bound"] for x in m["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", spec.WORKLOADS.values(), ids=lambda w: w.name)
def test_argv_depends_only_on_the_seed(workload):
    assert workload.argv(7) == workload.argv(7)
    assert workload.argv(7) != workload.argv(8)


def test_ppt_and_verify_share_grid_endpoints():
    ppt, verify = spec.WORKLOADS["ppt_sweep"].argv(3), spec.WORKLOADS["verify_grid"].argv(3)
    assert ppt[2:4] == verify[2:4]
    q_min, q_max = float(ppt[2]), float(ppt[3])
    assert 0.0 <= q_min < 1 / 3 < q_max <= 1.0


@pytest.mark.parametrize("n_ops, pct", [(40, 75), (70, 85), (16, 50), (20, 50), (200, 95)])
def test_tail_percentile_leaves_ten_ops_beyond(n_ops, pct):
    assert spec.tail_percentile(n_ops) == pct


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ppt_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
    assert json.loads((tmp_path / "BENCHMARK.json").read_text()) == spec.manifest()
