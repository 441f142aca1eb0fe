import contextlib
import io
import json
import re

import pytest

import checks
import wernerkit.cli as cli

HVSIM = ["hvsim", "--q", "0.2", "--l", "0.6", "0.0", "0.8", "--m", "0.0", "1.0", "0.0",
         "--samples", "20000", "--seed", "5"]
PPT = ["ppt", "--sweep", "0.01", "0.99", "41", "--format", "csv"]
VERIFY = ["verify", "--grid", "0.01", "0.99", "31"]
DECOMPOSE = ["decompose", "--q", "0.3", "--method", "spherical", "--nodes", "4", "8"]
CASES = {"hvsim_mc": HVSIM, "ppt_sweep": PPT, "verify_grid": VERIFY, "decompose_dense": DECOMPOSE}


@pytest.fixture(scope="module")
def outputs():
    found = {}
    for workload, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        found[workload] = (code, out.getvalue())
    return found


def _edited(text, edit):
    report = json.loads(text)
    edit(report)
    return json.dumps(report, indent=2)


@pytest.mark.parametrize("workload", CASES)
def test_real_output_passes(outputs, workload):
    assert checks.failure(workload, CASES[workload], *outputs[workload]) is None


@pytest.mark.parametrize("workload", CASES)
def test_nonzero_exit_fails(outputs, workload):
    assert checks.failure(workload, CASES[workload], 1, outputs[workload][1])


@pytest.mark.parametrize("workload", ["hvsim_mc", "verify_grid", "decompose_dense"])
def test_nan_token_fails(outputs, workload):
    code, text = outputs[workload]
    broken = re.sub(r'("q": )[-+0-9.e]+', r"\1NaN", text, count=1)
    assert broken != text
    assert "non-finite" in checks.failure(workload, CASES[workload], code, broken)


@pytest.mark.parametrize("workload", ["hvsim_mc", "verify_grid", "decompose_dense"])
def test_failing_report_check_fails(outputs, workload):
    code, text = outputs[workload]
    broken = _edited(text, lambda r: r["checks"][0].update({"pass": False}))
    assert "report checks failed" in checks.failure(workload, CASES[workload], code, broken)


def test_hvsim_wrong_std_error_fails(outputs):
    code, text = outputs["hvsim_mc"]
    broken = _edited(text, lambda r: r["results"]["marginal_b"].update(
        {"std_error": r["results"]["marginal_b"]["std_error"] * 1.02}))
    assert "std_error" in checks.failure("hvsim_mc", HVSIM, code, broken)


def _ppt_rows(text, edit):
    lines = text.split("\n")
    edit(lines)
    return "\n".join(lines)


def test_ppt_flipped_verdict_fails(outputs):
    code, text = outputs["ppt_sweep"]
    broken = _ppt_rows(text, lambda lines: lines.__setitem__(1, lines[1].replace("true", "false")))
    assert "verdict" in checks.failure("ppt_sweep", PPT, code, broken)


def test_ppt_perturbed_eigenvalue_fails(outputs):
    code, text = outputs["ppt_sweep"]

    def edit(lines):
        fields = lines[5].split(",")
        fields[2] = repr(float(fields[2]) + 1e-11)
        lines[5] = ",".join(fields)

    assert "closed form" in checks.failure("ppt_sweep", PPT, code, _ppt_rows(text, edit))


def test_ppt_nan_value_fails(outputs):
    code, text = outputs["ppt_sweep"]

    def edit(lines):
        fields = lines[3].split(",")
        fields[1] = "nan"
        lines[3] = ",".join(fields)

    assert "non-finite" in checks.failure("ppt_sweep", PPT, code, _ppt_rows(text, edit))


def test_ppt_missing_row_fails(outputs):
    code, text = outputs["ppt_sweep"]
    broken = _ppt_rows(text, lambda lines: lines.pop(7))
    assert "rows" in checks.failure("ppt_sweep", PPT, code, broken)


def test_verify_wrong_skip_path_fails(outputs):
    code, text = outputs["verify_grid"]

    def edit(report):
        row = report["results"]["rows"][-1]
        row["skipped"] = None

    assert "skip path" in checks.failure("verify_grid", VERIFY, code, _edited(text, edit))


def test_verify_shifted_grid_fails(outputs):
    code, text = outputs["verify_grid"]
    broken = _edited(text, lambda r: r["results"]["rows"][3].update({"q": r["results"]["rows"][3]["q"] + 1e-15}))
    assert "grid value" in checks.failure("verify_grid", VERIFY, code, broken)


def test_decompose_perturbed_weight_fails(outputs):
    code, text = outputs["decompose_dense"]
    broken = _edited(text, lambda r: r["results"]["nodes"][5].update(
        {"weight": r["results"]["nodes"][5]["weight"] + 1e-9}))
    assert "weights sum" in checks.failure("decompose_dense", DECOMPOSE, code, broken)


def test_decompose_moved_node_fails(outputs):
    code, text = outputs["decompose_dense"]

    def edit(report):
        node = report["results"]["nodes"][2]
        node["a"] = [node["a"][1], node["a"][0], node["a"][2]]

    assert "deviates from W" in checks.failure("decompose_dense", DECOMPOSE, code, _edited(text, edit))


def test_decompose_missing_node_fails(outputs):
    code, text = outputs["decompose_dense"]
    broken = _edited(text, lambda r: r["results"]["nodes"].pop())
    assert "nodes, expected" in checks.failure("decompose_dense", DECOMPOSE, code, broken)
