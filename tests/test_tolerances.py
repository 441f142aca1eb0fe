"""Every check tolerance and the separability boundary live in
wernerkit.tolerances, each constant with a comment line on its value."""

import ast
from pathlib import Path

import pytest

import wernerkit

SRC = Path(wernerkit.__file__).parent
HOME = "tolerances.py"
BOUNDARY = {"BLOCH_NORM_MAX", "SEPARABLE_Q_MAX", "SEPARABLE_Q_EDGE", "SIGMA_BAND"}


def module_assignments(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every module-level assignment to a plain name."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    found.append((name.id, node.lineno))
    return found


def is_tolerance(name: str) -> bool:
    return name.endswith("_TOL") or name in BOUNDARY


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_tolerances_have_one_home(path):
    if path.name == HOME:
        return
    strays = [
        f"{name} (line {line})" for name, line in module_assignments(path) if is_tolerance(name)
    ]
    assert not strays, f"{path.name} defines {', '.join(strays)}; they belong in {HOME}"


def test_the_home_holds_every_tolerance_with_a_comment_line():
    path = SRC / HOME
    lines = path.read_text().splitlines()
    constants = module_assignments(path)
    assert {name for name, _ in constants} >= BOUNDARY
    uncommented = [
        name for name, line in constants if line < 2 or not lines[line - 2].startswith("#")
    ]
    assert not uncommented, f"no comment line above {', '.join(uncommented)}"


def test_the_home_is_a_leaf_that_imports_only_math():
    tree = ast.parse((SRC / HOME).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [alias.name for node in imports for alias in node.names] == ["math"]
    assert all(isinstance(node, ast.Import) for node in imports)
