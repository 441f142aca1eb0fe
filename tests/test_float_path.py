"""Every float a report writes comes from its report's one pool of float
strings in cli._scalar_columns, which the pool's one np.isfinite judges.
The guard parses cli.py: repr is called only by that pool and by the axis
warning of _normalized_axis, and _fmt_scalar takes no float."""

import ast
from pathlib import Path

from wernerkit import cli

TREE = ast.parse(Path(cli.__file__).read_text())


def repr_callers(tree: ast.AST) -> set[str]:
    """The name of the function around each repr call, "<module>" outside
    any function."""
    callers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Lambda):
            where = "<lambda>"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "repr":
            callers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return callers


def test_repr_is_called_only_by_the_pool_and_the_axis_warning():
    assert repr_callers(TREE) == {"_scalar_columns", "_normalized_axis"}


def test_fmt_scalar_takes_no_float():
    (function,) = [
        node for node in ast.walk(TREE)
        if isinstance(node, ast.FunctionDef) and node.name == "_fmt_scalar"
    ]
    floats = [
        node.lineno for node in ast.walk(function)
        if (isinstance(node, ast.Name) and node.id == "float")
        or (isinstance(node, ast.Attribute) and node.attr == "floating")
    ]
    assert not floats, f"_fmt_scalar tests for a float on lines {floats}"
