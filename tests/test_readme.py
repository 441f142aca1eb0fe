"""The README's examples run: every fenced python block in order, in one
namespace, and every `wernerkit ...` command of its sh blocks through
`cli.main` with exit code 0.  A name the package no longer has cannot stay
in the README unnoticed."""

import re
import shlex
from pathlib import Path

import pytest

from wernerkit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README.read_text(), re.M | re.S)
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for lang, body in BLOCKS
    if lang == "sh"
    for line in body.splitlines()
    if line.startswith("wernerkit ")
]


def test_python_blocks_run_in_order():
    assert PYTHON_BLOCKS
    namespace = {}
    for index, body in enumerate(PYTHON_BLOCKS):
        exec(compile(body, f"README.md python block {index}", "exec"), namespace)


def test_there_are_commands():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_exits_0(argv, capsys):
    assert main(argv) == 0, capsys.readouterr().err
