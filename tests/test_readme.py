"""The README's examples name only what the package provides.

Every name the Python examples import from ``cineprop`` or one of its
submodules must exist, and every ``cineprop ...`` line of the CLI block must
parse, so pruning the public API cannot silently break the README.
"""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from cineprop.cli import _build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def _cli_lines() -> list[str]:
    joined = "\n".join(_blocks("sh")).replace("\\\n", " ")  # fold continuation lines
    return [line.split("#", 1)[0].strip() for line in joined.splitlines() if line.startswith("cineprop ")]


def test_python_example_imports_exist():
    imports = [
        (node.module, alias.name)
        for block in _blocks("python")
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "cineprop"
        for alias in node.names
    ]
    assert any(m == "cineprop" for m, _ in imports), "the README has no `from cineprop import ...` example"
    missing = [(m, n) for m, n in imports if not hasattr(importlib.import_module(m), n)]
    assert missing == []


def test_cli_block_lists_every_subcommand():
    commands = {shlex.split(line)[1] for line in _cli_lines()}
    assert commands == {"phantom", "propagate", "evaluate", "histmatch", "transfer", "report"}


@pytest.mark.parametrize("line", _cli_lines())
def test_cli_line_parses(line):
    _build_parser().parse_args(shlex.split(line)[1:])  # exits with code 2 on a flag the CLI lacks
