"""README.md and pyproject.toml against the CLI they document."""

import re
from importlib import import_module
from pathlib import Path

import pytest

from revcat import cli, instances

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_verb_table_lists_exactly_the_verbs():
    # A row's first cell names one or more verbs, each in backticks with its
    # arguments; "\|" inside a cell is an escaped pipe, not a cell border.
    rows = [line for line in README.splitlines() if line.startswith("| `")]
    first_cells = [re.split(r"(?<!\\)\|", row)[1] for row in rows]
    verbs = [usage.split()[0] for cell in first_cells for usage in re.findall(r"`([^`]+)`", cell)]
    assert sorted(verbs) == sorted(cli.VERBS)


def test_instance_list_is_exactly_the_shipped_instances():
    listed = re.search(r"^Shipped lawcheck instances: (.*?)\.$", README, re.M | re.S)
    assert listed is not None
    assert re.findall(r"`([^`]+)`", listed.group(1)) == list(instances.INSTANCES)


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["revcat"].partition(":")
    target = getattr(import_module(module), name)
    assert callable(target) and target is cli.main
