"""Every library name the benchmark reads still exists.

The files under `perfbench/` are frozen with the benchmark, so a name they
read from `revcat` must outlive any change to the library.  This parses each
of them and, for every `from revcat import module [as alias]`, checks each
attribute read on that alias; `from revcat.module import name` is checked
too.  `test_tracing_targets.py` checks the tracer's `TARGETS` in more depth.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def names_read(source: str) -> set[tuple[str, str]]:
    """The (module, attribute) pairs a file reads from revcat's modules."""
    tree = ast.parse(source)
    aliases, pairs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "revcat":
            aliases.update((a.asname or a.name, f"revcat.{a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("revcat."):
            pairs.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            pairs.add((aliases[node.value.id], node.attr))
    return pairs


def test_every_name_the_benchmark_reads_exists():
    pairs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        pairs |= names_read(path.read_text())
    missing = sorted(f"{module}.{attr}" for module, attr in pairs
                     if not hasattr(importlib.import_module(module), attr))
    assert len(pairs) >= 30
    assert missing == []


def test_names_read_sees_aliases_and_direct_imports():
    source = ("from revcat import quantum as qu, cli\n"
              "from revcat.classical import FinObj\n"
              "qu.ATOL; cli.run([]); other.attr\n")
    assert names_read(source) == {("revcat.quantum", "ATOL"), ("revcat.cli", "run"),
                                  ("revcat.classical", "FinObj")}
