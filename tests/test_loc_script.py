"""scripts/loc.py: raw and code line counts of the package modules."""

import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "revcat"


def run_loc():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "loc.py")],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return {name: (int(raw), int(code))
            for name, raw, code in (line.split() for line in out.stdout.splitlines()[1:])}


def test_raw_total_is_the_plain_line_count():
    counts = run_loc()
    modules = sorted(PACKAGE.glob("*.py"))
    assert sorted(counts) == sorted([p.name for p in modules] + ["total"])
    plain = sum(p.read_bytes().count(b"\n") for p in modules)
    assert counts["total"][0] == plain
    assert 0 < counts["total"][1] < plain


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module\ndocstring."""\n\n# comment\nX = 1  # trailing\n\n\n'
        'def f():\n    """One line."""\n    s = """not a\n    docstring"""\n    return s\n'
    )
    count = runpy.run_path(str(ROOT / "scripts" / "loc.py"))["count"]
    assert count(tmp_path / "m.py") == (12, 5)


def test_raw_lines_split_on_newlines_only(tmp_path):
    # A form feed or a U+2028 in a string is no line break for wc -l or ast.
    (tmp_path / "m.py").write_text('X = "a\x0cb\u2028c"\n\x0c\nY = 1\n', encoding="utf-8")
    count = runpy.run_path(str(ROOT / "scripts" / "loc.py"))["count"]
    assert count(tmp_path / "m.py") == (3, 2)
