"""scripts/time_laws.py: calibrated times of each law check."""

import subprocess
import sys
from pathlib import Path

from revcat import lawcheck as lc
from revcat.instances import INSTANCES

ROOT = Path(__file__).resolve().parents[1]


def test_lists_every_applicable_law_with_its_quartiles():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "time_laws.py"), "--instance", "pinj",
         "--repeats", "1"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[2:]]
    laws = [law.name for law in lc.applicable_laws(INSTANCES["pinj"]())]
    assert [row[:-3] for row in rows] == [["pinj", law] for law in laws] + [
        ["pinj", "(instance)"], ["(total)"]]
    for row in rows:
        median_q1_q3 = {float(v) for v in row[-3:]}
        assert len(median_q1_q3) == 1 and min(median_q1_q3) > 0  # one repeat
