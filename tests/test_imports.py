"""The classical half loads no numpy: `import revcat` and the classical CLI
verbs leave it unimported, and the quantum modules load it on first use.

One fresh interpreter runs every check, since numpy, once imported by any
test, stays in this process's `sys.modules`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import os, sys
import revcat
from revcat import cli

d = sys.argv[1]
f, aux, bad, out = (os.path.join(d, n) for n in ("f.json", "aux.json", "bad.json", "out.json"))
runs = [
    ["compose", f, f], ["tensor", f, f], ["bennett-of", f], ["inv", f], ["pfn-of", aux],
    ["aux-equal", aux, aux], ["ext-equal", aux, aux],
    ["lawcheck", "--instance", "pfn", "--law", "restriction_i"],
    ["lawcheck", "--instance", "pinj", "--law", "dagger_involution"],
    ["lawcheck", "--instance", "aux-pinj", "--law", "restriction_i"],
    ["lawcheck", "--instance", "ext-aux-pinj", "--law", "wellpointed"],
    ["bennett-of", bad],
]
codes = [cli.run(argv + ["--out", out]) for argv in runs]
assert codes == [0] * 11 + [2], codes
assert "numpy" not in sys.modules

from revcat import garbage as gb
assert revcat.quantum.ATOL == 1e-9 and "numpy" in sys.modules
v = gb.AuxMorphism.from_json({"base": "isometry", "garbage_shape": [2],
                              "core": {"rows": 2, "cols": 1, "entries": [[1, 0], [0, 0]]}})
assert gb.aux_equal(gb.aux_compose(v, v), v)
print("ok")
"""


def test_classical_half_loads_no_numpy(tmp_path):
    inputs = {
        "f.json": {"dom": {"shape": [3]}, "cod": {"shape": [3]}, "graph": [[0, 1], [1, 2]]},
        "aux.json": {"base": "pinj", "garbage_shape": [2],
                     "core": {"dom": {"shape": [2]}, "cod": {"shape": [2, 2]},
                              "graph": [[0, 1], [1, 2]]}},
        "bad.json": {"dom": {"shape": [2]}, "cod": {"shape": [2]}, "graph": [[0, 1.5]]},
    }
    for name, data in inputs.items():
        (tmp_path / name).write_text(json.dumps(data))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
