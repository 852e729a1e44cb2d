"""Smoke test of the benchmark itself, at a tiny size.

Every workload must run clean, traced and untraced.  Then one layer function
is corrupted in-process and the workload that uses it must report failed
jobs: the checks have to catch a wrong library, not only pass a right one.

Run from the repository root:  python3 perfbench/smoke.py
"""

from __future__ import annotations

import os
import shutil
import sys

import run

run.import_revcat()

import numpy as np  # noqa: E402

from revcat import classical as cl  # noqa: E402
from revcat import quantum as qu  # noqa: E402


def swapped_compose(original):
    """Composition in the wrong order."""
    return lambda g, f: original(f, g)


def mixed_channel_compose(original):
    """A valid channel that is not the composite: mix in 0.1% of the
    completely depolarizing channel."""
    def corrupt(g, f):
        c = original(g, f)
        noise = np.eye(c.din * c.dout) / c.dout
        return qu.Channel(c.din, c.dout, 0.999 * c.choi + 0.001 * noise)
    return corrupt


CORRUPTIONS = [
    ("laws", cl, "compose", swapped_compose),
    ("cli", cl, "compose", swapped_compose),
    ("channels", qu, "channel_compose", mixed_channel_compose),
]


def main() -> int:
    workdir = os.path.join(run.WORKDIR, "smoke")
    problems = []

    def go(name, trace, label, want_failures):
        result = run.run_workload(name, seed=7, seconds=0.5, trace=trace, tiny=True,
                                  workdir=workdir)
        failed, attempted = result["failed"], result["attempted"]
        ok = failed > 0 if want_failures else failed == 0
        print(f"{'ok  ' if ok else 'FAIL'} {name:9s} {label:34s} "
              f"{failed} of {attempted} jobs failed")
        if not ok:
            problems.append((name, label))

    try:
        for name in ("laws", "channels", "cli"):
            go(name, False, "clean", False)
            go(name, True, "clean, traced", False)
        for name, module, attr, corrupt in CORRUPTIONS:
            original = getattr(module, attr)
            setattr(module, attr, corrupt(original))
            try:
                go(name, False, f"corrupted {module.__name__.split('.')[-1]}.{attr}", True)
            finally:
                setattr(module, attr, original)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("smoke test " + ("failed: " + repr(problems) if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
