"""Time each law check of ``revcat lawcheck`` in reference milliseconds.

For each instance (``--instance NAME``, or ``all`` in the CLI's order) and
each applicable law, times ``lawcheck.run_law(cat, law, 200, 0)``, the call
``revcat lawcheck`` makes at its default trials and seed, on an instance
built as the CLI builds it.  Each call is timed by perfbench's calibration
(``perfbench/calibrate.py``, ``timed``), so a time is in reference seconds:
the time on a machine where the calibration loop takes ``REF_S``.  The
process pins itself to one CPU, as ``perfbench/run.py`` does, so that the
calibration loop runs on the CPU the work runs on, and asks BLAS for one
thread.  The library is imported from this checkout's ``src/``.

The job list runs ``--repeats`` times in one process.  The first repeat
fills the process-wide caches (interned objects, identities, structural
permutations) that a fresh ``revcat lawcheck`` process fills too; the median
over three or more repeats is the time with them filled.  It prints the
median and quartiles over the repeats of each law's time, of each
instance's sum and of the total.

    python3 scripts/time_laws.py [--instance NAME|all] [--repeats N]
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import calibrate  # noqa: E402

from revcat import lawcheck as lc  # noqa: E402
from revcat.instances import INSTANCES  # noqa: E402

TRIALS, SEED = 200, 0  # revcat lawcheck's defaults


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def time_laws(names: list[str], repeats: int) -> dict[tuple[str, str], list[float]]:
    """Reference ms of each (instance, law) run, one entry per repeat."""
    times: dict[tuple[str, str], list[float]] = {}
    for _ in range(repeats):
        for name in names:
            cat = INSTANCES[name]()
            for law in lc.applicable_laws(cat):
                _, scaled = calibrate.timed(lambda: lc.run_law(cat, law, TRIALS, SEED))
                times.setdefault((name, law.name), []).append(scaled * 1e3)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--instance", default="all", choices=sorted(INSTANCES) + ["all"])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be positive, got {args.repeats}")
    names = sorted(INSTANCES) if args.instance == "all" else [args.instance]
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    times = time_laws(names, args.repeats)
    rows = [(name, law, ts) for (name, law), ts in times.items()]
    for name in names:  # a sum per repeat
        laws = [ts for (n, _), ts in times.items() if n == name]
        rows.append((name, "(instance)", [sum(run) for run in zip(*laws)]))
    rows.append(("(total)", "", [sum(run) for run in zip(*times.values())]))
    print(f"reference ms over {args.repeats} repeat(s), pinned to CPU {cpu}; "
          f"trials {TRIALS}, seed {SEED}")
    print(f"{'instance':<14}{'law':<30}{'median':>12}{'q1':>12}{'q3':>12}")
    for name, law, ts in rows:
        q1, med, q3 = quartiles(ts)
        print(f"{name:<14}{law:<30}{med:>12.3f}{q1:>12.3f}{q3:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
