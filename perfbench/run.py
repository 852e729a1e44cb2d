"""revcat benchmark: run one seeded workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload laws|channels|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory and nowhere else.  A run builds the workload's fixed job list
from the seed, then runs that list in rounds, one job at a time, until the
next round would overrun `--seconds` (at least two rounds untraced, one traced).

With `--trace 0` it reports the end-to-end metrics: set-up time, the time to
finish the job list once, job latency p50/p99 over the list, and peak RSS.
Times are in reference seconds: each measured time is scaled by the speed of a
fixed calibration loop run next to it (`calibrate.py`).  With
`--trace 1` it runs half the time untraced and half traced, and reports the
per-layer metrics of `tracing.py` plus the tracing overhead.  The last line of
standard output is the result object; the full result, with the environment,
goes to `.perfbench/results/`, and traced spans to `.perfbench/traces/`.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread on every run and every commit compared: the workloads are
# single-caller closed loops and the matrices are at most 256 x 256.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import defaultdict  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
IMPORT_REPEATS = 5
BUILD_REPEATS = 3
CAL_EVERY_S = calibrate.EVERY_S  # a sample before a job this long after the last
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("job_p50_ms", "ms"),
              ("job_p99_ms", "ms"), ("peak_rss_mb", "MB")]
NPROC = len(os.sched_getaffinity(0))  # before pin_to_one_cpu
IMPORT_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import calibrate; "
                "print(*calibrate.timed(lambda: __import__('revcat')))")


def import_revcat():
    """Import revcat from this checkout's src/, or exit with status 2."""
    def fail(message: str):
        print("perfbench: " + message, file=sys.stderr)
        sys.exit(2)

    if not os.path.isfile(os.path.join(SRC, "revcat", "__init__.py")):
        fail(f"no revcat sources under {SRC}")
    sys.path.insert(0, SRC)
    import revcat
    if os.path.dirname(os.path.dirname(os.path.abspath(revcat.__file__))) != SRC:
        fail(f"revcat imported from {revcat.__file__}, not {SRC}")
    return revcat


def blas_threads() -> str:
    """The thread count OpenBLAS reports, read from numpy's bundled library."""
    import ctypes
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown (set to " + BLAS_THREADS + ")"


def environment() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(), "nproc": NPROC,
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def pin_to_one_cpu() -> int:
    """Keep this process, and the interpreters it starts, on one CPU.  The
    calibration loop then measures the CPU the measured work runs on: on a
    shared host two CPUs can sit in different speed states."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def fresh_import() -> tuple[float, float]:
    """Time the import of revcat in a fresh interpreter, calibrated there:
    (raw s, reference s)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, HERE], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    raw, scaled = out.stdout.split()
    return float(raw), float(scaled)


class Rounds:
    """Runs a workload's job list round after round and checks every output."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.digests: list = [None] * len(workload.jobs)
        self.job_times: list[list[float]] = [[] for _ in workload.jobs]
        self.job_scaled: list[list[float]] = [[] for _ in workload.jobs]
        self.cals: list[float] = []
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, seconds: float, min_rounds: int) -> "Rounds":
        start = perf_counter()
        last = 0.0
        while len(self.walls) < min_rounds or perf_counter() - start + last <= seconds:
            began = perf_counter()
            self._round()
            last = perf_counter() - began
        return self

    def _round(self) -> None:
        jobs = self.workload.jobs
        n = len(jobs)
        outs: list = [None] * n
        errors: list = [None] * n
        times = [0.0] * n
        blocks = [0] * n
        base = len(self.walls) * n
        gc.collect()
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            t_round = perf_counter()
            cals = [(perf_counter(), calibrate.sample())]
            for i, job in enumerate(jobs):
                if perf_counter() - cals[-1][0] >= CAL_EVERY_S:
                    cals.append((perf_counter(), calibrate.sample()))
                blocks[i] = len(cals) - 1
                t0 = perf_counter()
                try:
                    outs[i] = (job.call() if self.tracer is None
                               else self.tracer.run_job(base + i, job.call))
                except Exception as e:  # a failed job is counted, not fatal
                    errors[i] = f"{job.kind}: raised {e!r}"
                times[i] = perf_counter() - t0
            cals.append((perf_counter(), calibrate.sample()))
            self.walls.append(perf_counter() - t_round)
        self.cals += [c for _, c in cals]
        first = len(self.walls) == 1
        for i, job in enumerate(jobs):
            b = blocks[i]
            self.job_times[i].append(times[i])
            self.job_scaled[i].append(
                calibrate.scale(times[i], cals[b][1], cals[b + 1][1]))
            error = errors[i] or self._verify(i, job, outs[i], first)
            self.attempted += 1
            if error:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(error)

    def costs(self) -> list[float]:
        """Each job's cost in reference seconds: the median over rounds of its
        calibrated time."""
        return [statistics.median(ts) for ts in self.job_scaled]

    def raw_best(self) -> list[float]:
        """Each job's fastest raw time across rounds, for the result file."""
        return [min(ts) for ts in self.job_times]

    def _verify(self, i: int, job, out, first: bool):
        try:
            out = job.collect(out)
            digest = job.digest(out)
            if first:
                self.digests[i] = digest
                return job.check(out)
            if not self.workload.same(self.digests[i], digest):
                return f"{job.kind}: output differs from the first round"
        except Exception as e:  # a broken output must not stop the run
            return f"{job.kind}: check raised {e!r}"
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, workdir: str = WORKDIR) -> dict:
    """Run one workload and return the result object plus run details."""
    import workloads
    build = workloads.WORKLOADS[name]
    os.makedirs(workdir, exist_ok=True)
    info: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "env": environment()}
    if not trace:
        imports, builds, made = [], [], []

        def make():
            made.append(build(seed, tiny, workdir))

        for _ in range(IMPORT_REPEATS):
            imports.append(fresh_import())
        for _ in range(BUILD_REPEATS):
            made.clear()
            gc.collect()
            builds.append(calibrate.timed(make))
        workload = made[0]
        workload.prepare()
        try:
            rounds = Rounds(workload).run(seconds, min_rounds=2)
        finally:
            workload.cleanup()
        cost_by_job = rounds.costs()
        costs = sorted(cost_by_job)
        metrics = {
            "setup_s": (statistics.median(s for _, s in imports)
                        + statistics.median(s for _, s in builds)),
            "wall_s": sum(costs),
            "job_p50_ms": statistics.median(costs) * 1e3,
            "job_p99_ms": statistics.quantiles(costs, n=100)[98] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        by_kind = defaultdict(list)
        for job, t in zip(workload.jobs, cost_by_job):
            by_kind[job.kind].append(t * 1e3)
        raw_best = rounds.raw_best()
        info.update(import_s=imports, build_s=builds, round_walls=rounds.walls,
                    raw={"setup_s": (statistics.median(r for r, _ in imports)
                                     + statistics.median(r for r, _ in builds)),
                         "wall_s_best": sum(raw_best),
                         "job_p50_ms_best": statistics.median(raw_best) * 1e3},
                    wall_s_fastest=sum(min(ts) for ts in rounds.job_scaled),
                    calibration_s={"median": statistics.median(rounds.cals),
                                   "min": min(rounds.cals), "max": max(rounds.cals),
                                   "samples": len(rounds.cals)},
                    kind_p50_ms={k: statistics.median(v) for k, v in sorted(by_kind.items())},
                    kind_jobs={k: len(v) for k, v in sorted(by_kind.items())})
        checked = [rounds]
    else:
        import tracing as tr
        workload = build(seed, tiny, workdir)
        workload.prepare()
        try:
            plain = Rounds(workload).run(seconds / 2, min_rounds=1)
        finally:
            workload.cleanup()
        tracer = tr.Tracer()
        tracer.install()
        try:
            workload = build(seed, tiny, workdir)
            workload.prepare()
            try:
                traced = Rounds(workload, tracer).run(seconds / 2, min_rounds=1)
            finally:
                workload.cleanup()
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(len(traced.walls))
        metrics["trace.wall_s"] = sum(traced.costs())
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - sum(plain.costs())
        units = dict(tr.metric_spec())
        info.update(untraced_walls=plain.walls, traced_walls=traced.walls,
                    spans_kept=len(tracer.spans["name"]), spans_dropped=tracer.spans_dropped)
        tracer_dir = os.path.join(workdir, "traces")
        os.makedirs(tracer_dir, exist_ok=True)
        tracer.write(os.path.join(tracer_dir, f"{name}-seed{seed}.json"), info)
        checked = [plain, traced]
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    info.update(rounds=[len(r.walls) for r in checked], jobs_per_round=len(workload.jobs),
                fail_ratio=failed / attempted,
                failures=[f for r in checked for f in r.failures][:20])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["laws", "channels", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_revcat()
    pin_to_one_cpu()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    info = result.pop("info")
    out_dir = os.path.join(WORKDIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**result, "info": info}, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: rounds {info['rounds']} of "
          f"{info['jobs_per_round']} jobs; {result['failed']} of {result['attempted']} "
          f"jobs failed (fail_ratio {info['fail_ratio']:.4g})")
    print("environment: " + json.dumps(info["env"], sort_keys=True))
    for failure in info["failures"]:
        print("failure: " + failure)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"(times in reference seconds, see calibrate.py; a job's time is its "
              f"median over {info['rounds'][0]} rounds, over the "
              f"{info['jobs_per_round']} jobs of the list)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
