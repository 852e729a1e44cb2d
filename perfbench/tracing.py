"""Span tracing at the public boundary of each `revcat` module.

`Tracer.install` replaces the listed module functions and validation hooks
with wrappers; `Tracer.uninstall` puts the originals back.  A wrapper records
only while a job span is open, so set-up and checking code that calls the
library is never counted.  For each span it keeps name, start, end, parent
span and job id (up to `SPAN_CAP` spans, written out by `write`), and it
aggregates, for every span name, the call count and the self time: the span's
duration minus the time its child spans cover.  A call nested directly in a
span of the same name (`PartialInj.__post_init__` calling
`PartialFn.__post_init__`) is folded into the outer span.
"""

from __future__ import annotations

import functools
import json
import weakref
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable, Optional

from revcat import cli as _cli
from revcat import classical as _cl
from revcat import extensional as _ex
from revcat import garbage as _gb
from revcat import instances as _inst
from revcat import lawcheck as _lc
from revcat import pipeline as _pl
from revcat import quantum as _qu

JOB = "harness.job"
SPAN_CAP = 200_000  # spans kept for writing out; the aggregates count every span

# (module, label, owner, attribute); one label may cover several attributes.
TARGETS = [
    ("classical", "compose", _cl, "compose"),
    ("classical", "tensor_prod", _cl, "tensor_prod"),
    ("classical", "ridm", _cl, "ridm"),
    ("classical", "dagger", _cl, "dagger"),
    ("classical", "coherence", _cl, "coherence"),
    ("classical", "validate", _cl.PartialFn, "__post_init__"),
    ("classical", "validate", _cl.PartialInj, "__post_init__"),
    ("garbage", "aux_compose", _gb, "aux_compose"),
    ("garbage", "aux_tensor", _gb, "aux_tensor"),
    ("garbage", "aux_ridm", _gb, "aux_ridm"),
    ("garbage", "aux_equiv", _gb, "aux_equiv"),
    ("garbage", "normal_form", _gb, "normal_form"),
    ("extensional", "ext_equiv", _ex, "ext_equiv"),
    ("quantum", "validate", _qu.Channel, "__post_init__"),
    ("quantum", "iso_validate", _qu.Isometry, "__post_init__"),
    ("quantum", "iso_validate", _qu.Unitary, "__post_init__"),
    ("quantum", "choi_of_kraus", _qu, "choi_of_kraus"),
    ("quantum", "kraus_of_choi", _qu, "kraus_of_choi"),
    ("quantum", "channel_compose", _qu, "channel_compose"),
    ("quantum", "channel_tensor", _qu, "channel_tensor"),
    ("quantum", "minimal_stinespring", _qu, "minimal_stinespring"),
    ("quantum", "complete_to_unitary", _qu, "complete_to_unitary"),
    ("quantum", "extract_unitary", _qu, "extract_unitary"),
    ("pipeline", "unitary_to_channel", _pl, "unitary_to_channel"),
    ("pipeline", "channel_to_unitary_presentation", _pl, "channel_to_unitary_presentation"),
    ("pipeline", "inv_cptp", _pl, "inv_cptp"),
    ("pipeline", "inv_pfn", _pl, "inv_pfn"),
    ("lawcheck", "run_law", _lc, "run_law"),
    ("lawcheck", "enumerate", _lc, "_enumerate_tuples"),
    ("instances", "enumerate_aux_pinj", _inst, "enumerate_aux_pinj"),
    ("cli", "run", _cli, "run"),
]

MODULES = sorted({m for m, _, _, _ in TARGETS})
LABELS = list(dict.fromkeys(f"{m}.{label}" for m, label, _, _ in TARGETS))

# Counters derived from a call's arguments and result.
EXTRA_METRICS = [
    ("quantum.validate.eig_work", "count"),
    ("garbage.normal_form.repeat_share", "1"),
    ("lawcheck.tuples", "count"),
    ("lawcheck.exhaustive_share", "1"),
    ("cli.run.nonzero_exit", "count"),
]


def metric_spec() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for module in MODULES:
        for label in LABELS:
            if label.startswith(module + "."):
                out += [(f"{label}.calls", "count"), (f"{label}.self_s", "s")]
        out += [(f"{module}.self_s", "s"), (f"{module}.errors", "count")]
        out += [(n, u) for n, u in EXTRA_METRICS if n.startswith(module + ".")]
    out += [("harness.self_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return out


class Tracer:
    """Records spans around wrapped library calls while a job span is open."""

    def __init__(self) -> None:
        self.names = [JOB] + LABELS
        self.module_of = [n.split(".")[0] for n in self.names]
        self.spans = {k: array("q") for k in ("name", "start", "end", "parent", "job")}
        self.spans_dropped = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.errors: Counter = Counter()
        self.extra: Counter = Counter()
        self._normalised: weakref.WeakSet = weakref.WeakSet()
        # Open frames: [name id, child ns, span index].
        self._stack: list[list[int]] = []
        self._job = -1
        self._saved: list[tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module, label, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            nid = self.names.index(f"{module}.{label}")
            setattr(owner, attr, self._wrap(nid, original, self._hook(f"{module}.{label}")))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _hook(self, label: str) -> Optional[Callable[[tuple, Any], None]]:
        extra = self.extra
        if label == "quantum.validate":
            def hook(args, result):
                extra["quantum.validate.eig_work"] += (args[0].din * args[0].dout) ** 3
            return hook
        if label == "garbage.normal_form":
            seen = self._normalised

            def hook(args, result):
                if args[0] in seen:
                    extra["garbage.normal_form.repeats"] += 1
                else:
                    seen.add(args[0])
            return hook
        if label == "lawcheck.run_law":
            def hook(args, result):
                extra["lawcheck.tuples"] += result.trials
                extra["lawcheck.exhaustive"] += result.mode == "exhaustive"
            return hook
        if label == "cli.run":
            def hook(args, result):
                extra["cli.run.nonzero_exit"] += result != 0
            return hook
        return None

    def _wrap(self, nid: int, fn: Callable, hook) -> Callable:
        tracer = self
        stack = self._stack
        module_of = self.module_of

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or stack[-1][0] == nid:
                return fn(*args, **kwargs)
            frame = [nid, 0, tracer._open_span(nid, stack[-1][2])]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if module_of[stack[-2][0]] != module_of[nid]:
                    tracer.errors[module_of[nid]] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                stack[-1][1] += duration
                tracer.calls[nid] += 1
                tracer.self_ns[nid] += duration - frame[1]
                tracer._close_span(frame[2], start, end)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------------

    def _open_span(self, nid: int, parent: int) -> int:
        spans = self.spans
        index = len(spans["name"])
        if index >= SPAN_CAP:
            self.spans_dropped += 1
            return -1
        spans["name"].append(nid)
        spans["parent"].append(parent)
        spans["job"].append(self._job)
        spans["start"].append(0)
        spans["end"].append(0)
        return index

    def _close_span(self, index: int, start: int, end: int) -> None:
        if index >= 0:
            self.spans["start"][index] = start
            self.spans["end"][index] = end

    def run_job(self, job_id: int, call: Callable[[], Any]) -> Any:
        """Call `call` inside a job span; library spans beneath it share its id."""
        self._job = job_id
        frame = [0, 0, self._open_span(0, -1)]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return call()
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.calls[0] += 1
            self.self_ns[0] += end - start - frame[1]
            self._close_span(frame[2], start, end)

    # -- reporting ------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round means of every counter; counts repeat exactly across rounds."""
        out: dict[str, float] = {}
        module_self = Counter()
        for nid, name in enumerate(self.names):
            module_self[self.module_of[nid]] += self.self_ns[nid]
            if nid:
                out[f"{name}.calls"] = self.calls[nid] / rounds
                out[f"{name}.self_s"] = self.self_ns[nid] / 1e9 / rounds
        for module in MODULES:
            out[f"{module}.self_s"] = module_self[module] / 1e9 / rounds
            out[f"{module}.errors"] = self.errors[module] / rounds
        out["harness.self_s"] = module_self["harness"] / 1e9 / rounds
        nf_calls = self.calls[self.names.index("garbage.normal_form")]
        out["garbage.normal_form.repeat_share"] = (
            self.extra["garbage.normal_form.repeats"] / nf_calls if nf_calls else 0.0)
        run_laws = self.calls[self.names.index("lawcheck.run_law")]
        out["lawcheck.exhaustive_share"] = (
            self.extra["lawcheck.exhaustive"] / run_laws if run_laws else 0.0)
        for name in ("quantum.validate.eig_work", "lawcheck.tuples", "cli.run.nonzero_exit"):
            out[name] = self.extra[name] / rounds
        return out

    def write(self, path: str, info: dict) -> None:
        """Write the kept spans as rows [name, start_ns, end_ns, parent, job]."""
        s = self.spans
        rows = zip(s["name"], s["start"], s["end"], s["parent"], s["job"])
        with open(path, "w") as fh:
            json.dump({"info": info, "names": self.names,
                       "spans_dropped": self.spans_dropped,
                       "columns": ["name", "start_ns", "end_ns", "parent", "job"],
                       "spans": [list(r) for r in rows]}, fh, separators=(",", ":"))
