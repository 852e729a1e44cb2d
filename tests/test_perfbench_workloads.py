"""The benchmark's own checks pass on this library.

`perfbench/workloads.py` pins exhaustive law counts, the `extensional=`
keyword of `make_aux_pinj_instance`, the `.rep` of `inv_cptp` and the shape
of every CLI report.  This builds each workload once, in process, calls every
job once and runs its check, so a break of those pins fails here rather than
only in a benchmark run.  `laws` runs at full size; `channels` and `cli` run
tiny (one job of each kind and size).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its neighbours `refs` and `morphkey` by bare name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, tiny", [("laws", False), ("channels", True), ("cli", True)])
def test_every_job_passes_its_check(workloads, tmp_path, name, tiny):
    workload = workloads.WORKLOADS[name](0, tiny, str(tmp_path))
    failures = []
    workload.prepare()
    try:
        for job in workload.jobs:
            error = job.check(job.collect(job.call()))
            if error:
                failures.append(error)
    finally:
        workload.cleanup()
    assert workload.jobs
    assert failures == []


def test_channels_builds_at_full_size_on_seed_24503(workloads, tmp_path):
    # The build draws about 1,000 random channels; on this seed one
    # random_channel(8, 8, 1, rng) once missed trace preservation by 5.8e-9
    # and aborted the run before its first job.
    workload = workloads.WORKLOADS["channels"](24503, False, str(tmp_path))
    assert len(workload.jobs) == sum(n for *_, n in workloads.CHANNEL_QUOTAS) == 1001
