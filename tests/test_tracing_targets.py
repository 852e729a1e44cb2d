"""The benchmark's span tracer can wrap every target it lists.

`perfbench/tracing.py` wraps `owner.__dict__[attr]` for each entry of
`TARGETS`; an attribute that is missing, or only inherited, would otherwise
surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_in_its_owners_dict():
    targets = load_tracing().TARGETS
    missing = [
        f"{module}.{label}: {owner.__name__}.{attr}"
        for module, label, owner, attr in targets
        if attr not in owner.__dict__
    ]
    assert targets
    assert missing == []
    assert all(callable(owner.__dict__[attr]) for _, _, owner, attr in targets)
