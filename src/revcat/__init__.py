"""Finite models of reversible and irreversible computation.

Partial functions and injections, unitaries, isometries, and quantum
channels, together with the garbage-adjoining completion, the extensional
quotient, the ancilla-input presentation, and a randomized law checker.

The classical modules are imported here and load no numpy.  ``quantum`` and
``pipeline`` are imported on first use of the attribute (``revcat.quantum``,
PEP 562), and numpy loads with the first quantum module used.  The package's
own modules reach ``quantum`` the same way, as ``revcat.quantum``.
"""

import importlib

from . import classical, extensional, garbage, instances, lawcheck

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("pipeline", "quantum"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
