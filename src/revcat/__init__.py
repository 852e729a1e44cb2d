"""Finite models of reversible and irreversible computation.

Partial functions and injections, unitaries, isometries, and quantum
channels, together with the garbage-adjoining completion, the extensional
quotient, the ancilla-input presentation, and a randomized law checker.

Lazy numpy.  The classical modules are imported here and load no numpy.
``quantum`` and ``pipeline`` are imported on first use of the attribute (PEP
562); the package's own modules reach them the same way, as ``revcat.quantum``,
and a branch that needs numpy imports it where it is taken.  So numpy loads
with the first quantum use: a channel, an isometry-base morphism, a quantum
instance or a random-mode law check.
"""

import importlib

from . import classical, extensional, garbage, instances, lawcheck

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("pipeline", "quantum"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
