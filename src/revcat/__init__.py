"""Finite models of reversible and irreversible computation.

Partial functions and injections, unitaries, isometries, and quantum
channels, together with the garbage-adjoining completion, the extensional
quotient, the ancilla-input presentation, and a randomized law checker.
"""

from . import classical, extensional, garbage, instances, lawcheck, pipeline, quantum

__version__ = "0.1.0"
