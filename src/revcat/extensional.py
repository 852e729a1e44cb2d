"""Extensional quotient: identify morphisms that agree on all global points.

Over the pinj base this is a genuine quotient (garbage is intensional there):
two garbage-carrying morphisms are identified exactly when their visible
partial functions coincide.  Over the isometry base the induced channel is
already extensional, so nothing changes.  The quotient is the equivalence
relation ``ext_equiv`` on garbage-carrying morphisms; a class is held by any
of its representatives.

Also ships the tomographic state family, the global points of a channel
object.  Well-pointedness and the congruence of the quotient are laws of
``lawcheck`` (``wellpointed``, ``quotient_congruence``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import classical as cl
from . import garbage as gb
from .classical import PartialFn
from .garbage import AuxMorphism

if TYPE_CHECKING:
    import numpy as np


# Agreement on all global points is equality once the garbage is forgotten.
ext_equiv = gb.collapsed_equal


def pfn_functor(f: PartialFn) -> AuxMorphism:
    """The input-preserving reversibilization, as a representative of its
    extensional class; ``garbage.visible_fn`` inverts it up to the quotient."""
    return AuxMorphism(cl.bennett(f), f.cod.size, f.dom.size)


def tomographic_family(d: int) -> list[np.ndarray]:
    """A spanning family of d*d states: basis projectors plus real and
    imaginary pairwise superpositions."""
    import numpy as np
    states = []
    for i in range(d):
        s = np.zeros((d, d), dtype=complex)
        s[i, i] = 1.0
        states.append(s)
    for i in range(d):
        for j in range(i + 1, d):
            for phase in (1.0, 1j):
                v = np.zeros(d, dtype=complex)
                v[i] = 1.0
                v[j] = phase
                states.append(np.outer(v, v.conj()) / 2)
    return states
