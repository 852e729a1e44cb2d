"""Ancilla-input construction and end-to-end pipelines.

A unitary on A (+) E, used with a fixed constant input on the E summand,
presents an isometry A -> B (with B = A + E); extracting the first A columns
is a normal form for the ancilla-input class, since unitaries on E act
transitively on completions of a fixed isometry.  Composing with the
garbage-adjoining and extensional phases turns unitaries into channels and
partial injections into partial functions; the reverse direction carves out
the partial isomorphisms (classically) and the pure-Choi square channels
(quantumly, up to a global phase).  ``inv_pfn`` loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import revcat

from .classical import PartialFn, PartialInj

if TYPE_CHECKING:
    from .quantum import Channel, Isometry, Unitary


@dataclass(frozen=True, eq=False)
class InpUnitary:
    """An ancilla-input morphism A -> B: a unitary on A (+) E with A + E = B."""

    in_dim: int
    anc_dim: int
    unitary: Unitary

    def __post_init__(self) -> None:
        if self.in_dim < 0 or self.anc_dim < 0:
            raise revcat.quantum.DimensionError("dimensions must be nonnegative")
        if self.in_dim + self.anc_dim != self.unitary.dim:
            raise revcat.quantum.DimensionError(
                f"in_dim {self.in_dim} + anc_dim {self.anc_dim} != {self.unitary.dim}"
            )


@dataclass(frozen=True, eq=False)
class UnitaryPhaseClass:
    """A unitary up to global phase, held by its phase-fixed representative."""

    rep: Unitary


def inp_to_isometry(u: InpUnitary) -> Isometry:
    """Restrict the unitary to the input summand: its first in_dim columns.

    Constant on mediation orbits: right-multiplying by I_A (+) h for unitary
    h on the ancilla leaves these columns untouched.
    """
    return revcat.quantum.Isometry(u.unitary.mat[:, : u.in_dim])


def isometry_to_inp(v: Isometry) -> InpUnitary:
    """Present an isometry with an ancilla input, via the deterministic
    unitary completion."""
    return InpUnitary(v.cols, v.rows - v.cols, revcat.quantum.complete_to_unitary(v))


def unitary_to_channel(u: Unitary, anc_dim: int, env_dim: int) -> Channel:
    """The full pipeline on a unitary: ancilla input of size anc_dim, then
    trace out an environment factor of size env_dim from the output.

    The output tensor split is explicit data: the same unitary supports many
    factorizations of its codomain.
    """
    in_dim = u.dim - anc_dim
    if in_dim <= 0:
        raise revcat.quantum.DimensionError(f"ancilla {anc_dim} leaves no input of {u.dim}")
    v = inp_to_isometry(InpUnitary(in_dim, anc_dim, u))
    return revcat.quantum.channel_of_isometry(v, env_dim)


def channel_to_unitary_presentation(c: Channel) -> tuple[Unitary, int, int]:
    """Essential surjectivity, constructively: a (unitary, anc_dim, env_dim)
    triple that unitary_to_channel maps back to c."""
    v, r = revcat.quantum.minimal_stinespring(c)
    u = revcat.quantum.complete_to_unitary(v)
    return u, v.rows - v.cols, r


def inv_pfn(f: PartialFn) -> Optional[PartialInj]:
    """The partial-isomorphism view of f: a PartialInj, when f's graph is injective."""
    if f.is_injective():
        return PartialInj(f.dom, f.cod, f.graph)
    return None


def inv_cptp(c: Channel) -> Optional[UnitaryPhaseClass]:
    """The phase class of ``quantum.reversible_core``'s unitary, or None where
    that gives a reason."""
    core = revcat.quantum.reversible_core(c)
    return None if isinstance(core, str) else UnitaryPhaseClass(core)
