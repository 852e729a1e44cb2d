"""Garbage-adjoining completion: morphisms that carry an auxiliary output.

A morphism A -> B here is an equivalence class of base morphisms
f : A -> B (x) E for a garbage object E, where two such are identified when a
zigzag of mediators h : E -> E' relates them without changing where they are
defined.  The two shipped bases are partial injections ("pinj") and
isometries ("isometry").  A morphism's base follows from its core's type
(``PartialInj`` or ``Isometry``; a ``Unitary`` is an ``Isometry``).  A base
is named only where no core exists yet: in the JSON form and for the
structural morphisms, which one builder makes from a structural permutation.

For the pinj base the class has a decidable canonical form, the plain
hashable tuple (visible graph, partition of the domain by garbage equality),
whose entries are tuples of ints.  Any equivalence is then witnessed by a
single direct mediator ``PartialInj``; this characterization is validated
against a brute-force zigzag search in the test suite before anything relies
on it.  For the isometry base the induced channel (trace out the garbage) is
a complete invariant, so equivalence is Choi equality and has no other
witness.

Each morphism keeps its visible graph, normal form, collapsed morphism and
restriction through ``classical.once``, and the normal form and the visible
partial function share the one visible graph; so over pinj a decision is one
comparison of two tuples, in C.  The deciders check in this order:
``aux_equal`` and ``collapsed_equal`` (``extensional.ext_equiv``) answer
``f is g`` first; ``aux_equiv`` first rejects a base other than pinj and has
no such check, since its all-pairs callers rarely pass one morphism twice.
Then each raises the base or endpoint mismatch, and then compares.

Over the pinj base the composite, the tensor, ``embed``, ``bang``, the
projections, ``visible_fn`` and ``points_of`` build through
``classical.make``, so they share within a ``classical.sharing`` scope.
``aux_id`` is process-wide, like ``classical.identity``: memoised on its
arguments and built without ``make``, it stores r(id) = id and, over pinj,
its collapsed partial function from the public constructor, so that no memo
of it keeps a run's object alive.  The isometry branches build with the
public constructors, so they never share, although an ``Isometry`` could be
a key (it hashes by identity).  Only they load ``revcat.quantum`` and numpy
(lazily, as the package docstring says).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import prod
from typing import TYPE_CHECKING, Optional, Union

import revcat

from . import classical as cl
from .classical import FinObj, PartialFn, PartialInj

if TYPE_CHECKING:
    import numpy as np

    from .quantum import Channel, Isometry

PINJ = "pinj"
ISO = "isometry"


class BaseMismatchError(ValueError):
    pass


class EndpointMismatchError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class AuxMorphism:
    """A garbage-carrying morphism: core f : A -> B (x) E in the base, a
    PartialInj (cod size b * e, flat, B major) or an Isometry (b * e rows).
    Garbage is tracked by its size e; dom/cod report flat sizes.  An isometry
    core needs a column and e >= 1, since its collapsed channel needs
    positive dimensions."""

    core: Union[PartialInj, Isometry]
    cod_size: int
    garbage_size: int
    base: str = field(init=False)
    dom_size: int = field(init=False)

    def __post_init__(self) -> None:
        core = self.core
        if isinstance(core, PartialInj):
            base, dom, flat, what = PINJ, core.dom.size, core.cod.size, "core codomain does"
        else:
            if not isinstance(core, revcat.quantum.Isometry):
                kind = type(core).__name__
                raise ValueError(f"core must be a PartialInj or an Isometry, got {kind}")
            base, dom, flat, what = ISO, core.cols, core.rows, "core rows do"
        for name in ("cod_size", "garbage_size"):
            size = getattr(self, name)
            if type(size) is not int or size < 0:
                raise ValueError(f"{name} {size!r} is not a nonnegative integer")
        if base == ISO and not (dom and self.garbage_size):  # no channel to collapse to
            raise ValueError("an isometry core needs a nonzero column count and garbage size")
        if flat != self.cod_size * self.garbage_size:
            raise ValueError(f"{what} not factor as B x E")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dom_size", dom)

    @cl.once
    def visible_graph(self) -> tuple[tuple[int, int], ...]:
        """The pinj core's graph with the garbage dropped: pairs (x, b) of its
        pairs (x, (b, e))."""
        e = self.garbage_size
        return tuple((x, y // e) for x, y in self.core.graph) if e else ()

    @cl.once
    def collapsed(self) -> Union[PartialFn, Channel]:
        """The visible partial function, or the channel with the garbage
        traced out."""
        if self.base == PINJ:
            return visible_fn(self)
        return revcat.quantum.channel_of_isometry(self.core, self.garbage_size)

    @cl.once
    def normal_form(self) -> Union[tuple[tuple, tuple], Channel]:
        """The class invariant: over pinj the plain hashable pair (visible
        graph, garbage partition) of int tuples, over isometries the channel."""
        if self.base == PINJ:
            return self.visible_graph, garbage_partition(self)
        return self.collapsed

    @cl.once
    def restricted(self) -> "AuxMorphism":
        """r(f), the partial identity where f is defined, with trivial
        garbage."""
        if self.base == PINJ:
            return embed(cl.ridm(self.core))
        return aux_id(self.dom_size, ISO)  # isometries are total

    def to_json(self) -> dict:
        # Garbage size 0 has only the empty core, written with codomain shape
        # [B, 0], which keeps B (a built one may have another, such as [0]).
        core = self.core if self.garbage_size else cl.empty_map(self.core.dom, FinObj((self.cod_size, 0)))
        return {
            "base": self.base,
            "garbage_shape": [self.garbage_size],
            "core": core.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "AuxMorphism":
        where = "garbage-carrying morphism"
        base = cl.json_field(data, "base", where)
        shape = cl.json_field(data, "garbage_shape", where)
        if not isinstance(shape, list):
            raise ValueError(f"garbage_shape {shape!r} is not a list")
        shape = [cl.json_int(n, "garbage_shape entry") for n in shape]
        if min(shape, default=0) < 0:
            raise ValueError(f"garbage_shape {shape} has a negative entry")
        e = prod(shape)
        core = cl.json_object(cl.json_field(data, "core", where), "core")
        if base == PINJ:
            core = PartialInj.from_json(core)
            if e == 0:
                if core.cod.shape[1:] != (0,):
                    raise ValueError("garbage size 0 needs a core codomain of shape [B, 0]")
                return cls(core, core.cod.shape[0], 0)
            # __post_init__ rejects a codomain that does not factor as B x E.
            return cls(core, core.cod.size // e, e)
        if base == ISO:
            if e == 0:
                raise ValueError("garbage size 0 exists only over the pinj base")
            core = revcat.quantum.Isometry(revcat.quantum.matrix_from_json(core, "core"))
            return cls(core, core.rows // e, e)
        raise ValueError(f"unknown base {base!r}")


def _same_base(f: AuxMorphism, g: AuxMorphism) -> None:
    if f.base != g.base:
        raise BaseMismatchError(f"bases differ: {f.base} vs {g.base}")


def _same_endpoints(f: AuxMorphism, g: AuxMorphism) -> None:
    _same_base(f, g)
    if f.dom_size != g.dom_size or f.cod_size != g.cod_size:
        raise EndpointMismatchError(
            f"endpoints differ: {f.dom_size}->{f.cod_size} vs {g.dom_size}->{g.cod_size}"
        )


# -- constructors -------------------------------------------------------------

def _permute_rows(p: PartialInj, mat: np.ndarray) -> np.ndarray:
    """Move row x of mat to row p(x), for a structural permutation p."""
    import numpy as np
    out = np.empty_like(mat)
    out[[y for _, y in p.graph]] = mat
    return out


def embed(f: Union[PartialInj, Isometry]) -> AuxMorphism:
    """The base morphism with trivial garbage (the embedding functor)."""
    if isinstance(f, PartialInj):
        return cl.make(AuxMorphism, f, f.cod.size, 1)
    return AuxMorphism(f, f.rows, 1)


def _structural(perm: PartialInj, cod_size: int, garbage_size: int, base: str) -> AuxMorphism:
    """The total morphism whose core is the structural permutation perm: perm
    itself over pinj, its permutation matrix over isometries."""
    if base == PINJ:
        return cl.make(AuxMorphism, perm, cod_size, garbage_size)
    if base == ISO:
        import numpy as np
        mat = _permute_rows(perm, np.eye(perm.dom.size, dtype=complex))
        return AuxMorphism(revcat.quantum.Isometry(mat), cod_size, garbage_size)
    raise ValueError(f"unknown base {base!r}")


@functools.lru_cache(maxsize=None, typed=True)
def aux_id(size: int, base: str = PINJ) -> AuxMorphism:
    """The identity on size, memoised on its arguments for the process
    (module docstring); typed, so ``True`` is no key for 1."""
    ident = cl.identity(FinObj.of_size(size))
    if base == PINJ:
        f = AuxMorphism(ident, size, 1)
        object.__setattr__(f, "collapsed", PartialFn(ident.dom, ident.cod, f.visible_graph))
    else:
        f = _structural(ident, size, 1, base)
    object.__setattr__(f, "restricted", f)  # r(id) = id; a cycle, but the cache keeps f
    return f


def bang(size: int, base: str = PINJ) -> AuxMorphism:
    """The unique total morphism A -> I: keep everything as garbage."""
    return _structural(cl.identity(FinObj.of_size(size)), 1, size, base)


def proj1(a: int, b: int, base: str = PINJ) -> AuxMorphism:
    """Total projection A (x) B -> A with garbage B."""
    return _structural(cl.identity(FinObj((a, b))), a, b, base)


def proj2(a: int, b: int, base: str = PINJ) -> AuxMorphism:
    """Total projection A (x) B -> B with garbage A."""
    return _structural(cl.coherence("symm", (a, b)), b, a, base)


# -- structure ----------------------------------------------------------------

def aux_compose(g: AuxMorphism, f: AuxMorphism) -> AuxMorphism:
    """Composite with garbage E' (x) E, core (g (x) id_E) o f (reassociated).
    For the pinj base the core is built in one pass: f's pair (x, y) with
    y = (b, e) becomes (x, (g(b), e)) when g is defined at b."""
    _same_base(f, g)
    if f.cod_size != g.dom_size:
        raise EndpointMismatchError(f"cod {f.cod_size} != dom {g.dom_size}")
    if f.base == PINJ:
        e, gm = f.garbage_size, g.core.mapping
        core = cl.make(
            PartialInj,
            f.core.dom,
            g.core.cod.tensor(FinObj.of_size(e)),
            tuple((x, gm[y // e] * e + y % e) for x, y in f.core.graph if y // e in gm),
        )
        return cl.make(AuxMorphism, core, g.cod_size, g.garbage_size * e)
    import numpy as np
    core = revcat.quantum.Isometry(np.kron(g.core.mat, np.eye(f.garbage_size)) @ f.core.mat)
    return AuxMorphism(core, g.cod_size, g.garbage_size * f.garbage_size)


def aux_ridm(f: AuxMorphism) -> AuxMorphism:
    """r(f), ``AuxMorphism.restricted``."""
    return f.restricted


def aux_tensor(f: AuxMorphism, g: AuxMorphism) -> AuxMorphism:
    """Tensor with garbage E (x) E'; the middle-factor interchange moves both
    garbage factors to the right.  For the pinj base the core is
    theta o (f (x) g) with theta the interchange, built in one pass: theta is
    a total permutation with a sorted graph, so its pair at index i is (i,
    theta(i))."""
    _same_base(f, g)
    theta = cl.coherence(
        "interchange", (f.cod_size, f.garbage_size, g.cod_size, g.garbage_size)
    )
    cod_size, garbage_size = f.cod_size * g.cod_size, f.garbage_size * g.garbage_size
    if f.base == PINJ:
        fc, gc, moved = f.core, g.core, theta.graph
        n, m = gc.dom.size, gc.cod.size
        core = cl.make(
            PartialInj,
            fc.dom.tensor(gc.dom),
            theta.cod,
            tuple(
                (x * n + y, moved[fx * m + gy][1])
                for x, fx in fc.graph
                for y, gy in gc.graph
            ),
        )
        return cl.make(AuxMorphism, core, cod_size, garbage_size)
    import numpy as np
    core = revcat.quantum.Isometry(_permute_rows(theta, np.kron(f.core.mat, g.core.mat)))
    return AuxMorphism(core, cod_size, garbage_size)


def factorize(f: AuxMorphism) -> tuple[AuxMorphism, AuxMorphism]:
    """Split f into its embedded core followed by the first projection."""
    embedded = embed(f.core)
    projection = proj1(f.cod_size, f.garbage_size, f.base)
    return embedded, projection


def collapsed_equal(f: AuxMorphism, g: AuxMorphism) -> bool:
    """Whether f and g agree once the garbage is forgotten: the same visible
    partial function, or channels equal within 1e-9."""
    if f is g:
        return True
    _same_endpoints(f, g)
    if f.base == PINJ:
        return f.visible_graph == g.visible_graph
    return f.collapsed.close_to(g.collapsed, cl.ATOL)


# -- pinj normal forms and equivalence ---------------------------------------

def visible_fn(f: AuxMorphism) -> PartialFn:
    """The first-component partial function of a pinj-based morphism."""
    if f.base != PINJ:
        raise BaseMismatchError("visible_fn requires the pinj base")
    return cl.make(
        PartialFn, FinObj.of_size(f.dom_size), FinObj.of_size(f.cod_size), f.visible_graph
    )


def garbage_partition(f: AuxMorphism) -> tuple[tuple[int, ...], ...]:
    """Blocks of dom(f) with equal garbage component, sorted by least member:
    the core's graph is sorted by input, so each block is built in order and
    the blocks are met in order of their least members."""
    if f.base != PINJ:
        raise BaseMismatchError("garbage_partition requires the pinj base")
    e = f.garbage_size
    blocks: dict[int, list[int]] = {}
    for x, y in f.core.graph:
        blocks.setdefault(y % e, []).append(x)
    return tuple(map(tuple, blocks.values()))


def normal_form(f: AuxMorphism) -> Union[tuple[tuple, tuple], Channel]:
    """f's class invariant, ``AuxMorphism.normal_form``: equal exactly for
    equivalent morphisms with the same endpoints."""
    return f.normal_form


# Kept apart from aux_equiv: inlined there, its dict comprehension would make
# aux_equiv's locals closure cells on CPython 3.11, which slows every call.
def direct_mediator(f: AuxMorphism, g: AuxMorphism) -> PartialInj:
    """The one-step mediator h : E_f -> E_g witnessing f ~ g; assumes the
    normal forms agree."""
    ef, eg = f.garbage_size, g.garbage_size
    gg = g.core.mapping
    pairs = {y % ef: gg[x] % eg for x, y in f.core.graph}
    return PartialInj(
        FinObj.of_size(ef), FinObj.of_size(eg), tuple(pairs.items())
    )


def aux_equal(f: AuxMorphism, g: AuxMorphism) -> bool:
    """Decide the garbage-mediated equivalence: equal normal forms, or for
    the isometry base Choi equality within 1e-9."""
    if f is g:
        return True
    if f.base != g.base or f.dom_size != g.dom_size or f.cod_size != g.cod_size:
        _same_endpoints(f, g)  # raises the mismatch
    if f.base == ISO:
        return collapsed_equal(f, g)
    return f.normal_form == g.normal_form


def aux_equiv(f: AuxMorphism, g: AuxMorphism) -> Optional[PartialInj]:
    """The pinj equivalence of aux_equal with its witness: the direct mediator
    when equivalent, None otherwise.  Over isometries Choi equality is the
    only witness, so ask aux_equal there; this raises BaseMismatchError."""
    if f.base != PINJ:
        raise BaseMismatchError("aux_equiv requires the pinj base; use aux_equal")
    if f.base != g.base or f.dom_size != g.dom_size or f.cod_size != g.cod_size:
        _same_endpoints(f, g)  # raises the mismatch
    return direct_mediator(f, g) if f.normal_form == g.normal_form else None


def replay_witness(f: AuxMorphism, g: AuxMorphism, h: PartialInj) -> bool:
    """Check that the pinj mediator h really relates f to g in the base: it
    keeps where f is defined and carries f's core to g's."""
    ident = cl.identity(FinObj.of_size(f.cod_size))
    core = cl.compose(cl.tensor_prod(ident, h), f.core)
    return (
        cl.ridm(core).graph == cl.ridm(f.core).graph
        and (f.dom_size, f.cod_size, h.cod.size) == (g.dom_size, g.cod_size, g.garbage_size)
        and core.graph == g.core.graph
    )


# -- points -------------------------------------------------------------------

def points_of(size: int) -> list[AuxMorphism]:
    """All global points I -> A for the pinj base: one per element plus the
    nowhere-defined point, in canonical trivial-garbage form."""
    one = FinObj.of_size(1)
    a = FinObj.of_size(size)
    graphs = [((0, val),) for val in range(size)] + [()]
    return [cl.make(AuxMorphism, cl.make(PartialInj, one, a, graph), size, 1) for graph in graphs]
