"""Shipped category instances for the law-checking engine.

Classical instances enumerate their hom-sets when the object-size bound is
small (<= 3), enabling exhaustive law checks; larger bounds and the quantum
instances are sampled randomly, and a seed fixes the samples within one
version of revcat, not across versions.  Two instances list their global
points, the oracle the well-pointedness laws need: ``cptp`` (the tomographic
states, as channels 1 -> d) and ``ext-aux-pinj`` (``garbage.points_of``).
``aux-pinj`` has none: before the quotient, two morphisms with one visible
function but different garbage agree on every point, so it would fail
``wellpointed``.  Building or enumerating a classical instance loads no
numpy; only its sampler takes a numpy generator.

A classical instance's ``eq`` oracle is the decider itself, which answers
``f is g`` first.  ``dom`` and ``cod`` stay lambdas: on CPython 3.11 an
``operator.attrgetter`` reads a dataclass field more slowly than a lambda,
whose attribute load is specialised.  ``restrict`` stays the function
``classical.ridm`` or ``garbage.aux_ridm``, not a getter of ``restricted``:
the benchmark's tracer (``perfbench``) counts calls to those functions, and
would read 0 for them.
"""

from __future__ import annotations

from dataclasses import replace

import revcat

from . import classical as cl
from . import extensional as ex
from . import garbage as gb
from .classical import FinObj, PartialFn, PartialInj
from .garbage import AuxMorphism
from .lawcheck import CategoryInstance


def _random_graph(rng, n: int, m: int, injective: bool) -> tuple:
    """A random sorted graph of a partial map n -> m, from one draw of n floats.
    Each input is defined with probability 3/4, and its output is uniform on
    range(m) and independent of every other draw: y = floor(u * 4m/3) is each
    k < m with probability 3/(4m), up to the 2^-53 grain of u, and y >= m is
    undefined.  In an injective graph, an input whose output an earlier input
    already took stays undefined."""
    pairs, used = [], set()
    for x, y in enumerate((rng.random(n) * (4 * m / 3)).astype(int).tolist()):
        if y < m and y not in used:
            pairs.append((x, y))
            if injective:
                used.add(y)
    return tuple(pairs)


def make_pfn_instance(max_size: int = 4, injective: bool = False) -> CategoryInstance:
    cls = PartialInj if injective else PartialFn

    def sample_obj(rng):
        return FinObj.of_size(int(rng.integers(0, max_size + 1)))

    def sample_mor(rng, dom):
        a = dom if dom is not None else sample_obj(rng)
        b = sample_obj(rng)
        return cls(a, b, _random_graph(rng, a.size, b.size, injective))

    enum_objs = enum_mors = None
    if max_size <= 3:
        enum = cl.all_partial_injections if injective else cl.all_partial_fns
        enum_objs = lambda: [FinObj.of_size(n) for n in range(max_size + 1)]
        enum_mors = lambda a, b: list(enum(a, b))

    return CategoryInstance(
        name="pinj" if injective else "pfn",
        sample_mor=sample_mor,
        dom=lambda f: f.dom,
        cod=lambda f: f.cod,
        compose=cl.compose,
        identity=cl.identity,
        eq=PartialFn.same_table,
        restrict=cl.ridm,
        dagger=cl.dagger if injective else None,
        tensor_mor=cl.tensor_prod,
        unit=cl.UNIT,
        enumerate_objs=enum_objs,
        enumerate_mors=enum_mors,
    )


def make_pinj_instance(max_size: int = 4) -> CategoryInstance:
    return make_pfn_instance(max_size, injective=True)


def _matrix_instance(name, wrap, sample_mat, max_dim: int, dagger: bool) -> CategoryInstance:
    """Matrices of one class (``wrap``) under product and kron, compared
    entrywise within 1e-9.  sample_mat(rng, cols) draws a morphism from
    cols dimensions."""
    import numpy as np

    def sample_obj(rng):
        return int(rng.integers(1, max_dim + 1))

    def sample_mor(rng, dom):
        return sample_mat(rng, dom if dom is not None else sample_obj(rng))

    return CategoryInstance(
        name=name,
        sample_mor=sample_mor,
        dom=lambda m: m.mat.shape[1],
        cod=lambda m: m.mat.shape[0],
        compose=lambda g, f: wrap(g.mat @ f.mat),
        identity=lambda d: wrap(np.eye(d, dtype=complex)),
        eq=lambda m, n: m.close_to(n),
        restrict=lambda m: wrap(np.eye(m.mat.shape[1], dtype=complex)),
        dagger=(lambda m: wrap(m.mat.conj().T)) if dagger else None,
        tensor_mor=lambda m, n: wrap(np.kron(m.mat, n.mat)),
        unit=1,
    )


def make_unitary_instance(max_dim: int = 3) -> CategoryInstance:
    qu = revcat.quantum
    return _matrix_instance(
        "unitary", qu.Unitary, lambda rng, d: qu.haar_unitary(d, rng), max_dim, dagger=True
    )


def make_isometry_instance(max_dim: int = 3) -> CategoryInstance:
    qu = revcat.quantum

    def sample_mat(rng, c):
        return qu.haar_isometry(c * int(rng.integers(1, 3)), c, rng)

    return _matrix_instance("isometry", qu.Isometry, sample_mat, max_dim, dagger=False)


def make_cptp_instance(max_dim: int = 3) -> CategoryInstance:
    qu = revcat.quantum

    def sample_obj(rng):
        return int(rng.integers(1, max_dim + 1))

    def sample_mor(rng, dom):
        din = dom if dom is not None else sample_obj(rng)
        dout = sample_obj(rng)
        return qu.random_channel(din, dout, 2, rng)

    return CategoryInstance(
        name="cptp",
        sample_mor=sample_mor,
        dom=lambda c: c.din,
        cod=lambda c: c.dout,
        compose=qu.channel_compose,
        identity=qu.identity_channel,
        eq=lambda a, b: a.close_to(b, qu.ROUND_ATOL),
        restrict=lambda c: qu.identity_channel(c.din),
        tensor_mor=qu.channel_tensor,
        unit=1,
        points=lambda d: [qu.Channel(1, d, rho) for rho in ex.tomographic_family(d)],
    )


def enumerate_aux_pinj(a: int, b: int, max_garbage: int = 2) -> list[AuxMorphism]:
    """Every pinj-based garbage-carrying morphism a -> b with garbage size up
    to max_garbage (garbage 0 exists only as the empty morphism)."""
    out = []
    dom = FinObj.of_size(a)
    for e in range(max_garbage + 1):
        cod = FinObj((b, e))
        for core in cl.all_partial_injections(dom, cod):
            out.append(cl.make(AuxMorphism, core, b, e))
    return out


def make_aux_pinj_instance(
    max_size: int = 2,
    max_garbage: int = 2,
    extensional: bool = False,
) -> CategoryInstance:
    def sample_obj(rng):
        return int(rng.integers(0, max_size + 1))

    def sample_mor(rng, dom):
        a = dom if dom is not None else sample_obj(rng)
        b = sample_obj(rng)
        e = int(rng.integers(1, max_garbage + 1))
        core = PartialInj(
            FinObj.of_size(a), FinObj((b, e)), _random_graph(rng, a, b * e, True)
        )
        return AuxMorphism(core, b, e)

    enum_objs = enum_mors = None
    if max_size <= 3:
        enum_objs = lambda: list(range(max_size + 1))
        enum_mors = lambda a, b: enumerate_aux_pinj(a, b, max_garbage)

    cat = CategoryInstance(
        name="aux-pinj",
        sample_mor=sample_mor,
        dom=lambda f: f.dom_size,
        cod=lambda f: f.cod_size,
        compose=gb.aux_compose,
        identity=gb.aux_id,
        eq=gb.aux_equal,
        restrict=gb.aux_ridm,
        tensor_mor=gb.aux_tensor,
        unit=1,
        enumerate_objs=enum_objs,
        enumerate_mors=enum_mors,
    )
    if not extensional:
        return cat
    # The extensional quotient: the same morphisms, compared on global points.
    return replace(cat, name="ext-aux-pinj", eq=ex.ext_equiv, points=gb.points_of)


# The CLI's instances, each named by its key; called directly, a factory keeps
# its own name.
INSTANCES = {
    key: lambda key=key, make=make: replace(make(), name=key)
    for key, make in {
        "pfn": lambda: make_pfn_instance(2),
        "pfn-large": lambda: make_pfn_instance(6),
        "pinj": lambda: make_pinj_instance(2),
        "pinj-large": lambda: make_pinj_instance(6),
        "unitary": make_unitary_instance,
        "isometry": make_isometry_instance,
        "cptp": make_cptp_instance,
        "aux-pinj": lambda: make_aux_pinj_instance(2, 2),
        "ext-aux-pinj": lambda: make_aux_pinj_instance(2, 2, extensional=True),
    }.items()
}
