"""Shipped category instances for the law-checking engine.

Classical instances enumerate their hom-sets when the object-size bound is
small (<= 3), enabling exhaustive law checks; larger bounds and the quantum
instances are sampled randomly.  Two instances list their global points, the
oracle the well-pointedness laws need: ``cptp`` (the tomographic states, as
channels 1 -> d) and ``ext-aux-pinj`` (``garbage.points_of``).
"""

from __future__ import annotations

import numpy as np

from . import classical as cl
from . import extensional as ex
from . import garbage as gb
from . import quantum as qu
from .classical import FinObj, PartialFn, PartialInj
from .garbage import AuxMorphism
from .lawcheck import CategoryInstance


def _random_graph(rng, n: int, m: int, injective: bool) -> tuple:
    if m == 0:
        return ()
    pairs = []
    used = set()
    for x in range(n):
        if rng.random() < 0.75:
            y = int(rng.integers(0, m))
            if injective:
                if y in used:
                    continue
                used.add(y)
            pairs.append((x, y))
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
        eq=lambda f, g: f.same_table(g),
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
    return _matrix_instance(
        "unitary", qu.Unitary, lambda rng, d: qu.haar_unitary(d, rng), max_dim, dagger=True
    )


def make_isometry_instance(max_dim: int = 3) -> CategoryInstance:
    def sample_mat(rng, c):
        return qu.haar_isometry(c * int(rng.integers(1, 3)), c, rng)

    return _matrix_instance("isometry", qu.Isometry, sample_mat, max_dim, dagger=False)


def make_cptp_instance(max_dim: int = 3) -> CategoryInstance:
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

    if extensional:
        eq = lambda f, g: ex.ext_equiv(f, g)
    else:
        eq = lambda f, g: gb.aux_equal(f, g)

    enum_objs = enum_mors = None
    if max_size <= 3:
        enum_objs = lambda: list(range(max_size + 1))
        enum_mors = lambda a, b: enumerate_aux_pinj(a, b, max_garbage)

    return CategoryInstance(
        name="ext_aux_pinj" if extensional else "aux_pinj",
        sample_mor=sample_mor,
        dom=lambda f: f.dom_size,
        cod=lambda f: f.cod_size,
        compose=gb.aux_compose,
        identity=gb.aux_id,
        eq=eq,
        restrict=gb.aux_ridm,
        tensor_mor=gb.aux_tensor,
        unit=1,
        enumerate_objs=enum_objs,
        enumerate_mors=enum_mors,
        points=gb.points_of if extensional else None,
    )


INSTANCES = {
    "pfn": lambda: make_pfn_instance(2),
    "pfn-large": lambda: make_pfn_instance(6),
    "pinj": lambda: make_pinj_instance(2),
    "pinj-large": lambda: make_pinj_instance(6),
    "unitary": make_unitary_instance,
    "isometry": make_isometry_instance,
    "cptp": make_cptp_instance,
    "aux-pinj": lambda: make_aux_pinj_instance(2, 2),
    "ext-aux-pinj": lambda: make_aux_pinj_instance(2, 2, extensional=True),
}
