"""Extensional quotient: identify morphisms that agree on all global points.

Over the pinj base this is a genuine quotient (garbage is intensional there):
two garbage-carrying morphisms are identified exactly when their visible
partial functions coincide.  Over the isometry base the induced channel is
already extensional, so nothing changes.  The quotient is the equivalence
relation ``ext_equiv`` on garbage-carrying morphisms; a class is held by any
of its representatives.

Also ships the point-agreement checks that make "partial functions and
quantum channels are determined by their behaviour on states" testable:
a congruence sampler and a tomographic-family check for channels.
"""

from __future__ import annotations

import numpy as np

from . import classical as cl
from . import garbage as gb
from . import quantum as qu
from .classical import FinObj, PartialFn, PartialInj
from .garbage import AuxMorphism, ISO
from .lawcheck import ConfigurationError, LawReport


# Agreement on all global points is equality once the garbage is forgotten.
ext_equiv = gb.collapsed_equal


def pfn_functor(f: PartialFn) -> AuxMorphism:
    """The input-preserving reversibilization, as a representative of its
    extensional class."""
    return AuxMorphism(cl.bennett(f), f.cod.size, f.dom.size)


# The visible partial function; inverse to pfn_functor up to the quotient.
pfn_normalize = gb.visible_fn


def tomographic_family(d: int) -> list[np.ndarray]:
    """A spanning family of d*d states: basis projectors plus real and
    imaginary pairwise superpositions."""
    states = []
    for i in range(d):
        s = np.zeros((d, d), dtype=complex)
        s[i, i] = 1.0
        states.append(s)
    for i in range(d):
        for j in range(i + 1, d):
            v = np.zeros(d, dtype=complex)
            v[i] = 1.0
            v[j] = 1.0
            states.append(np.outer(v, v.conj()) / 2)
            w = np.zeros(d, dtype=complex)
            w[i] = 1.0
            w[j] = 1j
            states.append(np.outer(w, w.conj()) / 2)
    return states


def channels_agree_on_family(a: qu.Channel, b: qu.Channel) -> bool:
    """Equal dimensions and outputs within ROUND_ATOL on every family member."""
    if a.din != b.din or a.dout != b.dout:
        return False
    return all(
        np.max(np.abs(a.apply(s) - b.apply(s))) <= qu.ROUND_ATOL
        for s in tomographic_family(a.din)
    )


def wellpointed_check_cptp(d: int, trials: int, seed: int = 0) -> LawReport:
    """Channels are determined by the tomographic family: equal Chois agree on
    every family member, and distinct random channels disagree somewhere."""
    if d > 4:
        raise ValueError("well-pointedness check supports d <= 4")
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    rng = np.random.default_rng(seed)
    for t in range(trials):
        c1 = qu.random_channel(d, d, 2, rng)
        # Same channel through a different (mixed) Kraus presentation.
        ks = qu.kraus_of_choi(c1)
        if len(ks) >= 2:
            u = qu.haar_unitary(len(ks), rng).mat
            mixed = [sum(u[i, j] * ks[j] for j in range(len(ks))) for i in range(len(ks))]
            c1b = qu.choi_of_kraus(mixed)
        else:
            c1b = c1
        if not channels_agree_on_family(c1, c1b):
            return LawReport("cptp_wellpointed", trials, False,
                             counterexample=(c1, c1b),
                             detail="equal channels disagree on the state family")
        c2 = qu.random_channel(d, d, 2, rng)
        distinct = np.max(np.abs(c1.choi - c2.choi)) > 1e-6
        if distinct and channels_agree_on_family(c1, c2):
            return LawReport("cptp_wellpointed", trials, False,
                             counterexample=(c1, c2),
                             detail="distinct Chois agree on the whole state family")
    return LawReport("cptp_wellpointed", trials, True)


def ext_congruence_check(trials: int, seed: int = 0) -> LawReport:
    """Composition, tensor, and restriction respect the point-agreement
    quotient, on random data in both shipped bases (pinj objects of size
    1..4)."""
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    rng = np.random.default_rng(seed)
    for t in range(trials):
        if not _pinj_congruence_trial(rng):
            return LawReport("ext_congruence", trials, False,
                             detail=f"pinj congruence failed at trial {t}")
        if not _iso_congruence_trial(rng):
            return LawReport("ext_congruence", trials, False,
                             detail=f"isometry congruence failed at trial {t}")
    return LawReport("ext_congruence", trials, True)


def _random_pfn(rng: np.random.Generator, a: int, b: int) -> PartialFn:
    graph = tuple(
        (x, int(rng.integers(0, b)))
        for x in range(a)
        if b > 0 and rng.random() < 0.7
    )
    return PartialFn(FinObj.of_size(a), FinObj.of_size(b), graph)


def _pinj_congruence_trial(rng: np.random.Generator) -> bool:
    a, b, c = (int(rng.integers(1, 5)) for _ in range(3))
    f = _random_pfn(rng, a, b)
    # Two representatives of the same class: minimal garbage and full-copy garbage.
    rep1 = AuxMorphism(_distinct_garbage_core(f), f.cod.size, f.dom.size + 1)
    rep2 = pfn_functor(f)
    if not ext_equiv(rep1, rep2):
        return False
    g = _random_pfn(rng, b, c)
    gaux = pfn_functor(g)
    lhs = gb.aux_compose(gaux, rep1)
    rhs = gb.aux_compose(gaux, rep2)
    if not ext_equiv(lhs, rhs):
        return False
    h = _random_pfn(rng, a, b)
    haux = pfn_functor(h)
    if not ext_equiv(gb.aux_tensor(rep1, haux), gb.aux_tensor(rep2, haux)):
        return False
    return ext_equiv(gb.aux_ridm(rep1), gb.aux_ridm(rep2))


def _distinct_garbage_core(f: PartialFn) -> PartialInj:
    """An injective core for f with garbage A+1, shifting garbage values."""
    e = f.dom.size + 1
    graph = tuple((x, y * e + (x + 1) % e) for x, y in f.graph)
    return PartialInj(f.dom, FinObj((f.cod.size, e)), graph)


def _iso_congruence_trial(rng: np.random.Generator) -> bool:
    d = int(rng.integers(2, 4))
    c = qu.random_channel(d, d, 2, rng)
    v1, r = qu.minimal_stinespring(c)
    # A non-minimal dilation of the same channel: pad the environment.
    pad = np.zeros((d * (r + 1), d), dtype=complex)
    v1m = v1.mat.reshape(d, r, d)
    padm = pad.reshape(d, r + 1, d)
    padm[:, :r, :] = v1m
    v2 = qu.Isometry(padm.reshape(d * (r + 1), d))
    f1 = AuxMorphism(v1, d, r)
    f2 = AuxMorphism(v2, d, r + 1)
    if not ext_equiv(f1, f2):
        return False
    # Tensor with the identity, then compose with an entangling isometry.
    ident = gb.aux_id(d, ISO)
    t1, t2 = gb.aux_tensor(f1, ident), gb.aux_tensor(f2, ident)
    if not ext_equiv(t1, t2):
        return False
    w = qu.haar_isometry(d * d * 2, d * d, rng)
    waux = AuxMorphism(w, d * d, 2)
    return ext_equiv(gb.aux_compose(waux, t1), gb.aux_compose(waux, t2))
