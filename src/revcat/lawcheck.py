"""Instance-parametric law checker for restriction, inverse, dagger, and
monoidal structure on concrete finite categories, and for well-pointedness
and the congruence of a quotient.

A category is described by oracles (composition, identity, equality, and
optionally restriction, dagger, tensor and its unit, global points) plus
samplers and, where feasible, enumerators.  Laws are registered
declaratively as (name, sampling pattern, equation, oracles needed); the
engine enumerates exhaustively when the tuple count is within EXHAUSTIVE_CAP
and otherwise draws seeded random samples, and returns the first
counterexample found.  An equation is a plain predicate
check(cat, *morphisms) -> bool on the pattern's morphisms; one that raises a
ValueError on a tuple (an oracle producing a morphism it cannot compose, say)
fails the law with that tuple as its counterexample.  A ConfigurationError,
or the ValueError of an unknown pattern, is raised before the first tuple.

The memo of an exhaustive run.  Each run_law call runs in a
``classical.sharing`` scope, where equal values are mostly one object, and a
law recomputes the same operations on them many times.  So an exhaustive run
memoises them (memo functions, after Michie, Nature 1968): compose and
tensor_mor under the ids of their two operands, packed in one int (CPython
ids are addresses, below 2**64), and dagger under the id of its operand.  An
entry holds its result and its operands, so no id is reused while the memo
lives; a call that raises stores nothing; the memo is cleared when run_law
returns or raises.  The memoised oracles, like ``classical.make``, are
fixed-arity functions rather than ``*args`` ones, because CPython 3.11 does
not specialise ``*args`` calls and these run on nearly every oracle call of
an exhaustive run.  Random mode is not memoised: its tuples are fresh
samples, and a memo would only keep their results, Choi matrices among them,
alive.  Only random mode imports numpy, for its generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial
from math import prod
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

from .classical import numerical_failure, sharing

if TYPE_CHECKING:
    import numpy as np

EXHAUSTIVE_CAP = 250_000


class ConfigurationError(ValueError):
    """A law was requested on an instance lacking the needed oracle, or a
    random-mode check was asked for no trials or a negative seed."""


@dataclass(frozen=True, eq=False)
class CategoryInstance:
    """Oracle description of a concrete category.

    sample_mor(rng, dom) draws a morphism, from the given object when dom is
    not None and from an object of the sampler's choosing otherwise.
    enumerate_mors(a, b), when present, yields the whole hom-set and enables
    exhaustive checking.  points(a), when present, lists the global points
    I -> a.  There is no rendering oracle: LawReport.to_json writes each
    counterexample morphism m as m.to_json().
    """

    name: str
    sample_mor: Callable[[np.random.Generator, Any], Any]
    dom: Callable[[Any], Any]
    cod: Callable[[Any], Any]
    compose: Callable[[Any, Any], Any]
    identity: Callable[[Any], Any]
    eq: Callable[[Any, Any], bool]
    restrict: Optional[Callable[[Any], Any]] = None
    dagger: Optional[Callable[[Any], Any]] = None
    tensor_mor: Optional[Callable[[Any, Any], Any]] = None
    unit: Any = None
    enumerate_objs: Optional[Callable[[], list]] = None
    enumerate_mors: Optional[Callable[[Any, Any], list]] = None
    points: Optional[Callable[[Any], list]] = None


@dataclass(frozen=True)
class LawReport:
    """Outcome of checking one law; a counterexample replays to a failure."""

    law: str
    trials: int
    passed: bool
    counterexample: Optional[tuple] = None
    detail: str = ""
    mode: str = "random"

    def to_json(self) -> dict:
        t = self.counterexample
        return {**vars(self), "counterexample": None if t is None else [m.to_json() for m in t]}


@dataclass(frozen=True)
class Law:
    """A checkable equation: a sampling pattern (a key of PATTERNS) plus a
    predicate check(cat, *morphisms) on the pattern's morphisms."""

    name: str
    pattern: str
    check: Callable[..., bool]
    needs: frozenset = frozenset()


def _require(cat: CategoryInstance, needs: Iterable[str]) -> None:
    for n in needs:
        if getattr(cat, n) is None:
            raise ConfigurationError(f"instance {cat.name!r} has no {n} oracle")


# Each pattern lists its morphism slots in order.  A slot's domain is any
# object (None) or an end of an earlier slot: ("dom", j) or ("cod", j).
PATTERNS: dict[str, tuple[Optional[tuple[str, int]], ...]] = {
    "single": (None,),  # f : A -> B
    "same_dom": (None, ("dom", 0)),  # f : A -> B, g : A -> C
    "chain": (None, ("cod", 0)),  # f : A -> B, g : B -> C
    "chain3": (None, ("cod", 0), ("cod", 1)),  # f : A -> B, g : B -> C, h : C -> D
    "pair": (None, None),  # f : A -> B, g : C -> D
    "fork_chain": (None, ("dom", 0), ("cod", 0)),  # f : A -> B, g : A -> C, h : B -> D
}


def _slots(pattern: str) -> tuple[Optional[tuple[str, int]], ...]:
    try:
        return PATTERNS[pattern]
    except KeyError:
        raise ValueError(f"unknown pattern {pattern!r}") from None


def _sample_tuple(cat: CategoryInstance, pattern: str, rng: np.random.Generator) -> tuple:
    out: list = []
    for tie in _slots(pattern):
        dom = None if tie is None else getattr(cat, tie[0])(out[tie[1]])
        out.append(cat.sample_mor(rng, dom))
    return tuple(out)


def _enumerate_tuples(
    cat: CategoryInstance, pattern: str
) -> Optional[tuple[int, Iterator[tuple]]]:
    """The tuple count and a lazy stream of every tuple the pattern admits,
    or None when the instance does not enumerate or the count exceeds
    EXHAUSTIVE_CAP.  Tuples come shape by shape, a shape being the (dom, cod)
    objects of every slot in lexicographic order."""
    slots = _slots(pattern)
    if cat.enumerate_objs is None or cat.enumerate_mors is None:
        return None
    objs = cat.enumerate_objs()
    homs = {(a, b): cat.enumerate_mors(a, b) for a in objs for b in objs}
    shapes: list[tuple] = [()]  # per slot, its hom-set key (dom, cod)
    for tie in slots:
        shapes = [
            shape + ((a, b),)
            for shape in shapes
            for a in (objs if tie is None else [shape[tie[1]][tie[0] == "cod"]])
            for b in objs
        ]
    count = sum(prod(len(homs[hom]) for hom in shape) for shape in shapes)
    if count > EXHAUSTIVE_CAP:
        return None
    stream = itertools.chain.from_iterable(
        itertools.product(*(homs[hom] for hom in shape)) for shape in shapes
    )
    return count, stream


def _violation(predicate: Callable[..., bool], t: tuple) -> Optional[str]:
    """None when the tuple satisfies the law, else the failure's detail: ""
    for a false equation, "<ExceptionType>: <message>" for a ValueError the
    predicate raised.  A numerical failure (``classical.numerical_failure``)
    is not a verdict, and propagates."""
    try:
        return None if predicate(*t) else ""
    except ValueError as e:
        if numerical_failure(e):
            raise
        return f"{type(e).__name__}: {e}"


# The oracles an exhaustive run memoises, with their arities.
_MEMOISED = {"compose": 2, "tensor_mor": 2, "dagger": 1}


def _memoised(fn: Callable, memo: dict, arity: int) -> Callable:
    """The oracle fn of the given arity (1 or 2), memoised in memo (module
    docstring)."""
    if arity == 1:
        def call(a):
            entry = memo.get(id(a))
            if entry is None:
                entry = memo[id(a)] = (fn(a), a)
            return entry[0]
    else:
        def call(a, b):
            key = id(a) << 64 | id(b)
            entry = memo.get(key)
            if entry is None:
                entry = memo[key] = (fn(a, b), a, b)
            return entry[0]

    return call


def run_law(cat: CategoryInstance, law: Law, trials: int = 1000, seed: int = 0) -> LawReport:
    """Check one law: exhaustively when the instance enumerates and the tuple
    count is within EXHAUSTIVE_CAP, otherwise on trials seeded samples; with
    sharing, and the memo of an exhaustive run (module docstring)."""
    _require(cat, law.needs)
    memos = {n: {} for n in _MEMOISED if getattr(cat, n) is not None}
    with sharing():
        space = _enumerate_tuples(cat, law.pattern)
        if space is not None:
            (count, tuples), mode = space, "exhaustive"
            cat = replace(cat, **{n: _memoised(getattr(cat, n), m, _MEMOISED[n])
                                  for n, m in memos.items()})
        else:
            for bad, rule, value in ((trials <= 0, "trials must be positive", trials),
                                     (seed < 0, "seed must be nonnegative", seed)):
                if bad:
                    raise ConfigurationError(f"{rule} to check {law.name!r} on {cat.name!r} "
                                             f"in random mode, got {value}")
            import numpy as np
            rng = np.random.default_rng(seed)
            count, mode = trials, "random"
            tuples = (_sample_tuple(cat, law.pattern, rng) for _ in range(trials))
        predicate = partial(law.check, cat)
        try:
            for t in tuples:
                detail = _violation(predicate, t)
                if detail is not None:
                    return LawReport(law.name, count, False, counterexample=t,
                                     detail=detail, mode=mode)
            return LawReport(law.name, count, True, mode=mode)
        finally:
            for memo in memos.values():
                memo.clear()


# -- law registry -------------------------------------------------------------

def _restriction_i(cat, f):
    return cat.eq(cat.compose(f, cat.restrict(f)), f)


def _restriction_ii(cat, f, g):
    rf, rg = cat.restrict(f), cat.restrict(g)
    return cat.eq(cat.compose(rf, rg), cat.compose(rg, rf))


def _restriction_iii(cat, f, g):
    rf, rg = cat.restrict(f), cat.restrict(g)
    return cat.eq(cat.restrict(cat.compose(g, rf)), cat.compose(rg, rf))


def _restriction_iv(cat, f, g):
    rg = cat.restrict(g)
    lhs = cat.compose(rg, f)
    rhs = cat.compose(f, cat.restrict(cat.compose(g, f)))
    return cat.eq(lhs, rhs)


def _lemma_i(cat, f, g):
    lhs = cat.restrict(cat.compose(g, f))
    rhs = cat.restrict(cat.compose(cat.restrict(g), f))
    return cat.eq(lhs, rhs)


def _lemma_ii(cat, f, g):
    if not cat.eq(cat.restrict(g), cat.identity(cat.dom(g))):
        return True  # only constrains total g
    return cat.eq(cat.restrict(cat.compose(g, f)), cat.restrict(f))


def _lemma_iii(cat, f):
    if cat.dagger is None:
        return True
    fd = cat.dagger(f)
    invertible = cat.eq(
        cat.compose(fd, f), cat.identity(cat.dom(f))
    ) and cat.eq(cat.compose(f, fd), cat.identity(cat.cod(f)))
    if not invertible:
        return True
    return cat.eq(cat.restrict(f), cat.identity(cat.dom(f)))


def _dagger_involution(cat, f):
    return cat.eq(cat.dagger(cat.dagger(f)), f)


def _dagger_identity(cat, f):
    i = cat.identity(cat.dom(f))
    return cat.eq(cat.dagger(i), i)


def _dagger_contravariant(cat, f, g):
    lhs = cat.dagger(cat.compose(g, f))
    rhs = cat.compose(cat.dagger(f), cat.dagger(g))
    return cat.eq(lhs, rhs)


def _inverse_regular(cat, f):
    return cat.eq(cat.compose(cat.compose(f, cat.dagger(f)), f), f)


def _inverse_idempotents_commute(cat, f, g):
    ef = cat.compose(cat.dagger(f), f)
    eg = cat.compose(cat.dagger(g), g)
    return cat.eq(cat.compose(ef, eg), cat.compose(eg, ef))


def _monoidal_restriction(cat, f, g):
    lhs = cat.restrict(cat.tensor_mor(f, g))
    rhs = cat.tensor_mor(cat.restrict(f), cat.restrict(g))
    return cat.eq(lhs, rhs)


def _monoidal_bifunctor(cat, f, g):
    # Interchange on two independently sampled composable chains is
    # approximated with f;g against identities on matching objects.
    idc = cat.identity(cat.cod(f))
    idd = cat.identity(cat.cod(g))
    lhs = cat.compose(cat.tensor_mor(idc, idd), cat.tensor_mor(f, g))
    rhs = cat.tensor_mor(cat.compose(idc, f), cat.compose(idd, g))
    return cat.eq(lhs, rhs)


def _monoidal_interchange(cat, f, g, h):
    # (g o f) (x) h  =  (g (x) h) o (f (x) id) for endo h; checked via the
    # general identity (g (x) h) o (f (x) id_dom(h)) with h : C -> D.
    lhs = cat.tensor_mor(cat.compose(g, f), h)
    rhs = cat.compose(
        cat.tensor_mor(g, h),
        cat.tensor_mor(f, cat.identity(cat.dom(h))),
    )
    return cat.eq(lhs, rhs)


def _monoidal_unit(cat, f):
    iu = cat.identity(cat.unit)
    return cat.eq(cat.tensor_mor(f, iu), f) and cat.eq(cat.tensor_mor(iu, f), f)


def _monoidal_assoc(cat, f, g):
    lhs = cat.tensor_mor(cat.tensor_mor(f, g), f)
    rhs = cat.tensor_mor(f, cat.tensor_mor(g, f))
    return cat.eq(lhs, rhs)


def _wellpointed(cat, f, g):
    # f = g exactly when f o p = g o p for every global point p.
    if cat.cod(f) != cat.cod(g):
        return True
    agree = all(cat.eq(cat.compose(f, p), cat.compose(g, p)) for p in cat.points(cat.dom(f)))
    return cat.eq(f, g) == agree


def _quotient_congruence(cat, f, g, h):
    # Equal parallel f, g stay equal under post-composition, restriction and
    # tensor; only enumeration yields equal pairs often enough to test this.
    if cat.cod(f) != cat.cod(g) or not cat.eq(f, g):
        return True
    return (
        cat.eq(cat.compose(h, f), cat.compose(h, g))
        and cat.eq(cat.restrict(f), cat.restrict(g))
        and cat.eq(cat.tensor_mor(f, h), cat.tensor_mor(g, h))
    )


RESTRICTION_LAWS = [
    Law("restriction_i", "single", _restriction_i, frozenset({"restrict"})),
    Law("restriction_ii", "same_dom", _restriction_ii, frozenset({"restrict"})),
    Law("restriction_iii", "same_dom", _restriction_iii, frozenset({"restrict"})),
    Law("restriction_iv", "chain", _restriction_iv, frozenset({"restrict"})),
]

DERIVED_LAWS = [
    Law("ridm_of_composite", "chain", _lemma_i, frozenset({"restrict"})),
    Law("ridm_total_post", "chain", _lemma_ii, frozenset({"restrict"})),
    Law("ridm_of_invertible", "single", _lemma_iii, frozenset({"restrict"})),
]

INVERSE_LAWS = [
    Law("dagger_involution", "single", _dagger_involution, frozenset({"dagger"})),
    Law("dagger_identity", "single", _dagger_identity, frozenset({"dagger"})),
    Law("dagger_contravariant", "chain", _dagger_contravariant, frozenset({"dagger"})),
    Law("inverse_regular", "single", _inverse_regular, frozenset({"dagger"})),
    Law("inverse_idempotents_commute", "same_dom", _inverse_idempotents_commute,
        frozenset({"dagger"})),
]

MONOIDAL_LAWS = [
    Law("tensor_restriction", "pair", _monoidal_restriction,
        frozenset({"restrict", "tensor_mor"})),
    Law("tensor_bifunctor", "pair", _monoidal_bifunctor, frozenset({"tensor_mor"})),
    Law("tensor_interchange", "chain3", _monoidal_interchange,
        frozenset({"tensor_mor"})),
    Law("tensor_unit", "single", _monoidal_unit, frozenset({"tensor_mor", "unit"})),
    Law("tensor_assoc", "pair", _monoidal_assoc, frozenset({"tensor_mor"})),
]

QUOTIENT_LAWS = [
    Law("wellpointed", "same_dom", _wellpointed, frozenset({"points"})),
    Law("quotient_congruence", "fork_chain", _quotient_congruence,
        frozenset({"points", "enumerate_mors", "restrict", "tensor_mor"})),
]

ALL_LAWS: dict[str, Law] = {
    law.name: law
    for law in RESTRICTION_LAWS + DERIVED_LAWS + INVERSE_LAWS + MONOIDAL_LAWS + QUOTIENT_LAWS
}


def applicable_laws(cat: CategoryInstance) -> list[Law]:
    """The registered laws whose oracles the instance provides."""
    return [law for law in ALL_LAWS.values()
            if all(getattr(cat, n) is not None for n in law.needs)]
