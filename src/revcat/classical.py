"""Finite sets with partial functions and partial injections.

Objects are finite sets {0, .., n-1}, optionally carrying a shape of tensor
factors with flat row-major (mixed-radix) indexing.  Morphisms are stored as
sorted graphs of (input, output) index pairs, so equality is structural.  The
operations here and in ``garbage`` build a graph with a ``for``/``append``
loop in the calling frame, not a comprehension: on CPython 3.11 a generator
expression runs in a frame of its own, and a 3-pair graph took 771 ns through
``tuple(genexpr)`` against 425 ns through the loop (timeit, one CPU).

Two monoidal structures are provided: the cartesian-style product ``tensor``
(unit: the one-element set) and the disjoint sum ``direct_sum`` (unit: the
empty set).  Associators and unitors are identity permutations under the flat
indexing convention; the symmetry and the middle-factor interchange remain
genuine permutations and are produced by :func:`coherence`.

Every constructor validates, the results of the closed operations included:
a graph is accepted only when each entry is an ``int`` (a bool is not one),
each pair is in range and the graph is functional (and injective, for
``PartialInj``).  A first pass takes the graph as given and accepts it
when it is a tuple of ``int`` pairs, each a tuple and in range, whose inputs
strictly rise (so it is sorted and functional): the closed operations and
JSON inputs build their graphs in that order, so this pass is all they pay.
A graph that fails it, whether out of order, not all tuples or with an error,
is sorted and checked pair by pair: the error named is the first one in
sorted order, a repeated input is found next to its first occurrence, and the
sorted pairs are stored as tuples.  Injectivity is a set-size test.

Interning.  ``FinObj(shape)`` checks that each factor is a nonnegative
``int`` (``True`` and ``1.0`` equal ``1`` as keys), then returns the one
object for that shape (hash-consing: Filliâtre and Conchon, "Type-safe
modular hash-consing", 2006), so equality and hashing are identity, in C.
The table grows by one entry per distinct shape.  ``FinObj.of_size`` and
``FinObj.tensor`` are memoised on their arguments; ``identity`` keeps one
object per object and ``coherence`` one per (kind, shapes), however they are
passed, each in a table of its own; and a morphism keeps its ``mapping``
(its graph as a dict) and ``restricted`` (r(f), which ``ridm`` returns)
through the memo :class:`once`.
A memoised value was validated when first built.

Sharing.  Within a :func:`sharing` scope (``lawcheck.run_law`` opens one per
law run) equal finite morphisms are one object: the closed operations and
enumerators, here and over ``garbage``'s pinj base, build through
:func:`make`, which returns the morphism already built from equal fields, so
it is validated once and its ``once`` values serve every use in the scope.
The table is dropped when the outermost scope exits; outside one, every
operation returns a fresh object.  Every morphism class here and in
``garbage`` is built from three fields, so ``make(cls, a, b, c)`` takes
exactly those, keyed by (cls, a, b, c); it is not an ``*args`` function,
for the reason ``lawcheck``'s memo gives.  Only the library's own operations
call ``make``, never ``from_json``, the public constructors or a sampler, so
a key holds validated ``int`` entries and interned objects (compared by
identity), and no ``1.0`` or ``True`` can alias one.  The process-wide
``identity`` and ``coherence``, and ``garbage.aux_id``, are built without
``make`` and store r(f) at once, so that no memo of theirs keeps a run's
object alive.
"""

from __future__ import annotations

import functools
import itertools
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from math import prod
from operator import itemgetter
from typing import Iterator, Optional


class once:
    """A lockless memo for a pure, argument-free method: the first read
    computes the value and stores it as an instance attribute, which later
    reads find first, since this descriptor defines no ``__set__``.  It is
    stored by ``object.__setattr__``, which passes a frozen dataclass's guard
    and, unlike a write to ``__dict__``, keeps the instance's compact
    attribute storage.  Unlike ``functools.cached_property`` it takes no
    lock.  The library is single-threaded, and a race could only compute the
    same pure value twice.
    The stored value is shared by every reader; do not mutate it.
    A value that is the instance itself (r(r) for a restriction idempotent r)
    is not stored: that would be a reference cycle, outliving the scope's
    table until the cyclic collector runs.  The next read recomputes it."""

    def __init__(self, method) -> None:
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.method(obj)
        if value is not obj:
            object.__setattr__(obj, self.name, value)
        return value


# The sharing table of the open scope (a nested scope uses the outermost
# one's), or None outside any scope.
_shared: ContextVar[Optional[dict]] = ContextVar("revcat_shared", default=None)


@contextmanager
def sharing() -> Iterator[None]:
    """Within this scope :func:`make` returns one object per distinct value;
    the table lives until the outermost scope exits, by return or exception."""
    token = _shared.set({}) if _shared.get() is None else None
    try:
        yield
    finally:
        if token is not None:
            _shared.reset(token)


def make(cls, a, b, c):
    """``cls(a, b, c)``; inside a :func:`sharing` scope, the object already
    built from equal (cls, a, b, c) when there is one.  A new object is
    validated by its constructor before it is recorded."""
    table = _shared.get()
    if table is None:
        return cls(a, b, c)
    key = (cls, a, b, c)
    obj = table.get(key)
    if obj is None:
        obj = table[key] = cls(a, b, c)
    return obj


@dataclass(frozen=True, eq=False, init=False)
class FinObj:
    """A finite set of size prod(shape), with factor structure for tensors; interned."""

    shape: tuple[int, ...]
    size: int = field(repr=False)
    _interned = {}  # shape -> its one FinObj (no annotation: not a field)

    def __new__(cls, shape: tuple[int, ...] = (1,)) -> "FinObj":
        for n in shape:
            if type(n) is not int:
                raise ValueError(f"factor {n!r} in shape {shape} is not an integer")
            if n < 0:
                raise ValueError(f"negative factor in shape {shape}")
        obj = cls._interned.get(shape)
        if obj is None:
            obj = cls._interned[shape] = super().__new__(cls)
            object.__setattr__(obj, "shape", shape)
            object.__setattr__(obj, "size", prod(shape))
        return obj

    def __reduce__(self):  # copy, deepcopy and pickle rebuild through the table
        return FinObj, (self.shape,)

    @functools.cache
    def tensor(self, other: "FinObj") -> "FinObj":
        return FinObj(self.shape + other.shape)

    @staticmethod
    @functools.lru_cache(maxsize=None, typed=True)
    def of_size(n: int) -> "FinObj":
        return FinObj((n,))


def json_int(value, field: str) -> int:
    """A JSON integer field (a bool is not one), or a ValueError naming the field."""
    if type(value) is not int:
        raise ValueError(f"{field} {value!r} is not an integer")
    return value


def json_object(value, where: str) -> dict:
    """value when it is a JSON object, or a ValueError naming it as where."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {type(value).__name__}")
    return value


def json_field(data, key: str, where: str):
    """The value under key in the JSON object data, or a ValueError naming
    the field (where is the name of data itself)."""
    if key not in json_object(data, where):
        raise ValueError(f"{where} has no {key!r} field")
    return data[key]


# The quantum half's tolerances, kept in this numpy-free module so that the
# CLI report header reads them without loading numpy; quantum re-exports them.
ATOL = 1e-9  # structural invariants: unitarity, TP, Hermiticity
ROUND_ATOL = 1e-8  # round trips through two eigendecompositions
RANK_CUTOFF = 1e-10  # rank cutoff on Choi eigenvalues


def numerical_failure(e: BaseException) -> bool:
    """Whether e is numpy's LinAlgError: a numerical failure, which is neither
    a malformed input nor a law's verdict, although numpy derives it from
    ValueError.  None exists while numpy is not loaded."""
    return "numpy" in sys.modules and isinstance(e, sys.modules["numpy"].linalg.LinAlgError)


UNIT = FinObj((1,))  # one-element set, unit of the tensor product (an enumerated object)
ZERO = FinObj((0,))  # empty set, unit of the disjoint sum


class CompositionError(ValueError):
    """Raised when objects of composed or constructed morphisms do not match."""


_output = itemgetter(1)


@dataclass(frozen=True)
class PartialFn:
    """A partial function between finite sets, as a sorted functional graph."""

    dom: FinObj
    cod: FinObj
    graph: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        graph, n, m = self.graph, self.dom.size, self.cod.size
        if type(graph) is tuple:
            previous = -1  # strictly rising inputs are in order and never repeated
            try:
                for pair in graph:
                    x, y = pair if type(pair) is tuple else ()  # ValueError unless a 2-tuple
                    if type(x) is not int or type(y) is not int \
                            or not previous < x < n or not 0 <= y < m:
                        raise ValueError
                    previous = x
                return
            except ValueError:  # not in order, not all pairs tuples, or a fault: sort
                pass
        try:
            graph = sorted(graph)
        except TypeError:  # unorderable entries: name the first one that is no int
            for v in itertools.chain.from_iterable(self.graph):
                json_int(v, "graph entry")
            raise
        previous = None  # sorted, so a repeated input follows its first occurrence
        for x, y in graph:
            if type(x) is not int or type(y) is not int:
                bad = y if type(x) is int else x
                raise ValueError(f"graph entry {bad!r} is not an integer")
            if not (0 <= x < n):
                raise ValueError(f"input {x} out of range for dom of size {n}")
            if not (0 <= y < m):
                raise ValueError(f"output {y} out of range for cod of size {m}")
            if x == previous:
                raise ValueError(f"graph not functional: input {x} repeated")
            previous = x
        object.__setattr__(self, "graph", tuple(map(tuple, graph)))

    def __call__(self, x: int) -> Optional[int]:
        return self.mapping.get(x)

    @once
    def mapping(self) -> dict[int, int]:
        """The graph as a dict from input to output, built once."""
        return dict(self.graph)

    @once
    def restricted(self) -> "PartialFn":
        """r(f), the partial identity on dom(f) defined exactly where f is,
        built once and of f's own class."""
        graph = []
        for x, _ in self.graph:
            graph.append((x, x))
        return make(type(self), self.dom, self.dom, tuple(graph))

    def is_total(self) -> bool:
        return len(self.graph) == self.dom.size

    def is_injective(self) -> bool:
        return len(set(map(_output, self.graph))) == len(self.graph)

    def same_table(self, other: "PartialFn") -> bool:
        """Equality disregarding factor shapes (flat sizes and graphs match)."""
        return self is other or (
            self.dom.size == other.dom.size
            and self.cod.size == other.cod.size
            and self.graph == other.graph
        )

    def to_json(self, stored: bool = False) -> dict:
        """The JSON layout: dom and cod shapes and the graph as [x, y] lists;
        with stored=True the graph is the stored tuple of pairs, which
        json.dumps writes as the same arrays (the CLI reports that)."""
        return {
            "dom": {"shape": list(self.dom.shape)},
            "cod": {"shape": list(self.cod.shape)},
            "graph": self.graph if stored else list(map(list, self.graph)),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PartialFn":
        pairs = json_field(data, "graph", "morphism")
        try:
            graph = tuple(map(tuple, pairs))
            if not isinstance(pairs, list) or {*map(len, graph)} - {2}:
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError("graph must be a list of [x, y] pairs") from None
        dom, cod = (json_field(json_field(data, end, "morphism"), "shape", end)
                    for end in ("dom", "cod"))
        for end, shape in (("dom", dom), ("cod", cod)):
            if not isinstance(shape, list):
                raise ValueError(f"{end} shape {shape!r} is not a list")
            for n in shape:
                json_int(n, f"{end} shape entry")
        # The constructor names a graph entry that is no int.
        return cls(FinObj(tuple(dom)), FinObj(tuple(cod)), graph)


class PartialInj(PartialFn):
    """A partial injective function; the graph is functional and injective."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.is_injective():
            raise ValueError("graph is not injective")


_identities: dict[FinObj, PartialInj] = {}  # a -> its one identity


def identity(a: FinObj) -> PartialInj:
    """The identity on a, one object per a, however a is passed (shapes of
    equal size are distinct keys)."""
    f = _identities.get(a)
    if f is None:
        f = PartialInj(a, a, tuple((x, x) for x in range(a.size)))
        object.__setattr__(f, "restricted", f)  # r(id) = id; a cycle, but the table keeps f
        _identities[a] = f
    return f


def empty_map(a: FinObj, b: FinObj) -> PartialInj:
    return PartialInj(a, b, ())


def compose(g: PartialFn, f: PartialFn) -> PartialFn:
    """Relational composite g after f; defined where both legs are."""
    if f.cod.size != g.dom.size:
        raise CompositionError(
            f"cannot compose: cod size {f.cod.size} != dom size {g.dom.size}"
        )
    gm = g.mapping
    graph = []
    for x, y in f.graph:
        if y in gm:
            graph.append((x, gm[y]))
    cls = PartialInj if isinstance(f, PartialInj) and isinstance(g, PartialInj) else PartialFn
    return make(cls, f.dom, g.cod, tuple(graph))


def ridm(f: PartialFn) -> PartialFn:
    """The partial identity on dom(f) defined exactly where f is (kept on f)."""
    return f.restricted


def dagger(f: PartialInj) -> PartialInj:
    """The partial inverse: the transposed graph, sorted here, the one sort
    on this path (the constructor takes a sorted graph as it is), so that it
    meets an equal morphism built elsewhere."""
    graph = []
    for x, y in f.graph:
        graph.append((y, x))
    graph.sort()
    return make(PartialInj, f.cod, f.dom, tuple(graph))


def tensor_prod(f: PartialFn, g: PartialFn) -> PartialFn:
    """(x, y) -> (f(x), g(y)) on flat row-major indices."""
    dom = f.dom.tensor(g.dom)
    cod = f.cod.tensor(g.cod)
    n, m, gg = g.dom.size, g.cod.size, g.graph
    graph = []
    for x, fx in f.graph:
        x0, y0 = x * n, fx * m
        for y, gy in gg:
            graph.append((x0 + y, y0 + gy))
    cls = PartialInj if isinstance(f, PartialInj) and isinstance(g, PartialInj) else PartialFn
    return make(cls, dom, cod, tuple(graph))


def direct_sum(f: PartialFn, g: PartialFn) -> PartialFn:
    """Tagged-union action with offset indexing; preserves injectivity."""
    dom = FinObj.of_size(f.dom.size + g.dom.size)
    cod = FinObj.of_size(f.cod.size + g.cod.size)
    graph = tuple(f.graph) + tuple(
        (x + f.dom.size, y + f.cod.size) for x, y in g.graph
    )
    cls = PartialInj if isinstance(f, PartialInj) and isinstance(g, PartialInj) else PartialFn
    return make(cls, dom, cod, graph)


_coherences: dict[tuple[str, tuple[int, ...]], PartialInj] = {}  # (kind, shapes) -> its one f


def coherence(kind: str, shapes: tuple[int, ...]) -> PartialInj:
    """Structural permutation of flat indices for the tensor product, one
    object per (kind, shapes), however they are passed.  A factor that is not
    an int raises, as in FinObj, whatever ran before.

    Associators and unitors are identities under flat indexing, so only two
    kinds are genuine permutations:
      - "symm":        (a, b), A x B -> B x A.
      - "interchange": (b, e, b2, e2), (B x E) x (B' x E') -> (B x B') x (E x E').
    """
    for n in shapes:  # before the table, where (True, 2) would find (1, 2)'s entry
        if type(n) is not int:
            raise ValueError(f"factor {n!r} in shape {shapes} is not an integer")
    if (f := _coherences.get((kind, shapes))) is not None:
        return f
    if kind == "symm":
        if len(shapes) != 2:
            raise ValueError("symm takes two factor sizes")
        a, b = shapes
        graph = tuple((x * b + y, y * a + x) for x in range(a) for y in range(b))
        f = PartialInj(FinObj((a, b)), FinObj((b, a)), graph)
    elif kind == "interchange":
        if len(shapes) != 4:
            raise ValueError("interchange takes four factor sizes")
        b, e, b2, e2 = shapes  # id_B (x) symm(E, B') (x) id_E': (i, j, k, l) -> (i, k, j, l)
        graph = tuple((((i * e + j) * b2 + k) * e2 + l, ((i * b2 + k) * e + j) * e2 + l)
                      for i, j, k, l in itertools.product(*map(range, shapes)))
        f = PartialInj(FinObj(shapes), FinObj((b, b2, e, e2)), graph)
    else:
        raise ValueError(f"unknown coherence kind {kind!r}")
    object.__setattr__(f, "restricted", identity(f.dom))
    _coherences[kind, shapes] = f
    return f


def bennett(f: PartialFn) -> PartialInj:
    """The input-preserving reversibilization x -> (f(x), x)."""
    cod = f.cod.tensor(f.dom)
    n = f.dom.size
    graph = []
    for x, y in f.graph:
        graph.append((x, y * n + x))
    return PartialInj(f.dom, cod, tuple(graph))


# -- enumeration helpers ------------------------------------------------------

def all_partial_fns(a: FinObj, b: FinObj) -> Iterator[PartialFn]:
    """Every partial function a -> b (|b|+1 choices per element)."""
    n, m = a.size, b.size
    for choice in itertools.product(range(m + 1), repeat=n):
        graph = []
        for x, y in enumerate(choice):
            if y < m:
                graph.append((x, y))
        yield make(PartialFn, a, b, tuple(graph))


def all_partial_injections(a: FinObj, b: FinObj) -> Iterator[PartialInj]:
    """Every partial injection a -> b."""
    n, m = a.size, b.size
    for k in range(min(n, m) + 1):
        for xs in itertools.combinations(range(n), k):
            for ys in itertools.permutations(range(m), k):
                yield make(PartialInj, a, b, tuple(zip(xs, ys)))
