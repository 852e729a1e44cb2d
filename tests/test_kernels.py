"""The graph-building kernels of classical and garbage against their
comprehension forms (tests/oracles.py): the same graph in the same order, so
the same ``classical.make`` key, and the same result class.  Each check runs
in a sharing scope, where ``make`` on the oracle's fields returns the
kernel's own result only when the kernel passed exactly those fields."""

import itertools
import random

import pytest

from revcat import classical as cl
from revcat import garbage as gb
from revcat import instances as inst
from revcat.classical import FinObj, PartialFn, PartialInj

import oracles

OBJS = [FinObj.of_size(n) for n in range(3)]
# Every morphism of pfn(2) and of pinj(2).
SMALL = [f for a in OBJS for b in OBJS
         for f in itertools.chain(cl.all_partial_fns(a, b), cl.all_partial_injections(a, b))]
# Every morphism of aux-pinj(2,2).
AUX = [f for a in range(3) for b in range(3) for f in inst.enumerate_aux_pinj(a, b, 2)]


def assert_made(result, cls, dom, cod, graph):
    """result is the morphism make builds from exactly these fields."""
    assert cl.make(cls, dom, cod, graph) is result
    assert type(result) is cls and result.graph == tuple(sorted(graph))


def random_fn(rng, n, injective=False):
    """A partial function (or injection) on n elements, defined at about 3/4."""
    outputs = rng.sample(range(n), n) if injective else [rng.randrange(n) for _ in range(n)]
    graph = tuple((x, y) for x, y in enumerate(outputs) if rng.random() < 0.75)
    return (PartialInj if injective else PartialFn)(FinObj.of_size(n), FinObj.of_size(n), graph)


def test_the_small_hom_sets_are_complete():
    assert len(SMALL) == 23 + 20 and len(AUX) == 70


@pytest.mark.parametrize("make, cls", [(cl.all_partial_fns, PartialFn),
                                       (cl.all_partial_injections, PartialInj)])
def test_enumerators(make, cls):
    want = {cl.all_partial_fns: oracles.partial_fn_graphs,
            cl.all_partial_injections: oracles.partial_injection_graphs}[make]
    for a, b in itertools.product(OBJS + [FinObj.of_size(3)], repeat=2):
        with cl.sharing():
            got = list(make(a, b))
            graphs = want(a, b)
            assert len(got) == len(graphs)
            for f, graph in zip(got, graphs):
                assert_made(f, cls, a, b, graph)


def test_unary_kernels_on_pfn2_and_pinj2():
    with cl.sharing():
        for f in SMALL:
            fresh = type(f)(f.dom, f.cod, f.graph)  # its restriction is built in this scope
            assert_made(fresh.restricted, type(f), f.dom, f.dom, oracles.restricted_graph(f))
            b = cl.bennett(f)
            assert type(b) is PartialInj and b.graph == tuple(sorted(oracles.bennett_graph(f)))
            assert (b.dom, b.cod) == (f.dom, f.cod.tensor(f.dom))
            if isinstance(f, PartialInj):
                assert_made(cl.dagger(f), PartialInj, f.cod, f.dom, oracles.dagger_graph(f))


def test_binary_kernels_on_every_pair_of_pfn2_and_pinj2():
    composed = 0
    with cl.sharing():
        for f, g in itertools.product(SMALL, repeat=2):
            cls = oracles.result_class(f, g)
            assert_made(cl.tensor_prod(f, g), cls, f.dom.tensor(g.dom), f.cod.tensor(g.cod),
                        oracles.tensor_graph(f, g))
            if f.cod.size == g.dom.size:
                assert_made(cl.compose(g, f), cls, f.dom, g.cod, oracles.compose_graph(g, f))
                composed += 1
    assert composed > 0


def test_garbage_kernels_on_every_pair_of_aux_pinj22():
    mediated = 0
    for f in AUX:
        assert f.visible_graph == oracles.visible_graph(f)
    with cl.sharing():
        for f, g in itertools.product(AUX, repeat=2):
            t = gb.aux_tensor(f, g)
            assert_made(t.core, PartialInj, f.core.dom.tensor(g.core.dom), t.core.cod,
                        oracles.aux_tensor_graph(f, g))
            assert (t.cod_size, t.garbage_size) == (f.cod_size * g.cod_size,
                                                    f.garbage_size * g.garbage_size)
            if f.cod_size == g.dom_size:
                c, e = gb.aux_compose(g, f), f.garbage_size
                assert_made(c.core, PartialInj, f.core.dom,
                            g.core.cod.tensor(FinObj.of_size(e)), oracles.aux_compose_graph(g, f))
                assert (c.cod_size, c.garbage_size) == (g.cod_size, g.garbage_size * e)
            if (f.dom_size, f.cod_size) == (g.dom_size, g.cod_size):
                h = gb.aux_equiv(f, g)
                if h is not None:
                    assert type(h) is PartialInj
                    assert h.graph == oracles.direct_mediator_graph(f, g)
                    assert (h.dom.size, h.cod.size) == (f.garbage_size, g.garbage_size)
                    mediated += 1
    assert mediated > len(AUX)  # more than the pairs (f, f)


def test_a_tensor_at_n64():
    rng = random.Random(64)
    for f, g in [(random_fn(rng, 64), random_fn(rng, 64, True)),
                 (random_fn(rng, 64, True), random_fn(rng, 64, True))]:
        with cl.sharing():
            t = cl.tensor_prod(f, g)
            assert len(t.graph) > 1000
            assert_made(t, oracles.result_class(f, g), f.dom.tensor(g.dom), f.cod.tensor(g.cod),
                        oracles.tensor_graph(f, g))


def test_compose_and_bennett_tables_at_n1024():
    rng = random.Random(1024)
    for injective in (False, True):
        f, g = random_fn(rng, 1024, injective), random_fn(rng, 1024, injective)
        with cl.sharing():
            assert_made(cl.compose(g, f), oracles.result_class(f, g), f.dom, g.cod,
                        oracles.compose_graph(g, f))
            b = cl.bennett(f)
            assert type(b) is PartialInj and b.graph == tuple(sorted(oracles.bennett_graph(f)))
            if injective:
                assert_made(cl.dagger(f), PartialInj, f.cod, f.dom, oracles.dagger_graph(f))
