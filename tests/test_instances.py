"""The shipped instances' samplers: the partial-map graph sampler's contract
and distribution, its cost in generator calls, and random-mode law runs that
still reject broken instances."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from revcat import classical as cl
from revcat import garbage as gb
from revcat import instances as inst
from revcat import lawcheck as lc
from revcat.classical import FinObj


def graphs(seed, sizes, injective):
    rng = np.random.default_rng(seed)
    return [(n, m, inst._random_graph(rng, n, m, injective)) for n, m in sizes]


SIZES = [(n, m) for n in range(8) for m in range(8)] + [(64, 3), (3, 64), (1024, 2048)]


class TestRandomGraph:
    @pytest.mark.parametrize("injective", [False, True])
    def test_sorted_in_range_and_functional(self, injective):
        for seed in range(5):
            for n, m, graph in graphs(seed, SIZES, injective):
                xs = [x for x, _ in graph]
                ys = [y for _, y in graph]
                assert xs == sorted(set(xs)), (n, m, graph)
                assert all(type(v) is int for v in xs + ys)
                assert all(0 <= x < n for x in xs) and all(0 <= y < m for y in ys)
                if injective:
                    assert len(set(ys)) == len(ys), (n, m, graph)

    @pytest.mark.parametrize("injective", [False, True])
    def test_empty_domain_or_codomain(self, injective):
        rng = np.random.default_rng(0)
        assert inst._random_graph(rng, 0, 5, injective) == ()
        assert inst._random_graph(rng, 5, 0, injective) == ()
        assert inst._random_graph(rng, 0, 0, injective) == ()

    @pytest.mark.parametrize("injective", [False, True])
    def test_same_seed_same_graph(self, injective):
        assert graphs(11, SIZES, injective) == graphs(11, SIZES, injective)

    def test_injective_keeps_the_first_input_to_claim_each_output(self):
        # The same draws with and without injectivity: the injective graph
        # drops exactly the inputs whose output an earlier input took.
        for seed in range(20):
            plain = inst._random_graph(np.random.default_rng(seed), 12, 5, False)
            inj = inst._random_graph(np.random.default_rng(seed), 12, 5, True)
            first = {}
            for x, y in plain:
                first.setdefault(y, x)
            assert inj == tuple(sorted((x, y) for y, x in first.items()))

    @pytest.mark.parametrize("m", [1, 7, 10])
    def test_defined_share_and_uniform_outputs(self, m):
        n = 20_000
        graph = inst._random_graph(np.random.default_rng(2024), n, m, False)
        assert abs(len(graph) / n - 0.75) <= 0.02
        counts = Counter(y for _, y in graph)
        expected = len(graph) / m
        assert set(counts) == set(range(m))
        assert all(abs(c - expected) <= 0.1 * expected for c in counts.values()), counts


class CountingGenerator:
    """A numpy Generator that counts the calls made to its methods."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("make, dom", [
    (lambda: inst.make_aux_pinj_instance(1024, 2), lambda n: n),
    (lambda: inst.make_pfn_instance(6), FinObj.of_size),
    (lambda: inst.make_pinj_instance(6), FinObj.of_size),
], ids=["aux-pinj-1024", "pfn-6", "pinj-6"])
def test_generator_calls_do_not_grow_with_the_domain(make, dom):
    cat = make()
    for seed in range(10):
        calls = {}
        for n in (4, 1024):
            rng = CountingGenerator(seed)
            f = cat.sample_mor(rng, dom(n))
            assert cat.dom(f) == dom(n)
            calls[n] = rng.calls
        assert calls[4] == calls[1024], (seed, calls)


@pytest.mark.parametrize("key", sorted(inst.INSTANCES))
def test_every_cli_instance_is_named_by_its_key(key):
    assert inst.INSTANCES[key]().name == key


def test_factories_keep_their_own_names():
    assert inst.make_pfn_instance(6).name == "pfn"
    assert inst.make_pinj_instance(6).name == "pinj"
    assert inst.make_aux_pinj_instance(2, 2).name == "aux-pinj"


def test_extensional_aux_pinj_enumerates_raw_cores_and_compares_on_points():
    raw = inst.make_aux_pinj_instance(2, 2)
    ext = inst.make_aux_pinj_instance(2, 2, extensional=True)
    assert (ext.name, ext.points, raw.points) == ("ext-aux-pinj", gb.points_of, None)
    assert sum(len(ext.enumerate_mors(a, b)) for a in range(3) for b in range(3)) == 70
    # Both are the identity on 2 once the garbage is dropped; f's inputs share
    # their garbage and g's do not, so only the quotient identifies them.
    f, g = (gb.AuxMorphism(cl.PartialInj(FinObj.of_size(2), FinObj((2, 2)), graph), 2, 2)
            for graph in (((0, 0), (1, 2)), ((0, 0), (1, 3))))
    assert ext.eq(f, g) and not raw.eq(f, g)


# -- random-mode mutation checks ----------------------------------------------
# Each mutant runs every applicable law with 200 trials at seed 0, as
# `revcat lawcheck` does, until the first law that rejects it.

def drop_last_pair(f):
    return type(f)(f.dom, f.cod, f.graph[:-1])


MUTANTS = {
    "compose drops its last pair": (
        ["pfn-large", "pinj-large"], dict(compose=lambda g, f: drop_last_pair(cl.compose(g, f)))),
    "restrict returns the empty map": (
        ["pfn-large", "pinj-large"], dict(restrict=lambda f: cl.empty_map(f.dom, f.dom))),
    "dagger = identity": (["pinj-large"], dict(dagger=lambda f: f)),
}

# A mutant that every applicable law accepts, with the reason it survives.
SURVIVORS = {
    "tensor with swapped factors": (
        dict(tensor_mor=lambda f, g: cl.tensor_prod(g, f)),
        "f (x) g computed as g (x) f is the reversed tensor, itself lawful; only "
        "a law pinning the tensor against a projection (projection naturality) "
        "can reject it"),
}


def first_failure(cat):
    for law in lc.applicable_laws(cat):
        rep = lc.run_law(cat, law, trials=200, seed=0)
        assert rep.mode == "random"
        if not rep.passed:
            return law.name
    return None


@pytest.mark.parametrize("name, mutant", [(name, mutant) for mutant, (names, _) in MUTANTS.items()
                                           for name in names])
def test_random_mode_rejects_a_broken_instance(name, mutant):
    cat = dataclasses.replace(inst.INSTANCES[name](), **MUTANTS[mutant][1])
    assert first_failure(cat) is not None


@pytest.mark.parametrize("name", ["pfn-large", "pinj-large"])
@pytest.mark.parametrize("survivor", sorted(SURVIVORS))
def test_named_survivor_passes_every_law(name, survivor):
    oracles, reason = SURVIVORS[survivor]
    cat = dataclasses.replace(inst.INSTANCES[name](), **oracles)
    assert first_failure(cat) is None, reason
