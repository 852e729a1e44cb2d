"""Partial functions, partial injections, and their monoidal structure."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revcat import classical as cl
from revcat import garbage as gb
from revcat import pipeline as pl
from revcat.classical import FinObj, PartialFn, PartialInj

import oracles


def pfn(a, b, graph):
    return PartialFn(FinObj.of_size(a), FinObj.of_size(b), tuple(graph))


def pinj(a, b, graph):
    return PartialInj(FinObj.of_size(a), FinObj.of_size(b), tuple(graph))


@st.composite
def partial_fns(draw, max_size=5):
    a = draw(st.integers(0, max_size))
    b = draw(st.integers(0, max_size))
    graph = []
    for x in range(a):
        if b > 0 and draw(st.booleans()):
            graph.append((x, draw(st.integers(0, b - 1))))
    return pfn(a, b, graph)


class TestCompose:
    def test_basic(self):
        f = pfn(2, 2, [(0, 1)])
        g = pfn(2, 2, [(1, 0)])
        assert cl.compose(g, f).graph == ((0, 0),)

    def test_undefined_midpoint(self):
        f = pfn(2, 2, [(0, 1)])
        g = pfn(2, 2, [(0, 0)])
        assert cl.compose(g, f).graph == ()

    def test_object_mismatch(self):
        with pytest.raises(cl.CompositionError):
            cl.compose(pfn(3, 3, []), pfn(2, 2, []))

    def test_agrees_with_relational_product_exhaustively(self):
        objs = [FinObj.of_size(n) for n in range(3)]
        for a, b, c in itertools.product(objs, repeat=3):
            for f in cl.all_partial_fns(a, b):
                for g in cl.all_partial_fns(b, c):
                    expected = oracles.relational_compose(g, f)
                    assert set(cl.compose(g, f).graph) == expected

    def test_preserves_injectivity(self):
        f = pinj(2, 2, [(0, 1), (1, 0)])
        g = pinj(2, 2, [(0, 0)])
        assert isinstance(cl.compose(g, f), PartialInj)


class TestRidm:
    def test_total_gives_identity(self):
        f = pfn(3, 3, [(0, 1), (1, 2), (2, 0)])
        assert cl.ridm(f).graph == cl.identity(f.dom).graph

    def test_empty(self):
        assert cl.ridm(pfn(3, 3, [])).graph == ()

    def test_partial_identity_on_domain(self):
        # Defined exactly where f is, acting as the identity there.
        f = pfn(3, 3, [(0, 1)])
        assert cl.ridm(f).graph == ((0, 0),)

    def test_idempotent_and_absorbing(self):
        f = pfn(4, 3, [(0, 2), (2, 1)])
        r = cl.ridm(f)
        assert cl.compose(r, r).graph == r.graph
        assert cl.compose(f, r).graph == f.graph


class TestDagger:
    def test_transpose(self):
        assert cl.dagger(pinj(3, 3, [(0, 1), (1, 2)])).graph == ((1, 0), (2, 1))

    def test_empty(self):
        assert cl.dagger(pinj(2, 2, [])).graph == ()

    def test_regularity_exhaustive(self):
        for a in range(4):
            for b in range(4):
                aa, bb = FinObj.of_size(a), FinObj.of_size(b)
                for f in cl.all_partial_injections(aa, bb):
                    fd = cl.dagger(f)
                    assert cl.compose(cl.compose(f, fd), f).graph == f.graph
                    assert cl.compose(fd, f).graph == cl.ridm(f).graph
                    assert cl.compose(f, fd).graph == cl.ridm(fd).graph


class TestTensor:
    def test_identity_tensor(self):
        i2 = cl.identity(FinObj.of_size(2))
        t = cl.tensor_prod(i2, i2)
        assert t.graph == tuple((i, i) for i in range(4))

    def test_with_empty(self):
        f = pfn(2, 2, [(0, 0)])
        assert cl.tensor_prod(f, pfn(2, 2, [])).graph == ()

    def test_mixed_radix_domain(self):
        f = pfn(2, 2, [(0, 1)])
        g = pfn(2, 2, [(0, 0), (1, 1)])
        t = cl.tensor_prod(f, g)
        # Defined exactly on (0,0) and (0,1) in row-major flat indexing.
        assert t.graph == ((0, 2), (1, 3))

    def test_restriction_bifunctor(self):
        f = pfn(3, 2, [(1, 0)])
        g = pfn(2, 2, [(0, 1), (1, 0)])
        lhs = cl.ridm(cl.tensor_prod(f, g))
        rhs = cl.tensor_prod(cl.ridm(f), cl.ridm(g))
        assert lhs.graph == rhs.graph


class TestDirectSum:
    def test_zero_right_unit(self):
        f = pinj(2, 3, [(0, 1)])
        z = cl.empty_map(cl.ZERO, cl.ZERO)
        assert cl.direct_sum(f, z).same_table(f)

    def test_identities_add(self):
        i1 = cl.identity(FinObj.of_size(1))
        assert cl.direct_sum(i1, i1).graph == ((0, 0), (1, 1))

    def test_injectivity_preserved_exhaustive(self):
        objs = [FinObj.of_size(n) for n in range(3)]
        for a, b in itertools.product(objs, repeat=2):
            for f in cl.all_partial_injections(a, b):
                for g in cl.all_partial_injections(a, b):
                    assert isinstance(cl.direct_sum(f, g), PartialInj)


class TestValidation:
    @pytest.mark.parametrize("cls, graph, message", [
        (PartialFn, [(2, 0)], "input 2 out of range for dom of size 2"),
        (PartialFn, [(-1, 0)], "input -1 out of range for dom of size 2"),
        (PartialFn, [(0, 3)], "output 3 out of range for cod of size 3"),
        (PartialFn, [(0, -1)], "output -1 out of range for cod of size 3"),
        (PartialFn, [(1, 0), (0, 1), (1, 2)], "graph not functional: input 1 repeated"),
        # The first bad pair in sorted order is the one named.
        (PartialFn, [(1, 7), (0, 5), (5, 0)], "output 5 out of range for cod of size 3"),
        (PartialInj, [(2, 0)], "input 2 out of range for dom of size 2"),
        (PartialInj, [(0, 3)], "output 3 out of range for cod of size 3"),
        (PartialInj, [(1, 0), (1, 1)], "graph not functional: input 1 repeated"),
        (PartialInj, [(0, 2), (1, 2)], "graph is not injective"),
    ], ids=["input-high", "input-negative", "output-high", "output-negative",
            "repeated-input", "first-bad-pair", "inj-input-high", "inj-output-high",
            "inj-repeated-input", "inj-repeated-output"])
    def test_malformed_graph_message(self, cls, graph, message):
        with pytest.raises(ValueError) as exc:
            cls(FinObj.of_size(2), FinObj.of_size(3), tuple(graph))
        assert str(exc.value) == message

    @pytest.mark.parametrize("cls", [PartialFn, PartialInj])
    @pytest.mark.parametrize("graph, bad", [
        (((0, 1.0), (1, 2.5)), "1.0"),
        (((0, 1), (1.0, 2)), "1.0"),
        (((0, True),), "True"),
        (((0, "a"), (0, 1)), "'a'"),  # unorderable: sorting fails before the scan
    ], ids=["float-output", "float-input", "bool-output", "unorderable-output"])
    def test_non_integer_graph_entry_rejected(self, cls, graph, bad):
        with pytest.raises(ValueError) as exc:
            cls(FinObj.of_size(2), FinObj.of_size(4), graph)
        assert str(exc.value) == f"graph entry {bad} is not an integer"

    @pytest.mark.parametrize("injective", [False, True])
    def test_closed_operation_results_are_validated(self, monkeypatch, injective):
        # A compose that emits a repeated input: the result's constructor
        # rejects it, so no closed operation bypasses validation.
        def broken_compose(g, f):
            gm = g.mapping
            graph = [(x, gm[y]) for x, y in f.graph if y in gm]
            return type(f)(f.dom, g.cod, tuple(graph + graph[:1]))

        monkeypatch.setattr(cl, "compose", broken_compose)
        make = pinj if injective else pfn
        f = make(2, 2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="graph not functional: input 0 repeated"):
            cl.compose(f, f)
        # The garbage composite reads g's memoised mapping in its one pass; a
        # corrupted, non-injective mapping reaches the result's constructor,
        # which rejects it.
        g = gb.embed(pinj(2, 2, [(0, 1), (1, 0)]))
        g.core.mapping[1] = g.core.mapping[0]
        with pytest.raises(ValueError, match="graph is not injective"):
            gb.aux_compose(g, gb.aux_id(2))

    def test_stored_size_is_not_part_of_equality_repr_or_hash(self):
        a = FinObj((2, 3))
        assert a.size == 6 and FinObj.of_size(0).size == 0 and cl.UNIT.size == 1
        assert repr(a) == "FinObj(shape=(2, 3))"
        assert a == FinObj((2, 3)) and hash(a) == hash(FinObj((2, 3)))
        assert a != FinObj((6,))


class TestMemoised:
    def test_identity_and_of_size_are_shared(self):
        a = FinObj((2, 2))
        assert cl.identity(a) is cl.identity(FinObj((2, 2)))
        assert FinObj.of_size(3) is FinObj.of_size(3)

    def test_tensor_is_shared_and_keeps_the_factors(self):
        a, b = FinObj((2, 3)), FinObj.of_size(4)
        assert a.tensor(b) is FinObj((2, 3)).tensor(FinObj((4,)))
        assert a.tensor(b).shape == (2, 3, 4) and b.tensor(a).shape == (4, 2, 3)

    def test_identity_keeps_its_shape(self):
        grid, flat = cl.identity(FinObj((2, 3))), cl.identity(FinObj((6,)))
        assert grid.dom.shape == grid.cod.shape == (2, 3)
        assert flat.dom.shape == flat.cod.shape == (6,)
        assert grid.graph == flat.graph and grid != flat

    @pytest.mark.parametrize("factor", [True, 2.0, "2"])
    def test_non_integer_factor_rejected(self, factor):
        # Cache keys compare by equality, and True == 1 == 1.0.
        with pytest.raises(ValueError, match="is not an integer"):
            FinObj((2, factor))
        with pytest.raises(ValueError, match="is not an integer"):
            FinObj.of_size(factor)


class TestMorphismMemo:
    @pytest.mark.parametrize("make", [pfn, pinj])
    def test_mapping_and_restriction_are_built_once(self, make):
        f = make(3, 3, [(0, 2), (2, 1)])
        assert f.mapping is f.mapping and f.mapping == {0: 2, 2: 1}
        r = cl.ridm(f)
        assert r is cl.ridm(f) and r is f.restricted
        assert type(r) is type(f) and r.graph == ((0, 0), (2, 2))
        assert (r.dom, r.cod) == (f.dom, f.dom)

    def test_memo_leaves_repr_equality_and_hash_alone(self):
        f, g = pinj(3, 3, [(0, 2), (2, 1)]), pinj(3, 3, [(0, 2), (2, 1)])
        before = (repr(f), hash(f))
        f.mapping
        cl.ridm(f)
        assert "mapping" in vars(f) and "restricted" in vars(f)
        assert (repr(f), hash(f)) == before == (repr(g), hash(g))
        assert f == g and g == f


class TestCoherence:
    def test_memoised(self):
        assert cl.coherence("symm", (2, 3)) is cl.coherence("symm", (2, 3))
        assert cl.coherence("interchange", (1, 2, 2, 1)) is not cl.coherence(
            "interchange", (2, 1, 1, 2))
        with pytest.raises(ValueError, match="unknown coherence kind"):
            cl.coherence("assoc", (1, 1, 1))

    def test_symm_2x3(self):
        p = cl.coherence("symm", (2, 3))
        for x in range(2):
            for y in range(3):
                assert p(x * 3 + y) == y * 2 + x

    def test_interchange_2222(self):
        # Every shape with factors in 0..3, (2, 2, 2, 2) among them.
        for shape in itertools.product(range(4), repeat=4):
            b, e, b2, e2 = shape
            p = cl.coherence("interchange", shape)
            assert (p.dom.shape, p.cod.shape) == (shape, (b, b2, e, e2))
            assert p.is_total() and p.is_injective() and p.dom.size == b * e * b2 * e2
            for idx in range(p.dom.size):
                xb, xe, yb, ye = oracles.mixed_radix_unrank(idx, shape)
                expected = oracles.mixed_radix_rank((xb, yb, xe, ye), (b, b2, e, e2))
                assert p(idx) == expected

    def test_pentagon_hexagon_small_shapes(self):
        # Associators are identities, so the pentagon is trivial; the hexagon
        # reduces to gamma_{A(x)B,C} = (gamma_{A,C} (x) id) o (id (x) gamma_{B,C})
        # on flat indices.
        for a, b, c in itertools.product(range(1, 4), repeat=3):
            lhs = cl.coherence("symm", (a * b, c))
            step1 = cl.tensor_prod(
                cl.identity(FinObj.of_size(a)), cl.coherence("symm", (b, c))
            )
            step2 = cl.tensor_prod(
                cl.coherence("symm", (a, c)), cl.identity(FinObj.of_size(b))
            )
            rhs = cl.compose(step2, step1)
            assert lhs.same_table(rhs)
            # gamma is its own inverse after swapping arguments
            back = cl.coherence("symm", (c, a * b))
            assert cl.compose(back, lhs).same_table(cl.identity(lhs.dom))


class TestBennett:
    def test_constant_function(self):
        f = pfn(2, 1, [(0, 0), (1, 0)])
        b = cl.bennett(f)
        assert b.graph == ((0, 0), (1, 1))  # (0,0) and (0,1) in B x A
        assert b.is_injective()

    def test_identity_gives_diagonal(self):
        f = cl.identity(FinObj.of_size(3))
        b = cl.bennett(f)
        assert b.graph == tuple((x, x * 3 + x) for x in range(3))

    def test_empty(self):
        assert cl.bennett(pfn(2, 2, [])).graph == ()

    @given(partial_fns())
    def test_injective_and_projects_back(self, f):
        b = cl.bennett(f)
        assert b.is_injective()
        assert cl.ridm(b).graph == cl.ridm(f).graph
        n = f.dom.size
        recovered = tuple((x, y // n) for x, y in b.graph)
        assert recovered == f.graph


class TestPartialIso:
    def test_bijection_accepted(self):
        assert pl.inv_pfn(pfn(2, 2, [(0, 1), (1, 0)])) is not None

    def test_noninjective_rejected(self):
        assert pl.inv_pfn(pfn(2, 1, [(0, 0), (1, 0)])) is None

    def test_agrees_with_inverse_search_exhaustive(self):
        for a in range(4):
            for b in range(4):
                aa, bb = FinObj.of_size(a), FinObj.of_size(b)
                for f in cl.all_partial_fns(aa, bb):
                    found = oracles.search_partial_inverse(f)
                    assert (pl.inv_pfn(f) is not None) == (found is not None)


class TestJson:
    @given(partial_fns())
    def test_roundtrip(self, f):
        assert PartialFn.from_json(f.to_json()) == f

    @pytest.mark.parametrize("entry", [1.7, 1.0, "1", True, None])
    def test_non_integer_graph_entry_rejected(self, entry):
        data = {"dom": {"shape": [2]}, "cod": {"shape": [2]}, "graph": [[0, entry]]}
        with pytest.raises(ValueError, match="graph entry"):
            PartialFn.from_json(data)

    def test_unorderable_graph_entry_named(self):
        data = {"dom": {"shape": [2]}, "cod": {"shape": [2]}, "graph": [[1, 0], [0, 1], [0, "a"]]}
        with pytest.raises(ValueError) as exc:
            PartialFn.from_json(data)
        assert str(exc.value) == "graph entry 'a' is not an integer"

    @pytest.mark.parametrize("side", ["dom", "cod"])
    @pytest.mark.parametrize("entry", [2.5, 2.0, "2", True, None])
    def test_non_integer_shape_entry_rejected(self, side, entry):
        data = {"dom": {"shape": [2]}, "cod": {"shape": [2]}, "graph": []}
        data[side]["shape"] = [entry]
        with pytest.raises(ValueError, match=f"{side} shape entry"):
            PartialFn.from_json(data)

    @pytest.mark.parametrize("graph", [[[0, 1, 1]], [[0]], [7], {"0": 1}, "ab"])
    def test_malformed_graph_rejected(self, graph):
        data = {"dom": {"shape": [2]}, "cod": {"shape": [2]}, "graph": graph}
        with pytest.raises(ValueError, match=r"graph must be a list of \[x, y\] pairs"):
            PartialFn.from_json(data)

    @pytest.mark.parametrize("side", ["dom", "cod"])
    def test_non_list_shape_rejected(self, side):
        data = {"dom": {"shape": [2]}, "cod": {"shape": [2]}, "graph": []}
        data[side]["shape"] = 2
        with pytest.raises(ValueError, match=f"{side} shape 2 is not a list"):
            PartialFn.from_json(data)

    @pytest.mark.parametrize("data, message", [
        ([1, 2], "morphism must be an object, got list"),
        (5, "morphism must be an object, got int"),
        ({"dom": {"shape": [2]}, "cod": {"shape": [2]}}, "morphism has no 'graph' field"),
        ({"cod": {"shape": [2]}, "graph": []}, "morphism has no 'dom' field"),
        ({"dom": {"shape": [2]}, "graph": []}, "morphism has no 'cod' field"),
        ({"dom": 5, "cod": {"shape": [2]}, "graph": []}, "dom must be an object, got int"),
        ({"dom": {"shape": [2]}, "cod": [2], "graph": []}, "cod must be an object, got list"),
        ({"dom": {}, "cod": {"shape": [2]}, "graph": []}, "dom has no 'shape' field"),
        ({"dom": {"shape": [2]}, "cod": {"size": 2}, "graph": []}, "cod has no 'shape' field"),
    ], ids=["list-morphism", "number-morphism", "no-graph", "no-dom", "no-cod",
            "number-dom", "list-cod", "no-dom-shape", "no-cod-shape"])
    def test_missing_or_non_object_field_named(self, data, message):
        with pytest.raises(ValueError) as exc:
            PartialFn.from_json(data)
        assert str(exc.value) == message

    def test_partial_inj_validated_once(self, monkeypatch):
        calls = []
        check = PartialFn.__post_init__
        monkeypatch.setattr(PartialFn, "__post_init__", lambda f: calls.append(f) or check(f))
        data = {"dom": {"shape": [2]}, "cod": {"shape": [2]}, "graph": [[0, 1], [1, 0]]}
        f = PartialInj.from_json(data)
        assert type(f) is PartialInj and len(calls) == 1
        data["graph"] = [[0, 1], [1, 1]]
        with pytest.raises(ValueError) as exc:
            PartialInj.from_json(data)
        assert str(exc.value) == "graph is not injective"

    def test_sorted_no_duplicates(self):
        f = PartialFn(FinObj.of_size(3), FinObj.of_size(3), ((2, 0), (0, 1)))
        assert f.to_json()["graph"] == [[0, 1], [2, 0]]
