"""Garbage-carrying morphisms: normal forms, equivalence, and structure."""

import importlib.util
import itertools
import json
import re
from math import prod
from pathlib import Path

import numpy as np
import pytest

from revcat import classical as cl
from revcat import extensional as ex
from revcat import garbage as gb
from revcat import quantum as qu
from revcat.classical import FinObj, PartialFn, PartialInj
from revcat.garbage import ISO, PINJ, AuxMorphism
from revcat.instances import enumerate_aux_pinj

import oracles

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ISO_EMPTY = "an isometry core needs a nonzero column count and garbage size"


def pinj(a, b, graph):
    return PartialInj(FinObj.of_size(a), FinObj.of_size(b), tuple(graph))


def successor_pair():
    """x -> x+1 on {0,1,2}, once with blank garbage and once keeping the
    input as garbage."""
    f1 = AuxMorphism(pinj(3, 4, [(x, x + 1) for x in range(3)]), 4, 1)
    f2 = AuxMorphism(pinj(3, 12, [(x, (x + 1) * 3 + x) for x in range(3)]), 4, 3)
    return f1, f2


class TestNormalForm:
    def test_visible_fn_strips_garbage(self):
        _, f2 = successor_pair()
        assert gb.visible_fn(f2).graph == ((0, 1), (1, 2), (2, 3))

    def test_partition_blank_garbage_one_block(self):
        f1, _ = successor_pair()
        assert gb.garbage_partition(f1) == ((0, 1, 2),)

    def test_partition_copied_input_singletons(self):
        _, f2 = successor_pair()
        assert gb.garbage_partition(f2) == ((0,), (1,), (2,))

    def test_partition_ignores_unused_garbage_values(self):
        # Two morphisms with garbage 2 whose used garbage values differ but
        # induce the same partition.
        m1 = AuxMorphism(pinj(2, 4, [(0, 0), (1, 2)]), 2, 2)
        m2 = AuxMorphism(pinj(2, 4, [(0, 1), (1, 3)]), 2, 2)
        assert gb.normal_form(m1) == gb.normal_form(m2)

    def test_invariant_under_mediator_steps(self):
        # Exhaustive: every single mediator step preserves the normal form.
        for m in oracles.enumerate_cores(2, 2, 2):
            nf = gb.normal_form(m)
            for succ in oracles.one_step_successors(m, 2):
                assert gb.normal_form(succ) == nf


class TestDecider:
    def test_successor_pair_inequivalent(self):
        f1, f2 = successor_pair()
        assert gb.aux_equiv(f1, f2) is None

    def test_identity_vs_copying_identity(self):
        # id with blank garbage vs x -> (x, x): extensionally equal but the
        # copy leaks the input, so they are not identified here.
        i = gb.aux_id(2)
        copy = AuxMorphism(pinj(2, 4, [(0, 0), (1, 3)]), 2, 2)
        assert gb.aux_equiv(i, copy) is None

    def test_endpoint_mismatch_raises(self):
        with pytest.raises(gb.EndpointMismatchError):
            gb.aux_equiv(gb.aux_id(2), gb.aux_id(3))

    def test_base_mismatch_raises(self):
        with pytest.raises(gb.BaseMismatchError):
            gb.aux_equiv(gb.aux_id(2), gb.aux_id(2, ISO))

    @pytest.mark.parametrize("a,b,max_g", [(1, 1, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2)])
    def test_matches_zigzag_oracle(self, a, b, max_g):
        # The normal-form decision must agree with brute-force mediator
        # connectivity on every pair of morphisms in the hom-set.
        morphisms, roots = oracles.zigzag_equivalent_pairs(a, b, max_g)
        for i, m1 in enumerate(morphisms):
            for j, m2 in enumerate(morphisms):
                decided = gb.aux_equiv(m1, m2) is not None
                assert decided == (roots[i] == roots[j]), (m1, m2)

    def test_witness_replays(self):
        morphisms, roots = oracles.zigzag_equivalent_pairs(2, 2, 2)
        checked = 0
        for i, m1 in enumerate(morphisms):
            for j, m2 in enumerate(morphisms):
                if roots[i] != roots[j]:
                    continue
                w = gb.aux_equiv(m1, m2)
                assert w is not None
                assert gb.replay_witness(m1, m2, w)
                checked += 1
        assert checked > len(morphisms)  # nontrivial identifications exist

    def test_replay_rejects_wrong_witness(self):
        f1, _ = successor_pair()
        w = gb.aux_equiv(f1, f1)
        shifted = AuxMorphism(pinj(3, 4, [(x, x) for x in range(3)]), 4, 1)
        assert not gb.replay_witness(f1, shifted, w)

    def test_iso_base_choi_equality(self):
        # Minimal dilation vs the same isometry padded with an extra unused
        # environment dimension: same channel, hence identified.
        rng = np.random.default_rng(5)
        v = qu.haar_isometry(4, 2, rng)
        m1 = AuxMorphism(v, 2, 2)
        padded = np.zeros((6, 2), dtype=complex)
        padded.reshape(2, 3, 2)[:, :2, :] = v.mat.reshape(2, 2, 2)
        m2 = AuxMorphism(qu.Isometry(padded), 2, 3)
        assert gb.aux_equal(m1, m2)

    def test_iso_base_distinct_channels(self):
        m1 = gb.aux_id(2, ISO)
        m2 = AuxMorphism(qu.minimal_stinespring(qu.dephasing_channel(2))[0], 2, 2)
        assert not gb.aux_equal(m1, m2)

    def test_iso_base_has_no_mediator(self):
        # Over isometries Choi equality is the only witness.
        iso = gb.aux_id(2, ISO)
        with pytest.raises(gb.BaseMismatchError, match="requires the pinj base"):
            gb.aux_equiv(iso, iso)
        with pytest.raises(gb.BaseMismatchError, match="^garbage_partition requires the pinj base$"):
            gb.garbage_partition(iso)


class TestBaseFromCore:
    def test_base_follows_the_core(self):
        assert AuxMorphism(pinj(2, 4, [(0, 1)]), 2, 2).base == PINJ
        iso = AuxMorphism(qu.Isometry(np.eye(4, 2, dtype=complex)), 2, 2)
        assert (iso.base, iso.dom_size) == (ISO, 2)

    @pytest.mark.parametrize("core", [
        PartialFn(FinObj.of_size(2), FinObj.of_size(2), ((0, 0), (1, 0))),
        np.eye(2, dtype=complex),
        "pinj",
    ], ids=["partial-fn", "ndarray", "str"])
    def test_non_core_rejected(self, core):
        with pytest.raises(ValueError, match=f"got {type(core).__name__}$"):
            AuxMorphism(core, 2, 1)

    @pytest.mark.parametrize("cod_size, garbage_size, message", [
        (-2, -2, "cod_size -2 is not a nonnegative integer"),
        (4, 1.0, "garbage_size 1.0 is not a nonnegative integer"),
        (True, 4, "cod_size True is not a nonnegative integer"),
    ], ids=["negative", "float", "bool"])
    def test_bad_sizes_rejected(self, cod_size, garbage_size, message):
        with pytest.raises(ValueError) as exc:
            AuxMorphism(pinj(2, 4, [(0, 1)]), cod_size, garbage_size)
        assert str(exc.value) == message

    @pytest.mark.parametrize("build", [
        lambda base: gb.aux_id(2, base),
        lambda base: gb.bang(2, base),
        lambda base: gb.proj1(2, 3, base),
        lambda base: gb.proj2(2, 3, base),
    ], ids=["aux_id", "bang", "proj1", "proj2"])
    def test_unknown_base_name_rejected(self, build):
        with pytest.raises(ValueError, match="unknown base 'bogus'"):
            build("bogus")

    def test_unitary_is_an_isometry_core(self):
        u = qu.haar_unitary(3, np.random.default_rng(7))
        c = qu.channel_of_isometry(u, 1)
        assert c.close_to(qu.channel_of_unitary(u))
        m = gb.embed(u)
        assert (m.base, m.dom_size, m.cod_size, m.garbage_size) == (ISO, 3, 3, 1)
        assert m.collapsed.close_to(c)
        assert gb.aux_equal(m, gb.embed(qu.Isometry(u.mat)))

    @pytest.mark.parametrize("a, b", list(itertools.product(range(4), repeat=2)))
    def test_structural_cores(self, a, b):
        # Over pinj the core is the identity or the symmetry
        # x * b + y -> y * a + x; over isometries it is that permutation's
        # matrix, exactly.  An isometry core with no column (and so no
        # garbage, for bang and the projections) has no channel: it is refused.
        ident = lambda n: tuple((i, i) for i in range(n))
        symm = tuple(sorted((x * b + y, y * a + x) for x in range(a) for y in range(b)))
        cases = [
            (lambda base: gb.aux_id(a, base), (a,), (a,), ident(a), a, 1),
            (lambda base: gb.bang(a, base), (a,), (a,), ident(a), 1, a),
            (lambda base: gb.proj1(a, b, base), (a, b), (a, b), ident(a * b), a, b),
            (lambda base: gb.proj2(a, b, base), (a, b), (b, a), symm, b, a),
        ]
        for build, dom, cod, graph, cod_size, e in cases:
            p = build(PINJ)
            assert (p.core.dom.shape, p.core.cod.shape, p.core.graph) == (dom, cod, graph)
            assert (p.cod_size, p.garbage_size) == (cod_size, e)
            if prod(dom) == 0:
                with pytest.raises(ValueError, match=ISO_EMPTY):
                    build(ISO)
                continue
            expected = np.zeros((prod(dom), prod(dom)), dtype=complex)
            for x, y in graph:
                expected[y, x] = 1
            m = build(ISO)
            assert m.core.mat.dtype == complex and np.array_equal(m.core.mat, expected)
            assert (m.cod_size, m.garbage_size) == (cod_size, e)

    def test_witness_is_the_direct_mediator(self):
        m1 = AuxMorphism(pinj(2, 4, [(0, 0), (1, 2)]), 2, 2)
        m2 = AuxMorphism(pinj(2, 4, [(0, 1), (1, 3)]), 2, 2)
        w = gb.aux_equiv(m1, m2)
        assert (w.dom.size, w.cod.size, w.graph) == (2, 2, ((0, 1),))


class TestDeciderAndCache:
    def test_decider_agrees_with_witness_path(self):
        for a, b in itertools.product(range(3), repeat=2):
            ms = enumerate_aux_pinj(a, b, 2)
            for f in ms:
                for g in ms:
                    assert gb.aux_equal(f, g) == (gb.aux_equiv(f, g) is not None), (f, g)

    def test_cached_normal_form_matches_fresh(self):
        for a, b in itertools.product(range(3), repeat=2):
            for f in enumerate_aux_pinj(a, b, 2):
                fresh = (gb.visible_fn(f).graph, gb.garbage_partition(f))
                assert gb.normal_form(f) == fresh
                assert gb.normal_form(f) is gb.normal_form(f)
                assert f.collapsed.same_table(gb.visible_fn(f))

    def test_isometry_base(self):
        rng = np.random.default_rng(11)
        for d, r in [(1, 2), (2, 2), (2, 3), (3, 2)]:
            v = qu.haar_isometry(d * r, d, rng)
            f = AuxMorphism(v, d, r)
            # The same channel through a rotated environment.
            u = np.kron(np.eye(d), qu.haar_unitary(r, rng).mat)
            g = AuxMorphism(qu.Isometry(u @ v.mat), d, r)
            other = AuxMorphism(qu.haar_isometry(d * r, d, rng), d, r)
            for x, y, same in [(f, g, True), (g, f, True), (f, other, d == 1)]:
                assert gb.aux_equal(x, y) == same
            assert gb.normal_form(f) is f.collapsed
            assert gb.normal_form(f).close_to(
                qu.channel_of_isometry(v, r), qu.ATOL)

    def test_mismatches_raise_in_the_decider(self):
        with pytest.raises(gb.EndpointMismatchError):
            gb.aux_equal(gb.aux_id(2), gb.aux_id(3))
        with pytest.raises(gb.BaseMismatchError):
            gb.aux_equal(gb.aux_id(2), gb.aux_id(2, ISO))

    @pytest.mark.parametrize("decide", [gb.aux_equal, gb.aux_equiv, ex.ext_equiv],
                             ids=["aux_equal", "aux_equiv", "ext_equiv"])
    def test_mismatches_raise_before_the_keys_are_compared(self, decide):
        # Both empty morphisms have the normal form ((), ()), so a bare key
        # comparison would call them equal.
        f, g = AuxMorphism(pinj(2, 1, []), 1, 1), AuxMorphism(pinj(2, 3, []), 3, 1)
        assert gb.normal_form(f) == gb.normal_form(g) == ((), ())
        with pytest.raises(gb.EndpointMismatchError, match=r"^endpoints differ: 2->1 vs 2->3$"):
            decide(f, g)
        iso = gb.aux_id(2, ISO)
        with pytest.raises(gb.BaseMismatchError, match=r"^bases differ: pinj vs isometry$"):
            decide(f, iso)
        message = ("aux_equiv requires the pinj base; use aux_equal" if decide is gb.aux_equiv
                   else "bases differ: isometry vs pinj")
        with pytest.raises(gb.BaseMismatchError, match=f"^{re.escape(message)}$"):
            decide(iso, f)

    def test_the_key_is_the_frozen_zigzag_class(self):
        # The normal form, grouped in one dict pass, splits each hom-set into
        # exactly the classes frozen from the brute-force zigzag oracle.
        frozen = json.loads((PERFBENCH / "zigzag_classes.json").read_text())["blocks"]
        spec = importlib.util.spec_from_file_location("perfbench_morphkey",
                                                      PERFBENCH / "morphkey.py")
        morphkey = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(morphkey)
        for a, b in itertools.product(range(4), repeat=2):
            groups: dict = {}
            for m in enumerate_aux_pinj(a, b, 2):
                groups.setdefault(gb.normal_form(m), []).append(morphkey.morphism_key(m))
            classes: dict = {}
            for key, label in frozen[f"{a},{b}"].items():
                classes.setdefault(label, []).append(key)
            assert sorted(map(sorted, groups.values())) == sorted(map(sorted, classes.values()))

    def test_cached_restriction_matches_fresh(self):
        for a, b in itertools.product(range(3), repeat=2):
            for f in enumerate_aux_pinj(a, b, 2):
                r = gb.aux_ridm(f)
                assert r is gb.aux_ridm(f)
                fresh = gb.embed(cl.ridm(f.core))
                assert (r.base, r.cod_size, r.garbage_size) == (
                    fresh.base, fresh.cod_size, fresh.garbage_size)
                assert r.core == fresh.core

    def test_cached_restriction_over_isometries_is_identity(self):
        rng = np.random.default_rng(12)
        for d, e in [(1, 2), (2, 2), (3, 1)]:
            f = AuxMorphism(qu.haar_isometry(d * e, d, rng), d, e)
            r = gb.aux_ridm(f)
            assert r is gb.aux_ridm(f)
            assert (r.base, r.cod_size, r.garbage_size) == (ISO, d, 1)
            assert np.array_equal(r.core.mat, np.eye(d))


class TestOnePassTensor:
    def test_matches_interchange_after_tensor_prod(self):
        # The reference route: validate f (x) g, then compose with the interchange.
        ms = [f for a in range(3) for b in range(3) for f in enumerate_aux_pinj(a, b, 2)]
        for f in ms:
            for g in ms:
                theta = cl.coherence(
                    "interchange", (f.cod_size, f.garbage_size, g.cod_size, g.garbage_size))
                ref = cl.compose(theta, cl.tensor_prod(f.core, g.core))
                got = gb.aux_tensor(f, g).core
                assert isinstance(got, PartialInj)
                assert (got.dom.shape, got.cod.shape, got.graph) == (
                    ref.dom.shape, ref.cod.shape, ref.graph), (f, g)

    def test_result_is_validated(self, monkeypatch):
        # An "interchange" that sends every index to 0: the one-pass core
        # is still checked by its constructor.
        def collapsing(kind, shapes):
            b, e, b2, e2 = shapes
            return cl.PartialFn(FinObj(shapes), FinObj((b, b2, e, e2)),
                                tuple((i, 0) for i in range(b * e * b2 * e2)))

        monkeypatch.setattr(cl, "coherence", collapsing)
        with pytest.raises(ValueError, match="graph is not injective"):
            gb.aux_tensor(gb.aux_id(2), gb.aux_id(1))


class TestOnePassCompose:
    def test_matches_compose_after_tensor_prod(self):
        # The reference route: validate g (x) id_E, then compose with f.
        # Every composable pair of sizes up to 2, garbage 0 included.
        ms = {(a, b): enumerate_aux_pinj(a, b, 2) for a in range(3) for b in range(3)}
        for a, b, c in itertools.product(range(3), repeat=3):
            for f, g in itertools.product(ms[a, b], ms[b, c]):
                ident = cl.identity(FinObj.of_size(f.garbage_size))
                ref = cl.compose(cl.tensor_prod(g.core, ident), f.core)
                got = gb.aux_compose(g, f).core
                assert isinstance(got, PartialInj)
                assert (got.dom.shape, got.cod.shape, got.graph) == (
                    ref.dom.shape, ref.cod.shape, ref.graph), (f, g)


class TestStructure:
    def test_identity_neutral(self):
        _, f2 = successor_pair()
        lhs = gb.aux_compose(gb.aux_id(4), f2)
        rhs = gb.aux_compose(f2, gb.aux_id(3))
        assert gb.aux_equiv(lhs, f2) is not None
        assert gb.aux_equiv(rhs, f2) is not None

    def test_compose_accumulates_garbage(self):
        f1, f2 = successor_pair()
        g = gb.aux_compose(gb.bang(4), f2)
        assert g.cod_size == 1 and g.garbage_size == 12

    @pytest.mark.parametrize("base", [PINJ, ISO])
    def test_compose_refuses_unmatched_ends(self, base):
        f, g = gb.aux_id(2, base), gb.bang(3, base)
        with pytest.raises(gb.EndpointMismatchError, match=r"^cod 2 != dom 3$"):
            gb.aux_compose(g, f)

    def test_compose_visible_matches_table_compose(self):
        # Exhaustive over small morphisms: the visible part of a composite is
        # the composite of visible parts.
        ms = oracles.enumerate_cores(2, 2, 1)
        for f in ms:
            for g in ms:
                comp = gb.aux_compose(g, f)
                expected = cl.compose(gb.visible_fn(g), gb.visible_fn(f))
                assert gb.visible_fn(comp).same_table(expected)

    def test_compose_well_defined_on_classes(self):
        # Equivalent inputs give equivalent composites.
        morphisms, roots = oracles.zigzag_equivalent_pairs(2, 2, 2)
        reps = {}
        for i, m in enumerate(morphisms):
            reps.setdefault(roots[i], []).append(m)
        g = AuxMorphism(pinj(2, 4, [(0, 2), (1, 1)]), 2, 2)
        for group in reps.values():
            if len(group) < 2:
                continue
            c1 = gb.aux_compose(g, group[0])
            c2 = gb.aux_compose(g, group[1])
            assert gb.aux_equiv(c1, c2) is not None

    def test_ridm_drops_garbage(self):
        _, f2 = successor_pair()
        r = gb.aux_ridm(f2)
        assert r.garbage_size == 1
        assert gb.visible_fn(r).same_table(cl.ridm(gb.visible_fn(f2)))

    def test_restriction_axiom_i(self):
        for m in oracles.enumerate_cores(2, 2, 2):
            assert gb.aux_equiv(gb.aux_compose(m, gb.aux_ridm(m)), m) is not None

    def test_tensor_interleaves(self):
        f1, f2 = successor_pair()
        t = gb.aux_tensor(f1, f2)
        assert t.cod_size == 16 and t.garbage_size == 3
        vis = gb.visible_fn(t)
        expected = cl.tensor_prod(gb.visible_fn(f1), gb.visible_fn(f2))
        assert vis.same_table(expected)

    def test_tensor_partition_refines(self):
        f1, f2 = successor_pair()
        t = gb.aux_tensor(f2, f1)
        # Garbage of f2 (x) f1 determined by the first input alone.
        assert gb.garbage_partition(t) == (
            (0, 1, 2), (3, 4, 5), (6, 7, 8)
        )

    def test_iso_tensor_matches_channel_tensor(self):
        rng = np.random.default_rng(11)
        v1 = qu.haar_isometry(4, 2, rng)
        v2 = qu.haar_isometry(6, 2, rng)
        m = gb.aux_tensor(AuxMorphism(v1, 2, 2), AuxMorphism(v2, 2, 3))
        lhs = m.collapsed
        rhs = qu.channel_tensor(
            qu.channel_of_isometry(v1, 2), qu.channel_of_isometry(v2, 3)
        )
        assert lhs.close_to(rhs, qu.ROUND_ATOL)

    def test_iso_compose_matches_channel_compose(self):
        rng = np.random.default_rng(12)
        v1 = qu.haar_isometry(4, 2, rng)
        v2 = qu.haar_isometry(6, 2, rng)
        m = gb.aux_compose(AuxMorphism(v2, 2, 3), AuxMorphism(v1, 2, 2))
        lhs = m.collapsed
        rhs = qu.channel_compose(
            qu.channel_of_isometry(v2, 3), qu.channel_of_isometry(v1, 2)
        )
        assert lhs.close_to(rhs, qu.ROUND_ATOL)


class TestFactorization:
    @pytest.mark.parametrize("a,b,max_g", [(2, 2, 2), (3, 2, 1), (2, 3, 2)])
    def test_pinj_exhaustive(self, a, b, max_g):
        for m in oracles.enumerate_cores(a, b, max_g):
            embedded, projection = gb.factorize(m)
            assert gb.aux_equiv(gb.aux_compose(projection, embedded), m) is not None

    def test_iso_random(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            v = qu.haar_isometry(6, 2, rng)
            m = AuxMorphism(v, 3, 2)
            embedded, projection = gb.factorize(m)
            back = gb.aux_compose(projection, embedded)
            assert back.collapsed.close_to(m.collapsed, qu.ROUND_ATOL)


class TestTerminality:
    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_bang_total(self, a):
        b = gb.bang(a)
        assert gb.visible_fn(b).is_total() and b.cod_size == 1

    def test_any_total_map_to_unit_is_bang(self, ):
        # Uniqueness: every total morphism A -> I equals the canonical one.
        for a in (1, 2, 3):
            for m in oracles.enumerate_cores(a, 1, 3):
                if not gb.visible_fn(m).is_total():
                    continue
                assert gb.aux_equiv(m, gb.bang(a)) is not None

    def test_projections_total(self):
        for a, b in itertools.product((1, 2, 3), repeat=2):
            assert gb.visible_fn(gb.proj1(a, b)).is_total()
            assert gb.visible_fn(gb.proj2(a, b)).is_total()

    def test_proj2_swaps(self):
        p = gb.proj2(2, 3)
        for x in range(2):
            for y in range(3):
                assert gb.visible_fn(p)(x * 3 + y) == y

    def test_bang_absorbs(self):
        # ! o f = restriction-adjusted !: for total f they agree outright.
        f = gb.embed(pinj(3, 3, [(0, 1), (1, 2), (2, 0)]))
        assert gb.aux_equiv(gb.aux_compose(gb.bang(3), f), gb.bang(3)) is not None


class TestPoints:
    def test_count(self):
        assert len(gb.points_of(3)) == 4

    def test_values(self):
        vals = [p.collapsed(0) for p in gb.points_of(2)]
        assert vals == [0, 1, None]

    def test_garbage_on_points_normalizes(self):
        # A point that also emits garbage denotes the same element.
        p = AuxMorphism(pinj(1, 6, [(0, 2 * 2 + 1)]), 3, 2)
        assert p.collapsed(0) == 2

    def test_composition_with_point_evaluates(self):
        _, f2 = successor_pair()
        for p in gb.points_of(3):
            v = p.collapsed(0)
            out = gb.aux_compose(f2, p).collapsed(0)
            expected = None if v is None else v + 1
            assert out == expected


class TestJson:
    def test_pinj_roundtrip(self):
        _, f2 = successor_pair()
        back = AuxMorphism.from_json(f2.to_json())
        assert back.base == PINJ
        assert back.core.graph == f2.core.graph
        assert back.cod_size == f2.cod_size and back.garbage_size == f2.garbage_size

    def test_iso_roundtrip(self):
        rng = np.random.default_rng(3)
        m = AuxMorphism(qu.haar_isometry(4, 2, rng), 2, 2)
        back = AuxMorphism.from_json(m.to_json())
        assert np.array_equal(back.core.mat, m.core.mat)
        assert back.cod_size == 2 and back.garbage_size == 2

    def test_rejects_zero_garbage(self):
        with pytest.raises(ValueError):
            AuxMorphism.from_json(
                {"base": PINJ, "garbage_shape": [0],
                 "core": pinj(1, 1, []).to_json()}
            )

    def test_enumerated_morphisms_roundtrip(self):
        # Garbage size 0 included: enumerate_aux_pinj builds the empty
        # morphisms with core codomain (B, 0).
        for a, b in itertools.product(range(4), repeat=2):
            for m in enumerate_aux_pinj(a, b, 2):
                back = AuxMorphism.from_json(json.loads(json.dumps(m.to_json())))
                assert (back.dom_size, back.cod_size, back.garbage_size) == (
                    m.dom_size, m.cod_size, m.garbage_size)
                assert back.core.graph == m.core.graph

    def test_built_zero_garbage_morphisms_roundtrip(self):
        # The library's own garbage-0 morphisms have empty cores whose
        # codomain shape is not [B, 0] (bang(0)'s is [0]); to_json writes it so.
        def roundtrip(m):
            back = AuxMorphism.from_json(json.loads(json.dumps(m.to_json())))
            assert (back.dom_size, back.cod_size, back.garbage_size) == (
                m.dom_size, m.cod_size, m.garbage_size)
            assert gb.aux_equal(back, m)
            return back

        sizes = range(3)
        built = [gb.bang(0)] + [gb.proj1(a, 0) for a in sizes] + [gb.proj2(0, b) for b in sizes]
        built.append(gb.aux_tensor(gb.bang(0), gb.bang(0)))
        homs = {(a, b): enumerate_aux_pinj(a, b, 2) for a in sizes for b in sizes}
        for f, g in itertools.product(itertools.chain(*homs.values()), repeat=2):
            if 0 in (f.garbage_size, g.garbage_size):
                built.append(gb.aux_tensor(f, g))
                if f.cod_size == g.dom_size:
                    built.append(gb.aux_compose(g, f))
        assert sum(m.garbage_size == 0 for m in built) == len(built) > 1000
        for m in built:
            assert roundtrip(m).core.graph == ()

    def test_to_json_with_garbage(self):
        _, f2 = successor_pair()
        assert f2.to_json() == {
            "base": PINJ,
            "garbage_shape": [3],
            "core": {"dom": {"shape": [3]}, "cod": {"shape": [12]},
                     "graph": [[0, 3], [1, 7], [2, 11]]},
        }

    @pytest.mark.parametrize("shape", [[1.5], [2.0], ["2"], [True], [None]])
    def test_rejects_non_integer_garbage_shape(self, shape):
        _, f2 = successor_pair()
        data = dict(f2.to_json(), garbage_shape=shape)
        with pytest.raises(ValueError, match="garbage_shape entry .* is not an integer"):
            AuxMorphism.from_json(data)

    @pytest.mark.parametrize("drop, replace, message", [
        (None, [1, 2], "garbage-carrying morphism must be an object, got list"),
        ("base", None, "garbage-carrying morphism has no 'base' field"),
        ("garbage_shape", None, "garbage-carrying morphism has no 'garbage_shape' field"),
        ("core", None, "garbage-carrying morphism has no 'core' field"),
        (None, {"garbage_shape": 3}, "garbage_shape 3 is not a list"),
        (None, {"core": 7}, "core must be an object, got int"),
        (None, {"core": [1, 2]}, "core must be an object, got list"),
        (None, {"base": ISO, "core": 7}, "core must be an object, got int"),
        (None, {"base": ISO, "core": {"rows": 3, "cols": 3}}, "core has no 'entries' field"),
    ], ids=["list", "no-base", "no-garbage-shape", "no-core", "number-shape", "number-core",
            "list-core", "iso-number-core", "iso-core-no-entries"])
    def test_missing_or_non_object_field_named(self, drop, replace, message):
        _, f2 = successor_pair()
        data = f2.to_json()
        if drop:
            del data[drop]
        if isinstance(replace, dict):
            data.update(replace)
        elif replace is not None:
            data = replace
        with pytest.raises(ValueError) as exc:
            AuxMorphism.from_json(data)
        assert str(exc.value) == message

    def test_rejects_negative_garbage_shape(self):
        _, f2 = successor_pair()
        data = dict(f2.to_json(), garbage_shape=[-1, -3])
        with pytest.raises(ValueError, match="negative entry"):
            AuxMorphism.from_json(data)

    @pytest.mark.parametrize("rows, e", [(2, 1), (0, 1), (0, 3), (4, 2)])
    def test_rejects_isometry_core_without_columns(self, rows, e):
        data = {"base": ISO, "garbage_shape": [e],
                "core": {"rows": rows, "cols": 0, "entries": []}}
        with pytest.raises(ValueError) as exc:
            AuxMorphism.from_json(data)
        assert str(exc.value) == ISO_EMPTY

    def test_rejects_zero_garbage_over_isometries(self):
        data = {"base": ISO, "garbage_shape": [0],
                "core": qu.matrix_to_json(np.eye(2, dtype=complex))}
        with pytest.raises(ValueError, match="garbage size 0"):
            AuxMorphism.from_json(data)
