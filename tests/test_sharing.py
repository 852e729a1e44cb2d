"""Sharing of equal finite morphisms within one law run (classical.sharing)."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from revcat import classical as cl
from revcat import extensional as ex
from revcat import garbage as gb
from revcat import instances as inst
from revcat import lawcheck as lc
from revcat.classical import FinObj, PartialFn, PartialInj

TWO = FinObj.of_size(2)


def probe(cat, pattern, check):
    """Run check as a law on cat; the report must pass."""
    rep = lc.run_law(cat, lc.Law("probe", pattern, check))
    assert rep.passed, rep
    return rep


def corrupted_swap():
    """The swap on {0, 1} whose memoised mapping claims it sends both points
    to 0, so that a composite through it is not injective."""
    g = PartialInj(TWO, TWO, ((0, 1), (1, 0)))
    g.__dict__["mapping"] = {0: 0, 1: 0}
    return g


class TestInsideARun:
    def test_equal_composites_are_one_object(self):
        probe(inst.make_pinj_instance(2), "chain",
              lambda cat, f, g: cat.compose(g, f) is cat.compose(g, f))
        probe(inst.make_aux_pinj_instance(1, 2), "chain",
              lambda cat, f, g: cat.compose(g, f) is cat.compose(g, f))

    def test_results_meet_the_enumerated_values(self):
        # compose with an identity and the dagger's sorted graph both find
        # the enumerated morphism itself.
        probe(inst.make_pinj_instance(2), "single",
              lambda cat, f: cat.compose(cat.identity(cat.cod(f)), f) is f
              and cat.dagger(cat.dagger(f)) is f)

    def test_restriction_and_normal_form_are_computed_once(self):
        def check(cat, f, g):
            h = cat.compose(g, f)
            return (cat.restrict(h) is cat.restrict(cat.compose(g, f))
                    and gb.normal_form(h) is gb.normal_form(cat.compose(g, f)))

        probe(inst.make_aux_pinj_instance(1, 2), "chain", check)

    @pytest.mark.parametrize("build", [
        lambda g, f: cl.compose(g, f),
        lambda g, f: gb.aux_compose(gb.embed(g), gb.embed(f)),
    ], ids=["compose", "aux_compose"])
    def test_invalid_result_still_raises(self, build):
        f = PartialInj(TWO, TWO, ((0, 0), (1, 1)))
        with cl.sharing():
            for _ in range(2):  # the failed build was not recorded either
                with pytest.raises(ValueError, match="graph is not injective"):
                    build(corrupted_swap(), f)

    def test_invalid_result_fails_the_law(self):
        g = corrupted_swap()
        law = lc.Law("probe", "single",
                     lambda cat, f: f.cod.size != 2 or cl.compose(g, f) is not None)
        rep = lc.run_law(inst.make_pinj_instance(2), law)
        assert not rep.passed
        assert rep.detail == "ValueError: graph is not injective"

    def test_nested_scopes_share_one_table(self):
        f = PartialInj(TWO, TWO, ((0, 1),))
        with cl.sharing():
            outer = cl.compose(f, f)
            with cl.sharing():
                assert cl.compose(f, f) is outer
            assert cl.compose(f, f) is outer


class TestMake:
    SWAP = (TWO, TWO, ((0, 1), (1, 0)))

    def test_equal_fields_give_one_object_in_a_scope(self):
        with cl.sharing():
            f = cl.make(PartialInj, *self.SWAP)
            assert cl.make(PartialInj, TWO, TWO, ((0, 1), (1, 0))) is f
            m = cl.make(gb.AuxMorphism, f, 2, 1)
            assert cl.make(gb.AuxMorphism, f, 2, 1) is m

    def test_the_class_is_part_of_the_key(self):
        with cl.sharing():
            fn, inj = cl.make(PartialFn, *self.SWAP), cl.make(PartialInj, *self.SWAP)
            assert type(fn) is PartialFn and type(inj) is PartialInj
            assert fn is not inj and fn != inj and fn.same_table(inj)

    def test_outside_a_scope_every_call_builds_and_validates(self):
        assert cl.make(PartialInj, *self.SWAP) is not cl.make(PartialInj, *self.SWAP)
        for _ in range(2):
            with pytest.raises(ValueError, match="graph is not injective"):
                cl.make(PartialInj, TWO, TWO, ((0, 1), (1, 1)))


@pytest.mark.parametrize("eq", [
    inst.INSTANCES["aux-pinj"]().eq, inst.INSTANCES["ext-aux-pinj"]().eq,
    gb.aux_equal, ex.ext_equiv,
], ids=["aux-pinj", "ext-aux-pinj", "aux_equal", "ext_equiv"])
def test_eq_oracle_still_raises_on_different_endpoints(eq):
    # The decider, not the oracle, answers f is g first; two distinct
    # morphisms with different endpoints must still reach its mismatch error.
    f, g = gb.aux_id(2), gb.bang(2)
    assert eq(f, f) and eq(g, g)
    with pytest.raises(gb.EndpointMismatchError, match=r"^endpoints differ: 2->2 vs 2->1$"):
        eq(f, g)


class TestIdentityTable:
    @pytest.mark.parametrize("base", [gb.PINJ, gb.ISO])
    def test_one_object_across_scopes(self, base):
        with cl.sharing():
            inside = gb.aux_id(2, base)
        with cl.sharing():
            assert gb.aux_id(2, base) is inside
        assert gb.aux_id(2, base) is inside

    @pytest.mark.parametrize("base", [gb.PINJ, gb.ISO])
    def test_restriction_is_itself(self, base):
        ident = gb.aux_id(2, base)
        assert ident.restricted is ident and gb.aux_ridm(ident) is ident

    @pytest.mark.parametrize("size", [np.int64(2), True], ids=["int64", "bool"])
    def test_non_int_sizes_still_raise(self, size):
        # An untyped cache keys a lone int argument by itself but two
        # arguments by their tuple, where (True, base) == (1, base).
        for args in ((1,), (2,), (1, gb.PINJ), (2, gb.PINJ)):
            gb.aux_id(*args)
        for args in ((size,), (size, gb.PINJ)):
            with pytest.raises(ValueError, match="is not an integer"):
                gb.aux_id(*args)


class TestAfterARun:
    @staticmethod
    def tensors(refs):
        # Tensors on pinj(1) have two-factor objects, so no enumerated or
        # memoised morphism equals one: only the run's table can hold it.
        def check(cat, f, g):
            refs.append(weakref.ref(cat.tensor_mor(f, g)))
            return True
        return check

    def test_values_are_released_after_return(self):
        refs = []
        probe(inst.make_pinj_instance(1), "pair", self.tensors(refs))
        gc.collect()
        assert refs and all(r() is None for r in refs)

    def test_values_are_released_after_an_exception(self):
        refs = []
        record = self.tensors(refs)

        def check(cat, f, g):
            record(cat, f, g)
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            lc.run_law(inst.make_pinj_instance(1), lc.Law("probe", "pair", check))
        gc.collect()
        assert refs and all(r() is None for r in refs)

    @staticmethod
    def memoised_only(refs):
        # pinj(2) whose compose returns a new object on every call: only the
        # exhaustive run's memo holds it, as a result or as the operand of
        # the outer composite.
        def compose(g, f):
            h = cl.compose(g, f)
            h = PartialInj(h.dom, h.cod, h.graph)
            refs.append(weakref.ref(h))
            return h
        return dataclasses.replace(inst.make_pinj_instance(2), compose=compose)

    @staticmethod
    def twice(cat, f, g, h):
        return cat.compose(h, cat.compose(g, f)) is cat.compose(h, cat.compose(g, f))

    def test_memo_entries_are_released_after_return(self):
        refs = []
        probe(self.memoised_only(refs), "chain3", self.twice)
        gc.collect()
        assert refs and all(r() is None for r in refs)

    def test_memo_entries_are_released_after_an_exception(self):
        refs = []

        def check(cat, f, g, h):
            if not self.twice(cat, f, g, h) or len(refs) > 50:
                raise RuntimeError("stop")
            return True

        with pytest.raises(RuntimeError, match="stop") as raised:
            lc.run_law(self.memoised_only(refs), lc.Law("probe", "chain3", check))
        gc.collect()
        assert raised.traceback and refs and all(r() is None for r in refs)

    def test_values_are_freed_without_the_cycle_collector(self):
        # r(r(f)) is r(f): a memo holding its own instance would be a cycle
        # that outlives the table until gc.collect() runs.
        tables = []

        def check(cat, f):
            if not tables:
                tables.append(cl._shared.get())
            r = cat.restrict(f)
            return cat.restrict(r) is r

        gc.collect()
        gc.disable()
        try:
            probe(inst.make_aux_pinj_instance(2, 2), "single", check)
            refs = [weakref.ref(v) for v in tables.pop().values()]
            alive = [r() for r in refs if r() is not None]
        finally:
            gc.enable()
        assert refs and alive == []

    def test_cached_globals_keep_no_run_value(self):
        # identity and coherence are process-wide caches: a memo first read
        # inside a run must not keep that run's object alive after it.
        tables = []

        def check(cat, f):
            if not tables:
                tables.append(cl._shared.get())
            cat.restrict(cat.identity(cat.dom(f)))
            cat.restrict(cat.restrict(cl.coherence("interchange", (3, 1, 2, 3))))
            return True

        probe(inst.make_pinj_instance(2), "single", check)
        refs = [weakref.ref(v) for v in tables.pop().values()]
        gc.collect()
        assert refs and all(r() is None for r in refs)
        assert cl.identity(TWO).restricted is cl.identity(TWO)

    def test_identity_table_keeps_no_run_value(self):
        # aux_id is a process-wide cache like identity: its memos, first read
        # inside a run, must not keep that run's objects alive after it.
        tables = []

        def check(cat, f):
            if not tables:
                tables.append(cl._shared.get())
            ident = cat.identity(cat.dom(f))
            return (ident.collapsed.same_table(gb.visible_fn(ident))
                    and gb.normal_form(ident) is not None and cat.restrict(ident) is ident)

        gb.aux_id.cache_clear()  # so that the run is the first to read each memo
        probe(inst.make_aux_pinj_instance(2, 2), "single", check)
        refs = [weakref.ref(v) for v in tables.pop().values()]
        gc.collect()
        assert refs and all(r() is None for r in refs)

    def test_outside_a_run_nothing_is_shared(self):
        probe(inst.make_pinj_instance(2), "single", lambda cat, f: True)
        f = PartialInj(TWO, TWO, ((0, 1),))
        g = PartialInj(TWO, TWO, ((1, 0),))
        assert cl.compose(g, f) == cl.compose(g, f)
        assert cl.compose(g, f) is not cl.compose(g, f)
        assert cl.dagger(f) is not cl.dagger(f)
        assert gb.aux_compose(gb.embed(g), gb.embed(f)) is not gb.aux_compose(
            gb.embed(g), gb.embed(f))
