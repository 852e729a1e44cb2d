"""Sharing of equal finite morphisms within one law run (classical.sharing)."""

import gc
import weakref

import pytest

from revcat import classical as cl
from revcat import garbage as gb
from revcat import instances as inst
from revcat import lawcheck as lc
from revcat.classical import FinObj, PartialInj

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

    def test_outside_a_run_nothing_is_shared(self):
        probe(inst.make_pinj_instance(2), "single", lambda cat, f: True)
        f = PartialInj(TWO, TWO, ((0, 1),))
        g = PartialInj(TWO, TWO, ((1, 0),))
        assert cl.compose(g, f) == cl.compose(g, f)
        assert cl.compose(g, f) is not cl.compose(g, f)
        assert cl.dagger(f) is not cl.dagger(f)
        assert gb.aux_compose(gb.embed(g), gb.embed(f)) is not gb.aux_compose(
            gb.embed(g), gb.embed(f))
