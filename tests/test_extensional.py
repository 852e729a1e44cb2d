"""Point-agreement quotient and the equivalence with bare partial functions."""

import dataclasses
import itertools

import numpy as np
import pytest

from revcat import classical as cl
from revcat import extensional as ex
from revcat import garbage as gb
from revcat import instances as inst
from revcat import lawcheck as lc
from revcat import quantum as qu
from revcat.classical import FinObj, PartialFn
from revcat.garbage import ISO, AuxMorphism

from test_garbage import pinj, successor_pair


def all_pfns(a, b):
    return cl.all_partial_fns(FinObj.of_size(a), FinObj.of_size(b))


class TestExtEquiv:
    def test_successor_pair_identified(self):
        # The pair that the garbage-sensitive decider separates collapses here.
        f1, f2 = successor_pair()
        assert gb.aux_equiv(f1, f2) is None
        assert ex.ext_equiv(f1, f2)

    def test_matches_point_agreement_exhaustively(self):
        # ext_equiv(f, g) iff f o p ~ g o p for every global point p, where the
        # comparison of composites is the garbage-sensitive one on points.
        import oracles

        ms = oracles.enumerate_cores(2, 2, 1)
        pts = gb.points_of(2)
        for f in ms:
            for g in ms:
                agree = all(
                    gb.aux_compose(f, p).collapsed(0)
                    == gb.aux_compose(g, p).collapsed(0)
                    for p in pts
                )
                assert ex.ext_equiv(f, g) == agree

    def test_matches_visible_tables_on_every_small_hom_set(self):
        for a, b in itertools.product(range(3), repeat=2):
            ms = inst.enumerate_aux_pinj(a, b, 2)
            for f in ms:
                for g in ms:
                    same = gb.visible_fn(f).same_table(gb.visible_fn(g))
                    assert ex.ext_equiv(f, g) == same, (f, g)

    def test_iso_base_is_choi_equality(self):
        rng = np.random.default_rng(2)
        v = qu.haar_isometry(4, 2, rng)
        m = AuxMorphism(v, 2, 2)
        assert ex.ext_equiv(m, m)
        assert not ex.ext_equiv(m, gb.aux_id(2, ISO))


class TestPfnEquivalence:
    def test_functor_on_successor(self):
        f = PartialFn(FinObj.of_size(3), FinObj.of_size(4),
                      tuple((x, x + 1) for x in range(3)))
        m = ex.pfn_functor(f)
        assert gb.visible_fn(m).same_table(f)

    def test_roundtrip_exhaustive(self):
        # normalize o functor = id on tables, sizes up to 5 x 3.
        for a in range(6):
            for b in range(4):
                for f in all_pfns(a, b):
                    assert gb.visible_fn(ex.pfn_functor(f)).same_table(f)

    def test_functor_preserves_composition(self):
        for f in all_pfns(2, 2):
            for g in all_pfns(2, 2):
                lhs = gb.aux_compose(ex.pfn_functor(g), ex.pfn_functor(f))
                rhs = ex.pfn_functor(cl.compose(g, f))
                assert ex.ext_equiv(lhs, rhs)

    def test_functor_preserves_identity(self):
        for n in range(4):
            m = ex.pfn_functor(cl.identity(FinObj.of_size(n)))
            assert ex.ext_equiv(m, gb.aux_id(n))

    def test_other_roundtrip_exhaustive(self):
        # functor o normalize = id up to the quotient, over all classes of
        # small garbage-carrying morphisms.
        import oracles

        for m in oracles.enumerate_cores(2, 2, 2):
            back = ex.pfn_functor(gb.visible_fn(m))
            assert ex.ext_equiv(back, m)

    def test_functor_injective_on_tables(self):
        fs = list(all_pfns(2, 3))
        for f, g in itertools.combinations(fs, 2):
            assert not ex.ext_equiv(ex.pfn_functor(f), ex.pfn_functor(g))


class TestCongruence:
    def test_law_passes(self):
        cat = inst.INSTANCES["ext-aux-pinj"]()
        rep = lc.run_law(cat, lc.ALL_LAWS["quotient_congruence"])
        assert rep.passed, rep.to_json()
        assert rep.mode == "exhaustive" and rep.trials == 74_582

    def test_padded_dilation_congruence(self):
        # A minimal and a padded dilation of one channel stay identified after
        # a tensor with the identity and a composite with an isometry.
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            v1, r = qu.minimal_stinespring(qu.random_channel(d, d, 2, rng))
            padm = np.zeros((d, r + 1, d), dtype=complex)
            padm[:, :r, :] = v1.mat.reshape(d, r, d)
            f1 = AuxMorphism(v1, d, r)
            f2 = AuxMorphism(qu.Isometry(padm.reshape(d * (r + 1), d)), d, r + 1)
            assert ex.ext_equiv(f1, f2)
            ident = gb.aux_id(d, ISO)
            t1, t2 = gb.aux_tensor(f1, ident), gb.aux_tensor(f2, ident)
            assert ex.ext_equiv(t1, t2)
            waux = AuxMorphism(qu.haar_isometry(d * d * 2, d * d, rng), d * d, 2)
            assert ex.ext_equiv(gb.aux_compose(waux, t1), gb.aux_compose(waux, t2))

    def test_representative_dependent_restriction_fails(self):
        # A restriction that looks at the garbage size, not the class, breaks
        # the congruence: a partial map with garbage 1 and its garbage-2 twin
        # get different restrictions.
        def restrict(f):
            return gb.aux_ridm(f) if f.garbage_size == 1 else gb.aux_id(f.dom_size)

        cat = dataclasses.replace(inst.INSTANCES["ext-aux-pinj"](), restrict=restrict)
        law = lc.ALL_LAWS["quotient_congruence"]
        rep = lc.run_law(cat, law)
        assert not rep.passed and not law.check(cat, *rep.counterexample)

    def test_compose_respects_quotient_exhaustive(self):
        import oracles

        ms = oracles.enumerate_cores(2, 2, 1)
        g = AuxMorphism(pinj(2, 4, [(0, 2), (1, 1)]), 2, 2)
        for m1 in ms:
            for m2 in ms:
                if not ex.ext_equiv(m1, m2):
                    continue
                assert ex.ext_equiv(gb.aux_compose(g, m1), gb.aux_compose(g, m2))
                assert ex.ext_equiv(gb.aux_tensor(m1, g), gb.aux_tensor(m2, g))
                assert ex.ext_equiv(gb.aux_ridm(m1), gb.aux_ridm(m2))


class TestTomography:
    def test_family_spans(self):
        # The family contains d*d states whose span is all of the operator
        # space: any matrix is a combination of them.
        for d in (2, 3):
            fam = ex.tomographic_family(d)
            assert len(fam) == d * d
            stacked = np.stack([s.reshape(-1) for s in fam])
            assert np.linalg.matrix_rank(stacked) == d * d

    def test_family_members_are_states(self):
        for s in ex.tomographic_family(3):
            assert abs(np.trace(s) - 1) < 1e-12
            assert np.min(np.linalg.eigvalsh((s + s.conj().T) / 2)) > -1e-12

    def test_agreement_detects_difference(self):
        cat = inst.make_cptp_instance()
        c1 = qu.identity_channel(2)
        c2 = qu.dephasing_channel(2)
        assert not all(cat.eq(cat.compose(c1, p), cat.compose(c2, p)) for p in cat.points(2))

    def test_wellpointed_report(self):
        for d in (2, 3):
            cat = inst.make_cptp_instance(d)
            rep = lc.run_law(cat, lc.ALL_LAWS["wellpointed"], trials=30, seed=4)
            assert rep.passed, rep.to_json()


class TestWellPointed:
    def test_quotient_is_wellpointed(self):
        cat = inst.INSTANCES["ext-aux-pinj"]()
        rep = lc.run_law(cat, lc.ALL_LAWS["wellpointed"])
        assert rep.passed and rep.mode == "exhaustive" and rep.trials == 2_254

    def test_completion_is_not_wellpointed(self):
        # Before the quotient, two morphisms can agree on every point and
        # still differ: the same visible function, different garbage.
        cat = dataclasses.replace(inst.INSTANCES["aux-pinj"](), points=gb.points_of)
        rep = lc.run_law(cat, lc.ALL_LAWS["wellpointed"])
        assert not rep.passed
        f, g = rep.counterexample
        assert gb.visible_fn(f).same_table(gb.visible_fn(g))
        assert not gb.aux_equal(f, g)


@pytest.mark.parametrize("trials", [0, -5])
@pytest.mark.parametrize("law, make", [
    ("wellpointed", lambda: inst.make_cptp_instance(2)),
    # Objects up to 3 put the congruence tuples over the exhaustive cap.
    ("quotient_congruence", lambda: inst.make_aux_pinj_instance(3, 2, extensional=True)),
], ids=["wellpointed", "congruence"])
def test_sampled_checks_need_trials(law, make, trials):
    with pytest.raises(lc.ConfigurationError, match="trials must be positive"):
        lc.run_law(make(), lc.ALL_LAWS[law], trials=trials)
