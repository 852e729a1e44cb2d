"""The law-checking engine itself: modes, counterexamples, configuration."""

import dataclasses
import itertools

import numpy as np
import pytest

from revcat import classical as cl
from revcat import instances as inst
from revcat import lawcheck as lc
from revcat import quantum as qu


class TestModes:
    def test_exhaustive_when_enumerable(self):
        cat = inst.make_pfn_instance(2)
        rep = lc.run_law(cat, lc.ALL_LAWS["restriction_i"])
        assert rep.mode == "exhaustive" and rep.passed
        # hom(a, b) has (b+1)^a tables; objects have sizes 0, 1, 2.
        expected = sum((b + 1) ** a for a in range(3) for b in range(3))
        assert rep.trials == expected

    def test_random_when_not_enumerable(self):
        cat = inst.make_pfn_instance(6)
        rep = lc.run_law(cat, lc.ALL_LAWS["restriction_i"], trials=50, seed=1)
        assert rep.mode == "random" and rep.passed and rep.trials == 50

    def test_random_when_over_cap(self, monkeypatch):
        monkeypatch.setattr(lc, "EXHAUSTIVE_CAP", 10)
        cat = inst.make_pfn_instance(2)
        rep = lc.run_law(cat, lc.ALL_LAWS["restriction_i"], trials=20)
        assert rep.mode == "random"

    @pytest.mark.parametrize("trials", [0, -5])
    def test_random_mode_needs_trials(self, trials):
        cat = inst.make_cptp_instance()
        with pytest.raises(lc.ConfigurationError, match="trials must be positive"):
            lc.run_law(cat, lc.ALL_LAWS["restriction_i"], trials=trials)

    def test_random_mode_rejects_a_negative_seed(self):
        cat = inst.make_pfn_instance(6)
        with pytest.raises(lc.ConfigurationError, match="seed must be nonnegative.*got -1"):
            lc.run_law(cat, lc.ALL_LAWS["restriction_i"], trials=5, seed=-1)

    def test_exhaustive_ignores_trials(self):
        cat = inst.make_pfn_instance(2)
        rep = lc.run_law(cat, lc.ALL_LAWS["restriction_i"], trials=0)
        assert rep.mode == "exhaustive" and rep.passed and rep.trials > 0

    def test_seed_determinism(self):
        cat = inst.make_pfn_instance(6)
        r1 = lc.run_law(cat, lc.ALL_LAWS["restriction_iv"], trials=30, seed=9)
        r2 = lc.run_law(cat, lc.ALL_LAWS["restriction_iv"], trials=30, seed=9)
        assert r1.passed == r2.passed and r1.trials == r2.trials


class TestMatrixInstances:
    @pytest.mark.parametrize("make, wrap", [(inst.make_unitary_instance, qu.Unitary),
                                            (inst.make_isometry_instance, qu.Isometry)])
    def test_eq_is_absolute_1e9(self, make, wrap):
        # 5e-6 apart: inside numpy's default relative tolerance, outside 1e-9.
        cat = make()
        ident = wrap(np.eye(2, dtype=complex))
        assert cat.eq(ident, wrap(np.eye(2, dtype=complex)))
        assert not cat.eq(ident, wrap(np.diag([1, np.exp(5e-6j)])))
        assert cat.eq(ident, wrap(np.diag([1, np.exp(5e-10j)])))
        assert not cat.eq(ident, wrap(np.eye(3, dtype=complex)))

    def test_eq_on_empty_matrices(self):
        cat = inst.make_isometry_instance()
        empty = lambda: qu.Isometry(np.zeros((2, 0), dtype=complex))
        assert cat.eq(empty(), empty())
        assert not cat.eq(empty(), qu.Isometry(np.zeros((3, 0), dtype=complex)))


class TestConfiguration:
    def test_missing_oracle_raises(self):
        cat = inst.make_pfn_instance(2)  # no dagger on plain partial functions
        with pytest.raises(lc.ConfigurationError):
            lc.run_law(cat, lc.ALL_LAWS["dagger_involution"])

    def test_unknown_pattern_rejected(self):
        cat = inst.make_pfn_instance(2)
        bad = lc.Law("bad", "nonsense", lambda cat, *a: True)
        with pytest.raises(ValueError):
            lc.run_law(cat, bad)


class TestCounterexamples:
    def broken_instance(self):
        # Corrupt the restriction oracle: always nowhere-defined, which
        # violates axiom (i) on any morphism with nonempty graph.
        cat = inst.make_pfn_instance(2)
        return dataclasses.replace(
            cat, name="broken", restrict=lambda f: cl.empty_map(f.dom, f.dom)
        )

    def test_violation_found_and_replays(self):
        cat = self.broken_instance()
        rep = lc.run_law(cat, lc.ALL_LAWS["restriction_i"])
        assert not rep.passed and rep.counterexample is not None
        # Replaying the counterexample through the predicate fails again.
        assert not lc.ALL_LAWS["restriction_i"].check(cat, *rep.counterexample)

    def test_violation_in_json_report(self):
        cat = self.broken_instance()
        rep = lc.run_law(cat, lc.ALL_LAWS["restriction_i"])
        data = rep.to_json()
        assert data["passed"] is False
        assert isinstance(data["counterexample"], list)

    @pytest.mark.parametrize("law", ["dagger_contravariant", "inverse_regular"])
    def test_raising_oracle_is_a_failure(self, law):
        # dagger = identity yields composites whose ends do not meet; the
        # CompositionError fails the law at the tuple that raised it.
        cat = dataclasses.replace(inst.make_pinj_instance(2), dagger=lambda f: f)
        rep = lc.run_law(cat, lc.ALL_LAWS[law])
        assert not rep.passed and rep.mode == "exhaustive"
        assert rep.detail.startswith("CompositionError: cannot compose: ")
        with pytest.raises(cl.CompositionError):
            lc.ALL_LAWS[law].check(cat, *rep.counterexample)
        assert rep.to_json()["detail"] == rep.detail

    def test_counterexample_renders_itself(self):
        # dagger = identity on unitaries breaks f f^dag f = f; the report
        # writes each counterexample matrix with its own to_json.
        cat = dataclasses.replace(inst.make_unitary_instance(2), dagger=lambda m: m)
        rep = lc.run_law(cat, lc.ALL_LAWS["inverse_regular"], trials=20, seed=0)
        assert not rep.passed and rep.mode == "random"
        (m,) = rep.counterexample
        assert rep.to_json()["counterexample"] == [qu.matrix_to_json(m.mat)]

    def test_configuration_errors_still_raise_before_any_tuple(self):
        cat = dataclasses.replace(inst.make_pinj_instance(2), dagger=lambda f: f)
        with pytest.raises(lc.ConfigurationError):
            lc.run_law(cat, lc.ALL_LAWS["wellpointed"])
        with pytest.raises(ValueError, match="unknown pattern"):
            lc.run_law(cat, lc.Law("bad", "nonsense", lambda cat, *a: True))

    def test_group_runner_stops_at_failure(self):
        cat = self.broken_instance()
        failed = [r for r in (lc.run_law(cat, law) for law in lc.RESTRICTION_LAWS)
                  if not r.passed]
        assert failed and failed[0].law == "restriction_i"


def assert_laws_pass(cat, laws, **kwargs):
    for law in laws:
        rep = lc.run_law(cat, law, **kwargs)
        assert rep.passed, rep.to_json()


class TestShippedInstancesPass:
    @pytest.mark.parametrize("name", ["pfn", "pinj", "aux-pinj", "ext-aux-pinj"])
    def test_restriction_exhaustive(self, name):
        assert_laws_pass(inst.INSTANCES[name](), lc.RESTRICTION_LAWS)

    @pytest.mark.parametrize("name", ["pfn", "pinj"])
    def test_derived_lemma(self, name):
        assert_laws_pass(inst.INSTANCES[name](), lc.DERIVED_LAWS)

    @pytest.mark.parametrize("name", ["pinj", "unitary"])
    def test_inverse_axioms(self, name):
        assert_laws_pass(inst.INSTANCES[name](), lc.INVERSE_LAWS, trials=100, seed=2)

    @pytest.mark.parametrize("name", ["pfn", "pinj"])
    def test_monoidal_exhaustive_small(self, name):
        assert_laws_pass(inst.INSTANCES[name](), lc.MONOIDAL_LAWS, trials=100, seed=3)

    @pytest.mark.parametrize("name", ["unitary", "isometry", "cptp"])
    def test_quantum_sampled(self, name):
        cat = inst.INSTANCES[name]()
        assert_laws_pass(cat, lc.RESTRICTION_LAWS, trials=40, seed=4)
        assert_laws_pass(cat, lc.MONOIDAL_LAWS, trials=20, seed=5)

    def test_large_instances_sampled(self):
        for name in ("pfn-large", "pinj-large"):
            assert_laws_pass(inst.INSTANCES[name](), lc.RESTRICTION_LAWS, trials=200, seed=6)


# The tuples each pattern admits, stated without the pattern table.
PATTERN_FILTERS = {
    "single": lambda cat, f: True,
    "same_dom": lambda cat, f, g: cat.dom(f) == cat.dom(g),
    "chain": lambda cat, f, g: cat.cod(f) == cat.dom(g),
    "chain3": lambda cat, f, g, h: cat.cod(f) == cat.dom(g) and cat.cod(g) == cat.dom(h),
    "pair": lambda cat, f, g: True,
    "fork_chain": lambda cat, f, g, h: cat.dom(f) == cat.dom(g) and cat.cod(f) == cat.dom(h),
}


class TestEnumeration:
    @pytest.mark.parametrize("pattern", sorted(PATTERN_FILTERS))
    @pytest.mark.parametrize("make", [lambda: inst.make_pfn_instance(2),
                                      lambda: inst.make_pinj_instance(3),
                                      lambda: inst.make_aux_pinj_instance(2, 2)],
                             ids=["pfn2", "pinj3", "aux-pinj22"])
    def test_matches_brute_force_filter(self, make, pattern):
        base = make()
        homs = {}  # one morphism object per hom-set entry, so tuples compare by id

        def enumerate_mors(a, b):
            return homs.setdefault((a, b), base.enumerate_mors(a, b))

        cat = dataclasses.replace(base, enumerate_mors=enumerate_mors)
        count, stream = lc._enumerate_tuples(cat, pattern)
        got = [tuple(map(id, t)) for t in stream]
        every = [m for ms in homs.values() for m in ms]
        keep = PATTERN_FILTERS[pattern]
        arity = len(lc.PATTERNS[pattern])
        want = {tuple(map(id, t)) for t in itertools.product(every, repeat=arity)
                if keep(cat, *t)}
        assert len(got) == count == len(set(got)) == len(want)
        assert set(got) == want

    def test_every_law_runs_on_some_instance(self):
        # So that `lawcheck --instance all` leaves no registered law unrun.
        cats = [make() for make in inst.INSTANCES.values()]
        unrun = [name for name, law in lc.ALL_LAWS.items()
                 if not any(law in lc.applicable_laws(cat) for cat in cats)]
        assert unrun == []

    def test_over_cap_returns_none(self):
        assert lc._enumerate_tuples(inst.make_pfn_instance(3), "chain3") is None

    def test_applicable_laws_follow_oracles(self):
        # pinj has every oracle but the global points.
        assert lc.applicable_laws(inst.make_pinj_instance(2)) == [
            law for law in lc.ALL_LAWS.values() if "points" not in law.needs]
        pfn_laws = lc.applicable_laws(inst.make_pfn_instance(2))
        assert pfn_laws and all("dagger" not in law.needs for law in pfn_laws)
