"""The law-checking engine itself: modes, counterexamples, configuration."""

import dataclasses

import pytest

from revcat import classical as cl
from revcat import instances as inst
from revcat import lawcheck as lc


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

    def test_forced_exhaustive_without_enumerator_raises(self):
        cat = inst.make_unitary_instance()
        with pytest.raises(lc.ConfigurationError):
            lc.run_law(cat, lc.ALL_LAWS["restriction_i"], exhaustive=True)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_random_mode_needs_trials(self, trials):
        cat = inst.make_cptp_instance()
        with pytest.raises(lc.ConfigurationError, match="trials must be positive"):
            lc.run_law(cat, lc.ALL_LAWS["restriction_i"], trials=trials)

    def test_exhaustive_ignores_trials(self):
        cat = inst.make_pfn_instance(2)
        rep = lc.run_law(cat, lc.ALL_LAWS["restriction_i"], trials=0)
        assert rep.mode == "exhaustive" and rep.passed and rep.trials > 0

    def test_seed_determinism(self):
        cat = inst.make_pfn_instance(6)
        r1 = lc.run_law(cat, lc.ALL_LAWS["restriction_iv"], trials=30, seed=9)
        r2 = lc.run_law(cat, lc.ALL_LAWS["restriction_iv"], trials=30, seed=9)
        assert r1.passed == r2.passed and r1.trials == r2.trials


class TestConfiguration:
    def test_missing_oracle_raises(self):
        cat = inst.make_pfn_instance(2)  # no dagger on plain partial functions
        with pytest.raises(lc.ConfigurationError):
            lc.run_law(cat, lc.ALL_LAWS["dagger_involution"])

    def test_unknown_pattern_rejected(self):
        cat = inst.make_pfn_instance(2)
        bad = lc.Law("bad", "nonsense", lambda c: lambda *a: True)
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
        predicate = lc.ALL_LAWS["restriction_i"].check(cat)
        assert not predicate(*rep.counterexample)

    def test_violation_in_json_report(self):
        cat = self.broken_instance()
        rep = lc.run_law(cat, lc.ALL_LAWS["restriction_i"])
        data = rep.to_json(cat.describe)
        assert data["passed"] is False
        assert isinstance(data["counterexample"], list)

    def test_group_runner_stops_at_failure(self):
        cat = self.broken_instance()
        rep = lc.check_restriction_axioms(cat)
        assert not rep.passed and rep.law == "restriction_i"


class TestShippedInstancesPass:
    @pytest.mark.parametrize("name", ["pfn", "pinj", "aux-pinj", "ext-aux-pinj"])
    def test_restriction_exhaustive(self, name):
        cat = inst.INSTANCES[name]()
        rep = lc.check_restriction_axioms(cat)
        assert rep.passed, rep.to_json(cat.describe)

    @pytest.mark.parametrize("name", ["pfn", "pinj"])
    def test_derived_lemma(self, name):
        cat = inst.INSTANCES[name]()
        rep = lc.check_derived_lemma(cat)
        assert rep.passed, rep.to_json(cat.describe)

    @pytest.mark.parametrize("name", ["pinj", "unitary"])
    def test_inverse_axioms(self, name):
        cat = inst.INSTANCES[name]()
        rep = lc.check_inverse_axioms(cat, trials=100, seed=2)
        assert rep.passed, rep.to_json(cat.describe)

    @pytest.mark.parametrize("name", ["pfn", "pinj"])
    def test_monoidal_exhaustive_small(self, name):
        cat = inst.INSTANCES[name]()
        rep = lc.check_monoidal_restriction(cat, trials=100, seed=3)
        assert rep.passed, rep.to_json(cat.describe)

    @pytest.mark.parametrize("name", ["unitary", "isometry", "cptp"])
    def test_quantum_sampled(self, name):
        cat = inst.INSTANCES[name]()
        rep = lc.check_restriction_axioms(cat, trials=40, seed=4)
        assert rep.passed, rep.to_json(cat.describe)
        rep = lc.check_monoidal_restriction(cat, trials=20, seed=5)
        assert rep.passed, rep.to_json(cat.describe)

    def test_large_instances_sampled(self):
        for name in ("pfn-large", "pinj-large"):
            cat = inst.INSTANCES[name]()
            rep = lc.check_restriction_axioms(cat, trials=200, seed=6)
            assert rep.passed, rep.to_json(cat.describe)
