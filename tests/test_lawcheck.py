"""The law-checking engine itself: modes, counterexamples, configuration."""

import dataclasses
import itertools

import numpy as np
import pytest

from revcat import classical as cl
from revcat import garbage as gb
from revcat import instances as inst
from revcat import lawcheck as lc
from revcat import quantum as qu
from revcat.classical import FinObj, PartialInj


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

    @pytest.mark.parametrize("make", [lambda: inst.make_pfn_instance(2),
                                      lambda: inst.make_aux_pinj_instance(2, 2)])
    def test_tensor_unit_needs_the_unit(self, make):
        cat = dataclasses.replace(make(), unit=None)
        with pytest.raises(lc.ConfigurationError, match="no unit oracle"):
            lc.run_law(cat, lc.ALL_LAWS["tensor_unit"], trials=0)
        assert lc.ALL_LAWS["tensor_unit"] not in lc.applicable_laws(cat)

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

    def test_linalg_error_propagates(self):
        # A numerical failure is no verdict on the law.
        def fails(cat, f):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        law = lc.Law("fails", "single", fails)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            lc.run_law(inst.make_pfn_instance(2), law)

    def test_plain_value_error_fails_the_law(self):
        def fails(cat, f):
            raise ValueError("no verdict")

        rep = lc.run_law(inst.make_pfn_instance(2), lc.Law("fails", "single", fails))
        assert not rep.passed and rep.detail == "ValueError: no verdict"

    def test_json_keys(self):
        passed = lc.run_law(inst.make_pinj_instance(2), lc.ALL_LAWS["restriction_i"])
        failed = lc.run_law(self.broken_instance(), lc.ALL_LAWS["restriction_i"])
        for rep in (passed, failed):
            assert set(rep.to_json()) == {
                "law", "trials", "mode", "passed", "counterexample", "detail"}
        assert passed.to_json()["counterexample"] is None

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


class TestVerdicts:
    """What run_law reports per tuple: the first failing tuple, with a
    ValueError of the law a failure, and one of the sampler or the enumerator
    no verdict at all."""

    @staticmethod
    def fails_at_zero(f):
        """False when f maps 0 to 0, a ValueError when it maps 0 elsewhere."""
        if f(0) is None:
            return True
        if f(0):
            raise ValueError(f"0 goes to {f(0)}")
        return False

    def test_a_sampler_value_error_propagates(self):
        base = inst.make_pfn_instance(6)
        draws = []

        def sample_mor(rng, dom):
            draws.append(1)
            if len(draws) == 7:
                raise ValueError("sampler broke")
            return base.sample_mor(rng, dom)

        cat = dataclasses.replace(base, sample_mor=sample_mor)
        with pytest.raises(ValueError, match="^sampler broke$"):
            lc.run_law(cat, lc.ALL_LAWS["restriction_ii"], trials=20, seed=0)
        assert len(draws) == 7

    def test_an_enumerator_value_error_propagates(self):
        base = inst.make_pfn_instance(2)

        def enumerate_mors(a, b):
            if (a.size, b.size) == (2, 1):
                raise ValueError("enumerator broke")
            return base.enumerate_mors(a, b)

        cat = dataclasses.replace(base, enumerate_mors=enumerate_mors)
        with pytest.raises(ValueError, match="^enumerator broke$"):
            lc.run_law(cat, lc.ALL_LAWS["restriction_i"])

    def test_a_hom_set_that_raises_when_iterated_propagates(self):
        # The tuples of the hom-set 2 -> 2, the last shape, are built only
        # after every earlier tuple has been checked.
        class Broken(list):
            def __iter__(self):
                raise ValueError("hom-set broke")

        base = inst.make_pfn_instance(2)
        seen = []

        def enumerate_mors(a, b):
            mors = base.enumerate_mors(a, b)
            return Broken(mors) if (a.size, b.size) == (2, 2) else mors

        cat = dataclasses.replace(base, enumerate_mors=enumerate_mors)
        law = lc.Law("probe", "single", lambda cat, f: seen.append(f) or True)
        with pytest.raises(ValueError, match="^hom-set broke$"):
            lc.run_law(cat, law)
        assert len(seen) == 23 - 9  # every tuple before the 9 of 2 -> 2

    @pytest.mark.parametrize("trials", [0, 200], ids=["exhaustive", "random"])
    def test_the_first_failing_tuple_is_reported(self, trials):
        cat = inst.make_pfn_instance(2 if trials == 0 else 6)
        if trials:
            rng = np.random.default_rng(3)
            stream = [lc._sample_tuple(cat, "chain", rng) for _ in range(trials)]
        else:
            stream = list(lc._enumerate_tuples(cat, "chain")[1])
        checked = []

        def check(cat, f, g):
            checked.append((f, g))
            return self.fails_at_zero(f) and self.fails_at_zero(g)

        rep = lc.run_law(cat, lc.Law("probe", "chain", check), trials=trials, seed=3)
        first = next(i for i, (f, g) in enumerate(stream)
                     if f(0) is not None or g(0) is not None)
        assert rep.mode == ("random" if trials else "exhaustive") and not rep.passed
        assert len(checked) == first + 1 and rep.counterexample == stream[first]
        f, g = stream[first]
        culprit = f if f(0) is not None else g
        assert rep.detail == ("" if culprit(0) == 0 else f"ValueError: 0 goes to {culprit(0)}")

    def test_a_raising_tuple_before_a_false_one_is_the_one_reported(self):
        def check(cat, f):
            if f(0) == 0:
                raise ValueError("0 stays")
            return f(0) is None

        cat = inst.make_pfn_instance(2)
        stream = [t for t in lc._enumerate_tuples(cat, "single")[1] if t[0](0) is not None]
        assert stream[0][0](0) == 0 and stream[2][0](0) == 1  # 1 -> 1, then two of 1 -> 2
        rep = lc.run_law(cat, lc.Law("probe", "single", check))
        assert rep.counterexample == stream[0] and rep.detail == "ValueError: 0 stays"


# The laws whose check returns None on a tuple outside their premise.
GUARDED_LAWS = ["ridm_total_post", "ridm_of_invertible", "wellpointed", "quotient_congruence"]


class TestPremise:
    """A tuple outside a law's premise (check returns None) is not checked,
    and a run that checked no tuple has not passed."""

    @pytest.mark.parametrize("trials", [0, 200], ids=["exhaustive", "random"])
    def test_a_run_that_met_no_premise_has_not_passed(self, trials):
        cat = inst.make_pfn_instance(2 if trials == 0 else 6)
        rep = lc.run_law(cat, lc.Law("probe", "chain", lambda cat, f, g: None),
                         trials=trials, seed=0)
        assert rep == lc.LawReport("probe", 233 if trials == 0 else 200, False,
                                   detail="no tuple met the premise",
                                   mode="exhaustive" if trials == 0 else "random")

    @pytest.mark.parametrize("trials", [0, 200], ids=["exhaustive", "random"])
    def test_a_value_error_in_a_guard_fails_with_its_tuple(self, trials):
        def check(cat, f):
            if f.dom.size == 1 and f.cod.size == 2:
                raise ValueError("guard broke")
            return None

        cat = inst.make_pfn_instance(2 if trials == 0 else 6)
        rep = lc.run_law(cat, lc.Law("probe", "single", check), trials=trials, seed=0)
        assert not rep.passed and rep.detail == "ValueError: guard broke"
        (f,) = rep.counterexample
        assert (f.dom.size, f.cod.size) == (1, 2)

    def test_ridm_of_invertible_finds_inverses_without_a_dagger(self):
        # restrict sends each nonempty bijection to the empty map: only the
        # search for an inverse in the hom-set reaches the equation on pfn.
        def restrict(f):
            bijection = f.graph and f.is_total() and f.is_injective() and f.dom == f.cod
            return cl.empty_map(f.dom, f.dom) if bijection else cl.ridm(f)

        cat = dataclasses.replace(inst.make_pfn_instance(2), restrict=restrict)
        rep = lc.run_law(cat, lc.ALL_LAWS["ridm_of_invertible"])
        assert not rep.passed and rep.mode == "exhaustive" and rep.detail == ""
        assert rep.to_json()["counterexample"] == [
            {"dom": {"shape": [1]}, "cod": {"shape": [1]}, "graph": [[0, 0]]}]

    @pytest.mark.parametrize("key, law", [
        (key, law) for key, make in inst.INSTANCES.items() for law in GUARDED_LAWS
        if lc.ALL_LAWS[law] in lc.applicable_laws(make())])
    def test_guarded_laws_meet_their_premise_at_the_cli_defaults(self, key, law):
        rep = lc.run_law(inst.INSTANCES[key](), lc.ALL_LAWS[law], trials=200, seed=0)
        assert rep.passed, rep.to_json()


def fresh_copy(m):
    """A new object equal to the library's morphism m, built by the plain
    constructors (an AuxMorphism's core included)."""
    if isinstance(m, gb.AuxMorphism):
        return gb.AuxMorphism(fresh_copy(m.core), m.cod_size, m.garbage_size)
    return type(m)(m.dom, m.cod, m.graph)


def fresh_oracles(cat):
    """cat whose compose, tensor and dagger return a new object on every
    call, a fresh copy of the library's result."""
    def fresh(op):
        def call(*args):
            return fresh_copy(op(*args))
        return None if op is None else call

    return dataclasses.replace(cat, compose=fresh(cat.compose),
                               tensor_mor=fresh(cat.tensor_mor), dagger=fresh(cat.dagger))


def verdict(law, cat, t):
    """None when the tuple t satisfies the law or is outside its premise (not
    checked), else run_law's detail for it: "" for a false equation,
    "<ExceptionType>: <message>" for a ValueError."""
    try:
        ok = law.check(cat, *t)
        return None if ok is None or ok else ""
    except ValueError as e:
        return f"{type(e).__name__}: {e}"


def unmemoised_report(cat, law):
    """The exhaustive loop of run_law with the oracles called as given."""
    count, tuples = lc._enumerate_tuples(cat, law.pattern)
    with cl.sharing():
        for t in tuples:
            detail = verdict(law, cat, t)
            if detail is not None:
                return lc.LawReport(law.name, count, False, t, detail, "exhaustive")
    return lc.LawReport(law.name, count, True, mode="exhaustive")


def empty_mor(dom, cod):
    return {"dom": {"shape": [dom]}, "cod": {"shape": [cod]}, "graph": []}


# The failing reports of two broken instances, as computed before the
# exhaustive memo existed: per law, its tuple count and the (dom, cod) sizes
# of its counterexample's empty maps.  Every detail is the same composition
# error, and every other applicable law passes.
BROKEN_REPORTS = {
    "pinj dagger = identity": (
        lambda: dataclasses.replace(inst.make_pinj_instance(2), dagger=lambda f: f),
        {"ridm_of_invertible": (20, [(0, 1)]),
         "dagger_contravariant": (166, [(0, 0), (0, 1)]),
         "inverse_regular": (20, [(0, 1)]),
         "inverse_idempotents_commute": (166, [(0, 0), (0, 1)])}),
    "pfn swapped compose": (
        lambda: dataclasses.replace(inst.make_pfn_instance(2),
                                    compose=lambda g, f: cl.compose(f, g)),
        {"restriction_i": (23, [(0, 1)]),
         "restriction_iii": (241, [(0, 0), (0, 1)]),
         "restriction_iv": (233, [(0, 0), (0, 1)]),
         "ridm_of_composite": (233, [(0, 0), (0, 1)]),
         "ridm_total_post": (233, [(0, 0), (0, 1)]),
         "tensor_bifunctor": (529, [(0, 0), (0, 1)]),
         "tensor_interchange": (2457, [(0, 0), (0, 1), (1, 0)])}),
}


# The laws perfbench runs on ext-aux-pinj(2,2) and on aux-pinj(2,2), whose
# chain laws set the tail of its laws workload.
EXT_AUX_LAWS = lc.RESTRICTION_LAWS + lc.DERIVED_LAWS
AUX_LAWS = EXT_AUX_LAWS + [lc.ALL_LAWS["tensor_restriction"], lc.ALL_LAWS["tensor_unit"]]


class TestMemo:
    @pytest.mark.parametrize("make, laws", [
        (lambda: inst.make_pfn_instance(2), None),
        (lambda: inst.make_pinj_instance(2), None),
        (lambda: dataclasses.replace(inst.make_pinj_instance(2), dagger=lambda f: f), None),
        (lambda: inst.make_aux_pinj_instance(2, 2), AUX_LAWS),
        (lambda: inst.make_aux_pinj_instance(2, 2, extensional=True), EXT_AUX_LAWS),
    ], ids=["pfn2", "pinj2", "pinj2-dagger-identity", "aux-pinj22", "ext-aux-pinj22"])
    def test_fresh_results_give_the_unmemoised_reports(self, make, laws):
        cat = fresh_oracles(make())
        for law in lc.applicable_laws(cat) if laws is None else laws:
            want = unmemoised_report(cat, law).to_json()
            assert lc.run_law(cat, law).to_json() == want, law.name

    def test_exhaustive_mode_calls_once_per_operands(self):
        base = fresh_oracles(inst.make_pinj_instance(2))
        calls = []
        cat = dataclasses.replace(base, compose=lambda g, f: calls.append(1) or base.compose(g, f))
        law = lc.Law("probe", "chain",
                     lambda cat, f, g: cat.compose(g, f) is cat.compose(g, f))
        rep = lc.run_law(cat, law)
        assert rep.mode == "exhaustive" and rep.passed and len(calls) == rep.trials

    def test_entries_keep_their_operands_alive(self):
        # Each temporary operand is freed after its call unless the memo
        # holds it, and the next temporary would then likely take its id.
        def check(cat, f):
            return all(cat.compose(f, PartialInj(h.dom, h.cod, h.graph)).graph
                       == cl.compose(f, h).graph
                       for h in (cat.restrict(f), cl.empty_map(f.dom, f.dom)) * 3)

        rep = lc.run_law(inst.make_pinj_instance(2), lc.Law("probe", "single", check))
        assert rep.mode == "exhaustive" and rep.passed

    def test_exhaustive_mode_calls_dagger_once_per_operand(self):
        base = fresh_oracles(inst.make_pinj_instance(2))
        calls = []
        cat = dataclasses.replace(base, dagger=lambda f: calls.append(1) or base.dagger(f))
        law = lc.Law("probe", "single", lambda cat, f: cat.dagger(f) is cat.dagger(f))
        rep = lc.run_law(cat, law)
        assert rep.mode == "exhaustive" and rep.passed and len(calls) == rep.trials

    def test_dagger_entries_keep_their_operands_alive(self):
        # As for compose: a freed temporary's id would likely go to the next.
        def check(cat, f):
            return all(cat.dagger(PartialInj(h.dom, h.cod, h.graph)).graph
                       == cl.dagger(h).graph
                       for h in (f, cl.empty_map(f.dom, f.cod)) * 3)

        rep = lc.run_law(inst.make_pinj_instance(2), lc.Law("probe", "single", check))
        assert rep.mode == "exhaustive" and rep.passed

    def test_random_mode_calls_once_per_use(self):
        base = inst.make_unitary_instance(2)
        calls = []
        cat = dataclasses.replace(base, compose=lambda g, f: calls.append(1) or base.compose(g, f))
        law = lc.Law("probe", "chain", lambda cat, f, g: cat.eq(cat.compose(g, f),
                                                                cat.compose(g, f)))
        rep = lc.run_law(cat, law, trials=10, seed=0)
        assert rep.mode == "random" and rep.passed and len(calls) == 2 * rep.trials

    @pytest.mark.parametrize("broken", sorted(BROKEN_REPORTS))
    def test_first_counterexample_is_unchanged(self, broken):
        make, failures = BROKEN_REPORTS[broken]
        cat = make()
        got = {}
        for law in lc.applicable_laws(cat):
            rep = lc.run_law(cat, law).to_json()
            if not rep["passed"]:
                got[law.name] = rep
        assert got == {
            law: {"law": law, "trials": trials, "mode": "exhaustive", "passed": False,
                  "counterexample": [empty_mor(a, b) for a, b in ends],
                  "detail": "CompositionError: cannot compose: cod size 1 != dom size 0"}
            for law, (trials, ends) in failures.items()
        }


class TestTwoLevelMemo:
    def test_rows_keep_their_first_operands_alive(self):
        # TestMemo's entries test, with each temporary the first operand: a
        # row that let its operand go would serve the next temporary at its id.
        def check(cat, f):
            return all(cat.compose(PartialInj(h.dom, h.cod, h.graph), f).graph
                       == cl.compose(h, f).graph
                       for h in (cl.identity(f.cod), cl.empty_map(f.cod, f.cod)) * 3)

        rep = lc.run_law(inst.make_pinj_instance(2), lc.Law("probe", "single", check))
        assert rep.mode == "exhaustive" and rep.passed

    def test_a_raising_call_stores_no_row(self):
        calls = []
        base = inst.make_pinj_instance(2)

        def compose(g, f):
            calls.append((g, f))
            return base.compose(g, f)

        def check(cat, f):
            for _ in range(2):
                with pytest.raises(cl.CompositionError):
                    cat.compose(f, cl.empty_map(FinObj.of_size(3), FinObj.of_size(3)))
            return True

        cat = dataclasses.replace(base, compose=compose)
        rep = lc.run_law(cat, lc.Law("probe", "single", check))
        assert rep.passed and len(calls) == 2 * rep.trials


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

    @pytest.mark.parametrize("name", ["pfn", "pinj"])
    def test_unit_is_an_enumerated_object(self, name):
        cat = inst.INSTANCES[name]()
        assert cat.unit in cat.enumerate_objs()

    def test_applicable_laws_follow_oracles(self):
        # pinj has every oracle but the global points.
        assert lc.applicable_laws(inst.make_pinj_instance(2)) == [
            law for law in lc.ALL_LAWS.values() if "points" not in law.needs]
        pfn_laws = lc.applicable_laws(inst.make_pfn_instance(2))
        assert pfn_laws and all("dagger" not in law.needs for law in pfn_laws)
