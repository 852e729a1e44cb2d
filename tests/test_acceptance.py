"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import json
import time

import numpy as np

from revcat import classical as cl
from revcat import cli
from revcat import extensional as ex
from revcat import garbage as gb
from revcat import instances as inst
from revcat import lawcheck as lc
from revcat import pipeline as pl
from revcat import quantum as qu
from revcat.classical import FinObj, PartialFn, PartialInj
from revcat.garbage import ISO, AuxMorphism

import oracles


def report(num, label, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d}: {label}")
    assert passed, f"criterion {num}: {label}"


def run_laws(cat, laws, trials, seed, exhaustive=False):
    applicable = lc.applicable_laws(cat)
    for law in laws:
        if law not in applicable:
            continue
        rep = lc.run_law(cat, law, trials=trials, seed=seed)
        if exhaustive:
            assert rep.mode == "exhaustive", (cat.name, law.name, rep.mode)
        if not rep.passed:
            return False
    return True


def test_01_restriction_axioms_and_derived_lemma():
    start = time.monotonic()
    laws = lc.RESTRICTION_LAWS + lc.DERIVED_LAWS
    ok = True
    for injective in (False, True):
        small = inst.make_pfn_instance(2, injective)
        ok = ok and run_laws(small, laws, trials=0, seed=0, exhaustive=True)
        large = inst.make_pfn_instance(6, injective)
        ok = ok and run_laws(large, laws, trials=1000, seed=0)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    report(1, f"restriction axioms + derived lemma ({elapsed:.1f}s)", ok)


def test_02_inverse_equations():
    pinj3 = inst.make_pinj_instance(3)
    ok = run_laws(pinj3, lc.INVERSE_LAWS, trials=0, seed=0, exhaustive=True)
    unitary = inst.make_unitary_instance(3)
    ok = ok and run_laws(unitary, lc.INVERSE_LAWS, trials=500, seed=0)
    report(2, "inverse equations on partial injections and unitaries", ok)


def test_03_aux_laws_and_decider_vs_oracle():
    start = time.monotonic()
    laws = lc.RESTRICTION_LAWS + lc.MONOIDAL_LAWS
    aux2 = inst.make_aux_pinj_instance(2, 2)
    ok = run_laws(aux2, laws, trials=0, seed=0, exhaustive=True)
    aux4 = inst.make_aux_pinj_instance(4, 2)
    ok = ok and run_laws(aux4, laws, trials=300, seed=0)
    # Decider vs brute-force mediator connectivity on every pair.
    for a, b in itertools.product(range(4), repeat=2):
        morphisms, roots = oracles.zigzag_equivalent_pairs(a, b, 3)
        for i, m1 in enumerate(morphisms):
            for j, m2 in enumerate(morphisms):
                if (gb.aux_equiv(m1, m2) is not None) != (roots[i] == roots[j]):
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    report(3, f"garbage-construction laws + decider vs zigzag oracle ({elapsed:.0f}s)", ok)


def test_04_factorization():
    ok = True
    for a, b in itertools.product(range(4), repeat=2):
        for m in oracles.enumerate_cores(a, b, 3):
            embedded, projection = gb.factorize(m)
            if gb.aux_equiv(gb.aux_compose(projection, embedded), m) is None:
                ok = False
    rng = np.random.default_rng(0)
    for _ in range(100):
        cod = int(rng.integers(1, 4))
        e = int(rng.integers(1, 4))
        cols = int(rng.integers(1, cod * e + 1))
        m = AuxMorphism(qu.haar_isometry(cod * e, cols, rng), cod, e)
        embedded, projection = gb.factorize(m)
        back = gb.aux_compose(projection, embedded)
        if not back.collapsed.close_to(m.collapsed, 1e-8):
            ok = False
    report(4, "projection-after-embedding factorization", ok)


def test_05_terminality():
    ok = True
    for a in range(4):
        for m in oracles.enumerate_cores(a, 1, 3):
            if not gb.visible_fn(m).is_total():
                continue
            if gb.aux_equiv(m, gb.bang(a)) is None:
                ok = False
    for a, b in itertools.product(range(1, 4), repeat=2):
        if not gb.visible_fn(gb.proj1(a, b)).is_total():
            ok = False
        if not gb.visible_fn(gb.proj2(a, b)).is_total():
            ok = False
    report(5, "restriction-terminal unit and total projections", ok)


def test_06_extensional_quotient_equals_pfn():
    ok = True
    for a in range(6):
        for b in range(6):
            for f in cl.all_partial_fns(FinObj.of_size(a), FinObj.of_size(b)):
                if not gb.visible_fn(ex.pfn_functor(f)).same_table(f):
                    ok = False
    for a, b in itertools.product(range(4), repeat=2):
        for m in oracles.enumerate_cores(a, b, 2):
            if not ex.ext_equiv(ex.pfn_functor(gb.visible_fn(m)), m):
                ok = False
    f1 = AuxMorphism(PartialInj(FinObj.of_size(3), FinObj((4, 1)),
                                tuple((x, x + 1) for x in range(3))), 4, 1)
    f2 = AuxMorphism(PartialInj(FinObj.of_size(3), FinObj((4, 3)),
                                tuple((x, (x + 1) * 3 + x) for x in range(3))), 4, 3)
    ok = ok and gb.aux_equiv(f1, f2) is None and ex.ext_equiv(f1, f2)
    report(6, "extensional quotient equivalent to partial functions", ok)


def test_07_dilation_roundtrip():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        d = int(rng.integers(1, 4))
        c = qu.random_channel(d, d, int(rng.integers(1, 4)), rng)
        v, r = qu.minimal_stinespring(c)
        if r != qu.choi_rank(c):
            ok = False
        back = qu.channel_of_isometry(v, r)
        if np.max(np.abs(back.choi - c.choi)) > 1e-8:
            ok = False
    report(7, "minimal dilation round trip, environment = Choi rank", ok)


def test_08_ancilla_input_roundtrip():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, rows + 1))
        v = qu.haar_isometry(rows, cols, rng)
        back = pl.inp_to_isometry(pl.isometry_to_inp(v))
        if np.max(np.abs(back.mat - v.mat)) > 1e-9:
            ok = False
        # Mediator invariance: unitaries on the ancilla summand are invisible.
        m = pl.isometry_to_inp(v)
        if m.anc_dim > 0:
            h = qu.haar_unitary(m.anc_dim, rng)
            block = np.eye(rows, dtype=complex)
            block[cols:, cols:] = h.mat
            mediated = pl.InpUnitary(cols, m.anc_dim,
                                     qu.Unitary(m.unitary.mat @ block))
            diff = pl.inp_to_isometry(mediated).mat - pl.inp_to_isometry(m).mat
            if np.max(np.abs(diff)) > 1e-12:
                ok = False
    report(8, "ancilla-input presentation round trip + mediator invariance", ok)


def test_09_reversible_core_extraction():
    ok = True
    for a in range(4):
        for b in range(4):
            aa, bb = FinObj.of_size(a), FinObj.of_size(b)
            for f in cl.all_partial_fns(aa, bb):
                if (pl.inv_pfn(f) is not None) != f.is_injective():
                    ok = False
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        u = qu.haar_unitary(d, rng)
        pc = pl.inv_cptp(qu.channel_of_unitary(u))
        if pc is None or np.max(np.abs(pc.rep.mat - qu.phase_fix(u.mat))) > 1e-8:
            ok = False
    ok = ok and pl.inv_cptp(qu.dephasing_channel(2)) is None
    ok = ok and pl.inv_cptp(qu.depolarizing_channel(2, 0.5)) is None
    v = qu.haar_isometry(4, 2, np.random.default_rng(1))
    ok = ok and pl.inv_cptp(qu.channel_of_isometry(v, 1)) is None
    report(9, "reversible-core extraction accepts/rejects correctly", ok)


def test_10_cptp_wellpointed():
    rep = lc.run_law(inst.make_cptp_instance(3), lc.ALL_LAWS["wellpointed"], trials=300, seed=0)
    report(10, "channels determined by the tomographic state family", rep.passed)


def test_11_cli_determinism(tmp_path):
    def write(name, data):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        return str(p)

    rng = np.random.default_rng(0)
    f = write("f.json", PartialFn(FinObj.of_size(2), FinObj.of_size(2),
                                  ((0, 1),)).to_json())
    g = write("g.json", PartialFn(FinObj.of_size(2), FinObj.of_size(2),
                                  ((1, 0),)).to_json())
    aux1 = write("a1.json", AuxMorphism(
        PartialInj(FinObj.of_size(2), FinObj((2, 2)), ((0, 0),)), 2, 2
    ).to_json())
    aux2 = write("a2.json", AuxMorphism(
        PartialInj(FinObj.of_size(2), FinObj((2, 2)), ((0, 1),)), 2, 2
    ).to_json())
    chan = write("c.json", qu.random_channel(2, 2, 2, rng).to_json())
    uni = write("u.json", qu.matrix_to_json(qu.haar_unitary(2, rng).mat))
    pure = write("p.json",
                 qu.channel_of_unitary(qu.haar_unitary(2, rng)).to_json())
    invocations = {
        "lawcheck": ["lawcheck", "--instance", "pinj", "--trials", "10", "--seed", "1"],
        "compose": ["compose", f, g],
        "tensor": ["tensor", f, g],
        "bennett-of": ["bennett-of", f],
        "pfn-of": ["pfn-of", aux1],
        "aux-equal": ["aux-equal", aux1, aux2],
        "ext-equal": ["ext-equal", aux1, aux2],
        "dilate": ["dilate", chan],
        "kraus": ["kraus", chan],
        "channel-of-unitary": ["channel-of-unitary", uni],
        "extract-unitary": ["extract-unitary", pure],
        "inv": ["inv", pure],
        "roundtrip": ["roundtrip", chan],
    }
    ok = set(invocations) == set(cli.VERBS)
    for verb, argv in invocations.items():
        o1, o2 = tmp_path / "o1.json", tmp_path / "o2.json"
        c1 = cli.run(argv + ["--out", str(o1)])
        c2 = cli.run(argv + ["--out", str(o2)])
        if c1 != c2 or o1.read_bytes() != o2.read_bytes():
            ok = False
    report(11, "byte-identical CLI reports for every verb", ok)
