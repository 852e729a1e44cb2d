"""Ancilla-input presentation, channel pipelines, and reversibility tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from revcat import classical as cl
from revcat import pipeline as pl
from revcat import quantum as qu
from revcat.classical import FinObj, PartialFn
from revcat.quantum import Unitary


@pytest.fixture
def rng():
    return np.random.default_rng(77)


class TestInpRoundtrip:
    def test_zero_ancilla_is_unitary_itself(self, rng):
        u = qu.haar_unitary(3, rng)
        m = pl.InpUnitary(3, 0, u)
        assert np.array_equal(pl.inp_to_isometry(m).mat, u.mat)

    def test_isometry_roundtrip_exact_columns(self, rng):
        for _ in range(100):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, rows + 1))
            v = qu.haar_isometry(rows, cols, rng)
            back = pl.inp_to_isometry(pl.isometry_to_inp(v))
            assert np.max(np.abs(back.mat - v.mat)) <= 1e-9

    def test_mediator_invariance(self, rng):
        # Right-multiplying the completion by I (+) h for a Haar h on the
        # ancilla summand leaves the normal form unchanged.
        for _ in range(50):
            v = qu.haar_isometry(5, 2, rng)
            m = pl.isometry_to_inp(v)
            h = qu.haar_unitary(m.anc_dim, rng)
            block = np.eye(5, dtype=complex)
            block[2:, 2:] = h.mat
            mediated = pl.InpUnitary(2, 3, Unitary(m.unitary.mat @ block))
            diff = pl.inp_to_isometry(mediated).mat - pl.inp_to_isometry(m).mat
            assert np.max(np.abs(diff)) <= 1e-12

    def test_dimension_guard(self, rng):
        with pytest.raises(qu.DimensionError):
            pl.InpUnitary(2, 2, qu.haar_unitary(3, rng))

    def test_conservative_over_pinj(self):
        # Adjoining a size-0 ancilla input to a partial injection leaves its table.
        f = cl.PartialInj(FinObj.of_size(3), FinObj.of_size(3), ((0, 2), (2, 0)))
        assert cl.direct_sum(f, cl.empty_map(cl.ZERO, cl.ZERO)).same_table(f)


class TestUnitaryToChannel:
    def test_no_ancilla_no_env_is_conjugation(self, rng):
        u = qu.haar_unitary(3, rng)
        c = pl.unitary_to_channel(u, 0, 1)
        assert c.close_to(qu.channel_of_unitary(u), qu.ROUND_ATOL)

    def test_copy_gate_gives_dephasing(self):
        # CNOT with the target as a fresh ancilla, then trace it out.
        cnot = np.eye(4, dtype=complex)[:, [0, 1, 3, 2]]
        # Reorder so the input summand comes first: columns (|00>, |10>).
        perm = cnot[:, [0, 2, 1, 3]]
        c = pl.unitary_to_channel(Unitary(perm), 2, 2)
        assert c.close_to(qu.dephasing_channel(2), qu.ROUND_ATOL)

    def test_full_ancilla_rejected(self, rng):
        with pytest.raises(qu.DimensionError):
            pl.unitary_to_channel(qu.haar_unitary(2, rng), 2, 1)

    def test_env_must_divide(self, rng):
        with pytest.raises(qu.DimensionError):
            pl.unitary_to_channel(qu.haar_unitary(3, rng), 0, 2)


class TestChannelRoundtrip:
    def test_random_channels(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 4))
            c = qu.random_channel(d, d, int(rng.integers(1, 4)), rng)
            u, anc, env = pl.channel_to_unitary_presentation(c)
            back = pl.unitary_to_channel(u, anc, env)
            assert back.close_to(c, qu.ROUND_ATOL)
            assert env == qu.choi_rank(c)

    def test_identity_channel_trivial_presentation(self):
        u, anc, env = pl.channel_to_unitary_presentation(qu.identity_channel(2))
        assert anc == 0 and env == 1
        assert np.allclose(np.abs(u.mat), np.eye(2), atol=1e-9)


class TestInvPfn:
    def test_exhaustive_against_inverse_search(self):
        import oracles

        for a in range(4):
            for b in range(4):
                aa, bb = FinObj.of_size(a), FinObj.of_size(b)
                for f in cl.all_partial_fns(aa, bb):
                    got = pl.inv_pfn(f)
                    expected = oracles.search_partial_inverse(f)
                    assert (got is not None) == (expected is not None)
                    if got is not None:
                        assert got.same_table(f)

    def test_noninjective_rejected(self):
        f = PartialFn(FinObj.of_size(2), FinObj.of_size(1), ((0, 0), (1, 0)))
        assert pl.inv_pfn(f) is None


class TestInvCptp:
    def test_recovers_haar_unitaries(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 5))
            u = qu.haar_unitary(d, rng)
            pc = pl.inv_cptp(qu.channel_of_unitary(u))
            assert pc is not None
            assert pc.close_to(pl.UnitaryPhaseClass.of(u))

    def test_phase_irrelevant(self, rng):
        u = qu.haar_unitary(3, rng)
        c = qu.choi_of_kraus([np.exp(0.3j) * u.mat])
        pc = pl.inv_cptp(c)
        assert pc is not None and pc.close_to(pl.UnitaryPhaseClass.of(u))

    def test_rejects_dephasing(self):
        assert pl.inv_cptp(qu.dephasing_channel(2)) is None

    def test_phase_class_of_the_empty_unitary(self):
        pc = pl.UnitaryPhaseClass.of(Unitary(np.zeros((0, 0), dtype=complex)))
        assert pc.rep.mat.shape == (0, 0) and pc.close_to(pc)

    def test_rejects_depolarizing(self):
        assert pl.inv_cptp(qu.depolarizing_channel(2, 0.3)) is None

    def test_rejects_rectangular(self, rng):
        v = qu.haar_isometry(3, 2, rng)
        assert pl.inv_cptp(qu.channel_of_isometry(v, 1)) is None

    def test_rejects_reset(self):
        # rho -> |0><0| has Kraus rank 2, hence an impure Choi.
        reset = qu.choi_of_kraus(
            [np.array([[1, 0], [0, 0]], dtype=complex),
             np.array([[0, 1], [0, 0]], dtype=complex)]
        )
        assert pl.inv_cptp(reset) is None


class TestPipelineEndToEnd:
    def test_unitary_channel_unitary(self, rng):
        # Unitary -> channel -> extracted unitary is the identity on phase
        # classes.
        for _ in range(25):
            u = qu.haar_unitary(3, rng)
            c = pl.unitary_to_channel(u, 0, 1)
            pc = pl.inv_cptp(c)
            assert pc is not None and pc.close_to(pl.UnitaryPhaseClass.of(u))

    def test_pinj_pfn_pinj(self):
        # Partial injection -> partial function -> reversible view again.
        f = cl.PartialInj(FinObj.of_size(3), FinObj.of_size(3), ((0, 1), (1, 0)))
        g = pl.inv_pfn(PartialFn(f.dom, f.cod, f.graph))
        assert g is not None and g.same_table(f)

    def test_pipeline_demo_script(self):
        root = Path(__file__).resolve().parents[1]
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": str(root / "src") + (os.pathsep + path if path else "")}
        out = subprocess.run([sys.executable, str(root / "scripts" / "pipeline_demo.py")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert "garbage-sensitive equal: False" in lines
        assert "dephasing: reversible core exists = False" in lines
