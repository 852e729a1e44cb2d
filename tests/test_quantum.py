"""Channels, Choi matrices, dilations, and unitary extraction."""

import inspect
import json
import warnings

import numpy as np
import pytest

from revcat import quantum as qu
from revcat.quantum import Channel, Isometry, Unitary

import oracles

X = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestChannelInvariants:
    def test_identity_choi(self, rng):
        c = qu.identity_channel(2)
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                expected[i * 2 + i, j * 2 + j] = 1.0  # sum_ij |ii><jj|
        assert np.allclose(c.choi, expected)

    def test_rejects_non_tp(self):
        with pytest.raises(qu.NotAChannelError):
            Channel(2, 2, np.eye(4, dtype=complex))  # Tr_out = 2I != I
        # Non-Hermitian rejected too.
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(qu.NotAChannelError):
            Channel(2, 2, bad)

    def test_random_channels_valid(self, rng):
        for _ in range(20):
            c = qu.random_channel(3, 2, 2, rng)
            assert c.din == 3 and c.dout == 2  # constructor validated CPTP

    def test_apply_matches_choi_assembly(self, rng):
        c = qu.random_channel(2, 3, 2, rng)
        rebuilt = oracles.choi_by_action(c.apply, 2, 3)
        assert np.max(np.abs(rebuilt - c.choi)) < 1e-10

    def test_apply_rejects_a_state_of_another_size(self):
        with pytest.raises(qu.DimensionError, match="^state must be 2x2$"):
            qu.identity_channel(2).apply(np.eye(3))


class TestTrustBoundary:
    @pytest.mark.parametrize("din, dout", [(0, 2), (2, 0), (0, 0)])
    def test_zero_dimension_rejected(self, din, dout):
        with pytest.raises(qu.NotAChannelError, match="din and dout must be positive"):
            Channel(din, dout, np.zeros((0, 0), dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_choi_rejected(self, bad):
        choi = qu.identity_channel(2).choi.copy()
        choi[1, 2] = bad
        with pytest.raises(qu.NotAChannelError, match="choi has a non-finite entry"):
            Channel(2, 2, choi)

    @pytest.mark.parametrize("cls, field", [(Unitary, "unitary"), (Isometry, "isometry")])
    def test_non_finite_matrix_rejected(self, cls, field):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(qu.NotAnIsometryError, match=f"{field} matrix has a non-finite"):
            cls(m)

    def test_tp_residual_above_atol_rejected(self):
        # Tr_out C - I = 5e-6: inside a relative tolerance of 1e-5, outside 1e-9.
        choi = (1 + 5e-6) * qu.identity_channel(2).choi
        with pytest.raises(qu.NotAChannelError, match="partial trace"):
            Channel(2, 2, choi)

    def test_unitarity_residual_above_atol_rejected(self):
        # U^dag U - I = 8e-6: inside a relative tolerance of 1e-5, outside 1e-9.
        with pytest.raises(qu.NotAnIsometryError, match="U\\^dag U != I"):
            Unitary((1 + 4e-6) * np.eye(2, dtype=complex))

    @pytest.mark.parametrize("rows, cols", [(-1, -1), (-1, 1), (1, -1)])
    def test_negative_matrix_shape_rejected(self, rows, cols):
        data = {"rows": rows, "cols": cols, "entries": [[1, 0]]}
        with pytest.raises(ValueError, match="rows and cols must be nonnegative"):
            qu.matrix_from_json(data)

    @pytest.mark.parametrize("field", ["rows", "cols"])
    @pytest.mark.parametrize("value", [1.7, 1.0, "1", True, None])
    def test_non_integer_matrix_shape_rejected(self, field, value):
        data = {"rows": 1, "cols": 1, "entries": [[1, 0]], field: value}
        with pytest.raises(ValueError, match=f"{field} .* is not an integer"):
            qu.matrix_from_json(data)

    @pytest.mark.parametrize("entry", [[True, 0], [1, False], [False, True]])
    def test_boolean_matrix_entry_rejected(self, entry):
        # complex(True, 0) is 1+0j, so a boolean must be refused by name.
        data = {"rows": 1, "cols": 1, "entries": [entry]}
        with pytest.raises(ValueError, match=r"entries must be a list of \[re, im\] pairs"):
            qu.matrix_from_json(data)

    def test_empty_isometry_accepted(self):
        v = Isometry(np.zeros((2, 0), dtype=complex))
        assert (v.rows, v.cols) == (2, 0)

    @pytest.mark.parametrize("cls, field", [(Unitary, "unitary"), (Isometry, "isometry")])
    @pytest.mark.parametrize("shape", [(3,), (), (2, 2, 1)])
    def test_non_2d_matrix_rejected(self, cls, field, shape):
        with pytest.raises(qu.NotAnIsometryError, match=f"{field} matrix must be 2-D"):
            cls(np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("field", ["din", "dout"])
    @pytest.mark.parametrize("value", [1.9, 2.0, "2", True, None])
    def test_non_integer_channel_dimension_rejected(self, field, value):
        data = qu.identity_channel(2).to_json()
        data[field] = value
        with pytest.raises(ValueError, match=f"{field} .* is not an integer"):
            Channel.from_json(data)

    @pytest.mark.parametrize("din, dout", [(2.0, 2), (2, 2.0), ("2", 2), (2, None), (2, 2.5)],
                             ids=["float-din", "float-dout", "str-din", "none-dout", "half-dout"])
    def test_non_integer_constructor_dimension_rejected(self, din, dout):
        with pytest.raises(qu.NotAChannelError, match="^din and dout must be integers, got din="):
            Channel(din, dout, qu.identity_channel(2).choi)

    def test_numpy_integer_dimension_stored_as_an_int(self):
        c = Channel(np.int64(2), np.uint8(2), qu.identity_channel(2).choi)
        assert (type(c.din), type(c.dout)) == (int, int)
        assert Channel.from_json(json.loads(json.dumps(c.to_json()))).close_to(c)


class TestIsometryForms:
    @pytest.mark.parametrize("shape", [(3, 2), (2, 2), (4, 1), (2, 0)])
    def test_to_json_is_the_matrix_json(self, rng, shape):
        v = qu.haar_isometry(*shape, rng)
        for m in (v, qu.complete_to_unitary(v)):
            assert m.to_json() == qu.matrix_to_json(m.mat)
            back = qu.matrix_from_json(m.to_json())
            assert back.shape == m.mat.shape and np.array_equal(back, m.mat)

    @pytest.mark.parametrize("rows, cols", [(1, 2), (0, 1), (2, 5)])
    def test_haar_isometry_with_more_columns_than_rows_rejected(self, rng, rows, cols):
        with pytest.raises(qu.DimensionError, match=f"cols {cols} <= rows {rows}"):
            qu.haar_isometry(rows, cols, rng)

    def test_unitary_close_to(self):
        u = Unitary(np.eye(2, dtype=complex))
        near = Unitary(np.eye(2) * np.exp(0.5e-9j))  # entries move by 0.5e-9
        far = Unitary(np.eye(2) * np.exp(2e-9j))  # entries move by 2e-9
        assert u.close_to(u) and u.close_to(near) and near.close_to(u)
        assert not u.close_to(far) and not far.close_to(u)
        assert u.close_to(far, qu.ROUND_ATOL)

    def test_close_to_is_false_on_a_shape_mismatch(self):
        u2, u3 = Unitary(np.eye(2, dtype=complex)), Unitary(np.eye(3, dtype=complex))
        assert not u2.close_to(u3) and not u3.close_to(u2)
        assert not u2.close_to(Isometry(np.eye(2, 1, dtype=complex)))
        empty = Isometry(np.zeros((2, 0), dtype=complex))
        assert not empty.close_to(Isometry(np.zeros((3, 0), dtype=complex)))
        assert empty.close_to(Isometry(np.zeros((2, 0), dtype=complex)))


def boundary_choi(d, delta, rng):
    """A trace-preserving Choi matrix with min eigenvalue -delta: for each
    input i the diagonal entry at output 0 is 1 + delta and at output 1 is
    -delta, conjugated by I (x) W for a Haar unitary W."""
    diag = np.zeros((d, d))
    diag[:, 0], diag[:, 1] = 1 + delta, -delta
    iw = np.kron(np.eye(d), qu.haar_unitary(d, rng).mat)
    c = iw @ np.diag(diag.reshape(-1)) @ iw.conj().T
    return (c + c.conj().T) / 2


class TestPsdRule:
    """A Choi matrix is PSD when its min eigenvalue is at least -1e-9."""

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("delta, accepted", [
        (0.0, True), (0.7e-9, True), (0.99e-9, True), (1.01e-9, False), (3e-9, False)])
    def test_boundary(self, rng, d, delta, accepted):
        choi = boundary_choi(d, delta, rng)
        if accepted:
            assert Channel(d, d, choi).din == d
        else:
            with pytest.raises(qu.NotAChannelError, match="choi not PSD"):
                Channel(d, d, choi)

    def test_message(self, rng):
        with pytest.raises(qu.NotAChannelError) as e:
            Channel(2, 2, boundary_choi(2, 2e-9, rng))
        assert str(e.value) == "choi not PSD: min eigenvalue -2.00e-09"

    @pytest.mark.parametrize("delta, eigensolves", [(0.0, 0), (0.7e-9, 1), (2e-9, 1)])
    def test_eigensolve_only_when_certificate_fails(self, rng, monkeypatch, delta, eigensolves):
        # The Cholesky certificate of C + (ATOL / 2) I settles min eigenvalues
        # above -ATOL / 2; below that the eigenvalues decide.
        choi = boundary_choi(4, delta, rng)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        try:
            Channel(4, 4, choi)
        except qu.NotAChannelError:
            pass
        assert len(calls) == eigensolves


def _product_choi(a, b):
    """The Choi matrix of a (x) b, assembled as channel_tensor assembles it."""
    n = a.din * b.din * a.dout * b.dout
    return np.einsum("imjn,akbl->iamkjbnl", a.blocks(), b.blocks()).reshape(n, n)


def _verdict(build):
    """None when build() returns a channel, else its NotAChannelError message."""
    try:
        build()
    except qu.NotAChannelError as e:
        return str(e)
    return None


def _checked_by_the_product(a, b):
    """The verdict of the full check, Cholesky then eigvalsh, on a (x) b's
    Choi matrix."""
    return _verdict(lambda: Channel(a.din * b.din, a.dout * b.dout, _product_choi(a, b)))


def _record_factorisations(monkeypatch, names=("cholesky", "eigvalsh")):
    """Record (function name, matrix shape) for each call of the named
    np.linalg functions."""
    calls = []
    for name in names:
        def recorded(m, _name=name, _f=getattr(np.linalg, name)):
            calls.append((_name, m.shape))
            return _f(m)
        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def _benchmark_and_suite_pairs(rng):
    """Pairs of every shape the channels benchmark and this suite tensor: the
    benchmark's random d x d channels, the sampled families (isometric,
    unitary, depolarizing, dephasing; din != dout among them), the cptp law
    instance's channels, a product of products, and isometric channels with
    din != dout whose products are larger than 64 x 64."""
    pairs = []
    for da, db in ((2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (2, 8)):
        for ka, kb in ((1, 1), (1, 2), (2, 2)):
            pairs.append((qu.random_channel(da, da, ka, rng), qu.random_channel(db, db, kb, rng)))
    for shape_a, shape_b in (((2, 3), (1, 2)), ((1, 1), (3, 2)), ((2, 2), (2, 2)),
                             ((3, 1), (1, 4)), ((1, 3), (2, 3))):
        pairs += [(a, b) for a in _sample_channels(*shape_a, rng)
                  for b in _sample_channels(*shape_b, rng)]
    pairs.append((qu.channel_of_isometry(qu.haar_isometry(4, 2, rng), 2),
                  qu.channel_of_isometry(qu.haar_isometry(6, 2, rng), 3)))
    cptp = [qu.random_channel(din, dout, 2, rng) for din in (1, 2, 3) for dout in (1, 2, 3)]
    pairs += [(cptp[i], cptp[j]) for i in range(9) for j in range(9) if (i + j) % 4 == 0]
    pairs.append((qu.channel_tensor(cptp[4], cptp[8]), cptp[5]))
    iso = [qu.channel_of_isometry(qu.haar_isometry(rows, cols, rng), env)
           for rows, cols, env in ((12, 3, 2), (8, 4, 4), (6, 2, 2), (12, 4, 3))]
    pairs += [(iso[0], iso[1]), (iso[1], iso[0]), (iso[2], iso[3])]  # above 64 x 64, din != dout
    return pairs


def _defect_pair():
    """identity_channel(2) and identity_channel(8), each with 0.26e-9 i added
    to one Choi diagonal entry, (0, 0) and (1, 1): valid channels, stored as
    the identities' Choi matrices exactly.  The product of the two matrices
    as given has min eigenvalue -1.01e-09 on its lower triangle, the one
    eigvalsh reads."""
    def tilted(d, index):
        choi = qu.identity_channel(d).choi.copy()
        choi[index, index] += 0.26e-9j
        return Channel(d, d, choi)
    return tilted(2, 0), tilted(8, 1)


def _unvalidated(din, dout, choi):
    """A Channel holding choi unchecked, as channel_tensor holds a product
    before its validation."""
    c = object.__new__(Channel)
    vars(c).update(din=din, dout=dout, choi=choi)
    return c


def _check_the_product_after_factor_edits(a, b):
    """A factor cannot be changed in place after its own checks, so a (x) b is
    the product of the matrices checked and exactly Hermitian; the TP check
    still runs on the product, and catches a factor that is not TP."""
    for index, value in (((0, 1), 1e-3), ((0, 0), 1e-3), ((0, 0), np.nan)):
        with pytest.raises(ValueError, match="read-only"):
            a.choi[index] += value
    c = qu.channel_tensor(a, b).choi
    assert np.array_equal(c, c.conj().T)
    choi = a.choi.copy()
    choi[0, 0] += 1e-3  # Hermitian and PSD still, not TP
    not_tp = _unvalidated(a.din, a.dout, choi)
    for x, y in ((not_tp, b), (b, not_tp)):
        assert _verdict(lambda: qu.channel_tensor(x, y)) == (
            "partial trace over output != identity within 1e-9")


class TestTensorPsd:
    """channel_tensor certifies PSD by its floor, or else decides it by the
    full check on the product's Choi matrix, as the constructor does, with
    the same verdict and message."""

    def test_verdicts_match_the_product_check(self, rng):
        pairs = _benchmark_and_suite_pairs(rng)
        assert len(pairs) > 100
        for a, b in pairs + [_defect_pair()]:
            assert _verdict(lambda: qu.channel_tensor(a, b)) == _checked_by_the_product(a, b)
        assert _checked_by_the_product(*_defect_pair()) is None

    def test_product_choi_is_the_einsum_bit_for_bit(self, rng):
        for a, b in _benchmark_and_suite_pairs(rng):
            got = qu.channel_tensor(a, b).choi
            assert np.array_equal(got.view(float), _product_choi(a, b).view(float))

    @pytest.mark.parametrize("make_a, b_dim, accepted", [
        (lambda rng: qu.depolarizing_channel(2, -8e-10), 4, False),  # -1.60e-09
        (lambda rng: qu.depolarizing_channel(2, -8e-10), 2, True),  # -8.00e-10
        (lambda rng: qu.depolarizing_channel(3, -1.2e-9), 2, True),  # -8.00e-10
        (lambda rng: qu.depolarizing_channel(3, -1.8e-9), 2, False),  # -1.20e-09
        (lambda rng: Channel(2, 2, boundary_choi(2, 0.45e-9, rng)), 2, True),  # -9.0e-10
        (lambda rng: Channel(2, 2, boundary_choi(2, 0.55e-9, rng)), 2, False),  # -1.1e-09
        (lambda rng: Channel(3, 3, boundary_choi(3, 0.3e-9, rng)), 3, True),  # -9.0e-10
        (lambda rng: Channel(3, 3, boundary_choi(3, 0.4e-9, rng)), 3, False),  # -1.2e-09
        (lambda rng: Channel(4, 4, boundary_choi(4, 0.9e-9, rng)), 1, True),  # -9.0e-10
    ], ids=["depol2-id4", "depol2-id2", "depol3-id2-in", "depol3-id2-out", "boundary2-id2-in",
            "boundary2-id2-out", "boundary3-id3-in", "boundary3-id3-out", "boundary4-id1"])
    def test_boundary(self, rng, make_a, b_dim, accepted):
        # Each factor is a channel, its min eigenvalue at least -1e-9; the
        # product's is that times b's top eigenvalue b_dim, on either side.
        a, b = make_a(rng), qu.identity_channel(b_dim)
        for x, y in ((a, b), (b, a)):
            verdict = _verdict(lambda: qu.channel_tensor(x, y))
            assert verdict == _checked_by_the_product(x, y)
            assert (verdict is None) == accepted
            if not accepted:
                assert verdict.startswith("choi not PSD: min eigenvalue -1.")

    def test_two_negative_factors(self, rng):
        # Both factors have min eigenvalue -0.9e-9, whose product is positive;
        # the least of the four extreme products is a's min times b's top, 2.
        a = Channel(2, 2, boundary_choi(2, 0.9e-9, rng))
        b = qu.depolarizing_channel(2, -1.8e-9)
        verdict = _verdict(lambda: qu.channel_tensor(a, b))
        assert verdict == _checked_by_the_product(a, b) == "choi not PSD: min eigenvalue -1.80e-09"

    def test_rejected_product_is_rejected_by_the_constructor_too(self):
        a, b = qu.depolarizing_channel(2, -8e-10), qu.identity_channel(4)
        message = "choi not PSD: min eigenvalue -1.60e-09"
        with pytest.raises(qu.NotAChannelError) as e:
            qu.channel_tensor(a, b)
        assert str(e.value) == message
        with pytest.raises(qu.NotAChannelError) as e:
            Channel(8, 8, _product_choi(a, b))
        assert str(e.value) == message

    def test_hermitian_and_tp_checks_run_on_the_product(self, rng):
        a, b = qu.random_channel(2, 2, 2, rng), qu.random_channel(2, 2, 2, rng)
        _check_the_product_after_factor_edits(a, b)

    def test_only_an_uncertified_product_is_factorised(self, rng, monkeypatch):
        # Kraus-built factors certify their product by its floor, with no
        # factorisation; factors loaded from JSON carry the floor ATOL, which
        # certifies nothing, so the product takes the constructor's check.
        a, b = qu.random_channel(4, 4, 2, rng), qu.random_channel(4, 4, 2, rng)
        loaded = [Channel.from_json(c.to_json()) for c in (a, b)]
        calls = _record_factorisations(monkeypatch)
        assert qu.channel_tensor(a, b).choi.shape == (256, 256)
        assert calls == []
        assert qu.channel_tensor(*loaded).choi.shape == (256, 256)
        assert calls == [("cholesky", (256, 256))]


def _channels_of_the_pairs(rng):
    """Each factor of _benchmark_and_suite_pairs and each of their products."""
    pairs = _benchmark_and_suite_pairs(rng) + [_defect_pair()]
    return [c for a, b in pairs for c in (a, b, qu.channel_tensor(a, b))]


class TestStoredForm:
    """A Channel stores the exact Hermitian part of its Choi matrix, once, in
    one C-contiguous read-only array that every later reading shares."""

    def test_stored_choi_is_exactly_hermitian(self, rng):
        for c in _channels_of_the_pairs(rng):
            assert np.max(np.abs(c.choi - c.choi.conj().T)) == 0.0

    def test_stored_choi_is_read_only(self, rng):
        a, b = qu.random_channel(2, 2, 2, rng), qu.random_channel(3, 3, 2, rng)
        for c in (a, qu.channel_tensor(a, b)):
            with pytest.raises(ValueError, match="read-only"):
                c.choi[0, 1] += 1e-3
            with pytest.raises(ValueError, match="read-only"):
                c.blocks()[0, 0, 0, 0] = np.nan

    def test_layout_and_round_trips(self, rng):
        for c in _channels_of_the_pairs(rng):
            assert c.choi.flags.c_contiguous and np.shares_memory(c.blocks(), c.choi)
            again = Channel(c.din, c.dout, c.choi)
            back = Channel.from_json(c.to_json())
            for d in (again, back):
                assert d.choi.tobytes() == c.choi.tobytes()


class TestTensorHermitian:
    """channel_tensor takes no Hermitian pass over a product, of any size: the
    product of two stored, exactly Hermitian matrices is exactly Hermitian."""

    @pytest.mark.parametrize("da, db", [(3, 3), (4, 4), (2, 8)])
    def test_hermitian_and_tp_checks_run_on_the_product(self, rng, da, db):
        # As TestTensorPsd's test of the same name, on products above 64 x 64.
        a, b = qu.random_channel(da, da, 2, rng), qu.random_channel(db, db, 2, rng)
        _check_the_product_after_factor_edits(a, b)

    @pytest.mark.parametrize("da, db", [(4, 4), (3, 3), (2, 4), (2, 2)])
    def test_no_hermitian_pass_over_a_product(self, rng, monkeypatch, da, db):
        # A product takes no Hermitian pass, whether its floor certifies PSD
        # (Kraus-built factors) or the Cholesky check of the product decides
        # (factors loaded from JSON); a constructor takes the Hermitian pass.
        a, b = qu.random_channel(da, da, 2, rng), qu.random_channel(db, db, 2, rng)
        loaded = [Channel.from_json(c.to_json()) for c in (a, b)]
        residuals = []
        residual = qu._hermitian_residual
        monkeypatch.setattr(qu, "_hermitian_residual",
                            lambda c, c_dag: residuals.append(c.shape) or residual(c, c_dag))
        calls = _record_factorisations(monkeypatch)
        qu.channel_tensor(a, b)
        assert residuals == [] and calls == []
        qu.channel_tensor(*loaded)
        n = (da * db) ** 2
        assert residuals == [] and calls == [("cholesky", (n, n))]
        Channel(da, da, a.choi)
        assert residuals == [a.choi.shape]


class TestPublicPathsCertifyByCholesky:
    """Channel(...) and from_json decide PSD by the Cholesky certificate of
    the matrix itself, and no argument of Channel skips or replaces it.  The
    library's choi_of_kraus and channel_compose certify PSD by their floor,
    and take that certificate only when the floor is above ATOL / 2."""

    def test_channel_signature(self):
        assert list(inspect.signature(Channel).parameters) == ["din", "dout", "choi"]

    def test_constructor_and_from_json(self, rng, monkeypatch):
        choi = qu.random_channel(4, 4, 2, rng).choi
        data = Channel(4, 4, choi).to_json()
        calls = _record_factorisations(monkeypatch)
        Channel(4, 4, choi)
        Channel.from_json(data)
        assert calls == [("cholesky", (16, 16))] * 2

    def test_kraus_and_compose(self, rng, monkeypatch):
        f, g = qu.random_channel(2, 3, 2, rng), qu.random_channel(3, 2, 2, rng)
        ks = qu.kraus_of_choi(f)
        loaded = [Channel.from_json(c.to_json()) for c in (g, f)]
        calls = _record_factorisations(monkeypatch)
        qu.choi_of_kraus(ks)
        qu.channel_compose(g, f)
        assert calls == []
        qu.channel_compose(*loaded)  # their floor ATOL certifies nothing
        assert calls == [("cholesky", (4, 4))]


def _link_choi(g, f):
    """The Choi matrix of g after f, assembled as channel_compose assembles
    it, before its Hermitian step."""
    n = f.din * g.dout
    c = np.tensordot(f.blocks(), g.blocks(), axes=([1, 3], [0, 2]))
    return c.transpose(0, 2, 1, 3).reshape(n, n)


def _floor_holds(c):
    """Whether lambda_min(H) >= -f for the stored H and floor f of c: a
    Cholesky factorisation of H + f I in long double arithmetic, whose
    backward error (about n |H| 1e-19) is far below every floor tested.
    eigvalsh's own error, about n |H| 1e-16, is not: it reads -lambda_min
    up to 1.2 f on low-rank Kraus channels at n = 256."""
    assert np.finfo(np.longdouble).eps < 1e-18, "needs an extended long double"
    a = c.choi.astype(np.clongdouble)
    a.flat[:: len(a) + 1] += c._floor
    for k in range(len(a)):
        pivot = a[k, k].real
        if not pivot > 0:
            return False
        column = a[k + 1:, k] / np.sqrt(pivot)
        a[k + 1:, k + 1:] -= np.outer(column, column.conj())
    return True


class TestCertifiedFloor:
    """Every library-built channel carries a floor f with lambda_min(H) >= -f
    (the module docstring derives it); f <= ATOL / 2 certifies PSD with no
    factorisation, and each verdict and message is that of the full check."""

    def test_sound_and_same_verdicts_on_the_pairs(self, rng):
        # Products of Kraus-built operands are certified; an operand built by
        # Channel(...) (depolarizing_channel, the defect pair) has the floor
        # ATOL, and so has the product.
        pairs = _benchmark_and_suite_pairs(rng) + [_defect_pair()]
        built = 0
        for a, b in pairs:
            certified = max(a._floor, b._floor) <= qu.ATOL / 2
            products = [(lambda x=a, y=b: qu.channel_tensor(x, y), _checked_by_the_product(a, b))]
            for g, f in ((a, b), (b, a)):
                if f.dout == g.din:
                    products.append((lambda x=g, y=f: qu.channel_compose(x, y),
                                     _verdict(lambda: Channel(f.din, g.dout, _link_choi(g, f)))))
            for build, expected in products:
                assert expected is None  # so the verdicts agree when build() returns
                c = build()
                assert _floor_holds(c)
                assert c._floor <= qu.ATOL / 2 if certified else c._floor == qu.ATOL
                built += 1
            for c in (a, b):
                k = qu.choi_of_kraus(qu.kraus_of_choi(c))
                assert _floor_holds(k) and k._floor <= qu.ATOL / 2
                assert _verdict(lambda: Channel(k.din, k.dout, k.choi.copy())) is None
        assert built > 200

    @pytest.mark.parametrize("delta", [0.0, 0.7e-9, 0.99e-9, 1.01e-9, 3e-9])
    def test_boundary_factors(self, rng, delta):
        # A factor held unchecked carries the class floor ATOL, so every
        # product of it takes the full check, and agrees with the check on
        # the product's own Choi matrix.
        x = _unvalidated(2, 2, boundary_choi(2, delta, rng))
        for y in (qu.identity_channel(2), qu.random_channel(2, 2, 2, rng)):
            for a, b in ((x, y), (y, x)):
                assert _verdict(lambda: qu.channel_tensor(a, b)) == _checked_by_the_product(a, b)
                expected = _verdict(lambda: Channel(2, 2, _link_choi(a, b)))
                assert _verdict(lambda: qu.channel_compose(a, b)) == expected
        verdict = _verdict(lambda: qu.channel_compose(qu.identity_channel(2), x))
        assert (verdict is None) == (delta < 1e-9)

    def test_chain_falls_back_to_cholesky(self, rng, monkeypatch):
        # The floor of a composite grows with each link; once it passes
        # ATOL / 2 the Cholesky certificate decides, and ATOL is kept.
        g = qu.random_channel(4, 4, 2, rng)
        c = qu.random_channel(4, 4, 2, rng)
        calls = _record_factorisations(monkeypatch)
        for links in range(1, 20):
            before = len(calls)
            c = qu.channel_compose(g, c)
            assert _floor_holds(c)
            if c._floor > qu.ATOL / 2:
                break
            assert calls[before:] == []
        assert 3 < links < 19 and c._floor == qu.ATOL
        assert calls == [("cholesky", (16, 16))]
        qu.channel_compose(g, c)
        assert calls == [("cholesky", (16, 16))] * 2

    def test_library_isometries_are_stored_read_only(self, rng):
        # Built around arrays the library has just allocated, without the
        # public constructor's copy, and checked alike.
        c = qu.random_channel(3, 3, 2, rng)
        made = [qu.haar_unitary(3, rng), qu.complete_to_unitary(qu.haar_isometry(4, 2, rng)),
                qu.minimal_stinespring(c)[0], qu.extract_unitary(qu.channel_of_unitary(
                    qu.haar_unitary(3, rng)))]
        for m in made:
            assert m.mat.flags.c_contiguous and not m.mat.flags.writeable
        with pytest.raises(qu.NotAnIsometryError, match="^unitary must be square, got 3x2$"):
            qu._owned(Unitary, {"mat": np.eye(3, 2, dtype=complex)})
        with pytest.raises(qu.NotAnIsometryError, match=r"^U\^dag U != I within 1e-9$"):
            qu._owned(Unitary, {"mat": 2 * np.eye(2, dtype=complex)})


def _factor_residual(c):
    """||H - V V^dag||_F for the stored H and Kraus factor V of c."""
    return np.linalg.norm(c.choi - c._kraus @ c._kraus.conj().T)


class TestKrausFactor:
    """A channel built from Kraus operators keeps them as its factor V, with
    the stored H the Hermitian step of V V^dag; channel_compose of two such
    channels multiplies the factors while the product has at most d_mid^2
    columns, and runs the link product otherwise."""

    def test_composite_agrees_with_the_link_product(self, rng):
        routed = 0
        for a, b in _benchmark_and_suite_pairs(rng):
            for g, f in ((a, b), (b, a)):
                if f.dout != g.din or f._kraus is None or g._kraus is None:
                    continue
                c = qu.channel_compose(g, f)
                link = _link_choi(g, f)
                assert _verdict(lambda: Channel(f.din, g.dout, link)) is None
                assert np.max(np.abs(c.choi - link)) <= 1e-13
                assert _floor_holds(c) and c._floor <= qu.ATOL / 2
                width = f._kraus.shape[1] * g._kraus.shape[1]
                if width <= f.dout**2:
                    assert c._kraus.shape == (f.din * g.dout, width)
                    routed += 1
                else:
                    assert c._kraus is None
        assert routed > 50

    def test_factor_invariant_and_who_sets_it(self, rng):
        pairs = _benchmark_and_suite_pairs(rng)
        built = [c for a, b in pairs for c in (a, b)]
        built += [qu.channel_compose(g, f) for a, b in pairs for g, f in ((a, b), (b, a))
                  if f.dout == g.din]
        built += [qu.choi_of_kraus(qu.kraus_of_choi(c)) for c in built[:40]]
        carrying = [c for c in built if c._kraus is not None]
        assert len(carrying) > 300
        for c in carrying:
            assert _factor_residual(c) <= 1e-12 and not c._kraus.flags.writeable
        for a, b in pairs[:20]:
            for c in (Channel(a.din, a.dout, a.choi), Channel.from_json(a.to_json()),
                      qu.channel_tensor(a, b), qu.depolarizing_channel(a.din, 0.3)):
                assert c._kraus is None

    def test_chain_width_is_capped(self, rng, monkeypatch):
        # Rank-2 links double the width up to d_mid^2 = 16; the link product
        # takes over from there.  Unitary links keep the width and the floor.
        g, c = qu.random_channel(4, 4, 2, rng), qu.random_channel(4, 4, 2, rng)
        widths = []
        for _ in range(20):
            c = qu.channel_compose(g, c)
            widths.append(None if c._kraus is None else c._kraus.shape[1])
        assert widths == [4, 8, 16] + [None] * 17
        u, c = qu.channel_of_unitary(qu.haar_unitary(4, rng)), qu.random_channel(4, 4, 2, rng)
        bound = qu._C * (2 + 2) * qu._U * 4 * (1 + 1e-9)  # c (k + 2) u ||V||_F^2, Tr H = 4
        calls = _record_factorisations(monkeypatch)
        for _ in range(20):
            c = qu.channel_compose(u, c)
            assert c._kraus.shape == (16, 2) and c._floor <= bound and _floor_holds(c)
        assert calls == []

    def test_choi_of_kraus_keeps_its_own_copy(self, rng):
        # A caller's Kraus array edited after the call moves neither the
        # channel's Kraus operators nor its composites'.  With din = 1 the
        # stored factor would otherwise be a view of that array.
        ks = np.array(qu.kraus_of_choi(qu.random_channel(1, 24, 2, rng)))
        c = qu.choi_of_kraus(ks)
        g = qu.channel_of_unitary(qu.haar_unitary(24, rng))
        before = [qu.kraus_of_choi(c), qu.kraus_of_choi(qu.channel_compose(g, c))]
        ks *= 1j
        after = [qu.kraus_of_choi(c), qu.kraus_of_choi(qu.channel_compose(g, c))]
        for x, y in zip(before, after):
            assert len(x) == len(y) == 2
            assert all(np.array_equal(p, q) for p, q in zip(x, y))


class TestConstructorVerdicts:
    """Each property is decided by one reduction, and the verdicts and
    messages are those of separate checks in the order finite, Hermitian,
    PSD, TP: a non-finite entry is named before any residual, however it
    enters the residual."""

    @pytest.mark.parametrize("pos", [(1, 1), (1, 2)], ids=["diag", "off"])
    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_choi_entry_named(self, pos, part, bad):
        choi = qu.identity_channel(2).choi.copy()
        choi[pos] = complex(bad, 0) if part == "re" else complex(0, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the NaN of inf - inf is a verdict, not a warning
            with pytest.raises(qu.NotAChannelError, match="^choi has a non-finite entry"):
                Channel(2, 2, choi)

    @pytest.mark.parametrize("z", [np.inf, -np.inf, complex(0, np.inf), complex(np.inf, np.inf)])
    def test_inf_mirrored_by_inf_named(self, z):
        # C[1, 2] - conj(C[2, 1]) is inf - inf = NaN in one part.
        choi = qu.identity_channel(2).choi.copy()
        choi[1, 2], choi[2, 1] = z, np.conj(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(qu.NotAChannelError, match="^choi has a non-finite entry"):
                Channel(2, 2, choi)

    @pytest.mark.parametrize("entry", [2e-9, 1.0, 1e200, 1e308])
    def test_finite_non_hermitian(self, entry):
        # 1e308 - (-1e308) overflows to inf in the residual, silently, and is
        # still reported as non-Hermitian, not as non-finite.
        choi = qu.identity_channel(2).choi.copy()
        choi[1, 2], choi[2, 1] = entry, -entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(qu.NotAChannelError) as e:
                Channel(2, 2, choi)
        assert str(e.value) == "choi not Hermitian within 1e-9"

    @pytest.mark.parametrize("big", [1e308, 1.7e308, complex(0, 1.7e308)])
    def test_entry_near_the_float_maximum_not_psd(self, big):
        # C + C^dag overflows to inf at (0, 3), which Tr_out does not read, and
        # a Cholesky factorisation of a matrix with inf entries need not fail;
        # the stored H = C/2 + C^dag/2 keeps the entry finite and is not PSD.
        choi = qu.identity_channel(2).choi.copy()
        choi[0, 3], choi[3, 0] = big, np.conj(big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(qu.NotAChannelError, match="^choi not PSD: min eigenvalue -1"):
                Channel(2, 2, choi)

    def test_hermitian_residual_at_atol_accepted(self):
        choi = qu.identity_channel(2).choi.copy()
        choi[0, 1] = 1e-9  # the residual is exactly 1e-9
        assert Channel(2, 2, choi).din == 2

    @pytest.mark.parametrize("delta, accepted", [(5e-10, True), (2e-9, False)])
    def test_psd_boundary_through_the_eigensolve(self, monkeypatch, delta, accepted):
        # diag(1 + delta, -delta) + (ATOL / 2) I has a pivot <= 0, so the
        # Cholesky certificate fails and eigvalsh decides.
        choi = np.diag([1 + delta, -delta]).astype(complex)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        if accepted:
            assert Channel(1, 2, choi).dout == 2
        else:
            with pytest.raises(qu.NotAChannelError) as e:
                Channel(1, 2, choi)
            assert str(e.value) == "choi not PSD: min eigenvalue -2.00e-09"
        assert len(calls) == 1

    @pytest.mark.parametrize("scale, accepted", [
        (1 + 0.5e-9, True), (1 + 2e-9, False), (1 - 2e-9, False)])
    def test_tp_boundary(self, scale, accepted):
        choi = scale * qu.identity_channel(2).choi
        if accepted:
            assert Channel(2, 2, choi).din == 2
        else:
            with pytest.raises(qu.NotAChannelError) as e:
                Channel(2, 2, choi)
            assert str(e.value) == "partial trace over output != identity within 1e-9"

    @pytest.mark.parametrize("din, dout, choi", [
        (2, 2, qu.identity_channel(2).choi),
        (2, 1, np.eye(2, dtype=complex)),  # the trace map: Tr_out is a sum over one index
        (1, 2, np.diag([1 + 5e-10, -5e-10]).astype(complex)),  # through the eigensolve
        (1, 1, np.array([[1]])),  # an integer Choi matrix
        (1, 2, np.diag([0.25, 0.75])),  # a real one
    ])
    def test_input_left_unchanged_and_dtypes_accepted(self, din, dout, choi):
        # The first input is a stored, read-only array; the others are writeable.
        before, writeable = choi.copy(), choi.flags.writeable
        c = Channel(din, dout, choi)
        assert np.array_equal(choi, before) and choi.dtype == before.dtype
        assert choi.flags.writeable == writeable
        hermitian_part = (choi + choi.conj().T) / 2
        assert c.choi.dtype == hermitian_part.dtype
        assert c.choi.tobytes() == hermitian_part.tobytes()

    @pytest.mark.parametrize("cls, field", [(Unitary, "unitary"), (Isometry, "isometry")])
    @pytest.mark.parametrize("pos", [(0, 0), (0, 1), (1, 0)])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0, np.inf), np.nan])
    def test_non_finite_matrix_named_before_gram(self, cls, field, pos, bad):
        m = np.eye(2, dtype=complex)
        m[pos] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(qu.NotAnIsometryError, match=f"^{field} matrix has a non-finite"):
                cls(m)

    @pytest.mark.parametrize("cls, letter", [(Unitary, "U"), (Isometry, "V")])
    def test_finite_matrix_off_identity(self, cls, letter):
        # From about 1e154 on, |top|^2 overflows to inf in V^dag V, silently.
        for top in (1 + 2e-9, 1e155, 1e200, 1e308, complex(1e308, 1e308)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(qu.NotAnIsometryError) as e:
                    cls(np.diag([top, 1.0]).astype(complex))
            assert str(e.value) == f"{letter}^dag {letter} != I within 1e-9"

    @pytest.mark.parametrize("m", [np.eye(2, dtype=int), np.eye(3, 2), np.eye(2, dtype=complex)])
    def test_isometry_input_left_unchanged(self, m):
        # The isometry stores its own read-only copy: an edit of the caller's
        # array after construction no longer reaches it.
        before = m.copy()
        cls = Unitary if m.shape[0] == m.shape[1] else Isometry
        u = cls(m)
        assert np.array_equal(u.mat, m)
        assert np.array_equal(m, before) and m.flags.writeable
        assert not u.mat.flags.writeable
        m[0, 0] = 5
        assert np.array_equal(u.mat, before)
        qu.channel_of_isometry(u, 1)  # raised "partial trace ... != identity" when u shared m

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_purity_agrees_with_the_matrix_product(self, rng, d):
        channels = [qu.random_channel(d, d, 2, rng), qu.channel_of_unitary(qu.haar_unitary(d, rng)),
                    qu.channel_of_isometry(qu.haar_isometry(2 * d, d, rng), 2),
                    qu.channel_of_isometry(qu.haar_isometry(d + 1, d, rng), 1)]
        for c in channels:
            tr = np.trace(c.choi).real
            purity = np.trace(c.choi @ c.choi).real / tr**2
            fused = np.einsum("ij,ji->", c.choi, c.choi).real / tr**2
            assert abs(fused - purity) <= 1e-12
            assert qu.is_pure_choi(c) == (purity >= 1 - qu.ROUND_ATOL)

    @pytest.mark.parametrize("loss, pure", [(0.9e-8, True), (1.1e-8, False)])
    def test_purity_threshold(self, loss, pure):
        # (1 - p) id + p X: orthogonal Choi vectors, purity 1 - 2p + 2p^2.
        p = (1 - np.sqrt(1 - 2 * loss)) / 2
        mixed = (1 - p) * qu.identity_channel(2).choi + p * qu.channel_of_unitary(Unitary(X)).choi
        c = Channel(2, 2, mixed)
        assert qu.is_pure_choi(c) == pure


class TestIsometryChannel:
    def test_identity_isometry_identity_channel(self):
        v = Isometry(np.eye(2, dtype=complex))
        c = qu.channel_of_isometry(v, 1)
        assert c.close_to(qu.identity_channel(2))

    def test_copy_isometry_dephasing(self):
        # V|i> = |i>|i>: rows are output-major over (B=2, E=2).
        v = np.zeros((4, 2), dtype=complex)
        v[0, 0] = 1.0  # |0>|0>
        v[3, 1] = 1.0  # |1>|1>
        c = qu.channel_of_isometry(Isometry(v), 2)
        assert c.close_to(qu.dephasing_channel(2))

    def test_matches_direct_partial_trace(self, rng):
        v = qu.haar_isometry(6, 3, rng)
        c = qu.channel_of_isometry(v, 2)
        direct = oracles.choi_by_action(
            lambda rho: oracles.channel_action_by_dilation(v.mat, 2, rho), 3, 3
        )
        assert np.max(np.abs(c.choi - direct)) < 1e-10

    def test_divisibility_error(self, rng):
        v = qu.haar_isometry(3, 2, rng)
        with pytest.raises(qu.DimensionError):
            qu.channel_of_isometry(v, 2)


class TestKraus:
    def test_identity_single_kraus(self):
        ks = qu.kraus_of_choi(qu.identity_channel(3))
        assert len(ks) == 1
        assert np.allclose(np.abs(ks[0]), np.eye(3), atol=1e-9)

    def test_dephasing_kraus_projectors(self):
        ks = qu.kraus_of_choi(qu.dephasing_channel(2))
        assert len(ks) == 2
        # Each Kraus is supported on one diagonal entry (up to phase/mixing
        # inside the degenerate eigenspace the off-diagonals stay zero).
        for k in ks:
            assert abs(k[0, 1]) < 1e-9 and abs(k[1, 0]) < 1e-9

    @pytest.mark.parametrize("ks, message", [
        ([], "empty Kraus list"),
        ([np.eye(2), np.eye(2, 3)], "Kraus operators must share one shape"),
    ], ids=["empty", "mixed-shapes"])
    def test_choi_of_kraus_refuses(self, ks, message):
        with pytest.raises(qu.NotAChannelError, match=f"^{message}$"):
            qu.choi_of_kraus(ks)

    def test_pauli_choi_pure(self):
        c = qu.choi_of_kraus([X])
        assert qu.is_pure_choi(c)
        assert abs(np.trace(c.choi) - 2) < 1e-9

    def test_roundtrip_random(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 4))
            c = qu.random_channel(d, d, 2, rng)
            back = qu.choi_of_kraus(qu.kraus_of_choi(c))
            assert back.close_to(c, qu.ROUND_ATOL)

    def test_count_equals_rank(self, rng):
        c = qu.random_channel(2, 2, 3, rng)
        assert len(qu.kraus_of_choi(c)) == qu.choi_rank(c)

    def test_matches_sum_of_outer_products(self, rng):
        for din, dout, k in [(2, 3, 1), (3, 2, 4), (1, 4, 2), (4, 1, 3), (2, 2, 4)]:
            c = qu.random_channel(din, dout, k, rng)
            ks = qu.kraus_of_choi(c)
            expected = np.zeros((din * dout, din * dout), dtype=complex)
            for m in ks:
                v = m.T.reshape(-1)
                expected += np.outer(v, v.conj())
            assert np.max(np.abs(qu.choi_of_kraus(ks).choi - expected)) <= 1e-12

    def test_tp_violation_rejected(self):
        with pytest.raises(qu.NotAChannelError):
            qu.choi_of_kraus([0.5 * np.eye(2, dtype=complex)])

    @pytest.mark.parametrize("delta", [5e-9, 1e-7])
    def test_incomplete_kraus_list_fails_the_tp_check(self, rng, delta):
        # Tr_out C is the conjugate of sum K^dag K, so the constructor's TP
        # check decides Kraus completeness.
        ks = qu.kraus_of_choi(qu.random_channel(2, 3, 2, rng))
        with pytest.raises(qu.NotAChannelError,
                           match="partial trace over output != identity within 1e-9"):
            qu.choi_of_kraus([np.sqrt(1 + delta) * k for k in ks])

    def test_non_finite_kraus_entry_rejected(self):
        k = np.eye(2, dtype=complex)
        k[0, 1] = np.nan
        with pytest.raises(qu.NotAChannelError, match="choi has a non-finite entry"):
            qu.choi_of_kraus([k])

    def test_unitary_mixing_keeps_choi(self, rng):
        # K'_i = sum_j u_ij K_j presents the same channel for any unitary u.
        for _ in range(100):
            d = int(rng.integers(2, 4))
            c = qu.random_channel(d, d, 2, rng)
            ks = qu.kraus_of_choi(c)
            u = qu.haar_unitary(len(ks), rng).mat
            mixed = [sum(u[i, j] * ks[j] for j in range(len(ks))) for i in range(len(ks))]
            assert qu.choi_of_kraus(mixed).close_to(c, qu.ROUND_ATOL)


class TestStinespring:
    def test_identity_minimal(self):
        v, r = qu.minimal_stinespring(qu.identity_channel(2))
        assert r == 1
        assert np.allclose(np.abs(v.mat.conj().T @ v.mat), np.eye(2), atol=1e-9)

    def test_dephasing_env_two(self):
        v, r = qu.minimal_stinespring(qu.dephasing_channel(2))
        assert r == 2
        assert qu.channel_of_isometry(v, r).close_to(qu.dephasing_channel(2), qu.ROUND_ATOL)

    def test_roundtrip_and_minimality(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            c = qu.random_channel(d, d, k, rng)
            v, r = qu.minimal_stinespring(c)
            assert r == qu.choi_rank(c)
            assert qu.channel_of_isometry(v, r).close_to(c, qu.ROUND_ATOL)


def negative_eigenvalue_identity(d=3):
    """The identity channel on C^d with 0.9e-9 moved from |01><01| and
    |02><02| of its Choi matrix to |00><00|: still trace preserving, with
    minimum eigenvalue -9e-10, so the constructor accepts it."""
    choi = qu.identity_channel(d).choi.copy()
    choi[0, 0] += 1.8e-9
    choi[1, 1] -= 0.9e-9
    choi[2, 2] -= 0.9e-9
    return Channel(d, d, choi)


class TestStinespringNearTheBoundary:
    def test_dropped_negative_eigenvalues_still_dilate(self):
        c = negative_eigenvalue_identity()
        assert -1e-9 <= np.linalg.eigvalsh(c.choi).min() < -8.9e-10
        v, r = qu.minimal_stinespring(c)
        assert r == qu.choi_rank(c) == 2
        assert np.max(np.abs(v.mat.conj().T @ v.mat - np.eye(3))) <= qu.ATOL
        assert qu.channel_of_isometry(v, r).close_to(c, qu.ROUND_ATOL)

    def test_accepted_kraus_stack_is_kept_as_is(self, rng):
        for _ in range(30):
            c = qu.random_channel(int(rng.integers(1, 4)), int(rng.integers(1, 4)), 2, rng)
            v, r = qu.minimal_stinespring(c)
            stack = np.stack(qu.kraus_of_choi(c), axis=1).reshape(c.dout * r, c.din)
            assert np.array_equal(v.mat, stack)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (6, 2), (4, 1), (24, 8)])
    def test_nearest_unitary_of_a_tall_matrix_is_an_isometry(self, rng, shape):
        m = qu.ginibre(*shape, rng)
        w = qu.nearest_unitary(m)
        assert w.shape == shape
        assert qu._close(w.conj().T @ w, np.eye(shape[1]), 1e-12)
        h = w.conj().T @ m  # the positive polar factor
        assert qu._close(h, h.conj().T, 1e-12) and np.linalg.eigvalsh(h).min() > 0


def _weyl_mixture(d, probs, rng):
    """The channel rho -> sum_i p_i K_i rho K_i^dag with K_i = U W_i V, where
    W_i = X^a Z^b runs over the Weyl operators on C^d and U, V are Haar
    unitaries.  The vec(K_i) are orthogonal with squared norm d, so the Choi
    eigenvalues are d * p_i (and zeros); probs[0] is raised to make the sum 1."""
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    ws = [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
          for a in range(d) for b in range(d)]
    u, v = qu.haar_unitary(d, rng).mat, qu.haar_unitary(d, rng).mat
    probs = [1 - sum(probs[1:])] + list(probs[1:])
    return qu.choi_of_kraus([np.sqrt(p) * u @ w @ v for p, w in zip(probs, ws)])


class TestKrausRoute:
    """kraus_of_choi takes a low-rank Choi matrix's Kraus operators from an
    accepted pivoted Cholesky factor, and every other one from eigh of H."""

    @pytest.mark.parametrize("small, rank", [
        ([0.98e-10], 1), ([1.02e-10], 2), ([1e-12], 1), ([0.98e-10, 1.02e-10, 1e-12], 2),
        ([1.0, 0.98e-10], 2), ([1.0, 1.02e-10, 1e-12], 3)])
    def test_rank_matches_eigvalsh_near_the_cutoff(self, rng, small, rank):
        for _ in range(5):
            c = _weyl_mixture(8, [None] + [w / 8 for w in small], rng)
            assert qu._low_rank_factor(c.choi) is not None
            ks = qu.kraus_of_choi(c)
            assert len(ks) == qu.choi_rank(c) == rank
            v, r = qu.minimal_stinespring(c)
            assert r == rank and v.mat.shape == (8 * rank, 8)

    @pytest.mark.parametrize("din, dout", [(8, 8), (8, 4), (2, 16), (4, 8), (3, 8)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_kraus_vectors_are_orthogonal_and_rebuild_the_choi(self, rng, din, dout, k):
        for _ in range(5):
            c = qu.random_channel(din, dout, k, rng)
            assert qu._low_rank_factor(c.choi) is not None
            ks = qu.kraus_of_choi(c)
            w = np.linalg.eigvalsh(c.choi)[::-1][: len(ks)]
            assert len(ks) == qu.choi_rank(c) == max(k, -(-din // dout))
            vecs = np.array([m.T.reshape(-1) for m in ks]).T  # vec(K_i) = columns
            assert np.max(np.abs(vecs.conj().T @ vecs - np.diag(w))) <= 1e-12
            assert np.max(np.abs(qu.choi_of_kraus(ks).choi - c.choi)) <= 1e-12
            v, r = qu.minimal_stinespring(c)
            assert np.array_equal(v.mat, np.stack(ks, axis=1).reshape(dout * r, din))

    def _eigh_cases(self, rng):
        """Choi matrices the route leaves to eigh of H: near-PSD (min eigenvalue
        -9e-10, where every factor misses the residual bound), full rank,
        rank 20, rank 9 above the d = 8 budget of 8 steps with a purity bound
        under it, and every shape with n < 24."""
        return ([negative_eigenvalue_identity(3), negative_eigenvalue_identity(8),
                 qu.random_channel(8, 8, 64, rng), qu.random_channel(8, 8, 20, rng),
                 _weyl_mixture(8, [None] + [1e-3] * 8, rng)]
                + [qu.random_channel(din, dout, k, rng)
                   for din, dout in [(2, 2), (3, 3), (4, 4), (2, 8), (8, 2), (4, 5), (3, 7)]
                   for k in (1, 2, 3)])

    def test_other_inputs_keep_the_full_eigh_bit_for_bit(self, rng):
        for c in self._eigh_cases(rng):
            assert qu._low_rank_factor(c.choi) is None
            ks = qu.kraus_of_choi(c)
            expected = oracles.kraus_by_full_eigh(c.choi, c.din, c.dout)
            assert len(ks) == len(expected)
            for k, e in zip(ks, expected):
                assert k.shape == e.shape and k.tobytes() == e.tobytes()

    def test_route_guard(self, rng, monkeypatch):
        # Neither route can be lost silently: a rank-2 d = 8 channel makes no
        # 64 x 64 eigh call, a full-rank one exactly one, and the purity bound
        # skips its Cholesky, so no residual norm is taken.
        low, full = qu.random_channel(8, 8, 2, rng), qu.random_channel(8, 8, 64, rng)
        calls = _record_factorisations(monkeypatch, ("eigh", "norm"))
        qu.kraus_of_choi(low)
        assert calls == [("norm", (64, 64)), ("eigh", (2, 2))]
        calls.clear()
        qu.kraus_of_choi(full)
        assert calls == [("eigh", (64, 64))]

    def test_kraus_factor_runs_no_cholesky_step(self, rng, monkeypatch):
        # The channel's own Kraus factor is the candidate; its JSON twin
        # carries none and takes the pivoted Cholesky.
        c = qu.random_channel(8, 8, 2, rng)
        twin = Channel.from_json(c.to_json())
        steps = []
        cholesky = qu._pivoted_cholesky
        monkeypatch.setattr(qu, "_pivoted_cholesky",
                            lambda h, *rest: steps.append(h.shape) or cholesky(h, *rest))
        ks = qu.kraus_of_choi(c)
        assert steps == []
        twin_ks = qu.kraus_of_choi(twin)
        assert steps == [(64, 64)]
        assert len(ks) == len(twin_ks) == qu.choi_rank(c) == 2
        assert np.max(np.abs(qu.choi_of_kraus(ks).choi - qu.choi_of_kraus(twin_ks).choi)) <= 1e-12


class TestPurity:
    def test_unitary_conjugation_pure(self, rng):
        u = qu.haar_unitary(3, rng)
        assert qu.is_pure_choi(qu.channel_of_unitary(u))

    def test_dephasing_impure(self):
        c = qu.dephasing_channel(2)
        tr = np.trace(c.choi).real
        purity = np.trace(c.choi @ c.choi).real / tr**2
        assert abs(purity - 0.5) < 1e-12
        assert not qu.is_pure_choi(c)

    def test_depolarizing_impure(self):
        for p in (0.1, 0.5, 1.0):
            assert not qu.is_pure_choi(qu.depolarizing_channel(2, p))

    def test_purity_tracks_effective_environment(self, rng):
        # A dilation with an effectively one-dimensional environment is pure.
        u = qu.haar_unitary(2, rng)
        v = np.zeros((4, 2), dtype=complex)
        v.reshape(2, 2, 2)[:, 0, :] = u.mat  # env always in state |0>
        c = qu.channel_of_isometry(Isometry(v), 2)
        assert qu.is_pure_choi(c)


class TestExtractUnitary:
    def test_pauli_x_exact(self):
        u = qu.extract_unitary(qu.choi_of_kraus([X]))
        assert np.allclose(u.mat, X, atol=1e-9)

    def test_global_phase_cancels(self, rng):
        u = qu.haar_unitary(2, rng)
        theta = 1.234
        c1 = qu.choi_of_kraus([u.mat])
        c2 = qu.choi_of_kraus([np.exp(1j * theta) * u.mat])
        e1 = qu.extract_unitary(c1)
        e2 = qu.extract_unitary(c2)
        assert np.max(np.abs(e1.mat - e2.mat)) < 1e-9

    def test_haar_roundtrip(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 5))
            u = qu.haar_unitary(d, rng)
            e = qu.extract_unitary(qu.channel_of_unitary(u))
            assert np.max(np.abs(e.mat - qu.phase_fix(u.mat))) <= 1e-8

    def test_rejects_rectangular(self, rng):
        v = qu.haar_isometry(3, 2, rng)
        c = qu.channel_of_isometry(v, 1)
        with pytest.raises(qu.DimensionError):
            qu.extract_unitary(c)

    def test_rejects_impure(self):
        with pytest.raises(qu.NotAChannelError):
            qu.extract_unitary(qu.dephasing_channel(2))

    # (2, 2) is all zeros: nonempty, but with no entry to take a phase from.
    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 0), (2, 2)])
    def test_phase_fix_of_an_empty_matrix(self, shape):
        m = np.zeros(shape, dtype=complex)
        assert qu.phase_fix(m) is m


class TestCompleteToUnitary:
    def test_identity(self):
        u = qu.complete_to_unitary(Isometry(np.eye(3, dtype=complex)))
        assert np.allclose(u.mat, np.eye(3))

    def test_first_basis_column(self):
        v = Isometry(np.eye(2, dtype=complex)[:, :1])
        u = qu.complete_to_unitary(v)
        assert np.allclose(u.mat, np.eye(2))

    def test_random_columns_preserved(self, rng):
        for _ in range(20):
            v = qu.haar_isometry(4, 2, rng)
            u = qu.complete_to_unitary(v)
            assert np.max(np.abs(u.mat[:, :2] - v.mat)) < 1e-12
            assert np.max(np.abs(u.mat.conj().T @ u.mat - np.eye(4))) < 1e-9

    def test_real_input_columns_preserved(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
        v = Isometry(q)  # real dtype
        u = qu.complete_to_unitary(v)
        assert np.max(np.abs(u.mat[:, :3] - q)) < 1e-12
        assert np.max(np.abs(u.mat.conj().T @ u.mat - np.eye(5))) < 1e-9

    def test_deterministic(self, rng):
        v = qu.haar_isometry(6, 2, rng)
        assert np.array_equal(qu.complete_to_unitary(v).mat,
                              qu.complete_to_unitary(v).mat)

    def test_no_input_columns(self):
        u = qu.complete_to_unitary(Isometry(np.zeros((3, 0), dtype=complex)))
        assert np.array_equal(u.mat, np.eye(3))

    @staticmethod
    def completion_isometries():
        rng = np.random.default_rng(19)
        yield from (qu.haar_isometry(r, c, rng) for r, c in
                    [(1, 1), (2, 1), (3, 2), (4, 4), (6, 2), (9, 3), (16, 5), (24, 8)])
        yield Isometry(np.linalg.qr(rng.standard_normal((5, 3)))[0])  # real dtype
        yield Isometry(np.zeros((3, 0), dtype=complex))  # cols = 0
        yield qu.haar_unitary(5, rng)  # cols = rows
        yield Isometry(np.zeros((0, 0), dtype=complex))
        yield Isometry(np.eye(4, dtype=complex)[:, [1, 3]])  # basis vectors in the span

    def test_against_gram_schmidt(self):
        # V is kept exactly, U is unitary, and the complement is the one the
        # Gram-Schmidt reference spans, as a projector.
        for v in self.completion_isometries():
            u = qu.complete_to_unitary(v).mat
            assert u.shape == (v.rows, v.rows)
            assert np.array_equal(u[:, : v.cols], v.mat)
            assert qu._close(u.conj().T @ u, np.eye(v.rows), 1e-12)
            ref = oracles.gram_schmidt_completion(v.mat)[:, v.cols:]
            rest = u[:, v.cols:]
            assert qu._close(rest @ rest.conj().T, ref @ ref.conj().T, 1e-12)


def _sample_channels(din, dout, rng):
    """Channels din -> dout from every family with that shape, rank 1 and
    full rank (din * dout) among them."""
    out = [qu.random_channel(din, dout, 1, rng),
           qu.random_channel(din, dout, din * dout, rng)]
    if dout >= din:
        out.append(qu.channel_of_isometry(qu.haar_isometry(dout, din, rng), 1))
    if din == dout:
        out += [qu.channel_of_unitary(qu.haar_unitary(din, rng)),
                qu.depolarizing_channel(din, 0.7), qu.dephasing_channel(din)]
    return out


class TestLinkProduct:
    """channel_compose and channel_tensor against the channel action."""

    @pytest.mark.parametrize("dims", [(2, 3, 1), (1, 4, 2), (3, 1, 3), (1, 1, 1),
                                      (2, 2, 2), (3, 2, 4)])
    def test_compose_matches_action(self, rng, dims):
        a, b, c = dims
        for f in _sample_channels(a, b, rng):
            for g in _sample_channels(b, c, rng):
                got = qu.channel_compose(g, f)
                assert (got.din, got.dout) == (a, c)
                expected = oracles.choi_by_action(lambda r: g.apply(f.apply(r)), a, c)
                assert np.max(np.abs(got.choi - expected)) <= 1e-12

    @pytest.mark.parametrize("shape_a, shape_b", [((2, 3), (1, 2)), ((1, 1), (3, 2)),
                                                  ((2, 2), (2, 2)), ((3, 1), (1, 4))])
    def test_tensor_matches_action(self, rng, shape_a, shape_b):
        for a in _sample_channels(*shape_a, rng):
            for b in _sample_channels(*shape_b, rng):
                got = qu.channel_tensor(a, b)
                assert (got.din, got.dout) == (a.din * b.din, a.dout * b.dout)
                expected = oracles.choi_by_action(
                    oracles.product_action(a.apply, a.din, b.apply, b.din),
                    got.din, got.dout)
                assert np.max(np.abs(got.choi - expected)) <= 1e-12


class TestComposeTensor:
    def test_identity_unit(self, rng):
        c = qu.random_channel(2, 2, 2, rng)
        assert qu.channel_compose(qu.identity_channel(2), c).close_to(c, qu.ATOL)
        assert qu.channel_compose(c, qu.identity_channel(2)).close_to(c, qu.ATOL)

    def test_tensor_of_unitaries_is_kron(self, rng):
        u1, u2 = qu.haar_unitary(2, rng), qu.haar_unitary(2, rng)
        lhs = qu.channel_tensor(qu.channel_of_unitary(u1), qu.channel_of_unitary(u2))
        rhs = qu.channel_of_unitary(Unitary(np.kron(u1.mat, u2.mat)))
        assert lhs.close_to(rhs, qu.ROUND_ATOL)

    def test_dephasing_idempotent(self):
        d = qu.dephasing_channel(2)
        assert qu.channel_compose(d, d).close_to(d, qu.ROUND_ATOL)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(qu.DimensionError):
            qu.channel_compose(qu.identity_channel(3), qu.identity_channel(2))


class TestSampling:
    def test_haar_unitary_is_unitary(self, rng):
        for d in (1, 2, 5):
            u = qu.haar_unitary(d, rng)
            assert np.max(np.abs(u.mat.conj().T @ u.mat - np.eye(d))) < 1e-12

    @pytest.mark.parametrize("din, dout", [(2, 0), (0, 2), (0, 0), (2, -1)])
    def test_random_channel_nonpositive_dimension_named(self, rng, din, dout):
        message = f"^din and dout must be positive, got din={din}, dout={dout}$"
        with pytest.raises(qu.DimensionError, match=message):
            qu.random_channel(din, dout, 2, rng)

    @pytest.mark.parametrize("din, dout, k", [(2, 2, 1), (3, 2, 2), (2, 3, 1), (4, 1, 3), (8, 8, 3)])
    def test_random_channel_is_the_normalised_draw(self, din, dout, k):
        # K S^(-1/2) with S = sum K^dag K, the same draws taken the long way.
        rng = np.random.default_rng(5)
        ks = [qu.ginibre(dout, din, rng) for _ in range(max(k, -(-din // dout)))]
        w, v = np.linalg.eigh(sum(m.conj().T @ m for m in ks))
        s_inv_sqrt = v @ np.diag(w ** -0.5) @ v.conj().T
        expected = qu.choi_of_kraus([m @ s_inv_sqrt for m in ks])
        assert qu.random_channel(din, dout, k, np.random.default_rng(5)).close_to(expected, 1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_channel_on_an_ill_conditioned_draw(self, monkeypatch, seed):
        # cond(G) = 1e4, so S = G^dag G has cond 1e8: normalising by S^(-1/2)
        # from eigh(S) missed trace preservation by up to 7.6e-9 on these seeds.
        rng = np.random.default_rng(seed)
        u, v = qu.haar_unitary(8, rng).mat, qu.haar_unitary(8, rng).mat
        g = u @ np.diag(np.geomspace(1, 1e-4, 8)) @ v.conj().T
        monkeypatch.setattr(qu, "ginibre", lambda rows, cols, rng: g)
        assert qu.random_channel(8, 8, 1, rng).din == 8

    def test_haar_determinism(self):
        u1 = qu.haar_unitary(3, np.random.default_rng(7))
        u2 = qu.haar_unitary(3, np.random.default_rng(7))
        assert np.array_equal(u1.mat, u2.mat)

    def test_eigenvalue_phases_cover_circle(self):
        # Crude Haar sanity check: mean eigenvalue phase over many samples is
        # near zero (QR without phase correction would bias it).
        rng = np.random.default_rng(99)
        phases = []
        for _ in range(200):
            u = qu.haar_unitary(2, rng)
            phases.extend(np.angle(np.linalg.eigvals(u.mat)))
        assert abs(np.mean(phases)) < 0.2


class TestJson:
    def test_matrix_roundtrip(self, rng):
        m = qu.ginibre(2, 3, rng)
        back = qu.matrix_from_json(qu.matrix_to_json(m))
        assert np.array_equal(m, back)

    def test_channel_roundtrip(self, rng):
        c = qu.random_channel(2, 2, 2, rng)
        assert Channel.from_json(c.to_json()).close_to(c, 0.0)

    @pytest.mark.parametrize("m", [
        np.array([[1 + 2j, -0.0 - 0.0j], [1e-300, -1e-300j]]),
        np.array([[0.5, -0.0], [1e-300, 3.0]]),
        np.arange(6).reshape(2, 3),
        np.arange(12, dtype=complex).reshape(3, 4)[::2, 1::2].T,  # not contiguous
        np.array([[1 + 1j, 2], [3, -4j]], dtype=np.complex64),
        np.zeros((0, 3), dtype=complex), np.zeros((2, 0)),
    ], ids=["complex", "real", "int", "strided", "complex64", "no-rows", "no-cols"])
    def test_matrix_json_is_the_entrywise_json(self, m):
        got = qu.matrix_to_json(m)
        want = {"rows": m.shape[0], "cols": m.shape[1],
                "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}
        assert got == want and json.dumps(got) == json.dumps(want)
        assert all(type(x) is float for pair in got["entries"] for x in pair)

    @pytest.mark.parametrize("entries", [[5], 5, [[1, 0, 0]], [["1", 0]], [[None, 0]]])
    def test_bad_matrix_entries_named(self, entries):
        data = {"rows": 1, "cols": 1, "entries": entries}
        with pytest.raises(ValueError, match=r"^entries must be a list of \[re, im\] pairs$"):
            qu.matrix_from_json(data)
