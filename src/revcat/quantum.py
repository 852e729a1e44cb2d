"""Finite-dimensional quantum morphisms: unitaries, isometries, channels.

Channels are stored as Choi matrices with the input factor first:

    C = sum_{ij} |i><j| (x) L(|i><j|)

so C reshaped to (din, dout, din, dout) has C[i, m, j, n] = <m| L(|i><j|) |n>.
Trace preservation reads Tr_out C = I_din.

The channel algebra works on Choi matrices directly: composition is the link
product (Chiribella, D'Ariano and Perinotti, "Theoretical framework for
quantum networks", PRA 80 022339, 2009), a contraction over the middle
factor, and the tensor product is an index-permuted kron.  ``Channel._validate``
is the one place where a channel's properties are decided: every library
constructor hands it the raw Choi matrix, unsymmetrised, and it validates
that matrix in full, except that ``channel_tensor`` also hands it the two
factors, whose spectra then decide PSD (below).

Tolerances: 1e-9 for structural invariants (unitarity, TP, Hermiticity),
1e-8 for round trips through two eigendecompositions, 1e-10 as the rank
cutoff on Choi eigenvalues; a structural check bounds the largest entrywise
deviation.  ``ATOL``, ``ROUND_ATOL`` and ``RANK_CUTOFF`` are defined in the
numpy-free ``classical`` module, so that the classical half reads them
without loading numpy, and re-exported here.  A Channel's Choi matrix must be
finite, Hermitian within 1e-9, PSD (min eigenvalue >= -1e-9) and TP within
1e-9, and the first of these it fails names the error.  One reduction
decides each property:

- finite and Hermitian: r = max |C - C^dag|.  A NaN or inf entry makes r NaN
  or inf, so only when r fails the bound is C searched for a non-finite
  entry, which is reported before the Hermitian failure;
- PSD: a Cholesky factorisation of C + (ATOL / 2) I, formed as a copy of C
  with its diagonal shifted, whose backward error O(n eps |C|) (Higham,
  "Accuracy and Stability of Numerical Algorithms", ch. 10) is far below
  ATOL / 2; when it fails, eigvalsh decides as the rule states.  The Choi
  matrix of a (x) b is a simultaneous row and column permutation of
  kron(A, B), whose eigenvalues are the products alpha * beta (Horn and
  Johnson, "Topics in Matrix Analysis", Thm 4.2.12), so ``channel_tensor``
  takes eigvalsh of the two factors and the least product of their extreme
  eigenvalues is the min eigenvalue the rule bounds.  Each product entry is
  one rounded multiplication, which moves the eigenvalues by about 1e-14,
  far below ATOL.  A factor may itself have eigenvalues down to -1e-9, and
  the product can cross the bound: depolarizing_channel(2, -8e-10) (x)
  identity_channel(4) has min eigenvalue -4e-10 * 4 and is rejected;
- TP: max |Tr_out C - I|, with I subtracted from the diagonal in place.

An Isometry is decided the same way by max |V^dag V - I|: a non-finite entry
makes it NaN or inf and is reported before the V^dag V failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .classical import ATOL, RANK_CUTOFF, ROUND_ATOL, json_field, json_int


class DimensionError(ValueError):
    pass


class NotAnIsometryError(ValueError):
    pass


class NotAChannelError(ValueError):
    pass


def _dag(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def _close(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """max |a - b| <= atol, and True on empty arrays."""
    return a.size == 0 or bool(np.max(np.abs(a - b)) <= atol)


def _off_identity(m: np.ndarray) -> float:
    """max |M - I| of a square M, whose diagonal it shifts in place (so M must
    be a fresh array); 0 when M is empty."""
    m.flat[:: len(m) + 1] -= 1
    return np.max(np.abs(m)) if m.size else 0.0


# A non-finite entry makes these residuals NaN or inf, which fail every bound;
# the inf - inf or inf * 0 on the way is that verdict, not a warning.  So is
# the overflow to inf of a finite entry too large to square or to subtract.
@np.errstate(invalid="ignore", over="ignore")
def _hermitian_residual(c: np.ndarray) -> float:
    """max |C - C^dag|, taken over its entrywise conjugate conj(C) - C^T,
    which needs one temporary."""
    d = np.conjugate(c)  # a new array even when C is real, unlike c.conj()
    d -= c.T
    return np.max(np.abs(d))


@np.errstate(invalid="ignore", over="ignore")
def _gram_residual(v: np.ndarray) -> float:
    """max |V^dag V - I|."""
    return _off_identity(_dag(v) @ v)


def _require_finite(m: np.ndarray, field: str, error: type) -> None:
    if not np.all(np.isfinite(m)):
        raise error(f"{field} has a non-finite entry (NaN or inf)")


def matrix_to_json(m: np.ndarray) -> dict:
    r, c = m.shape
    return {
        "rows": r,
        "cols": c,
        "entries": np.ascontiguousarray(m, dtype=complex).view(float).reshape(-1, 2).tolist(),
    }


def matrix_from_json(data: dict, where: str = "matrix") -> np.ndarray:
    """The matrix in the JSON object data; a ValueError names a bad field
    (where is the name of data itself)."""
    r, c = (json_int(json_field(data, key, where), key) for key in ("rows", "cols"))
    if r < 0 or c < 0:
        raise ValueError(f"rows and cols must be nonnegative, got rows={r}, cols={c}")
    pairs = json_field(data, "entries", where)
    try:
        if not isinstance(pairs, list):
            raise TypeError
        flat = np.array([complex(re, im) for re, im in pairs], dtype=complex)
        if bool in map(type, chain.from_iterable(pairs)):
            raise TypeError  # complex() reads true as 1
    except (TypeError, ValueError, OverflowError):  # overflow: an int too large for a float
        raise ValueError("entries must be a list of [re, im] pairs") from None
    if flat.size != r * c:
        raise ValueError(f"expected {r * c} entries, got {flat.size}")
    return flat.reshape(r, c)


@dataclass(frozen=True, eq=False)
class Isometry:
    """V with V^dag V = I; rows may carry a (dout, env) factorization."""

    mat: np.ndarray
    _noun, _letter = "isometry", "V"  # how the validation errors name the class

    def __post_init__(self) -> None:
        if self.mat.ndim != 2:
            raise NotAnIsometryError(f"{self._noun} matrix must be 2-D, got shape {self.mat.shape}")
        r, c = self.mat.shape
        if r < c:
            raise NotAnIsometryError(f"isometry needs rows >= cols, got {r}x{c}")
        if not _gram_residual(self.mat) <= ATOL:
            _require_finite(self.mat, f"{self._noun} matrix", NotAnIsometryError)
            raise NotAnIsometryError(f"{self._letter}^dag {self._letter} != I within 1e-9")

    @property
    def rows(self) -> int:
        return self.mat.shape[0]

    @property
    def cols(self) -> int:
        return self.mat.shape[1]

    def close_to(self, other: "Isometry", atol: float = ATOL) -> bool:
        return self.mat.shape == other.mat.shape and _close(self.mat, other.mat, atol)

    def to_json(self) -> dict:
        return matrix_to_json(self.mat)


@dataclass(frozen=True, eq=False)
class Unitary(Isometry):
    """A square isometry U, so U^dag U = I = U U^dag."""

    _noun, _letter = "unitary", "U"

    def __post_init__(self) -> None:
        if self.mat.ndim == 2 and self.mat.shape[0] != self.mat.shape[1]:
            raise NotAnIsometryError("unitary must be square, got {}x{}".format(*self.mat.shape))
        super().__post_init__()

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class Channel:
    """A CPTP map din -> dout as a Choi matrix (input factor first)."""

    din: int
    dout: int
    choi: np.ndarray

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self, factors: tuple[Channel, Channel] | None = None) -> None:
        """Decide each property of the Choi matrix, in the order of the module
        docstring.  factors, passed only by channel_tensor, are the channels
        whose product this is: their spectra then decide PSD."""
        if self.din < 1 or self.dout < 1:
            raise NotAChannelError(
                f"din and dout must be positive, got din={self.din}, dout={self.dout}"
            )
        n = self.din * self.dout
        if self.choi.shape != (n, n):
            raise NotAChannelError(f"choi must be {n}x{n}, got {self.choi.shape}")
        if not _hermitian_residual(self.choi) <= ATOL:
            _require_finite(self.choi, "choi", NotAChannelError)
            raise NotAChannelError("choi not Hermitian within 1e-9")
        min_eig = None
        if factors:
            min_eig = _product_min_eig(*factors)
        else:
            shifted = self.choi.astype(np.result_type(self.choi, float))  # C + (ATOL / 2) I
            shifted.flat[:: n + 1] += ATOL / 2
            try:  # succeeds only if the min eigenvalue is above -ATOL
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                min_eig = np.linalg.eigvalsh(self.choi).min()
        if min_eig is not None and min_eig < -ATOL:
            raise NotAChannelError(f"choi not PSD: min eigenvalue {min_eig:.2e}")
        if not _off_identity(np.einsum("imjm->ij", self.blocks())) <= ATOL:
            raise NotAChannelError("partial trace over output != identity within 1e-9")

    def blocks(self) -> np.ndarray:
        return self.choi.reshape(self.din, self.dout, self.din, self.dout)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The action on a din x din operator."""
        if rho.shape != (self.din, self.din):
            raise DimensionError(f"state must be {self.din}x{self.din}")
        return np.einsum("ij,imjn->mn", rho, self.blocks())

    def close_to(self, other: "Channel", atol: float = ATOL) -> bool:
        return (
            self.din == other.din
            and self.dout == other.dout
            and _close(self.choi, other.choi, atol)
        )

    def to_json(self) -> dict:
        return {"din": self.din, "dout": self.dout, "choi": matrix_to_json(self.choi)}

    @classmethod
    def from_json(cls, data: dict) -> "Channel":
        din, dout = (json_int(json_field(data, k, "channel"), k) for k in ("din", "dout"))
        return cls(din, dout, matrix_from_json(json_field(data, "choi", "channel"), "choi"))


# -- constructors -------------------------------------------------------------

def choi_of_kraus(ks: list[np.ndarray]) -> Channel:
    """Assemble the Choi matrix of rho -> sum_k K rho K^dag.

    Tr_out C is the entrywise conjugate of sum_k K^dag K, so the constructor's
    trace-preservation check is the Kraus completeness check: a list that is
    not complete within 1e-9 raises NotAChannelError from there.
    """
    if not ks:
        raise NotAChannelError("empty Kraus list")
    dout, din = ks[0].shape
    for k in ks:
        if k.shape != (dout, din):
            raise NotAChannelError("Kraus operators must share one shape")
    stacked = np.asarray(ks, dtype=complex)  # stacked[k, m, i] = K_k[m, i]
    # C = V V^dag, where column k of V is vec(K_k)[i*dout + m] = K_k[m, i].
    v = stacked.transpose(0, 2, 1).reshape(len(ks), din * dout).T
    return Channel(din, dout, v @ _dag(v))


def kraus_of_choi(c: Channel) -> list[np.ndarray]:
    """Kraus operators from the eigenpairs of the Choi matrix above RANK_CUTOFF."""
    w, vecs = np.linalg.eigh(c.choi)
    ks = []
    for i in range(len(w) - 1, -1, -1):  # largest eigenvalue first
        if w[i] > RANK_CUTOFF:
            v = vecs[:, i] * np.sqrt(w[i])
            ks.append(v.reshape(c.din, c.dout).T)
    return ks


def choi_rank(c: Channel) -> int:
    return int(np.sum(np.linalg.eigvalsh(c.choi) > RANK_CUTOFF))


def channel_of_isometry(v: Isometry, env_dim: int) -> Channel:
    """The channel rho -> Tr_env(V rho V^dag), output factor first in rows."""
    if env_dim <= 0 or v.rows % env_dim != 0:
        raise DimensionError(f"rows {v.rows} not divisible by env dim {env_dim}")
    # Kraus operator e is the block of rows m * env_dim + e.
    return choi_of_kraus(list(v.mat.reshape(v.rows // env_dim, env_dim, v.cols).transpose(1, 0, 2)))


def channel_of_unitary(u: Unitary) -> Channel:
    return choi_of_kraus([u.mat])


def minimal_stinespring(c: Channel) -> tuple[Isometry, int]:
    """An isometry din -> dout * r with r the Choi rank; minimal dilation, made
    V (V^dag V)^(-1/2) if the dropped eigenvalues (>= -1e-9) leave V^dag V != I."""
    ks = kraus_of_choi(c)
    r = len(ks)
    v = np.stack(ks, axis=1).reshape(c.dout * r, c.din)
    try:
        return Isometry(v), r
    except NotAnIsometryError:
        return Isometry(nearest_unitary(v)), r


def is_pure_choi(c: Channel) -> bool:
    """True iff the normalized Choi matrix is a rank-one projector, within
    ROUND_ATOL on the purity."""
    tr = np.trace(c.choi).real
    purity = np.einsum("ij,ji->", c.choi, c.choi).real / tr**2  # Tr(C C) in O(n^2)
    return purity >= 1 - ROUND_ATOL


def phase_fix(m: np.ndarray) -> np.ndarray:
    """Scale by a unit phase so the largest-modulus entry (first in row-major
    order among ties) is real positive."""
    if m.size == 0:
        return m
    flat = m.reshape(-1)
    mags = np.abs(flat)
    top = mags.max()
    idx = int(np.argmax(mags >= top - 1e-12))
    z = flat[idx]
    if abs(z) == 0:
        return m
    return m * (z.conj() / abs(z))


def reversible_core(c: Channel) -> Unitary | str:
    """The phase-fixed unitary whose conjugation is c, or why there is none.

    The reason is "dimension mismatch", "choi impure", or "not unitary" (the
    top Kraus operator fails unitarity, or conjugation by its polar part does
    not reproduce c within 1e-8).
    """
    if c.din != c.dout:
        return "dimension mismatch"
    if not is_pure_choi(c):
        return "choi impure"
    k = kraus_of_choi(c)[0]
    if not _off_identity(_dag(k) @ k) <= ROUND_ATOL:
        return "not unitary"
    u = Unitary(phase_fix(nearest_unitary(k)))
    if not channel_of_unitary(u).close_to(c, ROUND_ATOL):
        return "not unitary"
    return u


def extract_unitary(c: Channel) -> Unitary:
    """Recover the phase-fixed unitary from a pure, square Choi matrix."""
    core = reversible_core(c)
    if core == "dimension mismatch":
        raise DimensionError("a reversible channel must have equal dimensions")
    if isinstance(core, str):
        raise NotAChannelError(f"{core}: channel is not a unitary conjugation")
    return core


def nearest_unitary(m: np.ndarray) -> np.ndarray:
    """The polar factor W X^dag of the thin SVD W S X^dag of a square or tall
    m: the nearest unitary, or isometry, to m."""
    w, _, xh = np.linalg.svd(m, full_matrices=False)
    return w @ xh


def complete_to_unitary(v: Isometry) -> Unitary:
    """Extend the columns of V to an orthonormal basis: the Householder QR of
    [V | I] (Golub and Van Loan, "Matrix Computations", 5.2), whose first
    cols columns of Q span V's columns, so the rest span their complement;
    those first columns are then set to V itself."""
    u = np.linalg.qr(np.hstack([v.mat, np.eye(v.rows)]).astype(complex))[0]
    u[:, : v.cols] = v.mat
    return Unitary(u)


def channel_compose(g: Channel, f: Channel) -> Channel:
    """The composite channel g after f, as the link product of the Choi
    matrices: C[i, n, j, l] = sum_{m, k} F[i, m, j, k] G[m, n, k, l]."""
    if f.dout != g.din:
        raise DimensionError(f"cannot compose: dout {f.dout} != din {g.din}")
    c = np.tensordot(f.blocks(), g.blocks(), axes=([1, 3], [0, 2]))  # [i, j, n, l]
    n = f.din * g.dout
    choi = c.transpose(0, 2, 1, 3).reshape(n, n)
    return Channel(f.din, g.dout, choi)


def channel_tensor(a: Channel, b: Channel) -> Channel:
    """The parallel channel a (x) b: an index-permuted kron of the Choi
    matrices, with input factors before output factors."""
    din, dout = a.din * b.din, a.dout * b.dout
    c = np.einsum("imjn,akbl->iamkjbnl", a.blocks(), b.blocks())
    product = object.__new__(Channel)  # validated below, with its factors
    vars(product).update(din=din, dout=dout, choi=c.reshape(din * dout, din * dout))
    product._validate(factors=(a, b))
    return product


def _product_min_eig(a: Channel, b: Channel) -> float:
    """The min eigenvalue of a (x) b's Choi matrix: the least product of the
    factors' extreme eigenvalues (see the module docstring)."""
    ea, eb = np.linalg.eigvalsh(a.choi), np.linalg.eigvalsh(b.choi)
    return min(x * y for x in (ea[0], ea[-1]) for y in (eb[0], eb[-1]))


def identity_channel(d: int) -> Channel:
    return choi_of_kraus([np.eye(d, dtype=complex)])


def dephasing_channel(d: int = 2) -> Channel:
    """The completely dephasing channel in the standard basis."""
    return choi_of_kraus([np.diag(row) for row in np.eye(d, dtype=complex)])


def depolarizing_channel(d: int = 2, p: float = 0.5) -> Channel:
    """rho -> (1-p) rho + p Tr(rho) I/d."""
    rep = np.eye(d * d, dtype=complex) / d  # Choi of rho -> Tr(rho) I/d
    return Channel(d, d, (1 - p) * identity_channel(d).choi + p * rep)


# -- random sampling ----------------------------------------------------------

def ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def haar_unitary(d: int, rng: np.random.Generator) -> Unitary:
    """Haar-distributed unitary: QR of a Ginibre matrix with the R-diagonal
    phase correction (plain QR is not Haar)."""
    z = ginibre(d, d, rng)
    q, r = np.linalg.qr(z)
    ph = np.diag(r) / np.abs(np.diag(r))
    return Unitary(q * ph)


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> Isometry:
    """First cols columns of a Haar unitary on rows dimensions."""
    if cols > rows:
        raise DimensionError(f"an isometry needs cols {cols} <= rows {rows}")
    u = haar_unitary(rows, rng)
    return Isometry(u.mat[:, :cols])


def random_channel(din: int, dout: int, k: int, rng: np.random.Generator) -> Channel:
    """Random full-support CPTP map: k Ginibre Kraus candidates normalized by
    S^{-1/2} with S = sum K^dag K.

    Trace preservation needs S invertible, so k is raised until k * dout >= din.
    """
    if din < 1 or dout < 1:
        raise DimensionError(f"din and dout must be positive, got din={din}, dout={dout}")
    k = max(k, -(-din // dout))
    ks = [ginibre(dout, din, rng) for _ in range(k)]
    s = sum(_dag(m) @ m for m in ks)
    w, v = np.linalg.eigh(s)
    s_inv_sqrt = v @ np.diag(1 / np.sqrt(w)) @ _dag(v)
    return choi_of_kraus([m @ s_inv_sqrt for m in ks])
