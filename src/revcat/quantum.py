"""Finite-dimensional quantum morphisms: unitaries, isometries, channels.

Channels are stored as Choi matrices with the input factor first:

    C = sum_{ij} |i><j| (x) L(|i><j|)

so C reshaped to (din, dout, din, dout) has C[i, m, j, n] = <m| L(|i><j|) |n>.
Trace preservation reads Tr_out C = I_din.  Composition is the link product
(Chiribella, D'Ariano and Perinotti, "Theoretical framework for quantum
networks", PRA 80 022339, 2009), a contraction over the middle factor, unless
both channels carry a Kraus factor (below); the tensor product is an
index-permuted kron.

Tolerances (defined in ``classical``, re-exported here): 1e-9 for structural
invariants (unitarity, TP, Hermiticity), 1e-8 for round trips through two
eigendecompositions, 1e-10 as the rank cutoff on Choi eigenvalues; a
structural check bounds the largest entrywise deviation.

Validation.  ``Channel._validate`` is the one place where a channel's
properties are decided.  ``Channel(...)`` and ``from_json`` hand it the
caller's matrix, and take no argument that skips a check.  ``choi_of_kraus``
and ``channel_compose`` hand it the raw Choi matrix, unsymmetrised, and
``channel_tensor`` a product of two stored matrices, each with the floor its
construction proves, through ``_owned`` (the same checks, without the
defensive copy).  In this order, the first failure naming the error: din and
dout are positive integers (``operator.index`` must accept them, so a numpy
integer passes, and is stored as an int); the Choi matrix is n x n for
n = din dout, finite, Hermitian within 1e-9, PSD (min eigenvalue >= -1e-9)
and TP within 1e-9.  One reduction decides each property:

- finite and Hermitian: r = max |C - C^dag|.  A NaN or inf entry makes r NaN
  or inf, so only when r fails the bound is C searched for a non-finite
  entry, which is reported before the Hermitian failure.  Once r passes, the
  Channel stores the Hermitian part H = C/2 + C^dag/2, C-contiguous and
  read-only (the caller's array is not touched), and PSD and TP are decided
  on H.  H is exactly Hermitian in floating point: the sums H[i, j] and
  conj(H[j, i]) add the same two halves (addition commutes and conjugation
  is exact), and round-to-nearest is symmetric under sign.  Halving each
  term before the sum keeps every entry finite, and equals (C + C^dag)/2 bit
  for bit above the subnormal range, so a stored H passed to ``Channel``
  again is stored unchanged.  The product that ``channel_tensor`` builds from
  two stored matrices is exactly Hermitian as well, since an entry and its
  mirror are single complex products of conjugate pairs, rounded alike, and
  finite, as products of validated entries; so it is stored as built;
- PSD: every Channel carries a private floor f, a bound lambda_min(H) >= -f.
  When f <= ATOL / 2, H is PSD by the rule and no check runs.  Otherwise
  the check decides, and the channel keeps f = ATOL; ``Channel(...)`` and
  ``from_json`` always start from f = ATOL, so outside input is always
  checked.  The check is a Cholesky factorisation of H + (ATOL / 2) I, whose
  backward error O(n eps |H|) (Higham, "Accuracy and Stability of Numerical
  Algorithms", ch. 10) is far below ATOL / 2; when it fails, eigvalsh
  decides as the rule states.  So a certified channel is one the check would
  accept, and every verdict and message is the check's on the stored matrix,
  whatever built it: ``channel_tensor`` and ``Channel(...)`` agree on a
  product.  The PSD bound is not closed under the operations: a factor may
  itself have eigenvalues down to -1e-9, and the product can cross the
  bound, so depolarizing_channel(2, -8e-10) (x) identity_channel(4), with min
  eigenvalue -4e-10 * 4, is rejected;
- TP: max |Tr_out H - I|, with I subtracted from the diagonal in place.
  The TP bound is not closed under the operations either.  A channel's
  Tr_out may be I + E with |E| up to 1e-9; the tensor product's is
  (I + E) (x) (I + E'), and the composite's deviation is E_f plus f's
  adjoint applied to E_g, so the deviations add.  depolarizing_channel(2, 0.3)
  with 9e-10 added to one Choi diagonal entry is a valid channel, but
  channel_tensor and channel_compose of it with itself are both rejected
  with "partial trace over output != identity within 1e-9".

An Isometry is decided the same way by max |V^dag V - I|: a non-finite entry
makes it NaN or inf and is reported before the V^dag V failure.  It stores
its matrix as a C-contiguous, read-only copy; one the library has just
allocated goes through ``_owned``, checked alike, without the copy.  Other
modules compare matrices only through ``close_to``.

The floors.  Stinespring ("Positive functions on C*-algebras", Proc. AMS
1955): C = V V^dag is PSD, and so are tensor and link products of PSD
matrices; the floors bound how far rounding, and the operands' own floors,
move the stored H from that.  u = 2^-53 is the unit roundoff and c = 2.
Higham (ch. 3, complex arithmetic in 3.6): an entry that is a sum of m
complex products is off by at most gamma_{m+2} = (m + 2) u / (1 - (m + 2) u)
times the same sum of their moduli, and one complex product (m = 1) by
sqrt(2) gamma_2 < gamma_3; the Hermitian step rounds each entry once more,
by u times its modulus.  An error matrix E with |E| <= e w w^T entrywise has
||E||_2 <= e ||w||^2, and by Weyl's inequality lambda_min moves by at most
||E||_2.

- ``choi_of_kraus`` (V is n x k): f = c (k + 2) u ||V||_F^2.  Each entry of
  V V^dag sums k products, so |H - V V^dag| <= (gamma_{k+2} + u (1 +
  gamma_{k+2})) |V| |V|^T, with w the row norms of V, ||w||^2 = ||V||_F^2.
- ``channel_tensor`` (m = 1) and the link product of ``channel_compose``
  (m = d_mid^2, the contraction length) of channels a and b, with T = Tr H +
  n f of each:

      f = f_a T_b + f_b T_a + c (m + 2) u T_a T_b.

  The eigenvalues of each operand lie in [-f, T] (the largest is at most the
  trace plus n - 1 times f).  A tensor product's are the products of the
  factors', none below -(f_a T_b + f_b T_a).  For the link product, P = A +
  f_a I and Q = B + f_b I are PSD, and link(A, B) = link(P, Q) - f_b link(P,
  I) - f_a link(I, Q) + f_a f_b d_mid I, where link(P, Q) is PSD and
  link(P, I) = Tr_mid P (x) I and link(I, Q) = I (x) Tr_mid Q have top
  eigenvalues at most Tr P = T_a and Tr Q = T_b.  For the rounding, A + f_a I
  PSD gives |A_xy| <= sqrt((A_xx + f_a)(A_yy + f_a)) = s_x s_y with sum_x
  s_x^2 = T_a, and likewise t for B; the sum of moduli of an entry is then at
  most w_x w_y, with w the products s_x t_y (tensor) or w_in = sum_m s_im t_mn
  (link), and ||w||^2 <= T_a T_b by Cauchy-Schwarz.  A composite takes the
  Hermitian step, a product does not.
- The constant: gamma_{m+2} + u (1 + gamma_{m+2}) is below (4/3)(1 + 1e-6)
  (m + 2) u for m >= 1 and (m + 2) u <= 1e-7, and c = 2 leaves the rest for
  computing ||V||_F^2, the traces and f in floating point (n u <= 1e-7).
  Every floor is at least f_a T_b with T_b >= Tr H_b >= 1 - 1e-9 (a channel
  is TP), so an operand with f = ATOL certifies no product.  Along a chain
  of link products of d x d channels (T about d) f grows about d-fold a
  link, and passes ATOL / 2 after 16 links at d = 2, 8 at d = 4 and 3 at
  d = 16; from there on the check runs.

Kraus factor.  A channel built from Kraus operators is what is left of the
isometry V that stacks them once the environment is traced out (Stinespring),
and it keeps V: a private, read-only n x k matrix ``_kraus``, with the stored
H the Hermitian step of V V^dag.  Only ``choi_of_kraus``, which copies the
caller's operators so that V and H cannot drift apart, and
``channel_compose`` set it.  A channel from JSON (every CLI input), from
``channel_tensor`` or from ``Channel(...)`` (to hold exact entries, say
dyadic ones, which the link product keeps exact) carries none, and composes
by the link product.  When both operands of ``channel_compose`` carry a
factor and k_f k_g <= d_mid^2, the contraction length m of the link product,
one tensordot over the middle index gives the composite's Kraus vectors W,
the vec of each L_b K_a, and the composite is built from W as
``choi_of_kraus`` builds its own, with the floor c (k + 2) u ||W||_F^2.  That
floor bounds the rounding of W W^dag and of the Hermitian step, not W's own
rounding, which cannot make W W^dag less than PSD; so it does not grow along
a chain, as the link product's does: ||W||_F^2 is about Tr H = din and
k <= d_mid^2.  The width bound caps the work at the link product's and keeps
the factor from doubling link after link; past it the link product runs and
its result carries no factor.

Kraus route.  ``kraus_of_choi`` (and so ``minimal_stinespring`` and
``reversible_core``) needs the eigenpairs of H above RANK_CUTOFF, and the
channels it serves mostly have Kraus rank 1-3.  For n >= 24 its candidate
factor L (n x k) is the channel's Kraus factor when that has at most n // 8
columns.  A channel without one, or with a wider one, runs a pivoted
Cholesky of H instead (Higham, "Analysis of the Cholesky decomposition of a
semi-definite matrix", 1990), with a budget of n // 8 steps, each O(n k),
skipped when the purity bound Tr(H)^2 / Tr(H^2) <= rank already exceeds the
budget.  Either candidate is accepted only if ||H - L L^dag||_F <=
RANK_CUTOFF / 100 = 1e-12.  Then H's eigenpairs above the cutoff are those of
L L^dag: eigh of the k x k Gram matrix L^dag L = W diag(w) W^dag gives the
eigenvalues w, and the columns of L W are the Kraus vectors sqrt(w) u, with no
division.  By Weyl's inequality each eigenvalue of L L^dag is within 1e-12 of
H's, so the rank matches eigh of H except for eigenvalues within 1e-12 of the
cutoff.  H with an eigenvalue below -1e-12 always fails the residual (L L^dag
is PSD), so near-PSD inputs, like inputs of high rank, of n < 24, or whose
factor misses the bound, take eigh of H.  A Kraus operator from either
factor may differ by a phase from the one eigh of H gives.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .classical import ATOL, RANK_CUTOFF, ROUND_ATOL, json_field, json_int

# The unit roundoff u of a double and the constant c of the floors (module docstring).
_U, _C = np.finfo(float).eps / 2, 2


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
def _hermitian_residual(c: np.ndarray, c_dag: np.ndarray) -> float:
    """max |C - C^dag|, given C^dag."""
    return np.abs(c_dag - c).max()


@np.errstate(invalid="ignore", over="ignore")
def _gram_residual(v: np.ndarray) -> float:
    """max |V^dag V - I|."""
    return _off_identity(_dag(v) @ v)


def _cholesky_certifies(h: np.ndarray) -> bool:
    """Whether H + (ATOL / 2) I has a Cholesky factorisation, which holds only
    if H's min eigenvalue is above -ATOL.  numpy factorises a copy, so H's
    diagonal is shifted in place for the call and then restored."""
    diagonal = h.diagonal().copy()
    h.flat[:: len(h) + 1] += ATOL / 2
    try:
        np.linalg.cholesky(h)
        return True
    except np.linalg.LinAlgError:
        return False
    finally:
        h.flat[:: len(h) + 1] = diagonal


def _owned(cls, fields: dict, **checks):
    """cls around fields, whose arrays the library has just allocated and
    holds nowhere else: the public constructor's checks, given the private
    arguments checks, without its defensive copy."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    obj._validate(**checks)
    return obj


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
        object.__setattr__(self, "mat", self.mat.copy())  # C order; the caller's stays its own
        self._validate()

    def _validate(self) -> None:
        self.mat.setflags(write=False)
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
    __post_init__ = Isometry.__post_init__  # the class's own entry, which perfbench traces

    def _validate(self) -> None:
        if self.mat.ndim == 2 and self.mat.shape[0] != self.mat.shape[1]:
            raise NotAnIsometryError("unitary must be square, got {}x{}".format(*self.mat.shape))
        super()._validate()

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class Channel:
    """A CPTP map din -> dout as a Choi matrix (input factor first)."""

    din: int
    dout: int
    choi: np.ndarray
    _floor = ATOL  # lambda_min(choi) >= -_floor; certifies PSD when at most ATOL / 2
    _kraus = None  # V (n x k), read-only, with choi the Hermitian step of V V^dag

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self, floor: float = ATOL, hermitian: bool = False) -> None:
        """Decide each property of the Choi matrix, in the order of the module
        docstring, and store its Hermitian part, read-only.  Only _owned
        passes floor, the floor the construction proves, and hermitian, which
        channel_tensor alone sets: the matrix is exactly Hermitian and finite
        as it stands, so it is stored as it is."""
        try:
            din, dout = operator.index(self.din), operator.index(self.dout)
        except TypeError:
            raise NotAChannelError(f"din and dout must be integers, got din={self.din!r}, "
                                   f"dout={self.dout!r}") from None
        if din < 1 or dout < 1:
            raise NotAChannelError(f"din and dout must be positive, got din={din}, dout={dout}")
        vars(self).update(din=din, dout=dout)  # a numpy integer is stored as an int
        n = din * dout
        if self.choi.shape != (n, n):
            raise NotAChannelError(f"choi must be {n}x{n}, got {self.choi.shape}")
        if not hermitian:
            c = self.choi
            h = np.conjugate(c.T, order="C", dtype=np.result_type(c, float))  # C^dag
            if not _hermitian_residual(c, h) <= ATOL:
                _require_finite(c, "choi", NotAChannelError)
                raise NotAChannelError("choi not Hermitian within 1e-9")
            h *= 0.5  # halved before the sum, which then cannot overflow
            h += 0.5 * c
            object.__setattr__(self, "choi", h)
        if not floor <= ATOL / 2:  # a NaN floor certifies nothing either
            floor = ATOL
            if not _cholesky_certifies(self.choi):
                min_eig = np.linalg.eigvalsh(self.choi).min()
                if min_eig < -ATOL:
                    raise NotAChannelError(f"choi not PSD: min eigenvalue {min_eig:.2e}")
        object.__setattr__(self, "_floor", floor)
        self.choi.flags.writeable = False
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

def choi_of_kraus(ks: list[np.ndarray] | np.ndarray) -> Channel:
    """Assemble the Choi matrix of rho -> sum_k K rho K^dag, from a list of
    the K or their stack, which the channel copies as its Kraus factor.

    Tr_out C is the entrywise conjugate of sum_k K^dag K, so the constructor's
    trace-preservation check is the Kraus completeness check: a list that is
    not complete within 1e-9 raises NotAChannelError from there.
    """
    if not len(ks):
        raise NotAChannelError("empty Kraus list")
    dout, din = ks[0].shape
    for k in ks:
        if k.shape != (dout, din):
            raise NotAChannelError("Kraus operators must share one shape")
    stacked = np.array(ks, dtype=complex)  # a copy: stacked[k, m, i] = K_k[m, i]
    # C = V V^dag, where column k of V is vec(K_k)[i*dout + m] = K_k[m, i].
    return _of_kraus_factor(din, dout, stacked.transpose(0, 2, 1).reshape(len(ks), din * dout).T)


def _of_kraus_factor(din: int, dout: int, v: np.ndarray) -> Channel:
    """The channel with Choi matrix V V^dag, for a V (n x k) the library has
    just allocated, which the channel keeps, read-only, as its Kraus factor."""
    v.flags.writeable = False
    floor = _C * (v.shape[1] + 2) * _U * np.vdot(v, v).real  # c (k + 2) u ||V||_F^2
    return _owned(Channel, {"din": din, "dout": dout, "choi": v @ _dag(v), "_kraus": v},
                  floor=floor)


def kraus_of_choi(c: Channel) -> list[np.ndarray]:
    """Kraus operators sqrt(w) u from the eigenpairs (w, u) of the Choi matrix
    above RANK_CUTOFF, largest first, by the Kraus route of the module
    docstring."""
    l = _low_rank_factor(c.choi, c._kraus)
    w, vecs = np.linalg.eigh(c.choi if l is None else _dag(l) @ l)
    ks = []
    for i in range(len(w) - 1, -1, -1):  # largest eigenvalue first
        if w[i] > RANK_CUTOFF:
            v = vecs[:, i] * np.sqrt(w[i]) if l is None else l @ vecs[:, i]
            ks.append(v.reshape(c.din, c.dout).T)
    return ks


# Below this Choi size, eigh of H costs about as much as the Cholesky steps.
_CHOLESKY_MIN_N = 24


def _low_rank_factor(h: np.ndarray, kraus: np.ndarray | None = None) -> np.ndarray | None:
    """L (n x k) with ||H - L L^dag||_F <= RANK_CUTOFF / 100, or None, by the
    Kraus route of the module docstring."""
    n = len(h)
    if n < _CHOLESKY_MIN_N:
        return None
    budget, bound = n // 8, RANK_CUTOFF / 100
    if kraus is not None and kraus.shape[1] <= budget:
        l = kraus
    else:
        l = _pivoted_cholesky(h, budget, bound)
    return l if l is not None and np.linalg.norm(h - l @ _dag(l)) <= bound else None


def _pivoted_cholesky(h: np.ndarray, budget: int, bound: float) -> np.ndarray | None:
    """L (n x k), k <= budget, from the steps of a pivoted Cholesky of H until
    the residual's trace is at most bound; None, with no step, when the
    purity bound already puts H's rank above budget."""
    n = len(h)
    d = h.diagonal().real.copy()  # the diagonal of H - L L^dag, Tr(H) at first
    if d.sum() ** 2 > budget * np.vdot(h, h).real:  # Tr(H)^2 / Tr(H^2) <= rank > budget
        return None
    l = np.zeros((n, budget), dtype=complex)
    k = 0
    while k < budget and d.max() > bound / n:  # Tr of a PSD residual bounds its norm
        p = int(np.argmax(d))
        l[:, k] = (h[:, p] - l[:, :k] @ l[p, :k].conj()) / np.sqrt(d[p])
        d -= np.abs(l[:, k]) ** 2
        k += 1
    return l[:, :k]


def choi_rank(c: Channel) -> int:
    """The number of eigenvalues above RANK_CUTOFF, counted by eigvalsh of the
    Choi matrix, independently of the Kraus route."""
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
    """An isometry din -> dout * r stacking the r Kraus operators of
    kraus_of_choi, so r is the Choi rank up to eigenvalues within 1e-12 of
    RANK_CUTOFF (the Kraus route of the module docstring); minimal dilation,
    made V (V^dag V)^(-1/2) if the dropped eigenvalues (>= -1e-9) leave
    V^dag V != I."""
    ks = kraus_of_choi(c)
    r = len(ks)
    v = np.ascontiguousarray(np.stack(ks, axis=1).reshape(c.dout * r, c.din))
    try:
        return _owned(Isometry, {"mat": v}), r
    except NotAnIsometryError:
        return _owned(Isometry, {"mat": nearest_unitary(v)}), r


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
    u = _owned(Unitary, {"mat": phase_fix(nearest_unitary(k))})
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
    return _owned(Unitary, {"mat": u})


def channel_compose(g: Channel, f: Channel) -> Channel:
    """The composite channel g after f, on the Kraus factors (module
    docstring) or as the link product of the Choi matrices,
    C[i, n, j, l] = sum_{m, k} F[i, m, j, k] G[m, n, k, l]."""
    if f.dout != g.din:
        raise DimensionError(f"cannot compose: dout {f.dout} != din {g.din}")
    m, n = f.dout**2, f.din * g.dout
    if f._kraus is not None and g._kraus is not None and f._kraus.shape[1] * g._kraus.shape[1] <= m:
        # The Kraus vectors vec(L_b K_a)[i*dout + n] = sum_m V_f[i, m, a] V_g[m, n, b].
        w = np.tensordot(f._kraus.reshape(f.din, f.dout, -1), g._kraus.reshape(g.din, g.dout, -1),
                         axes=(1, 0))  # [i, a, n, b]
        return _of_kraus_factor(f.din, g.dout, w.transpose(0, 2, 1, 3).reshape(n, -1))
    c = np.tensordot(f.blocks(), g.blocks(), axes=([1, 3], [0, 2]))  # [i, j, n, l]
    choi = c.transpose(0, 2, 1, 3).reshape(n, n)
    return _owned(Channel, {"din": f.din, "dout": g.dout, "choi": choi},
                  floor=_product_floor(f, g, m))


def channel_tensor(a: Channel, b: Channel) -> Channel:
    """The parallel channel a (x) b: an index-permuted kron of the Choi
    matrices, with input factors before output factors."""
    din, dout = a.din * b.din, a.dout * b.dout
    c = np.einsum("imjn,akbl->iamkjbnl", a.blocks(), b.blocks())
    return _owned(Channel, {"din": din, "dout": dout, "choi": c.reshape(din * dout, din * dout)},
                  floor=_product_floor(a, b, 1), hermitian=True)


def _product_floor(a: Channel, b: Channel, m: int) -> float:
    """The floor of the tensor (m = 1) or link (m = d_mid^2) product of a's
    and b's stored matrices, from T = Tr H + n f of each (module docstring)."""
    ta, tb = (x.choi.trace().real + len(x.choi) * x._floor for x in (a, b))
    return a._floor * tb + b._floor * ta + _C * (m + 2) * _U * ta * tb


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
    return _owned(Unitary, {"mat": q * ph})


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> Isometry:
    """First cols columns of a Haar unitary on rows dimensions."""
    if cols > rows:
        raise DimensionError(f"an isometry needs cols {cols} <= rows {rows}")
    u = haar_unitary(rows, rng)
    return Isometry(u.mat[:, :cols])


def random_channel(din: int, dout: int, k: int, rng: np.random.Generator) -> Channel:
    """Random full-support CPTP map: k Ginibre Kraus candidates K normalized
    to K S^{-1/2} with S = sum K^dag K.  That is the polar factor of the
    stacked candidates G, taken from the thin SVD of G rather than from an
    eigendecomposition of S = G^dag G, which would square cond(G).

    Trace preservation needs S invertible, so k is raised until k * dout >= din.
    """
    if din < 1 or dout < 1:
        raise DimensionError(f"din and dout must be positive, got din={din}, dout={dout}")
    k = max(k, -(-din // dout))
    stacked = np.vstack([ginibre(dout, din, rng) for _ in range(k)])
    return choi_of_kraus(list(nearest_unitary(stacked).reshape(k, dout, din)))
