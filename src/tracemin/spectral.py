"""Dense Hermitian building blocks.

Eigensolver and Cholesky wrappers with explicit residual contracts, inertia
counting, the reduction of a definite pair and the selection of its
eigenpairs, and the majorization utilities (prefix-dominance test, weighted-sum
bounds) that the trace-optimization formulas rest on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import NotPositiveDefinite

# eigenvalues within ZERO_RTOL * max|M| of zero count as zero (`_signs`): B's
# inertia, the Cholesky certificate of definiteness and the signs of D's
# weights share this threshold, as does the coupling of signature blocks
ZERO_RTOL = 1e-10
# prefix sums within MAJORIZE_RTOL * sum|beta| of each other count as tied
MAJORIZE_RTOL = 1e-9


def max_norm(M) -> float:
    """Largest entry magnitude; 0.0 for an empty matrix."""
    M = np.asarray(M)
    return 0.0 if M.size == 0 else float(np.max(np.abs(M)))


def _signs(w, M) -> np.ndarray:
    """The signs (1, 0, -1) of eigenvalues w of M, 0 within ZERO_RTOL * max|M|."""
    return np.where(np.abs(w) <= ZERO_RTOL * max_norm(M), 0, np.sign(w))


class HermitianMatrix:
    """Square complex matrix validated and stored as exactly Hermitian.

    Construction rejects non-square or non-finite input, any matrix whose
    deviation from its conjugate transpose exceeds 1e-12 * max|entry|, and any
    whose exact symmetrization (H + H^H)/2, the stored matrix, overflows.
    """

    __slots__ = ("_mat", "_eigh", "_negates", "_inertia")

    def __init__(self, entries):
        M = np.asarray(entries, dtype=complex)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {M.shape}")
        # one max|M| finds every non-finite entry (|z| overflows only for
        # finite entries near the float limit, which the full test then passes)
        # and scales the deviation test
        s, n = max_norm(M), M.shape[0]
        if not np.isfinite(s) and not np.all(np.isfinite(M)):
            raise ValueError("matrix has non-finite entries")
        # M - M^H and M + M^H a block of rows at a time, in the stored
        # matrix's rows, so that beside it only one block of M - M^H (about
        # 8192 entries) is held
        mat, step = np.empty((n, n), dtype=complex), 8192 // max(n, 1) + 1
        with np.errstate(over="ignore"):
            for i in range(0, n, step):
                rows, out = M[i : i + step], mat[i : i + step]
                out[...] = M[:, i : i + step].T
                np.conjugate(out, out=out)
                if max_norm(rows - out) > 1e-12 * s:
                    raise ValueError("matrix is not Hermitian within tolerance")
                out += rows
        # entries under half the float limit cannot overflow in M + M^H
        if s > np.finfo(float).max / 2 and not np.all(np.isfinite(mat)):
            raise ValueError("matrix overflows: M + M^H exceeds the float range")
        mat *= 0.5
        self._mat, self._eigh, self._negates, self._inertia = mat, None, None, None

    @property
    def mat(self) -> np.ndarray:
        """The stored matrix; a negation forms its entries on first use."""
        if self._mat is None:
            self._mat = -self._negates.mat
        return self._mat

    @classmethod
    def of(cls, H) -> HermitianMatrix:
        """H itself when it is already a HermitianMatrix, else H validated."""
        return H if isinstance(H, cls) else cls(H)

    def eigh(self):
        """(w ascending, V) with mat = V diag(w) V^H. Computed on first use
        and kept, so every caller handed this value shares one
        eigendecomposition; both arrays are read-only."""
        if self._eigh is None:
            self._eigh = np.linalg.eigh(self.mat)
            for kept in self._eigh:
                kept.flags.writeable = False
        return self._eigh

    def inertia(self) -> Inertia:
        """Inertia from the signs of the kept eigenvalues, counted once and kept."""
        if self._inertia is None:
            s = _signs(self.eigh()[0], self.mat)
            self._inertia = Inertia(n_plus=int(np.sum(s > 0)), n_zero=int(np.sum(s == 0)),
                                    n_minus=int(np.sum(s < 0)))
        return self._inertia

    def __neg__(self) -> HermitianMatrix:
        """The exact negation, without validating it again. Its entries are
        formed on first use, so `cholesky(-H)` fills its buffer from H."""
        neg = object.__new__(HermitianMatrix)
        neg._mat, neg._eigh, neg._negates, neg._inertia = None, None, self, None
        return neg

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"HermitianMatrix(n={self.n})"


def as_herm(H) -> np.ndarray:
    """Coerce an array-like or HermitianMatrix to a validated Hermitian array."""
    return HermitianMatrix.of(H).mat


@dataclass(frozen=True)
class Inertia:
    """Counts of positive / zero / negative eigenvalues."""

    n_plus: int
    n_zero: int
    n_minus: int

    @property
    def n(self) -> int:
        return self.n_plus + self.n_zero + self.n_minus

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_minus


def cholesky(B) -> np.ndarray:
    """Lower-triangular L with B = L L^H and positive real diagonal.

    Positive definiteness is certified, not assumed: a Cholesky factorization
    of B - tau*I must succeed, with tau = ZERO_RTOL * max|entry|, the
    threshold below which `HermitianMatrix.inertia` counts an eigenvalue as
    zero. Its success proves that the smallest eigenvalue of B exceeds tau
    without computing the spectrum. Otherwise raises
    NotPositiveDefinite, signalling the caller to route to the indefinite
    path. A HermitianMatrix B is not validated again, nor a negation -H formed.
    """
    H = HermitianMatrix.of(B)
    M, negated = (H._negates.mat, True) if H._mat is None else (H.mat, False)
    if M.size == 0:
        raise NotPositiveDefinite("empty matrix is not positive definite")
    tau = ZERO_RTOL * max_norm(M)
    # one column-major buffer holds B - tau*I to certify, then B to factor; a
    # negation -H not yet formed is filled from H and negated in place
    L = np.empty(M.shape, dtype=complex, order="F")
    for shift in (tau, 0.0):
        L[...] = M
        if negated:
            np.negative(L, out=L)
        L.flat[:: M.shape[0] + 1] -= shift
        L, info = lapack.zpotrf(L, lower=1, overwrite_a=1)
        if info:
            break
    if info != 0:
        raise NotPositiveDefinite(
            f"smallest eigenvalue is not safely positive: B - {tau:.3e}*I "
            f"has no Cholesky factor (leading minor {info})"
        )
    return L


def _reduce_pair(A_, L):
    """(d, e, L, C, tau): the definite pair (A, L L^H) reduced once to
    C = L^-1 A L^-H (zhegst) = Q T Q^H (zhetrd), T with diagonal d and
    off-diagonal e, Q's reflectors below C's subdiagonal with factors tau."""
    n = A_.shape[0]
    C = lapack.zhegst(A_, L, lower=1)[0]
    lwork = int(lapack.zhetrd_lwork(n, lower=1)[0].real)
    C, d, e, tau, _ = lapack.zhetrd(C, lower=1, lwork=lwork, overwrite_a=1)
    return d, e, L, C, tau


def _pair_eigenpairs(reduction, n_low, n_high, vectors=True):
    """The n_low smallest and n_high largest eigenvalues of a `_reduce_pair`
    reduction, ascending, with L L^H-orthonormal eigenvectors (None unless
    ``vectors``): MRRR on T, then X = L^-H Q V of the selected columns only."""
    d, e, L, C, tau = reduction
    n = d.size
    ranges = [r for r in ((0, n_low - 1), (n - n_high, n - 1)) if r[0] <= r[1]]

    def mrrr(r):
        # MRRR (stemr) keeps the vectors of the two ranges orthogonal even when
        # one cluster of equal eigenvalues spans both (stebz/stein may not).
        # Its vectors, a view of an n x n buffer, are copied out on return
        out = sla.eigh_tridiagonal(d, e, eigvals_only=not vectors, select="i",
                                   select_range=r, lapack_driver="stemr")
        return (out[0], out[1].astype(complex)) if vectors else out

    parts = [mrrr(r) for r in ranges]
    if not vectors:
        # the empty heads cover a request for none (D = 0, or no column wanted)
        return np.concatenate([np.empty(0), *parts]), None
    lam = np.concatenate([np.empty(0)] + [w for w, _ in parts])
    Y = np.hstack([np.empty((n, 0), dtype=complex)] + [V for _, V in parts])
    if n > 1:
        # Q = H(1)...H(n-1), reflector H(i) below the subdiagonal of the
        # column-major C. zunmqr reads them in place, in the first n-1 rows
        # (all it reads) of the n x (n-1) view from C[1, 0] with leading
        # dimension n, and restores the entries it sets while it works
        refl = C.reshape(-1, order="F")[1 : 1 + n * (n - 1)].reshape(n, n - 1, order="F")
        lwork = int(lapack.zunmqr("L", "N", refl, tau, Y[1:], -1)[1][0].real)
        Y[1:] = lapack.zunmqr("L", "N", refl, tau, Y[1:], lwork)[0]
    X = sla.solve_triangular(L, Y, lower=True, trans="C", check_finite=False)
    return lam, X


def majorizes(beta, alpha) -> bool:
    """True iff the multiset beta majorizes alpha: every descending prefix sum
    of beta dominates that of alpha, with equal totals.

    Ties resolved with tolerance MAJORIZE_RTOL * sum(|beta|), scale-free.
    """
    b = np.sort(np.asarray(beta, dtype=float))[::-1]
    a = np.sort(np.asarray(alpha, dtype=float))[::-1]
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("alpha and beta must be equal-length nonempty 1-D")
    tol = MAJORIZE_RTOL * float(np.sum(np.abs(b)))
    pb = np.cumsum(b)
    pa = np.cumsum(a)
    if np.any(pa[:-1] > pb[:-1] + tol):
        return False
    return abs(pa[-1] - pb[-1]) <= tol


def weighted_sum_bounds(gamma, beta) -> tuple[float, float]:
    """Extreme values of sum(gamma_i * pi(beta)_i) over reorderings of beta,
    for weights gamma sorted descending: pairing ascending beta gives the
    lower bound, descending beta the upper bound."""
    g = np.asarray(gamma, dtype=float)
    b = np.asarray(beta, dtype=float)
    if g.shape != b.shape or g.ndim != 1:
        raise ValueError("gamma and beta must be equal-length 1-D")
    if np.any(np.diff(g) > 0):
        raise ValueError("gamma must be sorted in descending order")
    b_asc = np.sort(b)
    return float(g @ b_asc), float(g @ b_asc[::-1])
