"""Dense Hermitian building blocks.

Eigensolver and Cholesky wrappers with explicit residual contracts, inertia
counting, and the majorization utilities (prefix-dominance test, weighted-sum
bounds) that the trace-optimization formulas rest on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import NotPositiveDefinite

# eigenvalues within ZERO_RTOL * max|M| of zero count as zero: the inertia
# count and the Cholesky certificate of definiteness share this threshold
ZERO_RTOL = 1e-10
# eigenvalues of a weight matrix D within WEIGHT_RTOL * max|D| of zero count
# as zero (the split of D's weights, the finiteness dichotomy, the
# minimizer's zero-weight columns and the coupling of signature blocks)
WEIGHT_RTOL = 1e-10


def max_norm(M) -> float:
    """Largest entry magnitude; 0.0 for an empty matrix."""
    M = np.asarray(M)
    return 0.0 if M.size == 0 else float(np.max(np.abs(M)))


def _scaled_tol(M, rel: float, floor: float = 1e-12) -> float:
    # zero matrices fall back to an absolute tolerance to avoid 0*rel
    s = max_norm(M)
    return rel * s if s > 0.0 else floor


class HermitianMatrix:
    """Square complex matrix validated and stored as exactly Hermitian.

    Construction rejects non-square or non-finite input and any matrix whose
    deviation from its conjugate transpose exceeds 1e-12 * max|entry|; the
    stored matrix is the exact symmetrization (H + H^H)/2.
    """

    __slots__ = ("mat", "_eigh")

    def __init__(self, entries):
        M = np.asarray(entries, dtype=complex)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {M.shape}")
        if M.size and not np.all(np.isfinite(M)):
            raise ValueError("matrix has non-finite entries")
        if max_norm(M - M.conj().T) > _scaled_tol(M, 1e-12):
            raise ValueError("matrix is not Hermitian within tolerance")
        self.mat = 0.5 * (M + M.conj().T)
        self._eigh = None

    @classmethod
    def of(cls, H) -> HermitianMatrix:
        """H itself when it is already a HermitianMatrix, else H validated."""
        return H if isinstance(H, cls) else cls(H)

    def eigh(self):
        """(w ascending, V) with mat = V diag(w) V^H. Computed on first use
        and kept, so every caller handed this value shares one
        eigendecomposition; callers must not modify the arrays."""
        if self._eigh is None:
            self._eigh = np.linalg.eigh(self.mat)
        return self._eigh

    def inertia(self) -> Inertia:
        """`inertia` of the matrix, counted from the kept eigenvalues."""
        return _count_inertia(self.eigh()[0], _scaled_tol(self.mat, ZERO_RTOL))

    def __neg__(self) -> HermitianMatrix:
        """The exact negation, without validating it again."""
        neg = object.__new__(HermitianMatrix)
        neg.mat, neg._eigh = -self.mat, None
        return neg

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"HermitianMatrix(n={self.n})"


def as_herm(H) -> np.ndarray:
    """Coerce an array-like or HermitianMatrix to a validated Hermitian array."""
    if isinstance(H, HermitianMatrix):
        return H.mat
    return HermitianMatrix(H).mat


@dataclass
class EigenDecomposition:
    """Eigenvalues in descending order with aligned unitary eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def eig_herm(H) -> EigenDecomposition:
    """Full eigen-decomposition of a Hermitian matrix, values descending."""
    M = as_herm(H)
    w, V = np.linalg.eigh(M)
    return EigenDecomposition(values=w[::-1].copy(), vectors=V[:, ::-1].copy())


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


def inertia(H, tol: float | None = None) -> Inertia:
    """Inertia of a Hermitian matrix; eigenvalues within ``tol`` of zero count
    as zero. Default tolerance is ZERO_RTOL * max|entry| (absolute 1e-12 for
    the zero matrix)."""
    M = as_herm(H)
    if tol is None:
        tol = _scaled_tol(M, ZERO_RTOL)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return _count_inertia(np.linalg.eigvalsh(M) if M.size else np.empty(0), tol)


def _count_inertia(w, tol) -> Inertia:
    return Inertia(
        n_plus=int(np.sum(w > tol)),
        n_zero=int(np.sum(np.abs(w) <= tol)),
        n_minus=int(np.sum(w < -tol)),
    )


def cholesky(B) -> np.ndarray:
    """Lower-triangular L with B = L L^H and positive real diagonal.

    Positive definiteness is certified, not assumed: a Cholesky factorization
    of B - tau*I must succeed, with tau = ZERO_RTOL * max|entry| (1e-12 for
    the zero matrix), the threshold below which `inertia` counts an
    eigenvalue as zero. Its success proves that the smallest eigenvalue of B
    exceeds tau without computing the spectrum. Otherwise raises
    NotPositiveDefinite, signalling the caller to route to the indefinite
    path.
    """
    return _certified_cholesky(as_herm(B))


def _certified_cholesky(M) -> np.ndarray:
    """`cholesky` of an already validated Hermitian array."""
    if M.size == 0:
        raise NotPositiveDefinite("empty matrix is not positive definite")
    tau = _scaled_tol(M, ZERO_RTOL)
    info = _shifted_cholesky_info(M, tau)
    if info == 0:
        L, info = lapack.zpotrf(M, lower=1)
    if info != 0:
        raise NotPositiveDefinite(
            f"smallest eigenvalue is not safely positive: B - {tau:.3e}*I "
            f"has no Cholesky factor (leading minor {info})"
        )
    return L


def _shifted_cholesky_info(M, tau) -> int:
    """LAPACK's info for a Cholesky factorization of M - tau*I: 0 proves that
    the smallest eigenvalue of M exceeds tau, otherwise the order of the
    first leading minor that is not positive definite."""
    shifted = np.array(M, dtype=complex, order="F")
    shifted.flat[:: M.shape[0] + 1] -= tau
    return int(lapack.zpotrf(shifted, lower=1, overwrite_a=1)[1])


def majorizes(beta, alpha) -> bool:
    """True iff the multiset beta majorizes alpha: every descending prefix sum
    of beta dominates that of alpha, with equal totals.

    Ties resolved with tolerance 1e-9 * (1 + |sum(beta)|).
    """
    b = np.sort(np.asarray(beta, dtype=float))[::-1]
    a = np.sort(np.asarray(alpha, dtype=float))[::-1]
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("alpha and beta must be equal-length nonempty 1-D")
    tol = 1e-9 * (1.0 + abs(float(np.sum(b))))
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
