"""Exact solvers for min/max of tr(D X^H A X) subject to X^H B X = I_k
with positive definite B.

The optimal value pairs the descending eigenvalues of D against extreme
eigenvalues of the pencil A - lambda*B: the ell nonnegative weights take the
ell smallest pencil eigenvalues, the k - ell negative weights the k - ell
largest. A solve validates A, B and D once and factors B once: the Cholesky
factor L that certifies B > 0 (`spectral.cholesky`) also reduces the pencil
to the Hermitian matrix L^-1 A L^-H. One tridiagonalization of that matrix
then yields exactly the k eigenpairs the pairing uses (MRRR on two index
ranges), and only those k eigenvectors are transformed back. The optimizer is
returned in original coordinates. The maximum is the minimum on -A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import MissingOptimizer
from .pencil import PsdPencilAnalysis
from .spectral import (
    WEIGHT_RTOL,
    Inertia,
    _certified_cholesky,
    _scaled_tol,
    as_herm,
    max_norm,
)


@dataclass
class DefinitePencilEigen:
    """B-unitary eigen-decomposition: U^H B U = I, U^H A U = diag(lambdas)."""

    u: np.ndarray
    lambdas: np.ndarray  # ascending


@dataclass
class OmegaSplit:
    """Eigenvalues of D descending, with ell = count of nonnegative ones and
    the aligned unitary eigenvector matrix Q."""

    omegas: np.ndarray
    ell: int
    q: np.ndarray


@dataclass
class SolveReport:
    """Outcome of one trace-optimization solve.

    ``pairing`` lists (weight, signed eigenvalue multiplier, role) triples
    whose products sum to ``value``. ``analysis`` is the pencil analysis an
    indefinite route solved from, without its eigenvector blocks.
    ``inertia_b`` is the inertia of B as `solve` decided its route.
    """

    route: str
    finite: bool
    value: float | None
    attained: bool
    x_opt: np.ndarray | None = None
    pairing: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    analysis: PsdPencilAnalysis | None = None
    inertia_b: Inertia | None = None


def pencil_eig_definite(A, B) -> DefinitePencilEigen:
    """Simultaneous diagonalization of Hermitian A and positive definite B."""
    A_ = as_herm(A)
    B_ = as_herm(B)
    if A_.shape != B_.shape:
        raise ValueError("A and B must have the same shape")
    lam, U = _pencil_eigenpairs(A_, _certified_cholesky(B_), A_.shape[0], 0)
    return DefinitePencilEigen(u=U, lambdas=lam)


def _pencil_eigenpairs(A_, L, n_low, n_high, vectors=True):
    """The n_low smallest and n_high largest eigenvalues of A - lambda*L L^H,
    ascending, with B-orthonormal eigenvectors (None unless ``vectors``).

    One reduction C = L^-1 A L^-H, one tridiagonalization C = Q T Q^H, the
    selected eigenpairs of the real tridiagonal T, and the back-transformation
    X = L^-H Q V of the selected columns only.
    """
    n = A_.shape[0]
    C = lapack.zhegst(A_, L, lower=1)[0]
    lwork = int(lapack.zhetrd_lwork(n, lower=1)[0].real)
    C, d, e, tau, _ = lapack.zhetrd(C, lower=1, lwork=lwork, overwrite_a=1)
    ranges = [r for r in ((0, n_low - 1), (n - n_high, n - 1)) if r[0] <= r[1]]
    # MRRR (stemr) keeps the vectors of the two ranges orthogonal even when one
    # cluster of equal eigenvalues spans both; stebz/stein may return the same
    # vector in both calls
    parts = [
        sla.eigh_tridiagonal(d, e, eigvals_only=not vectors, select="i",
                             select_range=r, lapack_driver="stemr")
        for r in ranges
    ]
    if not vectors:
        # the empty head covers a request for no eigenvalues (D = 0)
        return np.concatenate([np.empty(0), *parts]), None
    lam = np.concatenate([w for w, _ in parts])
    Y = np.hstack([V for _, V in parts]).astype(complex)
    if n > 1:
        # Q = H(1)...H(n-1), reflector H(i) stored below the subdiagonal of C
        refl = np.asfortranarray(C[1:, : n - 1])
        lwork = int(lapack.zunmqr("L", "N", refl, tau, Y[1:], -1)[1][0].real)
        Y[1:] = lapack.zunmqr("L", "N", refl, tau, Y[1:], lwork)[0]
    X = sla.solve_triangular(L, Y, lower=True, trans="C", check_finite=False)
    return lam, X


def split_omegas(D, tol: float | None = None) -> OmegaSplit:
    """Eigen-decompose D with values descending; zeros group with the
    nonnegative block. The default tolerance is WEIGHT_RTOL * max|D|."""
    return _split_omegas(as_herm(D), tol)


def _split_omegas(D_, tol=None) -> OmegaSplit:
    if tol is None:
        tol = _scaled_tol(D_, WEIGHT_RTOL)
    w, Q = np.linalg.eigh(D_)
    w = w[::-1].copy()
    Q = Q[:, ::-1].copy()
    return OmegaSplit(omegas=w, ell=int(np.sum(w >= -tol)), q=Q)


def _validated(A, B, D, k):
    """A, B and D validated once, with k defaulted and the dimensions checked."""
    A_ = as_herm(A)
    B_ = as_herm(B)
    D_ = as_herm(D)
    if k is None:
        k = D_.shape[0]
    n = A_.shape[0]
    if B_.shape[0] != n:
        raise ValueError("A and B dimension mismatch")
    if D_.shape[0] != k:
        raise ValueError("D must be k x k")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return A_, B_, D_, k


def solve_definite_min(A, B, D, k=None, want_optimizer=False) -> SolveReport:
    """Minimize tr(D X^H A X) over X^H B X = I_k for positive definite B."""
    A_, B_, D_, k = _validated(A, B, D, k)
    return _solve_definite(A_, _certified_cholesky(B_), D_, k, "min", want_optimizer)


def solve_definite_max(A, B, D, k=None, want_optimizer=False) -> SolveReport:
    """Maximize tr(D X^H A X) over X^H B X = I_k; the minimizer on -A,
    negated."""
    A_, B_, D_, k = _validated(A, B, D, k)
    return _solve_definite(A_, _certified_cholesky(B_), D_, k, "max", want_optimizer)


def _solve_definite(A_, L, D_, k, sense, want_optimizer) -> SolveReport:
    """The definite route on validated A and D, with B = L L^H."""
    if sense == "max":
        rep = _solve_definite(-A_, L, D_, k, "min", want_optimizer)
        rep.route = "definite-max"
        rep.value = -rep.value
        rep.pairing = [(w, -lam, role) for (w, lam, role) in rep.pairing]
        return rep
    n = A_.shape[0]
    om = _split_omegas(D_)
    ell = om.ell
    # nonnegative weights take the ell smallest pencil eigenvalues, negative
    # weights the k-ell largest
    lams, U = _pencil_eigenpairs(A_, L, ell, k - ell, want_optimizer)
    sel = list(range(ell)) + list(range(n - k + ell, n))
    pairing = [
        (float(om.omegas[i]), float(lams[i]), f"lambda[{sel[i] + 1}]")
        for i in range(k)
    ]
    value = float(sum(w * lam for w, lam, _ in pairing))
    return SolveReport(
        route="definite-min",
        finite=True,
        value=value,
        attained=True,
        x_opt=U @ om.q.conj().T if want_optimizer else None,
        pairing=pairing,
    )


@dataclass
class MinimizerCheck:
    """Compression (X_opt Qhat)^H A (X_opt Qhat) restricted to the nonzero
    weights of D, with its off-diagonal magnitude and expected diagonal."""

    compressed: np.ndarray
    offdiag_max: float
    diagonal: np.ndarray
    expected_diagonal: np.ndarray


def characterize_minimizer(report: SolveReport, A, B, D) -> MinimizerCheck:
    """Diagnostic for a minimizer: drop the zero-weight columns of Q and
    compress A. With distinct nonzero weights the result is diagonal with the
    extreme pencil eigenvalues on the diagonal."""
    if not report.attained or report.x_opt is None:
        raise MissingOptimizer("report carries no optimizer")
    A_ = as_herm(A)
    D_ = as_herm(D)
    om = _split_omegas(D_)
    tol = _scaled_tol(D_, WEIGHT_RTOL)
    ell_p = int(np.sum(om.omegas > tol))
    ell_m = int(np.sum(om.omegas < -tol))
    k = D_.shape[0]
    qhat = np.hstack([om.q[:, :ell_p], om.q[:, k - ell_m:]])
    Z = report.x_opt @ qhat
    M = Z.conj().T @ A_ @ Z
    off = M - np.diag(np.diag(M))
    L = _certified_cholesky(as_herm(B))
    expected = _pencil_eigenpairs(A_, L, ell_p, ell_m, vectors=False)[0]
    return MinimizerCheck(
        compressed=M,
        offdiag_max=max_norm(off),
        diagonal=np.real(np.diag(M)),
        expected_diagonal=expected,
    )
