"""Exact solvers for min/max of tr(D X^H A X) subject to X^H B X = I_k
with positive definite B.

The optimal value pairs the descending eigenvalues of D against extreme
eigenvalues of the pencil A - lambda*B: nonnegative weights take the
smallest pencil eigenvalues, negative weights the largest. The optimizer is
assembled from pencil eigenvectors and is returned in original coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import MissingOptimizer, NotPositiveDefinite
from .pencil import PsdPencilAnalysis
from .spectral import as_herm, max_norm


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
    """

    route: str
    finite: bool
    value: float | None
    attained: bool
    x_opt: np.ndarray | None = None
    pairing: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    analysis: PsdPencilAnalysis | None = None


def pencil_eig_definite(A, B) -> DefinitePencilEigen:
    """Simultaneous diagonalization of Hermitian A and positive definite B."""
    A_ = as_herm(A)
    B_ = as_herm(B)
    if A_.shape != B_.shape:
        raise ValueError("A and B must have the same shape")
    wmin = float(np.linalg.eigvalsh(B_)[0]) if B_.size else 0.0
    nb = max_norm(B_)
    if wmin <= (1e-10 * nb if nb > 0 else 1e-12):
        raise NotPositiveDefinite(
            f"B smallest eigenvalue {wmin:.3e} is not safely positive"
        )
    lam, U = sla.eigh(A_, B_)  # vectors normalized so U^H B U = I
    return DefinitePencilEigen(u=U, lambdas=lam)


def split_omegas(D, tol: float | None = None) -> OmegaSplit:
    """Eigen-decompose D with values descending; zeros group with the
    nonnegative block."""
    D_ = as_herm(D)
    if tol is None:
        tol = 1e-10 * (1.0 + max_norm(D_))
    w, Q = np.linalg.eigh(D_)
    w = w[::-1].copy()
    Q = Q[:, ::-1].copy()
    return OmegaSplit(omegas=w, ell=int(np.sum(w >= -tol)), q=Q)


def _check_dims(A_, B_, D_, k):
    n = A_.shape[0]
    if B_.shape[0] != n:
        raise ValueError("A and B dimension mismatch")
    if D_.shape[0] != k:
        raise ValueError("D must be k x k")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")


def solve_definite_min(A, B, D, k=None, want_optimizer=False) -> SolveReport:
    """Minimize tr(D X^H A X) over X^H B X = I_k for positive definite B."""
    A_ = as_herm(A)
    B_ = as_herm(B)
    D_ = as_herm(D)
    if k is None:
        k = D_.shape[0]
    _check_dims(A_, B_, D_, k)
    n = A_.shape[0]

    pe = pencil_eig_definite(A_, B_)
    om = split_omegas(D_)
    ell = om.ell
    # nonnegative weights take the ell smallest pencil eigenvalues, negative
    # weights the k-ell largest
    sel = list(range(ell)) + list(range(n - k + ell, n))
    pairing = [
        (float(om.omegas[i]), float(pe.lambdas[sel[i]]), f"lambda[{sel[i] + 1}]")
        for i in range(k)
    ]
    value = float(sum(w * lam for w, lam, _ in pairing))

    x_opt = None
    if want_optimizer:
        x_opt = pe.u[:, sel] @ om.q.conj().T
    return SolveReport(
        route="definite-min",
        finite=True,
        value=value,
        attained=True,
        x_opt=x_opt,
        pairing=pairing,
    )


def solve_definite_max(A, B, D, k=None, want_optimizer=False) -> SolveReport:
    """Maximize tr(D X^H A X) over X^H B X = I_k; delegates to the minimizer
    on -A and negates."""
    rep = solve_definite_min(-as_herm(A), B, D, k, want_optimizer)
    pairing = [(w, -lam, role) for (w, lam, role) in rep.pairing]
    return SolveReport(
        route="definite-max",
        finite=True,
        value=-rep.value,
        attained=True,
        x_opt=rep.x_opt,
        pairing=pairing,
        warnings=rep.warnings,
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
    om = split_omegas(D_)
    tol = 1e-10 * (1.0 + max_norm(D_))
    ell_p = int(np.sum(om.omegas > tol))
    ell_m = int(np.sum(om.omegas < -tol))
    k = D_.shape[0]
    qhat = np.hstack([om.q[:, :ell_p], om.q[:, k - ell_m:]])
    Z = report.x_opt @ qhat
    M = Z.conj().T @ A_ @ Z
    off = M - np.diag(np.diag(M))
    pe = pencil_eig_definite(A_, B)
    n = A_.shape[0]
    expected = np.concatenate(
        [pe.lambdas[:ell_p], pe.lambdas[n - ell_m:]]
    )
    return MinimizerCheck(
        compressed=M,
        offdiag_max=max_norm(off),
        diagonal=np.real(np.diag(M)),
        expected_diagonal=expected,
    )
