"""Reference pencil analysis by QZ, kept for the property tests.

This is the analysis `tracemin.pencil.finite_eigenvalues` ran before it was
rebuilt on one eigendecomposition of B: deflate N(A) & N(B) with one SVD of
the stacked [A; B], take the rank(B) finite eigenvalues from one QZ of the
deflated pencil, put lambda0 in the bracket [max lambda-, min lambda+], and
read m0 from the kernel of A - lambda0*B. It returns the eigenvalues, the
shift, m0 and B's inertia; no eigenvectors. `eigenvectors_of` is an SVD
reference for the eigenvectors at one eigenvalue. Neither shares code with
the package: only its error type and named tolerances are imported.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from tracemin import NotPsdPencil
from tracemin.pencil import GRAM_RTOL, PSD_RTOL, RANK_RTOL
from tracemin.spectral import ZERO_RTOL


def _herm(M):
    M = np.asarray(M, dtype=complex)
    return 0.5 * (M + M.conj().T)


def _bracket_shift(lam, n_minus) -> float:
    """lambda0 at the midpoint of [max lambda-, min lambda+], or one unit of
    the end's own size beyond the only end that exists."""
    if lam.size == 0:
        return 0.0
    if n_minus == 0:
        return float(lam[0] - (1.0 + abs(lam[0])))
    if n_minus == lam.size:
        return float(lam[-1] + (1.0 + abs(lam[-1])))
    return 0.5 * float(lam[n_minus - 1] + lam[n_minus])


def _deflate(A_, B_):
    _, sv, Vh = np.linalg.svd(np.vstack([A_, B_]))
    smax = float(sv[0]) if sv.size else 0.0
    q = int(np.sum(sv > RANK_RTOL * smax)) if smax else 0
    P = Vh.conj().T[:, :q]
    Ad = P.conj().T @ A_ @ P
    Bd = P.conj().T @ B_ @ P
    return 0.5 * (Ad + Ad.conj().T), 0.5 * (Bd + Bd.conj().T)


def _qz_eigenvalues(Ad, Bd, r):
    if r == 0 or Ad.shape[0] == 0:
        return np.empty(0)
    alpha, beta = sla.eig(Ad, Bd, right=False, homogeneous_eigvals=True)
    score = np.abs(beta) / (np.abs(alpha) + np.abs(beta) + 1e-300)
    idx = np.argsort(score)[::-1][:r]
    lam = alpha[idx] / beta[idx]
    if np.any(np.abs(np.imag(lam)) > 1e-6 * (1.0 + np.abs(lam))):
        raise NotPsdPencil("finite eigenvalues have non-real components")
    return np.sort(np.real(lam))


def qz_analysis(A, B):
    """(lambda_plus ascending, lambda_minus descending, lambda0, m0, inertia
    of B as (n_plus, n_zero, n_minus)) of a positive semi-definite pencil;
    raises NotPsdPencil otherwise. B's eigenvalues within ZERO_RTOL * max|B|
    (1e-12 for B = 0) of zero count as zero."""
    A_, B_ = _herm(A), _herm(B)
    wb = np.linalg.eigvalsh(B_) if B_.size else np.empty(0)
    tol = ZERO_RTOL * np.max(np.abs(B_), initial=0.0) or 1e-12
    n_plus, n_minus = int(np.sum(wb > tol)), int(np.sum(wb < -tol))
    Ad, Bd = _deflate(A_, B_)
    lam = _qz_eigenvalues(Ad, Bd, n_plus + n_minus)
    lam0 = _bracket_shift(lam, n_minus)
    w, V = np.linalg.eigh(Ad - lam0 * Bd)
    floor = PSD_RTOL * (np.max(np.abs(Ad), initial=0.0)
                        + abs(lam0) * np.max(np.abs(Bd), initial=0.0))
    if w.size and w[0] < -floor:
        raise NotPsdPencil(f"A - lambda0*B has eigenvalue {w[0]:.3e}")
    K0 = V[:, w <= floor]
    d = np.linalg.eigvalsh(K0.conj().T @ Bd @ K0)
    m0 = int(np.sum(np.abs(d) <= GRAM_RTOL * np.max(np.abs(Bd), initial=0.0)))
    if m0:
        lam[np.argsort(np.abs(lam - lam0))[: K0.shape[1] + m0]] = lam0
        lam.sort()
    return (lam[n_minus:], lam[:n_minus][::-1], lam0, m0,
            (n_plus, wb.size - n_plus - n_minus, n_minus))


def eigenvectors_of(A, B, mu: float) -> np.ndarray:
    """Basis for the eigenvectors of A - lambda*B at the finite eigenvalue
    mu: the nullspace of A - mu*B with components in N(A) & N(B) projected
    out. May be empty when the eigenspace is entirely degenerate."""
    A_, B_ = _herm(A), _herm(B)
    _, sv, Vh = np.linalg.svd(A_ - mu * B_)
    null = Vh.conj().T[:, sv <= RANK_RTOL * sv.max(initial=0.0)]
    # N(A) & N(B) from one SVD of the stacked [A; B]
    _, sv, Vh = np.linalg.svd(np.vstack([A_, B_]))
    K = Vh[int(np.sum(sv > RANK_RTOL * sv.max(initial=0.0))):].conj().T
    if K.shape[1]:
        null = null - K @ (K.conj().T @ null)
    if null.shape[1] == 0:
        return null
    # re-orthonormalize and drop directions that collapsed into the kernel
    q, rr = np.linalg.qr(null)
    keep = np.abs(np.diag(rr)) > RANK_RTOL * max(1.0, np.abs(np.diag(rr)).max())
    return q[:, keep]
