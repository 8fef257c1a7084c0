"""Analysis of Hermitian pencils A - lambda*B with indefinite, possibly
singular B.

One eigh of B gives its inertia, its nonzero eigenvalues Lambda_B and
N(B) = span U0. The common nullspace, the kernel of A*U0, is deflated; on
the rest of N(B) A is positive definite for a positive semi-definite pencil,
and its Schur complement S leaves the regular rank(B)-sized pencil
S - lambda*Lambda_B with the same finite spectrum. Bisection with one
Cholesky per step seeks a strict shift, S - sigma*Lambda_B > 0 (Crawford &
Moon, LAA 51, 1983), and gives up on a nearly B-null negative direction. One
definite eigh of (Lambda_B, S - sigma*Lambda_B) then gives every eigenvalue,
sigma + 1/mu, and eigenvector. Without a strict shift (a coupled block, a
degenerate or narrow bracket) one nonsymmetric solve of the J-Hermitian
J |Lambda_B|^-1/2 S |Lambda_B|^-1/2, J = sign(Lambda_B) (Liang, Li & Bai,
LAA 438, 2013), gives the eigenvalues. The shift lambda0, the midpoint of the
bracket [max lambda-, min lambda+], is certified by a Cholesky of
S - lambda0*Lambda_B - floor*I, or else by an eigh of the eigenvalues below
the floor, which span the kernel K0; the pencil is diagonalizable iff no
direction of K0 is B-null. Without a strict shift its vectors are K0 and
those of the definite pair at lambda0 on K0's complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import NotPsdPencil
from .spectral import HermitianMatrix, Inertia, as_herm, max_norm
from .spectral import _shifted_cholesky_info

# singular values below this times the largest (of [A; B] in
# `eigenvectors_of`, of A*U0 against ||A||_F in the deflation) count as zero
RANK_RTOL = 1e-9
# eigenvalues of S - lambda0*Lambda_B below -PSD_RTOL * (max|A11| +
# |lambda0|*max|Lambda_B|) refute the certificate; those at or below
# +PSD_RTOL * (...) span its kernel K0
PSD_RTOL = 1e-9
# a direction of K0 with |x^H B x| <= GRAM_RTOL * |B| is B-null
GRAM_RTOL = 1e-8
# a negative direction x of S - sigma*Lambda_B with |x^H Lambda_B x| <= STEER_RTOL
# * ||x||^2 * max|Lambda_B| is nearly B-null and cannot steer the shift search
STEER_RTOL = 0.1
# a strict shift leaves S - sigma*Lambda_B >= SHIFT_RTOL * (max|A11| +
# |sigma|*max|Lambda_B|), so the definite pair there gives eigenvalues to about
# eps / SHIFT_RTOL relative (at PSD_RTOL's floor they could lose 1e-8)
SHIFT_RTOL = 1e-3


@dataclass
class PsdPencilAnalysis:
    """Certificate and spectral data for a positive semi-definite pencil.

    lambda_plus holds the n_plus largest finite eigenvalues ascending;
    lambda_minus the n_minus smallest, indexed descending so entry 0 is the
    largest of the minus group. Eigenvector blocks are present only when the
    pencil is diagonalizable; their columns have B-norm +1 / -1 and align
    with the eigenvalue lists.
    """

    lambda0: float
    inertia_b: Inertia
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    diagonalizable: bool
    m0: int
    eigvecs_plus: np.ndarray | None = None
    eigvecs_minus: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return self.inertia_b.rank


def find_lambda0(A, B) -> float | None:
    """A real shift making A - lambda*B positive semi-definite, or None when
    the pencil admits none."""
    try:
        return finite_eigenvalues(A, B).lambda0
    except NotPsdPencil:
        return None


def _reduce(A, B):
    """(inertia of B, S, b, E, scale): the pencil S - lambda*diag(b) on B's
    nonzero eigenvalues b, E mapping its eigenvectors to those of
    A - lambda*B, and max|A11|, the scale of S. V2 spans the directions where
    A*U0 has singular values above RANK_RTOL * ||A||_F (N(B) beyond
    N(A) & N(B)); A22 = V2^H A V2 must be positive definite, and
    S = A11 - A12 A22^-1 A21, E = U_r - V2 A22^-1 A21."""
    A_ = as_herm(A)
    Bh = HermitianMatrix.of(B)
    if A_.shape != Bh.mat.shape:
        raise ValueError("A and B must have the same shape")
    inb = Bh.inertia()
    w, U = Bh.eigh()
    # eigh sorts ascending: the n_minus negative, n_zero null, n_plus positive
    nonzero = np.r_[: inb.n_minus, inb.n_minus + inb.n_zero : inb.n]
    E, U0 = U[:, nonzero], U[:, inb.n_minus : inb.n_minus + inb.n_zero]
    S = E.conj().T @ A_ @ E
    scale = max_norm(S)
    if U0.shape[1]:
        _, sv, Vh = np.linalg.svd(A_ @ U0, full_matrices=False)
        V2 = U0 @ Vh[: int(np.sum(sv > RANK_RTOL * np.linalg.norm(A_)))].conj().T
        L, info = lapack.zpotrf(V2.conj().T @ A_ @ V2, lower=1)
        if info:
            raise NotPsdPencil("A is not positive definite on N(B) minus N(A)")
        Y = sla.solve_triangular(L, V2.conj().T @ A_ @ E, lower=True)
        S = S - Y.conj().T @ Y
        E = E - V2 @ sla.solve_triangular(L, Y, lower=True, trans="C")
    return inb, 0.5 * (S + S.conj().T), w[nonzero], E, scale


def _j_hermitian_eigenvalues(S, b):
    """The eigenvalues of S - lambda*diag(b), sorted ascending."""
    s = 1.0 / np.sqrt(np.abs(b))
    lam = np.linalg.eigvals(np.sign(b)[:, None] * (s[:, None] * S * s))
    # defective double eigenvalues split as a conjugate pair of width
    # O(sqrt(eps)), so the reality tolerance must sit well above that
    if np.any(np.abs(np.imag(lam)) > 1e-6 * (1.0 + np.abs(lam))):
        raise NotPsdPencil("finite eigenvalues have non-real components")
    return np.sort(np.real(lam))


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


def _strict_shift(S, b, scale) -> float | None:
    """sigma with S - sigma*diag(b) - margin*I positive definite, or None.
    A Cholesky that fails at pivot j leaves the negative direction
    x = [-M11^-1 m; 1]: sign(x^H diag(b) x) says which side of the bracket
    sigma is on, and x^H S x / x^H diag(b) x bounds that side. The search
    ends on a nearly B-null x or a bracket too narrow for the margin."""
    bmax = max_norm(b)
    # every finite eigenvalue lies within ||J |b|^-1/2 S |b|^-1/2||
    hi = 2.0 * float(np.linalg.norm(S / np.sqrt(np.outer(np.abs(b), np.abs(b)))))
    lo = -hi
    while True:
        sigma = 0.5 * (lo + hi)
        margin = SHIFT_RTOL * (scale + abs(sigma) * bmax)
        if (hi - lo) * bmax <= 2.0 * margin:
            return None
        M = S - np.diag(sigma * b + margin)
        L, info = lapack.zpotrf(M, lower=1)
        if info == 0:
            return sigma
        j = info - 1
        x = np.r_[-sla.cho_solve((L[:j, :j], True), M[:j, j]), 1.0]
        xb = float(np.real(x.conj() @ (b[: j + 1] * x)))
        if abs(xb) <= STEER_RTOL * float(np.real(x.conj() @ x)) * bmax:
            return None
        rho = float(np.real(x.conj() @ S[: j + 1, : j + 1] @ x)) / xb
        if xb > 0:
            hi = min(sigma, rho)
        else:
            lo = max(sigma, rho)


def _certify(S, b, lam0, scale):
    """(M, U0, d, m0): M = S - lam0*diag(b) certified >= 0, U0 an orthonormal
    basis of its kernel K0 with U0^H diag(b) U0 = diag(d), and m0 the number
    of B-null directions. A Cholesky factorization of M - floor*I proves K0
    empty; only when it fails is M certified, and K0 read, by one eigh."""
    M = S.copy()
    M.flat[:: M.shape[0] + 1] -= lam0 * b
    floor = PSD_RTOL * (scale + abs(lam0) * max_norm(b))
    if _shifted_cholesky_info(M, floor) == 0:
        return M, np.empty((M.shape[0], 0)), np.empty(0), 0
    # the eigenvalues at or below the floor certify M and span K0
    w, K0 = sla.eigh(M, subset_by_value=(-np.inf, floor), driver="evr")
    if w.size and w[0] < -floor:
        raise NotPsdPencil(
            f"A - lambda0*B has eigenvalue {w[0]:.3e} at lambda0 = {lam0:.6g}"
        )
    G = K0.conj().T @ (b[:, None] * K0)
    d, W = np.linalg.eigh(0.5 * (G + G.conj().T))
    m0 = int(np.sum(np.abs(d) <= GRAM_RTOL * max_norm(b)))
    return M, K0 @ W, d, m0


def finite_eigenvalues(A, B) -> PsdPencilAnalysis:
    """Full analysis of a positive semi-definite pencil.

    Raises NotPsdPencil when no certifying shift exists. A or B may be a
    HermitianMatrix; B's eigendecomposition is then the one it keeps.
    """
    inb, S, b, E, scale = _reduce(A, B)
    sigma = _strict_shift(S, b, scale)
    if sigma is None:
        lam = _j_hermitian_eigenvalues(S, b)
    else:
        mu, ep, em = _eigenvectors(b, S - np.diag(sigma * b), S[:, :0], b[:0], inb)
        lam = np.sort(sigma + 1.0 / mu)
    lam0 = _bracket_shift(lam, inb.n_minus)
    M, U0, d, m0 = _certify(S, b, lam0, scale)
    if m0:
        # each B-null kernel direction closes a 2x2 Jordan block at lambda0,
        # whose eigenvalue the eigensolver splits by O(sqrt(eps))
        lam[np.argsort(np.abs(lam - lam0))[: U0.shape[1] + m0]] = lam0
        lam.sort()
    elif sigma is None:
        mu, ep, em = _eigenvectors(b, M, U0, d, inb)
    return PsdPencilAnalysis(
        lambda0=lam0, inertia_b=inb, lambda_plus=lam[inb.n_minus:].copy(),
        lambda_minus=lam[: inb.n_minus][::-1].copy(), diagonalizable=m0 == 0,
        m0=m0, eigvecs_plus=None if m0 else E @ ep,
        eigvecs_minus=None if m0 else E @ em,
    )


def _eigenvectors(b, M, U0, d, inb):
    """(mu, plus block, minus block) of the diagonalizable pencil
    S - lambda*diag(b) at a shift with M = S - shift*diag(b) >= 0: blocks
    diag(b)-normalized, plus ascending and minus descending in eigenvalue.

    K0 contributes U0 / sqrt|d| at the shift. On the diag(b)-orthogonal
    complement C of K0, C^H M C > 0, so eigh(C^H diag(b) C, C^H M C) is a
    definite pair with eigenvalues mu = 1/(lambda - shift), ascending, and
    vectors of B-norm mu."""
    U0 = U0 / np.sqrt(np.abs(d))
    Bd = np.diag(b)
    if U0.shape[1]:
        C = np.linalg.qr(Bd @ U0, mode="complete")[0][:, U0.shape[1]:]
        mu, Y = sla.eigh(C.conj().T @ Bd @ C, C.conj().T @ M @ C)
        Y = C @ Y
    else:
        mu, Y = sla.eigh(Bd, M)
    V = Y / np.sqrt(np.abs(mu))
    pos, neg = mu > 0, mu < 0
    counts = (np.sum(d > 0) + np.sum(pos), np.sum(d < 0) + np.sum(neg))
    if counts != (inb.n_plus, inb.n_minus):
        raise NotPsdPencil("eigenvector signs disagree with the inertia of B")
    # mu ascending: lambda ascends over positive mu read backwards and
    # descends over negative mu read forwards
    ep = np.hstack([U0[:, d > 0], V[:, pos][:, ::-1]])
    em = np.hstack([U0[:, d < 0], V[:, neg]])
    return mu, ep, em


def eigenvectors_of(A, B, mu: float) -> np.ndarray:
    """Basis for the eigenvectors of A - lambda*B at the finite eigenvalue
    mu: the nullspace of A - mu*B with components in N(A) & N(B) projected
    out. May be empty when the eigenspace is entirely degenerate."""
    A_ = as_herm(A)
    B_ = as_herm(B)
    _, sv, Vh = np.linalg.svd(A_ - mu * B_)
    null = Vh.conj().T[:, sv <= RANK_RTOL * sv.max(initial=0.0)]
    # N(A) & N(B) from one SVD of the stacked [A; B], as a reference that
    # shares nothing with the analysis
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


def diagonalizability(A, B, analysis: PsdPencilAnalysis) -> tuple[bool, int]:
    """Recompute the diagonalizability certificate for a completed analysis:
    diagonalizable iff no direction of the kernel of A - lambda0*B is B-null,
    with m0 such directions (coupled blocks) otherwise."""
    _inb, S, b, _E, scale = _reduce(A, B)
    m0 = _certify(S, b, analysis.lambda0, scale)[3]
    return m0 == 0, m0
