"""Analysis of Hermitian pencils A - lambda*B with indefinite, possibly
singular B.

One pass: deflate the common nullspace of A and B, take the rank(B) finite
eigenvalues from one QZ, and place the shift lambda0 in the bracket
[max lambda-, min lambda+] that every certifying shift of a positive
semi-definite pencil lies in. One eigh of A - lambda0*B is then both the
certificate A - lambda0*B >= 0 and the source of its kernel K0. The pencil is
diagonalizable iff no direction of K0 is B-null; the eigenvectors are K0,
B-orthonormalized, plus those of the definite pair on K0's B-orthogonal
complement, whose eigenvalues mu = 1/(lambda - lambda0) come from one eigh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .errors import NotPsdPencil
from .spectral import Inertia, as_herm, inertia, max_norm

# singular values below this times the largest count as zero (stated once,
# used everywhere)
RANK_RTOL = 1e-9
# eigenvalues of A - lambda0*B below -PSD_RTOL * (|A| + |lambda0|*|B|) refute
# the certificate; those at or below +PSD_RTOL * (...) span its kernel K0
PSD_RTOL = 1e-9
# a direction of K0 with |x^H B x| <= GRAM_RTOL * |B| is B-null
GRAM_RTOL = 1e-8
# mu = 1/(lambda - lambda0) with |mu| <= MU_RTOL * max|mu| is an infinite
# eigenvalue
MU_RTOL = 1e-10


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

    def mirrored(self) -> PsdPencilAnalysis:
        """The analysis of (A, -B): its eigenvalues are the negated ones of
        (A, B), so the plus and minus groups trade places."""
        inb = self.inertia_b
        return replace(
            self,
            lambda0=-self.lambda0,
            inertia_b=Inertia(inb.n_minus, inb.n_zero, inb.n_plus),
            lambda_plus=-self.lambda_minus,
            lambda_minus=-self.lambda_plus,
            eigvecs_plus=self.eigvecs_minus,
            eigvecs_minus=self.eigvecs_plus,
        )


def find_lambda0(A, B) -> float | None:
    """A real shift making A - lambda*B positive semi-definite, or None when
    the pencil admits none."""
    try:
        return finite_eigenvalues(A, B).lambda0
    except NotPsdPencil:
        return None


def _common_nullspace_split(A_, B_):
    """Orthonormal bases (P, K): K spans N(A) & N(B), P its complement."""
    n = A_.shape[0]
    S = np.vstack([A_, B_])
    _, sv, Vh = np.linalg.svd(S)
    smax = float(sv[0]) if sv.size else 0.0
    if smax == 0.0:
        return np.empty((n, 0), dtype=complex), np.eye(n, dtype=complex)
    q = int(np.sum(sv > RANK_RTOL * smax))
    V = Vh.conj().T
    return V[:, :q], V[:, q:]


def _deflate(A_, B_):
    """(P, A_d, B_d): the pencil compressed onto P, the complement of the
    common nullspace, where it is regular."""
    if A_.shape != B_.shape:
        raise ValueError("A and B must have the same shape")
    P, _K = _common_nullspace_split(A_, B_)
    Ad = P.conj().T @ A_ @ P
    Bd = P.conj().T @ B_ @ P
    return P, 0.5 * (Ad + Ad.conj().T), 0.5 * (Bd + Bd.conj().T)


def _finite_eigenvalue_list(Ad, Bd, r):
    """The r finite eigenvalues of the deflated (regular) pencil, sorted
    ascending, via the QZ-based generalized eigensolver."""
    if r == 0 or Ad.shape[0] == 0:
        return np.empty(0)
    w = sla.eig(Ad, Bd, right=False, homogeneous_eigvals=True)
    alpha, beta = np.asarray(w[0]), np.asarray(w[1])
    score = np.abs(beta) / (np.abs(alpha) + np.abs(beta) + 1e-300)
    order = np.argsort(score)[::-1]
    idx = order[:r]
    lam = alpha[idx] / beta[idx]
    scale = 1.0 + np.abs(lam)
    # defective double eigenvalues split as a conjugate pair of width
    # O(sqrt(eps)), so the reality tolerance must sit well above that
    if np.any(np.abs(np.imag(lam)) > 1e-6 * scale):
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


def _kernel_certificate(Ad, Bd, lam0):
    """Certify A_d - lam0*B_d >= 0 and diagonalize B_d on its kernel K0.

    Returns (M, U0, d, m0): M = A_d - lam0*B_d, U0 an orthonormal basis of
    K0 with U0^H B_d U0 = diag(d), and m0 the number of B-null directions.
    """
    M = Ad - lam0 * Bd
    w, V = np.linalg.eigh(M)
    floor = PSD_RTOL * (max_norm(Ad) + abs(lam0) * max_norm(Bd))
    if w.size and w[0] < -floor:
        raise NotPsdPencil(
            f"A - lambda0*B has eigenvalue {w[0]:.3e} at lambda0 = {lam0:.6g}"
        )
    K0 = V[:, w <= floor]
    G = K0.conj().T @ Bd @ K0
    d, W = np.linalg.eigh(0.5 * (G + G.conj().T))
    m0 = int(np.sum(np.abs(d) <= GRAM_RTOL * max_norm(Bd)))
    return M, K0 @ W, d, m0


def finite_eigenvalues(A, B) -> PsdPencilAnalysis:
    """Full analysis of a positive semi-definite pencil.

    Raises NotPsdPencil when no certifying shift exists. The common nullspace
    of A and B is deflated before the generalized eigensolve so the pencil
    seen by QZ is regular.
    """
    A_ = as_herm(A)
    B_ = as_herm(B)
    inb = inertia(B_)
    P, Ad, Bd = _deflate(A_, B_)
    lam = _finite_eigenvalue_list(Ad, Bd, inb.rank)
    lam0 = _bracket_shift(lam, inb.n_minus)
    M, U0, d, m0 = _kernel_certificate(Ad, Bd, lam0)

    ep = em = None
    if m0:
        # each B-null kernel direction closes a 2x2 Jordan block at lambda0,
        # whose eigenvalue QZ splits by O(sqrt(eps))
        lam[np.argsort(np.abs(lam - lam0))[: U0.shape[1] + m0]] = lam0
        lam.sort()
    else:
        ep, em = _eigenvectors(Bd, M, U0, d, lam0, inb)
        ep, em = P @ ep, P @ em
    return PsdPencilAnalysis(
        lambda0=lam0,
        inertia_b=inb,
        lambda_plus=lam[inb.n_minus:].copy(),
        lambda_minus=lam[: inb.n_minus][::-1].copy(),
        diagonalizable=m0 == 0,
        m0=m0,
        eigvecs_plus=ep,
        eigvecs_minus=em,
    )


def _eigenvectors(Bd, M, U0, d, lam0, inb):
    """B-normalized eigenvector blocks (plus ascending, minus descending in
    eigenvalue) of a diagonalizable pencil in deflated coordinates.

    K0 contributes U0 / sqrt|d| at lambda0. On the B-orthogonal complement C
    of K0, C^H M C > 0, so eigh(C^H B C, C^H M C) is a definite pair with
    eigenvalues mu = 1/(lambda - lambda0) and vectors of B-norm mu.
    """
    U0 = U0 / np.sqrt(np.abs(d))
    q, k0 = M.shape[0], U0.shape[1]
    C = np.linalg.qr(Bd @ U0, mode="complete")[0][:, k0:] if k0 else np.eye(q)
    if C.shape[1]:
        mu, Y = sla.eigh(C.conj().T @ Bd @ C, C.conj().T @ M @ C)
    else:
        mu, Y = np.empty(0), np.empty((0, 0))
    finite = np.abs(mu) > MU_RTOL * np.abs(mu).max(initial=0.0)
    mu, V = mu[finite], (C @ Y[:, finite]) / np.sqrt(np.abs(mu[finite]))
    pos, neg = mu > 0, mu < 0
    if (np.sum(d > 0) + np.sum(pos), np.sum(d < 0) + np.sum(neg)) != (
        inb.n_plus, inb.n_minus
    ):
        raise NotPsdPencil("eigenvector signs disagree with the inertia of B")
    # mu ascending: lambda ascends over positive mu read backwards and
    # descends over negative mu read forwards
    ep = np.hstack([U0[:, d > 0], V[:, pos][:, ::-1]])
    em = np.hstack([U0[:, d < 0], V[:, neg]])
    return ep, em


def eigenvectors_of(A, B, mu: float) -> np.ndarray:
    """Basis for the eigenvectors of A - lambda*B at the finite eigenvalue
    mu: the nullspace of A - mu*B with components in N(A) & N(B) projected
    out. May be empty when the eigenspace is entirely degenerate."""
    A_ = as_herm(A)
    B_ = as_herm(B)
    M = A_ - mu * B_
    _, sv, Vh = np.linalg.svd(M)
    smax = float(sv[0]) if sv.size else 0.0
    if smax == 0.0:
        null = np.eye(A_.shape[0], dtype=complex)
    else:
        null = Vh.conj().T[:, sv <= RANK_RTOL * smax]
    _P, K = _common_nullspace_split(A_, B_)
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
    _P, Ad, Bd = _deflate(as_herm(A), as_herm(B))
    m0 = _kernel_certificate(Ad, Bd, analysis.lambda0)[3]
    return m0 == 0, m0
