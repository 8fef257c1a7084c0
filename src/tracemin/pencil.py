"""Analysis of Hermitian pencils A - lambda*B with indefinite, possibly
singular B.

One eigh of B gives its inertia, its nonzero eigenvalues Lambda_B and
N(B) = span U0. The common nullspace, the kernel of A*U0, is deflated; on
the rest of N(B) A is positive definite for a positive semi-definite pencil,
and its Schur complement S, in B's eigenvectors scaled by |Lambda_B|^-1/2,
leaves the regular rank(B)-sized pencil S - lambda*J, J = sign(Lambda_B),
with the same finite spectrum (Liang, Li & Bai, LAA 438, 2013); every
decision is made in these units. Bisection with one Cholesky per step seeks
a strict shift, S - sigma*J > 0 (Crawford & Moon, LAA 51, 1983) inside the
bracket of the quotients S_ii / J_i, and gives up on a nearly J-null
negative direction. One tridiagonal reduction of the definite pair
(J, S - sigma*J) gives every eigenvalue, sigma + 1/mu, as values, and is
kept for `PsdPencilAnalysis.eigvecs`, which transforms back only the
eigenvectors asked for; that pencil is definite, so diagonalizable with no
kernel at lambda0, the midpoint of the bracket [max lambda-, min lambda+].
Without a strict shift (a coupled block, a degenerate or narrow bracket)
one nonsymmetric solve of the J-Hermitian J*S gives the eigenvalues, whose
real parts place lambda0; only the certificate at lambda0 decides: one eigh
of the eigenvalues of S - lambda0*J at or below the floor proves it positive
semi-definite, and they span its kernel K0. The pencil is diagonalizable iff
no direction z of K0 is J-null. Each such z has a Jordan partner w; the
columns at lambda0 are K0's other directions and t*z +/- w/(2t), and the
definite pair on their J-orthogonal complement is reduced once and kept (on
a coupled pencil, once asked for) by the same helper that reduces the pair
at a strict shift, where K0 is empty.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import NotPsdPencil
from .spectral import HermitianMatrix, Inertia, as_herm, max_norm
from .spectral import _pair_eigenpairs, _reduce_pair

# singular values below this times the largest (of [A; B] in
# `eigenvectors_of`, of A*U0 against ||A||_F in the deflation) count as zero
RANK_RTOL = 1e-9
# eigenvalues of S - lambda0*J below -PSD_RTOL * (max|A11| + |lambda0|)
# refute the certificate; those at or below +PSD_RTOL * (...) span its kernel K0
PSD_RTOL = 1e-9
# a unit direction x of K0 with |x^H J x| <= GRAM_RTOL is J-null (B-null)
GRAM_RTOL = 1e-8
# a negative direction x of S - sigma*J with |x^H J x| <= STEER_RTOL * ||x||^2
# is nearly J-null and cannot steer the shift search
STEER_RTOL = 0.1
# a strict shift leaves S - sigma*J >= SHIFT_RTOL * (max|A11| + |sigma|), so the
# definite pair there gives eigenvalues to about eps / SHIFT_RTOL relative (at
# PSD_RTOL's floor they could lose 1e-8)
SHIFT_RTOL = 1e-3


@dataclass
class PsdPencilAnalysis:
    """Certificate and spectral data for a positive semi-definite pencil.

    lambda_plus holds the n_plus largest finite eigenvalues ascending;
    lambda_minus the n_minus smallest, indexed descending so entry 0 is the
    largest of the minus group. Eigenvectors exist only when the pencil is
    diagonalizable: the analysis keeps one reduced definite pair (at the
    strict shift, or at lambda0 beside K0 and its Jordan chains), and `eigvecs`
    computes from it only the columns asked for. They have B-norm +1 / -1
    and align with the eigenvalue lists.
    """

    lambda0: float
    inertia_b: Inertia
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    diagonalizable: bool
    m0: int
    # (k_plus, k_minus, t) -> the leading columns of both blocks, chains at t
    _vectors: Callable | None = field(default=None, repr=False, compare=False)
    # A = lambda0*B: S - lambda0*J has kernel K0 everywhere and A vanishes on N(B)
    _scalar: bool = field(default=False, repr=False)

    @property
    def rank(self) -> int:
        return self.inertia_b.rank

    def eigvecs(self, k_plus: int, k_minus: int):
        """(plus, minus): the eigenvectors of lambda_plus[:k_plus] and of
        lambda_minus[:k_minus], or (None, None) when the pencil is not
        diagonalizable."""
        return self._vectors(k_plus, k_minus) if self._vectors and not self.m0 else (None, None)

    def _vectors_within(self, w_plus, w_minus, eps):
        """The columns paired with D's descending block weights w_plus, w_minus;
        on a coupled pencil each block leads with its chains, taken at the
        t >= 1 that puts their excess sum(w)/(4t^2) at eps/2."""
        w = sum(w_plus[: self.m0]) + sum(w_minus[: self.m0])
        t = float(np.sqrt(max(w / (2 * eps), 1.0))) if self.m0 else 1.0
        return self._vectors(len(w_plus), len(w_minus), t)

    # the full blocks
    eigvecs_plus = property(lambda self: self.eigvecs(self.inertia_b.n_plus, 0)[0])
    eigvecs_minus = property(lambda self: self.eigvecs(0, self.inertia_b.n_minus)[1])


def find_lambda0(A, B) -> float | None:
    """A real shift making A - lambda*B positive semi-definite, or None when
    the pencil admits none."""
    try:
        return finite_eigenvalues(A, B).lambda0
    except NotPsdPencil:
        return None


def _reduce(A, B):
    """(inertia of B, S, J, E, scale, n2): the pencil S - lambda*diag(J), J the
    signs of B's nonzero eigenvalues Lambda_B, E mapping its eigenvectors to
    those of A - lambda*B, scale = max|A11|, n2 = dim V2. Only here is
    |Lambda_B| read: E starts as U_r |Lambda_B|^-1/2, so E^H B E = diag(J),
    and A11 = E^H A E. V2 spans the directions where A*U0 has singular values
    above RANK_RTOL * ||A||_F (N(B) beyond N(A) & N(B)); A22 = V2^H A V2 must
    be positive definite, S = A11 - A12 A22^-1 A21, E -= V2 A22^-1 A21."""
    A_ = as_herm(A)
    Bh = HermitianMatrix.of(B)
    if A_.shape != Bh.mat.shape:
        raise ValueError("A and B must have the same shape")
    inb = Bh.inertia()
    w, U = Bh.eigh()
    # eigh sorts ascending: the n_minus negative, n_zero null, n_plus positive
    nonzero = np.r_[: inb.n_minus, inb.n_minus + inb.n_zero : inb.n]
    b = w[nonzero]
    E, U0 = U[:, nonzero] / np.sqrt(np.abs(b)), U[:, inb.n_minus : inb.n_minus + inb.n_zero]
    S = E.conj().T @ A_ @ E
    scale, V2 = max_norm(S), U0
    if U0.shape[1]:
        _, sv, Vh = np.linalg.svd(A_ @ U0, full_matrices=False)
        V2 = U0 @ Vh[: int(np.sum(sv > RANK_RTOL * np.linalg.norm(A_)))].conj().T
        L, info = lapack.zpotrf(V2.conj().T @ A_ @ V2, lower=1)
        if info:
            raise NotPsdPencil("A is not positive definite on N(B) minus N(A)")
        Y = sla.solve_triangular(L, V2.conj().T @ A_ @ E, lower=True)
        S = S - Y.conj().T @ Y
        E = E - V2 @ sla.solve_triangular(L, Y, lower=True, trans="C")
    return inb, 0.5 * (S + S.conj().T), np.sign(b), E, scale, V2.shape[1]


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


def _strict_shift(S, J, scale) -> float | None:
    """sigma with S - sigma*diag(J) - margin*I positive definite, or None.
    A Cholesky that fails at pivot j leaves the negative direction
    x = [-M11^-1 m; 1]: sign(x^H diag(J) x) says which side of the bracket
    sigma is on, and x^H S x / x^H diag(J) x bounds that side. The search
    ends on a nearly J-null x or a bracket too narrow for the margin."""
    # a certifying sigma has S_ii - sigma*J_i >= 0, so the quotients S_ii / J_i
    # bound it below (J_i < 0) and above (J_i > 0); a side without such J_i
    # takes 2||S||_F, beyond every quotient and every eigenvalue of J*S
    q = np.real(np.diag(S)) / J
    reach = 2.0 * float(np.linalg.norm(S))
    lo, hi = float(np.max(q[J < 0], initial=-reach)), float(np.min(q[J > 0], initial=reach))
    while True:
        sigma = 0.5 * (lo + hi)
        margin = SHIFT_RTOL * (scale + abs(sigma))
        if hi - lo <= 2.0 * margin:
            return None
        M = S - np.diag(sigma * J + margin)
        L, info = lapack.zpotrf(M, lower=1)
        if info == 0:
            return sigma
        j = info - 1
        x = np.r_[-sla.cho_solve((L[:j, :j], True), M[:j, j]), 1.0]
        xb = float(np.real(x.conj() @ (J[: j + 1] * x)))
        if abs(xb) <= STEER_RTOL * float(np.real(x.conj() @ x)):
            return None
        rho = float(np.real(x.conj() @ S[: j + 1, : j + 1] @ x)) / xb
        if xb > 0:
            hi = min(sigma, rho)
        else:
            lo = max(sigma, rho)


def _certify(S, J, lam0, scale):
    """(M, U0, d, m0): M = S - lam0*diag(J) certified >= 0 by one eigh of its
    eigenvalues at or below the floor, which span its kernel K0; U0 an
    orthonormal basis of K0 with U0^H diag(J) U0 = diag(d), and m0 the number
    of J-null directions."""
    M = S - np.diag(lam0 * J)
    floor = PSD_RTOL * (scale + abs(lam0))
    w, K0 = sla.eigh(M, subset_by_value=(-np.inf, floor), driver="evr")
    if w.size and w[0] < -floor:
        raise NotPsdPencil(
            f"A - lambda0*B has eigenvalue {w[0]:.3e} at lambda0 = {lam0:.6g}"
        )
    G = K0.conj().T @ (J[:, None] * K0)
    d, W = np.linalg.eigh(0.5 * (G + G.conj().T))
    m0 = int(np.sum(np.abs(d) <= GRAM_RTOL))
    return M, K0 @ W, d, m0


def finite_eigenvalues(A, B) -> PsdPencilAnalysis:
    """Full analysis of a positive semi-definite pencil.

    Raises NotPsdPencil when no certifying shift exists. A or B may be a
    HermitianMatrix; B's eigendecomposition is then the one it keeps.
    """
    inb, S, J, E, scale, n2 = _reduce(A, B)
    sigma = _strict_shift(S, J, scale)
    if sigma is None:
        # the real parts only place lambda0; the certificate at lambda0 decides
        # whether the pencil is positive semi-definite
        lam = np.sort(np.real(np.linalg.eigvals(J[:, None] * S)))
        lam0 = _bracket_shift(lam, inb.n_minus)
        M, U0, d0, m0 = _certify(S, J, lam0, scale)
        # K0 and the Jordan partner of each of its B-null directions hold
        # dim K0 + m0 eigenvalues at lambda0, which the eigensolver splits
        # (a 2x2 Jordan block by O(sqrt(eps)))
        lam[np.argsort(np.abs(lam - lam0))[: U0.shape[1] + m0]] = lam0
        lam.sort()
        at_lam0 = lambda: _pair_beside(M, U0, d0, J, E, inb)[1]
        # a coupled analysis solves for its chains only when columns are asked for
        vectors = at_lam0() if m0 == 0 else lambda kp, km, t: at_lam0()(kp, km, t)
    else:
        # sigma's Cholesky proves the pencil definite: no kernel at lambda0
        U0, m0 = np.empty((J.size, 0)), 0
        mu, vectors = _pair_beside(S - np.diag(sigma * J), U0, np.empty(0), J, E, inb)
        lam = np.sort(sigma + 1.0 / mu)
        lam0 = _bracket_shift(lam, inb.n_minus)
    return PsdPencilAnalysis(
        lambda0=lam0, inertia_b=inb, lambda_plus=lam[inb.n_minus:].copy(),
        lambda_minus=lam[: inb.n_minus][::-1].copy(), diagonalizable=m0 == 0,
        m0=m0, _vectors=vectors, _scalar=U0.shape[1] == J.size and n2 == 0,
    )


def _pair_beside(M, U0, d0, J, E, inb):
    """(mu, columns) for M = S - shift*diag(J) >= 0 with kernel span U0 (empty
    at a strict shift): every mu = 1/(lambda - shift) of the definite pair
    (J, M) on the J-orthogonal complement of K0 and its Jordan partners, and
    (k_plus, k_minus, t) -> columns at the shift, chains x = t*z +/- w/(2t)
    first (M W = J Z, Z^H J W = I, W^H J W = K^H J W = 0: x^H J x = +/-1,
    x^H S x = +/-shift + 1/(4t^2)), then K0's other directions, then the
    pair's. The signs of mu and of the kernel's B-norms must match B's
    inertia."""
    null = np.abs(d0) <= GRAM_RTOL
    K, d, Z = U0[:, ~null] / np.sqrt(np.abs(d0[~null])), d0[~null], U0[:, null]
    W = Z
    if Z.shape[1]:
        # M + U0 U0^H > 0, and its solution is orthogonal to K0
        W = sla.solve(M + U0 @ U0.conj().T, J[:, None] * Z, assume_a="pos")
        R = np.linalg.inv(np.linalg.cholesky(Z.conj().T @ (J[:, None] * W))).conj().T
        Z, W = Z @ R, W @ R
        W = W - K @ (np.sign(d)[:, None] * (K.conj().T @ (J[:, None] * W)))
        W = W - 0.5 * Z @ (W.conj().T @ (J[:, None] * W))
    d = np.r_[np.ones(W.shape[1]), -np.ones(W.shape[1]), d]
    Q, Bp, Mp = None, np.diag(J), M
    if U0.shape[1]:
        Q = np.linalg.qr(J[:, None] * np.hstack([U0, W]), mode="complete")[0][:, d.size:]
        Bp, Mp = Q.conj().T @ (J[:, None] * Q), Q.conj().T @ M @ Q
    L, info = lapack.zpotrf(Mp, lower=1)
    if info:
        raise NotPsdPencil("A - lambda*B is not positive definite off its kernel")
    reduction = _reduce_pair(Bp, L) if L.size else None
    mu = (np.empty(0) if reduction is None else
          sla.eigh_tridiagonal(*reduction[:2], eigvals_only=True, lapack_driver="sterf"))
    if (np.sum(np.r_[d, mu] > 0), np.sum(np.r_[d, mu] < 0)) != (inb.n_plus, inb.n_minus):
        raise NotPsdPencil("eigenvalue signs disagree with the inertia of B")
    return mu, lambda kp, km, t=1.0: _paired_vectors(
        reduction, E, np.hstack([t * Z + W / (2 * t), t * Z - W / (2 * t), K]), d, Q, kp, km)


def _paired_vectors(reduction, E, K, d, Q, k_plus, k_minus):
    """B-normalized eigenvectors of the k_plus smallest lambda+ and k_minus
    largest lambda-, mapped through E: first the kernel's K at lambda0, split
    by the sign of its B-norms d, then the pair's (mapped by Q if given):
    lambda+ = shift + 1/mu read backwards over mu > 0, lambda- forwards over mu < 0."""
    Kp, Km = K[:, d > 0][:, :k_plus], K[:, d < 0][:, :k_minus]
    n_high, n_low = k_plus - Kp.shape[1], k_minus - Km.shape[1]
    Y = K[:, :0]
    if n_low + n_high:
        mu, X = _pair_eigenpairs(reduction, n_low, n_high)
        Y = (X if Q is None else Q @ X) / np.sqrt(np.abs(mu))
    V = E @ np.hstack([Km, Y, Kp[:, ::-1]])
    return V[:, k_minus:][:, ::-1], V[:, :k_minus]


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
    """The diagonalizability certificate of a completed analysis:
    diagonalizable iff no direction of the kernel of A - lambda0*B is B-null,
    with m0 such directions (coupled blocks) otherwise. The analysis of A and
    B made that certificate; running it again is the same code on the same
    input and cannot disagree, so the analysis's own answer is returned."""
    return analysis.diagonalizable, analysis.m0
