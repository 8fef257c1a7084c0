"""Analysis of Hermitian pencils A - lambda*B with indefinite, possibly
singular B.

One eigh of B gives its inertia, its nonzero eigenvalues Lambda_B and
N(B) = span U0. The common nullspace, the kernel of A*U0, is deflated; on
the rest of N(B) A is positive definite for a positive semi-definite pencil,
and its Schur complement S, in B's eigenvectors scaled by |Lambda_B|^-1/2,
leaves the regular rank(B)-sized pencil S - lambda*J, J = sign(Lambda_B),
with the same finite spectrum (Liang, Li & Bai, LAA 438, 2013); every
decision is made in these units. One bracket search, one Cholesky per step,
places the shift. It bisects for a strict shift, S - sigma*J > 0 (Crawford &
Moon, LAA 51, 1983), inside the bracket of the quotients S_ii / J_i; one
tridiagonal reduction of the definite pair (J, S - sigma*J) gives every
eigenvalue, sigma + 1/mu, and is kept for `PsdPencilAnalysis.eigvecs`, which
transforms back only the eigenvectors asked for. Where no strict shift fits,
on a narrow bracket or near a coupled block, the search relaxes each
Cholesky and steps to the quotient of the lowest eigenvector of
S - sigma*J, or by Newton's method on its J-norm when it is nearly J-null,
until it places lambda0 or the bracket closes. Only the certificate at
lambda0 then decides: one eigh of the eigenvalues of S - lambda0*J at or
below the floor proves it positive semi-definite, and they span its kernel
K0. The pencil is diagonalizable iff no direction z of K0 is J-null. Each
such z has a Jordan partner w; the columns at lambda0 are K0's other
directions and t*z +/- w/(2t), and the definite pair on their J-orthogonal
complement gives every other eigenvalue, lambda0 + 1/mu. Its eigenvectors
with mu past the strict margin join those columns, and the pair is reduced
again without them. No nonsymmetric solve runs; lambda0 is the midpoint of
the computed bracket [max lambda-, min lambda+], or the shift itself when
one side is empty.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas, lapack

from .errors import NotPsdPencil
from .spectral import HermitianMatrix, Inertia, as_herm, max_norm
from .spectral import _pair_eigenpairs, _reduce_pair

# singular values of A*U0 below this times ||A||_F count as zero in the
# deflation of N(A) & N(B)
RANK_RTOL = 1e-9
# eigenvalues of S - lambda0*J below -PSD_RTOL * (max|A11| + |lambda0|)
# refute the certificate; those at or below +PSD_RTOL * (...) span its kernel K0
PSD_RTOL = 1e-9
# a unit direction x of K0 with |x^H J x| <= GRAM_RTOL is J-null (B-null)
GRAM_RTOL = 1e-8
# a direction x of S - sigma*J with |x^H J x| <= STEER_RTOL * ||x||^2 is nearly
# J-null: it cannot steer the search by its quotient, and near lambda0 only
# such a lowest eigenvector leads Newton's method to a Jordan block
STEER_RTOL = 0.1
# a strict shift leaves S - sigma*J >= SHIFT_RTOL * (max|A11| + |sigma|), so the
# definite pair there gives eigenvalues to about eps / SHIFT_RTOL relative; at
# any other shift the pair's eigenvalues within this margin are deflated
SHIFT_RTOL = 1e-3


@dataclass
class PsdPencilAnalysis:
    """Certificate and spectral data for a positive semi-definite pencil.

    lambda_plus holds the n_plus largest finite eigenvalues ascending;
    lambda_minus the n_minus smallest, indexed descending so entry 0 is the
    largest of the minus group. Eigenvectors exist only when the pencil is
    diagonalizable: the analysis keeps one reduced definite pair (at the
    strict shift, or at the placed shift beside K0, its Jordan chains and the
    pair's eigenvectors within the margin), and `eigvecs` computes from it
    only the columns asked for. They have B-norm +1 / -1 and align with the
    eigenvalue lists.
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
    # the count of N(B) directions where A > 0 (`_reduce`'s n2)
    _n2: int = field(default=0, repr=False)

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
    # column-major, so that the Cholesky of the shifted S can run in place
    Sh = np.conjugate(S.T, out=np.empty(S.shape, complex, order="F"))
    Sh += S
    Sh *= 0.5
    return inb, Sh, np.sign(b), E, scale, V2.shape[1]


def _try_shift(S, J, sigma, margin):
    """One Cholesky of M = S - sigma*diag(J) - margin*I, in place (the upper
    triangle keeps M): (L, None, 0, nan) on success, else (None, x, g, rho)
    for the negative direction x = [-M11^-1 m; 1] left at the failing pivot
    j, with g = x^H J x / ||x||^2 and rho = x^H S x / x^H J x. Every shift
    sigma' with S - sigma'*diag(J) >= 0 has x^H S x >= sigma' * x^H J x: the
    sign of g says on which side of rho such a shift lies."""
    M = np.array(S, order="F")
    M.flat[:: J.size + 1] -= sigma * J + margin
    L, info = lapack.zpotrf(M, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        return L, None, 0.0, np.nan
    j = info - 1
    x = np.r_[-sla.cho_solve((L[:j, :j], True), L[:j, j]), 1.0]
    xx, xb = (float(np.real(x.conj() @ (w * x))) for w in (1.0, J[: j + 1]))
    rho = float(np.real(x.conj() @ S[: j + 1, : j + 1] @ x)) / xb if xb else np.nan
    return None, x, xb / xx, rho


def _shift_search(S, J, scale):
    """(sigma, strict) from one search in the bracket of the quotients
    S_ii / J_i: a positive semi-definite shift sigma has S_ii - sigma*J_i >= 0,
    so they bound it below (J_i < 0) and above (J_i > 0); a side without such
    J_i takes 2||S||_F. Bisection, one Cholesky per step, seeks a strict shift,
    S - sigma*diag(J) - margin*I > 0 with margin = SHIFT_RTOL * (scale +
    |sigma|) (strict True). A failed step steers by its negative direction x
    (`_try_shift`): beyond sigma, or beyond the quotient rho of x, which bounds
    every positive semi-definite shift too. On a bracket too narrow for the
    margin or a nearly J-null x the search relaxes (strict False). Each step
    factors S - sigma*J + r*I; a failure cuts the bracket of the quotients by
    sigma and rho, a success takes the lowest unit eigenvector z of
    S - sigma*J by three inverse iterations from x. With g = z^H J z beyond
    STEER_RTOL it steps to z's quotient, which cuts the bracket too and for
    z near the kernel of S - lambda0*J is lambda0 to second order (as beside a
    touching pair). A nearly J-null z, as near a coupled block, takes a Newton
    step on g(sigma) instead: there the lowest eigenvalue is about
    -c*(sigma - lambda0)^2, g about 2c*(sigma - lambda0), and g' =
    2 u^H (S - sigma*J + r*I)^-1 u, u = Jz - g*z, comes from the factor; it
    cuts at sigma when e = z^H (S - sigma*J) z < 0. r starts at SHIFT_RTOL *
    (scale + |sigma|), then is about 4|e|, but at least floor/2, floor =
    PSD_RTOL * (scale + |sigma|). At floor/2 a step within r and inside the
    bracket is lambda0; else, after a quotient step with e >= 0, sigma is. A
    bracket closed below the floor takes one last such step at its midpoint;
    if it fails, its sigma and rho cut the bracket once more, and `_certify`
    judges the midpoint of what is left."""
    if not J.size:
        return 0.0, True
    q = np.real(np.diag(S)) / J
    # a side without a quotient takes 2||S||_F, by BLAS nrm2, which scales so that
    # no square of an entry over- or underflows; a two-sided bracket never reads it
    reach = 2.0 * float(blas.dznrm2(S.ravel(order="K"))) if J.min() == J.max() else np.inf
    lo, hi = float(np.max(q[J < 0], initial=-reach)), float(np.min(q[J > 0], initial=reach))
    psd, x = [lo, hi], np.ones(J.size)
    while True:
        sigma = 0.5 * (lo + hi)
        margin = SHIFT_RTOL * (scale + abs(sigma))
        if hi - lo <= 2.0 * margin:
            break
        L, x, g, rho = _try_shift(S, J, sigma, margin)
        if L is not None:
            return sigma, True
        if abs(g) <= STEER_RTOL:
            break
        if g > 0:
            hi, psd[1] = min(sigma, rho), min(psd[1], rho)
        else:
            lo, psd[0] = max(sigma, rho), max(psd[0], rho)
    (lo, hi), rtol, least, guess = psd, SHIFT_RTOL, 0.5 * PSD_RTOL, np.nan
    # every step narrows the bracket, a Newton step perhaps only by its own
    # size: the cap ends a search that creeps without reaching the floor
    for _ in range(100):
        sigma = guess if lo <= guess <= hi else 0.5 * (lo + hi)
        closed = hi - lo <= 2.0 * PSD_RTOL * (scale + abs(sigma))
        if closed:
            sigma, rtol = 0.5 * (lo + hi), least
        relax = rtol * (scale + abs(sigma))
        L, y, g, rho = _try_shift(S, J, sigma, -relax)
        guess = np.nan
        if L is None:
            if not g:
                return sigma, False
            x = y
            lo, hi = (lo, min(sigma, rho)) if g > 0 else (max(sigma, rho), hi)
            if closed:
                return 0.5 * (lo + hi), False
            continue
        x = np.r_[x, np.zeros(J.size - x.size)]
        for _ in range(3):
            x = lapack.zpotrs(L, x, lower=1)[0]
            x /= np.linalg.norm(x)
        g = float(np.real(x.conj() @ (J * x)))
        e = float(np.real(x.conj() @ S @ x)) - sigma * g
        steer = abs(g) > STEER_RTOL
        if steer:
            guess = sigma + e / g
        else:
            u = J * x - g * x
            dg = 2.0 * float(np.real(u.conj() @ lapack.zpotrs(L, u, lower=1)[0]))
            guess = sigma - g / dg if dg > 0 else np.inf
        if rtol == least and abs(guess - sigma) <= relax and lo <= guess <= hi:
            return guess, False
        if rtol == least and (closed or steer and e >= 0):
            return sigma, False
        if steer or e < 0:
            cut = guess if steer else sigma
            lo, hi = (lo, min(hi, cut)) if g > 0 else (max(lo, cut), hi)
        rtol = max(least, 4.0 * abs(e) / (scale + abs(sigma)))
    return 0.5 * (lo + hi), False


def _certify(M, J, lam0, scale):
    """(U0, d, m0): M = S - lam0*diag(J) certified >= 0 by one eigh of its
    eigenvalues at or below the floor, which span its kernel K0; U0 an
    orthonormal basis of K0 with U0^H diag(J) U0 = diag(d), and m0 the number
    of J-null directions."""
    floor = PSD_RTOL * (scale + abs(lam0))
    try:
        w, K0 = sla.eigh(M, subset_by_value=(-np.inf, floor), driver="evr")
    except np.linalg.LinAlgError:
        # evr (and evx) can fail to converge where the full eigh does not
        w, K0 = np.linalg.eigh(M)
        w, K0 = w[w <= floor], K0[:, w <= floor]
    if w.size and w[0] < -floor:
        raise NotPsdPencil(
            f"A - lambda0*B has eigenvalue {w[0]:.3e} at lambda0 = {lam0:.6g}"
        )
    G = K0.conj().T @ (J[:, None] * K0)
    d, W = np.linalg.eigh(0.5 * (G + G.conj().T))
    m0 = int(np.sum(np.abs(d) <= GRAM_RTOL))
    return K0 @ W, d, m0


def finite_eigenvalues(A, B) -> PsdPencilAnalysis:
    """Full analysis of a positive semi-definite pencil.

    Raises NotPsdPencil when no certifying shift exists. A or B may be a
    HermitianMatrix; B's eigendecomposition is then the one it keeps.
    """
    inb, S, J, E, scale, n2 = _reduce(A, B)
    sigma, strict = _shift_search(S, J, scale)
    # S is not read again: M = S - sigma*J takes its storage
    M = S
    M.flat[:: J.size + 1] -= sigma * J
    if strict:
        # sigma's Cholesky proves the pencil definite: no kernel at lambda0,
        # and no eigenvalue of the pair within the margin to deflate
        U0, d0, m0, margin = np.empty((J.size, 0)), np.empty(0), 0, 0.0
    else:
        # only the certificate at lambda0 decides positive semi-definiteness
        U0, d0, m0 = _certify(M, J, sigma, scale)
        margin = SHIFT_RTOL * (scale + abs(sigma))
    mu, vectors = _pair_beside(M, U0, d0, J, E, inb, margin)
    # K0 and the Jordan partner of each of its J-null directions hold dim K0 +
    # m0 eigenvalues at the shift, the pair the others; lambda0 is the
    # bracket's midpoint, or the shift when one side is empty
    lam = np.sort(np.r_[np.full(U0.shape[1] + m0, sigma), sigma + 1.0 / mu])
    n_minus = inb.n_minus
    lam0 = 0.5 * float(lam[n_minus - 1] + lam[n_minus]) if 0 < n_minus < lam.size else sigma
    return PsdPencilAnalysis(
        lambda0=lam0, inertia_b=inb, lambda_plus=lam[n_minus:].copy(),
        lambda_minus=lam[:n_minus][::-1].copy(), diagonalizable=m0 == 0,
        m0=m0, _vectors=vectors, _scalar=U0.shape[1] == J.size and n2 == 0, _n2=n2,
    )


def _pair_beside(M, U0, d0, J, E, inb, margin):
    """(mu, columns) for M = S - shift*diag(J) >= 0 with kernel span U0 (empty
    at a strict shift): every mu = 1/(lambda - shift) of the definite pair
    (J, M) on the J-orthogonal complement of K0 and its Jordan partners, and
    (k_plus, k_minus, t) -> columns at the shift, chains x = t*z +/- w/(2t)
    first (M W = J Z, Z^H J W = I, W^H J W = K^H J W = 0: x^H J x = +/-1,
    x^H S x = +/-shift + 1/(4t^2)), then K0's other directions, then the
    pair's. The pair's eigenvectors within the margin, |mu| > 1/margin, join
    K0's directions, and the pair is reduced again without them: a mu near
    1/width of a narrow bracket would cost the far eigenpairs about eps*|mu|
    relative. The signs of mu and of the kernel's B-norms must match B's
    inertia."""
    null = np.abs(d0) <= GRAM_RTOL
    K, d, Z = U0[:, ~null] / np.sqrt(np.abs(d0[~null])), d0[~null], U0[:, null]
    W = Z
    if Z.shape[1]:
        # M + U0 U0^H > 0 (its upper triangle, by one rank-k update of a
        # column-major copy of M), and its solution is orthogonal to K0
        W = sla.solve(blas.zherk(1.0, U0, beta=1.0, c=np.array(M, order="F"), overwrite_c=1),
                      J[:, None] * Z, assume_a="pos", lower=False, overwrite_a=True)
        R = np.linalg.inv(np.linalg.cholesky(Z.conj().T @ (J[:, None] * W))).conj().T
        Z, W = Z @ R, W @ R
        W = W - K @ (np.sign(d)[:, None] * (K.conj().T @ (J[:, None] * W)))
        W = W - 0.5 * Z @ (W.conj().T @ (J[:, None] * W))
    d = np.r_[np.ones(W.shape[1]), -np.ones(W.shape[1]), d]
    Q, reduction, mu = _pair_on(J, M, np.hstack([U0, W]))
    if (np.sum(np.r_[d, mu] > 0), np.sum(np.r_[d, mu] < 0)) != (inb.n_plus, inb.n_minus):
        raise NotPsdPencil("eigenvalue signs disagree with the inertia of B")
    n_low, n_high = int(np.sum(margin * mu < -1.0)), int(np.sum(margin * mu > 1.0))
    if n_low + n_high:
        nu, X = _pair_eigenpairs(reduction, n_low, n_high)
        X = (X if Q is None else Q @ X) / np.sqrt(np.abs(nu))
        # lambda- descending and lambda+ ascending: the high end reversed
        K, d = np.hstack([K, X[:, :n_low], X[:, n_low:][:, ::-1]]), np.r_[d, np.sign(nu)]
        Q, reduction, mu = _pair_on(J, M, np.hstack([U0, W, X]))
        mu = np.r_[nu, mu]
    return mu, lambda kp, km, t=1.0: _paired_vectors(
        reduction, E, np.hstack([t * Z + W / (2 * t), t * Z - W / (2 * t), K]), d, Q, kp, km)


def _pair_on(J, M, V):
    """(Q, reduction, mu): the definite pair (J, M) on the J-orthogonal
    complement Q of span V (None if V is empty), reduced once, and its values."""
    Q, Bp, Mp = None, np.diag(J), M
    if V.shape[1]:
        Q, Bp, Mp = _complement(J, M, V)
    # M itself is kept for a second pair beside the eigenvectors within the margin
    L, info = lapack.zpotrf(Mp, lower=1, overwrite_a=Mp is not M)
    if info:
        raise NotPsdPencil("A - lambda*B is not positive definite off its kernel")
    reduction = _reduce_pair(Bp, L) if L.size else None
    mu = (np.empty(0) if reduction is None else
          sla.eigh_tridiagonal(*reduction[:2], eigvals_only=True, lapack_driver="sterf"))
    return Q, reduction, mu


def _complement(J, M, V):
    """(Q, Q^H J Q, Q^H M Q): Q an orthonormal basis of the J-orthogonal
    complement of span V, from one complete QR of J*V. The products are BLAS
    calls on column-major operands, so no conjugate copy is made and
    Q^H M Q comes out ready to factor in place."""
    Q = sla.qr(J[:, None] * V)[0][:, V.shape[1]:]
    Mp = blas.zgemm(1.0, Q, blas.zgemm(1.0, M, Q), trans_a=2)
    return Q, blas.zgemm(1.0, Q, J[:, None] * Q, trans_a=2), Mp


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

