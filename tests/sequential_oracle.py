"""Reference for the lockstep oracle: the one-restart-at-a-time search.

``sequential_search`` runs each restart of ``tracemin.local_search`` to its
end before drawing the next, with scalar arithmetic and one Cayley solve per
trial step. It draws from the same generators in the same order, so every
restart follows the path it takes inside the lockstep search, up to
rounding. It returns (best_value, iterations, stop_reasons).
"""

import math

import numpy as np

from tracemin.oracle import (
    CONVERGED_GN2_RTOL,
    PROBE_NOISE_RTOL,
    _draw_starts,
    _j_orthonormalize,
    _SignatureCoords,
)
from tracemin.spectral import as_herm, max_norm


def _boost_pair(Z, i_plus, i_minus, t):
    c, s = math.cosh(t), math.sinh(t)
    Z2 = Z.copy()
    Z2[i_plus] = c * Z[i_plus] + s * Z[i_minus]
    Z2[i_minus] = s * Z[i_plus] + c * Z[i_minus]
    return Z2


def sequential_search(A, B, D, constraint, restarts=20, iters=500, seed=0):
    A_, B_, D_ = as_herm(A), as_herm(B), as_herm(D)
    coords = _SignatureCoords(B_, constraint)
    divergence = -1e6 * (1.0 + max_norm(A_) * max_norm(D_))
    P, N = coords.P, coords.N
    Ap = P.conj().T @ A_ @ P
    An = P.conj().T @ A_ @ N if coords.n_zero else None
    Ann = N.conj().T @ A_ @ N if coords.n_zero else None
    basis = np.hstack([P, N])
    noise = PROBE_NOISE_RTOL * max_norm(basis.conj().T @ A_ @ basis) * max_norm(D_)

    def ax_parts(Z, R):
        top = Ap @ Z
        bot = None
        if R is not None:
            top = top + An @ R
            bot = An.conj().T @ Z + Ann @ R
        return top, bot

    def f_of(Z, R):
        top, bot = ax_parts(Z, R)
        M = Z.conj().T @ top
        if bot is not None:
            M = M + R.conj().T @ bot
        return float(np.real(np.trace(D_ @ M)))

    def beats(ft, Z, R, f):
        """Whether a probe's value ft at (Z, R) lowers f past its rounding error."""
        n2 = float(np.sum(np.abs(Z) ** 2))
        if R is not None:
            n2 += float(np.sum(np.abs(R) ** 2))
        return ft + noise * n2 < f - 1e-12 * (1.0 + abs(f))

    best_f = np.inf
    total_iters = 0
    reasons = []
    hyperbolic = coords.n_plus >= 1 and coords.n_minus >= 1
    js = coords.row_signs[:, None]

    for restart in range(restarts):
        rng = np.random.default_rng([int(seed), restart])
        X0 = _draw_starts(coords, [rng])[0]
        r = coords.n_plus + coords.n_minus
        Z, R = X0[:r], X0[r:] if coords.n_zero else None
        f = f_of(Z, R)
        step = 1.0
        stalls = 0
        history = []
        prev = None
        reason = "budget"
        for it in range(iters):
            history.append(f)
            if len(history) > 10 and history[-11] - f < 1e-12 * (1.0 + abs(f)):
                reason = "converged"
                break
            total_iters += 1
            if hyperbolic and it % 25 == 0:
                for _ in range(4):
                    ip = int(rng.integers(coords.n_plus))
                    im = coords.n_plus + int(rng.integers(coords.n_minus))
                    for t in (1.0, 4.0, 16.0):
                        Zt = _boost_pair(Z, ip, im, t)
                        ft = f_of(Zt, R)
                        if beats(ft, Zt, R, f):
                            Z, f = Zt, ft
            if coords.n_zero and it % 25 == 0:
                for t in (1.0, 10.0):
                    Rt = R + t * (
                        rng.standard_normal(R.shape) + 1j * rng.standard_normal(R.shape)
                    )
                    ft = f_of(Z, Rt)
                    if beats(ft, Z, Rt, f):
                        R, f = Rt, ft
            if f < divergence:
                reason = "unbounded"
                break
            top, bot = ax_parts(Z, R)
            Gz = 2.0 * top @ D_
            W = (js * Gz) @ Z.conj().T
            K = 0.5 * (W - W.conj().T)
            Gr = 2.0 * bot @ D_ if bot is not None else None
            gn2 = float(np.sum(np.abs(K) ** 2))
            if Gr is not None:
                gn2 += float(np.sum(np.abs(Gr) ** 2))
            if gn2 <= 1e-24 * (1.0 + abs(f)) ** 2:
                reason = "converged"
                break
            F = (js * K) @ Z
            step = min(step * 2.0, 1.0)
            if prev is not None:
                Z_prev, F_prev, R_prev, Gr_prev = prev
                s_ = Z - Z_prev
                y_ = F - F_prev
                sy = float(np.real(np.sum(s_.conj() * y_)))
                ss = float(np.real(np.sum(s_.conj() * s_)))
                if Gr is not None:
                    sr = R - R_prev
                    sy += float(np.real(np.sum(sr.conj() * (Gr - Gr_prev))))
                    ss += float(np.real(np.sum(sr.conj() * sr)))
                if sy > 1e-300 and ss > 0:
                    step = min(max(ss / sy, 1e-12), 1e3)
            accepted = False
            eye_r = np.eye(K.shape[0])
            for _ in range(30):
                S = js * K
                half = 0.5 * step
                try:
                    Z_new = np.linalg.solve(eye_r + half * S, Z - half * (S @ Z))
                except np.linalg.LinAlgError:
                    step *= 0.5
                    continue
                R_new = R - step * Gr if Gr is not None else None
                f_new = f_of(Z_new, R_new)
                if f_new < f - 1e-14 * (1.0 + abs(f)) or f_new < divergence:
                    prev = (Z, F, R, Gr)
                    Z, R, f = Z_new, R_new, f_new
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                stalls += 1
                if stalls >= 2:
                    tol = CONVERGED_GN2_RTOL * (1.0 + abs(f)) ** 2
                    reason = "converged" if gn2 <= tol else "stalled"
                    break
            if it % 40 == 39:
                Z = _j_orthonormalize(Z, coords.row_signs, coords.col_signs)
                f = f_of(Z, R)
        reasons.append(reason)
        if f < best_f - 1e-12 * (1.0 + abs(f)):
            best_f = f
        if reason == "unbounded":
            break
    return best_f, total_iters, tuple(reasons)
