"""Reference for the lockstep oracle: the one-restart-at-a-time search.

``sequential_search`` runs each restart of ``tracemin.local_search`` to its
end before drawing the next, with one Cayley solve per trial step. It draws
from the same generators in the same order and forms every product and sum
on one X = [Z; R] as the lockstep search forms it for one matrix of its
stack, so every restart ends exactly where it ends inside the lockstep
search. Where a restart diverges, the lockstep search stops every restart
still running, so the reference cuts each restart that ran as far at the
earliest iteration where one diverged. It returns (best_value, iterations,
stop_reasons).
"""

import math

import numpy as np

from tracemin.oracle import (
    CONVERGED_GN2_RTOL,
    PROBE_NOISE_RTOL,
    _draw_starts,
    _SignatureCoords,
)
from tracemin.spectral import as_herm, max_norm


def _boost_pair(X, i_plus, i_minus, t):
    c, s = math.cosh(t), math.sinh(t)
    X2 = X.copy()
    X2[i_plus] = c * X[i_plus] + s * X[i_minus]
    X2[i_minus] = s * X[i_plus] + c * X[i_minus]
    return X2


def sequential_search(A, B, D, constraint, restarts=20, iters=500, seed=0):
    A_, B_, D_ = as_herm(A), as_herm(B), as_herm(D)
    coords = _SignatureCoords(B_, constraint)
    divergence = -1e6 * (1.0 + max_norm(A_) * max_norm(D_))
    basis = np.hstack([coords.P, coords.N])
    Ac = basis.conj().T @ A_ @ basis
    AcT = Ac.T.copy()
    n, k = Ac.shape[0], coords.k
    nz = coords.n_zero
    r = n - nz
    noise = PROBE_NOISE_RTOL * max_norm(Ac) * max_norm(D_)
    C = constraint.matrix()
    js, sig = coords.row_signs[:, None], coords.col_signs[:, None]

    def axd(X):
        """Ac X D, the columns of X D as the rows of one product with Ac^T."""
        T = (X @ D_).T.copy()
        Y = (T if k > 1 else np.vstack([T, T])) @ AcT
        return Y[:k].T.copy()

    def f_of(X):
        return float(np.real((X.conj() * axd(X)).sum()))

    def beats(ft, Xt, f):
        """Whether a probe's value ft at Xt lowers f past its rounding error."""
        return ft + noise * float((np.abs(Xt) ** 2).sum()) < f - 1e-12 * (1.0 + abs(f))

    runs = []  # per restart: f after each iteration's probes, stop reason, final f
    hyperbolic = coords.n_plus >= 1 and coords.n_minus >= 1

    for restart in range(restarts):
        rng = np.random.default_rng([int(seed), restart])
        X = _draw_starts(coords, [rng])[0]
        f = f_of(X)
        step = 1.0
        stalls = 0
        probed = []
        prev = None
        reason = "budget"
        for it in range(iters):
            if hyperbolic and it % 25 == 0:
                for _ in range(4):
                    ip = int(rng.integers(coords.n_plus))
                    im = coords.n_plus + int(rng.integers(coords.n_minus))
                    for t in (1.0, 4.0, 16.0):
                        Xt = _boost_pair(X, ip, im, t)
                        ft = f_of(Xt)
                        if beats(ft, Xt, f):
                            X, f = Xt, ft
            if nz and it % 25 == 0:
                for t in (1.0, 10.0):
                    Xt = X.copy()
                    Xt[r:] += t * (rng.standard_normal((nz, k))
                                   + 1j * rng.standard_normal((nz, k)))
                    ft = f_of(Xt)
                    if beats(ft, Xt, f):
                        X, f = Xt, ft
            probed.append(f)
            if f < divergence:
                reason = "unbounded"
                break
            G = 2.0 * axd(X)
            Z = X[:r]
            W = (js * G[:r]) @ Z.conj().T
            K = 0.5 * (W - W.conj().T)
            gn2 = float((np.abs(K) ** 2).sum())
            if nz:
                gn2 += float((np.abs(G[r:]) ** 2).sum())
            S = js * K
            flow = S @ Z
            if nz:
                flow = np.concatenate([flow, G[r:]])
            step = min(step * 2.0, 1.0)
            if prev is not None:
                X_prev, flow_prev = prev
                dx = X - X_prev
                sy = float(np.real((dx.conj() * (flow - flow_prev)).sum()))
                ss = float(np.real((dx.conj() * dx).sum()))
                if sy > 1e-300 and ss > 0:
                    step = min(max(ss / sy, 1e-12), 1e3)
            accepted = False
            eye_r = np.eye(r)
            for _ in range(30):
                half = 0.5 * step
                try:
                    Z_new = np.linalg.solve(eye_r + half * S, Z - half * flow[:r])
                except np.linalg.LinAlgError:
                    step *= 0.5
                    continue
                X_new = np.concatenate([Z_new, X[r:] - step * G[r:]]) if nz else Z_new
                f_new = f_of(X_new)
                if f_new < f - 1e-14 * (1.0 + abs(f)) or f_new < divergence:
                    prev = (X, flow)
                    X, f = X_new, f_new
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
                Z = X[:r]
                X = np.concatenate([Z - 0.5 * Z @ (sig * (Z.conj().T @ (js * Z) - C)), X[r:]])
                f = f_of(X)
        runs.append((probed, reason, f))
    # a restart still running at the first divergence, at iteration cut, stops there
    cut = min((len(p) - 1 for p, reason, _ in runs if reason == "unbounded"), default=iters)
    ends = [("unbounded", cut + 1, p[cut]) if len(p) > cut else (reason, len(p), f)
            for p, reason, f in runs]
    best_f = min((f for _, _, f in ends if np.isfinite(f)), default=np.inf)
    return best_f, sum(n for _, n, _ in ends), tuple(reason for reason, _, _ in ends)
