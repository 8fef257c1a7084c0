"""Independent verification engine.

Parametrizes the feasible sets X^H B X = diag(+/-1) through a congruence to
signature coordinates and runs randomized projected descent there from
closed-form random starts: Cayley steps of the J-orthogonal group keep the
constraint exact, and a first-order J-Gram correction washes out rounding
drift. The restarts of one search run in lockstep as stacked arrays. Each
draws from its own generator, keeps its own step length and stopping test
and has every product formed per matrix or per row, so it follows bit for
bit the path it would follow alone, while every stacked NumPy call serves
all restarts still running. The backtracking line search tries a few
halvings of each restart's step in one stacked solve and accepts the first
that lowers the objective. A nonsingular B leaves no null rows, and the
search then does no work for them.

The oracle imports nothing from the analytic modules it certifies. It also
carries the closed forms of the coupled-weight counterexample that rules out
an eigenvalue-product formula for signature constraints with a
non-block-diagonal D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDraw
from .problem import ConstraintSpec, Problem
from .spectral import HermitianMatrix, as_herm, max_norm


def objective(A, D, X) -> float:
    """tr(D X^H A X), guaranteed real for Hermitian A and D."""
    A_ = as_herm(A)
    D_ = as_herm(D)
    return float(np.real(np.trace(D_ @ X.conj().T @ A_ @ X)))


def constraint_residual(B, X, C) -> float:
    """max|X^H B X - C|."""
    return max_norm(X.conj().T @ as_herm(B) @ X - C)


def _ct(M):
    """Conjugate transpose of the trailing two axes."""
    return M.conj().swapaxes(-1, -2)


def _sqrtm_psd(M):
    w, V = np.linalg.eigh(M)
    return (V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _ct(V)


@dataclass
class HyperbolicFactorization:
    """Parameters (W, V+, V-) of a J-orthogonal matrix: a positive boost
    block built from W times a block-diagonal unitary."""

    w: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray


def compose_hyperbolic(f: HyperbolicFactorization) -> np.ndarray:
    """Assemble the J-orthogonal matrix X with X^H J X = J,
    J = diag(I_{n+}, -I_{n-}). The parameters may be stacks over leading
    axes, which must broadcast; X then stacks over them too."""
    W = np.asarray(f.w, dtype=complex)
    np_, nm = W.shape[-2:]
    Vp = np.asarray(f.v_plus, dtype=complex)
    Vm = np.asarray(f.v_minus, dtype=complex)
    if Vp.shape[-2:] != (np_, np_) or Vm.shape[-2:] != (nm, nm):
        raise ValueError("unitary block shapes must match W")
    top = _sqrtm_psd(np.eye(np_) + W @ _ct(W))
    bot = _sqrtm_psd(np.eye(nm) + _ct(W) @ W)
    boost = np.concatenate([np.concatenate([top, W], axis=-1),
                            np.concatenate([_ct(W), bot], axis=-1)], axis=-2)
    stack = np.broadcast_shapes(Vp.shape[:-2], Vm.shape[:-2])
    V = np.zeros(stack + (np_ + nm, np_ + nm), dtype=complex)
    V[..., :np_, :np_] = Vp
    V[..., np_:, np_:] = Vm
    return boost @ V


STOP_REASONS = ("converged", "stalled", "budget", "unbounded")
# A restart whose second line search fails where gn2, its squared gradient
# norm, is at most CONVERGED_GN2_RTOL * (1 + |f|)^2 has converged: near a
# minimum the decrease a step can still make, about gn2 over the curvature,
# falls below the line search's acceptance margin 1e-14 * (1 + |f|) once
# gn2 is about that small, so failing there is how a finished restart stops.
CONVERGED_GN2_RTOL = 1e-12
# An escape probe Xt counts only past f's rounding error at Xt, PROBE_NOISE_RTOL
# * ||Xt||_F^2 * max|Ac| * max|D| (Ac: A in the search's coordinates); a t = 16
# boost grows ||X||^2 by about 2e13, enough for noise to "lower" a constant f.
PROBE_NOISE_RTOL = 1e-13


@dataclass
class OracleResult:
    """Best point found by ``local_search``. ``iterations`` sums every
    restart's iterations; ``stop_reasons`` holds one entry of
    ``STOP_REASONS`` per restart, in restart order."""

    best_value: float
    best_X: np.ndarray | None
    iterations: int
    feasibility_residual: float
    unbounded_flag: bool = False
    stop_reasons: tuple = ()


class _SignatureCoords:
    """Congruence coordinates for the constraint X^H B X = diag(s).

    Eigen-decomposing B = V diag(b) V^H splits coordinates into +, - and
    null groups, counted by `HermitianMatrix.inertia` as the solver counts
    them, and a constraint they cannot hold is refused by the solver's rule.
    X = P Z + N R with Z^H J Z = diag(s) on the rank-r part and R free on
    the nullspace."""

    def __init__(self, B, constraint: ConstraintSpec):
        Bh = HermitianMatrix.of(B)
        w, V = Bh.eigh()
        inb = Bh.inertia()
        constraint.check_feasible(inb)
        self.n_plus, self.n_minus, self.n_zero = inb.n_plus, inb.n_minus, inb.n_zero
        # eigh ascends: n_minus negative columns, n_zero null ones, then the
        # positive ones, which the + group takes largest first
        nm, null = self.n_minus, self.n_minus + self.n_zero
        cols = np.concatenate([np.arange(Bh.n - 1, null - 1, -1), np.arange(nm)])
        self.P = V[:, cols] / np.sqrt(np.abs(w[cols]))
        self.N = V[:, nm:null]
        self.row_signs = np.sign(w[cols])
        self.col_signs = constraint.signature_vector()
        self.k = constraint.k


def _draw_starts(coords: _SignatureCoords, rngs):
    """Stacked starts [Z; R], one per generator: Z is the leading k columns of
    a random J-orthogonal matrix in hyperbolic polar form (Higham, SIAM Rev.
    45, 2003) on k+ + q coordinates, q = min(n-, k), mapped J-isometrically
    into B's by orthonormal frames, so Z^H J Z = diag(col_signs) to rounding.
    R is free on the nullspace. Each generator draws W, Gp, Gm, then R."""
    kp, q, k = int(np.sum(coords.col_signs > 0)), min(coords.n_minus, coords.k), coords.k

    def gauss(rng, *shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    W, Gp, Gm, R = (np.stack(a) for a in zip(*[
        (gauss(g, kp, q), gauss(g, coords.n_plus, kp), gauss(g, coords.n_minus, q),
         0.1 * gauss(g, coords.n_zero, k)) for g in rngs]))
    X = compose_hyperbolic(HyperbolicFactorization(W, np.eye(kp), np.eye(q)))[..., :k]
    Qp, Qm = np.linalg.qr(Gp)[0], np.linalg.qr(Gm)[0]
    return np.concatenate([Qp @ X[:, :kp], Qm @ X[:, kp:], R], axis=1)


def _boost_rows(X, i_plus, i_minus, t):
    """Apply, in each restart's X, a hyperbolic rotation mixing its + row
    i_plus and its - row i_minus; preserves Z^H J Z exactly."""
    c, s = math.cosh(t), math.sinh(t)
    rows = np.arange(len(X))
    xp, xm = X[rows, i_plus], X[rows, i_minus]
    X2 = X.copy()
    X2[rows, i_plus] = c * xp + s * xm
    X2[rows, i_minus] = s * xp + c * xm
    return X2


def _cayley_trials(S, Z, F, halves):
    """Cayley steps (I + h S)^-1 (Z - h F) of each restart, F = S Z, for its
    row of half steps h: S, Z and F stack (m, r, r), (m, r, k) and (m, r, k),
    halves is (m, c); returns the (m, c, r, k) points. A singular system
    leaves its point NaN, which no acceptance test passes."""
    h = halves[..., None, None]
    lhs = np.eye(S.shape[-1]) + h * S[:, None]
    rhs = Z[:, None] - h * F[:, None]
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for idx in np.ndindex(halves.shape):
            try:
                out[idx] = np.linalg.solve(lhs[idx], rhs[idx])
            except np.linalg.LinAlgError:
                pass
        return out


# Line-search trials before a step counts as a stall, and the halvings j in
# [j0, j1) that each round of the line search tries in one stacked solve.
# The Barzilai-Borwein step itself is accepted about three times in four, so
# the first round tries it alone and later rounds, for the restarts that
# backtrack, try eight halvings each. On n=6, k=2 instances this takes 9%
# fewer rounds and 25% fewer solves than rounds of four.
_HALVINGS = 30
_ROUNDS = ((0, 1), (1, 9), (9, 17), (17, 25), (25, 30))
_SCALES = 0.5 ** np.arange(_HALVINGS)


class _Lockstep:
    """State of the restarts that advance together.

    Row i of every live array belongs to restart ``ids[i]``; X stacks each
    restart's point in signature coordinates, Z (range rows) over R (null
    rows). ``stop`` records the final point, value and reason of the rows
    that leave and drops them from the live arrays, so every stacked
    operation works on running restarts only. No arithmetic mixes rows, so
    a row computes what it would compute alone in a stack of one."""

    _LIVE = ("ids", "rngs", "X", "f", "step", "stalls", "has_prev", "X_prev",
             "flow_prev")

    def __init__(self, rngs, X, f):
        m = len(rngs)
        self.ids = np.arange(m)
        self.rngs = np.empty(m, dtype=object)
        self.rngs[:] = rngs
        self.X, self.f = X, f
        self.step = np.ones(m)
        self.stalls = np.zeros(m, dtype=int)
        # Barzilai-Borwein memory: the point and the flow field at each
        # restart's last accepted step, valid where has_prev is set
        self.has_prev = np.zeros(m, dtype=bool)
        self.X_prev = np.zeros_like(X)
        self.flow_prev = np.zeros_like(X)
        self.final_X = np.empty_like(X)
        self.final_f = np.empty(m)
        self.count = 0  # iterations begun; a row that stops ran this many
        self.iterations = np.zeros(m, dtype=int)
        self.reasons = [""] * m

    def stop(self, rows, reason):
        """Retire the live rows selected by the boolean mask ``rows``."""
        if not rows.any():
            return
        ids = self.ids[rows]
        self.final_X[ids] = self.X[rows]
        self.final_f[ids] = self.f[rows]
        self.iterations[ids] = self.count
        for i in ids:
            self.reasons[i] = reason
        keep = ~rows
        for name in self._LIVE:
            setattr(self, name, getattr(self, name)[keep])


def local_search(
    A, B, D, constraint: ConstraintSpec,
    restarts=20, iters=500, seed=0,
) -> OracleResult:
    """Randomized projected descent on the feasible set.

    Every restart has its own generator ``default_rng([seed, restart])``;
    one stacked closed form draws each restart's feasible start from it, and
    all restarts advance in lockstep as stacked arrays, each with its own
    step length, Barzilai-Borwein memory and stopping test. Every product is
    formed per matrix, or per row where the stack is flattened, so each
    restart follows bit for bit the path it would follow alone: short of a
    divergence, which stops them all, a search with more restarts ends its
    first ones exactly where a smaller search ends them. An iteration takes
    one Cayley step of the J-orthogonal steepest-descent generator, which
    keeps Z^H J Z exact. Its backtracking line search tries the halvings
    step * 2^-j a few at a time in one stacked solve and accepts the first j
    that lowers f. Every 25 iterations, before the gradient, boost and
    nullspace probes that beat f's rounding error find the escapes that
    certify unbounded instances; every 40 the first-order J-Gram correction
    Z - Z diag(s) E / 2, with Z^H J Z = diag(s) + E, washes out feasibility
    drift. With B nonsingular there are no null rows, and no step, gradient
    norm or flow field spends work on them.

    A restart stops when its line search fails a second time: ``converged``
    where gn2, its squared gradient norm, is at most CONVERGED_GN2_RTOL *
    (1 + |f|)^2, else ``stalled``. It stops as ``budget`` after ``iters``
    iterations. Once any restart falls below the divergence threshold the
    search stops, flags the instance unbounded and marks the restarts still
    running ``unbounded``.
    The result is the point of least finite value over all restarts, the
    first such restart on a tie.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    # validated as `solve` validates them; HermitianMatrix values pass as they are
    prob = Problem.of(A, B, D, constraint)
    A_, Bh, D_, C = prob.A.mat, prob.B, prob.D.mat, constraint.matrix()
    coords = _SignatureCoords(Bh, constraint)
    divergence = -1e6 * (1.0 + max_norm(A_) * max_norm(D_))

    # compress A onto the range/null split once; every evaluation and gradient
    # then works with stacks of n x k arrays X = [Z; R] only
    basis = np.hstack([coords.P, coords.N])
    Ac = basis.conj().T @ A_ @ basis
    n, k = Ac.shape[0], coords.k
    n_plus, n_minus, nz = coords.n_plus, coords.n_minus, coords.n_zero
    r = n_plus + n_minus
    noise = PROBE_NOISE_RTOL * max_norm(Ac) * max_norm(D_)
    AcT = Ac.T.copy()

    def axd(X):
        """Ac X D for every matrix of the stack X. Each column of X D is a row
        of one product with Ac^T, and a row's rounding does not depend on the
        rows stacked around it; a lone row is doubled, because NumPy forms a
        one-row product with gemv, which rounds differently."""
        T = (X.reshape(-1, k) @ D_).reshape(-1, n, k).swapaxes(1, 2).reshape(-1, n)
        Y = (T if len(T) > 1 else np.vstack([T, T])) @ AcT
        return Y[:len(T)].reshape(-1, k, n).swapaxes(1, 2).reshape(X.shape)

    def f_of(X):
        """tr(D X^H Ac X) for every matrix of the stack X."""
        return np.real((X.conj() * axd(X)).sum(axis=(-2, -1)))

    def accept(X, f, Xt):
        """The probes Xt, with their values, where they lower f; else X and f."""
        ft = f_of(Xt)
        err = noise * (np.abs(Xt) ** 2).sum(axis=(1, 2))
        better = ft + err < f - 1e-12 * (1.0 + np.abs(f))
        return np.where(better[:, None, None], Xt, X), np.where(better, ft, f)

    rngs = [np.random.default_rng([int(seed), i]) for i in range(restarts)]
    X0 = _draw_starts(coords, rngs)
    s = _Lockstep(rngs, X0, f_of(X0))

    hyperbolic = n_plus >= 1 and n_minus >= 1
    js, sig = coords.row_signs[:, None], coords.col_signs[:, None]
    unbounded = False

    for it in range(iters):
        s.count += 1
        if it % 25 == 0:
            # escape probes: exact-feasibility boosts and nullspace kicks,
            # drawn from each restart's generator, boosts first
            X, f = s.X, s.f
            if hyperbolic:
                pairs = np.array([
                    [(int(g.integers(n_plus)), n_plus + int(g.integers(n_minus)))
                     for _ in range(4)]
                    for g in s.rngs
                ])
                for p in range(4):
                    for t in (1.0, 4.0, 16.0):
                        X, f = accept(X, f, _boost_rows(X, pairs[:, p, 0], pairs[:, p, 1], t))
            if nz:
                kicks = np.array([
                    [g.standard_normal((nz, k)) + 1j * g.standard_normal((nz, k))
                     for _ in range(2)]
                    for g in s.rngs
                ])
                for i, t in enumerate((1.0, 10.0)):
                    Xt = X.copy()
                    Xt[:, r:] += t * kicks[:, i]
                    X, f = accept(X, f, Xt)
            s.X, s.f = X, f
        if (s.f < divergence).any():
            unbounded = True
            break
        G = 2.0 * axd(s.X)
        # steepest descent in the J-orthogonal group acting on the left:
        # Z moves along S*Z with S = J*K, K skew-Hermitian, which keeps
        # Z^H J Z exact and (by Witt transitivity) reaches every feasible
        # point from any start. K = -skew(J G Z^H) is the steepest choice.
        # The null rows R move along -G.
        W = (js * G[:, :r]) @ _ct(s.X[:, :r])
        K = 0.5 * (W - _ct(W))
        gn2 = (np.abs(K) ** 2).sum(axis=(1, 2))
        if nz:
            gn2 += (np.abs(G[:, r:]) ** 2).sum(axis=(1, 2))
        X, f = s.X, s.f
        Z = X[:, :r]
        # trial step: Barzilai-Borwein secant on the ambient flow field
        # [J K Z; G_R] (which vanishes exactly at critical points), else
        # doubled memory; accept on plain decrease
        S = js * K
        flow = S @ Z
        if nz:
            flow = np.concatenate([flow, G[:, r:]], axis=1)
        step = np.minimum(s.step * 2.0, 1.0)
        if s.has_prev.any():
            dx = X - s.X_prev
            sy = np.real((dx.conj() * (flow - s.flow_prev)).sum(axis=(1, 2)))
            ss = np.real((dx.conj() * dx).sum(axis=(1, 2)))
            bb = s.has_prev & (sy > 1e-300) & (ss > 0)
            step[bb] = np.minimum(np.maximum(ss[bb] / sy[bb], 1e-12), 1e3)
        # backtracking: the first halving j < _HALVINGS whose step lowers f.
        # The Cayley transform of the J-skew generator -step*J*K is exactly
        # J-orthogonal, so feasibility is preserved.
        target = f - 1e-14 * (1.0 + np.abs(f))
        m = len(f)
        accepted = np.zeros(m, dtype=bool)
        X_new, f_new = X.copy(), f.copy()
        step_new = step * 0.5 ** _HALVINGS
        todo = np.arange(m)
        for j0, j1 in _ROUNDS:
            # a round that serves every row reads the stacks whole, ungathered
            sel = todo if len(todo) < m else slice(None)
            steps = step[sel, None] * _SCALES[j0:j1]
            Xc = _cayley_trials(S[sel], Z[sel], flow[sel, :r], 0.5 * steps)
            if nz:
                # the null rows take the plain gradient step
                Rc = X[sel, None, r:] - steps[..., None, None] * G[sel, None, r:]
                Xc = np.concatenate([Xc, Rc], axis=-2)
            fc = f_of(Xc)
            hit = (fc < target[sel, None]) | (fc < divergence)
            got = hit.any(axis=1)
            rows, first = todo[got], hit[got].argmax(axis=1)
            X_new[rows] = Xc[got, first]
            f_new[rows] = fc[got, first]
            step_new[rows] = steps[got, first]
            accepted[rows] = True
            todo = todo[~got]
            if not len(todo):
                break
        s.has_prev |= accepted
        np.copyto(s.X_prev, X, where=accepted[:, None, None])
        np.copyto(s.flow_prev, flow, where=accepted[:, None, None])
        s.X, s.f, s.step = X_new, f_new, step_new
        s.stalls += ~accepted
        stuck = s.stalls >= 2
        if stuck.any():
            s.stop(stuck & (gn2 <= CONVERGED_GN2_RTOL * (1.0 + np.abs(s.f)) ** 2),
                   "converged")
            s.stop(s.stalls >= 2, "stalled")
            if not len(s.ids):
                break
        if it % 40 == 39:
            # wash out feasibility drift: with Z^H J Z = C + E, the first-order
            # J-Gram correction Z - Z diag(col_signs) E / 2 leaves C + O(E^2)
            Z = s.X[:, :r]
            Z -= 0.5 * Z @ (sig * (_ct(Z) @ (js * Z) - C))
            s.f = f_of(s.X)
    s.stop(np.ones(len(s.ids), dtype=bool), "unbounded" if unbounded else "budget")

    finite = np.isfinite(s.final_f)
    if not finite.any():
        raise DegenerateDraw("no restart reached a finite value")
    best = int(np.argmin(np.where(finite, s.final_f, np.inf)))
    X = basis @ s.final_X[best]
    return OracleResult(
        best_value=float(s.final_f[best]),
        best_X=X,
        iterations=int(s.iterations.sum()),
        feasibility_residual=constraint_residual(Bh, X, C),
        unbounded_flag=unbounded,
        stop_reasons=tuple(s.reasons),
    )


# ---------------------------------------------------------------------------
# Coupled-weight counterexample: with A = diag(1, mu), B = J_2 = diag(1, -1)
# and D a rotated diag(1, delta), the infimum over the hyperbolic family
# Y(tau) drops strictly below both candidate eigenvalue-product sums.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleParams:
    """Weights (mu, delta) with 0 < delta < 1/mu < 1 < mu."""

    mu: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0 / self.mu < 1.0 < self.mu):
            raise ValueError("parameters must satisfy 0 < delta < 1/mu < 1 < mu")

    @property
    def gamma(self) -> float:
        return (1.0 - self.delta) / (1.0 + self.delta)

    @property
    def nu(self) -> float:
        return (1.0 - self.mu) / (1.0 + self.mu)

    @property
    def eta(self) -> float:
        return math.sqrt((1.0 - self.gamma**2) / (1.0 - self.nu**2))


def counterexample_matrices(p: CounterexampleParams, sigma: float):
    """(A, B, D) of the counterexample at mixing angle sigma."""
    if not -1.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (-1, 1)")
    A = np.diag([1.0, p.mu])
    B = np.diag([1.0, -1.0])
    c = math.sqrt(1.0 - sigma * sigma)
    Q = np.array([[c, -sigma], [sigma, c]])
    D = Q.T @ np.diag([1.0, p.delta]) @ Q
    return A, B, D


def counterexample_y(tau: float) -> np.ndarray:
    """The hyperbolic feasible point Y(tau) with Y^H B Y = J_2."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    s = math.sqrt(1.0 + tau * tau)
    return np.array([[s, tau], [tau, s]])


def counterexample_f(p: CounterexampleParams, sigma: float, tau: float) -> float:
    """Closed form of tr(D Y(tau)^H A Y(tau)) as a function of (sigma, tau)."""
    if not -1.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (-1, 1)")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    g, nu = p.gamma, p.nu
    bracket = (
        tau * tau
        - g * nu * sigma * sigma
        - 2.0 * g * tau * sigma * math.sqrt(1.0 - sigma * sigma) * math.sqrt(1.0 + tau * tau)
    )
    return 1.0 + p.delta * p.mu + (1.0 + p.delta) * (1.0 + p.mu) * bracket


def counterexample_stationary(p: CounterexampleParams):
    """Stationary coordinates (tau_star, sigma_star_minus, sigma_star_plus).

    On the half-plane tau >= 0 the interior minimum of f sits at
    (+sigma_star, tau_star); the mirrored point (-sigma_star, tau_star) is
    the stationary partner of the tau <= 0 extension.
    """
    g, nu = p.gamma, p.nu
    tau2 = 0.5 * (math.sqrt((1.0 - nu**2) / (1.0 - g**2)) - 1.0)
    sig2 = 0.5 * ((nu / g) * math.sqrt((1.0 - g**2) / (1.0 - nu**2)) + 1.0)
    tau_star = math.sqrt(tau2)
    sigma_star = math.sqrt(sig2)
    return tau_star, -sigma_star, sigma_star


def counterexample_gap(p: CounterexampleParams):
    """(f_min, bound, margin) for the counterexample.

    f_min = 1 + delta*mu - (1 - sqrt(delta*mu))^2 = 2*sqrt(delta*mu) is the
    value of f at its interior minimum (+sigma_star, tau_star); it sits
    strictly below bound = min(1 + delta*mu, mu + delta), so the infimum
    cannot equal either eigenvalue-product sum.
    """
    f_min = 1.0 + p.delta * p.mu - (1.0 - math.sqrt(p.delta * p.mu)) ** 2
    bound = min(1.0 + p.delta * p.mu, p.mu + p.delta)
    return f_min, bound, bound - f_min
