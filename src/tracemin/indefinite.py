"""`solve`, the one way into the solver, and the indefinite-B route.

`solve` validates a problem once (`problem.Problem`) and splits on B's
inertia: a Cholesky factor of B or -B sends it to the definite route, any
other B, singular semidefinite B too, to the indefinite route here (named on
`SolveReport.route`). A constraint that inertia cannot hold is refused first.

For such a B and a positive semi-definite pencil the infimum of
tr(D X^H A X) is finite when D >= 0 or A = lambda0*B; the value pairs D's
descending eigenvalues with the pencil eigenvalues nearest the certifying
shift, and is attained iff the pencil is diagonalizable. Any other D is -inf
along an escape, or, without one, refused.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import replace

import numpy as np

from .definite import SolveReport, _pair, _solve_definite, _split_omegas
from .errors import (
    BlockStructureViolated,
    BudgetExceeded,
    NotPositiveDefinite,
    Unsupported,
)
from .pencil import finite_eigenvalues
from .problem import ConstraintSpec, Problem
from .spectral import ZERO_RTOL, Inertia, cholesky, max_norm

# `epsilon_suboptimal`'s bound on max|X^H B X - C| and on -excess / (1 + |value|)
FEASIBILITY_ATOL = 1e-8


def _solve_indefinite(p: Problem, want_optimizer, eps=None) -> SolveReport:
    """The pencil route for every B that is not definite, from one analysis.

    The +1 block of D pairs its descending eigenvalues with the smallest
    lambda+, the -1 block with the largest lambda- negated (the plus route on
    (A, -B)). The infimum is finite if both blocks are positive
    semi-definite or A = lambda0*B, and attained iff the pencil is
    diagonalizable; given eps, an unattained one carries X within eps/2.
    Otherwise it is -inf if a negative weight has an escape, else Unsupported.
    """
    c = p.constraint
    # B's inertia, counted once beside its kept eigh, as `_solve` and the analysis read it
    inb = p.B.inertia()
    if p.sense == "max":
        raise Unsupported("maximization under a B that is not definite has no analytic solution")
    D_, kp = p.D.mat, c.k_plus
    if max_norm(D_[:kp, kp:]) > ZERO_RTOL * max_norm(D_):
        raise BlockStructureViolated(
            "D couples the +1 and -1 column groups; no eigenvalue-product "
            "formula exists for coupled D (see `tracemin counterexample`)"
        )
    analysis = finite_eigenvalues(p.A, p.B)
    # each block is eigendecomposed apart, so each is judged against its own
    # largest weight. A negative weight leaves no finite pairing, unless
    # A = lambda0*B: X^H A X = lambda0 * C for every feasible X, so every
    # pencil eigenvalue is lambda0 and any weight pairs with it
    oms = (_split_omegas(D_[:kp, :kp]), _split_omegas(D_[kp:, kp:]))
    finite = analysis._scalar or all(om.ell == om.omegas.size for om in oms)
    # -inf needs an escape: a negative weight's column boosted by a free direction of the
    # other sign of B or moved along N(B) where A > 0, or, with a column of each sign, the
    # two blocks' least weights, summing below zero, boosted together
    spare = (inb.n_minus - c.k_minus, inb.n_plus - c.k_plus)
    if not finite and not (
            any(om.ell < om.omegas.size and (s or analysis._n2) for om, s in zip(oms, spare))
            or c.k_plus and c.k_minus
            and sum(om.omegas[-1] for om in oms) < -ZERO_RTOL * max_norm(D_)):
        raise Unsupported("D has a negative weight but no escape to -inf; its infimum "
                          "has no known closed form")
    sides = [_pair(om, eigs, [f"{role}[{i + 1}]" for i in range(om.omegas.size)])
             for om, eigs, role in zip(oms, (analysis.lambda_plus, -analysis.lambda_minus),
                                       ("lambda+", "-lambda-"))] if finite else []
    # the report keeps the analysis without its eigenvectors: x_opt holds
    # what the solve takes from them, and a report should not pin the kept
    # reduction
    rep = SolveReport(
        route="indefinite-" + ("signature" if c.k_plus and c.k_minus
                               else "plus" if c.k_plus else "minus"),
        finite=finite, value=float(sum(v for v, _ in sides)) if finite else None,
        attained=finite and analysis.diagonalizable,
        pairing=[entry for _, pairing in sides for entry in pairing],
        warnings=["degenerate_A"] if analysis._scalar else [],
        analysis=replace(analysis, _vectors=None), inertia_b=inb,
    )
    if want_optimizer and finite and (rep.attained or eps):
        # D pairs with the k_plus smallest lambda+ and the k_minus largest lambda-
        V = analysis._vectors_within(*(om.omegas for om in oms), eps)
        rep.x_opt = np.hstack([Vs @ om.q.conj().T for Vs, om in zip(V, oms)])
    return rep


def solve(A, B, D, constraint: ConstraintSpec, sense="min", want_optimizer=False):
    """Route a trace-optimization problem to the matching analytic solver.

    D is the full k x k weight matrix; for signature constraints it must be
    block-diagonal conformally with diag(I_{k+}, -I_{k-}).
    """
    return _solve(Problem.of(A, B, D, constraint, sense), want_optimizer)


def _solve(p: Problem, want_optimizer, eps=None) -> SolveReport:
    """`solve` on a validated problem, eps as in `_solve_indefinite`."""
    n = p.A.n
    # B's inertia, decided once: a Cholesky factor of B or -B certifies a
    # definite B for the definite route (on -B if negative definite), else B's
    # kept eigh counts it. Every pivot of B - tau*I (tau > 0) is at most its
    # diagonal entry, so only a diagonal of one strict sign can have a factor
    b = np.real(np.diagonal(p.B.mat))
    negated, L = b.max() < 0.0, None
    if negated or b.min() > 0.0:
        with suppress(NotPositiveDefinite):
            L = cholesky(-p.B if negated else p.B)
    inb = p.B.inertia() if L is None else Inertia(0, 0, n) if negated else Inertia(n, 0, 0)
    # an infeasible constraint is refused before any refusal of a route
    p.constraint.check_feasible(inb)
    if L is None:
        return _solve_indefinite(p, want_optimizer, eps)
    rep = _solve_definite(p.A.mat, L, p.D.mat, p.sense, want_optimizer)
    rep.route += "-negated-b" if negated else ""
    rep.inertia_b = inb
    return rep


def epsilon_suboptimal(A, B, D, constraint: ConstraintSpec, eps: float):
    """Feasible X whose objective is within eps of the established infimum.

    Returns the attaining optimizer when one exists, else X_t along the Jordan
    chains at lambda0; raises BudgetExceeded when X's measured residual or
    excess is out of bounds (FEASIBILITY_ATOL)."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    p = Problem.of(A, B, D, constraint)
    rep = _solve(p, True, eps)
    if not rep.finite:
        raise Unsupported("infimum is -inf; no eps-suboptimal point exists")
    X = rep.x_opt
    residual = max_norm(X.conj().T @ p.B.mat @ X - constraint.matrix())
    # measured, not taken from the closed form: rounding moves both with t^2
    excess = float(np.real(np.trace(p.D.mat @ X.conj().T @ p.A.mat @ X))) - rep.value
    if residual > FEASIBILITY_ATOL or not -FEASIBILITY_ATOL * (1.0 + abs(rep.value)) <= excess <= eps:
        raise BudgetExceeded(f"X misses X^H B X = C by {residual:.3g} and the infimum by "
                             f"{excess:.3g}; eps is too small")
    return X
