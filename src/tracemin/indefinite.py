"""`solve`, the one way into the solver, and the indefinite-B route.

`solve` validates a problem once (`problem.Problem`) and splits on B's
inertia: a Cholesky factor of B or -B sends it to the definite route, any
other B to the indefinite route here, which reports its route name on
`SolveReport.route`.

For genuinely indefinite B and a positive semi-definite pencil the infimum
of tr(D X^H A X) is finite exactly when D >= 0 or A = lambda0*B; the value
pairs D's descending eigenvalues with the pencil eigenvalues nearest the
certifying shift, and is attained iff the pencil is diagonalizable.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .definite import SolveReport, _pair, _solve_definite, _split_omegas
from .errors import (
    BlockStructureViolated,
    BudgetExceeded,
    InfeasibleConstraint,
    KTooLarge,
    NotPositiveDefinite,
    Unsupported,
)
from .pencil import finite_eigenvalues
from .problem import ConstraintSpec, Problem
from .spectral import WEIGHT_RTOL, Inertia, cholesky, max_norm

# `epsilon_suboptimal`'s bound on max|X^H B X - C| and on -excess / (1 + |value|)
FEASIBILITY_ATOL = 1e-8


def _solve_indefinite(p: Problem, want_optimizer, eps=None) -> SolveReport:
    """The indefinite routes on a validated problem, from one pencil analysis.

    The +1 block of D pairs its descending eigenvalues with the smallest
    lambda+, the -1 block with the largest lambda- negated (the plus route on
    (A, -B)). The infimum is finite iff both blocks are positive
    semi-definite or A = lambda0*B, and attained iff the pencil is
    diagonalizable; given eps, an unattained one carries X within eps/2.
    """
    c = p.constraint
    # B's kept eigh gives its inertia here and, unchanged, the pencil analysis
    inb = p.B.inertia()
    if inb.n_plus < 1 or inb.n_minus < 1:
        raise Unsupported("B must be genuinely indefinite for this route")
    if p.sense == "max":
        raise Unsupported(
            "maximization under genuinely indefinite B has no analytic solution"
        )
    for k, count, name in ((c.k_plus, inb.n_plus, "n_plus"),
                           (c.k_minus, inb.n_minus, "n_minus")):
        if k > count:
            raise KTooLarge(f"k={k} exceeds {name}={count}")
    D_, kp = p.D.mat, c.k_plus
    if max_norm(D_[:kp, kp:]) > WEIGHT_RTOL * max_norm(D_):
        raise BlockStructureViolated(
            "D couples the +1 and -1 column groups; no eigenvalue-product "
            "formula exists for coupled D (see `tracemin counterexample`)"
        )
    analysis = finite_eigenvalues(p.A, p.B)
    # each block is eigendecomposed apart, so each is judged against its own
    # largest weight. A negative weight sends the infimum to -inf, unless
    # A = lambda0*B: X^H A X = lambda0 * C for every feasible X, so every
    # pencil eigenvalue is lambda0 and any weight pairs with it
    oms = (_split_omegas(D_[:kp, :kp]), _split_omegas(D_[kp:, kp:]))
    finite = analysis._scalar or all(om.ell == om.omegas.size for om in oms)
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
    n, constraint = p.A.n, p.constraint
    # a Cholesky factor of B or -B certifies a definite B, and the definite
    # route solves from it (on -B for negative definite B); only an
    # indefinite or singular B needs its eigendecomposition, in the
    # indefinite route. Every pivot of B - tau*I (tau > 0) is at most its
    # diagonal entry, so a diagonal entry of B at or below zero rules out a
    # factor of B, and one at or above zero a factor of -B, unfactored
    b = np.real(np.diagonal(p.B.mat))
    for negated, wrong, entries, suffix, inb in (
        (False, constraint.k_minus, "-1 diagonal entries for positive", "", Inertia(n, 0, 0)),
        (True, constraint.k_plus, "+1 diagonal entries for negative", "-negated-b",
         Inertia(0, 0, n)),
    ):
        if (b.max() >= 0.0) if negated else (b.min() <= 0.0):
            continue
        try:
            L = cholesky(-p.B if negated else p.B)
        except NotPositiveDefinite:
            continue
        if wrong:
            raise InfeasibleConstraint(f"X^H B X cannot have {entries} definite B")
        rep = _solve_definite(p.A.mat, L, p.D.mat, p.sense, want_optimizer)
        rep.route += suffix
        rep.inertia_b = inb
        return rep
    return _solve_indefinite(p, want_optimizer, eps)


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
