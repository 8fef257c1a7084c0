"""Top-level dispatch and the indefinite-B solvers.

For genuinely indefinite B and a positive semi-definite pencil the infimum
of tr(D X^H A X) is finite exactly when D >= 0; the value pairs the
descending eigenvalues of D with the pencil eigenvalues nearest the
certifying shift, and is attained iff the pencil is diagonalizable.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .definite import SolveReport, _solve_definite, _split_omegas
from .errors import (
    BlockStructureViolated,
    BudgetExceeded,
    InfeasibleConstraint,
    KTooLarge,
    NotPositiveDefinite,
    Unsupported,
)
from .oracle import feasible_sample, local_search
from .pencil import finite_eigenvalues
from .problem import ConstraintSpec, Problem, identity_problem, signature_problem
from .spectral import (
    WEIGHT_RTOL,
    Inertia,
    _certified_cholesky,
    _scaled_tol,
    as_herm,
    max_norm,
)


def check_finiteness(D) -> bool:
    """True iff D is positive semi-definite within WEIGHT_RTOL * max|D|."""
    D_ = as_herm(D)
    return _split_omegas(D_).ell == D_.shape[0]


def solve_indefinite_plus(A, B, D, k=None, want_optimizer=False):
    """inf tr(D X^H A X) over X^H B X = I_k for genuinely indefinite B."""
    p = identity_problem(A, B, D, k, "plus_identity")
    return _solve_indefinite(p, want_optimizer)


def solve_indefinite_minus(A, B, D, k=None, want_optimizer=False):
    """inf tr(D X^H A X) over X^H B X = -I_k for genuinely indefinite B.

    The constraint is X^H (-B) X = I_k, so this is the plus route on (A, -B),
    whose pencil eigenvalues are those of (A, B) negated.
    """
    p = identity_problem(A, B, D, k, "minus_identity")
    return _solve_indefinite(p, want_optimizer)


def solve_signature(
    A, B, D_plus, D_minus, k_plus=None, k_minus=None, want_optimizer=False,
):
    """inf tr(diag(D+, D-) X^H A X) over X^H B X = diag(I, -I)."""
    p = signature_problem(A, B, D_plus, D_minus, k_plus, k_minus)
    return _solve_indefinite(p, want_optimizer)


def _solve_indefinite(p: Problem, want_optimizer) -> SolveReport:
    """The indefinite routes on a validated problem, from one pencil analysis.

    The +1 block of D pairs its descending eigenvalues with the smallest
    lambda+, the -1 block with the largest lambda- negated (the plus route on
    (A, -B)). The infimum is finite iff both blocks are positive
    semi-definite, and attained iff the pencil is diagonalizable.
    """
    c = p.constraint
    Dp, Dm = _split_block_d(p.D.mat, c.k_plus)
    analysis = finite_eigenvalues(p.A, p.B)
    inb = analysis.inertia_b
    if inb.n_plus < 1 or inb.n_minus < 1:
        raise Unsupported("B must be genuinely indefinite for this route")
    for k, count, name in ((c.k_plus, inb.n_plus, "n_plus"),
                           (c.k_minus, inb.n_minus, "n_minus")):
        if k > count:
            raise KTooLarge(f"k={k} exceeds {name}={count}")
    # the report keeps the analysis without its eigenvectors: x_opt holds
    # what the solve takes from them, and a report should not pin the kept
    # reduction
    rep = SolveReport(
        route="indefinite-" + ("signature" if c.k_plus and c.k_minus
                               else "plus" if c.k_plus else "minus"),
        finite=True, value=0.0, attained=True, inertia_b=inb,
        analysis=replace(analysis, _vectors=None),
    )
    if max_norm(p.A.mat) == 0.0:
        # every feasible X attains 0: one draw for the whole constraint
        rep.warnings = ["degenerate_A"]
        if want_optimizer:
            rep.x_opt = feasible_sample(p.B, c, seed=0)
        return rep
    sides = [_pair(D_, lam, role) for D_, lam, role in
             ((Dp, analysis.lambda_plus, "lambda+"), (Dm, -analysis.lambda_minus, "-lambda-"))
             if D_.shape[0]]
    if None in sides:
        # a block has a weight below -WEIGHT_RTOL * max|D|: `check_finiteness`
        # fails
        rep.finite, rep.value, rep.attained = False, None, False
        return rep
    rep.value = float(sum(value for value, _, _ in sides))
    rep.pairing = [entry for _, pairing, _ in sides for entry in pairing]
    rep.attained = analysis.diagonalizable
    if rep.attained and want_optimizer:
        # the k_plus smallest lambda+ and k_minus largest lambda- pair with D
        V = [Vs for Vs in analysis.eigvecs(c.k_plus, c.k_minus) if Vs.shape[1]]
        rep.x_opt = np.hstack([Vs @ q.conj().T for Vs, (_, _, q) in zip(V, sides)])
    return rep


def _pair(D_, eigs, role):
    """(value, pairing, Q) of one block of D: its descending eigenvalues pair
    with eigs[:k], and Q holds their eigenvectors; None when the block has a
    negative weight."""
    k = D_.shape[0]
    om = _split_omegas(D_)
    if om.ell < k:
        return None
    pairing = [(float(om.omegas[i]), float(eigs[i]), f"{role}[{i + 1}]") for i in range(k)]
    return float(sum(w * lam for w, lam, _ in pairing)), pairing, om.q


def _split_block_d(D_, k_plus):
    """Split a full k x k D into its diagonal blocks at k_plus, rejecting
    coupling between the +1 and -1 index groups."""
    off = D_[:k_plus, k_plus:]
    if max_norm(off) > _scaled_tol(D_, WEIGHT_RTOL):
        raise BlockStructureViolated(
            "D couples the +1 and -1 column groups; no eigenvalue-product "
            "formula exists for coupled D (see `tracemin counterexample`)"
        )
    return D_[:k_plus, :k_plus], D_[k_plus:, k_plus:]


def solve(A, B, D, constraint: ConstraintSpec, sense="min", want_optimizer=False):
    """Route a trace-optimization problem to the matching analytic solver.

    D is the full k x k weight matrix; for signature constraints it must be
    block-diagonal conformally with diag(I_{k+}, -I_{k-}).
    """
    p = Problem.of(A, B, D, constraint, sense)
    n = p.A.n
    # a Cholesky factor of B or -B certifies a definite B, and the definite
    # route solves from it (on -B for negative definite B); only an
    # indefinite or singular B needs its eigendecomposition, which gives the
    # inertia here and, kept by p.B, the pencil analysis
    for negated, wrong, entries, suffix, inb in (
        (False, constraint.k_minus, "-1 diagonal entries for positive", "", Inertia(n, 0, 0)),
        (True, constraint.k_plus, "+1 diagonal entries for negative", "-negated-b",
         Inertia(0, 0, n)),
    ):
        L = _definite_factor(-p.B.mat if negated else p.B.mat)
        if L is None:
            continue
        if wrong:
            raise InfeasibleConstraint(f"X^H B X cannot have {entries} definite B")
        rep = _solve_definite(p.A.mat, L, p.D.mat, p.sense, want_optimizer)
        rep.route += suffix
        rep.inertia_b = inb
        return rep
    inb = p.B.inertia()
    if inb.n_plus == 0 or inb.n_minus == 0:
        raise Unsupported(
            "singular semi-definite B is outside the analytic coverage"
        )
    if p.sense == "max":
        raise Unsupported(
            "maximization under genuinely indefinite B has no analytic solution"
        )
    return _solve_indefinite(p, want_optimizer)


def _definite_factor(B_):
    """The certified Cholesky factor of B, or None when B is not positive
    definite."""
    try:
        return _certified_cholesky(B_)
    except NotPositiveDefinite:
        return None


def epsilon_suboptimal(A, B, D, constraint: ConstraintSpec, eps: float, seed=0):
    """Feasible X whose objective is within eps of the established infimum.

    Returns the attaining optimizer when one exists; otherwise runs the
    randomized search with an escalating budget and raises BudgetExceeded if
    the target is out of reach."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    p = Problem.of(A, B, D, constraint)
    rep = solve(*p, want_optimizer=True)
    if not rep.finite:
        raise Unsupported("infimum is -inf; no eps-suboptimal point exists")
    if rep.attained and rep.x_opt is not None:
        return rep.x_opt

    target = rep.value + eps
    for i, (restarts, iters) in enumerate([(8, 500), (16, 2000), (32, 8000)]):
        res = local_search(
            p.A, p.B, p.D, constraint, restarts=restarts, iters=iters,
            seed=int(seed) + i,
        )
        if res.best_value <= target:
            return res.best_X
    raise BudgetExceeded(
        f"search did not reach value + eps = {target:.6g}; eps too small for budget"
    )
