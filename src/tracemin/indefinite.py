"""Top-level dispatch and the indefinite-B solvers.

For genuinely indefinite B and a positive semi-definite pencil the infimum
of tr(D X^H A X) is finite exactly when D >= 0; the value pairs the
descending eigenvalues of D with the pencil eigenvalues nearest the
certifying shift, and is attained iff the pencil is diagonalizable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from .pencil import PsdPencilAnalysis, finite_eigenvalues
from .spectral import (
    WEIGHT_RTOL,
    Inertia,
    _certified_cholesky,
    _scaled_tol,
    as_herm,
    inertia,
    max_norm,
)


@dataclass(frozen=True)
class ConstraintSpec:
    """Which congruence constraint is imposed on X^H B X."""

    kind: str  # "plus_identity" | "minus_identity" | "signature"
    k: int
    k_plus: int = 0
    k_minus: int = 0

    def __post_init__(self):
        if self.kind not in ("plus_identity", "minus_identity", "signature"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("need k >= 1")
        if self.kind == "signature":
            if self.k_plus < 0 or self.k_minus < 0:
                raise ValueError("signature split must be nonnegative")
            if self.k_plus + self.k_minus != self.k:
                raise ValueError("signature split must sum to k")

    @classmethod
    def plus_identity(cls, k):
        return cls("plus_identity", k, k_plus=k, k_minus=0)

    @classmethod
    def minus_identity(cls, k):
        return cls("minus_identity", k, k_plus=0, k_minus=k)

    @classmethod
    def signature(cls, k_plus, k_minus):
        return cls("signature", k_plus + k_minus, k_plus=k_plus, k_minus=k_minus)

    def signature_vector(self) -> np.ndarray:
        if self.kind == "plus_identity":
            return np.ones(self.k)
        if self.kind == "minus_identity":
            return -np.ones(self.k)
        return np.concatenate([np.ones(self.k_plus), -np.ones(self.k_minus)])

    def matrix(self) -> np.ndarray:
        return np.diag(self.signature_vector())


def check_finiteness(D) -> bool:
    """True iff D is positive semi-definite within WEIGHT_RTOL * max|D|."""
    D_ = as_herm(D)
    wmin = float(np.linalg.eigvalsh(D_)[0]) if D_.size else 0.0
    return wmin >= -_scaled_tol(D_, WEIGHT_RTOL)


def _require_indefinite(analysis: PsdPencilAnalysis):
    inb = analysis.inertia_b
    if inb.n_plus < 1 or inb.n_minus < 1:
        raise Unsupported("B must be genuinely indefinite for this route")


def solve_indefinite_plus(A, B, D, k=None, want_optimizer=False, analysis=None):
    """inf tr(D X^H A X) over X^H B X = I_k for genuinely indefinite B."""
    A_ = as_herm(A)
    B_ = as_herm(B)
    D_ = as_herm(D)
    if k is None:
        k = D_.shape[0]
    if D_.shape[0] != k:
        raise ValueError("D must be k x k")
    if analysis is None:
        analysis = finite_eigenvalues(A_, B_)
    _require_indefinite(analysis)
    if k > analysis.inertia_b.n_plus:
        raise KTooLarge(f"k={k} exceeds n_plus={analysis.inertia_b.n_plus}")
    route = "indefinite-plus"
    # the report keeps the analysis without its eigenvector blocks: x_opt
    # holds what the solve takes from them, and a report should not pin an
    # n x rank(B) array
    evidence = replace(analysis, eigvecs_plus=None, eigvecs_minus=None)
    if max_norm(A_) == 0.0:
        rep = _solve_zero_a(route, B_, ConstraintSpec.plus_identity(k), want_optimizer)
        rep.analysis = evidence
        return rep
    if not check_finiteness(D_):
        return SolveReport(route=route, finite=False, value=None, attained=False,
                           analysis=evidence)
    om = _split_omegas(D_)
    pairing = [
        (float(om.omegas[i]), float(analysis.lambda_plus[i]), f"lambda+[{i + 1}]")
        for i in range(k)
    ]
    value = float(sum(w * lam for w, lam, _ in pairing))
    x_opt = None
    attained = analysis.diagonalizable
    if attained and want_optimizer:
        x_opt = analysis.eigvecs_plus[:, :k] @ om.q.conj().T
    return SolveReport(
        route=route,
        finite=True,
        value=value,
        attained=attained,
        x_opt=x_opt,
        pairing=pairing,
        analysis=evidence,
    )


def solve_indefinite_minus(A, B, D, k=None, want_optimizer=False, analysis=None):
    """inf tr(D X^H A X) over X^H B X = -I_k for genuinely indefinite B.

    The constraint is X^H (-B) X = I_k, so this is the plus route on (A, -B),
    whose pencil eigenvalues are those of (A, B) negated.
    """
    A_ = as_herm(A)
    B_ = as_herm(B)
    D_ = as_herm(D)
    if k is None:
        k = D_.shape[0]
    if D_.shape[0] != k:
        raise ValueError("D must be k x k")
    if analysis is None:
        analysis = finite_eigenvalues(A_, B_)
    try:
        rep = solve_indefinite_plus(A_, -B_, D_, k, want_optimizer, analysis.mirrored())
    except KTooLarge:
        raise KTooLarge(
            f"k={k} exceeds n_minus={analysis.inertia_b.n_minus}"
        ) from None
    rep.route = "indefinite-minus"
    rep.pairing = [(w, lam, f"-lambda-[{i + 1}]")
                   for i, (w, lam, _role) in enumerate(rep.pairing)]
    rep.analysis = rep.analysis.mirrored()
    if rep.x_opt is not None and "degenerate_A" in rep.warnings:
        # any feasible X attains 0; draw it in B's own coordinates, as the
        # zero-A plus route does
        rep.x_opt = _solve_zero_a(
            rep.route, B_, ConstraintSpec.minus_identity(k), want_optimizer
        ).x_opt
    return rep


def solve_signature(
    A, B, D_plus, D_minus, k_plus=None, k_minus=None,
    want_optimizer=False, analysis=None,
):
    """inf tr(diag(D+, D-) X^H A X) over X^H B X = diag(I, -I)."""
    A_ = as_herm(A)
    B_ = as_herm(B)
    Dp = as_herm(D_plus) if np.size(D_plus) else np.empty((0, 0))
    Dm = as_herm(D_minus) if np.size(D_minus) else np.empty((0, 0))
    if k_plus is None:
        k_plus = Dp.shape[0]
    if k_minus is None:
        k_minus = Dm.shape[0]
    if Dp.shape[0] != k_plus or Dm.shape[0] != k_minus:
        raise ValueError("block sizes must match (k_plus, k_minus)")
    if k_plus + k_minus < 1:
        raise ValueError("need k_plus + k_minus >= 1")
    if k_minus == 0:
        return solve_indefinite_plus(A_, B_, Dp, k_plus, want_optimizer, analysis)
    if k_plus == 0:
        return solve_indefinite_minus(A_, B_, Dm, k_minus, want_optimizer, analysis)
    if analysis is None:
        analysis = finite_eigenvalues(A_, B_)
    rep_p = solve_indefinite_plus(A_, B_, Dp, k_plus, want_optimizer, analysis)
    rep_m = solve_indefinite_minus(A_, B_, Dm, k_minus, want_optimizer, analysis)
    route = "indefinite-signature"
    warnings = sorted(set(rep_p.warnings) | set(rep_m.warnings))
    if not (rep_p.finite and rep_m.finite):
        return SolveReport(route=route, finite=False, value=None, attained=False,
                           warnings=warnings, analysis=rep_p.analysis)
    x_opt = None
    attained = rep_p.attained and rep_m.attained
    if attained and want_optimizer and rep_p.x_opt is not None and rep_m.x_opt is not None:
        x_opt = np.hstack([rep_p.x_opt, rep_m.x_opt])
    return SolveReport(
        route=route,
        finite=True,
        value=float(rep_p.value + rep_m.value),
        attained=attained,
        x_opt=x_opt,
        pairing=rep_p.pairing + rep_m.pairing,
        warnings=warnings,
        analysis=rep_p.analysis,
    )


def _solve_zero_a(route, B_, constraint, want_optimizer):
    x = None
    if want_optimizer:
        from .oracle import feasible_sample

        x = feasible_sample(B_, constraint, seed=0)
    return SolveReport(
        route=route,
        finite=True,
        value=0.0,
        attained=True,
        x_opt=x,
        pairing=[],
        warnings=["degenerate_A"],
    )


def _split_block_d(D_, k_plus, k_minus):
    """Split a full k x k D into diagonal blocks, rejecting coupling between
    the +1 and -1 index groups."""
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
    A_ = as_herm(A)
    B_ = as_herm(B)
    D_ = as_herm(D)
    if sense not in ("min", "max"):
        raise ValueError(f"unknown sense {sense!r}")
    if D_.shape[0] != constraint.k:
        raise ValueError("D must be k x k for the given constraint")
    if A_.shape != B_.shape:
        raise ValueError("A and B dimension mismatch")
    n = A_.shape[0]
    if constraint.k > n:
        raise ValueError("constraint has more columns than the ambient space")

    # a Cholesky factor of B or -B certifies a definite B, and the definite
    # route solves from it; only an indefinite or singular B needs its inertia
    L = _definite_factor(B_)
    if L is not None:
        if constraint.kind == "minus_identity" or constraint.k_minus > 0:
            raise InfeasibleConstraint(
                "X^H B X cannot have -1 diagonal entries for positive definite B"
            )
        rep = _solve_definite(A_, L, D_, constraint.k, sense, want_optimizer)
        rep.inertia_b = Inertia(n, 0, 0)
        return rep
    L = _definite_factor(-B_)
    if L is not None:
        # B negative definite: the definite problem on -B
        if constraint.kind == "plus_identity" or constraint.k_plus > 0:
            raise InfeasibleConstraint(
                "X^H B X cannot have +1 diagonal entries for negative definite B"
            )
        rep = _solve_definite(A_, L, D_, constraint.k, sense, want_optimizer)
        rep.route += "-negated-b"
        rep.inertia_b = Inertia(0, 0, n)
        return rep
    inb = inertia(B_)
    if inb.n_plus == 0 or inb.n_minus == 0:
        raise Unsupported(
            "singular semi-definite B is outside the analytic coverage"
        )

    # genuinely indefinite B
    if sense == "max":
        raise Unsupported(
            "maximization under genuinely indefinite B has no analytic solution"
        )
    if constraint.kind == "plus_identity":
        rep = solve_indefinite_plus(A_, B_, D_, constraint.k, want_optimizer)
    elif constraint.kind == "minus_identity":
        rep = solve_indefinite_minus(A_, B_, D_, constraint.k, want_optimizer)
    else:
        Dp, Dm = _split_block_d(D_, constraint.k_plus, constraint.k_minus)
        rep = solve_signature(
            A_, B_, Dp, Dm, constraint.k_plus, constraint.k_minus, want_optimizer
        )
    rep.inertia_b = inb
    return rep


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
    rep = solve(A, B, D, constraint, sense="min", want_optimizer=True)
    if not rep.finite:
        raise Unsupported("infimum is -inf; no eps-suboptimal point exists")
    if rep.attained and rep.x_opt is not None:
        return rep.x_opt

    from .oracle import local_search

    target = rep.value + eps
    for i, (restarts, iters) in enumerate([(8, 500), (16, 2000), (32, 8000)]):
        res = local_search(
            A, B, D, constraint, restarts=restarts, iters=iters,
            seed=int(seed) + i,
        )
        if res.best_value <= target:
            return res.best_X
    raise BudgetExceeded(
        f"search did not reach value + eps = {target:.6g}; eps too small for budget"
    )
