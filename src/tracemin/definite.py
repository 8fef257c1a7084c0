"""The definite route of `solve`: min/max of tr(D X^H A X) subject to
X^H B X = I_k with positive definite B (a negative definite B under -I_k is
the same route on -B).

The optimal value pairs the descending eigenvalues of D against extreme
eigenvalues of the pencil A - lambda*B: the ell nonnegative weights take the
ell smallest pencil eigenvalues, the k - ell negative weights the k - ell
largest. A solve validates the problem once (`problem.Problem`) and factors
B once: the Cholesky factor L that certifies B > 0 (`spectral.cholesky`)
also reduces the pencil to the Hermitian matrix L^-1 A L^-H. One
tridiagonalization of that matrix then yields exactly the k eigenpairs the
pairing uses (MRRR on two index ranges), and only those k eigenvectors are
transformed back. The optimizer is returned in original coordinates. The
maximum is the minimum on -A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MissingOptimizer
from .pencil import PsdPencilAnalysis
from .spectral import (
    Inertia,
    _pair_eigenpairs,
    _reduce_pair,
    _signs,
    as_herm,
    max_norm,
)


@dataclass
class OmegaSplit:
    """Eigenvalues of D descending, with ell = count of nonnegative ones and
    the aligned unitary eigenvector matrix Q."""

    omegas: np.ndarray
    ell: int
    q: np.ndarray


@dataclass
class SolveReport:
    """Outcome of one trace-optimization solve.

    ``pairing`` lists (weight, signed eigenvalue multiplier, role) triples
    whose products sum to ``value``. ``analysis`` is the pencil analysis an
    indefinite route solved from, without its eigenvector blocks.
    ``inertia_b`` is the inertia of B as `solve` decided its route.
    """

    route: str
    finite: bool
    value: float | None
    attained: bool
    x_opt: np.ndarray | None = None
    pairing: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    analysis: PsdPencilAnalysis | None = None
    inertia_b: Inertia | None = None


def _split_omegas(D_) -> OmegaSplit:
    """Eigen-decompose a validated D with values descending; weights zero by
    the zero rule (`spectral._signs`) group with the nonnegative ones. D is one
    block: a signature route splits each of its blocks apart."""
    # an empty signature block is split without an eigh
    w, Q = np.linalg.eigh(D_) if D_.size else (np.empty(0), D_)
    w = w[::-1].copy()
    return OmegaSplit(omegas=w, ell=int(np.sum(_signs(w, D_) >= 0)), q=Q[:, ::-1].copy())


def _pair(om: OmegaSplit, eigs, roles):
    """(value, pairing): D's descending weights om.omegas take eigs in order,
    the i-th under the name roles[i]."""
    pairing = [(float(w), float(lam), role) for w, lam, role in zip(om.omegas, eigs, roles)]
    return float(sum(w * lam for w, lam, _ in pairing)), pairing


def _solve_definite(A_, L, D_, sense, want_optimizer) -> SolveReport:
    """The definite route on validated A and D, with B = L L^H; a max is the
    min on -A with each paired eigenvalue negated back."""
    sign = -1.0 if sense == "max" else 1.0
    n, k, om = A_.shape[0], D_.shape[0], _split_omegas(D_)
    # zhegst and zhetrd commute with negation: -A reduces to A's reflectors
    # with d and e negated, so a max reduces A itself. Nonnegative weights take
    # the ell smallest pencil eigenvalues, negative weights the k-ell largest
    d, e, *rest = _reduce_pair(A_, L)
    lams, U = _pair_eigenpairs((sign * d, sign * e, *rest), om.ell, k - om.ell, want_optimizer)
    value, pairing = _pair(om, sign * lams, [f"lambda[{j + 1}]" for j in
                                             [*range(om.ell), *range(n - k + om.ell, n)]])
    return SolveReport(route=f"definite-{sense}", finite=True, value=value, attained=True,
                       x_opt=U @ om.q.conj().T if want_optimizer else None, pairing=pairing)


@dataclass
class MinimizerCheck:
    """Compression (X_opt Qhat)^H A (X_opt Qhat) restricted to the nonzero
    weights of D, with its off-diagonal magnitude and expected diagonal."""

    compressed: np.ndarray
    offdiag_max: float
    diagonal: np.ndarray
    expected_diagonal: np.ndarray


def characterize_minimizer(report: SolveReport, A, B, D) -> MinimizerCheck:
    """Diagnostic for an optimizer: drop the zero-weight columns of Q and
    compress A. With distinct nonzero weights the result is diagonal with the
    pencil eigenvalues the report's pairing gives those weights."""
    if not report.attained or report.x_opt is None:
        raise MissingOptimizer("report carries no optimizer")
    A_, D_ = as_herm(A), as_herm(D)
    as_herm(B)  # validated only: the report's pairing holds the eigenvalues
    # D splits as the route paired it, a signature report's lambda+ roles
    # first; each block drops the weights within its own tolerance of zero
    kp = sum(role.startswith("lambda+") for _, _, role in report.pairing)
    Zs, expected = [], []
    for lo, hi in ((0, kp), (kp, D_.shape[0])):
        block = D_[lo:hi, lo:hi]
        om = _split_omegas(block)
        keep = np.flatnonzero(_signs(om.omegas, block))
        Zs.append(report.x_opt[:, lo:hi] @ om.q[:, keep])
        expected += [report.pairing[lo + i][1] for i in keep]
    Z = np.hstack(Zs)
    M = Z.conj().T @ A_ @ Z
    return MinimizerCheck(compressed=M, offdiag_max=max_norm(M - np.diag(np.diag(M))),
                          diagonal=np.real(np.diag(M)), expected_diagonal=np.array(expected))
