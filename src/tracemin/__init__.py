"""tracemin: exact trace optimization under congruence constraints.

Computes inf/sup of tr(D X^H A X) subject to X^H B X being I_k, -I_k or a
signature matrix, for Hermitian A, D and definite or indefinite B, together
with attaining optimizers when they exist and an independent randomized
oracle for verification. `solve(A, B, D, constraint, sense, want_optimizer)`,
or `solve(*problem)` on a `Problem`, is the one way into the solver; the
route it took is `SolveReport.route`.
"""

__version__ = "0.1.0"

from .definite import MinimizerCheck, SolveReport, characterize_minimizer
from .errors import (
    BlockStructureViolated,
    BudgetExceeded,
    DegenerateDraw,
    InfeasibleConstraint,
    MissingOptimizer,
    NotPositiveDefinite,
    NotPsdPencil,
    ParseError,
    TraceminError,
    Unsupported,
)
from .indefinite import epsilon_suboptimal, solve
from .oracle import (
    CounterexampleParams,
    HyperbolicFactorization,
    OracleResult,
    compose_hyperbolic,
    counterexample_f,
    counterexample_gap,
    counterexample_matrices,
    counterexample_stationary,
    counterexample_y,
    local_search,
    objective,
)
from .pencil import PsdPencilAnalysis, finite_eigenvalues
from .problem import ConstraintSpec, Problem
from .spectral import (
    HermitianMatrix,
    Inertia,
    as_herm,
    cholesky,
    majorizes,
    weighted_sum_bounds,
)

__all__ = [
    "BlockStructureViolated",
    "BudgetExceeded",
    "ConstraintSpec",
    "CounterexampleParams",
    "DegenerateDraw",
    "HermitianMatrix",
    "HyperbolicFactorization",
    "Inertia",
    "InfeasibleConstraint",
    "MinimizerCheck",
    "MissingOptimizer",
    "NotPositiveDefinite",
    "NotPsdPencil",
    "OracleResult",
    "ParseError",
    "Problem",
    "PsdPencilAnalysis",
    "SolveReport",
    "TraceminError",
    "Unsupported",
    "__version__",
    "as_herm",
    "characterize_minimizer",
    "cholesky",
    "compose_hyperbolic",
    "counterexample_f",
    "counterexample_gap",
    "counterexample_matrices",
    "counterexample_stationary",
    "counterexample_y",
    "epsilon_suboptimal",
    "finite_eigenvalues",
    "local_search",
    "majorizes",
    "objective",
    "solve",
    "weighted_sum_bounds",
]
