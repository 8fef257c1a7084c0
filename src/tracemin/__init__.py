"""tracemin: exact trace optimization under congruence constraints.

Computes inf/sup of tr(D X^H A X) subject to X^H B X being I_k, -I_k or a
signature matrix, for Hermitian A, D and definite or indefinite B, together
with attaining optimizers when they exist and an independent randomized
oracle for verification.
"""

__version__ = "0.1.0"

from .definite import (
    MinimizerCheck,
    SolveReport,
    characterize_minimizer,
    pencil_eig_definite,
    solve_definite_max,
    solve_definite_min,
    split_omegas,
)
from .errors import (
    BlockStructureViolated,
    BudgetExceeded,
    DegenerateDraw,
    InfeasibleConstraint,
    KTooLarge,
    MissingOptimizer,
    NotPositiveDefinite,
    NotPsdPencil,
    ParseError,
    TraceminError,
    Unsupported,
)
from .indefinite import (
    check_finiteness,
    epsilon_suboptimal,
    solve,
    solve_indefinite_minus,
    solve_indefinite_plus,
    solve_signature,
)
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
    feasible_sample,
    local_search,
    objective,
)
from .pencil import (
    PsdPencilAnalysis,
    eigenvectors_of,
    find_lambda0,
    finite_eigenvalues,
)
from .problem import ConstraintSpec, Problem
from .spectral import (
    EigenDecomposition,
    HermitianMatrix,
    Inertia,
    as_herm,
    cholesky,
    eig_herm,
    inertia,
    majorizes,
    weighted_sum_bounds,
)

__all__ = [
    "BlockStructureViolated",
    "BudgetExceeded",
    "ConstraintSpec",
    "CounterexampleParams",
    "DegenerateDraw",
    "EigenDecomposition",
    "HermitianMatrix",
    "HyperbolicFactorization",
    "Inertia",
    "InfeasibleConstraint",
    "KTooLarge",
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
    "check_finiteness",
    "cholesky",
    "compose_hyperbolic",
    "counterexample_f",
    "counterexample_gap",
    "counterexample_matrices",
    "counterexample_stationary",
    "counterexample_y",
    "eig_herm",
    "eigenvectors_of",
    "epsilon_suboptimal",
    "feasible_sample",
    "find_lambda0",
    "finite_eigenvalues",
    "inertia",
    "local_search",
    "majorizes",
    "objective",
    "pencil_eig_definite",
    "solve",
    "solve_definite_max",
    "solve_definite_min",
    "solve_indefinite_minus",
    "solve_indefinite_plus",
    "solve_signature",
    "split_omegas",
    "weighted_sum_bounds",
]
