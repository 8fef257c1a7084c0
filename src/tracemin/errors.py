"""Exception hierarchy shared by the solver, pencil analysis and oracle."""


class TraceminError(Exception):
    """Base class for all library-specific failures."""

    code = "ERROR"


class NotPositiveDefinite(TraceminError):
    """B failed the positive-definiteness check; route to the indefinite path."""

    code = "NOT_POSITIVE_DEFINITE"


class NotPsdPencil(TraceminError):
    """No real shift makes A - lambda*B positive semi-definite."""

    code = "NOT_PSD_PENCIL"


class InfeasibleConstraint(TraceminError):
    """The congruence constraint is incompatible with the inertia of B."""

    code = "INFEASIBLE_CONSTRAINT"


class Unsupported(TraceminError):
    """Mathematically valid input outside the analytic coverage (e.g. sup
    under genuinely indefinite B)."""

    code = "UNSUPPORTED_SENSE"


class BlockStructureViolated(TraceminError):
    """Signature constraint given a D that couples the +1 and -1 column
    groups; no eigenvalue-product formula exists for that case (run
    ``tracemin counterexample`` for a concrete witness)."""

    code = "BLOCK_STRUCTURE_VIOLATED"


class MissingOptimizer(TraceminError):
    """Operation needs report.x_opt but the report was built without it."""

    code = "MISSING_OPTIMIZER"


class BudgetExceeded(TraceminError):
    """The requested target is out of reach at working precision."""

    code = "BUDGET_EXCEEDED"


class DegenerateDraw(TraceminError):
    """No restart of the oracle ended at a finite value."""

    code = "DEGENERATE_DRAW"


class ParseError(TraceminError):
    """Problem file could not be parsed or validated."""

    code = "PARSE_ERROR"
