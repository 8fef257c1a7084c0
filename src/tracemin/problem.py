"""The trace-optimization problem as one validated value.

inf (or sup) tr(D X^H A X) subject to X^H B X = I_k, -I_k or
diag(I_{k+}, -I_{k-}). `Problem.of` checks A, B, D, the constraint and the
sense once; the routes and the CLI take the value it returns, and the oracle
its matrices, without checking them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleConstraint
from .spectral import HermitianMatrix, Inertia


@dataclass(frozen=True)
class ConstraintSpec:
    """Which congruence constraint is imposed on X^H B X.

    ``k_plus`` and ``k_minus`` count the +1 and -1 diagonal entries; for the
    identity kinds they are (k, 0) and (0, k) whatever was passed.
    """

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
        else:
            plus = self.k if self.kind == "plus_identity" else 0
            object.__setattr__(self, "k_plus", plus)
            object.__setattr__(self, "k_minus", self.k - plus)

    @classmethod
    def plus_identity(cls, k):
        return cls("plus_identity", k)

    @classmethod
    def minus_identity(cls, k):
        return cls("minus_identity", k)

    @classmethod
    def signature(cls, k_plus, k_minus):
        return cls("signature", k_plus + k_minus, k_plus=k_plus, k_minus=k_minus)

    def signature_vector(self) -> np.ndarray:
        return np.concatenate([np.ones(self.k_plus), -np.ones(self.k_minus)])

    def matrix(self) -> np.ndarray:
        return np.diag(self.signature_vector())

    def check_feasible(self, inertia: Inertia) -> None:
        """Raise InfeasibleConstraint unless X^H B X = C has a solution for B of
        this inertia, by Sylvester's law: k_plus <= n_plus and k_minus <= n_minus."""
        if self.k_plus > inertia.n_plus or self.k_minus > inertia.n_minus:
            raise InfeasibleConstraint(f"signature ({self.k_plus},{self.k_minus}) exceeds "
                                       f"inertia ({inertia.n_plus},{inertia.n_minus}) of B")


class Problem(NamedTuple):
    """A validated problem: Hermitian A and B of one order n, a Hermitian
    k x k weight matrix D, a constraint with k <= n, and the sense."""

    A: HermitianMatrix
    B: HermitianMatrix
    D: HermitianMatrix
    constraint: ConstraintSpec
    sense: str = "min"

    @classmethod
    def of(cls, A, B, D, constraint: ConstraintSpec, sense="min") -> Problem:
        """The problem validated, or ValueError naming the first fault.

        Matrices that are already HermitianMatrix values are kept as they
        are, so ``Problem.of(*problem)`` returns the problem unchanged
        without validating a matrix again.
        """
        Ah, Bh, Dh = (HermitianMatrix.of(M) for M in (A, B, D))
        if sense not in ("min", "max"):
            raise ValueError(f"unknown sense {sense!r}")
        if Dh.n != constraint.k:
            raise ValueError("D must be k x k for the given constraint")
        if Ah.n != Bh.n:
            raise ValueError("A and B dimension mismatch")
        if constraint.k > Ah.n:
            raise ValueError("constraint has more columns than the ambient space")
        return cls(Ah, Bh, Dh, constraint, sense)

