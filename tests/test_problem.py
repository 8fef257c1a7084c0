"""The validated problem value: one set of checks, in one order, for every
entry point."""

import numpy as np
import pytest

from tracemin import (
    ConstraintSpec,
    Problem,
    epsilon_suboptimal,
    solve,
    spectral,
)

A2 = np.diag([1.0, 2.0])
B2 = np.diag([1.0, -1.0])


def count_validations(monkeypatch):
    validated = []
    real_init = spectral.HermitianMatrix.__init__

    def counting_init(self, entries):
        validated.append(np.shape(entries))
        real_init(self, entries)

    monkeypatch.setattr(spectral.HermitianMatrix, "__init__", counting_init)
    return validated


def test_of_returns_a_problem_unchanged(monkeypatch):
    p = Problem.of(A2, B2, np.eye(1), ConstraintSpec.plus_identity(1))
    assert isinstance(p.A, spectral.HermitianMatrix) and p.sense == "min"
    validated = count_validations(monkeypatch)
    q = Problem.of(*p)
    assert q == p and all(x is y for x, y in zip(q, p))
    assert validated == []


@pytest.mark.parametrize("a, b, d, constraint, sense, message", [
    (np.ones((2, 3)), B2, np.eye(1), ConstraintSpec.plus_identity(1), "min",
     "expected a square matrix, got shape (2, 3)"),
    (A2, [[1.0, 1.0], [0.0, -1.0]], np.eye(1), ConstraintSpec.plus_identity(1), "min",
     "matrix is not Hermitian within tolerance"),
    (A2, B2, np.eye(2), ConstraintSpec.plus_identity(1), "sup", "unknown sense 'sup'"),
    (A2, np.eye(3), np.eye(2), ConstraintSpec.plus_identity(1), "min",
     "D must be k x k for the given constraint"),
    (A2, np.eye(3), np.eye(3), ConstraintSpec.plus_identity(3), "min",
     "A and B dimension mismatch"),
    (A2, B2, np.eye(3), ConstraintSpec.signature(2, 1), "min",
     "constraint has more columns than the ambient space"),
])
def test_of_reports_the_first_fault(a, b, d, constraint, sense, message):
    with pytest.raises(ValueError) as exc:
        Problem.of(a, b, d, constraint, sense)
    assert str(exc.value) == message


ROUTES = {
    "solve": lambda A, B, D: solve(A, B, D, ConstraintSpec.plus_identity(len(D))),
    "epsilon_suboptimal": lambda A, B, D: epsilon_suboptimal(
        A, B, D, ConstraintSpec.plus_identity(len(D)), 1e-6),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("a, b, d, message", [
    (A2, np.eye(3), np.eye(1), "A and B dimension mismatch"),
    (A2, B2, np.eye(3), "constraint has more columns than the ambient space"),
])
def test_every_route_checks_through_problem(route, a, b, d, message):
    with pytest.raises(ValueError) as exc:
        ROUTES[route](a, b, d)
    assert str(exc.value) == message


def test_identity_kinds_fix_their_split():
    assert ConstraintSpec("plus_identity", 2) == ConstraintSpec.plus_identity(2)
    c = ConstraintSpec("minus_identity", 3, k_plus=3)
    assert (c.k_plus, c.k_minus) == (0, 3)
    assert np.array_equal(c.signature_vector(), -np.ones(3))


@pytest.mark.parametrize("k, k_plus, k_minus, message", [
    (2, 3, -1, "signature split must be nonnegative"),
    (3, 1, 1, "signature split must sum to k"),
])
def test_signature_split_is_checked(k, k_plus, k_minus, message):
    with pytest.raises(ValueError, match=message):
        ConstraintSpec("signature", k, k_plus=k_plus, k_minus=k_minus)
