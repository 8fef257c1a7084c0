import numpy as np
import pytest

from tracemin import (
    BlockStructureViolated,
    ConstraintSpec,
    InfeasibleConstraint,
    KTooLarge,
    Unsupported,
    check_finiteness,
    epsilon_suboptimal,
    finite_eigenvalues,
    solve,
    solve_indefinite_minus,
    solve_indefinite_plus,
    solve_signature,
)
from helpers import canonical_pencil_instance, random_psd

A3 = np.diag([1.0, 2.0, 5.0])
B3 = np.diag([1.0, 1.0, -1.0])


class TestConstraintSpec:
    def test_plus(self):
        c = ConstraintSpec.plus_identity(2)
        assert c.k == 2 and c.k_plus == 2 and c.k_minus == 0
        assert np.array_equal(c.matrix(), np.eye(2))

    def test_signature(self):
        c = ConstraintSpec.signature(2, 1)
        assert c.k == 3
        assert np.array_equal(c.signature_vector(), [1.0, 1.0, -1.0])

    @pytest.mark.parametrize(
        "kind, k", [("bogus", 1), ("plus_identity", 0)]
    )
    def test_rejects_invalid(self, kind, k):
        with pytest.raises(ValueError):
            ConstraintSpec(kind, k)


def test_check_finiteness():
    assert check_finiteness(np.diag([1.0, 0.0]))
    assert not check_finiteness(np.diag([1.0, -0.5]))


class TestWorkedExamples:
    def test_plus_smallest_positive_eigenvalue(self):
        rep = solve_indefinite_plus(A3, B3, np.eye(1))
        assert rep.value == pytest.approx(1.0, abs=1e-9)
        assert rep.attained

    def test_minus_negated_largest_negative(self):
        rep = solve_indefinite_minus(A3, B3, np.eye(1))
        assert rep.value == pytest.approx(5.0, abs=1e-9)

    def test_signature_sum_rule(self):
        rp = solve_indefinite_plus(A3, B3, np.diag([2.0, 1.0]), 2)
        rm = solve_indefinite_minus(A3, B3, np.eye(1), 1)
        rs = solve_signature(A3, B3, np.diag([2.0, 1.0]), np.eye(1))
        assert rs.value == pytest.approx(rp.value + rm.value, abs=1e-9)
        assert rs.value == pytest.approx(2 * 1 + 1 * 2 + 5, abs=1e-9)

    def test_not_finite_with_negative_weight(self):
        rep = solve_indefinite_plus(A3, B3, np.diag([-1.0]))
        assert not rep.finite
        assert rep.value is None

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            solve_indefinite_plus(A3, B3, np.eye(3))
        with pytest.raises(KTooLarge):
            solve_indefinite_minus(A3, B3, np.eye(2))


class TestDispatch:
    def test_definite_routes(self):
        rep = solve(np.diag([1.0, 2.0]), np.eye(2), np.eye(1), ConstraintSpec.plus_identity(1))
        assert rep.route == "definite-min"
        rep = solve(np.diag([1.0, 2.0]), np.eye(2), np.eye(1),
                    ConstraintSpec.plus_identity(1), sense="max")
        assert rep.route == "definite-max"

    def test_negative_definite_b_flips(self):
        rep = solve(np.diag([1.0, 2.0]), -np.eye(2), np.eye(1),
                    ConstraintSpec.minus_identity(1))
        assert rep.route.endswith("-negated-b")
        assert rep.finite

    def test_minus_constraint_infeasible_for_spd_b(self):
        with pytest.raises(InfeasibleConstraint):
            solve(np.eye(2), np.eye(2), np.eye(1), ConstraintSpec.minus_identity(1))

    def test_max_unsupported_for_indefinite_b(self):
        with pytest.raises(Unsupported):
            solve(A3, B3, np.eye(1), ConstraintSpec.plus_identity(1), sense="max")

    def test_singular_semidefinite_b_unsupported(self):
        with pytest.raises(Unsupported):
            solve(np.eye(2), np.diag([1.0, 0.0]), np.eye(1),
                  ConstraintSpec.plus_identity(1))

    def test_coupled_d_rejected(self):
        D = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(BlockStructureViolated):
            solve(np.diag([1.0, 2.0]), np.diag([1.0, -1.0]), D,
                  ConstraintSpec.signature(1, 1))

    def test_block_diagonal_d_accepted(self):
        D = np.diag([1.0, 2.0])
        rep = solve(A3, B3, D, ConstraintSpec.signature(1, 1))
        assert rep.route == "indefinite-signature"
        assert rep.value == pytest.approx(1.0 + 2 * 5.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(25))
def test_attainment_matches_diagonalizability(seed):
    A, B, n_plus, n_minus, lp, lm, coupled = canonical_pencil_instance(seed)
    an = finite_eigenvalues(A, B)
    rng = np.random.default_rng(seed + 2000)
    k = int(rng.integers(1, n_plus + 1))
    D = random_psd(rng, k)
    rep = solve_indefinite_plus(A, B, D, analysis=an)
    assert rep.finite
    assert rep.attained == an.diagonalizable
    w = np.sort(np.linalg.eigvalsh(D))[::-1]
    assert rep.value == pytest.approx(float(w @ an.lambda_plus[:k]), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_optimizer_residuals_indefinite(seed):
    A, B, n_plus, n_minus, *_rest, coupled = canonical_pencil_instance(seed)
    if coupled:
        return
    rng = np.random.default_rng(seed + 3000)
    k_plus = int(rng.integers(1, n_plus + 1))
    k_minus = int(rng.integers(1, n_minus + 1))
    Dp = random_psd(rng, k_plus)
    Dm = random_psd(rng, k_minus)
    rep = solve_signature(A, B, Dp, Dm, want_optimizer=True)
    X = rep.x_opt
    J = np.diag(np.concatenate([np.ones(k_plus), -np.ones(k_minus)]))
    assert np.max(np.abs(X.conj().T @ B @ X - J)) <= 1e-8
    D = np.zeros((k_plus + k_minus, k_plus + k_minus), dtype=complex)
    D[:k_plus, :k_plus] = Dp
    D[k_plus:, k_plus:] = Dm
    obj = float(np.real(np.trace(D @ X.conj().T @ A @ X)))
    assert obj == pytest.approx(rep.value, abs=1e-7 * (1 + abs(rep.value)))


def test_epsilon_suboptimal_attained_case():
    X = epsilon_suboptimal(A3, B3, np.eye(1), ConstraintSpec.plus_identity(1), eps=1e-6)
    obj = float(np.real(np.trace(X.conj().T @ A3 @ X)))
    assert obj <= 1.0 + 1e-6


def test_epsilon_suboptimal_non_attained_case():
    A = np.array([[0.0, 0.0], [0.0, 1.0]])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    X = epsilon_suboptimal(A, B, np.eye(1), ConstraintSpec.plus_identity(1),
                           eps=1e-3, seed=0)
    obj = float(np.real(np.trace(X.conj().T @ A @ X)))
    assert 0.0 <= obj <= 1e-3
    assert np.max(np.abs(X.conj().T @ B @ X - 1.0)) <= 1e-8


def test_epsilon_suboptimal_rejects_unbounded():
    with pytest.raises(Unsupported):
        epsilon_suboptimal(A3, B3, np.diag([-1.0]), ConstraintSpec.plus_identity(1),
                           eps=1e-3)


def test_zero_a_degenerate_warning():
    rep = solve_indefinite_plus(np.zeros((3, 3)), B3, np.eye(1))
    assert rep.value == 0.0
    assert "degenerate_A" in rep.warnings


@pytest.mark.parametrize("seed", range(20))
def test_minus_route_is_plus_route_on_negated_b(seed):
    A, B, n_plus, n_minus, *_rest, coupled = canonical_pencil_instance(seed)
    rng = np.random.default_rng(seed + 4000)
    k = int(rng.integers(1, n_minus + 1))
    D = random_psd(rng, k)
    rm = solve_indefinite_minus(A, B, D, want_optimizer=True)
    rp = solve_indefinite_plus(A, -B, D, want_optimizer=True)
    assert rm.value == pytest.approx(rp.value, rel=1e-9, abs=1e-9)
    assert rm.attained == rp.attained == (not coupled)
    for rep in (rm, rp):
        if rep.attained:
            # X^H (-B) X = I_k is the minus constraint X^H B X = -I_k
            X = rep.x_opt
            assert np.max(np.abs(X.conj().T @ B @ X + np.eye(k))) <= 1e-8
        else:
            assert rep.x_opt is None
