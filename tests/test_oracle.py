import ast
import math
import pathlib

import numpy as np
import pytest

import tracemin.oracle

from tracemin import (
    ConstraintSpec,
    CounterexampleParams,
    HyperbolicFactorization,
    InfeasibleConstraint,
    compose_hyperbolic,
    counterexample_f,
    counterexample_gap,
    counterexample_matrices,
    counterexample_stationary,
    counterexample_y,
    local_search,
    objective,
    solve,
)
from tracemin.cli import load_problem
from tracemin.oracle import _cayley_trials, _draw_starts, _SignatureCoords
from tracemin.spectral import HermitianMatrix
from helpers import (
    canonical_pencil_instance,
    definite_instance,
    psd_pencil,
    random_hermitian,
    random_psd,
    random_unitary,
)
from sequential_oracle import sequential_search

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
P_DEFAULT = CounterexampleParams(mu=2.0, delta=0.25)


class TestHyperbolicFactorization:
    @pytest.mark.parametrize("seed", range(100))
    def test_round_trip_j_orthogonal(self, seed):
        rng = np.random.default_rng(seed)
        n_plus = int(rng.integers(1, 5))
        n_minus = int(rng.integers(1, 5))
        W = rng.standard_normal((n_plus, n_minus)) + 1j * rng.standard_normal(
            (n_plus, n_minus)
        )
        f = HyperbolicFactorization(
            w=W,
            v_plus=random_unitary(rng, n_plus),
            v_minus=random_unitary(rng, n_minus),
        )
        X = compose_hyperbolic(f)
        J = np.diag(np.concatenate([np.ones(n_plus), -np.ones(n_minus)]))
        assert np.max(np.abs(X.conj().T @ J @ X - J)) <= 1e-9

    def test_zero_w_gives_block_unitary(self):
        rng = np.random.default_rng(0)
        Vp = random_unitary(rng, 2)
        Vm = random_unitary(rng, 3)
        X = compose_hyperbolic(
            HyperbolicFactorization(np.zeros((2, 3)), Vp, Vm)
        )
        assert np.allclose(X[:2, :2], Vp)
        assert np.allclose(X[2:, 2:], Vm)
        assert np.allclose(X[:2, 2:], 0.0) and np.allclose(X[2:, :2], 0.0)

    def test_scalar_blocks_reproduce_y_tau(self):
        tau = 0.7
        X = compose_hyperbolic(
            HyperbolicFactorization(np.array([[tau]]), np.eye(1), np.eye(1))
        )
        assert np.allclose(X, counterexample_y(tau), atol=1e-12)

    def test_stack_matches_its_matrices_bitwise(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
        Vp = np.stack([random_unitary(rng, 3) for _ in range(4)])
        X = compose_hyperbolic(HyperbolicFactorization(W, Vp, np.eye(2)))
        assert X.shape == (4, 5, 5)
        for Wi, Vpi, Xi in zip(W, Vp, X):
            assert np.array_equal(Xi, compose_hyperbolic(HyperbolicFactorization(Wi, Vpi, np.eye(2))))

    def test_rejects_mismatched_blocks(self):
        with pytest.raises(ValueError):
            compose_hyperbolic(
                HyperbolicFactorization(np.zeros((2, 1)), np.eye(1), np.eye(1))
            )


class TestFeasibleSample:
    """A feasible sample is one restart of one iteration: the drawn start,
    probed and stepped once."""

    @pytest.mark.parametrize("seed", range(20))
    def test_residual_small(self, seed):
        rng = np.random.default_rng(seed + 400)
        n = int(rng.integers(3, 7))
        n_minus = int(rng.integers(1, n))
        B = np.diag(
            np.concatenate(
                [rng.uniform(0.5, 2.0, n - n_minus), -rng.uniform(0.5, 2.0, n_minus)]
            )
        )
        c = ConstraintSpec.signature(1, 1)
        X = local_search(np.eye(n), B, np.eye(2), c, restarts=1, iters=1, seed=seed).best_X
        assert np.max(np.abs(X.conj().T @ B @ X - c.matrix())) <= 1e-8

    def test_nullspace_directions_allowed(self):
        B = np.diag([1.0, -1.0, 0.0])
        c = ConstraintSpec.signature(1, 1)
        X = local_search(np.eye(3), B, np.eye(2), c, restarts=1, iters=1, seed=1).best_X
        assert np.max(np.abs(X.conj().T @ B @ X - c.matrix())) <= 1e-8
        # the start actually uses the free null coordinate
        assert np.max(np.abs(X[2, :])) > 0


# (n+, n-) of B and (k+, k-) of the constraint
DRAW_MIXES = [((3, 3), (2, 1)), ((2, 4), (2, 2)), ((5, 0), (3, 0)), ((0, 4), (0, 2)),
              ((4, 1), (3, 1)), ((1, 200), (1, 0)), ((5, 5), (5, 0)), ((1, 3), (1, 3))]


class TestDrawStarts:
    @staticmethod
    def _coords(inertia, signature, n_zero):
        (n_plus, n_minus), (k_plus, k_minus) = inertia, signature
        B = np.diag([1.0] * n_plus + [-1.0] * n_minus + [0.0] * n_zero)
        return _SignatureCoords(B, ConstraintSpec.signature(k_plus, k_minus))

    @pytest.mark.parametrize("n_zero", [0, 2])
    @pytest.mark.parametrize("inertia, signature", DRAW_MIXES)
    def test_starts_are_feasible(self, inertia, signature, n_zero):
        coords = self._coords(inertia, signature, n_zero)
        X = _draw_starts(coords, [np.random.default_rng([7, i]) for i in range(6)])
        r, k = sum(inertia), sum(signature)
        assert X.shape == (6, r + n_zero, k)
        J, C = np.diag(coords.row_signs), np.diag(coords.col_signs)
        for Z in X[:, :r]:
            assert np.max(np.abs(Z.conj().T @ J @ Z - C)) <= 1e-12
        # R, the Gaussian null block, has no zero entry
        assert np.all(X[:, r:] != 0)

    @pytest.mark.parametrize("inertia, signature", DRAW_MIXES)
    def test_stack_matches_one_restart_draws_bitwise(self, inertia, signature):
        coords = self._coords(inertia, signature, 1)
        X = _draw_starts(coords, [np.random.default_rng([3, i]) for i in range(5)])
        for i in range(5):
            assert np.array_equal(X[i], _draw_starts(coords, [np.random.default_rng([3, i])])[0])


class TestLocalSearch:
    def test_matches_ky_fan(self):
        A = np.diag([1.0, 2.0, 3.0])
        res = local_search(
            A, np.eye(3), np.eye(2), ConstraintSpec.plus_identity(2),
            restarts=5, iters=200, seed=0,
        )
        assert res.best_value == pytest.approx(3.0, abs=1e-5)
        assert res.feasibility_residual <= 1e-8
        assert not res.unbounded_flag

    def test_flags_unbounded_direction(self):
        A = np.diag([1.0, 2.0, 5.0])
        B = np.diag([1.0, 1.0, -1.0])
        res = local_search(
            A, B, np.diag([-1.0]), ConstraintSpec.plus_identity(1),
            restarts=5, iters=2000, seed=0,
        )
        assert res.unbounded_flag
        assert res.best_value < -1e6

    def test_zero_d_gives_zero(self):
        res = local_search(
            np.diag([1.0, -4.0]), np.diag([1.0, -1.0]), np.zeros((1, 1)),
            ConstraintSpec.plus_identity(1), restarts=2, iters=50, seed=0,
        )
        assert res.best_value == 0.0

    @pytest.mark.parametrize("restarts", [1, 3, 20])
    def test_zero_d_runs_every_restart(self, restarts):
        # f vanishes on the feasible set, so its gradient is zero, no step
        # lowers f, and every restart stops converged at its second
        # iteration, when its line search fails a second time
        res = local_search(
            np.diag([1.0, 2.0, 5.0]), np.diag([1.0, 1.0, -1.0]), np.zeros((1, 1)),
            ConstraintSpec.plus_identity(1), restarts=restarts, iters=50, seed=0,
        )
        assert res.best_value == 0.0
        assert res.stop_reasons == ("converged",) * restarts
        assert res.iterations == 2 * restarts
        assert res.feasibility_residual <= 1e-8

    @pytest.mark.parametrize("seed", range(30))
    def test_every_restart_runs_at_full_plus_signature(self, seed):
        # k = n+ = 5: a start needs all of B's + directions
        res = local_search(
            np.diag(np.arange(1.0, 11.0)), np.diag([1.0] * 5 + [-1.0] * 5), np.eye(5),
            ConstraintSpec.plus_identity(5), restarts=20, iters=1, seed=seed,
        )
        assert len(res.stop_reasons) == 20

    def test_every_restart_runs_with_one_plus_direction_among_200(self):
        res = local_search(
            np.eye(201), np.diag([1.0] + [-1.0] * 200), np.eye(1),
            ConstraintSpec.plus_identity(1), restarts=20, iters=1, seed=0,
        )
        assert len(res.stop_reasons) == 20
        assert res.feasibility_residual <= 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_never_beats_analytic_value(self, seed):
        rng = np.random.default_rng(seed + 700)
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, n) + 1))
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = G @ G.conj().T + 0.5 * np.eye(n)
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = 0.5 * (M + M.conj().T)
        Mk = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        D = 0.5 * (Mk + Mk.conj().T)
        rep = solve(A, B, D, ConstraintSpec.plus_identity(k))
        res = local_search(
            A, B, D, ConstraintSpec.plus_identity(k),
            restarts=10, iters=300, seed=seed,
        )
        assert res.best_value >= rep.value - 1e-8 * (1 + abs(rep.value))
        assert objective(A, D, res.best_X) == pytest.approx(res.best_value, abs=1e-10)

    @pytest.mark.parametrize("A, B, D, constraint, message", [
        (np.eye(2), np.diag([1.0, -1.0]), np.eye(3), ConstraintSpec.plus_identity(2),
         "D must be k x k for the given constraint"),
        (np.eye(2), np.diag([1.0, -1.0]), np.eye(1), ConstraintSpec.plus_identity(2),
         "D must be k x k for the given constraint"),
        (np.eye(3), np.diag([1.0, -1.0]), np.eye(1), ConstraintSpec.plus_identity(1),
         "A and B dimension mismatch"),
        (np.eye(2), np.diag([1.0, -1.0]), np.eye(3), ConstraintSpec.plus_identity(3),
         "constraint has more columns than the ambient space"),
    ])
    def test_input_is_checked_as_solve_checks_it(self, A, B, D, constraint, message):
        for entry in (solve, local_search):
            with pytest.raises(ValueError, match=f"^{message}$"):
                entry(A, B, D, constraint)

    def test_signature_beyond_inertia_is_infeasible(self):
        msg = r"signature \(2,0\) exceeds inertia \(1,2\) of B"
        with pytest.raises(InfeasibleConstraint, match=msg):
            local_search(np.eye(3), np.diag([1.0, -1.0, -1.0]), np.eye(2),
                         ConstraintSpec.signature(2, 0))


class TestConstantObjective:
    """A = lam*B makes f = lam*tr(D) on the whole feasible set, the paper's
    exception to the finiteness rule. A t = 16 boost grows ||X||^2 by about
    2e13, where f's rounding error alone must not pass for progress."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("b", [[1.0, 2.0, -1.0], [1.0, -1.0, 3.0, -2.0]])
    @pytest.mark.parametrize("d", [[-1.0], [1.0, -1.0]])
    @pytest.mark.parametrize("lam", [2.0, -0.5, 3.0, 200.0, 1e-3])
    def test_finds_the_constant(self, lam, d, b, seed):
        B = np.diag(b)
        res = local_search(lam * B, B, np.diag(d), ConstraintSpec.plus_identity(len(d)),
                           restarts=20, iters=500, seed=seed)
        value = lam * sum(d)
        assert not res.unbounded_flag
        assert abs(res.best_value - value) <= 1e-8 * (1 + abs(value))


def _zero_rule_case(case):
    """(A, B, D, constraint) of one of twelve problems: definite B, an
    indefinite canonical pencil, or an indefinite B with a null direction."""
    family, seed = divmod(case, 4)
    if family == 0:
        A, B, D, k = definite_instance(seed)
        return A, B, D, ConstraintSpec.plus_identity(k)
    if family == 1:
        A, B, *_ = canonical_pencil_instance(seed)
    else:
        A, B, *_ = psd_pencil(np.random.default_rng(seed), 2, 2, n_inf=1)
    return A, B, np.diag([1.0, 2.0]), ConstraintSpec.signature(1, 1)


class TestZeroRule:
    """The oracle counts B's null space as the solver does, at every scale
    of B: its signature coordinates take B's inertia from
    `HermitianMatrix.inertia`."""

    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-6, 1.0, 1e4, 1e8])
    @pytest.mark.parametrize("case", range(12))
    def test_coordinates_count_the_solvers_inertia(self, case, c):
        A, B, D, constraint = _zero_rule_case(case)
        coords = _SignatureCoords(c * B, constraint)
        inb = HermitianMatrix(c * B).inertia()
        assert (coords.n_plus, coords.n_zero, coords.n_minus) == (
            inb.n_plus, inb.n_zero, inb.n_minus)
        # P maps the signature coordinates onto B's J: P^H (cB) P = J
        J = np.diag(coords.row_signs)
        assert np.max(np.abs(coords.P.conj().T @ (c * B) @ coords.P - J)) <= 1e-8
        res = local_search(A, c * B, D, constraint, restarts=2, iters=20, seed=0)
        assert len(res.stop_reasons) == 2


def _pencil_problem(seed):
    """A canonical PSD-pencil instance under X^H B X = I_k with PSD D, as in
    acceptance criterion 3; every tenth seed is coupled (not attained)."""
    A, B, n_plus, *_ = canonical_pencil_instance(seed)
    rng = np.random.default_rng(seed + 20_000)
    k = int(rng.integers(1, n_plus + 1))
    return A, B, random_psd(rng, k), ConstraintSpec.plus_identity(k)


def _definite_problem(seed):
    A, B, D, k = definite_instance(seed)
    return A, B, D, ConstraintSpec.plus_identity(k)


def _singular_b_problem(seed):
    """B with inertia (n-2, 1, 1): boosts and nullspace kicks both run."""
    rng = np.random.default_rng(seed + 900)
    n = int(rng.integers(3, 6))
    Q = random_unitary(rng, n)
    w = np.r_[rng.uniform(0.5, 2.0, n - 2), -rng.uniform(0.5, 2.0), 0.0]
    B = Q @ np.diag(w) @ Q.conj().T
    M = random_hermitian(rng, n)
    A = M @ M + np.eye(n)
    return A, B, random_psd(rng, 1), ConstraintSpec.plus_identity(1)


def _fixture_problem(name):
    A, B, D, constraint, _sense = load_problem(FIXTURES / f"{name}.json")
    return A, B, D, constraint


# Unbounded problems. A boost escapes at the first probe round on the first
# three, the last of them with singular B. On the fourth, A < 0 on N(B): the
# null rows descend to -inf, and each restart diverges at its own iteration.
_UNBOUNDED = [
    (np.diag([1.0, 2.0, 5.0]), np.diag([1.0, 1.0, -1.0]), np.diag([-1.0]),
     ConstraintSpec.plus_identity(1)),
    _fixture_problem("unbounded"),
    (*psd_pencil(np.random.default_rng(0), 2, 2, n_inf=1)[:2], np.diag([1.0, -1.0]),
     ConstraintSpec.signature(1, 1)),
    (np.diag([1.0, -1.0, 2.0]), np.diag([1.0, 0.0, -1.0]), np.eye(1),
     ConstraintSpec.plus_identity(1)),
]


class TestLockstep:
    @pytest.mark.parametrize("problem", [
        _pencil_problem(9), _pencil_problem(3), _definite_problem(5),
        _singular_b_problem(2),
    ])
    def test_same_seed_is_bitwise_reproducible(self, problem):
        a = local_search(*problem, restarts=6, iters=120, seed=4)
        b = local_search(*problem, restarts=6, iters=120, seed=4)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_X, b.best_X)
        assert a.iterations == b.iterations
        assert a.stop_reasons == b.stop_reasons

    @pytest.mark.parametrize("problem", [
        _pencil_problem(19), _pencil_problem(4), _definite_problem(8),
        _singular_b_problem(5),
    ])
    def test_iterations_within_budget(self, problem):
        res = local_search(*problem, restarts=7, iters=90, seed=1)
        assert 0 < res.iterations <= 7 * 90
        assert len(res.stop_reasons) == 7

    @pytest.mark.parametrize("problem", [
        _definite_problem(0), _definite_problem(1), _definite_problem(2),
        _pencil_problem(0), _pencil_problem(1), _pencil_problem(2),
    ])
    def test_more_restarts_never_worse(self, problem):
        # restarts 0-4 follow the same paths, bit for bit, in both searches
        few = local_search(*problem, restarts=5, iters=300, seed=3)
        many = local_search(*problem, restarts=20, iters=300, seed=3)
        assert many.best_value <= few.best_value

    # Every product and sum of a restart is formed per matrix, so the
    # restarts stacked around it do not change its path: on these bounded
    # problems (a divergence would stop every restart) the first m restarts
    # of a 12-restart search end exactly where an m-restart search ends
    # them. k = 1 and 2, plus and signature constraints, singular B.
    @pytest.mark.parametrize("problem", [
        _pencil_problem(9), _pencil_problem(1), _definite_problem(5),
        _singular_b_problem(2), _zero_rule_case(5), _zero_rule_case(10),
    ])
    def test_restart_does_not_depend_on_its_stack(self, problem):
        many = local_search(*problem, restarts=12, iters=200, seed=6)
        for m in (1, 2, 5):
            few = local_search(*problem, restarts=m, iters=200, seed=6)
            assert few.stop_reasons == many.stop_reasons[:m]
            assert many.best_value <= few.best_value
            if few.best_value == many.best_value:
                assert np.array_equal(few.best_X, many.best_X)

    # The reference forms each restart's products and sums as the lockstep
    # search forms them for one matrix, so the two agree bit for bit; on the
    # unbounded problems it cuts every restart still running at the first
    # divergence, where the lockstep search stops them.
    @pytest.mark.parametrize("problem", [
        _pencil_problem(9), _pencil_problem(29), _pencil_problem(6),
        _pencil_problem(13), _definite_problem(3), _definite_problem(11),
        _singular_b_problem(0), _singular_b_problem(7), *_UNBOUNDED,
    ])
    def test_matches_sequential_reference(self, problem):
        for seed in (2, 3, 4):
            ref_value, ref_iters, ref_reasons = sequential_search(
                *problem, restarts=8, iters=45, seed=seed)
            res = local_search(*problem, restarts=8, iters=45, seed=seed)
            assert res.best_value == ref_value
            assert res.iterations == ref_iters
            assert res.stop_reasons == ref_reasons

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_rejects_restarts_below_one(self, restarts):
        with pytest.raises(ValueError):
            local_search(np.diag([1.0, 2.0]), np.eye(2), np.eye(1),
                         ConstraintSpec.plus_identity(1), restarts=restarts)

    def test_budget_stop_on_coupled_instance(self):
        res = local_search(*_pencil_problem(9), restarts=20, iters=50, seed=0)
        assert res.stop_reasons == ("budget",) * 20
        assert res.iterations == 20 * 50

    # A restart's iterations are counted where it stops: inside an iteration
    # (a second failed line search, the divergence break) or at the budget.
    # Each case pins the count that the one-increment-per-iteration
    # bookkeeping gave.
    @pytest.mark.parametrize("problem, restarts, iters, seed, iterations, reason", [
        (_pencil_problem(7), 1, 200, 0, 71, "converged"),  # second failed line search
        (_definite_problem(4), 1, 200, 0, 97, "converged"),  # second failed line search
        (_fixture_problem("kyfan"), 1, 300, 5, 12, "converged"),  # second failed line search
        (_fixture_problem("kyfan"), 1, 300, 0, 11, "converged"),  # second failed line search
        (_fixture_problem("unbounded"), 20, 2000, 0, 20, "unbounded"),  # first probe round
    ])
    def test_iterations_counted_where_each_restart_stops(self, problem, restarts, iters,
                                                         seed, iterations, reason):
        res = local_search(*problem, restarts=restarts, iters=iters, seed=seed)
        assert res.iterations == iterations
        assert res.stop_reasons == (reason,) * restarts

    def test_unbounded_stop_reasons(self):
        res = local_search(
            np.diag([1.0, 2.0, 5.0]), np.diag([1.0, 1.0, -1.0]), np.diag([-1.0]),
            ConstraintSpec.plus_identity(1), restarts=5, iters=2000, seed=0,
        )
        assert res.unbounded_flag
        assert "unbounded" in res.stop_reasons
        assert set(res.stop_reasons) <= set(tracemin.oracle.STOP_REASONS)

    def test_finished_restarts_read_converged(self):
        # every kyfan.json restart reaches f = 3 and stops where its line
        # searches can no longer beat the acceptance margin: with a vanishing
        # gradient that is convergence, not a stall
        A, B, D, constraint, _sense = load_problem(FIXTURES / "kyfan.json")
        res = local_search(A, B, D, constraint, restarts=20, iters=500, seed=0)
        assert res.best_value == pytest.approx(3.0, abs=1e-10)
        assert res.stop_reasons.count("converged") >= 15
        assert res.stop_reasons.count("converged") + res.stop_reasons.count("stalled") == 20

    def test_singular_cayley_system_is_rejected(self):
        S = np.zeros((2, 2, 2))
        S[0] = np.diag([-2.0, 0.0])  # I + 0.5 S is singular
        S[1] = np.array([[0.0, 1.0], [-1.0, 0.0]])
        Z = np.ones((2, 2, 1))
        F = S @ Z
        halves = np.array([[0.5, 0.25], [0.5, 0.25]])
        out = _cayley_trials(S, Z, F, halves)
        assert np.all(np.isnan(out[0, 0]))
        for i, j in [(0, 1), (1, 0), (1, 1)]:
            h = halves[i, j]
            want = np.linalg.solve(np.eye(2) + h * S[i], Z[i] - h * F[i])
            assert np.array_equal(out[i, j], want)


def test_oracle_imports_no_analytic_module():
    """The oracle certifies the closed forms, so it must not use them."""
    tree = ast.parse(pathlib.Path(tracemin.oracle.__file__).read_text())
    analytic = {"pencil", "definite"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = set((node.module or "").split("."))
            if not node.module:
                names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names = {part for alias in node.names for part in alias.name.split(".")}
        else:
            continue
        assert not names & analytic, ast.dump(node)


def test_oracle_imports_nothing_from_indefinite():
    """The constraint type lives in `problem`, so the oracle needs nothing
    from the module whose routes it certifies."""
    tree = ast.parse(pathlib.Path(tracemin.oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= set((node.module or "").split("."))
            if not node.module:
                imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {part for alias in node.names for part in alias.name.split(".")}
    assert "indefinite" not in imported


class TestCounterexampleClosedForm:
    def test_matches_direct_trace_on_grid(self):
        p = P_DEFAULT
        for sigma in np.linspace(-0.85, 0.85, 20):
            A, B, D = counterexample_matrices(p, float(sigma))
            for tau in np.linspace(0.0, 2.5, 20):
                Y = counterexample_y(float(tau))
                direct = float(np.real(np.trace(D @ Y.T @ A @ Y)))
                closed = counterexample_f(p, float(sigma), float(tau))
                assert abs(direct - closed) <= 1e-10
                assert np.max(np.abs(Y.T @ B @ Y - B)) <= 1e-12

    def test_origin_value(self):
        assert counterexample_f(P_DEFAULT, 0.0, 0.0) == pytest.approx(
            1.0 + P_DEFAULT.delta * P_DEFAULT.mu, abs=1e-14
        )

    def test_monotone_increase_at_sigma_zero(self):
        vals = [counterexample_f(P_DEFAULT, 0.0, t) for t in np.linspace(0.0, 2.0, 30)]
        assert np.all(np.diff(vals) > 0)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            counterexample_f(P_DEFAULT, 1.5, 0.0)
        with pytest.raises(ValueError):
            counterexample_f(P_DEFAULT, 0.0, -0.1)
        with pytest.raises(ValueError):
            counterexample_y(-1.0)
        with pytest.raises(ValueError):
            counterexample_matrices(P_DEFAULT, -1.0)


class TestCounterexampleParams:
    def test_accepts_valid(self):
        p = CounterexampleParams(mu=4.0, delta=0.2)
        assert 0 < p.gamma < 1 and -1 < p.nu < 0 and p.eta > 0

    @pytest.mark.parametrize("mu, delta", [(0.5, 0.2), (2.0, 0.6), (2.0, -0.1)])
    def test_rejects_out_of_domain(self, mu, delta):
        with pytest.raises(ValueError):
            CounterexampleParams(mu=mu, delta=delta)


class TestCounterexampleStationary:
    @pytest.mark.parametrize(
        "p", [P_DEFAULT, CounterexampleParams(mu=4.0, delta=0.2)]
    )
    def test_interior_and_gradient_vanishes(self, p):
        tau_star, sig_minus, sig_plus = counterexample_stationary(p)
        assert tau_star > 0
        assert 0 < sig_plus < 1
        assert sig_minus == -sig_plus
        h = 1e-6
        gs = (
            counterexample_f(p, sig_plus + h, tau_star)
            - counterexample_f(p, sig_plus - h, tau_star)
        ) / (2 * h)
        gt = (
            counterexample_f(p, sig_plus, tau_star + h)
            - counterexample_f(p, sig_plus, tau_star - h)
        ) / (2 * h)
        assert math.hypot(gs, gt) <= 1e-6

    def test_default_parameter_values(self):
        tau_star, _, sig_plus = counterexample_stationary(P_DEFAULT)
        assert tau_star == pytest.approx(0.2987568425807008, abs=1e-12)
        assert sig_plus == pytest.approx(0.5140989589607083, abs=1e-12)


class TestCounterexampleGap:
    @pytest.mark.parametrize(
        "p", [P_DEFAULT, CounterexampleParams(mu=4.0, delta=0.2)]
    )
    def test_positive_margin(self, p):
        f_min, bound, margin = counterexample_gap(p)
        assert f_min == pytest.approx(2.0 * math.sqrt(p.delta * p.mu), abs=1e-12)
        assert bound == pytest.approx(min(1 + p.delta * p.mu, p.mu + p.delta), abs=1e-14)
        assert margin > 0
        assert margin == pytest.approx(bound - f_min, abs=1e-14)

    def test_default_values(self):
        f_min, bound, margin = counterexample_gap(P_DEFAULT)
        assert f_min == pytest.approx(1.4142135623730951, abs=1e-14)
        assert margin == pytest.approx(0.08578643762690485, abs=1e-14)

    def test_closed_form_minimum_matches_stationary_point(self):
        p = P_DEFAULT
        tau_star, _, sig_plus = counterexample_stationary(p)
        f_min, _, _ = counterexample_gap(p)
        assert counterexample_f(p, sig_plus, tau_star) == pytest.approx(
            f_min, abs=1e-12
        )
