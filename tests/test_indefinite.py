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
    feasible_sample,
    finite_eigenvalues,
    solve,
    solve_indefinite_minus,
    solve_indefinite_plus,
    solve_signature,
)
from tracemin import spectral
from helpers import (
    canonical_pencil_instance,
    check_factorizations,
    psd_pencil,
    random_psd,
    spy_factorizations,
)

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


@pytest.mark.parametrize("seed", range(8))
def test_finiteness_dichotomy_scales_with_d(seed):
    # the weight tolerance is relative to max|D|: scaling D by any c > 0
    # keeps an unbounded instance unbounded and scales a finite value by c
    A, B, n_plus, *_rest = canonical_pencil_instance(seed)
    rng = np.random.default_rng(seed + 7000)
    k = int(rng.integers(1, n_plus + 1))
    D_psd = random_psd(rng, k)
    D_bad = D_psd - (float(np.linalg.eigvalsh(D_psd)[0]) + 0.1) * np.eye(k)
    spec = ConstraintSpec.plus_identity(k)
    base = solve(A, B, D_psd, spec).value
    for j in range(-12, 9):
        c = 10.0 ** j
        assert not check_finiteness(c * D_bad)
        assert not solve(A, B, c * D_bad, spec).finite
        assert check_finiteness(c * D_psd)
        assert solve(A, B, c * D_psd, spec).value == pytest.approx(c * base, rel=1e-9)


@pytest.mark.parametrize("kind", ["plus_identity", "minus_identity", "signature"])
@pytest.mark.parametrize("singular", [False, True])
def test_indefinite_solve_validates_once_and_factors_b_once(monkeypatch, kind, singular):
    rng = np.random.default_rng(21)
    A, B, _lp, _lm = psd_pencil(rng, 6, 5, n_inf=2 * singular, n_common=int(singular))
    n = A.shape[0]
    constraint = {"plus_identity": ConstraintSpec.plus_identity(2),
                  "minus_identity": ConstraintSpec.minus_identity(2),
                  "signature": ConstraintSpec.signature(1, 1)}[kind]
    D = np.diag([2.0, 1.0])
    calls = spy_factorizations(monkeypatch)
    validated = []
    real_init = spectral.HermitianMatrix.__init__

    def counting_init(self, entries):
        validated.append(np.shape(entries))
        real_init(self, entries)

    monkeypatch.setattr(spectral.HermitianMatrix, "__init__", counting_init)
    rep = solve(A, B, D, constraint, want_optimizer=True)
    assert rep.attained and rep.x_opt is not None
    assert rep.inertia_b.n_zero == 3 * singular
    assert sorted(validated) == sorted([(n, n), (n, n), (2, 2)])
    check_factorizations(calls, B)


def _scale_instances():
    """Indefinite PSD pencils with PSD weights for the metamorphic tests:
    canonical instances (nonsingular B, every tenth coupled) and singular B
    with infinite eigenvalues and a common nullspace, coupled or not."""
    out = []
    for seed in range(12):
        A, B, n_plus, n_minus, *_rest = canonical_pencil_instance(seed)
        out.append((A, B, n_plus, n_minus))
    for seed, coupled in ((0, 0), (1, 1), (2, 0), (3, 1)):
        rng = np.random.default_rng(seed + 8000)
        A, B, lp, lm = psd_pencil(rng, 3, 2, n_inf=2, n_common=1, n_coupled=coupled)
        out.append((A, B, lp.size, lm.size))
    return out


def _constraints(rng, n_plus, n_minus):
    kp = int(rng.integers(1, n_plus + 1))
    km = int(rng.integers(1, n_minus + 1))
    Dp, Dm = random_psd(rng, kp), random_psd(rng, km)
    D = np.zeros((kp + km, kp + km), dtype=complex)
    D[:kp, :kp], D[kp:, kp:] = Dp, Dm
    # (constraint, D, tr(D X^H B X) on the feasible set)
    return [(ConstraintSpec.plus_identity(kp), Dp, np.trace(Dp).real),
            (ConstraintSpec.minus_identity(km), Dm, -np.trace(Dm).real),
            (ConstraintSpec.signature(kp, km), D, (np.trace(Dp) - np.trace(Dm)).real)]


@pytest.mark.parametrize("index", range(16))
def test_value_scales_with_a_and_b(index):
    # value(c*A) = c*value and value(A, c*B) = value/c for c in 10^[-8, 8]:
    # the rank, Schur-complement and certificate thresholds are relative
    A, B, n_plus, n_minus = _scale_instances()[index]
    rng = np.random.default_rng(index + 9000)
    for constraint, D, _trace_b in _constraints(rng, n_plus, n_minus):
        base = solve(A, B, D, constraint)
        for j in range(-8, 9):
            c = 10.0 ** j
            for rep, expected in ((solve(c * A, B, D, constraint), c * base.value),
                                  (solve(A, c * B, D, constraint), base.value / c)):
                assert rep.attained == base.attained, (constraint.kind, c)
                assert rep.value == pytest.approx(expected, rel=1e-9), (constraint.kind, c)


@pytest.mark.parametrize("index", range(16))
def test_value_invariant_under_congruence_and_shift(index):
    # (A, B) -> (T^H A T, T^H B T) keeps the value; A -> A + s*B adds
    # s * tr(D X^H B X), which the constraint fixes
    A, B, n_plus, n_minus = _scale_instances()[index]
    rng = np.random.default_rng(index + 9500)
    n = A.shape[0]
    T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
    At, Bt = T.conj().T @ A @ T, T.conj().T @ B @ T
    At, Bt = 0.5 * (At + At.conj().T), 0.5 * (Bt + Bt.conj().T)
    for constraint, D, trace_b in _constraints(rng, n_plus, n_minus):
        base = solve(A, B, D, constraint)
        scale = 1.0 + abs(base.value)
        rep = solve(At, Bt, D, constraint)
        assert rep.attained == base.attained
        assert rep.value == pytest.approx(base.value, abs=1e-8 * scale)
        for s_ in (-3.0, -0.25, 0.5, 7.0):
            rep = solve(A + s_ * B, B, D, constraint)
            assert rep.attained == base.attained
            assert rep.value == pytest.approx(base.value + s_ * trace_b,
                                              abs=1e-9 * (scale + abs(s_ * trace_b)))


def test_zero_a_optimizer_is_one_feasible_draw():
    # A = 0: every feasible X attains 0, and the optimizer is one draw for
    # the whole constraint, so a signature block is feasible as a whole
    A, B = np.zeros((4, 4)), np.diag([1.0, 2.0, -1.0, -3.0])
    for constraint in (ConstraintSpec.plus_identity(2), ConstraintSpec.minus_identity(1),
                       ConstraintSpec.signature(2, 1)):
        rep = solve(A, B, np.eye(constraint.k), constraint, want_optimizer=True)
        assert rep.value == 0.0 and rep.attained and rep.warnings == ["degenerate_A"]
        X = rep.x_opt
        assert np.max(np.abs(X.conj().T @ B @ X - constraint.matrix())) <= 1e-10
        assert np.array_equal(X, feasible_sample(B, constraint, seed=0))


@pytest.mark.parametrize("kind", ["plus_identity", "minus_identity", "signature"])
@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize("coupled", [0, 1])
def test_indefinite_solve_takes_eigvals_only_without_strict_shift(
    monkeypatch, kind, singular, coupled
):
    # a diagonalizable pencil has a strict shift, and the definite pair there
    # gives its whole spectrum; only a coupled block leaves the nonsymmetric
    # eigenvalue solve, once
    rng = np.random.default_rng(22)
    A, B, _lp, _lm = psd_pencil(rng, 6, 5, n_inf=2 * singular, n_common=int(singular),
                                n_coupled=coupled)
    constraint = {"plus_identity": ConstraintSpec.plus_identity(2),
                  "minus_identity": ConstraintSpec.minus_identity(2),
                  "signature": ConstraintSpec.signature(1, 1)}[kind]
    calls = []
    real = np.linalg.eigvals

    def counted(M, *args, **kwargs):
        calls.append(np.shape(M))
        return real(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    rep = solve(A, B, np.diag([2.0, 1.0]), constraint, want_optimizer=True)
    assert rep.finite and rep.attained == (not coupled)
    assert rep.analysis.m0 == coupled
    assert len(calls) == coupled
