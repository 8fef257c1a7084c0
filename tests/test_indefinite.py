import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracemin import (
    BlockStructureViolated,
    BudgetExceeded,
    ConstraintSpec,
    InfeasibleConstraint,
    Unsupported,
    characterize_minimizer,
    epsilon_suboptimal,
    finite_eigenvalues,
    solve,
)
from tracemin import indefinite, oracle, spectral
from tracemin.cli import main
from tracemin.definite import _split_omegas
from tracemin.spectral import ZERO_RTOL as WEIGHT_RTOL
from helpers import (
    canonical_pencil_instance,
    check_factorizations,
    definite_instance,
    psd_pencil,
    random_psd,
    random_unitary,
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
    assert solve(A3, B3, np.diag([1.0, 0.0]), ConstraintSpec.plus_identity(2)).finite
    assert not solve(A3, B3, np.diag([1.0, -0.5]), ConstraintSpec.plus_identity(2)).finite


# a strict pencil with lambda+ = 1, 2, 4 and lambda- = -3, -5, -6
A6 = np.diag([1.0, 2.0, 4.0, 5.0, 3.0, 6.0])
B6 = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
# lambda+ = 1, 2 and lambda- = -3, -5
A4 = np.diag([1.0, 2.0, 5.0, 3.0])
B4 = np.diag([1.0, 1.0, -1.0, -1.0])


@pytest.mark.parametrize("c", [1e-12, 1e-9])
def test_each_signature_block_is_judged_against_its_own_largest_weight(c):
    # the -1 block of diag(1, -c) is [-c]: its weight is negative against its
    # own scale at every c. Judged as one block, -c is zero within
    # WEIGHT_RTOL * 1 at c = 1e-12 and negative at c = 1e-9
    D = np.diag([1.0, -c])
    assert not solve(A4, B4, D, ConstraintSpec.signature(1, 1)).finite
    plus = solve(A4, B4, D, ConstraintSpec.plus_identity(2))
    assert plus.finite is (_split_omegas(D).ell == 2) is (c < WEIGHT_RTOL)
    if plus.finite:
        assert plus.value == pytest.approx(1.0 - 2.0 * c, rel=1e-15)


@pytest.mark.parametrize("s", range(-8, 9))
def test_scaling_the_plus_block_leaves_the_minus_blocks_decision(s):
    for d_minus, finite in ((-1e-12, False), (1e-12, True)):
        rep = solve(A4, B4, np.diag([10.0 ** s, d_minus]), ConstraintSpec.signature(1, 1))
        assert rep.finite is finite


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 3), ratio=st.floats(-2.0, 2.0), sign=st.sampled_from([1.0, -1.0]),
       log_scale=st.floats(-6.0, 6.0), rotate=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_check_finiteness_is_the_plus_routes_decision(k, ratio, sign, log_scale, rotate, seed):
    # one weight at ratio * WEIGHT_RTOL * max|D| beside a largest weight of
    # either sign, the rest in [0, max|D|]
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    w = np.r_[sign * scale, ratio * WEIGHT_RTOL * scale, rng.uniform(0, scale, 1)][:k]
    Q = random_unitary(rng, k) if rotate else np.eye(k)
    D = (Q * w) @ Q.conj().T
    D = 0.5 * (D + D.conj().T)
    finite = _split_omegas(D).ell == k
    assert solve(A6, B6, D, ConstraintSpec.plus_identity(k)).finite is finite
    if not rotate and k > 1 and sign > 0:
        assert finite is (ratio >= -1.0)


class TestWorkedExamples:
    def test_plus_smallest_positive_eigenvalue(self):
        rep = solve(A3, B3, np.eye(1), ConstraintSpec.plus_identity(1))
        assert rep.value == pytest.approx(1.0, abs=1e-9)
        assert rep.attained

    def test_minus_negated_largest_negative(self):
        rep = solve(A3, B3, np.eye(1), ConstraintSpec.minus_identity(1))
        assert rep.value == pytest.approx(5.0, abs=1e-9)

    def test_signature_sum_rule(self):
        rp = solve(A3, B3, np.diag([2.0, 1.0]), ConstraintSpec.plus_identity(2))
        rm = solve(A3, B3, np.eye(1), ConstraintSpec.minus_identity(1))
        rs = solve(A3, B3, np.diag([2.0, 1.0, 1.0]), ConstraintSpec.signature(2, 1))
        assert rs.value == pytest.approx(rp.value + rm.value, abs=1e-9)
        assert rs.value == pytest.approx(2 * 1 + 1 * 2 + 5, abs=1e-9)

    def test_not_finite_with_negative_weight(self):
        rep = solve(A3, B3, np.diag([-1.0]), ConstraintSpec.plus_identity(1))
        assert not rep.finite
        assert rep.value is None

    def test_k_too_large(self):
        with pytest.raises(InfeasibleConstraint):
            solve(A3, B3, np.eye(3), ConstraintSpec.plus_identity(3))
        with pytest.raises(InfeasibleConstraint):
            solve(A3, B3, np.eye(2), ConstraintSpec.minus_identity(2))


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

    @pytest.mark.parametrize("entry", ["solve", "epsilon_suboptimal"])
    def test_semidefinite_b_is_unsupported_before_any_analysis(self, monkeypatch, entry):
        # A - lambda*B is not positive semi-definite here, but B's inertia is
        # decided first, once, and the same way on both entry points
        def no_analysis(*args):
            raise AssertionError("the pencil was analyzed")
        monkeypatch.setattr(indefinite, "finite_eigenvalues", no_analysis)
        A, B, D = np.diag([1.0, -1.0]), np.diag([1.0, 0.0]), np.eye(1)
        with pytest.raises(Unsupported, match="genuinely indefinite"):
            if entry == "solve":
                solve(A, B, D, ConstraintSpec.plus_identity(1))
            else:
                epsilon_suboptimal(A, B, D, ConstraintSpec.plus_identity(1), 1e-6)

    def test_diagonal_skips_only_probes_it_refutes(self, monkeypatch):
        # a diagonal entry of B at or below zero rules out a Cholesky factor of
        # B (at or above zero, of -B), so those probes are skipped and the
        # route is the one both probes would give; pencil-scale's indefinite B
        # has diagonal entries of both signs and is probed not at all
        import importlib.util
        import sys
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "bench_instances", Path(__file__).resolve().parents[1] / "bench" / "instances.py")
        bench = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, bench)
        spec.loader.exec_module(bench)
        cases = [(*canonical_pencil_instance(seed)[:2], np.eye(1),
                  ConstraintSpec.plus_identity(1)) for seed in range(100)]
        for seed in range(50):
            A, B, D, k = definite_instance(seed)
            cases += [(A, B, D, ConstraintSpec.plus_identity(k)),
                      (A, -B, D, ConstraintSpec.minus_identity(k))]
        for inst in bench.pencil_scale(1):
            kind, kp, km = inst.constraint
            cases.append((inst.a, inst.b, inst.d, ConstraintSpec.signature(kp, km)
                          if kind == "signature" else ConstraintSpec(kind, kp + km)))
        probes, real = [], indefinite.cholesky
        monkeypatch.setattr(indefinite, "cholesky",
                            lambda H: probes.append(float(np.real(H.mat[0, 0]))) or real(H))
        for i, (A, B, D, constraint) in enumerate(cases):
            H = spectral.HermitianMatrix(B)
            routes = []
            for M in (H, -H):
                try:
                    real(M)
                    routes.append(True)
                except spectral.NotPositiveDefinite:
                    routes.append(False)
            expected = ("definite-min" if routes[0] else
                        "definite-min-negated-b" if routes[1] else "indefinite")
            b = np.real(np.diag(B))
            probes.clear()
            rep = solve(A, B, D, constraint)
            assert rep.route.startswith(expected), i
            # the probes made are those the diagonal does not refute, B first
            assert probes == [sign * b[0] for sign, live in ((1.0, b.min() > 0),
                                                              (-1.0, b.max() < 0)) if live], i
            if i >= 200:
                assert probes == []

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
    rep = solve(A, B, D, ConstraintSpec.plus_identity(k))
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
    D = np.zeros((k_plus + k_minus, k_plus + k_minus), dtype=complex)
    D[:k_plus, :k_plus] = Dp
    D[k_plus:, k_plus:] = Dm
    rep = solve(A, B, D, ConstraintSpec.signature(k_plus, k_minus), want_optimizer=True)
    X = rep.x_opt
    J = np.diag(np.concatenate([np.ones(k_plus), -np.ones(k_minus)]))
    assert np.max(np.abs(X.conj().T @ B @ X - J)) <= 1e-8
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
                           eps=1e-3)
    obj = float(np.real(np.trace(X.conj().T @ A @ X)))
    assert 0.0 <= obj <= 1e-3
    assert np.max(np.abs(X.conj().T @ B @ X - 1.0)) <= 1e-8


def test_epsilon_suboptimal_rejects_unbounded():
    with pytest.raises(Unsupported):
        epsilon_suboptimal(A3, B3, np.diag([-1.0]), ConstraintSpec.plus_identity(1),
                           eps=1e-3)


@pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan])
def test_epsilon_suboptimal_rejects_eps_that_is_not_positive(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        epsilon_suboptimal(A3, B3, np.eye(1), ConstraintSpec.plus_identity(1), eps)


def _excess_and_residual(A, B, D, constraint, X, value):
    f = float(np.real(np.trace(D @ X.conj().T @ A @ X)))
    return f - value, np.max(np.abs(X.conj().T @ B @ X - constraint.matrix()))


@pytest.mark.parametrize("seed", range(9, 100, 10))
def test_epsilon_suboptimal_meets_eps_on_coupled_pencils(monkeypatch, seed):
    # X_t from the Jordan chain in closed form, no search: its excess is eps/2
    A, B, *_rest, coupled = canonical_pencil_instance(seed)
    assert coupled
    constraint, D, eps = ConstraintSpec.plus_identity(1), np.array([[1.7]]), 1e-6
    rep = solve(A, B, D, constraint)
    assert not rep.attained
    X = epsilon_suboptimal(A, B, D, constraint, eps)
    excess, residual = _excess_and_residual(A, B, D, constraint, X, rep.value)
    assert 0.0 <= excess <= eps
    assert residual <= 1e-8
    # no randomized search runs; the one this replaced took seconds, so half
    # a second (best of five, against noise) still tells the two apart
    def no_search(*args, **kwargs):
        raise AssertionError("epsilon_suboptimal ran the oracle")

    monkeypatch.setattr(oracle, "local_search", no_search)
    seconds = []
    for _ in range(5):
        start = time.perf_counter()
        epsilon_suboptimal(A, B, D, constraint, eps)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.5


def test_epsilon_suboptimal_signature_takes_both_columns_of_a_chain():
    # lambda+[0] = lambda-[0] = lambda0: one chain gives both columns, and
    # their weights add (3 + 1.5)/(4t^2) = eps/2
    A, B, *_rest = canonical_pencil_instance(9)
    constraint, D, eps = ConstraintSpec.signature(1, 1), np.diag([3.0, 1.5]), 1e-5
    rep = solve(A, B, D, constraint)
    an = rep.analysis
    assert an.lambda_plus[0] == an.lambda_minus[0] == an.lambda0 and not rep.attained
    X = epsilon_suboptimal(A, B, D, constraint, eps)
    excess, residual = _excess_and_residual(A, B, D, constraint, X, rep.value)
    assert excess == pytest.approx(eps / 2, rel=1e-2)
    assert residual <= 1e-8


def test_epsilon_suboptimal_raises_when_x_t_leaves_the_constraint():
    # at eps = 1e-14 the chain columns grow to ~1e7, and rounding alone puts
    # X^H B X off the constraint by far more than FEASIBILITY_ATOL
    A, B, *_rest = canonical_pencil_instance(9)
    with pytest.raises(BudgetExceeded, match="misses"):
        epsilon_suboptimal(A, B, np.array([[1.7]]), ConstraintSpec.plus_identity(1), 1e-14)


@pytest.mark.parametrize("shift", [-1e-4, 1e-4])
def test_epsilon_suboptimal_measures_the_excess(monkeypatch, shift):
    # the excess is measured against the reported value: a value off by 1e-4
    # either way puts X_t outside [0, eps] and raises
    A, B, *_rest = canonical_pencil_instance(9)
    real_solve = indefinite._solve

    def off_value(*args):
        rep = real_solve(*args)
        rep.value += shift
        return rep

    monkeypatch.setattr(indefinite, "_solve", off_value)
    with pytest.raises(BudgetExceeded, match="infimum"):
        epsilon_suboptimal(A, B, np.array([[1.7]]), ConstraintSpec.plus_identity(1), 1e-6)


def test_zero_a_degenerate_warning():
    rep = solve(np.zeros((3, 3)), B3, np.eye(1), ConstraintSpec.plus_identity(1))
    assert rep.value == 0.0
    assert "degenerate_A" in rep.warnings


@pytest.mark.parametrize("seed", range(20))
def test_minus_route_is_plus_route_on_negated_b(seed):
    A, B, n_plus, n_minus, *_rest, coupled = canonical_pencil_instance(seed)
    rng = np.random.default_rng(seed + 4000)
    k = int(rng.integers(1, n_minus + 1))
    D = random_psd(rng, k)
    rm = solve(A, B, D, ConstraintSpec.minus_identity(k), want_optimizer=True)
    rp = solve(A, -B, D, ConstraintSpec.plus_identity(k), want_optimizer=True)
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
        assert _split_omegas(c * D_bad).ell < k
        assert not solve(A, B, c * D_bad, spec).finite
        assert _split_omegas(c * D_psd).ell == k
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


@pytest.mark.parametrize("c", [0.0, 2.0, -3.5, 1e6])
@pytest.mark.parametrize("constraint, D, trace_dc", [
    (ConstraintSpec.plus_identity(1), np.diag([-1.0]), -1.0),
    (ConstraintSpec.plus_identity(2), np.diag([1.0, -1.0]), 0.0),
    (ConstraintSpec.signature(1, 1), np.diag([1.0, -1.0]), 2.0),
])
def test_a_equal_to_lambda0_b_is_constant_on_the_feasible_set(c, constraint, D, trace_dc):
    # A = c*B: every feasible X attains c * tr(D C) whatever the sign of D
    B = np.diag([1.0, 2.0, -1.0])
    rep = solve(c * B, B, D, constraint, want_optimizer=True)
    assert rep.finite and rep.attained and rep.warnings == ["degenerate_A"]
    assert rep.value == pytest.approx(c * trace_dc, rel=1e-12, abs=1e-12 * abs(c))
    if c == 0.0:
        assert math.copysign(1.0, rep.value) == 1.0
    excess, residual = _excess_and_residual(c * B, B, D, constraint, rep.x_opt, rep.value)
    assert abs(excess) <= 1e-12 * (1.0 + abs(c)) and residual <= 1e-12


def test_a_off_lambda0_b_stays_unbounded():
    # A = 2B + 1e-3*I, and A = 2B plus a direction on N(B): A - lambda0*B is
    # not zero, so a negative weight leaves the infimum at -inf
    B = np.diag([1.0, 2.0, -1.0])
    B4 = np.diag([1.0, 2.0, -1.0, 0.0])
    # B with a wide spread: A - lambda0*B is 0.1 on the unit entry, tiny
    # against max|A| = 2e8 but not in the scale-free S - lambda0*J
    Bw = np.diag([1e8, 1.0, -1.0])
    for A_, B_ in ((2 * B + 1e-3 * np.eye(3), B), (2 * B4 + np.diag([0.0, 0.0, 0.0, 1.0]), B4),
                   (2 * Bw + np.diag([0.0, 0.1, 0.0]), Bw)):
        rep = solve(A_, B_, np.diag([-1.0]), ConstraintSpec.plus_identity(1))
        assert not rep.finite and rep.value is None and rep.warnings == []


# signature(1, 1) problems that differ from A = diag(2, 1), B = diag(1, -1),
# D = diag(-0.5, 1) as listed. A negative weight gives -inf only along an
# escape: (A) a free - direction (k- < n-) or A > 0 on N(B) for a D+ weight,
# (B) the same with the blocks swapped, or (C) lambda_min(D+) + lambda_min(D-)
# < 0. Without one the solve is refused; on the problem itself f =
# 1.5*sinh(t)^2 >= 0 on the whole feasible set.
ESCAPE_BASE = {"a": [2.0, 1.0], "b": [1.0, -1.0], "d": [-0.5, 1.0]}


@pytest.mark.parametrize("change, escapes", [
    ({}, False),
    ({"d": [1.0, -0.5]}, False),
    ({"a": [2.0, 1.0, 3.0], "b": [1.0, -1.0, -1.0]}, True),
    ({"a": [2.0, 1.0, 3.0], "b": [1.0, -1.0, 1.0], "d": [1.0, -0.5]}, True),
    ({"a": [2.0, 1.0, 1.0], "b": [1.0, -1.0, 0.0]}, True),
    ({"a": [2.0, 1.0, 0.0], "b": [1.0, -1.0, 0.0]}, False),
    ({"d": [-1.0, 0.5]}, True),
    ({"d": [-1.0, 1.0]}, False),
])
def test_signature_negative_weight_is_minus_inf_only_along_an_escape(change, escapes):
    A, B, D = (np.diag(v) for v in {**ESCAPE_BASE, **change}.values())
    constraint = ConstraintSpec.signature(1, 1)
    if escapes:
        assert not solve(A, B, D, constraint).finite
    else:
        with pytest.raises(Unsupported, match="no escape to -inf"):
            solve(A, B, D, constraint)
    # the oracle agrees: it diverges exactly where an escape exists
    res = oracle.local_search(A, B, D, constraint, restarts=20, iters=2000, seed=0)
    assert res.unbounded_flag is escapes


@pytest.mark.parametrize("B, constraint, message", [
    (np.eye(2), ConstraintSpec.minus_identity(1),
     "signature (0,1) exceeds inertia (2,0) of B"),
    (-np.eye(2), ConstraintSpec.plus_identity(1),
     "signature (1,0) exceeds inertia (0,2) of B"),
])
def test_definite_b_refuses_the_other_sign(B, constraint, message):
    with pytest.raises(InfeasibleConstraint, match=f"^{re.escape(message)}$"):
        solve(np.eye(2), B, np.eye(1), constraint)


# (B, constraint, sense, message): constraints B's inertia cannot hold, by
# Sylvester's law, under semidefinite, zero, indefinite and definite B
INFEASIBLE = [
    (np.diag([1.0, 0.0]), ConstraintSpec.minus_identity(1), "min",
     "signature (0,1) exceeds inertia (1,0) of B"),
    (np.zeros((2, 2)), ConstraintSpec.plus_identity(1), "min",
     "signature (1,0) exceeds inertia (0,0) of B"),
    (np.diag([1.0, 1.0, -1.0]), ConstraintSpec.minus_identity(2), "min",
     "signature (0,2) exceeds inertia (2,1) of B"),
    (np.diag([1.0, 1.0, -1.0]), ConstraintSpec.minus_identity(2), "max",
     "signature (0,2) exceeds inertia (2,1) of B"),
    (np.eye(2), ConstraintSpec.minus_identity(1), "min",
     "signature (0,1) exceeds inertia (2,0) of B"),
    (-np.eye(2), ConstraintSpec.signature(1, 1), "min",
     "signature (1,1) exceeds inertia (0,2) of B"),
]


def _problem_file(tmp_path, A, B, D, constraint, sense):
    doc = {"a": A.tolist(), "b": B.tolist(), "d": D.tolist(),
           "constraint": constraint.kind, "sense": sense}
    if constraint.kind == "signature":
        doc.update(k_plus=constraint.k_plus, k_minus=constraint.k_minus)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("B, constraint, sense, message", INFEASIBLE)
def test_every_entry_point_refuses_an_infeasible_constraint_first(
        capsys, tmp_path, B, constraint, sense, message):
    # one rule and one message, before any refusal that reads B's class or
    # the sense; epsilon_suboptimal and the oracle seek a minimum
    n, k = B.shape[0], constraint.k
    A, D = np.diag(np.arange(1.0, n + 1.0)), np.eye(k)
    entries = [lambda: solve(A, B, D, constraint, sense),
               lambda: epsilon_suboptimal(A, B, D, constraint, 1e-6),
               lambda: oracle.local_search(A, B, D, constraint, restarts=1, iters=1)]
    for entry in entries[: 1 if sense == "max" else 3]:
        with pytest.raises(InfeasibleConstraint, match=f"^{re.escape(message)}$"):
            entry()
    path = _problem_file(tmp_path, A, B, D, constraint, sense)
    for command in ("solve", "verify"):
        code = main([command, path])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"code": "INFEASIBLE_CONSTRAINT", "message": message}


@pytest.mark.parametrize("B, constraint", [
    (np.diag([1.0, 0.0]), ConstraintSpec.plus_identity(1)),
    (np.diag([0.0, -2.0, 0.0]), ConstraintSpec.minus_identity(1)),
])
def test_feasible_semidefinite_b_is_still_unsupported_before_any_analysis(
        capsys, tmp_path, monkeypatch, B, constraint):
    def no_analysis(*args):
        raise AssertionError("the pencil was analyzed")
    monkeypatch.setattr(indefinite, "finite_eigenvalues", no_analysis)
    n = B.shape[0]
    A, D = np.diag(np.arange(1.0, n + 1.0)), np.eye(1)
    for entry in (lambda: solve(A, B, D, constraint),
                  lambda: epsilon_suboptimal(A, B, D, constraint, 1e-6)):
        with pytest.raises(Unsupported, match="genuinely indefinite"):
            entry()
    code = main(["solve", _problem_file(tmp_path, A, B, D, constraint, "min")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "UNSUPPORTED_SENSE"


def test_zero_a_optimizer_is_one_feasible_draw():
    # A = 0: every feasible X attains 0, and the optimizer is one set of
    # B-orthonormal columns for the whole constraint, so a signature block is
    # feasible as a whole
    A, B = np.zeros((4, 4)), np.diag([1.0, 2.0, -1.0, -3.0])
    for constraint in (ConstraintSpec.plus_identity(2), ConstraintSpec.minus_identity(1),
                       ConstraintSpec.signature(2, 1)):
        rep = solve(A, B, np.eye(constraint.k), constraint, want_optimizer=True)
        assert rep.value == 0.0 and rep.attained and rep.warnings == ["degenerate_A"]
        X = rep.x_opt
        assert np.max(np.abs(X.conj().T @ B @ X - constraint.matrix())) <= 1e-10


@pytest.mark.parametrize("kind", ["plus_identity", "minus_identity", "signature"])
@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize("coupled", [0, 1])
def test_indefinite_solve_takes_eigvals_only_without_strict_shift(
    monkeypatch, kind, singular, coupled
):
    # a diagonalizable pencil has a strict shift, and the definite pair there
    # gives its whole spectrum; on a coupled block the search places lambda0
    # and the pair beside the Jordan chains gives the rest: no nonsymmetric
    # eigenvalue solve either way
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
    assert calls == []


def _spy_back_transforms(monkeypatch):
    """Record the column count of every zunmqr and triangular solve, and
    whether each tridiagonal eigensolve asked for vectors."""
    import scipy.linalg as sla
    from scipy.linalg import lapack

    cols, tridiagonal = [], []
    real_unmqr, real_solve, real_tri = lapack.zunmqr, sla.solve_triangular, sla.eigh_tridiagonal

    def unmqr(side, trans, a, tau, c, *args, **kwargs):
        cols.append(("zunmqr", np.shape(c)[1]))
        return real_unmqr(side, trans, a, tau, c, *args, **kwargs)

    def solve_triangular(a, b, *args, **kwargs):
        cols.append(("solve_triangular", np.shape(b)[1]))
        return real_solve(a, b, *args, **kwargs)

    def eigh_tridiagonal(d, e, *args, **kwargs):
        tridiagonal.append(not kwargs.get("eigvals_only", False))
        return real_tri(d, e, *args, **kwargs)

    monkeypatch.setattr(lapack, "zunmqr", unmqr)
    monkeypatch.setattr(sla, "solve_triangular", solve_triangular)
    monkeypatch.setattr(sla, "eigh_tridiagonal", eigh_tridiagonal)
    return cols, tridiagonal


@pytest.mark.parametrize("kind", ["plus_identity", "minus_identity", "signature"])
def test_strict_path_solve_transforms_back_only_k_columns(monkeypatch, kind):
    # a diagonalizable pencil with a strict shift: the optimizer takes the k
    # paired eigenvectors from the kept reduction, with no full eigh of the
    # r x r definite pair
    A, B, lp, lm = psd_pencil(np.random.default_rng(9400), 7, 6)
    n = A.shape[0]
    kp, km = {"plus_identity": (3, 0), "minus_identity": (0, 2), "signature": (2, 3)}[kind]
    constraint = (ConstraintSpec.signature(kp, km) if kind == "signature"
                  else ConstraintSpec(kind, kp + km))
    D = np.diag(np.r_[np.arange(kp, 0, -1), np.arange(km, 0, -1)]).astype(float)
    cols, tridiagonal = _spy_back_transforms(monkeypatch)
    calls = spy_factorizations(monkeypatch)
    rep = solve(A, B, D, constraint, want_optimizer=True)
    check_factorizations(calls, B)
    assert [shape for name, shape, _M in calls if name == "eigh"] == [(n, n)] + [
        (k, k) for k in (kp, km) if k]
    assert cols and all(c == kp + km for _name, c in cols)
    assert tridiagonal.count(True) == int(kp > 0) + int(km > 0)
    J = np.diag(np.r_[np.ones(kp), -np.ones(km)])
    assert np.max(np.abs(rep.x_opt.conj().T @ B @ rep.x_opt - J)) <= 1e-10
    assert rep.value == pytest.approx(float(np.diag(D) @ np.r_[lp[:kp], -lm[:km]]),
                                      rel=1e-9)


def test_solve_without_optimizer_computes_no_eigenvector(monkeypatch):
    A, B, _lp, _lm = psd_pencil(np.random.default_rng(9401), 5, 4)
    cols, tridiagonal = _spy_back_transforms(monkeypatch)
    rep = solve(A, B, np.eye(3), ConstraintSpec.plus_identity(3))
    assert rep.attained and rep.x_opt is None
    assert cols == [] and tridiagonal == [False]
    assert rep.analysis.eigvecs(3, 0) == (None, None)


def test_characterize_minimizer_of_a_signature_report():
    # the pairing lists the +1 block, then the -1 block; the compression
    # orders all of D's weights descending, and the expected diagonal follows
    A, B, _lp, _lm = psd_pencil(np.random.default_rng(9403), 3, 3)
    D = np.diag([1.0, 2.0, 5.0, 3.0])
    rep = solve(A, B, D, ConstraintSpec.signature(2, 2), want_optimizer=True)
    chk = characterize_minimizer(rep, A, B, D)
    assert chk.offdiag_max <= 1e-9
    assert np.allclose(chk.diagonal, chk.expected_diagonal, atol=1e-9)


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_characterize_minimizer_splits_a_signature_report_by_block(theta):
    # the weight 2 occurs in both blocks: the compression and the expected
    # diagonal follow the pairing block by block (+1 block first), not one
    # descending order of all of D's weights; theta rotates D+
    A, B = np.diag([1.0, 2.0, 3.0, 7.0, 9.0]), np.diag([1.0, 1.0, 1.0, -1.0, -1.0])
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    D = np.zeros((3, 3))
    D[:2, :2], D[2, 2] = R @ np.diag([2.0, 1.0]) @ R.T, 2.0
    rep = solve(A, B, D, ConstraintSpec.signature(2, 1), want_optimizer=True)
    chk = characterize_minimizer(rep, A, B, D)
    assert chk.offdiag_max <= 1e-12
    assert np.allclose(chk.diagonal, [1.0, 2.0, 7.0], atol=1e-12)
    assert np.allclose(chk.expected_diagonal, [1.0, 2.0, 7.0], atol=1e-12)


@pytest.mark.parametrize("width, kernel, tol", [(0.0, 2, 1e-10), (1e-6, 0, 1e-8)])
def test_non_strict_path_transforms_back_only_needed_columns(monkeypatch, width, kernel,
                                                             tol):
    # a touching bracket (kernel: one eigenvalue of each sign at lambda0) and
    # one opened by 1e-6 (too narrow for a strict shift, none at lambda0, the
    # split pair within the strict margin of the searched shift): the analysis
    # transforms back at once only the pair's eigenvectors near the shift,
    # which it deflates, and an optimizer only the columns that the kernel K0
    # at the shift and those do not supply, with no generalized eigh and no
    # nonsymmetric solve
    import scipy.linalg as sla

    from tracemin import pencil

    A, B, _lp, _lm = psd_pencil(np.random.default_rng(9402), 3, 3, n_touch=1)
    A = A + width * np.max(np.abs(A)) * np.eye(A.shape[0])
    certified, real_certify = [], pencil._certify
    monkeypatch.setattr(pencil, "_certify",
                        lambda *a: certified.append(real_certify(*a)) or certified[-1])
    generalized, eigvals = [], []
    real_eigh, real_eigvals = sla.eigh, np.linalg.eigvals

    def eigh(a, b=None, *args, **kwargs):
        generalized.append(b is not None)
        return real_eigh(a, b, *args, **kwargs)

    monkeypatch.setattr(sla, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: eigvals.append(1) or real_eigvals(M))
    cols, tridiagonal = _spy_back_transforms(monkeypatch)
    an = finite_eigenvalues(A, B)
    assert eigvals == [] and an.diagonalizable
    lam = np.r_[an.lambda_plus, an.lambda_minus]
    assert np.sum(lam == an.lambda0) == kernel
    # the touching pair, one column of each sign, lies in K0 or near the shift
    near = 2 - certified[0][0].shape[1]
    # one reduction, and with near columns their eigenvectors (one tridiagonal
    # solve per sign) and a second reduction without them
    eager, analysis = list(cols), [False] + [True] * near + [False] * bool(near)
    assert {name for name, _c in eager} == ({"zunmqr", "solve_triangular"} if near else set())
    assert all(c == near for _name, c in eager) and tridiagonal == analysis
    cols.clear()
    constraint = ConstraintSpec.signature(2, 2)
    rep = solve(A, B, np.diag([2.0, 1.0, 2.0, 1.0]), constraint, want_optimizer=True)
    assert rep.attained
    assert cols[: len(eager)] == eager
    assert {name for name, _c in cols[len(eager):]} == {"zunmqr", "solve_triangular"}
    assert all(c == 4 - 2 for _name, c in cols[len(eager):])
    assert tridiagonal == analysis * 2 + [True, True]
    assert not any(generalized) and eigvals == []
    J = np.diag([1.0, 1.0, -1.0, -1.0])
    assert np.max(np.abs(rep.x_opt.conj().T @ B @ rep.x_opt - J)) <= tol
    assert rep.value == pytest.approx(
        2 * rep.analysis.lambda_plus[0] + rep.analysis.lambda_plus[1]
        - 2 * rep.analysis.lambda_minus[0] - rep.analysis.lambda_minus[1], rel=1e-12)


@pytest.mark.parametrize("width", [0.0, 1e-9, 1e-8, 1e-6])
def test_narrow_bracket_optimizer_keeps_its_constraint(width):
    # the pair at a barely positive semi-definite shift has mu up to 1 / width,
    # which would cost its far eigenpairs about eps / width; with the pair's
    # eigenvectors near lambda0 deflated they keep full accuracy
    A, B, _lp, _lm = psd_pencil(np.random.default_rng(9402), 3, 3, n_touch=1)
    A = A + width * np.max(np.abs(A)) * np.eye(A.shape[0])
    rep = solve(A, B, np.diag([2.0, 1.0, 2.0, 1.0]), ConstraintSpec.signature(2, 2),
                want_optimizer=True)
    J = np.diag([1.0, 1.0, -1.0, -1.0])
    assert np.max(np.abs(rep.x_opt.conj().T @ B @ rep.x_opt - J)) <= 1e-11
