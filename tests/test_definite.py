import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from tracemin import (
    ConstraintSpec,
    NotPositiveDefinite,
    characterize_minimizer,
    pencil_eig_definite,
    solve,
    solve_definite_max,
    solve_definite_min,
    spectral,
    split_omegas,
)
from helpers import definite_instance, random_hermitian, random_unitary


def test_ky_fan_minimum():
    rep = solve_definite_min(np.diag([1.0, 2.0, 3.0]), np.eye(3), np.eye(2))
    assert rep.value == pytest.approx(3.0, abs=1e-12)
    assert rep.finite and rep.attained


def test_ky_fan_maximum():
    rep = solve_definite_max(np.diag([1.0, 2.0, 3.0]), np.eye(3), np.eye(2))
    assert rep.value == pytest.approx(5.0, abs=1e-12)


def test_negative_weight_takes_largest_eigenvalue():
    # D = diag(1, -1): best pairing is omega=1 with lambda_1, omega=-1 with lambda_n
    rep = solve_definite_min(
        np.diag([1.0, 2.0, 3.0]), np.eye(3), np.diag([1.0, -1.0])
    )
    assert rep.value == pytest.approx(1.0 - 3.0, abs=1e-12)


def test_rejects_indefinite_b():
    with pytest.raises(NotPositiveDefinite):
        solve_definite_min(np.eye(2), np.diag([1.0, -1.0]), np.eye(1))


@pytest.mark.parametrize("seed", range(15))
def test_pencil_eig_b_orthonormal(seed):
    A, B, _D, _k = definite_instance(seed)
    pe = pencil_eig_definite(A, B)
    n = A.shape[0]
    assert np.all(np.diff(pe.lambdas) >= -1e-12)
    assert np.allclose(pe.u.conj().T @ B @ pe.u, np.eye(n), atol=1e-9)
    assert np.allclose(
        pe.u.conj().T @ A @ pe.u, np.diag(pe.lambdas), atol=1e-8 * (1 + np.max(np.abs(A)))
    )


def test_split_omegas_counts_nonnegative():
    om = split_omegas(np.diag([2.0, 0.0, -1.0]))
    assert om.ell == 2
    assert np.all(np.diff(om.omegas) <= 0)


@pytest.mark.parametrize("seed", range(30))
def test_optimizer_feasible_and_matches_value(seed):
    A, B, D, k = definite_instance(seed)
    rep = solve_definite_min(A, B, D, k, want_optimizer=True)
    X = rep.x_opt
    assert np.max(np.abs(X.conj().T @ B @ X - np.eye(k))) <= 1e-8
    obj = float(np.real(np.trace(D @ X.conj().T @ A @ X)))
    assert obj == pytest.approx(rep.value, abs=1e-7 * (1 + abs(rep.value)))


@pytest.mark.parametrize("seed", range(30))
def test_min_max_duality(seed):
    A, B, D, k = definite_instance(seed)
    lo = solve_definite_min(A, B, D, k).value
    hi = solve_definite_max(-np.asarray(A, dtype=complex), B, D, k).value
    assert lo == pytest.approx(-hi, abs=1e-9 * (1 + abs(lo)))


@pytest.mark.parametrize("seed", range(30))
def test_value_lower_bounds_random_feasible_points(seed):
    A, B, D, k = definite_instance(seed)
    rep = solve_definite_min(A, B, D, k)
    rng = np.random.default_rng(seed + 500)
    L = np.linalg.cholesky(B)
    for _ in range(20):
        M = rng.standard_normal((A.shape[0], k)) + 1j * rng.standard_normal(
            (A.shape[0], k)
        )
        Q, _ = np.linalg.qr(M)
        X = np.linalg.solve(L.conj().T, Q)
        obj = float(np.real(np.trace(D @ X.conj().T @ A @ X)))
        assert obj >= rep.value - 1e-9 * (1 + abs(rep.value))


@pytest.mark.parametrize("seed", range(20))
def test_characterize_minimizer_diagonalizes(seed):
    # distinct-weight D: the compression must be diagonal with the extreme
    # pencil eigenvalues on the diagonal
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    k = int(rng.integers(1, min(3, n) + 1))
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = G @ G.conj().T + 0.5 * np.eye(n)
    A = random_hermitian(rng, n)
    w = np.sort(rng.uniform(0.3, 3.0, k))[::-1] * np.sign(rng.standard_normal(k))
    w = np.sort(w)[::-1]
    Q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    D = Q @ np.diag(w) @ Q.conj().T
    rep = solve_definite_min(A, B, D, k, want_optimizer=True)
    chk = characterize_minimizer(rep, A, B, D)
    assert chk.offdiag_max <= 1e-7 * np.max(np.abs(A))
    assert np.allclose(np.sort(chk.diagonal), np.sort(chk.expected_diagonal), atol=1e-7)


def test_shift_rule():
    # value(A + s*B) = value(A) + s * tr(D) under X^H B X = I_k
    rng = np.random.default_rng(3)
    A, B, D, k = definite_instance(3)
    s = 0.7
    v0 = solve_definite_min(A, B, D, k).value
    v1 = solve_definite_min(A + s * B, B, D, k).value
    assert v1 == pytest.approx(v0 + s * float(np.real(np.trace(D))), abs=1e-8)


# ---------------------------------------------------------------------------
# the reduced definite path: one Cholesky of B, the k extreme eigenpairs only
# ---------------------------------------------------------------------------


def _weights(rng, k, kind):
    """Descending weights: all nonnegative (ell = k), all negative (ell = 0),
    mixed signs, or mixed signs with exact zeros."""
    w = rng.uniform(0.2, 2.0, k)
    if kind == "negative":
        w = -w
    elif kind in ("mixed", "zeros"):
        w *= np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
        if kind == "zeros":
            w[::3] = 0.0
    return np.sort(w)[::-1]


def _reference_value(A, B_pd, w, sense):
    """Ky Fan value from the full generalized eigensolver: the nonnegative
    weights meet the smallest eigenvalues, the negative ones the largest."""
    lam = sla.eigh(A, B_pd, eigvals_only=True)
    if sense == "max":
        lam = np.sort(-lam)
    n, k = lam.size, w.size
    ell = int(np.sum(w >= 0))
    sel = np.r_[np.arange(ell), np.arange(n - k + ell, n)].astype(int)
    value = float(w @ lam[sel])
    scale = float(np.abs(w).sum() * max(np.abs(lam).max(), 1e-300))
    return (-value if sense == "max" else value), scale


def _check_against_reference(A, B, D, w, constraint, sense):
    negative_b = constraint.kind == "minus_identity"
    rep = solve(A, B, D, constraint, sense=sense, want_optimizer=True)
    ref, scale = _reference_value(A, -B if negative_b else B, w, sense)
    assert abs(rep.value - ref) <= 1e-10 * scale
    X = rep.x_opt
    k = w.size
    target = -np.eye(k) if negative_b else np.eye(k)
    assert np.max(np.abs(X.conj().T @ B @ X - target)) <= 1e-10
    obj = float(np.real(np.trace(D @ X.conj().T @ A @ X)))
    assert abs(obj - rep.value) <= 1e-9 * max(scale, 1.0)
    return rep


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["nonnegative", "negative", "mixed", "zeros"]),
    negative_b=st.booleans(),
    sense=st.sampled_from(["min", "max"]),
)
def test_reduced_path_matches_full_generalized_eigensolver(
    data, n, seed, kind, negative_b, sense
):
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = G @ G.conj().T / n + 0.5 * np.eye(n)
    A = random_hermitian(rng, n)
    w = _weights(rng, k, kind)
    Q = random_unitary(rng, k)
    D = (Q * w) @ Q.conj().T
    if negative_b:
        B, constraint = -B, ConstraintSpec.minus_identity(k)
    else:
        constraint = ConstraintSpec.plus_identity(k)
    rep = _check_against_reference(A, B, D, w, constraint, sense)
    assert rep.route == f"definite-{sense}" + ("-negated-b" if negative_b else "")


def _congruent_pair(rng, lam):
    """(A, B) = (T^H diag(lam) T, T^H T) for a random invertible T: the
    pencil eigenvalues are exactly lam."""
    n = lam.size
    T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 2 * np.eye(n)
    A = T.conj().T @ np.diag(lam) @ T
    B = T.conj().T @ T
    return 0.5 * (A + A.conj().T), 0.5 * (B + B.conj().T)


@pytest.mark.parametrize("sense", ["min", "max"])
def test_zero_a_keeps_vectors_b_orthonormal(sense):
    # every pencil eigenvalue is 0, one tie across both index ranges
    rng = np.random.default_rng(11)
    n, k = 120, 6
    _A, B = _congruent_pair(rng, np.ones(n))
    w = _weights(rng, k, "mixed")
    rep = _check_against_reference(np.zeros((n, n)), B, np.diag(w), w,
                                   ConstraintSpec.plus_identity(k), sense)
    assert rep.value == 0.0


@pytest.mark.parametrize("c", [-2.5, 0.0, 3.0])
def test_a_multiple_of_b(c):
    rng = np.random.default_rng(12)
    n, k = 30, 5
    _A, B = _congruent_pair(rng, np.ones(n))
    w = _weights(rng, k, "mixed")
    Q = random_unitary(rng, k)
    D = (Q * w) @ Q.conj().T
    rep = _check_against_reference(c * B, B, D, w, ConstraintSpec.plus_identity(k), "min")
    assert rep.value == pytest.approx(c * w.sum(), abs=1e-10 * (1 + abs(c)))


@pytest.mark.parametrize("sense", ["min", "max"])
def test_tie_spanning_both_index_ranges(sense):
    # lambda = 2 at indices 1..5: the low range [0, 2) and the high range
    # [n - 2, n) = [5, 7) each take one member of the same cluster
    rng = np.random.default_rng(13)
    lam = np.array([1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0])
    if sense == "max":
        lam = -lam
    A, B = _congruent_pair(rng, lam)
    w = np.array([1.5, 0.5, -0.7, -1.2])
    rep = _check_against_reference(A, B, np.diag(w), w,
                                   ConstraintSpec.plus_identity(4), sense)
    X = rep.x_opt
    assert np.linalg.matrix_rank(X) == 4


@pytest.mark.parametrize("kind", ["nonnegative", "negative", "mixed", "zeros"])
def test_k_equals_n(kind):
    rng = np.random.default_rng(14)
    n = 9
    A, B = _congruent_pair(rng, np.sort(rng.standard_normal(n)))
    w = _weights(rng, n, kind)
    Q = random_unitary(rng, n)
    _check_against_reference(A, B, (Q * w) @ Q.conj().T, w,
                             ConstraintSpec.plus_identity(n), "min")


@pytest.mark.parametrize("negative_b", [False, True])
@pytest.mark.parametrize("sense", ["min", "max"])
def test_definite_solve_validates_once_and_skips_full_eigensolvers(
    monkeypatch, negative_b, sense
):
    rng = np.random.default_rng(15)
    n, k = 20, 3
    A, B = _congruent_pair(rng, np.sort(rng.standard_normal(n)))
    D = random_hermitian(rng, k)
    constraint = ConstraintSpec.plus_identity(k)
    if negative_b:
        B, constraint = -B, ConstraintSpec.minus_identity(k)

    full = []

    def spy(fn):
        def wrapped(M, *args, **kwargs):
            if np.shape(M)[0] == n:
                full.append(fn.__name__)
            return fn(M, *args, **kwargs)
        return wrapped

    for mod, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"), (sla, "eigh"),
                      (sla, "eigvalsh")):
        monkeypatch.setattr(mod, name, spy(getattr(mod, name)))
    validated = []
    real_init = spectral.HermitianMatrix.__init__

    def counting_init(self, entries):
        validated.append(np.shape(entries))
        real_init(self, entries)

    monkeypatch.setattr(spectral.HermitianMatrix, "__init__", counting_init)
    rep = solve(A, B, D, constraint, sense=sense, want_optimizer=True)
    assert rep.route.startswith(f"definite-{sense}")
    assert full == []
    assert sorted(validated) == sorted([(n, n), (n, n), (k, k)])


@pytest.mark.parametrize("seed", range(6))
def test_value_scales_with_d(seed):
    # value(c*D) = c*value(D): the weight tolerance is relative to max|D|
    rng = np.random.default_rng(seed + 900)
    n = 12
    A, B = _congruent_pair(rng, np.sort(rng.standard_normal(n)))
    k = int(rng.integers(2, n + 1))
    w = _weights(rng, k, "mixed")
    Q = random_unitary(rng, k)
    D = (Q * w) @ Q.conj().T
    base = solve_definite_min(A, B, D).value
    for j in range(-12, 9):
        c = 10.0 ** j
        for fn, ref in ((solve_definite_min, base),
                        (solve_definite_max, solve_definite_max(A, B, D).value)):
            assert fn(A, B, c * D).value == pytest.approx(c * ref, rel=1e-9)
        assert split_omegas(c * D).ell == split_omegas(D).ell
