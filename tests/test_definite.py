import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from tracemin import (
    ConstraintSpec,
    characterize_minimizer,
    solve,
    spectral,
)
from tracemin.definite import _split_omegas
from tracemin.errors import MissingOptimizer
from helpers import (
    canonical_pencil_instance,
    definite_instance,
    random_hermitian,
    random_psd,
    random_unitary,
    spy_choleskys,
    traced_peak,
)


def test_ky_fan_minimum():
    rep = solve(np.diag([1.0, 2.0, 3.0]), np.eye(3), np.eye(2), ConstraintSpec.plus_identity(2))
    assert rep.value == pytest.approx(3.0, abs=1e-12)
    assert rep.finite and rep.attained


def test_ky_fan_maximum():
    rep = solve(np.diag([1.0, 2.0, 3.0]), np.eye(3), np.eye(2), ConstraintSpec.plus_identity(2),
                sense="max")
    assert rep.value == pytest.approx(5.0, abs=1e-12)


def test_negative_weight_takes_largest_eigenvalue():
    # D = diag(1, -1): best pairing is omega=1 with lambda_1, omega=-1 with lambda_n
    rep = solve(
        np.diag([1.0, 2.0, 3.0]), np.eye(3), np.diag([1.0, -1.0]), ConstraintSpec.plus_identity(2)
    )
    assert rep.value == pytest.approx(1.0 - 3.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_pencil_eig_b_orthonormal(seed):
    A, B, _D, _k = definite_instance(seed)
    # every pencil eigenpair: D = diag(n, ..., 1) pairs its descending
    # weights with the ascending eigenvalues, so X's columns are the ascending
    # eigenvectors
    n = A.shape[0]
    rep = solve(A, B, np.diag(np.arange(n, 0, -1.0)), ConstraintSpec.plus_identity(n),
                want_optimizer=True)
    lambdas, U = np.array([lam for _, lam, _ in rep.pairing]), rep.x_opt
    assert np.all(np.diff(lambdas) >= -1e-12)
    assert np.allclose(U.conj().T @ B @ U, np.eye(n), atol=1e-9)
    assert np.allclose(
        U.conj().T @ A @ U, np.diag(lambdas), atol=1e-8 * (1 + np.max(np.abs(A)))
    )


def test_split_omegas_counts_nonnegative():
    om = _split_omegas(np.diag([2.0, 0.0, -1.0]))
    assert om.ell == 2
    assert np.all(np.diff(om.omegas) <= 0)


@pytest.mark.parametrize("seed", range(30))
def test_optimizer_feasible_and_matches_value(seed):
    A, B, D, k = definite_instance(seed)
    rep = solve(A, B, D, ConstraintSpec.plus_identity(k), want_optimizer=True)
    X = rep.x_opt
    assert np.max(np.abs(X.conj().T @ B @ X - np.eye(k))) <= 1e-8
    obj = float(np.real(np.trace(D @ X.conj().T @ A @ X)))
    assert obj == pytest.approx(rep.value, abs=1e-7 * (1 + abs(rep.value)))


@pytest.mark.parametrize("seed", range(30))
def test_min_max_duality(seed):
    A, B, D, k = definite_instance(seed)
    lo = solve(A, B, D, ConstraintSpec.plus_identity(k)).value
    hi = solve(-np.asarray(A, dtype=complex), B, D, ConstraintSpec.plus_identity(k),
               sense="max").value
    assert lo == pytest.approx(-hi, abs=1e-9 * (1 + abs(lo)))


@pytest.mark.parametrize("seed", range(30))
def test_value_lower_bounds_random_feasible_points(seed):
    A, B, D, k = definite_instance(seed)
    rep = solve(A, B, D, ConstraintSpec.plus_identity(k))
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
    rep = solve(A, B, D, ConstraintSpec.plus_identity(k), want_optimizer=True)
    chk = characterize_minimizer(rep, A, B, D)
    assert chk.offdiag_max <= 1e-7 * np.max(np.abs(A))
    assert np.allclose(np.sort(chk.diagonal), np.sort(chk.expected_diagonal), atol=1e-7)


@pytest.mark.parametrize("seed", range(10))
def test_characterize_minimizer_reads_the_pairing(monkeypatch, seed):
    # the expected diagonal is the report's paired eigenvalues, for a max
    # report too, and no Cholesky or reduction of the pencil is run again
    A, B, D, k = definite_instance(seed)
    rep = solve(A, B, D, ConstraintSpec.plus_identity(k), sense="max",
                want_optimizer=True)
    chk = characterize_minimizer(rep, A, B, D)
    assert np.allclose(chk.diagonal, chk.expected_diagonal, atol=1e-7)
    rep = solve(A, B, D, ConstraintSpec.plus_identity(k), want_optimizer=True)
    potrf, hegst = spy_choleskys(monkeypatch), []
    real = spectral.lapack.zhegst
    monkeypatch.setattr(spectral.lapack, "zhegst",
                        lambda *args, **kwargs: hegst.append(1) or real(*args, **kwargs))
    chk = characterize_minimizer(rep, A, B, D)
    assert np.allclose(chk.diagonal, chk.expected_diagonal, atol=1e-7)
    assert potrf == [] and hegst == []


def test_characterize_minimizer_needs_an_optimizer():
    A, B, D = np.diag([1.0, 2.0, 3.0]), np.eye(3), np.eye(2)
    rep = solve(A, B, D, ConstraintSpec.plus_identity(2))
    with pytest.raises(MissingOptimizer, match="report carries no optimizer"):
        characterize_minimizer(rep, A, B, D)


def test_shift_rule():
    # value(A + s*B) = value(A) + s * tr(D) under X^H B X = I_k
    rng = np.random.default_rng(3)
    A, B, D, k = definite_instance(3)
    s = 0.7
    v0 = solve(A, B, D, ConstraintSpec.plus_identity(k)).value
    v1 = solve(A + s * B, B, D, ConstraintSpec.plus_identity(k)).value
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


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64])
@pytest.mark.parametrize("kind", ["complex", "real", "diagonal"])
def test_max_is_the_min_on_minus_a_bit_for_bit(n, kind):
    # a max reduces A itself and negates the tridiagonal, which is exactly
    # the tridiagonal of -A: every output bit is the min's on -A
    for seed in range(8):
        rng = np.random.default_rng([seed, n])
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = G @ G.conj().T + n * np.eye(n)
        A = {"complex": G + G.conj().T, "real": (G + G.T).real,
             "diagonal": np.diag(rng.standard_normal(n))}[kind]
        k = int(rng.integers(1, n + 1))
        D = random_hermitian(rng, k)
        constraint = ConstraintSpec.plus_identity(k)
        hi = solve(A, B, D, constraint, "max", want_optimizer=True)
        lo = solve(-A, B, D, constraint, "min", want_optimizer=True)
        assert hi.value == -lo.value
        assert [(w, -lam, role) for w, lam, role in lo.pairing] == hi.pairing
        assert hi.x_opt.tobytes() == lo.x_opt.tobytes()


@pytest.mark.parametrize("negative_b", [False, True])
@pytest.mark.parametrize("sense", ["min", "max"])
def test_definite_solve_working_set(negative_b, sense):
    # beside its inputs a solve holds the validated A and B, the factor L,
    # the reduced C and one range's n x n MRRR buffer
    n, k = 256, 8
    rng = np.random.default_rng(16)
    A, B = _congruent_pair(rng, np.sort(rng.standard_normal(n)))
    D = random_hermitian(rng, k)
    constraint = ConstraintSpec.plus_identity(k)
    if negative_b:
        B, constraint = -B, ConstraintSpec.minus_identity(k)
    rep, peak = traced_peak(solve, A, B, D, constraint, sense, True)
    assert rep.route.startswith(f"definite-{sense}")
    assert peak <= 4.75 * 16 * n**2


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
    constraint = ConstraintSpec.plus_identity(k)
    base = solve(A, B, D, constraint).value
    for j in range(-12, 9):
        c = 10.0 ** j
        for sense, ref in (("min", base), ("max", solve(A, B, D, constraint, "max").value)):
            assert solve(A, B, c * D, constraint, sense).value == pytest.approx(c * ref, rel=1e-9)
        assert _split_omegas(c * D).ell == _split_omegas(D).ell


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("sense", ["min", "max"])
def test_definite_value_scales_and_is_invariant(seed, sign, sense):
    # on the definite route, for B and -B: value(c*A) = c*value and
    # value(A, c*B) = value/c for c in 10^[-8, 8]; the value is unchanged
    # under D -> Q D Q^H for a unitary Q and under the congruence
    # (A, B) -> (T^H A T, T^H B T) with T's singular values in [1, 2]
    rng = np.random.default_rng(seed + 9600)
    n = int(rng.integers(3, 9))
    A, B = _congruent_pair(rng, np.sort(rng.standard_normal(n)))
    B = sign * B
    k = int(rng.integers(2, n + 1))
    D = np.diag(_weights(rng, k, "mixed"))
    constraint = ConstraintSpec("plus_identity" if sign > 0 else "minus_identity", k)
    base = solve(A, B, D, constraint, sense=sense)
    assert base.route.startswith(f"definite-{sense}")
    for j in range(-8, 9):
        c = 10.0 ** j
        for rep, expected in ((solve(c * A, B, D, constraint, sense=sense), c * base.value),
                              (solve(A, c * B, D, constraint, sense=sense), base.value / c)):
            assert rep.value == pytest.approx(expected, rel=1e-9), c
    Q = random_unitary(rng, k)
    rotated = solve(A, B, Q @ D @ Q.conj().T, constraint, sense=sense)
    assert rotated.value == pytest.approx(base.value, rel=1e-9)
    T = (random_unitary(rng, n) * rng.uniform(1.0, 2.0, n)) @ random_unitary(rng, n)
    At, Bt = T.conj().T @ A @ T, T.conj().T @ B @ T
    At, Bt = 0.5 * (At + At.conj().T), 0.5 * (Bt + Bt.conj().T)
    congruent = solve(At, Bt, D, constraint, sense=sense)
    assert congruent.value == pytest.approx(base.value, rel=1e-9)


def _comparisons_before_one_rule(w, M):
    """(count of nonnegative weights, indices of nonzero ones) of eigenvalues
    w of M by the comparisons D's split and the minimizer check made before
    they shared B's zero rule: w >= -tol and |w| > tol, tol = 1e-10 * max|M|."""
    tol = 1e-10 * np.max(np.abs(M))
    return int(np.sum(w >= -tol)), np.flatnonzero(np.abs(w) > tol)


@pytest.mark.parametrize("rel", [1.0, 1.0 - 1e-3, 1.0 + 1e-3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("top", [1.0, 3.0e-7, 5.0e8])
def test_one_zero_rule_for_b_and_d_at_its_boundary(rel, sign, top):
    # an eigenvalue at exactly +-tol, or at +-tol*(1 +- 1e-3), tol =
    # ZERO_RTOL * max|M|: B's inertia, D's split and the minimizer's kept
    # columns all count it as the old comparisons did
    assert spectral.ZERO_RTOL == 1e-10
    M = np.diag([top, sign * rel * spectral.ZERO_RTOL * top])
    w = np.linalg.eigvalsh(M)[::-1]
    assert np.array_equal(w, np.diag(M))
    inb = spectral.HermitianMatrix(M).inertia()
    om = _split_omegas(M)
    rep = solve(np.diag([1.0, 2.0, 3.0, 4.0]), np.eye(4), M, ConstraintSpec.plus_identity(2),
                want_optimizer=True)
    kept = characterize_minimizer(rep, np.diag([1.0, 2.0, 3.0, 4.0]), np.eye(4), M)
    zero = rel <= 1.0
    assert (inb.n_plus, inb.n_zero, inb.n_minus) == (
        (1, 1, 0) if zero else (2, 0, 0) if sign > 0 else (1, 0, 1))
    assert om.ell == inb.n_plus + inb.n_zero
    assert kept.expected_diagonal.size == inb.rank
    ell, keep = _comparisons_before_one_rule(w, M)
    assert om.ell == ell
    assert np.array_equal(kept.expected_diagonal, [rep.pairing[i][1] for i in keep])


def test_zero_rule_keeps_the_split_of_criteria_2_and_3():
    # on the canonical instances of acceptance criteria 2 (definite B, mixed
    # weights) and 3 (indefinite B, D > 0), D's split and the minimizer's kept
    # columns are those of the old comparisons
    cases = []
    for seed in range(50):
        A, B, D, k = definite_instance(seed)
        cases.append((A, B, D, k))
    for seed in range(25):
        rng = np.random.default_rng(seed + 10_000)
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, min(3, n) + 1))
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = G @ G.conj().T + 0.5 * np.eye(n)
        A = random_hermitian(rng, n)
        w = np.sort(rng.uniform(0.3, 3.0, k) * np.sign(rng.standard_normal(k)))[::-1]
        Q = random_unitary(rng, k)
        cases.append((A, B, Q @ np.diag(w) @ Q.conj().T, k))
    for seed in range(100):
        A, B, n_plus, *_rest = canonical_pencil_instance(seed)
        rng = np.random.default_rng(seed + 20_000)
        k = int(rng.integers(1, n_plus + 1))
        cases.append((A, B, random_psd(rng, k), k))
    checked = 0
    for i, (A, B, D, k) in enumerate(cases):
        om = _split_omegas(spectral.as_herm(D))
        ell, keep = _comparisons_before_one_rule(om.omegas, spectral.as_herm(D))
        assert om.ell == ell, i
        rep = solve(A, B, D, ConstraintSpec.plus_identity(k), want_optimizer=True)
        if rep.attained:
            kept = characterize_minimizer(rep, A, B, D)
            assert np.array_equal(kept.expected_diagonal, [rep.pairing[j][1] for j in keep]), i
            checked += 1
    assert checked >= 150
