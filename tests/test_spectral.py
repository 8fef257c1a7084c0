import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack

from tracemin import (
    ConstraintSpec,
    HermitianMatrix,
    NotPositiveDefinite,
    Problem,
    Unsupported,
    as_herm,
    cholesky,
    majorizes,
    solve,
    weighted_sum_bounds,
)
from tracemin.spectral import ZERO_RTOL, _pair_eigenpairs, _reduce_pair
from helpers import random_hermitian, random_unitary, traced_peak

# the working-set tests run at this order; one n x n complex matrix is
# 16 * WS_N**2 bytes
WS_N = 256


class TestHermitianMatrix:
    def test_symmetrizes_storage(self):
        H = HermitianMatrix([[1.0, 1.0 + 1e-14j], [1.0 - 1e-14j, 2.0]])
        assert np.allclose(H.mat, H.mat.conj().T)
        assert H.n == 2

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianMatrix([[1.0, 2.0], [3.0, 1.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            HermitianMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_tolerance_scales_with_magnitude(self):
        # 1e-9 asymmetry on a unit-scale matrix is too much...
        with pytest.raises(ValueError):
            HermitianMatrix([[1.0, 1e-9j], [0.0, 1.0]])
        # ... but fine at scale 1e5
        HermitianMatrix([[1e5, 1e-9j], [0.0, 1e5]])

    @pytest.mark.parametrize("M", [
        [[1.5e308, 0.0], [0.0, 1.0]],
        [[0.0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.0]],
    ], ids=["diagonal", "off_diagonal"])
    def test_rejects_an_overflowing_symmetrization(self, M):
        # M + M^H leaves the float range although every entry is finite
        with pytest.raises(ValueError, match="overflow"):
            HermitianMatrix(M)
        with pytest.raises(ValueError, match="overflow"):
            Problem.of(M, np.eye(2), [[1.0]], ConstraintSpec.plus_identity(1))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [0, 1, 2, 9, 40, 1100])
    @pytest.mark.parametrize("scale", [1.0, 8e307])
    def test_stores_the_exact_symmetrization(self, seed, n, scale):
        # (M + M^H) * 0.5 entry by entry, in blocks of rows or not, up to
        # entries near the float limit
        rng = np.random.default_rng(seed)
        G = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        M = scale * ((G + G.conj().T) / 2 + 1e-14 * rng.uniform(-1, 1, (n, n)))
        expected = (M + M.conj().T) * 0.5
        for entries in (M, np.asfortranarray(M)):
            assert HermitianMatrix(entries).mat.tobytes() == expected.tobytes()

    def test_working_set(self):
        # the stored matrix and one block of rows beside it
        rng = np.random.default_rng(0)
        M = random_hermitian(rng, WS_N)
        _H, peak = traced_peak(HermitianMatrix, M)
        assert peak <= 1.25 * 16 * WS_N**2


@pytest.mark.parametrize("seed", range(20))
def test_eig_herm_reconstructs(seed):
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, int(rng.integers(1, 9)))
    w, V = HermitianMatrix(H).eigh()
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(V.conj().T @ V, np.eye(H.shape[0]), atol=1e-12)
    assert np.allclose(V @ np.diag(w) @ V.conj().T, H, atol=1e-10)


@pytest.mark.parametrize(
    "diag, expected",
    [
        ([3.0, 1.0, -2.0], (2, 0, 1)),
        ([0.0, 0.0], (0, 2, 0)),
        ([5.0, 1e-14, -5.0], (1, 1, 1)),
    ],
)
def test_inertia_diagonal(diag, expected):
    res = HermitianMatrix(np.diag(diag)).inertia()
    assert (res.n_plus, res.n_zero, res.n_minus) == expected
    assert res.rank == expected[0] + expected[2]


def test_inertia_congruence_invariant():
    # Sylvester: inertia survives congruence by any invertible S
    rng = np.random.default_rng(7)
    H = np.diag([2.0, 1.0, 0.0, -3.0])
    S = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    res = HermitianMatrix(S @ H @ S.conj().T).inertia()
    assert (res.n_plus, res.n_zero, res.n_minus) == (2, 1, 1)


@pytest.mark.parametrize("seed", range(10))
def test_cholesky_roundtrip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = G @ G.conj().T + 0.5 * np.eye(n)
    L = cholesky(B)
    assert np.allclose(L @ L.conj().T, B, atol=1e-10 * np.max(np.abs(B)))
    assert np.all(np.real(np.diag(L)) > 0)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.diag([1.0, 0.0]))


def test_cholesky_working_set():
    # B - tau*I is certified and B factored in one buffer, L's own
    rng = np.random.default_rng(1)
    G = rng.standard_normal((WS_N, WS_N)) + 1j * rng.standard_normal((WS_N, WS_N))
    B = HermitianMatrix(G @ G.conj().T + np.eye(WS_N))
    L, peak = traced_peak(cholesky, B)
    assert peak <= 1.25 * 16 * WS_N**2
    assert np.allclose(L @ L.conj().T, B.mat, atol=1e-10 * np.max(np.abs(B.mat)))


def test_negated_cholesky_working_set():
    # -B's certificate fills its one buffer from B: the negation forms no
    # n x n copy, and the factor is bitwise that of a formed -B
    rng = np.random.default_rng(1)
    G = rng.standard_normal((WS_N, WS_N)) + 1j * rng.standard_normal((WS_N, WS_N))
    B = HermitianMatrix(-(G @ G.conj().T + np.eye(WS_N)))
    L, peak = traced_peak(lambda H: cholesky(-H), B)
    assert peak <= 1.25 * 16 * WS_N**2
    assert np.array_equal(L, cholesky(HermitianMatrix(-B.mat)))


def _reduction(rng, n):
    A = random_hermitian(rng, n)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _reduce_pair(A, cholesky(G @ G.conj().T + np.eye(n)))


def _pair_eigenpairs_copying_reflectors(reduction, n_low, n_high):
    """`_pair_eigenpairs` with the reflectors copied out of C into their own
    (n-1) x (n-1) column-major array: the reference for the in-place view."""
    d, e, L, C, tau = reduction
    n = d.size
    ranges = [r for r in ((0, n_low - 1), (n - n_high, n - 1)) if r[0] <= r[1]]
    parts = [sla.eigh_tridiagonal(d, e, select="i", select_range=r, lapack_driver="stemr")
             for r in ranges]
    lam = np.concatenate([np.empty(0)] + [w for w, _ in parts])
    Y = np.hstack([np.empty((n, 0))] + [V for _, V in parts]).astype(complex)
    if n > 1:
        refl = np.asfortranarray(C[1:, : n - 1])
        lwork = int(lapack.zunmqr("L", "N", refl, tau, Y[1:], -1)[1][0].real)
        Y[1:] = lapack.zunmqr("L", "N", refl, tau, Y[1:], lwork)[0]
    return lam, sla.solve_triangular(L, Y, lower=True, trans="C", check_finite=False)


@pytest.mark.parametrize("n", [1, 2, 3, 64])
def test_pair_eigenpairs_reads_the_reflectors_in_place(n):
    rng = np.random.default_rng(n)
    reduction = _reduction(rng, n)
    C = reduction[3].copy()
    for n_low, n_high in ((1, 0), (0, 1), (n // 2, (n + 1) // 2), (n - 1, 1), (0, 0)):
        if n_low + n_high > n:
            continue
        lam, X = _pair_eigenpairs(reduction, n_low, n_high)
        ref_lam, ref_X = _pair_eigenpairs_copying_reflectors(reduction, n_low, n_high)
        assert lam.tobytes() == ref_lam.tobytes()
        assert X.tobytes() == ref_X.tobytes()
        # zunmqr restores the entries of C it sets while it works
        assert reduction[3].tobytes() == C.tobytes()


def test_pair_eigenpairs_working_set():
    # one range's n x n MRRR buffer at a time, and no (n-1) x (n-1)
    # reflector copy
    reduction = _reduction(np.random.default_rng(2), WS_N)
    _out, peak = traced_peak(_pair_eigenpairs, reduction, 4, 4)
    assert peak <= 0.75 * 16 * WS_N**2


def test_cholesky_rejects_empty():
    with pytest.raises(NotPositiveDefinite, match="empty matrix is not positive definite"):
        cholesky(np.zeros((0, 0)))


class TestMajorizes:
    def test_classic(self):
        assert majorizes([3, 1, 0], [2, 1, 1])
        assert not majorizes([2, 1, 1], [3, 1, 0])

    def test_requires_equal_totals(self):
        assert not majorizes([3, 1], [2, 1])

    def test_reflexive(self):
        assert majorizes([1.5, -0.5], [1.5, -0.5])

    @pytest.mark.parametrize("c", 10.0 ** np.arange(-12, 13))
    def test_scale_free(self, c):
        # the tie tolerance is relative to sum|beta|: an absolute part would
        # call every pair of tiny vectors tied
        assert majorizes(np.array([3, 1, 0]) * c, np.array([2, 1, 1]) * c)
        assert not majorizes(np.array([2, 1, 1]) * c, np.array([3, 1, 0]) * c)
        assert not majorizes(np.array([3, 1]) * c, np.array([2, 1]) * c)
        assert majorizes(np.array([1.5, -0.5]) * c, np.array([1.5, -0.5]) * c)

    @pytest.mark.parametrize("beta, alpha", [([1.0, 2.0], [3.0]), ([], []),
                                             ([[1.0]], [[1.0]])])
    def test_rejects_mismatched_shapes(self, beta, alpha):
        with pytest.raises(ValueError, match="equal-length nonempty 1-D"):
            majorizes(beta, alpha)

    @pytest.mark.parametrize("seed", range(10))
    def test_diagonal_majorized_by_spectrum(self, seed):
        # Schur-Horn: eigenvalues majorize the diagonal in any unitary basis
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        H = random_hermitian(rng, n)
        U = random_unitary(rng, n)
        M = U @ H @ U.conj().T
        assert majorizes(np.linalg.eigvalsh(H), np.real(np.diag(M)))


class TestWeightedSumBounds:
    def test_orders_pairings(self):
        lo, hi = weighted_sum_bounds([3.0, 1.0], [10.0, 20.0])
        assert lo == 3 * 10 + 1 * 20
        assert hi == 3 * 20 + 1 * 10

    def test_rejects_unsorted_gamma(self):
        with pytest.raises(ValueError):
            weighted_sum_bounds([1.0, 2.0], [0.0, 0.0])

    @pytest.mark.parametrize("gamma, beta", [([2.0, 1.0], [1.0]),
                                             ([[2.0, 1.0]], [[1.0, 0.0]])])
    def test_rejects_mismatched_shapes(self, gamma, beta):
        with pytest.raises(ValueError, match="equal-length 1-D"):
            weighted_sum_bounds(gamma, beta)

    @pytest.mark.parametrize("seed", range(10))
    def test_brackets_every_permutation(self, seed):
        rng = np.random.default_rng(seed)
        g = np.sort(rng.standard_normal(5))[::-1]
        b = rng.standard_normal(5)
        lo, hi = weighted_sum_bounds(g, b)
        for _ in range(50):
            v = float(g @ rng.permutation(b))
            assert lo - 1e-12 <= v <= hi + 1e-12


def test_as_herm_passthrough():
    H = HermitianMatrix(np.eye(2))
    assert as_herm(H) is H.mat


@pytest.mark.parametrize("rel", [1.0 - 1e-3, 1.0 + 1e-3])
@pytest.mark.parametrize("top", [1.0, 1e-9, 1e7])
def test_cholesky_certificate_matches_inertia_at_tolerance(rel, top):
    # lambda_min = tau * (1 +- 1e-3), tau = ZERO_RTOL * max|B|: the Cholesky
    # certificate and the inertia count draw the line at the same place
    tau = ZERO_RTOL * top
    B = np.diag([top, 0.5 * top, rel * tau])
    inb = HermitianMatrix(B).inertia()
    try:
        cholesky(B)
        certified = True
    except NotPositiveDefinite:
        certified = False
    assert certified == (inb.n_plus == 3)
    assert certified == (rel > 1.0)


@pytest.mark.parametrize("rel", [1.0 - 1e-3, 1.0 + 1e-3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_solve_routes_as_inertia_at_tolerance(rel, sign):
    B = sign * np.diag([2.0, 1.0, rel * ZERO_RTOL * 2.0])
    inb = HermitianMatrix(B).inertia()
    constraint = (ConstraintSpec.plus_identity(1) if sign > 0
                  else ConstraintSpec.minus_identity(1))
    if inb.n_zero == 0:
        rep = solve(np.eye(3), B, np.eye(1), constraint)
        assert rep.route == "definite-min" + ("" if sign > 0 else "-negated-b")
        assert rep.inertia_b == inb
    else:
        with pytest.raises(Unsupported):
            solve(np.eye(3), B, np.eye(1), constraint)


def test_kept_eigendecomposition_is_read_only():
    # every caller handed a HermitianMatrix shares one eigendecomposition, so
    # writing to it would corrupt the others' view
    H = HermitianMatrix(np.diag([1.0, -2.0, 0.0]))
    w, V = H.eigh()
    for kept in (w, V):
        with pytest.raises(ValueError):
            kept[0] = 7.0
    assert H.eigh()[0][0] == -2.0
