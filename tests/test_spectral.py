import numpy as np
import pytest

from tracemin import (
    ConstraintSpec,
    HermitianMatrix,
    NotPositiveDefinite,
    Unsupported,
    as_herm,
    cholesky,
    eig_herm,
    inertia,
    majorizes,
    solve,
    weighted_sum_bounds,
)
from tracemin.spectral import ZERO_RTOL
from helpers import random_hermitian, random_unitary


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


@pytest.mark.parametrize("seed", range(20))
def test_eig_herm_reconstructs(seed):
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, int(rng.integers(1, 9)))
    ed = eig_herm(H)
    assert np.all(np.diff(ed.values) <= 0)
    V = ed.vectors
    assert np.allclose(V.conj().T @ V, np.eye(H.shape[0]), atol=1e-12)
    assert np.allclose(V @ np.diag(ed.values) @ V.conj().T, H, atol=1e-10)


@pytest.mark.parametrize(
    "diag, expected",
    [
        ([3.0, 1.0, -2.0], (2, 0, 1)),
        ([0.0, 0.0], (0, 2, 0)),
        ([5.0, 1e-14, -5.0], (1, 1, 1)),
    ],
)
def test_inertia_diagonal(diag, expected):
    res = inertia(np.diag(diag))
    assert (res.n_plus, res.n_zero, res.n_minus) == expected
    assert res.rank == expected[0] + expected[2]


def test_inertia_congruence_invariant():
    # Sylvester: inertia survives congruence by any invertible S
    rng = np.random.default_rng(7)
    H = np.diag([2.0, 1.0, 0.0, -3.0])
    S = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    res = inertia(S @ H @ S.conj().T)
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


class TestMajorizes:
    def test_classic(self):
        assert majorizes([3, 1, 0], [2, 1, 1])
        assert not majorizes([2, 1, 1], [3, 1, 0])

    def test_requires_equal_totals(self):
        assert not majorizes([3, 1], [2, 1])

    def test_reflexive(self):
        assert majorizes([1.5, -0.5], [1.5, -0.5])

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
    inb = inertia(B)
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
    inb = inertia(B)
    constraint = (ConstraintSpec.plus_identity(1) if sign > 0
                  else ConstraintSpec.minus_identity(1))
    if inb.n_zero == 0:
        rep = solve(np.eye(3), B, np.eye(1), constraint)
        assert rep.route == "definite-min" + ("" if sign > 0 else "-negated-b")
        assert rep.inertia_b == inb
    else:
        with pytest.raises(Unsupported):
            solve(np.eye(3), B, np.eye(1), constraint)
