import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracemin import (
    NotPsdPencil,
    diagonalizability,
    eigenvectors_of,
    find_lambda0,
    finite_eigenvalues,
)
from tracemin.pencil import RANK_RTOL
from helpers import canonical_pencil_instance, psd_pencil, random_unitary
from qz_pencil import qz_analysis

LAMBDA0_F2_A = np.array([[0.0, 0.0], [0.0, 1.0]])
LAMBDA0_F2_B = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestFindLambda0:
    def test_definite_b_any_shift_below_min(self):
        lam0 = find_lambda0(np.diag([1.0, 2.0]), np.eye(2))
        assert lam0 is not None
        assert np.linalg.eigvalsh(np.diag([1.0, 2.0]) - lam0 * np.eye(2))[0] >= -1e-9

    def test_indefinite_example(self):
        A = np.diag([1.0, 2.0, 5.0])
        B = np.diag([1.0, 1.0, -1.0])
        lam0 = find_lambda0(A, B)
        assert lam0 is not None
        assert -5.0 - 1e-8 <= lam0 <= 1.0 + 1e-8

    def test_non_psd_pencil_returns_none(self):
        assert find_lambda0(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])) is None

    def test_zero_b(self):
        assert find_lambda0(np.eye(2), np.zeros((2, 2))) == 0.0
        assert find_lambda0(-np.eye(2), np.zeros((2, 2))) is None

    def test_coupled_block_single_certificate_point(self):
        lam0 = find_lambda0(LAMBDA0_F2_A, LAMBDA0_F2_B)
        assert lam0 == pytest.approx(0.0, abs=1e-6)


class TestFiniteEigenvalues:
    def test_diagonal_example(self):
        an = finite_eigenvalues(np.diag([1.0, 2.0, 5.0]), np.diag([1.0, 1.0, -1.0]))
        assert np.allclose(an.lambda_plus, [1.0, 2.0], atol=1e-9)
        assert np.allclose(an.lambda_minus, [-5.0], atol=1e-9)
        assert an.diagonalizable and an.m0 == 0

    def test_coupled_block(self):
        an = finite_eigenvalues(LAMBDA0_F2_A, LAMBDA0_F2_B)
        assert not an.diagonalizable
        assert an.m0 == 1
        assert np.allclose(an.lambda_plus, [0.0], atol=1e-8)
        assert np.allclose(an.lambda_minus, [0.0], atol=1e-8)

    def test_raises_on_non_psd(self):
        with pytest.raises(NotPsdPencil):
            finite_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0]))

    def test_singular_b_common_nullspace(self):
        # shared null direction is deflated, not reported as an eigenvalue
        A = np.diag([1.0, 2.0, 0.0])
        B = np.diag([1.0, -1.0, 0.0])
        an = finite_eigenvalues(A, B)
        assert an.rank == 2
        assert len(an.lambda_plus) + len(an.lambda_minus) == 2


@pytest.mark.parametrize("seed", range(60))
def test_canonical_roundtrip(seed):
    A, B, n_plus, n_minus, lp, lm, coupled = canonical_pencil_instance(seed)
    an = finite_eigenvalues(A, B)
    assert an.inertia_b.n_plus == n_plus
    assert an.inertia_b.n_minus == n_minus
    assert len(an.lambda_plus) == n_plus
    assert len(an.lambda_minus) == n_minus
    assert np.max(np.abs(an.lambda_plus - lp)) <= 1e-6
    assert np.max(np.abs(an.lambda_minus - lm)) <= 1e-6
    assert an.diagonalizable == (not coupled)
    assert an.m0 == (1 if coupled else 0)
    # ordering around the certificate shift
    assert an.lambda_minus[0] <= an.lambda0 + 1e-8
    assert an.lambda0 <= an.lambda_plus[0] + 1e-8


@pytest.mark.parametrize("seed", [0, 3, 11, 24])
def test_eigenvectors_satisfy_pencil_equation(seed):
    A, B, _np, _nm, lp, lm, _c = canonical_pencil_instance(seed)
    an = finite_eigenvalues(A, B)
    for mu in np.concatenate([an.lambda_plus, an.lambda_minus]):
        V = eigenvectors_of(A, B, float(mu))
        assert V.shape[1] >= 1
        res = A @ V - mu * (B @ V)
        assert np.max(np.abs(res)) <= 1e-6 * (1 + np.max(np.abs(A)))


@pytest.mark.parametrize("seed", [1, 9, 19, 30])
def test_diagonalizability_recheck_consistent(seed):
    A, B, *_rest = canonical_pencil_instance(seed)
    an = finite_eigenvalues(A, B)
    ok, m0 = diagonalizability(A, B, an)
    assert ok == an.diagonalizable
    assert m0 == an.m0


@pytest.mark.parametrize("seed", [2, 5, 13])
def test_eigvec_blocks_are_b_orthonormal(seed):
    A, B, n_plus, n_minus, *_rest, coupled = canonical_pencil_instance(seed)
    an = finite_eigenvalues(A, B)
    if not an.diagonalizable:
        return
    U = np.hstack([an.eigvecs_plus, an.eigvecs_minus])
    J = np.diag(np.concatenate([np.ones(n_plus), -np.ones(n_minus)]))
    gram = U.conj().T @ B @ U
    assert np.max(np.abs(gram - J)) <= 1e-6


def test_close_distinct_eigenvalues_stay_distinct():
    an = finite_eigenvalues(np.diag([1.0, 1.0 + 1e-8, 5.0]), np.diag([1.0, 1.0, -1.0]))
    assert np.max(np.abs(an.lambda_plus - [1.0, 1.0 + 1e-8])) <= 1e-12


def test_degenerate_bracket_diagonalizable():
    # lambda0 = 0 is an eigenvalue of both signs, so the kernel of A - lambda0*B
    # carries eigenvectors that the definite pair on its complement cannot see
    A = np.diag([0.0, 0.0, 2.0])
    B = np.diag([1.0, -1.0, 1.0])
    an = finite_eigenvalues(A, B)
    assert an.lambda0 == 0.0
    assert an.diagonalizable and an.m0 == 0
    U = np.hstack([an.eigvecs_plus, an.eigvecs_minus])
    J = np.diag([1.0, 1.0, -1.0])
    assert np.max(np.abs(U.conj().T @ B @ U - J)) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_plus=st.integers(0, 8),
    n_minus=st.integers(0, 8),
    n_inf=st.integers(0, 3),
    n_common=st.integers(0, 3),
    n_coupled=st.integers(0, 2),
    n_touch=st.integers(0, 1),
    not_psd=st.booleans(),
)
def test_matches_qz_reference(seed, n_plus, n_minus, n_inf, n_common, n_coupled,
                              n_touch, not_psd):
    # the analysis on one eigh(B) against the QZ analysis it replaced, over
    # mixed inertia, singular B with and without a common nullspace, coupled
    # Jordan blocks and degenerate brackets
    n = n_plus + n_minus + n_inf + n_common + 2 * (n_coupled + n_touch)
    assume(2 <= n <= 24)
    not_psd = not_psd and n_inf > 0
    rng = np.random.default_rng(seed)
    A, B, lp, lm = psd_pencil(rng, n_plus, n_minus, n_inf, n_common, n_coupled,
                              n_touch, a_inf_sign=-1.0 if not_psd else 1.0)
    if not_psd:
        # A is negative on part of N(B): no shift certifies the pencil
        with pytest.raises(NotPsdPencil):
            qz_analysis(A, B)
        with pytest.raises(NotPsdPencil):
            finite_eigenvalues(A, B)
        return
    ref_plus, ref_minus, _lam0, ref_m0, ref_inb = qz_analysis(A, B)
    an = finite_eigenvalues(A, B)
    assert an.inertia_b == ref_inb
    assert an.m0 == ref_m0 == n_coupled
    assert an.diagonalizable == (ref_m0 == 0)
    assert an.lambda_plus.shape == ref_plus.shape == lp.shape
    assert an.lambda_minus.shape == ref_minus.shape == lm.shape
    scale = max(1.0, np.max(np.abs(np.r_[ref_plus, ref_minus]), initial=0.0))
    assert np.max(np.abs(an.lambda_plus - ref_plus), initial=0.0) <= 1e-8 * scale
    assert np.max(np.abs(an.lambda_minus - ref_minus), initial=0.0) <= 1e-8 * scale
    assert np.max(np.abs(an.lambda_plus - lp), initial=0.0) <= 1e-6
    assert np.max(np.abs(an.lambda_minus - lm), initial=0.0) <= 1e-6


@pytest.mark.parametrize("factor", [0.9, 1.1])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_null_block_cholesky_agrees_with_rank_decision(factor, sign):
    # A acts on the null direction of B with size sigma near the rank
    # threshold RANK_RTOL * ||A||_F. Below it the direction is common null and
    # deflated whatever its sign; above it A must be positive there, and a
    # positive sigma, however small, is an infinite eigenvalue, not a kernel
    # direction of the certificate.
    base = np.diag([2.0, 3.0, 0.0])
    sigma = factor * RANK_RTOL * np.linalg.norm(base)
    W = random_unitary(np.random.default_rng(5), 3)
    A = W.conj().T @ np.diag([2.0, 3.0, sign * sigma]) @ W
    B = W.conj().T @ np.diag([1.0, -1.0, 0.0]) @ W
    A, B = 0.5 * (A + A.conj().T), 0.5 * (B + B.conj().T)
    if factor > 1 and sign < 0:
        with pytest.raises(NotPsdPencil):
            finite_eigenvalues(A, B)
        return
    an = finite_eigenvalues(A, B)
    assert an.inertia_b.n_zero == 1 and an.rank == 2
    assert an.diagonalizable and an.m0 == 0
    assert np.max(np.abs(an.lambda_plus - [2.0])) <= 1e-12
    assert np.max(np.abs(an.lambda_minus - [-3.0])) <= 1e-12
    assert diagonalizability(A, B, an) == (True, 0)
    U = np.hstack([an.eigvecs_plus, an.eigvecs_minus])
    assert np.max(np.abs(U.conj().T @ B @ U - np.diag([1.0, -1.0]))) <= 1e-10
    assert np.max(np.abs(A @ U - B @ U @ np.diag([2.0, -3.0]))) <= 1e-8


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("width", [0.0, 1e-13, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4, 3e-4,
                                   1e-3, 3e-3, 1e-2, 1e-1])
def test_narrow_bracket_matches_qz_reference(seed, width):
    # touching pairs at lambda0 make the bracket degenerate; A + width*|A|*I
    # opens it by O(width), so its width falls below, near and above the
    # certificate's floor (PSD_RTOL relative) and the strict shift's margin
    # (SHIFT_RTOL relative), where the search for a strict shift gives up,
    # succeeds narrowly or succeeds at once
    rng = np.random.default_rng(seed + 9000)
    A, B, _lp, _lm = psd_pencil(rng, 3, 2, n_inf=seed % 2, n_common=int(seed % 3 == 2),
                                n_touch=1 + seed % 2)
    A = A + width * np.max(np.abs(A)) * np.eye(A.shape[0])
    ref_plus, ref_minus, ref_lam0, ref_m0, ref_inb = qz_analysis(A, B)
    an = finite_eigenvalues(A, B)
    assert an.inertia_b == ref_inb
    assert an.m0 == ref_m0 == 0 and an.diagonalizable
    scale = max(1.0, np.max(np.abs(np.r_[ref_plus, ref_minus])))
    assert np.max(np.abs(an.lambda_plus - ref_plus)) <= 1e-8 * scale
    assert np.max(np.abs(an.lambda_minus - ref_minus)) <= 1e-8 * scale
    assert abs(an.lambda0 - ref_lam0) <= 1e-8 * scale
    # vectors of a pair split by the width are conditioned like 1 / width
    U = np.hstack([an.eigvecs_plus, an.eigvecs_minus])
    J = np.diag(np.r_[np.ones(ref_plus.size), -np.ones(ref_minus.size)])
    assert np.max(np.abs(U.conj().T @ B @ U - J)) <= 1e-6


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("side", ["A", "B"])
def test_strict_shift_search_is_scale_free(monkeypatch, seed, side):
    # the search's stop and give-up rules are relative: (c*A, B) and (A, B/c)
    # take the strict path whenever (A, B) does, and their eigenvalues are c
    # times those of (A, B)
    calls = []
    real = np.linalg.eigvals

    def counted(M, *args, **kwargs):
        calls.append(np.shape(M))
        return real(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    rng = np.random.default_rng(seed + 9100)
    coupled = seed == 3
    A, B, _lp, _lm = psd_pencil(rng, 4, 3, n_inf=seed % 2, n_common=seed % 2,
                                n_coupled=int(coupled))
    base = finite_eigenvalues(A, B)
    for j in range(-8, 9):
        c = 10.0 ** j
        calls.clear()
        an = finite_eigenvalues(c * A, B) if side == "A" else finite_eigenvalues(A, B / c)
        assert len(calls) == int(coupled)
        assert an.m0 == base.m0
        scale = c * np.max(np.abs(np.r_[base.lambda_plus, base.lambda_minus]))
        assert np.max(np.abs(an.lambda_plus - c * base.lambda_plus)) <= 1e-9 * scale
        assert np.max(np.abs(an.lambda_minus - c * base.lambda_minus)) <= 1e-9 * scale
        assert an.lambda0 == pytest.approx(c * base.lambda0, abs=1e-9 * scale)
