from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tracemin import (
    ConstraintSpec,
    HermitianMatrix,
    NotPsdPencil,
    Problem,
    finite_eigenvalues,
    solve,
)
from tracemin import indefinite, pencil
from tracemin.pencil import RANK_RTOL
from helpers import b_congruence, canonical_pencil_instance, psd_pencil, random_unitary
from helpers import spy_choleskys, spy_factorizations
from qz_pencil import eigenvectors_of, qz_analysis

LAMBDA0_F2_A = np.array([[0.0, 0.0], [0.0, 1.0]])
LAMBDA0_F2_B = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestFindLambda0:
    def test_definite_b_any_shift_below_min(self):
        lam0 = finite_eigenvalues(np.diag([1.0, 2.0]), np.eye(2)).lambda0
        assert np.isfinite(lam0)
        assert np.linalg.eigvalsh(np.diag([1.0, 2.0]) - lam0 * np.eye(2))[0] >= -1e-9

    def test_indefinite_example(self):
        A = np.diag([1.0, 2.0, 5.0])
        B = np.diag([1.0, 1.0, -1.0])
        lam0 = finite_eigenvalues(A, B).lambda0
        assert np.isfinite(lam0)
        assert -5.0 - 1e-8 <= lam0 <= 1.0 + 1e-8

    def test_non_psd_pencil_returns_none(self):
        with pytest.raises(NotPsdPencil):
            finite_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0]))

    def test_zero_b(self):
        assert finite_eigenvalues(np.eye(2), np.zeros((2, 2))).lambda0 == 0.0
        with pytest.raises(NotPsdPencil):
            finite_eigenvalues(-np.eye(2), np.zeros((2, 2)))

    def test_coupled_block_single_certificate_point(self):
        lam0 = finite_eigenvalues(LAMBDA0_F2_A, LAMBDA0_F2_B).lambda0
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
    # the analysis carries the diagonalizability certificate: diagonalizable
    # iff no kernel direction is B-null, with m0 such directions otherwise
    A, B, *_rest, coupled = canonical_pencil_instance(seed)
    an = finite_eigenvalues(A, B)
    assert (an.diagonalizable, an.m0) == (not coupled, int(coupled))


@pytest.mark.parametrize("seed", [2, 5, 13])
def test_eigvec_blocks_are_b_orthonormal(seed):
    A, B, n_plus, n_minus, *_rest, coupled = canonical_pencil_instance(seed)
    an = finite_eigenvalues(A, B)
    if not an.diagonalizable:
        return
    U = np.hstack(an.eigvecs(an.inertia_b.n_plus, an.inertia_b.n_minus))
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
    U = np.hstack(an.eigvecs(an.inertia_b.n_plus, an.inertia_b.n_minus))
    J = np.diag([1.0, 1.0, -1.0])
    assert np.max(np.abs(U.conj().T @ B @ U - J)) <= 1e-10


@settings(max_examples=200, deadline=None)
# the subset eigensolvers of the certificate fail to converge on this one
@example(seed=501, n_plus=2, n_minus=7, n_inf=2, n_common=2, n_coupled=2, n_touch=0,
         not_psd=False)
# a closed bracket's midpoint once stood 4.8e-9 from lambda0 beside a touching
# pair, where the J-null direction of K0 no longer read as J-null
@example(seed=2647, n_plus=0, n_minus=0, n_inf=0, n_common=0, n_coupled=1, n_touch=1,
         not_psd=False)
@example(seed=4145223268, n_plus=0, n_minus=3, n_inf=2, n_common=3, n_coupled=2,
         n_touch=1, not_psd=False)
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
    assert astuple(an.inertia_b) == ref_inb
    assert an.m0 == ref_m0 == n_coupled
    assert an.diagonalizable == (ref_m0 == 0)
    assert an.lambda_plus.shape == ref_plus.shape == lp.shape
    assert an.lambda_minus.shape == ref_minus.shape == lm.shape
    scale = max(1.0, np.max(np.abs(np.r_[ref_plus, ref_minus]), initial=0.0))
    assert np.max(np.abs(an.lambda_plus - ref_plus), initial=0.0) <= 1e-8 * scale
    assert np.max(np.abs(an.lambda_minus - ref_minus), initial=0.0) <= 1e-8 * scale
    assert np.max(np.abs(an.lambda_plus - lp), initial=0.0) <= 1e-6
    assert np.max(np.abs(an.lambda_minus - lm), initial=0.0) <= 1e-6


def test_certificate_falls_back_to_the_full_eigh(monkeypatch):
    # the subset eigensolvers (evr, evx) can fail to converge where the full
    # eigh does not, as on test_matches_qz_reference's pinned example: the
    # certificate then keeps the full eigh's eigenpairs at or below the floor
    import scipy.linalg as sla

    A, B, _lp, _lm = psd_pencil(np.random.default_rng(9500), 2, 3, n_coupled=1, n_touch=1)
    base, real = finite_eigenvalues(A, B), sla.eigh

    def eigh(a, *args, **kwargs):
        if "subset_by_value" in kwargs:
            raise np.linalg.LinAlgError("Internal Error.")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(sla, "eigh", eigh)
    an = finite_eigenvalues(A, B)
    assert (an.m0, an.lambda0) == (base.m0, base.lambda0) == (1, base.lambda_plus[0])
    assert np.max(np.abs(an.lambda_plus - base.lambda_plus)) <= 1e-12
    assert np.max(np.abs(an.lambda_minus - base.lambda_minus)) <= 1e-12


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
    U = np.hstack(an.eigvecs(an.inertia_b.n_plus, an.inertia_b.n_minus))
    assert np.max(np.abs(U.conj().T @ B @ U - np.diag([1.0, -1.0]))) <= 1e-10
    assert np.max(np.abs(A @ U - B @ U @ np.diag([2.0, -3.0]))) <= 1e-8


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("width", [0.0, 1e-13, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4, 3e-4,
                                   1e-3, 3e-3, 1e-2, 1e-1])
def test_narrow_bracket_matches_qz_reference(monkeypatch, seed, width):
    # touching pairs at lambda0 make the bracket degenerate; A + width*|A|*I
    # opens it by O(width), so its width falls below, near and above the
    # certificate's floor (PSD_RTOL relative) and the strict shift's margin
    # (SHIFT_RTOL relative), where the search for a strict shift relaxes,
    # succeeds narrowly or succeeds at once; no path solves a nonsymmetric
    # eigenproblem
    rng = np.random.default_rng(seed + 9000)
    A, B, _lp, _lm = psd_pencil(rng, 3, 2, n_inf=seed % 2, n_common=int(seed % 3 == 2),
                                n_touch=1 + seed % 2)
    A = A + width * np.max(np.abs(A)) * np.eye(A.shape[0])
    an = _matches_qz_without_nonsymmetric_solves(monkeypatch, A, B)
    assert an.m0 == 0 and an.diagonalizable
    # vectors of a pair split by the width are conditioned like 1 / width
    U = np.hstack(an.eigvecs(an.inertia_b.n_plus, an.inertia_b.n_minus))
    J = np.diag(np.r_[np.ones(an.lambda_plus.size), -np.ones(an.lambda_minus.size)])
    assert np.max(np.abs(U.conj().T @ B @ U - J)) <= 1e-6


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("side", ["A", "B"])
def test_strict_shift_search_is_scale_free(monkeypatch, seed, side):
    # the search's stop and give-up rules are relative: (c*A, B) and (A, B/c)
    # take the strict path whenever (A, B) does, the coupled one gives up on a
    # nearly J-null direction and places lambda0 itself at every scale (no
    # eigvals), and their eigenvalues are c times those of (A, B)
    calls, strict = [], []
    real, real_search = np.linalg.eigvals, pencil._shift_search

    def counted(M, *args, **kwargs):
        calls.append(np.shape(M))
        return real(M, *args, **kwargs)

    def search(*args):
        sigma, found = real_search(*args)
        strict.append((sigma is not None, found))
        return sigma, found

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    monkeypatch.setattr(pencil, "_shift_search", search)
    rng = np.random.default_rng(seed + 9100)
    coupled = seed == 3
    A, B, _lp, _lm = psd_pencil(rng, 4, 3, n_inf=seed % 2, n_common=seed % 2,
                                n_coupled=int(coupled))
    base = finite_eigenvalues(A, B)
    for j in range(-8, 9):
        c = 10.0 ** j
        strict.clear()
        an = finite_eigenvalues(c * A, B) if side == "A" else finite_eigenvalues(A, B / c)
        assert calls == [] and strict == [(True, not coupled)]
        assert an.m0 == base.m0
        scale = c * np.max(np.abs(np.r_[base.lambda_plus, base.lambda_minus]))
        assert np.max(np.abs(an.lambda_plus - c * base.lambda_plus)) <= 1e-9 * scale
        assert np.max(np.abs(an.lambda_minus - c * base.lambda_minus)) <= 1e-9 * scale
        assert an.lambda0 == pytest.approx(c * base.lambda0, abs=1e-9 * scale)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_plus=st.integers(1, 6),
    n_minus=st.integers(1, 6),
    n_inf=st.integers(0, 3),
    n_common=st.integers(0, 2),
    log_width=st.one_of(st.none(), st.floats(-8.0, 0.0)),
)
def test_diagonal_quotient_bracket_contains_qz_bracket(seed, n_plus, n_minus, n_inf,
                                                       n_common, log_width):
    # every certifying shift sigma has e_i^H (S - sigma*Lambda_B) e_i >= 0, so
    # the quotients S_ii / b_i bound [max lambda-, min lambda+] on both sides,
    # also for a degenerate bracket opened to widths down to 1e-8
    rng = np.random.default_rng(seed)
    n_touch = 0 if log_width is None else 1
    A, B, _lp, _lm = psd_pencil(rng, n_plus, n_minus, n_inf, n_common, n_touch=n_touch)
    if log_width is not None:
        A = A + 10.0 ** log_width * np.max(np.abs(A)) * np.eye(A.shape[0])
    ref_plus, ref_minus, _lam0, _m0, _inb = qz_analysis(A, B)
    _inb, S, b, _E, _scale, _n2 = pencil._reduce(A, B)
    q = np.real(np.diag(S)) / b
    tol = 1e-8 * max(1.0, np.max(np.abs(np.r_[ref_plus, ref_minus])))
    assert np.max(q[b < 0]) <= ref_minus[0] + tol
    assert np.min(q[b > 0]) >= ref_plus[0] - tol


def _tied_pencil(rng, lp, lm):
    """(A, B) with eigenvalues lp above and lm below the bracket, made dense by
    a congruence with singular values in [1, 2]."""
    signs = np.r_[np.ones(len(lp)), -np.ones(len(lm))]
    n = signs.size
    W = (random_unitary(rng, n) * rng.uniform(1.0, 2.0, n)) @ random_unitary(rng, n)
    A = W.conj().T @ np.diag(signs * np.r_[lp, lm]) @ W
    B = W.conj().T @ np.diag(signs) @ W
    return 0.5 * (A + A.conj().T), 0.5 * (B + B.conj().T)


def _pencil_cases():
    """(name, A, B, strict): strict when the analysis finds a strict shift."""
    rng = np.random.default_rng(9200)
    yield "ties", *_tied_pencil(rng, [0.5, 1.5, 1.5, 2.5], [-1.0, -2.0, -2.0]), True
    yield "singular", *psd_pencil(rng, 3, 3, n_inf=2, n_common=1)[:2], True
    # a degenerate bracket leaves no strict shift: the full blocks, sliced
    yield "touching", *psd_pencil(rng, 2, 2, n_touch=1)[:2], False


@pytest.mark.parametrize("case", [c[0] for c in _pencil_cases()])
def test_eigvecs_selection_satisfies_the_pencil(monkeypatch, case):
    # every (k_plus, k_minus) selection holds eigenvectors aligned with the
    # eigenvalue lists and B-orthonormal with signs +1 / -1, also when a tie
    # straddles column k
    _name, A, B, strict = next(c for c in _pencil_cases() if c[0] == case)
    calls = _spy_nonsymmetric(monkeypatch)
    an = finite_eigenvalues(A, B)
    assert an.diagonalizable and calls == []
    assert _takes_strict_shift(A, B) == strict
    n_plus, n_minus = an.inertia_b.n_plus, an.inertia_b.n_minus
    for kp in range(n_plus + 1):
        for km in range(n_minus + 1):
            Vp, Vm = an.eigvecs(kp, km)
            assert Vp.shape == (A.shape[0], kp) and Vm.shape == (A.shape[0], km)
            V = np.hstack([Vp, Vm])
            lam = np.r_[an.lambda_plus[:kp], an.lambda_minus[:km]]
            J = np.diag(np.r_[np.ones(kp), -np.ones(km)])
            assert np.max(np.abs(V.conj().T @ B @ V - J), initial=0.0) <= 1e-10
            assert np.max(np.abs(A @ V - B @ V * lam), initial=0.0) <= 1e-9


def test_eigvecs_of_a_coupled_pencil_are_none():
    A, B, _lp, _lm = psd_pencil(np.random.default_rng(9300), 2, 2, n_coupled=1)
    an = finite_eigenvalues(A, B)
    assert an.m0 == 1
    assert an.eigvecs(1, 1) == (None, None)
    assert an.eigvecs(an.inertia_b.n_plus, an.inertia_b.n_minus) == (None, None)


# coupled canonical seeds, then psd_pencil seeds with (n_coupled, n_inf,
# n_common, n_touch)
COUPLED_CASES = [(seed, None) for seed in range(9, 100, 10)] + [
    (9500 + i, blocks) for i, blocks in enumerate(
        [(1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0), (2, 0, 1, 0), (1, 0, 0, 1), (2, 1, 1, 1)])]


@pytest.mark.parametrize("seed, blocks", COUPLED_CASES)
def test_jordan_chains_give_the_closed_form_excess(seed, blocks):
    # each block leads with its m0 Jordan columns x(t) = t*z +/- w/(2t): B-norm
    # +/-1, B-orthogonal to every other column, x^H A x = +/-lambda0 + 1/(4t^2);
    # so a value off by far less than 1e-4 fails the excess check
    if blocks is None:
        A, B = canonical_pencil_instance(seed)[:2]
    else:
        n_coupled, n_inf, n_common, n_touch = blocks
        A, B, _lp, _lm = psd_pencil(np.random.default_rng(seed), 2, 3, n_inf=n_inf,
                                    n_common=n_common, n_coupled=n_coupled,
                                    n_touch=n_touch)
    an = finite_eigenvalues(A, B)
    assert an.m0 >= 1
    for t in (3.0, 10.0, 30.0):
        step = 1.0 / (4.0 * t * t)
        for kp in range(an.inertia_b.n_plus + 1):
            for km in range(an.inertia_b.n_minus + 1):
                chain = np.r_[np.arange(kp) < an.m0, np.arange(km) < an.m0]
                # unit weights: eps = 2 * (chain columns) * step gives this t
                eps = 2.0 * max(np.sum(chain), 1) * step
                X = np.hstack(an._vectors_within(np.ones(kp), np.ones(km), eps))
                sign = np.r_[np.ones(kp), -np.ones(km)]
                assert np.max(np.abs(X.conj().T @ B @ X - np.diag(sign)),
                              initial=0.0) <= 1e-9
                H = X.conj().T @ A @ X
                excess = np.real(np.diag(H)) - sign * np.r_[an.lambda_plus[:kp],
                                                            an.lambda_minus[:km]]
                assert np.max(np.abs(excess - chain * step), initial=0.0) <= 1e-6 * step
                # off the diagonal only the two columns of one chain couple
                pairs = np.zeros(H.shape, dtype=bool)
                for i in range(min(an.m0, kp, km)):
                    pairs[i, kp + i] = pairs[kp + i, i] = True
                assert np.allclose(H[pairs], -step, rtol=1e-6, atol=0.0)
                off = H - np.diag(np.diag(H))
                assert np.max(np.abs(off[~pairs]), initial=0.0) <= 1e-6 * step


def test_strict_shift_search_opens_on_the_quotient_bracket(monkeypatch):
    # the quotient bracket hugs [max lambda-, min lambda+], so its midpoint is
    # strict at the first Cholesky on most pencils (a Frobenius bracket,
    # up to sqrt(rank B) wider, took 2.2 on average here)
    from scipy.linalg import lapack

    real_shift, real_potrf, steps = pencil._shift_search, lapack.zpotrf, []

    def shift(S, b, scale):
        count = [0]

        def potrf(*args, **kwargs):
            count[0] += 1
            return real_potrf(*args, **kwargs)

        monkeypatch.setattr(lapack, "zpotrf", potrf)
        sigma, strict = real_shift(S, b, scale)
        monkeypatch.setattr(lapack, "zpotrf", real_potrf)
        steps.append(count[0])
        assert strict
        return sigma, strict

    monkeypatch.setattr(pencil, "_shift_search", shift)
    for seed in range(60):
        rng = np.random.default_rng(seed + 9700)
        A, B, _lp, _lm = psd_pencil(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                                    n_inf=int(rng.integers(0, 3)),
                                    n_common=int(rng.integers(0, 2)))
        finite_eigenvalues(A, B)
    assert np.mean(steps) <= 1.5


def test_eigvecs_when_the_kernel_spans_the_range_of_b():
    # lambda0 = 1 is the only eigenvalue, so A - lambda0*B = 0 and the definite
    # pair on K0's complement is empty: every vector comes from K0
    A, B = np.diag([1.0, -1.0, 3.0]), np.diag([1.0, -1.0, 0.0])
    an = finite_eigenvalues(A, B)
    assert an.lambda0 == 1.0 and an.diagonalizable and an.rank == 2
    Vp, Vm = an.eigvecs(1, 1)
    assert np.allclose(np.abs(Vp[:, 0]), [1.0, 0.0, 0.0])
    assert np.allclose(np.abs(Vm[:, 0]), [0.0, 1.0, 0.0])


def _shift_case(kind, seed):
    if kind == "canonical":
        return canonical_pencil_instance(seed)[:2]
    rng = np.random.default_rng(seed + 9800)
    return psd_pencil(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)),
                      n_inf=int(rng.integers(0, 3)), n_common=int(rng.integers(0, 2)))[:2]


@pytest.mark.parametrize("kind, seed", [("canonical", s) for s in range(30)]
                         + [("psd_pencil", s) for s in range(20)])
def test_strict_shift_needs_no_certificate_at_lambda0(monkeypatch, kind, seed):
    # a strict shift proves the pencil definite, so lambda0 inside the bracket
    # has no kernel: S - lambda0*Lambda_B - floor*I has a Cholesky factor,
    # m0 = 0, and a solve factors r x r matrices only in the search and once
    # for the definite pair
    A, B = _shift_case(kind, seed)
    _inb, S, b, _E, scale, _n2 = pencil._reduce(A, B)
    shapes = spy_choleskys(monkeypatch)
    sigma, strict = pencil._shift_search(S, b, scale)
    if not strict:
        return
    steps = len(shapes)
    an = finite_eigenvalues(A, B)
    floor = pencil.PSD_RTOL * (scale + abs(an.lambda0) * np.max(np.abs(b)))
    np.linalg.cholesky(S - np.diag(an.lambda0 * b + floor))
    assert an.m0 == 0 and an.diagonalizable
    shapes.clear()
    # the indefinite route alone: `solve`'s probe for a Cholesky factor of B
    # would add one n x n factorization when B's diagonal is positive
    rep = indefinite._solve_indefinite(
        Problem.of(A, B, np.eye(1), ConstraintSpec.plus_identity(1)), True)
    assert rep.attained and rep.x_opt.shape == (A.shape[0], 1)
    assert shapes.count((b.size, b.size)) == steps + 1


def _takes_strict_shift(A, B):
    _inb, S, J, _E, scale, _n2 = pencil._reduce(A, B)
    return pencil._shift_search(S, J, scale)[1]


def test_canonical_pencils_take_the_strict_path_unless_coupled():
    # every diagonalizable canonical pencil has a wide bracket and a strict
    # shift at the scale-free margin, whatever the spread of B's eigenvalues
    for seed in range(100):
        A, B, *_rest, coupled = canonical_pencil_instance(seed)
        assert _takes_strict_shift(A, B) == (not coupled), seed


_CONGRUENCE_CASES = {
    # (psd_pencil keywords or None for a canonical seed, coupled, log10 s span).
    # A touching pair lies on the boundary of positive semi-definite pencils,
    # and rounding T^H B T moves it by about eps*cond(B), past the
    # certificate's floor once cond(B) nears 1e8; its spans stay below that.
    # A coupled block splits by about sqrt(eps*cond(B)); its spans predate
    # the certificate deciding alone, and the wider 10^[-2, 2] is covered by
    # test_coupled_pencils_survive_spread_b_eigenvalues.
    "canonical": (None, False, 2.0),
    "plain": ({}, False, 2.0),
    "singular": ({"n_inf": 2, "n_common": 1}, False, 2.0),
    "touching": ({"n_touch": 1}, False, 1.5),
    "touching singular": ({"n_inf": 1, "n_touch": 1}, False, 1.5),
    "canonical coupled": (None, True, 0.75),
    "coupled": ({"n_coupled": 1}, True, 1.0),
    "coupled singular": ({"n_coupled": 1, "n_inf": 1, "n_common": 1}, True, 1.0),
}


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(sorted(_CONGRUENCE_CASES)), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_analysis_is_invariant_under_b_congruence(case, seed, data):
    # a congruence T = U diag(s) U^H, U the eigenvectors of B, spreads B's
    # eigenvalues by s**2 and leaves the pencil's eigenvalues as they are: the
    # strict-or-give-up decision, m0 and the spectrum must not move
    kw, coupled, span = _CONGRUENCE_CASES[case]
    if kw is None:
        # every tenth canonical seed, the one ending in 9, is coupled
        digit = 9 if coupled else data.draw(st.integers(0, 8))
        A, B, _np, _nm, lp, lm, _c = canonical_pencil_instance(10 * (seed % 10) + digit)
    else:
        rng = np.random.default_rng(seed)
        A, B, lp, lm = psd_pencil(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), **kw)
    log_s = data.draw(st.lists(st.floats(-span, span), min_size=A.shape[0],
                               max_size=A.shape[0]))
    A2, B2 = b_congruence(A, B, 10.0 ** np.array(log_s))
    # past cond(B) ~ 1 / ZERO_RTOL a small eigenvalue of B counts as zero, or
    # a rounded null one as nonzero: a rank decision, outside this invariance
    assume(HermitianMatrix(B2).inertia() == HermitianMatrix(B).inertia())
    base, an = finite_eigenvalues(A, B), finite_eigenvalues(A2, B2)
    assert _takes_strict_shift(A2, B2) == _takes_strict_shift(A, B)
    assert an.m0 == base.m0 == int(coupled)
    assert an.diagonalizable == base.diagonalizable
    scale = np.max(np.abs(np.r_[lp, lm]))
    assert np.max(np.abs(an.lambda_plus - lp), initial=0.0) <= 1e-6 * scale
    assert np.max(np.abs(an.lambda_minus - lm), initial=0.0) <= 1e-6 * scale


@pytest.mark.parametrize("seed", [18, 55, 66, 84, 95])
def test_spread_b_eigenvalues_keep_the_minimum_attained(seed):
    # these congruences take cond(B) to 4e8-4e9; the pencils stay
    # diagonalizable, so the minimum is attained at the generating lambda+
    A, B, _np, _nm, lp, _lm, _c = canonical_pencil_instance(seed)
    s = 10.0 ** np.random.default_rng(seed + 777).uniform(-2.0, 2.0, A.shape[0])
    A2, B2 = b_congruence(A, B, s)
    assert finite_eigenvalues(A2, B2).m0 == 0
    rep = solve(A2, B2, np.eye(1), ConstraintSpec.plus_identity(1))
    assert rep.attained
    assert rep.value == pytest.approx(lp[0], rel=1e-6)


def _coupled_case(kind, seed):
    if kind == "canonical":
        A, B, _np, _nm, lp, lm, _c = canonical_pencil_instance(seed)
        return A, B, lp, lm
    return psd_pencil(np.random.default_rng(seed), 3, 3, n_coupled=1)


@pytest.mark.parametrize("kind, seed", [("canonical", s) for s in range(9, 100, 10)]
                         + [("psd_pencil", s) for s in range(20)])
def test_coupled_pencils_survive_spread_b_eigenvalues(kind, seed):
    # these congruences split the Jordan block at lambda0 by about
    # sqrt(eps*cond(B)) into a complex pair; the search still places lambda0
    # within the floor, and the certificate there finds the B-null kernel
    # direction
    A, B, lp, lm = _coupled_case(kind, seed)
    s = 10.0 ** np.random.default_rng(seed + 777).uniform(-2.0, 2.0, A.shape[0])
    an = finite_eigenvalues(*b_congruence(A, B, s))
    assert an.m0 == 1 and not an.diagonalizable
    scale = np.max(np.abs(np.r_[lp, lm]))
    assert np.max(np.abs(an.lambda_plus - lp)) <= 1e-6 * scale
    assert np.max(np.abs(an.lambda_minus - lm)) <= 1e-6 * scale


@pytest.mark.parametrize("seed", range(9, 100, 10))
def test_coupled_analysis_factors_only_in_the_shift_search(monkeypatch, seed):
    # the search places lambda0 itself; the certificate there is one eigh, and
    # the pair beside the kernel and its Jordan partner, (r-2) x (r-2), is
    # factored once for its eigenvalues
    A, B, *_rest = canonical_pencil_instance(seed)
    _inb, S, J, _E, scale, _n2 = pencil._reduce(A, B)
    shapes = spy_choleskys(monkeypatch)
    assert pencil._shift_search(S, J, scale)[1] is False
    steps = len(shapes)
    shapes.clear()
    assert finite_eigenvalues(A, B).m0 == 1
    r = J.size
    assert shapes == [(r, r)] * steps + [(r - 2, r - 2)]


def _spy_nonsymmetric(monkeypatch):
    """Record the shape of every nonsymmetric eigensolver or QZ call."""
    import scipy.linalg as sla

    calls = []

    def spy(real):
        return lambda M, *args, **kwargs: calls.append(np.shape(M)) or real(M, *args, **kwargs)

    for mod, names in ((np.linalg, ("eig", "eigvals")), (sla, ("eig", "eigvals", "qz", "ordqz"))):
        for name in names:
            monkeypatch.setattr(mod, name, spy(getattr(mod, name)))
    return calls


def _matches_qz_without_nonsymmetric_solves(monkeypatch, A, B):
    """The analysis of (A, B) makes no nonsymmetric eigensolver or QZ call and
    agrees with the QZ reference: m0 alike, lambda0 and both spectra to 1e-8
    of their scale. Returns it."""
    ref_plus, ref_minus, ref_lam0, ref_m0, ref_inb = qz_analysis(A, B)
    calls = _spy_nonsymmetric(monkeypatch)
    an = finite_eigenvalues(A, B)
    assert calls == []
    assert astuple(an.inertia_b) == ref_inb and an.m0 == ref_m0
    tol = 1e-8 * max(1.0, np.max(np.abs(np.r_[ref_plus, ref_minus])))
    assert abs(an.lambda0 - ref_lam0) <= tol
    assert np.max(np.abs(an.lambda_plus - ref_plus)) <= tol
    assert np.max(np.abs(an.lambda_minus - ref_minus)) <= tol
    return an


# coupled canonical seeds, then psd_pencil seeds with (n_coupled, n_inf, n_common)
J_NULL_CASES = [(seed, None) for seed in range(9, 100, 10)] + [
    (9600 + 3 * m + i, (m, *extra)) for m in (1, 2)
    for i, extra in enumerate([(0, 0), (1, 0), (0, 1)])]


@pytest.mark.parametrize("seed, blocks", J_NULL_CASES)
def test_j_null_give_up_places_lambda0_without_eigvals(monkeypatch, seed, blocks):
    # the strict search gives up on a nearly J-null direction; the search then
    # places lambda0 itself and the pair beside the kernel and its Jordan
    # partners gives every other eigenvalue: no nonsymmetric eigenvalue solve,
    # and the same m0, lambda0 and spectrum as the QZ reference
    if blocks is None:
        A, B = canonical_pencil_instance(seed)[:2]
    else:
        A, B, _lp, _lm = psd_pencil(np.random.default_rng(seed), 3, 3, n_coupled=blocks[0],
                                    n_inf=blocks[1], n_common=blocks[2])
    assert not _takes_strict_shift(A, B)
    an = _matches_qz_without_nonsymmetric_solves(monkeypatch, A, B)
    assert an.m0 == (1 if blocks is None else blocks[0])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("width", [0.0, 1e-9, 1e-6])
def test_narrow_bracket_give_up_makes_one_eigvals_call(monkeypatch, seed, width):
    # a bracket too narrow for the strict margin no longer takes an eigvals
    # call: the relaxed search places lambda0, and the pair there, with its
    # eigenvectors near lambda0 deflated, matches the QZ reference
    rng = np.random.default_rng(seed + 9000)
    A, B, _lp, _lm = psd_pencil(rng, 3, 2, n_inf=seed % 2, n_common=int(seed % 3 == 2),
                                n_touch=1 + seed % 2)
    A = A + width * np.max(np.abs(A)) * np.eye(A.shape[0])
    assert not _takes_strict_shift(A, B)
    assert _matches_qz_without_nonsymmetric_solves(monkeypatch, A, B).diagonalizable


@pytest.mark.parametrize("seed", range(30))
def test_touching_pair_beside_a_coupled_block_matches_qz(monkeypatch, seed):
    # a coupled block makes the positive semi-definite shifts a single point
    # and a touching pair puts a J-definite direction beside its J-null one:
    # the lowest eigenvector's quotient places lambda0 where Newton's method
    # on its J-norm cannot
    A, B, _lp, _lm = psd_pencil(np.random.default_rng(seed), 3, 3, n_coupled=1, n_touch=1)
    assert _matches_qz_without_nonsymmetric_solves(monkeypatch, A, B).m0 == 1


@pytest.mark.parametrize("gap", [1e-6, 1e-3])
@pytest.mark.parametrize("seed", range(3))
def test_j_null_give_up_on_a_non_psd_pencil_fails_the_certificate(monkeypatch, seed, gap):
    # a Jordan block opened into the complex pair lambda0 +/- i*sqrt(gap):
    # A - sigma*B is indefinite for every sigma, the strict search still gives
    # up on a nearly J-null direction, and the certificate at the shift the
    # search ends on rejects the pencil
    rng = np.random.default_rng(seed + 9900)
    lam0 = float(rng.normal())
    Lam = np.zeros((6, 6))
    Jb = np.zeros((6, 6))
    Lam[:4, :4] = np.diag(np.r_[lam0 + rng.uniform(0.1, 3.0, 2),
                                -(lam0 - rng.uniform(0.1, 3.0, 2))])
    Jb[:4, :4] = np.diag([1.0, 1.0, -1.0, -1.0])
    Lam[4:, 4:] = [[-gap, lam0], [lam0, 1.0]]
    Jb[4:, 4:] = [[0.0, 1.0], [1.0, 0.0]]
    W = (random_unitary(rng, 6) * rng.uniform(1.0, 2.0, 6)) @ random_unitary(rng, 6)
    A, B = W.conj().T @ Lam @ W, W.conj().T @ Jb @ W
    A, B = 0.5 * (A + A.conj().T), 0.5 * (B + B.conj().T)
    searches, real = [], pencil._shift_search
    monkeypatch.setattr(pencil, "_shift_search", lambda *a: searches.append(real(*a))
                        or searches[-1])
    with pytest.raises(NotPsdPencil, match=r"A - lambda0\*B has eigenvalue"):
        finite_eigenvalues(A, B)
    assert len(searches) == 1 and searches[0][1] is False


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n_inf", [0, 1])
def test_touching_pair_sits_exactly_at_lambda0(seed, n_inf):
    # a +1 and a -1 eigenvector at lambda0 leave no strict shift; the
    # certified kernel places both eigenvalues at lambda0 itself
    A, B, lp, lm = psd_pencil(np.random.default_rng(seed), 3, 3, n_inf=n_inf, n_touch=1)
    an = finite_eigenvalues(A, B)
    assert an.m0 == 0 and an.diagonalizable
    assert an.lambda_plus[0] == an.lambda0 == an.lambda_minus[0]
    assert an.lambda0 == pytest.approx(lp[0], abs=1e-8 * np.max(np.abs(np.r_[lp, lm])))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("c", 10.0 ** np.union1d(np.arange(-12, 9), np.arange(-300, 301, 5)))
def test_one_sided_lambda0_scales_with_the_pencil(c, sign):
    # with B definite or semidefinite one end of the bracket is missing, and
    # lambda0 is the certified strict shift, found by a scale-free search: no
    # absolute offset, and no square of an entry of c*A that over- or
    # underflows, from c = 1e-300 to 1e300
    for A, B in ((np.diag([1.0, 2.0, 3.0]), np.eye(3)), (np.diag([-1.0, 2.0]), np.eye(2)),
                 (np.diag([1.0, 2.0]), np.diag([1.0, 0.0]))):
        base = finite_eigenvalues(A, sign * B).lambda0
        assert finite_eigenvalues(c * A, sign * B).lambda0 == pytest.approx(
            c * base, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c", 10.0 ** np.arange(-12, 9))
def test_certificate_rejects_a_non_psd_pencil_at_every_scale(c):
    # J*S has eigenvalues +-i*c, whose real parts place lambda0 = 0, where
    # A - lambda0*B has the eigenvalue -c: measured against the scale of S,
    # the certificate rejects the pencil at every c
    with pytest.raises(NotPsdPencil, match=r"A - lambda0\*B has eigenvalue"):
        finite_eigenvalues(c * np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0]))


def test_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="A and B must have the same shape"):
        finite_eigenvalues(np.eye(2), np.eye(3))
