"""Shared instance generators for the test suite."""

import tracemalloc

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack


def traced_peak(f, *args):
    """(f(*args), the most bytes the call held allocated at once beyond what
    was allocated when it started), as tracemalloc counts them."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def random_hermitian(rng, n):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (M + M.conj().T)


def random_unitary(rng, n):
    Q, _ = np.linalg.qr(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )
    return Q


def definite_instance(seed):
    """(A, B, D, k) with SPD B, Hermitian A and mixed-sign Hermitian D."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, min(3, n) + 1))
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = G @ G.conj().T + 0.5 * np.eye(n)
    A = random_hermitian(rng, n)
    D = random_hermitian(rng, k)
    return A, B, D, k


def canonical_pencil_instance(seed):
    """PSD-pencil instance built from its canonical form.

    A = T^{-H} Lambda T^{-1}, B = T^{-H} J T^{-1} for invertible T; every
    tenth seed carries one 2x2 coupled block (non-diagonalizable, m0 = 1).
    Returns (A, B, n_plus, n_minus, lambda_plus, lambda_minus, coupled).
    """
    coupled = seed % 10 == 9
    rng = np.random.default_rng(seed)
    if coupled:
        n = int(rng.integers(4, 7))
        n_minus = int(rng.integers(2, n - 1))
    else:
        n = int(rng.integers(2, 7))
        n_minus = int(rng.integers(1, n))
    n_plus = n - n_minus
    lam0 = float(rng.normal())
    if coupled:
        lp = np.sort(lam0 + rng.uniform(0.1, 3.0, n_plus - 1))
        lm = np.sort(lam0 - rng.uniform(0.1, 3.0, n_minus - 1))[::-1]
        m = n - 2
        signs = np.concatenate([-np.ones(n_minus - 1), np.ones(n_plus - 1)])
        vals = np.concatenate([lm, lp])
        Lam = np.zeros((n, n))
        J = np.zeros((n, n))
        Lam[:m, :m] = np.diag(signs * vals)
        J[:m, :m] = np.diag(signs)
        Lam[m:, m:] = np.array([[0.0, lam0], [lam0, 1.0]])
        J[m:, m:] = np.array([[0.0, 1.0], [1.0, 0.0]])
        lp_full = np.sort(np.concatenate([lp, [lam0]]))
        lm_full = np.sort(np.concatenate([lm, [lam0]]))[::-1]
    else:
        lp = np.sort(lam0 + rng.uniform(0.1, 3.0, n_plus))
        lm = np.sort(lam0 - rng.uniform(0.1, 3.0, n_minus))[::-1]
        signs = np.concatenate([-np.ones(n_minus), np.ones(n_plus)])
        vals = np.concatenate([lm, lp])
        Lam = np.diag(signs * vals)
        J = np.diag(signs)
        lp_full, lm_full = lp, lm
    T = rng.standard_normal((n, n)) + 0.3j * rng.standard_normal((n, n))
    Ti = np.linalg.inv(T)
    A = Ti.conj().T @ Lam @ Ti
    B = Ti.conj().T @ J @ Ti
    A = 0.5 * (A + A.conj().T)
    B = 0.5 * (B + B.conj().T)
    return A, B, n_plus, n_minus, lp_full, lm_full, coupled


def random_psd(rng, k, lo=0.1, hi=2.0):
    Q = random_unitary(rng, k)
    return Q @ np.diag(rng.uniform(lo, hi, k)) @ Q.conj().T


def psd_pencil(rng, n_plus, n_minus, n_inf=0, n_common=0, n_coupled=0,
               n_touch=0, a_inf_sign=1.0):
    """Positive semi-definite pencil built from its canonical blocks and made
    dense by a congruence with singular values in [1, 2].

    The blocks are n_plus eigenvalues above a shift lambda0 (B = +1) and
    n_minus below it (B = -1), n_inf infinite eigenvalues (B = 0, A > 0),
    n_common common null directions (A = B = 0), n_coupled 2x2 Jordan blocks
    at lambda0 (B-null kernel directions, m0 = n_coupled) and n_touch pairs
    of semisimple eigenvalues at lambda0, one of each sign, which make the
    bracket degenerate while the pencil stays diagonalizable. With
    a_inf_sign = -1, A is negative on the infinite blocks: A is then not
    positive semi-definite on N(B) and the pencil has no certifying shift.
    Returns (A, B, lambda_plus ascending, lambda_minus descending).
    """
    lam0 = float(rng.normal())
    at_lam0 = lam0 * np.ones(n_coupled + n_touch)
    lp = np.r_[lam0 + rng.uniform(0.1, 3.0, n_plus), at_lam0]
    lm = np.r_[lam0 - rng.uniform(0.1, 3.0, n_minus), at_lam0]
    a = np.r_[lp[:n_plus + n_touch], -lm[:n_minus + n_touch],
              a_inf_sign * rng.uniform(0.5, 2.0, n_inf), np.zeros(n_common)]
    b = np.r_[np.ones(n_plus + n_touch), -np.ones(n_minus + n_touch),
              np.zeros(n_inf + n_common)]
    m, n = a.size, a.size + 2 * n_coupled
    Lam = np.zeros((n, n))
    J = np.zeros((n, n))
    Lam[:m, :m] = np.diag(a)
    J[:m, :m] = np.diag(b)
    for i in range(m, n, 2):
        Lam[i:i + 2, i:i + 2] = [[0.0, lam0], [lam0, 1.0]]
        J[i:i + 2, i:i + 2] = [[0.0, 1.0], [1.0, 0.0]]
    W = (random_unitary(rng, n) * rng.uniform(1.0, 2.0, n)) @ random_unitary(rng, n)
    A = W.conj().T @ Lam @ W
    B = W.conj().T @ J @ W
    A, B = 0.5 * (A + A.conj().T), 0.5 * (B + B.conj().T)
    return A, B, np.sort(lp), np.sort(lm)[::-1]


def b_congruence(A, B, s):
    """(T^H A T, T^H B T) for T = U diag(s) U^H, U the eigenvectors of B: a
    congruence that scales B's eigenvalues by s**2 and leaves the pencil's
    eigenvalues and its positive semi-definiteness unchanged."""
    U = np.linalg.eigh(B)[1]
    T = (U * np.asarray(s, dtype=float)) @ U.conj().T
    A2, B2 = T.conj().T @ A @ T, T.conj().T @ B @ T
    return 0.5 * (A2 + A2.conj().T), 0.5 * (B2 + B2.conj().T)


def spy_factorizations(monkeypatch):
    """Record the shape, and the matrix, of every eigensolver and SVD call."""
    calls = []

    def spy(fn, name):
        def wrapped(M, *args, **kwargs):
            calls.append((name, np.shape(M), np.asarray(M)))
            return fn(M, *args, **kwargs)
        return wrapped

    for mod, name, label in ((np.linalg, "eigh", "eigh"), (sla, "eigh", "eigh"),
                             (np.linalg, "eigvalsh", "eigvalsh"),
                             (sla, "eigvalsh", "eigvalsh"), (sla, "eig", "qz"),
                             (np.linalg, "svd", "svd"), (sla, "svd", "svd")):
        monkeypatch.setattr(mod, name, spy(getattr(mod, name), label))
    return calls


def spy_choleskys(monkeypatch):
    """Record the shape of every LAPACK zpotrf call."""
    shapes = []
    real = lapack.zpotrf

    def wrapped(M, *args, **kwargs):
        shapes.append(np.shape(M))
        return real(M, *args, **kwargs)

    monkeypatch.setattr(lapack, "zpotrf", wrapped)
    return shapes


def check_factorizations(calls, B):
    """No QZ, no SVD of a stacked 2n x n matrix, no eigvalsh, and exactly one
    n x n eigh of B."""
    n = B.shape[0]
    names = [name for name, _shape, _M in calls]
    assert "qz" not in names and "eigvalsh" not in names
    assert not [1 for name, shape, _M in calls if name == "svd" and shape == (2 * n, n)]
    of_b = [1 for name, shape, M in calls
            if name == "eigh" and shape == (n, n) and np.array_equal(M, B)]
    assert len(of_b) == 1
