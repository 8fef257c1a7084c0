"""Seeded instance generators with closed-form truth.

Every instance is built from its canonical form, so the expected answer is
known without calling the package: the pencil eigenvalues are chosen first
and the matrices are congruent images of them, A = T^{-H} Lambda T^{-1} and
B = T^{-H} J T^{-1}, with a well-conditioned T (singular values in [1, 2]).
The generators use only NumPy; the package under test receives the
generated matrices and nothing else.

Spectra are drawn on a jittered grid, so the gap between neighbouring pencil
eigenvalues is at least a quarter of the grid step. The benchmark measures
speed; the handling of nearly equal eigenvalues is a correctness question
for the property tests, not for these workloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Instance:
    """One problem with the answer it must produce.

    ``constraint`` is ``(kind, k_plus, k_minus)``. For a signature
    constraint ``d`` is the full block-diagonal weight matrix. ``lambda_plus``
    is ascending, ``lambda_minus`` descending, as the package reports them.
    """

    name: str
    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    constraint: tuple
    sense: str
    value: float | None
    finite: bool
    attained: bool
    m0: int
    lambda_plus: np.ndarray = field(default_factory=lambda: np.empty(0))
    lambda_minus: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def k(self) -> int:
        return self.constraint[1] + self.constraint[2]

    def write_problem(self, path) -> None:
        """Write the instance as a CLI problem document, complex entries as
        ``[re, im]`` pairs. Rows are encoded one at a time, so writing an
        n=512 problem holds no second copy of the matrices in memory."""
        kind, k_plus, k_minus = self.constraint
        head = {"constraint": kind, "sense": self.sense}
        if kind == "signature":
            head.update(k_plus=k_plus, k_minus=k_minus)
        else:
            head["k"] = self.k
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(head)[:-1])
            for key, M in (("a", self.a), ("b", self.b), ("d", self.d)):
                fh.write(f', "{key}": [')
                for i, row in enumerate(M):
                    fh.write((", " if i else "")
                             + json.dumps(np.stack([row.real, row.imag], axis=-1).tolist()))
                fh.write("]")
            fh.write("}")


def _unitary(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _t_inverse(rng, n):
    """T^{-1} for a random T with singular values in [1, 2]."""
    s = rng.uniform(1.0, 2.0, n)
    return (_unitary(rng, n) / s) @ _unitary(rng, n).conj().T


def _congruent(Ti, M):
    out = Ti.conj().T @ M @ Ti
    return 0.5 * (out + out.conj().T)


def _grid(rng, m, lo, hi):
    """m ascending values in (lo, hi), one per cell of an even grid, each
    placed in the middle half of its cell."""
    step = (hi - lo) / m
    return lo + step * (np.arange(m) + rng.uniform(0.25, 0.75, m))


def _psd(rng, k, lo=0.1, hi=2.0):
    """Hermitian PSD k x k matrix with eigenvalues in [lo, hi], descending."""
    w = np.sort(rng.uniform(lo, hi, k))[::-1]
    Q = _unitary(rng, k)
    return (Q * w) @ Q.conj().T, w


def _ky_fan_min(omegas, lambdas):
    """min tr(D X^H A X) over X^H B X = I for positive definite B: the l
    nonnegative weights take the l smallest pencil eigenvalues, the negative
    ones the largest (weights descending, eigenvalues ascending)."""
    k, n = len(omegas), len(lambdas)
    ell = int(np.sum(omegas >= 0))
    sel = np.r_[np.arange(ell), np.arange(n - k + ell, n)]
    return float(omegas @ lambdas[sel])


def canonical_pencil(rng, n, coupled):
    """Genuinely indefinite PSD pencil of size n with n/2 negative B
    eigenvalues. A coupled instance carries one 2x2 Jordan block at lambda0:
    not diagonalizable, m0 = 1, and lambda0 is then both the smallest
    lambda+ and the largest lambda-.

    Returns (A, B, lambda_plus ascending, lambda_minus descending).
    """
    n_minus = n // 2
    n_plus = n - n_minus
    lam0 = float(rng.normal())
    c = 1 if coupled else 0
    lp = _grid(rng, n_plus - c, lam0 + 0.1, lam0 + 3.0)
    lm = _grid(rng, n_minus - c, lam0 - 3.0, lam0 - 0.1)[::-1]
    signs = np.r_[-np.ones(n_minus - c), np.ones(n_plus - c)]
    Lam = np.zeros((n, n))
    J = np.zeros((n, n))
    m = n - 2 * c
    Lam[:m, :m] = np.diag(signs * np.r_[lm, lp])
    J[:m, :m] = np.diag(signs)
    if coupled:
        Lam[m:, m:] = [[0.0, lam0], [lam0, 1.0]]
        J[m:, m:] = [[0.0, 1.0], [1.0, 0.0]]
        lp = np.r_[lam0, lp]
        lm = np.r_[lam0, lm]
    Ti = _t_inverse(rng, n)
    return _congruent(Ti, Lam), _congruent(Ti, J), lp, lm


def indefinite_instance(rng, name, n, coupled, kind, k_plus, k_minus):
    """Minimization over a genuinely indefinite PSD pencil with PSD weights:
    the infimum pairs descending weights with lambda+ ascending (and with
    -lambda- for the -1 columns); it is attained iff no block is coupled."""
    A, B, lp, lm = canonical_pencil(rng, n, coupled)
    Dp, wp = _psd(rng, k_plus)
    Dm, wm = _psd(rng, k_minus)
    D = np.zeros((k_plus + k_minus,) * 2, dtype=complex)
    D[:k_plus, :k_plus] = Dp
    D[k_plus:, k_plus:] = Dm
    value = float(wp @ lp[:k_plus] - wm @ lm[:k_minus])
    return Instance(
        name=name, a=A, b=B, d=D, constraint=(kind, k_plus, k_minus),
        sense="min", value=value, finite=True, attained=not coupled,
        m0=int(coupled), lambda_plus=lp, lambda_minus=lm,
    )


def definite_instance(rng, name, n, k, negative_b, sense):
    """Ky Fan instance: B = +-T^{-H} T^{-1} and mixed-sign weights. With
    negative definite B the constraint is X^H B X = -I, which is the positive
    definite problem on -B; either way the pencil eigenvalues are Lambda."""
    lam = _grid(rng, n, -3.0, 3.0)
    Ti = _t_inverse(rng, n)
    A = _congruent(Ti, np.diag(lam))
    B = _congruent(Ti, np.eye(n))
    if negative_b:
        B = -B
    k_neg = k // 2
    w = np.r_[rng.uniform(0.2, 2.0, k - k_neg), -rng.uniform(0.2, 2.0, k_neg)]
    w = np.sort(w)[::-1]
    Q = _unitary(rng, k)
    D = (Q * w) @ Q.conj().T
    if sense == "min":
        value = _ky_fan_min(w, lam)
    else:
        value = -_ky_fan_min(w, np.sort(-lam))
    constraint = ("minus_identity", 0, k) if negative_b else ("plus_identity", k, 0)
    return Instance(
        name=name, a=A, b=B, d=D, constraint=constraint, sense=sense,
        value=value, finite=True, attained=True, m0=0,
    )


def unbounded_instance(rng, name, n, k):
    """Indefinite pencil with a negative definite D: the infimum is -inf."""
    inst = indefinite_instance(rng, name, n, False, "plus_identity", k, 0)
    shift = float(np.linalg.eigvalsh(inst.d)[-1]) + 0.15
    inst.d = inst.d - shift * np.eye(k)
    inst.value, inst.finite, inst.attained = None, False, False
    return inst


# --------------------------------------------------------------------------
# workloads: each a fixed cycle of instances drawn from the workload seed
# --------------------------------------------------------------------------

PENCIL_N = 128
PENCIL_K = 8
DEFINITE_N = 512
DEFINITE_K = 8
ORACLE_N = 6
ORACLE_K = 2

_PENCIL_CONSTRAINTS = (
    ("plus_identity", PENCIL_K, 0),
    ("minus_identity", 0, PENCIL_K),
    ("signature", PENCIL_K // 2, PENCIL_K // 2),
)


def pencil_scale(seed):
    """Twelve instances: every fourth carries a coupled block, and the
    constraints rotate through +I (k=8), -I (k=8) and signature (4+4), so
    the cycle holds every pairing of the two."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for i in range(12):
        coupled = i % 4 == 3
        kind, kp, km = _PENCIL_CONSTRAINTS[i % 3]
        name = f"pencil-{i}-{kind}-{'coupled' if coupled else 'diag'}"
        out.append(indefinite_instance(rng, name, PENCIL_N, coupled, kind, kp, km))
    return out


def definite_kyfan(seed):
    """Four instances, B positive and negative definite in turn, each sign
    met by both min and max."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for i in range(4):
        negative_b = i % 2 == 1
        sense = "min" if i < 2 else "max"
        name = f"kyfan-{i}-{'neg' if negative_b else 'pos'}-{sense}"
        out.append(definite_instance(rng, name, DEFINITE_N, DEFINITE_K, negative_b, sense))
    return out


# one block of the oracle-verify cycle, interleaved so that any prefix of the
# cycle holds the classes in nearly these shares: 8 definite, 4 unbounded,
# 1 diagonalizable, 3 coupled. The unbounded ops are the cheapest and number
# as many as the diagonalizable and coupled ones together, so the median op
# falls in the middle of the definite class.
ORACLE_PATTERN = (
    "definite", "unbounded", "definite", "coupled",
    "definite", "unbounded", "definite", "diag",
    "definite", "unbounded", "definite", "coupled",
    "definite", "unbounded", "definite", "coupled",
)
ORACLE_BLOCK = len(ORACLE_PATTERN)
ORACLE_BLOCKS = 10


def oracle_verify(seed):
    """Ten blocks of ORACLE_PATTERN, every instance distinct, so a run
    averages over many instances of each class rather than repeating a few.
    The coupled class runs every restart to its budget and sets the tail."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for i in range(ORACLE_BLOCKS * ORACLE_BLOCK):
        cls = ORACLE_PATTERN[i % ORACLE_BLOCK]
        name = f"oracle-{i}-{cls}"
        if cls == "definite":
            out.append(definite_instance(rng, name, ORACLE_N, ORACLE_K, False, "min"))
        elif cls == "unbounded":
            out.append(unbounded_instance(rng, name, ORACLE_N, ORACLE_K))
        else:
            out.append(indefinite_instance(
                rng, name, ORACLE_N, cls == "coupled", "plus_identity", ORACLE_K, 0))
    return out


def sweep_instance(seed, n):
    """The pencil-scale construction at size n, diagonalizable, +I (k=8)."""
    rng = np.random.default_rng([seed, 4, n])
    return indefinite_instance(rng, f"sweep-{n}", n, False, "plus_identity", PENCIL_K, 0)
