"""The three benchmark workloads: their instances, the op each instance is
put through, and the checks every output must pass against generator truth.

Checks use NumPy only, never the package under test, and make no
``numpy.linalg`` call, so a traced run counts only the package's own calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import instances

# the CLI `verify` defaults
VERIFY_RESTARTS = 20
VERIFY_ITERS = 500
VERIFY_SEED = 0

VALUE_RTOL = 1e-8       # analytic value against the closed form
LAMBDA_ATOL = 1e-6      # pencil eigenvalues against the canonical form
FEAS_ATOL = 1e-8        # max|X^H B X - C| of a returned optimizer
OBJ_RTOL = 1e-7         # tr(D X^H A X) of a returned optimizer against its value


def constraint_matrix(inst):
    _, k_plus, k_minus = inst.constraint
    return np.diag(np.r_[np.ones(k_plus), -np.ones(k_minus)])


def constraint_spec(tm, inst):
    kind, k_plus, k_minus = inst.constraint
    if kind == "plus_identity":
        return tm.ConstraintSpec.plus_identity(k_plus)
    if kind == "minus_identity":
        return tm.ConstraintSpec.minus_identity(k_minus)
    return tm.ConstraintSpec.signature(k_plus, k_minus)


def check_answer(inst, finite, attained, value):
    """None if the flags and value agree with the closed form, else why not."""
    if finite != inst.finite:
        return f"finite={finite}, expected {inst.finite}"
    if attained != inst.attained:
        return f"attained={attained}, expected {inst.attained}"
    if inst.finite:
        if value is None or abs(value - inst.value) > VALUE_RTOL * (1.0 + abs(inst.value)):
            return f"value={value}, expected {inst.value}"
    elif value is not None:
        return f"value={value} for an unbounded instance"
    return None


def check_optimizer(inst, X, value):
    if X is None:
        return "optimizer requested but not returned" if inst.attained else None
    if not inst.attained:
        return "optimizer returned for an infimum that is not attained"
    X = np.asarray(X)
    if X.shape != (inst.n, inst.k):
        return f"optimizer has shape {X.shape}"
    res = float(np.max(np.abs(X.conj().T @ inst.b @ X - constraint_matrix(inst))))
    if res > FEAS_ATOL:
        return f"X^H B X misses the constraint by {res:.3e}"
    obj = float(np.real(np.trace(inst.d @ X.conj().T @ inst.a @ X)))
    if abs(obj - value) > OBJ_RTOL * (1.0 + abs(value)):
        return f"objective at X is {obj}, reported value {value}"
    return None


# --------------------------------------------------------------------------
# library ops
# --------------------------------------------------------------------------


def solve_op(tm, inst, spec):
    return tm.solve(inst.a, inst.b, inst.d, spec, sense=inst.sense, want_optimizer=True)


def check_solve(inst, rep):
    return (check_answer(inst, rep.finite, rep.attained, rep.value)
            or check_optimizer(inst, rep.x_opt, rep.value))


def verify_op(tm, inst, spec):
    """Analytic solve plus the oracle at the `verify` defaults, judged by the
    gap rule of `tracemin verify`."""
    from tracemin.cli import GAP_LOWER, GAP_UPPER

    rep = tm.solve(inst.a, inst.b, inst.d, spec, sense=inst.sense)
    # a sup is checked by running the oracle on -A, as `verify` does
    sign = -1.0 if inst.sense == "max" else 1.0
    res = tm.local_search(sign * inst.a, inst.b, inst.d, spec, restarts=VERIFY_RESTARTS,
                          iters=VERIFY_ITERS, seed=VERIFY_SEED)
    if not rep.finite:
        verdict = bool(res.unbounded_flag)
    else:
        gap = res.best_value - sign * rep.value
        verdict = GAP_LOWER <= gap <= GAP_UPPER if rep.attained else gap >= GAP_LOWER
    return rep, res, verdict


def check_verify(inst, out):
    rep, _res, verdict = out
    return (check_answer(inst, rep.finite, rep.attained, rep.value)
            or (None if verdict else "verify verdict FAIL"))


# --------------------------------------------------------------------------
# CLI outputs
# --------------------------------------------------------------------------


def _dec(M):
    a = np.asarray(M, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def check_cli_solve(inst, code, out):
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    why = check_answer(inst, doc["finite"], doc["attained"], doc["value"])
    if why is None:
        why = check_optimizer(inst, _dec(doc["x_opt"]) if "x_opt" in doc else None,
                              doc["value"])
    diag = doc["diagnostics"]
    if why is None and inst.lambda_plus.size:
        if diag.get("m0") != inst.m0:
            return f"m0={diag.get('m0')}, expected {inst.m0}"
        for key, truth in (("lambda_plus", inst.lambda_plus),
                           ("lambda_minus", inst.lambda_minus)):
            got = np.asarray(diag.get(key, []), dtype=float)
            if got.shape != truth.shape or np.max(np.abs(got - truth)) > LAMBDA_ATOL:
                return f"{key} disagrees with the canonical form"
    return why


def check_cli_verify(inst, code, out):
    doc = json.loads(out)
    an = doc["analytic"]
    why = check_answer(inst, an["finite"], an["attained"], an["value"])
    if why is None and (code != 0 or doc["verdict"] != "PASS"):
        why = f"verdict {doc['verdict']} (exit code {code})"
    return why


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``block`` is the length of the repeating class pattern in the instance
    list; the traced run uses the first block, so its counts are per op of a
    fixed mix. ``cli_files`` index the instances written as problem files,
    and ``cli_runs`` fresh CLI runs cycle through them in a timed run."""

    name: str
    why: str
    make: Callable
    op: Callable
    check: Callable
    block: int
    cli_args: tuple
    cli_files: tuple
    cli_runs: int
    cli_check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pencil-scale",
            why="indefinite PSD pencils at n=128: the pencil analysis does nearly all the work",
            make=instances.pencil_scale,
            op=solve_op,
            check=check_solve,
            block=12,
            cli_args=("solve", "--optimizer"),
            cli_files=(0,),
            cli_runs=3,
            cli_check=check_cli_solve,
        ),
        Workload(
            name="definite-kyfan",
            why="definite B at n=512, k=8: spectral and definite work, pencil and oracle idle",
            make=instances.definite_kyfan,
            op=solve_op,
            check=check_solve,
            block=4,
            cli_args=("solve", "--optimizer"),
            cli_files=(0,),
            # parsing the 25 MB problem varies more from run to run
            cli_runs=5,
            cli_check=check_cli_solve,
        ),
        Workload(
            name="oracle-verify",
            why="n=6 solve plus oracle in four classes: the randomized oracle does nearly all the work",
            make=instances.oracle_verify,
            op=verify_op,
            check=check_verify,
            block=instances.ORACLE_BLOCK,
            cli_args=("verify",),
            cli_files=(0, 1, 3, 7),
            cli_runs=12,
            cli_check=check_cli_verify,
        ),
    )
}
