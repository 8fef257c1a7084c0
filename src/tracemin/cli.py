"""Command-line front end.

Subcommands: solve, pencil, verify, counterexample, selftest. Problems are
JSON documents; reports are emitted as JSON (default) or flat text with
identical numeric content. Exit codes: 0 success, 1 input error,
2 infeasible/unsupported, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import ParseError, TraceminError
from .indefinite import solve
from .oracle import (
    STOP_REASONS,
    CounterexampleParams,
    constraint_residual,
    counterexample_gap,
    counterexample_stationary,
    local_search,
    objective,
)
from .pencil import finite_eigenvalues
from .problem import ConstraintSpec, Problem, signature_problem

GAP_LOWER = -1e-8   # oracle may undershoot the analytic value by at most this
GAP_UPPER = 1e-4    # ... and may exceed it by at most this on attained instances


# ---------------------------------------------------------------------------
# problem-file parsing
# ---------------------------------------------------------------------------


def _parse_entry(e):
    if isinstance(e, (int, float)):
        return complex(e)
    if isinstance(e, list) and len(e) == 2 and all(
        isinstance(x, (int, float)) for x in e
    ):
        return complex(e[0], e[1])
    raise ParseError(f"matrix entry must be a number or [re, im] pair, got {e!r}")


def _parse_matrix(obj, name):
    if not (isinstance(obj, list) and obj and all(isinstance(r, list) for r in obj)):
        raise ParseError(f"field {name!r} must be a non-empty list of rows")
    ncols = len(obj[0])
    if ncols == 0 or any(len(r) != ncols for r in obj):
        raise ParseError(f"field {name!r} has ragged or empty rows")
    # fast path: a rectangular array of plain numbers or of [re, im] pairs;
    # anything else (strings, None, pairs mixed with numbers, integers beyond
    # 64 bits) takes the entry-by-entry loop and its error messages
    try:
        arr = np.array(obj)
    except ValueError:
        arr = None
    if arr is not None and arr.dtype.kind in "biuf":
        if arr.ndim == 2:
            return arr.astype(complex)
        if arr.ndim == 3 and arr.shape[2] == 2:
            out = np.empty(arr.shape[:2], dtype=complex)
            out.real = arr[..., 0]
            out.imag = arr[..., 1]
            return out
    return np.array([[_parse_entry(e) for e in r] for r in obj], dtype=complex)


def _parse_count(doc, name):
    """The JSON integer in field ``name``, or None when the field is absent."""
    if name not in doc:
        return None
    if type(doc[name]) is not int:
        raise ParseError(f"field {name!r} must be an integer, got {doc[name]!r}")
    return doc[name]


def parse_problem(doc: dict) -> Problem:
    """Validate a problem document into a `Problem`."""
    if not isinstance(doc, dict):
        raise ParseError("problem file must be a JSON object")
    for req in ("a", "b", "constraint"):
        if req not in doc:
            raise ParseError(f"missing required field {req!r}")
    A = _parse_matrix(doc["a"], "a")
    B = _parse_matrix(doc["b"], "b")
    kind = doc["constraint"]
    if kind not in ("plus_identity", "minus_identity", "signature"):
        raise ParseError(f"unknown constraint {kind!r}")
    sense = doc.get("sense", "min")
    try:
        if kind != "signature":
            if "d" not in doc:
                raise ParseError(f"constraint {kind!r} needs field 'd'")
            D = _parse_matrix(doc["d"], "d")
            k = _parse_count(doc, "k")
            return Problem.of(A, B, D, ConstraintSpec(kind, D.shape[0] if k is None else k),
                              sense)
        if "d" in doc:
            D = _parse_matrix(doc["d"], "d")
            k_plus, k_minus = _parse_count(doc, "k_plus"), _parse_count(doc, "k_minus")
            if k_plus is None or k_minus is None:
                raise ParseError("signature with full d needs k_plus and k_minus")
            return Problem.of(A, B, D, ConstraintSpec.signature(k_plus, k_minus), sense)
        if "d_plus" not in doc or "d_minus" not in doc:
            raise ParseError("signature needs d, or d_plus and d_minus")
        return signature_problem(
            A, B, _parse_matrix(doc["d_plus"], "d_plus"), _parse_matrix(doc["d_minus"], "d_minus"),
            _parse_count(doc, "k_plus"), _parse_count(doc, "k_minus"), sense,
        )
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from exc


def load_problem(path: str) -> Problem:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return parse_problem(doc)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _enc_matrix(M):
    M = np.asarray(M)
    return [[[float(np.real(e)), float(np.imag(e))] for e in row] for row in M]


def _emit(report: dict, mode: str, out=None):
    out = out or sys.stdout
    if mode == "text":
        for line in _text_lines(report, ""):
            print(line, file=out)
    else:
        print(json.dumps(report, sort_keys=True), file=out)


def _text_lines(obj, prefix):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _text_lines(obj[key], f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        for i, item in enumerate(obj):
            yield from _text_lines(item, f"{prefix}{i}.")
    else:
        name = prefix[:-1] if prefix.endswith(".") else prefix
        if isinstance(obj, float):
            yield f"{name} = {obj!r}"
        elif isinstance(obj, list):
            yield f"{name} = {json.dumps(obj)}"
        else:
            yield f"{name} = {obj}"


def _error_report(exc: TraceminError) -> dict:
    return {
        "error": {"code": exc.code, "message": str(exc)},
        "tool_version": __version__,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    p = load_problem(args.path)
    rep = solve(*p, want_optimizer=args.optimizer)
    inb = rep.inertia_b
    diagnostics = {
        "inertia_b": [inb.n_plus, inb.n_zero, inb.n_minus],
    }
    if rep.analysis is not None:
        analysis = rep.analysis
        diagnostics["lambda0"] = analysis.lambda0
        diagnostics["lambda_plus"] = [float(v) for v in analysis.lambda_plus]
        diagnostics["lambda_minus"] = [float(v) for v in analysis.lambda_minus]
        diagnostics["m0"] = analysis.m0
    report = {
        "route": rep.route,
        "finite": rep.finite,
        "value": rep.value,
        "attained": rep.attained,
        "pairing": [[w, lam, role] for (w, lam, role) in rep.pairing],
        "warnings": list(rep.warnings),
        "diagnostics": diagnostics,
        "tool_version": __version__,
    }
    if rep.x_opt is not None:
        report["x_opt"] = _enc_matrix(rep.x_opt)
        diagnostics["constraint_residual"] = constraint_residual(
            p.B, rep.x_opt, p.constraint.matrix()
        )
        diagnostics["objective_at_x_opt"] = objective(p.A, p.D, rep.x_opt)
    _emit(report, args.mode)
    return 0


def cmd_pencil(args) -> int:
    p = load_problem(args.path)
    analysis = finite_eigenvalues(p.A, p.B)
    inb = analysis.inertia_b
    report = {
        "inertia_b": [inb.n_plus, inb.n_zero, inb.n_minus],
        "lambda0": analysis.lambda0,
        "lambda_plus": [float(v) for v in analysis.lambda_plus],
        "lambda_minus": [float(v) for v in analysis.lambda_minus],
        "diagonalizable": analysis.diagonalizable,
        "m0": analysis.m0,
        "tool_version": __version__,
    }
    _emit(report, args.mode)
    return 0


def cmd_verify(args) -> int:
    p = load_problem(args.path)
    rep = solve(*p, want_optimizer=False)
    # a sup is checked by running the oracle on -A, so its min matches it
    oracle = local_search(
        -p.A if p.sense == "max" else p.A, p.B, p.D, p.constraint,
        restarts=args.restarts, iters=args.iters, seed=args.seed,
    )
    if p.sense == "max":
        oracle_best = -oracle.best_value
        gap = rep.value - oracle_best if rep.finite else None
    else:
        oracle_best = oracle.best_value
        gap = oracle_best - rep.value if rep.finite else None
    if rep.finite:
        if rep.attained:
            verdict = GAP_LOWER <= gap <= GAP_UPPER
        else:
            # infimum not attained: oracle must stay above it, close is a bonus
            verdict = gap >= GAP_LOWER
    else:
        verdict = bool(oracle.unbounded_flag)
    report = {
        "analytic": {"route": rep.route, "finite": rep.finite,
                     "value": rep.value, "attained": rep.attained},
        "oracle": {"best_value": oracle_best if not oracle.unbounded_flag else None,
                   "unbounded_flag": oracle.unbounded_flag,
                   "iterations": oracle.iterations,
                   "feasibility_residual": oracle.feasibility_residual,
                   "stop_reasons": {reason: oracle.stop_reasons.count(reason)
                                    for reason in STOP_REASONS}},
        "gap": gap,
        "verdict": "PASS" if verdict else "FAIL",
        "tool_version": __version__,
    }
    _emit(report, args.mode)
    return 0 if verdict else 3


def cmd_counterexample(args) -> int:
    try:
        p = CounterexampleParams(mu=args.mu, delta=args.delta)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    tau_star, sig_minus, sig_plus = counterexample_stationary(p)
    f_min, bound, margin = counterexample_gap(p)
    report = {
        "mu": p.mu,
        "delta": p.delta,
        "gamma": p.gamma,
        "nu": p.nu,
        "tau_star": tau_star,
        "sigma_star_minus": sig_minus,
        "sigma_star_plus": sig_plus,
        "f_min": f_min,
        "bound": bound,
        "margin": margin,
        "tool_version": __version__,
    }
    _emit(report, args.mode)
    return 0


def cmd_selftest(args) -> int:
    """Built-in smoke checks covering each solver route and the oracle."""
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append({"name": name, "status": "PASS"})
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            checks.append({"name": name, "status": "FAIL", "detail": str(exc)})

    def ky_fan():
        rep = solve(np.diag([1.0, 2.0, 3.0]), np.eye(3), np.eye(2),
                    ConstraintSpec.plus_identity(2))
        assert abs(rep.value - 3.0) < 1e-12, rep.value

    def indefinite_plus():
        rep = solve(np.diag([1.0, 2.0, 5.0]), np.diag([1.0, 1.0, -1.0]),
                    np.eye(1), ConstraintSpec.plus_identity(1))
        assert rep.finite and abs(rep.value - 1.0) < 1e-9, rep.value

    def dichotomy():
        rep = solve(np.diag([1.0, 2.0]), np.diag([1.0, -1.0]),
                    np.array([[-1.0]]), ConstraintSpec.plus_identity(1))
        assert not rep.finite

    def oracle_match():
        res = local_search(np.diag([1.0, 2.0, 3.0]), np.eye(3), np.eye(2),
                           ConstraintSpec.plus_identity(2),
                           restarts=8, iters=200, seed=args.seed)
        assert abs(res.best_value - 3.0) < 1e-5, res.best_value

    def counterexample():
        f_min, bound, margin = counterexample_gap(
            CounterexampleParams(mu=2.0, delta=0.25)
        )
        assert margin > 0 and f_min < bound

    check("ky_fan_definite", ky_fan)
    check("indefinite_plus", indefinite_plus)
    check("finiteness_dichotomy", dichotomy)
    check("oracle_matches_analytic", oracle_match)
    check("counterexample_margin", counterexample)

    ok = all(c["status"] == "PASS" for c in checks)
    _emit({"checks": checks, "verdict": "PASS" if ok else "FAIL",
           "tool_version": __version__}, args.mode)
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _default_seed() -> int:
    raw = os.environ.get("TRACEMIN_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        return 0


def _positive_int(text: str) -> int:
    """argparse type of the oracle budgets: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_mode_flags(sp):
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--json", dest="mode", action="store_const", const="json")
    grp.add_argument("--text", dest="mode", action="store_const", const="text")
    sp.set_defaults(mode="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracemin",
        description="Exact trace optimization under congruence constraints.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a problem file")
    sp.add_argument("path")
    sp.add_argument("--optimizer", action="store_true",
                    help="include an attaining X in the report when one exists")
    sp.add_argument("--seed", type=int, default=_default_seed())
    _add_mode_flags(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("pencil", help="analyze the pencil A - lambda*B")
    sp.add_argument("path")
    _add_mode_flags(sp)
    sp.set_defaults(func=cmd_pencil)

    sp = sub.add_parser("verify", help="cross-check analytic value vs oracle")
    sp.add_argument("path")
    sp.add_argument("--restarts", type=_positive_int, default=20)
    sp.add_argument("--iters", type=_positive_int, default=500)
    sp.add_argument("--seed", type=int, default=_default_seed())
    _add_mode_flags(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("counterexample",
                        help="closed forms of the coupled-weight counterexample")
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    _add_mode_flags(sp)
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("selftest", help="run built-in smoke checks")
    sp.add_argument("--seed", type=int, default=_default_seed())
    _add_mode_flags(sp)
    sp.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. A `TraceminError` is reported as JSON (or text)
    on stderr: exit 1 for a `ParseError`, 2 for any other."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TraceminError as exc:
        _emit(_error_report(exc), args.mode, sys.stderr)
        return 1 if isinstance(exc, ParseError) else 2


if __name__ == "__main__":
    sys.exit(main())
