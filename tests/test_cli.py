import gc
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import tracemin
import tracemin.cli
import tracemin.indefinite
from tracemin import __version__
from tracemin import spectral
from tracemin.cli import main
from tracemin.errors import DegenerateDraw
from helpers import check_factorizations, psd_pencil, spy_factorizations

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    payload = json.loads(out or err)
    return code, payload


class TestSolveGoldenFiles:
    def test_ky_fan(self, capsys):
        code, rep = run_json(capsys, "solve", str(FIXTURES / "kyfan.json"))
        assert code == 0
        assert rep["route"] == "definite-min"
        assert rep["finite"] and rep["attained"]
        assert rep["value"] == pytest.approx(3.0, abs=1e-12)
        assert rep["diagnostics"]["inertia_b"] == [3, 0, 0]
        assert rep["tool_version"] == __version__

    def test_indefinite_plus(self, capsys):
        code, rep = run_json(capsys, "solve", str(FIXTURES / "indefinite_plus.json"))
        assert code == 0
        assert rep["route"] == "indefinite-plus"
        assert rep["value"] == pytest.approx(1.0, abs=1e-9)
        d = rep["diagnostics"]
        assert d["inertia_b"] == [2, 0, 1]
        assert d["m0"] == 0
        assert -5.0 - 1e-8 <= d["lambda0"] <= 1.0 + 1e-8

    def test_unbounded(self, capsys):
        code, rep = run_json(capsys, "solve", str(FIXTURES / "unbounded.json"))
        assert code == 0
        assert rep["finite"] is False
        assert rep["value"] is None
        assert rep["attained"] is False

    def test_signature_coupled_d(self, capsys):
        code, rep = run_json(capsys, "solve", str(FIXTURES / "signature_coupled.json"))
        assert code == 2
        assert rep["error"]["code"] == "BLOCK_STRUCTURE_VIOLATED"

    def test_non_psd_pencil(self, capsys):
        code, rep = run_json(capsys, "solve", str(FIXTURES / "nonpsd.json"))
        assert code == 2
        assert rep["error"]["code"] == "NOT_PSD_PENCIL"

    def test_max_sense_indefinite(self, capsys):
        code, rep = run_json(capsys, "solve", str(FIXTURES / "maxsense.json"))
        assert code == 2
        assert rep["error"]["code"] == "UNSUPPORTED_SENSE"

    def test_bad_json(self, capsys):
        code, rep = run_json(capsys, "solve", str(FIXTURES / "bad.json"))
        assert code == 1
        assert rep["error"]["code"] == "PARSE_ERROR"

    def test_missing_file(self, capsys):
        code, rep = run_json(capsys, "solve", str(FIXTURES / "nope.json"))
        assert code == 1
        assert rep["error"]["code"] == "PARSE_ERROR"


def test_solve_with_optimizer(capsys):
    code, rep = run_json(
        capsys, "solve", str(FIXTURES / "kyfan.json"), "--optimizer"
    )
    assert code == 0
    assert "x_opt" in rep
    d = rep["diagnostics"]
    assert d["constraint_residual"] <= 1e-8
    assert d["objective_at_x_opt"] == pytest.approx(rep["value"], abs=1e-9)
    # complex entries are serialized as [re, im] pairs
    assert all(
        isinstance(e, list) and len(e) == 2 for row in rep["x_opt"] for e in row
    )


def test_json_output_bit_stable(capsys):
    outs = []
    for _ in range(2):
        code, out, _err = run(
            capsys, "solve", str(FIXTURES / "kyfan.json"), "--optimizer", "--seed", "7"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_text_mode_carries_same_numbers(capsys):
    _code, rep = run_json(capsys, "solve", str(FIXTURES / "indefinite_plus.json"))
    code, out, _err = run(
        capsys, "solve", str(FIXTURES / "indefinite_plus.json"), "--text"
    )
    assert code == 0
    lines = dict(
        line.split(" = ", 1) for line in out.strip().splitlines()
    )
    assert float(lines["value"]) == rep["value"]
    assert float(lines["diagnostics.lambda0"]) == rep["diagnostics"]["lambda0"]
    assert lines["finite"] == "True"


class TestPencil:
    def test_indefinite_example(self, capsys):
        code, rep = run_json(capsys, "pencil", str(FIXTURES / "indefinite_plus.json"))
        assert code == 0
        assert rep["inertia_b"] == [2, 0, 1]
        assert rep["diagonalizable"] is True
        assert rep["m0"] == 0
        assert rep["lambda_plus"] == pytest.approx([1.0, 2.0], abs=1e-9)
        assert rep["lambda_minus"] == pytest.approx([-5.0], abs=1e-9)

    def test_coupled_block(self, capsys, tmp_path):
        doc = {
            "a": [[0, 0], [0, 1]],
            "b": [[0, 1], [1, 0]],
            "d": [[1]],
            "constraint": "plus_identity",
        }
        path = tmp_path / "coupled.json"
        path.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "pencil", str(path))
        assert code == 0
        assert rep["diagonalizable"] is False
        assert rep["m0"] == 1
        assert rep["lambda0"] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("singular", [False, True])
    def test_one_eigh_of_b(self, capsys, monkeypatch, tmp_path, singular):
        A, B, lp, lm = psd_pencil(np.random.default_rng(31), 7, 5, n_inf=2 * singular,
                                  n_common=int(singular), n_coupled=int(singular))
        doc = {"constraint": "plus_identity", "d": [[1.0]]}
        for key, M in (("a", A), ("b", B)):
            doc[key] = np.stack([M.real, M.imag], axis=-1).tolist()
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(doc))
        calls = spy_factorizations(monkeypatch)
        code, rep = run_json(capsys, "pencil", str(path))
        assert code == 0
        assert rep["m0"] == int(singular)
        assert rep["lambda_plus"] == pytest.approx(lp, abs=1e-9)
        assert rep["lambda_minus"] == pytest.approx(lm, abs=1e-9)
        check_factorizations(calls, B)

    def test_non_psd(self, capsys):
        code, rep = run_json(capsys, "pencil", str(FIXTURES / "nonpsd.json"))
        assert code == 2
        assert rep["error"]["code"] == "NOT_PSD_PENCIL"


class TestVerify:
    def test_pass_on_attained_instance(self, capsys):
        code, rep = run_json(capsys, "verify", str(FIXTURES / "kyfan.json"))
        assert code == 0
        assert rep["verdict"] == "PASS"
        assert -1e-8 <= rep["gap"] <= 1e-4
        assert rep["oracle"]["feasibility_residual"] <= 1e-8

    def test_pass_on_unbounded_instance(self, capsys):
        code, rep = run_json(
            capsys, "verify", str(FIXTURES / "unbounded.json"), "--iters", "2000"
        )
        assert code == 0
        assert rep["verdict"] == "PASS"
        assert rep["analytic"]["finite"] is False
        assert rep["oracle"]["unbounded_flag"] is True
        assert rep["gap"] is None

    def test_no_residual_from_a_diverged_oracle(self, capsys):
        # the residual at a diverged point is rounding at ||X||_F ~ 1e36;
        # like best_value, it is null
        code, rep = run_json(
            capsys, "verify", str(FIXTURES / "unbounded.json"), "--iters", "2000"
        )
        assert code == 0
        assert rep["oracle"]["unbounded_flag"] is True
        assert rep["oracle"]["best_value"] is None
        assert rep["oracle"]["feasibility_residual"] is None

    def test_no_gap_from_a_diverged_oracle(self, capsys, monkeypatch):
        # an oracle that flags a finite problem unbounded has diverged; a gap
        # needs the oracle's best value, so there is none
        real = tracemin.cli.local_search

        def diverging(*args, **kwargs):
            res = real(*args, **kwargs)
            res.unbounded_flag = True
            return res

        monkeypatch.setattr(tracemin.cli, "local_search", diverging)
        code, rep = run_json(capsys, "verify", str(FIXTURES / "kyfan.json"),
                             "--restarts", "2", "--iters", "20")
        assert code == 3
        assert rep["verdict"] == "FAIL"
        assert rep["analytic"]["finite"] is True
        assert rep["oracle"]["unbounded_flag"] is True
        assert rep["oracle"]["best_value"] is None
        assert rep["gap"] is None

    @pytest.mark.parametrize("d", [[[-1]], [[1, 0], [0, -1]]])
    def test_pass_on_a_constant_objective(self, capsys, tmp_path, d):
        # A = 2B: every feasible X gives the value 2*tr(D); a t = 16 boost
        # grows ||X||^2 by about 2e13, where f's rounding error is no progress
        path = _write_problem(tmp_path, {
            "a": [[2, 0, 0], [0, 4, 0], [0, 0, -2]], "b": [[1, 0, 0], [0, 2, 0], [0, 0, -1]],
            "d": d, "constraint": "plus_identity", "k": len(d)})
        code, rep = run_json(capsys, "verify", path)
        assert code == 0
        assert rep["verdict"] == "PASS"
        assert rep["oracle"]["unbounded_flag"] is False
        assert abs(rep["gap"]) <= 1e-12

    def test_unsupported_instance_exits_2(self, capsys):
        code, rep = run_json(capsys, "verify", str(FIXTURES / "nonpsd.json"))
        assert code == 2
        assert rep["error"]["code"] == "NOT_PSD_PENCIL"

    def test_stop_reasons_on_attained_instance(self, capsys):
        code, rep = run_json(capsys, "verify", str(FIXTURES / "kyfan.json"))
        assert code == 0
        reasons = rep["oracle"]["stop_reasons"]
        assert sorted(reasons) == ["budget", "converged", "stalled", "unbounded"]
        # every restart reaches the minimum and stops there on its own
        assert reasons["budget"] == 0 and reasons["unbounded"] == 0
        assert reasons["converged"] + reasons["stalled"] == 20

    def test_stop_reasons_on_unbounded_instance(self, capsys):
        code, rep = run_json(
            capsys, "verify", str(FIXTURES / "unbounded.json"), "--iters", "2000"
        )
        assert code == 0
        assert rep["oracle"]["stop_reasons"]["unbounded"] >= 1

    def test_output_bit_stable(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _err = run(
                capsys, "verify", str(FIXTURES / "indefinite_plus.json"), "--seed", "5"
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag, value", [
        ("--restarts", "0"), ("--restarts", "-1"),
        ("--iters", "0"), ("--iters", "-5"), ("--iters", "abc"),
    ])
    def test_budget_must_be_positive(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(FIXTURES / "kyfan.json"), flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_pass_on_infimum_not_attained(self, capsys):
        # a 2x2 Jordan block at lambda0 = 1: the oracle approaches the
        # infimum from above and never reaches it, so only its lower side
        # is checked
        code, rep = run_json(capsys, "verify", str(FIXTURES / "jordan.json"))
        assert code == 0
        assert rep["verdict"] == "PASS"
        assert rep["analytic"]["attained"] is False
        assert 0.0 <= rep["gap"] <= 1e-3

    def test_fail_below_infimum_not_attained(self, capsys, monkeypatch):
        path = str(FIXTURES / "jordan.json")
        value = tracemin.cli.solve(*tracemin.cli.load_problem(path)).value
        real = tracemin.cli.local_search

        def undershooting(*args, **kwargs):
            res = real(*args, **kwargs)
            res.best_value = value - 1e-6
            return res

        monkeypatch.setattr(tracemin.cli, "local_search", undershooting)
        code, rep = run_json(capsys, "verify", path, "--restarts", "2", "--iters", "20")
        assert code == 3
        assert rep["verdict"] == "FAIL"
        assert rep["analytic"]["attained"] is False
        assert rep["gap"] == pytest.approx(-1e-6, rel=1e-6)

    def test_oracle_error_is_reported_as_json(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise DegenerateDraw("no restart reached a finite value")

        monkeypatch.setattr(tracemin.cli, "local_search", failing)
        code, rep = run_json(capsys, "verify", str(FIXTURES / "kyfan.json"))
        assert code == 2
        assert rep["error"]["code"] == "DEGENERATE_DRAW"


class TestCounterexample:
    def test_golden_values(self, capsys):
        code, rep = run_json(
            capsys, "counterexample", "--mu", "2", "--delta", "0.25"
        )
        assert code == 0
        assert rep["tau_star"] == pytest.approx(0.2987568425807008, abs=1e-12)
        assert rep["sigma_star_plus"] == pytest.approx(0.5140989589607083, abs=1e-12)
        assert rep["sigma_star_minus"] == pytest.approx(-0.5140989589607083, abs=1e-12)
        assert rep["f_min"] == pytest.approx(1.4142135623730951, abs=1e-14)
        assert rep["margin"] == pytest.approx(0.08578643762690485, abs=1e-14)
        assert rep["margin"] > 0

    def test_domain_guard(self, capsys):
        code, rep = run_json(
            capsys, "counterexample", "--mu", "0.5", "--delta", "0.25"
        )
        assert code == 1
        assert rep["error"]["code"] == "PARSE_ERROR"


def test_selftest(capsys):
    code, rep = run_json(capsys, "selftest")
    assert code == 0
    assert rep["verdict"] == "PASS"
    assert all(c["status"] == "PASS" for c in rep["checks"])


def test_selftest_reports_a_failing_check(capsys, monkeypatch):
    def failing(params):
        raise ValueError("margin lost")

    monkeypatch.setattr(tracemin.cli, "counterexample_gap", failing)
    code, rep = run_json(capsys, "selftest")
    assert code == 3
    assert rep["verdict"] == "FAIL"
    failed = [c for c in rep["checks"] if c["status"] == "FAIL"]
    assert failed == [{"name": "counterexample_margin", "status": "FAIL",
                       "detail": "margin lost"}]


def test_seed_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("TRACEMIN_SEED", "123")
    code, rep = run_json(capsys, "selftest")
    assert code == 0
    assert rep["verdict"] == "PASS"


@pytest.mark.parametrize("argv", [["selftest"], ["verify", "kyfan.json"],
                                  ["solve", "kyfan.json"]])
def test_malformed_seed_env_variable_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("TRACEMIN_SEED", "abc")
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    # an explicit --seed is parsed in its place
    code, rep = run_json(capsys, "solve", str(FIXTURES / "kyfan.json"), "--seed", "5")
    assert code == 0 and rep["finite"]


@pytest.mark.parametrize("argv", [["selftest"], ["verify", "kyfan.json"],
                                  ["solve", "kyfan.json"]])
@pytest.mark.parametrize("from_env", [False, True])
def test_negative_seed_is_a_usage_error(capsys, monkeypatch, argv, from_env):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    if from_env:
        monkeypatch.setenv("TRACEMIN_SEED", "-2")
    else:
        argv += ["--seed", "-1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be a non-negative integer" in capsys.readouterr().err


def test_verify_runs_every_restart_at_full_plus_signature(capsys, tmp_path):
    # k = n+ = 5: every start needs all of B's + directions
    path = _write_problem(tmp_path, {
        "a": np.diag(np.arange(1.0, 11.0)).tolist(),
        "b": np.diag([1.0] * 5 + [-1.0] * 5).tolist(),
        "d": np.eye(5).tolist(), "constraint": "plus_identity", "k": 5})
    code, rep = run_json(capsys, "verify", path)
    assert code == 0 and rep["verdict"] == "PASS"
    assert sum(rep["oracle"]["stop_reasons"].values()) == 20


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert __version__ in out


def test_solve_runs_one_pencil_analysis(capsys, monkeypatch):
    calls = []
    real = tracemin.indefinite.finite_eigenvalues

    def counted(A, B):
        calls.append(1)
        return real(A, B)

    monkeypatch.setattr(tracemin.indefinite, "finite_eigenvalues", counted)
    monkeypatch.setattr(tracemin.cli, "finite_eigenvalues", counted)
    code, rep = run_json(capsys, "solve", str(FIXTURES / "indefinite_plus.json"))
    assert code == 0
    assert rep["diagnostics"]["m0"] == 0
    assert len(calls) == 1


def test_cli_import_leaves_scipy_optimize_unloaded():
    src = str(pathlib.Path(tracemin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, tracemin.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("sign", [1, -1])
def test_definite_solve_makes_no_eigvalsh_call(capsys, monkeypatch, tmp_path, sign):
    # the route decision carries B's inertia; the CLI does not recompute it
    calls = []
    real = np.linalg.eigvalsh

    def counted(M, *args, **kwargs):
        calls.append(np.shape(M))
        return real(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    doc = json.loads((FIXTURES / "kyfan.json").read_text())
    doc["b"] = [[sign * v for v in row] for row in doc["b"]]
    if sign < 0:
        doc["constraint"] = "minus_identity"
    path = tmp_path / "kyfan.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "solve", str(path), "--optimizer")
    assert code == 0
    assert rep["diagnostics"]["inertia_b"] == ([3, 0, 0] if sign > 0 else [0, 0, 3])
    assert rep["value"] == pytest.approx(3.0, abs=1e-12)
    assert calls == []


class TestLoadPausesTheCollector:
    """`load_problem` parses with the cyclic collector paused and leaves it
    as the caller had it."""

    def test_paused_during_the_parse_and_enabled_after(self, monkeypatch):
        seen = []
        real = json.load

        def spy(fh):
            seen.append(gc.isenabled())
            return real(fh)

        monkeypatch.setattr(tracemin.cli.json, "load", spy)
        assert gc.isenabled()
        tracemin.cli.load_problem(FIXTURES / "kyfan.json")
        assert seen == [False]
        assert gc.isenabled()

    def test_stays_disabled_if_the_caller_disabled_it(self):
        gc.disable()
        try:
            tracemin.cli.load_problem(FIXTURES / "kyfan.json")
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_enabled_again_after_invalid_json(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text('{"a": [[1, 2]')
        with pytest.raises(tracemin.ParseError, match="invalid JSON"):
            tracemin.cli.load_problem(path)
        assert gc.isenabled()


class TestParseMatrix:
    """The np.array fast path of `_parse_matrix` and each input that falls
    back to the entry-by-entry loop."""

    @pytest.mark.parametrize("obj", [
        [[1, 2], [3, 4]],
        [[1.5, -2], [True, 0]],
        [[[1, 2], [3.5, -4]], [[0, 0], [1e300, -1e-300]]],
        [[2**63 + 5, 1]],
    ])
    def test_fast_path_matches_entry_loop(self, obj):
        got = tracemin.cli._parse_matrix(obj, "a")
        want = np.array([[tracemin.cli._parse_entry(e) for e in r] for r in obj],
                        dtype=complex)
        assert got.dtype == complex
        assert np.array_equal(got, want)

    def test_numbers_mixed_with_pairs_fall_back(self):
        got = tracemin.cli._parse_matrix([[1, [2, 3]], [[4, -5], 6.5]], "a")
        assert np.array_equal(got, np.array([[1, 2 + 3j], [4 - 5j, 6.5]]))

    def test_huge_ints_fall_back(self):
        got = tracemin.cli._parse_matrix([[2**70, 1.5], [-(2**64), 0]], "a")
        assert got[0, 0] == complex(2**70) and got[1, 0] == complex(-(2**64))

    @pytest.mark.parametrize("obj, message", [
        ([[1, 2], [3]], "field 'a' has ragged or empty rows"),
        ([["x", 1]], "matrix entry must be a number or [re, im] pair, got 'x'"),
        ([[None, 1]], "matrix entry must be a number or [re, im] pair, got None"),
        ([[[1, 2], [1, 2, 3]]],
         "matrix entry must be a number or [re, im] pair, got [1, 2, 3]"),
        ([[[1, 2, 3]]], "matrix entry must be a number or [re, im] pair, got [1, 2, 3]"),
        ([[["1", 2]]], "matrix entry must be a number or [re, im] pair, got ['1', 2]"),
    ])
    def test_fallback_keeps_messages(self, obj, message):
        with pytest.raises(tracemin.ParseError) as exc:
            tracemin.cli._parse_matrix(obj, "a")
        assert str(exc.value) == message

    @pytest.mark.parametrize("obj", [[[10**400, 1]], [[[1, -(10**400)]]]])
    def test_entry_past_a_float_is_a_parse_error(self, obj):
        with pytest.raises(tracemin.ParseError, match="is too large for a float"):
            tracemin.cli._parse_matrix(obj, "a")

    @pytest.mark.parametrize("field", ["a", "d"])
    def test_entry_past_a_float_exits_1(self, capsys, tmp_path, field):
        # json reads a 400-digit integer exactly; no float holds it
        doc = json.loads((FIXTURES / "kyfan.json").read_text())
        doc[field][0][0] = 10**400
        path = tmp_path / "huge_entry.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["code"] == "PARSE_ERROR"

    def test_fallback_exit_code(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "kyfan.json").read_text())
        doc["a"][0][0] = None
        path = tmp_path / "bad_entry.json"
        path.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "solve", str(path))
        assert code == 1
        assert rep["error"]["code"] == "PARSE_ERROR"
        assert rep["error"]["message"] == (
            "matrix entry must be a number or [re, im] pair, got None")


def _nested(depth):
    entry = 1
    for _ in range(depth):
        entry = [entry]
    return entry


@pytest.mark.parametrize("entry", [_nested(500), 10**400], ids=["nested", "huge"])
def test_parse_error_message_stays_short(capsys, tmp_path, entry):
    # the message abbreviates the bad entry instead of echoing all of it
    doc = json.loads((FIXTURES / "kyfan.json").read_text())
    doc["a"][0][0] = entry
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "PARSE_ERROR"
    assert len(error["message"]) < 200


def _write_problem(tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


MALFORMED = {
    "non_hermitian_a": {"a": [[1, 2], [0, 1]], "b": [[1, 0], [0, -1]], "d": [[1]],
                        "constraint": "plus_identity"},
    "size_mismatch": {"a": [[1, 0], [0, 2]], "b": [[1, 0, 0], [0, -1, 0], [0, 0, 1]],
                      "d": [[1]], "constraint": "plus_identity"},
    "k_above_n": {"a": [[1, 0], [0, 2]], "b": [[1, 0], [0, -1]],
                  "d": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "constraint": "plus_identity"},
}


@pytest.mark.parametrize("command", ["solve", "pencil", "verify"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_problem_is_a_parse_error(capsys, tmp_path, command, name):
    code, out, err = run(capsys, command, _write_problem(tmp_path, MALFORMED[name]))
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["code"] == "PARSE_ERROR"


PLUS_DOC = {"a": [[1, 0], [0, 2]], "b": [[1, 0], [0, 1]], "d": [[1]],
         "constraint": "plus_identity"}
SIGNATURE_B = {"a": [[1, 0], [0, 2]], "b": [[1, 0], [0, -1]], "constraint": "signature"}


@pytest.mark.parametrize("doc, message", [
    (dict(PLUS_DOC, a=[]), "field 'a' must be a non-empty list of rows"),
    ([PLUS_DOC], "problem file must be a JSON object"),
    ({k: v for k, v in PLUS_DOC.items() if k != "a"}, "missing required field 'a'"),
    (dict(PLUS_DOC, constraint="foo"), "unknown constraint 'foo'"),
    ({k: v for k, v in PLUS_DOC.items() if k != "d"},
     "constraint 'plus_identity' needs field 'd'"),
    (dict(SIGNATURE_B, d=[[1, 0], [0, 1]], k_plus=1),
     "signature with full d needs k_plus and k_minus"),
    (dict(SIGNATURE_B, d_plus=[[1]]), "signature needs d, or d_plus and d_minus"),
    (dict(SIGNATURE_B, d=[[1, 0], [0, 1]], k_plus=3, k_minus=-1),
     "signature split must be nonnegative"),
], ids=["empty_a", "not_object", "missing_a", "unknown_constraint", "missing_d",
        "missing_k_minus", "missing_d_minus", "negative_split"])
def test_malformed_document_message(capsys, tmp_path, doc, message):
    code, out, err = run(capsys, "solve", _write_problem(tmp_path, doc))
    assert code == 1 and out == ""
    [line] = err.splitlines()
    assert json.loads(line)["error"] == {"code": "PARSE_ERROR", "message": message}


def test_overflowing_matrix_is_a_parse_error(capsys, tmp_path):
    # every entry is finite, but (A + A^H)/2 is not
    doc = dict(PLUS_DOC, a=[[1.5e308, 0], [0, 1]])
    code, out, err = run(capsys, "solve", _write_problem(tmp_path, doc))
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "PARSE_ERROR" and "overflow" in error["message"]


SIGNATURE_DOC = {"a": [[1, 0, 0], [0, 2, 0], [0, 0, 5]], "b": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
                 "d": [[1, 0], [0, 1]], "constraint": "signature", "k_plus": 1, "k_minus": 1}
SPLIT_DOC = {"a": SIGNATURE_DOC["a"], "b": SIGNATURE_DOC["b"], "d_plus": [[1]],
             "d_minus": [[1]], "constraint": "signature"}


@pytest.mark.parametrize("base, field, value", [
    ("kyfan", "k", 2.7), ("kyfan", "k", 2.0), ("kyfan", "k", "2"), ("kyfan", "k", True),
    ("signature", "k_plus", 1.9), ("signature", "k_minus", "1"),
    ("signature", "k_plus", None), ("split", "k_plus", 1.0), ("split", "k_minus", False),
])
def test_counts_must_be_json_integers(capsys, tmp_path, base, field, value):
    doc = {"kyfan": json.loads((FIXTURES / "kyfan.json").read_text()),
           "signature": dict(SIGNATURE_DOC), "split": dict(SPLIT_DOC)}[base]
    doc[field] = value
    code, rep = run_json(capsys, "solve", _write_problem(tmp_path, doc))
    assert code == 1
    assert rep["error"]["code"] == "PARSE_ERROR"
    assert rep["error"]["message"] == f"field {field!r} must be an integer, got {value!r}"


def test_split_counts_must_match_the_blocks(capsys, tmp_path):
    # a 1 x 1 d_plus used to be broadcast into a 2 x 2 block of ones
    code, rep = run_json(capsys, "solve", _write_problem(tmp_path, dict(SPLIT_DOC, k_plus=2)))
    assert code == 1
    assert rep["error"] == {"code": "PARSE_ERROR",
                            "message": "block sizes must match (k_plus, k_minus)"}


def test_split_block_is_judged_hermitian_at_its_own_scale(capsys, tmp_path):
    # d_plus is off Hermitian by 1e-11 of its own entries, within tolerance
    # only at the scale of the full D that d_minus = [[1e10]] sets
    doc = dict(SPLIT_DOC, d_plus=[[1e-20, 1e-20], [1e-20 + 1e-31, 1e-20]], d_minus=[[1e10]])
    code, rep = run_json(capsys, "solve", _write_problem(tmp_path, doc))
    assert code == 1
    assert rep["error"] == {"code": "PARSE_ERROR",
                            "message": "matrix is not Hermitian within tolerance"}


@pytest.mark.parametrize("doc", [SIGNATURE_DOC, SPLIT_DOC])
def test_integer_counts_are_accepted(capsys, tmp_path, doc):
    code, rep = run_json(capsys, "solve", _write_problem(tmp_path, doc))
    assert code == 0
    assert rep["value"] == pytest.approx(1.0 + 5.0, abs=1e-9)


@pytest.mark.parametrize("argv", [("solve", "--optimizer"), ("verify",), ("pencil",)])
@pytest.mark.parametrize("fixture, k", [("kyfan.json", 2), ("indefinite_plus.json", 1)])
def test_each_command_validates_each_matrix_once(capsys, monkeypatch, argv, fixture, k):
    validated = []
    real_init = spectral.HermitianMatrix.__init__

    def counting_init(self, entries):
        validated.append(np.shape(entries))
        real_init(self, entries)

    monkeypatch.setattr(spectral.HermitianMatrix, "__init__", counting_init)
    code, _rep = run_json(capsys, argv[0], str(FIXTURES / fixture), *argv[1:])
    assert code == 0
    assert sorted(validated) == sorted([(3, 3), (3, 3), (k, k)])


@pytest.mark.parametrize("fixture", ["maxsense.json", "kyfan.json"])
def test_verify_on_max_problem_validates_a_and_b_once(capsys, monkeypatch, tmp_path,
                                                      fixture):
    # the oracle checks a sup on -A, the exact negation of the validated A;
    # maxsense.json (indefinite B) stops at the route error, kyfan.json made a
    # max problem reaches the oracle
    doc = json.loads((FIXTURES / fixture).read_text())
    doc["sense"] = "max"
    path = tmp_path / fixture
    path.write_text(json.dumps(doc))
    validated = []
    real_init = spectral.HermitianMatrix.__init__

    def counting_init(self, entries):
        validated.append(np.shape(entries))
        real_init(self, entries)

    monkeypatch.setattr(spectral.HermitianMatrix, "__init__", counting_init)
    code, rep = run_json(capsys, "verify", str(path), "--restarts", "4", "--iters", "100")
    n = len(doc["a"])
    assert [shape for shape in validated if shape == (n, n)] == [(n, n), (n, n)]
    if fixture == "kyfan.json":
        assert code == 0 and rep["analytic"]["route"] == "definite-max"


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_signature_without_escape_is_refused(capsys, command):
    # D+ = -0.5 has no escape to -inf (f = 1.5*sinh(t)^2 >= 0), so no -inf is
    # reported and `verify` runs no oracle against it
    code, out, err = run(capsys, command, str(FIXTURES / "signature_no_escape.json"))
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert json.loads(err)["error"]["code"] == "UNSUPPORTED_SENSE"


@pytest.mark.parametrize("negated_b", [False, True])
def test_verify_on_max_problem_reads_a_zero_gap_as_plus_zero(
        capsys, tmp_path, monkeypatch, negated_b):
    # an oracle whose best on -A is exactly minus the analytic max has a gap
    # of that min's excess, +0.0 and not -0.0
    doc = json.loads((FIXTURES / "kyfan.json").read_text())
    doc["sense"] = "max"
    if negated_b:
        doc["b"] = [[-entry for entry in row] for row in doc["b"]]
        doc["constraint"] = "minus_identity"
    path = _write_problem(tmp_path, doc)
    _, solved = run_json(capsys, "solve", path)
    real = tracemin.cli.local_search

    def exact(*args, **kwargs):
        res = real(*args, **kwargs)
        res.best_value = -solved["value"]
        return res

    monkeypatch.setattr(tracemin.cli, "local_search", exact)
    code, rep = run_json(capsys, "verify", path)
    assert code == 0 and rep["verdict"] == "PASS"
    assert rep["analytic"]["route"] == "definite-max" + "-negated-b" * negated_b
    assert rep["gap"] == 0.0 and math.copysign(1.0, rep["gap"]) == 1.0
    assert rep["oracle"]["best_value"] == rep["analytic"]["value"]


def test_negation_is_exact_and_not_validated_again(monkeypatch):
    H = spectral.HermitianMatrix(np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -3.0]]))
    monkeypatch.setattr(spectral.HermitianMatrix, "__init__", None)
    neg = -H
    assert isinstance(neg, spectral.HermitianMatrix)
    assert np.array_equal(neg.mat, -H.mat)
    assert np.allclose(neg.eigh()[0], -H.eigh()[0][::-1], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("command", ["solve", "pencil", "verify"])
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                         ids=["undecodable", "nested"])
def test_undecodable_problem_file_is_a_parse_error(capsys, tmp_path, command, content):
    path = tmp_path / "problem.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == ""
    [line] = err.splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == "PARSE_ERROR"
    assert error["message"].startswith(f"invalid JSON in {path}: ")


# per subcommand: the arguments of a run that succeeds, whether it takes
# --seed, and the arguments of a run that reports an error (selftest has none)
SURFACE = {
    "solve": ([str(FIXTURES / "kyfan.json")], True, [str(FIXTURES / "bad.json")]),
    "pencil": ([str(FIXTURES / "kyfan.json")], False, [str(FIXTURES / "bad.json")]),
    "verify": ([str(FIXTURES / "kyfan.json"), "--restarts", "2", "--iters", "50"], True,
               [str(FIXTURES / "bad.json")]),
    "counterexample": (["--mu", "2", "--delta", "0.25"], False,
                       ["--mu", "0.5", "--delta", "0.25"]),
    "selftest": ([], True, None),
}


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_flag_surface_and_one_tool_version_per_report(capsys, command):
    args, seeded, failing = SURFACE[command]
    usage_errors = [[*args, "--json", "--text"]] + ([] if seeded else [[*args, "--seed", "1"]])
    for argv in usage_errors:
        with pytest.raises(SystemExit) as exc:
            main([command, *argv])
        assert exc.value.code == 2, argv
    capsys.readouterr()
    runs = [(args, 0)] + ([([*args, "--seed", "1"], 0)] if seeded else [])
    runs += [(failing, 1)] if failing else []
    for argv, expected in runs:
        for mode in ("--json", "--text"):
            code, out, err = run(capsys, command, *argv, mode)
            assert code == expected, (argv, mode)
            # one report, on stdout for a success and on stderr for an error
            report = out or err
            assert (out, err) == ((report, "") if code == 0 else ("", report))
            assert report.count("tool_version") == 1
            if mode == "--json":
                assert json.loads(report)["tool_version"] == __version__
            else:
                assert f"tool_version = {__version__}" in report.splitlines()
