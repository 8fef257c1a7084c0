"""The oracle certifies the analytic solvers, so the two sides share no code
beyond the common building blocks (spectral, problem, errors); and no module
solves a nonsymmetric eigenproblem."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tracemin"
ANALYTIC = ("definite", "indefinite", "pencil")
# nonsymmetric eigensolvers and QZ: every spectrum comes from a Hermitian or
# definite problem
NONSYMMETRIC = {"eig", "eigvals", "qz", "ordqz"}


def _imported_modules(name):
    """The tracemin modules that src/tracemin/<name>.py imports from."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and base.startswith("tracemin"):
                base = base[len("tracemin"):].lstrip(".")
            elif node.level == 0:
                continue
            # `from . import x` names the modules themselves
            found.update([base] if base else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".", 1)[1] for alias in node.names
                         if alias.name.startswith("tracemin."))
    return {module.split(".")[0] for module in found}


@pytest.mark.parametrize("name", ANALYTIC)
def test_analytic_modules_import_nothing_from_the_oracle(name):
    assert "oracle" not in _imported_modules(name)


def test_oracle_imports_nothing_from_the_analytic_modules():
    assert _imported_modules("oracle").isdisjoint(ANALYTIC)
    assert _imported_modules("oracle") <= {"errors", "problem", "spectral"}


def test_the_scan_sees_relative_imports():
    # the scan itself: the solver's own imports are found
    assert {"definite", "pencil", "problem", "spectral", "errors"} <= _imported_modules(
        "indefinite")


def _called_names(path):
    """The names called in a Python file: f(...) and m.f(...) both give f."""
    calls = [node.func for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    return {f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "") for f in calls}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_calls_a_nonsymmetric_eigensolver(path):
    assert _called_names(path).isdisjoint(NONSYMMETRIC)


def test_the_call_scan_sees_the_qz_reference():
    # the scan itself: the QZ reference kept for the tests calls sla.eig
    assert "eig" in _called_names(Path(__file__).resolve().parent / "qz_pencil.py")


QZ_REFERENCE = Path(__file__).resolve().parent / "qz_pencil.py"


def test_the_qz_reference_imports_only_the_error_and_tolerances():
    # a reference that shared the package's code would agree with its faults
    nodes = list(ast.walk(ast.parse(QZ_REFERENCE.read_text())))
    assert not any(isinstance(node, ast.Import) and any(
        alias.name.startswith("tracemin") for alias in node.names) for node in nodes)
    imported = [alias.name for node in nodes
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tracemin")
                for alias in node.names]
    assert imported
    assert all(name == "NotPsdPencil" or name.endswith("_RTOL") for name in imported), imported


def _library_api_section():
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    return readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]


def test_every_public_name_is_bound_and_documented():
    import tracemin

    section = _library_api_section()
    for name in tracemin.__all__:
        assert hasattr(tracemin, name), name
        assert re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", section), name


# names the package no longer exports: `solve` on a `Problem` replaces the
# route functions, each of the others had a public or private twin, and
# `local_search(..., restarts=1, iters=1).best_X` draws a feasible point
REMOVED = ("solve_definite_min", "solve_definite_max", "solve_indefinite_plus",
           "solve_indefinite_minus", "solve_signature", "identity_problem",
           "pencil_eig_definite", "DefinitePencilEigen", "split_omegas", "check_finiteness",
           "find_lambda0", "inertia", "eig_herm", "EigenDecomposition", "eigenvectors_of",
           "feasible_sample", "KTooLarge")


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_not_importable(name):
    with pytest.raises(ImportError):
        exec(f"from tracemin import {name}", {})


def _raised_names():
    """The names of the exceptions that src/tracemin raises as `raise Name(...)`."""
    return {node.exc.func.id for path in PACKAGE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)}


def test_every_exported_error_is_raised_and_documented():
    # an error class no code raises is dead API, and README's list of errors
    # names exactly the exported ones
    import tracemin

    errors = {name for name in tracemin.__all__ if isinstance(getattr(tracemin, name), type)
              and issubclass(getattr(tracemin, name), tracemin.TraceminError)}
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    paragraph = readme.split("\nErrors are code-bearing exceptions", 1)[1].split("\n\n", 1)[0]
    assert errors - {"TraceminError"} <= _raised_names()
    assert set(re.findall(r"`(\w+)`", paragraph)) == errors


def _envelope_writers(path):
    """(module, top-level function, what) for each `_emit` call and each
    "tool_version" key in a module; code outside a function is "<module>"."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and "_emit" in (getattr(node.func, "id", None),
                                                          getattr(node.func, "attr", None)):
                found.add((path.stem, where, "_emit"))
            if (isinstance(node, ast.Constant) and node.value == "tool_version"
                    or isinstance(node, ast.keyword) and node.arg == "tool_version"):
                found.add((path.stem, where, "tool_version"))
    return found


def test_main_alone_emits_and_stamps_reports():
    # every report leaves through cli.main, which stamps tool_version on it
    found = set().union(*(_envelope_writers(path) for path in PACKAGE.glob("*.py")))
    assert found == {("cli", "main", "_emit"), ("cli", "main", "tool_version")}
