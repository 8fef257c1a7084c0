"""The oracle certifies the analytic solvers, so the two sides share no code
beyond the common building blocks (spectral, problem, errors)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tracemin"
ANALYTIC = ("definite", "indefinite", "pencil")


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
