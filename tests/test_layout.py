"""Package layout rules that the module structure relies on."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qisim"


def test_no_relative_imports_inside_functions():
    # Every intra-package import sits at module top; a function-level
    # relative import would only hide an import cycle between modules.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level > 0:
                    offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not offenders, f"function-level relative imports: {offenders}"
