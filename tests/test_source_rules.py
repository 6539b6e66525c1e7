"""Rules on the library source itself, checked on its syntax tree."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gtkit

SOURCES = sorted(Path(gtkit.__file__).parent.rglob("*.py"))


def _assertion_checks(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_no_correctness_check_is_stripped_by_python_O():
    # `python -O` removes assert statements, and an AssertionError is not a gtkit error:
    # checks must raise a gtkit.errors exception instead
    assert len(SOURCES) >= 9
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _assertion_checks(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_rule_sees_both_forms():
    tree = ast.parse("assert x\nraise AssertionError\nraise AssertionError('m')\nraise ValueError")
    assert [line for line, _ in _assertion_checks(tree)] == [1, 2, 3]


def _function_imports(tree):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield node.lineno, f"import inside {func.name}"


def test_every_import_is_at_module_level():
    # an import inside a function body hides a module's dependencies and reruns on each call
    found = sorted({
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _function_imports(ast.parse(path.read_text(encoding="utf-8")))
    })
    assert found == []


def test_the_import_rule_sees_nested_functions_and_both_forms():
    tree = ast.parse(
        "import os\n"
        "def f():\n    import json\n"
        "class C:\n    def g(self):\n        def h():\n            from . import x\n"
    )
    assert sorted({line for line, _ in _function_imports(tree)}) == [3, 7]


def _numpy_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            yield node.lineno, "imports numpy"


def test_the_library_does_not_import_numpy():
    # gtkit runs on the standard library alone; numpy is a test dependency
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _numpy_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_numpy_rule_sees_every_form():
    tree = ast.parse("import numpy\nimport numpy as np\nfrom numpy import linalg\n"
                     "import numpy.linalg\nfrom . import numpy\nimport numpyish\n")
    assert [line for line, _ in _numpy_imports(tree)] == [1, 2, 3, 4]


def test_importing_the_cli_does_not_load_numpy():
    code = "import sys, gtkit.cli; print('numpy' in sys.modules)"
    src = str(Path(gtkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
