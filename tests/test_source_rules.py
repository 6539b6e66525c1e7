"""Rules on the library source itself, checked on its syntax tree."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gtkit
from gtkit import errors

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


def _amplitude_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "complex":
            yield node.lineno, "names complex"
        elif isinstance(node, ast.Constant) and isinstance(node.value, complex):
            yield node.lineno, "complex literal"
        elif isinstance(node, ast.Import) and any(
                alias.name == "cmath" for alias in node.names):
            yield node.lineno, "imports cmath"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "cmath":
            yield node.lineno, "imports cmath"


def test_the_library_holds_no_complex_amplitude():
    # the quantum layer takes the exact weight |alpha|^2; amplitudes belong to the
    # tests' two-qubit Kraus oracle
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _amplitude_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_amplitude_rule_sees_every_form():
    tree = ast.parse(
        "complex(a)\n"
        "x: complex = 1\n"
        "z = 1j\n"
        "z = 2 + 0.5J\n"
        "import cmath\n"
        "from cmath import sqrt\n"
        "import cmath as cm, os\n"
        "_complex_report(x)\n"
        "mode = 'complex'\n"
        "from . import cmath\n"
        "import cmathish\n"
        "obj.complex\n"
    )
    assert sorted(line for line, _ in _amplitude_uses(tree)) == [1, 2, 3, 4, 5, 6, 7]


_MUTABLE_CALLS = ("list", "dict", "set", "bytearray")
_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _is_mutable_container(value):
    if isinstance(value, _MUTABLE_DISPLAYS):
        return True
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_CALLS)


def _bindings(target, value):
    """(name, value) for each module name the assignment binds, tuples unpacked pairwise."""
    if isinstance(target, ast.Name):
        yield target.id, value
    elif isinstance(target, (ast.Tuple, ast.List)):
        values = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [None] * len(target.elts)
        for t, v in zip(target.elts, values):
            yield from _bindings(t, v)


def _module_level_statements(body):
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                for child in getattr(node, field, []):
                    yield from _module_level_statements(
                        child.body if isinstance(child, ast.ExceptHandler) else [child])


def _module_level_containers(tree):
    for node in _module_level_statements(tree.body):
        if isinstance(node, ast.Assign):
            pairs = [b for t in node.targets for b in _bindings(t, node.value)]
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            pairs = list(_bindings(node.target, node.value))
        else:
            continue
        for name, value in pairs:
            if name != "__all__" and value is not None and _is_mutable_container(value):
                yield node.lineno, f"module-level mutable {name}"


def test_no_module_level_mutable_container():
    # module state shared by every caller belongs in a memoised function or a constant tuple
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _module_level_containers(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_container_rule_sees_every_form():
    tree = ast.parse(
        "__all__ = ['a']\n"
        "A = []\n"
        "B = {}\n"
        "C = {1}\n"
        "D = list()\n"
        "E = dict(a=1)\n"
        "F = set()\n"
        "G = bytearray(3)\n"
        "H: dict = {}\n"
        "I = J = [1]\n"
        "K, L = (), {}\n"
        "M = [x for x in ()]\n"
        "N = {x: x for x in ()}\n"
        "O = {x for x in ()}\n"
        "if True:\n    P = []\n"
        "try:\n    Q = set()\nexcept Exception:\n    R = {}\n"
        "S = ()\n"
        "T = frozenset()\n"
        "U = tuple([1])\n"
        "def f():\n    V = []\n"
        "class C:\n    W = []\n"
    )
    found = [what.split()[-1] for _, what in _module_level_containers(tree)]
    assert found == ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "L", "M", "N", "O",
                     "P", "Q", "R"]


def _in_functions(tree, func=None):
    """(node, name of the innermost function holding it, None at module level)."""
    for child in ast.iter_child_nodes(tree):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield child, inner
        yield from _in_functions(child, inner)


def _to_rational_uses(tree):
    for node, func in _in_functions(tree):
        if isinstance(node, ast.Attribute) and node.attr == "to_rational":
            yield node.lineno, func, "reads .to_rational"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and node.args[1].value == "to_rational"):
            yield node.lineno, func, "reads to_rational through getattr"


def _callers(tree, name):
    """Functions (None at module level) that name `name`, as a plain name or an attribute."""
    for node, func in _in_functions(tree):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name):
            yield func


def test_the_cli_reads_no_exact_value_back_from_a_padic():
    # the CLI holds every operand as an exact rational; reconstruction from p^N is
    # silently wrong once the result outgrows the precision
    (cli,) = [path for path in SOURCES if path.name == "cli.py"]
    assert list(_to_rational_uses(ast.parse(cli.read_text(encoding="utf-8")))) == []


def test_only_measurement_distribution_reads_a_padic_back():
    # padic.py defines to_rational; the library reads a value back through it only in
    # padic_quantum._ext_to_rational, for the p-adic values of measurement_distribution
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    found = [
        f"{name}:{line}: {what} in {func}"
        for name, tree in trees.items() if name != "padic.py"
        for line, func, what in _to_rational_uses(tree)
        if (name, func) != ("padic_quantum.py", "_ext_to_rational")
    ]
    assert found == []
    callers = {(name, func) for name, tree in trees.items()
               for func in _callers(tree, "_ext_to_rational")}
    assert callers == {("padic_quantum.py", "measurement_distribution")}


def test_the_caller_rule_names_the_innermost_function():
    tree = ast.parse(
        "x = f\n"
        "def g():\n    return m.f()\n"
        "class C:\n    def h(self):\n        def k():\n            f()\n        return k\n"
        "def f():\n    pass\n"
    )
    assert list(_callers(tree, "f")) == [None, "g", "k"]


def test_the_to_rational_rule_sees_every_form():
    tree = ast.parse(
        "z.to_rational()\n"
        "padic.PAdicNumber.to_rational(z)\n"
        "f = z.to_rational\n"
        "getattr(z, 'to_rational')()\n"
        "to_rational(z)\n"
        "z.to_rationals()\n"
    )
    assert sorted(line for line, _, _ in _to_rational_uses(tree)) == [1, 2, 3, 4]


def _raised_names(tree):
    """Names a module raises (`raise X`, `raise m.X(...)`) or calls, as an error helper does."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        elif isinstance(node, ast.Call):
            target = node.func
        else:
            continue
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, ast.Attribute):
            yield target.attr


def _unraised(classes, trees):
    raised = {name for tree in trees for name in _raised_names(tree)}
    return sorted(name for name in classes if name not in raised)


def _library_trees():
    return [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES
            if path.name != "errors.py"]


ERROR_CLASSES = sorted(
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.GTError) and obj is not errors.GTError
)


def test_every_gtkit_error_is_raised_by_the_library():
    # an error class the library never raises names a failure it does not have;
    # an error only a test oracle raises belongs to that oracle
    assert len(ERROR_CLASSES) >= 15
    assert _unraised(ERROR_CLASSES, _library_trees()) == []


def test_the_raise_rule_catches_an_unraised_class():
    assert _unraised([*ERROR_CLASSES, "Unraised"], _library_trees()) == ["Unraised"]
    tree = ast.parse(
        "raise errors.A('m')\n"
        "raise B\n"
        "exc = errors.C('m')\n"
        "try:\n    f()\nexcept errors.D:\n    pass\n"
        "isinstance(x, errors.E)\n"
        "raise\n"
    )
    assert _unraised(["A", "B", "C", "D", "E"], [tree]) == ["D", "E"]
