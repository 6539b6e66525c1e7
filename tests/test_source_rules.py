"""Rules on the library source itself, checked on its syntax tree or in a fresh interpreter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gtkit
from gtkit import errors, evolution

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


def _imports_of(tree, module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            yield node.lineno, f"imports {module}"


def test_the_library_does_not_import_numpy():
    # gtkit runs on the standard library alone; numpy is a test dependency
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _imports_of(ast.parse(path.read_text(encoding="utf-8")), "numpy")
    ]
    assert found == []


def test_the_numpy_rule_sees_every_form():
    tree = ast.parse("import numpy\nimport numpy as np\nfrom numpy import linalg\n"
                     "import numpy.linalg\nfrom . import numpy\nimport numpyish\n")
    assert [line for line, _ in _imports_of(tree, "numpy")] == [1, 2, 3, 4]


def test_the_library_does_not_import_dataclasses():
    # every `gt` run is a fresh process, and importing dataclasses loads inspect:
    # value classes are NamedTuples or slotted classes (errors.Frozen)
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _imports_of(ast.parse(path.read_text(encoding="utf-8")), "dataclasses")
    ]
    assert found == []


def test_the_dataclasses_rule_sees_every_form():
    tree = ast.parse("import dataclasses\nfrom dataclasses import dataclass, field\n"
                     "import dataclasses as dc\nimport os, dataclasses\n"
                     "from . import dataclasses\nimport dataclasses_json\n"
                     "def f():\n    from dataclasses import replace\n")
    assert [line for line, _ in _imports_of(tree, "dataclasses")] == [1, 2, 3, 4, 8]


def _module_imports(tree):
    """Every module an import statement names, a relative one with its leading dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_the_elimination_kernel_imports_math_alone():
    # solve_exact and equalizer take and return ints, so no Fraction enters the loop
    tree = ast.parse((Path(gtkit.__file__).parent / "_linsolve.py").read_text(encoding="utf-8"))
    assert set(_module_imports(tree)) == {"__future__", "math"}


def test_the_module_import_rule_sees_every_form():
    tree = ast.parse("import math, fractions as f\nfrom fractions import Fraction\n"
                     "from . import errors\nfrom .games import as_fraction\n"
                     "def g():\n    import numbers\n")
    assert list(_module_imports(tree)) == [
        "math", "fractions", "fractions", ".", ".games", "numbers"]


def _fresh(code):
    """The words of the last line a fresh interpreter prints after running code."""
    src = str(Path(gtkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.splitlines()[-1].split()


def _loaded_by_the_cli(*modules):
    """Which of the modules a fresh interpreter has loaded after `import gtkit.cli`."""
    return _fresh(f"import sys, gtkit.cli; print(*[m in sys.modules for m in {modules!r}])")


def test_importing_the_cli_does_not_load_numpy():
    assert _loaded_by_the_cli("numpy") == ["False"]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # each `gt` call starts a fresh interpreter; the two cost about 9 ms of its start
    assert _loaded_by_the_cli("dataclasses", "inspect") == ["False", "False"]


def _gtkit_loaded_after(code):
    """The gtkit modules a fresh interpreter has loaded after running code."""
    return _fresh(f"import sys\n{code}\n"
                  "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'gtkit'))")


def test_the_cli_starts_on_the_analysis_core():
    # the benchmark's set-up probe: every other module is a package attribute
    # that loads on first use, so `gt` compiles no module its subcommand skips
    assert _gtkit_loaded_after("import gtkit.cli; gtkit.cli.build_parser()") == [
        "gtkit", "gtkit._linsolve", "gtkit.cli", "gtkit.errors", "gtkit.gamefile", "gtkit.games"]


DEFERRED = ("gtkit.evolution", "gtkit.padic", "gtkit.padic_quantum", "gtkit.quantum")


@pytest.mark.parametrize("argv,loads", [
    (["analyze", "--in", "bos"], ()),
    (["analyze", "--in", "rps"], ("gtkit.evolution",)),
    (["padic", "--expr", "expand 1/3 @ 7", "--expr", "distcheck 1/2,1/2"], ("gtkit.padic",)),
    (["quantumize", "--in", "bos", "--grid", "4"], ("gtkit.quantum",)),
    (["quantumize", "--in", "bos", "--padic", "--grid", "4"],
     ("gtkit.padic", "gtkit.padic_quantum", "gtkit.quantum")),
    (["evolve", "--in", "rps", "--t-end", "1"], ("gtkit.evolution",)),
], ids=["analyze-strategic", "analyze-evolution", "padic", "quantumize-complex",
        "quantumize-padic", "evolve"])
def test_each_subcommand_loads_only_what_it_runs(tmp_path, argv, loads):
    argv = [*argv, "--out", str(tmp_path)]
    loaded = _gtkit_loaded_after(
        f"import gtkit.cli\nif gtkit.cli.main({argv!r}) != 0:\n    sys.exit('failed')")
    assert tuple(m for m in DEFERRED if m in loaded) == loads


def test_the_package_loads_its_modules_on_first_use():
    assert _gtkit_loaded_after("import gtkit") == ["gtkit"]
    assert _fresh("import gtkit; print(gtkit.quantum.ClassicalForm.__name__)") == ["ClassicalForm"]
    listed = _fresh("import gtkit; print(*dir(gtkit))")
    assert set(gtkit.__all__) <= set(listed) and listed == sorted(listed)
    star = _fresh("import types\nfrom gtkit import *\nprint(__version__, *sorted(\n"
                  "    n for n, v in globals().items()\n"
                  "    if isinstance(v, types.ModuleType) and not n.startswith('__')))")
    assert star == ["0.1.0", "errors", "evolution", "gamefile", "games", "padic", "padic_quantum",
                    "quantum", "types"]


def test_the_package_api_is_unchanged():
    assert gtkit.__version__ == "0.1.0"
    assert gtkit.__all__ == ["errors", "evolution", "gamefile", "games", "padic",
                             "padic_quantum", "quantum", "__version__"]
    from gtkit import games, quantum

    assert gtkit.games is games and gtkit.quantum is quantum
    with pytest.raises(AttributeError, match="'no_such_module'"):
        gtkit.no_such_module


def _dynamic_imports(tree):
    """(line, what) of every import of importlib, reference to it, or use of __import__."""
    yield from _imports_of(tree, "importlib")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in ("importlib", "__import__"):
            yield node.lineno, f"names {node.id}"
        elif isinstance(node, ast.Attribute) and node.attr == "__import__":
            yield node.lineno, "names __import__"


def test_only_the_package_imports_by_name():
    # the package __getattr__ is the one lazy import; every other module names
    # its dependencies in import statements at module level
    found = {
        path.name
        for path in SOURCES
        for _ in _dynamic_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {"__init__.py"}


def test_the_dynamic_import_rule_sees_every_form():
    tree = ast.parse(
        "import importlib\n"
        "from importlib import import_module\n"
        "__import__('gtkit.padic')\n"
        "importlib.import_module('.padic', 'gtkit')\n"
        "import os, importlib.util as iu\n"
        "builtins.__import__('json')\n"
        "def f():\n    return __import__(name)\n"
        "from . import importlib_like\n"
        "import_module = None\n"
    )
    assert sorted({line for line, _ in _dynamic_imports(tree)}) == [1, 2, 3, 4, 5, 6, 8]


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


def test_the_cli_reads_no_exact_value_back_from_a_padic():
    # the CLI holds every operand as an exact rational; reconstruction from p^N is
    # silently wrong once the result outgrows the precision
    (cli,) = [path for path in SOURCES if path.name == "cli.py"]
    assert list(_to_rational_uses(ast.parse(cli.read_text(encoding="utf-8")))) == []


def test_only_measurement_distribution_reads_a_padic_back():
    # measurement_distribution was the one function that read a p-adic value back
    # through to_rational; it now returns PAdicNumbers, so no function in the library,
    # padic.py included (its definition is not a use), reads one back at all
    found = [
        f"{path.name}:{line}: {what} in {func}"
        for path in SOURCES
        for line, func, what in _to_rational_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_to_rational_rule_sees_every_form():
    tree = ast.parse(
        "z.to_rational()\n"
        "padic.PAdicNumber.to_rational(z)\n"
        "f = z.to_rational\n"
        "getattr(z, 'to_rational')()\n"
        "to_rational(z)\n"
        "z.to_rationals()\n"
        "class PAdicNumber:\n    def to_rational(self):\n        return 0\n"
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


STORED_RUN_NAMES = ("integrate", "time_average", "detect_recurrence", "csv_rows")


def _attribute_uses(tree, names):
    """(line, name) of every use of an attribute of one of the names: as an
    attribute, or a getattr with that literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            yield node.lineno, node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and node.args[1].value in names):
            yield node.lineno, node.args[1].value


def _stored_run_uses(tree):
    """(line, name) of every reference to a function that holds or walks a whole
    trajectory: as a name, an attribute, or a getattr with that literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in STORED_RUN_NAMES:
            yield node.lineno, node.id
    yield from _attribute_uses(tree, STORED_RUN_NAMES)


def test_the_cli_streams_every_run():
    # `gt evolve` takes a run chunk by chunk through run_chunks and RunSummary;
    # the functions of a stored trajectory would hold one that grows with the run
    (cli,) = [path for path in SOURCES if path.name == "cli.py"]
    assert list(_stored_run_uses(ast.parse(cli.read_text(encoding="utf-8")))) == []


def test_the_stored_run_rule_sees_every_form():
    tree = ast.parse(
        "evolution.integrate(g, p0, 1.0)\n"
        "from gtkit.evolution import time_average\n"
        "time_average(traj)\n"
        "f = evolution.detect_recurrence\n"
        "traj.csv_rows(names)\n"
        "getattr(evolution, 'integrate')\n"
        "evolution.run_chunks(g, p0, 1.0)\n"
        "chunk.csv_lines()\n"
    )
    assert sorted(line for line, _ in _stored_run_uses(tree)) == [1, 3, 4, 5, 6]


PAYOFF_STORAGE = ("_payoffs", "_table")


def test_only_games_reads_the_payoff_storage():
    # the layout of a StrategicGame's payoffs is known in games.py alone; every
    # other module reads a profile's payoffs through StrategicGame.ints
    found = {
        path.name
        for path in SOURCES
        for _ in _attribute_uses(ast.parse(path.read_text(encoding="utf-8")), PAYOFF_STORAGE)
    }
    assert found == {"games.py"}


def test_the_payoff_storage_rule_sees_every_form():
    tree = ast.parse(
        "game._payoffs[0][at]\n"
        "t = g._table\n"
        "getattr(game, '_payoffs')\n"
        "self._payoffs = payoffs\n"
        "a, b = other._payoffs\n"
        "game.ints(s)\n"
        "payoffs = game.payoff(s)\n"
        "getattr(game, name)\n"
        "_table = {}\n"
    )
    assert sorted(line for line, _ in _attribute_uses(tree, PAYOFF_STORAGE)) == [1, 2, 3, 4, 5]


def _file_reads(tree):
    """(line, call) of every `open` or `io.open` whose mode does not write: no
    mode, or a mode that holds none of "w", "a", "x" or is not a literal."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "open" or isinstance(func, ast.Attribute)
                and func.attr == "open" and isinstance(func.value, ast.Name)
                and func.value.id == "io"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and set(mode.value) & set("wax")):
            yield node.lineno, ast.unparse(node)


def test_the_cli_opens_files_only_to_write():
    # every text file the CLI reads goes through gamefile.read_text, the one
    # place that turns a failed read into a parse error naming the path
    (cli,) = [path for path in SOURCES if path.name == "cli.py"]
    assert list(_file_reads(ast.parse(cli.read_text(encoding="utf-8")))) == []


def test_the_file_read_rule_sees_every_form():
    tree = ast.parse(
        "open(p)\n"
        "open(p, 'r')\n"
        "open(p, mode='rb')\n"
        "io.open(p)\n"
        "open(p, m)\n"
        "open(p, 'w')\n"
        "open(p, mode='a', encoding='utf-8')\n"
        "io.open(p, 'xb')\n"
        "gamefile.read_text(p)\n"
        "webbrowser.open(url)\n"
    )
    assert [line for line, _ in _file_reads(tree)] == [1, 2, 3, 4, 5]


def _code_runners(tree):
    """(line, innermost function, name) of every `compile`, `exec` or `eval` named as a builtin."""
    for node, func in _in_functions(tree):
        if isinstance(node, ast.Name) and node.id in ("compile", "exec", "eval"):
            yield node.lineno, func, node.id


def test_only_the_rk4_step_builder_compiles_code():
    # generated code is read by no source rule, so it is confined to one builder
    found = {
        (path.name, func, name)
        for path in SOURCES
        for _, func, name in _code_runners(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("evolution.py", "_step_function", "compile"),
                     ("evolution.py", "_step_function", "exec")}


def test_the_code_runner_rule_sees_every_form():
    tree = ast.parse(
        "exec(s)\n"
        "def f():\n    return compile(s, 'f', 'exec')\n"
        "run = eval\n"
        "re.compile('x')\n"
    )
    assert list(_code_runners(tree)) == [(1, None, "exec"), (3, "f", "compile"), (4, None, "eval")]


def _generated_steps():
    # games of 2, 5 and 70 strategies: the last needs two 64-term statements per sum
    for n in (2, 5, 70):
        rows = tuple(tuple(float((7 * i + 3 * j) % 13 - 6) for j in range(n)) for i in range(n))
        yield evolution._step_source(rows, 1e-3)


def test_the_generated_rk4_step_keeps_the_source_rules():
    # no check that `python -O` strips, no import, and no builtin sum, which is
    # compensated from Python 3.12 on; no statement adds more than 64 products
    for source in _generated_steps():
        tree = ast.parse(source)
        assert list(_assertion_checks(tree)) == []
        assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert "sum(" not in source
        assert max(line.count("*") for line in source.splitlines()) <= 64


def _lcm_uses(tree):
    """(line, innermost function) of every reference to `lcm`: a name, an
    attribute, or a name imported from a module, so a call and the function
    passed as a value (as to `functools.reduce`) are both seen."""
    for node, func in _in_functions(tree):
        if (isinstance(node, ast.Name) and node.id == "lcm"
                or isinstance(node, ast.Attribute) and node.attr == "lcm"
                or isinstance(node, ast.ImportFrom)
                and any(alias.name == "lcm" for alias in node.names)):
            yield node.lineno, func


def test_only_the_common_denominator_takes_an_lcm():
    # games._common_denominator holds the one digit bound on a common denominator;
    # an lcm taken anywhere else could outgrow it
    found = {
        (path.name, func)
        for path in SOURCES
        for _, func in _lcm_uses(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("games.py", "_common_denominator")}


def test_the_lcm_rule_sees_every_form():
    tree = ast.parse(
        "import math\n"
        "math.lcm(a, b)\n"
        "from math import lcm\n"
        "def f():\n    return lcm(*dens)\n"
        "import math as m\n"
        "class C:\n    def g(self):\n        return m.lcm(a)\n"
        "lcm_of = gcd(a, b)\n"
        "functools.reduce(math.lcm, dens)\n"
        "from math import lcm as least\n"
    )
    assert list(_lcm_uses(tree)) == [(2, None), (3, None), (5, "f"), (9, "g"), (11, None),
                                     (12, None)]
