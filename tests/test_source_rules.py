"""Rules on the library source itself, checked on its syntax tree."""

import ast
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
