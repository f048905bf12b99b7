"""Correctness checks in the package must not be ``assert`` statements,
which ``python -O`` strips."""

import ast
from pathlib import Path

import zipcones

PACKAGE = Path(zipcones.__file__).resolve().parent


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
