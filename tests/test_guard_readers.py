"""``DD_RAY_GUARD`` bounds the package's one polyhedral eliminator, the
double description.  A second eliminator under that guard would read it
too, so the readers are pinned here, the way ``test_imports.py`` pins the
import graph."""

import ast
from pathlib import Path

import zipcones

PACKAGE = Path(zipcones.__file__).resolve().parent
GUARD = "DD_RAY_GUARD"


def _guard_reads(path):
    """``file:function`` for every read or import of the guard in ``path``;
    ``<module>`` stands for module level."""
    reads = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name):
                read = child.id == GUARD and isinstance(child.ctx, ast.Load)
            elif isinstance(child, ast.Attribute):
                read = child.attr == GUARD and isinstance(child.ctx, ast.Load)
            else:
                read = isinstance(child, ast.alias) and child.name == GUARD
            if read:
                reads.append("%s:%s" % (path.name, scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return reads


def test_ray_guard_is_read_only_by_the_double_description():
    reads = set()
    for path in sorted(PACKAGE.glob("*.py")):
        reads.update(_guard_reads(path))
    assert reads == {"cones.py:double_description"}
