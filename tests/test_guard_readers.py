"""The package has one polyhedral eliminator, one F_p eliminator, one
term cap, one place that builds a matrix of entry variables, one
certified source of the reduction matrix and one module that walks the
finite group and its cosets, and these tests pin all six, the way ``test_imports.py``
pins the import graph.

``DD_RAY_GUARD`` bounds the double description; a second polyhedral
eliminator under that guard would read it too.  The double description
itself runs only in the cached properties of the two presentations and
of a monoid's solved tail, so no cone object runs it twice on the same
rows.  ``MONOMIAL_CAP`` is the one size limit of the polynomial layer
and the default of the dimension oracle's monomial cap; a guard on the
rank of one verb, or a second copy of the cap, is a module-level name
that one test refuses.  Every F_p
elimination divides by a pivot through the modular inverse
``pow(x, p - 2, p)``, so the inverse may sit only in the ``fplinalg``
reduction and in ``fpoly.exact_divide``, which divides polynomials, not
linear systems; and no part of ``fplinalg`` compares p with 2, so that
reduction serves every field.
A matrix of ``a_var`` entries is built only by ``fpoly.generic_matrix``;
every minor of it comes from the one cache of ``fpoly.minor``, which
builds no matrix.  An entry of the reduction matrix Gamma is written
out by ``sections.gamma_entry``, which only ``_gamma_section`` reads;
it certifies each entry once, as ``_delta_section`` certifies each
Delta_i once, and these two are the only callers of ``_certify``.  The
catalog and ``gamma_matrix`` read their cached certificates, and
``clear_denominators`` and the ``gamma`` verb the cached
``gamma_matrix``, so none of them is handed an entry that was not
certified, and nothing is certified twice.  The right translation of
GL_n(F_p), the coset representatives of GL_n(F_p)/B^- and their guard
``FLAG_GUARD`` are read only in ``modules``, where the invariants and
the norm construction use them."""

import ast
from fnmatch import fnmatch
from pathlib import Path

import zipcones

PACKAGE = Path(zipcones.__file__).resolve().parent


def _places(match):
    """``file:function`` for every node of the package that ``match``
    accepts; ``<module>`` stands for module level."""
    places = set()

    def visit(path, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(path, child, child.name)
                continue
            if match(child):
                places.add("%s:%s" % (path.name, scope))
            visit(path, child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path, ast.parse(path.read_text(), filename=str(path)),
              "<module>")
    return places


def _reads(name):
    def match(node):
        if isinstance(node, ast.Name):
            return node.id == name and isinstance(node.ctx, ast.Load)
        if isinstance(node, ast.Attribute):
            return node.attr == name and isinstance(node.ctx, ast.Load)
        return isinstance(node, ast.alias) and node.name == name
    return match


def _is_modular_inverse(node):
    """``pow(x, m - 2, m)`` for any expressions x and m."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "pow" and len(node.args) == 3):
        return False
    exponent, modulus = node.args[1], node.args[2]
    return (isinstance(exponent, ast.BinOp)
            and isinstance(exponent.op, ast.Sub)
            and isinstance(exponent.right, ast.Constant)
            and exponent.right.value == 2
            and ast.dump(exponent.left) == ast.dump(modulus))


def _compares_p_with_2(node):
    """A comparison of the name ``p`` with the constant 2, as in
    ``p == 2``."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left] + node.comparators
    return (any(isinstance(o, ast.Name) and o.id == "p" for o in operands)
            and any(isinstance(o, ast.Constant) and o.value == 2
                    for o in operands))


def _is_entry_matrix(node):
    """``[[a_var(...) for ...] for ...]``: a nested list comprehension of
    entry variables."""
    return (isinstance(node, ast.ListComp)
            and isinstance(node.elt, ast.ListComp)
            and isinstance(node.elt.elt, ast.Call)
            and isinstance(node.elt.elt.func, ast.Name)
            and node.elt.elt.func.id == "a_var")


def test_ray_guard_is_read_only_by_the_double_description():
    assert _places(_reads("DD_RAY_GUARD")) == {"cones.py:double_description"}


def test_double_description_runs_only_in_the_cached_properties():
    # each presentation caches its own; the tail of a monoid its own too
    assert _places(_reads("double_description")) == {
        "cones.py:_dual", "cones.py:_rays", "cones.py:_tail"}


def test_term_cap_readers():
    # the imports, the two fpoly guards, and the defaults of the oracle's
    # and the command line's monomial cap (the latter in the VERBS table)
    assert _places(_reads("MONOMIAL_CAP")) == {
        "cli.py:<module>",
        "fpoly.py:<module>", "fpoly.py:_check_size",
        "fpoly.py:_check_minor_size",
        "oracle.py:<module>", "oracle.py:enumerate_weight_monomials",
        "oracle.py:h0_dimension"}


def test_no_rank_guard_or_second_term_cap():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                names |= {node.id for node in ast.walk(stmt)
                          if isinstance(node, ast.Name)
                          and isinstance(node.ctx, ast.Store)}
    assert "MONOMIAL_CAP" in names
    assert [name for name in names if fnmatch(name, "*_RANK_GUARD")
            or name == "NORM_TERM_CAP"] == []


def test_modular_inverse_only_in_the_reduction_and_polynomial_division():
    assert _places(_is_modular_inverse) == {"fplinalg.py:_reduce_dicts",
                                            "fpoly.py:exact_divide"}


def test_one_reduction_for_every_field():
    # a second elimination kept for one field would branch on p == 2
    assert [place for place in _places(_compares_p_with_2)
            if place.startswith("fplinalg.py:")] == []


def test_entry_matrix_only_in_generic_matrix():
    assert _places(_is_entry_matrix) == {"fpoly.py:generic_matrix"}


def test_gamma_entries_are_read_off_the_certified_matrix():
    assert _places(_reads("gamma_entry")) == {"sections.py:_gamma_section"}
    assert _places(_reads("gamma_matrix")) == {
        "cli.py:_cmd_gamma", "sections.py:clear_denominators"}


def test_each_minor_and_gamma_entry_is_certified_in_one_place():
    assert _places(_reads("_certify")) == {"sections.py:_delta_section",
                                           "sections.py:_gamma_section"}


def test_the_finite_group_is_read_only_in_modules():
    for name in ("_right_translation", "flag_representatives", "FLAG_GUARD"):
        places = _places(_reads(name))
        assert places and {place.split(":")[0] for place in places} == {
            "modules.py"}, (name, places)
