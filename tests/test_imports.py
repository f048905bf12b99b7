"""The import graph matches what each verb runs.

Every ``zipcone`` job runs in a fresh interpreter, so each module a verb
imports without running it is compile time paid per job.  The runtime
tests run each case in a new interpreter and read ``sys.modules``; the
static test keeps the bottom layers from importing the upper ones at
module level, so the graph cannot grow back unnoticed.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zipcones

PACKAGE = Path(zipcones.__file__).resolve().parent
SRC = str(PACKAGE.parent)
LAYERS = ("cones", "catalog", "fpoly", "fplinalg", "modules", "oracle",
          "sections", "rootdata")


def _loaded_after(code, *argv):
    """Names in ``sys.modules`` after running ``code`` in a new interpreter
    that has ``argv`` as ``sys.argv[1:]``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script] + list(argv),
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _loaded_after_verb(argv, tmp_path):
    code = ("import sys\nfrom zipcones.cli import main\n"
            "if main(sys.argv[1:]) != 0:\n    sys.exit('verb failed')")
    return _loaded_after(code, *argv, "--out", str(tmp_path / "out"))


def _package(*names):
    return {"zipcones." + name for name in names}


def test_cli_import_loads_no_layer():
    loaded = _loaded_after("import zipcones.cli")
    assert loaded & _package(*LAYERS) == set()
    assert loaded & {"dataclasses", "fractions"} == set()


def test_package_import_loads_no_submodule():
    # the package binds only __version__ besides the module dunders
    loaded = _loaded_after(
        "import zipcones\n"
        "names = [n for n in vars(zipcones) if not n.endswith('__')]\n"
        "if names or zipcones.__version__ != '0.1.0':\n"
        "    raise SystemExit('the package binds %r' % names)")
    assert {m for m in loaded if m.startswith("zipcones.")} == set()


@pytest.mark.parametrize("argv, absent", [
    (["h0", "--n", "2", "--p", "2", "--weight", "1,-2"],
     _package("cones", "catalog", "modules", "rootdata", "fpoly", "sections")
     | {"fractions"}),
    (["verify-section", "--name", "f1sp6", "--p", "2"],
     _package("catalog", "cones", "modules") | {"fractions"}),
    (["vlambda", "--n", "2", "--p", "3", "--weight", "2,0"],
     _package("sections", "catalog", "cones") | {"fractions"}),
    (["cone", "--name", "hw", "--n", "3", "--p", "2"],
     _package("fpoly", "sections", "modules", "rootdata")
     | {"fractions", "decimal"}),
    (["slice", "--cone", "zip-sp6-sat", "--p", "2"],
     _package("fpoly", "sections", "modules", "rootdata")
     | {"fractions", "decimal"}),
    (["rootdata", "--n", "3"],
     _package("fpoly", "sections", "modules", "cones", "catalog")),
    (["sweep", "--n", "2", "--p", "2", "--box", "-1..1", "--compare",
      "zip-sp4"],
     _package("fpoly", "sections", "modules", "rootdata")
     | {"concurrent.futures", "fractions", "decimal"}),
])
def test_verb_loads_only_its_layers(argv, absent, tmp_path):
    loaded = _loaded_after_verb(argv, tmp_path)
    assert loaded & absent == set()
    assert "dataclasses" not in loaded


def test_valuation_sign_predict_loads_no_layer():
    # the boundary functional lives in weights, not in the cone catalog
    loaded = _loaded_after("from zipcones.modules import "
                           "valuation_sign_predict\n"
                           "valuation_sign_predict((1, -2), 2, 2)")
    assert loaded & (_package("catalog", "cones", "rootdata")
                     | {"fractions"}) == set()


# each public name and the one module it is imported from
PUBLIC = {
    "catalog": "NamedCone catalog_cone cone_GS cone_hw cone_pol cone_schubert "
               "cone_schubert_saturated cone_sigma cone_zip_sp4 "
               "cone_zip_sp4_saturated cone_zip_sp6_saturated",
    "cones": "GeneratedCone HalfspaceSystem cone_contains_saturated "
             "cones_equal_saturated extreme_rays generators_of halfspaces_of "
             "lineality_space monoid_membership",
    "errors": "EmptyModuleError GuardExceededError InhomogeneousWeightError "
              "NotPointedError NotUnipotentInvariantError RankMismatchError "
              "TheoremViolationError WeightMismatchError ZipconeError",
    "fpoly": "FpPolynomial",
    "modules": "InducedModule TildeSection build_module intersection_dimension "
               "invariants_finite_group subspace_leq0 thminter_check "
               "tilde_section tilde_valuation valuation_sign_predict",
    "oracle": "h0_dimension",
    "rootdata": "SymplecticRootDatum",
    "sections": "Section catalog_section check_equivariance "
                "clear_denominators gamma_matrix rzip_sp4_graded_dimension",
    "weights": "Weight gaussian_binomial",
}


def test_every_public_name_imports_from_its_module():
    for module, names in PUBLIC.items():
        owner = importlib.import_module("zipcones." + module)
        for name in names.split():
            assert getattr(owner, name).__module__ == owner.__name__, name


# ``zipcone [verb] --help`` at 80 columns, recorded before the verbs
# imported their layers lazily; the key "" is the top-level help
HELP = json.loads((Path(__file__).parent / "cli_help.json").read_text())


@pytest.mark.parametrize("verb", sorted(HELP))
def test_help_text_is_unchanged(verb):
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    argv = ([verb] if verb else []) + ["--help"]
    proc = subprocess.run([sys.executable, "-m", "zipcones.cli"] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == HELP[verb]


# modules whose module-level imports stay among themselves
BOTTOM = {"errors", "weights", "fplinalg", "fpoly"}
# package modules each module may import at module level, where restricted
MODULE_LEVEL = {**{name: BOTTOM for name in BOTTOM},
                "weights": {"errors"},
                "catalog": {"errors", "weights", "cones"},
                "cli": {"errors", "weights"},
                "oracle": {"errors", "weights", "fplinalg"},
                "rootdata": {"errors", "weights"}}


def _package_imports(node, in_function=False):
    """(line, imported package module, inside a function) for every
    import of a ``zipcones`` module under ``node``."""
    for child in ast.iter_child_nodes(node):
        nested = in_function or isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        if isinstance(child, ast.ImportFrom):
            if child.level == 1 and child.module:
                yield child.lineno, child.module.split(".")[0], in_function
            elif child.level == 1:
                for alias in child.names:
                    yield child.lineno, alias.name, in_function
            elif (child.module or "").startswith("zipcones."):
                yield child.lineno, child.module.split(".")[1], in_function
        elif isinstance(child, ast.Import):
            for alias in child.names:
                if alias.name.startswith("zipcones."):
                    yield child.lineno, alias.name.split(".")[1], in_function
        yield from _package_imports(child, nested)


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]


def test_module_level_imports_keep_the_layering():
    sources = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert set(MODULE_LEVEL) <= set(sources)
    found = []
    for name, allowed in MODULE_LEVEL.items():
        found += ["%s.py:%d imports %s" % (name, line, target)
                  for line, target, in_function
                  in _package_imports(sources[name])
                  if not in_function and target not in allowed]
    # the package has no annotation for __future__ to defer
    for name, tree in sources.items():
        found += ["%s.py:%d imports %s" % (name, line, target)
                  for line, target in _absolute_imports(tree)
                  if target in ("dataclasses", "__future__")]
    assert found == []


def test_weights_imports_only_errors_anywhere():
    # weights is the leaf: not even a function body imports another layer
    tree = ast.parse((PACKAGE / "weights.py").read_text())
    assert {target for _, target, _ in _package_imports(tree)} == {"errors"}


def test_sections_imports_nothing_from_modules_anywhere():
    # the norm construction lives next to the group it walks, so the
    # layer of certified invariant polynomials needs no module code
    tree = ast.parse((PACKAGE / "sections.py").read_text())
    assert "modules" not in {target for _, target, _ in _package_imports(tree)}
