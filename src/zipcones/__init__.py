"""Exact weight cones, mod-p sections and graded dimensions for the
symplectic zip setting.

The public names below are loaded on first use (PEP 562), so importing
the package, or one of its modules, compiles only the layers that are
used.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys([
        "GeneratedCone",
        "HalfspaceSystem",
        "cones_equal_saturated",
        "enumerate_lattice_points",
        "extreme_rays",
        "halfspaces_of",
        "monoid_membership",
        "saturated_membership",
    ], "cones"),
    **dict.fromkeys([
        "NamedCone",
        "catalog_cone",
        "cone_GS",
        "cone_hw",
        "cone_pol",
        "cone_schubert",
        "cone_schubert_saturated",
        "cone_sigma",
        "cone_zip_sp4",
        "cone_zip_sp4_saturated",
        "cone_zip_sp6_saturated",
    ], "catalog"),
    **dict.fromkeys([
        "EmptyModuleError",
        "GuardExceededError",
        "InhomogeneousWeightError",
        "NotPointedError",
        "NotUnipotentInvariantError",
        "RankMismatchError",
        "TheoremViolationError",
        "WeightMismatchError",
        "ZipconeError",
    ], "errors"),
    "FpPolynomial": "fpoly",
    **dict.fromkeys([
        "InducedModule",
        "TildeSection",
        "build_module",
        "intersection_dimension",
        "invariants_finite_group",
        "subspace_leq0",
        "thminter_check",
        "tilde_section",
        "tilde_valuation",
        "valuation_sign_predict",
    ], "modules"),
    "h0_dimension": "oracle",
    "SymplecticRootDatum": "rootdata",
    **dict.fromkeys([
        "Section",
        "catalog_section",
        "check_equivariance",
        "clear_denominators",
        "gamma_matrix",
        "rzip_sp4_graded_dimension",
    ], "sections"),
    **dict.fromkeys(["Weight", "gaussian_binomial"], "weights"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
