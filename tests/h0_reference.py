"""Reference unipotent invariance by polynomial substitution.

Builds each monomial's whole image under every simple-root generator
1 + t E_{k,k-1} with ``fpoly.Substitution``.  ``h0_by_substitution``
keeps the t^(p^i) coefficients, the conditions ``oracle.h0_dimension``
reads off its coefficient tables (its docstring says why they suffice);
``defect_by_substitution`` compares the whole t-polynomial of a
polynomial's image with the polynomial, for the verdicts of
``sections.check_equivariance``.  Tests compare the two sides on boxes of
weights and on sections.
"""

from functools import lru_cache

from fp_reference import fp_nullspace
from zipcones.errors import TheoremViolationError
from zipcones.fpoly import (
    _FIELD,
    FpPolynomial,
    Substitution,
    _pack,
    _shift,
    generic_matrix,
    mat_identity,
    mat_mul,
    matrix_images,
)
from zipcones.oracle import enumerate_weight_monomials

_T = ("t",)
_T_SHIFT = _shift(_T)
_T_FIELD = _FIELD << _T_SHIFT


@lru_cache(maxsize=None)
def _generator_images(n, p, k, l):
    """Substitution X -> (1 + t E_{k,l}) X (1 - t^p E_{k,l}), k > l."""
    u, v = mat_identity(n, p), mat_identity(n, p)
    u[k - 1][l - 1] = FpPolynomial.variable(p, _T)
    v[k - 1][l - 1] = -FpPolynomial.variable(p, _T, p)
    return matrix_images(mat_mul(mat_mul(u, generic_matrix(n, p)), v))


def defect_by_substitution(num, n, p):
    """(k, least t-degree of f(u X phi(u)^{-1}) - f) for the first simple
    root u = 1 + t E_{k,k-1} that moves the polynomial num, or None."""
    for k in range(2, n + 1):
        diff = num.substitute(_generator_images(n, p, k, k - 1)) - num
        if not diff.is_zero():
            return k, diff.min_exponent(_T)
    return None


def h0_by_substitution(lam, n, p):
    """h0 of weight lam on the n x n matrix space, by substitution."""
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        return 0
    monos = enumerate_weight_monomials(lam, n, p)
    if not monos:
        return 0
    subs, top = [], 0
    for k in range(2, n + 1):
        images = _generator_images(n, p, k, k - 1)
        for var, img in images.items():
            # the t^0 part of a monomial's image is then the monomial
            if ({m: c for m, c in img.terms.items() if not m & _T_FIELD}
                    != FpPolynomial.variable(p, var).terms):
                raise TheoremViolationError("u(t) moves %r at t = 0" % (var,))
            top = max(top, *(m & _T_FIELD for m in img.terms))
        subs.append(Substitution(p, images))
    d, top, q, powers = sum(monos[0]), top >> _T_SHIFT, 1, set()
    while q <= d * top:
        powers.add(q << _T_SHIFT)
        q *= p
    entries = [("a", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    columns = []
    for exps in monos:
        m = _pack((v, e) for v, e in zip(entries, exps) if e)
        columns.append({key * (n - 1) + g: c for g, sub in enumerate(subs)
                        for key, c in sub.image_terms(m).items()
                        if key & _T_FIELD in powers})
    return len(fp_nullspace(columns, p))
