"""Reference h0 oracle by polynomial substitution.

Builds each monomial's whole image under every simple-root generator
1 + t E_{k,k-1} with ``fpoly.Substitution`` and keeps the t^(p^i)
coefficients, the conditions ``oracle.h0_dimension`` reads off its
coefficient tables (its docstring says why they suffice).  Tests compare
the two on boxes of weights.
"""

from zipcones.errors import TheoremViolationError
from zipcones.fplinalg import fp_nullspace
from zipcones.fpoly import _FIELD, FpPolynomial, Substitution, _pack, _shift
from zipcones.oracle import enumerate_weight_monomials
from zipcones.sections import _generator_images

_T = ("t",)
_T_SHIFT = _shift(_T)
_T_FIELD = _FIELD << _T_SHIFT


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
