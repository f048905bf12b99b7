"""Reference boundary valuation of a norm, one substitution per element.

``valuation_by_element`` substitutes X = b delta(t) s into f directly for
every s in GL_n(F_p), a fresh substitution each, with b generic upper
unitriangular and delta(t) = diag(t, ..., t, 1) (the last row scaled by
1/t, the common t^{-1} pulled out), and sums ord_t - deg f - det_pow.
``modules.tilde_valuation`` reads the same orders off the right translates
f(X s) under the one substitution X -> b delta(t); tests compare the two
exactly.
"""

from zipcones.errors import TheoremViolationError
from zipcones.fpoly import FpPolynomial, mat_identity, mat_mul, matrix_images
from zipcones.modules import group_elements

_T = ("t",)


def _images(n, p, s):
    """a_ij -> entry (i, j) of b delta(t) s."""
    b, delta = mat_identity(n, p), mat_identity(n, p)
    for i in range(n - 1):
        delta[i][i] = FpPolynomial.variable(p, _T)
        for k in range(i + 1, n):
            b[i][k] = FpPolynomial.variable(p, ("b", i + 1, k + 1))
    return matrix_images(mat_mul(mat_mul(b, delta), s))


def valuation_by_element(elem):
    n, p = elem.n, elem.p
    deg = elem.num.total_degree()
    total = 0
    for s in group_elements(n, p):
        sub = elem.num.substitute(_images(n, p, s))
        if sub.is_zero():
            raise TheoremViolationError(
                "a nonzero module element vanishes along b delta(t) s")
        total += sub.min_exponent(_T) - deg - elem.det_pow
    return total
