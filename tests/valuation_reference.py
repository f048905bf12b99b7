"""Reference norm and boundary valuation, one walk of all of GL_n(F_p).

``group_elements`` lists GL_n(F_p) by trying all p^(n^2) matrices.
``valuation_by_element`` substitutes X = b delta(t) s into f directly for
every s in GL_n(F_p), a fresh substitution each, with b generic upper
unitriangular and delta(t) = diag(t, ..., t, 1) (the last row scaled by
1/t, the common t^{-1} pulled out), and sums ord_t - deg f - det_pow.
``norm_by_element`` multiplies the right translates det(s)^det_pow f(X s)
over every s and divides the determinant out completely.  Both take the
module for n, p and det_pow, and the numerator ``num`` of f.
``delta_valuations`` walks the cosets of GL_n(F_p)/B^- instead, one
representative each, and reads the order of each Delta_i off the last
row of the representative, with no substitution.
``modules.tilde_section`` reads the same norm off one translate per
coset, and ``modules.tilde_valuation`` the same valuation off a closed
form that lists no coset; tests compare them exactly.
"""

import itertools
from functools import lru_cache

from fp_reference import fp_det
from zipcones.errors import TheoremViolationError
from zipcones.fpoly import (
    FpPolynomial,
    exact_divide,
    generic_matrix,
    mat_identity,
    mat_mul,
    matrix_images,
    minor,
)
from zipcones.modules import borel_order, flag_representatives

_T = ("t",)


@lru_cache(maxsize=None)
def group_elements(n, p):
    """All invertible n x n matrices over F_p, as tuples of row tuples."""
    out = []
    for flat in itertools.product(range(p), repeat=n * n):
        mat = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if fp_det(mat, p):
            out.append(mat)
    return tuple(out)


def _images(n, p, s):
    """a_ij -> entry (i, j) of b delta(t) s."""
    b, delta = mat_identity(n, p), mat_identity(n, p)
    for i in range(n - 1):
        delta[i][i] = FpPolynomial.variable(p, _T)
        for k in range(i + 1, n):
            b[i][k] = FpPolynomial.variable(p, ("b", i + 1, k + 1))
    return matrix_images(mat_mul(mat_mul(b, delta), s))


def valuation_by_element(module, num):
    n, p = module.n, module.p
    deg = num.total_degree()
    total = 0
    for s in group_elements(n, p):
        sub = num.substitute(_images(n, p, s))
        if sub.is_zero():
            raise TheoremViolationError(
                "a nonzero module element vanishes along b delta(t) s")
        total += sub.min_exponent(_T) - deg - module.det_pow
    return total


def norm_by_element(module, num):
    """(body_num, body_det_power) of the product over GL_n(F_p) of the
    right translates of num * det^det_pow, the determinant divided out."""
    n, p = module.n, module.p
    prod = FpPolynomial.constant(p, 1)
    for s in group_elements(n, p):
        moved = num.substitute(matrix_images(mat_mul(
            generic_matrix(n, p), s)))
        prod = prod * moved * pow(fp_det(s, p), module.det_pow % (p - 1), p)
    det = minor(p, tuple(range(1, n + 1)), tuple(range(1, n + 1)))
    power = module.det_pow * len(group_elements(n, p))
    while (q := exact_divide(prod, det)) is not None:
        prod, power = q, power + 1
    return prod, power


@lru_cache(maxsize=None)
def delta_valuations(n, p):
    """(v_1, ..., v_{n-1}): v_i is |B^-| times the sum over the coset
    representatives s of ord_t Delta_i(b delta(t) s) - i, which is -1 if
    row n of s is nonzero in its last i columns and 0 otherwise (the
    argument is in ``modules.tilde_valuation``'s docstring)."""
    reps = flag_representatives(n, p)
    return tuple(-borel_order(n, p) * sum(any(s[-1][n - i:]) for s in reps)
                 for i in range(1, n))
