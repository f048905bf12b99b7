"""The reduction matrix at n = 2 and 3 as the paper displays it.

alpha is the numerator of Gamma_{1,1} at n = 2, and epsilon, f1 and f2
are those of Gamma_{1,1}, Gamma_{1,2} and Gamma_{2,1} at n = 3.  Here they
are written out by hand in the matrix entries, the minors Delta_i and the
minors of the matrix with one row and one column removed, independently
of the sum of minor products that ``sections.gamma_entry`` evaluates, so
a test that compares the two does not compare Gamma with itself.

``entry_weight`` reads the weight of an entry, a (numerator, exponents
of Delta_1..Delta_n) pair, off its numerator and its minor denominator,
on the test side only: the package proves it once, inside
``sections.gamma_matrix``.
"""

from zipcones.fpoly import a_var, delta_minor, minor, weight_of
from zipcones.weights import schubert_weight


def entry_weight(entry, n):
    """Weight of an n x n numerator-over-minors pair (num, exps): the
    weight of num minus exps_i wt(Delta_i) for each denominator exponent."""
    num, exps = entry
    weight = weight_of(num, n)
    for i, e in enumerate(exps, start=1):
        weight = weight - e * schubert_weight(n, num.p, i)
    return weight


def _removal_minor(n, p, i, j):
    """Minor of the generic matrix after removing row i and column j."""
    rows = tuple(r for r in range(1, n + 1) if r != i)
    cols = tuple(c for c in range(1, n + 1) if c != j)
    return minor(p, rows, cols)


def alpha_sp4(p):
    return (a_var(p, 1, 1) * delta_minor(2, p, 1) ** (p - 1)
            + a_var(p, 2, 2) ** p)


def epsilon_sp6(p):
    return (a_var(p, 1, 1) * a_var(p, 1, 3) ** p
            + a_var(p, 1, 2) * a_var(p, 2, 3) ** p
            + a_var(p, 1, 3) * a_var(p, 3, 3) ** p)


def f1_sp6(p):
    return a_var(p, 1, 2) * delta_minor(3, p, 2) ** p \
        + delta_minor(3, p, 1) * _removal_minor(3, p, 2, 1) ** p


def f2_sp6(p):
    # the (3,2) removal minor enters as a cofactor: with a plain-minor
    # reading the two terms are only compatible mod 2, and the version
    # below is the one that is equivariant and satisfies the theta
    # division identity at odd p
    return -(delta_minor(3, p, 1) ** p * _removal_minor(3, p, 3, 2)
             + delta_minor(3, p, 2) * a_var(p, 2, 3) ** p)


def displayed_gamma(n, p):
    """Rows of the displayed matrix for n = 2 or 3 in lowest terms: the
    pair (numerator, exponents of Delta_1..Delta_n in the denominator),
    None where the entry vanishes."""
    def d(i):
        return delta_minor(n, p, i)

    if n == 2:
        return [[(alpha_sp4(p), (p - 1, 0)), (d(1), (0, 0))],
                [(-d(2), (1, 0)), None]]
    # (zA)_{22} = a22 - a23 a12 / a13 = -Delta_2 / Delta_1; the sign is
    # invisible mod 2
    return [[(epsilon_sp6(p), (p, 0, 0)), (f1_sp6(p), (0, p, 0)),
             (d(1), (0, 0, 0))],
            [(f2_sp6(p), (p + 1, 0, 0)), (-d(2), (1, 0, 0)), None],
            [(d(3), (0, 1, 0)), None, None]]
