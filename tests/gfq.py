"""Tiny GF(p^k) arithmetic for evaluating polynomials in tests.

Elements are integers in range(p**k) encoding base-p coefficient vectors
of residues modulo a fixed irreducible polynomial.  Fields are small
(a few thousand elements at most), so multiplication goes through
discrete log/exp tables built once per field.  ``evaluate`` specialises
an ``FpPolynomial`` at a point of such a field, which lets tests compare
symbolic results with values computed another way.
"""

from __future__ import annotations

from functools import lru_cache

from zipcones.fpoly import _decode


def _poly_mul_mod(a, b, modulus, p, k):
    # a, b as base-p digit lists of length k; modulus monic of degree k
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(k):
                prod[d - k + j] = (prod[d - k + j] - c * modulus[j]) % p
    return prod[:k]


def _digits(x, p, k):
    out = []
    for _ in range(k):
        out.append(x % p)
        x //= p
    return out


def _undigits(d, p):
    x = 0
    for c in reversed(d):
        x = x * p + c
    return x


def _find_irreducible(p, k):
    """Monic irreducible of degree k over F_p, by sieve on small cases."""
    def is_irreducible(coeffs):
        # no roots and not a product of two smaller factors: brute force
        # division by all monic polynomials of degree 1..k//2
        for d in range(1, k // 2 + 1):
            for c in range(p ** d):
                div = _digits(c, p, d) + [1]
                rem = list(coeffs) + [1]
                # polynomial remainder of rem by div
                for top in range(k, d - 1, -1):
                    lead = rem[top]
                    if lead:
                        for j in range(d + 1):
                            rem[top - d + j] = (rem[top - d + j] - lead * div[j]) % p
                if all(x == 0 for x in rem):
                    return False
        return True

    for c in range(p ** k):
        coeffs = _digits(c, p, k)
        if is_irreducible(coeffs):
            return coeffs
    raise AssertionError("no irreducible polynomial found")


class GF:
    """GF(p^k) with log/exp multiplication tables."""

    def __init__(self, p, k):
        self.p = p
        self.k = k
        self.order = p ** k
        self.zero = 0
        self.one = 1
        self.modulus = _find_irreducible(p, k)
        # find a multiplicative generator by brute force
        for g in range(2, self.order):
            seen = set()
            x = 1
            gd = _digits(g, p, k)
            for _ in range(self.order - 1):
                x_d = _digits(x, p, k)
                x = _undigits(_poly_mul_mod(x_d, gd, self.modulus, p, k), p)
                seen.add(x)
            if len(seen) == self.order - 1:
                self.generator = g
                break
        else:
            raise AssertionError("no generator found")
        self.exp = [1] * (2 * (self.order - 1))
        self.log = [0] * self.order
        x = 1
        gd = _digits(self.generator, p, k)
        for i in range(1, self.order - 1):
            x = _undigits(_poly_mul_mod(_digits(x, p, k), gd, self.modulus, p, k), p)
            self.exp[i] = x
            self.log[x] = i
        for i in range(self.order - 1, 2 * (self.order - 1)):
            self.exp[i] = self.exp[i - (self.order - 1)]
        if p == 2:
            self._add = None
        else:
            self._add = [[_undigits([(a + b) % p for a, b in
                                     zip(_digits(x, p, k), _digits(y, p, k))], p)
                          for y in range(self.order)]
                         for x in range(self.order)]

    def add(self, x, y):
        if self.p == 2:
            return x ^ y
        return self._add[x][y]

    def neg(self, x):
        if self.p == 2:
            return x
        return _undigits([(-a) % self.p for a in _digits(x, self.p, self.k)],
                         self.p)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if x == 0 or y == 0:
            return 0
        return self.exp[self.log[x] + self.log[y]]

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError
        return self.exp[(self.order - 1 - self.log[x]) % (self.order - 1)]

    def pow(self, x, e):
        if e == 0:
            return 1
        if x == 0:
            return 0
        return self.exp[(self.log[x] * e) % (self.order - 1)]

    def from_int(self, c):
        return c % self.p


@lru_cache(maxsize=None)
def field_for(p, min_size=64):
    k = 1
    while p ** k < min_size:
        k += 1
    return GF(p, k)


def gf_matrix_rank(field, rows):
    """Rank of a matrix with GF entries, by Gaussian elimination."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = field.inv(mat[rank][c])
        mat[rank] = [field.mul(inv, x) for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y))
                          for x, y in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def gf_gauss_jordan(field, rows, width):
    """Gauss-Jordan elimination on the first ``width`` columns of the
    first ``width`` rows: (determinant of that square block, the rows
    reduced so that the block is the identity).  A singular block gives
    determinant zero and rows reduced only part of the way."""
    rows = [list(r) for r in rows]
    det = field.one
    for c in range(width):
        piv = next((r for r in range(c, width) if rows[r][c]), None)
        if piv is None:
            return field.zero, rows
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = field.neg(det)
        det = field.mul(det, rows[c][c])
        inv = field.inv(rows[c][c])
        rows[c] = [field.mul(inv, x) for x in rows[c]]
        for r in range(len(rows)):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[r], rows[c])]
    return det, rows


def evaluate(poly, assign, field):
    """Value of ``poly`` at ``assign`` (variable -> field element)."""
    total = field.zero
    for m, c in poly.terms.items():
        val = field.from_int(c)
        for v, e in _decode(m):
            val = field.mul(val, field.pow(assign[v], e))
        total = field.add(total, val)
    return total
