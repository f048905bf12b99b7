"""The root datum of Sp(2n) with Levi GL_n, and its boundary functional.

The character lattice of the diagonal torus is identified with Z^n.  The
Levi Weyl group is the symmetric group S_n acting on coordinates, and the
single simple root outside the Levi is beta = 2e_n with coroot e_n.

The stored simple-root vectors follow the source convention alpha_i =
e_{i+1} - e_i; dominance predicates are coordinate tests (L-dominant means
a_1 >= ... >= a_n), which is what every cone formula downstream consumes.
The datum is split: Frobenius fixes every simple root.  ``hw_functional``
is the boundary functional of the highest-weight cone, a sum over Levi
Weyl-group cosets that it returns in closed form.
"""

from __future__ import annotations

from functools import lru_cache

from .weights import Weight, _as_weight, _unit


class SymplecticRootDatum:
    """Roots, coroots and Levi data of Sp(2n) in the Z^n coordinates."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        # positive roots e_i - e_j, e_i + e_j (i < j), 2 e_i ; coroots are
        # the same vectors except (2e_i)^vee = e_i
        pos = []
        for i in range(n):
            for j in range(i + 1, n):
                pos.append((_unit(n, i) - _unit(n, j), _unit(n, i) - _unit(n, j)))
                pos.append((_unit(n, i) + _unit(n, j), _unit(n, i) + _unit(n, j)))
        for i in range(n):
            pos.append((2 * _unit(n, i), _unit(n, i)))
        self.positive_roots = tuple(r for r, _ in pos)
        self.positive_coroots = tuple(c for _, c in pos)
        # stored simple roots, source convention: alpha_i = e_{i+1} - e_i
        simple = [(_unit(n, i + 1) - _unit(n, i), _unit(n, i + 1) - _unit(n, i))
                  for i in range(n - 1)]
        simple.append((2 * _unit(n, n - 1), _unit(n, n - 1)))
        self.simple_roots = tuple(r for r, _ in simple)
        self.simple_coroots = tuple(c for _, c in simple)
        self.beta_index = n - 1
        self.levi_indices = tuple(range(n - 1))

    # -- pairings and dominance -------------------------------------------

    def pairing(self, lam, coroot):
        lam = _as_weight(lam, self.n)
        coroot = _as_weight(coroot, self.n)
        return lam.dot(coroot)

    def is_L_dominant(self, lam):
        lam = _as_weight(lam, self.n)
        return all(lam[i] >= lam[i + 1] for i in range(self.n - 1))

    def is_dominant(self, lam):
        lam = _as_weight(lam, self.n)
        return self.is_L_dominant(lam) and lam[self.n - 1] >= 0

    def is_antidominant(self, lam):
        lam = _as_weight(lam, self.n)
        return all(self.pairing(lam, c) <= 0 for c in self.simple_coroots)

    # -- maps ---------------------------------------------------------------

    def h_map(self, lam, p):
        """lam - p * (coordinate reversal of lam)."""
        lam = _as_weight(lam, self.n)
        return lam - p * Weight(reversed(lam))


def hw_functional(datum, p):
    """Boundary functional of the highest-weight cone at beta: the sum
    over the minimal coset representatives w of W_K \\ W_L of
    p^{length(w)} w^{-1} beta^vee, with W_L = S_n, beta^vee = e_n and W_K =
    S_{n-1} the Levi Weyl group of the roots orthogonal to beta^vee.

    W_K fixes e_n, so w^{-1} beta^vee = e_{w^{-1}(n)} depends only on the
    coset, and the coset with w^{-1}(n) = i has as minimal representative
    the w that moves i past i+1, ..., n, of length n - i; so the sum is
    (p^{n-1}, ..., p, 1).  A w in W_L is v u with v in W_K and u such a
    representative and length(w) = length(v) + length(u), so the sum over
    all of W_L is this row times the Poincare polynomial of W_K at p, a
    positive integer, and has the same sign on every weight.
    """
    n = datum.n
    return Weight(p ** (n - i) for i in range(1, n + 1))


@lru_cache(maxsize=None)
def gaussian_binomial_coeffs(n, i):
    """Coefficients (ascending) of the Gaussian binomial as a polynomial.

    Computed by the q-Pascal recursion, so no division is involved:
    [n,i] = [n-1,i] + q^{n-i} [n-1,i-1].
    """
    if i < 0 or i > n:
        raise ValueError("need 0 <= i <= n")
    if i == 0 or i == n:
        return (1,)
    a = list(gaussian_binomial_coeffs(n - 1, i))
    b = gaussian_binomial_coeffs(n - 1, i - 1)
    shift = n - i
    a += [0] * (shift + len(b) - len(a))
    for k, c in enumerate(b):
        a[shift + k] += c
    return tuple(a)


def gaussian_binomial(n, i, p):
    """Number of F_p-points of the Grassmannian-type quotient, exact."""
    coeffs = gaussian_binomial_coeffs(n, i)
    return sum(c * p ** k for k, c in enumerate(coeffs))
