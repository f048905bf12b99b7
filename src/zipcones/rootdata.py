"""Root-system and Weyl-group combinatorics for Sp(2n) with Levi GL_n.

The character lattice of the diagonal torus is identified with Z^n.  The
Levi Weyl group is the symmetric group S_n acting on coordinates, and the
single simple root outside the Levi is beta = 2e_n with coroot e_n.

The stored simple-root vectors follow the source convention alpha_i =
e_{i+1} - e_i; dominance predicates are coordinate tests (L-dominant means
a_1 >= ... >= a_n), which is what every cone formula downstream consumes.
The datum is split: Frobenius fixes every simple root.  ``hw_functional``
is the boundary functional of the highest-weight cone, the one Levi
Weyl-group sum of the package.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import ZipconeError
from .weights import Weight, _as_weight


def _unit(n, i):
    return Weight(1 if j == i else 0 for j in range(n))


class LeviWeylElement:
    """Permutation of {1..n} acting on characters by coordinates.

    ``perm`` is a tuple with ``perm[i-1] = w(i)`` in 1-based values; the
    action on a weight is ``(w . lam)_j = lam_{w^{-1}(j)}``.
    """

    def __init__(self, perm):
        perm = tuple(int(x) for x in perm)
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise ValueError("not a permutation of 1..n: %r" % (perm,))
        self.perm = perm

    @property
    def n(self):
        return len(self.perm)

    def __eq__(self, other):
        return isinstance(other, LeviWeylElement) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return "LeviWeylElement(%s)" % (self.perm,)

    def inverse(self):
        inv = [0] * self.n
        for i, v in enumerate(self.perm, start=1):
            inv[v - 1] = i
        return LeviWeylElement(inv)

    def length(self):
        """Coxeter length = inversion count."""
        p = self.perm
        return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
                   if p[i] > p[j])

    def act(self, lam):
        lam = _as_weight(lam, self.n)
        inv = self.inverse().perm
        return Weight(lam[inv[j] - 1] for j in range(self.n))

    def __mul__(self, other):
        # (self*other)(i) = self(other(i))
        return LeviWeylElement(tuple(self.perm[other.perm[i] - 1]
                                     for i in range(self.n)))


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

    def longest_levi_element(self):
        return LeviWeylElement(tuple(range(self.n, 0, -1)))

    def levi_weyl_group(self):
        return [LeviWeylElement(p)
                for p in itertools.permutations(range(1, self.n + 1))]

    def min_coset_reps(self, K):
        """Minimal-length representatives of W_K \\ W_L.

        ``K`` is a set of Levi simple-root indices (subset of
        ``levi_indices``); index i generates the transposition (i+1, i+2).
        """
        K = set(K)
        if not K <= set(self.levi_indices):
            raise ValueError("K must be a subset of the Levi simple roots")
        gens = [LeviWeylElement(tuple(
            j + 1 if j not in (i, i + 1) else (i + 2 if j == i else i + 1)
            for j in range(self.n))) for i in K]
        wk = _subgroup_closure(gens, self.n)
        reps = {}
        for w in self.levi_weyl_group():
            key = frozenset((s * w).perm for s in wk)
            cur = reps.get(key)
            if cur is None or w.length() < cur.length():
                reps[key] = w
        return sorted(reps.values(), key=lambda w: (w.length(), w.perm))

    def orthogonal_levi_subset(self, alpha_index):
        """Levi simple roots orthogonal to the given simple coroot."""
        cv = self.simple_coroots[alpha_index]
        return [i for i in self.levi_indices
                if self.pairing(self.simple_roots[i], cv) == 0]


def hw_functional(datum, p, alpha_index=None):
    """Boundary functional of the highest-weight cone at a simple root
    alpha outside the Levi: the sum over the minimal coset representatives
    w of W_K \\ W_L, K the Levi simple roots orthogonal to alpha^vee, of
    p^{length(w)} w^{-1} alpha^vee.

    A w in W_L is v u with v in W_K, u such a representative and
    length(w) = length(v) + length(u), and W_K fixes alpha^vee; so the sum
    over all of W_L is this row times the Poincare polynomial of W_K at p,
    a positive integer, and has the same sign on every weight.
    """
    if alpha_index is None:
        alpha_index = datum.beta_index
    if alpha_index in datum.levi_indices:
        raise ZipconeError("functional is defined for roots outside the Levi")
    coroot = datum.simple_coroots[alpha_index]
    total = Weight([0] * datum.n)
    for w in datum.min_coset_reps(datum.orthogonal_levi_subset(alpha_index)):
        total = total + p ** w.length() * w.inverse().act(coroot)
    return total


def _subgroup_closure(gens, n):
    ident = LeviWeylElement(tuple(range(1, n + 1)))
    seen = {ident.perm: ident}
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                x = g * w
                if x.perm not in seen:
                    seen[x.perm] = x
                    new.append(x)
        frontier = new
    return list(seen.values())


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
