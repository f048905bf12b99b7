"""Reference constructions for ``zipcones.modules``, kept as the
independent side of the tests that compare against them.

``spanning_module`` is the construction of V(lam) the package used before
its semistandard-tableau basis: it lists every multiset of initial-row
minors per level (each level i taken lam_i - lam_{i+1} times), expands
each product, groups the products by torus weight and keeps, per weight
block, the products independent of the ones before them.  Nothing
certifies the result but its count, which ``weyl_dimension`` must match.

``elementary_words_walk`` is the generator certificate the package used
before it checked only the index map of C and one 3 x 3 commutator: it
multiplies out the word for every 1 + E_ik as an n x n matrix.
"""

import itertools

from zipcones.errors import TheoremViolationError
from zipcones.fplinalg import dependent_columns
from zipcones.modules import (
    InducedModule,
    _expand_monomial,
    _monomial_weight,
    weyl_dimension,
)
from zipcones.weights import checked_weight


def spanning_module(lam, n, p):
    """V(lam) for an L-dominant lam, on the independent subset of the
    spanning set; ValueError if its size is not the Weyl dimension."""
    lam = checked_weight(lam, n, p)
    mults = tuple(lam[i] - lam[i + 1] for i in range(n - 1))
    levels = [level for level in range(1, n) if mults[level - 1]]
    level_choices = [list(itertools.combinations_with_replacement(
        itertools.combinations(range(1, n + 1), level), mults[level - 1]))
        for level in levels]
    spanning = []
    for pick in itertools.product(*level_choices):
        factors = {}
        for level, chosen in zip(levels, pick):
            for cols in chosen:
                factors[(level, cols)] = factors.get((level, cols), 0) + 1
        spanning.append(tuple(sorted(factors.items())))

    by_weight = {}
    for mono in spanning:
        by_weight.setdefault(_monomial_weight(n, lam[-1], mono), []).append(mono)
    basis, polys, weights = [], [], []
    for w in sorted(by_weight):
        block = [_expand_monomial(n, p, mono) for mono in by_weight[w]]
        dependent = set(dependent_columns([f.terms for f in block], p))
        for i, (mono, poly) in enumerate(zip(by_weight[w], block)):
            if i not in dependent:
                basis.append(mono)
                polys.append(poly)
                weights.append(w)
    if len(basis) != weyl_dimension(lam):
        raise ValueError("spanning set of V%s has rank %d, Weyl dimension %d"
                         % (lam, len(basis), weyl_dimension(lam)))
    return InducedModule(lam, n, p, lam[-1], mults, tuple(basis),
                         tuple(polys), tuple(weights))


def elementary(n, i, k):
    """1 + E_ik, 0-based, as a tuple of row tuples; the identity for i = k."""
    return tuple(tuple(int(r == c or (r, c) == (i, k)) for c in range(n))
                 for r in range(n))


def elementary_words_walk(transvection, cycle, p):
    """Raise TheoremViolationError unless words in T = ``transvection``
    and C = ``cycle`` multiply out mod p to every 1 + E_ik, i != k:
    T_{i,i+1} = C^{-1} T_{i-1,i} C (indices mod n), then gap by gap
    T_ik = [T_ij, T_jk] with j = i + 1 and a^{-1} = a^{p-1}, each word an
    n x n product compared with its n x n target."""
    n = len(cycle)
    sigma = [row.index(1) if 1 in row else n for row in cycle]
    if sorted(sigma) != list(range(n)) or cycle != tuple(
            tuple(int(c == s) for c in range(n)) for s in sigma):
        raise TheoremViolationError("C = %s is not a permutation matrix"
                                    % (cycle,))
    source = sorted(range(n), key=sigma.__getitem__)
    for gap in range(1, n):
        for i in range(n):
            j, k = (i + 1) % n, (i + gap) % n
            if gap == 1:
                out = transvection if i == 0 else tuple(
                    tuple(out[source[r]][source[c]] for c in range(n))
                    for r in range(n))
            else:
                cols = [[int(r == c) for r in range(n)] for c in range(n)]
                for x, y in ([(i, j), (j, k)] + [(i, j)] * (p - 1)
                             + [(j, k)] * (p - 1)):
                    cols[y] = [(a + b) % p for a, b in zip(cols[y], cols[x])]
                out = tuple(zip(*cols))
            if out != elementary(n, i, k):
                raise TheoremViolationError("word for 1 + E_%d,%d gives %s"
                                            % (i + 1, k + 1, out))
