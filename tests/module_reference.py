"""Reference construction of V(lam): the spanning set the package built
before its semistandard-tableau basis, kept as the independent side of the
span test.

``spanning_module`` lists every multiset of initial-row minors per level
(each level i taken lam_i - lam_{i+1} times), expands each product, groups
the products by torus weight and keeps, per weight block, the products
independent of the ones before them.  Nothing certifies the result but
its count, which ``weyl_dimension`` must match.
"""

import itertools

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
