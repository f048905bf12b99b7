"""Reference extreme rays and lineality space by active-set enumeration.

The former kernel of ``zipcones.cones``: every extreme ray of a pointed
cone in Q^n is cut out by some (n-1)-subset of its rows, so each subset of
rank n-1 gives a candidate line, kept in the direction where it satisfies
every row and its active rows have rank n-1.  The lineality space is the
nullspace of the rows.  Exponential in the row count, with a ``Fraction``
reduced row echelon form per subset, and independent of the double
description; tests compare the two on small systems.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from fm_reference import matrix_rank, primitive, rref
from zipcones.errors import NotPointedError


def nullspace(rows, ncols):
    """Integer basis of {x : rows . x = 0}."""
    mat, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(primitive(vec))
    return basis


def lineality_space(system):
    """Integer basis of the largest linear subspace inside the cone."""
    rows = [list(h) for h in system.inequalities]
    if not rows:
        rows = [[0] * system.rank]
    return nullspace(rows, system.rank)


def extreme_rays(system):
    """Sorted primitive extreme rays of a pointed halfspace cone; raises
    NotPointedError when the cone contains a line."""
    n = system.rank
    rows = list(system.inequalities)
    if lineality_space(system):
        raise NotPointedError("cone contains a nonzero linear subspace")
    rays = set()
    for subset in itertools.combinations(range(len(rows)), n - 1):
        sub = [list(rows[i]) for i in subset]
        if matrix_rank(sub) != n - 1:
            continue
        ns = nullspace(sub, n)
        if len(ns) != 1:
            continue
        r = ns[0]
        for cand in (r, tuple(-x for x in r)):
            if all(sum(h[i] * cand[i] for i in range(n)) >= 0 for h in rows):
                active = [list(h) for h in rows
                          if sum(h[i] * cand[i] for i in range(n)) == 0]
                if matrix_rank(active) == n - 1:
                    rays.add(cand)
    return sorted(rays)
