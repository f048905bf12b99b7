"""Reference rational feasibility by Fourier-Motzkin elimination.

The former certificate routine of ``zipcones.cones``: the equalities
``sum mu_i v_i = target`` are solved by reduced row echelon form, and
Fourier-Motzkin elimination with back-substitution decides ``mu >= 0``
over the free coefficients.  It uses no facet list and no double
description, so tests compare the facets of ``halfspaces_of`` with it on
small cones.

The Fraction reduced row echelon form (``rref``, ``matrix_rank``) and a
monoid membership that solves independent generators with it and searches
every coefficient of dependent ones (``monoid_membership``, with the former
search ``_bounded_search``) live here too, as references for the double
description and for the one search of ``cones.monoid_membership``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from zipcones.cones import DD_RAY_GUARD, _primitive, halfspaces_of
from zipcones.errors import GuardExceededError, TheoremViolationError

# the cap of a coefficient of a generator in the lineality space, where
# the facet sum caps nothing; ``cones.monoid_membership`` refuses such a
# cone instead
SEARCH_BOUND = 64


class UndecidedAtBound(Exception):
    """The bounded search found no combination, and a generator in the
    lineality space was capped only by the bound: no verdict."""


def primitive(row):
    """A rational vector scaled to a primitive integer vector, keeping
    sign: its denominators cleared, then ``cones._primitive``."""
    fr = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in fr))
    return _primitive([int(x * den) for x in fr])


def rref(rows):
    """Reduced row echelon form. Returns (matrix, pivot column list)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def matrix_rank(rows):
    return len(rref(rows)[1])


def monoid_membership(cone, lam, bound=SEARCH_BOUND):
    """``cones.monoid_membership`` without its solved tail.

    ``nonneg_combination`` rules a point out.  Independent generators are
    decided by the unique rational solution of the reduced row echelon
    form; dependent ones by the former search of every coefficient up to
    the caps of ``cones.monoid_membership``: floor(<h, lam> / <h, g>), with
    h the sum of the rows of ``halfspaces_of``, and ``bound`` where
    <h, g> = 0."""
    lam = list(lam)
    gens = cone.generators
    if nonneg_combination([list(g) for g in gens], lam) is None:
        return None
    if matrix_rank([[g[i] for g in gens] for i in range(cone.rank)]) \
            == len(gens):
        mat, pivots = rref([[g[i] for g in gens] + [lam[i]]
                            for i in range(cone.rank)])
        sol = [mat[r][len(gens)] for r in range(len(pivots))]
        if all(x.denominator == 1 for x in sol):
            return [int(x) for x in sol]
        return None
    h = [sum(col) for col in zip(*halfspaces_of(cone).inequalities)]
    heights = [sum(a * b for a, b in zip(h, g)) for g in gens]
    caps = [sum(a * b for a, b in zip(h, lam)) // w if w else bound
            for w in heights]
    found = _bounded_search(gens, lam, caps)
    if found is not None or all(heights):
        return found
    raise UndecidedAtBound("no combination with coefficients <= %d" % bound)


def _bounded_search(gens, lam, caps):
    n = len(lam)
    m = len(gens)

    def rec(idx, residual):
        if idx == m:
            return [] if all(x == 0 for x in residual) else None
        g = gens[idx]
        if idx == m - 1:
            # solve residual = c * g directly
            c = None
            for gi, ri in zip(g, residual):
                if gi != 0:
                    if ri % gi != 0 or ri // gi < 0:
                        return None
                    q = ri // gi
                    if c is None:
                        c = q
                    elif c != q:
                        return None
                elif ri != 0:
                    return None
            if c is None:
                c = 0
            return [c] if c <= caps[idx] else None
        for c in range(caps[idx] + 1):
            rest = [ri - c * gi for ri, gi in zip(residual, g)]
            sub = rec(idx + 1, rest)
            if sub is not None:
                return [c] + sub
        return None

    return rec(0, list(lam))


def nonneg_combination(vectors, target):
    """Exact feasibility of ``sum mu_i v_i = target`` with ``mu_i >= 0``.

    Returns a list of Fractions (a certificate) or None.  The equalities
    are solved first: in their reduced row echelon form each pivot mu is
    an affine function of the free ones.  Fourier-Motzkin elimination with
    back-substitution then decides ``mu >= 0`` over the free mu alone.
    All arithmetic is rational.  A step that would hold more than
    ``DD_RAY_GUARD`` rows raises GuardExceededError.
    """
    m = len(vectors)
    target = [Fraction(t) for t in target]
    if all(t == 0 for t in target):
        return [Fraction(0)] * m
    n = len(target)
    eq, pivots = rref([[vectors[i][k] for i in range(m)] + [target[k]]
                       for k in range(n)])
    if m in pivots:
        return None
    free = [j for j in range(m) if j not in pivots]
    nfree = len(free)

    # rows: (coeffs over the free mu, const) meaning coeffs.mu + const >= 0;
    # pivot row r reads mu_pivot = const - sum_j eq[r][j] mu_j over free j
    rows = [(tuple(-eq[r][j] for j in free), eq[r][m])
            for r in range(len(pivots))]
    for i in range(nfree):
        e = tuple(Fraction(1) if j == i else Fraction(0) for j in range(nfree))
        rows.append((e, Fraction(0)))

    def norm(rws):
        out, seen = [], set()
        for coeffs, const in rws:
            if all(c == 0 for c in coeffs):
                if const < 0:
                    return None
                continue
            t = primitive(list(coeffs) + [const])
            if t not in seen:
                seen.add(t)
                out.append((tuple(Fraction(x) for x in t[:-1]), Fraction(t[-1])))
        return out

    rows = norm(rows)
    if rows is None:
        return None
    steps = []
    remaining = list(range(nfree))
    while remaining:
        best, best_cost = None, None
        for v in remaining:
            pos = sum(1 for c, _ in rows if c[v] > 0)
            neg = sum(1 for c, _ in rows if c[v] < 0)
            if best_cost is None or pos * neg - pos - neg < best_cost:
                best, best_cost = v, pos * neg - pos - neg
        v = best
        remaining.remove(v)
        pos = [(c, k) for c, k in rows if c[v] > 0]
        neg = [(c, k) for c, k in rows if c[v] < 0]
        zero = [(c, k) for c, k in rows if c[v] == 0]
        if len(zero) + len(pos) * len(neg) > DD_RAY_GUARD:
            raise GuardExceededError(
                "elimination would hold %d rows, past %d (DD_RAY_GUARD)"
                % (len(zero) + len(pos) * len(neg), DD_RAY_GUARD))
        steps.append((v, pos, neg))
        new = list(zero)
        for cp, kp in pos:
            for cn, kn in neg:
                coeffs = tuple(cp[i] * (-cn[v]) + cn[i] * cp[v]
                               for i in range(nfree))
                new.append((coeffs, kp * (-cn[v]) + kn * cp[v]))
        rows = norm(new)
        if rows is None:
            return None
    # feasible; back-substitute the free mu, then the pivot mu
    nu = [Fraction(0)] * nfree
    for v, pos, neg in reversed(steps):
        lo, hi = None, None
        for c, k in pos:   # c[v] > 0: nu_v >= -(k + sum_{j!=v} c_j nu_j)/c[v]
            rest = k + sum(c[j] * nu[j] for j in range(nfree) if j != v)
            bound = -rest / c[v]
            lo = bound if lo is None or bound > lo else lo
        for c, k in neg:
            rest = k + sum(c[j] * nu[j] for j in range(nfree) if j != v)
            bound = -rest / c[v]
            hi = bound if hi is None or bound < hi else hi
        if lo is not None:
            nu[v] = lo
        elif hi is not None:
            nu[v] = min(hi, Fraction(0))
        else:
            nu[v] = Fraction(0)
    mu = [Fraction(0)] * m
    for i, j in enumerate(free):
        mu[j] = nu[i]
    for r, c in enumerate(pivots):
        mu[c] = eq[r][m] - sum(eq[r][j] * mu[j] for j in free)
    # exact verification of the certificate
    if any(x < 0 for x in mu) or any(
            sum(Fraction(vectors[i][k]) * mu[i] for i in range(m)) != target[k]
            for k in range(n)):
        raise TheoremViolationError(
            "back-substituted combination is not a certificate for %s"
            % (tuple(target),))
    return mu
