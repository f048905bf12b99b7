"""Exact kernel for finitely generated cones (monoids) in Z^n.

A cone here is an additive submonoid of Z^n containing 0.  Two dual
presentations are supported:

* ``GeneratedCone`` -- a list of integer generators; membership questions
  come in a strict (nonnegative *integer* combination) and a saturated
  (nonnegative *rational* combination) flavour.
* ``HalfspaceSystem`` -- a list of integer rows ``h``, each meaning
  ``<h, x> >= 0``.

All arithmetic is arbitrary-precision integer / rational.  One exact
kernel, the integer double description (``double_description``), gives
the facets and implicit equalities of a generated cone, the extreme rays
and lineality space of a halfspace system, and so every containment and
equality test between cones; ``DD_RAY_GUARD`` bounds its intermediate
ray count.  Rational feasibility with a certificate
(``nonneg_combination``, by Fourier-Motzkin elimination under the same
guard) serves ``saturation_certificate``.  Everything is deterministic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .errors import (
    GuardExceededError,
    NotPointedError,
    RankMismatchError,
    TheoremViolationError,
    UndecidedAtBoundError,
)
from .weights import Weight, _as_weight

DD_RAY_GUARD = 10 ** 4
MONOID_SEARCH_BOUND = 64


def _primitive(row):
    """Scale a rational vector to a primitive integer vector, keeping sign."""
    fr = [Fraction(x) for x in row]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


class GeneratedCone:
    """Cone given by generators; duplicate-free, zero vector excluded."""

    def __init__(self, rank, generators):
        self.rank = int(rank)
        seen = []
        for g in generators:
            w = _as_weight(g, self.rank)
            if any(c != 0 for c in w) and w not in seen:
                seen.append(w)
        self.generators = tuple(seen)
        self._halfspaces = None

    def __repr__(self):
        return "GeneratedCone(rank=%d, generators=%s)" % (
            self.rank, [tuple(g) for g in self.generators])

    def __eq__(self, other):
        return (isinstance(other, GeneratedCone)
                and self.rank == other.rank
                and set(self.generators) == set(other.generators))

    def __hash__(self):
        return hash((self.rank, frozenset(self.generators)))

    def to_json_dict(self):
        return {"rank": self.rank,
                "generators": [list(g) for g in self.generators]}


class HalfspaceSystem:
    """Cone given by inequalities ``<h, x> >= 0``; rows are primitive."""

    def __init__(self, rank, inequalities):
        self.rank = int(rank)
        rows = []
        for h in inequalities:
            t = _primitive(h)
            if len(t) != self.rank:
                raise RankMismatchError(
                    "inequality of length %d in rank %d" % (len(t), self.rank))
            if all(c == 0 for c in t):
                raise ValueError("zero inequality row")
            if t not in rows:
                rows.append(t)
        self.inequalities = tuple(rows)

    def __repr__(self):
        return "HalfspaceSystem(rank=%d, inequalities=%s)" % (
            self.rank, [list(h) for h in self.inequalities])

    def contains(self, lam):
        w = _as_weight(lam, self.rank)
        return all(sum(h[i] * w[i] for i in range(self.rank)) >= 0
                   for h in self.inequalities)

    def to_json_dict(self):
        return {"rank": self.rank,
                "inequalities": [list(h) for h in self.inequalities]}


# ---------------------------------------------------------------------------
# rational linear algebra helpers (exact, Fraction based)

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


def solve_unique(rows, rhs):
    """Solve rows.x = rhs when the columns are linearly independent.

    Returns the Fraction solution vector, or None when inconsistent.
    Caller must ensure column independence (unique solution if any).
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    mat, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = mat[r][ncols]
    # verify (guards against under-determined misuse)
    for row, b in zip(rows, rhs):
        if sum(Fraction(x) * s for x, s in zip(row, sol)) != b:
            return None
    return sol


# ---------------------------------------------------------------------------
# double description

def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _onto_hyperplane(v, d, u, du):
    """The primitive ``du * v - d * u``, on ``<a, x> = 0`` when
    ``d = <a, v>`` and ``du = <a, u> > 0``; ``v`` itself when ``d`` is 0."""
    if not d:
        return v
    w = [du * x - d * y for x, y in zip(v, u)]
    g = gcd(*w)
    return tuple(x // g for x in w)


def double_description(rows, n):
    """Extreme rays and a lineality basis of ``{x : <a, x> >= 0, a in rows}``.

    Integer double description (Motzkin, Raiffa, Thompson and Thrall 1953;
    Fukuda and Prodon 1996).  The cone starts as all of Q^n, with the unit
    vectors as lineality basis and no rays, and takes the rows one at a
    time.  While a lineality vector ``l`` is not orthogonal to the new row
    ``a``, ``l`` becomes a ray, oriented so that ``<a, l> > 0``; the other
    lineality vectors and the rays move along ``l`` onto ``<a, x> = 0``,
    which leaves their values on the earlier rows alone.  Otherwise the
    rays with ``<a, r> < 0`` are dropped, and a positive and a negative ray
    are combined onto the hyperplane when they are adjacent: no third ray
    is tight on every processed row on which both are tight.  Each ray
    carries those rows as a bitmask.

    Returns ``(rays, lineality)``: the extreme rays, primitive and sorted
    (modulo the lineality space when that is not zero), and a primitive
    basis of the lineality space.  More than ``DD_RAY_GUARD`` rays raise
    GuardExceededError.
    """
    lin = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    rays = []   # (ray, bitmask of the processed rows it is tight on)
    for k, a in enumerate(rows):
        bit = 1 << k
        dots = [_dot(a, l) for l in lin]
        j = next((i for i, d in enumerate(dots) if d), None)
        if j is not None:
            l0, d0 = lin.pop(j), dots.pop(j)
            if d0 < 0:
                l0, d0 = tuple(-x for x in l0), -d0
            lin = [_onto_hyperplane(l, d, l0, d0) for l, d in zip(lin, dots)]
            rays = [(_onto_hyperplane(r, _dot(a, r), l0, d0), z | bit)
                    for r, z in rays]
            # a lineality vector is tight on every earlier row
            rays.append((l0, bit - 1))
            continue
        pos, neg, kept = [], [], []
        for r, z in rays:
            d = _dot(a, r)
            if d > 0:
                pos.append((r, z, d))
                kept.append((r, z))
            elif d < 0:
                neg.append((r, z, d))
            else:
                kept.append((r, z | bit))
        # distinct extreme rays are tight on distinct row sets
        masks = [z for _, z in rays]
        for rp, zp, dp in pos:
            for rn, zn, dn in neg:
                common = zp & zn
                if any(z & common == common and z != zp and z != zn
                       for z in masks):
                    continue
                kept.append((_onto_hyperplane(rn, dn, rp, dp), common | bit))
                if len(kept) > DD_RAY_GUARD:
                    raise GuardExceededError(
                        "double description past %d rays at row %d of %d "
                        "(DD_RAY_GUARD)" % (DD_RAY_GUARD, k + 1, len(rows)))
        rays = kept
    return sorted(r for r, _ in rays), lin


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
            t = _primitive(list(coeffs) + [const])
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


# ---------------------------------------------------------------------------
# cone operations

def monoid_membership(cone, lam, bound=MONOID_SEARCH_BOUND):
    """Nonnegative-integer coefficients writing ``lam`` over the generators.

    Returns a list of ints, or None when ``lam`` is provably not in the
    monoid.  With linearly independent generators the unique rational
    solution decides.  With dependent generators the search is complete
    when every generator has negative coordinate sum (the sum functional
    bounds all coefficients); otherwise each coefficient is capped at
    ``bound`` and exhaustion raises UndecidedAtBoundError instead of
    returning a silent False.
    """
    lam = _as_weight(lam, cone.rank)
    gens = cone.generators
    if all(c == 0 for c in lam):
        return [0] * len(gens)
    if not gens:
        return None

    cols = [list(g) for g in gens]
    rows = [[cols[j][i] for j in range(len(gens))] for i in range(cone.rank)]
    if matrix_rank(rows) == len(gens):
        sol = solve_unique(rows, list(lam))
        if sol is None:
            return None
        if all(x.denominator == 1 and x >= 0 for x in sol):
            return [int(x) for x in sol]
        return None

    sums = [sum(g) for g in gens]
    lam_sum = sum(lam)
    complete = all(s < 0 for s in sums)
    if complete:
        if lam_sum > 0:
            return None
        caps = [lam_sum // s for s in sums]  # floor of positive ratio
    else:
        caps = [bound] * len(gens)

    found = _bounded_search(gens, lam, caps)
    if found is not None:
        return found
    if complete:
        return None
    raise UndecidedAtBoundError(
        "no combination with coefficients <= %d; membership undecided" % bound)


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


def saturated_membership(cone, lam):
    """True iff ``lam`` is a nonnegative rational combination of generators,
    decided by the cached dual description."""
    return halfspaces_of(cone).contains(lam)


def saturation_certificate(cone, lam):
    """Rational coefficients witnessing saturated membership, or None."""
    lam = _as_weight(lam, cone.rank)
    return nonneg_combination([list(g) for g in cone.generators], list(lam))


def halfspaces_of(cone):
    """Dual (inequality) description of the rational hull of a cone.

    The result has the same saturated-membership predicate as ``cone``.
    It is the double description of the generators: the extreme rays of
    the dual cone, one primitive row per facet in sorted order, then the
    implicit equalities of a lower-dimensional cone as ``+e, -e`` pairs
    of its lineality basis.  The list is irredundant.
    """
    if cone._halfspaces is None:
        facets, lin = double_description(cone.generators, cone.rank)
        rows = list(facets)
        for e in lin:
            rows.append(e)
            rows.append(tuple(-x for x in e))
        cone._halfspaces = HalfspaceSystem(cone.rank, rows)
    return cone._halfspaces


def lineality_space(system):
    """Integer basis of the largest linear subspace inside the cone."""
    return double_description(system.inequalities, system.rank)[1]


def extreme_rays(system):
    """Extreme rays of a pointed halfspace cone, primitive and sorted.

    Raises NotPointedError when the cone contains a line.
    """
    rays, lin = double_description(system.inequalities, system.rank)
    if lin:
        raise NotPointedError("cone contains a nonzero linear subspace")
    return rays


def generators_of(system):
    """A generating set (rays plus a lineality basis) of a halfspace cone."""
    rays, lin = double_description(system.inequalities, system.rank)
    gens = [Weight(r) for r in rays]
    for l in lin:
        gens.append(Weight(l))
        gens.append(Weight(tuple(-x for x in l)))
    return gens


def _presentations(c):
    """(generators, halfspace system) for either presentation of a cone."""
    if isinstance(c, GeneratedCone):
        return list(c.generators), halfspaces_of(c)
    if isinstance(c, HalfspaceSystem):
        return generators_of(c), c
    raise TypeError("expected GeneratedCone or HalfspaceSystem, got %r" % (c,))


def cones_equal_saturated(a, b):
    """True iff the saturated membership predicates of a and b coincide."""
    ra = a.rank
    if ra != b.rank:
        raise RankMismatchError("rank %d vs %d" % (a.rank, b.rank))
    gens_a, hs_a = _presentations(a)
    gens_b, hs_b = _presentations(b)
    return (all(hs_b.contains(g) for g in gens_a)
            and all(hs_a.contains(g) for g in gens_b))


def cone_contains_saturated(outer, inner):
    """True iff every point of ``inner`` lies in the saturation of ``outer``."""
    gens_in, _ = _presentations(inner)
    _, hs_out = _presentations(outer)
    return all(hs_out.contains(g) for g in gens_in)


def enumerate_lattice_points(system, box):
    """Integer points of ``box`` satisfying the system, in lex order.

    ``box`` is a sequence of (lo, hi) pairs, one per coordinate, both
    inclusive.
    """
    if len(box) != system.rank:
        raise RankMismatchError("box has %d coordinates, rank is %d"
                                % (len(box), system.rank))
    ranges = [range(lo, hi + 1) for lo, hi in box]
    out = []
    for pt in itertools.product(*ranges):
        if system.contains(pt):
            out.append(Weight(pt))
    return out
