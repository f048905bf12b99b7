"""Exact kernel for finitely generated cones (monoids) in Z^n.

A cone here is an additive submonoid of Z^n containing 0.  Two dual
presentations are supported:

* ``GeneratedCone`` -- a list of integer generators; membership questions
  come in a strict (nonnegative *integer* combination) and a saturated
  (nonnegative *rational* combination) flavour.
* ``HalfspaceSystem`` -- a list of integer rows ``h``, each meaning
  ``<h, x> >= 0``.

All arithmetic is arbitrary-precision integer / rational.  Dualization is
done by Fourier-Motzkin projection, after which the facets are chosen by
the rank of their tight generators (no feasibility test per row); extreme
rays by active-set enumeration.  Rational feasibility with a certificate
(``nonneg_combination``) serves ``saturation_certificate`` and saturated
membership above the elimination guard.  Everything is deterministic.
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

FM_RANK_GUARD = 8
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
        basis.append(_primitive(vec))
    return basis


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
# Fourier-Motzkin machinery

def _normalize_rows(rows):
    out = []
    seen = set()
    for r in rows:
        t = _primitive(r)
        if all(x == 0 for x in t):
            continue
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def fourier_motzkin_project(rows, nvars, eliminate):
    """Project the homogeneous system ``rows . y >= 0`` onto a subset of y.

    ``rows`` are integer tuples of length ``nvars``; ``eliminate`` is the
    set of variable indices to remove.  Returns integer rows over the full
    index set with zeros in eliminated positions (caller slices).
    """
    rows = _normalize_rows(rows)
    todo = sorted(eliminate)
    while todo:
        # eliminate the variable with the smallest pos*neg fan-out
        best, best_cost = None, None
        for v in todo:
            pos = sum(1 for r in rows if r[v] > 0)
            neg = sum(1 for r in rows if r[v] < 0)
            cost = pos * neg - pos - neg
            if best_cost is None or cost < best_cost:
                best, best_cost = v, cost
        v = best
        todo.remove(v)
        pos = [r for r in rows if r[v] > 0]
        neg = [r for r in rows if r[v] < 0]
        zero = [r for r in rows if r[v] == 0]
        new = list(zero)
        for rp in pos:
            for rn in neg:
                comb = tuple(rp[i] * (-rn[v]) + rn[i] * rp[v]
                             for i in range(nvars))
                new.append(comb)
        rows = _normalize_rows(new)
    return rows


def nonneg_combination(vectors, target):
    """Exact feasibility of ``sum mu_i v_i = target`` with ``mu_i >= 0``.

    Returns a list of Fractions (a certificate) or None.  The equalities
    are solved first: in their reduced row echelon form each pivot mu is
    an affine function of the free ones.  Fourier-Motzkin elimination with
    back-substitution then decides ``mu >= 0`` over the free mu alone.
    All arithmetic is rational.
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
    """True iff ``lam`` is a nonnegative rational combination of generators.

    Amortized through the cached dual description when the rank permits;
    falls back to direct rational feasibility otherwise.
    """
    lam = _as_weight(lam, cone.rank)
    if cone._halfspaces is None and cone.rank <= FM_RANK_GUARD:
        halfspaces_of(cone)
    if cone._halfspaces is not None:
        return cone._halfspaces.contains(lam)
    return saturation_certificate(cone, lam) is not None


def saturation_certificate(cone, lam):
    """Rational coefficients witnessing saturated membership, or None."""
    lam = _as_weight(lam, cone.rank)
    return nonneg_combination([list(g) for g in cone.generators], list(lam))


def halfspaces_of(cone):
    """Dual (inequality) description of the rational hull of a cone.

    The result has the same saturated-membership predicate as ``cone``.
    Rows are primitive integer vectors: one row per facet, in
    Fourier-Motzkin order, then the implicit equalities of a
    lower-dimensional cone as ``+e, -e`` pairs.  The list is irredundant.
    """
    if cone.rank > FM_RANK_GUARD:
        raise GuardExceededError(
            "rank %d exceeds the elimination guard %d" % (cone.rank, FM_RANK_GUARD))
    if cone._halfspaces is not None:
        return cone._halfspaces
    n = cone.rank
    gens = cone.generators
    m = len(gens)
    # variables (mu_1..mu_m, x_1..x_n); the system is
    #   -G mu + x = 0  (equalities),   mu >= 0.
    # The reduced row echelon form, pivoting on the mu block first, solves
    # the equalities, so Fourier-Motzkin only ever sees the leftover free
    # mu variables (m - rank(G) of them).  Rows pivoting on an x column
    # are the equalities of the linear hull of the generators.
    eq, pivots = rref([[-g[k] for g in gens] + [int(i == k) for i in range(n)]
                       for k in range(n)])
    mu_pivots = {c: r for r, c in enumerate(pivots) if c < m}
    pure_x_eqs = [eq[r][m:] for r, c in enumerate(pivots) if c >= m]
    free_mu = [j for j in range(m) if j not in mu_pivots]

    # substitute the pivot expressions into mu_j >= 0; remaining columns
    # are [x_1..x_n, free mu's]
    width = n + len(free_mu)
    ineqs = []
    for j in range(m):
        row = [Fraction(0)] * width
        if j in mu_pivots:
            # mu_j = -(sum of the other entries of its pivot row)
            pr = eq[mu_pivots[j]]
            for k in range(n):
                row[k] = -pr[m + k]
            for fi, fj in enumerate(free_mu):
                row[n + fi] = -pr[fj]
        else:
            row[n + free_mu.index(j)] = Fraction(1)
        ineqs.append(_primitive(row))
    projected = fourier_motzkin_project(
        [tuple(r) for r in ineqs if any(r)], width, set(range(n, width)))
    xs = _facets([r[:n] for r in projected], gens, len(mu_pivots))
    for e in pure_x_eqs:
        xs.append(e)
        xs.append([-v for v in e])
    sys = HalfspaceSystem(n, xs)
    cone._halfspaces = sys
    return sys


def _facets(rows, gens, dim):
    """The rows, valid on the cone of ``gens`` of dimension ``dim``, that
    define facets: those whose tight generators have rank ``dim - 1``.

    A row tight on every generator is an implicit equality and is dropped.
    The tight set determines the face, so of several rows cutting out the
    same facet (possible only when ``dim`` is below the ambient rank) the
    first is kept.
    """
    kept = []
    seen = set()
    for h in _normalize_rows(rows):
        tight = frozenset(j for j, g in enumerate(gens)
                          if sum(a * b for a, b in zip(h, g)) == 0)
        if tight in seen:
            continue
        seen.add(tight)
        if matrix_rank([list(gens[j]) for j in tight]) == dim - 1:
            kept.append(h)
    return kept


def lineality_space(system):
    """Integer basis of the largest linear subspace inside the cone."""
    rows = [list(h) for h in system.inequalities]
    if not rows:
        rows = [[0] * system.rank]
    return nullspace(rows, system.rank)


def extreme_rays(system):
    """Extreme rays of a pointed halfspace cone, as primitive vectors.

    Raises NotPointedError when the cone contains a line.  Rays are found
    by enumerating active sets of rank n-1 and checked for feasibility and
    extremality; output is sorted for determinism.
    """
    n = system.rank
    rows = list(system.inequalities)
    if lineality_space(system):
        raise NotPointedError("cone contains a nonzero linear subspace")
    rays = set()
    # every extreme ray has an active set of rank n-1, hence is cut out by
    # some (n-1)-subset of the rows
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


def generators_of(system):
    """A generating set (rays plus a lineality basis) of a halfspace cone."""
    lin = lineality_space(system)
    if not lin:
        return [Weight(r) for r in extreme_rays(system)]
    rows = list(system.inequalities)
    for l in lin:
        rows.append(l)
        rows.append(tuple(-x for x in l))
    pointed = HalfspaceSystem(system.rank, rows)
    gens = [Weight(r) for r in extreme_rays(pointed)]
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
