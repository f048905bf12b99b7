"""Exact kernel for finitely generated cones (monoids) in Z^n.

A cone here is an additive submonoid of Z^n containing 0.  Two dual
presentations are supported:

* ``GeneratedCone`` -- a list of integer generators; membership questions
  come in a strict (nonnegative *integer* combination) and a saturated
  (nonnegative *rational* combination) flavour.
* ``HalfspaceSystem`` -- a list of integer rows ``h``, each meaning
  ``<h, x> >= 0``; a row with a coordinate that is not an integer is
  refused (ValueError).

All arithmetic is arbitrary-precision integer.  One exact
kernel, the integer double description (``double_description``), gives
the facets and implicit equalities of a generated cone, the extreme rays
and lineality space of a halfspace system, and so every containment and
equality test between cones, in either presentation; each presentation
object runs it once and caches the result.  ``DD_RAY_GUARD`` bounds its
intermediate ray count and ``DD_PAIR_GUARD`` the ray pairs one row
combines.
Saturated membership is read off that facet list.  ``monoid_membership``
refuses a cone with a line, rules a point out by a separating facet, caps
its one search by the same list, and solves the independent tail of the
generators from the extreme rays of the tail's own double description, so
the double description is the only rational eliminator here and every
membership is decided.  Everything is deterministic.
"""

from functools import cached_property
from math import gcd

from .errors import GuardExceededError, NotPointedError, RankMismatchError
from .weights import Weight, _as_weight

DD_RAY_GUARD = 10 ** 4
# the most positive-negative ray pairs one row of the double description
# combines; the dual of pol has 327424 at its largest row at n = 11 (9 s in
# all on 2 shared cores under Python 3.11) and 1310208 at n = 12 (87 s)
DD_PAIR_GUARD = 5 * 10 ** 5


def _primitive(row):
    """Divide an integer vector by the gcd of its entries, keeping sign; a
    coordinate that is not an integer raises ValueError, as in ``Weight``."""
    ints = Weight(row)
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


class GeneratedCone:
    """Cone given by generators; duplicate-free, zero vector excluded."""

    def __init__(self, rank, generators):
        self.rank = int(rank)
        ws = (_as_weight(g, self.rank) for g in generators)
        self.generators = tuple(dict.fromkeys(w for w in ws if any(w)))

    def __repr__(self):
        return "GeneratedCone(rank=%d, generators=%s)" % (
            self.rank, [tuple(g) for g in self.generators])

    def to_json_dict(self):
        return {"rank": self.rank,
                "generators": [list(g) for g in self.generators]}

    @cached_property
    def _dual(self):
        """The double description of the generators: the facet rows of the
        cone and a basis of the orthogonal complement of its span."""
        return double_description(self.generators, self.rank)

    @cached_property
    def _halfspaces(self):
        facets, lin = self._dual
        rows = list(facets)
        for e in lin:
            rows += [e, tuple(-x for x in e)]
        return HalfspaceSystem(self.rank, rows)

    @cached_property
    def _tail(self):
        """The longest linearly independent tail ``generators[start:]``:
        ``(start, [(ray, <ray, g>) for each tail generator g])``.  Each
        extreme ray of the tail's double description is tight on every
        tail generator but one, so it reads that generator's coefficient
        off any combination of the tail."""
        gens = self.generators
        start, rays = len(gens), []
        while start:
            more, lin = double_description(gens[start - 1:], self.rank)
            if len(gens) - start + 1 + len(lin) != self.rank:
                break
            start, rays = start - 1, more
        return start, [(r, _dot(r, g)) for g in gens[start:]
                       for r in rays if _dot(r, g)]


class HalfspaceSystem:
    """Cone given by inequalities ``<h, x> >= 0``; rows are primitive."""

    def __init__(self, rank, inequalities):
        self.rank = int(rank)
        rows = {}
        for h in inequalities:
            t = _primitive(h)
            if len(t) != self.rank:
                raise RankMismatchError(
                    "inequality of length %d in rank %d" % (len(t), self.rank))
            if all(c == 0 for c in t):
                raise ValueError("zero inequality row")
            rows[t] = None
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

    @cached_property
    def _rays(self):
        """The double description of the rows: the extreme rays and a
        basis of the lineality space."""
        return double_description(self.inequalities, self.rank)


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
    basis of the lineality space.  More than ``DD_RAY_GUARD`` rays, or a
    row with more than ``DD_PAIR_GUARD`` positive-negative pairs, raise
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
        if len(pos) * len(neg) > DD_PAIR_GUARD:
            raise GuardExceededError(
                "double description has %d ray pairs at row %d of %d, more "
                "than the limit %d (DD_PAIR_GUARD)"
                % (len(pos) * len(neg), k + 1, len(rows), DD_PAIR_GUARD))
        # distinct extreme rays are tight on distinct row sets
        masks = [z for _, z in rays]
        for rp, zp, dp in pos:
            for rn, zn, dn in neg:
                common = zp & zn
                # adjacent rays span a face of dimension len(lin) + 2, so
                # their common tight rows have rank n - len(lin) - 2
                if common.bit_count() < n - len(lin) - 2 or any(
                        z & common == common and z != zp and z != zn
                        for z in masks):
                    continue
                kept.append((_onto_hyperplane(rn, dn, rp, dp), common | bit))
                if len(kept) > DD_RAY_GUARD:
                    raise GuardExceededError(
                        "double description past %d rays at row %d of %d "
                        "(DD_RAY_GUARD)" % (DD_RAY_GUARD, k + 1, len(rows)))
        rays = kept
    return sorted(r for r, _ in rays), lin


# ---------------------------------------------------------------------------
# cone operations

def monoid_membership(cone, lam):
    """Nonnegative-integer coefficients writing ``lam`` over the generators.

    Returns a list of ints, the first solution in lexicographic order, or
    None when ``lam`` is provably not in the monoid.  The sum h of the
    facet rows of ``halfspaces_of`` is nonnegative on every generator, and
    zero exactly on those in the lineality space, so a generator with
    <h, g> = 0 means the cone contains a line: such a cone is refused with
    NotPointedError.  A facet row negative on ``lam`` separates it from
    the cone.  Otherwise one search walks the generators in order, each
    coefficient capped at floor(<h, lam> / <h, g>).  The longest linearly
    independent tail of the generators (``GeneratedCone._tail``) is not
    searched but solved: its combination is unique, and each coefficient
    is read off one extreme ray of the tail's double description, then
    checked exactly.  The search is finite, so it always decides.
    """
    lam = _as_weight(lam, cone.rank)
    gens = cone.generators
    facets, _ = cone._dual
    h = [sum(col) for col in zip(*facets)]
    heights = [_dot(h, g) for g in gens]
    if not all(heights):
        raise NotPointedError("monoid generators span a line")
    if not halfspaces_of(cone).contains(lam):
        return None
    start, solved = cone._tail
    caps = [_dot(h, lam) // w for w in heights]

    def rec(idx, residual):
        if idx < start:
            for c in range(caps[idx] + 1):
                sub = rec(idx + 1, [x - c * y
                                    for x, y in zip(residual, gens[idx])])
                if sub is not None:
                    return [c] + sub
            return None
        coeffs = []
        for j, (ray, d) in enumerate(solved, start):
            c, rem = divmod(_dot(ray, residual), d)
            # c <= caps[j] follows from c >= 0 and the exact sum below
            if rem or c < 0:
                return None
            coeffs.append(c)
            # the later rays are tight on gens[j], so they read the same
            residual = [x - c * y for x, y in zip(residual, gens[j])]
        # a tail that spans less than the rank can leave a remainder
        if any(residual):
            return None
        return coeffs

    return rec(0, list(lam))


def halfspaces_of(cone):
    """Dual (inequality) description of the rational hull of a cone.

    A ``HalfspaceSystem`` is returned unchanged.  For a ``GeneratedCone``
    the result has the same saturated-membership predicate.  It is the
    double description of the generators: the extreme rays of the dual
    cone, one primitive row per facet in sorted order, then the implicit
    equalities of a lower-dimensional cone as ``+e, -e`` pairs of its
    lineality basis.  The list is irredundant.
    """
    if isinstance(cone, HalfspaceSystem):
        return cone
    return cone._halfspaces


def lineality_space(system):
    """Integer basis of the largest linear subspace inside the cone."""
    return list(system._rays[1])


def extreme_rays(system):
    """Extreme rays of a pointed halfspace cone, primitive and sorted.

    Raises NotPointedError when the cone contains a line.
    """
    rays, lin = system._rays
    if lin:
        raise NotPointedError("cone contains a nonzero linear subspace")
    return list(rays)


def generators_of(cone):
    """A generating set of a cone: a ``GeneratedCone``'s own generators,
    or the rays plus a lineality basis and its negatives of a halfspace
    cone."""
    if isinstance(cone, GeneratedCone):
        return list(cone.generators)
    rays, lin = cone._rays
    gens = [Weight(r) for r in rays]
    for l in lin:
        gens += [Weight(l), Weight(tuple(-x for x in l))]
    return gens


def cones_equal_saturated(a, b):
    """True iff the saturated membership predicates of a and b coincide."""
    if a.rank != b.rank:
        raise RankMismatchError("rank %d vs %d" % (a.rank, b.rank))
    return cone_contains_saturated(a, b) and cone_contains_saturated(b, a)


def cone_contains_saturated(outer, inner):
    """True iff every point of ``inner`` lies in the saturation of ``outer``."""
    hs_out = halfspaces_of(outer)
    return all(hs_out.contains(g) for g in generators_of(inner))
