"""Constructors for the named weight cones of the symplectic zip setting.

Each constructor returns a NamedCone carrying generators and, for most, a
halfspace presentation of the same saturated cone (this is asserted by the
test suite, not trusted).  ``NamedCone.saturation()`` is the one source of
a cone's saturated halfspaces: the stated ones, or else the double
description of the generators; a monoid has no halfspace presentation.

All cones live in X*(T) = Z^n with the L-dominance convention
a_1 >= ... >= a_n.
"""

from .cones import (GeneratedCone, HalfspaceSystem, halfspaces_of,
                    monoid_membership)
from .errors import GuardExceededError, ZipconeError
from .weights import (_fundamental, _unit, eta_weight, eta_weights,
                      hodge_character, hw_functional, schubert_weight,
                      validate_n_p)

# the most entries (vectors times rank) one catalog cone of rank n states,
# an integer of k > 1 30-bit words counting k, checked from n and p before
# any vector is built; about 17 bytes of peak memory each: sweep --n 300
# --compare gs (27.1 M) takes 455 MB, gs --n 600 (216 M) ran out of memory
CONE_ENTRY_GUARD = 5 * 10 ** 7


class NamedCone:
    """A named cone with a generator presentation and, optionally, a
    halfspace presentation, each built from its integer vectors.

    Its members (``contains``) are the points of the saturated cone,
    unless ``monoid`` is set: then they are the nonnegative integer
    combinations of the generators.
    """

    __slots__ = ("name", "rank", "generated", "halfspaces", "monoid")

    def __init__(self, name, rank, generators, halfspaces=None,
                 monoid=False):
        self.name = name
        self.rank = rank
        self.generated = GeneratedCone(rank, generators)
        self.halfspaces = (None if halfspaces is None
                           else HalfspaceSystem(rank, halfspaces))
        self.monoid = monoid

    def saturation(self):
        """The halfspaces of the saturated cone: the stated ones, or else
        the double description of the generators, cached on them."""
        if self.halfspaces is not None:
            return self.halfspaces
        return halfspaces_of(self.generated)

    def presentation(self, kind):
        if kind == "generators":
            return self.generated
        if kind == "halfspaces":
            if self.monoid:
                raise ZipconeError("%s has no halfspace presentation" % self.name)
            return self.saturation()
        raise ValueError(kind)

    def contains(self, lam):
        if self.monoid:
            # the search always decides; a monoid with a line raises
            # NotPointedError
            return monoid_membership(self.generated, lam) is not None
        return self.saturation().contains(lam)


def _check_entries(name, entries):
    if entries > CONE_ENTRY_GUARD:
        raise GuardExceededError(
            "%s states %d entries, more than the limit %d (CONE_ENTRY_GUARD)"
            % (name, entries, CONE_ENTRY_GUARD))


def _dominance_rows(n):
    return [[0] * i + [1, -1] + [0] * (n - i - 2) for i in range(n - 1)]


def cone_XplusI(n):
    _check_entries("XplusI", 2 * n * n)
    gens = [_fundamental(n, i) for i in range(1, n)] + [[1] * n, [-1] * n]
    return NamedCone("XplusI", n, gens, _dominance_rows(n))


def cone_GS(n):
    """Ampleness-type cone: pairings >= 0 on Levi positive coroots
    e_i - e_j, <= 0 on the rest, e_i + e_j and e_i (i < j); reduces to
    0 >= a_1 >= ... >= a_n."""
    _check_entries("GS", (n * n + n) * n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    units = [[int(j == i) for j in range(n)] for i in range(n)]
    rows = [[a - b for a, b in zip(units[i], units[j])] for i, j in pairs]
    rows += [[-a - b for a, b in zip(units[i], units[j])] for i, j in pairs]
    rows += [[-a for a in unit] for unit in units]
    gens = [[0] * (n - i) + [-1] * i for i in range(1, n + 1)]
    return NamedCone("GS", n, gens, rows)


def _schubert_generators(n, p):
    # the saturated cone states as many rows
    _check_entries("Schubert", 2 * n * n)
    return [schubert_weight(n, p, i) for i in range(1, n + 1)]


def cone_schubert(n, p):
    """Image of the dominant chamber under lam -> lam - p*reversal; a
    monoid generated by the images of the fundamental weights."""
    return NamedCone("Schubert", n, _schubert_generators(n, p), monoid=True)


def cone_schubert_saturated(n, p):
    gens = _schubert_generators(n, p)
    rows = []
    for i in range(1, n):
        # (p a_{i+1} + a_{n-i}) - (p a_i + a_{n+1-i}) <= 0
        r = [0] * n
        r[i - 1] += p
        r[n - i] += 1
        r[i] -= p
        r[n - i - 1] -= 1
        rows.append(r)
    last = [0] * n
    last[0] -= p
    last[n - 1] -= 1
    rows.append(last)
    return NamedCone("SchubertSaturated", n, gens, rows)


def cone_hw(n, p):
    """Highest-weight cone: L-dominant weights with non-positive boundary
    functional; for Sp(2n) a single inequality sum_i p^{n-i} a_i <= 0."""
    # an eta entry is below 4 p^(n^2 / 4) <= 2^(n^2 bits(p - 1) / 4 + 2)
    words = 1 + (n * n * (p - 1).bit_length() // 4 + 2) // 30
    _check_entries("HW", n * ((n - 1) * words + n + 1))
    rows = _dominance_rows(n)
    rows.append(-hw_functional(n, p))
    gens = eta_weights(n, p) + [hodge_character(n, p)]
    return NamedCone("HW", n, gens, rows)


def cone_pol(n, p):
    _check_entries("Pol", n * n * n)
    gens = [_unit(n, i) - p * _unit(n, j)
            for i in range(n) for j in range(n)]
    return NamedCone("Pol", n, gens)


def sigma1(n):
    s = {(i, j) for i in range(1, n + 1) for j in range(1, i + 1)}
    s |= {(i, n + 1 - i) for i in range(1, n + 1)}
    return frozenset(s)


def sigma1prime(n):
    s = {(i, j) for i in range(1, n + 1) for j in range(1, i)}
    s |= {(i, n + 1 - i) for i in range(1, n + 1)}
    return frozenset(s)


def cone_sigma(subset, n, p):
    _check_entries("Sigma", len(subset) * n)
    gens = [_unit(n, i - 1) - p * _unit(n, j - 1) for i, j in sorted(subset)]
    return NamedCone("Sigma", n, gens)


def cone_zip_sp4(p):
    gens = [(1, -p), (1 - p, 1 - p), (0, -p * (p - 1))]
    return NamedCone("ZipSp4", 2, gens, monoid=True)


def cone_zip_sp4_saturated(p):
    return NamedCone("ZipSp4Saturated", 2, [(1, -p), (-1, -1)],
                     [(1, -1), (-p, -1)])


def cone_zip_sp6_saturated(p):
    gens = [eta_weight(3, p, 1), eta_weight(3, p, 2),
            hodge_character(3, p), schubert_weight(3, p, 1)]
    rows = _dominance_rows(3)
    rows.append([-p * p, -1, -p])
    rows.append([-p, -p * p, -1])
    return NamedCone("ZipSp6Saturated", 3, gens, rows)


def cone_muord_saturated(n):
    base = cone_XplusI(n)
    return NamedCone("MuOrdSaturated", n, base.generated.generators,
                     base.halfspaces.inequalities)


# each name's constructor of (n, p) and the rank it is fixed at, or None
_CLI_NAMES = {
    "gs": (lambda n, p: cone_GS(n), None),
    "schubert": (cone_schubert, None),
    "schubert-sat": (cone_schubert_saturated, None),
    "hw": (cone_hw, None),
    "pol": (cone_pol, None),
    "sigma1": (lambda n, p: cone_sigma(sigma1(n), n, p), None),
    "sigma1p": (lambda n, p: cone_sigma(sigma1prime(n), n, p), None),
    "xplusi": (lambda n, p: cone_XplusI(n), None),
    "muord-sat": (lambda n, p: cone_muord_saturated(n), None),
    "zip-sp4": (lambda n, p: cone_zip_sp4(p), 2),
    "zip-sp4-sat": (lambda n, p: cone_zip_sp4_saturated(p), 2),
    "zip-sp6-sat": (lambda n, p: cone_zip_sp6_saturated(p), 3),
}


def catalog_cone(name, n, p):
    key = name.lower()
    if key not in _CLI_NAMES:
        raise ZipconeError("unknown cone %r (have: %s)"
                           % (name, ", ".join(sorted(_CLI_NAMES))))
    build, rank = _CLI_NAMES[key]
    if rank is not None and n not in (None, rank):
        raise ZipconeError("%s is a rank-%d cone" % (name, rank))
    n = rank or n
    if n is None:
        raise ZipconeError("cone %r needs --n" % name)
    validate_n_p(n, p)
    return build(n, p)


def catalog_names():
    return sorted(_CLI_NAMES)
