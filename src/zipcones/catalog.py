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
from .errors import ZipconeError
from .weights import (Weight, _fundamental, _unit, eta_weight, eta_weights,
                      hodge_character, hw_functional, schubert_weight,
                      validate_n_p)


class NamedCone:
    """A named cone with a generator presentation and, optionally, a
    halfspace presentation.

    Its members (``contains``) are the points of the saturated cone,
    unless ``monoid`` is set: then they are the nonnegative integer
    combinations of the generators.
    """

    __slots__ = ("name", "rank", "generated", "halfspaces", "monoid")

    def __init__(self, name, rank, generated, halfspaces=None,
                 monoid=False):
        self.name = name
        self.rank = rank
        self.generated = generated
        self.halfspaces = halfspaces
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


def _dominance_rows(n):
    rows = []
    for i in range(n - 1):
        r = [0] * n
        r[i], r[i + 1] = 1, -1
        rows.append(r)
    return rows


def cone_XplusI(n):
    gens = [_fundamental(n, i) for i in range(1, n)]
    diag = Weight([1] * n)
    gens += [diag, -diag]
    return NamedCone("XplusI", n, generated=GeneratedCone(n, gens),
                     halfspaces=HalfspaceSystem(n, _dominance_rows(n)))


def cone_GS(n):
    """Ampleness-type cone: pairings >= 0 on Levi positive coroots
    e_i - e_j, <= 0 on the rest, e_i + e_j and e_i (i < j); reduces to
    0 >= a_1 >= ... >= a_n."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    units = [[int(j == i) for j in range(n)] for i in range(n)]
    rows = [[a - b for a, b in zip(units[i], units[j])] for i, j in pairs]
    rows += [[-a - b for a, b in zip(units[i], units[j])] for i, j in pairs]
    rows += [[-a for a in unit] for unit in units]
    gens = [Weight([0] * (n - i) + [-1] * i) for i in range(1, n + 1)]
    return NamedCone("GS", n, generated=GeneratedCone(n, gens),
                     halfspaces=HalfspaceSystem(n, rows))


def _schubert_generators(n, p):
    return GeneratedCone(n, [schubert_weight(n, p, i) for i in range(1, n + 1)])


def cone_schubert(n, p):
    """Image of the dominant chamber under lam -> lam - p*reversal; a
    monoid generated by the images of the fundamental weights."""
    return NamedCone("Schubert", n, generated=_schubert_generators(n, p),
                     monoid=True)


def cone_schubert_saturated(n, p):
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
    return NamedCone("SchubertSaturated", n,
                     generated=_schubert_generators(n, p),
                     halfspaces=HalfspaceSystem(n, rows))


def cone_hw(n, p):
    """Highest-weight cone: L-dominant weights with non-positive boundary
    functional; for Sp(2n) a single inequality sum_i p^{n-i} a_i <= 0."""
    rows = _dominance_rows(n)
    rows.append(-hw_functional(n, p))
    gens = eta_weights(n, p) + [hodge_character(n, p)]
    return NamedCone("HW", n, generated=GeneratedCone(n, gens),
                     halfspaces=HalfspaceSystem(n, rows))


def cone_pol(n, p):
    gens = [_unit(n, i) - p * _unit(n, j)
            for i in range(n) for j in range(n)]
    return NamedCone("Pol", n, generated=GeneratedCone(n, gens))


def sigma1(n):
    s = {(i, j) for i in range(1, n + 1) for j in range(1, i + 1)}
    s |= {(i, n + 1 - i) for i in range(1, n + 1)}
    return frozenset(s)


def sigma1prime(n):
    s = {(i, j) for i in range(1, n + 1) for j in range(1, i)}
    s |= {(i, n + 1 - i) for i in range(1, n + 1)}
    return frozenset(s)


def cone_sigma(subset, n, p):
    gens = [_unit(n, i - 1) - p * _unit(n, j - 1) for i, j in sorted(subset)]
    return NamedCone("Sigma", n, generated=GeneratedCone(n, gens))


def cone_zip_sp4(p):
    gens = [Weight((1, -p)), Weight((1 - p, 1 - p)), Weight((0, -p * (p - 1)))]
    return NamedCone("ZipSp4", 2, generated=GeneratedCone(2, gens),
                     monoid=True)


def cone_zip_sp4_saturated(p):
    return NamedCone("ZipSp4Saturated", 2,
                     generated=GeneratedCone(2, [(1, -p), (-1, -1)]),
                     halfspaces=HalfspaceSystem(2, [(1, -1), (-p, -1)]))


def cone_zip_sp6_saturated(p):
    gens = [eta_weight(3, p, 1), eta_weight(3, p, 2),
            hodge_character(3, p), schubert_weight(3, p, 1)]
    rows = _dominance_rows(3)
    rows.append([-p * p, -1, -p])
    rows.append([-p, -p * p, -1])
    return NamedCone("ZipSp6Saturated", 3, generated=GeneratedCone(3, gens),
                     halfspaces=HalfspaceSystem(3, rows))


def cone_muord_saturated(n):
    base = cone_XplusI(n)
    return NamedCone("MuOrdSaturated", n,
                     generated=base.generated, halfspaces=base.halfspaces)


_CLI_NAMES = {
    "gs": lambda n, p: cone_GS(n),
    "schubert": cone_schubert,
    "schubert-sat": cone_schubert_saturated,
    "hw": cone_hw,
    "pol": cone_pol,
    "sigma1": lambda n, p: cone_sigma(sigma1(n), n, p),
    "sigma1p": lambda n, p: cone_sigma(sigma1prime(n), n, p),
    "xplusi": lambda n, p: cone_XplusI(n),
    "muord-sat": lambda n, p: cone_muord_saturated(n),
    "zip-sp4": lambda n, p: cone_zip_sp4(p),
    "zip-sp4-sat": lambda n, p: cone_zip_sp4_saturated(p),
    "zip-sp6-sat": lambda n, p: cone_zip_sp6_saturated(p),
}


def catalog_cone(name, n, p):
    key = name.lower()
    if key not in _CLI_NAMES:
        raise ZipconeError("unknown cone %r (have: %s)"
                           % (name, ", ".join(sorted(_CLI_NAMES))))
    if key in ("zip-sp4", "zip-sp4-sat"):
        if n not in (None, 2):
            raise ZipconeError("%s is a rank-2 cone" % name)
        n = 2
    elif key == "zip-sp6-sat":
        if n not in (None, 3):
            raise ZipconeError("%s is a rank-3 cone" % name)
        n = 3
    elif n is None:
        raise ZipconeError("cone %r needs --n" % name)
    validate_n_p(n, p)
    return _CLI_NAMES[key](n, p)


def catalog_names():
    return sorted(_CLI_NAMES)
