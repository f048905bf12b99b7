"""Sections in the matrix model: equivariance checks, the triangular
reduction matrix and the rank-2 ring dimension.  This is the layer of
certified invariant polynomials; it imports nothing from ``modules``,
where the norm construction over GL_n(F_p) lives.

A section of weight lam is a polynomial f on the n x n matrix space that
is homogeneous for the weight grading and invariant under the twisted
conjugation X -> u X phi(u)^{-1} by lower unitriangular u, where phi
raises entries to the p-th power.  Invariance is checked, with a symbolic
t, on the n - 1 simple-root subgroups u = 1 + t E_{k,k-1}: over any field
they generate the lower unitriangular group, as
[1 + s E_kj, 1 + t E_jl] = 1 + st E_kl, and the twisted conjugation is a
group action.  ``oracle.unipotent_defect`` decides it from the t^(p^i)
coefficients of the image, the conditions that the dimension oracle
``oracle.h0_dimension`` imposes on all monomials of a weight; their
docstrings say why these suffice and why the least t-degree that moves
is a power of p.  ``rzip_sp4_graded_dimension`` here counts the same
dimension at rank 2 from the generators of the ring.

The reduction matrix Gamma = z A phi(z)^{-1} is written in closed form
(``gamma_entry``), so its zeros hold by construction and the weights of
its other entries are certified.  An entry of Gamma or z is the pair
(numerator, exponents of Delta_1..Delta_n in its denominator).  Each
Delta_i is certified once (``_delta_section``) and each entry of Gamma on
or above the anti-diagonal once (``_gamma_section``); ``gamma_matrix``,
the catalog and ``clear_denominators`` read those certificates.  alpha,
epsilon, f1 and f2 are numerators of entries of Gamma, and theta, rho
and tau are built from the certified Delta_1, Delta_2, epsilon, f1 and
f2 by steps that keep invariance, so none of them is proved again.
"""

from functools import lru_cache

from .errors import (
    InhomogeneousWeightError,
    NotUnipotentInvariantError,
    RankMismatchError,
    TheoremViolationError,
    WeightMismatchError,
    ZipconeError,
)
from .fpoly import (
    FpPolynomial,
    delta_minor,
    entry_exponents,
    exact_divide,
    exponent_weight,
    minor,
)
from .oracle import unipotent_defect
from .weights import Weight, _unit, eta_weight, schubert_weight, validate_n_p


class Section:
    """A verified equivariant polynomial ``body`` with its weight.  Equal
    when all fields are."""

    __slots__ = ("n", "p", "body", "weight", "name")

    def __init__(self, n, p, body, weight, name=None):
        self.n = n
        self.p = p
        self.body = body
        self.weight = weight
        self.name = name

    def _key(self):
        return (self.n, self.p, self.body, self.weight, self.name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __mul__(self, other):
        """Product of verified sections.

        Substitution is a ring homomorphism, so invariance of the factors
        transfers to the product with no further checking; the weight is
        additive.
        """
        if (self.n, self.p) != (other.n, other.p):
            raise ValueError("sections for (n, p) = %r and %r do not multiply"
                             % ((self.n, self.p), (other.n, other.p)))
        return Section(self.n, self.p, self.body * other.body,
                       self.weight + other.weight, None)

    def power(self, k):
        return Section(self.n, self.p, self.body ** k, k * self.weight)


def check_equivariance(body, lam, n, p, name=None):
    """Verify that the polynomial ``body`` is weight homogeneous and
    unipotent invariant; return a Section.

    ``lam`` may be None to accept the discovered weight.  Raises
    InhomogeneousWeightError, WeightMismatchError or
    NotUnipotentInvariantError (with the offending generator), and
    ValueError for n < 1, a non-prime p, a body over a field other than
    F_p or an entry outside the n x n matrix.
    """
    validate_n_p(n, p)
    if body.p != p:
        raise ValueError("body is a polynomial over F_%d, not F_%d"
                         % (body.p, p))
    terms = entry_exponents(body, n)
    found = exponent_weight(terms, n, body.p)
    if found is None:
        raise InhomogeneousWeightError(
            "body is zero or mixes weight components")
    if lam is not None and Weight(lam) != found:
        raise WeightMismatchError(found, Weight(lam))
    defect = unipotent_defect(terms, n, body.p)
    if defect is not None:
        k, degree = defect
        raise NotUnipotentInvariantError((k, k - 1),
                                         "offending t-degree %d" % degree)
    return Section(n, p, body, found, name)


def _certify(body, lam, n, p, name):
    """``check_equivariance`` on a body built here: a body that fails it
    falsifies the identity it was built from, so the failure is reported
    as a theorem violation naming the body."""
    try:
        return check_equivariance(body, lam, n, p, name)
    except (InhomogeneousWeightError, WeightMismatchError,
            NotUnipotentInvariantError) as e:
        raise TheoremViolationError("%s: %s" % (name, e)) from e


# ---------------------------------------------------------------------------
# the catalog of explicit sections

def _divided_sp6(p, which):
    """theta, rho, tau: a sum or difference of two products of the
    certified Delta_1, Delta_2, epsilon, f1 and f2, divided exactly by
    Delta_1^k, with nothing proved again.  Products of invariants are
    invariant (``Section.__mul__``), a sum of invariants of one weight is
    invariant of that weight, and so is an exact quotient of invariants in
    a domain, of weight the summands' weight minus k wt(Delta_1).  Summands
    of different weights or a failed division falsify the defining
    identities: a theorem violation."""
    d1, d2 = _delta_section(3, p, 1), _delta_section(3, p, 2)
    eps, f1, f2 = (_gamma_section(3, p, r, s)[0]
                   for r, s in ((1, 1), (1, 2), (2, 1)))
    if which == "theta":
        first, second, sign, power = d2.power(p + 1) * eps, f1 * f2, 1, p + 1
    elif which == "rho":
        first, second, sign, power = d2 * f2.power(p - 1), eps.power(p), -1, p
    else:
        first, second, sign, power = (d2.power(p * p), f1.power(p - 1) * eps,
                                      -1, p)
    if first.weight != second.weight:
        raise TheoremViolationError(
            "%s summands have weights %s and %s" % (
                which, tuple(first.weight), tuple(second.weight)))
    body = exact_divide(first.body + second.body * sign, d1.body ** power)
    if body is None or body.is_zero():
        raise TheoremViolationError(
            "%s numerator is not a nonzero multiple of Delta_1^%d"
            % (which, power))
    return Section(3, p, body, first.weight - power * d1.weight, which)


# the sections of a fixed matrix size: name -> (matrix size, the entry
# (r, s) of Gamma whose numerator it is and its stated weight of p, or the
# quotient it is and None)
_SECTIONS = {
    "alphasp4": (2, (1, 1), lambda p: Weight((0, -p * (p - 1)))),
    "epsilonsp6": (3, (1, 1), lambda p: Weight((1, 0, -p * p))),
    "f1sp6": (3, (1, 2), lambda p: eta_weight(3, p, 1)),
    "f2sp6": (3, (2, 1), lambda p: eta_weight(3, p, 2)),
    "thetasp6": (3, "theta", None),
    "rhosp6": (3, "rho", None),
    "tausp6": (3, "tau", None),
}


def catalog_section(name, n, p):
    """Build one of the named sections from the certified Delta_i and
    Gamma entries; see section_names.

    ``n`` may be None for the sections of a fixed matrix size; a given n
    below 1 and a non-prime p raise ValueError.
    """
    validate_n_p(1 if n is None else n, p)
    key = name.lower().replace("-", "").replace("_", "")
    delta = key.startswith("delta") and key[5:].isdecimal()
    if delta or key == "hasse":
        if n is None:
            raise ZipconeError("section %s needs the matrix size n" % name)
        i = int(key[5:]) if delta else n
        if not 1 <= i <= n:
            raise ZipconeError("delta index out of range for n=%d" % n)
        size, section = n, _delta_section(n, p, i)
        key = section.name if delta else key
    elif key not in _SECTIONS:
        raise ZipconeError("unknown section %r" % name)
    else:
        size, source, stated = _SECTIONS[key]
        if n not in (None, size):
            raise ZipconeError("section %s lives on %d x %d matrices"
                               % (name, size, size))
        if stated is None:
            section = _divided_sp6(p, source)
        else:
            # the certified weight against the paper's, in integers
            section = _gamma_section(size, p, *source)[0]
            if section.weight != stated(p):
                raise TheoremViolationError(
                    "%s has weight %s, not the stated %s"
                    % (key, tuple(section.weight), tuple(stated(p))))
    return Section(size, p, section.body, section.weight, key)


def section_names(n):
    """The catalog sections on n x n matrices; ValueError for n < 1."""
    validate_n_p(n, 2)  # the names do not depend on p
    return (["delta%d" % i for i in range(1, n + 1)] + ["hasse"]
            + [name for name, (size, _, _) in _SECTIONS.items() if size == n])


# ---------------------------------------------------------------------------
# the triangular reduction matrix

def gamma_entry(n, p, r, s):
    """Entry (r, s) of the reduction matrix z A phi(z)^{-1}, unreduced, as
    (numerator, exponents of Delta_1..Delta_n in the denominator):

      (-1)^{r-1} sum_{k=s}^{n+1-r} M_r(k) phi(L_s(k)) / (Delta_{r-1} Delta_s^p)

    with M_r(k) = minor((1..r), (k, n+2-r, ..., n)) and L_s(k) =
    minor((1..s-1, k), (n+1-s, ..., n)).  By the Schur complement
    (z A)_{r,k} is (-1)^{r-1} M_r(k) / Delta_{r-1}, the sign counting the
    moves of column k to the front, and zero for k > n + 1 - r; L_s(k) /
    Delta_s is the unit lower LU factor z^{-1} of A with its columns
    reversed, and phi(z)^{-1} = phi(z^{-1}).  The sum is empty for
    r + s > n + 1; on the anti-diagonal only k = s remains, whose
    L_s(s) = Delta_s cancels: the entry is (-1)^{r-1} Delta_r / Delta_{r-1}.
    """
    sign = (-1) ** (r - 1)
    exps = [0] * n
    if r > 1:
        exps[r - 2] = 1
    if r + s == n + 1:
        return delta_minor(n, p, r) * sign, tuple(exps)
    exps[s - 1] += p
    rows, tail = tuple(range(1, r + 1)), tuple(range(n + 2 - r, n + 1))
    last_s = tuple(range(n + 1 - s, n + 1))
    num = FpPolynomial.zero(p)
    for k in range(s, n + 2 - r):
        num = num + minor(p, rows, (k,) + tail) * minor(
            p, tuple(range(1, s)) + (k,), last_s).frobenius()
    return num * sign, tuple(exps)


def _lowest_terms(n, p, num, exps):
    """(num, exps) with each Delta_i that divides num cancelled against
    its denominator exponent; a zero numerator keeps no denominator."""
    exps = list(exps)
    for i in range(n):
        while exps[i] > 0 and (q := exact_divide(
                num, delta_minor(n, p, i + 1))) is not None:
            num, exps[i] = q, exps[i] - 1
    return num, tuple(exps)


def _numerator_weight(n, p, r, s, exps):
    """Weight of the numerator over prod Delta_i^exps_i of entry (r, s)."""
    weight = _unit(n, r - 1) - p * _unit(n, s - 1)
    for i, e in enumerate(exps, start=1):
        weight = weight + e * schubert_weight(n, p, i)
    return weight


@lru_cache(maxsize=None)
def _delta_section(n, p, i):
    """Delta_i of the generic n x n matrix, certified once with its weight."""
    return _certify(delta_minor(n, p, i), schubert_weight(n, p, i), n, p,
                    "delta%d" % i)


@lru_cache(maxsize=None)
def _gamma_section(n, p, r, s):
    """Entry (r, s) of Gamma, r + s <= n + 1, proved once: (Section of its
    numerator, exponents of Delta_1..Delta_n in its denominator), in
    lowest terms.

    The numerator's weight is e_r - p e_s + sum_i e_i wt(Delta_i) for the
    denominator exponents e_i.  Off the anti-diagonal the numerator is
    certified with that weight; on it the entry is +-Delta_r / Delta_{r-1}
    by construction, so it is checked by that identity against the
    certified Delta_r, and its weight by integers only.
    """
    num, exps = _lowest_terms(n, p, *gamma_entry(n, p, r, s))
    weight = _numerator_weight(n, p, r, s, exps)
    name = "gamma_%d_%d" % (r, s)
    if r + s <= n:
        return _certify(num, weight, n, p, name), exps
    delta = _delta_section(n, p, r)
    if num not in (delta.body, -delta.body) or weight != delta.weight:
        raise TheoremViolationError(
            "%s is not +-Delta_%d / Delta_%d" % (name, r, r - 1))
    return Section(n, p, num, weight, name), exps


@lru_cache(maxsize=None)
def gamma_matrix(n, p):
    """The twisted conjugate of the generic matrix by the unique lower
    unitriangular z that kills the strict anti-lower triangle of z A, at
    any n whose polynomials stay within the term cap of ``fpoly``.

    Returns (z, gamma), rows of (numerator, exponents of Delta_1..Delta_n
    in the denominator) pairs in lowest terms: z is lower unitriangular and
    entry (r, s) of gamma is ``gamma_entry``.  It vanishes for
    r + s > n + 1 by construction; every other entry is proved equivariant
    of weight e_r - p e_s once, by ``_gamma_section``, after the minors
    Delta_i are certified from the largest, Delta_n, on.
    """
    validate_n_p(n, p)
    # uniqueness of z makes every entry equivariant: verified, not trusted
    for i in range(n, 0, -1):
        _delta_section(n, p, i)
    no_den = (0,) * n
    z = [[(FpPolynomial.constant(p, int(i == j)), no_den) for j in range(n)]
         for i in range(n)]
    for i in range(2, n + 1):
        # Cramer's rule for sum_k z_{i,k} a_{k,c} = -a_{i,c} over the last
        # i - 1 columns c: the system matrix is A[1..i-1, cols] transposed,
        # with determinant Delta_{i-1}; the numerator puts -A[i, cols] in
        # the place of row k, and moving it to the end takes i - 1 - k
        # transpositions, so z_{i,k} = (-1)^{i-k} minor / Delta_{i-1}
        cols = tuple(range(n + 2 - i, n + 1))
        exps = [0] * n
        exps[i - 2] = 1
        for k in range(1, i):
            rows = tuple(r for r in range(1, i) if r != k) + (i,)
            num = minor(p, rows, cols) * (-1) ** (i - k)
            z[i - 1][k - 1] = _lowest_terms(n, p, num, exps)

    gamma = [[(FpPolynomial.zero(p), no_den)] * n for _ in range(n)]
    for r in range(1, n + 1):
        for s in range(1, n + 2 - r):
            section, exps = _gamma_section(n, p, r, s)
            gamma[r - 1][s - 1] = (section.body, exps)
    return z, gamma


def clear_denominators(n, p, r, s):
    """Polynomial section carried by entry (r, s) of ``gamma_matrix(n, p)``,
    for 1 <= r, 1 <= s and r + s <= n + 1 (ZipconeError otherwise).

    Certifies the structural claim that multiplying by
    Delta_{r-1} (prod_{m=s}^{n-r} Delta_m)^p clears all denominators (no
    denominator exponent passes the stated one), then returns the minimal
    clearing, the numerator that ``gamma_matrix`` certified, as a Section
    of weight e_r - p e_s + sum_i e_i wt(Delta_i).
    """
    if min(r, s) < 1 or r + s > n + 1:
        raise ZipconeError("(%d, %d) is not a nonzero entry of the %d x %d "
                           "reduction matrix" % (r, s, n, n))
    _, gamma = gamma_matrix(n, p)
    num, exps = gamma[r - 1][s - 1]
    stated = [0] * n
    if r >= 2:
        stated[r - 2] += 1
    for m in range(s, n - r + 1):
        stated[m - 1] += p
    if any(e > st for e, st in zip(exps, stated)):
        raise TheoremViolationError(
            "stated minor product does not clear the (%d, %d) denominators"
            % (r, s))
    return Section(n, p, num, _numerator_weight(n, p, r, s, exps),
                   "gamma_%d_%d_cleared" % (r, s))


# ---------------------------------------------------------------------------
# the graded ring of the rank-2 case

def rzip_sp4_graded_dimension(lam, p):
    """Monomial count in the three generators of the rank-2 section ring
    whose weights are (0,-p(p-1)), (1,-p), (1-p,1-p).

    Writing lam = a*(0,-p(p-1)) + b*(1,-p) + c*(1-p,1-p) forces
    b = lam_1 + c(p-1) and a p(p-1) = -(p lam_1 + lam_2) - c(p^2-1),
    so c is bounded and the scan is finite.
    """
    validate_n_p(2, p)
    lam = Weight(lam)
    if lam.rank != 2:
        raise RankMismatchError("the rank-2 ring needs a rank-2 weight, got %s"
                                % (lam,))
    bound = -(p * lam[0] + lam[1])
    if bound < 0:
        return 0
    count = 0
    for c in range(bound // (p * p - 1) + 1):
        b = lam[0] + c * (p - 1)
        if b < 0:
            continue
        rem = -lam[1] - b * p + c * (1 - p)
        if rem >= 0 and rem % (p * (p - 1)) == 0:
            count += 1
    return count
