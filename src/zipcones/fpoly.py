"""Sparse multivariate polynomials over F_p in matrix-entry variables.

Variables are tuples: ``('a', i, j)`` are the entries of the generic n x n
matrix (1-indexed), ``('b', i, j)`` entries of generic triangular group
elements, ``('t',)`` the one-parameter deformation variable.  Terms map
monomials to nonzero coefficients in 1..p-1.

A monomial is one packed integer.  Every variable owns a field of
``FIELD_BITS`` bits and keeps its exponent in the low ``FIELD_BITS - 1``
of them; the top bit of every field is a guard bit, clear in every stored
monomial, so exponents are at most ``EXPONENT_LIMIT``.  The field of a
variable comes from a fixed injective map: ``t`` owns field 0 and the
``a`` and ``b`` entries alternate after it along the square shells of
(i, j), so small matrices use low fields whatever their size.  Decoding
inverts the map.  A field index past ``FIELD_LIMIT`` is refused before any
monomial holds it, since one monomial takes a field per index below its
highest: the limit admits the entries of a 64 x 64 matrix and keeps a
monomial within 33 KB.  A product of monomials is one integer addition: two
exponents within the limit sum to less than ``2**FIELD_BITS``, so nothing
carries into the next field, and a sum that reaches a guard bit raises
``GuardExceededError`` naming the exponent and the limit.  The constant
monomial is 0.  Likewise no term dict built here (a product, sum,
substitution image or quotient) grows past ``MONOMIAL_CAP`` terms.

Two orders are in use.  The kernel (``leading``, ``exact_divide``, the
leading-term certificate of ``modules.build_module``) compares packed
monomials as integers, which is the lexicographic order on fields, most
significant first: a monomial order, which is all exact division needs.
Output (``sorted_terms``, ``to_json_dict``, ``repr``) is graded
lexicographic on the decoded monomials with the variable order a_{1,1},
..., a_{n,n}, then the b entries, then t, so serialized bytes do not
depend on the packing.

``Substitution`` is the one substitution routine: it splits a monomial
into the part in the mapped variables and the rest, adds the rest back
unchanged and memoises the image of the mapped part by its packed value.

``minor`` is the one source of minors of the generic matrix: the Delta_i
of ``delta_minor``, the module coordinates, the Cramer numerators of z and
the numerators of the entries of the reduction matrix Gamma all read the
same cache, keyed by p and the row and column tuples, in which every
minor expands into the smaller ones.

The weight grading assigns ``a_{i,j}`` the character vector
``e_i - p*e_j`` of the diagonal torus acting by twisted conjugation
``t . A = t A phi(t)^{-1}``.  ``entry_exponents`` is the one reader from
packed monomials to the exponents of the n x n entries, row by row, outside
the output path; ``weight_of`` and the certificates of ``sections`` read
its tuples.
"""

import struct
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from math import isqrt
from operator import or_

from .errors import GuardExceededError
from .weights import EXPONENT_LIMIT, MONOMIAL_CAP, Weight

FIELD_BITS = EXPONENT_LIMIT.bit_length() + 1
_FIELD = (1 << FIELD_BITS) - 1
# the field of b_{64,64}, the highest of a 64 x 64 matrix
FIELD_LIMIT = 2 * 64 ** 2


def _guard_mask(nbits):
    """The guard bits of every field that a value of ``nbits`` bits
    reaches: a repunit in base 2**FIELD_BITS, shifted to the top bit."""
    fields = nbits // FIELD_BITS + 1
    return ((1 << (FIELD_BITS * fields)) - 1) // _FIELD << (FIELD_BITS - 1)


# -- variables and packed monomials ------------------------------------------

_KIND_RANK = {"a": 0, "b": 1, "t": 2}


def _var_key(var):
    return (_KIND_RANK[var[0]],) + tuple(var[1:])


def _field(var):
    """Field index of a variable: 0 for t, then a and b alternating along
    the square shells of the 0-based (i, j); refused past ``FIELD_LIMIT``."""
    if var == ("t",):
        return 0
    if (len(var) == 3 and var[0] in ("a", "b")
            and all(isinstance(x, int) and x >= 1 for x in var[1:])):
        i, j = var[1] - 1, var[2] - 1
        cell = j * j + i if i < j else i * i + i + j
        field = 1 + 2 * cell + (var[0] == "b")
        if field > FIELD_LIMIT:
            raise GuardExceededError(
                "%r needs packed-monomial field %d, more than the limit %d"
                % (var, field, FIELD_LIMIT))
        return field
    raise ValueError("unknown variable %r" % (var,))


def _var_of(field):
    """Inverse of ``_field``."""
    if field == 0:
        return ("t",)
    cell, is_b = divmod(field - 1, 2)
    s = isqrt(cell)
    r = cell - s * s
    i, j = (r, s) if r < s else (s, r - s)
    return ("b" if is_b else "a", i + 1, j + 1)


def _shift(var):
    return FIELD_BITS * _field(var)


def _pack(pairs):
    m = 0
    for var, e in pairs:
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent of %r must be a nonnegative integer"
                             % (var,))
        if e > EXPONENT_LIMIT:
            raise GuardExceededError(
                "exponent %d of %r exceeds the packed-monomial limit %d"
                % (e, var, EXPONENT_LIMIT))
        m += e << _shift(var)
    return m


def _words(m, count):
    """The first ``count`` fields of m, split at once: FIELD_BITS is 32, so
    a field is one little-endian 4-byte word."""
    return struct.unpack("<%dI" % count, m.to_bytes(4 * count, "little"))


def _fields(m):
    """(field index, exponent) of every variable present in m."""
    words = _words(m, -(-m.bit_length() // FIELD_BITS))
    return [(f, e) for f, e in enumerate(words) if e]


def _decode(m):
    """The monomial as a tuple of (variable, exponent), sorted by variable."""
    return tuple(sorted(((_var_of(f), e) for f, e in _fields(m)),
                        key=lambda t: _var_key(t[0])))


def _check_exponents(monomials):
    """Raise if a sum of packed monomials set a guard bit.  The operands
    were within the limit, so no field carried into the next one."""
    acc = reduce(or_, monomials, 0)
    guard = _guard_mask(acc.bit_length())
    if acc & guard:
        m = next(m for m in monomials if m & guard)
        e = max(e for _, e in _fields(m))
        raise GuardExceededError(
            "exponent %d exceeds the packed-monomial limit %d"
            % (e, EXPONENT_LIMIT))


def _mono_deg(m):
    return sum(e for _, e in m)


def _grlex_key(m):
    """Sort key of a decoded monomial: larger key == graded-lex larger.

    The monomial is encoded as (degree, sequence of (negated variable
    key, exponent)); lexicographic comparison of that sequence reproduces
    comparison of the dense exponent vectors.
    """
    return (_mono_deg(m),
            tuple((tuple(-c for c in _var_key(v)), e) for v, e in m))


# -- the term-dict kernel -----------------------------------------------------

def _check_size(what, terms):
    """Raise once a term dict under construction passes ``MONOMIAL_CAP``."""
    if len(terms) > MONOMIAL_CAP:
        raise GuardExceededError("%s has %d terms, more than the limit %d"
                                 % (what, len(terms), MONOMIAL_CAP))


def _reduce_mod(acc, p):
    _check_exponents(acc)
    out = {}
    for m, c in acc.items():
        c %= p
        if c:
            out[m] = c
    return out


def _mul_terms(f, g, p):
    """Product of two term dicts."""
    if len(f) > len(g):
        f, g = g, f
    if len(f) == 1:
        # a monomial shift is injective and p is prime: nothing cancels
        ((m1, c1),) = f.items()
        out = {m1 + m2: c1 * c2 % p for m2, c2 in g.items()}
        _check_exponents(out)
        return out
    acc = {}
    get = acc.get
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2
        _check_size("a product", acc)
    return _reduce_mod(acc, p)


class FpPolynomial:
    """Immutable sparse polynomial over F_p."""

    __slots__ = ("p", "terms")

    def __init__(self, p, terms=None):
        self.p = p
        clean = {}
        for m, c in (terms or {}).items():
            c %= p
            if c:
                clean[m] = c
        self.terms = clean

    @classmethod
    def _of(cls, p, terms):
        """Wrap a term dict that is already reduced mod p."""
        poly = cls.__new__(cls)
        poly.p = p
        poly.terms = terms
        return poly

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p):
        return cls._of(p, {})

    @classmethod
    def constant(cls, p, c):
        c %= p
        return cls._of(p, {0: c} if c else {})

    @classmethod
    def monomial(cls, p, exps, c=1):
        """c times the product of var**e over the (var, e) pairs."""
        return cls(p, {_pack(exps): c})

    @classmethod
    def variable(cls, p, var, exp=1):
        return cls.monomial(p, ((var, exp),))

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, FpPolynomial) and self.p == other.p
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.p, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        return max((sum(e for _, e in _fields(m)) for m in self.terms),
                   default=0)

    def min_exponent(self, var):
        """Smallest exponent of ``var`` over the terms (0 for the zero
        polynomial)."""
        shift = _shift(var)
        return min(((m >> shift) & _FIELD for m in self.terms), default=0)

    def variables(self):
        return {_var_of(f) for m in self.terms for f, _ in _fields(m)}

    # -- arithmetic ----------------------------------------------------------

    def _same_field(self, other):
        if self.p != other.p:
            raise ValueError("polynomials over F_%d and F_%d do not combine"
                             % (self.p, other.p))

    def _binop(self, other, sign):
        if isinstance(other, int):
            other = FpPolynomial.constant(self.p, other)
        self._same_field(other)
        p = self.p
        terms = dict(self.terms)
        for m, c in other.terms.items():
            c = (terms.get(m, 0) + sign * c) % p
            if c:
                terms[m] = c
            else:
                terms.pop(m, None)
        _check_size("a sum", terms)
        return FpPolynomial._of(p, terms)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return FpPolynomial(self.p, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return FpPolynomial(
                self.p, {m: c * other for m, c in self.terms.items()})
        self._same_field(other)
        return FpPolynomial._of(self.p, _mul_terms(self.terms, other.terms,
                                                   self.p))

    __rmul__ = __mul__

    def __pow__(self, k):
        """f**k digit by digit in base p: f**(d p^i) is frobenius applied
        i times to f, raised to d by repeated multiplication."""
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = FpPolynomial.constant(self.p, 1)
        base = self
        while k:
            k, digit = divmod(k, self.p)
            for _ in range(digit):
                result = result * base
            base = base.frobenius() if k else base
        return result

    def frobenius(self):
        """Raise every variable exponent by the factor p (equals f**p)."""
        p = self.p
        top = max((e for m in self.terms for _, e in _fields(m)), default=0)
        if top * p > EXPONENT_LIMIT:
            raise GuardExceededError(
                "exponent %d exceeds the packed-monomial limit %d"
                % (top * p, EXPONENT_LIMIT))
        return FpPolynomial._of(p, {m * p: c for m, c in self.terms.items()})

    def substitute(self, images):
        """Simultaneous substitution; ``images`` is a Substitution or a
        dict from variables to polynomials; unmapped variables stay
        themselves."""
        if not isinstance(images, Substitution):
            images = Substitution(self.p, images)
        return images(self)

    # -- term order ----------------------------------------------------------

    def leading(self):
        """(monomial, coefficient) that is largest in the kernel order."""
        best = max(self.terms)
        return best, self.terms[best]

    def sorted_terms(self):
        """Terms as (decoded monomial, coefficient) in descending graded-lex
        order (canonical serialization)."""
        return sorted(((_decode(m), c) for m, c in self.terms.items()),
                      key=lambda t: _grlex_key(t[0]), reverse=True)

    def to_json_dict(self):
        def var_name(v):
            if v[0] in ("a", "b"):
                return "%s_%d_%d" % (v[0], v[1], v[2])
            return v[0]

        return {"p": self.p,
                "terms": [{"exps": {var_name(v): e for v, e in m},
                           "coef": c}
                          for m, c in self.sorted_terms()]}

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            factors = [str(c)] if (c != 1 or not m) else []
            for v, e in m:
                name = "_".join(str(x) for x in v)
                factors.append(name if e == 1 else "%s^%d" % (name, e))
            bits.append("*".join(factors))
        return " + ".join(bits)


class Substitution:
    """The ring map that sends each variable in ``images`` to its image
    polynomial and fixes every other variable.

    A monomial splits into its mapped part (the fields of the mapped
    variables) and the rest.  The rest is masked off and added back
    unchanged; the image of the mapped part is the product of the image
    powers over its variables, memoised by the part's packed value, and
    the image powers are memoised too.  The memo lives as long as the
    object: keep one object for a batch of polynomials whose monomials
    share mapped parts, and drop it afterwards.
    """

    __slots__ = ("p", "_mask", "_mapped", "_products")

    def __init__(self, p, images):
        self.p = p
        mapped = []
        for var, img in images.items():
            if img.p != p:
                raise ValueError("image of %r is over F_%d, not F_%d"
                                 % (var, img.p, p))
            mapped.append((_shift(var), [{0: 1}, img.terms]))
        self._mapped = mapped
        self._mask = sum(_FIELD << shift for shift, _ in mapped)
        self._products = {0: {0: 1}}

    def _power(self, powers, e):
        while len(powers) <= e:
            powers.append(_mul_terms(powers[-1], powers[1], self.p))
        return powers[e]

    def _image(self, part):
        """Term dict of the image of a mapped part."""
        img = self._products.get(part)
        if img is None:
            for shift, powers in self._mapped:
                e = (part >> shift) & _FIELD
                if e:
                    break
            rest = self._image(part - (e << shift))
            img = _mul_terms(rest, self._power(powers, e), self.p)
            self._products[part] = img
        return img

    def image_terms(self, m):
        """Term dict of the image of the packed monomial ``m``; the caller
        checks the exponents of the sums (``__call__`` reduces them)."""
        part = m & self._mask
        rest = m - part
        return {rest + mi: ci for mi, ci in self._image(part).items()}

    def __call__(self, poly):
        p = self.p
        if poly.p != p:
            raise ValueError("polynomial over F_%d, substitution over F_%d"
                             % (poly.p, p))
        acc = {}
        get = acc.get
        for m, c in poly.terms.items():
            for key, ci in self.image_terms(m).items():
                acc[key] = get(key, 0) + c * ci
            _check_size("a substitution image", acc)
        return FpPolynomial._of(p, _reduce_mod(acc, p))


def a_var(p, i, j):
    return FpPolynomial.variable(p, ("a", i, j))


def generic_matrix(n, p):
    return [[a_var(p, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]


def mat_identity(n, p):
    one = FpPolynomial.constant(p, 1)
    zero = FpPolynomial.zero(p)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    """A B, skipping each product with a zero factor (most of them in X g
    for a constant g); an entry with no other is the zero row[0] col[0]."""
    def entry(row, col):
        terms = [a * b for a, b in zip(row, col) if b and a]
        return sum(terms[1:], terms[0]) if terms else row[0] * col[0]
    return [[entry(row, col) for col in zip(*B)] for row in A]


def matrix_images(M):
    """The substitution a_ij -> M[i][j] of the generic matrix by the
    square polynomial matrix M (1-indexed variables), leaving out every
    entry that maps to itself.  The one place a matrix acts on the
    generic matrix: compose M with ``mat_mul`` and ``generic_matrix``."""
    images = {}
    for i, row in enumerate(M, start=1):
        for j, img in enumerate(row, start=1):
            var = ("a", i, j)
            if img.terms != {1 << _shift(var): 1}:
                images[var] = img
    return images


def _check_minor_size(k):
    """Refuse a k x k minor, which has k! terms, past ``MONOMIAL_CAP`` of
    them.  The count i! stops at the first i past the cap, so a large k
    costs no time and no number too long to print."""
    terms = i = 1
    while terms <= MONOMIAL_CAP and i < k:
        i += 1
        terms *= i
    if terms > MONOMIAL_CAP:
        raise GuardExceededError(
            "a %d x %d minor has %s%d terms, more than the limit %d"
            % (k, k, "at least " if i < k else "", terms, MONOMIAL_CAP))


@lru_cache(maxsize=None)
def minor(p, rows, cols):
    """Determinant of the a-variable submatrix on the 1-indexed row and
    column tuples, expanded along its first row into smaller minors that
    come from the same cache; refused by its size before anything is
    expanded."""
    if len(rows) != len(cols):
        raise ValueError("minor needs equally many rows and columns")
    _check_minor_size(len(rows))
    if not rows:
        return FpPolynomial.constant(p, 1)
    top, rest = rows[0], rows[1:]
    total = FpPolynomial.zero(p)
    for idx, c in enumerate(cols):
        term = a_var(p, top, c) * minor(p, rest, cols[:idx] + cols[idx + 1:])
        total = total + term if idx % 2 == 0 else total - term
    return total


def delta_minor(n, p, i):
    """Delta_i of the generic n x n matrix over F_p: rows 1..i against the
    last i columns, from the ``minor`` cache; refused by its size before
    the index tuples are built."""
    _check_minor_size(i)
    return minor(p, tuple(range(1, i + 1)), tuple(range(n + 1 - i, n + 1)))


def exact_divide(f, g):
    """Quotient f/g when g divides f exactly, else None.

    Single-divisor multivariate division: in an integral domain with a
    multiplicative monomial order, g | f forces LT(g) | LT(f), so leading
    term reduction either terminates with remainder zero or proves
    non-divisibility.  The remainder is a term dict with a max-heap of its
    monomials, whose stale entries are skipped when popped.  A monomial
    divides another when their difference borrows from no field, which the
    guard bits show.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._same_field(g)
    p = f.p
    gm, gc = g.leading()
    gc_inv = pow(gc, p - 2, p)
    tail = [(m, c) for m, c in g.terms.items() if m != gm]
    rem = dict(f.terms)
    heap = [-m for m in rem]
    heapify(heap)
    # every monomial met below is at most max(f) or gm
    guard = _guard_mask(max(max(rem, default=0), gm).bit_length())
    quot = {}
    while heap:
        fm = -heappop(heap)
        fc = rem.pop(fm, 0)
        if not fc:
            continue
        qm = fm - gm
        if qm < 0 or qm & guard:
            return None
        qc = fc * gc_inv % p
        quot[qm] = qc
        _check_size("a quotient", quot)
        for m, c in tail:
            key = qm + m
            if key & guard:
                # an exponent beyond the limit, hence beyond every exponent
                # of f: deg_v(q g) = deg_v(f) for every variable v if g | f
                return None
            c = (rem.get(key, 0) - qc * c) % p
            if c:
                if key not in rem:
                    heappush(heap, -key)
                rem[key] = c
            else:
                rem.pop(key, None)
    return FpPolynomial._of(p, quot)


@lru_cache(maxsize=None)
def _entry_fields(n):
    """The fields of the n x n entries a_ij, row by row."""
    return tuple(_field(("a", i, j)) for i in range(1, n + 1)
                 for j in range(1, n + 1))


def entry_exponents(f, n):
    """{exponent tuple: coefficient} of f, each tuple the exponents of the
    n x n entries row by row; ValueError for any other variable.  The
    first 2 n^2 fields hold t and the a and b of the n^2 cells that the
    n x n entries fill, a in the odd ones."""
    count = 2 * n * n
    order = _entry_fields(n)
    out = {}
    for m, c in f.terms.items():
        words = () if m >> FIELD_BITS * count else _words(m, count)
        if not words or any(words[::2]):
            v = next(_var_of(g) for g, _ in _fields(m)
                     if g % 2 == 0 or g >= count)
            raise ValueError("weight grading is defined on the %d x %d "
                             "matrix entries only, found %r" % (n, n, v))
        out[tuple(map(words.__getitem__, order))] = c
    return out


def exponent_weight(terms, n, p):
    """Common twisted-conjugation weight of the exponent tuples of
    ``terms``: row sums minus p times column sums; None when there are no
    terms or their weights differ."""
    found = {tuple(sum(e[i * n:i * n + n]) - p * sum(e[i::n])
                   for i in range(n)) for e in terms}
    return Weight(found.pop()) if len(found) == 1 else None


def weight_of(f, n):
    """Common twisted-conjugation weight of the monomials of f, or None;
    ValueError for variables other than the n x n matrix entries."""
    return exponent_weight(entry_exponents(f, n), n, f.p)

