"""Integer character vectors, the named weights of the section catalog,
the boundary functional and Gaussian binomial of Sp(2n) with Levi GL_n,
the primality test and the input checks every layer shares: the leaf of
the package's import graph, importing nothing but ``errors``.

Every layer that handles weights imports them from here, so a verb that
runs only polynomial code does not load the polyhedral kernel, and the
command line front end can check ``--p`` before it imports any layer.
"""

from .errors import GuardExceededError, RankMismatchError

# the largest exponent of a matrix entry or of t that any layer takes;
# fpoly packs each exponent into a field of one more bit
EXPONENT_LIMIT = (1 << 31) - 1
# the most terms of one polynomial (fpoly._check_minor_size, _check_size) and
# the default most monomials of one weight in the dimension oracle
# (oracle.enumerate_weight_monomials, oracle.h0_dimension, cli.build_parser):
# certifying a polynomial builds one oracle column per term
MONOMIAL_CAP = 2 * 10 ** 5
# psi_13, the least integer that passes the strong test to all of the 13
# prime bases 2..41 without being prime; below it those bases decide
# primality (Sorenson and Webster, Math. Comp. 2017)
PRIME_LIMIT = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class Weight(tuple):
    """Integer character vector with component-wise vector arithmetic.

    ``Weight`` subclasses ``tuple`` (hashable, immutable, indexable) but
    redefines ``+``, ``-`` and integer ``*`` as vector operations.  A
    coordinate that is not an integer raises ValueError.
    """

    def __new__(cls, coords):
        coords = tuple(coords)
        ints = tuple(map(int, coords))
        if ints != coords:
            raise ValueError("non-integer weight coordinates %r" % (coords,))
        return super().__new__(cls, ints)

    @property
    def rank(self):
        return len(self)

    def __add__(self, other):
        self._check_rank(other)
        return Weight(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        self._check_rank(other)
        return Weight(a - b for a, b in zip(self, other))

    def __neg__(self):
        return Weight(-a for a in self)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return Weight(k * a for a in self)

    __rmul__ = __mul__

    def dot(self, other):
        self._check_rank(other)
        return sum(a * b for a, b in zip(self, other))

    def _check_rank(self, other):
        if len(self) != len(other):
            raise RankMismatchError(
                "rank %d vs %d" % (len(self), len(other)))


def _as_weight(v, rank=None):
    w = v if isinstance(v, Weight) else Weight(v)
    if rank is not None and w.rank != rank:
        raise RankMismatchError("expected rank %d, got %d" % (rank, w.rank))
    return w


def _unit(n, i):
    """The i-th (0-based) coordinate vector."""
    return Weight(1 if j == i else 0 for j in range(n))


def _fundamental(n, i):
    """(1,...,1,0,...,0) with i leading ones."""
    if not 0 <= i <= n:
        raise ValueError("need 0 <= i <= n")
    return Weight([1] * i + [0] * (n - i))


def hodge_character(n, p):
    return Weight([1 - p] * n)


def schubert_weight(n, p, i):
    """i leading ones and i trailing -p entries."""
    return _fundamental(n, i) - p * Weight(reversed(_fundamental(n, i)))


def hw_functional(n, p):
    """Boundary functional of the highest-weight cone at beta: the sum
    over the minimal coset representatives w of W_K \\ W_L of
    p^{length(w)} w^{-1} beta^vee, with W_L = S_n, beta^vee = e_n and W_K =
    S_{n-1} the Levi Weyl group of the roots orthogonal to beta^vee.

    W_K fixes e_n, so w^{-1} beta^vee = e_{w^{-1}(n)} depends only on the
    coset, and the coset with w^{-1}(n) = i has as minimal representative
    the w that moves i past i+1, ..., n, of length n - i; so the sum is
    (p^{n-1}, ..., p, 1).  A w in W_L is v u with v in W_K and u such a
    representative and length(w) = length(v) + length(u), so the sum over
    all of W_L is this row times the Poincare polynomial of W_K at p, a
    positive integer, and has the same sign on every weight.
    """
    return Weight(p ** (n - i) for i in range(1, n + 1))


def gaussian_binomials(n, p):
    """[n, i]_p for i = 0..n: one running product [n, i] = [n, i-1]
    (p^{n-i+1} - 1) / (p^i - 1), each [n, i] an integer, so exact."""
    if p < 2:
        raise ValueError("need p >= 2, got %r" % (p,))
    row = [1]
    for i in range(1, n + 1):
        row.append(row[-1] * (p ** (n - i + 1) - 1) // (p ** i - 1))
    return row


def gaussian_binomial(n, i, p):
    """[n, i]_p, read off ``gaussian_binomials``."""
    row = gaussian_binomials(n, p)
    if not 0 <= i <= n:
        raise ValueError("need 0 <= i <= n")
    return row[i]


def eta_weights(n, p):
    """Boundary generators eta_1, ..., eta_{n-1} of the highest-weight
    cone: i entries [n-1, i]_p, then n - i entries -p^{n-i} [n-1, i-1]_p."""
    row = gaussian_binomials(n - 1, p)
    return [Weight([row[i]] * i + [-p ** (n - i) * row[i - 1]] * (n - i))
            for i in range(1, n)]


def eta_weight(n, p, i):
    """eta_i of ``eta_weights``, 1 <= i <= n - 1."""
    if not 1 <= i < n:
        raise ValueError("need 1 <= i <= n - 1")
    return eta_weights(n, p)[i - 1]


def is_prime(p):
    """Deterministic Miller-Rabin on the bases of ``_PRIME_BASES``; a p at
    or past ``PRIME_LIMIT``, where they stop deciding, raises
    GuardExceededError."""
    if not isinstance(p, int) or p < 2:
        return False
    if p >= PRIME_LIMIT:
        raise GuardExceededError(
            "p = %d is at or past %d, where the 13 Miller-Rabin bases "
            "2..41 stop deciding primality" % (p, PRIME_LIMIT))
    if any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1
    for a in _PRIME_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def validate_n_p(n, p):
    """Reject a matrix size below 1 and a non-prime characteristic
    (ValueError); ``is_prime`` refuses a p past ``PRIME_LIMIT``."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("matrix size n must be an integer >= 1, got %r" % (n,))
    if not is_prime(p):
        raise ValueError("p must be a prime, got %r" % (p,))


def checked_weight(lam, n, p):
    """lam as a ``Weight`` of rank n, after ``validate_n_p(n, p)``."""
    validate_n_p(n, p)
    lam = Weight(lam)
    if lam.rank != n:
        raise RankMismatchError("weight rank %d, expected %d" % (lam.rank, n))
    return lam
