"""Integer character vectors and the primality test: the leaf of the
package's import graph.

Every layer that handles weights imports them from here, so a verb that
runs only polynomial code does not load the polyhedral kernel, and the
command line front end can check ``--p`` before it imports any layer.
"""

from __future__ import annotations

from .errors import RankMismatchError


class Weight(tuple):
    """Integer character vector with component-wise vector arithmetic.

    ``Weight`` subclasses ``tuple`` (hashable, immutable, indexable) but
    redefines ``+``, ``-`` and integer ``*`` as vector operations.
    """

    def __new__(cls, coords):
        return super().__new__(cls, tuple(int(c) for c in coords))

    @property
    def rank(self):
        return len(self)

    def __add__(self, other):
        self._check_rank(other)
        return Weight(a + b for a, b in zip(self, other))

    def __radd__(self, other):
        return self.__add__(other)

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


def is_prime(p):
    if not isinstance(p, int) or p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True
