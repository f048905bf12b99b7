"""Reference F_p linear algebra: the package's three eliminations before
they became one reduction, and its peel before it packed each row into one
integer, kept unchanged as the independent side of the cross-checks.

``fp_nullspace`` eliminates dict columns at odd p, ``_nullspace_gf2`` bit
integers at p = 2, each carrying a combination beside every pivot, and
``fp_det`` eliminates a dense matrix.  The odd-p loop never returns on a
column with an entry divisible by p (its pivot step is then 0), so callers
pass reduced entries.  ``peel_reference`` copies each column's live keys
and keeps a count and an index sum per row in two dicts.
"""

from __future__ import annotations

def _addmul(dst, src, c, p):
    for k, v in src.items():
        nv = (dst.get(k, 0) + c * v) % p
        if nv:
            dst[k] = nv
        else:
            dst.pop(k, None)


def fp_nullspace(columns, p):
    """Basis of the combination space {x : sum x_i columns[i] = 0}.

    ``columns`` is a list of dict vectors.  Returns a list of dicts
    {index: coefficient}; deterministic given the input order.
    """
    if p == 2:
        return _nullspace_gf2(columns)
    pivots = {}  # key -> (vector, combo)
    null = []
    for i, col in enumerate(columns):
        v = dict(col)
        combo = {i: 1}
        while v:
            key = min(v)
            if key not in pivots:
                break
            pv, pc = pivots[key]
            c = (-v[key] * pow(pv[key], p - 2, p)) % p
            _addmul(v, pv, c, p)
            _addmul(combo, pc, c, p)
        if v:
            pivots[min(v)] = (v, combo)
        else:
            null.append(combo)
    return null


def _nullspace_gf2(columns):
    # map keys to bit positions lazily; vectors become ints
    index = {}

    def to_bits(col):
        x = 0
        for k, v in col.items():
            if v % 2:
                if k not in index:
                    index[k] = len(index)
                x |= 1 << index[k]
        return x

    ints = [to_bits(c) for c in columns]
    pivots = {}  # lowest set bit -> (vector, combo int)
    null = []
    for i, v in enumerate(ints):
        combo = 1 << i
        while v:
            low = v & -v
            if low not in pivots:
                break
            pv, pc = pivots[low]
            v ^= pv
            combo ^= pc
        if v:
            pivots[v & -v] = (v, combo)
        else:
            null.append({j: 1 for j in range(len(columns)) if combo >> j & 1})
    return null


def fp_det(mat, p):
    """Determinant mod p of a square matrix given as a sequence of rows."""
    m, det = [[x % p for x in row] for row in mat], 1
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv], det = m[piv], m[c], -det
        top = m[c]
        det = det * top[c] % p
        inv = pow(top[c], p - 2, p)
        for row in m[c + 1:]:
            if row[c]:
                f = inv * row[c] % p
                row[:] = [(x - f * y) % p for x, y in zip(row, top)]
    return det % p


def peel_reference(columns, p):
    """Indices, ascending, of the core: the columns left after taking out,
    while some row has exactly one live nonzero, that row's column.  Per
    row a count and the sum of the live column indices name that column."""
    keys = [[k for k, x in col.items() if x % p] for col in columns]
    count, total = {}, {}
    for i, ks in enumerate(keys):
        for k in ks:
            count[k] = count.get(k, 0) + 1
            total[k] = total.get(k, 0) + i
    todo = list(count)
    while todo:
        k = todo.pop()
        if count[k] != 1:
            continue
        j = total[k]
        for r in keys[j]:
            count[r] -= 1
            total[r] -= j
            if count[r] == 1:
                todo.append(r)
        keys[j] = None
    return [i for i, ks in enumerate(keys) if ks is not None]
