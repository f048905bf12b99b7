"""Sparse exact linear algebra over F_p: one reduction, three readers.

A column is a dict from hashable keys to integers, read mod p.  The
reduction takes the columns in order and reduces each against the pivots
of the columns before it; a column whose keys all cancel is dependent.
Each column may carry a tag, a vector {nonnegative int: residue} on keys
past every key of the columns.  A dependent column leaves its tag reduced
by the same steps, and that is a kernel vector written on the tags.

Keys must be orderable: ``_ranked`` numbers them in sorted order, and a
column's pivot is its least key, whether odd p reduces dicts on the ranks
or p = 2 bit integers with bit r for rank r.  All else reads the one loop:
- ``dependent_columns``: the dependent indices; their count is the nullity
  (``oracle.h0_dimension``, ``modules.intersection_dimension``);
- ``fp_nullspace``: the kernel on the caller's tags
  (``modules.invariants_finite_group``);
- ``fp_det``: the sign of the pivot order times the product of the pivots.
"""

from __future__ import annotations

from math import prod


def _addmul(dst, src, c, p):
    for k, v in src.items():
        nv = (dst.get(k, 0) + c * v) % p
        if nv:
            dst[k] = nv
        else:
            dst.pop(k, None)


def _ranked(columns, p):
    """The number of keys nonzero mod p, and each column lazily as {rank of
    the key in sorted order: residue}; reading them all frees the ranking."""
    rank = {k: r for r, k in enumerate(sorted(
        {k for col in columns for k, x in col.items() if x % p}))}
    return len(rank), ({rank[k]: x % p for k, x in col.items() if x % p}
                       for col in columns)


def _reduce_dicts(columns, tags, p):
    """(pivots {rank of the least key: reduced column}, {index of a
    dependent column: the tag it leaves})."""
    top, ranked = _ranked(columns, p)
    pivots, dependent = {}, {}
    for i, (v, tag) in enumerate(zip(ranked, tags)):
        v.update((top + j, c % p) for j, c in tag.items() if c % p)
        key = min(v, default=top)
        while key in pivots:
            pv = pivots[key]
            _addmul(v, pv, -v[key] * pow(pv[key], p - 2, p), p)
            key = min(v, default=top)
        if key < top:
            pivots[key] = v
        else:
            dependent[i] = {k - top: c for k, c in v.items()}
    return pivots, dependent


def _reduce_bits(columns, tags):
    """``_reduce_dicts`` at p = 2, on bit integers keyed by 1 << rank."""
    top, ranked = _ranked(columns, 2)
    ints = [sum(1 << r for r in v) for v in ranked][::-1]  # popped in turn
    bound, pivots, dependent = 1 << top, {}, {}
    for i, tag in enumerate(tags):
        v = ints.pop() | sum(1 << j for j, c in tag.items() if c % 2) << top
        while (low := v & -v) in pivots:
            v ^= pivots[low]
        if 0 < low < bound:
            pivots[low] = v
        else:
            v >>= top
            dependent[i] = {j: 1 for j in range(v.bit_length()) if v >> j & 1}
    return pivots, dependent


def _reduce(columns, tags, p):
    return (_reduce_bits(columns, tags) if p == 2
            else _reduce_dicts(columns, tags, p))


def dependent_columns(columns, p):
    """Indices, ascending, of the columns that lie in the span of the
    columns before them."""
    return list(_reduce(columns, [{}] * len(columns), p)[1])


def fp_nullspace(columns, tags, p):
    """Basis of {sum x_i tags[i] : sum x_i columns[i] = 0} for linearly
    independent tags; with the unit tags [{i: 1}, ...] it is the kernel of
    the columns.  Returns one dict per dependent column, in order."""
    return list(_reduce(columns, tags, p)[1].values())


def fp_det(mat, p):
    """Determinant mod p of a square matrix given as a sequence of rows."""
    pivots, dependent = _reduce_dicts(
        [dict(enumerate(row)) for row in mat], [{}] * len(mat), p)
    if dependent:
        return 0
    order = list(pivots)
    flips = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return (-1) ** flips * prod(pv[k] for k, pv in pivots.items()) % p
