"""Sparse exact linear algebra over F_p: one reduction, three readers.

A column is a dict from hashable keys to integers, read mod p.  The
reduction takes the columns in order and reduces each against the pivots
of the columns before it; a column whose keys all cancel is dependent.
Each column may carry a tag, a vector {nonnegative int: residue} on keys
past every key of the columns.  A dependent column leaves its tag reduced
by the same steps, and that is a kernel vector written on the tags.  Keys
must be orderable: they are ranked in sorted order, and a column's pivot
is its least key.

Before the reduction, ``_peel`` takes out the forced zeros (structured
Gaussian elimination, after LaMacchia and Odlyzko): while some row has
exactly one nonzero among the live columns, every kernel vector is 0 on
that row's column, so the column leaves.  Hence the relations among the
columns are exactly the relations among the core columns that stay.  So
a peeled column is never dependent, and each dependent column leaves the
tag it would leave without the peel.  All else reads the one loop:
- ``dependent_columns``: the dependent indices; their count is the nullity
  (``oracle.h0_dimension``, ``modules.intersection_dimension``);
- ``fp_nullspace``: the kernel on the caller's tags
  (``modules.invariants_finite_group``);
- ``fp_det``: the sign of the pivot order times the product of the pivots.
"""

from math import prod


def _addmul(dst, src, c, p):
    for k, v in src.items():
        nv = (dst.get(k, 0) + c * v) % p
        if nv:
            dst[k] = nv
        else:
            dst.pop(k, None)


def _peel(columns, p):
    """Indices, ascending, of the core: the columns left after taking out,
    while some row has exactly one live nonzero, that row's column.  Per
    row, one integer's low w bits count the live columns and the bits above
    sum their indices.  Only a column with an entry 0 mod p is copied."""
    live = [col if all(x % p for x in col.values())
            else {k: x for k, x in col.items() if x % p} for col in columns]
    w = len(columns).bit_length()
    mask, rows = (1 << w) - 1, {}
    for step, col in zip(range(1, len(live) << w, 1 << w), live):
        for k in col:
            rows[k] = rows.get(k, 0) + step
    todo = list(rows)
    while todo:
        k = todo.pop()
        if rows[k] & mask == 1:
            j = rows[k] >> w
            for r in live[j]:
                rows[r] -= j << w | 1
                if rows[r] & mask == 1:
                    todo.append(r)
            live[j] = None
    return [i for i, col in enumerate(live) if col is not None]


def _reduce_dicts(columns, tags, p):
    """(pivots {rank of the least key: reduced column}, {index of a
    dependent column: the tag it leaves})."""
    rank = {k: r for r, k in enumerate(sorted(
        {k for col in columns for k, x in col.items() if x % p}))}
    top, pivots, dependent = len(rank), {}, {}
    for i, (col, tag) in enumerate(zip(columns, tags)):
        v = {rank[k]: x % p for k, x in col.items() if x % p}
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


def _reduce(columns, tags, p):
    """{index of a dependent column: its tag}, reduced on the core."""
    core = _peel(columns, p)
    dependent = _reduce_dicts([columns[i] for i in core],
                              [tags[i] for i in core], p)[1]
    return {core[i]: tag for i, tag in dependent.items()}


def dependent_columns(columns, p):
    """Indices, ascending, of the columns that lie in the span of the
    columns before them."""
    return list(_reduce(columns, [{}] * len(columns), p))


def fp_nullspace(columns, tags, p):
    """Basis of {sum x_i tags[i] : sum x_i columns[i] = 0} for linearly
    independent tags; with the unit tags [{i: 1}, ...] it is the kernel of
    the columns.  Returns one dict per dependent column, in order."""
    return list(_reduce(columns, tags, p).values())


def fp_det(mat, p):
    """Determinant mod p of a square matrix given as a sequence of rows."""
    pivots, dependent = _reduce_dicts(
        [dict(enumerate(row)) for row in mat], [{}] * len(mat), p)
    if dependent:
        return 0
    order = list(pivots)
    flips = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return (-1) ** flips * prod(pv[k] for k, pv in pivots.items()) % p
