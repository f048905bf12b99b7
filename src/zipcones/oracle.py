"""The dimension oracle: h0 of a weight on the matrix space, by brute force.

``h0_dimension`` enumerates the monomials of a given weight by their row
and column degrees and takes the nullity over F_p of the conditions
of invariance under the simple-root generators (its docstring), which
``unipotent_defect`` sums over one polynomial.  It is the brute-force side
for the structured descriptions, and a leaf of the package: it builds no
polynomial.  The image of a monomial under a generator is a product of
powers of linear forms in the matrix entries and t; each power's expansion
is one cached table of row-key increments, built digit by digit in base p
(Lucas' theorem), and only products of t-degree a power of p are formed.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import factorial, prod

from .errors import GuardExceededError
from .fplinalg import dependent_columns
from .weights import EXPONENT_LIMIT, MONOMIAL_CAP, checked_weight


def _compositions(total, caps):
    """Vectors 0 <= x <= caps with sum ``total``, in lexicographic order,
    each the successor of the one before, so any length is safe."""
    room = list(accumulate(reversed(caps), initial=0))[::-1]  # sum(caps[i:])
    if not 0 <= total <= room[0]:
        return
    x, left = [], total
    while True:
        for i in range(len(x), len(caps)):  # the least tail of sum ``left``
            x.append(max(0, left - room[i + 1]))
            left -= x[-1]
        yield tuple(x)
        # raise the last entry that can take one unit from its tail
        left = x.pop()
        while x and (not left or x[-1] == caps[len(x) - 1]):
            left += x.pop()
        if not x:
            return
        x[-1] += 1
        left -= 1


def _tables(rows, cols):
    """Nonnegative tables, flattened row by row, with these row and column
    sums (of equal totals), filled one row at a time.  An explicit stack
    holds, per row, its remaining compositions and the column sums that it
    and the rows below must fill; ``head`` holds the rows chosen so far."""
    if len(rows) == 1:
        yield cols
        return
    stack, head = [(_compositions(rows[0], cols), cols)], []
    while stack:
        choices, left = stack[-1]
        row = next(choices, None)
        if row is None:
            stack.pop()
            continue
        del head[(len(stack) - 1) * len(cols):]
        head += row
        rest = tuple(c - e for c, e in zip(left, row))
        if len(stack) == len(rows) - 1:
            yield tuple(head) + rest
        else:
            stack.append((_compositions(rows[len(stack)], rest), rest))


def _oracle_weight(lam, n, p, cap):
    lam = checked_weight(lam, n, p)
    if cap < 0:
        raise ValueError("monomial cap must be at least 0, got %r" % (cap,))
    return lam


def enumerate_weight_monomials(lam, n, p, cap=MONOMIAL_CAP):
    """Sorted exponent tuples (entries row by row) of the monomials of
    weight lam; more than ``cap`` of them raise GuardExceededError.

    Row degrees r and column degrees c give the weight r - p c, and
    |r| = |c| = d = (sum lam) / (1 - p).  So for each c with |c| = d and
    r = lam + p c >= 0 the monomials are the tables with margins (r, c).
    """
    lam = _oracle_weight(lam, n, p, cap)
    total = sum(lam)
    if total % (1 - p):
        return []
    low = [max(0, -(x // p)) for x in lam]  # r_i >= 0 iff c_i >= -lam_i / p
    free = total // (1 - p) - sum(low)
    if free < 0:
        return []
    out = []
    for extra in _compositions(free, (free,) * n):
        cols = tuple(a + b for a, b in zip(low, extra))
        for table in _tables(tuple(x + p * c for x, c in zip(lam, cols)),
                             cols):
            out.append(table)
            if len(out) > cap:
                raise GuardExceededError(
                    "more than %d monomials of weight %s" % (cap, tuple(lam)))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# images of powers of one entry, packed digit by digit

def _linear_image(p, k, i, j):
    """The image of a_ij under X -> (1 + t E_kl) X (1 - t^p E_kl), l = k - 1,
    as (entry, t-degree, sign) terms: row k gains t times row l, then
    column l loses t^p times column k."""
    l = k - 1
    terms = [((i, j), 0, 1)]
    if i == k:
        terms.append(((l, j), 1, 1))
    if j == l:
        terms.append(((i, k), p, -1))
    if (i, j) == (k, l):
        terms.append(((l, k), p + 1, -1))
    return terms


def _offset(n, entry, t_bits, a_bits):
    """The low bit of the exponent field of entry (i, j) in a row key: t
    in the low ``t_bits``, then ``a_bits`` per entry, row by row."""
    i, j = entry
    return t_bits + a_bits * ((i - 1) * n + j - 1)


@lru_cache(maxsize=None)
def _digit_table(p, k, entry, digit):
    """The image of a_ij^digit, entry = (i, j) and 0 <= digit < p, under
    the generator 1 + t E_{k,k-1}: a tuple of (split, coefficient), where
    split[m] units of a_ij go to the m-th term of ``_linear_image`` and the
    coefficient is their signed multinomial mod p, nonzero as digit < p.

    A row-k entry a_kj moves c units to a_{k-1,j} with t^c and coefficient
    binom(digit, c); a column-(k-1) entry a_{i,k-1} moves d units to a_ik
    with t^(pd) and coefficient (-1)^d binom(digit, d); the corner
    a_{k,k-1} splits multinomially over a_{k,k-1}, t a_{k-1,k-1}, -t^p a_kk
    and -t^(p+1) a_{k-1,k}.  The only t^0 split is a_ij^digit itself.
    """
    signs = [sign for _, _, sign in _linear_image(p, k, *entry)]
    return tuple((split, factorial(digit) // prod(map(factorial, split))
                  * prod(s ** x for s, x in zip(signs, split)) % p)
                 for split in _compositions(digit, (digit,) * len(signs)))


@lru_cache(maxsize=None)
def _packed_table(p, n, k, entry, e, t_bits, a_bits):
    """The image of a_ij^e under 1 + t E_{k,k-1} on row keys of this
    layout: its terms as (t-degree, coefficient in 1..p-1, row-key increment
    from a_ij^e to the term), the bitmask of their t-degrees, and the terms
    as (coefficient, increment) by t-degree bit.

    By Lucas' theorem the image of a^e is the product over the base-p
    digits e_i of that of (a^(p^i))^(e_i), which is the image of a^(e_i)
    with every exponent and t-degree times p^i.  Keys pack exponents
    linearly, so digit i adds its digit table's increments and t-degrees
    times p^i.  Products over distinct digits are distinct monomials with
    nonzero coefficients mod p, so no two terms merge.
    """
    source = _offset(n, entry, t_bits, a_bits)
    # one unit of a_ij moved to each linear term: t-degree, key increment
    moves = [(deg, deg - (1 << source)
              + (1 << _offset(n, target, t_bits, a_bits)))
             for target, deg, _ in _linear_image(p, k, *entry)]
    terms, scale = [(0, 1, 0)], 1
    while e:
        e, digit = divmod(e, p)
        digit_terms = [(sum(x * deg for x, (deg, _) in zip(split, moves)), c,
                        sum(x * step for x, (_, step) in zip(split, moves)))
                       for split, c in _digit_table(p, k, entry, digit)]
        terms = [(deg + scale * d, c * dc % p, step + scale * ds)
                 for deg, c, step in terms for d, dc, ds in digit_terms]
        scale *= p
    by_bit = {}
    for deg, c, step in terms:
        by_bit.setdefault(1 << deg, []).append((c, step))
    return terms, sum(by_bit), by_bit


# ---------------------------------------------------------------------------
# the oracle

def h0_dimension(lam, n, p, monomial_cap=MONOMIAL_CAP):
    """Dimension of the space of weight-lam sections on the matrix space.

    Enumerates the candidate monomials and solves the linear conditions of
    invariance under the n - 1 simple-root generators u(t) = 1 + t E_{k,k-1}
    (they generate the lower unitriangular group: ``sections`` docstring).
    Of f(u(t) X phi(u(t))^{-1}) = sum_s t^s D_s f it imposes D_{p^i} f = 0
    for p^i up to the degree times the largest t-exponent of an image,
    p + 1.  That suffices: t -> u(t) is a G_a-action, so (D_s) is an
    iterative Hasse-Schmidt derivation, D_a D_b = binom(a + b, a) D_{a+b}
    (Hasse-Schmidt 1937), and by Lucas' theorem
    D_s = (prod_i s_i!)^{-1} prod_i D_{p^i}^{s_i} for s = sum_i s_i p^i.
    D_1 alone, the Lie-algebra condition, would miss the t^p terms of
    phi(u).
    """
    lam = _oracle_weight(lam, n, p, monomial_cap)
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        return 0
    monos = enumerate_weight_monomials(lam, n, p, cap=monomial_cap)
    if not monos:
        return 0
    return len(dependent_columns(_columns(monos, n, p)[0], p))


def unipotent_defect(terms, n, p):
    """(k, least t-degree of f(u X phi(u)^{-1}) - f) for the first u =
    1 + t E_{k,k-1} that moves f = sum of c x^exps over ``terms`` {exponent
    tuple, entries row by row: c}, or None.  The columns, times c, sum to
    the D_{p^i} f, and the least nonzero D_s is always at a power of p:
    D_s = c prod_i D_{p^i}^{s_i} (``h0_dimension``), each with p^i <= s.
    """
    total = {}
    columns, t_mask = _columns(list(terms), n, p)
    for col, c in zip(columns, terms.values()):
        for row, x in col.items():
            total[row] = total.get(row, 0) + c * x
    moved = min(((row % (n - 1), row // (n - 1) & t_mask)
                 for row, c in total.items() if c % p), default=None)
    return None if moved is None else (moved[0] + 2, moved[1])


def _columns(monos, n, p):
    """The column of each monomial, its t^(p^i) rows as {row key:
    coefficient mod p}, and the mask of the t-degree field of a row key.

    A monomial's image is the product of the ``_packed_table`` of its
    moving entries at this call's field widths.  Its column sums, factor
    by factor, the choices of one table term per factor whose t-degrees
    can still add up to a power of p: a bitmask of the t-degrees the
    remaining factors can reach drops every other partial choice.  A row key packs the image
    monomial with its t-degree (the low field), times n - 1, plus k - 2.
    """
    d, top = max(map(sum, monos), default=0), p + 1 if n > 1 else 0
    if d * top > EXPONENT_LIMIT:
        raise GuardExceededError(
            "degree %d: image exponents may pass the packed limit %d"
            % (d, EXPONENT_LIMIT))
    entries = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    if d > EXPONENT_LIMIT:
        e, (i, j) = max(zip(max(monos, key=sum), entries))
        raise GuardExceededError(
            "exponent %d of %r exceeds the packed-monomial limit %d"
            % (e, ("a", i, j), EXPONENT_LIMIT))
    targets, q = 0, 1
    while q <= d * top:
        targets |= 1 << q
        q *= p
    # t in the low field, wide enough for d * top; then one field per entry,
    # wide enough for d
    t_bits, a_bits = max(1, (d * top).bit_length()), max(1, d.bit_length())
    t_mask = (1 << t_bits) - 1
    shift = [_offset(n, entry, t_bits, a_bits) for entry in entries]
    # the index in exps of each entry that moves under generator k: row k
    # and column k - 1, row by row
    generators = [(g, k, sorted(
        [(k - 1) * n + j for j in range(n)]
        + [i * n + k - 2 for i in range(n) if i != k - 1]))
        for g, k in enumerate(range(2, n + 1))]
    columns = []
    for exps in monos:
        key = sum(e << s for s, e in zip(shift, exps) if e)
        col = {}
        get = col.get
        for g, k, moving in generators:
            factors = [_packed_table(p, n, k, entries[at], exps[at], t_bits,
                                     a_bits) for at in moving if exps[at]]
            # reach[i]: the t-degrees that factors i, i + 1, ... can add up to
            reach = [1]
            for _, degrees, _ in reversed(factors):
                below, mask = reach[-1], 0
                while degrees:
                    low = degrees & -degrees
                    mask |= below * low
                    degrees ^= low
                reach.append(mask)
            reach.reverse()
            if not reach[0] & targets:
                continue
            # partial products, by row key with the t-degree so far in its
            # low field; a term is taken only if a target stays in reach
            states = {key: 1}
            for (terms, _, _), ahead in zip(factors[:-1], reach[1:]):
                grown = {}
                grown_get = grown.get
                for part, c in states.items():
                    want = targets >> (part & t_mask)
                    for deg, cf, step in terms:
                        if want >> deg & ahead:
                            row = part + step
                            grown[row] = grown_get(row, 0) + c * cf
                states = grown
            # the last factor must hit a target exactly
            _, degrees, by_bit = factors[-1]
            for part, c in states.items():
                hits = targets >> (part & t_mask) & degrees
                while hits:
                    low = hits & -hits
                    hits ^= low
                    for cf, step in by_bit[low]:
                        row = (part + step) * (n - 1) + g
                        col[row] = get(row, 0) + c * cf
        columns.append({row: c % p for row, c in col.items() if c % p})
    return columns, t_mask
