"""Explicit induced modules for GL_n over F_p.

V(lam) is realized as polynomial functions on GL_n: products of
top-justified minors (level i on rows 1..i, taken lam_i - lam_{i+1} times)
times det^{lam_n}.  The basis is the products whose column sets, longest
first, form a semistandard tableau, each set entrywise at or above the
start of the one before (De Concini, Eisenbud and Procesi, Invent. Math.
1980; Green, LNM 830, ch. 4).  In the packed order of ``fpoly``, lex on
fields along the square shells, the largest variable of a top-justified
minor on columns c_1 < ... < c_L is a_{L,c_L}, so by recursion a minor
leads with its diagonal and a product with its minors' diagonals, which
record the tableau's rows: distinct leading terms prove independence,
with no elimination, and the count is checked against the Weyl
dimension.  Each product transforms on the left by lower-triangular
matrices through the character lam, and is an eigenvector for right
translation by the diagonal torus; the stored weight of a basis vector is
its plain right-translation eigenvalue f(X t) = chi(t) f(X).

Right translation X -> X g by a matrix g of GL_n(F_p) is the
substitution ``matrix_images(mat_mul(X, g))`` of the expanded numerators,
times det(g)^{det_pow}; all linear algebra stays sparse and exact.

The norm over GL_n(F_p) of the highest-weight vector f = prod_{i<n}
Delta_i^{k_i} det^{lam_n}, k_i = lam_i - lam_{i+1}, of V(lam) is built
from one cached norm per Delta_i over the flags of GL_n(F_p)/B^-; its
boundary valuation is a closed form that counts flags.
"""

import itertools
from functools import lru_cache

from .errors import (
    EmptyModuleError,
    GuardExceededError,
    TheoremViolationError,
)
from .fplinalg import dependent_columns, fp_det, fp_nullspace
from .fpoly import (
    FpPolynomial,
    Substitution,
    a_var,
    delta_minor,
    generic_matrix,
    mat_mul,
    matrix_images,
    minor,
)
from .weights import Weight, checked_weight, hw_functional, validate_n_p

FLAG_GUARD = 10 ** 4
# the largest Weyl dimension built; on 2 shared cores under Python 3.11,
# vlambda on V(999, 0) takes 0.5 s at p = 2, 0.2-0.3 s at p = 7 and 0.3 s
# at p = 13, and on V(1999, 0) 1.5 s and 60 MB at p = 2 and 0.5 s at p = 7
MODULE_DIM_GUARD = 1000


# ---------------------------------------------------------------------------
# the finite group GL_n(F_p) and its flags

def group_order(n, p):
    q = p ** n
    order = 1
    for i in range(n):
        order *= q - p ** i
    return order


def borel_order(n, p):
    """|B^-|: n diagonal entries in F_p^* and n(n-1)/2 free ones below."""
    return (p - 1) ** n * p ** (n * (n - 1) // 2)


@lru_cache(maxsize=None)
def flag_representatives(n, p):
    """One matrix per coset s B^- of GL_n(F_p), B^- lower triangular, as
    tuples of row tuples.  s B^- is fixed by the flag <c_n> in <c_{n-1},
    c_n> in ... of the columns of s; its representative has in column j a
    leading 1 on a row that no later column leads on, zeros on those rows
    and above its own lead, and free entries below (one Bruhat cell per
    permutation of the leads)."""
    validate_n_p(n, p)
    count = group_order(n, p) // borel_order(n, p)
    if count > FLAG_GUARD:
        raise GuardExceededError(
            "|GL_%d(F_%d)/B^-| = %d exceeds the flag guard %d"
            % (n, p, count, FLAG_GUARD))
    out = []
    for leads in itertools.permutations(range(n)):
        free = [(r, j) for j in range(n) for r in range(leads[j] + 1, n)
                if r not in leads[j + 1:]]
        for values in itertools.product(range(p), repeat=len(free)):
            mat = [[int(r == lead) for lead in leads] for r in range(n)]
            for (r, j), v in zip(free, values):
                mat[r][j] = v
            out.append(tuple(map(tuple, mat)))
    return tuple(out)


def _elementary(n, i, k):
    return tuple(tuple(int(r == c or (r, c) == (i, k)) for c in range(n))
                 for r in range(n))


@lru_cache(maxsize=None)
def group_generators(n, p):
    """T = 1 + E_12 and the n-cycle C (n > 1; none for n = 1), certified
    by words to generate a group that contains SL_n(F_p).

    ``_check_elementary_words`` proves, in O(n^2) and one 3 x 3 product of
    2p factors, that words in T and C give every 1 + E_ik, i != k.  Over
    F_p, (1 + E_ik)^t = 1 + t E_ik, and elementary matrices generate
    SL_n(F_p) (Lang, *Algebra*, XIII §8).  C has det (-1)^(n-1), so for
    even n and odd p it lies outside SL_n(F_p).  GL_n(F_p) is generated by
    SL_n(F_p) and the diagonal matrices diag(g, 1, ..., 1), whose
    determinants g run over F_p^*, so T, C and those generate it;
    ``invariants_finite_group`` imposes the diagonal ones on the torus
    weights, so it needs no further generator.
    """
    validate_n_p(n, p)
    if n == 1:
        return ()
    cycle = tuple(tuple(int(j == (i + 1) % n) for j in range(n))
                  for i in range(n))
    gens = (_elementary(n, 0, 1), cycle)
    _check_elementary_words(*gens, p)
    return gens


def _check_elementary_words(transvection, cycle, p):
    """Raise TheoremViolationError unless words in T = ``transvection``
    and C = ``cycle`` multiply out mod p to every 1 + E_ik, i != k
    (indices mod n).  C must be a permutation matrix sum_r E_{r,sigma(r)},
    so C^{-1} (1 + E_rc) C = 1 + E_{sigma(r),sigma(c)}; with T = 1 + E_12
    and sigma the shift r -> r + 1 these give every 1 + E_{i,i+1}.  Then
    gap by gap T_ik = [T_ij, T_jk], j = i + 1 and a^{-1} = a^{p-1}, with
    factors from one gap earlier.  Its word, multiplied out on the identity
    by column operations (a right factor 1 + E_xy adds column x to column
    y), touches only columns i, j, k, which stay inside rows i, j, k: the
    n x n product is the identity off that block, and the block is the
    3 x 3 product below relabelled, so that one product checks them all."""
    n = len(cycle)
    sigma = [row.index(1) if 1 in row else n for row in cycle]
    if sorted(sigma) != list(range(n)) or cycle != tuple(
            tuple(int(c == s) for c in range(n)) for s in sigma):
        raise TheoremViolationError("C = %s is not a permutation matrix"
                                    % (cycle,))
    if n > 1 and (transvection != _elementary(n, 0, 1)
                  or sigma != [(r + 1) % n for r in range(n)]):
        raise TheoremViolationError(
            "T = %s and C = %s are not 1 + E_12 and the shift r -> r + 1"
            % (transvection, cycle))
    if n < 3:
        return
    cols = [[int(r == c) for r in range(3)] for c in range(3)]
    for x, y in ([(0, 1), (1, 2)] + [(0, 1)] * (p - 1) + [(1, 2)] * (p - 1)):
        cols[y] = [(a + b) % p for a, b in zip(cols[y], cols[x])]
    word = tuple(zip(*cols))
    if word != _elementary(3, 0, 2):
        raise TheoremViolationError("word for 1 + E_13 gives %s" % (word,))


# ---------------------------------------------------------------------------
# minor coordinates

class InducedModule:
    """V(lam) with a basis of minor monomials.

    ``level_mults`` is the multiplicity of each level 1..n-1, ``basis`` the
    minor monomials (tuples of ``((level, cols), mult)``), ``basis_polys``
    their expanded numerators (FpPolynomial) and ``weights`` their
    right-translation eigenvalues (Weight).
    """

    def __init__(self, lam, n, p, det_pow, level_mults, basis, basis_polys,
                 weights):
        self.lam = lam
        self.n = n
        self.p = p
        self.det_pow = det_pow
        self.level_mults = level_mults
        self.basis = basis
        self.basis_polys = basis_polys
        self.weights = weights

    @property
    def dim(self):
        return len(self.basis)


def weyl_dimension(lam):
    """prod_{i<j} (lam_i - lam_j + j - i) / prod_{i<j} (j - i)."""
    n = len(lam)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    d, r = divmod(num, den)
    if r:
        raise TheoremViolationError(
            "Weyl dimension of %s is the non-integer %s / %s"
            % (tuple(lam), num, den))
    return d


def _expand_monomial(n, p, mono):
    poly = FpPolynomial.constant(p, 1)
    for (level, cols), mult in mono:
        poly = poly * minor(p, tuple(range(1, level + 1)), cols) ** mult
    return poly


def _monomial_weight(n, lam_n, mono):
    w = [lam_n] * n
    for (level, cols), mult in mono:
        for c in cols:
            w[c - 1] += mult
    return Weight(w)


def _runs(n, level, left, floor, strict=False):
    """Each filling of ``left`` columns of length ``level``, their sets
    rising entrywise from ``floor`` (strictly when ``strict``), as runs
    ((level, cols), mult) of equal columns, and its last set.  The top set
    has none above it, so it takes all that is left: no dead ends."""
    top = tuple(range(n - level + 1, n + 1))
    for cols in itertools.combinations(range(1, n + 1), level):
        if any(c < f for c, f in zip(cols, floor)) or strict and cols == floor:
            continue
        for k in range(left if cols == top else 1, left + 1):
            run = ((level, cols), k)
            if k == left:
                yield (run,), cols
            else:
                for rest, last in _runs(n, level, left - k, cols, True):
                    yield (run,) + rest, last


def _exponents(lam, n, p):
    """lam as a ``Weight``, its level multiplicities k_i = lam_i - lam_{i+1}
    (i < n) and its det power lam_n.  Raises EmptyModuleError unless lam is
    weakly decreasing, and RankMismatchError unless it has n coordinates."""
    lam = checked_weight(lam, n, p)
    mults = tuple(lam[i] - lam[i + 1] for i in range(n - 1))
    if any(k < 0 for k in mults):
        raise EmptyModuleError("%s is not L-dominant; the module is zero"
                               % (lam,))
    return lam, mults, lam[-1]


def build_module(lam, n, p):
    """Construct V(lam) on its tableau basis, with its weights.

    Raises what ``_exponents`` raises; GuardExceededError, before building
    anything, when a_nn needs a packed field past ``fpoly.FIELD_LIMIT`` or
    the dimension is past ``MODULE_DIM_GUARD``; TheoremViolationError when
    two products share a leading term or their count is not the Weyl
    dimension.
    """
    lam, mults, det_pow = _exponents(lam, n, p)
    a_var(p, n, n)  # refuses the matrix before the Weyl product's n^2 factors
    expected = weyl_dimension(lam)
    if expected > MODULE_DIM_GUARD:
        raise GuardExceededError(
            "module V%s has dimension %d, more than the limit %d"
            % (lam, expected, MODULE_DIM_GUARD))
    # level by level, longest first, each partial product expanded once; a
    # level of multiplicity 0 contributes no factor
    tableaux = [((), tuple(range(1, n + 1)), FpPolynomial.constant(p, 1))]
    expand = lru_cache(maxsize=None)(lambda runs: _expand_monomial(n, p, runs))
    for level in range(n - 1, 0, -1):
        if mults[level - 1]:
            tableaux = [
                (runs + mono, last, poly * expand(runs))
                for mono, floor, poly in tableaux
                for runs, last in _runs(n, level, mults[level - 1],
                                        floor[:level])]
    basis, _, polys = zip(*tableaux)
    if len({max(f.terms) for f in polys}) != len(polys):
        raise TheoremViolationError(
            "two tableau products of V%s share a leading term" % (lam,))
    if len(basis) != expected:
        raise TheoremViolationError(
            "dim V(%s) = %d, Weyl formula gives %d" % (lam, len(basis), expected))
    return InducedModule(lam, n, p, det_pow, mults, basis, polys, tuple(
        _monomial_weight(n, det_pow, mono) for mono in basis))


# ---------------------------------------------------------------------------
# right translation

def _right_translation(module, g):
    """rho(g) on expanded numerators: f(X) -> det(g)^{det_pow} f(X g)."""
    n, p = module.n, module.p
    act = Substitution(p, matrix_images(mat_mul(generic_matrix(n, p), g)))
    scale = pow(fp_det(g, p), module.det_pow % (p - 1), p)
    return lambda num: scale * act(num)


def invariants_finite_group(module):
    """Basis of the subspace fixed by right translation under GL_n(F_p).

    GL_n(F_p) is generated by SL_n(F_p) and the diagonal torus, and right
    translation is a group action, so a vector fixed by the generators of
    both is fixed by the whole group.  The torus part is read off the
    weights: basis vector i is an eigenvector of rho(t) with eigenvalue
    t^{w_i} (det twist included), and F_p^* is cyclic of order p - 1, so on
    this eigenbasis the torus fixes exactly the span of the indices whose
    every coordinate w_i[k] is 0 mod p - 1.  SL_n(F_p) is imposed through
    the generators of ``group_generators``, whose word certificate proves
    that their group contains it: the common kernel of rho(g) - 1, cut out one
    generator at a time with one ``Substitution`` of X -> X g each.  Each
    generator's kernel is written on the current basis, its vectors
    tagging their columns, so it is the next basis.  Returns a list of
    {basis index: coefficient} dicts.
    """
    n, p = module.n, module.p
    current = [{i: 1} for i, w in enumerate(module.weights)
               if all(c % (p - 1) == 0 for c in w)]
    for g in group_generators(n, p):
        if not current:
            break
        rho = _right_translation(module, g)
        cols = []
        for vec in current:
            num = FpPolynomial.zero(p)
            for i, c in vec.items():
                num = num + c * module.basis_polys[i]
            cols.append((rho(num) - num).terms)
        current = fp_nullspace(cols, current, p)
    return current


# ---------------------------------------------------------------------------
# subspaces and the comparison of both dimension computations

def subspace_leq0(module):
    """Indices of basis vectors whose eigenvalue has last coordinate <= 0."""
    return [i for i, w in enumerate(module.weights) if w[module.n - 1] <= 0]


def intersection_dimension(module, fixed):
    """dim of (weight-nonpositive part) meet (finite-group invariants),
    given the basis ``fixed`` that invariants_finite_group(module) returns."""
    good = set(subspace_leq0(module))
    # impose vanishing of coefficients on eigenvectors outside the part
    cols = [{i: c for i, c in vec.items() if i not in good} for vec in fixed]
    return len(dependent_columns(cols, module.p))


def _generic_lower(n, p):
    """The generic lower-triangular matrix with entries b_ij, i >= j."""
    zero = FpPolynomial.zero(p)
    return [[FpPolynomial.variable(p, ("b", i, j)) if i >= j else zero
             for j in range(1, n + 1)] for i in range(1, n + 1)]


def _check_borel_law(p, images, polys, exps, message):
    """Raise TheoremViolationError(message) unless f(images) equals
    f * prod_j b_jj^{exps_j} for every f in ``polys``; one Substitution
    serves them all, so its memo is shared."""
    act = Substitution(p, images)
    scale = FpPolynomial.monomial(
        p, [(("b", j, j), e) for j, e in enumerate(exps, start=1)])
    for f in polys:
        if act(f) != f * scale:
            raise TheoremViolationError(message)


def verify_left_borel_law(module):
    """Symbolic proof that every basis numerator transforms on the left
    through the module character: num(bX) = num(X) * prod over levels of
    the leading diagonal minors of b, so b_rr carries the multiplicities
    of the levels r..n-1."""
    n, p = module.n, module.p
    images = matrix_images(mat_mul(_generic_lower(n, p), generic_matrix(n, p)))
    _check_borel_law(p, images, module.basis_polys,
                     [sum(module.level_mults[r:]) for r in range(n)],
                     "left Borel transformation law fails")
    return True


def thminter_check(lam, n, p):
    """Both dimension computations for H^0 of weight lam: the matrix-space
    oracle and the representation-theoretic intersection."""
    from .oracle import h0_dimension

    lhs = h0_dimension(lam, n, p)
    try:
        module = build_module(lam, n, p)
    except EmptyModuleError:
        rhs = 0
    else:
        rhs = intersection_dimension(module, invariants_finite_group(module))
    return lhs, rhs, lhs == rhs


# ---------------------------------------------------------------------------
# the norm construction and its boundary valuation

class TildeSection:
    """Norm of the highest-weight vector of V(lam) over GL_n(F_p), the
    product of its right translates: ``body_num * det^body_det_power``, det
    not dividing ``body_num``, with the boundary valuation
    ``det_valuation``; the section extends iff that is nonnegative."""

    def __init__(self, n, p, weight, body_num, body_det_power, det_valuation):
        self.n = n
        self.p = p
        self.weight = weight
        self.body_num = body_num
        self.body_det_power = body_det_power
        self.det_valuation = det_valuation

    @property
    def extends(self):
        return self.det_valuation >= 0


@lru_cache(maxsize=None)
def _delta_norm(n, p, i):
    """The product Q of Delta_i(X s) = sum_K det s[K, last i] det X[1..i,
    K] (Cauchy-Binet), i < n, over the coset representatives s, listed
    before any polynomial is built.  The Borel law Delta_i(X b) = Delta_i(X)
    prod_{j>n-i} b_jj, b in B^-, checked next, makes every translate in s
    B^- a multiple of Delta_i(X s).  det = Delta_n, irreducible of degree
    n, divides no factor, nonzero of degree i < n, so not Q."""
    reps = flag_representatives(n, p)
    delta = delta_minor(n, p, i)
    lower = matrix_images(mat_mul(generic_matrix(n, p), _generic_lower(n, p)))
    _check_borel_law(p, lower, [delta], [0] * (n - i) + [1] * i,
                     "Delta_%d is not stable under lower-triangular "
                     "translation" % i)
    top = tuple(range(1, i + 1))
    prod = FpPolynomial.constant(p, 1)
    for s in reps:
        translate = FpPolynomial.zero(p)
        for K in itertools.combinations(range(1, n + 1), i):
            c = fp_det([s[k - 1][n - i:] for k in K], p)
            if c:
                translate = translate + c * minor(p, top, K)
        prod = prod * translate
    return prod


def tilde_valuation(lam, n, p):
    """Boundary valuation of the norm of the highest-weight vector of
    V(lam), exact, with no flag listed and no polynomial built: -(|G| /
    [n]_p) <h, lam>, G = GL_n(F_p), h = ``hw_functional(n, p)`` = (p^{n-1},
    ..., 1), [m]_p = (p^m - 1) / (p - 1).  Raises what ``_exponents`` does.

    It sums ord_t - degree of each factor at X = b delta(t) s over s in G,
    b generic upper unitriangular, delta(t) = diag(t, ..., t, 1).  det, of
    order n - 1 and degree n, gives -|G| lam_n.  By the Borel law of
    ``_delta_norm`` Delta_i has one order on each coset s B^-, and
    Delta_i(b delta(t) s) = sum_K t^{i-[n in K]} det b[1..i, K] det s[K,
    last i].  These Pluecker coordinates of b are independent over F_p
    (prod_{k_j > j} b_{j,k_j} occurs in K's alone) and s[:, last i] has
    rank i, so by Laplace along row n, ord_t - i is -1 if that row is
    nonzero there and 0 otherwise.  The row is zero iff those columns span
    a subspace of x_n = 0, the i-dimensional member of the flag of s B^-,
    as on [n-1 choose i]_p [i]_p! [n-i]_p! = [n]_p! [n-i]_p / [n]_p flags.
    As [n]_p - [n-i]_p = p^{n-i} [i]_p = h_1 + ... + h_i and |B^-| [n]_p!
    = |G|, Delta_i gives v_i = -|G| p^{n-i} [i]_p / [n]_p, and as [n]_p =
    h_1 + ... + h_n, sum_i k_i v_i - |G| lam_n is the formula."""
    lam = _exponents(lam, n, p)[0]
    scale = group_order(n, p) * (p - 1) // (p ** n - 1)
    return -scale * hw_functional(n, p).dot(lam)


def tilde_section(lam, n, p):
    """Norm over GL_n(F_p) of the highest-weight vector f of V(lam), with
    valuations: prod_b chi(b) per coset times (c prod_i Q_i^{k_i})^{|B^-|},
    Q_i = ``_delta_norm(n, p, i)``, unless k_i = 0, and c = prod_s
    det(s)^{lam_n} in F_p^*, whose power |B^-|, a multiple of p - 1, is 1.
    Over all cosets each b_jj of chi(b) = prod_j b_jj^{lam_{n+1-j}} runs
    D / (p - 1) times through F_p^*, whose product is -1 (Wilson)."""
    lam, mults, det_pow = _exponents(lam, n, p)
    D, B = group_order(n, p), borel_order(n, p)
    body = FpPolynomial.constant(p, 1)
    for i, k in enumerate(mults, start=1):
        if k:
            body = body * _delta_norm(n, p, i) ** k
    sign = (-1) ** (sum(lam) * D // (p - 1) % 2)
    return TildeSection(n, p, D * lam, sign * body ** B, det_pow * D,
                        tilde_valuation(lam, n, p))


def valuation_sign_predict(lam, n, p):
    """Sign in {-1, 0, +1} of the boundary valuation of the norm of a
    highest-weight vector: minus that of ``hw_functional(n, p)`` on lam, a
    corollary of ``tilde_valuation``, whose factor -|G| / [n]_p is
    negative.  Raises ValueError for n < 1 and a non-prime p."""
    validate_n_p(n, p)
    total = hw_functional(n, p).dot(lam)
    return (total < 0) - (total > 0)
