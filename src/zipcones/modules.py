"""Explicit induced modules for GL_n over F_p (n <= 3).

V(lam) is realized as polynomial functions on GL_n spanned by products of
top-justified minors times a determinant twist: the level-i factors are
the minors on rows 1..i and an i-element column set, taken with
multiplicity lam_i - lam_{i+1}, and the twist is det^{lam_n}.  Each such
product transforms on the left by lower-triangular matrices through the
character lam, and is an eigenvector for right translation by the
diagonal torus; the stored weight of a basis vector is its plain
right-translation eigenvalue f(X t) = chi(t) f(X).

Right translation X -> X g by a matrix g of GL_n(F_p) is the
substitution ``matrix_images(mat_mul(X, g))`` of the expanded numerators,
times det(g)^{det_pow}; all linear algebra stays sparse and exact.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import (
    EmptyModuleError,
    GuardExceededError,
    RankMismatchError,
    TheoremViolationError,
)
from .fplinalg import dependent_columns, fp_det, fp_nullspace
from .fpoly import (
    FpPolynomial,
    Substitution,
    generic_matrix,
    mat_mul,
    matrix_images,
    minor,
)
from .weights import Weight, validate_n_p

GROUP_ORDER_GUARD = 10 ** 4
MODULE_RANK_GUARD = 3
# the largest Weyl dimension built; on 2 shared cores under Python 3.11,
# vlambda on V(999, 0) takes 0.8 s at p = 2 and 7 s at p = 7, and on
# V(1999, 0) 60 s and 200 MB at p = 7
MODULE_DIM_GUARD = 1000


# ---------------------------------------------------------------------------
# the finite group GL_n(F_p)

def group_order(n, p):
    q = p ** n
    order = 1
    for i in range(n):
        order *= q - p ** i
    return order


@lru_cache(maxsize=None)
def group_elements(n, p):
    """All invertible n x n matrices over F_p, as tuples of row tuples."""
    validate_n_p(n, p)
    if group_order(n, p) > GROUP_ORDER_GUARD:
        raise GuardExceededError(
            "|GL_%d(F_%d)| = %d exceeds the group guard %d"
            % (n, p, group_order(n, p), GROUP_ORDER_GUARD))
    out = []
    for flat in itertools.product(range(p), repeat=n * n):
        mat = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if fp_det(mat, p):
            out.append(mat)
    if len(out) != group_order(n, p):
        raise TheoremViolationError(
            "enumerated %d invertible matrices, |GL_%d(F_%d)| = %d"
            % (len(out), n, p, group_order(n, p)))
    return tuple(out)


def _mat_product(factors, p):
    """Product mod p of a nonempty list of square matrices."""
    out = factors[0]
    for b in factors[1:]:
        out = tuple(tuple(sum(x * y for x, y in zip(row, col)) % p
                          for col in zip(*b)) for row in out)
    return out


def _elementary(n, i, k):
    return tuple(tuple(int(r == c or (r, c) == (i, k)) for c in range(n))
                 for r in range(n))


@lru_cache(maxsize=None)
def group_generators(n, p):
    """T = 1 + E_12 and the n-cycle C (n > 1), and diag(g, 1, ..., 1) for
    a primitive root g (p > 2), certified to generate GL_n(F_p) by words.

    ``_check_elementary_words`` proves that words in T and C give every
    1 + E_ik, i != k.  Over F_p, (1 + E_ik)^t = 1 + t E_ik, and elementary
    matrices generate SL_n(F_p) (Lang, *Algebra*, XIII §8); det diag(g, 1,
    ..., 1) = g generates F_p^*, so the group generated is GL_n(F_p).
    n = 1 needs no words, and p = 2 no diagonal (GL_n(F_2) = SL_n(F_2)).
    """
    validate_n_p(n, p)
    gens = []
    if n > 1:
        cycle = tuple(tuple(int(j == (i + 1) % n) for j in range(n))
                      for i in range(n))
        gens = [_elementary(n, 0, 1), cycle]
        _check_elementary_words(*gens, p)
    if p > 2:
        g = _primitive_root(p)
        gens.append(tuple(tuple(g if i == j == 0 else int(i == j)
                                for j in range(n)) for i in range(n)))
    return tuple(gens)


def _check_elementary_words(transvection, cycle, p):
    """Raise TheoremViolationError unless words in T = ``transvection``
    and C = ``cycle`` multiply out mod p to every 1 + E_ik, i != k:
    T_{i,i+1} = C^{-i} T C^i (indices mod n, C^{-1} = C^{n-1}), then gap
    by gap T_ik = [T_ij, T_jk] with j = i + 1 and a^{-1} = a^{p-1}."""
    n = len(cycle)
    found = {}
    for gap in range(1, n):
        for i in range(n):
            j, k = (i + 1) % n, (i + gap) % n
            if gap == 1:
                word = [cycle] * ((n - 1) * i) + [transvection] + [cycle] * i
            else:
                a, b = found[i, j], found[j, k]
                word = [a, b] + [a] * (p - 1) + [b] * (p - 1)
            found[i, k] = _mat_product(word, p)
            if found[i, k] != _elementary(n, i, k):
                raise TheoremViolationError("word for 1 + E_%d,%d gives %s"
                                            % (i + 1, k + 1, found[i, k]))


def _primitive_root(p):
    for g in range(2, p):
        if len({pow(g, e, p) for e in range(1, p)}) == p - 1:
            return g
    raise TheoremViolationError("F_%d^* has no generator" % p)


# ---------------------------------------------------------------------------
# minor coordinates

def _minor_weight(n, cols):
    return Weight(1 if j + 1 in cols else 0 for j in range(n))


class ModuleElement:
    """num * det^{det_pow} with its module weight and torus eigenvalue."""

    __slots__ = ("n", "p", "num", "det_pow", "weight", "tweight")

    def __init__(self, n, p, num, det_pow, weight, tweight=None):
        self.n = n
        self.p = p
        self.num = num
        self.det_pow = det_pow
        self.weight = weight
        self.tweight = tweight

    def is_zero(self):
        return self.num.is_zero()


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

    def element(self, coeffs):
        """Module element from a basis-coefficient mapping {index: c}."""
        num = FpPolynomial.zero(self.p)
        for i, c in coeffs.items():
            num = num + c * self.basis_polys[i]
        return ModuleElement(self.n, self.p, num, self.det_pow, self.lam)

    def basis_element(self, i):
        return ModuleElement(self.n, self.p, self.basis_polys[i],
                             self.det_pow, self.lam, self.weights[i])


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
    w = Weight([lam_n] * n)
    for (level, cols), mult in mono:
        w = w + mult * _minor_weight(n, cols)
    return w


def build_module(lam, n, p):
    """Construct V(lam) with its weight decomposition.

    Raises EmptyModuleError when lam is not weakly decreasing,
    RankMismatchError when lam does not have n coordinates, and
    GuardExceededError, before building anything, when its Weyl dimension
    is past ``MODULE_DIM_GUARD``; checks the resulting dimension against
    the Weyl dimension formula.
    """
    validate_n_p(n, p)
    lam = Weight(lam)
    if lam.rank != n:
        raise RankMismatchError("weight rank %d, expected %d" % (lam.rank, n))
    if n > MODULE_RANK_GUARD:
        raise GuardExceededError("induced modules are built for n <= %d"
                                 % MODULE_RANK_GUARD)
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise EmptyModuleError("%s is not L-dominant; the module is zero"
                               % (lam,))
    expected = weyl_dimension(lam)
    if expected > MODULE_DIM_GUARD:
        raise GuardExceededError(
            "module V%s has dimension %d, more than the limit %d"
            % (lam, expected, MODULE_DIM_GUARD))
    mults = tuple(lam[i] - lam[i + 1] for i in range(n - 1))
    level_choices = []
    for level in range(1, n):
        cols = list(itertools.combinations(range(1, n + 1), level))
        level_choices.append(list(
            itertools.combinations_with_replacement(cols, mults[level - 1])))
    spanning = []
    for pick in itertools.product(*level_choices):
        factors = {}
        for level, chosen in enumerate(pick, start=1):
            for cols in chosen:
                factors[(level, cols)] = factors.get((level, cols), 0) + 1
        spanning.append(tuple(sorted(factors.items())))

    # group by torus eigenvalue; reduce to an independent subset per block
    by_weight = {}
    for mono in spanning:
        by_weight.setdefault(_monomial_weight(n, lam[-1], mono), []).append(mono)

    basis, polys, weights = [], [], []
    for w in sorted(by_weight):
        block = [_expand_monomial(n, p, mono) for mono in by_weight[w]]
        dependent = set(dependent_columns([f.terms for f in block], p))
        for i, (mono, poly) in enumerate(zip(by_weight[w], block)):
            if i not in dependent:
                basis.append(mono)
                polys.append(poly)
                weights.append(w)

    module = InducedModule(lam, n, p, lam[-1], mults,
                           tuple(basis), tuple(polys), tuple(weights))
    if module.dim != expected:
        raise TheoremViolationError(
            "dim V(%s) = %d, Weyl formula gives %d" % (lam, module.dim, expected))
    return module


# ---------------------------------------------------------------------------
# right translation

def _right_translation(module, g):
    """rho(g) on expanded numerators: f(X) -> det(g)^{det_pow} f(X g).
    Reads only n, p and det_pow, so ``module`` may be a ModuleElement."""
    n, p = module.n, module.p
    act = Substitution(p, matrix_images(mat_mul(generic_matrix(n, p), g)))
    scale = pow(fp_det(g, p), module.det_pow % (p - 1), p)
    return lambda num: scale * act(num)


def invariants_finite_group(module):
    """Basis of the subspace fixed by right translation under GL_n(F_p).

    The fixed space is the common kernel of rho(g) - 1 over the generators
    g, cut out one generator at a time, with one ``Substitution`` of
    X -> X g per generator.  Right translation is a group action, so a
    vector fixed by the generators is fixed by every product of them, and
    the word certificate of ``group_generators`` proves those products
    are all of GL_n(F_p): the kernel is the full fixed space.  Each
    generator's kernel is written on the current basis, its vectors
    tagging their columns, so it is the next basis.  Returns a list of
    {basis index: coefficient} dicts.
    """
    n, p = module.n, module.p
    gens = group_generators(n, p)
    current = [{i: 1} for i in range(module.dim)]
    for g in gens:
        if not current:
            break
        rho = _right_translation(module, g)
        cols = []
        for vec in current:
            num = module.element(vec).num
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


def highest_weight_vector(module):
    """The basis vector spanning the lower-Borel-stable line.

    Located as the (required one-dimensional) torus eigenspace of the
    coordinate reversal of lam, then certified by a symbolic check of
    stability under a generic lower-triangular right translation.
    """
    target = Weight(reversed(module.lam))
    hits = [i for i, w in enumerate(module.weights) if w == target]
    if len(hits) != 1:
        raise TheoremViolationError(
            "eigenspace of %s in V(%s) has dimension %d, expected 1"
            % (target, module.lam, len(hits)))
    elem = module.basis_element(hits[0])
    _check_lower_stability(module, elem)
    return elem


def _generic_lower(n, p):
    """The generic lower-triangular matrix with entries b_ij, i >= j."""
    zero = FpPolynomial.zero(p)
    return [[FpPolynomial.variable(p, ("b", i, j)) if i >= j else zero
             for j in range(1, n + 1)] for i in range(1, n + 1)]


def _check_lower_stability(module, elem):
    n, p = module.n, module.p
    images = matrix_images(mat_mul(generic_matrix(n, p), _generic_lower(n, p)))
    moved = elem.num.substitute(images)
    chi = elem.tweight
    scale = FpPolynomial.constant(p, 1)
    for j in range(1, n + 1):
        e = chi[j - 1] - module.det_pow
        if e < 0:
            raise TheoremViolationError(
                "eigenvalue %s lies below the twist det^%d"
                % (chi, module.det_pow))
        scale = scale * FpPolynomial.variable(p, ("b", j, j), e) if e else scale
    if moved != elem.num * scale:
        raise TheoremViolationError(
            "candidate line is not stable under lower-triangular translation")


def verify_left_borel_law(module):
    """Symbolic proof that every basis numerator transforms on the left
    through the module character: num(bX) = num(X) * prod over levels of
    the leading diagonal minors of b."""
    n, p = module.n, module.p
    images = matrix_images(mat_mul(_generic_lower(n, p), generic_matrix(n, p)))
    scale = FpPolynomial.constant(p, 1)
    for level, mult in enumerate(module.level_mults, start=1):
        for r in range(1, level + 1):
            if mult:
                scale = scale * FpPolynomial.variable(p, ("b", r, r), mult)
    for poly in module.basis_polys:
        if poly.substitute(images) != poly * scale:
            raise TheoremViolationError("left Borel transformation law fails")
    return True


def thminter_check(lam, n, p, monomial_cap=None):
    """Both dimension computations for H^0 of weight lam: the matrix-space
    oracle and the representation-theoretic intersection."""
    from .oracle import h0_dimension

    kwargs = {} if monomial_cap is None else {"monomial_cap": monomial_cap}
    lhs = h0_dimension(lam, n, p, **kwargs)
    try:
        module = build_module(lam, n, p)
    except EmptyModuleError:
        rhs = 0
    else:
        rhs = intersection_dimension(module, invariants_finite_group(module))
    return lhs, rhs, lhs == rhs
