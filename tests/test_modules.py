import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fp_reference import fp_nullspace
from module_reference import (
    elementary,
    elementary_words_walk,
    spanning_module,
)
from valuation_reference import (
    delta_valuations,
    group_elements,
    norm_by_element,
    valuation_by_element,
)
from zipcones import modules
from zipcones.errors import (
    EmptyModuleError,
    GuardExceededError,
    RankMismatchError,
    TheoremViolationError,
)
from zipcones.fpoly import FpPolynomial, a_var, delta_minor
from zipcones.modules import (
    _check_elementary_words,
    _expand_monomial,
    _right_translation,
    borel_order,
    build_module,
    flag_representatives,
    group_generators,
    group_order,
    intersection_dimension,
    invariants_finite_group,
    subspace_leq0,
    thminter_check,
    tilde_section,
    tilde_valuation,
    verify_left_borel_law,
    weyl_dimension,
)
from zipcones.weights import Weight


def test_group_enumeration_and_order():
    assert group_order(2, 2) == 6
    assert group_order(2, 3) == 48
    assert group_order(3, 2) == 168
    assert borel_order(2, 3) == 12 and borel_order(3, 2) == 8
    assert len(group_elements(2, 2)) == 6
    assert len(group_elements(3, 2)) == 168
    assert len(flag_representatives(2, 2)) == 3
    assert len(flag_representatives(3, 2)) == 21
    group_generators(2, 2)
    group_generators(2, 3)
    group_generators(3, 2)


@pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (3, 2), (2, 5), (3, 3)])
def test_flag_representatives_are_one_per_coset(n, p):
    # prod_i (p^i - 1) / (p - 1) matrices whose cosets s B^- are
    # |GL_n(F_p)| distinct matrices, the whole group: no two
    # representatives share a coset, and together they cover the group
    reps = flag_representatives(n, p)
    count = 1
    for i in range(1, n + 1):
        count *= (p ** i - 1) // (p - 1)
    assert len(reps) == count
    group = group_elements(n, p)
    borel = [b for b in group
             if all(b[i][j] == 0 for i in range(n) for j in range(i + 1, n))]
    assert len(borel) == borel_order(n, p)
    cosets = [_product(s, b, p) for s in reps for b in borel]
    assert len(cosets) == len(set(cosets)) == len(group)
    assert set(cosets) == set(group)


def test_flag_guard_refuses_before_enumerating(monkeypatch):
    # |GL_5(F_3)/B^-| = 251,680 is past the guard, and is refused before
    # a single permutation of the leads is listed
    def refuse(*args):
        raise AssertionError("enumerated past the guard")

    monkeypatch.setattr(modules.itertools, "permutations", refuse)
    with pytest.raises(GuardExceededError, match="251680 exceeds"):
        flag_representatives(5, 3)


def test_flag_representatives_rejects_a_non_prime():
    # F_4 is not Z/4: the flags of (Z/4)^2 are not those of F_4^2
    with pytest.raises(ValueError):
        flag_representatives(2, 4)


def _product(a, b, p):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p
                       for col in zip(*b)) for row in a)


def _closure(gens, n, p):
    # reference certificate: every product of the generators, breadth first
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    closure, frontier = {ident}, [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                x = _product(g, m, p)
                if x not in closure:
                    closure.add(x)
                    new.append(x)
        frontier = new
    return closure


def _primitive_diagonal(n, p):
    """diag(g, 1, ..., 1) for a generator g of F_p^*, found by search."""
    g = next(g for g in range(1, p)
             if len({pow(g, e, p) for e in range(1, p)}) == p - 1)
    return tuple(tuple(g if i == j == 0 else int(i == j) for j in range(n))
                 for i in range(n))


@pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (2, 5), (2, 7),
                                  (3, 2), (3, 3)])
def test_generators_close_to_the_whole_group(n, p):
    # the word certificate against the enumeration it replaced: T and C
    # close to SL_n(F_p) times the subgroup of F_p^* that det C = +-1
    # generates, and the primitive diagonal closes that to GL_n(F_p)
    gens = group_generators(n, p)
    det_c = (-1) ** (n - 1) % p
    sl_order = group_order(n, p) // (p - 1)
    assert len(_closure(gens, n, p)) == sl_order * len({1, det_c})
    diagonal = _primitive_diagonal(n, p)
    assert len(_closure(gens + (diagonal,), n, p)) == group_order(n, p)


def test_word_certificate_rejects_a_wrong_generating_set():
    n, p = 3, 5
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    t12, cycle = group_generators(n, p)
    t13 = tuple(tuple(int(i == j or (i, j) == (0, 2)) for j in range(n))
                for i in range(n))
    _check_elementary_words(t12, cycle, p)
    for transvection, c in [(t12, ident), (t13, cycle)]:
        with pytest.raises(TheoremViolationError):
            _check_elementary_words(transvection, c, p)
    # the conjugates are read off the index map of C, which a matrix that
    # is not a permutation does not have: 2 C, and C with an extra 1
    for c in [tuple(tuple(2 * x for x in row) for row in cycle),
              (cycle[0], cycle[1], (1, 1, 0))]:
        with pytest.raises(TheoremViolationError,
                           match="not a permutation matrix"):
            _check_elementary_words(t12, c, p)


def _verdict(check, transvection, cycle, p):
    try:
        check(transvection, cycle, p)
    except TheoremViolationError:
        return False
    return True


def _permutation_matrix(sigma, scale=1):
    n = len(sigma)
    return tuple(tuple(scale * int(c == s) for c in range(n)) for s in sigma)


def test_word_certificate_agrees_with_the_n_by_n_walk():
    # the index map and one 3 x 3 commutator accept and reject exactly
    # what multiplying out every word as an n x n matrix does: at n = 2..4
    # every permutation matrix C and 2 C against every elementary T and
    # the identity, and at n = 5..8 the shift, its inverse and twice the
    # shift against 1 + E_12, 1 + E_21 and the identity
    cases = []
    for n in (2, 3, 4):
        cycles = [_permutation_matrix(s, scale) for scale in (1, 2)
                  for s in itertools.permutations(range(n))]
        transvections = {elementary(n, i, k) for i in range(n)
                         for k in range(n)}
        cases += itertools.product(transvections, cycles)
    for n in range(5, 9):
        shift = [(r + 1) % n for r in range(n)]
        back = [(r - 1) % n for r in range(n)]
        cycles = [_permutation_matrix(shift), _permutation_matrix(back),
                  _permutation_matrix(shift, 2)]
        transvections = [elementary(n, 0, 1), elementary(n, 1, 0),
                         elementary(n, 0, 0)]
        cases += itertools.product(transvections, cycles)
    accepted = 0
    for p in (2, 3, 5, 7):
        for transvection, cycle in cases:
            verdict = _verdict(_check_elementary_words, transvection, cycle, p)
            assert verdict == _verdict(elementary_words_walk, transvection,
                                       cycle, p), (transvection, cycle, p)
            accepted += verdict
    assert accepted == 4 * 7
    for n in range(2, 9):
        for p in (2, 3, 5, 7):
            gens = group_generators(n, p)
            assert gens == (elementary(n, 0, 1), _permutation_matrix(
                [(r + 1) % n for r in range(n)]))
            elementary_words_walk(*gens, p)


def test_generators_need_no_closure():
    # the words scale with n, not with |GL_n(F_p)| = 1488000 at (3, 5),
    # which the closure enumeration refused
    assert len(group_generators(3, 5)) == 2
    assert len(group_generators(3, 7)) == 2
    assert len(group_generators(4, 2)) == 2
    for lam in [(0, 0, 0), (1, 0, -2), (2, 0, -2), (4, 0, -4)]:
        lhs, rhs, agree = thminter_check(lam, 3, 5)
        assert agree, (lam, lhs, rhs)


def test_build_module_examples():
    m = build_module((1, 0), 2, 2)
    assert m.dim == 2
    assert set(m.weights) == {Weight((1, 0)), Weight((0, 1))}
    m = build_module((1, 1), 2, 2)
    assert m.dim == 1 and m.weights == (Weight((1, 1)),)
    assert build_module((2, 0), 2, 2).dim == 3
    assert build_module((1, -2), 2, 2).dim == 4


def test_build_module_rejects_non_dominant():
    with pytest.raises(EmptyModuleError):
        build_module((0, 1), 2, 2)
    # no rank is refused as such, only a dimension past the guard
    assert build_module((1, 0, 0, 0), 4, 2).dim == 4
    with pytest.raises(GuardExceededError):
        build_module((modules.MODULE_DIM_GUARD, 0), 2, 2)


def test_leading_term_check_is_live(monkeypatch):
    # with every run expanded as a_11, the tableaux (1) and (2) of V(1, 0)
    # give the same product, though their count is the Weyl dimension
    expand = modules._expand_monomial
    monkeypatch.setattr(modules, "_expand_monomial",
                        lambda n, p, mono: expand(n, p, (((1, (1,)), 1),)))
    with pytest.raises(TheoremViolationError, match="share a leading term"):
        build_module((1, 0), 2, 2)


def test_weyl_count_check_is_live(monkeypatch):
    monkeypatch.setattr(modules, "weyl_dimension", lambda lam: 3)
    with pytest.raises(TheoremViolationError, match="Weyl formula gives 3"):
        build_module((1, 0), 2, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tableau_basis_spans_the_spanning_set(n, p):
    # the tableau basis against the spanning set it replaced, at seeded
    # weights of Weyl dimension at most 400: the same span, the same
    # weights, and in both the product of the Delta_i is the one vector of
    # the highest weight.  Past rank 3 the products are kept to degree 8:
    # building both bases of V(3, 3, 2, 1, 0), of degree 9 and dimension
    # 280, already takes 0.7 s at p = 2
    rng = random.Random(100 * n + p)
    top = {2: 30, 3: 8, 4: 3, 5: 2}[n]
    checked = 0
    while checked < 9:
        mults = [rng.randint(0, top) for _ in range(n - 1)]
        lam = tuple(itertools.accumulate([rng.randint(-3, 3)] + mults))[::-1]
        degree = sum(level * m for level, m in enumerate(mults[::-1], 1))
        if weyl_dimension(lam) > 400 or n > 3 and degree > 8:
            continue
        new, old = build_module(lam, n, p), spanning_module(lam, n, p)
        cols = [f.terms for f in new.basis_polys + old.basis_polys]
        assert _rank(cols[:new.dim], p) == _rank(cols, p) == new.dim == old.dim
        assert sorted(new.weights) == sorted(old.weights)
        for m in (new, old):
            assert _of_weight(m, reversed(lam)) == [_delta_product(lam, p)]
        checked += 1


def _delta_product(lam, p):
    """prod_{i<n} Delta_i^{lam_i - lam_{i+1}}, the numerator of the
    highest-weight vector of V(lam)."""
    n, f = len(lam), FpPolynomial.constant(p, 1)
    for i in range(1, n):
        f = f * delta_minor(n, p, i) ** (lam[i - 1] - lam[i])
    return f


def _of_weight(module, weight):
    """The basis numerators of ``module`` of the given weight."""
    weight = Weight(weight)
    return [f for f, w in zip(module.basis_polys, module.weights)
            if w == weight]


def test_weight_of_the_wrong_rank_is_not_an_empty_module():
    # a rank mismatch is invalid input, not the zero module
    for n in (2, 3):
        for rank in (n - 1, n + 1):
            with pytest.raises(RankMismatchError):
                build_module((1,) + (0,) * (rank - 1), n, 2)


def test_weyl_dimension_box():
    for n, p in [(2, 2), (2, 3), (3, 2)]:
        for lam in itertools.product(range(2, -3, -1), repeat=n):
            if any(lam[i] < lam[i + 1] for i in range(n - 1)):
                continue
            m = build_module(lam, n, p)
            assert m.dim == weyl_dimension(lam)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=3))
def test_weyl_dimension_is_the_fraction_product(lam):
    n = len(lam)
    d = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            d *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert d.denominator == 1 and weyl_dimension(lam) == d


def test_weyl_dimension_rejects_a_non_integer():
    with pytest.raises(TheoremViolationError):
        weyl_dimension((Fraction(1, 2), 0))


def test_weights_symmetric_and_kostka():
    for lam in [(1, 0), (2, 0), (2, 1), (1, -2)]:
        m = build_module(lam, 2, 2)
        _check_character(m)
    for lam in [(1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 0, -1)]:
        m = build_module(lam, 3, 2)
        _check_character(m)


def _check_character(module):
    from collections import Counter
    mult = Counter(tuple(w) for w in module.weights)
    # symmetry under coordinate permutation
    for w, c in mult.items():
        for perm in itertools.permutations(w):
            assert mult[perm] == c
    # multiplicities are Kostka numbers of the shifted partition
    shift = module.lam[-1]
    shape = tuple(x - shift for x in module.lam)
    for w, c in mult.items():
        content = tuple(x - shift for x in w)
        assert c == _kostka(shape, content), (w, c)


def _kostka(shape, content):
    """Number of semistandard tableaux of the given shape and content,
    by brute-force column-by-column fill."""
    rows = len(shape)

    def fill(row_fills, remaining):
        # row_fills: tuple of tuples, the entries placed in each row so far
        if all(len(rf) == shape[r] for r, rf in enumerate(row_fills)):
            return 1 if all(x == 0 for x in remaining) else 0
        total = 0
        # place the next entry in the first incomplete row
        r = next(r for r in range(rows) if len(row_fills[r]) < shape[r])
        c = len(row_fills[r])
        for v in range(1, len(remaining) + 1):
            if remaining[v - 1] == 0:
                continue
            if c > 0 and row_fills[r][c - 1] > v:
                continue
            if r > 0 and (len(row_fills[r - 1]) <= c or row_fills[r - 1][c] >= v):
                continue
            nf = tuple(rf + (v,) if i == r else rf
                       for i, rf in enumerate(row_fills))
            nr = tuple(x - 1 if i == v - 1 else x
                       for i, x in enumerate(remaining))
            total += fill(nf, nr)
        return total

    return fill(tuple(() for _ in range(rows)), content)


def test_left_borel_law():
    for lam, n in [((1, 0), 2), ((2, -1), 2), ((1, 1, 0), 3), ((2, 0, -1), 3)]:
        assert verify_left_borel_law(build_module(lam, n, 2))
    assert verify_left_borel_law(build_module((2, -1), 2, 3))


def test_left_borel_law_check_is_live():
    # a_{2,1}(bX) = b_21 a_11 + b_22 a_21 is not a_21 times b_11
    m = build_module((1, 0), 2, 2)
    m.basis_polys += (a_var(2, 2, 1),)
    with pytest.raises(TheoremViolationError, match="left Borel"):
        verify_left_borel_law(m)


def test_lower_stability_check_is_live(monkeypatch):
    # with a_11 in place of Delta_1 = a_12, a_11(Xb) = a_11 b_11 + a_12 b_21
    # is not a_11 times b_22
    monkeypatch.setattr(modules, "delta_minor", lambda n, p, i: a_var(p, 1, 1))
    modules._delta_norm.cache_clear()
    with pytest.raises(TheoremViolationError, match="Delta_1 is not stable"):
        tilde_section((1, 0), 2, 2)


def _dominant(n, bound):
    for lam in itertools.product(range(bound, -bound - 1, -1), repeat=n):
        if all(lam[i] >= lam[i + 1] for i in range(n - 1)):
            yield lam


@pytest.mark.parametrize("n, p, weights", [
    (2, 2, list(_dominant(2, 3))),
    (2, 3, list(_dominant(2, 2))),
    (3, 2, [(0, 0, -1), (1, -1, -2), (1, 1, -2), (2, 0, -2)]),
])
def test_tilde_valuation_matches_the_substitution_per_element(n, p, weights):
    # the closed form against a substitution X -> b delta(t) s per group
    # element, exactly, not only in sign
    for lam in weights:
        m, hw = build_module(lam, n, p), _delta_product(lam, p)
        assert tilde_valuation(lam, n, p) == valuation_by_element(m, hw), lam


def test_tilde_valuation_exact_at_rank_4():
    # no by-element reference reaches GL_4(F_2), which has 20160 elements;
    # these are the values of an earlier walk that substituted X -> b
    # delta(t) s into each Delta_i per coset and read its t-order, not only
    # their signs
    assert tilde_valuation((2, 2, 1, -2), 4, 2) == -32256
    assert tilde_valuation((1, 0, -1, -2), 4, 2) == -5376


def test_tilde_valuation_exact_at_rank_5():
    # the value of that substituting walk over the 9765 cosets at (5, 2)
    assert tilde_valuation((2, 1, 1, 0, -3), 5, 2) == -13224960


@pytest.mark.parametrize("n, p, bound", [
    (1, 2, 4), (1, 3, 4), (2, 2, 4), (2, 3, 3), (2, 5, 3), (2, 7, 2),
    (2, 13, 2), (3, 2, 2), (3, 3, 2), (3, 5, 1), (3, 7, 1), (4, 2, 1),
    (4, 3, 1), (5, 2, 1)])
def test_tilde_valuation_is_the_boundary_functional(n, p, bound):
    # the closed form -(|G| / [n]_p) <h, lam> against the walk over the
    # cosets, which counts sum_i k_i v_i for the Delta_i and -|G| lam_n for
    # det: criterion 7's signs, exactly
    v = delta_valuations(n, p)
    for lam in _dominant(n, bound):
        walk = sum((lam[i] - lam[i + 1]) * v[i] for i in range(n - 1))
        assert tilde_valuation(lam, n, p) == (
            walk - group_order(n, p) * lam[-1]), lam


def test_tilde_valuation_answers_past_the_flag_guard():
    # (6, 2) has 615,195 cosets and (4, 5) 29,016; the closed form lists none
    assert tilde_valuation((1, 0, 0, 0, 0, 0), 6, 2) == -10239344640
    assert tilde_valuation((1, 0, 0, 0), 4, 5) == -93000000000


def test_tilde_refuses_on_the_flag_guard_before_building(monkeypatch):
    # |GL_5(F_3)/B^-| = 251,680 is past the flag guard, which the norm
    # consults before any minor is built; the valuation walks no flag
    def refuse(*args):
        raise AssertionError("built a minor past the guard")

    monkeypatch.setattr(modules, "delta_minor", refuse)
    monkeypatch.setattr(modules, "minor", refuse)
    assert tilde_valuation((6, 6, 6, 5, 3), 5, 3) == -2829817036800
    with pytest.raises(GuardExceededError, match="flag guard"):
        tilde_section((1, 0, 0, 0, 0), 5, 3)


def test_tilde_valuation_needs_no_module():
    # V(1999, 0) has dimension 2000, past MODULE_DIM_GUARD, which the norm
    # does not read: the valuation is 1999 v_1 = -4 * 1999
    assert weyl_dimension((1999, 0)) > modules.MODULE_DIM_GUARD
    assert tilde_valuation((1999, 0), 2, 2) == -7996


def _assert_norm_is_the_full_walk(lam, n, p):
    # the coset walk, prod_b chi(b) and the power |B^-| against the product
    # over every element of GL_n(F_p), exactly
    ts = tilde_section(lam, n, p)
    m, hw = build_module(lam, n, p), _delta_product(lam, p)
    assert (ts.body_num, ts.body_det_power) == norm_by_element(m, hw), lam
    assert ts.det_valuation == valuation_by_element(m, hw), lam
    assert ts.weight == Weight(group_order(n, p) * x for x in lam), lam


@pytest.mark.parametrize("p", [2, 3])
def test_norm_matches_the_full_walk(p):
    for lam in _dominant(2, 3):
        _assert_norm_is_the_full_walk(lam, 2, p)


def test_norm_carries_chi_at_rank_one():
    # the norm of det^w over F_p^* is (-1)^w, the one case where
    # prod_b chi(b) is not 1: n = 1, odd p and odd w
    for p in (2, 3, 5, 7):
        for w in range(-3, 4):
            _assert_norm_is_the_full_walk((w,), 1, p)
    assert tilde_section((1,), 1, 3).body_num == FpPolynomial.constant(3, -1)


def test_subspace_leq0_examples():
    m = build_module((1, 0), 2, 2)
    keep = subspace_leq0(m)
    assert [tuple(m.weights[i]) for i in keep] == [(1, 0)]
    m = build_module((0, 0), 2, 2)
    assert subspace_leq0(m) == [0]
    m = build_module((1, 1), 2, 2)
    assert subspace_leq0(m) == []


def test_invariants_examples():
    assert len(invariants_finite_group(build_module((0, 0), 2, 2))) == 1
    assert len(invariants_finite_group(build_module((1, 0), 2, 2))) == 0
    assert len(invariants_finite_group(build_module((1, 1), 2, 2))) == 1


def _det(s, p):
    # Leibniz expansion, independent of the elimination in the package
    n = len(s)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j]
                           for i in range(n) for j in range(i + 1, n))
        term = sign
        for i in range(n):
            term *= s[i][perm[i]]
        total += term
    return total % p


def _substituted(m, i, s):
    """Numerator of X -> X s applied to basis vector i, by substituting
    a_ij -> sum_k a_ik s_kj into its expanded polynomial."""
    n, p = m.n, m.p
    images = {}
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            img = FpPolynomial.zero(p)
            for k in range(1, n + 1):
                img = img + s[k - 1][c - 1] * a_var(p, r, k)
            images[("a", r, c)] = img
    scale = pow(_det(s, p), m.det_pow, p)
    return scale * m.basis_polys[i].substitute(images)


def _binet_matrix(n, p, level, s):
    """Column-substitution coefficients: minor_{1..level,J}(X s) =
    sum_K  minor_{K,J}(s) * minor_{1..level,K}(X)."""
    subsets = list(itertools.combinations(range(1, n + 1), level))
    out = {}
    for J in subsets:
        col = {}
        for K in subsets:
            c = _det([[s[i - 1][j - 1] for j in J] for i in K], p)
            if c:
                col[K] = c
        out[J] = col
    return out


def _binet_translate(m, i, s):
    """Numerator of X -> X s applied to basis vector i through Cauchy-Binet
    on its minor coordinates, expanded only at the end."""
    n, p = m.n, m.p
    result = {(): 1}
    for (level, cols), mult in m.basis[i]:
        images = _binet_matrix(n, p, level, s)[cols]
        for _ in range(mult):
            new = {}
            for m0, c0 in result.items():
                for K, cK in images.items():
                    d = dict(m0)
                    d[level, K] = d.get((level, K), 0) + 1
                    key = tuple(sorted(d.items()))
                    new[key] = (new.get(key, 0) + c0 * cK) % p
            result = {k: c for k, c in new.items() if c}
    scale = pow(_det(s, p), m.det_pow, p)
    total = FpPolynomial.zero(p)
    for mono, c in result.items():
        total = total + c * scale * _expand_monomial(n, p, mono)
    return total


def _sample(n, p, size, seed):
    """A fixed sample of GL_n(F_p) that contains the generators and, for
    p > 2, the primitive diagonal."""
    gens = list(group_generators(n, p))
    if p > 2:
        gens.append(_primitive_diagonal(n, p))
    rest = [s for s in group_elements(n, p) if s not in gens]
    return gens + random.Random(seed).sample(rest, size - len(gens))


@pytest.mark.parametrize("lam, p, elements", [
    ((1, -2), 2, "all"), ((3, 0), 2, "all"), ((2, 1), 2, "all"),
    ((2, -1), 3, "all"), ((3, 1), 3, "all"), ((1, -3), 3, "all"),
    ((2, 0, -1), 2, "sample"), ((1, 1, 0), 2, "sample"),
    ((2, 1, 0), 2, "sample"),
    ((2, -1), 5, "sample"), ((3, 1), 5, "sample"),
])
def test_act_expand_matches_symbolic_substitution(lam, p, elements):
    # the production right translation, the Cauchy-Binet action on minor
    # coordinates and a hand-written substitution X -> X s agree on every
    # basis vector, det(s)^det_pow included
    n = len(lam)
    m = build_module(lam, n, p)
    group = (group_elements(n, p) if elements == "all"
             else _sample(n, p, 24, 1000 * n + p))
    for s in group:
        rho = _right_translation(m, s)
        for i in range(m.dim):
            expect = _substituted(m, i, s)
            assert rho(m.basis_polys[i]) == expect, (s, i)
            assert _binet_translate(m, i, s) == expect, (s, i)


def _rank(vectors, p):
    return len(vectors) - len(fp_nullspace(vectors, p))


def _assert_generator_kernel_is_fixed_space(m, elements=None):
    # independent route: impose f(X s) = f(X) for every element s of the
    # group (or of ``elements``, a generating set), and compare the span
    # with the torus-filtered kernel of the SL_n generators
    n, p = m.n, m.p
    fast = invariants_finite_group(m)
    cols = [{} for _ in range(m.dim)]
    if elements is None:
        elements = group_elements(n, p)
    for si, s in enumerate(elements):
        rho = _right_translation(m, s)
        for i, col in enumerate(cols):
            diff = rho(m.basis_polys[i]) - m.basis_polys[i]
            for mono, c in diff.terms.items():
                col[(si, mono)] = c
    slow = fp_nullspace(cols, p)
    assert len(fast) == len(slow) == _rank(fast, p) == _rank(slow, p), m.lam
    assert _rank(fast + slow, p) == len(fast), m.lam


def test_invariants_match_full_group_bruteforce():
    for lam, p in [((1, -2), 2), ((2, 0), 2), ((3, 0), 2), ((2, -2), 2),
                   ((3, -3), 2), ((3, -1), 3), ((1, -3), 3), ((2, -4), 3),
                   ((2, 2), 3), ((1, 1), 3), ((2, -1), 3),
                   ((1, 0, -2), 2), ((2, 0, -1), 2), ((1, 1, 0), 2),
                   ((0, 0, 0), 2)]:
        _assert_generator_kernel_is_fixed_space(build_module(lam, len(lam), p))


@pytest.mark.parametrize("lam, p", [
    # T and C alone fix a vector here that a diagonal moves; (4, 4) at
    # p = 5 is fixed, since 4 = 0 mod p - 1 though not mod p
    ((-6, -6), 5), ((-2, -2), 5), ((-1, -7), 5), ((2, 2), 5), ((3, -3), 5),
    ((4, -8), 5), ((6, 6), 5), ((7, 1), 5), ((8, -4), 5), ((4, 4), 5),
    ((-8, -8), 7), ((-4, -4), 7), ((-2, -2), 7), ((2, 2), 7), ((3, -5), 7),
    ((4, 4), 7), ((5, -3), 7), ((8, 8), 7),
])
def test_torus_filter_matches_full_group(lam, p):
    _assert_generator_kernel_is_fixed_space(build_module(lam, 2, p))


@pytest.mark.parametrize("lam", [(1, 1, 1), (2, 2, 2)])
def test_torus_filter_matches_three_generators_gl3_f3(lam):
    # |GL_3(F_3)| = 11232 is past the element guard; the reference is the
    # kernel of T, C and the primitive diagonal, which generate GL_3(F_3)
    gens = group_generators(3, 3) + (_primitive_diagonal(3, 3),)
    _assert_generator_kernel_is_fixed_space(build_module(lam, 3, 3), gens)


@settings(max_examples=25, deadline=None)
@given(st.integers(-6, 4), st.integers(0, 6), st.sampled_from([2, 3, 5]))
def test_invariants_match_full_group_random_rank2(low, gap, p):
    m = build_module((low + gap, low), 2, p)
    _assert_generator_kernel_is_fixed_space(m)


def test_torus_filter_reads_every_weight_coordinate(monkeypatch):
    # V(2, 2, 0) at p = 3 has 6 basis vectors, 4 of them with w_1 even but
    # only 3 with every coordinate even; the diagonal torus moves the
    # fourth, so only 3 columns reach the first generator's nullspace
    m = build_module((2, 2, 0), 3, 3)
    assert sum(w[0] % 2 == 0 for w in m.weights) == 4
    received = []
    real = modules.fp_nullspace

    def recording(cols, tags, p):
        received.append(len(cols))
        return real(cols, tags, p)

    monkeypatch.setattr(modules, "fp_nullspace", recording)
    assert invariants_finite_group(m) == []
    assert received[0] == 3


def test_invariants_full_group_gl2_f3():
    m = build_module((1, 1), 2, 3)
    # det is GL_2(F_3)-invariant only through det(s); det(s)=2 moves it
    assert len(invariants_finite_group(m)) == 0
    m = build_module((2, 2), 2, 3)   # det^2 is invariant: det(s)^2 = 1
    assert len(invariants_finite_group(m)) == 1


def test_highest_weight_vector():
    # prod_i Delta_i^{k_i} is the only basis vector of V(lam) of weight
    # lam reversed, on every L-dominant weight of small boxes
    for n, p, bound in [(1, 3, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2),
                        (3, 3, 1), (4, 2, 1)]:
        for lam in _dominant(n, bound):
            m = build_module(lam, n, p)
            assert _of_weight(m, reversed(lam)) == [_delta_product(lam, p)]
    assert _delta_product((1, 1), 2) == FpPolynomial.constant(2, 1)
    assert _delta_product((2, 1, 0), 2) == a_var(2, 1, 3) * delta_minor(3, 2, 2)


def test_thminter_examples():
    assert thminter_check((0, 0), 2, 2) == (1, 1, True)
    assert thminter_check((1, 0), 2, 2) == (0, 0, True)
    assert thminter_check((1, -2), 2, 2) == (1, 1, True)


def test_thminter_larger_rank3_weights():
    # spot checks beyond the acceptance box, exercising modules of
    # dimension up to 125
    for lam in [(4, 0, -4), (4, -4, -4), (3, 0, -4), (4, 2, -3)]:
        lhs, rhs, agree = thminter_check(lam, 3, 2)
        assert agree, (lam, lhs, rhs)


def test_thminter_rank3_p3():
    # (n, p) = (3, 3): |GL_3(F_3)| = 11232 needs only the word
    # certificate of the generators, never the element list
    for lam in [(0, 0, 0), (1, 0, -2), (2, 0, -2), (2, -2, -6)]:
        lhs, rhs, agree = thminter_check(lam, 3, 3)
        assert agree, (lam, lhs, rhs)


@pytest.mark.parametrize("n, p, low, high", [(4, 2, -2, 1), (4, 3, -3, 1),
                                             (5, 2, -1, 1)])
def test_thminter_agrees_past_rank_3(n, p, low, high):
    # every L-dominant weight of the box: 35, 70 and 21 of them
    weights = [lam for lam in itertools.product(range(high, low - 1, -1),
                                                repeat=n)
               if all(lam[i] >= lam[i + 1] for i in range(n - 1))]
    assert len(weights) == {4: {2: 35, 3: 70}, 5: {2: 21}}[n][p]
    for lam in weights:
        lhs, rhs, agree = thminter_check(lam, n, p)
        assert agree, (lam, lhs, rhs)


def test_intersection_dimension_direct():
    for lam, expect in [((1, -2), 1), ((2, 0), 0)]:
        m = build_module(lam, 2, 2)
        assert intersection_dimension(m, invariants_finite_group(m)) == expect
