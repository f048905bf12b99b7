import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from zipcones import fpoly
from zipcones.errors import GuardExceededError
from zipcones.fpoly import (
    EXPONENT_LIMIT,
    FIELD_LIMIT,
    FpPolynomial,
    a_var,
    delta_minor,
    exact_divide,
    generic_matrix,
    mat_mul,
    minor,
    weight_of,
    _field,
    _var_of,
)
from zipcones.weights import Weight, schubert_weight

from gamma_reference import entry_weight
from gfq import GF, evaluate, field_for, gf_matrix_rank


def rand_poly(p, nvars, nterms, maxdeg, rng):
    f = FpPolynomial.zero(p)
    for _ in range(nterms):
        t = FpPolynomial.constant(p, rng.randrange(1, p))
        for _ in range(rng.randrange(0, maxdeg + 1)):
            i, j = rng.randrange(1, nvars + 1), rng.randrange(1, nvars + 1)
            t = t * a_var(p, i, j)
        f = f + t
    return f


def test_basic_arith():
    p = 5
    x, y = a_var(p, 1, 1), a_var(p, 1, 2)
    f = x + y
    assert f * f == x * x + 2 * x * y + y * y
    assert (f - f).is_zero()
    assert f ** 3 == f * f * f
    assert (3 * x) + (2 * x) == FpPolynomial.zero(p)


def test_delta_minors():
    assert delta_minor(2, 2, 1) == a_var(2, 1, 2)
    d2 = delta_minor(2, 3, 2)
    expect = a_var(3, 1, 1) * a_var(3, 2, 2) - a_var(3, 1, 2) * a_var(3, 2, 1)
    assert d2 == expect
    # rows {1,2} x columns {2,3} of the generic 3x3 matrix
    d = delta_minor(3, 2, 2)
    expect = a_var(2, 1, 2) * a_var(2, 2, 3) - a_var(2, 1, 3) * a_var(2, 2, 2)
    assert d == expect


def test_frobenius_twist():
    p = 2
    f = a_var(p, 1, 1) + a_var(p, 1, 2)
    tw = f.frobenius()
    assert tw == a_var(p, 1, 1) ** 2 + a_var(p, 1, 2) ** 2
    p = 3
    g = 2 * a_var(p, 2, 1)
    assert g.frobenius() == 2 * a_var(p, 2, 1) ** 3


def test_frobenius_is_pth_power_and_multiplicative():
    rng = random.Random(7)
    for p in (2, 3):
        for _ in range(5):
            f = rand_poly(p, 2, 4, 3, rng)
            g = rand_poly(p, 2, 4, 3, rng)
            assert f.frobenius() == f ** p
            assert (f * g).frobenius() == f.frobenius() * g.frobenius()


def test_power_matches_repeated_multiplication():
    # __pow__ takes k digit by digit in base p, through frobenius; against
    # the running product f * ... * f for every k < p^3, on seeded
    # polynomials of two terms in two fields and of three terms in one
    rng = random.Random(11)
    x, t = ("a", 1, 1), ("t",)
    for p in (2, 3, 5, 7):
        for _ in range(2):
            two = sum((FpPolynomial.monomial(
                p, [(x, rng.randrange(3)), (t, rng.randrange(3))],
                rng.randrange(1, p)) for _ in range(2)),
                FpPolynomial.zero(p))
            three = sum((FpPolynomial.variable(p, x, e) * rng.randrange(1, p)
                         for e in range(3)), FpPolynomial.zero(p))
            for f in (two, three):
                expect = FpPolynomial.constant(p, 1)
                for k in range(p ** 3):
                    assert f ** k == expect, (p, f, k)
                    expect = expect * f


def test_power_keeps_the_exponent_limit_and_the_term_cap(monkeypatch):
    for p in (2, 3, 5, 7):
        x = a_var(p, 1, 1)
        assert (x ** EXPONENT_LIMIT).total_degree() == EXPONENT_LIMIT
        with pytest.raises(GuardExceededError, match="exceeds"):
            x ** (EXPONENT_LIMIT + 1)
    # (x + 1)^(2^31) = x^(2^31) + 1 at p = 2: 31 frobenius steps, the last
    # of them past the limit
    with pytest.raises(GuardExceededError, match="2147483648 exceeds"):
        (a_var(2, 1, 1) + 1) ** (EXPONENT_LIMIT + 1)
    # (x + y + 1)^3 is f f f with 10 terms at p = 5 and f frobenius(f)
    # with 9 at p = 2; a cap of 8 refuses both products
    for p in (2, 5):
        f = a_var(p, 1, 1) + a_var(p, 1, 2) + 1
        assert len((f ** 3).terms) == {2: 9, 5: 10}[p]
        monkeypatch.setattr(fpoly, "MONOMIAL_CAP", 8)
        with pytest.raises(GuardExceededError, match="^a product has"):
            f ** 3
        monkeypatch.undo()


def test_exact_divide():
    p = 2
    d1, d2 = delta_minor(2, p, 1), delta_minor(2, p, 2)
    assert exact_divide(d1 * d2, d1) == d2
    assert exact_divide(a_var(p, 1, 1), a_var(p, 1, 2)) is None
    with pytest.raises(ZeroDivisionError):
        exact_divide(d1, FpPolynomial.zero(p))


def test_exact_divide_roundtrip_random():
    rng = random.Random(13)
    for p in (2, 3):
        for _ in range(8):
            f = rand_poly(p, 3, 5, 3, rng)
            g = rand_poly(p, 3, 4, 2, rng)
            if g.is_zero():
                continue
            assert exact_divide(f * g, g) == f


def test_weight_of():
    p = 2
    assert weight_of(a_var(p, 1, 2), 2) == Weight((1, -2))
    d = minor(p, (1, 2), (1, 2))
    assert weight_of(d, 2) == Weight((-1, -1))
    assert weight_of(a_var(p, 1, 1) + a_var(p, 1, 2), 2) is None
    t = FpPolynomial.variable(p, ("t",))
    # a t or b variable raises whatever the term order, also after an
    # inhomogeneous pair
    for other in (t, FpPolynomial.variable(p, ("b", 1, 2))):
        for f in (other, a_var(p, 1, 1) + a_var(p, 1, 2) + other):
            with pytest.raises(ValueError, match="2 x 2 matrix entries only"):
                weight_of(f, 2)
    # an entry outside the n x n matrix has no weight (was an IndexError)
    for i, j in [(3, 1), (1, 3), (3, 3)]:
        with pytest.raises(ValueError, match="2 x 2 matrix entries only"):
            weight_of(a_var(p, 1, 1) + a_var(p, i, j), 2)


def test_weight_additive_and_minor_weights():
    for p in (2, 3):
        for n in (2, 3, 4):
            for i in range(1, n + 1):
                # the weight of the minor's entries against the formula
                # through the reversal map
                assert weight_of(delta_minor(n, p, i), n) \
                    == schubert_weight(n, p, i)
            f = delta_minor(n, p, 1) * delta_minor(n, p, n)
            assert weight_of(f, n) == (schubert_weight(n, p, 1)
                                       + schubert_weight(n, p, n))


def test_det_matches_gf_elimination():
    # every minor of the generic n x n matrix, on every pair of equally
    # large row and column tuples, contiguous or not, evaluated at random
    # points equals the exact Gaussian-elimination determinant over GF(p^k)
    rng = random.Random(99)
    for p, n in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]:
        field = field_for(p, 64)
        for size in range(1, n + 1):
            for rows in itertools.combinations(range(1, n + 1), size):
                for cols in itertools.combinations(range(1, n + 1), size):
                    sym = minor(p, rows, cols)
                    for _ in range(2):
                        assign = {("a", i, j): rng.randrange(field.order)
                                  for i in rows for j in cols}
                        mat = [[assign[("a", i, j)] for j in cols]
                               for i in rows]
                        assert (evaluate(sym, assign, field)
                                == _gf_det(field, mat)), (p, rows, cols)


def _gf_det(field, mat):
    n = len(mat)
    mat = [row[:] for row in mat]
    d = field.one
    for c in range(n):
        piv = next((i for i in range(c, n) if mat[i][c]), None)
        if piv is None:
            return field.zero
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            d = field.mul(d, field.neg(field.one)) if field.p != 2 else d
        d = field.mul(d, mat[c][c])
        inv = field.inv(mat[c][c])
        for i in range(c + 1, n):
            if mat[i][c]:
                f = field.mul(inv, mat[i][c])
                mat[i] = [field.sub(x, field.mul(f, y))
                          for x, y in zip(mat[i], mat[c])]
    return d


def test_substitute():
    p = 2
    x, y = a_var(p, 1, 1), a_var(p, 1, 2)
    f = x * x + y
    g = f.substitute({("a", 1, 1): y})
    assert g == y * y + y


VARS = ([("a", i, j) for i in (1, 2) for j in (1, 2)]
        + [("b", 1, 2), ("b", 2, 2), ("t",)])


@st.composite
def polys(draw, p, max_terms=4, max_exp=3):
    """Random polynomial over F_p in a, b and t variables."""
    terms = draw(st.lists(
        st.tuples(st.lists(st.tuples(st.sampled_from(VARS),
                                     st.integers(1, max_exp)), max_size=3),
                  st.integers(1, p - 1)),
        max_size=max_terms))
    f = FpPolynomial.zero(p)
    for exps, c in terms:
        f = f + FpPolynomial.monomial(p, exps, c)
    return f


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from([2, 3]))
def test_substitute_commutes_with_evaluation(data, p):
    # substitution then evaluation equals evaluating through the images,
    # with a, b and t both mapped and appearing in the images
    field = field_for(p, 64)
    f = data.draw(polys(p, 5, 4))
    mapped = data.draw(st.lists(st.sampled_from(VARS), unique=True,
                                max_size=len(VARS)))
    images = {v: data.draw(polys(p, 3, 2)) for v in mapped}
    point = {v: data.draw(st.integers(0, field.order - 1)) for v in VARS}
    moved_point = dict(point)
    moved_point.update({v: evaluate(img, point, field)
                        for v, img in images.items()})
    lhs = evaluate(f.substitute(images), point, field)
    rhs = evaluate(f, moved_point, field)
    assert lhs == rhs


def test_mat_mul_identity():
    from zipcones.fpoly import mat_identity, matrix_images
    A = generic_matrix(3, 3)
    assert mat_mul(A, mat_identity(3, 3)) == A
    # entries that map to themselves are left out of the substitution
    assert matrix_images(A) == {}
    swap = mat_mul(A, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    assert matrix_images(swap) == {("a", i, j): A[i - 1][2 - j]
                                   for i in (1, 2, 3) for j in (1, 2)}


def _schoolbook_mul(A, B):
    return [[sum((A[i][l] * B[l][j] for l in range(1, len(B))),
                 A[i][0] * B[0][j]) for j in range(len(B[0]))]
            for i in range(len(A))]


@pytest.mark.parametrize("n, p", [(1, 2), (2, 3), (3, 2), (4, 5)])
def test_mat_mul_skipping_zero_factors_keeps_every_product(n, p):
    # every term in the same order: a substitution built from the product
    # walks its image terms in that order
    from zipcones.modules import _generic_lower, group_generators
    rng = random.Random(n * p)
    X = generic_matrix(n, p)
    g = [[rng.choice([0, 0, 1, p - 1]) for _ in range(n)] for _ in range(n)]
    pairs = [(X, g), (g, X), (g, g), (X, [[0] * n] * n),
             (_generic_lower(n, p), X), (X, _generic_lower(n, p))]
    pairs += [(X, h) for h in group_generators(n, p)]
    def entries(M):
        return [[(type(e), list(e.terms.items())
                  if isinstance(e, FpPolynomial) else e) for e in row]
                for row in M]

    for A, B in pairs:
        assert entries(mat_mul(A, B)) == entries(_schoolbook_mul(A, B))


def test_entry_weight_of_a_fraction():
    f = (a_var(2, 2, 2).frobenius(), (1, 0))
    # wt(a22^2) = (0,-2) minus wt(D1) = (1,-2): the (1,1) entry weight (1-p)e1
    assert entry_weight(f, 2) == Weight((-1, 0))
    assert entry_weight(f, 2) == weight_of(a_var(2, 1, 1), 2)


def test_json_canonical_order():
    p = 2
    f = a_var(p, 1, 2) + a_var(p, 1, 1) * a_var(p, 2, 2)
    d = f.to_json_dict()
    assert d["p"] == 2
    # degree-2 term first (graded-lex descending)
    assert d["terms"][0]["exps"] == {"a_1_1": 1, "a_2_2": 1}
    assert d["terms"][1]["exps"] == {"a_1_2": 1}


def test_gf_field_basics():
    for p, k in [(2, 3), (3, 2)]:
        f = GF(p, k)
        for x in range(1, f.order):
            assert f.mul(x, f.inv(x)) == 1
        assert gf_matrix_rank(f, [[1, 0], [0, 1], [1, 1]]) == 2


def test_mixed_characteristics_raise():
    x2, x3 = a_var(2, 1, 1), a_var(3, 1, 1)
    with pytest.raises(ValueError):
        x2 + x3
    with pytest.raises(ValueError):
        x2 - x3
    with pytest.raises(ValueError):
        x2 * x3
    with pytest.raises(ValueError):
        exact_divide(x2, x3)
    with pytest.raises(ValueError):
        x2.substitute({("a", 1, 1): x3})


def test_negative_power_and_ragged_minor_raise():
    f = a_var(2, 1, 1)
    with pytest.raises(ValueError, match="negative power"):
        f ** -1
    with pytest.raises(ValueError, match="equally many rows and columns"):
        minor(2, (1, 2), (1,))


def test_delta_minor_is_refused_before_its_index_tuples_exist():
    # the two index tuples of Delta_i at i = 10^6 take about 80 MB, and the
    # minor cache would hash them; the size check comes first
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceededError) as refused:
            delta_minor(10 ** 6, 2, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == (
        "a 1000000 x 1000000 minor has at least 362880 terms, more than the "
        "limit %d" % fpoly.MONOMIAL_CAP)
    assert peak < 10 ** 6


def test_variable_fields_are_injective_and_invertible():
    vars_ = [("t",)] + [(k, i, j) for k in "ab" for i in range(1, 13)
                        for j in range(1, 13)]
    fields = [_field(v) for v in vars_]
    assert len(set(fields)) == len(vars_)
    assert _field(("t",)) == 0
    assert all(_var_of(f) == v for f, v in zip(fields, vars_))
    # the entries of an n x n matrix and the t variable use the lowest fields
    for n in (1, 2, 3, 5):
        box = [_field(("a", i, j)) for i in range(1, n + 1)
               for j in range(1, n + 1)]
        assert max(box) < 2 * n * n
    for bad in [("x", 1), ("a", 0, 1), ("a", 1), ("t", 1), ("c", 1, 1)]:
        with pytest.raises(ValueError):
            _field(bad)


def test_field_limit_admits_exactly_the_64_by_64_entries():
    # b_64_64 owns the last field admitted; a_1_65, first of the next
    # shell, the first refused, before a monomial holds it
    corners = [(k, i, j) for k in "ab" for i in (1, 64) for j in (1, 64)]
    assert max(map(_field, corners)) == _field(("b", 64, 64)) == FIELD_LIMIT
    x = FpPolynomial.variable(2, ("b", 64, 64))
    assert x.variables() == {("b", 64, 64)}
    for var in [("a", 1, 65), ("b", 1, 65), ("a", 65, 1), ("b", 65, 65)]:
        with pytest.raises(GuardExceededError,
                           match="more than the limit %d$" % FIELD_LIMIT):
            FpPolynomial.variable(2, var)
    with pytest.raises(GuardExceededError, match=r"^\('a', 1, 65\) needs "
                       "packed-monomial field 8193, more than the limit"):
        a_var(2, 1, 65)


def test_exponent_limit_raises_and_never_wraps():
    p = 2
    x = a_var(p, 1, 1)
    top = x ** EXPONENT_LIMIT
    assert top.total_degree() == EXPONENT_LIMIT
    assert top.variables() == {("a", 1, 1)}
    with pytest.raises(GuardExceededError, match="2147483648 exceeds .* 2147483647"):
        top * x
    with pytest.raises(GuardExceededError):
        FpPolynomial.variable(p, ("a", 1, 1), EXPONENT_LIMIT + 1)
    assert top.substitute({("a", 1, 2): x}) == top
    with pytest.raises(GuardExceededError):
        (top * a_var(p, 1, 2)).substitute({("a", 1, 2): x})
    # a neighbouring field is untouched by a product at the limit
    y = FpPolynomial.variable(p, ("t",), EXPONENT_LIMIT)
    assert (top * y).min_exponent(("t",)) == EXPONENT_LIMIT


def test_frobenius_overflow_raises():
    for p in (2, 3, 5):
        ok = FpPolynomial.variable(p, ("b", 2, 1), EXPONENT_LIMIT // p)
        assert ok.frobenius().total_degree() == EXPONENT_LIMIT // p * p
        over = ok * a_var(p, 2, 1) ** (EXPONENT_LIMIT // p + 1)
        with pytest.raises(GuardExceededError, match="exceeds"):
            over.frobenius()


def test_every_term_dict_built_stops_at_the_cap(monkeypatch):
    # f and g have 4 terms each; under a cap of 3 each way of growing a
    # term dict past it raises, naming what grew, its size and the limit
    p = 5
    x, y, u, v, w = (a_var(p, 1, j) for j in (1, 2, 3, 4, 5))
    f, g = (x + 1) ** 3, (y + 1) ** 3
    fg, two = f * g, x + y
    monkeypatch.setattr(fpoly, "MONOMIAL_CAP", 3)
    with pytest.raises(GuardExceededError,
                       match="^a product has 4 terms, more than the limit 3$"):
        f * g
    with pytest.raises(GuardExceededError, match="^a sum has 7 terms"):
        f + g
    with pytest.raises(GuardExceededError,
                       match="^a substitution image has 4 terms"):
        two.substitute({("a", 1, 1): u + v, ("a", 1, 2): w + 1})
    with pytest.raises(GuardExceededError, match="^a quotient has 4 terms"):
        exact_divide(fg, g)
    # what stays within the cap answers
    assert two.substitute({("a", 1, 1): u + v, ("a", 1, 2): w}) == u + v + w
    assert exact_divide(fg, fg) == FpPolynomial.constant(p, 1)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5]))
def test_ring_axioms(data, p):
    f, g, h = (data.draw(polys(p)) for _ in range(3))
    one = FpPolynomial.constant(p, 1)
    zero = FpPolynomial.zero(p)
    assert f + g == g + f and f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + zero == f and f * one == f and (f * zero).is_zero()
    assert (f + (-f)).is_zero() and (f - g) + g == f
    assert f ** 3 == f * f * f


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5]))
def test_exact_divide_properties(data, p):
    f = data.draw(polys(p))
    g = data.draw(polys(p))
    if g.is_zero():
        return
    assert exact_divide(f * g, g) == f
    if g.total_degree() > 0:
        # g | f g + 1 would make g a unit
        assert exact_divide(f * g + 1, g) is None


def _reference_grlex(mono):
    order = sorted({v for v, _ in mono} | set(VARS),
                   key=lambda v: ("abt".index(v[0]),) + v[1:])
    exps = dict(mono)
    return (sum(exps.values()), [exps.get(v, 0) for v in order])


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([2, 3]))
def test_sorted_terms_is_graded_lex(data, p):
    f = data.draw(polys(p, 8))
    monos = [m for m, _ in f.sorted_terms()]
    assert monos == sorted(monos, key=_reference_grlex, reverse=True)
    # decoding round-trips: the terms rebuild the polynomial
    rebuilt = FpPolynomial.zero(p)
    for m, c in f.sorted_terms():
        rebuilt = rebuilt + FpPolynomial.monomial(p, m, c)
    assert rebuilt == f
