import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from fp_reference import fp_nullspace
from gfq import evaluate, field_for, gf_gauss_jordan
from gamma_reference import (
    alpha_sp4,
    displayed_gamma,
    entry_weight,
    epsilon_sp6,
    f1_sp6,
    f2_sp6,
)
from h0_reference import (
    _generator_images,
    defect_by_substitution,
    h0_by_substitution,
)
from zipcones import fpoly, modules, sections
from zipcones.errors import (
    GuardExceededError,
    InhomogeneousWeightError,
    NotUnipotentInvariantError,
    RankMismatchError,
    TheoremViolationError,
    WeightMismatchError,
    ZipconeError,
)
from zipcones.fplinalg import fp_det
from zipcones.fpoly import (
    FpPolynomial,
    Substitution,
    a_var,
    delta_minor,
    generic_matrix,
    mat_mul,
    matrix_images,
    minor,
    weight_of,
)
from zipcones.modules import (
    build_module,
    group_generators,
    group_order,
    tilde_section,
    tilde_valuation,
    valuation_sign_predict,
)
from zipcones.oracle import (
    _offset,
    _packed_table,
    enumerate_weight_monomials,
    h0_dimension,
    unipotent_defect,
)
from zipcones.sections import (
    Section,
    catalog_section,
    check_equivariance,
    clear_denominators,
    gamma_matrix,
    rzip_sp4_graded_dimension,
    section_names,
)
from zipcones.weights import Weight, eta_weight, hodge_character, schubert_weight


def test_check_equivariance_basic():
    s = check_equivariance(a_var(2, 1, 2), (1, -2), 2, 2)
    assert s.weight == Weight((1, -2))
    for n, p in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        d = minor(p, tuple(range(1, n + 1)), tuple(range(1, n + 1)))
        s = check_equivariance(d, [1 - p] * n, n, p)
        assert s.weight == hodge_character(n, p)


def test_check_equivariance_rejects():
    with pytest.raises(NotUnipotentInvariantError) as exc:
        check_equivariance(a_var(2, 1, 1), (-1, 0), 2, 2)
    assert exc.value.generator == (2, 1)
    with pytest.raises(InhomogeneousWeightError):
        check_equivariance(a_var(2, 1, 1) + a_var(2, 1, 2), None, 2, 2)
    with pytest.raises(WeightMismatchError):
        check_equivariance(a_var(2, 1, 2), (0, 0), 2, 2)


def test_section_product_is_verified():
    # multiplicativity: re-verify the product from scratch
    for p in (2, 3):
        d1 = catalog_section("delta1", 2, p)
        d2 = catalog_section("delta2", 2, p)
        prod = d1 * d2
        again = check_equivariance(prod.body, prod.weight, 2, p)
        assert again.weight == d1.weight + d2.weight


def test_power_is_the_repeated_product():
    for name, n in (("delta1", 3), ("alphasp4", 2)):
        for p in (2, 3):
            sec = catalog_section(name, n, p)
            product = Section(n, p, FpPolynomial.constant(p, 1),
                              Weight([0] * n))
            for k in range(5):
                assert sec.power(k) == product, (name, p, k)
                product = product * sec


CATALOG_WEIGHTS = {
    # name -> (n, expected weight as function of p)
    "delta1": (2, lambda p: schubert_weight(2, p, 1)),
    "delta2": (2, lambda p: schubert_weight(2, p, 2)),
    "hasse": (2, lambda p: hodge_character(2, p)),
    "alphasp4": (2, lambda p: Weight((0, -p * (p - 1)))),
    "epsilonsp6": (3, lambda p: Weight((1, 0, -p * p))),
    "f1sp6": (3, lambda p: eta_weight(3, p, 1)),
    "f2sp6": (3, lambda p: eta_weight(3, p, 2)),
}


def test_catalog_sections_have_stated_weights():
    for name, (n, wt) in CATALOG_WEIGHTS.items():
        for p in (2, 3):
            s = catalog_section(name, n, p)
            assert s.weight == wt(p), (name, p)


def test_catalog_divided_sections_exist():
    for p in (2, 3):
        for name in ("thetasp6", "rhosp6", "tausp6"):
            s = catalog_section(name, 3, p)
            assert not s.body.is_zero()
    # stated weights on the hyperplane side checks
    assert catalog_section("thetasp6", 3, 2).weight == Weight((1, -3, -4))
    assert catalog_section("rhosp6", 3, 2).weight == Weight((0, 0, -4))
    assert catalog_section("tausp6", 3, 2).weight == Weight((2, -4, -4))


def test_catalog_unknown_name():
    with pytest.raises(ZipconeError):
        catalog_section("nope", 2, 2)


def _assert_displayed(n, p):
    _, gamma = gamma_matrix(n, p)
    for r, row in enumerate(displayed_gamma(n, p)):
        for s, expect in enumerate(row):
            if expect is None:
                expect = (FpPolynomial.zero(p), (0,) * n)
            assert gamma[r][s] == expect, (n, p, r, s)


def test_gamma_displayed_matrix_n2():
    for p in (2, 3, 5):
        _assert_displayed(2, p)
        assert catalog_section("alphasp4", 2, p).body == alpha_sp4(p)


def test_gamma_displayed_matrix_n3():
    for p in (2, 3, 5):
        _assert_displayed(3, p)
        for name, reference in (("epsilonsp6", epsilon_sp6),
                                ("f1sp6", f1_sp6), ("f2sp6", f2_sp6)):
            assert catalog_section(name, 3, p).body == reference(p), name


def test_gamma_zero_pattern_and_weights_n4():
    # the zeros hold by construction and the weights are certified inside
    # gamma_matrix; both are asserted here as well
    for p in (2, 3):
        _, gamma = gamma_matrix(4, p)
        for r in range(1, 5):
            for s in range(1, 5):
                entry = gamma[r - 1][s - 1]
                if r + s > 5:
                    assert entry[0].is_zero(), (p, r, s)
                    continue
                weight = [0] * 4
                weight[r - 1] += 1
                weight[s - 1] -= p
                assert entry_weight(entry, 4) == Weight(weight), (p, r, s)
                sec = clear_denominators(4, p, r, s)
                assert not sec.body.is_zero()


def test_gamma_is_bounded_by_the_term_cap(monkeypatch):
    # no rank is refused: gamma_matrix(6, 7) answers at the full cap, and
    # its largest reduced numerator, 1536 terms, is refused under a cap of
    # 1000; the matrix and its entries are uncached, so that the refused
    # entries are built afresh
    _, gamma = gamma_matrix(6, 7)
    assert max(len(num.terms) for row in gamma for num, _ in row) == 1536
    _clear_certificates()
    monkeypatch.setattr(fpoly, "MONOMIAL_CAP", 1000)
    with pytest.raises(GuardExceededError, match="more than the limit 1000"):
        gamma_matrix(6, 7)


def _clear_certificates():
    """Empty the caches of the certified Delta_i, Gamma entries and Gamma,
    so that the next call proves them afresh."""
    for cached in (sections._delta_section, sections._gamma_section,
                   sections.gamma_matrix):
        cached.cache_clear()


def _count_defects(monkeypatch):
    """Record every ``unipotent_defect`` call that ``sections`` makes."""
    calls = []

    def counted(terms, n, p):
        calls.append((n, p))
        return unipotent_defect(terms, n, p)

    monkeypatch.setattr(sections, "unipotent_defect", counted)
    return calls


@pytest.mark.parametrize("p", (2, 3))
def test_gamma_proves_each_minor_and_numerator_once(monkeypatch, p):
    # n proofs for the minors and one for each of the n(n-1)/2 entries off
    # the anti-diagonal; the anti-diagonal entries are checked by identity
    calls = _count_defects(monkeypatch)
    for n in range(2, 6):
        _clear_certificates()
        del calls[:]
        gamma_matrix(n, p)
        assert len(calls) == n + n * (n - 1) // 2, (n, p)
        gamma_matrix.cache_clear()
        gamma_matrix(n, p)
        assert len(calls) == n + n * (n - 1) // 2, (n, p)


@pytest.mark.parametrize("p", (2, 3))
def test_catalog_proves_only_the_minors_and_gamma_entries(monkeypatch, p):
    # theta, rho and tau read the five certificates of Delta_1, Delta_2,
    # epsilon, f1 and f2 and prove nothing about their quotient; every
    # other catalog section is one certificate
    calls = _count_defects(monkeypatch)
    names = [("thetasp6", 5), ("rhosp6", 5), ("tausp6", 5), ("alphasp4", 1),
             ("epsilonsp6", 1), ("f1sp6", 1), ("f2sp6", 1)]
    names += [("delta%d" % i, 1) for i in (1, 2, 3)] + [("hasse", 1)]
    for name, count in names:
        _clear_certificates()
        del calls[:]
        section = catalog_section(name, 2 if name == "alphasp4" else 3, p)
        assert len(calls) == count, (name, p)
        assert section.weight == weight_of(section.body, section.n), name
        assert catalog_section(name, section.n, p) == section
        assert len(calls) == count, (name, p)


def _shifted_epsilon(monkeypatch):
    """Hand the catalog an epsilon whose certified weight is off by
    e_1 - e_2 from its body's."""
    certified = sections._gamma_section

    def tampered(n, p, r, s):
        section, exps = certified(n, p, r, s)
        if (n, r, s) == (3, 1, 1):
            section = Section(n, p, section.body,
                              section.weight + Weight((1, -1, 0)),
                              section.name)
        return section, exps

    monkeypatch.setattr(sections, "_gamma_section", tampered)


def test_stated_weight_check_is_live(monkeypatch):
    # the paper's weight of epsilon is checked against its certificate
    _shifted_epsilon(monkeypatch)
    for p in (2, 3):
        with pytest.raises(TheoremViolationError, match="not the stated"):
            catalog_section("epsilonsp6", None, p)
        catalog_section("f1sp6", None, p)


@pytest.mark.parametrize("name", ("thetasp6", "rhosp6", "tausp6"))
def test_summand_weight_check_is_live(monkeypatch, name):
    # each of theta, rho and tau has epsilon in exactly one summand, so a
    # wrong weight of epsilon makes the summands' weights differ
    _shifted_epsilon(monkeypatch)
    for p in (2, 3):
        with pytest.raises(TheoremViolationError,
                           match="summands have weights"):
            catalog_section(name, None, p)


def test_anti_diagonal_identity_check_is_live(monkeypatch):
    # a numerator that is not +-Delta_r fails the identity check, with no
    # unipotent certificate left to catch it
    build = sections.gamma_entry

    def tampered(n, p, r, s):
        num, exps = build(n, p, r, s)
        if r + s == n + 1:
            num = num * a_var(p, 1, 1)
        return num, exps

    monkeypatch.setattr(sections, "gamma_entry", tampered)
    for n, p in ((2, 3), (3, 2), (4, 3)):
        _clear_certificates()
        with pytest.raises(TheoremViolationError, match="is not \\+-Delta"):
            gamma_matrix(n, p)


def test_clear_denominators_reproves_nothing(monkeypatch):
    gamma_matrix(4, 3)
    calls = _count_defects(monkeypatch)
    for r in range(1, 5):
        for s in range(1, 6 - r):
            sec = clear_denominators(4, 3, r, s)
            assert sec.weight == weight_of(sec.body, 4), (r, s)
    assert calls == []


def decoded_exponents(poly, n):
    """The exponent tuples as ``sections`` read them before
    ``fpoly.entry_exponents``: each monomial decoded to (variable,
    exponent) pairs, then placed row by row; the reference for the
    reader."""
    terms = {}
    for m, c in poly.terms.items():
        exps = [0] * (n * n)
        for (_, i, j), e in fpoly._decode(m):
            exps[(i - 1) * n + j - 1] = e
        terms[tuple(exps)] = c
    return terms


def test_entry_exponents_match_the_decoded_reference():
    for p in (2, 3):
        for n in range(1, 5):
            z, gamma = gamma_matrix(n, p)
            polys = [delta_minor(n, p, i) for i in range(1, n + 1)]
            polys += [num for row in gamma + z for num, _ in row]
            for f in polys:
                assert fpoly.entry_exponents(f, n) == decoded_exponents(f, n)
    rng = random.Random(25)
    for _ in range(300):
        n, p = rng.randint(1, 4), rng.choice((2, 3, 5, 7))
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exps = {("a", rng.randint(1, n), rng.randint(1, n)):
                    rng.choice((1, 2, 255, 256, 65536, fpoly.EXPONENT_LIMIT))
                    for _ in range(rng.randint(0, 4))}
            terms[fpoly._pack(exps.items())] = rng.randrange(1, p)
        f = FpPolynomial(p, terms)
        assert fpoly.entry_exponents(f, n) == decoded_exponents(f, n)


def _field_product(field, X, Y):
    out = []
    for row in X:
        out.append([])
        for col in zip(*Y):
            acc = field.zero
            for x, y in zip(row, col):
                acc = field.add(acc, field.mul(x, y))
            out[-1].append(acc)
    return out


def _field_inverse(field, M):
    m = len(M)
    det, rows = gf_gauss_jordan(
        field, [row + [int(i == j) for j in range(m)]
                for i, row in enumerate(M)], m)
    assert det
    return [row[m:] for row in rows]


def _field_det(field, A, rows, cols):
    return gf_gauss_jordan(
        field, [[A[i - 1][j - 1] for j in cols] for i in rows], len(rows))[0]


@pytest.mark.parametrize("n, p", list(itertools.product((1, 2, 3, 4),
                                                         (2, 3, 5, 7)))
                         + [(5, 2), (5, 3), (6, 2), (6, 3)])
def test_gamma_inverse_is_the_lu_factor(n, p):
    # evaluated at random matrices A over GF(p^k) whose Delta_i are all
    # nonzero: z, solved for by elimination in the field, is the value of
    # the z of gamma_matrix; z^{-1} is the unit lower LU factor of A with
    # its columns reversed, (z^{-1})_{i,k} = minor((1..k-1, i), last k
    # columns) / Delta_k; and z A phi(z)^{-1}, with phi the Frobenius of
    # the field, is the value of gamma.  The reference forms no
    # polynomial; only the entries of gamma_matrix are evaluated.
    z_entries, gamma_entries = gamma_matrix(n, p)
    field = field_for(p)
    rng = random.Random(100 * n + p)

    def last(k):
        return tuple(range(n + 1 - k, n + 1))

    points = 0
    while points < 3:
        A = [[rng.randrange(field.order) for _ in range(n)] for _ in range(n)]
        deltas = [_field_det(field, A, range(1, k + 1), last(k))
                  for k in range(1, n + 1)]
        if not all(deltas):
            continue
        points += 1
        # row i of z A vanishes on the last i - 1 columns:
        # sum_{k<i} z_{i,k} A[k][c] = -A[i][c]
        z = [[int(i == k) for k in range(n)] for i in range(n)]
        for i in range(1, n):
            cols = range(n - i, n)
            _, rows = gf_gauss_jordan(
                field, [[A[k][c] for k in range(i)] + [field.neg(A[i][c])]
                        for c in cols], i)
            z[i][:i] = [row[i] for row in rows]
        z_inv = _field_inverse(field, z)
        for k, i in itertools.combinations(range(1, n + 1), 2):
            num = _field_det(field, A, tuple(range(1, k)) + (i,), last(k))
            assert z_inv[i - 1][k - 1] == field.mul(
                num, field.inv(deltas[k - 1])), (i, k)
        phi_z = [[field.pow(x, p) for x in row] for row in z]
        gamma = _field_product(field, _field_product(field, z, A),
                               _field_inverse(field, phi_z))
        assign = {("a", i + 1, j + 1): A[i][j]
                  for i in range(n) for j in range(n)}

        def value(num, exps):
            den = field.one
            for d, e in zip(deltas, exps):
                den = field.mul(den, field.pow(d, e))
            return field.mul(evaluate(num, assign, field), field.inv(den))

        assert [[value(*e) for e in row] for row in z_entries] == z
        assert [[value(*e) for e in row] for row in gamma_entries] == gamma


def test_clear_denominators_examples():
    s = clear_denominators(2, 2, 1, 1)
    assert s.body == alpha_sp4(2)
    assert s.weight == Weight((0, -2))
    s = clear_denominators(3, 2, 1, 3)
    assert s.body == delta_minor(3, 2, 1)
    s = clear_denominators(3, 2, 2, 1)
    assert s.body == f2_sp6(2)
    assert s.weight == eta_weight(3, 2, 2)
    with pytest.raises(ZipconeError):
        clear_denominators(3, 2, 3, 3)


@pytest.mark.parametrize("r, s", [(0, 1), (1, 0), (0, 0), (-1, 2), (3, 3)])
def test_clear_denominators_rejects_an_index_off_the_triangle(r, s):
    # only 1 <= r, 1 <= s, r + s <= n + 1 name a nonzero entry; (0, 1) used
    # to come back as a section with a wrong weight, (0, 0) with a zero
    # body, and (-1, 2) raised IndexError
    with pytest.raises(ZipconeError, match="not a nonzero entry"):
        clear_denominators(3, 2, r, s)


def test_clear_denominators_all_admissible():
    for n, p in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                if r + s <= n + 1:
                    sec = clear_denominators(n, p, r, s)
                    assert not sec.body.is_zero()


def test_lowest_terms_divides_out_minors():
    # Delta_1 = a_12 cancels once, and a_22 is left over Delta_1; a zero
    # numerator keeps no denominator
    num = delta_minor(2, 2, 1) * a_var(2, 2, 2)
    assert sections._lowest_terms(2, 2, num, (2, 0)) == (a_var(2, 2, 2),
                                                         (1, 0))
    zero = FpPolynomial.zero(3)
    assert sections._lowest_terms(2, 3, zero, (1, 3)) == (zero, (0, 0))


def test_h0_examples():
    assert h0_dimension((0, 0), 2, 2) == 1
    assert h0_dimension((1, -2), 2, 2) == 1
    assert h0_dimension((1, 0), 2, 2) == 0
    assert h0_dimension((0, 1), 2, 2) == 0   # not L-dominant
    assert h0_dimension((1, -1), 2, 2) == 0  # wrong weight-sum class


def test_h0_guard():
    with pytest.raises(GuardExceededError):
        h0_dimension((100, -200, -300), 3, 2, monomial_cap=10)


@pytest.mark.parametrize("lam, n, p, count", [((-4, -4, -4), 3, 2, 795),
                                              ((0, 0), 2, 2, 1)])
def test_monomial_cap_is_the_largest_count_answered(lam, n, p, count):
    assert len(enumerate_weight_monomials(lam, n, p, cap=count)) == count
    assert h0_dimension(lam, n, p, monomial_cap=count) == 1
    with pytest.raises(GuardExceededError):
        enumerate_weight_monomials(lam, n, p, cap=count - 1)
    with pytest.raises(GuardExceededError):
        h0_dimension(lam, n, p, monomial_cap=count - 1)
    with pytest.raises(ValueError):
        enumerate_weight_monomials(lam, n, p, cap=-5)
    with pytest.raises(ValueError):
        h0_dimension(lam, n, p, monomial_cap=-5)


@pytest.mark.parametrize("lam", [(1, -2, 0), (1,)])
def test_enumeration_checks_the_weight_rank(lam):
    # a weight longer or shorter than n must not reach the enumeration,
    # where it would give a wrong list or an IndexError
    with pytest.raises(RankMismatchError, match="weight rank %d, expected 2"
                       % len(lam)):
        enumerate_weight_monomials(lam, 2, 2)
    with pytest.raises(RankMismatchError, match="weight rank %d, expected 2"
                       % len(lam)):
        h0_dimension(lam, 2, 2)


def _recursive_monomials(lam, n, p):
    # reference enumerator: one recursion level per matrix entry, pruned
    # by the range of weights the remaining entries can still reach
    total = sum(lam)
    if total % (1 - p) != 0 or total // (1 - p) < 0:
        return []
    entries = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    wts = [tuple((t == i) - p * (t == j) for t in range(1, n + 1))
           for i, j in entries]
    lo = [[0] * n for _ in range(len(entries) + 1)]
    hi = [[0] * n for _ in range(len(entries) + 1)]
    for idx in range(len(entries) - 1, -1, -1):
        for c in range(n):
            lo[idx][c] = min(lo[idx + 1][c], wts[idx][c])
            hi[idx][c] = max(hi[idx + 1][c], wts[idx][c])
    out, prefix = [], []

    def rec(idx, remaining, need):
        if idx == len(entries) - 1:
            if all(nc == remaining * wc for nc, wc in zip(need, wts[idx])):
                out.append(tuple(prefix) + (remaining,))
            return
        for c in range(n):
            if not remaining * lo[idx][c] <= need[c] <= remaining * hi[idx][c]:
                return
        for e in range(remaining + 1):
            prefix.append(e)
            rec(idx + 1, remaining - e,
                tuple(nc - e * wc for nc, wc in zip(need, wts[idx])))
            prefix.pop()

    rec(0, total // (1 - p), tuple(lam))
    return out


def _dominant_box(n, low, high):
    return [lam for lam in itertools.product(range(low, high + 1), repeat=n)
            if all(lam[i] >= lam[i + 1] for i in range(n - 1))]


@pytest.mark.parametrize("n, p, low, high", [
    (2, 2, -16, 4), (2, 3, -20, 4), (2, 5, -24, 4), (2, 7, -28, 4),
    (3, 2, -5, 2), (3, 3, -4, 2), (3, 7, -6, 2), (4, 2, -2, 1)])
def test_margin_enumeration_matches_the_recursion(n, p, low, high):
    total = 0
    for lam in _dominant_box(n, low, high):
        monos = enumerate_weight_monomials(lam, n, p)
        assert monos == _recursive_monomials(lam, n, p), lam
        total += len(monos)
    assert total > 0


def test_h0_monomial_enumeration_is_exhaustive():
    # cross-check the enumeration by margins against brute force
    for lam, n, p in [((1, -2), 2, 2), ((-2, -2), 2, 2), ((0, -4), 2, 2),
                      ((1, -1, -2), 3, 2), ((-1, -1, -1), 3, 2),
                      ((1, -3), 2, 3), ((0, -4), 2, 3), ((-2, -4), 2, 3),
                      ((2, -3, -3), 3, 3), ((0, -2, -4), 3, 3)]:
        fancy = set(enumerate_weight_monomials(lam, n, p))
        d = sum(lam) // (1 - p)
        entries = sorted((i, j) for i in range(1, n + 1)
                         for j in range(1, n + 1))
        brute = set()
        for exps in itertools.product(range(d + 1), repeat=n * n):
            if sum(exps) != d:
                continue
            w = [0] * n
            for (i, j), e in zip(entries, exps):
                w[i - 1] += e
                w[j - 1] -= p * e
            if tuple(w) == tuple(lam):
                brute.add(exps)
        assert fancy == brute, (lam, n, p)


def test_h0_additivity_of_positivity():
    rng = random.Random(5)
    pos = [lam for lam in itertools.product(range(2, -5, -1), repeat=2)
           if lam[0] >= lam[1] and h0_dimension(lam, 2, 2) > 0]
    for _ in range(10):
        a = rng.choice(pos)
        b = rng.choice(pos)
        s = (a[0] + b[0], a[1] + b[1])
        assert h0_dimension(s, 2, 2) > 0, (a, b)


@functools.lru_cache(maxsize=None)
def _positive_rank2_weights(p):
    """The L-dominant weights of [-8, 3]^2 with a nonzero section."""
    return [lam for lam in itertools.product(range(3, -9, -1), repeat=2)
            if lam[0] >= lam[1] and h0_dimension(lam, 2, p) > 0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_h0_positivity_is_additive(p, data):
    # the product of nonzero sections of weights lam and mu is a nonzero
    # section of weight lam + mu
    pos = _positive_rank2_weights(p)
    lam = data.draw(st.sampled_from(pos), label="lam")
    mu = data.draw(st.sampled_from(pos), label="mu")
    assert h0_dimension((lam[0] + mu[0], lam[1] + mu[1]), 2, p) > 0


def test_h0_positivity_is_additive_rank3():
    # p = 2, degree 1..6 and at most 40 candidate monomials, so that every
    # sum has degree at most 12 and is answered in milliseconds
    pos = [lam for lam in itertools.product(range(3, -9, -1), repeat=3)
           if lam[0] >= lam[1] >= lam[2] and 1 <= -sum(lam) <= 6
           and 0 < len(enumerate_weight_monomials(lam, 3, 2)) <= 40
           and h0_dimension(lam, 3, 2) > 0]
    assert len(pos) > 20
    rng = random.Random(11)
    for _ in range(60):
        lam, mu = rng.choice(pos), rng.choice(pos)
        assert h0_dimension(Weight(lam) + Weight(mu), 3, 2) > 0, (lam, mu)


@pytest.mark.parametrize("n, p, low, high, cap", [
    (2, 2, -8, 4, None), (2, 3, -8, 4, None), (2, 5, -10, 4, None),
    (3, 2, -4, 1, 12), (3, 3, -4, 2, None), (3, 5, -3, 2, None),
    (4, 2, -2, 1, 12), (4, 3, -2, 1, None)])
def test_h0_grows_under_the_section_ring_embeddings(n, p, low, high, cap):
    # sections are polynomials, so multiplying by a nonzero section of
    # weight w embeds H0(lam) in H0(lam + w), and the p-th power, injective
    # over F_p, embeds H0(lam) in H0(p lam): h0 may only grow, with no
    # second implementation to compare against.  w runs over the catalog
    # sections of rank n, lam over the box weights with h0 > 0, and at
    # p = 2 only weights of degree up to ``cap`` are compared: uncapped,
    # the shifts of [-4, 1]^3 took 111 s at rank 3, and at rank 4 the cap
    # 12 keeps the shifts of [-2, 1]^4 to about 4 s on two shared cores;
    # p = 3 at rank 4 needs no cap
    h0 = functools.lru_cache(maxsize=None)(
        lambda lam: h0_dimension(lam, n, p))
    shifts = {catalog_section(name, n, p).weight for name in section_names(n)}
    checked = 0
    for lam in itertools.product(range(high, low - 1, -1), repeat=n):
        lam = Weight(lam)
        if any(lam[i] < lam[i + 1] for i in range(n - 1)) or not h0(lam):
            continue
        for big in sorted(lam + w for w in shifts) + [p * lam]:
            if cap is None or sum(big) // (1 - p) <= cap:
                assert h0(big) >= h0(lam), (lam, big)
                checked += 1
    assert checked >= 10


def _all_generators(n, p):
    return [(k, l) for k in range(2, n + 1) for l in range(1, k)]


def _generator_images_by_hand(n, p, k, l):
    # (1 + t E_kl) X (1 - t^p E_kl) entry by entry: row k gains t times
    # row l, then column l loses t^p times column k
    images = {}
    t = lambda e: FpPolynomial.variable(p, ("t",), e)
    for j in range(1, n + 1):
        if j != l:
            images[("a", k, j)] = a_var(p, k, j) + t(1) * a_var(p, l, j)
    for i in range(1, n + 1):
        if i != k:
            images[("a", i, l)] = a_var(p, i, l) - t(p) * a_var(p, i, k)
    images[("a", k, l)] = (a_var(p, k, l) + t(1) * a_var(p, l, l)
                           - t(p) * a_var(p, k, k) - t(p + 1) * a_var(p, l, k))
    return images


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_generator_images_match_the_entrywise_formula(p):
    for n in range(1, 5):
        for k, l in _all_generators(n, p):
            assert _generator_images(n, p, k, l) \
                == _generator_images_by_hand(n, p, k, l), (n, k, l)


def _h0_all_generators(lam, n, p):
    # reference oracle: the conditions of every 1 + t E_kl with k > l,
    # where h0_dimension imposes only the simple roots l = k - 1
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        return 0
    entries = [("a", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    subs = [Substitution(p, _generator_images(n, p, k, l))
            for k, l in _all_generators(n, p)]
    columns = []
    for exps in enumerate_weight_monomials(lam, n, p):
        base = FpPolynomial.monomial(p, zip(entries, exps))
        col = {}
        for gi, sub in enumerate(subs):
            for m, c in (base.substitute(sub) - base).terms.items():
                col[gi, m] = c
        columns.append(col)
    return len(fp_nullspace(columns, p))


@pytest.mark.parametrize("n, p, low, high", [
    (3, 2, -4, 2), (3, 3, -4, 2), (4, 2, -2, 1), (2, 3, -20, 4),
    (2, 5, -24, 4), (2, 7, -28, 4), (3, 5, -8, 2), (3, 7, -12, 2)])
def test_h0_simple_roots_match_all_generators(n, p, low, high):
    # h0_dimension imposes the t^(p^i) coefficients of the simple roots;
    # the reference imposes every coefficient of every generator
    positive = 0
    for lam in _dominant_box(n, low, high):
        expect = _h0_all_generators(lam, n, p)
        assert h0_dimension(lam, n, p) == expect, lam
        positive += expect > 0
    assert positive > 0


def test_catalog_sections_are_invariant_under_all_generators():
    # check_equivariance tests the simple roots only; every
    # catalog section is fixed by every 1 + t E_kl, k > l, as well
    for n in (2, 3, 4):
        for p in (2, 3, 5, 7):
            for name in section_names(n):
                body = catalog_section(name, n, p).body
                for k, l in _all_generators(n, p):
                    assert body.substitute(_generator_images(n, p, k, l)) \
                        == body, (name, n, p, k, l)


def test_rzip_examples():
    assert rzip_sp4_graded_dimension((1, -2), 2) == 1
    assert rzip_sp4_graded_dimension((0, 0), 2) == 1
    assert rzip_sp4_graded_dimension((0, -2), 2) == 1
    assert rzip_sp4_graded_dimension((1, 0), 2) == 0
    # two monomials of the same weight: alpha^3 and delta1^2 delta2^2
    assert rzip_sp4_graded_dimension((0, -6), 2) == 2


def test_tilde_det_power():
    for k in (1, 2, -1):
        ts = tilde_section((k, k), 2, 2)
        assert ts.body_det_power == k * group_order(2, 2)
        assert len(ts.body_num.terms) == 1 and ts.body_num.total_degree() == 0
        # boundary valuation has the opposite sign: det^k extends iff k <= 0
        assert ts.det_valuation == -k * group_order(2, 2)
        assert ts.extends == (k <= 0)


def test_norm_product_is_bounded_by_the_term_cap(monkeypatch):
    # the norm of the highest-weight vector Delta_1 of V(1, 0) at p = 3 has
    # 4 terms.  Measured with the caches cleared: the running product of
    # the 4 coset translates of Delta_1 reaches 3 terms, and the power
    # Q^12 = frobenius(Q) frobenius^2(Q) 4, so the product guard of fpoly
    # refuses the power under a cap of 3 and the walk under a cap of 2
    assert len(tilde_section((1, 0), 2, 3).body_num.terms) == 4
    for cap, terms in [(3, 4), (2, 3)]:
        modules._delta_norm.cache_clear()
        monkeypatch.setattr(fpoly, "MONOMIAL_CAP", cap)
        with pytest.raises(GuardExceededError,
                           match="^a product has %d terms" % terms):
            tilde_section((1, 0), 2, 3)


def test_tilde_body_is_fixed_by_right_translation():
    # the norm multiplies the right translates f(X s); X -> X g permutes
    # them, so the body moves only by det(g)^(-body_det_power)
    for lam, p in [((1, -2), 2), ((2, 0), 3)]:
        ts = tilde_section(lam, 2, p)
        assert ts.body_num.total_degree() > 0
        # the SL_2 generators and diag(-1, 1), which generate GL_2(F_3)
        for g in group_generators(2, p) + (((p - 1, 0), (0, 1)),):
            images = matrix_images(mat_mul(generic_matrix(2, p), g))
            assert ts.body_num.substitute(images) \
                == pow(fp_det(g, p), -ts.body_det_power, p) * ts.body_num


def test_tilde_highest_weight_examples():
    ts = tilde_section((1, -2), 2, 2)
    assert ts.det_valuation == 0 and ts.extends
    assert tilde_valuation((1, -1), 2, 2) < 0
    assert tilde_valuation((0, -1), 2, 2) > 0


def test_tilde_signs_rank3():
    # the boundary-sign formula for norms over GL_3(F_2), including a
    # weight on the boundary hyperplane
    for lam, want in [((0, 0, -1), 1), ((1, -1, -2), 0), ((1, 1, -2), -1)]:
        got = tilde_valuation(lam, 3, 2)
        assert (got > 0) - (got < 0) == want, (lam, got)
        assert valuation_sign_predict(lam, 3, 2) == want
    # the whole norm answers at rank 3, where a running product over all
    # 168 elements of GL_3(F_2) reaches 210,926 terms, past the term cap
    assert tilde_section((0, -1, -2), 3, 2).det_valuation == 96


def test_tilde_signs_at_p3():
    # boundary-valuation signs against the prediction at the odd prime
    for lam in itertools.product(range(2, -3, -1), repeat=2):
        if lam[0] < lam[1]:
            continue
        got = tilde_valuation(lam, 2, 3)
        want = valuation_sign_predict(lam, 2, 3)
        assert (got > 0) - (got < 0) == want, (lam, got, want)


def _levi_weyl_sign(lam, n, p):
    """The sign by the sum over all of W_L = S_n: minus the sign of
    sum_w p^{length(w)} <w lam, beta^vee>, where <w lam, e_n> is the
    coordinate of lam at w^{-1}(n) and the length is the inversion count."""
    total = 0
    for w in itertools.permutations(range(n)):
        length = sum(a > b for a, b in itertools.combinations(w, 2))
        total += p ** length * lam[w.index(n - 1)]
    return (total < 0) - (total > 0)


def test_valuation_sign_predict_matches_the_levi_weyl_sum():
    # half the weights lie on the boundary hyperplane of the functional
    # (p^{n-1}, ..., p, 1), where both signs must be 0
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        for p in (2, 3, 5, 7):
            for k in range(60):
                lam = [rng.randint(-8, 8) for _ in range(n)]
                if k % 2:
                    lam[-1] = -sum(p ** (n - 1 - i) * a
                                   for i, a in enumerate(lam[:-1]))
                want = _levi_weyl_sign(lam, n, p)
                assert valuation_sign_predict(lam, n, p) == want, (lam, p)
                if k % 2:
                    assert want == 0, (lam, p)


def test_valuation_sign_predict():
    assert valuation_sign_predict((1, -2), 2, 2) == 0
    assert valuation_sign_predict((0, -1), 2, 2) == 1
    assert valuation_sign_predict((1, -1), 2, 2) == -1
    assert valuation_sign_predict((1, 1, -6), 3, 2) == 0
    for p in (0, 1, 4):
        with pytest.raises(ValueError, match="prime"):
            valuation_sign_predict((1, 0), 2, p)


def test_section_names_complete():
    assert set(section_names(3)) >= {
        "delta1", "delta2", "delta3", "hasse",
        "epsilonsp6", "f1sp6", "f2sp6", "thetasp6", "rhosp6", "tausp6"}


def test_section_product_needs_matching_n_and_p():
    with pytest.raises(ValueError):
        catalog_section("delta1", 2, 2) * catalog_section("delta1", 2, 3)
    with pytest.raises(ValueError):
        catalog_section("delta1", 2, 2) * catalog_section("delta1", 3, 2)


def test_rzip_needs_rank_two():
    with pytest.raises(RankMismatchError):
        rzip_sp4_graded_dimension((0, 0, 0), 2)
    with pytest.raises(RankMismatchError):
        rzip_sp4_graded_dimension((0,), 3)


@pytest.mark.parametrize("p", [0, 1, 4, -2])
def test_rzip_rejects_a_non_prime_p(p):
    # p = 0 and 1 used to divide by zero, and p = 4 to answer 0
    with pytest.raises(ValueError, match="prime"):
        rzip_sp4_graded_dimension((0, 0), p)


def test_check_equivariance_rejects_a_body_over_another_field():
    # Delta_1 over F_3 used to come back as a section at p = 2 with the
    # weight (1, -3) that it has at p = 3
    with pytest.raises(ValueError, match="over F_3, not F_2"):
        check_equivariance(delta_minor(2, 3, 1), None, 2, 2)


def test_check_equivariance_rejects_entries_outside_the_matrix():
    # a_{3,1} has no weight for n = 2; weight_of used to raise IndexError
    with pytest.raises(ValueError, match="2 x 2"):
        check_equivariance(a_var(2, 3, 1), None, 2, 2)
    _, gamma = gamma_matrix(3, 2)
    with pytest.raises(ValueError, match="2 x 2"):
        check_equivariance(gamma[0][0][0], None, 2, 2)


@pytest.mark.parametrize("n, p", [(2, 4), (2, 1), (2, 0), (2, -3), (2, 9),
                                  (0, 2), (-1, 2)])
def test_entry_points_reject_bad_n_and_p(n, p):
    lam = (0,) * max(n, 0)
    with pytest.raises(ValueError):
        h0_dimension(lam, n, p)
    with pytest.raises(ValueError):
        gamma_matrix(n, p)
    with pytest.raises(ValueError):
        build_module(lam, n, p)
    with pytest.raises(ValueError):
        tilde_valuation(lam, n, p)
    with pytest.raises(ValueError):
        catalog_section("delta1", n, p)
    with pytest.raises(ValueError):
        catalog_section("alphasp4", None if n == 2 else n, p)
    with pytest.raises(ValueError):
        check_equivariance(a_var(2, 1, 2), None, n, p)
    if n < 1:
        # the names do not depend on p; they used to list 'hasse' here
        with pytest.raises(ValueError, match="matrix size"):
            section_names(n)


def test_h0_exponent_past_the_limit_is_a_guard_error():
    # one monomial a_{1,1}^(2^32): refused, never wrapped to a small one
    with pytest.raises(GuardExceededError, match="4294967296"):
        h0_dimension((-2 ** 32,), 1, 2)
    assert h0_dimension((-7,), 1, 2) == 1


def test_h0_image_exponents_past_the_limit_are_a_guard_error():
    # a12^(2^30) is the only monomial of its weight, but the images of
    # degree-2^30 monomials reach t^(3 * 2^30), past the packed limit
    with pytest.raises(GuardExceededError, match="1073741824"):
        h0_dimension((2 ** 30, -2 ** 31), 2, 2)
    assert h0_dimension((2 ** 20, -2 ** 21), 2, 2) == 1


def _decoded_polynomial(p, n, key, terms, t_bits, a_bits):
    # each row key + step unpacked into t and the entry fields; the t field
    # must be the term's t-degree
    out = FpPolynomial.zero(p)
    for deg, c, step in terms:
        row = key + step
        assert row & (1 << t_bits) - 1 == deg
        fields = [(("t",), deg)] + [
            (("a", i, j),
             row >> _offset(n, (i, j), t_bits, a_bits) & (1 << a_bits) - 1)
            for i, j in itertools.product(range(1, n + 1), repeat=2)]
        out = out + FpPolynomial.monomial(p, [f for f in fields if f[1]], c)
    return out


def test_h0_image_tables_match_the_substitution():
    # every packed table the oracle reads moves the key of a_ij^e onto the
    # whole t-expansion of that power under 1 + t E_{k,k-1}, and its one
    # t^0 term is that power; e runs past p^2, so two- and three-digit
    # exponents and a zero middle digit (e = p^2) occur
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            for k in range(2, n + 1):
                sub = Substitution(p, _generator_images(n, p, k, k - 1))
                for (i, j), e, (t_bits, a_bits) in itertools.product(
                        itertools.product(range(1, n + 1), repeat=2),
                        range(p * p + 2), [(8, 6), (12, 9)]):
                    terms, mask, by_bit = _packed_table(
                        p, n, k, (i, j), e, t_bits, a_bits)
                    key = e << _offset(n, (i, j), t_bits, a_bits)
                    where = (p, n, k, i, j, e, t_bits)
                    assert _decoded_polynomial(p, n, key, terms, t_bits,
                                               a_bits) \
                        == sub(a_var(p, i, j) ** e), where
                    assert [term for term in terms if term[0] == 0] \
                        == [(0, 1, 0)], where
                    assert all(0 < c < p for _, c, _ in terms), where
                    assert len({step for _, _, step in terms}) \
                        == len(terms), where
                    assert mask == sum({1 << deg for deg, _, _ in terms}), \
                        where
                    assert sorted((bit, c, step)
                                  for bit, group in by_bit.items()
                                  for c, step in group) \
                        == sorted((1 << deg, c, step)
                                  for deg, c, step in terms), where


@pytest.mark.parametrize("n, p, low, high", [
    (3, 2, -4, 2), (3, 3, -4, 2), (2, 2, -10, 10), (2, 3, -10, 10),
    (2, 5, -10, 10), (2, 7, -10, 10), (4, 2, -2, 1)])
def test_h0_matches_the_substitution_reference(n, p, low, high):
    # the oracle reads the t^(p^i) rows off coefficient tables; the
    # reference substitutes into every monomial and keeps those rows
    positive = 0
    for lam in _dominant_box(n, low, high):
        expect = h0_by_substitution(lam, n, p)
        assert h0_dimension(lam, n, p) == expect, lam
        positive += expect > 0
    assert positive > 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 36), st.integers(-40, 20))
def test_h0_matches_rank2_ring_beyond_criterion_box(p, degree, a):
    # criterion 1 checks |lam_i| <= 10; here the monomial degree runs to
    # 36, so lam_2 reaches -112, and every oracle call stays far below the
    # monomial cap
    lam = (a, degree * (1 - p) - a)
    assume(lam[0] >= lam[1] and max(map(abs, lam)) > 10)
    assert h0_dimension(lam, 2, p) == rzip_sp4_graded_dimension(lam, p)


# ---------------------------------------------------------------------------
# unipotent invariance: the oracle's columns against the substitution


def _verdict(body, weight, n, p):
    """check_equivariance's (generator, message) of a moving body, or None."""
    try:
        check_equivariance(body, weight, n, p)
    except NotUnipotentInvariantError as exc:
        return exc.generator, str(exc)
    return None


def _reference_verdict(body, n, p):
    defect = defect_by_substitution(body, n, p)
    if defect is None:
        return None
    k, degree = defect
    error = NotUnipotentInvariantError((k, k - 1),
                                       "offending t-degree %d" % degree)
    return error.generator, str(error)


def _verified_bodies():
    """(n, p, body, weight) of every catalog section at n = 2, 3, 4 and of
    the numerator of every nonzero entry (r, s) of the reduction matrix
    at n = 3 and 4, whose weight is e_r - p e_s plus that of the minors
    in the denominator."""
    for n in (2, 3, 4):
        for p in (2, 3, 5, 7):
            for name in section_names(n):
                s = catalog_section(name, n, p)
                yield n, p, s.body, s.weight
    for n, primes in ((3, (2, 3, 5, 7)), (4, (2, 3, 5))):
        for p in primes:
            _, gamma = gamma_matrix(n, p)
            for r, row in enumerate(gamma, start=1):
                for s, (num, exps) in enumerate(row, start=1):
                    if num.is_zero():
                        continue
                    weight = Weight(int(t == r) - p * int(t == s)
                                    for t in range(1, n + 1))
                    for i, e in enumerate(exps, start=1):
                        weight = weight + e * schubert_weight(n, p, i)
                    yield n, p, num, weight


def _entries(n):
    return [("a", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def _bumps(rng, n, p, body, count):
    """``count`` copies of body with one coefficient raised: a monomial
    of its own or another of its weight."""
    monomials = [mono for mono, _ in body.sorted_terms()]
    try:
        monomials += [tuple(zip(_entries(n), exps)) for exps in
                      enumerate_weight_monomials(weight_of(body, n), n, p,
                                                 cap=500)]
    except GuardExceededError:
        pass
    for _ in range(count):
        bump = FpPolynomial.monomial(p, rng.choice(monomials),
                                     rng.randrange(1, p))
        if not (body + bump).is_zero():
            yield body + bump


def _is_power_of(q, p):
    while q % p == 0:
        q //= p
    return q == 1


def test_equivariance_matches_the_substitution_reference():
    # the same verdict, generator and t-degree from the oracle's t^(p^i)
    # columns and from the whole t-polynomial of the image
    rng = random.Random(14)
    verified = moved = 0
    for n, p, body, weight in _verified_bodies():
        assert _verdict(body, weight, n, p) is None \
            and _reference_verdict(body, n, p) is None, (n, p, body)
        verified += 1
        for bumped in _bumps(rng, n, p, body, 3):
            got = _verdict(bumped, weight, n, p)
            assert got == _reference_verdict(bumped, n, p), (n, p, bumped)
            if got is not None:
                moved += 1
                degree = int(got[1].rsplit(" ", 1)[1])
                assert _is_power_of(degree, p), got
    assert verified == 130 and moved > 300


def test_unipotent_defect_of_mixed_degrees():
    # unipotent_defect sizes its key fields by the largest degree present,
    # so a polynomial of mixed degree gets the substitution's answer
    rng = random.Random(15)
    cases = 0
    for n, p, body, _ in _verified_bodies():
        extra = {entry: rng.randrange(3) for entry in
                 rng.sample(_entries(n), 2)}
        mixed = body + FpPolynomial.monomial(p, extra.items(),
                                            rng.randrange(1, p))
        terms = {}
        for mono, c in mixed.sorted_terms():
            exps = dict(mono)
            terms[tuple(exps.get(e, 0) for e in _entries(n))] = c
        assert unipotent_defect(terms, n, p) \
            == defect_by_substitution(mixed, n, p), (n, p, mixed)
        cases += 1
    assert cases == 130
