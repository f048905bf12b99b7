import itertools
import math
import random

import fm_reference
import pytest
import subset_rays
from fm_reference import matrix_rank, nonneg_combination
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from zipcones.catalog import catalog_cone
import zipcones.cones as cones
from zipcones.cones import (
    GeneratedCone,
    HalfspaceSystem,
    Weight,
    cones_equal_saturated,
    enumerate_lattice_points,
    extreme_rays,
    generators_of,
    halfspaces_of,
    lineality_space,
    monoid_membership,
    saturated_membership,
)
from zipcones.errors import (
    GuardExceededError,
    NotPointedError,
    RankMismatchError,
)

SP4_P2_MONOID = GeneratedCone(2, [(1, -2), (-1, -1), (0, -2)])
SP4_P2_SAT = GeneratedCone(2, [(1, -2), (-1, -1)])


def test_weight_arithmetic():
    a = Weight((1, -2))
    b = Weight((0, 3))
    assert a + b == Weight((1, 1))
    assert a - b == Weight((1, -5))
    assert 2 * a == Weight((2, -4))
    assert -a == Weight((-1, 2))
    assert a.dot((3, 1)) == 1
    with pytest.raises(RankMismatchError):
        a + Weight((1, 2, 3))


def test_weight_refuses_non_integer_coordinates():
    assert Weight((1.0, Fraction(-4, 2))) == Weight((1, -2))
    for coords in [(0.5, -1.9), (Fraction(1, 2), -1), (0, 2.5)]:
        with pytest.raises(ValueError):
            Weight(coords)
    with pytest.raises(ValueError):
        HalfspaceSystem(2, [(1, -1)]).contains((0.5, 0.7))
    with pytest.raises(ValueError):
        monoid_membership(SP4_P2_MONOID, (Fraction(1, 2), -1))


def test_halfspace_rows_are_integer():
    # rows are divided by their gcd; a rational row is refused, as a
    # Weight is, not scaled to integers
    assert HalfspaceSystem(2, [(2, -4), (-3, 0)]).inequalities == (
        (1, -2), (-1, 0))
    assert HalfspaceSystem(2, [(2.0, Fraction(6, 3))]).inequalities == (
        (1, 1),)
    # so h, 2h and h again are one row, kept where h first stood
    assert HalfspaceSystem(2, [(1, -2), (0, 1), (2, -4), (1, -2)]
                           ).inequalities == ((1, -2), (0, 1))
    for row in [(Fraction(1, 2), -1), (0.5, 1), (1, 2.5)]:
        with pytest.raises(ValueError):
            HalfspaceSystem(2, [row])


def test_zero_halfspace_row_is_refused():
    with pytest.raises(ValueError, match="zero inequality row"):
        HalfspaceSystem(3, [(0, 0, 0)])


def test_generated_cone_dedupes_and_drops_zero():
    c = GeneratedCone(2, [(1, 0), (1, 0), (0, 0), (2, 1)])
    assert c.generators == (Weight((1, 0)), Weight((2, 1)))
    # each generator stays where it first occurs; a Weight and a tuple
    # with the same entries are one generator
    c = GeneratedCone(2, [(1, 0), (0, 1), Weight((2, 1)), (0, 0), (1, 0),
                          (2, 1), (0, 1)])
    assert c.generators == ((1, 0), (0, 1), (2, 1))
    assert all(type(g) is Weight for g in c.generators)


def test_monoid_membership_sp4_generator():
    assert monoid_membership(SP4_P2_MONOID, (1, -2)) == [1, 0, 0]


def test_monoid_membership_zero_is_member():
    assert monoid_membership(SP4_P2_MONOID, (0, 0)) == [0, 0, 0]


def test_monoid_membership_sp4_nonmember():
    # exhaustive: all generators have negative coordinate sum, so the
    # search over total degree is complete
    assert monoid_membership(SP4_P2_MONOID, (1, -1)) is None


def test_monoid_membership_rank_mismatch():
    with pytest.raises(RankMismatchError):
        monoid_membership(SP4_P2_MONOID, (1, 2, 3))


def test_monoid_membership_independent_generators():
    c = GeneratedCone(2, [(2, 0), (0, 3)])
    assert monoid_membership(c, (4, 3)) == [2, 1]
    assert monoid_membership(c, (1, 0)) is None
    assert monoid_membership(c, (2, -3)) is None


def test_monoid_membership_refuses_a_cone_with_a_line():
    # (1,0) and (-1,0) span the lineality space: the facet sum is zero on
    # them, so nothing caps their coefficients, and the cone is refused at
    # every point, a facet-separated one such as (0, -1) included
    c = GeneratedCone(2, [(1, 0), (-1, 0), (0, 1)])
    for lam in [(7, 7), (-7, 7), (0, 0), (0, -1)]:
        with pytest.raises(NotPointedError):
            monoid_membership(c, lam)
    # a line alone, and the whole plane, which has no facet at all
    for rank, gens in [(1, [(1,), (-1,)]), (2, [(1, 0), (0, 1), (-1, -1)])]:
        with pytest.raises(NotPointedError):
            monoid_membership(GeneratedCone(rank, gens), (0,) * rank)


def test_monoid_membership_decides_on_a_pointed_cone():
    # the facet rows (0,1) and (1,-1) sum to h = (1, 0); (1,0) is searched
    # and (1,1), (2,1) are the solved tail.  (70, 0) = 70 (1,0) needs the
    # searched coefficient at exactly its cap <h, lam> / <h, (1,0)> = 70,
    # and (70, 70) = 70 (1,1) is the only way to write that point
    c = GeneratedCone(2, [(1, 0), (1, 1), (2, 1)])
    assert monoid_membership(c, (70, 0)) == [70, 0, 0]
    assert monoid_membership(c, (70, 70)) == [0, 70, 0]
    assert monoid_membership(c, (7, 7)) == [0, 7, 0]


def test_monoid_membership_separated_by_a_facet():
    # the same generators: a facet separates these points, so the search
    # never runs and they are not members
    c = GeneratedCone(2, [(1, 0), (1, 1), (2, 1)])
    for lam in [(-1, 0), (-1, 5), (0, 1), (1, -1)]:
        assert monoid_membership(c, lam) is None, lam


@pytest.mark.parametrize("name, n, p, lo, hi", [
    ("schubert", 2, 2, -6, 3), ("schubert", 2, 3, -6, 3),
    ("schubert", 3, 2, -6, 3), ("schubert", 3, 3, -6, 3),
    ("schubert", 4, 2, -4, 2),
    ("zip-sp4", 2, 2, -6, 3), ("zip-sp4", 2, 3, -6, 3),
])
def test_monoid_membership_matches_the_rref_reference(name, n, p, lo, hi):
    # the one search against the reference's reduced row echelon form and
    # full search, coefficients included, on every point of a box
    cone = catalog_cone(name, n, p).generated
    for lam in itertools.product(range(lo, hi + 1), repeat=n):
        assert monoid_membership(cone, lam) \
            == fm_reference.monoid_membership(cone, lam), lam


def test_monoid_membership_without_generators():
    c = GeneratedCone(2, [])
    assert monoid_membership(c, (0, 0)) == []
    assert monoid_membership(c, (1, 0)) is None


def test_monoid_membership_tail_below_the_rank():
    # the tail is (2,0,0) alone; with no (0,1,0) taken its ray reads 1
    # off (2,1,0), and only the exact sum rules that out
    c = GeneratedCone(3, [(0, 1, 0), (1, 0, 0), (2, 0, 0)])
    assert monoid_membership(c, (2, 1, 0)) == [1, 0, 1]


def test_monoid_membership_large_weights_at_p3():
    # one coefficient of (1, -3) is searched, the rest is solved: a
    # non-member at (0, -3001) is decided without a quadratic search
    cone = catalog_cone("zip-sp4", 2, 3).generated
    for lam in [(0, -301), (0, -1001), (0, -3001)]:
        assert monoid_membership(cone, lam) is None, lam
    assert monoid_membership(cone, (0, -3000)) == [0, 0, 500]


def test_monoid_membership_matches_the_reference_on_random_cones():
    # rank 1-3, up to 5 generators, lower-dimensional cones included.  A
    # cone contains a line iff the negative of some generator lies in it;
    # such a cone is refused at every point, and the pointed ones agree
    # with the reference
    rng = random.Random(11)
    lines = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(0, 5))]
        cone = GeneratedCone(n, gens)
        vecs = [list(g) for g in cone.generators]
        line = any(nonneg_combination(vecs, [-x for x in g]) is not None
                   for g in vecs)
        lines += line
        for _ in range(10):
            lam = tuple(rng.randint(-6, 6) for _ in range(n))
            if line:
                with pytest.raises(NotPointedError):
                    monoid_membership(cone, lam)
            else:
                assert monoid_membership(cone, lam) \
                    == fm_reference.monoid_membership(cone, lam), (cone, lam)
    assert lines == 84


def test_saturated_membership_sp4():
    assert saturated_membership(SP4_P2_SAT, (1, -2)) is True
    assert saturated_membership(SP4_P2_SAT, (0, -1)) is True
    assert saturated_membership(SP4_P2_SAT, (1, 0)) is False


def test_halfspaces_of_halfline():
    c = GeneratedCone(1, [(1,)])
    hs = halfspaces_of(c)
    assert hs.inequalities == ((1,),)


def test_halfspaces_of_sp4():
    hs = halfspaces_of(SP4_P2_SAT)
    assert set(hs.inequalities) == {(1, -1), (-2, -1)}


def test_halfspaces_of_full_space_is_empty_system():
    c = GeneratedCone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    hs = halfspaces_of(c)
    assert hs.inequalities == ()
    assert hs.contains((5, -7))


def test_halfspaces_rank_guard():
    # the double description has no rank limit (its guard counts rays):
    # the rank-9 orthant dualises to its 9 facets
    units = [tuple(int(i == j) for i in range(9)) for j in range(9)]
    hs = halfspaces_of(GeneratedCone(9, units))
    assert hs.inequalities == tuple(sorted(units))


def test_double_description_with_duplicate_and_redundant_rows():
    # a repeated, a scaled and a summed row add tight rows to the masks, so
    # the count before the combinatorial test passes pairs that are not
    # adjacent; the rays must still be those of the subset enumeration
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(2, 4)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(n, n + 3))]
        a, b = rng.choice(rows), rng.choice(rows)
        rows += [a, tuple(2 * x for x in b), tuple(x + y for x, y in zip(a, b))]
        rows = [r for r in rows if any(r)]
        rng.shuffle(rows)
        system = HalfspaceSystem(n, rows)
        rays, lin = cones.double_description(rows, n)
        ref_lin = subset_rays.lineality_space(system)
        assert len(lin) == len(ref_lin) == _span_rank(lin + ref_lin), rows
        if not ref_lin:
            assert rays == subset_rays.extreme_rays(system), rows


def test_double_description_ray_guard(monkeypatch):
    # the cone over a cube has 8 generators and 6 facets; dualising it
    # passes through more than 5 intermediate rays
    monkeypatch.setattr(cones, "DD_RAY_GUARD", 5)
    cube = GeneratedCone(4, [(1, a, b, c) for a in (-1, 1) for b in (-1, 1)
                             for c in (-1, 1)])
    with pytest.raises(GuardExceededError):
        halfspaces_of(cube)
    monkeypatch.setattr(cones, "DD_RAY_GUARD", 10 ** 4)
    assert len(halfspaces_of(cube).inequalities) == 6


def test_nonneg_combination_row_guard(monkeypatch):
    # the reference eliminator: three free coefficients need more than
    # 2 rows
    vectors = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
    assert nonneg_combination(vectors, (3, 3)) is not None
    monkeypatch.setattr(fm_reference, "DD_RAY_GUARD", 2)
    with pytest.raises(GuardExceededError):
        nonneg_combination(vectors, (3, 3))


def test_cones_equal_saturated_reflexive():
    c = GeneratedCone(1, [(1,)])
    assert cones_equal_saturated(c, c)


def test_cones_equal_saturated_sp4_both_presentations():
    hs = HalfspaceSystem(2, [(1, -1), (-2, -1)])
    assert cones_equal_saturated(SP4_P2_SAT, hs)
    assert cones_equal_saturated(SP4_P2_MONOID, hs)


def test_cones_equal_saturated_gs_vs_hw_strict():
    gs = HalfspaceSystem(2, [(-1, 0), (1, -1)])      # 0 >= a1 >= a2
    hw = HalfspaceSystem(2, [(1, -1), (-2, -1)])     # a1 >= a2, 2a1+a2 <= 0
    assert not cones_equal_saturated(gs, hw)
    assert hw.contains((1, -2)) and not gs.contains((1, -2))


def test_extreme_rays_roundtrip_sp4():
    hs = halfspaces_of(SP4_P2_SAT)
    rays = extreme_rays(hs)
    assert cones_equal_saturated(GeneratedCone(2, rays), SP4_P2_SAT)


def test_extreme_rays_not_pointed():
    hs = HalfspaceSystem(2, [(1, 0)])
    with pytest.raises(NotPointedError):
        extreme_rays(hs)
    gens = generators_of(hs)
    assert cones_equal_saturated(GeneratedCone(2, gens), hs)


def test_lineality_space():
    assert lineality_space(HalfspaceSystem(2, [(1, 0)])) == [(0, 1)]
    assert lineality_space(HalfspaceSystem(2, [(1, 0), (-1, 0), (0, 1)])) == []


def test_degenerate_cone_dualization():
    # a line plus a ray: the dual description must carry the implicit
    # equality and decide membership exactly
    c = GeneratedCone(3, [(1, 1, 0), (-1, -1, 0), (0, 0, -1)])
    hs = halfspaces_of(c)
    assert hs.contains((2, 2, 0)) and hs.contains((-3, -3, -5))
    assert not hs.contains((1, 0, 0)) and not hs.contains((0, 0, 1))
    gens = [list(g) for g in c.generators]
    for pt in [(1, 1, -1), (1, 2, -1), (0, 0, 0), (5, 5, 1)]:
        # independent route: direct rational feasibility, no dualization
        assert hs.contains(pt) == (nonneg_combination(gens, pt) is not None)


def test_minimal_generators():
    # the minimal generators of a pointed cone are its extreme rays
    c = GeneratedCone(2, [(1, 0), (0, 1), (1, 1)])
    assert extreme_rays(halfspaces_of(c)) == [(0, 1), (1, 0)]


def test_enumerate_lattice_points_halfline():
    hs = HalfspaceSystem(1, [(1,)])
    pts = enumerate_lattice_points(hs, [(-2, 2)])
    assert pts == [Weight((0,)), Weight((1,)), Weight((2,))]


def test_enumerate_lattice_points_gs():
    gs = HalfspaceSystem(2, [(-1, 0), (1, -1)])
    pts = enumerate_lattice_points(gs, [(-1, 1), (-1, 1)])
    assert set(pts) == {Weight((0, 0)), Weight((0, -1)), Weight((-1, -1))}


def test_enumerate_lattice_points_sp4_box():
    hs = HalfspaceSystem(2, [(1, -1), (-2, -1)])
    pts = enumerate_lattice_points(hs, [(-2, 2), (-2, 2)])
    expect = {(0, 0), (0, -1), (0, -2), (-1, -1), (-1, -2), (-2, -2), (1, -2)}
    assert set(map(tuple, pts)) == expect


def test_generators_pass_membership():
    for cone in (SP4_P2_MONOID, SP4_P2_SAT):
        for g in cone.generators:
            assert monoid_membership(cone, g) is not None
            assert saturated_membership(cone, g)


small_vec = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=60, deadline=None)
@given(st.lists(small_vec, min_size=1, max_size=4), small_vec, small_vec)
def test_membership_additivity(gens, u, v):
    cone = GeneratedCone(2, gens)
    cu = nonneg_combination([list(g) for g in cone.generators], list(u))
    cv = nonneg_combination([list(g) for g in cone.generators], list(v))
    if cu is not None and cv is not None:
        s = (u[0] + v[0], u[1] + v[1])
        assert saturated_membership(cone, s)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_vec, min_size=1, max_size=3), small_vec)
def test_saturated_iff_multiple_in_monoid(gens, lam):
    # restrict to pointed cones: every generator has a negative
    # coordinate sum
    gens = [g for g in gens if g[0] + g[1] < 0]
    if not gens:
        return
    cone = GeneratedCone(2, gens)
    cert = nonneg_combination([list(g) for g in cone.generators], list(lam))
    if cert is None:
        # no positive multiple can be in the monoid either
        for m in range(1, 4):
            assert monoid_membership(cone, (m * lam[0], m * lam[1])) is None
    else:
        m = 1
        for c in cert:
            m = m * c.denominator // math.gcd(m, c.denominator)
        got = monoid_membership(cone, (m * lam[0], m * lam[1]))
        assert got is not None


@st.composite
def generator_sets(draw):
    """Rank <= 4 generator sets, often lower-dimensional or with a line.

    The generators are small integer combinations of k <= n drawn vectors,
    so their span often has dimension below n; appending the negative of
    a generator puts a line into the cone.
    """
    n = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    k = draw(st.integers(1, n))
    basis = draw(st.lists(vec, min_size=k, max_size=k))
    coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                           min_size=1, max_size=5))
    gens = [tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(n))
            for cs in coeffs]
    if draw(st.booleans()):
        gens.append(tuple(-x for x in gens[0]))
    points = draw(st.lists(vec, min_size=3, max_size=3))
    return n, gens, points


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_halfspace_dual_agrees_with_direct_feasibility(case):
    # direct rational feasibility (nonneg_combination) is the reference
    n, gens, points = case
    cone = GeneratedCone(n, gens)
    hs = halfspaces_of(cone)
    rows = [list(h) for h in hs.inequalities]
    gens = [list(g) for g in cone.generators]
    for h in rows:
        assert all(sum(a * b for a, b in zip(h, g)) >= 0 for g in gens)
    for i, h in enumerate(rows):
        others = rows[:i] + rows[i + 1:]
        assert not others or nonneg_combination(others, h) is None
    # the generators lie on the boundary, their differences and the
    # negated sum often outside: points where a wrong facet would show
    total = [sum(g[i] for g in gens) for i in range(n)]
    diffs = [[a - b for a, b in zip(g, gens[0])] for g in gens[1:]]
    halves = [[a + b for a, b in zip(g, total)] for g in gens]
    for pt in (points + gens + diffs + halves
               + [total, [-x for x in total]]):
        assert hs.contains(pt) == (nonneg_combination(gens, pt) is not None)


def test_halfspaces_of_reaches_rank_4():
    # rank 5 and 6 facet counts; each cone dualises in milliseconds
    for n, facets in ((4, (14, 10, 10)), (5, (30, 24, 24)), (6, (62, 56, 56))):
        for name, count in zip(("pol", "sigma1", "sigma1p"), facets):
            gen = catalog_cone(name, n, 2).generated
            hs = halfspaces_of(gen)
            assert len(hs.inequalities) == count, (n, name)
            assert cones_equal_saturated(gen, hs)
            assert cones_equal_saturated(GeneratedCone(n, extreme_rays(hs)),
                                         gen)
    # at n = 6 and 7 a facet separates criterion 8's Sigma_1 witness
    for n in (6, 7):
        for p in (2, 3):
            sig = catalog_cone("sigma1", n, p).generated
            assert not saturated_membership(sig, [1, -p] + [0] * (n - 2))


@st.composite
def halfspace_systems(draw):
    """Rank <= 4 systems of up to 7 rows, often with a line or not
    full-dimensional (the rows of ``generator_sets``)."""
    n, gens, _ = draw(generator_sets())
    rows = [g for g in gens if any(g)]
    extra = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                          .filter(any), max_size=7 - len(rows)))
    return HalfspaceSystem(n, rows + [tuple(r) for r in extra])


def _span_rank(vectors):
    return matrix_rank([list(v) for v in vectors]) if vectors else 0


@settings(max_examples=150, deadline=None)
@given(halfspace_systems())
def test_extreme_rays_agree_with_subset_enumeration(system):
    # the (n-1)-subset enumeration of active sets is the reference
    lin, ref_lin = lineality_space(system), subset_rays.lineality_space(system)
    assert len(lin) == len(ref_lin) == _span_rank(lin + ref_lin)
    if ref_lin:
        with pytest.raises(NotPointedError):
            extreme_rays(system)
    else:
        assert extreme_rays(system) == subset_rays.extreme_rays(system)
