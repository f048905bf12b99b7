import itertools
import math

import pytest

from zipcones.catalog import (
    catalog_cone,
    catalog_names,
    cone_GS,
    cone_hw,
    cone_muord_saturated,
    cone_pol,
    cone_schubert,
    cone_schubert_saturated,
    cone_sigma,
    cone_XplusI,
    cone_zip_sp4,
    cone_zip_sp4_saturated,
    cone_zip_sp6_saturated,
    eta_weight,
    hodge_character,
    schubert_weight,
    sigma1,
    sigma1prime,
)
from zipcones.cones import (
    Weight,
    cone_contains_saturated,
    cones_equal_saturated,
    extreme_rays,
    halfspaces_of,
    monoid_membership,
    saturated_membership,
)
from zipcones.rootdata import SymplecticRootDatum
from zipcones.weights import _fundamental, hw_functional


def box_points(n, lo, hi):
    return itertools.product(*[range(lo, hi + 1)] * n)


def test_gs_halfspaces_reduce_to_chain():
    gs = cone_GS(2)
    assert gs.halfspaces.contains((-1, -1))
    assert gs.halfspaces.contains((0, 0))
    assert not gs.halfspaces.contains((1, -2))
    for pt in box_points(3, -2, 2):
        chain = 0 >= pt[0] >= pt[1] >= pt[2]
        assert cone_GS(3).halfspaces.contains(pt) == chain


def test_gs_rows_follow_the_positive_root_walk():
    # reference: pairings >= 0 on the Levi coroots (coordinate sum zero),
    # <= 0 on the others, in the order of the root datum's positive roots
    for n in range(1, 7):
        d = SymplecticRootDatum(n)
        levi, rest = [], []
        for root, coroot in zip(d.positive_roots, d.positive_coroots):
            if sum(root) == 0:
                levi.append(tuple(coroot))
            else:
                rest.append(tuple(-c for c in coroot))
        assert cone_GS(n).halfspaces.inequalities == tuple(levi + rest), n


def test_gs_presentations_agree():
    for n in (2, 3):
        gs = cone_GS(n)
        assert cones_equal_saturated(gs.generated, gs.halfspaces)


def test_schubert_generators():
    c = cone_schubert(2, 2)
    assert set(c.generated.generators) == {Weight((1, -2)), Weight((-1, -1))}
    c3 = cone_schubert_saturated(3, 2)
    assert Weight((1, -1, -2)) in c3.generated.generators  # S_2 at p=2
    assert schubert_weight(3, 2, 2) == Weight((1, -1, -2))


def test_schubert_weight_refuses_an_index_outside_0_to_n():
    # at n = 2 it used to return the rank-3 weights (-1, -1, -1) for
    # i = 3 and (0, 0, 0) for i = -1
    assert schubert_weight(2, 2, 0) == Weight((0, 0))
    assert schubert_weight(2, 2, 2) == Weight((-1, -1))
    for i in (-1, 3):
        with pytest.raises(ValueError):
            schubert_weight(2, 2, i)
        with pytest.raises(ValueError):
            _fundamental(2, i)


def test_schubert_generators_are_fundamental_minus_p_reversal():
    # reference: lam - p * (coordinate reversal of lam) on the fundamental
    # weights, for the monoid and for its saturation
    for n in range(1, 5):
        for p in (2, 3, 5):
            expect = []
            for i in range(1, n + 1):
                lam = _fundamental(n, i)
                expect.append(tuple(a - p * b for a, b in zip(lam, lam[::-1])))
            for cone in (cone_schubert(n, p), cone_schubert_saturated(n, p)):
                assert cone.generated.generators == tuple(expect), (n, p)


def test_schubert_saturated_presentations_agree():
    for n, p in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        c = cone_schubert_saturated(n, p)
        assert cones_equal_saturated(c.generated, c.halfspaces)


def test_hodge_character_in_saturated_schubert():
    for n, p in [(2, 2), (3, 2), (3, 3)]:
        c = cone_schubert_saturated(n, p)
        assert c.halfspaces.contains(hodge_character(n, p))


def test_hw_cone_sp6_etas():
    assert eta_weight(3, 2, 1) == Weight((3, -4, -4))
    assert eta_weight(3, 2, 2) == Weight((1, 1, -6))
    hw = cone_hw(3, 2)
    # S_2 on the boundary: functional vanishes
    f = hw_functional(3, 2)
    assert f.dot(schubert_weight(3, 2, 2)) == 0
    assert hw.halfspaces.contains(schubert_weight(3, 2, 2))
    # S_1 strictly outside
    assert f.dot(schubert_weight(3, 2, 1)) == 2
    assert not hw.halfspaces.contains(schubert_weight(3, 2, 1))


def test_hw_functional_sp2n_form():
    # brute force over all of W_L = S_n: sum_w p^{inv(w)} e_{w(n)} is the
    # functional times the Poincare polynomial of W_K = S_{n-1} at p
    for n in range(1, 6):
        for p in (2, 3, 5, 7):
            total = [0] * n
            for w in itertools.permutations(range(n)):
                inv = sum(a > b for a, b in itertools.combinations(w, 2))
                total[w[n - 1]] += p ** inv
            poincare = math.prod(sum(p ** j for j in range(k))
                                 for k in range(1, n))
            f = hw_functional(n, p)
            assert Weight(total) == poincare * f, (n, p)


def test_hw_presentations_agree():
    for n, p in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        hw = cone_hw(n, p)
        assert cones_equal_saturated(hw.generated, hw.halfspaces)


def test_etas_on_boundary_hyperplane():
    for n, p in [(3, 2), (3, 3), (4, 2), (4, 3)]:
        f = hw_functional(n, p)
        for i in range(1, n):
            assert f.dot(eta_weight(n, p, i)) == 0


def test_pol_extreme_rays():
    c = cone_pol(2, 2)
    assert extreme_rays(halfspaces_of(c.generated)) == [(-2, 1), (1, -2)]
    assert not saturated_membership(c.generated, (1, 0))


def test_sigma1prime_cone_equals_zip_sp6():
    for p in (2, 3):
        csig = cone_sigma(sigma1prime(3), 3, p)
        xpi = cone_XplusI(3)
        zip6 = cone_zip_sp6_saturated(p)
        # the intersection of the monomial-support cone with the dominant
        # chamber is the saturated rank-3 cone
        inter = [Weight(pt) for pt in box_points(3, -8, 8)
                 if saturated_membership(csig.generated, pt)
                 and xpi.halfspaces.contains(pt)]
        for pt in inter:
            assert zip6.halfspaces.contains(pt)
        for g in zip6.generated.generators:
            assert saturated_membership(csig.generated, g)
            assert xpi.halfspaces.contains(g)


def test_sigma_sets():
    assert (1, 3) in sigma1(3) and (1, 1) in sigma1(3)
    assert (1, 1) not in sigma1prime(3) and (1, 3) in sigma1prime(3)
    assert sigma1prime(3) < sigma1(3)


def test_zip_sp4_monoid_generators():
    c = cone_zip_sp4(2)
    assert set(c.generated.generators) == {
        Weight((1, -2)), Weight((-1, -1)), Weight((0, -2))}
    assert monoid_membership(c.generated, (1, -2)) is not None


def test_zip_sp4_saturated_halfspaces():
    for p in (2, 3, 5):
        c = cone_zip_sp4_saturated(p)
        assert set(c.halfspaces.inequalities) == {(1, -1), (-p, -1)}
        assert cones_equal_saturated(c.generated, c.halfspaces)


def test_zip_sp6_presentations_agree():
    for p in (2, 3):
        c = cone_zip_sp6_saturated(p)
        assert cones_equal_saturated(c.generated, c.halfspaces)


def test_inclusion_chain_boxes():
    # GS inside HW inside the saturated zip cone, on a box
    for n, p, zipc in [(2, 2, cone_zip_sp4_saturated(2)),
                       (2, 3, cone_zip_sp4_saturated(3)),
                       (3, 2, cone_zip_sp6_saturated(2)),
                       (3, 3, cone_zip_sp6_saturated(3))]:
        gs, hw = cone_GS(n), cone_hw(n, p)
        for pt in box_points(n, -3, 3):
            in_gs = gs.halfspaces.contains(pt)
            in_hw = hw.halfspaces.contains(pt)
            in_zip = zipc.halfspaces.contains(pt)
            assert (not in_gs) or in_hw
            assert (not in_hw) or in_zip


def test_schubert_inside_zip():
    for p, zipc in [(2, cone_zip_sp4_saturated(2)), (3, cone_zip_sp4_saturated(3))]:
        sbt = cone_schubert_saturated(2, p)
        assert cone_contains_saturated(zipc.generated, sbt.generated)
    for p in (2, 3):
        sbt = cone_schubert_saturated(3, p)
        assert cone_contains_saturated(cone_zip_sp6_saturated(p).generated,
                                       sbt.generated)


def test_zip_inside_sigma1prime_cap_dominant():
    for p in (2, 3):
        zipc = cone_zip_sp6_saturated(p)
        csig = cone_sigma(sigma1prime(3), 3, p)
        xpi = cone_XplusI(3)
        for g in zipc.generated.generators:
            assert saturated_membership(csig.generated, g)
            assert xpi.halfspaces.contains(g)


def test_muord_saturated_is_dominant_chamber():
    c = cone_muord_saturated(3)
    assert cones_equal_saturated(c.generated, c.halfspaces)
    assert c.halfspaces.contains((5, 5, 5)) and c.halfspaces.contains((-1, -2, -3))
    assert not c.halfspaces.contains((0, 1, 0))


_FIXED_RANK = {"zip-sp4": 2, "zip-sp4-sat": 2, "zip-sp6-sat": 3}


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_cone_rejects_a_bad_n_or_p(name):
    n = _FIXED_RANK.get(name, 2)
    assert catalog_cone(name, n, 2).rank == n
    for p in (4, 1, 0, -2):
        with pytest.raises(ValueError):
            catalog_cone(name, n, p)
    if name not in _FIXED_RANK:
        for bad_n in (0, -1):
            with pytest.raises(ValueError):
                catalog_cone(name, bad_n, 2)
