"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  All comparisons are exact (integer / symbolic); there are no
tolerances anywhere.
"""

import itertools
import json
import random
from pathlib import Path

from gamma_reference import displayed_gamma, entry_weight
from zipcones.catalog import (
    cone_GS,
    cone_hw,
    cone_pol,
    cone_sigma,
    cone_XplusI,
    sigma1,
    sigma1prime,
)
from zipcones.cones import (
    GeneratedCone,
    HalfspaceSystem,
    cone_contains_saturated,
    cones_equal_saturated,
    halfspaces_of,
    monoid_membership,
)
from zipcones.errors import GuardExceededError
from zipcones.modules import (
    build_module,
    group_order,
    invariants_finite_group,
    thminter_check,
    tilde_section,
    tilde_valuation,
    valuation_sign_predict,
)
from zipcones.oracle import h0_dimension
from zipcones.sections import (
    catalog_section,
    check_equivariance,
    clear_denominators,
    gamma_matrix,
    rzip_sp4_graded_dimension,
)
from zipcones.weights import Weight, eta_weight, hodge_character, schubert_weight


RECORDED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def _report(num, ok, detail):
    print("ACCEPTANCE %d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def _dominant_box(n, bound):
    for lam in itertools.product(range(bound, -bound - 1, -1), repeat=n):
        if all(lam[i] >= lam[i + 1] for i in range(n - 1)):
            yield Weight(lam)


def test_criterion_1_sp4_ring_theorem():
    checked = 0
    for p in (2, 3):
        for lam in _dominant_box(2, 10):
            lhs = h0_dimension(lam, 2, p)
            rhs = rzip_sp4_graded_dimension(lam, p)
            assert lhs == rhs, (p, lam, lhs, rhs)
            checked += 1
    _report(1, True, "oracle dim == graded dim at %d weights, p in {2,3}"
            % checked)


def test_criterion_2_sp4_saturated_cone():
    for p in (2, 3, 5):
        gens = GeneratedCone(2, [(1, -p), (-1, -1)])
        rows = HalfspaceSystem(2, [(1, -1), (-p, -1)])
        assert cones_equal_saturated(gens, rows), p
    _report(2, True, "generators match halfspaces for p in {2,3,5}")


def test_criterion_3_sp6_saturated_cone():
    for p in (2, 3):
        gens = GeneratedCone(3, [eta_weight(3, p, 1), eta_weight(3, p, 2),
                                 hodge_character(3, p),
                                 schubert_weight(3, p, 1)])
        rows = HalfspaceSystem(3, [(1, -1, 0), (0, 1, -1),
                                   (-p * p, -1, -p), (-p, -p * p, -1)])
        # dualize the generators by elimination and compare the row sets
        dual = halfspaces_of(gens)
        assert set(dual.inequalities) == set(rows.inequalities), p
        assert cones_equal_saturated(gens, rows), p
    _report(3, True, "elimination reproduces the three-inequality system, "
            "p in {2,3}")


def test_criterion_4_section_catalog():
    count = 0
    for p in (2, 3):
        for n in (2, 3):
            for i in range(1, n + 1):
                s = catalog_section("delta%d" % i, n, p)
                assert s.weight == schubert_weight(n, p, i)
                count += 1
            s = catalog_section("hasse", n, p)
            assert s.weight == hodge_character(n, p)
            count += 1
        s = catalog_section("alphasp4", 2, p)
        assert s.weight == Weight((0, -p * (p - 1)))
        s = catalog_section("epsilonsp6", 3, p)
        assert s.weight == Weight((1, 0, -p * p))
        assert catalog_section("f1sp6", 3, p).weight == eta_weight(3, p, 1)
        assert catalog_section("f2sp6", 3, p).weight == eta_weight(3, p, 2)
        count += 4
        for name in ("thetasp6", "rhosp6", "tausp6"):
            s = catalog_section(name, 3, p)   # exists by exact division
            check_equivariance(s.body, s.weight, 3, p)
            count += 1
    _report(4, True, "%d catalog sections verified with stated weights, "
            "p in {2,3}" % count)


def test_criterion_5_gamma_matrix():
    # the n = 2 and n = 3 displays, with the entries written out by hand
    # (the (2,2) entry sign is written out mod 2 in the source;
    # symbolically it is -Delta_2/Delta_1); every entry below the
    # anti-diagonal vanishes, every other has weight e_r - p e_s, and
    # denominator clearing gives a polynomial
    for p in (2, 3):
        for n in (2, 3):
            _, gamma = gamma_matrix(n, p)
            display = displayed_gamma(n, p)
            for r in range(1, n + 1):
                for s in range(1, n + 1):
                    entry = gamma[r - 1][s - 1]
                    if r + s > n + 1:
                        assert display[r - 1][s - 1] is None
                        assert entry[0].is_zero(), (n, p, r, s)
                        continue
                    assert entry == display[r - 1][s - 1], (n, p, r, s)
                    weight = [0] * n
                    weight[r - 1] += 1
                    weight[s - 1] -= p
                    assert entry_weight(entry, n) == Weight(weight), \
                        (n, p, r, s)
                    sec = clear_denominators(n, p, r, s)
                    assert not sec.body.is_zero()
    _report(5, True, "gamma matches the displayed matrices and clears "
            "denominators, n in {2,3}, p in {2,3}")


def test_criterion_6_thminter():
    total = 0
    for n, p, bound in ((2, 2, 4), (2, 3, 4), (3, 2, 3)):
        for lam in _dominant_box(n, bound):
            lhs, rhs, agree = thminter_check(lam, n, p)
            assert agree, (n, p, lam, lhs, rhs)
            total += 1
    _report(6, True, "oracle == representation-theoretic dimension at %d "
            "weights for (n,p) in {(2,2),(2,3),(3,2)}" % total)


def _recorded_h0_weights():
    """(lam, n, p) of every ``h0`` job recorded in the benchmark's
    expected outputs, which are only read."""
    for domains in json.loads(RECORDED.read_text())["workloads"].values():
        for jobs in domains.values():
            for job in jobs:
                verb, *argv = job["argv"]
                if verb == "h0":
                    opt = dict(zip(argv[::2], argv[1::2]))
                    yield (Weight(map(int, opt["--weight"].split(","))),
                           int(opt["--n"]), int(opt["--p"]))


def _seeded_box(n, p, low, high, count, seed):
    """``count`` L-dominant weights of [low, high]^n with a monomial degree
    -sum(lam) / (p - 1) that is a whole number >= 0, drawn with ``seed``."""
    box = [lam for lam in _dominant_box(n, max(-low, high))
           if low <= min(lam) and max(lam) <= high
           and sum(lam) <= 0 and sum(lam) % (p - 1) == 0]
    return random.Random(seed).sample(box, count)


def test_criterion_6_recorded_weights_and_seeded_boxes():
    # the two sides of the theorem at every recorded h0 weight (ranks 2
    # and 3) and on seeded boxes at p = 5 and p = 3, with the rank-2 ring
    # as a third side
    recorded = list(_recorded_h0_weights())
    assert {(n, p) for _, n, p in recorded} >= {(2, 2), (2, 3), (3, 2)}
    seeded = [(lam, n, p) for n, p, low, high, count in
              ((2, 5, -40, 8, 80), (3, 3, -9, 3, 40))
              for lam in _seeded_box(n, p, low, high, count, 28)]
    positive = 0
    for lam, n, p in recorded + seeded:
        lhs, rhs, agree = thminter_check(lam, n, p)
        assert agree, (n, p, lam, lhs, rhs)
        if n == 2:
            assert lhs == rzip_sp4_graded_dimension(lam, p), (p, lam)
        positive += lhs > 0
    _report(6, True, "oracle == representation-theoretic dimension at %d "
            "recorded and %d seeded weights, %d with sections"
            % (len(recorded), len(seeded), positive))


def test_criterion_7_valuation_signs():
    checked = 0
    for lam in _dominant_box(2, 3):
        ts = tilde_section(lam, 2, 2)
        got = (ts.det_valuation > 0) - (ts.det_valuation < 0)
        want = valuation_sign_predict(lam, 2, 2)
        assert got == want, (lam, ts.det_valuation, want)
        assert ts.extends == (2 * lam[0] + lam[1] <= 0), lam
        checked += 1
    # seeded L-dominant weights of [-2, 2]^3 and [-1, 1]^4, where a walk
    # of all of GL_n(F_p) was refused by its guard at (3, 3) and (4, 2)
    rng = random.Random(7)
    for n, p, bound, count in ((3, 2, 2, 8), (3, 3, 2, 8), (4, 2, 1, 6)):
        for lam in rng.sample(list(_dominant_box(n, bound)), count):
            got = tilde_valuation(lam, n, p)
            want = valuation_sign_predict(lam, n, p)
            assert (got > 0) - (got < 0) == want, (lam, n, p, got, want)
            checked += 1
    _report(7, True, "boundary-valuation signs match the prediction at %d "
            "weights (n=2, p=2; seeded at (3,2), (3,3), (4,2))" % checked)


def test_criterion_8_cone_inclusion_suite():
    stats = []
    # rank 2: boxes of criterion 1; the oracle middle set is scanned with
    # the multiplier bound p^2 - 1 (the saturation denominators divide
    # p + 1 and the monoid needs a further p - 1)
    for p in (2, 3):
        gs, hw = cone_GS(2), cone_hw(2, p)
        pol = cone_pol(2, p)
        sig = cone_sigma(sigma1prime(2), 2, p)
        xpi = cone_XplusI(2)
        halfspaces_of(pol.generated)
        halfspaces_of(sig.generated)
        hits = 0
        for lam in _dominant_box(2, 10):
            in_gs = gs.halfspaces.contains(lam)
            in_hw = hw.halfspaces.contains(lam)
            assert not in_gs or in_hw, lam
            members = [lam] if h0_dimension(lam, 2, p) > 0 else []
            if in_hw and not members:
                for m in range(2, p * p):
                    if h0_dimension(m * lam, 2, p) > 0:
                        members.append(m * lam)
                        break
                assert members, (p, lam)
            for mu in members:
                hits += 1
                assert halfspaces_of(pol.generated).contains(mu), (p, lam)
                assert xpi.halfspaces.contains(mu), (p, lam)
                assert halfspaces_of(sig.generated).contains(mu), (p, lam)
        stats.append("n=2 p=%d (%d middle hits)" % (p, hits))

    # rank 3: box of criterion 6; positivity of h0 at the multiple is
    # witnessed by an explicit verified section, with the oracle run
    # directly whenever the monomial enumeration fits the default cap
    p = 2
    gs, hw = cone_GS(3), cone_hw(3, p)
    pol3, sig3, xpi3 = cone_pol(3, p), cone_sigma(sigma1prime(3), 3, p), cone_XplusI(3)
    halfspaces_of(pol3.generated)
    halfspaces_of(sig3.generated)
    monoid = GeneratedCone(3, [eta_weight(3, p, 1), eta_weight(3, p, 2),
                               hodge_character(3, p), schubert_weight(3, p, 1)])
    factors = [catalog_section("f1sp6", 3, p), catalog_section("f2sp6", 3, p),
               catalog_section("hasse", 3, p), catalog_section("delta1", 3, p)]
    oracle_runs = witnessed = 0
    for lam in _dominant_box(3, 3):
        in_gs = gs.halfspaces.contains(lam)
        in_hw = hw.halfspaces.contains(lam)
        assert not in_gs or in_hw, lam
        if not in_hw:
            continue
        if lam == Weight((0, 0, 0)):
            continue
        cert = None
        for m in range(1, 65):
            cert = monoid_membership(monoid, m * lam)
            if cert is not None:
                break
        assert cert is not None, lam
        mu = m * lam
        # the product of the verified generator sections with the
        # certificate exponents is a nonzero section of weight mu (weights
        # add; the coordinate ring is a domain); expand the body only when
        # it stays small
        aligned = _aligned(monoid, factors, cert)
        weight = Weight((0, 0, 0))
        degree = 0
        for sec, c in zip(factors, aligned):
            weight = weight + c * sec.weight
            degree += c * sec.body.total_degree()
        assert weight == mu, lam
        if degree <= 40:
            witness = None
            for sec, c in zip(factors, aligned):
                piece = sec.power(c)
                witness = piece if witness is None else witness * piece
            assert witness.weight == mu and not witness.body.is_zero(), lam
        witnessed += 1
        try:
            dim = h0_dimension(mu, 3, p, monomial_cap=1000)
        except GuardExceededError:
            dim = None
        if dim is not None:
            assert dim > 0, (lam, m)
            oracle_runs += 1
        assert halfspaces_of(pol3.generated).contains(mu), lam
        assert xpi3.halfspaces.contains(mu), lam
        assert halfspaces_of(sig3.generated).contains(mu), lam
    stats.append("n=3 p=2 (%d witnessed, %d oracle-confirmed)"
                 % (witnessed, oracle_runs))

    # ranks 4 and 5: exact inclusions of the whole cones, each side
    # dualised by the double description
    for n in (4, 5):
        gs, xpi = cone_GS(n), cone_XplusI(n)
        for p in (2, 3):
            hw, pol = cone_hw(n, p), cone_pol(n, p)
            sig = cone_sigma(sigma1(n), n, p)
            sigp = cone_sigma(sigma1prime(n), n, p)
            assert cone_contains_saturated(hw.halfspaces, gs.halfspaces)
            assert cone_contains_saturated(xpi.halfspaces, hw.halfspaces)
            assert cone_contains_saturated(pol.generated, hw.halfspaces)
            assert cone_contains_saturated(sigp.generated, hw.halfspaces)
            assert cones_equal_saturated(sig.generated, sigp.generated)
            assert cone_contains_saturated(pol.generated, sig.generated)
            # from n = 3 on, Sigma_1 is a proper subcone of Pol: its facet
            # (-p^2, -1, -p, ..., -p) is p - p^2 < 0 on Pol's generator
            # e_1 - p e_2, which separates it from Sigma_1
            assert not cones_equal_saturated(pol.generated, sig.generated)
            witness = Weight([1, -p] + [0] * (n - 2))
            assert not halfspaces_of(sig.generated).contains(witness)
    stats.append("n=4,5 p=2,3 (GS <= HW <= XplusI, HW <= Sigma1' = Sigma1 "
                 "< Pol, exact)")
    _report(8, True, "; ".join(stats))


def _gen_index(monoid, weight):
    return list(monoid.generators).index(weight)


def _aligned(monoid, factors, cert):
    """Certificate coefficients reordered to the factor list."""
    return [cert[_gen_index(monoid, sec.weight)] for sec in factors]


def test_criterion_9_mu_ordinary_saturation():
    D = group_order(2, 2)
    assert D == 6
    checked = 0
    for lam in _dominant_box(2, 2):
        big = build_module(Weight([D * x for x in lam]), 2, 2)
        inv = invariants_finite_group(big)
        assert len(inv) > 0, lam
        # witnessed by the norm of a nonzero element of V(lam)
        ts = tilde_section(lam, 2, 2)
        assert not ts.body_num.is_zero()
        assert ts.weight == Weight([D * x for x in lam])
        checked += 1
    _report(9, True, "dim V(6*lam)^{GL_2(F_2)} > 0 at %d weights, with norm "
            "witnesses" % checked)
