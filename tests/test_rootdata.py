import pytest
from math import comb

from zipcones.cones import Weight
from zipcones.errors import TheoremViolationError
from zipcones.rootdata import (
    SymplecticRootDatum,
    gaussian_binomial,
    gaussian_binomial_coeffs,
)


def gaussian_binomial_product(n, i, p):
    """The Gaussian binomial by the explicit product formula (cross-check
    form of ``gaussian_binomial``)."""
    if i < 0 or i > n:
        raise ValueError("need 0 <= i <= n")
    if p < 2:
        raise ValueError("need p >= 2")
    num = 1
    for k in range(i + 1, n + 1):
        num *= p ** k - 1
    den = 1
    for k in range(1, n - i + 1):
        den *= p ** k - 1
    if num % den:
        raise TheoremViolationError(
            "Gaussian binomial product %d/%d is not an integer" % (num, den))
    return num // den


def binomial_check(n, i):
    """Formal evaluation of the Gaussian binomial at p -> 1."""
    return sum(gaussian_binomial_coeffs(n, i)) == comb(n, i)


def test_simple_roots_and_counts():
    d = SymplecticRootDatum(3)
    assert len(d.simple_roots) == 3
    assert d.simple_roots[d.beta_index] == Weight((0, 0, 2))
    assert d.simple_coroots[d.beta_index] == Weight((0, 0, 1))
    # n^2 positive roots for type C_n
    assert len(d.positive_roots) == 9


def test_pairing_examples():
    d2 = SymplecticRootDatum(2)
    assert d2.pairing((1, -2), d2.simple_coroots[d2.beta_index]) == -2
    d3 = SymplecticRootDatum(3)
    assert d3.pairing((1, 1, -6), d3.simple_coroots[d3.beta_index]) == -6
    assert d3.pairing((1, 0, -2), (-1, 1, 0)) == -1


def test_dominance_predicates():
    d2 = SymplecticRootDatum(2)
    assert d2.is_L_dominant((1, -2)) and not d2.is_dominant((1, -2))
    assert d2.is_L_dominant((0, 0)) and d2.is_dominant((0, 0)) \
        and d2.is_antidominant((0, 0))
    assert d2.is_L_dominant((-1, -1)) and d2.is_antidominant((-1, -1))
    assert not d2.is_L_dominant((0, 1))


def test_h_map():
    d2 = SymplecticRootDatum(2)
    assert d2.h_map((1, 0), 2) == Weight((1, -2))
    assert d2.h_map((1, 1), 2) == Weight((-1, -1))
    d3 = SymplecticRootDatum(3)
    assert d3.h_map((1, 1, 0), 2) == Weight((1, -1, -2))


def test_h_map_injective_on_box():
    d2 = SymplecticRootDatum(2)
    seen = {}
    for a in range(-3, 4):
        for b in range(-3, 4):
            img = d2.h_map((a, b), 2)
            assert img not in seen
            seen[img] = (a, b)


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(5, 0, 7) == 1
    for n in range(1, 6):
        for i in range(n + 1):
            for p in (2, 3, 5):
                assert gaussian_binomial(n, i, p) == gaussian_binomial_product(n, i, p)
                assert gaussian_binomial(n, i, p) == gaussian_binomial(n, n - i, p)
            assert binomial_check(n, i)
            assert sum(gaussian_binomial_coeffs(n, i)) == comb(n, i)


def test_gaussian_binomial_range_error():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, 2)


def test_gaussian_binomial_product_rejects_small_p():
    # p = 1 makes every factor p^k - 1 zero; p = 0 gave a plausible 1
    for p in (1, 0, -3):
        with pytest.raises(ValueError):
            gaussian_binomial_product(2, 1, p)
