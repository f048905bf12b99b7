import pytest
from functools import lru_cache
from math import comb

from zipcones.rootdata import SymplecticRootDatum
from zipcones.weights import Weight, eta_weight, eta_weights, gaussian_binomial


@lru_cache(maxsize=None)
def gaussian_binomial_coeffs(n, i):
    """Coefficients (ascending) of the Gaussian binomial as a polynomial,
    by the q-Pascal recursion [n,i] = [n-1,i] + q^{n-i} [n-1,i-1], with
    no division (reference form of ``gaussian_binomial``)."""
    if i < 0 or i > n:
        raise ValueError("need 0 <= i <= n")
    if i == 0 or i == n:
        return (1,)
    a = list(gaussian_binomial_coeffs(n - 1, i))
    b = gaussian_binomial_coeffs(n - 1, i - 1)
    shift = n - i
    a += [0] * (shift + len(b) - len(a))
    for k, c in enumerate(b):
        a[shift + k] += c
    return tuple(a)


def test_simple_roots_and_counts():
    d = SymplecticRootDatum(3)
    assert len(d.simple_roots) == 3
    assert d.simple_roots[d.beta_index] == Weight((0, 0, 2))
    assert d.simple_coroots[d.beta_index] == Weight((0, 0, 1))
    # n^2 positive roots for type C_n
    assert len(d.positive_roots) == 9


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(5, 0, 7) == 1
    for n in range(0, 7):
        for i in range(n + 1):
            coeffs = gaussian_binomial_coeffs(n, i)
            for p in (2, 3, 5, 7):
                expect = sum(c * p ** k for k, c in enumerate(coeffs))
                assert gaussian_binomial(n, i, p) == expect, (n, i, p)
                assert gaussian_binomial(n, i, p) == gaussian_binomial(n, n - i, p)
            # the reference at p -> 1 counts subsets
            assert sum(coeffs) == comb(n, i)


def test_gaussian_binomial_range_error():
    for n in range(4):
        with pytest.raises(ValueError):
            gaussian_binomial(n, n + 1, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(3, -1, 2)


def test_gaussian_binomial_product_rejects_small_p():
    # p = 1 makes every factor p^k - 1 zero; p = 0 gave a plausible 1
    for p in (1, 0, -3):
        with pytest.raises(ValueError):
            gaussian_binomial(2, 1, p)


def test_eta_weights_read_one_row_against_the_reference():
    # eta_i has i entries [n-1, i]_p and n - i entries -p^{n-i} [n-1, i-1]_p
    def at(n, i, p):
        coeffs = gaussian_binomial_coeffs(n, i)
        return sum(c * p ** k for k, c in enumerate(coeffs))

    for n in range(1, 7):
        for p in (2, 3, 5):
            want = [Weight([at(n - 1, i, p)] * i
                           + [-p ** (n - i) * at(n - 1, i - 1, p)] * (n - i))
                    for i in range(1, n)]
            assert eta_weights(n, p) == want, (n, p)
            assert [eta_weight(n, p, i) for i in range(1, n)] == want
            for i in (0, n):
                with pytest.raises(ValueError):
                    eta_weight(n, p, i)
