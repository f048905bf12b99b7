"""The primality test that every entry point runs on p."""

import math

import pytest

from zipcones.errors import GuardExceededError
from zipcones.weights import PRIME_LIMIT, is_prime


def test_is_prime_matches_trial_division_below_5000():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    assert ([p for p in range(-3, 5000) if is_prime(p)]
            == [p for p in range(-3, 5000) if trial(p)])
    assert not any(is_prime(x) for x in (2.0, "7", None))


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051,
                               318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # strong pseudoprimes to the bases 2..7, 2..31 and 2..37: a later base
    # of the 13 catches each
    assert not is_prime(n)


def test_is_prime_decides_large_primes_below_the_limit():
    for p in (999999999999989, 2 ** 61 - 1, 10 ** 24 + 7):
        assert is_prime(p)
    assert not is_prime((2 ** 31 - 1) * (10 ** 9 + 7))


def test_is_prime_refuses_psi13():
    # psi_13 passes the strong test to all 13 bases and is composite
    with pytest.raises(GuardExceededError, match="p = %d is at or past %d"
                       % (PRIME_LIMIT, PRIME_LIMIT)):
        is_prime(PRIME_LIMIT)
