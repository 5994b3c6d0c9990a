import math
import random

import pytest

from ellstat.arith import (
    FactorBudgetExceeded,
    factorize,
    iroot,
    is_prime,
    legendre,
    primes_up_to,
    require_odd_prime,
    sieve_primes,
    valuation,
)


def test_sieve_matches_trial_division():
    primes = sieve_primes(500)
    assert primes[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for n in range(2, 500):
        naive = all(n % d for d in range(2, n))
        assert (n in primes) == naive


def test_is_prime_against_sieve():
    primes = set(sieve_primes(3000))
    for n in range(3000):
        assert is_prime(n) == (n in primes)


def test_is_prime_large_semiprimes():
    p, q = 1000003, 1000033
    assert is_prime(p) and is_prime(q)
    assert not is_prime(p * q)
    assert is_prime(2**61 - 1)  # Mersenne
    assert not is_prime(2**67 - 1)


def test_legendre_by_square_enumeration():
    for p in (3, 5, 7, 11, 13, 101):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in squares else -1)
        assert legendre(0, p) == 0


def test_valuation_and_iroot():
    assert valuation(2**5 * 9, 2) == 5
    assert valuation(-27, 3) == 3
    with pytest.raises(ValueError):
        valuation(0, 7)
    assert iroot(3**30, 3) == (3**10, True)
    assert iroot(3**30 + 1, 3) == (3**10, False)
    assert iroot(0, 5) == (0, True)
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randrange(1, 10**24)
        k = rng.randrange(1, 8)
        r, exact = iroot(n, k)
        assert r**k <= n < (r + 1) ** k
        assert exact == (r**k == n)
    # exact powers and their neighbours, and n far beyond float range
    for k in (2, 3, 5, 7):
        cases = [rng.randrange(1, 10**400) for _ in range(40)] + [10**400 + 7]
        for m in (2, 3, 10**20 + 39, 3**200, 10**57 + 7):
            cases += [m**k - 1, m**k, m**k + 1]
        for n in cases:
            r, exact = iroot(n, k)
            assert r**k <= n < (r + 1) ** k
            assert exact == (r**k == n)
        assert iroot((10**57 + 7) ** k, k) == (10**57 + 7, True)


def test_factorize_roundtrip():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randrange(2, 10**15)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_structured_inputs():
    assert factorize(2**12 * 3**5 * 10007) == {2: 12, 3: 5, 10007: 1}
    big = (10**9 + 7) ** 2 * (10**9 + 9)
    assert factorize(big) == {10**9 + 7: 2, 10**9 + 9: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_primorial():
    primes = primes_up_to(10**4)
    assert len(primes) == 1229
    assert factorize(math.prod(primes)) == {q: 1 for q in primes}


def test_factorize_small_primes_with_large_cofactor():
    # the largest prime below 10^4, squared, next to one just above it
    assert factorize(2**5 * 9973**2 * 10007) == {2: 5, 9973: 2, 10007: 1}
    assert factorize(-(2**5) * 9973**2 * (10**9 + 7)) == {2: 5, 9973: 2, 10**9 + 7: 1}
    for n in range(1, 10**4):  # below the bound n stands in for the gcd
        fac = factorize(n)
        assert all(is_prime(q) for q in fac)
        assert math.prod(q**e for q, e in fac.items()) == n


def test_factor_budget_raises():
    p = 2**127 - 1  # prime: fine
    assert factorize(p) == {p: 1}
    hard = (2**89 - 1) * (2**107 - 1)  # both prime; rho cannot split in a tiny budget
    with pytest.raises(FactorBudgetExceeded):
        factorize(hard, rho_budget=64)


def test_primes_up_to_cached():
    assert primes_up_to(100) is primes_up_to(100)
    assert primes_up_to(10)[-1] == 7


def test_require_odd_prime():
    for p in (3, 5, 7, 9973):
        require_odd_prime(p)
    for n in (-3, 0, 1, 2, 4, 9, 15, 21, 561):
        with pytest.raises(ValueError):
            require_odd_prime(n)
