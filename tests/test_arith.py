import math
import random

import pytest

import ellstat
from ellstat import arith
from ellstat.arith import (
    FactorBudgetExceeded,
    InputError,
    _Budget,
    _ladder,
    _mladder,
    _mxadd,
    _perfect_power,
    _pollard_brent,
    _power_sieve,
    factorize,
    iroot,
    is_prime,
    legendre,
    primes_up_to,
    require_odd_prime,
    sieve_primes,
    valuation,
)
from ellstat.curves import compute_invariants
from ellstat.harness import sample_tuple

from oracles import (affine_multiple, ladder_reducing_each_product, montgomery_multiple,
                     valuation_by_division)


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


def test_is_prime_against_sieve_to_a_million():
    primes = sieve_primes(10**6)
    assert [n for n in range(10**6 + 1) if is_prime(n)] == primes


def _strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


# the least strong pseudoprime to each of the first k prime bases, k = 1..9
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051)


@pytest.mark.parametrize("k, n", list(enumerate(_PSI, start=1)))
def test_is_prime_rejects_least_strong_pseudoprimes(k, n):
    # n fools the first k witnesses, so a shorter prefix than the one used
    # at n would call it prime
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23)[:k]
    assert all(_strong_probable_prime(n, a) for a in bases)
    assert not is_prime(n)


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


@pytest.mark.parametrize("p", [1, -1, 0, -2])
def test_valuation_rejects_base_below_2(p):
    # 1 and -1 divide everything, so the division loop would never end
    with pytest.raises(ValueError):
        valuation(8, p)


@pytest.mark.parametrize("limit", [1, 0, -5])
def test_sieve_below_two_is_empty(limit):
    assert sieve_primes(limit) == []


@pytest.mark.parametrize("n, k", [(-1, 2), (8, 0)])
def test_iroot_rejects_negative_n_and_k_below_1(n, k):
    with pytest.raises(ValueError):
        iroot(n, k)


@pytest.mark.parametrize("p", [2, 9, 1, -3])
def test_require_odd_prime_raises_input_error(p):
    with pytest.raises(InputError, match=f"^p must be an odd prime, got {p}$"):
        require_odd_prime(p)


def test_input_error_is_a_value_error_exported_by_the_package():
    assert issubclass(InputError, ValueError)
    assert ellstat.InputError is InputError


def test_valuation_bit_path_matches_division_loop():
    # at p = 2 the valuation is the lowest set bit; the division loop is the
    # oracle, on +-n, powers of 2, +-1 and n above 10^300
    rng = random.Random(150)
    values = [1, 2, 3, 12, 10**300 + 1, 10**301, 3**700 << 1000]
    values += [1 << k for k in range(0, 1200, 13)]
    values += [(2 * rng.getrandbits(rng.randrange(1, 1100)) + 1) << rng.randrange(0, 1100)
               for _ in range(200)]
    assert any(n > 10**300 and n % 2 == 0 for n in values)
    for n in values:
        for m in (n, -n):
            assert valuation(m, 2) == valuation_by_division(m, 2), m
    assert valuation(1, 2) == valuation(-1, 2) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)
    with pytest.raises(ValueError):
        valuation(0, 1)


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


def _iroot_by_search(n, k):
    r = 0
    while (r + 1) ** k <= n:
        r += 1
    return r, r**k == n


def test_iroot_at_the_bit_length_edge():
    # for 2 <= n < 2^k, that is k >= n.bit_length(), the root is 1 and not
    # exact; 2^k is the first n past that edge, with root exactly 2
    for k in range(2, 71):
        cases = [(2**k, k), (2**k - 1, k), (2 ** (k - 1), k), (2**k + 1, k), (2**k, k + 1)]
        cases += [(n, n.bit_length()) for n in (2 ** (k - 1), 2 ** (k - 1) + 1, 3 << (k - 2), 2**k - 1)]
        for n, kk in cases:
            assert iroot(n, kk) == _iroot_by_search(n, kk), (n, kk)


def test_power_sieve_bits_mark_exactly_the_kth_powers():
    sieve = _power_sieve()
    assert [q for q, _ in sieve] == [211, 421, 631, 1051, 1471, 2311, 2521, 2731]
    for q, table in sieve:
        assert is_prime(q) and q % 210 == 1 and len(table) == q
        for bit, k in enumerate((2, 3, 5, 7)):
            powers = {pow(x, k, q) for x in range(q)}
            assert 0 in powers
            # exactly the k-th powers: every power keeps the bit, and
            # (q - 1)/k nonzero residues plus 0 is all that does
            assert {r for r in range(q) if table[r] >> bit & 1} == powers
            assert len(powers) == (q - 1) // k + 1
        assert all(m < 16 for m in table)


def _sieve_mask(n: int) -> int:
    """The bits of the k in (2, 3, 5, 7) that n keeps through the sieve."""
    mask = 15
    for q, table in _power_sieve():
        mask &= table[n % q]
    return mask


def test_power_sieve_keeps_every_power():
    rng = random.Random(21)
    sieve = math.prod(q for q, _ in _power_sieve())
    xs = [0, 1, 2, sieve, 10**40 + 1] + [rng.randrange(10**30) for _ in range(200)]
    # multiples of the table primes land on residue 0
    xs += [q * rng.randrange(1, 10**20) for q, _ in _power_sieve()]
    randoms = [rng.randrange(10**30) for _ in range(2000)]
    for bit, k in enumerate((2, 3, 5, 7)):
        for x in xs:
            assert _sieve_mask(x**k) >> bit & 1, (x, k)
        # and non-powers mostly lose the bit: each k keeps fewer than 100 of
        # 2000, as a sieve of its own over 8 primes did
        kept = sum(_sieve_mask(n) >> bit & 1 for n in randoms)
        assert kept < 100, (k, kept)


def test_perfect_power_matches_brute_force():
    bound = 10**5
    roots = {k: {r**k: r for r in range(iroot(bound, k)[0] + 1)} for k in (2, 3, 5, 7)}
    for n in range(bound):
        want = next(((roots[k][n], k) for k in (2, 3, 5, 7) if n in roots[k]), None)
        assert _perfect_power(n) == want, n
    for q in (10007, 1000003, 2**61 - 1):
        # the first k in (2, 3, 5, 7) wins, so q^4 and q^6 read as squares
        want = {2: (q, 2), 3: (q, 3), 4: (q * q, 2), 5: (q, 5), 6: (q**3, 2), 7: (q, 7)}
        for k, root in want.items():
            assert _perfect_power(q**k) == root, (q, k)
            assert _perfect_power(q**k * 10009) is None, (q, k)


def test_factorize_splits_a_seventh_power_without_rho(monkeypatch):
    calls = []
    monkeypatch.setattr(arith, "_pollard_brent", lambda n, budget: calls.append(n))
    q = 1000003
    assert factorize(q**7) == {q: 7}
    assert factorize(2**3 * q**7) == {2: 3, q: 7}
    assert calls == []


def test_factorize_splits_the_root_of_a_power_once(monkeypatch):
    calls = []

    def counted(n, budget):
        calls.append(n)
        return _pollard_brent(n, budget)

    monkeypatch.setattr(arith, "_pollard_brent", counted)
    a, b, c = 1000003, 1000033, 1000037
    assert factorize((a * b) ** 3) == {a: 3, b: 3}
    assert calls == [a * b]
    calls.clear()
    # a sixth power reads as the square of a cube: still one split of a*b
    assert factorize((a * b) ** 6) == {a: 6, b: 6}
    assert calls == [a * b]
    assert factorize(((a * b) ** 2 * c) ** 3) == {a: 6, b: 6, c: 3}


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


@pytest.mark.parametrize("small, items", [
    (9967, [(9967, 1)]),
    (9973**2, [(9973, 2)]),
    (9973**3, [(9973, 3)]),
    (9967 * 9973**3, [(9967, 1), (9973, 3)]),
    (2**3 * 9967**2 * 9973, [(2, 3), (9967, 2), (9973, 1)]),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_factorize_stops_the_small_primes_at_the_root_of_their_part(small, items, sign):
    # the walk over the primes below 10^4 stops at the first p with p^2 > g;
    # the one prime left of g, 9967 or 9973, still gets its full exponent
    # and its place in the key order, before the cofactor's prime
    big = 1000003  # the least prime above 10^6
    assert list(factorize(sign * small * big).items()) == items + [(big, 1)]


def test_factor_budget_raises():
    p = 2**127 - 1  # prime: fine
    assert factorize(p) == {p: 1}
    hard = (2**89 - 1) * (2**107 - 1)  # both prime; rho cannot split in a tiny budget
    with pytest.raises(FactorBudgetExceeded):
        factorize(hard, rho_budget=64)


def test_factor_budget_counts_multiplications(monkeypatch):
    # the budget of each call is read back: rho and ECM charge each batch
    # or stage before it runs, so a raise leaves spent at most the limit,
    # and the budget is not left unused by more than one ECM curve
    budgets = []

    class Recorded(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(arith, "_Budget", Recorded)
    hard = (2**89 - 1) * (2**107 - 1)
    k, muls1, m0, pairs, muls2 = arith._ecm_bounds(*arith._ECM_PLAN[-1][:2])
    for B in (64, 5000, 10**5, 10**6):
        with pytest.raises(FactorBudgetExceeded):
            factorize(hard, rho_budget=B)
        assert budgets[-1].limit == B
        assert B - muls1 - muls2 < budgets[-1].spent <= B, B


def test_factor_budget_weighs_multiplications_by_size():
    budget = _Budget(10**6)
    budget.charge(100, 2**255 - 1)
    assert budget.spent == 100
    budget.charge(100, 2**1023 + 1)  # 1024 bits: 1 + 4^2 per multiplication
    assert budget.spent == 100 + 1700
    with pytest.raises(FactorBudgetExceeded):
        budget.charge(10**6, 3)
    assert budget.spent == 1800


def test_factorize_finds_a_prime_beyond_rho_by_ecm(monkeypatch):
    # rho's squarings cannot reach a 40-bit prime: ECM splits n
    calls = []
    real = arith._ecm
    monkeypatch.setattr(arith, "_ecm", lambda n, budget: calls.append(n) or real(n, budget))
    p, q = 1099511627791, 2**89 - 1  # the first prime above 2^40, and a Mersenne prime
    assert factorize(p * q) == {p: 1, q: 1}
    assert calls == [p * q]


def test_ladder_matches_affine_multiples():
    # y^2 = x^3 + 3x + 5 over F_10007, from a point with y != 0: k P and
    # (k+1) P from the ladder
    p, A, B = 10007, 3, 5
    x = next(x for x in range(1, p) if legendre(x**3 + A * x + B, p) == 1)
    y = next(y for y in range(p) if (y * y - x**3 - A * x - B) % p == 0)
    for k in (1, 2, 3, 4, 5, 12, 97, 210, 1000):
        want = [affine_multiple(j, (x, y), A, B, p) for j in (k, k + 1)]
        x0, z0, x1, z1 = _ladder(k, x, A, B, p)
        for (X, Z), w in zip(((x0, z0), (x1, z1)), want):
            assert Z % p and X * pow(Z, -1, p) % p == w[0], k


def _primes_after(n: int, count: int) -> list[int]:
    out = []
    while len(out) < count:
        n += 1
        if is_prime(n):
            out.append(n)
    return out


# every odd prime below 2^16, ten primes above 10^7, 2^61 - 1 and a 256-bit prime
_LADDER_MODULI = (primes_up_to(1 << 16)[1:] + _primes_after(10**7, 10) + [2**61 - 1]
                  + _primes_after(2**255, 1))


def test_ladder_matches_reference_with_each_product_reduced():
    # the products that _ladder leaves unreduced change no residue: the same
    # (X0, Z0, X1, Z1) as a reduction after each product, on seeded k, x, A,
    # B below n, and at k = (n - 1) / 2 and n, where finitefield runs it
    rng = random.Random(71)
    for n in _LADDER_MODULI:
        for k in (rng.randrange(1, 2 * n), n >> 1, n):
            args = (k, rng.randrange(n), rng.randrange(n), rng.randrange(n), n)
            assert _ladder(*args) == ladder_reducing_each_product(*args), args


def test_montgomery_ladder_matches_affine_multiples():
    # 5 y^2 = x^3 + 7 x^2 + x over F_10007, from a point with y != 0 given
    # in (X:Z) with Z != 1: k P and (k+1) P from _mladder, and a sum from
    # _mxadd with a difference whose Z is not 1
    p, C, b = 10007, 7, 5
    a24 = (C + 2) * pow(4, -1, p) % p
    x = next(x for x in range(1, p) if legendre((x**3 + C * x * x + x) * b, p) == 1)
    y = next(y for y in range(p) if (b * y * y - x**3 - C * x * x - x) % p == 0)
    z = 1234
    for k in (1, 2, 3, 4, 5, 12, 97, 210, 1000):
        want = [montgomery_multiple(j, (x, y), C, b, p) for j in (k, k + 1)]
        x0, z0, x1, z1 = _mladder(k, x * z % p, z, a24, p)
        for (X, Z), w in zip(((x0, z0), (x1, z1)), want):
            assert Z % p and X * pow(Z, -1, p) % p == w[0], k
    q = _mladder(7, x, 1, a24, p)[:2]
    r = _mladder(3, x, 1, a24, p)[:2]
    d = _mladder(4, x, 1, a24, p)[:2]
    assert d[1] % p != 1
    X, Z = _mxadd(q, r, d, p)
    assert X * pow(Z, -1, p) % p == montgomery_multiple(10, (x, y), C, b, p)[0]


def test_seeded_height_1000_discriminants_factor():
    # the |Delta| of the first 40 draws of random.Random(5) at H = 10^3 have
    # 123 to 128 bits; six hold two primes of 43 to 57 bits that rho alone
    # never split.  All 40 take about 2.5 s with the default budget (2
    # cores, Python 3.11).  sympy's BPSW test checks every prime: with the
    # product, that pins the factorisation, where sympy.factorint would take
    # about 14 s more
    rng = random.Random(5)
    deltas = [compute_invariants(sample_tuple(rng, 1000)).delta for _ in range(40)]
    got = [factorize(d) for d in deltas]
    for d, fac in zip(deltas, got):
        assert all(is_prime(q) for q in fac), d
        assert math.prod(q**e for q, e in fac.items()) == abs(d)
    sympy = pytest.importorskip("sympy")
    for d, fac in zip(deltas, got):
        assert all(sympy.isprime(q) for q in fac), d


def test_pollard_brent_gives_up_when_both_cycles_meet(monkeypatch):
    # 102781897 = 10007 * 10271, found by a search over products of primes
    # above 10^4: the walk meets both cycles at once, so its batched gcd
    # and the backtrack both give n, the only two of its gcds that are not
    # 1, and it returns None with no second walk
    n = 102781897
    seen = []
    monkeypatch.setattr(arith, "gcd", lambda a, b: seen.append(math.gcd(a, b)) or seen[-1])
    assert _pollard_brent(n, _Budget(1 << 22)) is None
    assert [g for g in seen if g != 1] == [n, n] and seen[-1] == n
    # where every gcd is n, exactly those two gcd calls are made
    seen.clear()
    monkeypatch.setattr(arith, "gcd", lambda a, b: seen.append(b) or b)
    assert _pollard_brent(n, _Budget(1 << 22)) is None
    assert seen == [n, n]


def test_factorize_hands_a_failed_walk_to_ecm(monkeypatch):
    calls = []
    real = arith._ecm
    monkeypatch.setattr(arith, "_ecm", lambda n, budget: calls.append(n) or real(n, budget))
    assert factorize(102781897) == {10007: 1, 10271: 1}
    assert calls == [102781897]


def test_pollard_brent_keeps_the_factor_of_its_last_round():
    # 137411434549 = 208993 * 657493 was found by replaying the walk on
    # the cofactors that factorize gives it from the |Delta| of perfbench's
    # `exact` seeds 1 and 2: it is the smallest of the 446 that the walk
    # splits with its first nontrivial batched gcd in the last round,
    # r = 512.  Rounds 1 to 256 charge 3 * 511 multiplications, so more
    # than that is spent
    n = 137411434549
    budget = _Budget(1 << 22)
    assert _pollard_brent(n, budget) in (208993, 657493)
    assert budget.spent > 3 * 511


def test_ecm_curve_splits_on_its_parameter_gcd():
    # sigma = 102 gives u = 102^2 - 5 = 10399, a prime, so the curve's
    # parameter denominator 4 u^3 v^4 shares 10399 with n before any ladder
    n = 10399 * (2**61 - 1)
    assert arith._ecm_curve(n, 102, arith._ecm_bounds(200, 12_000), _Budget(1 << 22)) == 10399


# for sigma = 6 and each baby step j of _BABY, the least prime p above 5000
# where stage 1 at B1 = 150 leaves Q = k P of a prime order l = m 210 +- j
# of (150, 8000] and no other pair of stage 2 meets l
STAGE_TWO_PRIMES = {1: 5147, 11: 20089, 13: 38113, 17: 12269, 19: 30559, 23: 10321,
                    29: 9623, 31: 24247, 37: 7109, 41: 15383, 43: 13043, 47: 17029,
                    53: 9413, 59: 6949, 61: 28729, 67: 21817, 71: 24329, 73: 24077,
                    79: 28661, 83: 11621, 89: 14081, 97: 11519, 101: 12373, 103: 16547}


def test_ecm_stage_two_finds_a_prime_at_every_baby_step():
    # the order N of the group that holds x(P) mod p is counted by squares:
    # b y^2 = f(x) is y^2 = f(x) if f(x(P)) is a square, else its twist.
    # With N / gcd(N, k) = l, only stage 2 can find p, and only at the j of
    # l: for every other prime r = m 210 +- j' of (150, 8000], l divides
    # neither r nor the other value 420 m - r of its pair
    sigma, q = 6, 2**61 - 1  # q is prime, and no step of the curve meets it
    bounds = arith._ecm_bounds(150, 8000)
    k = bounds[0]
    u, v = sigma * sigma - 5, 4 * sigma
    assert set(STAGE_TWO_PRIMES) == set(arith._BABY)
    stage_two = [r for r in primes_up_to(8000) if r > 150]
    for j, p in STAGE_TWO_PRIMES.items():
        squares = {t * t % p for t in range(1, p)}

        def chi(t):
            f = (t**3 + C * t * t + t) % p
            return 0 if f == 0 else 1 if f in squares else -1

        a24 = (v - u) ** 3 * (3 * u + v) * pow(16 * u**3 * v, -1, p) % p
        C = 4 * a24 - 2
        x = u**3 * pow(v**3, -1, p) % p
        N = p + 1 + chi(x) * sum(map(chi, range(p)))
        l = N // math.gcd(N, k)
        assert is_prime(l) and 150 < l <= 8000 and j in (l % 210, 210 - l % 210)
        assert [r for r in stage_two if r % l == 0 or (420 * ((r + 105) // 210) - r) % l == 0] == [l]
        assert _mladder(k, u**3, v**3, a24, p)[1] % p  # Q is not O
        assert arith._ecm_curve(p * q, sigma, bounds, _Budget(1 << 22)) == p, j


def test_primes_up_to_cached():
    assert primes_up_to(100) is primes_up_to(100)
    assert primes_up_to(10)[-1] == 7


def test_require_odd_prime():
    for p in (3, 5, 7, 9973):
        require_odd_prime(p)
    for n in (-3, 0, 1, 2, 4, 9, 15, 21, 561):
        with pytest.raises(ValueError):
            require_odd_prime(n)
