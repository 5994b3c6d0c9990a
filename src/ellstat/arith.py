"""Elementary integer arithmetic shared by the curve and statistics modules.

Everything here is exact big-integer arithmetic: primality by Miller-Rabin
(deterministic below 3.3 * 10^24 with a proven witness set, and a strong
probable-prime test to the same 13 bases above it), factorisation, prime
sieves, quadratic residue tests, integer roots and a perfect-power test
that takes a k-th root only for the k in (2, 3, 5, 7) that one masked
sieve of residues modulo 8 primes q = 1 (mod 210) leaves.

factorize finds the primes below 10^4 by one gcd with their product, then
splits each composite cofactor that is not a perfect power by one short
Pollard-Brent walk and, if that fails, by ECM on curves whose bounds rise
as they fail.  Every modular multiplication of the walk and of ECM is
charged to one budget, so a cofactor with no small enough prime costs a
bounded amount of work before FactorBudgetExceeded.  ECM runs on
Suyama's Montgomery curves, by their own x-only ladder _mladder at 11
multiplications per bit, each reduced mod n; _ladder, the ladder on a
short Weierstrass model at 20 multiplications and 4 reductions per bit,
serves finitefield's test of whether p P = O.  Its products grow to about
n^6 between reductions: that is 1.07 to 1.14 times as fast as a reduction
after each product for n from 3000 to 2^61, and 0.75 times at 256 bits.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import count
from math import gcd, inf, isqrt, lcm, prod

__all__ = [
    "sieve_primes",
    "primes_up_to",
    "is_prime",
    "require_odd_prime",
    "legendre",
    "valuation",
    "iroot",
    "factorize",
    "FactorBudgetExceeded",
    "InputError",
]


class FactorBudgetExceeded(Exception):
    """Raised when an integer resists factorisation within its budget."""


class InputError(ValueError):
    """An argument outside the domain that a public entry point accepts: a
    p that is not an odd prime, a tolerance <= 0, a sample spec out of
    range.  The CLI reports it as invalid input (exit 2), while any other
    ValueError is a fault of the program (exit 1).  As a ValueError, it is
    still caught by callers that catch ValueError."""


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit by a plain sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for n in range(2, isqrt(limit) + 1):
        if flags[n]:
            flags[n * n :: n] = bytearray(len(flags[n * n :: n]))
    return [n for n in range(limit + 1) if flags[n]]


@lru_cache(maxsize=1)
def primes_up_to(limit: int) -> list[int]:
    """sieve_primes(limit), cached for a caller that asks for one limit
    repeatedly.  Only the last limit is kept, so scans to many limits hold
    one list."""
    return sieve_primes(limit)


# factorize finds the primes below this bound by one gcd with their product
_SMALL_BOUND = 10_000


@cache
def _small_primes() -> list[int]:
    """The primes below _SMALL_BOUND, apart from primes_up_to's cache."""
    return sieve_primes(_SMALL_BOUND)


@cache
def _primorial() -> int:
    return prod(_small_primes())


# Deterministic for n < 3.317e24 (Sorenson-Webster witness set).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, k): psi_k is the least strong pseudoprime to each of the first k
# witnesses, so below it those k decide primality.  Jaeschke, Math. Comp. 61
# (1993); Sorenson-Webster, Math. Comp. 86 (2017).  psi_8 = psi_7 and
# psi_11 = psi_10 = psi_9, so those prefixes gain nothing.
_MR_PREFIXES = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rounds = next((k for bound, k in _MR_PREFIXES if n < bound), len(_MR_WITNESSES))
    for a in _MR_WITNESSES[:rounds]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> None:
    """Raise InputError unless p is an odd prime."""
    if p == 2 or not is_prime(p):
        raise InputError(f"p must be an odd prime, got {p}")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else 1


def valuation(n: int, p: int) -> int:
    """Exponent of p in n.  Raises for n = 0 (infinite valuation) and for
    p < 2, where no exponent is defined.  At p = 2 it is the position of
    the lowest set bit, read off n & -n."""
    if p < 2:
        raise ValueError(f"valuation needs a base p >= 2, got {p}")
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def iroot(n: int, k: int) -> tuple[int, bool]:
    """(floor(n^(1/k)), exact?) for n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise ValueError("iroot requires n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n, True
    if k >= n.bit_length():
        return 1, False  # 2 <= n < 2^k, so 1 <= n^(1/k) < 2
    if k == 2:
        r = isqrt(n)
    else:
        # Newton's iteration from 2^ceil(bits/k) > n^(1/k) decreases
        # strictly until it reaches the floor of the root
        r = 1 << -(-n.bit_length() // k)
        while True:
            s = ((k - 1) * r + n // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r, r**k == n


# only about 1/k of the residues mod a prime q = 1 (mod k) are k-th powers,
# so a random non-power keeps the bit of k through _SIEVE_PRIMES of them
# with probability near k^-_SIEVE_PRIMES
_SIEVE_PRIMES = 8


@cache
def _power_sieve() -> tuple[tuple[int, bytes], ...]:
    """(q, table) for the first _SIEVE_PRIMES primes q = 1 (mod 210): bit i
    of table[r] is set exactly when r is x^k mod q for some x, 0 included,
    with k = (2, 3, 5, 7)[i].  For a primitive root g, g^e is a k-th power
    exactly when k | e, so one walk through the powers of g sets every bit,
    by a mask that depends only on e mod 210."""
    masks = bytes(sum(1 << i for i, k in enumerate((2, 3, 5, 7)) if e % k == 0)
                  for e in range(210))
    out = []
    for q in _small_primes():
        if q % 210 == 1:
            ells = [ell for ell in _small_primes() if ell < q and (q - 1) % ell == 0]
            g = next(g for g in count(2) if all(pow(g, (q - 1) // ell, q) != 1 for ell in ells))
            # residue 0 keeps every bit; the walk through g^e sets the others
            table, x = bytearray([masks[0]]) * q, 1
            for mask in masks * ((q - 1) // 210):
                table[x] = mask
                x = x * g % q
            out.append((q, bytes(table)))
            if len(out) == _SIEVE_PRIMES:
                break
    return tuple(out)


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(r, k) with r^k = n for the first k in (2, 3, 5, 7) that has one, or
    None; n >= 0.  A k-th power is a k-th power residue modulo every prime
    (Bernstein, "Detecting perfect powers in essentially linear time", Math.
    Comp. 67, 1998): the sieve clears the bit of each k that n is not, and
    only the k left get a root."""
    mask = 15
    for q, table in _power_sieve():
        mask &= table[n % q]
        if not mask:
            return None
    for i, k in enumerate((2, 3, 5, 7)):
        if mask >> i & 1:
            r, exact = iroot(n, k)
            if exact:
                return r, k
    return None


class _Budget:
    """The work that one factorize call may spend on rho and ECM, and the
    work it has spent, in modular multiplications.  A multiplication modulo
    an n of b bits counts 1 + (b // 256)^2 times, about its time in CPython
    against one modulo an n below 2^256, so the budget bounds the time
    whatever the size of n."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def charge(self, muls: int, n: int) -> None:
        """Count muls multiplications modulo n that are about to be made.
        Raises FactorBudgetExceeded, and counts nothing, if they would take
        spent past limit."""
        muls *= 1 + (n.bit_length() >> 8) ** 2
        if self.spent + muls > self.limit:
            raise FactorBudgetExceeded(f"factoring spent its budget of {self.limit} multiplications")
        self.spent += muls


# the cap on rho's squarings: the walk runs rounds r = 1 to 512, 2046
# squarings, before factorize moves on to ECM.  On the 1713 cofactors of
# the 6031 `local` discriminants of perfbench's `exact` seed 1 it splits
# 1069 of the 1126 whose least prime is below 2^20, 99 of the 405 below
# 2^25 and 2 of the 182 above.  Factoring all 6031 counts 8.70M
# multiplications; caps of 1000 and 4000 (rounds to 256 and 1024) count
# 8.89M and 8.95M, and 500 and 8000 count 9.68M and 9.79M
_RHO_SQUARINGS = 2000


def _pollard_brent(n: int, budget: _Budget) -> int | None:
    """A nontrivial factor of composite n from one Pollard-Brent walk
    (Brent, BIT 20, 1980), or None.  It stops once its rounds have made
    more than _RHO_SQUARINGS squarings, or when the walk meets the cycles of
    all primes of n at once and the backtrack gives n too; factorize then
    hands n to ECM.  The walk iterates y -> y^2 + 1 mod n.  Each batch of
    squarings is charged to budget before it runs."""
    y, m = (2862933555777941757 + 3037000493) % n, 128
    g = q = r = 1
    while g == 1:
        # rounds 1 to r/2 made 2 (r - 1) squarings
        if 2 * (r - 1) > _RHO_SQUARINGS:
            return None
        x = y
        budget.charge(r, n)
        for _ in range(r):
            y = (y * y + 1) % n
        k = 0
        while k < r and g == 1:
            ys = y
            steps = min(m, r - k)
            budget.charge(2 * steps, n)
            # q is reduced once per four steps: a reduction costs more
            # than a product below about 2^256
            for _ in range(steps >> 2):
                y1 = (y * y + 1) % n
                y2 = (y1 * y1 + 1) % n
                y3 = (y2 * y2 + 1) % n
                y = (y3 * y3 + 1) % n
                q = q * (x - y1) * (x - y2) * (x - y3) * (x - y) % n
            for _ in range(steps & 3):
                y = (y * y + 1) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # backtrack when the batched gcd overshot
        g = 1
        while g == 1:
            budget.charge(1, n)
            ys = (ys * ys + 1) % n
            g = gcd(x - ys, n)
    return g if g < n else None


def _ladder(k: int, x: int, A: int, B: int, n: int) -> tuple[int, int, int, int]:
    """(X0, Z0, X1, Z1), the points k P and (k + 1) P in (X:Z), for k >= 1
    and x = x(P) on y^2 = x^3 + A x + B modulo n.  A Montgomery ladder,
    k.bit_length() - 1 steps of 20 multiplications (Brier and Joye,
    "Weierstrass elliptic curves and side-channel attacks", PKC 2002):
      x(Q+R) x(Q-R) = ((x_Q x_R - A)^2 - 4B (x_Q + x_R)) / (x_Q - x_R)^2,
      x(2Q) = ((x^2 - A)^2 - 8B x) / (4 (x^3 + A x + B)).
    The ladder holds (jP, (j+1)P), whose difference is P.  Modulo a prime q
    of n, a multiple that is O is (X:0) with X != 0 as long as P is not
    2-torsion and x != 0 mod q, so Z = 0 mod q exactly when it is O.

    A step leaves its products unreduced and takes only its four outputs
    mod n: four reductions where one after every product would take ten.
    The sum is symmetric in its two points, so the pair is held swapped
    whenever the last bit was 1, and the point to double is always the
    first.
    """
    B4, B8 = 4 * B, 8 * B
    xx = x * x
    t = xx - A
    x0, z0, x1, z1 = x, 1, (t * t - B8 * x) % n, 4 * ((xx + A) * x + B) % n  # P, 2P
    swapped = False
    for bit in bin(k)[3:]:
        if (bit == "1") != swapped:
            x0, z0, x1, z1 = x1, z1, x0, z0
            swapped = not swapped
        # the sum of the two, with difference P, and the double of the first
        u, v, zz = x0 * z1, x1 * z0, z0 * z1
        t, s = x0 * x1 - A * zz, u - v
        xx, zd, xz = x0 * x0, z0 * z0, x0 * z0
        x1, z1 = (t * t - B4 * zz * (u + v)) % n, x * s * s % n
        azz = A * zd
        t = xx - azz
        x0, z0 = (t * t - B8 * xz * zd) % n, 4 * (xz * (xx + azz) + B * zd * zd) % n
    return (x1, z1, x0, z0) if swapped else (x0, z0, x1, z1)


def _mxadd(q: tuple[int, int], r: tuple[int, int], d: tuple[int, int],
           n: int) -> tuple[int, int]:
    """Q + R in (X:Z) on a Montgomery curve b y^2 = x^3 + C x^2 + x modulo
    n, from Q, R and D = Q - R, in 6 multiplications (Montgomery, Math.
    Comp. 48, 1987, 10.3.1):
      X = Z_D ((X_Q - Z_Q)(X_R + Z_R) + (X_Q + Z_Q)(X_R - Z_R))^2,
      Z = X_D ((X_Q - Z_Q)(X_R + Z_R) - (X_Q + Z_Q)(X_R - Z_R))^2."""
    (x1, z1), (x2, z2), (xd, zd) = q, r, d
    u, v = (x1 - z1) * (x2 + z2) % n, (x1 + z1) * (x2 - z2) % n
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _mladder(k: int, x: int, z: int, a24: int, n: int) -> tuple[int, int, int, int]:
    """(X0, Z0, X1, Z1), the points k P and (k + 1) P, for k >= 1 and
    P = (x:z) on b y^2 = x^3 + C x^2 + x modulo n, with a24 = (C + 2) / 4.
    A Montgomery ladder: one doubling of 5 multiplications,
      X = (X + Z)^2 (X - Z)^2,  Z = 4XZ ((X - Z)^2 + a24 4XZ),
    with 4XZ = (X + Z)^2 - (X - Z)^2, and then per bit one sum as in _mxadd
    and one doubling, 11 multiplications.  Modulo a prime q of n, a multiple
    that is O is (X:0) with X != 0 as long as P is not 2-torsion, so Z = 0
    mod q exactly when it is O."""
    s, t = (x + z) ** 2 % n, (x - z) ** 2 % n
    x0, z0, x1, z1 = x, z, s * t % n, (s - t) * (t + a24 * (s - t)) % n  # P, 2P
    for bit in bin(k)[3:]:
        # the sum of the two, with difference P
        u, v = (x0 - z0) * (x1 + z1) % n, (x0 + z0) * (x1 - z1) % n
        xs, zs = z * (u + v) ** 2 % n, x * (u - v) ** 2 % n
        # and the double of the one this bit keeps
        if bit == "1":
            s, t = (x1 + z1) ** 2 % n, (x1 - z1) ** 2 % n
            w = s - t
            x0, z0, x1, z1 = xs, zs, s * t % n, w * (t + a24 * w) % n
        else:
            s, t = (x0 + z0) ** 2 % n, (x0 - z0) ** 2 % n
            w = s - t
            x0, z0, x1, z1 = s * t % n, w * (t + a24 * w) % n, xs, zs
    return x0, z0, x1, z1


# ECM's stage 2 takes each prime of (B1, B2] as m _D + j or m _D - j with j
# in _BABY, the 24 odd j < _D / 2 prime to _D = 2 * 3 * 5 * 7
_D = 210
_BABY = tuple(j for j in range(1, _D // 2, 2) if gcd(j, _D) == 1)
# (B1, B2, last): the curves numbered below last (from 0) that no earlier
# row takes use these bounds, so B1 rises as curves fail.  On the 6031
# discriminants of the _RHO_SQUARINGS comment it counts 8.70M
# multiplications, and first rows of (200, 12_000, 8), (600, 40_000, 24)
# count 9.75M
_ECM_PLAN = ((150, 8_000, 12), (500, 30_000, 24), (2000, 100_000, inf))


@cache
def _ecm_bounds(b1: int, b2: int) -> tuple[int, int, int, tuple[tuple[int, ...], ...], int]:
    """(k, muls1, m0, pairs, muls2) for the bounds B1 = b1 and B2 = b2.  k
    is lcm(1..b1), the stage-1 scalar, and pairs[i] holds the indices into
    _BABY of the j for which (m0 + i) _D - j or (m0 + i) _D + j is a prime
    of (b1, b2].  muls1 and muls2 are the multiplications of the two
    stages.  Built on first use from a sieve of its own, so the cache of
    primes_up_to is left alone."""
    k = lcm(*range(1, b1 + 1))
    index = {j: i for i, j in enumerate(_BABY)}
    by_m: dict[int, set[int]] = {}
    for p in sieve_primes(b2):
        if p > b1:
            m, j = divmod(p, _D)
            if j > _D // 2:
                m, j = m + 1, _D - j
            by_m.setdefault(m, set()).add(index[j])
    m0 = min(by_m)
    pairs = tuple(tuple(sorted(by_m.get(m, ()))) for m in range(m0, max(by_m) + 1))
    # stage 1: the curve and the ladder, 11 multiplications per bit; stage
    # 2: the sums 3Q to 103Q, 6 each, the batched inversion of their Z, 3
    # per j after the first, the ladders to _D Q and m0 _D Q, one sum per
    # giant step and two multiplications per pair, with 60 for the rest
    muls1 = 30 + (k.bit_length() - 1) * 11
    muls2 = ((_D.bit_length() + m0.bit_length() - 2) * 11
             + (_D // 4 + len(pairs)) * 6 + 3 * (len(_BABY) - 1)
             + 2 * sum(map(len, pairs)) + 60)
    return k, muls1, m0, pairs, muls2


def _ecm(n: int, budget: _Budget) -> int:
    """A nontrivial factor of n, composite and prime to 6, by Lenstra's
    elliptic curve method (Ann. Math. 126, 1987): curve after curve, on the
    bounds of _ECM_PLAN, until one splits n or budget is spent."""
    for curve in count():
        b1, b2 = next(row[:2] for row in _ECM_PLAN if curve < row[2])
        if d := _ecm_curve(n, curve + 6, _ecm_bounds(b1, b2), budget):
            return d


def _ecm_curve(n: int, sigma: int, bounds: tuple, budget: _Budget) -> int | None:
    """A nontrivial factor of n from one ECM curve with the given
    _ecm_bounds, or None.

    Suyama's parametrisation (Montgomery, Math. Comp. 48, 1987) gives a
    curve b y^2 = x^3 + C x^2 + x with 12 | #E mod every prime of n, the
    point P = (u^3 : v^3) and a24 = (C + 2) / 4 = (v - u)^3 (3u + v) /
    (16 u^3 v); x-only arithmetic ignores b, so _mladder runs on it
    directly.  Stage 1 computes Q = k P.  Stage 2 looks for a prime
    l = m _D +- j of (B1, B2] with l Q = O, that is x(m _D Q) = x(j Q), in
    the product of X_m - x_j Z_m over the pairs.  A denominator that has no
    inverse mod n is a gcd that splits it.
    """
    k, muls1, m0, pairs, muls2 = bounds
    budget.charge(muls1, n)
    u, v = sigma * sigma - 5, 4 * sigma
    den = 16 * u**3 * v % n
    if (g := gcd(den, n)) > 1:
        return g if g < n else None
    a24 = (v - u) ** 3 * (3 * u + v) * pow(den, -1, n) % n
    q = _mladder(k, u**3 % n, v**3 % n, a24, n)[:2]
    if (g := gcd(q[1], n)) > 1:
        return g if g < n else None
    budget.charge(muls2, n)
    # baby steps: x(j Q) for the odd j < _D / 2, from (j - 2) Q + 2 Q
    two = _mladder(1, *q, a24, n)[2:]
    odd = [q, _mxadd(two, q, q, n)]
    for j in range(5, _D // 2, 2):
        odd.append(_mxadd(odd[-1], two, odd[-2], n))
    # and their x = X / Z by one inversion (Montgomery's trick): prods[i] is
    # Z_0 ... Z_i, and a Z with no inverse mod n shows in the gcd of the last
    pts = [odd[j // 2] for j in _BABY]
    prods = [pts[0][1]]
    for _, Z in pts[1:]:
        prods.append(prods[-1] * Z % n)
    if (g := gcd(prods[-1], n)) > 1:
        return g if g < n else None
    inv = pow(prods[-1], -1, n)
    xs = [0] * len(pts)
    for i in range(len(pts) - 1, 0, -1):
        # inv is 1 / prods[i]
        X, Z = pts[i]
        xs[i] = X * prods[i - 1] % n * inv % n
        inv = inv * Z % n
    xs[0] = pts[0][0] * inv % n
    # giant steps: m R for R = _D Q and m from m0, from (m - 1) R + R
    r = _mladder(_D, *q, a24, n)[:2]
    if (g := gcd(r[1], n)) > 1:
        return g if g < n else None
    Xm, Zm, X1, Z1 = _mladder(m0, *r, a24, n)
    prev, cur = (Xm, Zm), (X1, Z1)
    acc = 1
    for js in pairs:
        Xm, Zm = prev
        for i in js:
            acc = acc * (Xm - xs[i] * Zm) % n
        prev, cur = cur, _mxadd(cur, r, prev, n)
    g = gcd(acc, n)
    return g if 1 < g < n else None


def factorize(n: int, *, rho_budget: int = 1 << 22) -> dict[int, int]:
    """Full factorisation {prime: exponent} of |n|, n != 0.

    The primes below 10^4 come out of g = gcd(n, their product), divided
    out in ascending order until p^2 > g, when what is left of g is 1 or
    its largest prime.  Above them each cofactor is pushed once with its
    multiplicity e: a prime is recorded, a perfect power r^k is pushed as
    r with e*k, and any other cofactor is split, both factors pushed with
    e.  A split is tried first by one
    Pollard-Brent walk of about _RHO_SQUARINGS squarings, then, if the
    walk gives none, by ECM (_ecm) until a curve splits it.

    rho_budget counts modular multiplications: every one made by the rho
    walks and by ECM, for all cofactors of n together, with one modulo an
    n of b bits counted 1 + (b // 256)^2 times.  Work that would pass it
    raises FactorBudgetExceeded instead; callers that must not fail should
    catch it and report.  With the default, the |Delta| of the first 40
    draws of random.Random(5) at H = 10^3, with primes of up to 57 bits,
    factor in 1.5 to 1.9 s together, and the 1059-bit cofactor of the Delta
    of y^2 = x^3 + x + 10^160 + 7 raises after 1.8 to 2.2 s (2 cores,
    Python 3.11).
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    budget = _Budget(rho_budget)
    # the primes of g are those of n below the bound; a small n serves as its
    # own g, since reducing the 14277-bit primorial costs about 4 us
    g = n if n < _SMALL_BOUND else gcd(n, _primorial())
    for p in _small_primes():
        if p * p > g:
            break
        if g % p == 0:
            while g % p == 0:  # more than once only where g is n itself
                g //= p
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
    # g has no prime below the last p tried, and p^2 > g: it is 1 or a prime
    if g > 1:
        while n % g == 0:
            out[g] = out.get(g, 0) + 1
            n //= g
    # (cofactor m > 1, multiplicity e): m^e is still to be factored
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, e = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + e
        elif power := _perfect_power(m):
            stack.append((power[0], e * power[1]))
        else:
            d = _pollard_brent(m, budget) or _ecm(m, budget)
            stack += [(d, e), (m // d, e)]
    return out
