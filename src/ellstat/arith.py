"""Elementary integer arithmetic shared by the curve and statistics modules.

Everything here is exact big-integer arithmetic: primality by Miller-Rabin
(deterministic below 3.3 * 10^24 with a proven witness set, and a strong
probable-prime test to the same 13 bases above it), Pollard-Brent
factorisation with an iteration budget, prime sieves, quadratic residue
tests, integer roots and a power-residue sieve that rejects almost every
non-power before a root is taken.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import gcd, isqrt, prod

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
    p < 2, where no exponent is defined."""
    if p < 2:
        raise ValueError(f"valuation needs a base p >= 2, got {p}")
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
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


# the primes q = 1 (mod k) whose k-th power residues _may_be_kth_power tests;
# only about 1/k of the residues mod such a q are k-th powers, so a random
# non-power passes all of them with probability near k^-_SIEVE_PRIMES
_SIEVE_PRIMES = 8


@cache
def _power_residue_tables(k: int) -> tuple[tuple[int, bytes], ...]:
    """(q, table) for the first _SIEVE_PRIMES primes q = 1 (mod k): table[r]
    is 1 exactly when r is x^k mod q for some x, 0 included."""
    out = []
    for q in _small_primes():
        if q % k == 1:
            table = bytearray(q)
            for x in range(q):
                table[pow(x, k, q)] = 1
            out.append((q, bytes(table)))
            if len(out) == _SIEVE_PRIMES:
                break
    return tuple(out)


def _may_be_kth_power(n: int, k: int) -> bool:
    """False only if n >= 0 is certainly not a k-th power (k >= 2): a k-th
    power is a k-th power residue modulo every prime (Bernstein, "Detecting
    perfect powers in essentially linear time", Math. Comp. 67, 1998)."""
    for q, table in _power_residue_tables(k):
        if not table[n % q]:
            return False
    return True


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(r, k) with r^k = n for the first k in (2, 3, 5, 7) that has one, or
    None; n >= 0.  Sieved before any root is taken."""
    for k in (2, 3, 5, 7):
        if _may_be_kth_power(n, k):
            r, exact = iroot(n, k)
            if exact:
                return r, k
    return None


def _pollard_brent(n: int, max_iter: int) -> int | None:
    """A nontrivial factor of composite n, or None if the budget runs out.  n
    is odd and above 10^8 (factorize strips primes below 10^4), so c = seed != 0 mod n."""
    seed = 1
    while True:
        y, c, m = (seed * 2862933555777941757 + 3037000493) % n, seed, 128
        g = r = q = 1
        x = ys = y
        count = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
            count += r
            if count > max_iter:
                return None
        if g != n:
            return g
        # backtrack when the batched gcd overshot
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1
        if seed > 8:
            return None


def factorize(n: int, *, rho_budget: int = 1 << 22) -> dict[int, int]:
    """Full factorisation {prime: exponent} of |n|, n != 0.

    The primes below 10^4 come out of g = gcd(n, their product), divided
    out in ascending order until g is used up.  Above them each cofactor is
    pushed once with its multiplicity e: a perfect power r^k as r with e*k,
    and both factors of a Pollard-Brent split with e.  Raises
    FactorBudgetExceeded if a composite cofactor survives the rho budget;
    callers that must not fail should catch it and report.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    # the primes of g are those of n below the bound; a small n serves as its
    # own g, since reducing the 14277-bit primorial costs about 4 us
    g = n if n < _SMALL_BOUND else gcd(n, _primorial())
    for p in _small_primes():
        if g == 1 or p * p > n:
            break
        if g % p == 0:
            g //= p
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
    # (cofactor m > 1, multiplicity e): m^e is still to be factored
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, e = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + e
        elif power := _perfect_power(m):
            stack.append((power[0], e * power[1]))
        elif d := _pollard_brent(m, rho_budget):
            stack += [(d, e), (m // d, e)]
        else:
            raise FactorBudgetExceeded(f"no factor of {m} within budget")
    return out
