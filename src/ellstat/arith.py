"""Elementary integer arithmetic shared by the curve and statistics modules.

Everything here is exact big-integer arithmetic: deterministic primality
(Miller-Rabin with a proven witness set below 3.3 * 10^24, extra rounds
above), Pollard-Brent factorisation with an iteration budget, prime sieves,
quadratic residue tests and integer roots.
"""

from __future__ import annotations

from functools import cache
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
]


class FactorBudgetExceeded(Exception):
    """Raised when an integer resists factorisation within its budget."""


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


@cache
def primes_up_to(limit: int) -> list[int]:
    """Cached variant of sieve_primes for the bounds used repeatedly."""
    return sieve_primes(limit)


# factorize finds the primes below this bound by one gcd with their product
_SMALL_BOUND = 10_000


@cache
def _primorial() -> int:
    return prod(primes_up_to(_SMALL_BOUND))


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
    """Raise ValueError unless p is an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else 1


def valuation(n: int, p: int) -> int:
    """Exponent of p in n.  Raises for n = 0 (infinite valuation)."""
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


def _pollard_brent(n: int, max_iter: int) -> int | None:
    """A nontrivial factor of composite n, or None if the budget runs out."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = (seed * 2862933555777941757 + 3037000493) % n, seed % n, 128
        if c == 0:
            c = 1
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
    out in ascending order until g is used up; Pollard-Brent splits what is
    left.  Raises FactorBudgetExceeded if a composite cofactor survives the
    rho budget; callers that must not fail should catch it and report.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    # the primes of g are those of n below the bound; a small n serves as its
    # own g, since reducing the 14277-bit primorial costs about 4 us
    g = n if n < _SMALL_BOUND else gcd(n, _primorial())
    for p in primes_up_to(_SMALL_BOUND):
        if g == 1 or p * p > n:
            break
        if g % p == 0:
            g //= p
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        for k in (2, 3, 5):
            r, exact = iroot(m, k)
            if exact:
                stack.extend([r] * k)
                break
        else:
            d = _pollard_brent(m, rho_budget)
            if d is None:
                raise FactorBudgetExceeded(f"no factor of {m} within budget")
            stack.extend([d, m // d])
    return out
