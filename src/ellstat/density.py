"""Exact local densities and certified bounds for the height-ordered counts.

All table values and finite products are exact rationals; only zeta tails
and infinite products become intervals (CertifiedValue), bracketed by a
partial sum plus an integral or geometric tail.  That keeps identities like
the Kodaira-type partition sum exactly assertable while every analytic
quantity still carries a rigorous enclosure.

Each endpoint `theory` prints is built as one integer numerator over one
integer denominator and normalised once, by Fraction(num, den): through the
zeta(p) tail its denominator reaches 4300 digits, and the generic interval
operators would take a gcd of that size after every + and *.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import prod

from .arith import InputError, iroot, primes_up_to, require_odd_prime
from .curves import format_rational
from .finitefield import _anomalous_forms
from .kodaira import KodairaType

__all__ = [
    "CertifiedValue",
    "AmbiguousIntervalComparison",
    "DensityBoundReport",
    "rho_M",
    "rho",
    "rho_M_In_ge",
    "rho_In_ge",
    "rho_M_Instar_ge1",
    "rho_Instar_ge1",
    "zeta_minus_one",
    "frak_d_p",
    "frak_d_p_prime",
    "product_density",
    "sp_doubleprime_density",
    "main_bound",
    "delaunay_mass",
    "corollary_gap_check",
    "ps_bounds",
    "density_report",
]

DEFAULT_TOL = Fraction(1, 10**9)
# zeta_minus_one truncates the series at N <= this; `theory --p 3 --tol
# 1e-12` asks zeta(3) for tol 10^-12 / 3, which needs N = 2.2 * 10^6.  The
# cap bounds N and the scale 2^k ~ 2N/tol, not the loop: _floor_power_sum
# takes about M + 2^k / M^s steps, 10^4 for zeta(3) at the default tol and
# 2 * 10^5 near the cap
_ZETA_MAX_TERMS = 1 << 22
# zeta_minus_one sums term by term up to M = _ZETA_DIRECT * floor(2^(k/(s+1)));
# 2 was the fastest of 1, 1.5, 2, 2.5, 3 and 4 for zeta(3) at tol 10^-9 / 3
# and 10^-12 / 3
_ZETA_DIRECT = 2
# delaunay_mass keeps an exact product whose denominator is about p^(K^2),
# K growing like log(1/tol) / log p.  Down to this tolerance it has at most
# about 2200 digits wherever the zeta cap above lets `theory` answer, inside
# Python's 4300-digit int-to-str limit; at 10^-400 and p = 10007 it has
# about 10^4.
_MIN_TOL = Fraction(1, 10**100)
# the main bound's endpoints have denominators of about 0.301 p + 6 log10 p
# digits, through the zeta(p) tail 1/((p-1) 2^(p-1)), whatever the tolerance
# down to _MIN_TOL; 14177 is the largest prime whose report (4297 digits)
# prints inside Python's 4300-digit int-to-str limit, 14197 needs 4303
_MAX_REPORT_P = 14177


class AmbiguousIntervalComparison(ValueError):
    """Comparison attempted between overlapping certified intervals."""


@dataclass(frozen=True)
class CertifiedValue:
    """A real number known to lie in [lo, hi], with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, x) -> "CertifiedValue":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def _coerce(self, other) -> "CertifiedValue":
        if isinstance(other, CertifiedValue):
            return other
        return CertifiedValue.exact(other)

    def __add__(self, other):
        o = self._coerce(other)
        return CertifiedValue(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return CertifiedValue(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        prods = [self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi]
        return CertifiedValue(min(prods), max(prods))

    __rmul__ = __mul__

    def __lt__(self, other):
        o = self._coerce(other)
        if self.hi < o.lo:
            return True
        if self.lo > o.hi:
            return False
        raise AmbiguousIntervalComparison(
            f"[{self.lo},{self.hi}] overlaps [{o.lo},{o.hi}]"
        )

    def __gt__(self, other):
        return self._coerce(other) < self

    def to_json_dict(self) -> dict:
        return {"lo": format_rational(self.lo), "hi": format_rational(self.hi)}

    def __str__(self) -> str:
        return f"[{float(self.lo):.10g}, {float(self.hi):.10g}]"


# ---------------------------------------------------------------------------
# Kodaira-type local densities (minimal-equation measures and their scalings)

_ADDITIVE_EXP = {"II": 3, "III": 4, "IV": 5, "I0*": 6, "IV*": 8, "III*": 9, "II*": 10}


def rho_M(T: KodairaType, ell: int) -> Fraction:
    """Measure of minimal local equations of type T at ell, exactly.

    Individual I_n* types are not separately tabulated; use
    rho_M_Instar_ge1 for their aggregate.
    """
    if T.kind == "I0":
        return Fraction(ell - 1, ell)
    if T.kind == "In":
        return Fraction((ell - 1) ** 2, ell ** (T.n + 2))
    if T.kind == "In*":
        raise ValueError("individual I_n* densities are not tabulated; use the aggregate")
    return Fraction(ell - 1, ell ** _ADDITIVE_EXP[T.kind])


def rho_M_In_ge(m: int, ell: int) -> Fraction:
    """Aggregate measure of types I_n with n >= m (m >= 1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return Fraction(ell - 1, ell ** (m + 1))


def rho_M_Instar_ge1(ell: int) -> Fraction:
    """Aggregate measure of types I_n* with n >= 1."""
    return Fraction(ell - 1, ell**7)


def _minimal_to_full(x: Fraction, ell: int) -> Fraction:
    return x / (1 - Fraction(1, ell**10))


def rho(T: KodairaType, ell: int) -> Fraction:
    """Full (not-necessarily-minimal) local density: (1-ell^-10)^-1 rho_M."""
    return _minimal_to_full(rho_M(T, ell), ell)


def rho_In_ge(m: int, ell: int) -> Fraction:
    return _minimal_to_full(rho_M_In_ge(m, ell), ell)


def rho_Instar_ge1(ell: int) -> Fraction:
    return _minimal_to_full(rho_M_Instar_ge1(ell), ell)


# ---------------------------------------------------------------------------
# zeta tails and the d_p / d_p' quantities


def _floor_power_sum(scale: int, s: int, N: int, M: int) -> int:
    """sum_{n=2}^{N} scale // n^s: term by term for n <= M, then one block
    per distinct quotient q, ending at the largest n with n^s <= scale // q.

    Past M ~ scale^(1/(s+1)) the quotient takes at most about scale / M^s
    values, so the whole sum costs about M + scale / M^s steps instead of N
    (Deleglise-Rivat, Experiment. Math. 5 (1996)).
    """
    if not scale >> s:
        return 0  # 2^s > scale: every term is 0
    M = min(M, N)
    total = sum(map(scale.__floordiv__, map(pow, range(2, M + 1), repeat(s))))
    n = M + 1
    while n <= N:
        q = scale // n**s
        if not q:
            break  # every later term is 0 too
        x = scale // q
        # Newton from any r >= 1 lands on or above floor(x^(1/s)) after one
        # step and then decreases to it; starting at n, the root is near
        r = ((s - 1) * n + x // n ** (s - 1)) // s
        while r**s > x:
            r = ((s - 1) * r + x // r ** (s - 1)) // s
        end = min(r, N)
        total += q * (end - n + 1)
        n = end + 1
    return total


def zeta_minus_one(s: int, tol=DEFAULT_TOL) -> CertifiedValue:
    """Certified enclosure of zeta(s) - 1 = sum_{n>=2} n^-s, width < tol.

    The partial sum to N is taken with directed rounding at scale 2^-k,
    sum floor(2^k / n^s), plus the integral tail bound
    0 <= sum_{n>N} n^-s <= N^(1-s)/(s-1).  Each floor is exact, so the
    enclosure depends only on N and k, however the sum is grouped.  Raises
    InputError when the tail needs N > _ZETA_MAX_TERMS (about tol < 10^-13
    at s = 3).  hi is one fraction over 2^k (s - 1) N^(s-1), normalised once.
    """
    if s < 2:
        raise ValueError("s must be an integer >= 2")
    tol = Fraction(tol)
    if tol <= 0:
        raise InputError("tol must be positive")
    # choose N so the integral tail 1/tail_den = 1/((s-1) N^(s-1)) is below
    # tol/2, then the least scale 2^k >= 2 (N + 1) / tol, so that the N-1
    # rounding errors stay below tol/2
    N = 2
    while 2 * tol.denominator >= tol.numerator * (tail_den := (s - 1) * N ** (s - 1)):
        N = max(N + 1, N * 13 // 10)
        if N > _ZETA_MAX_TERMS:
            raise InputError(f"tol too small: zeta({s}) needs more than {_ZETA_MAX_TERMS} terms")
    x = 2 * (N + 1) / tol
    k = max(1, (-(-x.numerator // x.denominator) - 1).bit_length())
    scale = 1 << k
    lo_sum = _floor_power_sum(scale, s, N, _ZETA_DIRECT * iroot(scale, s + 1)[0])
    hi = Fraction((lo_sum + N - 1) * tail_den + scale, scale * tail_den)
    return CertifiedValue(Fraction(lo_sum, scale), hi)


def frak_d_p(p: int, tol=DEFAULT_TOL) -> CertifiedValue:
    """The S_p density bound: zeta(p)-1 for p >= 5, the 3-4-7 sum at p = 3."""
    require_odd_prime(p)
    return _frak_d_p(p, tol)


def _frak_d_p(p: int, tol) -> CertifiedValue:
    """frak_d_p for an odd prime p, unchecked."""
    tol = Fraction(tol)
    if p == 3:
        return sum(zeta_minus_one(s, tol / 3) for s in (3, 4, 7))
    return zeta_minus_one(p, tol)


def frak_d_p_prime(p: int) -> Fraction:
    """The S_p' density bound ((p-1)/2p^2) * N, exactly, where N is the
    number of F_p-isomorphism classes with p | #E(F_p), each counted with
    weight 1 (finitefield._anomalous_forms).

    The density of S_p' itself is d(p)/p^5, which weights a class by
    2/#Aut (finitefield.d_count).  The two agree except where a class has
    more than two automorphisms: at p = 5 (j = 1728, trace -4) and at the
    primes with 4p - 1 = 3f^2 (j = 0, the form (f, f, f)).  There this
    bound is larger, by 4/3 at p = 5 and 3/2 at p = 7.
    """
    require_odd_prime(p)
    return _frak_d_p_prime(p)


def _frak_d_p_prime(p: int) -> Fraction:
    """frak_d_p_prime for an odd prime p, unchecked."""
    h = sum(1 for _ in _anomalous_forms(p))
    return Fraction((p - 1) * h, 2 * p * p)


def product_density(s_values: dict[int, Fraction], tail_majorant) -> CertifiedValue:
    """Certified value of an infinite product prod (1 - s_ell).

    s_values carries the explicitly known factors (all in [0, 1)); the
    omitted factors' sum must be bounded by tail_majorant, giving the
    enclosure  finite_product * [1 - tail, 1].
    """
    tail = Fraction(tail_majorant)
    if tail < 0 or tail >= 1:
        raise ValueError("tail majorant must lie in [0, 1)")
    prod = Fraction(1)
    for ell, s in sorted(s_values.items()):
        s = Fraction(s)
        if not 0 <= s < 1:
            raise ValueError(f"s_{ell} = {s} outside [0, 1)")
        prod *= 1 - s
    return CertifiedValue(prod * (1 - tail), prod)


def sp_doubleprime_density(p: int) -> Fraction:
    """Density of bad reduction at p: 1 - rho(I0, p), exactly.

    This is 1/p + O(p^-10); the proof-level statement rounds it to 1/p.
    """
    return 1 - rho(KodairaType("I0"), p)


def main_bound(p: int, tol=DEFAULT_TOL) -> CertifiedValue:
    """(p^-1 + p^-3 - p^-4) * (1 - p^-1 - frak_d_p - frak_d_p')."""
    require_odd_prime(p)
    return _main_bound(p, _frak_d_p(p, tol), _frak_d_p_prime(p))


def _main_bound(p: int, d_p: CertifiedValue, d_p_prime: Fraction) -> CertifiedValue:
    """front * [x, y], front = (p^3 + p - 1)/p^4, x = 1 - 1/p - d_p.hi - d'_p
    and y = 1 - 1/p - d_p.lo - d'_p.  As front > 0 this is [front x, front y],
    two products where the generic interval product takes four and a min and
    a max; each is one integer fraction, normalised once."""
    f, c, d = p**3 + p - 1, d_p_prime.numerator, d_p_prime.denominator

    def endpoint(dp: Fraction) -> Fraction:  # front * (1 - 1/p - a/b - c/d)
        a, b = dp.numerator, dp.denominator
        return Fraction(f * ((p - 1) * b * d - p * (a * d + b * c)), p**5 * b * d)

    return CertifiedValue(endpoint(d_p.hi), endpoint(d_p.lo))


def delaunay_mass(p: int, tol=DEFAULT_TOL) -> CertifiedValue:
    """Certified 1 - prod_{i>=1} (1 - p^-(2i-1)), width < tol.

    Truncates at the smallest K whose geometric tail sum is below tol/2;
    the dropped factors multiply the finite product by something in
    [1 - tail, 1].  With the product as P/p^(K^2) and the tail as 1/T, P and
    T integers, each endpoint is one fraction, normalised once.  Raises InputError for
    tol below 10^-100 and for a p that is not an odd prime (for p <= 1 the
    tail bound is not positive, and no K would reach tol).
    """
    require_odd_prime(p)
    return _delaunay_mass(p, tol)


def _delaunay_mass(p: int, tol) -> CertifiedValue:
    """delaunay_mass for an odd prime p, unchecked."""
    tol = Fraction(tol)
    if tol <= 0:
        raise InputError("tol must be positive")
    if tol < _MIN_TOL:
        raise InputError("tol must be at least 10^-100")

    def tail_den(k: int) -> int:
        # sum_{i>k} p^-(2i-1), a geometric series, is 1/tail_den(k)
        return (p * p - 1) * p ** (2 * k - 1)

    K = 1
    while 2 * tol.denominator >= tol.numerator * tail_den(K):
        K += 1
    P, q, T = prod(p ** (2 * i - 1) - 1 for i in range(1, K + 1)), p ** (K * K), tail_den(K)
    return CertifiedValue(Fraction(q - P, q), Fraction(q * T - P * (T - 1), q * T))


def corollary_gap_check(p_max: int, eps: float, tol=DEFAULT_TOL) -> dict[int, float]:
    """p^(3/2-eps) * (1/p - main_bound(p).lo) for every odd prime p <= p_max.

    The scaled gap should stay below one fixed constant over the whole
    range; the acceptance suite freezes its maximum as a regression anchor.
    """
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    out: dict[int, float] = {}
    for p in primes_up_to(p_max):
        if p == 2:
            continue
        gap = Fraction(1, p) - main_bound(p, tol).lo
        out[p] = float(p) ** (1.5 - eps) * float(gap)
    return out


def ps_bounds(rank: int, sha_dim: int, i_count: int) -> tuple[int, int]:
    """Clipped lower/upper bounds rank + dim Sha[p] - 1 (+ #I) for
    dim Hom(Cl_K/p, E[p]) under the good-reduction hypotheses."""
    if rank < 0 or sha_dim < 0 or i_count < 0:
        raise ValueError("arguments must be nonnegative")
    if sha_dim % 2 != 0:
        raise ValueError("dim Sha[p] is even (Cassels-Tate)")
    lower = max(0, rank + sha_dim - 1)
    upper = max(lower, rank + sha_dim - 1 + i_count)
    return lower, upper


@dataclass(frozen=True)
class DensityBoundReport:
    p: int
    d_p: CertifiedValue
    d_p_prime: Fraction
    sp2_density: Fraction
    bound: CertifiedValue
    conjecture_mass: CertifiedValue

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "frak_d_p": self.d_p.to_json_dict(),
            "frak_d_p_prime": format_rational(self.d_p_prime),
            "sp_doubleprime_density": format_rational(self.sp2_density),
            "main_bound": self.bound.to_json_dict(),
            "conjecture_mass": self.conjecture_mass.to_json_dict(),
        }


def density_report(p: int, tol=DEFAULT_TOL) -> DensityBoundReport:
    """Every quantity `theory` prints at p; InputError for p > _MAX_REPORT_P
    and for a p that is not an odd prime, which is checked once here."""
    if p > _MAX_REPORT_P:
        raise InputError(f"p must be at most {_MAX_REPORT_P}: the exact bounds at larger p "
                         f"have more than 4300 digits")
    require_odd_prime(p)
    d_p, d_p_prime = _frak_d_p(p, tol), _frak_d_p_prime(p)
    return DensityBoundReport(
        p=p,
        d_p=d_p,
        d_p_prime=d_p_prime,
        sp2_density=sp_doubleprime_density(p),
        bound=_main_bound(p, d_p, d_p_prime),
        conjecture_mass=_delaunay_mass(p, tol),
    )
