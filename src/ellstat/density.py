"""Exact local densities and certified bounds for the height-ordered counts.

All table values and finite products are exact rationals; only zeta tails
and infinite products become intervals (CertifiedValue), bracketed by a
partial sum plus an integral or geometric tail.  That keeps identities like
the Kodaira-type partition sum exactly assertable while every analytic
quantity still carries a rigorous enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import primes_up_to, require_odd_prime
from .curves import format_rational
from .kodaira import KodairaType
from .quadforms import hurwitz_class_number

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
# zeta_minus_one sums at most this many terms; `theory --p 3 --tol 1e-12`
# asks zeta(3) for tol 10^-12 / 3, which needs 2.2 * 10^6
_ZETA_MAX_TERMS = 1 << 22
# delaunay_mass keeps an exact product whose denominator is about p^(K^2),
# K growing like log(1/tol) / log p.  Down to this tolerance it has at most
# about 2200 digits wherever the zeta cap above lets `theory` answer, inside
# Python's 4300-digit int-to-str limit; at 10^-400 and p = 10007 it has
# about 10^4.
_MIN_TOL = Fraction(1, 10**100)


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


def zeta_minus_one(s: int, tol=DEFAULT_TOL) -> CertifiedValue:
    """Certified enclosure of zeta(s) - 1 = sum_{n>=2} n^-s, width < tol.

    Partial sum with directed rounding at scale 2^-k plus the integral tail
    bound 0 <= sum_{n>N} n^-s <= N^(1-s)/(s-1).  Raises ValueError when the
    tail needs more than _ZETA_MAX_TERMS terms (about tol < 10^-13 at s = 3).
    """
    if s < 2:
        raise ValueError("s must be an integer >= 2")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    # choose N so the integral tail is below tol/2, then the least scale 2^k
    # >= 2 (N + 1) / tol, so that the N-2 rounding errors stay below tol/2
    N = 2
    while Fraction(N, (s - 1) * N**s) >= tol / 2:
        N = max(N + 1, int(1.3 * N))
        if N > _ZETA_MAX_TERMS:
            raise ValueError(f"tol too small: zeta({s}) needs more than {_ZETA_MAX_TERMS} terms")
    x = 2 * (N + 1) / tol
    k = max(1, (-(-x.numerator // x.denominator) - 1).bit_length())
    scale = 1 << k
    lo_sum = 0
    terms = 0
    for n in range(2, N + 1):
        lo_sum += scale // n**s
        terms += 1
    tail_hi = Fraction(N, (s - 1) * N**s)  # = N^(1-s)/(s-1)
    lo = Fraction(lo_sum, scale)
    hi = Fraction(lo_sum + terms, scale) + tail_hi
    return CertifiedValue(lo, hi)


def frak_d_p(p: int, tol=DEFAULT_TOL) -> CertifiedValue:
    """The S_p density bound: zeta(p)-1 for p >= 5, the 3-4-7 sum at p = 3."""
    require_odd_prime(p)
    tol = Fraction(tol)
    if p == 3:
        return sum(zeta_minus_one(s, tol / 3) for s in (3, 4, 7))
    return zeta_minus_one(p, tol)


def frak_d_p_prime(p: int) -> Fraction:
    """The S_p' density bound ((p-1)/2p^2) * (class-number sum), exactly."""
    require_odd_prime(p)
    h = hurwitz_class_number(1 - 4 * p).h
    if p <= 5:
        h += hurwitz_class_number(p * p + 1 - 6 * p).h
    return Fraction(p - 1, 2 * p * p) * h


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
    return _main_bound(p, frak_d_p(p, tol), frak_d_p_prime(p))


def _main_bound(p: int, d_p: CertifiedValue, d_p_prime: Fraction) -> CertifiedValue:
    front = Fraction(1, p) + Fraction(1, p**3) - Fraction(1, p**4)
    return front * (1 - Fraction(1, p) - d_p - d_p_prime)


def delaunay_mass(p: int, tol=DEFAULT_TOL) -> CertifiedValue:
    """Certified 1 - prod_{i>=1} (1 - p^-(2i-1)), width < tol.

    Truncates at the smallest K whose geometric tail sum is below tol/2;
    the dropped factors multiply the finite product by something in
    [1 - tail, 1].  Raises ValueError for tol below 10^-100.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if tol < _MIN_TOL:
        raise ValueError("tol must be at least 10^-100")

    def tail_sum(k: int) -> Fraction:
        # sum_{i>k} p^-(2i-1), a geometric series
        return Fraction(p * p, (p * p - 1) * p ** (2 * k + 1))

    K = 1
    while tail_sum(K) >= tol / 2:
        K += 1
    prod = Fraction(1)
    for i in range(1, K + 1):
        prod *= 1 - Fraction(1, p ** (2 * i - 1))
    return CertifiedValue(1 - prod, 1 - prod * (1 - tail_sum(K)))


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
    d_p, d_p_prime = frak_d_p(p, tol), frak_d_p_prime(p)
    return DensityBoundReport(
        p=p,
        d_p=d_p,
        d_p_prime=d_p_prime,
        sp2_density=sp_doubleprime_density(p),
        bound=_main_bound(p, d_p, d_p_prime),
        conjecture_mass=delaunay_mass(p, tol),
    )
