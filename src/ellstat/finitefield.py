"""Reduction mod p, point counting over F_p and torsion censuses.

All point counting at odd p goes through one kernel, count_points_b: a
quadratic-character scan over x of the completed square
4x^3 + b2 x^2 + 2 b4 x + b6 (fine for the desk-scale p < 2^16 used here;
no Schoof).  The censuses behind the class-number cross-check enumerate
short-form representatives modulo the s^4/s^6 scaling for p >= 5 and the
characteristic-3 normal form y^2 = cubic modulo its translation group for
p = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .arith import require_odd_prime
from .curves import WeierstrassModel, compute_invariants, format_rational

__all__ = [
    "ReducedCurve",
    "CensusResult",
    "BadReductionError",
    "reduce_model",
    "count_points_b",
    "group_order",
    "is_anomalous",
    "census_torsion_classes",
    "d_count",
]


class BadReductionError(ValueError):
    """A good-reduction-only operation was called at a bad prime."""


@dataclass(frozen=True)
class ReducedCurve:
    p: int
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    @property
    def is_singular(self) -> bool:
        m = WeierstrassModel(self.a1, self.a2, self.a3, self.a4, self.a6)
        return compute_invariants(m).delta % self.p == 0


def reduce_model(model: WeierstrassModel, p: int) -> ReducedCurve:
    a1, a2, a3, a4, a6 = (a % p for a in model)
    return ReducedCurve(p, a1, a2, a3, a4, a6)


@cache
def _chi_table(p: int) -> bytes:
    """chi(x) + 1 for x in F_p, so 0 -> 1, residue -> 2, nonresidue -> 0."""
    t = bytearray(p)
    t[0] = 1
    for x in range(1, p):
        t[x * x % p] = 2
    return bytes(t)


def count_points_b(p: int, b2: int, b4: int, b6: int) -> int:
    """#E(F_p), the point at infinity included, for odd p, from b2, b4, b6.

    Completing the square turns the curve into
    (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, so the count is
    p + 1 + sum_x chi(rhs).  The caller guarantees good reduction.
    """
    chi = _chi_table(p)
    b2, b4, b6 = b2 % p, 2 * b4 % p, b6 % p
    total = 1  # the point at infinity; the table stores chi + 1
    for x in range(p):
        total += chi[(((4 * x + b2) * x + b4) * x + b6) % p]
    return total


def group_order(curve: ReducedCurve) -> int:
    """#E(F_p) including the point at infinity, by full x-scan."""
    p = curve.p
    inv = compute_invariants(WeierstrassModel(curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    if inv.delta % p == 0:
        raise ValueError("group order undefined for a singular reduction")
    if p == 2:
        count = 1
        for x in (0, 1):
            for y in (0, 1):
                lhs = (y * y + curve.a1 * x * y + curve.a3 * y) % 2
                rhs = (x**3 + curve.a2 * x * x + curve.a4 * x + curve.a6) % 2
                if lhs == rhs:
                    count += 1
        return count
    return count_points_b(p, inv.b2, inv.b4, inv.b6)


def is_anomalous(model: WeierstrassModel, p: int) -> bool:
    """True iff p divides #E~(F_p), i.e. a_p = 1 (mod p).

    Requires odd p and good reduction at p; reduction is decided on the
    p-minimal model, so non-minimal inputs with good reduction are accepted.
    """
    from .localdata import _good_invariants  # localdata imports this module

    require_odd_prime(p)
    inv = compute_invariants(model)
    if inv.delta == 0:
        raise BadReductionError("singular curve")
    good = _good_invariants(model, inv, p)
    if good is None:
        raise BadReductionError(f"bad reduction at {p}")
    return count_points_b(p, good.b2, good.b4, good.b6) % p == 0


@dataclass(frozen=True)
class CensusResult:
    p: int
    classes: int | None = None
    d: int | None = None

    @property
    def d_over_p5(self) -> Fraction | None:
        if self.d is None:
            return None
        return Fraction(self.d, self.p**5)

    def to_json_dict(self) -> dict:
        out: dict = {"p": self.p}
        if self.classes is not None:
            out["classes"] = self.classes
        if self.d is not None:
            out["d"] = self.d
            out["d_over_p5"] = format_rational(self.d_over_p5)
        return out


def census_torsion_classes(p: int) -> CensusResult:
    """Number of F_p-isomorphism classes of elliptic curves with p | #E(F_p).

    For p >= 5 classes are orbits of short forms (c, d) under
    (c, d) ~ (s^4 c, s^6 d); for p = 3 they are orbits of the normal form
    y^2 = x^3 + a2 x^2 + a4 x + a6 under x -> x + r (the u-scalings act
    trivially on coefficients in characteristic 3).
    """
    require_odd_prime(p)
    if p >= 1 << 10:
        raise ValueError("census expects an odd prime below 2^10")
    count = 0
    if p == 3:
        seen = set()
        for a2 in range(3):
            for a4 in range(3):
                for a6 in range(3):
                    if (a2, a4, a6) in seen:
                        continue
                    orbit = set()
                    for r in range(3):
                        na4 = (2 * a2 * r + a4) % 3
                        na6 = (r**3 + a2 * r * r + a4 * r + a6) % 3
                        orbit.add((a2, na4, na6))
                    seen |= orbit
                    inv = compute_invariants(WeierstrassModel(0, a2, 0, a4, a6))
                    if inv.delta % 3 == 0:
                        continue
                    if count_points_b(3, inv.b2, inv.b4, inv.b6) % 3 == 0:
                        count += 1
        return CensusResult(p, classes=count)
    visited = bytearray(p * p)
    for c in range(p):
        for d in range(p):
            if visited[c * p + d]:
                continue
            for s in range(1, p):
                visited[(c * pow(s, 4, p)) % p * p + (d * pow(s, 6, p)) % p] = 1
            if (4 * c**3 + 27 * d * d) % p == 0:
                continue
            # y^2 = x^3 + c x + d has (b2, b4, b6) = (0, 2c, 4d)
            if count_points_b(p, 0, 2 * c, 4 * d) % p == 0:
                count += 1
    return CensusResult(p, classes=count)


def d_count(p: int) -> CensusResult:
    """d(p): nonsingular tuples a in W(F_p) with p | #E_a(F_p).

    Singular tuples are excluded (E_a(F_p) is undefined for them).  The
    count over all p^5 tuples factors exactly: for each of the p^2 choices
    of (a1, a3), the map (a2, a4, a6) -> (b2, b4, b6) is a bijection of
    F_p^3, and both the discriminant and the point count depend only on
    (b2, b4, b6).  The test suite re-derives small cases by the literal
    quintuple loop.
    """
    require_odd_prime(p)
    if p > 13:
        raise ValueError("exhaustive d(p) supports odd p <= 13")
    inv4 = pow(4, -1, p)
    hits = 0
    for b2 in range(p):
        for b4 in range(p):
            for b6 in range(p):
                b8 = (b2 * b6 - b4 * b4) * inv4 % p
                delta = (-b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6) % p
                if delta == 0:
                    continue
                if count_points_b(p, b2, b4, b6) % p == 0:
                    hits += 1
    return CensusResult(p, d=p * p * hits)
