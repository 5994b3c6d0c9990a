"""Reduction mod p, point counting over F_p and torsion censuses.

All point counting at odd p goes through one kernel, count_points_b: a
quadratic-character scan over x of the completed square
4x^3 + b2 x^2 + 2 b4 x + b6, p steps.  group_order is the only caller that
needs the count itself; the order tables for p <= 7 are its only other
caller.

Every other caller only asks whether p | #E(F_p), and that is one
predicate, _p_divides_order.  For a prime p >= 7 Hasse's bound
|#E - p - 1| <= 2 sqrt(p) gives 0 < #E < 2p, so p | #E exactly when
#E = p, and that holds exactly when p P = O for one point P != O (such a P
has order p).  So from p = 11 on the predicate runs one x-only Montgomery
ladder on the short model y^2 = x^3 + A x + B, about log2(p) steps; for
p <= 7 it reads a table of the answer for every residue triple, counted by
count_points_b once per process.  The ladder is arith._ladder.  It stops at
k = (p - 1) / 2 and compares the x of k P and (k + 1) P: with 2k + 1 = p
they are equal exactly when p P = O (see _order_is_p), which saves the last
step.  In front of the ladder, one power decides whether the discriminant of
x^3 + A x + B is a square mod p; when it is not, the cubic has one root
(Stickelberger), #E is even, and the answer is no without a ladder.  That
is about half of all curves.

The census and d(p) count no points: by Deuring, the F_p-isomorphism
classes with p | #E(F_p) match the reduced forms of discriminant t^2 - 4p
for the traces t = 1 (mod p) in Hasse's range, which _anomalous_forms
lists, and d(p) weights each class by its automorphisms.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product

from .arith import InputError, _ladder, is_prime, require_odd_prime
from .curves import WeierstrassModel, compute_invariants, format_rational
from .quadforms import _reduced_forms

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

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"reduction needs a prime, got {self.p}")

    @property
    def is_singular(self) -> bool:
        m = WeierstrassModel(self.a1, self.a2, self.a3, self.a4, self.a6)
        return compute_invariants(m).delta % self.p == 0


def reduce_model(model: WeierstrassModel, p: int) -> ReducedCurve:
    # ReducedCurve rejects a p that is not prime, but a % 0 would fail first
    return ReducedCurve(p, *((a % p for a in model) if p else model))


@lru_cache(maxsize=1)
def _chi_table(p: int) -> bytes:
    """chi(x) + 1 for x in F_p, so 0 -> 1, residue -> 2, nonresidue -> 0.

    The table is built once per p, so the check on p costs nothing per count.
    Only the last p is kept: callers count at one p many times in a row, and a
    sweep over p would otherwise keep a table of p bytes for every p.
    """
    require_odd_prime(p)
    t = bytearray(p)
    t[0] = 1
    for x in range(1, p):
        t[x * x % p] = 2
    return bytes(t)


def count_points_b(p: int, b2: int, b4: int, b6: int) -> int:
    """#E(F_p), the point at infinity included, for an odd prime p, from
    b2, b4, b6.

    Completing the square turns the curve into
    (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, so the count is
    p + 1 + sum_x chi(rhs).  The caller guarantees good reduction; a p
    that is not an odd prime raises ValueError.
    """
    chi = _chi_table(p)
    b2, b4, b6 = b2 % p, 2 * b4 % p, b6 % p
    total = 1  # the point at infinity; the table stores chi + 1
    for x in range(p):
        total += chi[(((4 * x + b2) * x + b4) * x + b6) % p]
    return total


# _p_divides_order reads _order_table below _LADDER_FROM and runs the ladder
# from it on.  Per call on 400 random nonsingular (b2, b4, b6) at each p
# (best of 9 rounds of 20 passes, 2 vCPUs, Python 3.11), a table lookup takes
# 0.33 us at every p, and the ladder, with the discriminant test in front,
# 1.2 to 1.3 us at p = 7, 1.7 to 1.8 at 11 and 13 and 2.2 to 2.4 at 31 (the
# count_points_b scan: 1.6 us at 11, 4.0 at 31).  A table is built once per
# process from p^3 counts of p steps: 0.02, 0.11 and 0.37 ms at 3, 5 and 7,
# but 2.1 ms at 11 and 4.0 ms at 13, paid in each process that asks at p,
# forked workers included.  _LADDER_FROM must stay >= 7, where Hasse's bound
# makes p | #E the same as #E = p.
_LADDER_FROM = 11


@cache
def _order_table(p: int) -> bytes:
    """Byte (b2 p + b4) p + b6 is 1 if p | #E(F_p) for the residues b2, b4,
    b6 mod the odd prime p, else 0.  Kept for the life of the process, as
    prime_scan asks once per p per scan."""
    return bytes(count_points_b(p, b2, b4, b6) % p == 0
                 for b2, b4, b6 in product(range(p), repeat=3))


def _p_divides_order(p: int, b2: int, b4: int, b6: int) -> bool:
    """p | #E(F_p), for an odd prime p and good reduction at p."""
    if p >= _LADDER_FROM:
        return _order_is_p(p, b2, b4, b6)
    return _order_table(p)[(b2 % p * p + b4 % p) * p + b6 % p] == 1


def _order_is_p(p: int, b2: int, b4: int, b6: int) -> bool:
    """#E(F_p) == p, i.e. p | #E(F_p), for a prime p >= 7 and good reduction.

    Works on y^2 = x^3 + A x + B with A = -27 c4 and B = -54 c6, which is
    isomorphic to E over F_p for p >= 5.  Its discriminant -4A^3 - 27B^2 is
    2^8 3^12 Delta, a nonzero square times Delta.  If it is not a square,
    Stickelberger's rule gives the cubic exactly one root in F_p, so E has
    one point of order 2, #E is even and the answer is no: about half of all
    curves stop there, before any search or ladder.

    For a square discriminant, P is the point with the least x in 1..p-1
    whose x^3 + A x + B is a nonzero square: x != 0 keeps the differential
    addition defined and y != 0 keeps P off the 2-torsion.  If there is
    none, every affine point has x = 0 or y = 0, so #E <= 6 < p.
    Otherwise arith._ladder, the x-only Montgomery ladder on (X:Z) of the
    short model, gives k P and (k + 1) P for k = (p - 1) / 2, one step short
    of p P, and p P = O exactly when X0 Z1 = X1 Z0 mod p.  That cross
    product vanishes exactly when the two points have the same x, or are
    both O.  Since 2k + 1 = p, (k + 1) P = -k P exactly when p P = O, and
    then neither is O, as P has order p; (k + 1) P = k P, or both O, would
    need P = O; and if only one of them is O, (X:0) with X != 0, the cross
    product is X times the other's Z, both nonzero.
    """
    A = -27 * (b2 * b2 - 24 * b4) % p
    B = 54 * (b2 * (b2 * b2 - 36 * b4) + 216 * b6) % p  # -54 c6
    half = p >> 1
    # -4A^3 - 27B^2 = 2^8 3^12 Delta: a nonsquare means one root, so #E is even
    if pow((-4 * A * A * A - 27 * B * B) % p, half, p) != 1:
        return False
    for x in range(1, p):
        f = ((x * x + A) * x + B) % p
        if pow(f, half, p) == 1:
            break
    else:
        return False
    x0, z0, x1, z1 = _ladder(half, x, A, B, p)
    return (x0 * z1 - x1 * z0) % p == 0


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
    return _p_divides_order(p, good.b2, good.b4, good.b6)


# Odd primes below this bound are the point-count range of sampling, the
# census and d(p).  The census and d(p) count forms and take milliseconds at
# 65521; the bound only keeps the primes they accept unchanged.
_P_BOUND = 1 << 16


def _require_point_count_prime(p: int) -> None:
    require_odd_prime(p)
    if p >= _P_BOUND:
        raise InputError("p must be below 2^16, the point-count range")


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


def _anomalous_forms(p: int) -> Iterator[tuple[int, int, int]]:
    """One reduced form (a, b, c) for each F_p-isomorphism class of curves
    with p | #E(F_p), for an odd prime p: the forms of discriminant t^2 - 4p
    for each trace t = 1 (mod p) with t^2 < 4p, which are t = 1, and
    t = 1 - p at p = 3 and 5.

    #E = p + 1 - t, so p | #E exactly when t = 1 (mod p); such a t is prime
    to p, so the curve is ordinary.  By Deuring, the classes of ordinary
    curves with trace t match the classes of forms of discriminant t^2 - 4p,
    imprimitive forms included (Schoof, J. Combin. Theory A 46 (1987),
    Thm. 4.6), and the automorphisms over F_p of a class are the units of
    its endomorphism ring, the order of its form: 6 for a form (a, a, a)
    (j = 0), 4 for (a, 0, a) (j = 1728) and 2 for every other form.
    """
    for t in (1, 1 - p):  # 1 + p and 1 - 2p lie outside t^2 < 4p at every p
        if t * t < 4 * p:
            yield from _reduced_forms(t * t - 4 * p)


def census_torsion_classes(p: int) -> CensusResult:
    """Number of F_p-isomorphism classes of curves with p | #E(F_p), for odd
    primes p < 2^16: the forms of _anomalous_forms(p)."""
    _require_point_count_prime(p)
    return CensusResult(p, classes=sum(1 for _ in _anomalous_forms(p)))


def d_count(p: int) -> CensusResult:
    """d(p): nonsingular tuples a in W(F_p) with p | #E_a(F_p), for an odd
    prime p < 2^16.

    The changes of variables (u, r, s, t) form a group of (p - 1) p^3
    elements acting on W(F_p), and a tuple's stabiliser is the automorphism
    group of its curve over F_p, so a class with #Aut automorphisms holds
    (p - 1) p^3 / #Aut tuples.  Summed over the classes of
    _anomalous_forms(p), with W the sum of 12 / #Aut, that is 2 for each
    form (a, a, a), 3 for each (a, 0, a) and 6 for every other form,
    d(p) = (p - 1) p^3 W / 12: Deuring's count with Lenstra's weights
    (Ann. of Math. 126 (1987), Prop. 1.9; Schoof, J. Combin. Theory A 46
    (1987), Thm. 4.6).  The tests re-derive it by exhaustive loops.
    """
    _require_point_count_prime(p)
    w = sum(2 if a == b == c else 3 if b == 0 and a == c else 6
            for a, b, c in _anomalous_forms(p))
    return CensusResult(p, d=(p - 1) * p**3 * w // 12)
