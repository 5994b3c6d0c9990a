"""Exact arithmetic on long Weierstrass equations over Z.

A model is the integer 5-tuple (a1, a2, a3, a4, a6) of

    Y^2 + a1*X*Y + a3*Y = X^3 + a2*X^2 + a4*X + a6.

Singular tuples (discriminant 0) are first-class values: samplers and
censuses count them, so constructing one is never an error.  Heights are
compared through the exponent-12 integer normalisation |a_i|^(12/i), which
makes every comparison exact at box boundaries.

WeierstrassModel and Invariants are typing.NamedTuple classes: immutable,
hashed as their field tuple, iterable, and equal to a plain tuple of the
same values.  Sampling builds a model and its invariants for every draw,
and a tuple is the cheapest immutable record to build.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .arith import factorize

__all__ = [
    "WeierstrassModel",
    "Invariants",
    "HeightKey",
    "SingularCurveError",
    "NonIntegralTransformError",
    "compute_invariants",
    "j_invariant",
    "height_key",
    "height_lt",
    "height_compare",
    "height_sort_key",
    "transform",
    "quadratic_twist",
    "zywina_j2",
    "curve_from_j",
    "format_rational",
    "parse_rational",
]


class SingularCurveError(ValueError):
    """An operation that needs a nonzero discriminant met a singular tuple."""


class NonIntegralTransformError(ValueError):
    """The requested change of variables does not land in integer coefficients."""


class WeierstrassModel(NamedTuple):
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def coefficients(self) -> tuple[int, int, int, int, int]:
        """(a1, a2, a3, a4, a6) as a plain tuple."""
        return tuple(self)

    @property
    def is_singular(self) -> bool:
        return compute_invariants(self).delta == 0

    def __str__(self) -> str:
        return ",".join(map(str, self))

    @classmethod
    def from_string(cls, text: str) -> "WeierstrassModel":
        """Parse the wire format "a1,a2,a3,a4,a6" (decimal, optional sign)."""
        parts = text.split(",")
        if len(parts) != 5:
            raise ValueError(f"expected 5 comma-separated integers, got {text!r}")
        return cls(*(int(p.strip()) for p in parts))


class Invariants(NamedTuple):
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    delta: int


def compute_invariants(model: WeierstrassModel) -> Invariants:
    """The b-, c- and discriminant invariants of a long Weierstrass tuple."""
    a1, a2, a3, a4, a6 = model
    b2 = a1 * a1 + 4 * a2
    b4 = a1 * a3 + 2 * a4
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return Invariants(b2, b4, b6, b8, c4, c6, delta)


def j_invariant(model: WeierstrassModel) -> Fraction:
    """j = c4^3 / delta as an exact rational in lowest terms."""
    inv = compute_invariants(model)
    if inv.delta == 0:
        raise SingularCurveError("j-invariant undefined: discriminant is 0")
    return Fraction(inv.c4**3, inv.delta)


# a_i has weight i: the height box is |a_i| < H^i, and 12 // i normalises
# |a_i| to the common exponent 12 = lcm of the weights
_WEIGHTS = (1, 2, 3, 4, 6)


def _box(height: int) -> list[tuple[int, int]]:
    """(lowest value, number of values) of each coefficient in the height
    box |a_i| < H^i."""
    return [(1 - height**w, 2 * height**w - 1) for w in _WEIGHTS]


@dataclass(frozen=True)
class HeightKey:
    """Per-coefficient |a_i|^(12/i) plus their maximum; compares exactly."""

    normalized: tuple[int, int, int, int, int]
    max_value: int


def height_key(model: WeierstrassModel) -> HeightKey:
    norm = tuple(abs(a) ** (12 // w) for a, w in zip(model, _WEIGHTS))
    return HeightKey(norm, max(norm))


def height_lt(model: WeierstrassModel, x: int) -> bool:
    """True iff |a_i| < x^i for every i, i.e. ht(model) < x."""
    if x < 1:
        raise ValueError("height cutoff must be a positive integer")
    return all(abs(a) < x**w for a, w in zip(model, _WEIGHTS))


def height_compare(m1: WeierstrassModel, m2: WeierstrassModel) -> int:
    """-1, 0 or 1 as ht(m1) <, =, > ht(m2), decided in exact arithmetic."""
    h1 = height_key(m1).max_value
    h2 = height_key(m2).max_value
    return (h1 > h2) - (h1 < h2)


def height_sort_key(model: WeierstrassModel) -> tuple:
    """Sort key for deterministic listings: height first, then the
    coefficient tuple lexicographically (ties of equal height are broken
    that way by convention)."""
    return (height_key(model).max_value, tuple(model))


def transform(model: WeierstrassModel, u: int, r: int, s: int, t: int) -> WeierstrassModel:
    """Change of variables x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

    The result has delta' * u^12 = delta and the same j-invariant.  Raises
    NonIntegralTransformError when the new coefficients are not integers.
    """
    if u == 0:
        raise ValueError("u must be nonzero")
    a1, a2, a3, a4, a6 = model
    n1 = a1 + 2 * s
    n2 = a2 - s * a1 + 3 * r - s * s
    n3 = a3 + r * a1 + 2 * t
    n4 = a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t
    n6 = a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1
    coeffs = []
    for n, w in zip((n1, n2, n3, n4, n6), _WEIGHTS):
        d = u**w
        if n % d != 0:
            raise NonIntegralTransformError(
                f"coefficient {n} not divisible by u^{w} = {d}"
            )
        coeffs.append(n // d)
    return WeierstrassModel(*coeffs)


def quadratic_twist(model: WeierstrassModel, d: int) -> WeierstrassModel:
    """The quadratic twist by a nonzero squarefree integer d.

    Short models y^2 = x^3 + A x + B go to y^2 = x^3 + A d^2 x + B d^3.
    Long models are completed to the short form y^2 = x^3 - 27 c4 x - 54 c6
    (isomorphic over Q) before twisting.  The result is integral but not
    necessarily minimal.
    """
    if d == 0:
        raise ValueError("twist parameter must be nonzero")
    if any(e > 1 for e in factorize(d).values()):
        raise ValueError(f"twist parameter {d} is not squarefree")
    if model.a1 == 0 and model.a2 == 0 and model.a3 == 0:
        return WeierstrassModel(0, 0, 0, model.a4 * d * d, model.a6 * d**3)
    inv = compute_invariants(model)
    return WeierstrassModel(0, 0, 0, -27 * inv.c4 * d * d, -54 * inv.c6 * d**3)


def zywina_j2(t: Fraction) -> Fraction:
    """The split-Cartan j-line  27 (t+1)^3 (t-3)^3 / t^3."""
    t = Fraction(t)
    if t == 0:
        raise ZeroDivisionError("j2 has a pole at t = 0")
    return 27 * (t + 1) ** 3 * (t - 3) ** 3 / t**3


def curve_from_j(
    j: Fraction,
    *,
    minimize_conductor: bool = False,
    twist_bound: int = 100,
) -> WeierstrassModel:
    """An integral model with the given j-invariant.

    With minimize_conductor=True the conductor is minimised over quadratic
    twists by squarefree d with |d| <= twist_bound.  That bounded search is a
    heuristic stand-in for a true smallest-conductor model; ties break toward
    small |d|, then positive d.
    """
    j = Fraction(j)
    if j == 0:
        base = WeierstrassModel(0, 0, 0, 0, 1)
    elif j == 1728:
        base = WeierstrassModel(0, 0, 0, -1, 0)
    else:
        p, q = j.numerator, j.denominator
        k = p - 1728 * q
        base = WeierstrassModel(0, 0, 0, -3 * p * k * q * q, -2 * p * k * k * q**3)
    if not minimize_conductor:
        return base
    from .localdata import conductor  # deferred: localdata sits above this module

    best: tuple[int, int, int] | None = None
    best_model = base
    for absd in range(1, twist_bound + 1):
        for d in (absd, -absd):
            try:
                twisted = quadratic_twist(base, d)
            except ValueError:
                break  # not squarefree; same for both signs
            key = (conductor(twisted), absd, 0 if d > 0 else 1)
            if best is None or key < best:
                best = key
                best_model = twisted
    return best_model


def format_rational(x: Fraction) -> str:
    """Exact rationals serialise as "p/q" in lowest terms, "n" when q = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())
