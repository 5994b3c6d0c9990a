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
from json.encoder import encode_basestring_ascii
from math import prod
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
    """The b-, c- and discriminant invariants of a long Weierstrass tuple;
    b8 and Delta come from 4 b8 = b2 b6 - b4^2 and 1728 Delta = c4^3 - c6^2
    (Silverman, AEC III.1)."""
    a1, a2, a3, a4, a6 = model
    b2 = a1 * a1 + 4 * a2
    b4 = a1 * a3 + 2 * a4
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    return tuple.__new__(Invariants, (b2, b4, b6, (b2 * b6 - b4 * b4) // 4, c4, c6,
                                      (c4 * c4 * c4 - c6 * c6) // 1728))


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
    if u == 1:
        return tuple.__new__(WeierstrassModel, (n1, n2, n3, n4, n6))
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


def curve_from_j(j: Fraction, *, minimize_conductor: bool = False) -> WeierstrassModel:
    """An integral model with the given j-invariant.

    With minimize_conductor=True it is the quadratic twist of least
    conductor, ties broken toward small |d|, then positive d.  The base is a
    short model y^2 = x^3 + A x + B, its twist by d is y^2 = x^3 + A d^2 x
    + B d^3, and the exponent f_ell at a prime ell depends only on how the
    twist character chi_d restricts to inertia at ell:

    - at an odd ell it is trivial exactly when ell does not divide d
      (Serre-Tate, Ann. Math. 88, 1968), so an odd prime of good reduction
      in d raises f from 0 to 2, and f_ell at an odd ell | Delta(base)
      depends only on whether ell | d;
    - at 2 it depends only on the class of d modulo 5 and the squares of
      Q_2^*, as Q_2(sqrt 5) is unramified: on whether 2 | d and on
      d / 2^v(d) mod 4.

    So the least conductor is reached at some d | 2 rad(Delta(base)).  Each
    odd ell | Delta(base) is in d exactly when that lowers f_ell, which one
    twist by the product M of those ell decides for all of them at once:
    every other prime of M is a unit at ell.  Let m be the product of the
    ell whose f_ell drops.  As -1 and 2 are units at every odd ell, the four
    candidates m, -m, 2m and -2m share every odd f_ell and reach all four
    classes at 2; the least f_2 among them, in that order, is the answer.
    Sage's `minimal_quadratic_twist` computes the same object.
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
    from .localdata import _tate_run  # deferred: localdata sits above this module

    A, B = base.a4, base.a6

    def twist(d: int) -> WeierstrassModel:
        return WeierstrassModel(0, 0, 0, A * d * d, B * d**3)

    def f(model: WeierstrassModel, ell: int) -> int:
        return _tate_run(model, ell)[1].conductor_exponent

    odd = [ell for ell in factorize(compute_invariants(base).delta) if ell != 2]
    twisted = twist(prod(odd))
    m = prod(ell for ell in odd if f(twisted, ell) < f(base, ell))
    # min keeps the first of equal f_2, so the order is the tie rule
    return twist(min((m, -m, 2 * m, -2 * m), key=lambda d: f(twist(d), 2)))


def format_rational(x: Fraction) -> str:
    """Exact rationals serialise as "p/q" in lowest terms, "n" when q = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)


# how json writes each value that is not a container, by exact type
_JSON_SCALAR = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_text(obj, indent: str = "\n") -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, for
    dicts with str keys, lists, tuples, str, int, bool, None and float.

    json's encoder takes its pure-Python path whenever indent is set; this
    writer skips its generators and its cycle check.  Anything else raises
    TypeError, a non-str key included (encode_basestring_ascii refuses it).
    """
    write = _JSON_SCALAR.get(type(obj))
    if write is not None:
        return write(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in sorted(obj.items()):
            write = _JSON_SCALAR.get(type(value))
            items.append(encode_basestring_ascii(key) + ": "
                         + (write(value) if write is not None else _json_text(value, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in obj]) + indent + "]"
    for base in (str, int, float):  # a subclass is written as json writes its base
        if isinstance(obj, base):
            return _JSON_SCALAR[base](obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())
