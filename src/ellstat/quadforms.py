"""Positive-definite integral binary quadratic forms under SL2(Z).

The class set B(D) = {a x^2 + b xy + c y^2 : a > 0, b^2 - 4ac = D} for
D < 0 is taken literally: imprimitive forms belong to it, and every class
counts with weight 1.  In particular H(-3) = H(-4) = 1 here, unlike the
classical weighted Hurwitz numbers (which assign 1/3 and 1/2); every
downstream density formula in this package consumes this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

__all__ = [
    "BinaryQuadraticForm",
    "FormClassSet",
    "apply_sl2",
    "reduce_form",
    "hurwitz_class_number",
]


@dataclass(frozen=True)
class BinaryQuadraticForm:
    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (-a < b <= a <= c):
            return False
        return b >= 0 if (b == a or a == c) else True

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class FormClassSet:
    discriminant: int
    representatives: tuple[BinaryQuadraticForm, ...]

    @property
    def h(self) -> int:
        return len(self.representatives)

    def to_json_dict(self) -> dict:
        return {
            "delta": self.discriminant,
            "H": self.h,
            "forms": [list(f.as_tuple()) for f in self.representatives],
        }


def apply_sl2(form: BinaryQuadraticForm, sigma) -> BinaryQuadraticForm:
    """Substitute x -> p x + q y, y -> r x + s y for sigma = ((p,q),(r,s)).

    sigma must have determinant 1; the discriminant is unchanged.
    """
    (p, q), (r, s) = sigma
    if p * s - q * r != 1:
        raise ValueError("matrix must have determinant 1")
    a, b, c = form.a, form.b, form.c
    na = a * p * p + b * p * r + c * r * r
    nb = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
    nc = a * q * q + b * q * s + c * s * s
    return BinaryQuadraticForm(na, nb, nc)


def reduce_form(form: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Gauss reduction to the unique representative with |b| <= a <= c
    (and b >= 0 on the boundary |b| = a or a = c)."""
    a, b, c = form.a, form.b, form.c
    if b * b - 4 * a * c >= 0:
        raise ValueError("reduction requires negative discriminant")
    if a <= 0:
        raise ValueError("reduction requires a > 0")
    while True:
        if b > a or b <= -a:
            # translate b into (-a, a]
            k = (a - b) // (2 * a)
            b, c = b + 2 * k * a, a * k * k + b * k + c
        if a > c:
            a, b, c = c, -b, a
            continue
        break
    if b < 0 and (b == -a or a == c):
        b = -b
    return BinaryQuadraticForm(a, b, c)


def hurwitz_class_number(disc: int) -> FormClassSet:
    """H(D): the number of SL2(Z)-classes of forms of discriminant D < 0.

    Enumerates reduced forms directly: 0 < a <= sqrt(|D|/3), |b| <= a with
    b = D mod 2, c = (b^2 - D)/(4a) integral and >= a, boundary ties b >= 0.
    """
    if disc >= 0:
        raise ValueError("discriminant must be negative")
    if disc % 4 not in (0, 1):
        raise ValueError("discriminant must be 0 or 1 mod 4")
    reps = []
    a_max = isqrt(-disc // 3)
    for a in range(1, a_max + 1):
        for b in range(-a + 1, a + 1):
            if (b - disc) % 2 != 0:
                continue
            num = b * b - disc
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (b == -a or a == c):
                continue  # boundary classes are counted at b >= 0
            reps.append(BinaryQuadraticForm(a, b, c))
    return FormClassSet(disc, tuple(reps))
