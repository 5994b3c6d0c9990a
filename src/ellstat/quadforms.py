"""Positive-definite integral binary quadratic forms under SL2(Z).

The class set B(D) = {a x^2 + b xy + c y^2 : a > 0, b^2 - 4ac = D} for
D < 0 is taken literally: imprimitive forms belong to it, and every class
counts with weight 1.  In particular H(-3) = H(-4) = 1 here, unlike the
classical weighted Hurwitz numbers (which assign 1/3 and 1/2); every
downstream density formula in this package consumes this convention.

One enumeration, `_reduced_forms`, has two consumers: hurwitz_class_number
sorts its forms into a FormClassSet, and finitefield._anomalous_forms,
through which the census, d(p) and density.frak_d_p_prime count the forms
without building one.  It finds the forms
in two ranges of a.  Below _TABLE_A it goes by a, and reads the b in [0, a]
with b^2 = D (mod 4a) from a table of square roots mod 4a, built once per
a; that range holds every form of every D that `theory` counts.  From
_TABLE_A up, reached only at |D| >= 3 _TABLE_A^2, it goes by b and tries
each a in [max(b, _TABLE_A), sqrt(m)] as a divisor of m = (b^2 - D)/4.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from itertools import filterfalse
from math import isqrt

from .arith import InputError

__all__ = [
    "BinaryQuadraticForm",
    "FormClassSet",
    "apply_sl2",
    "reduce_form",
    "hurwitz_class_number",
]

# from _TABLE_A up _reduced_forms tries about 0.07 |D| candidate divisors
# a; at this bound `hurwitz --disc` takes 5 to 7 s in a fresh process
# (Python 3.11, 2 vCPUs)
_MAX_DISC = 10**9


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


# the a below this are read from _roots_mod_4a.  A reduced form has
# 3 a^2 <= |D|, and `theory` counts forms of D = 1 - 4p for p up to
# density._MAX_REPORT_P = 14177, so its a stay at or below
# isqrt((4 * 14177 - 1) / 3) = 137
_TABLE_A = 138


@cache
def _roots_mod_4a(a: int) -> tuple[tuple[int, ...], ...]:
    """At each residue r mod 4a, the b in [0, a] with b^2 = r (mod 4a),
    ascending.  Called only for a < _TABLE_A, so the cache holds at most
    137 tables."""
    n = 4 * a
    roots: list[list[int]] = [[] for _ in range(n)]
    for b in range(a + 1):
        roots[b * b % n].append(b)
    return tuple(map(tuple, roots))


def _reduced_forms(disc: int) -> Iterator[tuple[int, int, int]]:
    """The reduced forms (a, b, c) of discriminant D < 0 (Cohen, GTM 138,
    Alg. 5.3.5): each 0 <= b <= a <= c with b^2 - 4ac = D gives (a, b, c),
    and (a, -b, c) too off the boundary 0 < b < a < c.

    For a < _TABLE_A the b are the square roots of D mod 4a in [0, a], and
    c = (b^2 - D)/4a must reach a.  The larger a are found b first: for
    0 <= b <= sqrt(|D|/3) with b = D mod 2, every divisor a of
    m = (b^2 - D)/4 with max(b, _TABLE_A) <= a <= sqrt(m) gives (a, b, m/a).
    Raises InputError on the first step if D is not a negative discriminant
    or |D| > _MAX_DISC.
    """
    if disc >= 0:
        raise InputError("discriminant must be negative")
    if disc % 4 not in (0, 1):
        raise InputError("discriminant must be 0 or 1 mod 4")
    if -disc > _MAX_DISC:
        raise InputError(f"|discriminant| must be at most {_MAX_DISC}")
    for a in range(1, min(isqrt(-disc // 3), _TABLE_A - 1) + 1):
        n = 4 * a
        for b in _roots_mod_4a(a)[disc % n]:
            c = (b * b - disc) // n
            if c >= a:
                yield a, b, c
                if 0 < b < a < c:
                    yield a, -b, c
    if 3 * _TABLE_A * _TABLE_A > -disc:
        return  # every a is below _TABLE_A
    for b in range(disc % 2, isqrt(-disc // 3) + 1, 2):
        m = (b * b - disc) // 4
        for a in filterfalse(m.__mod__, range(max(b, _TABLE_A), isqrt(m) + 1)):
            c = m // a
            yield a, b, c
            if 0 < b < a < c:
                yield a, -b, c


def hurwitz_class_number(disc: int) -> FormClassSet:
    """H(D): the number of SL2(Z)-classes of forms of discriminant D < 0,
    with their reduced representatives sorted by (a, b)."""
    reps = sorted(_reduced_forms(disc))
    return FormClassSet(disc, tuple(BinaryQuadraticForm(a, b, c) for a, b, c in reps))
