"""Tate's algorithm and the local invariants built on it.

tate() runs the full algorithm at any prime, including the wild cases at
2 and 3, minimising the model on the way (step-11 rescalings).  The
conductor exponent comes out of Ogg's relation f = v(D_min) + 1 - m with m
the component count of the Kodaira type, which is valid at every prime.
Every F_p quadratic of the algorithm is read by one rule, _quadratic, which
returns a double root for the next shift.  Types IV and IV* and the Y-side
steps of the I_n* chain read Y^2 + a3,e Y - a6,2e at e = 1, 2 and (n + 3)/2
(_y_quadratic; Silverman, Advanced Topics, IV.9.4, steps 5, 8 and 7), and
its X-side steps read a2,1 X^2 + a4,e+1 X + a6,2e+1 at e = (n + 2)/2.
_tate_run's first pass takes the caller's invariants when it has them
(classify, _good_invariants and _local_table do), and only a pass after a
rescaling computes its own.  The type III test reads b8 of the cusp-shifted
model by the translation formula b8 + 3r b6 + 3r^2 b4 + r^3 b2 + 3r^4, since
the b_i move with r alone, so a run that stops at II or III computes no
invariants.  The cusp shift and the II, III and IV tests are one function,
_cusp_steps; _residue_type runs it on the a_i mod 4 to type at 2 every model
of a residue class at once.  The residue tables, _type_table, hold its type
of every residue class at ell <= 5; the sampler and classify look draws up
in them instead of running Tate.  Beside _residue_type sits _kodaira_label,
the sampler's rule for a draw its table leaves open and for every draw above
ell = 5: from one computation of the invariants it reads I0 where ell is
prime to Delta and I_v, v = v_ell(Delta), where ell is prime to c4, so only
a draw with ell | c4 gets a Tate run.
Roots of the I0* cubic are counted by T^p = T mod f and Stickelberger's
parity rule on its discriminant (brute force only at 2).

A Tate run builds one record, its LocalData, and no Kodaira type: the eight
types without an index are shared module constants, and I_n and I_n* come
from caches keyed by n that keep the 256 most recent, so they do not grow
with the input.  LocalData is a typing.NamedTuple, like WeierstrassModel and
Invariants (see curves): immutable, hashed as its field tuple, and equal to
a plain tuple of the same values; _tate_run builds it, and transform its
models, by tuple.__new__, which skips the NamedTuple's Python-level
__new__.  Sampling at a fixed ell once ran Tate on every draw the residue
table left open, and the records were most of that cost: on a sampled
H = 10^3 chunk at ell = 2 (2 cores, Python 3.11), a frozen-dataclass
LocalData and a new KodairaType took 3.8 us of a 6.6 us run; the NamedTuple
and a shared type take 0.7 us of 3.0 us.  prime_scan's PrimeScanRow is a
NamedTuple for the same reason: it builds one row per odd prime, in 0.32 us
against 0.80 us for a frozen dataclass (timeit, Python 3.11).

The per-curve queries (conductor, tamagawa_p_divisible, compute_I_p,
prime_scan) factor Delta once and run Tate once per bad prime; prime_scan
reuses those runs for every p.  It also forms, once per curve, a product
over the bad primes: a p prime to it fails both the Tamagawa and the
local-torsion rule, so those rules run only at the p that divide it.

Good reduction at an odd prime p is decided by one rule, _good_invariants:
p prime to Delta is good on the given model; a model with v(c4) = 0 or
v(Delta) < 12 is already p-minimal (Cremona, Algorithms for Modular Elliptic
Curves, 3.2), so p | Delta makes it bad; otherwise Tate's algorithm decides,
and p | #E(F_p) is decided on the p-minimal model it returns.  classify and
is_anomalous call it.  prime_scan reads the same answer off the Tate run it
already has at each p | Delta.

Multiplicative reduction is split exactly when -c6 is a square in Q_ell
(Legendre test for odd ell, unit = 1 mod 8 at ell = 2).  Local p-torsion
ranks at multiplicative primes follow the Tate parametrisation: the rank
over Q_ell is [mu_p rational] + [q a p-th power], computed from
v(q) = v(D_min) and the unit part q / ell^v = (D_min / ell^v) * c4^-3
(mod ell); the nonsplit case is the minus part of the same computation
after the unramified quadratic base change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from itertools import product
from math import prod
from typing import NamedTuple

from .arith import (InputError, factorize, is_prime, legendre, primes_up_to, require_odd_prime,
                    valuation)
from .curves import (
    Invariants,
    SingularCurveError,
    WeierstrassModel,
    compute_invariants,
    transform,
)
from .finitefield import _p_divides_order
from .kodaira import KodairaType

__all__ = [
    "LocalData",
    "LocalTorsionRank",
    "PrimeScanRow",
    "PrimeScanReport",
    "tate",
    "local_minimal_model",
    "conductor",
    "bad_primes",
    "tamagawa_p_divisible",
    "local_torsion_rank_mult",
    "compute_I_p",
    "prime_scan",
]

GOOD = "good"
SPLIT = "split-multiplicative"
NONSPLIT = "nonsplit-multiplicative"
ADDITIVE = "additive"


class LocalData(NamedTuple):
    prime: int
    kodaira: KodairaType
    tamagawa: int
    conductor_exponent: int
    v_min_delta: int
    was_minimal: bool
    reduction: str

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "kodaira": self.kodaira.label,
            "tamagawa": self.tamagawa,
            "f": self.conductor_exponent,
            "v_delta": self.v_min_delta,
            "reduction": self.reduction,
        }


# The types a Tate run returns, shared by every run: the eight without an
# index, and I_n and I_n* from caches that keep the 256 most recent n.
_I0, _II, _III, _IV, _I0_STAR, _IV_STAR, _III_STAR, _II_STAR = map(
    KodairaType, ("I0", "II", "III", "IV", "I0*", "IV*", "III*", "II*"))
_I_n = lru_cache(maxsize=256)(partial(KodairaType, "In"))
_I_n_star = lru_cache(maxsize=256)(partial(KodairaType, "In*"))


def _split_multiplicative(c6: int, ell: int) -> bool:
    # split <=> -c6 is a square in Q_ell (c6 is a unit at a multiplicative prime)
    if ell == 2:
        return (-c6) % 8 == 1
    return legendre(-c6, ell) == 1


def _quadratic(A: int, B: int, C: int, p: int) -> tuple[bool | None, int]:
    """A x^2 + B x + C over F_p, with A a unit mod p: (whether its two
    distinct roots lie in F_p, 0), or (None, x) for a double root x.  At
    p = 2 the roots are distinct when B is odd, and x^2 + x + C has them in
    F_2 when C is even; x^2 + C = (x + C)^2."""
    if p == 2:
        return (C % 2 == 0, 0) if B % 2 else (None, C % 2)
    D = B * B - 4 * A * C
    if D % p:
        return legendre(D, p) == 1, 0
    return None, -B * pow(2 * A, -1, p) % p


def _cubic_disc(b: int, c: int, d: int) -> int:
    """Discriminant of T^3 + b T^2 + c T + d."""
    return 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d


def _nroots_cubic(b: int, c: int, d: int, p: int) -> int:
    """Roots in F_p of the separable cubic f = T^3 + b T^2 + c T + d.

    At odd p, f splits exactly when T^p = T mod f.  Otherwise it has one
    root or none, and Stickelberger's rule (the number of irreducible
    factors has the parity of deg f exactly when disc f is a square) picks
    one root for a non-square discriminant.  The rule fails at p = 2.
    """
    if p == 2:
        return sum(1 for t in (0, 1) if (t**3 + b * t * t + c * t + d) % 2 == 0)
    b, c, d = b % p, c % p, d % p
    # x0 + x1 T + x2 T^2 = T^p mod f, by square-and-multiply on the bits of p
    x0, x1, x2 = 1, 0, 0
    for bit in bin(p)[2:]:
        h4 = x2 * x2
        h3 = 2 * x1 * x2 - b * h4
        x0, x1, x2 = (
            (x0 * x0 - d * h3) % p,
            (2 * x0 * x1 - d * h4 - c * h3) % p,
            (2 * x0 * x2 + x1 * x1 - c * h4 - b * h3) % p,
        )
        if bit == "1":
            x0, x1, x2 = -d * x2 % p, (x0 - c * x2) % p, (x1 - b * x2) % p
    if (x0, x1, x2) == (0, 1, 0):
        return 3
    return 1 if legendre(_cubic_disc(b, c, d), p) == -1 else 0


def _cubic_multiple_root(b: int, c: int, d: int, p: int) -> tuple[int, bool]:
    """(root, is_triple) for a cubic T^3+bT^2+cT+d with vanishing mod-p disc."""
    b, c, d = b % p, c % p, d % p
    if p == 2:
        return c, (b - c) % 2 == 0
    if p == 3:
        if b % 3 != 0:
            return (-c * pow(2 * b, -1, 3)) % 3, False
        return (-d) % 3, True
    if (b * b - 3 * c) % p == 0:
        return (-b * pow(3, -1, p)) % p, True
    return (b * c - 9 * d) * pow(6 * c - 2 * b * b, -1, p) % p, False


def _y_quadratic(cur: WeierstrassModel, p: int, e: int) -> tuple[bool | None, int]:
    """The Y-side step of Tate's algorithm at level e: steps 5, 7 and 8 of
    Silverman, Advanced Topics, IV.9.4, at e = 1, (nu + 3) / 2 and 2.

    With p^e | a3 and p^2e | a6, it reads Y^2 + a3,e Y - a6,2e over F_p,
    where a3,e = a3 / p^e and a6,2e = a6 / p^2e.  Distinct roots give
    (whether they lie in F_p, 0); a double root y gives (None, p^e y), the
    t-shift after which p^(e+1) | a3 and p^(2e+1) | a6.
    """
    q = p**e
    split, y = _quadratic(1, cur.a3 // q, -(cur.a6 // (q * q)), p)
    return split, q * y


def _cusp_steps(cur: WeierstrassModel, p: int,
                inv: Invariants) -> tuple[WeierstrassModel, KodairaType | None, int, int]:
    """Steps 3 to 5 of Tate's algorithm (Silverman, Advanced Topics, IV.9.4)
    on a model with p | Delta and p | c4, whose invariants are inv: move the
    cusp to (0, 0) and test for types II, III and IV.

    Returns (shifted model, type, c, t).  The type is None where the run
    goes on, and t is then the Y-step's shift (see _y_quadratic).
    """
    if p == 2:
        # 2 | b2 here (c4 = b2^2 mod 2), so a1 is even
        r = cur.a4 % 2
        t = (r * (1 + cur.a2 + cur.a4) + cur.a6) % 2
    elif p == 3:
        # 3 | b2 here (c4 = b2^2 mod 3), so the cusp is the cube root of -b6
        r = (-inv.b6) % 3
        t = (cur.a1 * r + cur.a3) % 3
    else:
        r = (-inv.b2 * pow(12, -1, p)) % p
        t = (-(cur.a1 * r + cur.a3) * pow(2, -1, p)) % p
    cur = transform(cur, 1, r, 0, t)
    if cur.a6 % (p * p) != 0:
        return cur, _II, 1, 0
    # b8 of the shifted model; the b_i move with r only, not with t
    b8 = inv.b8 + r * (3 * inv.b6 + r * (3 * inv.b4 + r * (inv.b2 + 3 * r)))
    if b8 % p**3 != 0:
        return cur, _III, 2, 0
    split, t = _y_quadratic(cur, p, 1)
    if split is not None:
        return cur, _IV, 3 if split else 1, 0
    return cur, None, 0, t


def _residue_type(a: WeierstrassModel, ell: int) -> KodairaType | None:
    """The Kodaira type at ell shared by every integral model congruent to
    a modulo 4 at ell = 2, modulo ell at an odd ell; None where this rule
    cannot tell.

    Each test reads a polynomial in the a_i modulo a power of ell that the
    congruence fixes, so it holds for every lift of a:
    - ell prime to Delta: I0, an ell-minimal model of good reduction.  This
      depends only on the a_i mod ell.
    - At 2, c4 odd and Delta = 2 (mod 4): I1.
    - At 2, c4 even: _cusp_steps, whose cusp shift is read mod 2, fixes the
      shifted a_i mod 4.  a6' mod 4 decides II; then a1, a3', a4' and a6'
      are even, so b8' mod 8 depends only on the a_i mod 4 and decides III;
      a3' mod 4 decides IV (the label only: its c reads a6' mod 8).
    No singular lift gets a type: Delta = 0 is even, and its singular point
    is integral, so shifting to it makes a6' = 0 (mod 4), b8' = 0 (mod 8)
    and a3' = 0 (mod 4).  A typed class need not hold every model of its
    type: a non-minimal model with ell | Delta can have good reduction, and
    only its Tate run says so.
    """
    inv = compute_invariants(a)
    if inv.delta % ell:
        return _I0
    if ell != 2:
        return None
    if inv.c4 % 2:
        return _I_n(1) if inv.delta % 4 else None
    return _cusp_steps(a, 2, inv)[1]


# the largest ell with a residue table.  At an odd ell a table has ell^5
# entries: the 3125 of ell = 5 take about 7 ms to build (2 cores, Python
# 3.11), and the 16807 of ell = 7 would take 37 ms.  The 4^5 = 1024 at 2
# took 2.2 to 4.4 ms in 12 fresh processes.
_TYPE_TABLE_MAX_ELL = 5


def _residue_index(model: WeierstrassModel, m: int) -> int:
    """The residues a_i mod m of model, packed as (((a1 m + a2) m + a3) m +
    a4) m + a6."""
    a1, a2, a3, a4, a6 = model
    return (((a1 % m * m + a2 % m) * m + a3 % m) * m + a4 % m) * m + a6 % m


@cache
def _type_table(ell: int) -> tuple[int, tuple[str | None, ...]] | None:
    """The residue table at ell, (m, labels), or None above _TYPE_TABLE_MAX_ELL.

    m is the modulus _residue_type reads, 4 at 2 and ell at 3 and 5; labels
    holds, at the _residue_index of each residue tuple a_i mod m, the
    Kodaira label at ell of every model with those residues, or None where
    a Tate run must decide.  Built once per ell, in the order of
    itertools.product, which is that packing.  At 2 it labels 864 of 1024
    classes, 84% of the draws at H = 10^3 to 10^6 (I0 alone 50%); at 3 and
    5 two thirds and four fifths.
    """
    if ell > _TYPE_TABLE_MAX_ELL:
        return None
    m = 4 if ell == 2 else ell
    return m, tuple(
        None if (ktype := _residue_type(WeierstrassModel(*a), ell)) is None else ktype.label
        for a in product(range(m), repeat=5))


def _kodaira_label(model: WeierstrassModel, ell: int) -> str:
    """The Kodaira label at the prime ell of an integral model, "singular"
    where Delta = 0.

    The invariants are computed once.  Where ell is prime to Delta the
    model has good reduction, I0.  Where ell divides Delta but not c4 it is
    ell-minimal with a node, type I_v with v = v_ell(Delta): the first step
    of Tate's algorithm (Silverman, Advanced Topics, IV.9.4), which holds
    for every model, not only for a residue class.  Only a model with
    ell | c4 gets a Tate run, started from these invariants.
    """
    inv = compute_invariants(model)
    delta = inv.delta
    if delta == 0:
        return "singular"
    if delta % ell:
        return _I0.label
    if inv.c4 % ell:
        return _I_n(valuation(delta, ell)).label
    return _tate_run(model, ell, inv)[1].kodaira.label


def _tate_run(model: WeierstrassModel, ell: int,
              inv: Invariants | None = None) -> tuple[WeierstrassModel, LocalData]:
    """Full Tate loop; returns (ell-minimal model, LocalData).  inv, if
    given, are the invariants of model; a pass after a rescaling computes
    its own."""
    p = ell
    cur = model
    scalings = 0
    while True:
        if inv is None:
            inv = compute_invariants(cur)
        if inv.delta == 0:
            raise SingularCurveError("Tate's algorithm needs a nonsingular curve")
        n = valuation(inv.delta, p)
        if n == 0:
            return cur, tuple.__new__(LocalData, (p, _I0, 1, 0, 0, scalings == 0, GOOD))
        if inv.c4 % p != 0:
            # node: type I_n on an automatically minimal model
            if _split_multiplicative(inv.c6, p):
                c, reduction = n, SPLIT
            else:
                c, reduction = 2 - n % 2, NONSPLIT
            return cur, tuple.__new__(LocalData, (p, _I_n(n), c, 1, n, scalings == 0, reduction))
        cur, ktype, c, t = _cusp_steps(cur, p, inv)
        if ktype is not None:
            break

        # normalise to p|a1,a2, p^2|a3,a4, p^3|a6; the s-shift leaves a3
        # and a6 alone, so the t-shift of the Y-step above still applies
        s = cur.a2 % 2 if p == 2 else -cur.a1 * pow(2, -1, p) % p
        cur = transform(cur, 1, 0, s, t)

        b = cur.a2 // p % p
        cc = cur.a4 // (p * p) % p
        dd = cur.a6 // p**3 % p
        if _cubic_disc(b, cc, dd) % p != 0:
            ktype = _I0_STAR
            c = 1 + _nroots_cubic(b, cc, dd, p)
            break

        tau, triple = _cubic_multiple_root(b, cc, dd, p)
        if tau:
            cur = transform(cur, 1, p * tau, 0, 0)

        if not triple:
            # I_nu* chain at level e = (nu + 3) // 2: the Y-step at odd nu,
            # the X-step at even nu, whose double root x gives the r-shift p^e x
            nu = 1
            while True:
                e = (nu + 3) // 2
                if nu % 2:
                    split, t = _y_quadratic(cur, p, e)
                    r = 0
                else:
                    q = p**e
                    split, x = _quadratic(cur.a2 // p, cur.a4 // (q * p), cur.a6 // (q * q * p), p)
                    r, t = q * x, 0
                if split is not None:
                    break
                cur = transform(cur, 1, r, 0, t)
                nu += 1
            ktype, c = _I_n_star(nu), 4 if split else 2
            break

        # triple root: IV*, III*, II* or a non-minimal model
        split, t = _y_quadratic(cur, p, 2)
        if split is not None:
            ktype, c = _IV_STAR, 3 if split else 1
            break
        cur = transform(cur, 1, 0, 0, t)
        if cur.a4 % p**4 != 0:
            ktype, c = _III_STAR, 2
            break
        if cur.a6 % p**6 != 0:
            ktype, c = _II_STAR, 1
            break
        cur = transform(cur, p, 0, 0, 0)
        scalings += 1
        inv = None

    # additive: the last pass changed variables only with u = 1, which fixes
    # Delta, so v(Delta_min) is its n, and Ogg's formula gives f
    f = n + 1 - ktype.components
    return cur, tuple.__new__(LocalData, (p, ktype, c, f, n, scalings == 0, ADDITIVE))


def local_minimal_model(model: WeierstrassModel, ell: int) -> tuple[WeierstrassModel, LocalData]:
    """An ell-minimal model (translated/rescaled) together with its LocalData."""
    if not is_prime(ell):
        raise InputError(f"{ell} is not prime")
    return _tate_run(model, ell)


def _good_invariants(model: WeierstrassModel, inv: Invariants, p: int) -> Invariants | None:
    """Invariants of a p-minimal model of E if E has good reduction at the
    odd prime p, else None; inv are the invariants of model, Delta != 0."""
    if inv.delta % p:
        return inv
    if inv.c4 % p or valuation(inv.delta, p) < 12:
        return None  # already p-minimal, so bad
    minimal, data = _tate_run(model, p, inv)
    return compute_invariants(minimal) if data.kodaira.is_good else None


def tate(model: WeierstrassModel, ell: int) -> LocalData:
    """Kodaira type, Tamagawa number and conductor exponent of E at ell.

    Works on any integral model; the local minimisation happens inside and
    was_minimal records whether the input was already ell-minimal.
    """
    return local_minimal_model(model, ell)[1]


def bad_primes(model: WeierstrassModel) -> list[int]:
    """Primes dividing the discriminant of the given model, ascending."""
    return _primes_of_delta(compute_invariants(model).delta)


def _primes_of_delta(delta: int) -> list[int]:
    if delta == 0:
        raise SingularCurveError("singular model has no bad-prime set")
    return sorted(factorize(delta))


def _local_table(model: WeierstrassModel,
                 inv: Invariants | None = None) -> dict[int, tuple[WeierstrassModel, LocalData]]:
    """ell -> (ell-minimal model, LocalData) at every prime dividing Delta,
    ascending: one factorisation and one Tate run per prime, each started
    from inv, the invariants of model (computed here if not given)."""
    if inv is None:
        inv = compute_invariants(model)
    return {ell: _tate_run(model, ell, inv) for ell in _primes_of_delta(inv.delta)}


def conductor(model: WeierstrassModel) -> int:
    """prod ell^f_ell over the primes dividing the discriminant."""
    return prod(ell ** data.conductor_exponent for ell, (_, data) in _local_table(model).items())


def tamagawa_p_divisible(model: WeierstrassModel, p: int) -> list[int]:
    """Primes ell != p with p | c_ell(E), ascending.

    Nonemptiness of this list is membership in S_p.  Divisibility is tested
    on the Tamagawa numbers themselves; the types that can occur are
    I_{pm} (split) for p >= 5 and additionally IV, IV* for p = 3.
    """
    require_odd_prime(p)
    return [
        ell
        for ell, (_, data) in _local_table(model).items()
        if ell != p and data.tamagawa % p == 0
    ]


@dataclass(frozen=True)
class LocalTorsionRank:
    prime: int
    rank: int
    rank_nr: int

    def __post_init__(self):
        if not (0 <= self.rank <= self.rank_nr <= 2):
            raise ValueError("torsion ranks must satisfy 0 <= rank <= rank_nr <= 2")


def local_torsion_rank_mult(model: WeierstrassModel, ell: int, p: int) -> LocalTorsionRank:
    """Ranks of E(Q_ell)[p] and E(Q_ell^nr)[p] at a multiplicative prime ell.

    Split case:  rank = [ell = 1 mod p] + [q in (Q_ell^x)^p], where the Tate
    parameter q has v(q) = v(D_min) and unit part (D_min/ell^v) * c4^-3; the
    p-th power test is p | v(q) plus (only when ell = 1 mod p) the unit part
    being a p-th power mod ell.  Nonsplit case: over Q_ell^nr the twist
    trivialises, so rank_nr = 1 + [p | v(q)]; over Q_ell only the mu_p line
    survives the unramified involution, giving rank = [ell = -1 mod p].
    """
    require_odd_prime(p)
    if ell == p:
        raise ValueError("needs an odd prime p different from ell")
    minimal, data = local_minimal_model(model, ell)
    if not data.kodaira.is_multiplicative:
        raise ValueError(f"reduction at {ell} is {data.reduction}, not multiplicative")
    return _mult_rank(minimal, data, p)


def _mult_rank(minimal: WeierstrassModel, data: LocalData, p: int) -> LocalTorsionRank:
    """local_torsion_rank_mult from the Tate run at a multiplicative prime."""
    ell, n = data.prime, data.v_min_delta
    rank_nr = 1 + (n % p == 0)
    if data.reduction == NONSPLIT:
        return LocalTorsionRank(ell, int((ell + 1) % p == 0), rank_nr)
    if ell % p != 1:
        return LocalTorsionRank(ell, int(n % p == 0), rank_nr)
    rank = 1
    if n % p == 0:
        inv = compute_invariants(minimal)
        unit = inv.delta // ell**n * pow(inv.c4, -3, ell) % ell
        rank += pow(unit, (ell - 1) // p, ell) == 1
    return LocalTorsionRank(ell, rank, rank_nr)


def compute_I_p(model: WeierstrassModel, p: int) -> set[int]:
    """Multiplicative primes ell != p where the local p-torsion is a line.

    Split reduction requires rank E(Q_ell)[p] = 1; nonsplit requires both
    the Q_ell and Q_ell^nr ranks to equal 1.
    """
    require_odd_prime(p)
    out = set()
    for ell, (minimal, data) in _local_table(model).items():
        if ell == p or not data.kodaira.is_multiplicative:
            continue
        ranks = _mult_rank(minimal, data, p)
        if ranks.rank == 1 and (data.reduction == SPLIT or ranks.rank_nr == 1):
            out.add(ell)
    return out


class PrimeScanRow(NamedTuple):
    p: int
    good_reduction: bool
    anomalous: bool
    tamagawa_divisible: bool
    bad_local_torsion: bool


@dataclass(frozen=True)
class PrimeScanReport:
    model: WeierstrassModel
    p_max: int
    rows: tuple[PrimeScanRow, ...]
    failure_fractions: dict = field(compare=False)

    def to_json_dict(self) -> dict:
        return {
            "curve": str(self.model),
            "p_max": self.p_max,
            "rows": [
                {
                    "p": r.p,
                    "good": r.good_reduction,
                    "anomalous": r.anomalous,
                    "tamagawa_divisible": r.tamagawa_divisible,
                    "bad_local_torsion": r.bad_local_torsion,
                }
                for r in self.rows
            ],
            "failure_fractions": self.failure_fractions,
        }


def prime_scan(model: WeierstrassModel, p_max: int) -> PrimeScanReport:
    """Check the fixed-curve conditions at every odd prime p <= p_max.

    Per prime: good reduction at p, anomalous at p, p | c_ell for some bad
    ell != p, and nontrivial E(Q_ell)[p] at some bad ell != p (decided by
    the Tate-curve rule at multiplicative ell and by p | c_ell at additive
    ell, where the component group carries all prime-to-ell torsion).
    The failure fractions of the four conditions are reported; all four
    failure sets are expected to thin out for non-CM curves.

    Once per curve: the factorisation, the Tate runs and one product over
    the bad primes.  Per prime: good reduction, from the Tate run where p
    divides Delta, the p | #E(F_p) predicate, and the Tamagawa and
    torsion rules only when p divides the product.  Nothing is kept between
    calls.
    """
    inv = compute_invariants(model)
    table = _local_table(model, inv)
    truly_bad = {ell: entry for ell, entry in table.items() if not entry[1].kodaira.is_good}
    # _good_invariants at each p | Delta, read off the Tate run at p
    good_at = {ell: compute_invariants(minimal) if d.kodaira.is_good else None
               for ell, (minimal, d) in table.items()}
    # Either flag at p needs p to divide suspects, the product over the
    # truly bad ell of c_ell (ell^2 - 1) v, v = v(Delta_min) >= 1:
    # - the Tamagawa flag, and the torsion flag at an additive ell, are
    #   p | c_ell;
    # - at a nonsplit ell the rank is [ell = -1 (mod p)], so p | ell + 1;
    # - at a split ell the rank is [ell = 1 (mod p)] + [q is a p-th power],
    #   and the second needs p | v(q) = v, so p | ell - 1 or p | v.
    # At every p prime to it both flags are False, and no rule runs.
    suspects = 1
    for _, d in truly_bad.values():
        suspects *= d.tamagawa * (d.prime * d.prime - 1) * d.v_min_delta
    rows = []
    for p in primes_up_to(p_max)[1:]:
        good = good_at.get(p, inv)
        anomalous = good is not None and _p_divides_order(p, good.b2, good.b4, good.b6)
        tam = torsion = False
        if suspects % p == 0:
            away = [entry for ell, entry in truly_bad.items() if ell != p]
            tam = any(d.tamagawa % p == 0 for _, d in away)
            torsion = any(
                _mult_rank(minimal, d, p).rank >= 1 if d.kodaira.is_multiplicative
                else d.tamagawa % p == 0
                for minimal, d in away
            )
        rows.append(PrimeScanRow(p, good is not None, anomalous, tam, torsion))
    total = len(rows) or 1
    fractions = {
        "bad_reduction": sum(not r.good_reduction for r in rows) / total,
        "anomalous": sum(r.anomalous for r in rows) / total,
        "tamagawa_divisible": sum(r.tamagawa_divisible for r in rows) / total,
        "bad_local_torsion": sum(r.bad_local_torsion for r in rows) / total,
    }
    return PrimeScanReport(model, p_max, tuple(rows), fractions)
