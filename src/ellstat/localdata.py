"""Tate's algorithm and the local invariants built on it.

tate() runs the full algorithm at any prime, including the wild cases at
2 and 3, minimising the model on the way (step-11 rescalings).  The
conductor exponent comes out of Ogg's relation f = v(D_min) + 1 - m with m
the component count of the Kodaira type, which is valid at every prime.
Types IV and IV* and each Y-side step of the I_n* chain are one rule,
_y_quadratic: the quadratic Y^2 + a3,e Y - a6,2e over F_p at e = 1, 2 and
(n + 3)/2 (Silverman, Advanced Topics, IV.9.4, steps 5, 8 and 7).
Roots of the I0* cubic are counted by T^p = T mod f and Stickelberger's
parity rule on its discriminant (brute force only at 2).

The per-curve queries (conductor, tamagawa_p_divisible, compute_I_p,
prime_scan) factor Delta once and run Tate once per bad prime; prime_scan
reuses those runs for every p.

Good reduction at an odd prime p is decided by one rule, _good_invariants:
p prime to Delta is good on the given model; a model with v(c4) = 0 or
v(Delta) < 12 is already p-minimal (Cremona, Algorithms for Modular Elliptic
Curves, 3.2), so p | Delta makes it bad; otherwise Tate's algorithm decides,
and the points are counted on the p-minimal model it returns.  classify and
is_anomalous call it; prime_scan reads the same rule off its Tate table.

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

from .arith import factorize, is_prime, legendre, primes_up_to, require_odd_prime, valuation
from .curves import (
    Invariants,
    SingularCurveError,
    WeierstrassModel,
    compute_invariants,
    transform,
)
from .finitefield import count_points_b
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


@dataclass(frozen=True)
class LocalData:
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


def _split_multiplicative(c6: int, ell: int) -> bool:
    # split <=> -c6 is a square in Q_ell (c6 is a unit at a multiplicative prime)
    if ell == 2:
        return (-c6) % 8 == 1
    return legendre(-c6, ell) == 1


def _quad_has_roots(A: int, B: int, C: int, p: int) -> bool:
    """Does A x^2 + B x + C have a root in F_p?"""
    A, B, C = A % p, B % p, C % p
    if p == 2:
        return C == 0 or (A + B + C) % 2 == 0
    if A == 0:
        return B != 0 or C == 0
    return legendre(B * B - 4 * A * C, p) >= 0


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
    A3 = cur.a3 // q % p
    A6 = cur.a6 // (q * q) % p
    if (A3 * A3 + 4 * A6) % p:
        return _quad_has_roots(1, A3, -A6, p), 0
    return None, q * (A6 % 2 if p == 2 else -A3 * pow(2, -1, p) % p)


def _tate_run(model: WeierstrassModel, ell: int) -> tuple[WeierstrassModel, LocalData]:
    """Full Tate loop; returns (ell-minimal model, LocalData)."""
    p = ell
    cur = model
    scalings = 0
    while True:
        inv = compute_invariants(cur)
        if inv.delta == 0:
            raise SingularCurveError("Tate's algorithm needs a nonsingular curve")
        n = valuation(inv.delta, p)
        if n == 0:
            ktype, c = KodairaType("I0"), 1
            break
        if inv.c4 % p != 0:
            # node: type I_n on an automatically minimal model
            ktype = KodairaType("In", n)
            if _split_multiplicative(inv.c6, p):
                c, reduction = n, SPLIT
            else:
                c, reduction = 2 - n % 2, NONSPLIT
            break
        # cusp: move the singular point to (0, 0)
        if p == 2:
            if inv.b2 % 2:
                r = cur.a3 % 2
                t = (r + cur.a4) % 2
            else:
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
            ktype, c = KodairaType("II"), 1
            break
        if compute_invariants(cur).b8 % p**3 != 0:
            ktype, c = KodairaType("III"), 2
            break
        split, t = _y_quadratic(cur, p, 1)
        if split is not None:
            ktype, c = KodairaType("IV"), 3 if split else 1
            break

        # normalise to p|a1,a2, p^2|a3,a4, p^3|a6; the s-shift leaves a3
        # and a6 alone, so the t-shift of the Y-step above still applies
        s = cur.a2 % 2 if p == 2 else -cur.a1 * pow(2, -1, p) % p
        cur = transform(cur, 1, 0, s, t)

        b = cur.a2 // p % p
        cc = cur.a4 // (p * p) % p
        dd = cur.a6 // p**3 % p
        if _cubic_disc(b, cc, dd) % p != 0:
            ktype = KodairaType("I0*")
            c = 1 + _nroots_cubic(b, cc, dd, p)
            break

        tau, triple = _cubic_multiple_root(b, cc, dd, p)
        if tau:
            cur = transform(cur, 1, p * tau, 0, 0)

        if not triple:
            # I_nu* chain: alternate Y- and X-side quadratics
            nu = 1
            while True:
                split, t = _y_quadratic(cur, p, (nu + 3) // 2)
                if split is not None:
                    ktype, c = KodairaType("In*", nu), 4 if split else 2
                    break
                cur = transform(cur, 1, 0, 0, t)
                nu += 1
                e4 = (nu + 4) // 2
                B2 = cur.a2 // p % p
                B4 = cur.a4 // p**e4 % p
                B6 = cur.a6 // p ** (nu + 3) % p
                if (B4 * B4 - 4 * B2 * B6) % p != 0:
                    ktype = KodairaType("In*", nu)
                    c = 4 if _quad_has_roots(B2, B4, B6, p) else 2
                    break
                xi = B6 % 2 if p == 2 else (-B4 * pow(2 * B2, -1, p)) % p
                if xi:
                    cur = transform(cur, 1, p ** (e4 - 1) * xi, 0, 0)
                nu += 1
            break

        # triple root: IV*, III*, II* or a non-minimal model
        split, t = _y_quadratic(cur, p, 2)
        if split is not None:
            ktype, c = KodairaType("IV*"), 3 if split else 1
            break
        cur = transform(cur, 1, 0, 0, t)
        if cur.a4 % p**4 != 0:
            ktype, c = KodairaType("III*"), 2
            break
        if cur.a6 % p**6 != 0:
            ktype, c = KodairaType("II*"), 1
            break
        cur = transform(cur, p, 0, 0, 0)
        scalings += 1

    # the last pass changed variables only with u = 1, which fixes Delta, so
    # v(Delta_min) is its n
    if ktype.is_good:
        f = 0
        reduction = GOOD
    elif ktype.is_multiplicative:
        f = 1
    else:
        f = n + 1 - ktype.components
        reduction = ADDITIVE
    data = LocalData(
        prime=p,
        kodaira=ktype,
        tamagawa=c,
        conductor_exponent=f,
        v_min_delta=n,
        was_minimal=(scalings == 0),
        reduction=reduction,
    )
    return cur, data


def local_minimal_model(model: WeierstrassModel, ell: int) -> tuple[WeierstrassModel, LocalData]:
    """An ell-minimal model (translated/rescaled) together with its LocalData."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    return _tate_run(model, ell)


def _good_invariants(model: WeierstrassModel, inv: Invariants, p: int) -> Invariants | None:
    """Invariants of a p-minimal model of E if E has good reduction at the
    odd prime p, else None; inv are the invariants of model, Delta != 0."""
    if inv.delta % p:
        return inv
    if inv.c4 % p or valuation(inv.delta, p) < 12:
        return None  # already p-minimal, so bad
    minimal, data = _tate_run(model, p)
    return compute_invariants(minimal) if data.kodaira.is_good else None


def tate(model: WeierstrassModel, ell: int) -> LocalData:
    """Kodaira type, Tamagawa number and conductor exponent of E at ell.

    Works on any integral model; the local minimisation happens inside and
    was_minimal records whether the input was already ell-minimal.
    """
    return local_minimal_model(model, ell)[1]


def bad_primes(model: WeierstrassModel) -> list[int]:
    """Primes dividing the discriminant of the given model, ascending."""
    delta = compute_invariants(model).delta
    if delta == 0:
        raise SingularCurveError("singular model has no bad-prime set")
    return sorted(factorize(delta))


def _local_table(model: WeierstrassModel) -> dict[int, tuple[WeierstrassModel, LocalData]]:
    """ell -> (ell-minimal model, LocalData) at every prime dividing Delta,
    ascending: one factorisation and one Tate run per prime."""
    return {ell: _tate_run(model, ell) for ell in bad_primes(model)}


def conductor(model: WeierstrassModel) -> int:
    """prod ell^f_ell over the primes dividing the discriminant."""
    n = 1
    for ell, (_, data) in _local_table(model).items():
        n *= ell**data.conductor_exponent
    return n


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


@dataclass(frozen=True)
class PrimeScanRow:
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
    """
    table = _local_table(model)
    # _good_invariants read off the Tate runs: an I0 entry counts points on
    # its p-minimal model, a prime away from Delta on the given model
    minimal_inv = {ell: compute_invariants(minimal)
                   for ell, (minimal, data) in table.items() if data.kodaira.is_good}
    truly_bad = {ell: entry for ell, entry in table.items() if ell not in minimal_inv}
    inv = compute_invariants(model)
    rows = []
    for p in primes_up_to(p_max)[1:]:
        good = None if p in truly_bad else minimal_inv.get(p, inv)
        anomalous = good is not None and count_points_b(p, good.b2, good.b4, good.b6) % p == 0
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
