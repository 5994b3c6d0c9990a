"""Independent slow reference computations used only by the tests.

Nothing here shares a code path with the library: point counts walk the
full (x, y) grid or sum a character read off a set of squares, the census
and d(p) walk every short form or every (b2, b4, b6), class numbers come
from reducing every form in a box, reduced forms from filtering one box by
the reduction inequalities, heights are compared by cross-powering, local
p-torsion ranks come from Hensel-lifting roots of the p-division
polynomial to precision ell^40, height-box draws from one randrange
call per coefficient, and multiples of a point from the affine chord and
tangent law, on a short Weierstrass or a Montgomery curve.  Discriminants
and good reduction come from the b-invariant formulas written out here and
from searching every u = ell change of variables for an integral model.
The torsion oracle is one-sided
by construction: it can only declare "no torsion" when no root survives at
full precision.

The density oracles add plain Fractions one operation at a time: zeta
tails floor by floor, interval products from all their endpoint products,
and the Delaunay product factor by factor.

Nine earlier versions are kept as they were.  prime_scan_rows_by_prime, the
per-prime loop of prime_scan, shares the library's per-prime rules and
checks only that the work lifted out of the loop changes no row.
invariants_by_textbook_formulas, compute_invariants with b8 and Delta from
their formulas in a1..a6 and b2..b8, checks the identities that
compute_invariants now derives them from.
ladder_reducing_each_product, arith._ladder with a reduction after each
product, shares its formulas and checks only that the reductions it no
longer makes change no residue.  least_conductor_twist shares the library's Tate runs and factorisation,
but not its twist rule: it tries every twist the rule chooses among.
reduced_forms_by_divisor_walk, quadforms._reduced_forms before its table of
square roots mod 4a, finds every a as a divisor of (b^2 - D)/4, and checks
that the table range changes no form.  census_by_class_listing, the census
and d(p) before they counted forms, lists one curve of each
F_p-isomorphism class by the orbits of a primitive root and asks
finitefield._p_divides_order of each: it shares the predicate, not the
forms.  valuation_by_division is arith.valuation before its bit path at
p = 2, and report_csv_by_writer is a report's to_csv before it joined its
fields itself: the header and every row go through csv.writer.
flag_counts_by_classify is estimate's tally before it counted joint flag
indices: five counters over public classify calls, so it shares the
classifier and checks only the tally.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations, filterfalse, product
from math import gcd, isqrt, log, prod

from ellstat.arith import InputError, factorize, legendre, primes_up_to, valuation
from ellstat.curves import Invariants, WeierstrassModel, compute_invariants
from ellstat.finitefield import _p_divides_order
from ellstat.harness import classify
from ellstat.localdata import PrimeScanRow, _good_invariants, _local_table, _mult_rank, tate
from ellstat.quadforms import _MAX_DISC, BinaryQuadraticForm, reduce_form


def naive_group_order(p: int, a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    """#E(F_p) by scanning every affine (x, y) pair."""
    count = 1
    for x in range(p):
        rhs = (x**3 + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y) % p == rhs:
                count += 1
    return count


def affine_multiple(k: int, point, A: int, B: int, p: int):
    """k P on y^2 = x^3 + A x + B over F_p by k - 1 affine chord-and-tangent
    additions, as (x, y), or None for O."""

    def add(P, Q):
        if P is None or Q is None:
            return Q if P is None else P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2 and (y1 + y2) % p == 0:
            return None
        if P == Q:
            lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    Q = point
    for _ in range(k - 1):
        Q = add(Q, point)
    return Q


def montgomery_multiple(k: int, point, C: int, b: int, p: int):
    """k P on b y^2 = x^3 + C x^2 + x over F_p by k - 1 affine
    chord-and-tangent additions, as (x, y), or None for O."""

    def add(P, Q):
        if P is None or Q is None:
            return Q if P is None else P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2 and (y1 + y2) % p == 0:
            return None
        if P == Q:
            lam = (3 * x1 * x1 + 2 * C * x1 + 1) * pow(2 * b * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (b * lam * lam - C - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    Q = point
    for _ in range(k - 1):
        Q = add(Q, point)
    return Q


def ladder_reducing_each_product(k: int, x: int, A: int, B: int, n: int):
    """arith._ladder as it was before it left its products unreduced: the
    same Brier-Joye steps, with a reduction mod n after every product but
    the small ones.  It gives the same (X0, Z0, X1, Z1)."""
    B4, B8 = 4 * B, 8 * B
    xx = x * x
    t = xx - A
    x0, z0, x1, z1 = x, 1, (t * t - B8 * x) % n, 4 * ((xx + A) * x + B) % n  # P, 2P
    for bit in bin(k)[3:]:
        # the sum of the two, with difference P
        u, v, zz = x0 * z1, x1 * z0, z0 * z1 % n
        t = (x0 * x1 - A * zz) % n
        s = (u - v) % n
        xs, zs = (t * t - B4 * zz * (u + v)) % n, x * s * s % n
        # the double of the one this bit keeps
        xd, zd = (x1, z1) if bit == "1" else (x0, z0)
        xx, zz, xz = xd * xd % n, zd * zd % n, xd * zd % n
        azz = A * zz
        t = xx - azz
        xn, zn = (t * t - B8 * xz * zz) % n, 4 * (xz * (xx + azz) + B * zz * zz) % n
        if bit == "1":
            x0, z0, x1, z1 = xs, zs, xn, zn
        else:
            x0, z0, x1, z1 = xn, zn, xs, zs
    return x0, z0, x1, z1


def d_count_literal(p: int) -> int:
    """d(p) by the honest quintuple loop with per-tuple counting."""
    hits = 0
    for a1 in range(p):
        for a2 in range(p):
            for a3 in range(p):
                for a4 in range(p):
                    for a6 in range(p):
                        m = WeierstrassModel(a1, a2, a3, a4, a6)
                        if compute_invariants(m).delta % p == 0:
                            continue
                        if naive_group_order(p, a1, a2, a3, a4, a6) % p == 0:
                            hits += 1
    return hits


def _chi_plus_one(p: int) -> list[int]:
    """1 + (x/p) for each x in F_p, read off the set of nonzero squares."""
    squares = {x * x % p for x in range(1, p)}
    return [1 if x == 0 else 2 if x in squares else 0 for x in range(p)]


def census_by_pair_walk(p: int) -> tuple[int, int]:
    """(classes with p | #E, d(p)) for p >= 5 by a walk over all p^2 short
    forms y^2 = x^3 + c x + d with a visited bytearray.

    Each unvisited pair starts a new orbit under (c, d) -> (s^4 c, s^6 d),
    whose members the walk marks and counts; a nonsingular orbit is hit when
    p divides the character-sum count of its first pair.  d(p) is p^3 times
    the members of the orbits hit: p^2 from (a1, a3) and p from the
    translation in x that frees b2.
    """
    chi1 = _chi_plus_one(p)
    visited = bytearray(p * p)
    classes = members = 0
    for c in range(p):
        for d in range(p):
            if visited[c * p + d]:
                continue
            size = 0
            for s in range(1, p):
                k = (c * pow(s, 4, p)) % p * p + (d * pow(s, 6, p)) % p
                size += not visited[k]
                visited[k] = 1
            if (4 * c**3 + 27 * d * d) % p == 0:
                continue
            if (1 + sum(chi1[(x * x * x + c * x + d) % p] for x in range(p))) % p == 0:
                classes += 1
                members += size
    return classes, p**3 * members


def _classes(p: int):
    """(b2, b4, b6, n) for each F_p-isomorphism class of curves: one curve of
    the class, and n, the number of triples in F_p^3 whose curve lies in it.

    p >= 5: a class is an orbit of short forms y^2 = x^3 + A x + B, whose
    (b2, b4, b6) is (0, 2A, 4B), under (s^4 A, s^6 B), and n is p times its
    size, since b2 is free.  For a primitive root g, an orbit with A B != 0
    has (p-1)/2 members and holds (k, k) or its twist (k g^2, k g^3),
    k = A^3/B^2, as B/A is a square or not.  For A = 0, B is taken up to 6th
    powers, whose cosets are g^i for i < gcd(6, p-1); for B = 0, A is taken
    up to 4th powers.

    p = 3: a class is an orbit of y^2 = x^3 + a2 x^2 + a4 x + a6 under
    x -> x + r, and (a2, a4, a6) -> (b2, b4, b6) is a bijection of F_3^3.
    """
    if p == 3:
        for a2, a4, a6 in product(range(3), repeat=3):
            orbit = {(a2, (2 * a2 * r + a4) % 3, (r**3 + a2 * r * r + a4 * r + a6) % 3)
                     for r in range(3)}
            inv = compute_invariants(WeierstrassModel(0, a2, 0, a4, a6))
            if (a2, a4, a6) == min(orbit) and inv.delta % 3:
                yield inv.b2, inv.b4, inv.b6, len(orbit)
        return
    qs = factorize(p - 1)
    g = next(x for x in range(2, p) if all(pow(x, (p - 1) // q, p) != 1 for q in qs))
    for k in range(1, p):
        if (4 * k + 27) % p:
            yield 0, 2 * k % p, 4 * k % p, p * (p - 1) // 2
            yield 0, 2 * k * g * g % p, 4 * k * g**3 % p, p * (p - 1) // 2
    m6, m4 = gcd(6, p - 1), gcd(4, p - 1)
    for i in range(m6):
        yield 0, 0, 4 * pow(g, i, p) % p, p * (p - 1) // m6
    for i in range(m4):
        yield 0, 2 * pow(g, i, p) % p, 0, p * (p - 1) // m4


def census_by_class_listing(p: int) -> tuple[int, int, int]:
    """(classes with p | #E, d(p), nonsingular triples) for an odd prime p
    from one curve of each F_p-isomorphism class, listed by _classes, and
    one finitefield._p_divides_order call per class.  d(p) is p^2 times the
    triples in the classes hit, and the last entry, the sum of n over all
    classes, must be p^3 - p^2."""
    classes = hits = total = 0
    for b2, b4, b6, n in _classes(p):
        total += n
        if _p_divides_order(p, b2, b4, b6):
            classes += 1
            hits += n
    return classes, p * p * hits, total


def d_count_by_triples(p: int) -> int:
    """d(p) by the loop over every (b2, b4, b6) in F_p^3, with the
    discriminant from b8 and the count of (2y)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
    by character sum: p^2 times the nonsingular triples with p | #E."""
    chi1 = _chi_plus_one(p)
    inv4 = pow(4, -1, p)
    hits = 0
    for b2 in range(p):
        for b4 in range(p):
            for b6 in range(p):
                b8 = (b2 * b6 - b4 * b4) * inv4 % p
                delta = (-b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6) % p
                if delta == 0:
                    continue
                order = 1 + sum(chi1[(((4 * x + b2) * x + 2 * b4) * x + b6) % p] for x in range(p))
                hits += order % p == 0
    return p * p * hits


def prime_scan_rows_by_prime(model: WeierstrassModel, p_max: int) -> list[PrimeScanRow]:
    """prime_scan's rows by running every rule at every odd prime p <= p_max:
    _good_invariants and the Tamagawa and local-torsion rules at each p."""
    table = _local_table(model)
    truly_bad = {ell: entry for ell, entry in table.items() if not entry[1].kodaira.is_good}
    inv = compute_invariants(model)
    rows = []
    for p in primes_up_to(p_max)[1:]:
        good = _good_invariants(model, inv, p, valuation(inv.delta, p))
        anomalous = good is not None and _p_divides_order(p, good.b2, good.b4, good.b6)
        away = [entry for ell, entry in truly_bad.items() if ell != p]
        tam = any(d.tamagawa % p == 0 for _, d in away)
        torsion = any(
            _mult_rank(minimal, d, p).rank >= 1 if d.kodaira.is_multiplicative
            else d.tamagawa % p == 0
            for minimal, d in away
        )
        rows.append(PrimeScanRow(p, good is not None, anomalous, tam, torsion))
    return rows


def zeta_minus_one_term_by_term(s: int, tol, max_terms: int):
    """(lo, hi) of zeta(s) - 1 from N - 1 floors of 2^k / n^s, one at a time,
    and the integral tail N/((s - 1) N^s), added as Fractions; N and k are
    chosen as zeta_minus_one documents.  None when N would pass max_terms."""
    tol = Fraction(tol)
    N = 2
    while Fraction(N, (s - 1) * N**s) >= tol / 2:
        N = max(N + 1, int(1.3 * N))
        if N > max_terms:
            return None
    x = 2 * (N + 1) / tol
    k = max(1, (-(-x.numerator // x.denominator) - 1).bit_length())
    scale = 1 << k
    lo_sum = 0
    terms = 0
    for n in range(2, N + 1):
        lo_sum += scale // n**s
        terms += 1
    tail_hi = Fraction(N, (s - 1) * N**s)
    return Fraction(lo_sum, scale), Fraction(lo_sum + terms, scale) + tail_hi


def main_bound_by_fractions(p: int, d_lo: Fraction, d_hi: Fraction,
                            d_prime: Fraction) -> tuple[Fraction, Fraction]:
    """(p^-1 + p^-3 - p^-4) * [1 - 1/p - d_hi - d', 1 - 1/p - d_lo - d'] as an
    interval product: the least and the greatest of the endpoint products."""
    front = Fraction(1, p) + Fraction(1, p**3) - Fraction(1, p**4)
    x = 1 - Fraction(1, p) - d_hi - d_prime
    y = 1 - Fraction(1, p) - d_lo - d_prime
    prods = [front * x, front * y]
    return min(prods), max(prods)


def delaunay_mass_by_fractions(p: int, tol) -> tuple[Fraction, Fraction]:
    """(1 - P, 1 - P (1 - t)) for P = prod_{i<=K} (1 - p^-(2i-1)), multiplied
    factor by factor, and t = p^-(2K+1) / (1 - p^-2), the sum of the dropped
    p^-(2i-1); K is the least with t < tol/2."""
    tol = Fraction(tol)

    def tail(K):
        return Fraction(1, p ** (2 * K + 1)) / (1 - Fraction(1, p * p))

    K = 1
    while tail(K) >= tol / 2:
        K += 1
    P = Fraction(1)
    for i in range(1, K + 1):
        P *= 1 - Fraction(1, p ** (2 * i - 1))
    return 1 - P, 1 - P * (1 - tail(K))


def class_count_boxed(disc: int, bound: int | None = None) -> int:
    """Number of SL2(Z)-classes via reduction of every form in a box."""
    if bound is None:
        bound = abs(disc)
    seen = set()
    for a in range(1, bound + 1):
        for b in range(-bound, bound + 1):
            num = b * b - disc
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if abs(c) > bound:
                continue
            seen.add(reduce_form(BinaryQuadraticForm(a, b, c)).as_tuple())
    return len(seen)


def reduced_forms_by_disc(bound: int) -> dict[int, list[tuple[int, int, int]]]:
    """D -> the reduced forms (a, b, c) of discriminant D, sorted, for every
    -bound <= D < 0, from one pass over a box of (a, b, c).

    A reduced form has 3a^2 <= 4ac - b^2 = |D|, so a <= sqrt(bound/3) and
    c <= (bound + a^2)/(4a) cover them all.
    """
    out: dict[int, list[tuple[int, int, int]]] = {}
    a = 1
    while 3 * a * a <= bound:
        for b in range(-a + 1, a + 1):
            for c in range(a, (bound + a * a) // (4 * a) + 1):
                disc = b * b - 4 * a * c
                if not -bound <= disc < 0:
                    continue
                if b < 0 and a == c:
                    continue
                out.setdefault(disc, []).append((a, b, c))
        a += 1
    return {disc: sorted(forms) for disc, forms in out.items()}


def reduced_forms_by_divisor_walk(disc: int) -> Iterator[tuple[int, int, int]]:
    """The reduced forms (a, b, c) of discriminant D < 0, b first (Cohen,
    GTM 138, Alg. 5.3.5): for 0 <= b <= sqrt(|D|/3) with b = D mod 2, every
    divisor a of m = (b^2 - D)/4 with max(b, 1) <= a <= sqrt(m) gives
    (a, b, m/a), and (a, -b, m/a) too off the boundary 0 < b < a < c.
    Raises InputError on the first step if D is not a negative discriminant
    or |D| > _MAX_DISC.
    """
    if disc >= 0:
        raise InputError("discriminant must be negative")
    if disc % 4 not in (0, 1):
        raise InputError("discriminant must be 0 or 1 mod 4")
    if -disc > _MAX_DISC:
        raise InputError(f"|discriminant| must be at most {_MAX_DISC}")
    for b in range(disc % 2, isqrt(-disc // 3) + 1, 2):
        m = (b * b - disc) // 4
        for a in filterfalse(m.__mod__, range(max(b, 1), isqrt(m) + 1)):
            c = m // a
            yield a, b, c
            if 0 < b < a < c:
                yield a, -b, c


def sample_tuple_by_randrange(rng, height: int) -> WeierstrassModel:
    """One draw from the height box |a_i| < H^i by five randrange calls."""
    h2 = height * height
    h3 = h2 * height
    h4 = h3 * height
    h6 = h4 * h2
    return WeierstrassModel(
        rng.randrange(1 - height, height),
        rng.randrange(1 - h2, h2),
        rng.randrange(1 - h3, h3),
        rng.randrange(1 - h4, h4),
        rng.randrange(1 - h6, h6),
    )


def c4_and_discriminant(a) -> tuple[int, int]:
    """(c4, Delta) of the tuple (a1, a2, a3, a4, a6), from the b-invariants."""
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = a1 * a3 + 2 * a4
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2 * b2 - 24 * b4, -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def invariants_by_textbook_formulas(model: WeierstrassModel) -> Invariants:
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


def cube_share_bound(height: int) -> float:
    """An upper bound on the share of the box |a_i| < H^i where a prime
    q > 10^4 prime to 6 c4 has q^3 | Delta while the rest above 10^4 is no
    perfect power:
      sum_{q > 10^4} 2 / q^3 + 2 pi(Delta_max^(1/3)) / N,
    Delta_max = 1714 H^12, N = 2 H^6 - 1, pi(x) < 1.25506 x / ln x
    (Rosser and Schoenfeld, 1962).  The sum runs over the primes up to
    2 10^6 by a sieve written here; the rest of it, over all n > 2 10^6, is
    at most 2 / (2 10^6)^2.  The bound is 0 while Delta_max < (10^4)^4: a
    rest with every prime above 10^4 then has at most three, so a prime
    cubed in it is all of it, a perfect cube."""
    delta_max, n = 1714 * height**12, 2 * height**6 - 1
    if delta_max < 10**16:
        return 0.0
    limit = 2 * 10**6
    flags = bytearray([1]) * (limit + 1)
    for d in range(2, isqrt(limit) + 1):
        if flags[d]:
            flags[d * d :: d] = bytes(len(range(d * d, limit + 1, d)))
    tail = sum(2 / q**3 for q in range(10**4 + 1, limit + 1) if flags[q]) + 2 / limit**2
    x = delta_max ** (1 / 3)
    return tail + 2 * 1.25506 * x / log(x) / n


def scaled_down(a, ell: int) -> tuple[int, ...] | None:
    """An integral model a' that the change of variables x = ell^2 x' + r,
    y = ell^3 y' + s ell^2 x' + t takes a to, or None if there is none.

    Two such (r, s, t) differ by an integral change of variables of a', so
    searching r mod ell^2, s mod ell and t mod ell^3 finds one if any exists
    (Silverman, III.1, table 3.1).
    """
    a1, a2, a3, a4, a6 = a
    powers = [ell**w for w in (1, 2, 3, 4, 6)]
    for r in range(ell**2):
        for s in range(ell):
            for t in range(ell**3):
                new = (
                    a1 + 2 * s,
                    a2 - s * a1 + 3 * r - s * s,
                    a3 + r * a1 + 2 * t,
                    a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
                    a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
                )
                if all(n % q == 0 for n, q in zip(new, powers)):
                    return tuple(n // q for n, q in zip(new, powers))
    return None


def good_after_minimising(a, ell: int) -> bool:
    """Has the nonsingular tuple a good reduction at ell?  a is scaled down
    by u = ell while an integral model exists, which needs ell^4 | c4 and
    ell^12 | Delta; good reduction means ell does not divide the
    discriminant of the model reached."""
    while True:
        c4, delta = c4_and_discriminant(a)
        if c4 % ell**4 or delta % ell**12 or (b := scaled_down(a, ell)) is None:
            return delta % ell != 0
        a = b


def height_less_by_crosspower(ai: int, i: int, bj: int, j: int) -> bool:
    """|ai|^(1/i) < |bj|^(1/j), decided by comparing |ai|^j with |bj|^i."""
    return abs(ai) ** j < abs(bj) ** i


# ---------------------------------------------------------------------------
# division polynomials (coefficient lists, low degree first)


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for k, gk in enumerate(g):
                out[i + k] += fi * gk
    return out


def _poly_sub(f, g):
    n = max(len(f), len(g))
    return [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)]


def division_polynomial(model: WeierstrassModel, p: int) -> list[int]:
    """psi_p in x for p in {3, 5}, on the given integral model."""
    inv = compute_invariants(model)
    b2, b4, b6, b8 = inv.b2, inv.b4, inv.b6, inv.b8
    psi3 = [b8, 3 * b6, 3 * b4, b2, 3]
    if p == 3:
        return psi3
    if p != 5:
        raise ValueError("only psi_3 and psi_5 are implemented")
    psi2sq = [b6, 2 * b4, b2, 4]
    g4 = [
        b4 * b8 - b6 * b6,
        b2 * b8 - b4 * b6,
        10 * b8,
        10 * b6,
        5 * b4,
        b2,
        2,
    ]
    psi5 = _poly_sub(
        _poly_mul(_poly_mul(psi2sq, psi2sq), g4),
        _poly_mul(_poly_mul(psi3, psi3), psi3),
    )
    assert psi5[-1] == 5 and len(psi5) == 13
    return psi5


def _poly_eval(poly: list[int], x: int, modulus: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % modulus
    return acc


def _taylor_shift(poly: list[int], r: int) -> list[int]:
    """Coefficients of poly(r + t) in t, exactly over Z."""
    n = len(poly)
    out = [0] * n
    binom = [1]
    for j in range(n):
        for k in range(j + 1):
            out[k] += poly[j] * binom[k] * r ** (j - k)
        binom = [1] + [binom[i] + binom[i + 1] for i in range(len(binom) - 1)] + [1]
    return out


def roots_mod_power(poly: list[int], ell: int, prec: int = 40) -> list[int]:
    """The Z_ell-roots of poly, as residues mod ell^prec.

    Simple roots mod ell lift by Newton iteration; multiple ones recurse on
    poly(r + ell*t) with the common ell-power stripped.  Raises when the
    precision budget cannot separate the roots (a one-sided failure: no
    silent answers).
    """
    if prec < 1:
        raise RuntimeError("oracle precision exhausted while separating roots")
    target = ell**prec
    deriv = [k * c for k, c in enumerate(poly)][1:]
    out = []
    for r in range(ell):
        if _poly_eval(poly, r, ell) != 0:
            continue
        if _poly_eval(deriv, r, ell) != 0:
            x, mod = r, ell
            while mod < target:
                mod = min(mod * mod, target)
                fx = _poly_eval(poly, x, mod)
                fpx = _poly_eval(deriv, x, mod)
                x = (x - fx * pow(fpx, -1, mod)) % mod
            out.append(x)
        else:
            shifted = _taylor_shift(poly, r)
            scaled = [c * ell**k for k, c in enumerate(shifted)]
            e = min(_val_or_inf(c, ell) for c in scaled if c != 0)
            reduced = [c // ell**e for c in scaled]
            for t0 in roots_mod_power(reduced, ell, prec - 1):
                out.append((r + ell * t0) % target)
    return out


def _val_or_inf(n: int, ell: int) -> int:
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def _is_square_in_Ql(d: int, ell: int, prec: int) -> bool | None:
    """Whether d (known mod ell^prec) is a square in Q_ell; None if unreadable."""
    d %= ell**prec
    if d == 0:
        return None
    v = 0
    while d % ell == 0:
        d //= ell
        v += 1
    if v % 2 == 1:
        return False
    if ell == 2:
        if prec - v < 3:
            return None
        return d % 8 == 1
    return legendre(d, ell) == 1


def local_torsion_rank_oracle(model: WeierstrassModel, ell: int, p: int, prec: int = 40) -> int:
    """Rank of E(Q_ell)[p] by Hensel-lifting roots of psi_p.

    Prime-to-ell torsion has integral coordinates on any integral model, so
    each rank-contributing point shows up as a root of psi_p over Z_ell
    whose y-discriminant 4x^3 + b2 x^2 + 2 b4 x + b6 is an ell-adic square.
    """
    inv = compute_invariants(model)
    poly = division_polynomial(model, p)
    modulus = ell**prec
    hits = 0
    for x in roots_mod_power(poly, ell, prec):
        disc = (4 * x**3 + inv.b2 * x * x + 2 * inv.b4 * x + inv.b6) % modulus
        sq = _is_square_in_Ql(disc, ell, prec)
        if sq is None:
            raise RuntimeError("oracle precision exhausted on the y-discriminant")
        if sq:
            hits += 1
    table = {0: 0, (p - 1) // 2: 1, (p * p - 1) // 2: 2}
    if hits not in table:
        raise RuntimeError(f"oracle found {hits} torsion x-coordinates at ell={ell}, p={p}")
    return table[hits]


def least_conductor_twist(base: WeierstrassModel) -> WeierstrassModel:
    """The quadratic twist of least conductor of the short model base, by
    brute force over every squarefree d | 2 rad(Delta(base)) with both
    signs, keyed as curve_from_j breaks ties: conductor, then |d|, then
    d > 0 first.  The twist by d, y^2 = x^3 + a4 d^2 x + a6 d^3, has
    discriminant d^6 Delta(base), so its conductor is a product over the
    primes of Delta(base) and 2."""
    primes = sorted(set(factorize(compute_invariants(base).delta)) | {2})
    keyed = []
    for r in range(len(primes) + 1):
        for absd in map(prod, combinations(primes, r)):
            for d in (absd, -absd):
                twisted = WeierstrassModel(0, 0, 0, base.a4 * d * d, base.a6 * d**3)
                N = prod(ell ** tate(twisted, ell).conductor_exponent for ell in primes)
                keyed.append(((N, absd, d < 0), twisted))
    return min(keyed)[1]


def valuation_by_division(n: int, p: int) -> int:
    """Exponent of the prime p in n != 0, by dividing p out one at a time."""
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def report_csv_by_writer(report) -> str:
    """The CSV form of a sampling report, the header and rows through csv.writer."""
    buf = io.StringIO()
    w = csv.writer(buf)
    for k, v in report._metadata():
        buf.write(f"# {k}={v}\r\n")
    w.writerow(["flag", "count", "N", "proportion", "ci_lo", "ci_hi", "theory_lo", "theory_hi",
                "z"])
    for r in report.rows:
        w.writerow([r.flag, r.count, r.n, repr(r.proportion), repr(r.ci_lo), repr(r.ci_hi),
                    *("" if x is None else repr(x) for x in (r.theory_lo, r.theory_hi, r.z))])
    return buf.getvalue()


def flag_counts_by_classify(models, p: int) -> dict[str, int]:
    """estimate's counts over models, in its key order, by five counters fed
    one public classify call per model.  An unclassified model is counted
    only in "unclassified"."""
    singular = bad = tam = anom = uncl = 0
    for model in models:
        flags = classify(model, p)
        if flags.singular:
            singular += 1
        elif flags.unclassified:
            uncl += 1
        else:
            bad += flags.bad_at_p
            tam += flags.tamagawa_divisible
            anom += flags.anomalous_good
    return {"singular": singular, "bad_at_p": bad, "tamagawa_divisible": tam,
            "anomalous_good": anom, "unclassified": uncl}
