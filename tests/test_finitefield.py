import random
from fractions import Fraction
from math import isqrt

import pytest

from ellstat import finitefield
from ellstat.arith import InputError, primes_up_to
from ellstat.curves import WeierstrassModel, compute_invariants
from ellstat.finitefield import (
    _LADDER_FROM,
    BadReductionError,
    CensusResult,
    ReducedCurve,
    _chi_table,
    _order_is_p,
    _order_table,
    _p_divides_order,
    census_torsion_classes,
    count_points_b,
    d_count,
    group_order,
    is_anomalous,
    reduce_model,
)
from ellstat.density import frak_d_p_prime
from ellstat.localdata import prime_scan
from ellstat.quadforms import hurwitz_class_number

from oracles import (census_by_class_listing, census_by_pair_walk, d_count_by_triples, d_count_literal,
                     naive_group_order)


def test_group_order_examples():
    assert group_order(reduce_model(WeierstrassModel(0, 0, 0, 1, 1), 5)) == 9
    assert group_order(reduce_model(WeierstrassModel(0, 0, 0, 3, 0), 5)) == 10


@pytest.mark.parametrize("p", [0, 1, 4, 9, 15])
def test_reduction_needs_a_prime(p):
    with pytest.raises(ValueError):
        reduce_model(WeierstrassModel(1, 0, 1, -141, 624), p)
    with pytest.raises(ValueError):
        ReducedCurve(p, 0, 0, 0, 1, 1)


def test_group_order_singular_rejected():
    with pytest.raises(ValueError):
        group_order(reduce_model(WeierstrassModel(0, 0, 0, 0, 0), 5))


def test_group_order_matches_double_loop_everywhere_small():
    for p in (2, 3, 5, 7):
        for a1 in range(p):
            for a3 in range(p):
                for a2 in range(p):
                    for a4 in range(p):
                        for a6 in range(p):
                            c = reduce_model(WeierstrassModel(a1, a2, a3, a4, a6), p)
                            if c.is_singular:
                                continue
                            assert group_order(c) == naive_group_order(p, a1, a2, a3, a4, a6)


def test_group_order_matches_double_loop_sampled():
    rng = random.Random(31)
    for p in (11, 13):
        for _ in range(400):
            a = [rng.randrange(p) for _ in range(5)]
            c = reduce_model(WeierstrassModel(*a), p)
            if c.is_singular:
                continue
            assert group_order(c) == naive_group_order(p, *a)



def test_chi_table_keeps_only_the_last_p():
    # a sweep over p counts at each p once, so only the last table is worth keeping
    e1 = WeierstrassModel(1, 0, 1, -141, 624)
    delta = compute_invariants(e1).delta
    for p in primes_up_to(2000)[1:]:
        if delta % p:
            group_order(reduce_model(e1, p))
    assert _chi_table.cache_info().currsize <= 1

def test_count_points_b_on_unreduced_invariants():
    rng = random.Random(47)
    for p in (3, 5, 7, 11):
        for _ in range(200):
            a = [rng.randrange(-10**6, 10**6) for _ in range(5)]
            inv = compute_invariants(WeierstrassModel(*a))
            if inv.delta % p == 0:
                continue
            assert count_points_b(p, inv.b2, inv.b4, inv.b6) == naive_group_order(p, *a)


@pytest.mark.parametrize("p", [0, 1, 2, 4, 9, 10, 15, -3])
def test_count_points_b_rejects_even_and_small_p(p):
    with pytest.raises(ValueError):
        count_points_b(p, 1, 2, 3)


def _b_invariants(p, a2, a4, a6):
    # (b2, b4, b6) of y^2 = x^3 + a2 x^2 + a4 x + a6, or None if singular mod p
    inv = compute_invariants(WeierstrassModel(0, a2, 0, a4, a6))
    return None if inv.delta % p == 0 else (inv.b2, inv.b4, inv.b6)


def _random_good_b(rng, p):
    while True:
        b = _b_invariants(p, *(rng.randrange(p) for _ in range(3)))
        if b is not None:
            return b


def test_ladder_crossover_is_above_hasse_range():
    # p | #E is #E = p only from p = 7 on
    assert _LADDER_FROM >= 7


@pytest.mark.parametrize("p", [7, 11, 13, 17, 19])
def test_ladder_exhaustive_small_p(p):
    for a2 in range(p):
        for a4 in range(p):
            for a6 in range(p):
                b = _b_invariants(p, a2, a4, a6)
                if b is None:
                    continue
                assert _order_is_p(p, *b) == (naive_group_order(p, 0, a2, 0, a4, a6) % p == 0)


def test_ladder_sampled_primes_against_oracle():
    rng = random.Random(61)
    primes = [q for q in primes_up_to(500) if q >= 7]
    for _ in range(60):
        p = rng.choice(primes)
        a = [rng.randrange(p) for _ in range(3)]
        b = _b_invariants(p, *a)
        if b is None:
            continue
        assert _order_is_p(p, *b) == (naive_group_order(p, 0, a[0], 0, a[1], a[2]) % p == 0)


def test_ladder_pinned_curve_with_points_only_at_x_zero():
    # y^2 = x^3 + x^2 + 5x + 3 over F_7: the only affine points have x = 0,
    # so no base point exists; a search that wrapped round to x = 0 erred
    assert _b_invariants(7, 1, 5, 3) == (4, 10, 12)
    assert naive_group_order(7, 0, 1, 0, 5, 3) == count_points_b(7, 4, 3, 5) == 3
    assert not _order_is_p(7, 4, 3, 5)
    assert not _p_divides_order(7, 4, 3, 5)


@pytest.mark.parametrize("p", [1009, 2003, 3001])
def test_ladder_finds_curves_of_order_p(p):
    rng = random.Random(p)
    found = 0
    while found < 3:
        b = _random_good_b(rng, p)
        n = count_points_b(p, *b)
        assert _order_is_p(p, *b) == (n == p)
        found += n == p



@pytest.mark.parametrize("p", [31, 37, 41, 43])
def test_discriminant_prefilter_against_full_count(p):
    # every nonsingular short form y^2 = x^3 + A x + B, (b2, b4, b6) = (0, 2A, 4B);
    # a nonsquare discriminant leaves one root of the cubic, so #E is even
    squares = {x * x % p for x in range(1, p)}
    nonsquare = 0
    for A in range(p):
        for B in range(p):
            disc = (-4 * A**3 - 27 * B * B) % p
            if disc == 0:
                continue
            n = naive_group_order(p, 0, 0, 0, A, B)
            assert _order_is_p(p, 0, 2 * A, 4 * B) == (n % p == 0)
            if disc not in squares:
                assert n % 2 == 0
                nonsquare += 1
    assert nonsquare > p * p // 3

def test_predicate_matches_count_up_to_2_16():
    rng = random.Random(67)
    primes = primes_up_to(65521)[1:]
    for _ in range(60):
        p = rng.choice(primes)
        b = _random_good_b(rng, p)
        assert _p_divides_order(p, *b) == (count_points_b(p, *b) % p == 0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_order_table_matches_count_on_every_residue_triple(p):
    # the table range: every nonsingular triple of residues, then seeded
    # unreduced and negative triples
    triples = []
    for a2 in range(p):
        for a4 in range(p):
            for a6 in range(p):
                b = _b_invariants(p, a2, a4, a6)
                if b is not None:
                    triples.append(b)
    # (a2, a4, a6) -> (b2, b4, b6) is a bijection of F_p^3
    assert len({tuple(x % p for x in b) for b in triples}) == len(triples)
    rng = random.Random(p)
    for _ in range(300):
        b = _b_invariants(p, *(rng.randrange(-10**12, 10**12) for _ in range(3)))
        if b is not None:
            triples.append(b)
    assert any(min(b) < 0 for b in triples) and any(max(b) >= p for b in triples)
    for b in triples:
        assert _p_divides_order(p, *b) == (count_points_b(p, *b) % p == 0), b


def test_a_second_prime_scan_builds_no_order_table(monkeypatch):
    # the tables are kept for the life of the process: a cache of one p, or
    # of one call, would rebuild them in every scan
    calls = []
    count = finitefield.count_points_b

    def counting(p, b2, b4, b6):
        calls.append(p)
        return count(p, b2, b4, b6)

    monkeypatch.setattr(finitefield, "count_points_b", counting)
    _order_table.cache_clear()
    E1 = WeierstrassModel(1, 0, 1, -141, 624)
    first = prime_scan(E1, 100)
    # E1 has good reduction at 3, 5 and 7, so the first scan builds all three
    assert sorted(set(calls)) == [3, 5, 7]
    assert len(calls) == 27 + 125 + 343
    calls.clear()
    assert prime_scan(E1, 100) == first
    # and the second counts nowhere: the ladder takes every p from 11 on
    assert calls == []


def test_hasse_bound():
    rng = random.Random(32)
    for p in (3, 5, 7, 11, 13, 101, 997):
        for _ in range(40):
            c = reduce_model(WeierstrassModel(*(rng.randrange(p) for _ in range(5))), p)
            if c.is_singular:
                continue
            n = group_order(c)
            assert (n - p - 1) ** 2 <= 4 * p


def test_is_anomalous_examples():
    assert is_anomalous(WeierstrassModel(0, 0, 0, 3, 0), 5)
    assert not is_anomalous(WeierstrassModel(0, 0, 0, 1, 1), 5)
    with pytest.raises(BadReductionError):
        is_anomalous(WeierstrassModel(0, -1, 1, -10, -20), 11)  # I_5 at 11
    with pytest.raises(BadReductionError):
        is_anomalous(WeierstrassModel(0, 0, 0, 0, 0), 5)  # singular
    with pytest.raises(ValueError):
        is_anomalous(WeierstrassModel(0, 0, 0, 1, 1), 2)


def test_is_anomalous_accepts_nonminimal_good_model():
    # scale a good-at-5 curve by u = 5: still good reduction after minimalising
    m = WeierstrassModel(0, 0, 0, 1, 1)
    big = WeierstrassModel(0, 0, 0, 5**4, 5**6)
    assert is_anomalous(big, 5) == is_anomalous(m, 5)


def test_is_anomalous_large_prime_has_ap_exactly_one():
    # for p >= 7, Hasse forces a_p = 1 on anomalous curves
    rng = random.Random(33)
    p = 101
    found = 0
    while found < 5:
        a = [rng.randrange(p) for _ in range(5)]
        c = reduce_model(WeierstrassModel(*a), p)
        if c.is_singular:
            continue
        if group_order(c) % p == 0:
            assert group_order(c) == p + 1 - 1
            found += 1


def test_census_matches_class_numbers():
    for p in (3, 5):
        expected = hurwitz_class_number(1 - 4 * p).h + hurwitz_class_number(p * p + 1 - 6 * p).h
        assert census_torsion_classes(p).classes == expected == 2
    for p in (7, 11, 13, 17, 19, 23):
        assert census_torsion_classes(p).classes == hurwitz_class_number(1 - 4 * p).h


def test_census_rejects_out_of_range():
    with pytest.raises(ValueError):
        census_torsion_classes(2)
    with pytest.raises(ValueError):
        census_torsion_classes(65537)


@pytest.mark.parametrize("call", [census_torsion_classes, d_count])
@pytest.mark.parametrize("p", [2, 9, 65537])
def test_point_count_range_raises_input_error(call, p):
    with pytest.raises(InputError):
        call(p)


def test_census_without_d_has_no_d_over_p5():
    assert CensusResult(7, 2).d_over_p5 is None


def test_census_orbit_partition():
    # orbits of short forms partition the nonsingular (c, d) pairs
    for p in (5, 7, 11):
        nonsingular = sum(
            1
            for c in range(p)
            for d in range(p)
            if (4 * c**3 + 27 * d * d) % p != 0
        )
        orbits = set()
        for c in range(p):
            for d in range(p):
                if (4 * c**3 + 27 * d * d) % p == 0:
                    continue
                orbit = frozenset(
                    (c * pow(s, 4, p) % p, d * pow(s, 6, p) % p) for s in range(1, p)
                )
                orbits.add(orbit)
        assert sum(len(o) for o in orbits) == nonsingular


def test_d_count_against_literal_loop():
    assert d_count(3).d == d_count_literal(3)
    assert d_count(5).d == d_count_literal(5)


def test_d_count_bounds():
    assert d_count(3).d <= 54  # p^3 (p-1)/2 * class count
    for p in (3, 5, 7, 11, 13):
        assert d_count(p).d_over_p5 <= frak_d_p_prime(p)
    with pytest.raises(ValueError):
        d_count(65537)
    with pytest.raises(ValueError):
        d_count(2)


def test_classes_match_pair_walk():
    for p in primes_up_to(250)[2:]:
        want = census_by_pair_walk(p)
        assert (census_torsion_classes(p).classes, d_count(p).d) == want, p


def test_d_count_matches_triple_loop():
    for p in (3, 5, 7, 11, 13):
        assert d_count(p).d == d_count_by_triples(p), p


def test_census_identities_below_1000():
    # the forms path against one predicate call per listed class, at every
    # odd p < 1000 and at two seeded primes in (2^15, 2^16), about 1.5 s
    # each; the listing holds every nonsingular triple once
    rng = random.Random(41)
    seeded = rng.sample([q for q in primes_up_to(1 << 16) if q > 1 << 15], 2)
    for p in primes_up_to(1000)[1:] + seeded:
        classes, d, triples = census_by_class_listing(p)
        assert triples == p**3 - p * p, p
        assert census_torsion_classes(p).classes == classes, p
        assert d_count(p).d == d, p


def test_d_over_p5_equals_frak_d_p_prime_but_at_extra_automorphisms():
    # d'_p counts each class once, d(p)/p^5 by 2/#Aut: they part only where a
    # class has j = 1728 (p = 5, trace -4) or j = 0 (4p - 1 = 3 f^2)
    parted = []
    for p in primes_up_to(2000)[1:]:
        d, bound = d_count(p).d_over_p5, frak_d_p_prime(p)
        f = isqrt((4 * p - 1) // 3)
        if p == 5 or 3 * f * f == 4 * p - 1:
            assert d < bound, p
            parted.append(p)
        else:
            assert d == bound, p
    assert parted[:5] == [5, 7, 19, 37, 61]
    assert frak_d_p_prime(5) / d_count(5).d_over_p5 == Fraction(4, 3)
    assert frak_d_p_prime(7) / d_count(7).d_over_p5 == Fraction(3, 2)


def test_census_json():
    r = census_torsion_classes(7)
    assert r.to_json_dict() == {"p": 7, "classes": 2}
    d = d_count(3).to_json_dict()
    assert d["d"] == 54 and d["d_over_p5"] == "2/9"


@pytest.mark.parametrize("p", [9, 15])
def test_odd_composites_rejected(p):
    with pytest.raises(ValueError):
        is_anomalous(WeierstrassModel(0, 0, 0, 1, 1), p)
    with pytest.raises(ValueError):
        census_torsion_classes(p)
    with pytest.raises(ValueError):
        d_count(p)
