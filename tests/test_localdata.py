import hashlib
import pickle
import random

import pytest

from ellstat.arith import InputError, factorize, primes_up_to, valuation
from ellstat.curves import SingularCurveError, WeierstrassModel, compute_invariants, transform
from ellstat.kodaira import KodairaType, parse_kodaira
from ellstat.localdata import (
    LocalData,
    LocalTorsionRank,
    PrimeScanRow,
    _I_n,
    _I_n_star,
    _tate_run,
    bad_primes,
    compute_I_p,
    conductor,
    local_minimal_model,
    local_torsion_rank_mult,
    prime_scan,
    tamagawa_p_divisible,
    tate,
)
from ellstat.finitefield import group_order, reduce_model

from oracles import local_torsion_rank_oracle, prime_scan_rows_by_prime

E1 = WeierstrassModel(1, 0, 1, -141, 624)
E2 = WeierstrassModel(0, 0, 0, -83667346875, -10711930420406250)
E3 = WeierstrassModel(0, 1, 0, -2, -8)


def random_model(rng, bound=15):
    while True:
        m = WeierstrassModel(*(rng.randrange(-bound, bound + 1) for _ in range(5)))
        if compute_invariants(m).delta != 0:
            return m


# --- kodaira type plumbing


def test_kodaira_labels_round_trip():
    for t in (
        KodairaType("I0"),
        KodairaType("In", 3),
        KodairaType("II"),
        KodairaType("I0*"),
        KodairaType("In*", 1),
        KodairaType("IV*"),
    ):
        assert parse_kodaira(t.label) == t
    assert KodairaType("In", 3).label == "In:3"
    assert KodairaType("In*", 1).label == "I*n:1"
    assert KodairaType("I0*").label == "I*0"
    with pytest.raises(ValueError):
        KodairaType("In", 0)
    with pytest.raises(ValueError):
        KodairaType("V")


@pytest.mark.parametrize("kind", ["I0", "II", "I0*"])
def test_kodaira_kind_without_index_refuses_one(kind):
    with pytest.raises(ValueError, match="carries no index"):
        KodairaType(kind, 1)


def test_kodaira_str_is_its_label():
    assert str(KodairaType("In", 3)) == "In:3"
    assert str(KodairaType("I0*")) == "I*0"


# --- paper anchor curves


def test_paper_conductors():
    assert conductor(E1) == 10082
    assert conductor(E2) == 6962
    assert conductor(E3) == 1568


def test_e1_local_data():
    at2 = tate(E1, 2)
    assert at2.kodaira == KodairaType("In", 3)
    assert at2.conductor_exponent == 1
    assert at2.v_min_delta == 3
    at71 = tate(E1, 71)
    assert at71.reduction == "additive" and at71.conductor_exponent == 2


def test_e3_local_data():
    assert tate(E3, 2).conductor_exponent == 5
    good = tate(E3, 5)
    assert good.kodaira.is_good and good.tamagawa == 1 and good.conductor_exponent == 0


def test_singular_input_rejected():
    with pytest.raises(SingularCurveError):
        tate(WeierstrassModel(0, 0, 0, 0, 0), 2)
    with pytest.raises(SingularCurveError):
        conductor(WeierstrassModel(0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        tate(E1, 6)


@pytest.mark.parametrize("ell", [6, 1, 0, -3])
def test_composite_ell_raises_input_error(ell):
    with pytest.raises(InputError, match=f"^{ell} is not prime$"):
        tate(E1, ell)
    with pytest.raises(InputError):
        local_minimal_model(WeierstrassModel(0, 0, 0, 0, 0), ell)


KNOWN_CONDUCTORS = [
    ((0, -1, 1, -10, -20), 11),
    ((0, 0, 1, -1, 0), 37),
    ((1, 0, 1, 4, -6), 14),
    ((1, 1, 1, -10, -10), 15),
    ((0, 0, 0, 0, 1), 36),
    ((0, 0, 0, 4, 0), 32),
    ((0, 0, 0, -1, 0), 32),
    ((1, -1, 0, -2, -1), 49),
    ((0, 0, 1, 0, -7), 27),
    ((0, 1, 1, -2, 0), 389),
]


def test_known_conductors():
    for coeffs, n in KNOWN_CONDUCTORS:
        assert conductor(WeierstrassModel(*coeffs)) == n


def test_11a1_split_tamagawa():
    d = tate(WeierstrassModel(0, -1, 1, -10, -20), 11)
    assert d.kodaira == KodairaType("In", 5)
    assert d.reduction == "split-multiplicative"
    assert d.tamagawa == 5


# --- structural properties of the algorithm


def tame_type_from_valuations(vc4, vd):
    if vd == 0:
        return KodairaType("I0")
    if vc4 == 0:
        return KodairaType("In", vd)
    if vd == 2:
        return KodairaType("II")
    if vd == 3:
        return KodairaType("III")
    if vd == 4:
        return KodairaType("IV")
    if vd == 6:
        return KodairaType("I0*")
    if vc4 == 2:
        return KodairaType("In*", vd - 6)
    if vd == 8:
        return KodairaType("IV*")
    if vd == 9:
        return KodairaType("III*")
    if vd == 10:
        return KodairaType("II*")
    raise AssertionError(f"impossible tame pair ({vc4}, {vd})")


def test_tame_classification_table():
    rng = random.Random(71)
    seen = set()
    for _ in range(2500):
        ell = rng.choice([5, 7, 11, 13])
        m = random_model(rng, 20)
        if rng.random() < 0.65:
            e = rng.choice([(1, 1, 2, 2, 3), (1, 2, 3, 4, 6), (0, 1, 1, 2, 2), (1, 2, 2, 3, 5)])
            coeffs = [c * ell**k for c, k in zip(m.coefficients(), e)]
            m = WeierstrassModel(*coeffs)
            if compute_invariants(m).delta == 0:
                continue
        data = tate(m, ell)
        minimal, _ = local_minimal_model(m, ell)
        c4 = compute_invariants(minimal).c4
        vc4 = 99 if c4 == 0 else (valuation(c4, ell) if c4 % ell == 0 else 0)
        assert data.kodaira == tame_type_from_valuations(vc4, data.v_min_delta)
        seen.add(data.kodaira.kind)
    assert {"I0", "In", "II", "III", "IV", "I0*", "In*"} <= seen


def test_targeted_additive_types_at_tame_primes():
    # II*: v(c4) >= 4, v(delta) = 10: e.g. y^2 = x^3 + ell^5 x + ell^5 has
    # v(c4) = 5, v(delta) = 10 when the unit part is nonzero
    for ell in (5, 7, 13):
        m = WeierstrassModel(0, 0, 0, ell**5, ell**5)
        assert tate(m, ell).kodaira == KodairaType("II*")
        m = WeierstrassModel(0, 0, 0, ell**3, ell**5)  # v(c4)=3, v(delta)=9: III*
        assert tate(m, ell).kodaira == KodairaType("III*")
        m = WeierstrassModel(0, 0, 0, ell, 0)  # v(delta) = 3: III
        assert tate(m, ell).kodaira == KodairaType("III")
        m = WeierstrassModel(0, 0, 0, 0, ell)  # v(delta) = 2: II
        assert tate(m, ell).kodaira == KodairaType("II")
        m = WeierstrassModel(0, 0, 0, 0, ell**4)  # v(delta) = 8, v(c4) inf: IV*
        assert tate(m, ell).kodaira == KodairaType("IV*")
        m = WeierstrassModel(0, 0, 0, ell**2, 0)  # I0*: v(delta)=6
        assert tate(m, ell).kodaira == KodairaType("I0*")


def test_non_minimal_models_rescaled():
    for ell in (2, 3, 5):
        m = WeierstrassModel(1, -1, 1, -3, 3)
        big = WeierstrassModel(
            *(c * ell**k for c, k in zip(m.coefficients(), (1, 2, 3, 4, 6)))
        )
        d_small, d_big = tate(m, ell), tate(big, ell)
        assert d_big.was_minimal is False
        assert (d_big.kodaira, d_big.tamagawa, d_big.conductor_exponent) == (
            d_small.kodaira,
            d_small.tamagawa,
            d_small.conductor_exponent,
        )
        minimal, _ = local_minimal_model(big, ell)
        delta_min = compute_invariants(minimal).delta
        if delta_min % ell == 0:
            assert valuation(delta_min, ell) == d_small.v_min_delta


def test_local_data_invariants_random():
    rng = random.Random(72)
    for _ in range(250):
        m = random_model(rng, 12)
        for ell in (2, 3, 5, 7, 11):
            d = tate(m, ell)
            if d.kodaira.is_good:
                assert d.conductor_exponent == 0 and d.tamagawa == 1
                assert compute_invariants(local_minimal_model(m, ell)[0]).delta % ell != 0
            elif d.kodaira.is_multiplicative:
                assert d.conductor_exponent == 1
                n = d.kodaira.n
                if d.reduction == "split-multiplicative":
                    assert d.tamagawa == n
                else:
                    assert d.tamagawa == (2 if n % 2 == 0 else 1)
            else:
                assert d.reduction == "additive"
                assert d.conductor_exponent >= 2
                assert d.v_min_delta >= 2
            if ell >= 5:
                assert d.conductor_exponent <= 2
                # Ogg's relation, reading the component count off the type
                assert d.conductor_exponent == (
                    0 if d.kodaira.is_good else d.v_min_delta + 1 - d.kodaira.components
                )


def test_tate_invariant_under_transform():
    rng = random.Random(73)
    curves = [random_model(rng, 10) for _ in range(20)]
    for m in curves:
        base = {ell: tate(m, ell) for ell in (2, 3, 5, 7)}
        for _ in range(100):
            u = rng.choice([1, 1, 2, 3])
            r, s, t = (rng.randrange(-6, 7) for _ in range(3))
            big = WeierstrassModel(
                *(c * u**k for c, k in zip(m.coefficients(), (1, 2, 3, 4, 6)))
            )
            moved = transform(big, 1, r, s, t)
            for ell in (2, 3, 5, 7):
                d = tate(moved, ell)
                b = base[ell]
                assert (d.kodaira, d.tamagawa, d.conductor_exponent, d.v_min_delta, d.reduction) == (
                    b.kodaira,
                    b.tamagawa,
                    b.conductor_exponent,
                    b.v_min_delta,
                    b.reduction,
                )


def test_good_reduction_iff_prime_to_delta():
    rng = random.Random(74)
    for _ in range(120):
        m = random_model(rng, 25)
        delta = compute_invariants(m).delta
        for ell in (2, 3, 5, 7, 11, 13):
            d = tate(m, ell)
            if delta % ell != 0:
                assert d.kodaira.is_good and d.tamagawa == 1 and d.conductor_exponent == 0


def test_multiplicative_iff_valuations():
    rng = random.Random(75)
    for _ in range(150):
        m = random_model(rng, 12)
        for ell in (2, 3, 5, 7):
            d = tate(m, ell)
            minimal, _ = local_minimal_model(m, ell)
            inv = compute_invariants(minimal)
            v_delta = d.v_min_delta
            v_c4_pos = inv.c4 % ell == 0
            if d.kodaira.is_multiplicative:
                assert v_delta >= 1 and not v_c4_pos
            elif d.kodaira.is_additive:
                assert v_delta >= 1 and v_c4_pos


# --- Tamagawa divisibility and S_p


def test_tamagawa_p_divisible_definition_unwinding():
    # 11a1 has c_11 = 5: S_5 membership through ell = 11
    m = WeierstrassModel(0, -1, 1, -10, -20)
    assert tamagawa_p_divisible(m, 5) == [11]
    assert tamagawa_p_divisible(m, 3) == []


def test_tamagawa_p_divisible_e3():
    cs = {ell: tate(E3, ell).tamagawa for ell in bad_primes(E3)}
    assert all(c % 5 != 0 for c in cs.values())
    assert tamagawa_p_divisible(E3, 5) == []


def test_tamagawa_p_divisible_type_direction():
    # every returned prime carries one of the types the p | c criterion allows
    rng = random.Random(76)
    hits = 0
    for _ in range(300):
        m = random_model(rng, 12)
        for p in (3, 5):
            for ell in tamagawa_p_divisible(m, p):
                d = tate(m, ell)
                hits += 1
                if p >= 5:
                    assert d.kodaira.kind == "In" and d.kodaira.n % p == 0
                else:
                    assert (
                        d.kodaira.kind == "In" and d.kodaira.n % 3 == 0
                    ) or d.kodaira.kind in ("IV", "IV*")
    assert hits >= 5


def test_good_everywhere_away_gives_empty():
    m = WeierstrassModel(0, 0, 0, 1, 1)  # delta = -496 = -16*31
    assert tamagawa_p_divisible(m, 7) == []


# --- local torsion ranks


def test_local_torsion_rank_trivial_cases():
    # split, ell = 1 mod p, p does not divide v: rank 1
    d = tate(WeierstrassModel(0, -1, 1, -10, -20), 11)
    assert d.reduction == "split-multiplicative" and d.v_min_delta == 5
    r = local_torsion_rank_mult(WeierstrassModel(0, -1, 1, -10, -20), 11, 3)
    assert (r.rank, r.rank_nr) == (0, 1)  # 11 = 2 mod 3, 3 does not divide 5
    r5 = local_torsion_rank_mult(WeierstrassModel(0, -1, 1, -10, -20), 11, 5)
    assert r5.rank == 2 and r5.rank_nr == 2


def test_local_torsion_rank_requires_multiplicative():
    with pytest.raises(ValueError):
        local_torsion_rank_mult(E1, 71, 3)  # additive at 71
    with pytest.raises(ValueError):
        local_torsion_rank_mult(E1, 2, 2)


def test_local_torsion_rank_needs_p_other_than_ell():
    # 11a1 is split multiplicative at 11, so only p = ell is wrong here
    with pytest.raises(ValueError, match="different from ell"):
        local_torsion_rank_mult(WeierstrassModel(0, -1, 1, -10, -20), 11, 11)


@pytest.mark.parametrize("rank, rank_nr", [(-1, 0), (2, 1), (3, 3)])
def test_local_torsion_rank_bounds(rank, rank_nr):
    with pytest.raises(ValueError):
        LocalTorsionRank(11, rank, rank_nr)


def test_local_torsion_ranks_match_hensel_oracle():
    rng = random.Random(77)
    pairs = 0
    while pairs < 60:
        m = random_model(rng, 9)
        delta = compute_invariants(m).delta
        for ell in sorted(factorize(delta)):
            if ell > 60:
                continue
            if not tate(m, ell).kodaira.is_multiplicative:
                continue
            for p in (3, 5):
                if ell == p:
                    continue
                try:
                    want = local_torsion_rank_oracle(m, ell, p)
                except RuntimeError:
                    continue
                got = local_torsion_rank_mult(m, ell, p)
                assert got.rank == want, (m, ell, p)
                assert got.rank <= got.rank_nr <= 2
                pairs += 1
    assert pairs >= 60


def test_split_In_component_group_reaches_torsion():
    # split I_n with p | n: the Tate-parameter line contributes, so rank >= 1
    rng = random.Random(78)
    found = 0
    while found < 6:
        m = random_model(rng, 10)
        for ell in (2, 5, 7, 11, 13):
            d = tate(m, ell)
            if (
                d.reduction == "split-multiplicative"
                and d.kodaira.n % 3 == 0
                and ell != 3
            ):
                r = local_torsion_rank_mult(m, ell, 3)
                assert r.rank >= 1
                assert local_torsion_rank_oracle(m, ell, 3) == r.rank
                found += 1


def test_additive_tamagawa_p_part_matches_torsion_oracle():
    # at an additive prime ell != p the identity component is p-divisible, so
    # E(Q_ell)[p] is the p-part of the component group: p | c_ell iff the
    # division-polynomial oracle sees a point
    rng = random.Random(80)
    checked3 = checked5 = 0
    while checked3 < 40 or checked5 < 25:
        m = random_model(rng, 9)
        for ell in (2, 3, 5, 7):
            d = tate(m, ell)
            if not d.kodaira.is_additive:
                continue
            for p in (3, 5):
                if ell == p:
                    continue
                try:
                    rank = local_torsion_rank_oracle(m, ell, p)
                except RuntimeError:
                    continue
                assert (d.tamagawa % p == 0) == (rank >= 1), (m, ell, p, d)
                if p == 3:
                    checked3 += 1
                else:
                    checked5 += 1


def test_compute_I_p():
    assert compute_I_p(WeierstrassModel(0, 0, 0, 0, 1), 5) == set()  # no multiplicative primes
    # E1: multiplicative only at 2, nonsplit I_3; 2 = -1 mod 3 but 3 | v(delta)
    # so the unramified rank is 2, excluding it from the p = 3 set
    r = local_torsion_rank_mult(E1, 2, 3)
    assert (r.rank, r.rank_nr) == (1, 2)
    assert compute_I_p(E1, 3) == set()
    assert local_torsion_rank_oracle(E1, 2, 3) == 1


def test_compute_I_p_split_line_member():
    # 11a1 at p = 3: ell = 11 is split with rank E(Q_11)[3] = 0: empty
    m = WeierstrassModel(0, -1, 1, -10, -20)
    assert compute_I_p(m, 3) == set()
    # and at p = 5 the rank is 2, not 1, so still empty
    assert compute_I_p(m, 5) == set()
    rng = random.Random(79)
    found = 0
    while found < 4:
        mm = random_model(rng, 9)
        for p in (3, 5):
            got = compute_I_p(mm, p)
            for ell in got:
                assert local_torsion_rank_mult(mm, ell, p).rank == 1
                found += 1


# --- fixed-curve prime scan


def test_prime_scan_good_reduction_flags():
    rep = prime_scan(E3, 50)
    for row in rep.rows:
        assert row.good_reduction == (14 % row.p != 0)


def test_prime_scan_large_primes_all_clear():
    rep = prime_scan(E3, 200)
    tail = [r for r in rep.rows if r.p > 60]
    assert tail
    for row in tail:
        assert row.good_reduction
        assert not row.tamagawa_divisible
        assert not row.bad_local_torsion


def test_prime_scan_anomalous_matches_direct_count():
    # E2 is not minimal at 3, 5 and 7 but has good reduction there, so the
    # scan must count points on the minimal model
    for E in (E1, E2):
        rep = prime_scan(E, 100)
        for row in rep.rows:
            if not row.good_reduction:
                assert not row.anomalous
                continue
            minimal, _ = local_minimal_model(E, row.p)
            direct = group_order(reduce_model(minimal, row.p)) % row.p == 0
            assert row.anomalous == direct


def test_prime_scan_anomalous_matches_group_order_to_3000():
    # above the ladder's crossover the scan no longer counts points
    for E in (E1, E2, E3):
        for row in prime_scan(E, 3000).rows:
            if row.good_reduction:
                minimal, _ = local_minimal_model(E, row.p)
                direct = group_order(reduce_model(minimal, row.p)) % row.p == 0
            else:
                direct = False
            assert row.anomalous == direct, (E, row.p)



def test_prime_scan_rows_match_every_rule_at_every_prime():
    # the scan runs the Tamagawa and torsion rules only at the p that divide
    # one product over the bad primes; the curves cover each way in
    curves = [
        E1,  # nonsplit I3 at 2, 2 = -1 (mod 3); III at 71
        E2,  # split I3 at 2, 3 | v; not minimal at 3, 5 and 7
        E3,
        WeierstrassModel(0, -1, 1, -10, -20),  # split I5 at 11, 11 = 1 (mod 5)
        WeierstrassModel(0, 0, 0, -9, 0),  # I0* with c = 4 at 3
        WeierstrassModel(0, 0, 0, 0, 784),  # IV with c = 3 at 7
    ]
    rng = random.Random(23)
    curves += [random_model(rng, 40) for _ in range(20)]
    odd = primes_up_to(2000)[1:]
    seen = set()
    for m in curves:
        for ell in bad_primes(m):
            d = tate(m, ell)
            if d.reduction == "split-multiplicative":
                if any((ell - 1) % p == 0 for p in odd):
                    seen.add("split, ell = 1 (mod p)")
                if any(p != ell and d.v_min_delta % p == 0 for p in odd):
                    seen.add("split, p | v")
            elif d.reduction == "nonsplit-multiplicative":
                if any(p != ell and (ell + 1) % p == 0 for p in odd):
                    seen.add("nonsplit, ell = -1 (mod p)")
            elif d.reduction == "additive":
                seen.add(f"additive, c = {d.tamagawa}")
        assert prime_scan(m, 2000).rows == tuple(prime_scan_rows_by_prime(m, 2000)), m
    assert seen >= {"split, ell = 1 (mod p)", "split, p | v", "nonsplit, ell = -1 (mod p)",
                    "additive, c = 2", "additive, c = 3", "additive, c = 4"}

def test_prime_scan_report_shape():
    rep = prime_scan(E3, 30)
    d = rep.to_json_dict()
    assert d["curve"] == "0,1,0,-2,-8"
    assert set(rep.failure_fractions) == {
        "bad_reduction",
        "anomalous",
        "tamagawa_divisible",
        "bad_local_torsion",
    }
    assert all(0 <= v <= 1 for v in rep.failure_fractions.values())


def test_prime_scan_keeps_one_sieve():
    # scans to many limits keep only the last sieve, and factorisation reads
    # a list of its own, so a repeated scan finds its sieve still cached
    for p_max in (1000, 2000, 3000):
        prime_scan(E1, p_max)
    assert primes_up_to.cache_info().currsize == 1
    hits = primes_up_to.cache_info().hits
    prime_scan(E1, 3000)
    assert primes_up_to.cache_info().hits == hits + 1


def test_local_data_json_schema():
    d = tate(E1, 2).to_json_dict()
    assert d == {
        "prime": 2,
        "kodaira": "In:3",
        "tamagawa": 1,
        "f": 1,
        "v_delta": 3,
        "reduction": "nonsplit-multiplicative",
    }


def test_local_data_contract():
    # a record with these fields in this order, immutable, equal and
    # equally hashed across runs, and unchanged by a pickle round trip
    assert LocalData._fields == ("prime", "kodaira", "tamagawa", "conductor_exponent",
                                 "v_min_delta", "was_minimal", "reduction")
    for m in (E1, E2, E3):
        for ell in bad_primes(m) + [5, 7]:
            d = tate(m, ell)
            with pytest.raises(AttributeError):
                d.tamagawa = 0
            with pytest.raises(AttributeError):
                d.extra = 0
            again = tate(m, ell)
            assert again == d and hash(again) == hash(d)
            assert pickle.loads(pickle.dumps(d)) == d
            assert set(d.to_json_dict()) == {"prime", "kodaira", "tamagawa", "f", "v_delta",
                                             "reduction"}


def test_prime_scan_row_contract():
    # a row with these fields in this order, immutable, equal to the plain
    # tuple of its values and unchanged by a pickle round trip
    assert PrimeScanRow._fields == ("p", "good_reduction", "anomalous", "tamagawa_divisible",
                                    "bad_local_torsion")
    rows = prime_scan(E1, 100).rows
    assert rows[0] == PrimeScanRow(3, True, True, False, True)
    for row in rows:
        with pytest.raises(AttributeError):
            row.anomalous = True
        with pytest.raises(AttributeError):
            row.extra = 0
        plain = (row.p, row.good_reduction, row.anomalous, row.tamagawa_divisible,
                 row.bad_local_torsion)
        assert row == plain and hash(row) == hash(plain)
        assert pickle.loads(pickle.dumps(row)) == row
        assert type(pickle.loads(pickle.dumps(row))) is PrimeScanRow


def test_nroots_cubic_matches_brute_force():
    from ellstat.localdata import _nroots_cubic

    def disc(b, c, d, p):
        return (18*b*c*d - 4*b**3*d + b*b*c*c - 4*c**3 - 27*d*d) % p

    def brute(b, c, d, p):
        return sum(1 for t in range(p) if (t**3 + b*t*t + c*t + d) % p == 0)

    # every separable cubic over F_2, F_3, F_5 and F_7
    for p in (2, 3, 5, 7):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if disc(b, c, d, p):
                        assert _nroots_cubic(b, c, d, p) == brute(b, c, d, p), (b, c, d, p)
    rng = random.Random(81)
    for p in (101, 997, 1009, 4001, 10007):
        seen = set()
        for _ in range(40):
            b, c, d = (rng.randrange(p) for _ in range(3))
            if disc(b, c, d, p) == 0:
                continue
            n = brute(b, c, d, p)
            assert _nroots_cubic(b, c, d, p) == n, (b, c, d, p)
            seen.add(n)
        assert seen == {0, 1, 3}  # the split, one-root and irreducible cases


def test_quadratic_matches_brute_force():
    from ellstat.localdata import _quadratic

    # every quadratic with A != 0 over F_2, F_3, F_5 and F_7, also given by
    # lifts outside 0..p-1, as Tate's steps pass them
    rng = random.Random(82)
    for p in (2, 3, 5, 7):
        seen = set()
        for A in range(1, p):
            for B in range(p):
                for C in range(p):
                    roots = [x for x in range(p) if (A * x * x + B * x + C) % p == 0]
                    # one root over F_p is a double root; two or none are distinct
                    want = (None, roots[0]) if len(roots) == 1 else (len(roots) == 2, 0)
                    lifts = [(A, B, C)] + [
                        tuple(v + p * rng.randrange(-10**6, 10**6) for v in (A, B, C))
                        for _ in range(3)]
                    for args in lifts:
                        assert _quadratic(*args, p) == want, (args, p)
                    seen.add(want[0])
        assert seen == {None, True, False}, p


def test_one_tate_run_per_bad_prime(monkeypatch):
    import ellstat.localdata as localdata

    calls = []
    run = localdata._tate_run

    def counting_run(model, ell, inv=None):
        calls.append(ell)
        return run(model, ell, inv)

    monkeypatch.setattr(localdata, "_tate_run", counting_run)
    # E1 has bad primes {2, 71}; the scan reuses both runs for every p
    for query in (lambda: prime_scan(E1, 3000), lambda: compute_I_p(E1, 3),
                  lambda: conductor(E1)):
        calls.clear()
        query()
        assert sorted(calls) == [2, 71]
    # E2 is not minimal at 3, 5 and 7; their runs also decide good reduction
    calls.clear()
    prime_scan(E2, 3000)
    assert sorted(calls) == [2, 3, 5, 7, 59]


def test_is_anomalous_minimal_bad_prime_needs_no_tate(monkeypatch):
    import ellstat.localdata as localdata
    from ellstat.finitefield import BadReductionError, is_anomalous

    def no_run(model, ell):
        raise AssertionError("Tate run on a model that is already minimal")

    monkeypatch.setattr(localdata, "_tate_run", no_run)
    # v_11(Delta) = 5 < 12: I_5 at 11 on a minimal model
    with pytest.raises(BadReductionError):
        is_anomalous(WeierstrassModel(0, -1, 1, -10, -20), 11)


def test_tate_additive_at_large_prime():
    # I0* with component count decided by a cubic over a 5-digit prime
    q = 10007
    m = WeierstrassModel(0, 0, 0, q * q, 0)  # T^3 + T over F_q after scaling
    d = tate(m, q)
    assert d.kodaira == KodairaType("I0*")
    # roots of T(T^2+1): 1 + [-1 is a QR]; 10007 = 3 mod 4 so just T = 0
    assert d.tamagawa == 2
    assert d.conductor_exponent == 2
    m2 = WeierstrassModel(0, 0, 0, 0, q**5)  # v(c4)=inf, v(delta)=10: II*
    assert tate(m2, q).kodaira == KodairaType("II*")


# --- Tate runs pinned byte for byte

_KINDS = ("I0", "In", "II", "III", "IV", "I0*", "In*", "IV*", "III*", "II*")


def _rescaled(m, u):
    return WeierstrassModel(u * m.a1, u**2 * m.a2, u**3 * m.a3, u**4 * m.a4, u**6 * m.a6)


def _pinned_tate_models(ell):
    """Seeded draws at four heights, some of them rescaled by u = 2, 3, 5, 6
    and by ell, then directed models: y^2 = x^3 + ell^a x + ell^b, the
    I_nu* families y^2 = x^3 + ell x^2 + ell^m and y^2 = x^3 + ell x^2 +
    ell^k x, and all of these rescaled by ell."""
    draws = []
    for height, n in ((2, 200), (8, 200), (1000, 200), (10**6, 100)):
        rng = random.Random(height)
        batch = [
            WeierstrassModel(*(rng.randrange(1 - height**i, height**i) for i in (1, 2, 3, 4, 6)))
            for _ in range(n)
        ]
        draws += batch + [_rescaled(m, u) for m in batch[:25] for u in (2, 3, 5, 6)]
    draws = [m for m in draws if compute_invariants(m).delta != 0]
    directed = [WeierstrassModel(0, 0, 0, ell**a, ell**b) for a in range(5) for b in range(6)]
    directed += [WeierstrassModel(0, ell, 0, 0, ell**m) for m in (4, 5, 6)]
    directed += [WeierstrassModel(0, ell, 0, ell**k, 0) for k in (3, 4)]
    directed = [m for m in directed if compute_invariants(m).delta != 0]
    return draws + directed + [_rescaled(m, ell) for m in directed + draws[::8]]


def test_tate_run_from_given_invariants_matches():
    for ell in (2, 3, 5, 7, 11, 13):
        for m in _pinned_tate_models(ell):
            assert _tate_run(m, ell, compute_invariants(m)) == _tate_run(m, ell), (m, ell)


def test_tate_runs_pinned():
    # sha256 of every (ell-minimal model, LocalData) pair; recorded before
    # the body of _tate_run was restructured, so any change in its output
    # fails here
    h = hashlib.sha256()
    for ell in (2, 3, 5, 7, 11, 13):
        cells, nus = set(), set()
        for m in _pinned_tate_models(ell):
            minimal, data = _tate_run(m, ell)
            h.update(repr((ell, minimal, data)).encode())
            cells.add((data.kodaira.kind, data.was_minimal))
            if data.kodaira.kind == "In*":
                nus.add(data.kodaira.n)
        # every type, on minimal and on non-minimal input, and the I_nu*
        # chain past its first X- and its second Y-step
        assert cells == {(kind, was) for kind in _KINDS for was in (True, False)}, ell
        assert {2, 3} <= nus, ell
    assert h.hexdigest() == "8adb7b5bd04532f01a1b2bd5b38f7d7a9d5f1920ed1b831e3c66a7fb679b78c3"


def test_tate_runs_share_kodaira_types():
    # every run that ends in one type returns the same instance, equal to a
    # newly built one
    shared = {}
    for ell in (2, 3, 5):
        for m in _pinned_tate_models(ell):
            k = tate(m, ell).kodaira
            assert k is shared.setdefault((k.kind, k.n), k), (m, ell)
            assert k == KodairaType(k.kind, k.n)
    assert len(shared) >= 12


def test_indexed_kodaira_caches_are_bounded():
    # y^2 + xy = x^3 + 3^n is I_n at 3 and y^2 = x^3 + 3x^2 + 3^(n+3) is
    # I_n* at 3: runs past the caches' size leave each at most full
    for cache, kind, model in (
        (_I_n, "In", lambda n: WeierstrassModel(1, 0, 0, 0, 3**n)),
        (_I_n_star, "In*", lambda n: WeierstrassModel(0, 3, 0, 0, 3 ** (n + 3))),
    ):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None
        for n in range(1, maxsize + 51):
            assert tate(model(n), 3).kodaira == KodairaType(kind, n)
        assert cache.cache_info().currsize <= maxsize


def _deep_chain_models(ell):
    """y^2 = x^3 + u ell x^2 + w ell^k and y^2 = x^3 + u ell x^2 + w ell^k x
    for k = 6..19, each also moved by a seeded (r, s, t) shift, so that the
    chain's own shifts are nonzero, and rescaled by ell."""
    base = [WeierstrassModel(0, u * ell, 0, a4, a6)
            for u in (1, -1, 2) for w in (1, -1, 2, 3) for k in range(6, 20)
            for a4, a6 in ((0, w * ell**k), (w * ell**k, 0))]
    base = [m for m in base if compute_invariants(m).delta != 0]
    rng = random.Random(ell)
    moved = [transform(m, 1, *(rng.randrange(-50, 51) for _ in range(3))) for m in base]
    return base + moved + [_rescaled(m, ell) for m in moved[::4]]


def test_tate_deep_chain_pinned():
    # sha256 of every (ell, ell-minimal model, LocalData) on models deep in
    # the I_nu* chain; recorded before its X- and Y-steps became one rule
    h = hashlib.sha256()
    for ell in (2, 3, 5):
        cells = set()
        for m in _deep_chain_models(ell):
            minimal, data = _tate_run(m, ell)
            h.update(repr((ell, minimal, data)).encode())
            if data.kodaira.kind == "In*" and data.kodaira.n >= 10:
                cells.add((data.kodaira.n % 2, data.tamagawa))
        # both exits (Y-side at odd nu, X-side at even nu), each with c = 2
        # and c = 4, past nu = 10
        assert cells == {(parity, c) for parity in (0, 1) for c in (2, 4)}, ell
    assert h.hexdigest() == "4101c5bbc04e31df2a7db13c939011a0798b08e69a93b58231bad1fcb4a1d05c"
