from fractions import Fraction

import pytest

from ellstat.kodaira import KodairaType
from ellstat.density import (
    AmbiguousIntervalComparison,
    CertifiedValue,
    corollary_gap_check,
    delaunay_mass,
    density_report,
    frak_d_p,
    frak_d_p_prime,
    main_bound,
    product_density,
    ps_bounds,
    rho,
    rho_In_ge,
    rho_Instar_ge1,
    rho_M,
    rho_M_In_ge,
    rho_M_Instar_ge1,
    sp_doubleprime_density,
    zeta_minus_one,
)

ZETA3_REF = Fraction("0.202056903159594285")  # well below default width
ZETA7_REF = Fraction("0.008349277381922827")


def test_certified_value_basics():
    v = CertifiedValue(Fraction(1, 3), Fraction(1, 2))
    assert v.width == Fraction(1, 6)
    assert v.contains(Fraction(2, 5))
    w = v + 1
    assert (w.lo, w.hi) == (Fraction(4, 3), Fraction(3, 2))
    prod = v * -2
    assert (prod.lo, prod.hi) == (Fraction(-1), Fraction(-2, 3))
    with pytest.raises(ValueError):
        CertifiedValue(Fraction(1), Fraction(0))


def test_interval_comparison_only_when_disjoint():
    a = CertifiedValue(Fraction(0), Fraction(1, 4))
    b = CertifiedValue(Fraction(1, 2), Fraction(3, 4))
    assert a < b and b > a
    c = CertifiedValue(Fraction(1, 5), Fraction(3, 5))
    with pytest.raises(AmbiguousIntervalComparison):
        a < c  # noqa: B015 - the comparison itself is the assertion


def test_rho_table_values():
    assert rho_M(KodairaType("I0"), 2) == Fraction(1, 2)
    assert rho_M(KodairaType("II"), 3) == Fraction(2, 27)
    assert rho_M(KodairaType("In", 1), 2) == Fraction(1, 8)
    assert rho_M_In_ge(3, 2) == Fraction(1, 16)
    assert rho(KodairaType("I0"), 2) == Fraction(1, 2) / (1 - Fraction(1, 2**10))
    with pytest.raises(ValueError):
        rho_M(KodairaType("In*", 2), 5)


def test_rho_partition_identity_all_ell_to_100():
    from ellstat.arith import primes_up_to

    for ell in primes_up_to(100):
        total = rho_M(KodairaType("I0"), ell) + rho_M_In_ge(1, ell) + rho_M_Instar_ge1(ell)
        for kind in ("II", "III", "IV", "I0*", "IV*", "III*", "II*"):
            total += rho_M(KodairaType(kind), ell)
        assert total == 1 - Fraction(1, ell**10)


def test_rho_In_closed_form_agrees_with_series():
    # sum of the individual I_m entries telescopes to the aggregate
    for ell in (2, 3, 5):
        tail = rho_M_In_ge(1, ell)
        series = sum(rho_M(KodairaType("In", m), ell) for m in range(1, 60))
        assert 0 < tail - series < Fraction(1, ell**55)
        assert rho_In_ge(1, ell) == tail / (1 - Fraction(1, ell**10))
        assert rho_Instar_ge1(ell) == rho_M_Instar_ge1(ell) / (1 - Fraction(1, ell**10))


def test_zeta_minus_one_reference_values():
    z3 = zeta_minus_one(3)
    assert z3.contains(ZETA3_REF) and z3.width < Fraction(1, 10**9)
    z7 = zeta_minus_one(7)
    assert z7.contains(ZETA7_REF)
    with pytest.raises(ValueError):
        zeta_minus_one(1)


def test_zeta_tail_inequality_large_s():
    # zeta(s) - 1 < 2^-s (s+1)/(s-1); the margin is of order 2^-s, so the
    # requested width has to shrink with s
    for s in (11, 23, 47, 101):
        z = zeta_minus_one(s, Fraction(1, 2 ** (s + 10)))
        assert z.hi < Fraction(s + 1, (s - 1) * 2**s)


def test_zeta_nested_intervals_as_tol_shrinks():
    tols = [Fraction(1, 10**k) for k in (3, 6, 9, 12)]
    for s in (3, 4, 7):
        vals = [zeta_minus_one(s, t) for t in tols]
        for coarse, fine in zip(vals, vals[1:]):
            assert fine.width < coarse.width
            assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_frak_d_p_values():
    d3 = frak_d_p(3)
    # zeta(3) + zeta(4) + zeta(7) - 3 = 0.29272941425265...
    assert d3.contains(Fraction("0.29272941425265"))
    assert abs(float(d3.midpoint) - 0.2927294) < 1e-7
    d5 = frak_d_p(5)
    assert d5.contains(Fraction("0.03692775516"))
    assert abs(float(d5.midpoint) - 0.0369278) < 1e-7
    d7 = frak_d_p(7)
    assert d7.contains(ZETA7_REF)
    with pytest.raises(ValueError):
        frak_d_p(2)


def test_frak_d_p_prime_values():
    assert frak_d_p_prime(3) == Fraction(2, 9)
    assert frak_d_p_prime(5) == Fraction(4, 25)
    assert frak_d_p_prime(7) == Fraction(6, 49)
    with pytest.raises(ValueError):
        frak_d_p_prime(2)


def test_product_density_examples():
    v = product_density({2: Fraction(0), 5: Fraction(0)}, 0)
    assert (v.lo, v.hi) == (1, 1)
    v = product_density({2: Fraction(1, 2)}, 0)
    assert (v.lo, v.hi) == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        product_density({2: Fraction(3, 2)}, 0)
    with pytest.raises(ValueError):
        product_density({2: Fraction(1, 2)}, 1)


def test_product_density_theorem_3_7_chain():
    # s_ell = rho(I>=3) + rho(IV) + rho(IV*) over ell != 3 up to N, with the
    # integral-tail majorant: the bracket stays above the explicit zeta bound
    from ellstat.arith import primes_up_to

    N = 400
    s_values = {}
    for ell in primes_up_to(N):
        if ell == 3:
            continue
        s_values[ell] = rho_In_ge(3, ell) + rho(KodairaType("IV"), ell) + rho(
            KodairaType("IV*"), ell
        )
    # majorant for the omitted ell > N: each s_ell <= (l^-3 + l^-4 + l^-7)
    # scaled by (1 - 2^-10)^-1; bound the sum by integrals
    scale = 1 / (1 - Fraction(2) ** -10)
    tail = scale * (
        Fraction(N, (3 - 1) * N**3) + Fraction(N, (4 - 1) * N**4) + Fraction(N, (7 - 1) * N**7)
    )
    bracket = product_density(s_values, tail)
    floor = 1 - frak_d_p(3).hi
    assert bracket.lo > floor
    assert bracket.hi < 1


def test_sp_doubleprime_density():
    v3 = sp_doubleprime_density(3)
    assert v3 == 1 - rho(KodairaType("I0"), 3)
    assert abs(float(v3) - 0.3333221) < 1e-6
    assert abs(float(sp_doubleprime_density(5)) - 0.2) < 1e-6
    for p in (101, 1009):
        assert abs(sp_doubleprime_density(p) - Fraction(1, p)) < Fraction(1, p**9)


def test_main_bound_values():
    b3 = main_bound(3)
    assert Fraction("0.053") < b3.lo and b3.hi < Fraction("0.056")
    assert abs(float(b3.midpoint) - 0.0543) < 2e-5
    b5 = main_bound(5)
    assert b5.contains(Fraction("0.1244741113384"))  # (129/625)(16/25 - (zeta(5)-1))
    assert abs(float(b5.midpoint) - 0.1245) < 6e-5
    assert main_bound(7).lo > 0
    with pytest.raises(ValueError):
        main_bound(2)


def test_main_bound_below_one_over_p():
    from ellstat.arith import primes_up_to

    for p in primes_up_to(500):
        if p == 2:
            continue
        mb = main_bound(p)
        assert 0 < mb.lo and mb.hi < Fraction(1, p)


def test_delaunay_mass_values():
    m3 = delaunay_mass(3)
    assert m3.lo > Fraction(29, 81)
    assert Fraction("0.3609") < m3.lo and m3.hi < Fraction("0.3611")
    for p in (3, 5, 7, 11, 13, 97):
        # the margin above the target is of order p^-5, so ask for width p^-7
        m = delaunay_mass(p, Fraction(1, p**7))
        assert m.lo > Fraction(1, p) + Fraction(1, p**3) - Fraction(1, p**4)
    for p in (11, 13, 101):
        m = delaunay_mass(p)
        assert Fraction(1, p) < m.lo and m.hi < Fraction(1, p) + 2 * Fraction(1, p**3)


def test_delaunay_mass_nested_as_tol_shrinks():
    for p in (3, 7):
        vals = [delaunay_mass(p, Fraction(1, 10**k)) for k in (3, 6, 9, 12)]
        for coarse, fine in zip(vals, vals[1:]):
            assert fine.width < coarse.width
            assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_delaunay_mass_refuses_tol_below_floor():
    assert delaunay_mass(10007, Fraction(1, 10**100)).width < Fraction(1, 10**100)
    with pytest.raises(ValueError):
        delaunay_mass(10007, Fraction(1, 10**101))


def test_corollary_gap_check():
    gaps = corollary_gap_check(200, 0.4)
    assert all(v > 0 for v in gaps.values())
    assert max(gaps, key=gaps.get) == 3
    with pytest.raises(ValueError):
        corollary_gap_check(100, 0.7)


def test_ps_bounds():
    assert ps_bounds(0, 2, 0) == (1, 1)
    assert ps_bounds(2, 0, 0) == (1, 1)
    assert ps_bounds(0, 0, 0) == (0, 0)
    assert ps_bounds(1, 2, 3) == (2, 5)
    assert ps_bounds(0, 0, 5) == (0, 4)  # lower clips at 0; upper keeps the I-count slack
    with pytest.raises(ValueError):
        ps_bounds(0, 1, 0)
    with pytest.raises(ValueError):
        ps_bounds(-1, 0, 0)


def test_ps_bounds_gap_is_i_count_when_positive():
    for rank in range(4):
        for sha in (0, 2, 4):
            for i in range(4):
                lo, hi = ps_bounds(rank, sha, i)
                if lo > 0:
                    assert hi - lo == i


def test_density_report_json():
    rep = density_report(3)
    d = rep.to_json_dict()
    assert d["p"] == 3
    assert d["frak_d_p_prime"] == "2/9"
    assert d["sp_doubleprime_density"] == "9841/29524"
    assert set(d["main_bound"]) == {"lo", "hi"}
    # the report's bound is assembled from the same pieces it carries
    rebuilt = (Fraction(1, 3) + Fraction(1, 27) - Fraction(1, 81)) * (
        1 - Fraction(1, 3) - rep.d_p - rep.d_p_prime
    )
    assert (rebuilt.lo, rebuilt.hi) == (rep.bound.lo, rep.bound.hi)


@pytest.mark.parametrize("p", [9, 15])
def test_odd_composites_rejected(p):
    for fn in (frak_d_p, frak_d_p_prime, main_bound, density_report):
        with pytest.raises(ValueError):
            fn(p)
