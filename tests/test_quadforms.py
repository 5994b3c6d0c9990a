import random
from fractions import Fraction
from math import isqrt

import pytest

from ellstat.arith import InputError, primes_up_to
from ellstat.density import _MAX_REPORT_P, frak_d_p_prime
from ellstat.quadforms import (
    _TABLE_A,
    BinaryQuadraticForm,
    _reduced_forms,
    apply_sl2,
    hurwitz_class_number,
    reduce_form,
)

from oracles import class_count_boxed, reduced_forms_by_disc, reduced_forms_by_divisor_walk


def random_form(rng, amax=40):
    a = rng.randrange(1, amax)
    b = rng.randrange(-amax, amax)
    # force a negative discriminant
    c = (b * b) // (4 * a) + rng.randrange(1, amax)
    return BinaryQuadraticForm(a, b, c)


def random_sl2(rng, steps=8):
    m = ((1, 0), (0, 1))
    T = ((1, 1), (0, 1))
    S = ((0, 1), (-1, 0))
    for _ in range(steps):
        (p, q), (r, s) = m
        (pp, qq), (rr, ss) = rng.choice([T, S, ((1, -1), (0, 1))])
        m = (
            (p * pp + q * rr, p * qq + q * ss),
            (r * pp + s * rr, r * qq + s * ss),
        )
    return m


def test_apply_sl2_examples():
    f = BinaryQuadraticForm(1, 0, 1)
    assert apply_sl2(f, ((1, 0), (0, 1))) == f
    assert apply_sl2(f, ((0, 1), (-1, 0))) == f
    g = apply_sl2(BinaryQuadraticForm(1, 1, 7), ((1, 1), (0, 1)))
    assert g == BinaryQuadraticForm(1, 3, 9)
    assert g.discriminant == -27


def test_apply_sl2_rejects_wrong_determinant():
    with pytest.raises(ValueError):
        apply_sl2(BinaryQuadraticForm(1, 0, 1), ((1, 0), (0, 2)))


def test_discriminant_invariance_random():
    rng = random.Random(21)
    for _ in range(400):
        f = random_form(rng)
        sigma = random_sl2(rng)
        assert apply_sl2(f, sigma).discriminant == f.discriminant


def test_reduce_examples():
    assert reduce_form(BinaryQuadraticForm(1, 3, 9)) == BinaryQuadraticForm(1, 1, 7)
    assert reduce_form(BinaryQuadraticForm(1, 0, 1)) == BinaryQuadraticForm(1, 0, 1)
    assert reduce_form(BinaryQuadraticForm(3, 3, 3)) == BinaryQuadraticForm(3, 3, 3)
    with pytest.raises(ValueError):
        reduce_form(BinaryQuadraticForm(1, 5, 1))  # positive discriminant
    with pytest.raises(ValueError, match="a > 0"):
        reduce_form(BinaryQuadraticForm(-1, 0, -1))  # negative definite


@pytest.mark.parametrize("form", [(2, 3, 5), (2, -2, 5), (3, 0, 2)])
def test_unreduced_forms_are_not_reduced(form):
    # b > a, b = -a, and a > c
    assert not BinaryQuadraticForm(*form).is_reduced


def test_reduce_idempotent_and_orbit_sound():
    rng = random.Random(22)
    for _ in range(600):
        f = random_form(rng)
        red = reduce_form(f)
        assert red.is_reduced
        assert reduce_form(red) == red
        sigma = random_sl2(rng)
        assert reduce_form(apply_sl2(f, sigma)) == red


def test_hurwitz_examples():
    cls = hurwitz_class_number(-27)
    assert cls.h == 2
    assert {f.as_tuple() for f in cls.representatives} == {(1, 1, 7), (3, 3, 3)}
    assert hurwitz_class_number(-4).h == 1
    assert hurwitz_class_number(-4).representatives[0].as_tuple() == (1, 0, 1)
    assert hurwitz_class_number(-8).representatives[0].as_tuple() == (1, 0, 2)
    assert hurwitz_class_number(-11).representatives[0].as_tuple() == (1, 1, 3)
    assert hurwitz_class_number(-19).representatives[0].as_tuple() == (1, 1, 5)
    # weight-1 counting keeps the two extra-automorphism classes whole
    # (the classical weighted convention would score this 1/3)
    assert hurwitz_class_number(-3).h == 1


def test_hurwitz_rejects_bad_discriminants():
    for disc in (0, 4, -5, -6, -1):
        with pytest.raises(ValueError):
            hurwitz_class_number(disc)


@pytest.mark.parametrize("disc", [0, 4, -5, -1000000003])
def test_hurwitz_argument_checks_raise_input_error(disc):
    with pytest.raises(InputError):
        hurwitz_class_number(disc)


def test_hurwitz_representatives_are_distinct_reduced():
    for disc in range(-200, 0):
        if disc % 4 not in (0, 1):
            continue
        cls = hurwitz_class_number(disc)
        assert len({f.as_tuple() for f in cls.representatives}) == cls.h
        for f in cls.representatives:
            assert f.is_reduced and f.discriminant == disc


def test_hurwitz_matches_boxed_oracle_small():
    for disc in range(-60, 0):
        if disc % 4 in (0, 1):
            assert hurwitz_class_number(disc).h == class_count_boxed(disc)


def test_counted_forms_match_built_forms_and_the_box():
    # c = (b^2 - D)/(4a) <= (|D| + 1)/4 for a reduced form, so a box of
    # half-width |D|/4 + 1 holds every one of them
    for disc in range(-400, -2):
        if disc % 4 in (0, 1):
            count = sum(1 for _ in _reduced_forms(disc))
            assert count == hurwitz_class_number(disc).h == class_count_boxed(disc, -disc // 4 + 1)
    # frak_d_p' = (p - 1)/(2 p^2) H(1 - 4p), plus H(p^2 + 1 - 6p) at p <= 5,
    # counted without building a form
    for p in primes_up_to(3000)[1:]:
        h = hurwitz_class_number(1 - 4 * p).h
        if p <= 5:
            h += hurwitz_class_number(p * p + 1 - 6 * p).h
        assert frak_d_p_prime(p) == Fraction((p - 1) * h, 2 * p * p), p


@pytest.mark.parametrize("disc", [0, 4, -5, -1000000003])
def test_reduced_forms_check_the_discriminant_on_the_first_step(disc):
    with pytest.raises(InputError):
        next(_reduced_forms(disc))


def test_representatives_match_box_of_reduced_forms():
    box = reduced_forms_by_disc(5000)
    checked = 0
    for disc in range(-3, -5001, -1):
        if disc % 4 not in (0, 1):
            continue
        forms = hurwitz_class_number(disc).representatives
        assert [f.as_tuple() for f in forms] == box[disc], disc
        checked += 1
    assert checked == 2500


def test_table_bound_covers_every_theory_discriminant():
    # a reduced form of D has 3 a^2 <= |D|, and `theory` counts the forms
    # of D = 1 - 4p up to p = _MAX_REPORT_P, so no theory call walks divisors
    assert _TABLE_A > isqrt((4 * _MAX_REPORT_P - 1) // 3)


@pytest.fixture(scope="module")
def box_60000():
    return reduced_forms_by_disc(60000)


def test_forms_match_the_box_across_the_table_bound(box_60000):
    # a runs up to 141 here: from |D| = 3 * 137^2 = 56307 the table's last a
    # has forms, and from 3 * _TABLE_A^2 = 57132 the divisor walk has some
    checked, top_a = 0, set()
    for disc in range(-56000, -60001, -1):
        if disc % 4 in (0, 1):
            assert sorted(_reduced_forms(disc)) == box_60000[disc], disc
            checked += 1
            top_a.update(a for a, _, _ in box_60000[disc] if a >= _TABLE_A - 1)
    assert checked == 2001
    assert top_a == set(range(_TABLE_A - 1, 142))


def test_theory_discriminants_match_the_box(box_60000):
    # every D = 1 - 4p that `theory` counts, and H(D) as hurwitz reports it
    for p in primes_up_to(_MAX_REPORT_P)[1:]:
        disc = 1 - 4 * p
        assert sorted(_reduced_forms(disc)) == box_60000[disc], p
    forms = hurwitz_class_number(1 - 4 * _MAX_REPORT_P).representatives
    assert [f.as_tuple() for f in forms] == box_60000[1 - 4 * _MAX_REPORT_P]


def test_forms_match_the_divisor_walk_on_large_discriminants():
    # 20 seeded D with 10^5 < |D| <= 10^7, where most forms have a past the
    # table bound
    rng = random.Random(40)
    for _ in range(20):
        disc = -rng.randrange(10**5 + 1, 10**7 + 1)
        if disc % 4 > 1:
            disc -= 2  # to 0 or 1 mod 4
        assert -disc > 10**5
        assert sorted(_reduced_forms(disc)) == sorted(reduced_forms_by_divisor_walk(disc)), disc


def test_json_shape():
    d = hurwitz_class_number(-27).to_json_dict()
    assert d == {"delta": -27, "H": 2, "forms": [[1, 1, 7], [3, 3, 3]]}
