import contextlib
import io
import json
import math
import pickle
import random
from fractions import Fraction

import pytest

from ellstat.curves import (
    Invariants,
    NonIntegralTransformError,
    SingularCurveError,
    WeierstrassModel,
    _json_text,
    compute_invariants,
    curve_from_j,
    format_rational,
    height_compare,
    height_key,
    height_lt,
    j_invariant,
    parse_rational,
    quadratic_twist,
    transform,
    zywina_j2,
)

from oracles import (height_less_by_crosspower, invariants_by_textbook_formulas,
                     least_conductor_twist, sample_tuple_by_randrange)

E1 = WeierstrassModel(1, 0, 1, -141, 624)
E2 = WeierstrassModel(0, 0, 0, -83667346875, -10711930420406250)
E3 = WeierstrassModel(0, 1, 0, -2, -8)


def random_model(rng, bound=30):
    return WeierstrassModel(*(rng.randrange(-bound, bound + 1) for _ in range(5)))


def test_invariants_worked_examples():
    inv = compute_invariants(E3)
    assert (inv.b2, inv.b4, inv.b6, inv.b8) == (4, -4, -32, -36)
    assert inv.delta == -21952 == -(2**6) * 7**3
    assert compute_invariants(WeierstrassModel(0, 0, 0, 0, 0)).delta == 0
    assert compute_invariants(E1).delta == 2863288 == 2**3 * 71**3


def test_classical_identities_hold_on_random_models():
    rng = random.Random(2024)
    for _ in range(1000):
        inv = compute_invariants(random_model(rng, 10**4))
        assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4**2
        assert inv.c4**3 - inv.c6**2 == 1728 * inv.delta


def test_invariants_match_the_textbook_formulas():
    # b8 and Delta come from 4 b8 = b2 b6 - b4^2 and 1728 Delta = c4^3 - c6^2;
    # the oracle writes both out in the a_i and b_i
    rng = random.Random(38)
    models = [WeierstrassModel(0, 0, 0, 0, 0), WeierstrassModel(0, 0, 0, 1, 10**160 + 7),
              E1, E2, E3]
    for height in (1, 10, 10**3, 10**6):
        models += [sample_tuple_by_randrange(rng, height) for _ in range(500)]
    for m in models:
        inv = compute_invariants(m)
        assert type(inv) is Invariants
        assert inv == invariants_by_textbook_formulas(m), m


def test_j_invariant_paper_curves():
    assert j_invariant(E1) == Fraction(857375, 8)
    assert j_invariant(E2) == Fraction(-42875, 8)
    assert j_invariant(E3) == -64


def test_j_invariant_singular_error():
    with pytest.raises(SingularCurveError):
        j_invariant(WeierstrassModel(0, 0, 0, 0, 0))


def test_height_lt_box_edges():
    assert height_lt(WeierstrassModel(0, 0, 0, 0, 63), 2)
    assert not height_lt(WeierstrassModel(2, 0, 0, 0, 0), 2)
    assert not height_lt(WeierstrassModel(0, 0, 0, 0, 64), 2)


def test_height_compare_tie():
    assert height_compare(WeierstrassModel(0, 4, 0, 0, 0), WeierstrassModel(2, 0, 0, 0, 0)) == 0


def test_height_key_matches_crosspower_oracle():
    rng = random.Random(5)
    exps = {0: 1, 1: 2, 2: 3, 3: 4, 4: 6}
    for _ in range(500):
        m = random_model(rng, 12)
        key = height_key(m)
        coeffs = m.coefficients()
        # the key maximum must sit at a coefficient that no other one beats
        imax = max(range(5), key=lambda i: key.normalized[i])
        for i in range(5):
            assert not height_less_by_crosspower(
                coeffs[imax], exps[imax], coeffs[i], exps[i]
            ) or key.normalized[i] == key.normalized[imax]
    for _ in range(2000):
        m1, m2 = random_model(rng, 9), random_model(rng, 9)
        cmp_lib = height_compare(m1, m2)
        k1, k2 = height_key(m1).max_value, height_key(m2).max_value
        assert cmp_lib == (k1 > k2) - (k1 < k2)


def test_height_lt_consistent_with_compare():
    rng = random.Random(6)
    for _ in range(500):
        m = random_model(rng, 40)
        x = rng.randrange(1, 8)
        witness = WeierstrassModel(x, 0, 0, 0, 0)  # height exactly x
        assert height_lt(m, x) == (height_compare(m, witness) < 0)


def test_transform_identity_and_scaling():
    assert transform(E3, 1, 0, 0, 0) == E3
    m = WeierstrassModel(0, 0, 0, -16, 0)
    assert transform(m, 2, 0, 0, 0) == WeierstrassModel(0, 0, 0, -1, 0)
    moved = transform(E3, 1, 1, 0, 0)
    assert compute_invariants(moved).delta == compute_invariants(E3).delta


def test_transform_delta_scaling_and_j_preserved():
    rng = random.Random(7)
    for _ in range(300):
        m = random_model(rng, 15)
        r, s, t = (rng.randrange(-5, 6) for _ in range(3))
        moved = transform(m, 1, r, s, t)
        u = rng.choice([1, 2, 3])
        big = WeierstrassModel(
            *(c * u**e for c, e in zip(moved.coefficients(), (1, 2, 3, 4, 6)))
        )
        back = transform(big, u, 0, 0, 0)
        assert back == moved
        d_big = compute_invariants(big).delta
        assert compute_invariants(moved).delta * u**12 == d_big
        assert compute_invariants(moved).delta == compute_invariants(m).delta
        if d_big != 0:
            assert j_invariant(back) == j_invariant(big) == j_invariant(m)


def test_translation_moves_b_invariants_by_r_only():
    # Silverman, AEC, Table III.1.2 at u = 1: the b_i depend on r, not on s, t
    rng = random.Random(157)
    for _ in range(2000):
        m = random_model(rng, 10**3)
        r, s, t = (rng.randrange(-10**4, 10**4 + 1) for _ in range(3))
        b2, b4, b6, b8 = compute_invariants(m)[:4]
        moved = compute_invariants(transform(m, 1, r, s, t))
        assert moved.b2 == b2 + 12 * r
        assert moved.b4 == b4 + r * b2 + 6 * r**2
        assert moved.b6 == b6 + 2 * r * b4 + r**2 * b2 + 4 * r**3
        assert moved.b8 == b8 + 3 * r * b6 + 3 * r**2 * b4 + r**3 * b2 + 3 * r**4


def test_transform_non_integral_rejected():
    with pytest.raises(NonIntegralTransformError):
        transform(WeierstrassModel(0, 0, 0, -1, 0), 2, 0, 0, 0)
    with pytest.raises(ValueError):
        transform(E3, 0, 0, 0, 0)


def test_quadratic_twist_short_form():
    m = WeierstrassModel(0, 0, 0, 3, 5)
    tw = quadratic_twist(m, 7)
    assert tw == WeierstrassModel(0, 0, 0, 3 * 49, 5 * 343)


def test_quadratic_twist_preserves_j():
    assert j_invariant(quadratic_twist(WeierstrassModel(0, 0, 0, -1, 0), 1)) == 1728
    assert j_invariant(quadratic_twist(E1, 7)) == Fraction(857375, 8)
    rng = random.Random(8)
    for _ in range(100):
        m = random_model(rng, 20)
        if compute_invariants(m).delta == 0:
            continue
        d = rng.choice([-1, 2, -2, 3, 5, 6, -7, 10, 11])
        assert j_invariant(quadratic_twist(m, d)) == j_invariant(m)


def test_quadratic_twist_rejects_bad_d():
    with pytest.raises(ValueError):
        quadratic_twist(E1, 0)
    with pytest.raises(ValueError):
        quadratic_twist(E1, 12)


def test_is_singular_property():
    assert WeierstrassModel(0, 0, 0, 0, 0).is_singular
    assert not E1.is_singular


@pytest.mark.parametrize("x", [0, -1])
def test_height_lt_rejects_cutoff_below_1(x):
    with pytest.raises(ValueError):
        height_lt(E1, x)


def test_zywina_values():
    assert zywina_j2(Fraction(3)) == 0
    assert zywina_j2(Fraction(-1)) == 0
    assert zywina_j2(Fraction(1)) == -1728
    with pytest.raises(ZeroDivisionError):
        zywina_j2(Fraction(0))


def test_zywina_against_expanded_numerator():
    # independent expansion: 27 ((t+1)(t-3))^3 = 27 (t^2 - 2t - 3)^3
    def poly_cube(coeffs):
        out = [0] * (3 * (len(coeffs) - 1) + 1)
        tmp = [0] * (2 * (len(coeffs) - 1) + 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(coeffs):
                tmp[i + j] += a * b
        for i, a in enumerate(tmp):
            for j, b in enumerate(coeffs):
                out[i + j] += a * b
        return out

    cubed = poly_cube([-3, -2, 1])
    rng = random.Random(9)
    for _ in range(200):
        t = Fraction(rng.randrange(-50, 51), rng.randrange(1, 12))
        if t == 0:
            continue
        num = 27 * sum(c * t**k for k, c in enumerate(cubed))
        assert zywina_j2(t) == num / t**3


def test_curve_from_j_special_points():
    assert curve_from_j(Fraction(0)) == WeierstrassModel(0, 0, 0, 0, 1)
    assert curve_from_j(Fraction(1728)) == WeierstrassModel(0, 0, 0, -1, 0)
    rng = random.Random(10)
    for _ in range(60):
        j = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 100))
        assert j_invariant(curve_from_j(j)) == j


def test_curve_from_j_minimal_conductor_search():
    from ellstat.localdata import conductor

    model = curve_from_j(Fraction(-64), minimize_conductor=True)
    assert j_invariant(model) == -64
    assert 1568 % conductor(model) == 0


def test_curve_from_j_search_matches_conductor_of_every_twist():
    from ellstat.localdata import conductor

    def bounded_least_twist(base, bound):
        # every squarefree d with |d| <= bound, keyed as curve_from_j breaks
        # ties: conductor, then |d|, then d > 0 first
        keyed = []
        for absd in range(1, bound + 1):
            if any(absd % (q * q) == 0 for q in range(2, math.isqrt(absd) + 1)):
                continue
            for d in (absd, -absd):
                twisted = quadratic_twist(base, d)
                keyed.append(((conductor(twisted), absd, d < 0), twisted))
        return min(keyed, key=lambda entry: entry[0])[1]

    js = [zywina_j2(Fraction(t)) for t in (1, 2, 3, -2, 5, 7, -9, 12, 97, -1000, 9991)]
    js += [Fraction(0), Fraction(1728), Fraction(-64), Fraction(857375, 8)]
    for j in js:
        model = curve_from_j(j, minimize_conductor=True)
        bounded = bounded_least_twist(curve_from_j(j), 30)
        # equal conductors give equal models under the tie rule
        assert conductor(model) < conductor(bounded) or model == bounded, j
        assert j_invariant(model) == j


def test_curve_from_j_least_conductor_matches_brute_force():
    js = [zywina_j2(Fraction(t)) for t in range(-20, 21) if t]
    js += [Fraction(0), Fraction(1728), Fraction(-64), Fraction(857375, 8)]
    for j in js:
        model = curve_from_j(j, minimize_conductor=True)
        assert model == least_conductor_twist(curve_from_j(j)), j
        assert j_invariant(model) == j


def test_serialization_round_trip():
    assert str(E1) == "1,0,1,-141,624"
    assert WeierstrassModel.from_string("1, 0 ,1,-141,624") == E1
    with pytest.raises(ValueError):
        WeierstrassModel.from_string("1,2,3")
    assert format_rational(Fraction(857375, 8)) == "857375/8"
    assert format_rational(Fraction(-64)) == "-64"
    assert parse_rational("857375/8") == Fraction(857375, 8)
    assert parse_rational("-64") == -64


def test_value_type_contract():
    # what callers may rely on, whatever class backs the two value types
    inv = compute_invariants(E1)
    assert repr(E1) == "WeierstrassModel(a1=1, a2=0, a3=1, a4=-141, a6=624)"
    assert str(E1) == "1,0,1,-141,624"
    text = "Invariants(b2=1, b4=-281, b6=2497, b8=-19116, c4=6745, c6=-549469, delta=2863288)"
    assert repr(inv) == str(inv) == text
    assert hash(E1) == hash(E1.coefficients())
    assert type(E1.coefficients()) is tuple
    assert WeierstrassModel.from_string(str(E1)) == E1
    assert E1 != E3 and E1 != WeierstrassModel(1, 0, 1, -141, 625)
    assert compute_invariants(E3) != inv
    with pytest.raises(AttributeError):
        E1.a1 = 2
    with pytest.raises(AttributeError):
        inv.delta = 0
    for value in (E1, E2, inv):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value) and hash(copy) == hash(value)


def test_models_and_invariants_are_tuples():
    inv = compute_invariants(E1)
    assert E1 == (1, 0, 1, -141, 624) and tuple(E1) == E1.coefficients()
    assert inv == (1, -281, 2497, -19116, 6745, -549469, 2863288)
    a1, a2, a3, a4, a6 = E1
    assert WeierstrassModel(a1, a2, a3, a4, a6) == E1 and len(inv) == 7


def test_height_sort_key_orders_by_height_then_lex():
    from ellstat.curves import height_sort_key

    models = [
        WeierstrassModel(2, 0, 0, 0, 0),   # height 2
        WeierstrassModel(0, 4, 0, 0, 0),   # height 2, lex-larger tie
        WeierstrassModel(1, 0, 0, 0, 0),   # height 1
        WeierstrassModel(0, 0, 0, 0, 63),  # height 63^(1/6) < 2
    ]
    ordered = sorted(models, key=height_sort_key)
    assert ordered[0] == WeierstrassModel(1, 0, 0, 0, 0)
    assert ordered[1] == WeierstrassModel(0, 0, 0, 0, 63)
    assert ordered[2:] == [WeierstrassModel(0, 4, 0, 0, 0), WeierstrassModel(2, 0, 0, 0, 0)]


def _stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# JSON payloads of every command that writes one: the reference curves,
# with and without --prime, a singular twist base (j and conductor null),
# theory at the smallest and at a large p, census with and without d(p)
JSON_ARGVS = [
    ["local", "--curve=1,0,1,-141,624", "--format", "json"],
    ["local", "--curve=0,0,0,-83667346875,-10711930420406250", "--format", "json"],
    ["local", "--curve=1,0,1,-141,624", "--prime", "71", "--format", "json"],
    ["local", "--curve=0,1,0,-2,-8", "--prime", "5", "--format", "json"],
    ["theory", "--p", "3", "--format", "json"],
    ["theory", "--p", "9973", "--format", "json"],
    ["census", "--p", "7", "--format", "json"],
    ["census", "--p", "7", "--with-d", "--format", "json"],
    ["hurwitz", "--disc", "-48", "--format", "json"],
    ["hurwitz", "--disc", "-4", "--format", "json"],
    ["families", "--family", "twist", "--base=1,0,1,-141,624", "--range=-6..10", "--format", "json"],
    ["families", "--family", "twist", "--base", "0,0,0,0,0", "--range", "1..2", "--format", "json"],
    ["families", "--family", "zywina", "--range", "1..6", "--minimal-twist", "--format", "json"],
]


@pytest.mark.parametrize("argv", JSON_ARGVS, ids=[" ".join(a[:3]) for a in JSON_ARGVS])
def test_json_text_matches_stdlib_on_cli_payloads(monkeypatch, argv):
    from ellstat import cli

    payloads = []

    def record(obj):
        payloads.append(obj)
        return _json_text(obj)

    monkeypatch.setattr(cli, "_json_text", record)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    [payload] = payloads
    assert out.getvalue() == _stdlib_json(payload) + "\n"


@pytest.mark.parametrize("wilson", [False, True])
def test_json_text_matches_stdlib_on_reports(wilson):
    from ellstat.cli import _theory_column
    from ellstat.harness import SampleSpec, estimate, kodaira_frequency

    spec = SampleSpec(height=30, p=3, count=300, seed=7, chunk_size=128, wilson=wilson)
    for rep in (estimate(spec, dict(_theory_column(3))), estimate(spec),
                kodaira_frequency(spec, 2)):
        assert rep.to_json() == _stdlib_json(rep.to_json_dict())


_JSON_CHARS = ["a", "Z", "0", " ", "/", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
               "\u00e9", "\u2028", "\u20ac", "\U0001d11e", "\ud800"]
_JSON_FLOATS = [0.0, -0.0, 1e-300, 5e-324, 1.5, 1e16, 1e300, -2.5e-7, 0.1 + 0.2,
                math.nan, math.inf, -math.inf]


def _random_json_value(rng, depth=0):
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice([rng.randrange(-2**80, 2**80), 2**64, 2**64 + 1, -2**64 - 1, 0, -1])
    if kind == 2:
        return rng.choice(_JSON_FLOATS + [rng.uniform(-1, 1) * 10.0 ** rng.randrange(-30, 30)])
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:
        return {}
    if kind == 5:
        return rng.choice([[], ()])
    if kind == 6:
        return {"".join(rng.choice(_JSON_CHARS) for _ in range(rng.randrange(4))):
                _random_json_value(rng, depth + 1) for _ in range(rng.randrange(5))}
    values = [_random_json_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    return tuple(values) if kind == 7 else values


def test_json_text_matches_stdlib_on_seeded_values():
    rng = random.Random(2024)
    for _ in range(3000):
        value = _random_json_value(rng)
        assert _json_text(value) == _stdlib_json(value), value


class _Label(str):
    pass


class _Count(int):
    pass


class _Share(float):
    pass


def test_json_text_writes_subclasses_as_their_base():
    value = {"label": _Label("I\u00e90"), "n": [_Count(-7), _Count(2**70)],
             "shares": (_Share(0.25), _Share("nan"), _Share("-inf")), "flag": _Count(0) == 0}
    assert _json_text(value) == _stdlib_json(value)


@pytest.mark.parametrize("value", [
    {1: "a"},
    {"a": [{"b": 1, None: 2}]},
    {("a",): 1},
    Fraction(1, 2),
    {"a": [set()]},
    [b"bytes"],
    {"a": object()},
])
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value)
