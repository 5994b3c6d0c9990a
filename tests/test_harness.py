import dataclasses
import hashlib
import itertools
import math
import os
import random
import re
import signal
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from ellstat.arith import InputError, valuation
from ellstat.curves import (SingularCurveError, WeierstrassModel, compute_invariants, height_key,
                            height_lt)
from ellstat.density import CertifiedValue, sp_doubleprime_density
from ellstat.finitefield import reduce_model, group_order
from ellstat.harness import (
    _BLOCK,
    _FORK_US,
    ClassificationFlags,
    SampleSpec,
    _classify_chunk,
    _c_ell_divisible,
    _chunk_rng,
    _fork_join,
    _iter_chunk,
    _kodaira_chunk,
    _run_chunks,
    _sum_counts,
    _type_ids,
    classify,
    estimate,
    exhaustive_box_size,
    kodaira_frequency,
    sample_tuple,
)
from ellstat.localdata import (_TYPE_TABLE_MAX_ELL, _kodaira_label, _type_table,
                               tamagawa_p_divisible, tate)

from oracles import (c4_and_discriminant, cube_share_bound, good_after_minimising,
                     report_csv_by_writer, sample_tuple_by_randrange)


def test_sample_height_one_is_origin():
    rng = random.Random(0)
    for _ in range(20):
        assert sample_tuple(rng, 1) == WeierstrassModel(0, 0, 0, 0, 0)


def test_sample_box_edges():
    rng = random.Random(1)
    seen_a1 = set()
    for _ in range(3000):
        m = sample_tuple(rng, 2)
        assert -1 <= m.a1 <= 1
        assert -3 <= m.a2 <= 3
        assert -7 <= m.a3 <= 7
        assert -15 <= m.a4 <= 15
        assert -63 <= m.a6 <= 63
        seen_a1.add(m.a1)
    assert seen_a1 == {-1, 0, 1}


def test_sample_marginal_uniformity():
    rng = random.Random(2)
    n = 100_000
    counts = {-1: 0, 0: 0, 1: 0}
    for _ in range(n):
        counts[sample_tuple(rng, 2).a1] += 1
    # each of 3 values within 4 sigma of n/3
    sigma = math.sqrt(n * (1 / 3) * (2 / 3))
    for v in counts.values():
        assert abs(v - n / 3) < 4 * sigma


@pytest.mark.parametrize("height", [1, 2, 8, 10**3, 5 * 10**4, 10**6])
def test_sample_stream_matches_randrange(height):
    # the sampler draws with getrandbits as randrange does: same models,
    # same generator state afterwards
    ours, oracle = random.Random(height), random.Random(height)
    for _ in range(2000):
        assert sample_tuple(ours, height) == sample_tuple_by_randrange(oracle, height)
    assert ours.getstate() == oracle.getstate()
    spec = SampleSpec(height=height, p=3, count=300, seed=height, chunk_size=200)
    for index in (0, 1):
        oracle = _chunk_rng(spec.seed, index)
        draws = [sample_tuple_by_randrange(oracle, height) for _ in range(200 - 100 * index)]
        assert list(_iter_chunk(spec, index)) == draws


def test_exhaustive_box_size_formula():
    assert exhaustive_box_size(2) == 3 * 7 * 15 * 31 * 127 == 1_240_155
    assert exhaustive_box_size(1) == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(height=0, p=3, count=10)
    with pytest.raises(ValueError):
        SampleSpec(height=10, p=4, count=10)
    with pytest.raises(ValueError):
        SampleSpec(height=10, p=3, count=0)
    with pytest.raises(ValueError):
        SampleSpec(height=3, p=3, exhaustive=True)  # box over 10^7
    with pytest.raises(ValueError):
        SampleSpec(height=10, p=3, count=5, seed=1 << 64)
    with pytest.raises(ValueError):
        SampleSpec(height=10**6 + 1, p=3, count=5)
    for z in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SampleSpec(height=10, p=3, count=5, z=z)


@pytest.mark.parametrize("fields, message", [
    (dict(height=0, count=10), "height"),
    (dict(height=10**6 + 1, count=5), "height"),
    (dict(height=10, p=4, count=10), "odd prime"),
    (dict(height=10, p=65537, count=10), "point-count range"),
    (dict(height=10, count=5, seed=-1), "seed"),
    (dict(height=10, count=5, seed=1 << 64), "seed"),
    (dict(height=10, count=5, chunk_size=0), "chunk size"),
    (dict(height=10, count=5, z=math.nan), "z must"),
    (dict(height=3, exhaustive=True), "exhaustive box"),
    (dict(height=10, count=0), "sample count"),
    (dict(height=2, exhaustive=True, count=5), "exhaustive run takes no sample count"),
])
def test_spec_checks_raise_input_error(fields, message):
    with pytest.raises(InputError, match=message):
        SampleSpec(**{"p": 3, **fields})


@pytest.mark.parametrize("height", [0, -1])
def test_sample_tuple_needs_height_at_least_1(height):
    with pytest.raises(ValueError):
        sample_tuple(random.Random(0), height)


@pytest.mark.parametrize("ell", [4, 1, 0])
def test_kodaira_frequency_composite_ell_raises_input_error(ell):
    with pytest.raises(InputError, match=f"^{ell} is not prime$"):
        kodaira_frequency(SampleSpec(height=10, p=3, count=5), ell)


@pytest.mark.parametrize("threads", [0, -2])
def test_nonpositive_threads_raise_input_error(threads):
    spec = SampleSpec(height=10, p=3, count=5)
    message = f"^worker count must be a positive integer, got {threads}$"
    with pytest.raises(InputError, match=message):
        estimate(spec, threads=threads)
    with pytest.raises(InputError, match=message):
        kodaira_frequency(spec, 2, threads=threads)


def test_report_row_of_unknown_flag_raises_key_error():
    rep = estimate(SampleSpec(height=10, p=3, count=20))
    assert rep.row("bad_at_p").flag == "bad_at_p"
    with pytest.raises(KeyError):
        rep.row("no_such_flag")


def test_classify_singular():
    flags = classify(WeierstrassModel(0, 0, 0, 0, 0), 3)
    assert flags == ClassificationFlags(True, False, False, False)


def test_classify_flag_consistency():
    rng = random.Random(3)
    for _ in range(400):
        m = sample_tuple(rng, 6)
        f = classify(m, 3)
        if f.singular:
            assert not (f.bad_at_p or f.tamagawa_divisible or f.anomalous_good)
        if f.anomalous_good:
            assert compute_invariants(m).delta % 3 != 0
            assert not f.bad_at_p


def test_classify_against_direct_pipeline():
    rng = random.Random(4)
    for p in (3, 5):
        checked = 0
        while checked < 250:
            m = sample_tuple(rng, 8)
            inv = compute_invariants(m)
            if inv.delta == 0:
                continue
            f = classify(m, p)
            assert not f.unclassified
            assert f.bad_at_p == (not tate(m, p).kodaira.is_good)
            assert f.tamagawa_divisible == bool(tamagawa_p_divisible(m, p))
            if inv.delta % p != 0:
                want = group_order(reduce_model(m, p)) % p == 0
                assert f.anomalous_good == want
            else:
                assert not f.anomalous_good
            checked += 1


def test_classify_against_direct_pipeline_tall_box():
    # large-height samples exercise the big-cofactor paths; the reference
    # pipeline factors Delta outright, so skip samples whose discriminant
    # resists the factoring budget (classify itself never needs that)
    from ellstat.arith import FactorBudgetExceeded

    rng = random.Random(5)
    checked = 0
    while checked < 60:
        m = sample_tuple(rng, 1000)
        if compute_invariants(m).delta == 0:
            continue
        f = classify(m, 3)
        assert not f.unclassified
        try:
            want = bool(tamagawa_p_divisible(m, 3))
        except FactorBudgetExceeded:
            continue
        assert f.tamagawa_divisible == want, m
        checked += 1


@pytest.mark.parametrize(
    "coeffs, ell",
    [
        ((1, 0, 7, 0, 0), 7),  # split I3 at a small prime
        # Delta = q^3 (1 - 27q) with 27q - 1 smooth: the cofactor is q^3, split I3
        ((1, 0, 10009, 0, 0), 10009),
        ((0, 0, 0, 10007**2, 10007**2), 10007),  # type IV, c = 3, c4 != 0
        ((0, 0, 0, 0, 10007**2), 10007),  # type IV, c = 3, c4 = 0
    ],
)
def test_classify_each_kind_of_divisible_prime(coeffs, ell):
    m = WeierstrassModel(*coeffs)
    assert ell in tamagawa_p_divisible(m, 3)
    f = classify(m, 3)
    assert f.tamagawa_divisible and not f.unclassified


def test_classify_perfect_power_cofactor_without_divisible_c():
    # y^2 + a1 xy + q y = x^3 has Delta = q^3 (a1^3 - 27q) = 10 q^3 here, with
    # q > 10^12 prime and prime to c4: at p = 5 the stripped C is the cube
    # q^3 with a root above the cube of the trial bound, so classify factors
    # it, and c_q = 3 (split I3) is prime to 5.  Found by a search over
    # a1 = 4 (mod 9), a1 > 30000, for a prime q = (a1^3 - 10) / 27.
    q = 1001901203587
    m = WeierstrassModel(30019, 0, q, 0, 0)
    assert compute_invariants(m).delta == 10 * q**3
    assert tate(m, q).tamagawa == 3
    assert tamagawa_p_divisible(m, 5) == []
    assert classify(m, 5) == ClassificationFlags(False, True, False, False)
    # two rests above the trial bound that no odd p can reach through a
    # multiplicity: Delta = 98 * 10513 leaves the single prime 10513, and
    # Delta = -2 * 7 * 97 * 199 * 10009^3 leaves the cube 10009^3 (split I3,
    # c = 3) at p = 5 and 7, where 7 | Delta is divided out first
    for coeffs, p in (((101, 0, 1, 0, 0), 3), ((1, 0, 10009, 0, 0), 5),
                      ((1, 0, 10009, 0, 0), 7)):
        m = WeierstrassModel(*coeffs)
        assert tamagawa_p_divisible(m, p) == []
        assert not classify(m, p).tamagawa_divisible, (coeffs, p)


# y^2 + xy = x^3 + q^3, q = 10007: Delta = -q^3 (1 + 432 q^3), split I3 at
# q, and the rest above 10^4 is q^3 times two primes, not a perfect power
_CUBE_TIMES_REST = WeierstrassModel(1, 0, 0, 0, 10007**3)


def test_cube_times_rest_is_in_s3():
    assert compute_invariants(_CUBE_TIMES_REST).delta == -(10007**3) * (1 + 432 * 10007**3)
    assert tate(_CUBE_TIMES_REST, 10007).tamagawa == 3
    assert tamagawa_p_divisible(_CUBE_TIMES_REST, 3) == [10007]


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17])
def test_cube_divides_delta_on_at_most_two_classes_of_a6(q):
    # the count behind the bound on classify's assumed-absent case: with
    # a1..a4 fixed and q prime to 6 c4, 1728 Delta = c4^3 - c6^2 and
    # c6 = kappa - 864 a6, so q^3 | Delta holds on 0 or 2 classes of a6 mod
    # q^3, and a window of L consecutive a6 holds at most 2 ceil(L / q^3)
    rng = random.Random(q)
    cube = q**3
    hits = 0
    for _ in range(12):
        a = [rng.randrange(-10**i, 10**i + 1) for i in (1, 2, 3, 4)]
        if c4_and_discriminant(a + [0])[0] % q == 0:
            continue
        start, length = rng.randrange(-10**6, 10**6), rng.randrange(1, 2 * cube + 50)
        window = [c4_and_discriminant(a + [a6])[1] % cube == 0
                  for a6 in range(start, start + length)]
        assert sum(window) <= 2 * -(-length // cube)
        period = [c4_and_discriminant(a + [a6])[1] % cube == 0 for a6 in range(cube)]
        assert sum(period) in (0, 2)
        hits += sum(period)
    assert hits > 0


# the bound on the share of the box where the assumed-absent q^3 * r can
# occur, as the harness module docstring and README quote it: e -> the
# figure at H = 10^e
_CUBE_SHARE_FIGURES = {2: "7.2e-5", 3: "5.0e-7", 4: "5.0e-9", 6: "1.2e-9"}


def test_quoted_cube_share_figures_bound_the_oracle():
    import ellstat.harness as harness

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    texts = [" ".join(harness.__doc__.split()), " ".join(readme.split())]
    for e, figure in _CUBE_SHARE_FIGURES.items():
        bound = cube_share_bound(10**e)
        assert 0 < bound <= float(figure), (e, bound)
        for text in texts:
            assert re.search(rf"{re.escape(figure)} at `?(H = )?10\^{e}\b", text), (e, figure)
    # no room for q^3 * r below 10^16: the share is 0 up to H = 10
    assert [cube_share_bound(h) for h in range(1, 11)] == [0.0] * 10


@pytest.mark.xfail(strict=True, reason="classify assumes that no rest q^3 * r above 10^4 "
                                       "is left that is not a perfect power")
def test_classify_finds_cube_times_rest():
    assert classify(_CUBE_TIMES_REST, 3).tamagawa_divisible


# M = q1 q2 divides Delta and c4 of y^2 = x^3 + M x + M, and neither rho nor
# ECM splits it within the classifier's budget.  q1 < q2 are the first two
# consecutive primes above 2^100 with q1 q2 = 2 (mod 5), so that 5 | 4M + 27
# and the model is bad at 5
_M = (2**100 + 627) * (2**100 + 643)
_UNSPLIT = WeierstrassModel(0, 0, 0, _M, _M)


@pytest.mark.parametrize("p, bad_at_p", [(3, False), (5, True)])
def test_classify_unsplit_cofactor_is_unclassified(p, bad_at_p):
    assert classify(_UNSPLIT, p) == ClassificationFlags(False, bad_at_p, False, False, True)


def test_unclassified_model_counts_only_as_unclassified(monkeypatch):
    # the unsplit model stands in for the first draw of a run at p = 5, where
    # its flags also carry bad_at_p; a singular model in its place shows what
    # the other draws count
    import ellstat.harness as harness

    real = harness._iter_chunk

    def run(first, count):
        def chunk(spec, index):
            models = real(spec, index)
            if index == 0:
                next(models)
                yield first
            yield from models

        monkeypatch.setattr(harness, "_iter_chunk", chunk)
        return estimate(SampleSpec(height=20, p=5, count=count, seed=5, chunk_size=250))

    base = run(WeierstrassModel(0, 0, 0, 0, 0), 1000).counts
    rep = run(_UNSPLIT, 1000)
    assert rep.counts == {**base, "singular": base["singular"] - 1, "unclassified": 1}
    # a run stays valid while the bucket is at most 0.1% of it
    assert rep.valid and rep.to_json_dict()["valid"] is True
    short = run(_UNSPLIT, 999)
    assert short.counts["unclassified"] == 1
    assert not short.valid and short.to_json_dict()["valid"] is False


def test_classify_flags_pinned():
    # every flag of every sample, hashed; the hash was recorded on the
    # per-sample classify that preceded the grouped one
    h = hashlib.sha256()
    unclassified = 0
    for height in (2, 8, 1000, 50000):
        rng = random.Random(height)
        models = [sample_tuple(rng, height) for _ in range(1000)]
        for p in (3, 5, 7, 11):
            for m in models:
                flags = dataclasses.astuple(classify(m, p))
                unclassified += flags[4]
                h.update(repr((height, p, flags)).encode())
    assert unclassified == 0
    assert h.hexdigest() == "b0d09e17ad8d4984776f055021beb97a08b2b2b986baf25ceae6f0f305115903"


def _alternating_s3(n, seed):
    # n nonsingular models, S_3 members alternating with non-members, so a
    # model handed its neighbour's small-prime gcd is likely to change flags
    rng = random.Random(seed)
    pools = ([], [])
    while min(map(len, pools)) < n:
        m = sample_tuple(rng, 8)
        if compute_invariants(m).delta:
            pools[classify(m, 3).tamagawa_divisible].append(m)
    return [pools[i % 2][i] for i in range(n)]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 31, 32, 33, 65])
def test_classify_chunk_matches_classify(n):
    drawn = _alternating_s3(n, n)
    # the singular model first, in the middle of a batch, and last: a
    # singular model has no discriminant, so it must not shift the gcds of
    # the models after it
    for at in (0, min(n - 1, 17), n - 1):
        models = drawn[:at] + [WeierstrassModel(0, 0, 0, 0, 0)] + drawn[at + 1 :]
        for p in (3, 5):
            assert list(_classify_chunk(models, p)) == [classify(m, p) for m in models]
    assert list(_classify_chunk(iter(drawn), 3)) == [classify(m, 3) for m in drawn]
    assert list(_classify_chunk([], 3)) == []


def test_classify_chunk_across_an_all_singular_batch():
    # a whole batch of singular models between nonsingular ones has an empty
    # product of discriminants; the batches on either side keep their gcds
    drawn = _alternating_s3(3 * _BLOCK, 0)
    singular = [WeierstrassModel(0, 0, 0, -3 * t * t, 2 * t**3) for t in range(_BLOCK)]
    assert not any(compute_invariants(m).delta for m in singular)
    models = drawn[:_BLOCK] + singular + drawn[_BLOCK:]
    for p in (3, 5):
        assert list(_classify_chunk(models, p)) == [classify(m, p) for m in models]


def test_classify_tate_runs_at_ii_and_iii_compute_no_invariants(monkeypatch):
    # classify hands its invariants to each Tate run, and the type III test
    # reads b8 of the shifted model from them, so a run that stops at II or
    # III computes none.  At 2 classify makes no such run: the residue table
    # settles II and III there, so the runs at 2 that classify made before
    # it (every model with 2 | gcd(Delta, c4), as v(Delta) >= 4 > p = 3)
    # are made here, from the invariants classify would hand them
    import ellstat.harness as harness
    import ellstat.localdata as localdata

    computed = []
    compute = localdata.compute_invariants

    def counting_compute(model):
        computed.append(model)
        return compute(model)

    run = localdata._tate_run
    ends = {}
    classify_ends = []

    def watched_run(model, ell, inv=None):
        before = len(computed)
        out = run(model, ell, inv)
        kind = out[1].kodaira.kind
        if kind in ("II", "III"):
            assert len(computed) == before, (model, ell, kind)
        ends[kind] = ends.get(kind, 0) + 1
        return out

    def classify_run(model, ell, inv=None):
        assert inv is not None, (model, ell)
        out = watched_run(model, ell, inv)
        classify_ends.append((ell, out[1].kodaira.kind))
        return out

    monkeypatch.setattr(localdata, "compute_invariants", counting_compute)
    monkeypatch.setattr(localdata, "_tate_run", watched_run)
    monkeypatch.setattr(harness, "_tate_run", classify_run)
    rng = random.Random(14)
    models = [sample_tuple(rng, 1000) for _ in range(2000)]
    list(_classify_chunk(models, 3))
    assert classify_ends
    assert not [end for end in classify_ends if end in ((2, "II"), (2, "III"))]
    ends.clear()
    for model in models:
        inv = compute(model)
        if inv.delta and inv.delta % 2 == 0 and inv.c4 % 2 == 0:
            watched_run(model, 2, inv)
    assert ends["II"] + ends["III"] >= 300
    assert ends["II"] + ends["III"] > sum(ends.values()) // 2


def test_classification_flags_are_bools():
    # astuple and the pinned hash read the flags; they stay True/False
    rng = random.Random(9)
    models = [sample_tuple(rng, 8) for _ in range(300)] + [WeierstrassModel(0, 0, 0, 0, 0)]
    seen = set()
    for flags in _classify_chunk(models, 3):
        assert all(type(v) is bool for v in dataclasses.astuple(flags))
        seen.add(dataclasses.astuple(flags))
    assert len(seen) >= 4


def test_ogg_bound_on_tamagawa_numbers():
    # classify runs Tate at ell | gcd(Delta, c4) only when v_ell(Delta) > p,
    # because p | c_ell needs it; check that on curves where it would bite
    rng = random.Random(31)
    seen = 0
    for i in range(600):
        ell = (2, 3, 5, 7)[i % 4]
        a = [rng.randrange(1 - 30**j, 30**j) for j in (1, 2, 3, 4, 6)]
        if i % 8 >= 4:
            # make ell divide every coefficient, so it divides c4 and Delta
            a = [ell * x for x in a]
        m = WeierstrassModel(*a)
        inv = compute_invariants(m)
        if inv.delta == 0 or math.gcd(inv.delta, inv.c4) % ell:
            continue
        v = valuation(inv.delta, ell)
        c = tate(m, ell).tamagawa
        for p in (3, 5, 7):
            if v <= p:
                seen += 1
                assert c % p != 0, (a, ell, p)
    assert seen > 300
    # the tight case: type IV at 5 with v_5(Delta) = 4 = p + 1 and c_5 = 3
    m = WeierstrassModel(0, 0, 0, 0, 25)
    assert valuation(compute_invariants(m).delta, 5) == 4
    assert tate(m, 5).kodaira.label == "IV" and tate(m, 5).tamagawa == 3
    assert classify(m, 3).tamagawa_divisible


def test_estimate_deterministic_across_threads_and_runs():
    spec = SampleSpec(height=50, p=3, count=4000, seed=99, chunk_size=512)
    theory = {"bad_at_p": CertifiedValue.exact(sp_doubleprime_density(3))}
    r1 = estimate(spec, theory, threads=1)
    r2 = estimate(spec, theory, threads=4)
    r3 = estimate(spec, theory, threads=8)
    assert r1.rows == r2.rows == r3.rows
    assert r1.counts == r2.counts == r3.counts
    assert r1.to_csv() == r2.to_csv() == r3.to_csv()


def test_estimate_depends_on_seed_not_chunking_threads():
    spec_a = SampleSpec(height=50, p=3, count=2000, seed=1, chunk_size=128)
    spec_b = SampleSpec(height=50, p=3, count=2000, seed=2, chunk_size=128)
    ra, rb = estimate(spec_a), estimate(spec_b)
    assert ra.counts != rb.counts  # different streams


def test_estimate_exhaustive_small_box_exact():
    spec = SampleSpec(height=2, p=3, exhaustive=True, chunk_size=200_000)
    # run on a truncated surrogate: height 2 box is 1.24M, too heavy here;
    # use the full H=1 box (a single tuple) plus chunk-decoding checks
    tiny = SampleSpec(height=1, p=3, exhaustive=True)
    rep = estimate(tiny)
    assert rep.counts["singular"] == 1 and rep.spec.total == 1
    # decode/iterate coverage on a modest slice of the H=2 box
    from ellstat.harness import _iter_chunk

    seen = set()
    for m in _iter_chunk(spec, 0):
        seen.add(m.coefficients())
    assert len(seen) == 200_000
    for extremes in (WeierstrassModel(-1, -3, -7, -15, -63),):
        assert extremes.coefficients() in seen


def test_exhaustive_enumeration_is_a_bijection():
    spec = SampleSpec(height=2, p=3, exhaustive=True, chunk_size=1_240_155)
    from ellstat.harness import _iter_chunk

    count = 0
    seen = set()
    for m in _iter_chunk(spec, 0):
        count += 1
        seen.add(m.coefficients())
        assert abs(m.a1) < 2 and abs(m.a2) < 4 and abs(m.a3) < 8
        assert abs(m.a4) < 16 and abs(m.a6) < 64
    assert count == len(seen) == 1_240_155


def test_height_box_order_and_edges():
    # the exhaustive decode in mixed radix, a6 the fastest digit: the ordered
    # models of a first, a middle and the last (partial) H = 2 chunk, hashed
    spec = SampleSpec(height=2, p=3, exhaustive=True, chunk_size=65536)
    h = hashlib.sha256()
    for index in (0, 9, 18):
        models = list(_iter_chunk(spec, index))
        assert len(models) == (65536 if index < 18 else 1_240_155 - 18 * 65536)
        for m in models:
            assert height_lt(m, 2)
            h.update(repr(tuple(m)).encode())
        if index == 0:
            assert models[:2] == [(-1, -3, -7, -15, -63), (-1, -3, -7, -15, -62)]
            assert models[127] == (-1, -3, -7, -14, -63)
    assert h.hexdigest() == "f93286140a91cf443b1491c4e74359c3f79e1f655edfa0389471c02627ee6f6c"
    # a lone coefficient a_i = +-(H^i - 1) lies inside the box of height H,
    # and +-H^i on its edge, at height exactly H
    for H in (1, 2, 8, 10**3):
        for pos, i in enumerate((1, 2, 3, 4, 6)):
            for a, inside in ((H**i - 1, True), (H**i, False)):
                for sign in (1, -1):
                    coeffs = [0] * 5
                    coeffs[pos] = sign * a
                    m = WeierstrassModel(*coeffs)
                    assert height_lt(m, H) is inside
                    key = height_key(m)
                    assert key.normalized[pos] == key.max_value == a ** (12 // i)
                    assert (key.max_value < H**12) is inside


def test_report_csv_schema_and_json():
    spec = SampleSpec(height=20, p=3, count=500, seed=5, chunk_size=100)
    theory = {"bad_at_p": CertifiedValue.exact(sp_doubleprime_density(3))}
    rep = estimate(spec, theory)
    csv_text = rep.to_csv()
    lines = csv_text.strip().splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln == "# seed=5" for ln in meta)
    assert any(ln == "# p=3" for ln in meta)
    header = [ln for ln in lines if ln.startswith("flag,")][0]
    assert header == "flag,count,N,proportion,ci_lo,ci_hi,theory_lo,theory_hi,z"
    body = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(body) == 5
    j = rep.to_json_dict()
    assert j["meta"]["seed"] == "5"
    assert {r["flag"] for r in j["rows"]} == {
        "singular",
        "bad_at_p",
        "tamagawa_divisible",
        "anomalous_good",
        "unclassified",
    }
    assert rep.valid


def test_to_csv_matches_csv_writer():
    # to_csv joins its fields itself, and csv.writer is the oracle.  The
    # classify report has rows with no theory value and one, at theory value
    # 0, with no z; the Kodaira report has "singular" and I_n* rows with no
    # theory value, and "I*n:>=1"
    spec = SampleSpec(height=20, p=3, count=500, seed=5, chunk_size=100)
    theory = {"bad_at_p": CertifiedValue.exact(sp_doubleprime_density(3)),
              "unclassified": CertifiedValue.exact(0)}
    rep = estimate(spec, theory)
    kod = kodaira_frequency(SampleSpec(height=2, p=3, count=3000, seed=7, chunk_size=1000), 2)
    for report in (rep, kod):
        assert report.to_csv() == report_csv_by_writer(report)
    assert rep.row("bad_at_p").z is not None
    assert rep.row("unclassified").theory_lo == 0.0 and rep.row("unclassified").z is None
    assert rep.row("singular").theory_lo is None
    assert kod.row("singular").theory_lo is None and kod.row("I*n:1").theory_lo is None
    assert kod.row("I*n:>=1").theory_lo is not None


def test_report_wilson_toggle():
    spec = SampleSpec(height=20, p=3, count=400, seed=5, wilson=True)
    rep = estimate(spec)
    row = rep.row("bad_at_p")
    assert 0 <= row.ci_lo <= row.proportion <= row.ci_hi <= 1


def test_kodaira_frequency_sums_and_theory():
    spec = SampleSpec(height=30, p=3, count=4000, seed=11, chunk_size=1000)
    rep = kodaira_frequency(spec, 2)
    singular = rep.counts.get("singular", 0)
    type_total = sum(v for k, v in rep.counts.items() if k != "singular")
    assert singular + type_total == spec.total
    i0 = rep.row("I0")
    assert i0.theory_lo is not None and abs(i0.proportion - i0.theory_lo) < 0.05
    agg = [r for r in rep.rows if r.flag == "I*n:>=1"]
    if agg:
        assert agg[0].theory_lo is not None
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[-1].count(",") == 8


def test_kodaira_frequency_deterministic():
    spec = SampleSpec(height=30, p=3, count=1500, seed=11, chunk_size=500)
    r1 = kodaira_frequency(spec, 2, threads=1)
    r2 = kodaira_frequency(spec, 2, threads=4)
    assert r1.rows == r2.rows


def test_exhaustive_and_sampled_h2_agree():
    # Monte Carlo at H=2 converges on the exact box proportions
    exact = estimate(SampleSpec(height=2, p=3, exhaustive=True, chunk_size=310_039), threads=4)
    n = 100_000
    sampled = estimate(SampleSpec(height=2, p=3, count=n, seed=77, chunk_size=25_000), threads=4)
    total = exact.spec.total
    for flag in ("singular", "bad_at_p", "tamagawa_divisible", "anomalous_good"):
        p_true = exact.counts[flag] / total
        p_hat = sampled.counts[flag] / n
        se = math.sqrt(max(p_true * (1 - p_true), 1e-12) / n)
        assert abs(p_hat - p_true) < 4 * se, (flag, p_hat, p_true)


@pytest.mark.parametrize("ell", [2, 3])
def test_kodaira_chunk_matches_direct_loop(ell):
    # exhaustive H = 2 chunks with a singular tuple first, in the middle and
    # last: tate's SingularCurveError is counted as "singular"
    head = list(_iter_chunk(SampleSpec(height=2, p=3, exhaustive=True, chunk_size=2000), 0))
    g, h = [i for i, m in enumerate(head) if compute_invariants(m).delta == 0][1:3]
    # [g, 2g), [0, g] and [0, 2h)
    for size, index, at in ((g, 1, 0), (g + 1, 0, g), (2 * h, 0, h)):
        spec = SampleSpec(height=2, p=3, exhaustive=True, chunk_size=size)
        models = list(_iter_chunk(spec, index))
        assert compute_invariants(models[at]).delta == 0
        want = {}
        for m in models:
            if compute_invariants(m).delta == 0:
                key = "singular"
            else:
                key = tate(m, ell).kodaira.label
            want[key] = want.get(key, 0) + 1
        assert _kodaira_chunk(spec, ell, index) == want


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_kodaira_chunk_matches_tate_on_sampled_chunks(ell):
    # seeded draws at H = 10^3, and at H = 2, where this chunk holds five
    # singular models
    for height, seed, index in ((1000, 21, 0), (1000, 22, 3), (2, 31, 3)):
        spec = SampleSpec(height=height, p=3, count=8000, seed=seed, chunk_size=2000)
        want = {}
        for m in _iter_chunk(spec, index):
            if compute_invariants(m).delta == 0:
                key = "singular"
            else:
                key = tate(m, ell).kodaira.label
            want[key] = want.get(key, 0) + 1
        assert _kodaira_chunk(spec, ell, index) == want
        assert ("singular" in want) == (height == 2)


def test_kodaira_frequency_at_three_matches_table():
    # the wild additive chain at 3: type II frequency against its exact density
    spec = SampleSpec(height=200, p=5, count=20000, seed=314, chunk_size=5000)
    rep = kodaira_frequency(spec, 3, threads=2)
    for label in ("II", "I0", "In:1"):
        row = rep.row(label)
        se = math.sqrt(row.theory_lo * (1 - row.theory_lo) / spec.total)
        assert abs(row.proportion - row.theory_lo) < 4.5 * se, label


# ---------------------------------------------------------------------------
# the residue tables of --kodaira-at: one Kodaira label or None per residue
# tuple, a_i mod 4 at ell = 2 and mod ell at 3 and 5

WEIGHTS = (1, 2, 3, 4, 6)
HEIGHTS = (10**3, 5 * 10**4, 10**6)


def _modulus(ell):
    return 4 if ell == 2 else ell


def _index(a, m):
    a1, a2, a3, a4, a6 = (x % m for x in a)
    return (((a1 * m + a2) * m + a3) * m + a4) * m + a6


def _lift(rng, residues, m, height):
    """A seeded model of the box |a_i| < H^i with a_i = residues mod m."""
    lift = WeierstrassModel(*(
        r + m * rng.randint(-((height**w - 1 + r) // m), (height**w - 1 - r) // m)
        for r, w in zip(residues, WEIGHTS)))
    assert all(a % m == r for a, r in zip(lift, residues))
    return lift


@pytest.mark.parametrize("ell, size, digest", [
    (2, 1024, "85cbf6592704eb7a0f4de73a2aa71e3ef68cace93a55ae96492bed92b150f023"),
    (3, 243, "48497443a5e1044f009d7ee5e10d37e15b361f1a8278fdaae03b82b15060f6a4"),
    (5, 3125, "939c70b2083733a2bb310eee366f582f54e4a16c19f29261690e65c414e05f4e"),
])
def test_type_table_labels_pinned(ell, size, digest):
    # every entry of each residue table, in index order: a table rebuilt by
    # other code must equal this one entry for entry
    table = _type_table(ell)
    # the label tuple, also where the table comes with its modulus
    labels = table[1] if len(table) == 2 else table
    assert len(labels) == size
    assert hashlib.sha256(repr(labels).encode()).hexdigest() == digest


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_type_ids_name_the_table_labels(ell):
    # the label ids _kodaira_chunk tallies by read back as the residue table
    if _type_table(ell) is None:
        assert _type_ids(ell) is None
        return
    m, table = _type_table(ell)
    m_ids, ids, labels = _type_ids(ell)
    assert m_ids == m and len(labels) == len(set(labels))
    assert [None if i is None else labels[i] for i in ids] == list(table)


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_good_table_flags_ell_prime_to_discriminant(ell):
    # the I0 entries are exactly the classes with ell prime to Delta
    m, table = _type_table(ell)
    assert m == _modulus(ell)
    assert len(table) == m**5
    for a in itertools.product(range(m), repeat=5):
        assert (table[_index(a, m)] == "I0") == (c4_and_discriminant(a)[1] % ell != 0), a
    # mod ell only I0 is settled, mod 4 also I1, II, III and IV
    labels = {"I0", None} if ell > 2 else {"I0", "In:1", "II", "III", "IV", None}
    assert set(table) == labels


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_good_table_flags_exactly_the_minimal_i0_lifts(ell):
    # one seeded lift of every residue class into each box: a lift of an I0
    # class is ell-minimal of type I0, and one of any other class (ell |
    # Delta) is singular, of bad reduction, or of good reduction only on a
    # smaller model
    m, table = _type_table(ell)
    assert m == _modulus(ell)
    rng = random.Random(1000 + ell)
    for height in HEIGHTS:
        for index, residues in enumerate(itertools.product(range(m), repeat=5)):
            lift = _lift(rng, residues, m, height)
            if c4_and_discriminant(lift)[1] == 0:
                assert table[index] is None, lift
                continue
            data = tate(lift, ell)
            assert (table[index] == "I0") == (data.kodaira.label == "I0" and data.was_minimal), lift


def test_type_table_labels_match_tate_on_lifts():
    # eight seeded lifts of every labelled class at 2 into each box
    _, table = _type_table(2)
    rng = random.Random(2024)
    for height in HEIGHTS:
        for index, residues in enumerate(itertools.product(range(4), repeat=5)):
            if table[index] is None:
                continue
            for _ in range(8):
                lift = _lift(rng, residues, 4, height)
                assert tate(lift, 2).kodaira.label == table[index], (lift, table[index])
    # 864 of the 1024 classes get a label
    assert sum(label is not None for label in table) == 864


def test_type_table_leaves_every_singular_model_of_h2_box_untyped():
    # Delta is a quadratic in a6 with leading coefficient -27 * 16, so the
    # singular models of each (a1, a2, a3, a4) are the integer roots of the
    # quadratic through Delta at a6 = 0, 1, 2
    _, table = _type_table(2)
    box = [range(1 - 2**w, 2**w) for w in WEIGHTS]
    singular = 0
    for head in itertools.product(*box[:4]):
        d0, d1, d2 = (c4_and_discriminant((*head, a6))[1] for a6 in (0, 1, 2))
        a = (d2 - 2 * d1 + d0) // 2
        b = d1 - d0 - a
        assert a == -432
        disc = b * b - 4 * a * d0
        root = math.isqrt(disc) if disc >= 0 else -1
        if root * root != disc:
            continue
        for num in {-b + root, -b - root}:
            if num % (2 * a) == 0 and num // (2 * a) in box[4]:
                model = (*head, num // (2 * a))
                assert c4_and_discriminant(model)[1] == 0
                assert table[_index(model, 4)] is None, model
                singular += 1
    assert singular == 725


@pytest.mark.parametrize("p", [3, 5, 7])
def test_classify_skip_at_two_matches_tate(p):
    # seeded lifts of every II, III and IV class at 2: whether p | c_2, with
    # the Tate run skipped where the label bounds c_2, against tate
    _, table = _type_table(2)
    rng = random.Random(300 + p)
    seen = set()
    for height in HEIGHTS:
        for index, residues in enumerate(itertools.product(range(4), repeat=5)):
            if table[index] not in ("II", "III", "IV"):
                continue
            for _ in range(8):
                lift = _lift(rng, residues, 4, height)
                inv = compute_invariants(lift)
                c = tate(lift, 2).tamagawa
                seen.add((table[index], c))
                got = _c_ell_divisible(lift, 2, valuation(inv.delta, 2), inv, p)
                assert got == (c % p == 0), (lift, table[index], c)
    # IV with c = 3 occurs, so at p = 3 its run is not skipped
    assert seen == {("II", 1), ("III", 2), ("IV", 1), ("IV", 3)}


@pytest.mark.parametrize("ell", [7, 11])
def test_kodaira_chunk_matches_tate_without_a_table(ell):
    # above ell = 5 localdata._kodaira_label types every draw: I0 where ell
    # is prime to Delta, I_v where it is prime to c4, a Tate run where ell |
    # c4.  Each draw's label is checked against tate, and the chunk's counts
    # against theirs, on seeded chunks at H = 10^3 and 5 * 10^4 and an H = 2
    # chunk that holds singular draws
    assert ell > _TYPE_TABLE_MAX_ELL and _type_table(ell) is None
    branches = set()
    for height, seed, index in ((1000, 23, 0), (1000, 42, 2), (50000, 24, 1), (2, 31, 3)):
        spec = SampleSpec(height=height, p=3, count=8000, seed=seed, chunk_size=2000)
        want = {}
        for m in _iter_chunk(spec, index):
            try:
                key = tate(m, ell).kodaira.label
            except SingularCurveError:
                key = "singular"
            inv = compute_invariants(m)
            if inv.delta:
                branches.add("I0" if inv.delta % ell else
                             f"I{min(valuation(inv.delta, ell), 2)}" if inv.c4 % ell else "tate")
            assert _kodaira_label(m, ell) == key, m
            want[key] = want.get(key, 0) + 1
        assert _kodaira_chunk(spec, ell, index) == want
        assert ("singular" in want) == (height == 2)
    # every rule ran, the multiplicative one at v = 1 and at v >= 2
    assert branches == {"I0", "I1", "I2", "tate"}


def test_kodaira_frequency_at_large_ell_builds_no_table(monkeypatch):
    # a table types each residue class through localdata._residue_type: no
    # class at a large ell, and the 5^5 classes of one table at 5, once
    import ellstat.localdata as localdata

    typed = []
    residue_type = localdata._residue_type
    monkeypatch.setattr(localdata, "_residue_type",
                        lambda a, ell: typed.append(ell) or residue_type(a, ell))
    # kodaira_frequency reads the table through its label ids
    _type_table.cache_clear()
    _type_ids.cache_clear()
    rep = kodaira_frequency(SampleSpec(height=1000, p=3, count=10, seed=0), 1000003)
    assert sum(rep.counts.values()) == 10
    assert typed == []
    for _ in range(2):
        kodaira_frequency(SampleSpec(height=1000, p=3, count=10, seed=0), 5)
    assert typed == [5] * 5**5


@pytest.mark.parametrize("height", [1, 2])
@pytest.mark.parametrize("ell", [2, 3, 5])
def test_box_i0_count_from_residue_classes(ell, height):
    # In the box |a_i| < H^i, coefficient a_i takes N_i = 2 H^i - 1 values,
    # and floor(N_i / ell) or ceil(N_i / ell) of them lie in each class mod
    # ell.  The I0 count is the sum, over the classes with ell prime to
    # Delta, of the product of those five counts, plus the models with
    # ell | Delta that have good reduction on a smaller model.
    box = [range(1 - height**w, height**w) for w in WEIGHTS]

    def in_class(values, r):
        return (values[-1] - r) // ell - (values[0] - 1 - r) // ell

    for values in box:
        assert all(in_class(values, r) in (len(values) // ell, -(-len(values) // ell))
                   for r in range(ell))
    good = sum(math.prod(in_class(values, r) for values, r in zip(box, residues))
               for residues in itertools.product(range(ell), repeat=5)
               if c4_and_discriminant(residues)[1] % ell)
    # a smaller model needs ell^4 | c4, and c4 does not involve a6
    smaller = 0
    for head in itertools.product(*box[:4]):
        if c4_and_discriminant((*head, 0))[0] % ell**4:
            continue
        for a6 in box[4]:
            a = (*head, a6)
            delta = c4_and_discriminant(a)[1]
            smaller += delta != 0 and delta % ell == 0 and good_after_minimising(a, ell)
    # at H = 2 only ell = 2 has such models
    assert (smaller > 0) == ((height, ell) == (2, 2))
    rep = kodaira_frequency(SampleSpec(height=height, p=3, exhaustive=True), ell, threads=2)
    assert rep.counts.get("I0", 0) == good + smaller


# ---------------------------------------------------------------------------
# the forked chunk runner

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
EIGHT_CHUNKS = SampleSpec(height=2, p=3, count=8, chunk_size=1)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fake_cpus(monkeypatch, cpus: int) -> None:
    """Make the affinity set read {0, ..., cpus - 1} and pinning do nothing,
    so that workers are planned as on that many CPUs but none is moved."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)


def _count_forks(monkeypatch, cpus: int) -> list[int]:
    _fake_cpus(monkeypatch, cpus)
    forks: list[int] = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@needs_fork
def test_run_chunks_shares_chunks_with_children(monkeypatch):
    # three workers: this process runs chunks 0 to 2 and two children the rest
    forks = _count_forks(monkeypatch, cpus=4)
    parent = os.getpid()
    counts = _run_chunks(EIGHT_CHUNKS, lambda i: {"index": i, "in_child": os.getpid() != parent},
                         3, _FORK_US)
    assert counts == {"index": sum(range(8)), "in_child": 5}
    assert len(forks) == 2
    _assert_no_children()


@needs_fork
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n_chunks", [1, 7, 8, 13])
def test_fork_join_returns_results_in_chunk_order(monkeypatch, n_chunks, k):
    # worker w sums chunks ceil(w n / k) to ceil((w + 1) n / k) - 1, and
    # worker 0 is this process.  Each chunk brings a key of its own, so the
    # sum has the key order of the in-order fold only if the blocks are
    # contiguous and folded in order: a stride or unordered fold fails
    _fake_cpus(monkeypatch, k)
    parent = os.getpid()

    def chunk(i):
        return {"n": 1, f"chunk{i}": i, f"here{i}": os.getpid() == parent}

    counts = _fork_join(chunk, n_chunks, k, list(range(k)) if k > 1 else [])
    in_order = _sum_counts(map(chunk, range(n_chunks)))  # every chunk run here
    assert list(counts) == list(in_order)
    first_block = -(-n_chunks // k)
    assert counts == {**in_order, **{f"here{i}": i < first_block for i in range(n_chunks)}}
    _assert_no_children()


@needs_fork
def test_kodaira_counts_keep_their_key_order_across_workers(monkeypatch):
    # summed per worker, the labels of the two workers' chunks would come
    # home in another order than on one worker
    forks = _count_forks(monkeypatch, cpus=2)
    spec = SampleSpec(height=1000, p=3, count=40000, seed=1, chunk_size=5000)
    one = list(kodaira_frequency(spec, 2, threads=1).counts.items())
    assert forks == []
    two = list(kodaira_frequency(spec, 2, threads=2).counts.items())
    assert len(forks) == 1
    assert one == two
    _assert_no_children()


@needs_fork
def test_run_chunks_caps_workers_at_cpu_count(monkeypatch):
    # the 8 chunks bound the forks even if the cap were wrong
    forks = _count_forks(monkeypatch, cpus=2)
    assert _run_chunks(EIGHT_CHUNKS, lambda i: {"n": 1}, 64, _FORK_US) == {"n": 8}
    assert len(forks) == 1
    _assert_no_children()


@needs_fork
def test_run_chunks_one_worker_runs_in_process(monkeypatch):
    forks = _count_forks(monkeypatch, cpus=1)
    parent = os.getpid()
    counts = _run_chunks(EIGHT_CHUNKS, lambda i: {"here": os.getpid() == parent}, 8, _FORK_US)
    assert counts == {"here": 8} and forks == []


def test_one_worker_folds_each_chunk_as_it_ends():
    # one worker keeps no list of chunk results: held as a list until one
    # fold, the counts of 20000 chunks of one draw peak at about 4 MB of
    # traced memory; folded as each chunk ends, under 0.1 MB.  The first
    # call builds what a run at ell = 2 caches, so it is not traced
    spec = SampleSpec(height=1000, p=3, count=20000, seed=1, chunk_size=1)
    kodaira_frequency(SampleSpec(height=1000, p=3, count=16, seed=1), 2, threads=1)
    tracemalloc.start()
    try:
        counts = kodaira_frequency(spec, 2, threads=1).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 20000
    assert peak < 1_000_000


@needs_fork
def test_two_workers_fold_each_chunk_as_it_ends(monkeypatch):
    # two workers keep no list of chunk results either: this process folds
    # its own block as each chunk ends and unpickles one block sum from its
    # child.  Holding its 10000 chunk results and the child's 10000 until
    # one fold, it peaks at about 4 MB of traced memory; folded, under 0.1 MB
    forks = _count_forks(monkeypatch, cpus=2)
    spec = SampleSpec(height=1000, p=3, count=20000, seed=1, chunk_size=1)
    kodaira_frequency(SampleSpec(height=1000, p=3, count=16, seed=1), 2, threads=1)
    tracemalloc.start()
    try:
        counts = kodaira_frequency(spec, 2, threads=2).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(forks) == 1
    assert sum(counts.values()) == 20000
    assert peak < 1_000_000
    _assert_no_children()


# (samples, chunk size) of the byte-identity runs: neither size is a
# multiple of its chunk size, and the 287 chunks of the second split into
# blocks of unequal size on 2, 3 and 4 workers
IDENTITY_SIZES = [(20003, 4999), (2003, 7)]


@needs_fork
@pytest.mark.parametrize("samples, chunk_size", IDENTITY_SIZES)
@pytest.mark.parametrize("ell", [None, 2, 7], ids=["classify", "ell2", "ell7"])
def test_reports_are_byte_identical_across_worker_counts(monkeypatch, ell, samples, chunk_size):
    # the CSV bytes and the counts, key order included, at 1, 2, 3 and 8
    # planned workers; the plan may run fewer where the work or the chunk
    # count caps it
    spec = SampleSpec(height=1000, p=3, count=samples, seed=5, chunk_size=chunk_size)
    reports = []
    for workers in (1, 2, 3, 8):
        _fake_cpus(monkeypatch, workers)
        if ell is None:
            rep = estimate(spec, threads=workers)
        else:
            rep = kodaira_frequency(spec, ell, threads=workers)
        reports.append((rep.to_csv(), list(rep.counts.items())))
    assert all(r == reports[0] for r in reports)
    _assert_no_children()


@needs_fork
def test_run_chunks_gives_each_worker_a_fork_of_work(monkeypatch):
    # eight chunks on four CPUs: work of just over 3 * _FORK_US pays for
    # three workers, just under it for two
    forks = _count_forks(monkeypatch, cpus=4)
    assert _run_chunks(EIGHT_CHUNKS, lambda i: {"n": 1}, 4, 3 * _FORK_US // 8 + 1) == {"n": 8}
    assert len(forks) == 2
    forks.clear()
    assert _run_chunks(EIGHT_CHUNKS, lambda i: {"n": 1}, 4, 3 * _FORK_US // 8 - 1) == {"n": 8}
    assert len(forks) == 1
    _assert_no_children()


# (p, height, samples, chunk size, ell or None for classify) of calls whose
# two-worker plan is pinned: each case of CI's 1- vs 2-worker cmp loop and
# the benchmark's 8000-sample classify call (sample-h1e3) fork a child
FORKING_CALLS = [
    (3, 1000, 20000, 5000, None),
    (3, 1000, 20003, 4999, None),
    (31, 1000, 20000, 5000, None),
    (3, 1000, 20003, 4999, 2),
    (3, 1000, 20003, 4999, 3),
    (3, 1000, 20003, 4999, 5),
    (3, 1000000, 20003, 4999, 2),
    (3, 1000, 20003, 4999, 7),
    (3, 1000, 8000, 2000, None),
]
# and these run in one process: the benchmark's Kodaira call of sample-tall
# (also a cmp-loop case) and its 64-sample warm-up call
IN_PROCESS_CALLS = [
    (3, 50000, 1000, 250, 2),
    (3, 1000, 64, 16, None),
]


def _call_id(call) -> str:
    p, height, samples, chunk_size, ell = call
    kind = "classify" if ell is None else f"ell{ell}"
    return f"p{p}-H{height}-n{samples}-c{chunk_size}-{kind}"


@needs_fork
@pytest.mark.parametrize("call, forked", [pytest.param(c, 1, id=_call_id(c)) for c in FORKING_CALLS]
                         + [pytest.param(c, 0, id=_call_id(c)) for c in IN_PROCESS_CALLS])
def test_two_workers_fork_only_where_the_work_pays(monkeypatch, call, forked):
    # the chunk functions are stubbed out, so only the worker plan runs
    import ellstat.harness as harness

    forks = _count_forks(monkeypatch, cpus=2)
    monkeypatch.setattr(harness, "_count_chunk",
                        lambda spec, index: dict.fromkeys(harness._FLAG_ORDER, 0))
    monkeypatch.setattr(harness, "_kodaira_chunk", lambda spec, ell, index: {"I0": 0})
    p, height, samples, chunk_size, ell = call
    spec = SampleSpec(height=height, p=p, count=samples, chunk_size=chunk_size)
    if ell is None:
        estimate(spec, threads=2)
    else:
        kodaira_frequency(spec, ell, threads=2)
    assert len(forks) == forked
    _assert_no_children()


def test_run_chunks_without_fork_runs_in_process(monkeypatch):
    _fake_cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork", raising=False)
    parent = os.getpid()
    counts = _run_chunks(EIGHT_CHUNKS, lambda i: {"here": os.getpid() == parent}, 4, _FORK_US)
    assert counts == {"here": 8}


@needs_fork
def test_run_chunks_reraises_child_exception(monkeypatch):
    _fake_cpus(monkeypatch, 2)
    parent = os.getpid()

    def chunk(i):
        if i == 5:  # an odd chunk, run by the child
            raise KeyError(os.getpid())
        return {"n": 1}

    with pytest.raises(KeyError) as exc:
        _run_chunks(EIGHT_CHUNKS, chunk, 2, _FORK_US)
    assert exc.value.args[0] != parent
    _assert_no_children()


@needs_fork
def test_run_chunks_own_exception_kills_children(monkeypatch):
    _fake_cpus(monkeypatch, 2)
    parent = os.getpid()

    def chunk(i):
        if os.getpid() == parent:
            raise KeyError(i)
        time.sleep(60)  # a child far slower than the test

    t0 = time.monotonic()
    with pytest.raises(KeyError):
        _run_chunks(EIGHT_CHUNKS, chunk, 2, _FORK_US)
    assert time.monotonic() - t0 < 30
    _assert_no_children()


@needs_fork
def test_run_chunks_child_without_result_raises(monkeypatch):
    _fake_cpus(monkeypatch, 2)
    parent = os.getpid()

    def leave(how):
        def chunk(i):
            if os.getpid() != parent:
                how()
            return {"n": 1}
        return chunk

    with pytest.raises(RuntimeError, match="exit code 3"):
        _run_chunks(EIGHT_CHUNKS, leave(lambda: os._exit(3)), 2, _FORK_US)
    _assert_no_children()
    with pytest.raises(RuntimeError, match=f"signal {int(signal.SIGKILL)}"):
        _run_chunks(EIGHT_CHUNKS, leave(lambda: os.kill(os.getpid(), signal.SIGKILL)), 2, _FORK_US)
    _assert_no_children()


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity"
)
# the affinity set this process started with; a run that left this process
# pinned would shrink it for every later test
AFFINITY = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()


@pytest.fixture
def two_cpus():
    """Run the test on the first two CPUs of AFFINITY, the one set size that
    two workers pin on, and give this process AFFINITY back afterwards."""
    assert os.sched_getaffinity(0) == AFFINITY
    cpus = sorted(AFFINITY)[:2]
    if len(cpus) < 2:
        pytest.skip("needs an affinity set of two CPUs")
    os.sched_setaffinity(0, cpus)
    try:
        yield cpus
    finally:
        os.sched_setaffinity(0, AFFINITY)


@needs_affinity
@needs_fork
def test_run_chunks_pins_each_worker_to_its_own_cpu(two_cpus):
    counts = _run_chunks(EIGHT_CHUNKS, lambda i: {str(sorted(os.sched_getaffinity(0))): 1},
                         2, _FORK_US)
    assert counts == {str(two_cpus[:1]): 4, str(two_cpus[1:]): 4}
    assert os.sched_getaffinity(0) == set(two_cpus)
    _assert_no_children()


@needs_affinity
@needs_fork
def test_run_chunks_restores_affinity(two_cpus):
    parent = os.getpid()

    def raise_in(in_parent):
        def chunk(i):
            if (os.getpid() == parent) == in_parent:
                raise KeyError(i)
            return {"n": 1}
        return chunk

    assert _run_chunks(EIGHT_CHUNKS, lambda i: {"n": 1}, 2, _FORK_US) == {"n": 8}
    assert os.sched_getaffinity(0) == set(two_cpus)
    for in_parent in (True, False):
        with pytest.raises(KeyError):
            _run_chunks(EIGHT_CHUNKS, raise_in(in_parent), 2, _FORK_US)
        assert os.sched_getaffinity(0) == set(two_cpus)
        _assert_no_children()


@needs_affinity
@needs_fork
@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}], ids=["one-cpu", "three-cpus"])
def test_run_chunks_other_set_sizes_are_left_unpinned(monkeypatch, cpus):
    # two workers asked for on an affinity set of one CPU, which runs one
    # worker, or of more CPUs than workers: no process is pinned
    monkeypatch.setattr(os, "cpu_count", lambda: len(cpus) + 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    calls = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(cpus))
    # a child reports the calls made in it, since its list is its own copy
    counts = _run_chunks(EIGHT_CHUNKS, lambda i: {"n": 1, "pins": len(calls)}, 2, _FORK_US)
    assert counts == {"n": 8, "pins": 0} and calls == []
    _assert_no_children()


@needs_affinity
@needs_fork
@pytest.mark.parametrize("cpus, forked", [({0, 1, 2}, 2), ({0}, 0)], ids=["three-cpus", "one-cpu"])
def test_run_chunks_affinity_set_caps_and_pins_workers(monkeypatch, cpus, forked):
    # eight workers asked for on eight CPUs by os.cpu_count: the affinity
    # set caps them at its size and pins each to one of its CPUs, or, with
    # one CPU, runs every chunk here
    forks = _count_forks(monkeypatch, len(cpus))
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    calls = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(sorted(cpus)))
    # a worker reports the pins made in it, since a child's list is its own copy
    counts = _run_chunks(EIGHT_CHUNKS, lambda i: {str(calls): 1}, 8, _FORK_US)
    assert len(forks) == forked
    if forked:
        assert counts == {"[[0]]": 3, "[[1]]": 3, "[[2]]": 2}
        assert calls == [[0], [0, 1, 2]]  # this process pinned, then given its set back
    else:
        assert counts == {"[]": 8} and calls == []
    _assert_no_children()


@needs_affinity
@needs_fork
def test_run_chunks_ignores_refused_pinning(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def refuse(pid, cpus):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    counts = _run_chunks(EIGHT_CHUNKS, lambda i: {"index": i}, 2, _FORK_US)
    assert counts == {"index": sum(range(8))}
    _assert_no_children()
