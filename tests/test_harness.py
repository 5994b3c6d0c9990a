import dataclasses
import hashlib
import math
import os
import random
import signal
import time
from fractions import Fraction

import pytest

from ellstat.arith import valuation
from ellstat.curves import WeierstrassModel, compute_invariants, height_key, height_lt
from ellstat.density import CertifiedValue, sp_doubleprime_density
from ellstat.finitefield import reduce_model, group_order
from ellstat.harness import (
    ClassificationFlags,
    SampleSpec,
    _classify_chunk,
    _chunk_rng,
    _iter_chunk,
    _kodaira_chunk,
    _run_chunks,
    classify,
    estimate,
    exhaustive_box_size,
    kodaira_frequency,
    sample_tuple,
)
from ellstat.localdata import tamagawa_p_divisible, tate

from oracles import sample_tuple_by_randrange


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


@pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
def test_classify_chunk_matches_classify(n):
    # S_3 members alternate with non-members, so a model handed its
    # neighbour's small-prime gcd is likely to change flags
    rng = random.Random(n)
    pools = ([], [])
    while min(map(len, pools)) < n:
        m = sample_tuple(rng, 8)
        if compute_invariants(m).delta:
            pools[classify(m, 3).tamagawa_divisible].append(m)
    drawn = [pools[i % 2][i] for i in range(n)]
    # the singular model first, in the middle of a group, and last: a
    # singular model has no discriminant, so it must not shift the gcds of
    # the models after it
    for at in (0, min(n - 1, 17), n - 1):
        models = drawn[:at] + [WeierstrassModel(0, 0, 0, 0, 0)] + drawn[at + 1 :]
        for p in (3, 5):
            assert list(_classify_chunk(models, p)) == [classify(m, p) for m in models]
    assert list(_classify_chunk(iter(drawn), 3)) == [classify(m, 3) for m in drawn]
    assert list(_classify_chunk([], 3)) == []


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


def test_kodaira_frequency_at_three_matches_table():
    # the wild additive chain at 3: type II frequency against its exact density
    spec = SampleSpec(height=200, p=5, count=20000, seed=314, chunk_size=5000)
    rep = kodaira_frequency(spec, 3, threads=2)
    for label in ("II", "I0", "In:1"):
        row = rep.row(label)
        se = math.sqrt(row.theory_lo * (1 - row.theory_lo) / spec.total)
        assert abs(row.proportion - row.theory_lo) < 4.5 * se, label


# ---------------------------------------------------------------------------
# the forked chunk runner

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
EIGHT_CHUNKS = SampleSpec(height=2, p=3, count=8, chunk_size=1)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch, cpus: int) -> list[int]:
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    forks: list[int] = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@needs_fork
def test_run_chunks_shares_chunks_with_children(monkeypatch):
    # three workers: this process runs chunks 0, 3, 6 and two children the rest
    forks = _count_forks(monkeypatch, cpus=4)
    parent = os.getpid()
    counts = _run_chunks(EIGHT_CHUNKS, lambda i: {"index": i, "in_child": os.getpid() != parent}, 3)
    assert counts == {"index": sum(range(8)), "in_child": 5}
    assert len(forks) == 2
    _assert_no_children()


@needs_fork
def test_run_chunks_caps_workers_at_cpu_count(monkeypatch):
    # the 8 chunks bound the forks even if the cap were wrong
    forks = _count_forks(monkeypatch, cpus=2)
    assert _run_chunks(EIGHT_CHUNKS, lambda i: {"n": 1}, 64) == {"n": 8}
    assert len(forks) == 1
    _assert_no_children()


@needs_fork
def test_run_chunks_one_worker_runs_in_process(monkeypatch):
    forks = _count_forks(monkeypatch, cpus=1)
    parent = os.getpid()
    counts = _run_chunks(EIGHT_CHUNKS, lambda i: {"here": os.getpid() == parent}, 8)
    assert counts == {"here": 8} and forks == []


def test_run_chunks_without_fork_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork", raising=False)
    parent = os.getpid()
    assert _run_chunks(EIGHT_CHUNKS, lambda i: {"here": os.getpid() == parent}, 4) == {"here": 8}


@needs_fork
def test_run_chunks_reraises_child_exception(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parent = os.getpid()

    def chunk(i):
        if i == 5:  # an odd chunk, run by the child
            raise KeyError(os.getpid())
        return {"n": 1}

    with pytest.raises(KeyError) as exc:
        _run_chunks(EIGHT_CHUNKS, chunk, 2)
    assert exc.value.args[0] != parent
    _assert_no_children()


@needs_fork
def test_run_chunks_own_exception_kills_children(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parent = os.getpid()

    def chunk(i):
        if os.getpid() == parent:
            raise KeyError(i)
        time.sleep(60)  # a child far slower than the test

    t0 = time.monotonic()
    with pytest.raises(KeyError):
        _run_chunks(EIGHT_CHUNKS, chunk, 2)
    assert time.monotonic() - t0 < 30
    _assert_no_children()


@needs_fork
def test_run_chunks_child_without_result_raises(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parent = os.getpid()

    def leave(how):
        def chunk(i):
            if os.getpid() != parent:
                how()
            return {"n": 1}
        return chunk

    with pytest.raises(RuntimeError, match="exit code 3"):
        _run_chunks(EIGHT_CHUNKS, leave(lambda: os._exit(3)), 2)
    _assert_no_children()
    with pytest.raises(RuntimeError, match=f"signal {int(signal.SIGKILL)}"):
        _run_chunks(EIGHT_CHUNKS, leave(lambda: os.kill(os.getpid(), signal.SIGKILL)), 2)
    _assert_no_children()
