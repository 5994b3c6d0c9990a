"""Height-ordered sampling, classification and empirical density reports.

Sampling draws each coefficient uniformly from |a_i| < H^i; exhaustive mode
walks the whole box.  A draw calls rng.getrandbits with the rejection loop
of random.Random.randrange, so a seed gives the stream of five randrange
calls per sample, while the bounds are worked out once per chunk.  Work is
split into fixed-size chunks whose RNG streams are derived from (master
seed, chunk index), so reports are bit-identical for a given (seed, chunk
size) no matter how many worker processes run the chunks.  Workers are
forked (os.fork), so call with more than one worker only from a
single-threaded process.  A call forks only the workers its estimated work
pays for, at a measured cost per fork, so a short call runs in one process
whatever the worker count.

Classification at p decides S_p by one rule: p | c_ell needs either
ell | gcd(Delta, c4), where Tate decides, or ell^3 | Delta with ell prime to
c4, a split I_v prime with p | v.  Primes below 10^4 come out of a gcd with
their product, the primorial, reduced once modulo the product of 8
discriminants at a time; above it only gcd(Delta, c4) is factored, and the
multiplicative rest matters only through a prime of multiplicity >= 3, which
a perfect-power test finds (residue sieves reject almost every non-power
before a root is taken).  Ogg's formula skips the Tate runs that cannot give
p | c_ell.  The one unverified case is a rest q^3 * r that is not a perfect
power; that has probability < 2^-30 per sample and is treated as absent.
Samples that genuinely need a factorisation that exceeds its budget land in
an explicit "unclassified" bucket; a run is valid while that bucket stays
under 0.1%.

Kodaira types at a fixed ell (kodaira_frequency) are looked up, where they
can be, in the residue tables of localdata._type_table, which says which
residues decide which type; every other draw gets a Tate run.  classify reads
the table at 2 to skip the Tate runs that cannot give p | c_2.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import pickle
import random
import signal
from dataclasses import dataclass, field
from functools import partial
from itertools import islice, product
from math import gcd, inf, prod, sqrt
from typing import NoReturn

from . import __version__
from .arith import (_SMALL_BOUND, FactorBudgetExceeded, InputError, _may_be_kth_power, _primorial,
                    factorize, iroot, is_prime, require_odd_prime, valuation)
from .curves import Invariants, SingularCurveError, WeierstrassModel, _box, compute_invariants
from .density import CertifiedValue, rho, rho_Instar_ge1
from .finitefield import _p_divides_order, _require_point_count_prime
from .kodaira import parse_kodaira
from .localdata import (_good_invariants, _residue_index, _split_multiplicative, _tate_run,
                        _type_table)

__all__ = [
    "SampleSpec",
    "ClassificationFlags",
    "EmpiricalReport",
    "KodairaFrequencyReport",
    "sample_tuple",
    "classify",
    "estimate",
    "kodaira_frequency",
    "exhaustive_box_size",
]

_SMALL_CUBE = _SMALL_BOUND**3
_RHO_BUDGET = 1 << 20
# models read per batch; their discriminants share one reduction of the
# primorial.  Per sample (median of 20 to 30 rounds, 2 cores, Python 3.11),
# batches of 8, 16 and 32 tie at H = 10^3, and at H = 5 * 10^4, where the
# discriminants are longer, 8 is fastest: 25.4 against 25.9 and 28.0 us.
_BLOCK = 8


@dataclass(frozen=True)
class ClassificationFlags:
    singular: bool
    bad_at_p: bool
    tamagawa_divisible: bool
    anomalous_good: bool
    unclassified: bool = False


_SINGULAR = ClassificationFlags(True, False, False, False)
# the flags of a nonsingular model, one shared instance per
# (bad_at_p, tamagawa_divisible, anomalous_good, unclassified)
_NONSINGULAR = {key: ClassificationFlags(False, *key) for key in product((False, True), repeat=4)}


def classify(model: WeierstrassModel, p: int) -> ClassificationFlags:
    """Membership flags in S_p (some p | c_ell), S_p' (good anomalous) and
    S_p'' (bad reduction at p) for one integral tuple.

    S_p'' is decided on the p-minimal model; S_p' uses the discriminant of
    the given equation, per its literal definition.
    """
    return next(_classify_chunk((model,), p))


def _classify_chunk(models, p: int):
    """classify(model, p) for each model of the iterable, in order.

    Models are read _BLOCK at a time, never all at once.  The primorial is
    reduced once per batch, modulo the product of the batch's C = |Delta|
    with p divided out; each C divides that product, so its gcd with the
    remainder is its gcd with the primorial.
    """
    require_odd_prime(p)
    models = iter(models)
    while batch := list(islice(models, _BLOCK)):
        # (model, invariants, C, v_p(Delta)) of each nonsingular model; None
        # for a singular one
        rows = []
        for model in batch:
            inv = compute_invariants(model)
            if inv.delta == 0:
                rows.append(None)
                continue
            C = abs(inv.delta)
            vp = 0
            while C % p == 0:
                C //= p
                vp += 1
            rows.append((model, inv, C, vp))
        r = _primorial() % prod(row[2] for row in rows if row)
        for row in rows:
            if row is None:
                yield _SINGULAR
                continue
            model, inv, C, vp = row
            # S_p'': bad reduction at p on the p-minimal model
            bad_at_p = vp > 0 and _good_invariants(model, inv, p) is None
            # S_p': p does not divide the given discriminant and the
            # reduction has a rational p-torsion point, i.e. p | #E(F_p).
            anomalous_good = vp == 0 and _p_divides_order(p, inv.b2, inv.b4, inv.b6)
            try:
                tam, unclassified = _tamagawa_divisible(model, C, gcd(C, r), inv, p), False
            except FactorBudgetExceeded:
                tam, unclassified = False, True
            yield _NONSINGULAR[bad_at_p, tam, anomalous_good, unclassified]


def _c_ell_divisible(model: WeierstrassModel, ell: int, v: int, inv: Invariants,
                     p: int) -> bool:
    """Is p | c_ell, for a prime ell | Delta with v = v_ell(Delta)?  inv are
    the invariants of model.

    Where ell | c4 Tate decides, and only if v > p: Ogg's formula gives
    c_ell <= v(Delta_min) - 1 there (a minimal model is additive, f >= 2),
    and a non-minimal model has v >= v(Delta_min) + 12.  At ell = 2 the
    residue table (_type_table) skips that run where it reads II or III
    (c_ell <= 2), or IV (c_ell = 1 or 3) and p > 3.  Elsewhere ell is
    multiplicative: c_ell = v if split, c_ell <= 2 if not.
    """
    if inv.c4 % ell == 0:
        if v <= p:
            return False
        if ell == 2:
            label = _type_table(2)[1][_residue_index(model, 4)]
            if label == "II" or label == "III" or label == "IV" and p > 3:
                return False
        # ell comes from a factorisation, so tate's primality check is moot
        return _tate_run(model, ell, inv)[1].tamagawa % p == 0
    return v % p == 0 and _split_multiplicative(inv.c6, ell)


def _tamagawa_divisible(model: WeierstrassModel, C: int, s: int, inv: Invariants,
                        p: int) -> bool:
    """Is p | c_ell for some prime ell | C?  C is |Delta| with p divided out,
    s = gcd(C, primorial), the product of its primes below the trial bound,
    and inv are the invariants of model.

    Only ell | gcd(Delta, c4) and ell^3 | Delta can qualify (c_ell <= 2 at
    a multiplicative ell with v_ell(Delta) <= 2); _c_ell_divisible tests
    each.  Budget-free tests run first, so FactorBudgetExceeded means none
    of them found a divisible c_ell.
    """
    # primes below the trial bound: cubed holds those dividing C at least
    # three times
    s2 = gcd(C // s, s)
    cubed = gcd(C // s // s2, s2)
    candidates = gcd(s, inv.c4) * cubed
    if candidates > 1:
        for ell in factorize(candidates):
            if _c_ell_divisible(model, ell, valuation(C, ell), inv, p):
                return True
    # strip the small primes: up to three factors of each at once, then
    # the higher powers, which only the primes of cubed have
    C //= s * s2 * cubed
    while cubed > 1:
        cubed = gcd(C, cubed)
        C //= cubed

    # primes above the trial bound: the additive (or non-minimal) ones
    # divide c4, and gcd(C, 0) = C
    big_additive = gcd(C, inv.c4)
    if big_additive > 1:
        for q in factorize(big_additive, rho_budget=_RHO_BUDGET):
            v = 0
            while C % q == 0:
                C //= q
                v += 1
            if _c_ell_divisible(model, q, v, inv, p):
                return True
    if C < _SMALL_CUBE:
        # q^3 <= C < bound^3 is impossible, so every multiplicity here is 1
        # or 2 and c lies in {1, 2}: no odd p divides it
        return False
    # the only way left for some multiplicity to reach 3 (short of the
    # assumed-absent q^3 * r event) is C itself being a perfect power
    for k in (2, 3, 5, 7):
        if _may_be_kth_power(C, k):
            m, exact = iroot(C, k)
            if exact:
                break
    else:
        return False
    if k % p == 0 or m >= _SMALL_CUBE:
        for q, n in factorize(C, rho_budget=_RHO_BUDGET).items():
            if _c_ell_divisible(model, q, n, inv, p):
                return True
    return False


# ---------------------------------------------------------------------------
# sampling


def sample_tuple(rng: random.Random, height: int) -> WeierstrassModel:
    """One uniform draw from the height box |a_i| < H^i."""
    return next(_sampler(rng, height))


def _sampler(rng: random.Random, height: int):
    """Uniform draws from the height box |a_i| < H^i, without end.

    Each a_i is rng.randrange(1 - H^i, H^i) drawn as random.Random draws it
    (_randbelow_with_getrandbits): getrandbits(k) with k the bit length of
    the width, redrawn until it falls below the width.  So the models, and
    the state rng is left in, are those of five randrange calls per draw,
    while the bounds are worked out once per sampler.  The five draws are
    written out, and the model built by tuple.__new__, so that a draw builds
    no list and calls no Python-level __new__.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    (l1, n1), (l2, n2), (l3, n3), (l4, n4), (l6, n6) = _box(height)
    k1, k2, k3, k4, k6 = (n.bit_length() for n in (n1, n2, n3, n4, n6))
    getrandbits = rng.getrandbits
    new = tuple.__new__
    while True:
        r1 = getrandbits(k1)
        while r1 >= n1:
            r1 = getrandbits(k1)
        r2 = getrandbits(k2)
        while r2 >= n2:
            r2 = getrandbits(k2)
        r3 = getrandbits(k3)
        while r3 >= n3:
            r3 = getrandbits(k3)
        r4 = getrandbits(k4)
        while r4 >= n4:
            r4 = getrandbits(k4)
        r6 = getrandbits(k6)
        while r6 >= n6:
            r6 = getrandbits(k6)
        yield new(WeierstrassModel, (l1 + r1, l2 + r2, l3 + r3, l4 + r4, l6 + r6))


def exhaustive_box_size(height: int) -> int:
    return prod(n for _, n in _box(height))


def _chunk_rng(seed: int, chunk_index: int) -> random.Random:
    digest = hashlib.sha256(f"ellstat:{seed}:{chunk_index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


@dataclass(frozen=True)
class SampleSpec:
    height: int
    p: int
    count: int = 0
    exhaustive: bool = False
    seed: int = 0
    chunk_size: int = 65536
    z: float = 4.0
    wilson: bool = False

    def __post_init__(self):
        if not 1 <= self.height <= 10**6:
            raise InputError("height must lie in [1, 10^6]")
        _require_point_count_prime(self.p)
        if not 0 <= self.seed < 1 << 64:
            raise InputError("seed must be a 64-bit integer")
        if self.chunk_size < 1:
            raise InputError("chunk size must be positive")
        if not 0 < self.z < inf:
            raise InputError("z must be positive and finite")
        if self.exhaustive:
            if exhaustive_box_size(self.height) > 10**7:
                raise InputError("exhaustive box exceeds 10^7 tuples")
        elif self.count < 1:
            raise InputError("sample count must be positive")

    @property
    def total(self) -> int:
        return exhaustive_box_size(self.height) if self.exhaustive else self.count


def _iter_chunk(spec: SampleSpec, index: int):
    """The models of one chunk, independent of every other chunk."""
    lo = index * spec.chunk_size
    hi = min(lo + spec.chunk_size, spec.total)
    if spec.exhaustive:
        # mixed radix, a6 the fastest digit
        box = _box(spec.height)[::-1]
        for idx in range(lo, hi):
            rem = idx
            a = []
            for low, n in box:
                rem, digit = divmod(rem, n)
                a.append(low + digit)
            yield WeierstrassModel(*reversed(a))
    else:
        yield from islice(_sampler(_chunk_rng(spec.seed, index), spec.height), hi - lo)


_FLAG_ORDER = ("singular", "bad_at_p", "tamagawa_divisible", "anomalous_good", "unclassified")
# the estimated cost of one sample of _count_chunk, for the worker plan of
# _run_chunks.  Median of 5 chunks of 3000 draws (2 vCPUs, Python 3.11):
# 20 to 24 us at H = 10^3, 30 at 5 * 10^4 and 32 to 34 at 10^6, for p = 3
# and 7.  The low end is taken.
_CLASSIFY_US = 20


def _count_chunk(spec: SampleSpec, index: int) -> dict[str, int]:
    singular = bad = tam = anom = uncl = 0
    for flags in _classify_chunk(_iter_chunk(spec, index), spec.p):
        if flags.singular:
            singular += 1
            continue
        if flags.unclassified:
            uncl += 1
            continue
        bad += flags.bad_at_p
        tam += flags.tamagawa_divisible
        anom += flags.anomalous_good
    return dict(zip(_FLAG_ORDER, (singular, bad, tam, anom, uncl)))


# the estimated cost of one draw of _kodaira_chunk, as _CLASSIFY_US: with a
# residue table (ell <= 5) 3.6 to 6.1 us, and with a Tate run on every draw
# (ell = 7 and 11) 6.9 to 8.9 us, at H = 10^3 to 10^6 (chunks of 5000)
_KODAIRA_TABLE_US = 4
_KODAIRA_TATE_US = 7


def _kodaira_chunk(spec: SampleSpec, ell: int, index: int) -> dict[str, int]:
    """Kodaira label -> count over the models of one chunk, "singular" for
    a singular model; ell is prime.

    For ell <= 5 one lookup in _type_table(ell) types most draws without
    computing an invariant; localdata._residue_type says why its labels
    hold for every lift and never for a singular model.  Every other model
    gets a Tate run, which raises on a singular one.
    """
    m, table = _type_table(ell) or (1, ())
    # draws per table entry, added to their labels once per chunk
    tally = [0] * len(table)
    out: dict[str, int] = {}
    for model in _iter_chunk(spec, index):
        if table:
            i = _residue_index(model, m)
            if table[i] is not None:
                tally[i] += 1
                continue
        # a Tate run computes the invariants once and raises on a singular
        # model; its types are shared and keep their labels, so a label is
        # computed once per type, not once per model
        try:
            key = _tate_run(model, ell)[1].kodaira.label
        except SingularCurveError:
            key = "singular"
        out[key] = out.get(key, 0) + 1
    for label, n in zip(table, tally):
        if n:
            out[label] = out.get(label, 0) + n
    return out


def _sum_counts(parts) -> dict[str, int]:
    counts: dict[str, int] = {}
    for part in parts:
        for k, v in part.items():
            counts[k] = counts.get(k, 0) + v
    return counts


def _require_threads(threads: int) -> None:
    if threads < 1:
        raise InputError(f"worker count must be a positive integer, got {threads}")


# the estimated work, in us on one worker, that pays for each worker of a
# call: k workers run only if the call's work is at least k * _FORK_US.  A
# forked worker costs the fork, the copy-on-write faults on both sides, a
# pipe, a pickle and a waitpid: a _fork_join of 4 empty chunks takes 2.4 ms
# on two workers (2.9 pinned) against 0.02 ms on one.  Medians of 25
# interleaved in-process cli.main calls in 4 chunks (2 vCPUs, Python 3.11)
# break even at 8 to 10 ms on one worker, about 1 ms of it the call's own
# fixed cost, for every chunk function:
#   --kodaira-at 2, H = 5 * 10^4, 1000 / 2000 / 4000 draws:
#     5.9 / 10.6 / 18.5 ms on one worker, 7.2 / 10.0 / 13.5 ms on two
#   --kodaira-at 7, H = 10^3, 500 / 1000 / 2000 draws:
#     4.2 / 8.0 / 15.4 ms on one worker, 5.4 / 7.6 / 11.5 ms on two
#   classify, H = 10^3, 128 / 256 / 512 samples:
#     3.7 / 6.4 / 12.9 ms on one worker, 6.1 / 7.3 / 10.5 ms on two
_FORK_US = 5000


def _run_chunks(spec: SampleSpec, chunk_fn, threads: int, sample_us: int) -> dict[str, int]:
    """Sum the per-chunk counts chunk_fn(index) over every chunk of spec;
    threads >= 1, and sample_us is the estimated cost of one sample of
    chunk_fn in microseconds.

    The worker plan is decided here and nowhere else.  The CPUs this
    process may run on are its affinity set, or os.cpu_count() where that
    set is unknown; a cgroup CPU quota is not seen.  k = min(threads,
    chunks, CPUs, max(1, W // _FORK_US)) processes share the chunks: this
    one and k - 1 forked children.  W = spec.total * sample_us is the
    estimated work of the call, so each worker is given at least _FORK_US
    of it, about what forking one costs.  k is 1 where os.fork is missing,
    and with k = 1 every chunk runs here and nothing is started.

    The workers are pinned one per CPU of the set exactly when k > 1 is the
    set's size: every CPU is then busy anyway.  A larger set (several runs
    at once, or a CPU quota on a large host) would put every run on the
    same lowest CPUs, where the scheduler could have spread them out.

    Sums do not depend on which process ran which chunk, so the result is
    the same for every worker count.
    """
    n_chunks = -(-spec.total // spec.chunk_size)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    k = min(threads, n_chunks, len(cpus) or os.cpu_count() or 1,
            max(1, spec.total * sample_us // _FORK_US)) if hasattr(os, "fork") else 1
    return _sum_counts(_fork_join(chunk_fn, n_chunks, k, cpus if 1 < k == len(cpus) else []))


def _fork_join(chunk_fn, n_chunks: int, k: int, cpus: list[int]) -> list[dict[str, int]]:
    """Worker w of k sums chunks w, w + k, w + 2k, ...  Worker 0 is this
    process, so the caches its chunks fill stay here; workers 1 to k - 1 are
    forked children.

    cpus is empty, or holds one CPU per worker: then worker w runs on
    cpus[w] (see _pin).  Left to itself the scheduler may keep a forked
    child on its parent's CPU, and two workers then run no faster than one.
    This process gets the affinity set cpus back before it reaps.

    Each child sends its sum, pickled, through its own pipe.  Every child
    is reaped before this returns or raises; children still running when
    this process fails (its own chunk raising, an interrupt, a failed fork)
    are killed first.  A child's exception is re-raised here, and a child
    that ends without a result raises RuntimeError.
    """
    children = []  # (pid, read end of its pipe)
    replies: list[bytes] = []
    try:
        for w in range(1, k):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wr)
                raise
            if pid == 0:
                os.close(r)
                _child(wr, chunk_fn, range(w, n_chunks, k), cpus[w : w + 1])
            os.close(wr)
            children.append((pid, open(r, "rb")))
        _pin(cpus[:1])
        own = _sum_counts(map(chunk_fn, range(0, n_chunks, k)))
        for _, pipe in children:
            replies.append(pipe.read())
    finally:
        _pin(cpus)
        statuses = []
        for pid, pipe in children:
            pipe.close()
            if len(replies) < len(children):
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    parts = [own]
    for (pid, _), data, status in zip(children, replies, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            how = f"by signal {-code}" if code < 0 else f"with exit code {code}"
            raise RuntimeError(f"chunk worker {pid} ended {how} without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        parts.append(value)
    return parts


def _pin(cpus: list[int]) -> None:
    """Set the calling thread's affinity to cpus, unless there are none.
    Pinning only moves work and never changes a sum, so a refusal (OSError)
    is ignored."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def _child(wr: int, chunk_fn, indices, cpus: list[int]) -> NoReturn:
    """Body of a forked worker: pin itself to cpus (see _pin), sum its
    chunks, write (ok, sum or exception) to wr and leave by os._exit, so
    that the parent's stdio buffers and exit hooks never run here.  It exits
    0 only once the reply is written."""
    code = 1
    try:
        _pin(cpus)
        try:
            reply = (True, _sum_counts(map(chunk_fn, indices)))
        except Exception as exc:
            reply = (False, exc)
        with open(wr, "wb") as f:
            f.write(pickle.dumps(reply))
        code = 0
    finally:
        os._exit(code)


def _normal_ci(count: int, n: int, z: float) -> tuple[float, float]:
    phat = count / n
    half = z * sqrt(phat * (1 - phat) / n)
    return (phat - half, phat + half)


def _wilson_ci(count: int, n: int, z: float) -> tuple[float, float]:
    phat = count / n
    denom = 1 + z * z / n
    centre = (phat + z * z / (2 * n)) / denom
    half = z * sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (centre - half, centre + half)


@dataclass(frozen=True)
class ReportRow:
    flag: str
    count: int
    n: int
    proportion: float
    ci_lo: float
    ci_hi: float
    theory_lo: float | None = None
    theory_hi: float | None = None
    z: float | None = None


def _build_rows(spec: SampleSpec, entries) -> tuple[ReportRow, ...]:
    """One row per (label, count, certified theory value or None).

    Each row carries the proportion over the whole run, its normal or
    Wilson interval at spec.z and, where theory is given, the enclosure
    and a z-score against its midpoint.
    """
    n = spec.total
    ci_fn = _wilson_ci if spec.wilson else _normal_ci
    rows = []
    for label, cnt, cert in entries:
        phat = cnt / n
        lo, hi = ci_fn(cnt, n, spec.z)
        tlo = thi = zscore = None
        if cert is not None:
            tlo, thi = float(cert.lo), float(cert.hi)
            mid = float(cert.midpoint)
            if 0 < mid < 1:
                zscore = (phat - mid) / sqrt(mid * (1 - mid) / n)
        rows.append(ReportRow(label, cnt, n, phat, lo, hi, tlo, thi, zscore))
    return tuple(rows)


def _json_row(r: ReportRow) -> dict:
    """The JSON keys every report row has; each report adds its label key."""
    return {
        "count": r.count,
        "proportion": r.proportion,
        "ci": [r.ci_lo, r.ci_hi],
        "theory": None if r.theory_lo is None else [r.theory_lo, r.theory_hi],
        "z": r.z,
    }


@dataclass(frozen=True)
class _Report:
    """Counts of one run and their rows, in one CSV schema.

    Subclasses supply the CSV metadata header (_metadata) and the JSON form.
    """

    spec: SampleSpec
    counts: dict = field(compare=False)
    rows: tuple[ReportRow, ...] = ()

    def row(self, flag: str) -> ReportRow:
        for r in self.rows:
            if r.flag == flag:
                return r
        raise KeyError(flag)

    def to_csv(self) -> str:
        buf = io.StringIO()
        for k, v in self._metadata():
            buf.write(f"# {k}={v}\r\n")
        w = csv.writer(buf)
        w.writerow(
            ["flag", "count", "N", "proportion", "ci_lo", "ci_hi", "theory_lo", "theory_hi", "z"]
        )
        for r in self.rows:
            w.writerow(
                [
                    r.flag,
                    r.count,
                    r.n,
                    repr(r.proportion),
                    repr(r.ci_lo),
                    repr(r.ci_hi),
                    "" if r.theory_lo is None else repr(r.theory_lo),
                    "" if r.theory_hi is None else repr(r.theory_hi),
                    "" if r.z is None else repr(r.z),
                ]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class EmpiricalReport(_Report):
    @property
    def valid(self) -> bool:
        return self.counts["unclassified"] <= 0.001 * self.spec.total

    def _metadata(self) -> list[tuple[str, str]]:
        s = self.spec
        return [
            ("seed", str(s.seed)),
            ("height", str(s.height)),
            ("n", str(s.total)),
            ("p", str(s.p)),
            ("mode", "exhaustive" if s.exhaustive else "sample"),
            ("chunk_size", str(s.chunk_size)),
            ("version", __version__),
        ]

    def to_json_dict(self) -> dict:
        return {
            "meta": dict(self._metadata()),
            "rows": [{"flag": r.flag, "N": r.n, **_json_row(r)} for r in self.rows],
            "valid": self.valid,
        }


def estimate(
    spec: SampleSpec,
    theory: dict[str, CertifiedValue] | None = None,
    threads: int = 1,
) -> EmpiricalReport:
    """Classify the sample (or the whole box) and report proportions.

    theory maps flag names to certified values; rows carry the enclosure
    and a z-score against its midpoint.  threads is the worker count (see
    _run_chunks); the report depends only on (spec, theory), never on it.
    """
    _require_threads(threads)
    # built here, so that forked workers inherit it
    _type_table(2)
    counts = _run_chunks(spec, partial(_count_chunk, spec), threads, _CLASSIFY_US)
    theory = theory or {}
    rows = _build_rows(spec, [(flag, counts[flag], theory.get(flag)) for flag in _FLAG_ORDER])
    return EmpiricalReport(spec, counts, rows)


# ---------------------------------------------------------------------------
# Kodaira-type frequencies at a fixed prime


@dataclass(frozen=True)
class KodairaFrequencyReport(_Report):
    ell: int = field(kw_only=True)

    def _metadata(self) -> list[tuple[str, str]]:
        s = self.spec
        return [
            ("seed", str(s.seed)),
            ("height", str(s.height)),
            ("n", str(s.total)),
            ("ell", str(self.ell)),
            ("mode", "exhaustive" if s.exhaustive else "sample"),
            ("version", __version__),
        ]

    def to_json_dict(self) -> dict:
        return {
            "meta": {"seed": self.spec.seed, "height": self.spec.height,
                     "n": self.spec.total, "ell": self.ell},
            "rows": [{"label": r.flag, **_json_row(r)} for r in self.rows],
        }


def kodaira_frequency(spec: SampleSpec, ell: int, threads: int = 1) -> KodairaFrequencyReport:
    """Empirical Kodaira-type distribution at ell, against the local table.

    Individual I_n types are compared with their exact densities; the I_n*
    family only has an aggregate table value, reported on the "I*n:>=1"
    row.  threads is as in estimate, and is checked before ell.
    """
    _require_threads(threads)
    if not is_prime(ell):
        raise InputError(f"{ell} is not prime")
    # built here, so that forked workers inherit it
    sample_us = _KODAIRA_TABLE_US if _type_table(ell) else _KODAIRA_TATE_US
    counts = _run_chunks(spec, partial(_kodaira_chunk, spec, ell), threads, sample_us)
    entries = []
    for label in sorted(counts):
        table = label != "singular" and not label.startswith("I*n:")
        theory = CertifiedValue.exact(rho(parse_kodaira(label), ell)) if table else None
        entries.append((label, counts[label], theory))
    instar_total = sum(c for label, c in counts.items() if label.startswith("I*n:"))
    if instar_total:
        entries.append(("I*n:>=1", instar_total, CertifiedValue.exact(rho_Instar_ge1(ell))))
    return KodairaFrequencyReport(spec, counts, _build_rows(spec, entries), ell=ell)
