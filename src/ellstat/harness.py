"""Height-ordered sampling, classification and empirical density reports.

Sampling draws each coefficient uniformly from |a_i| < H^i; exhaustive mode
walks the whole box.  A draw calls rng.getrandbits with the rejection loop
of random.Random.randrange, so a seed gives the stream of five randrange
calls per sample, while the bounds are worked out once per chunk.  Work is
split into fixed-size chunks whose RNG streams are derived from (master
seed, chunk index).  Each draw is classified to one joint index, its place
in _FLAGS, the ten reachable combinations of flags; a chunk tallies those
indices (collections.Counter, in C), and estimate derives its five counts
and its rows from the summed joint table in one place.  Each worker sums
the tables of one contiguous block of chunks, and the block sums are
summed in block order, which is the sum in chunk order, so reports, key
order included, are bit-identical for a given (seed, chunk size) whatever
the worker count.  Workers are forked (os.fork), so call with more than
one worker only from a single-threaded process.  A call forks only the
workers its estimated work pays for, at a measured cost per fork, so a
short call runs in one process however many workers it asks for.

Classification at p decides S_p by one rule: p | c_ell needs ell^3 | Delta
(at ell | c4 Ogg's formula gives c_ell < v_ell(Delta), and Tate runs only
where v_ell(Delta) > p; elsewhere ell is split I_v with p | v).  Primes
below 10^4 come out of a gcd with their product, the primorial, reduced
once modulo the product of 8 discriminants at a time, and those dividing
Delta three times are split off; above it only gcd(Delta, c4) is factored,
and the multiplicative rest matters only through a prime of multiplicity
>= 3, which a perfect-power test finds (one residue sieve rejects almost
every non-power before a root is taken).  The one unverified case is a
rest q^3 * r that is not a perfect power, treated as absent.  Its share of
a height box is bounded: fix a1..a4; then 1728 Delta = c4^3 - c6^2 with
c6 = kappa - 864 a6, so for a prime q prime to 6 c4 (a q | c4 is in
gcd(Delta, c4), which is factored), q^3 | Delta holds on at most 2 classes
of a6 mod q^3, that is for at most 2 ceil(N / q^3) of the N = 2 H^6 - 1
values of a6.  A union over the primes 10^4 < q <= Delta_max^(1/3), with
Delta_max <= 1714 H^12 (Delta has weight 12 in a1..a6, and its
coefficients' absolute values sum to 1714) and pi(x) < 1.25506 x / ln x
(Rosser and Schoenfeld, 1962), bounds the share of the box where some such
q^3 divides Delta by
  eps(H) = sum_{q > 10^4} 2 / q^3 + 2 pi(Delta_max^(1/3)) / N,
which is at most 7.2e-5 at H = 10^2, 5.0e-7 at 10^3, 5.0e-9 at 10^4 and
1.2e-9 at 10^6.  For H <= 10 the share is 0: Delta_max < 10^16, and r > 1
would have a prime above 10^4, so the rest is the cube q^3, which the
perfect-power test finds.
Samples that genuinely need a factorisation that exceeds its budget land in
an explicit "unclassified" bucket; a run is valid while that bucket stays
under 0.1%.

Kodaira types at a fixed ell (kodaira_frequency) are looked up, where they
can be, in the residue tables of localdata._type_table, which says which
residues decide which type.  Every other draw is typed by
localdata._kodaira_label from its invariants: I0 where ell is prime to Delta,
I_v with v = v_ell(Delta) where ell is prime to c4, and a Tate run only where
ell divides c4.  classify reads the table at 2 to skip the Tate runs that
cannot give p | c_2.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import signal
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import islice
from math import gcd, inf, prod, sqrt
from typing import NamedTuple, NoReturn

from . import __version__
from .arith import (FactorBudgetExceeded, InputError, _perfect_power, _primorial, _small_primes,
                    factorize, is_prime, require_odd_prime, valuation)
from .curves import Invariants, WeierstrassModel, _box, _json_text, compute_invariants
from .density import CertifiedValue, rho, rho_Instar_ge1
from .finitefield import _p_divides_order, _require_point_count_prime
from .kodaira import parse_kodaira
from .localdata import (_good_invariants, _kodaira_label, _residue_index, _split_multiplicative,
                        _tate_run, _type_table)

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


# the reachable flags, indexed by what _classify_chunk yields: 0 for a
# singular model, and 1 + a + 3 b for a nonsingular one, with a = 0, 1, 2
# for neither, bad_at_p and anomalous_good (bad_at_p needs p | Delta and
# anomalous_good p prime to it) and b = 0, 1, 2 for S_p decided no, decided
# yes and unclassified
_FLAGS = (ClassificationFlags(True, False, False, False),
          *(ClassificationFlags(False, a == 1, b == 1, a == 2, b == 2)
            for b in range(3) for a in range(3)))


def classify(model: WeierstrassModel, p: int) -> ClassificationFlags:
    """Membership flags in S_p (some p | c_ell), S_p' (good anomalous) and
    S_p'' (bad reduction at p) for one integral tuple.

    S_p'' is decided on the p-minimal model; S_p' uses the discriminant of
    the given equation, per its literal definition.

    S_p misses the one case assumed absent: a rest q^3 * r above 10^4 that
    is not a perfect power.  A caller can meet it: y^2 + xy = x^3 + q^3,
    q = 10007, is split I3 at q with c_q = 3, so it lies in S_3, yet
    classify(model, 3).tamagawa_divisible is False.
    """
    return _FLAGS[next(_classify_chunk((model,), p))]


def _classify_chunk(models, p: int):
    """The index into _FLAGS of classify(model, p) for each model of the
    iterable, in order.

    Models are read _BLOCK at a time, never all at once.  The primorial is
    reduced once per batch, modulo the product of the batch's C = |Delta|
    with p divided out, built as the batch is read; each C divides that
    product, so its gcd with the remainder is its gcd with the primorial.
    """
    require_odd_prime(p)
    models = iter(models)
    while batch := list(islice(models, _BLOCK)):
        # (model, invariants, C, index so far) of each nonsingular model;
        # None for a singular one
        rows = []
        product_of_c = 1
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
            # 1 + a, a as in _FLAGS: with p | Delta, S_p'' is bad reduction
            # at p on the p-minimal model; with p prime to the given
            # discriminant, S_p' is a rational p-torsion point on the
            # reduction, i.e. p | #E(F_p)
            i = (1 + (_good_invariants(model, inv, p, vp) is None) if vp
                 else 3 if _p_divides_order(p, inv.b2, inv.b4, inv.b6) else 1)
            rows.append((model, inv, C, i))
            product_of_c *= C
        r = _primorial() % product_of_c
        for row in rows:
            if row is None:
                yield 0
                continue
            model, inv, C, i = row
            try:
                if _tamagawa_divisible(model, C, gcd(C, r), inv, p):
                    i += 3
            except FactorBudgetExceeded:
                i += 6
            yield i


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

    p | c_ell needs ell^3 | Delta.  Where ell | c4, Ogg's formula gives
    c_ell <= v(Delta_min) - 1, and a non-minimal model has v_ell(Delta) >=
    v(Delta_min) + 12, so _c_ell_divisible is False for v_ell(Delta) <= p,
    as for any v_ell(Delta) <= 2.  Where ell is prime to c4, c_ell =
    v_ell(Delta) at a split ell and c_ell <= 2 otherwise.  So of the primes
    below the trial bound only those of cubed are tested.  The rest above it
    is tested only if it is a perfect power, which misses a rest q^3 * r
    that is not one: its share of the box is at most eps(H) =
    sum_{q > 10^4} 2 / q^3 + 2 pi(1714^(1/3) H^4) / (2 H^6 - 1), and 0 for
    H <= 10 (the module docstring gives the argument and the figures).
    Budget-free tests run first, so FactorBudgetExceeded means none of them
    found a divisible c_ell.
    """
    # primes below the trial bound: cubed holds those dividing C at least
    # three times.  Three factors of each are stripped at once, then the
    # rest of each, split off cubed by trial division, giving its v
    C //= s
    s2 = gcd(C, s)
    C //= s2
    if (cubed := gcd(C, s2)) > 1:
        C //= cubed
        primes = iter(_small_primes())
        while cubed > 1:
            ell = next(primes)
            if ell * ell > cubed:
                ell = cubed  # what is left of the squarefree cubed is a prime
            if cubed % ell == 0:
                cubed //= ell
                v = 3
                while C % ell == 0:
                    C //= ell
                    v += 1
                if _c_ell_divisible(model, ell, v, inv, p):
                    return True

    # primes above the trial bound: the additive (or non-minimal) ones
    # divide c4, and gcd(C, 0) = C
    big_additive = gcd(C, inv.c4)
    if big_additive > 1:
        for q in factorize(big_additive, rho_budget=_RHO_BUDGET):
            v = valuation(C, q)
            C //= q**v
            if _c_ell_divisible(model, q, v, inv, p):
                return True
    # the only way left for some multiplicity to reach 3 (short of the
    # assumed-absent q^3 * r event) is C itself being a perfect power
    if C <= 1 or _perfect_power(C) is None:
        return False
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
            if self.count:
                raise InputError("an exhaustive run takes no sample count")
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
# flag -> the _FLAGS indices it counts.  An unclassified sample is counted
# only in "unclassified": its bad_at_p and anomalous_good are dropped,
# although every row's N is the run size (spec.total)
_FLAG_INDICES = [(flag, [i for i, f in enumerate(_FLAGS) if getattr(f, flag)
                         and f.unclassified == (flag == "unclassified")]) for flag in _FLAG_ORDER]
# the estimated cost of one sample of _count_chunk, for the worker plan of
# _run_chunks.  Median of 5 chunks of 3000 draws (2 vCPUs, Python 3.11):
# 11 to 12 us at H = 10^3, 14 at 5 * 10^4 and 16 to 17 at 10^6, for p = 3
# and 7.  The low end is taken.  Re-measured on the joint-index loop, with
# the five-counter loop before it alternating in the same session on a
# machine then about 30% slower: 4 to 10% below it at every height and p.
# The fork break-even below did not pass 910 samples, so 11 stays.
_CLASSIFY_US = 11


def _count_chunk(spec: SampleSpec, index: int) -> Counter:
    """The joint table of one chunk: _FLAGS index -> count over its samples."""
    return Counter(_classify_chunk(_iter_chunk(spec, index), spec.p))


# the estimated cost of one draw of _kodaira_chunk, as _CLASSIFY_US: with a
# residue table (ell <= 5) 3.4 to 5.3 us, and without one (ell = 7 and 11,
# every draw typed by localdata._kodaira_label) 4.9 to 6.0 us, at H = 10^3
# to 10^6 (median of 5 chunks of 5000).  The low end is taken
_KODAIRA_TABLE_US = 3
_KODAIRA_TATE_US = 5


def _kodaira_chunk(spec: SampleSpec, ell: int, index: int) -> dict[str, int]:
    """Kodaira label -> count over the models of one chunk, "singular" for
    a singular model; ell is prime.  Labels come in the order the chunk
    first meets them.

    For ell <= 5 the label of most draws is read from the residue table
    _type_table(ell), at the _residue_index of the draw's a_i mod m, without
    computing an invariant; localdata._residue_type says why its labels
    hold for every lift and never for a singular model.  A draw whose entry
    is None, and every draw above ell = 5, where there is no table, is
    typed by localdata._kodaira_label, which computes its invariants once
    and runs Tate only on a model with ell | c4: at 2, the draws with c4
    even that the table leaves open, about 3% of all draws at H = 10^3 to
    10^6.
    """
    m, labels = _type_table(ell) or (1, ())
    out: dict[str, int] = {}
    for model in _iter_chunk(spec, index):
        key = labels and labels[_residue_index(model, m)] or _kodaira_label(model, ell)
        out[key] = out.get(key, 0) + 1
    return out


def _sum_counts(parts) -> dict:
    counts = {}
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
# on two workers (2.9 pinned) against 0.02 ms on one.  Medians of
# interleaved in-process cli.main calls in 4 chunks (2 vCPUs, Python 3.11,
# _FORK_US forced to 1 for two workers) break even at 8 to 11 ms on one
# worker, about 1 ms of it the call's own fixed cost, for every chunk
# function:
#   classify, H = 10^3, 512 / 768 / 1024 / 2048 samples, 61 calls each:
#     6.2 / 9.1 / 11.9 / 23.5 ms on one worker, 7.6 / 8.9 / 11.2 / 18.2 ms on two
#   --kodaira-at 2, H = 5 * 10^4, 1500 / 2000 / 2500 / 3000 / 3500 draws,
#   183 calls each:
#     5.6 / 7.3 / 9.1 / 10.7 / 12.6 ms on one worker,
#     6.9 / 7.6 / 8.2 / 9.2 / 10.3 ms on two, which won 19 / 67 / 106 / 116 / 130
#   --kodaira-at 7, H = 10^3, the same draws and calls:
#     6.4 / 8.4 / 10.5 / 12.6 / 14.6 ms on one worker,
#     7.3 / 7.7 / 8.8 / 9.8 / 11.0 ms on two, which won 63 / 114 / 128 / 158 / 162
# The classify row re-measured on the joint-index loop, on a machine then
# about 30% slower (one worker's samples cost more against a fork):
#     8.4 / 13.0 / 17.3 / 32.6 ms on one worker (512 / 768 / 1024 / 2048),
#     9.2 / 11.8 / 13.7 / 22.2 ms on two, which won 12 / 33 / 43 / 58 of 61
# For classify that is 770 to 900 samples (600 to 770 in the re-measure;
# the plan forks from 910), at ell = 2 2000 to 2500 draws and at ell = 7
# 1500 to 2000; the Kodaira plans fork from 3334 draws at ell <= 5 and from
# 2000 above, as the low end of the cost of a draw is taken.
_FORK_US = 5000


def _run_chunks(spec: SampleSpec, chunk_fn, threads: int, sample_us: int) -> dict:
    """Sum the per-chunk counts chunk_fn(index) over every chunk of spec, in
    chunk order (see _fork_join), so the sum, key order included, is the
    same for every worker count.  threads >= 1, and sample_us is the
    estimated cost of one sample of chunk_fn in us.

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
    """
    n_chunks = -(-spec.total // spec.chunk_size)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    k = min(threads, n_chunks, len(cpus) or os.cpu_count() or 1,
            max(1, spec.total * sample_us // _FORK_US)) if hasattr(os, "fork") else 1
    return _fork_join(chunk_fn, n_chunks, k, cpus if 1 < k == len(cpus) else [])


def _fork_join(chunk_fn, n_chunks: int, k: int, cpus: list[int]) -> dict:
    """_sum_counts(map(chunk_fn, range(n_chunks))) on k workers.  Worker w
    runs the block of chunks from ceil(w n_chunks / k) to ceil((w + 1)
    n_chunks / k) and folds each chunk's counts as the chunk ends, so no
    list of them is held; the k block sums are then folded in block order.
    That is the same dict, key order included, as the fold of every chunk
    in order: each block adds its new keys after those of the blocks before
    it.  Worker 0 is this process, so the caches its chunks fill stay here;
    1 to k - 1 are forked children, and with k = 1 nothing is started.

    cpus is empty, or holds one CPU per worker: then worker w runs on
    cpus[w] (see _pin).  Left to itself the scheduler may keep a forked
    child on its parent's CPU, and two workers then run no faster than one.
    This process gets the affinity set cpus back before it reaps.

    Each child pickles its one block sum into its own pipe.  Every child is
    reaped before this returns or raises; children still running when this
    process fails (its own chunk raising, an interrupt, a failed fork) are
    killed first.  A child's exception is re-raised here, and a child that
    ends without a result raises RuntimeError.
    """
    bounds = [-(-w * n_chunks // k) for w in range(k + 1)]  # block w: bounds[w] to bounds[w + 1]
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
                _child(wr, chunk_fn, range(bounds[w], bounds[w + 1]), cpus[w : w + 1])
            os.close(wr)
            children.append((pid, open(r, "rb")))
        _pin(cpus[:1])
        sums = [_sum_counts(map(chunk_fn, range(bounds[1])))]
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
    for (pid, _), data, status in zip(children, replies, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            how = f"by signal {-code}" if code < 0 else f"with exit code {code}"
            raise RuntimeError(f"chunk worker {pid} ended {how} without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        sums.append(value)
    return _sum_counts(sums)


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
    """Body of a forked worker: pin itself to cpus (see _pin), run its
    chunks, write (ok, the in-order fold of their counts, or exception) to
    wr and leave by os._exit, so that the parent's stdio buffers and exit
    hooks never run here.  It exits 0 only once the reply is written."""
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


# a NamedTuple, like localdata.LocalData: a call builds one per label, and a
# tuple is the cheapest immutable record to build
class ReportRow(NamedTuple):
    flag: str
    count: int
    n: int
    proportion: float
    ci_lo: float
    ci_hi: float
    theory_lo: float | None = None
    theory_hi: float | None = None
    z: float | None = None


def _theory_floats(cert: CertifiedValue | None) -> tuple[float, float, float] | None:
    """(lo, hi, midpoint) of a certified theory value as floats, the
    midpoint rounded once from its exact value; None for None."""
    if cert is None:
        return None
    return float(cert.lo), float(cert.hi), float(cert.midpoint)


def _build_rows(spec: SampleSpec, entries) -> tuple[ReportRow, ...]:
    """One row per (label, count, theory value as _theory_floats or None).

    Each row carries the proportion over the whole run, its normal or
    Wilson interval at spec.z and, where theory is given, the enclosure
    and a z-score against its midpoint.
    """
    n = spec.total
    ci_fn = _wilson_ci if spec.wilson else _normal_ci
    rows = []
    for label, cnt, theory in entries:
        phat = cnt / n
        lo, hi = ci_fn(cnt, n, spec.z)
        tlo = thi = zscore = None
        if theory is not None:
            tlo, thi, mid = theory
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
        """The metadata as "# key=value" lines, the header and one line per
        row, each ended by CRLF, with the floats as repr and None as an empty
        field.
        No label or number holds a comma, a quote or a line break, so these
        are the bytes csv.writer writes, without its per-field scan."""
        lines = [f"# {k}={v}" for k, v in self._metadata()]
        lines.append("flag,count,N,proportion,ci_lo,ci_hi,theory_lo,theory_hi,z")
        for flag, count, n, *floats in self.rows:
            lines.append(",".join([flag, str(count), str(n),
                                   *["" if x is None else repr(x) for x in floats]]))
        lines.append("")
        return "\r\n".join(lines)

    def to_json(self) -> str:
        return _json_text(self.to_json_dict())


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
    joint = _run_chunks(spec, partial(_count_chunk, spec), threads, _CLASSIFY_US)
    counts = {flag: sum(joint.get(i, 0) for i in indices) for flag, indices in _FLAG_INDICES}
    theory = theory or {}
    rows = _build_rows(spec, [(flag, counts[flag], _theory_floats(theory.get(flag)))
                              for flag in _FLAG_ORDER])
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


@lru_cache(maxsize=256)
def _kodaira_theory(label: str, ell: int) -> tuple[float, float, float] | None:
    """The exact density at ell on the kodaira_frequency row of label, as
    _theory_floats gives it: rho of its type, the aggregate rho_Instar_ge1
    on "I*n:>=1", and None on "singular" and on each I_n* row, which has no
    table value of its own.  Bounded, as labels I_n and I_n* have no bound
    on n; a call reads each of its rows' floats from here."""
    if label == "I*n:>=1":
        return _theory_floats(CertifiedValue.exact(rho_Instar_ge1(ell)))
    if label == "singular" or label.startswith("I*n:"):
        return None
    return _theory_floats(CertifiedValue.exact(rho(parse_kodaira(label), ell)))


def kodaira_frequency(spec: SampleSpec, ell: int, threads: int = 1) -> KodairaFrequencyReport:
    """Empirical Kodaira-type distribution at ell, against the local table.

    Individual I_n types are compared with their exact densities; the I_n*
    family only has an aggregate table value, reported on the "I*n:>=1"
    row.  threads is as in estimate, and is checked before ell.
    """
    _require_threads(threads)
    if not is_prime(ell):
        raise InputError(f"{ell} is not prime")
    # the residue table, or None above _TYPE_TABLE_MAX_ELL, sets the cost of
    # a draw; reading it here builds it before any fork, so forked workers
    # inherit it
    sample_us = _KODAIRA_TABLE_US if _type_table(ell) else _KODAIRA_TATE_US
    counts = _run_chunks(spec, partial(_kodaira_chunk, spec, ell), threads, sample_us)
    entries = [(label, counts[label], _kodaira_theory(label, ell)) for label in sorted(counts)]
    instar_total = sum(c for label, c in counts.items() if label.startswith("I*n:"))
    if instar_total:
        entries.append(("I*n:>=1", instar_total, _kodaira_theory("I*n:>=1", ell)))
    return KodairaFrequencyReport(spec, counts, _build_rows(spec, entries), ell=ell)
