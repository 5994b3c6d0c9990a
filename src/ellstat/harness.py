"""Height-ordered sampling, classification and empirical density reports.

Sampling draws each coefficient uniformly from |a_i| < H^i; exhaustive mode
walks the whole box.  A draw calls rng.getrandbits with the rejection loop
of random.Random.randrange, so a seed gives the stream of five randrange
calls per sample, while the bounds are worked out once per chunk.  Work is
split into fixed-size chunks whose RNG streams are derived from (master
seed, chunk index), so reports are bit-identical for a given (seed, chunk
size) no matter how many worker processes run the chunks.  Workers are
forked (os.fork), so call with more than one worker only from a
single-threaded process.

Classification at p decides S_p by one rule: p | c_ell needs either
ell | gcd(Delta, c4), where Tate decides, or ell^3 | Delta with ell prime to
c4, a split I_v prime with p | v.  Primes below 10^4 come out of a gcd with
their product, the primorial, taken for 32 samples at a time from one
remainder tree; above it only gcd(Delta, c4) is factored, and the
multiplicative rest matters only through a prime of multiplicity >= 3, which
a perfect-power test finds (residue sieves reject almost every non-power
before a root is taken).  Ogg's formula skips the Tate runs that cannot give
p | c_ell.  The one unverified case is a rest q^3 * r that is not a perfect
power; that has probability < 2^-30 per sample and is treated as absent.
Samples that genuinely need a factorisation that exceeds its budget land in
an explicit "unclassified" bucket; a run is valid while that bucket stays
under 0.1%.
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
from .arith import (_SMALL_BOUND, FactorBudgetExceeded, _may_be_kth_power, _primorial,
                    factorize, iroot, is_prime, require_odd_prime, valuation)
from .curves import SingularCurveError, WeierstrassModel, _box, compute_invariants
from .density import CertifiedValue, rho, rho_Instar_ge1
from .finitefield import count_points_b
from .kodaira import parse_kodaira
from .localdata import _good_invariants, _split_multiplicative, tate

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
# models classified together: one remainder tree serves their primorial gcds
# (16 to 64 measured equally fast at H = 10^3)
_GROUP = 32


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

    Models are read _GROUP at a time, never all at once.  Within a group the
    primorial is reduced once, modulo the product of the discriminants, and
    each gcd is read off a remainder tree (Bernstein, "How to find smooth
    parts of integers", 2004).
    """
    require_odd_prime(p)
    models = iter(models)
    while group := list(islice(models, _GROUP)):
        # (model, invariants, |Delta| with p divided out, v_p(Delta)) of
        # each nonsingular model; None for a singular one
        rows = []
        for model in group:
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
        smooth = iter(_primorial_gcds([row[2] for row in rows if row]))
        for row in rows:
            if row is None:
                yield _SINGULAR
                continue
            model, inv, C, vp = row
            # S_p'': bad reduction at p on the p-minimal model
            bad_at_p = vp > 0 and _good_invariants(model, inv, p) is None
            # S_p': p does not divide the given discriminant and the
            # reduction has a rational p-torsion point, i.e. p | #E(F_p).
            anomalous_good = vp == 0 and count_points_b(p, inv.b2, inv.b4, inv.b6) % p == 0
            s = next(smooth)
            try:
                tam, unclassified = _tamagawa_divisible(model, C, s, inv.c4, inv.c6, p), False
            except FactorBudgetExceeded:
                tam, unclassified = False, True
            yield _NONSINGULAR[bad_at_p, tam, anomalous_good, unclassified]


def _primorial_gcds(ns: list[int]) -> list[int]:
    """[gcd(n, primorial) for n in ns], for positive n.

    The primorial is reduced modulo the product of all of ns, and the
    remainder modulo each node of their product tree; gcd(n, P mod n) =
    gcd(n, P) at the leaves.
    """
    if not ns:
        return []
    tree = [ns]
    while len(tree[-1]) > 1:
        level = tree[-1]
        tree.append([prod(level[i : i + 2]) for i in range(0, len(level), 2)])
    rems = [_primorial() % tree[-1][0]]
    for level in reversed(tree[:-1]):
        rems = [rems[i // 2] % m for i, m in enumerate(level)]
    return [gcd(n, r) for n, r in zip(ns, rems)]


def _c_ell_divisible(model: WeierstrassModel, ell: int, v: int, c4: int, c6: int,
                     p: int) -> bool:
    """Is p | c_ell, for a prime ell | Delta with v = v_ell(Delta)?

    Where ell | c4 Tate decides, and only if v > p: Ogg's formula gives
    c_ell <= v(Delta_min) - 1 there (a minimal model is additive, f >= 2),
    and a non-minimal model has v >= v(Delta_min) + 12.  Elsewhere ell is
    multiplicative: c_ell = v if split, c_ell <= 2 if not.
    """
    if c4 % ell == 0:
        return v > p and tate(model, ell).tamagawa % p == 0
    return v % p == 0 and _split_multiplicative(c6, ell)


def _tamagawa_divisible(model: WeierstrassModel, C: int, s: int, c4: int, c6: int,
                        p: int) -> bool:
    """Is p | c_ell for some prime ell | C?  C is |Delta| with p divided out
    and s = gcd(C, primorial), the product of its primes below the trial
    bound.

    Only ell | gcd(Delta, c4) and ell^3 | Delta can qualify (c_ell <= 2 at
    a multiplicative ell with v_ell(Delta) <= 2); _c_ell_divisible tests
    each.  Budget-free tests run first, so FactorBudgetExceeded means none
    of them found a divisible c_ell.
    """
    # primes below the trial bound: cubed holds those dividing C at least
    # three times
    s2 = gcd(C // s, s)
    cubed = gcd(C // s // s2, s2)
    for ell in factorize(gcd(s, c4) * cubed):
        if _c_ell_divisible(model, ell, valuation(C, ell), c4, c6, p):
            return True
    while s > 1:
        C //= s
        s = gcd(C, s)

    # primes above the trial bound: the additive (or non-minimal) ones
    # divide c4, and gcd(C, 0) = C
    big_additive = gcd(C, c4)
    if big_additive > 1:
        for q in factorize(big_additive, rho_budget=_RHO_BUDGET):
            v = 0
            while C % q == 0:
                C //= q
                v += 1
            if _c_ell_divisible(model, q, v, c4, c6, p):
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
            if _c_ell_divisible(model, q, n, c4, c6, p):
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
    while the bounds are worked out once per sampler.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    bounds = [(lo, n, n.bit_length()) for lo, n in _box(height)]
    getrandbits = rng.getrandbits
    while True:
        a = []
        for lo, n, k in bounds:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            a.append(lo + r)
        yield WeierstrassModel(*a)


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
            raise ValueError("height must lie in [1, 10^6]")
        require_odd_prime(self.p)
        if self.p >= 1 << 16:
            raise ValueError("p must be below 2^16, the point-count range")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be a 64-bit integer")
        if self.chunk_size < 1:
            raise ValueError("chunk size must be positive")
        if not 0 < self.z < inf:
            raise ValueError("z must be positive and finite")
        if self.exhaustive:
            if exhaustive_box_size(self.height) > 10**7:
                raise ValueError("exhaustive box exceeds 10^7 tuples")
        elif self.count < 1:
            raise ValueError("sample count must be positive")

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


def _kodaira_chunk(spec: SampleSpec, ell: int, index: int) -> dict[str, int]:
    out: dict[str, int] = {}
    for model in _iter_chunk(spec, index):
        # tate computes the invariants once and raises on a singular model
        try:
            key = tate(model, ell).kodaira.label
        except SingularCurveError:
            key = "singular"
        out[key] = out.get(key, 0) + 1
    return out


def _sum_counts(parts) -> dict[str, int]:
    counts: dict[str, int] = {}
    for part in parts:
        for k, v in part.items():
            counts[k] = counts.get(k, 0) + v
    return counts


def _run_chunks(spec: SampleSpec, chunk_fn, workers: int) -> dict[str, int]:
    """Sum the per-chunk counts chunk_fn(index) over every chunk of spec.

    k = min(workers, chunks, os.cpu_count()) processes share the chunks:
    this one and k - 1 forked children.  k is 1 where os.fork is missing,
    and at least 1 for any worker count; with k = 1 every chunk runs here
    and nothing is started.  Sums do not depend on which process ran which
    chunk, so the result is the same for every worker count.
    """
    n_chunks = -(-spec.total // spec.chunk_size)
    k = min(workers, n_chunks, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    return _sum_counts(_fork_join(chunk_fn, n_chunks, max(k, 1)))


def _fork_join(chunk_fn, n_chunks: int, k: int) -> list[dict[str, int]]:
    """Worker w of k sums chunks w, w + k, w + 2k, ...  Worker 0 is this
    process, so the caches its chunks fill stay here; workers 1 to k - 1 are
    forked children.

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
                _child(wr, chunk_fn, range(w, n_chunks, k))
            os.close(wr)
            children.append((pid, open(r, "rb")))
        own = _sum_counts(map(chunk_fn, range(0, n_chunks, k)))
        for _, pipe in children:
            replies.append(pipe.read())
    finally:
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


def _child(wr: int, chunk_fn, indices) -> NoReturn:
    """Body of a forked worker: sum its chunks, write (ok, sum or exception)
    to wr and leave by os._exit, so that the parent's stdio buffers and exit
    hooks never run here.  It exits 0 only once the reply is written."""
    code = 1
    try:
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
    counts = _run_chunks(spec, partial(_count_chunk, spec), threads)
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
    row.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    counts = _run_chunks(spec, partial(_kodaira_chunk, spec, ell), threads)
    entries = []
    for label in sorted(counts):
        table = label != "singular" and not label.startswith("I*n:")
        theory = CertifiedValue.exact(rho(parse_kodaira(label), ell)) if table else None
        entries.append((label, counts[label], theory))
    instar_total = sum(c for label, c in counts.items() if label.startswith("I*n:"))
    if instar_total:
        entries.append(("I*n:>=1", instar_total, CertifiedValue.exact(rho_Instar_ge1(ell))))
    return KodairaFrequencyReport(spec, counts, _build_rows(spec, entries), ell=ell)
