"""Height-ordered sampling, classification and empirical density reports.

Sampling draws each coefficient uniformly from |a_i| < H^i; exhaustive mode
walks the whole box.  Work is split into fixed-size chunks whose RNG streams
are derived from (master seed, chunk index), so reports are bit-identical
for a given (seed, chunk size) no matter how many worker processes run the
chunks.  Workers are forked (os.fork), so call with more than one worker
only from a single-threaded process.

Classification at p decides S_p by one rule: p | c_ell needs either
ell | gcd(Delta, c4), where Tate decides, or ell^3 | Delta with ell prime to
c4, a split I_v prime with p | v.  Primes below 10^4 come out of a primorial
gcd; above it only gcd(Delta, c4) is factored, and the multiplicative rest
matters only through a prime of multiplicity >= 3, which a perfect-power
test finds.  The one unverified case is a rest q^3 * r that is not a
perfect power; that has probability < 2^-30 per sample and is treated as
absent.  Samples that genuinely need a factorisation that exceeds its budget
land in an explicit "unclassified" bucket; a run is valid while that bucket
stays under 0.1%.
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
from math import gcd, inf, isqrt, sqrt
from typing import NoReturn

from . import __version__
from .arith import (_SMALL_BOUND, FactorBudgetExceeded, _primorial, factorize, iroot,
                    is_prime, require_odd_prime, valuation)
from .curves import WeierstrassModel, compute_invariants
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


@dataclass(frozen=True)
class ClassificationFlags:
    singular: bool
    bad_at_p: bool
    tamagawa_divisible: bool
    anomalous_good: bool
    unclassified: bool = False


def classify(model: WeierstrassModel, p: int) -> ClassificationFlags:
    """Membership flags in S_p (some p | c_ell), S_p' (good anomalous) and
    S_p'' (bad reduction at p) for one integral tuple.

    S_p'' is decided on the p-minimal model; S_p' uses the discriminant of
    the given equation, per its literal definition.
    """
    require_odd_prime(p)
    inv = compute_invariants(model)
    delta = inv.delta
    if delta == 0:
        return ClassificationFlags(True, False, False, False)
    c4 = inv.c4

    C = abs(delta)
    vp = 0
    while C % p == 0:
        C //= p
        vp += 1
    # S_p'': bad reduction at p on the p-minimal model
    bad_at_p = vp > 0 and _good_invariants(model, inv, p) is None

    # S_p': p does not divide the given discriminant and the reduction has
    # a rational p-torsion point, i.e. p | #E(F_p).
    anomalous_good = vp == 0 and count_points_b(p, inv.b2, inv.b4, inv.b6) % p == 0

    try:
        tam, unclassified = _tamagawa_divisible(model, C, c4, inv.c6, p), False
    except FactorBudgetExceeded:
        tam, unclassified = False, True
    return ClassificationFlags(False, bad_at_p, tam, anomalous_good, unclassified)


def _tamagawa_divisible(model: WeierstrassModel, C: int, c4: int, c6: int, p: int) -> bool:
    """Is p | c_ell for some prime ell | C?  C is |Delta| with p divided out.

    Only two kinds of ell can qualify: ell | gcd(Delta, c4), where Tate
    decides, and ell^3 | Delta with ell not dividing c4, a multiplicative
    prime where c_ell = v_ell(Delta) if split and c_ell <= 2 otherwise.
    Budget-free tests run first, so FactorBudgetExceeded means none of them
    found a divisible c_ell.
    """
    # primes below the trial bound: s holds those dividing C, cubed those
    # dividing it at least three times
    s = gcd(C, _primorial())
    s2 = gcd(C // s, s)
    cubed = gcd(C // s // s2, s2)
    for ell in factorize(gcd(s, c4) * cubed):
        if c4 % ell == 0:
            if tate(model, ell).tamagawa % p == 0:
                return True
        elif valuation(C, ell) % p == 0 and _split_multiplicative(c6, ell):
            return True
    while s > 1:
        C //= s
        s = gcd(C, s)

    # primes above the trial bound: the additive (or non-minimal) ones
    # divide c4, and gcd(C, 0) = C
    big_additive = gcd(C, c4)
    if big_additive > 1:
        for q in factorize(big_additive, rho_budget=_RHO_BUDGET):
            while C % q == 0:
                C //= q
            if tate(model, q).tamagawa % p == 0:
                return True
    if C < _SMALL_CUBE:
        # q^3 <= C < bound^3 is impossible, so every multiplicity here is 1
        # or 2 and c lies in {1, 2}: no odd p divides it
        return False
    # the only way left for some multiplicity to reach 3 (short of the
    # assumed-absent q^3 * r event) is C itself being a perfect power
    m = isqrt(C)
    if m * m == C:
        k = 2
    else:
        for k in (3, 5, 7):
            m, exact = iroot(C, k)
            if exact:
                break
        else:
            return False
    if k % p == 0 or m >= _SMALL_CUBE:
        for q, n in factorize(C, rho_budget=_RHO_BUDGET).items():
            if n % p == 0 and _split_multiplicative(c6, q):
                return True
    return False


# ---------------------------------------------------------------------------
# sampling


def sample_tuple(rng: random.Random, height: int) -> WeierstrassModel:
    """One uniform draw from the height box |a_i| < H^i."""
    if height < 1:
        raise ValueError("height must be >= 1")
    h2 = height * height
    h3 = h2 * height
    h4 = h3 * height
    h6 = h4 * h2
    return WeierstrassModel(
        rng.randrange(1 - height, height),
        rng.randrange(1 - h2, h2),
        rng.randrange(1 - h3, h3),
        rng.randrange(1 - h4, h4),
        rng.randrange(1 - h6, h6),
    )


def exhaustive_box_size(height: int) -> int:
    n = 1
    for i in (1, 2, 3, 4, 6):
        n *= 2 * height**i - 1
    return n


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
        H = spec.height
        sizes = [2 * H**i - 1 for i in (1, 2, 3, 4, 6)]
        offs = [H**i - 1 for i in (1, 2, 3, 4, 6)]
        for idx in range(lo, hi):
            rem = idx
            a = []
            for size, off in zip(reversed(sizes), reversed(offs)):
                rem, digit = divmod(rem, size)
                a.append(digit - off)
            a.reverse()
            yield WeierstrassModel(*a)
    else:
        rng = _chunk_rng(spec.seed, index)
        for _ in range(hi - lo):
            yield sample_tuple(rng, spec.height)


_FLAG_ORDER = ("singular", "bad_at_p", "tamagawa_divisible", "anomalous_good", "unclassified")


def _count_chunk(spec: SampleSpec, index: int) -> dict[str, int]:
    singular = bad = tam = anom = uncl = 0
    p = spec.p
    for model in _iter_chunk(spec, index):
        flags = classify(model, p)
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
        if compute_invariants(model).delta == 0:
            key = "singular"
        else:
            key = tate(model, ell).kodaira.label
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
    this one and k - 1 forked children.  With k < 2, or where os.fork is
    missing, every chunk runs here and nothing is started.  Sums do not
    depend on which process ran which chunk, so the result is the same for
    every worker count.
    """
    n_chunks = -(-spec.total // spec.chunk_size)
    k = min(workers, n_chunks, os.cpu_count() or 1)
    if k < 2 or not hasattr(os, "fork"):
        return _sum_counts(map(chunk_fn, range(n_chunks)))
    return _sum_counts(_fork_join(chunk_fn, n_chunks, k))


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
