#!/usr/bin/env python3
"""The ellstat benchmark: sampled-run throughput, the tall-height cliff and
exact per-curve / table queries, with a traced per-module breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload sample-h1e3 --seed 1 --seconds 30 --trace 0

The benchmark imports ellstat from ``src/`` next to this directory and
drives the public CLI (``ellstat.cli.main(argv)`` in-process, stdout
captured) plus a few public library calls.  One closed-loop client issues
the requests one after another; the only parallelism is the CLI's own
``--threads 2``.  The work of a run is fixed by (workload, seed, seconds)
and sized so that it takes about ``--seconds`` on the seed code; the same
arguments always give the same requests.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
PINS_FILE = BENCH_DIR / "pinned.json"

DEFAULT_SEED = 0
# set-up is timed in fresh interpreters, some before and some after the timed
# region, so that the median does not rest on one stretch of machine speed
SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER = 5
# the traced run replays this share of the normal work twice (untraced, traced)
TRACE_SCALE = 0.1

# A sampling phase is one kind of call: (command, --threads, name of its
# rate, what it runs).  Calls differing only in --threads share the round's
# seed, so their stdout must be byte-identical.
PHASES = {
    "t1": ("empirical", 1, "samples_per_s", "empirical --threads 1"),
    "t2": ("empirical", 2, "samples_per_s_2w", "empirical --threads 2"),
    "kodaira": ("kodaira", 1, "kodaira_samples_per_s", "--kodaira-at 2 --threads 1"),
    "kodaira_t2": ("kodaira", 2, "kodaira_samples_per_s_2w", "--kodaira-at 2 --threads 2"),
}
# Each round runs the phases in this order on one seed; the order is also
# the order of the phase1/2/3 metrics.  sample-tall keeps its classify run
# at one worker, so most of its time goes to the samples whose cost spreads
# widest; its two-worker phase reruns the cheap Kodaira call instead.  The
# chunk size gives every call four chunks, so --threads 2 has chunks to share.
# round_s is what one round took on a 2-core machine with the current code;
# a run does --seconds / round_s rounds.
SAMPLING = {
    "sample-h1e3": {"height": 1000, "samples": 8000, "kodaira_samples": 8000,
                    "phases": ("t1", "t2", "kodaira"), "round_s": 1.5},
    "sample-tall": {"height": 50000, "samples": 128, "kodaira_samples": 1000,
                    "phases": ("t1", "kodaira_t2", "kodaira"), "round_s": 0.6},
}
SAMPLING_P = 3
# the pinned oracle tuples each took at most 0.25 s on a 2-core machine
ORACLE_LIMIT_S = 5.0

# exact: census, the theory sweep and prime_scan are fixed work (about
# EXACT_FIXED_S seconds); the rest of --seconds goes to `local` queries of
# about LOCAL_QUERY_S each
E_CURVES = {
    "E1": ((1, 0, 1, -141, 624), 10082, Fraction(857375, 8)),
    "E2": ((0, 0, 0, -83667346875, -10711930420406250), 6962, Fraction(-42875, 8)),
    "E3": ((0, 1, 0, -2, -8), 1568, Fraction(-64)),
}
CENSUS_PRIMES = (3, 5, 7, 11, 13)
THEORY_MAX = 10**4
SCAN_P_MAX = 3000
SCAN_REPEATS = 6
TWIST_T_MAX = 300
RANDOM_HEIGHT = 30
EXACT_FIXED_S = 10.7
LOCAL_QUERY_S = 0.0032
PINNED_LOCAL_QUERIES = 64

WORKLOADS = tuple(SAMPLING) + ("exact",)

# The machine's speed drifts by 20-40% over periods of seconds, for every
# process on it alike.  A fixed pure-Python job that calls no ellstat code is
# timed about every REF_EVERY_S of the timed region and after each set-up,
# and every time-based metric is scaled to the speed at which that job takes
# REF_NOMINAL_S (its median on a 2-core machine with Python 3.11).
REF_EVERY_S = 0.2
REF_NOMINAL_S = 0.002
REF_STEPS = 1200
REF_MODULUS = (1 << 255) - 19
REF_PRIMORIAL = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37
REF_AFTER_SETUP = 20


# ---------------------------------------------------------------------------
# the machine's speed


def reference_job() -> float:
    """Seconds taken by the reference job: a small-int loop, dict updates and
    256-bit modular squaring and gcd, the operations ellstat spends its time on."""
    t0 = time.perf_counter()
    x, acc, d = 3**160, 0, {}
    for i in range(REF_STEPS):
        x = x * x % REF_MODULUS
        acc += math.gcd(x, REF_PRIMORIAL) + i * i % 7
        d[i & 255] = d.get(i & 255, 0) + acc
    return time.perf_counter() - t0


def slowdown(ref_times) -> float:
    """How much slower than nominal the machine ran while ref_times were taken."""
    return statistics.mean(ref_times) / REF_NOMINAL_S


# ---------------------------------------------------------------------------
# importing and warming up the program


def _import_ellstat():
    src = ROOT / "src"
    if not (src / "ellstat" / "__init__.py").is_file():
        raise SystemExit(f"error: no ellstat package under {src}")
    sys.path.insert(0, str(src))
    import ellstat
    import ellstat.cli

    if Path(ellstat.__file__).resolve().parent != (src / "ellstat").resolve():
        raise SystemExit(f"error: imported ellstat from {ellstat.__file__}, not {src}")
    return ellstat


def _warm_up_argvs() -> list[list[str]]:
    return [
        ["empirical", "--p", "3", "--height", "1000", "--samples", "64", "--seed", "0",
         "--chunk-size", "16", "--threads", "2"],
        ["empirical", "--p", "3", "--height", "1000", "--samples", "64", "--seed", "0",
         "--kodaira-at", "2"],
        ["local", "--curve=1,0,1,-141,624", "--format", "json"],
        ["theory", "--p", "3", "--format", "json"],
        ["census", "--p", "3", "--with-d", "--format", "json"],
    ]


def set_up() -> float:
    """Import ellstat and fill its caches (primorial, primes up to 10^4,
    chi tables, argparse and thread-pool imports); returns the seconds spent."""
    t0 = time.perf_counter()
    ellstat = _import_ellstat()
    for argv in _warm_up_argvs():
        rc, _, err = _call_cli(ellstat, argv)
        if rc != 0:
            raise SystemExit(f"error: warm-up call {argv} exited {rc}: {err}")
    return time.perf_counter() - t0


def _setup_probe() -> None:
    t = set_up()
    print(t, slowdown([reference_job() for _ in range(REF_AFTER_SETUP)]))


def measure_setup(count: int) -> list[tuple[float, float]]:
    """(seconds, slowdown) of set_up() in fresh interpreters, so import time
    is counted each time; the slowdown is measured right after it."""
    code = f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; run._setup_probe()"
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        t, slow = proc.stdout.strip().splitlines()[-1].split()
        out.append((float(t), float(slow)))
    return out


# ---------------------------------------------------------------------------
# requests


def _call_cli(ellstat, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = ellstat.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash counts as a failed call
            rc = 1
            err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue()


def _round_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"perfbench:{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sampling_requests(workload: str, seed: int, seconds: float) -> list[dict]:
    cfg = SAMPLING[workload]
    rounds = max(1, round(seconds / cfg["round_s"]))
    reqs = []
    for r in range(rounds):
        base = ["empirical", "--p", str(SAMPLING_P), "--height", str(cfg["height"]),
                "--seed", str(_round_seed(workload, seed, r))]
        for phase in cfg["phases"]:
            command, threads = PHASES[phase][:2]
            n = cfg["samples"] if command == "empirical" else cfg["kodaira_samples"]
            argv = base + ["--samples", str(n), "--chunk-size", str(n // 4)]
            if command == "kodaira":
                argv += ["--kodaira-at", "2"]
            reqs.append({"phase": phase, "round": r, "samples": n, "kind": command,
                         "argv": argv + ["--threads", str(threads)]})
    return reqs


# The benchmark makes its inputs and its j / Delta oracle with its own
# arithmetic, so neither depends on the library it measures.
def _ainvariants(a):
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = a1 * a3 + 2 * a4
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, c6, delta


def _squarefree(n: int) -> bool:
    n = abs(n)
    q = 2
    while q * q <= n:
        if n % (q * q) == 0:
            return False
        q += 1
    return True


def exact_curves(seed: int, count: int) -> list[tuple[int, ...]]:
    """Seeded `local` inputs: half quadratic twists of E1-E3 by squarefree
    |t| <= 300, half random integral tuples with |a_i| < 30^i."""
    rng = random.Random(f"perfbench:exact:{seed}")
    twist_ts = [t for t in range(-TWIST_T_MAX, TWIST_T_MAX + 1) if t and _squarefree(t)]
    bases = [v[0] for v in E_CURVES.values()]
    out = []
    while len(out) < count:
        if rng.random() < 0.5:
            c4, c6, _ = _ainvariants(rng.choice(bases))
            t = rng.choice(twist_ts)
            out.append((0, 0, 0, -27 * c4 * t * t, -54 * c6 * t**3))
        else:
            a = tuple(rng.randrange(1 - RANDOM_HEIGHT**i, RANDOM_HEIGHT**i) for i in (1, 2, 3, 4, 6))
            if _ainvariants(a)[2] != 0:
                out.append(a)
    return out


def _local_argv(a) -> list[str]:
    # "--curve=" keeps argparse from reading a leading minus as an option
    return ["local", "--curve=" + ",".join(map(str, a)), "--format", "json"]


def exact_requests(seed: int, seconds: float) -> list[dict]:
    """The four phases, interleaved evenly over the run.

    The machine's speed drifts over seconds, so a phase run as one block
    would be timed in whatever state the machine was in during that block.
    """
    census = [{"phase": "census", "p": q, "argv": ["census", "--p", str(q), "--with-d",
                                                   "--format", "json"]}
              for q in CENSUS_PRIMES]
    theory = [{"phase": "theory", "p": q, "argv": ["theory", "--p", str(q), "--format", "json"]}
              for q in _odd_primes(THEORY_MAX)]
    scan = [{"phase": "scan", "curve": name, "lib": "prime_scan"}
            for _ in range(SCAN_REPEATS) for name in E_CURVES]
    queries = max(100, round((seconds - EXACT_FIXED_S) / LOCAL_QUERY_S))
    local = [{"phase": "local", "curve": a, "argv": _local_argv(a)}
             for a in exact_curves(seed, queries)]
    placed = [((i + 0.5) / len(phase), k, req)
              for k, phase in enumerate((census, theory, scan, local))
              for i, req in enumerate(phase)]
    return [req for _, _, req in sorted(placed, key=lambda x: x[:2])]


def _odd_primes(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\0\0"
    for n in range(2, math.isqrt(limit) + 1):
        if flags[n]:
            flags[n * n::n] = bytearray(len(flags[n * n::n]))
    return [n for n in range(3, limit + 1) if flags[n]]


def build_requests(workload: str, seed: int, seconds: float) -> list[dict]:
    if workload == "exact":
        return exact_requests(seed, seconds)
    return sampling_requests(workload, seed, seconds)


def execute(ellstat, reqs, tracer=None) -> tuple[list[dict], float, list[float]]:
    """Run the requests in order, with the reference job between requests
    about every REF_EVERY_S; returns per-request results, the wall time of
    the timed region without the reference jobs, and their times."""
    results = []
    perf = time.perf_counter
    refs = [reference_job()]
    t_start = t_ref = perf()
    for rid, req in enumerate(reqs):
        if perf() - t_ref >= REF_EVERY_S:
            refs.append(reference_job())
            t_ref = perf()
        if tracer is not None:
            tracer.request_id = rid
        t0 = perf()
        if "lib" in req:
            rc, out, err = _call_scan(ellstat, req["curve"])
        else:
            rc, out, err = _call_cli(ellstat, req["argv"])
        t1 = perf()
        results.append({"rc": rc, "out": out, "err": err, "t": t1 - t0})
    wall = perf() - t_start - sum(refs[1:])
    refs.append(reference_job())
    return results, wall, refs


def _call_scan(ellstat, name):
    from ellstat.curves import WeierstrassModel

    model = WeierstrassModel(*E_CURVES[name][0])
    try:
        report = ellstat.localdata.prime_scan(model, SCAN_P_MAX)
    except Exception as exc:  # a crash counts as a failed call
        return 1, "", f"{type(exc).__name__}: {exc}"
    return 0, json.dumps(report.to_json_dict(), sort_keys=True), ""


# ---------------------------------------------------------------------------
# checks (all after the timed region)


class Checks:
    def __init__(self):
        self.failures: list[str] = []
        self.info: dict = {}

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _sha(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()


def _parse_csv(text: str):
    meta, rows = {}, {}
    lines = text.splitlines()
    for line in lines:
        if line.startswith("# "):
            k, _, v = line[2:].partition("=")
            meta[k] = v
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    for ln in body[1:]:
        fields = dict(zip(header, ln.split(",")))
        rows[fields["flag"]] = fields
    return meta, rows


def _bad_at_p_density(p: int) -> Fraction:
    # 1 - (1 - p^-10)^-1 (p - 1)/p, the exact table value
    return 1 - Fraction(p**10, p**10 - 1) * Fraction(p - 1, p)


def _pins() -> dict:
    return json.loads(PINS_FILE.read_text())


def pinned_outputs(ellstat, workload, reqs, results) -> dict[str, str]:
    """sha256 of each phase's stdout on the pinned inputs (default seed)."""
    if workload == "exact":
        pins = {}
        for phase in ("census", "theory", "scan"):
            pins[phase] = _sha(r["out"] for q, r in zip(reqs, results) if q["phase"] == phase)
        local_argvs = [_local_argv(a) for a in exact_curves(DEFAULT_SEED, PINNED_LOCAL_QUERIES)]
        pins["local"] = _sha(_stdout_of(ellstat, argv, reqs, results) for argv in local_argvs)
        return pins
    round0 = sampling_requests(workload, DEFAULT_SEED, 1)[:3]
    return {req["phase"]: _sha([_stdout_of(ellstat, req["argv"], reqs, results)]) for req in round0}


def _stdout_of(ellstat, argv, reqs, results) -> str:
    """stdout of a CLI call, taken from the timed run when it made the call."""
    for req, res in zip(reqs, results):
        if req.get("argv") == argv:
            return res["out"]
    return _call_cli(ellstat, argv)[1]


def check_sampling(workload, reqs, results, checks: Checks) -> int:
    """Returns the number of unclassified samples."""
    cfg = SAMPLING[workload]
    unclassified = 0
    by_input: dict[tuple[str, ...], str] = {}
    bad = n_total = 0
    for req, res in zip(reqs, results):
        tag = f"{req['phase']} round {req['round']}"
        if res["rc"] != 0:
            continue
        key = tuple(req["argv"][:-2])  # the argv without --threads N
        checks.expect(by_input.setdefault(key, res["out"]) == res["out"],
                      f"{tag}: stdout differs from the same call at another --threads")
        try:
            meta, rows = _parse_csv(res["out"])
        except (IndexError, KeyError):
            checks.expect(False, f"{tag}: unparsable CSV")
            continue
        n = req["samples"]
        checks.expect(meta.get("n") == str(n) and meta.get("height") == str(cfg["height"]),
                      f"{tag}: metadata {meta}")
        if req["kind"] == "kodaira":
            total = sum(int(r["count"]) for k, r in rows.items() if k != "I*n:>=1")
            checks.expect(total == n, f"{tag}: Kodaira counts sum to {total}, not {n}")
            continue
        checks.expect(list(rows) == ["singular", "bad_at_p", "tamagawa_divisible",
                                     "anomalous_good", "unclassified"], f"{tag}: rows {list(rows)}")
        for r in rows.values():
            checks.expect(int(r["N"]) == n and 0 <= int(r["count"]) <= n, f"{tag}: row {r}")
        unclassified += int(rows["unclassified"]["count"])
        if req["phase"] == "t1":
            bad += int(rows["bad_at_p"]["count"])
            n_total += n
    if n_total:
        theta = float(_bad_at_p_density(SAMPLING_P))
        z = (bad / n_total - theta) / math.sqrt(theta * (1 - theta) / n_total)
        checks.info["bad_at_p_z"] = z
        checks.expect(abs(z) < 6, f"bad_at_p proportion is {z:.1f} sigma from theory")
    check_oracle(workload, checks)
    return unclassified


class _OracleTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _OracleTimeout


def check_oracle(workload, checks: Checks) -> None:
    """classify(...).tamagawa_divisible against the full-factorisation
    tamagawa_p_divisible on the tuples pinned for the workload.  Every pinned
    tuple must be classified and its oracle must finish within the limit."""
    from ellstat.arith import FactorBudgetExceeded
    from ellstat.curves import WeierstrassModel
    from ellstat.harness import classify
    from ellstat.localdata import tamagawa_p_divisible

    tuples = _pins()["oracle_tuples"][workload]
    checked = 0
    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for a in tuples:
            model = WeierstrassModel(*a)
            flags = classify(model, SAMPLING_P)
            if flags.unclassified:
                checks.expect(False, f"oracle tuple {a}: classify left it unclassified")
                continue
            signal.setitimer(signal.ITIMER_REAL, ORACLE_LIMIT_S)
            try:
                want = bool(tamagawa_p_divisible(model, SAMPLING_P))
            except (_OracleTimeout, FactorBudgetExceeded) as exc:
                checks.expect(False, f"oracle tuple {a}: tamagawa_p_divisible did not finish "
                                     f"({type(exc).__name__})")
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            checked += 1
            checks.expect(flags.tamagawa_divisible == want,
                          f"classify disagrees with tamagawa_p_divisible on {a}")
    finally:
        signal.signal(signal.SIGALRM, old)
    checks.expect(tuples and checked == len(tuples),
                  f"oracle checked {checked} of {len(tuples)} pinned tuples")
    checks.info["oracle_checked"] = checked


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def check_exact(ellstat, reqs, results, checks: Checks) -> None:
    from ellstat.density import frak_d_p_prime
    from ellstat.quadforms import hurwitz_class_number

    for name, (a, cond, j) in E_CURVES.items():
        rc, out, _ = _call_cli(ellstat, _local_argv(a))
        data = _json(out) if rc == 0 else None
        ok = data is not None and data["conductor"] == cond and Fraction(data["j"]) == j
        checks.expect(ok, f"{name}: expected conductor {cond} and j {j}, got rc={rc} {out[:200]}")
    for req, res in zip(reqs, results):
        if res["rc"] != 0:
            continue
        phase = req["phase"]
        data = _json(res["out"])
        if data is None:
            checks.expect(False, f"{phase}: not JSON: {res['out'][:200]}")
        elif phase == "local":
            check_local(req["curve"], data, checks)
        elif phase == "theory":
            q = req["p"]
            lo = Fraction(data["main_bound"]["lo"])
            hi = Fraction(data["main_bound"]["hi"])
            checks.expect(data["p"] == q and 0 < lo <= hi < Fraction(1, q), f"theory p={q}: {data}")
        elif phase == "census":
            q = req["p"]
            want = hurwitz_class_number(1 - 4 * q).h
            if q <= 5:
                want += hurwitz_class_number(q * q + 1 - 6 * q).h
            checks.expect(data["classes"] == want, f"census p={q}: {data['classes']} != {want}")
            checks.expect(Fraction(data["d_over_p5"]) <= frak_d_p_prime(q),
                          f"census p={q}: d/p^5 above frak_d_p'")
        elif phase == "scan":
            want_rows = len(_odd_primes(SCAN_P_MAX))
            checks.expect(len(data["rows"]) == want_rows, f"scan {req['curve']}: row count")


# largest conductor exponent at 2, at 3 and at any ell >= 5
_F_MAX = {2: 8, 3: 5}


def check_local(a, data, checks: Checks) -> None:
    """One `local` answer against Delta, c4 and j computed by the benchmark:
    the listed primes are exactly those dividing Delta, and each exponent is
    possible for what the benchmark knows of the reduction there."""
    c4, _, delta = _ainvariants(a)
    tag = f"local {a}"
    checks.expect(data["curve"] == ",".join(map(str, a)), f"{tag}: curve is {data['curve']}")
    checks.expect(Fraction(data["j"]) == Fraction(c4**3, delta), f"{tag}: j is {data['j']}")
    primes = [d["prime"] for d in data["local"]]
    checks.expect(primes == sorted(set(primes)), f"{tag}: primes {primes} not ascending")
    rest = abs(delta)
    for d in data["local"]:
        ell, f, v_min = d["prime"], d["f"], d["v_delta"]
        v = 0
        while ell > 1 and rest % ell == 0:
            rest //= ell
            v += 1
        if v == 0:
            checks.expect(False, f"{tag}: {ell} does not divide Delta")
        elif c4 % ell:
            # multiplicative on a model minimal at ell
            checks.expect(f == 1 and v_min == v, f"{tag}: ell={ell} with ell not dividing c4 has "
                                                 f"f={f}, v(Delta_min)={v_min}, v(Delta)={v}")
        else:
            # v(Delta) < 12 means the model is minimal at ell, so the reduction is bad
            ok = ((1 if v < 12 else 0) <= f <= min(v, _F_MAX.get(ell, 2))
                  and 0 <= v_min <= v and (v - v_min) % 12 == 0)
            checks.expect(ok, f"{tag}: ell={ell} has f={f}, v(Delta_min)={v_min}, v(Delta)={v}")
    checks.expect(rest == 1, f"{tag}: Delta has prime factors outside {primes}")


def run_checks(ellstat, workload, reqs, results) -> tuple[Checks, int]:
    checks = Checks()
    failed_calls = sum(r["rc"] != 0 for r in results)
    for req, res in zip(reqs, results):
        if res["rc"] != 0:
            checks.failures.append(f"{req.get('argv', req.get('lib'))} exited {res['rc']}: {res['err'][:300]}")
    if workload == "exact":
        check_exact(ellstat, reqs, results, checks)
        unclassified = 0
    else:
        unclassified = check_sampling(workload, reqs, results, checks)
    pins = _pins()["stdout_sha256"][workload]
    got = pinned_outputs(ellstat, workload, reqs, results)
    checks.info["pinned_sha256"] = got
    for phase, sha in got.items():
        checks.expect(pins.get(phase) == sha, f"pinned stdout sha256 of phase {phase} differs")
    return checks, failed_calls + unclassified


# ---------------------------------------------------------------------------
# metrics


def _quantile(values, q: float) -> float:
    xs = sorted(values)
    if not xs:
        return 0.0
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def end_to_end(workload, reqs, results, wall, refs, setup_probes, peak_rss_mb) -> tuple[dict, dict]:
    """(the BENCHMARK.json metrics, scaled to the nominal machine speed; the
    same figures as measured, under their per-workload names)."""
    phase_time: dict[str, float] = {}
    phase_items: dict[str, int] = {}
    latencies = []
    for req, res in zip(reqs, results):
        ph = req["phase"]
        phase_time[ph] = phase_time.get(ph, 0.0) + res["t"]
        if workload == "exact":
            items = len(_odd_primes(SCAN_P_MAX)) if ph == "scan" else 1
            if ph == "local":
                latencies.append(res["t"] * 1e3)
        else:
            items = req["samples"]
        phase_items[ph] = phase_items.get(ph, 0) + items

    def rate(ph):
        return phase_items[ph] / phase_time[ph]

    order = ("local", "theory", "scan") if workload == "exact" else SAMPLING[workload]["phases"]
    slow = slowdown(refs)
    metrics = {
        "setup_s": (statistics.median(t / k for t, k in setup_probes), "s"),
        "wall_s": (wall / slow, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "phase1_per_s": (rate(order[0]) * slow, "1/s"),
        "phase2_per_s": (rate(order[1]) * slow, "1/s"),
        "phase3_per_s": (rate(order[2]) * slow, "1/s"),
    }
    named = {
        "slowdown": (slow, "x", f"mean of {len(refs)} reference jobs / {REF_NOMINAL_S} s"),
        "setup_s_measured": (statistics.median(t for t, _ in setup_probes), "s",
                             f"median of {len(setup_probes)} fresh interpreters"),
        "wall_s_measured": (wall, "s", "timed region"),
    }
    if workload == "exact":
        named |= {
            "local_per_s": (rate("local"), "queries/s", f"{phase_items['local']} queries"),
            "local_ms_p50": (statistics.median(latencies), "ms", f"{len(latencies)} queries"),
            "local_ms_p99": (_quantile(latencies, 0.99), "ms", f"{len(latencies)} queries"),
            "theory_s": (phase_time["theory"], "s", f"{phase_items['theory']} primes"),
            "scan_s": (phase_time["scan"], "s",
                       f"E1-E3 to p_max={SCAN_P_MAX}, {phase_items['scan']} primes"),
            "census_s": (phase_time["census"], "s", f"p in {CENSUS_PRIMES}"),
        }
    else:
        named |= {PHASES[ph][2]: (rate(ph), "samples/s", f"{PHASES[ph][3]}, {phase_items[ph]} samples")
                  for ph in order}
    return metrics, named


def _tate_span(args):
    ell = args[1]
    return "localdata.tate.ell2" if ell == 2 else (
        "localdata.tate.ell3" if ell == 3 else "localdata.tate.ell_ge5")


def trace_targets():
    """(module, function, span name or namer, on_result, on_error) of every
    traced public function."""
    from ellstat import arith, cli, curves, density, finitefield, harness, localdata, quadforms

    def on_classify(tracer, flags):
        if flags.unclassified:
            tracer.count("harness.unclassified")

    def on_factor_error(tracer, exc):
        if isinstance(exc, arith.FactorBudgetExceeded):
            tracer.count("arith.factorize.budget_exceeded")

    # estimate and kodaira_frequency have no metric of their own: their spans
    # parent the chunk work on worker threads, so that work is not counted as
    # cli.main's self time
    return [
        (cli, "main", "cli.main", None, None),
        (harness, "estimate", "harness.estimate", None, None),
        (harness, "kodaira_frequency", "harness.kodaira_frequency", None, None),
        (harness, "classify", "harness.classify", on_classify, None),
        (harness, "sample_tuple", "harness.sample_tuple", None, None),
        (curves, "compute_invariants", "curves.compute_invariants", None, None),
        (localdata, "tate", _tate_span, None, None),
        (localdata, "bad_primes", "localdata.bad_primes", None, None),
        (localdata, "local_torsion_rank_mult", "localdata.local_torsion_rank_mult", None, None),
        (localdata, "prime_scan", "localdata.prime_scan", None, None),
        (arith, "iroot", "arith.iroot", None, None),
        (arith, "factorize", "arith.factorize", None, on_factor_error),
        (arith, "is_prime", "arith.is_prime", None, None),
        (finitefield, "is_anomalous", "finitefield.is_anomalous", None, None),
        (finitefield, "group_order", "finitefield.group_order", None, None),
        (finitefield, "census_torsion_classes", "finitefield.census_torsion_classes", None, None),
        (finitefield, "d_count", "finitefield.d_count", None, None),
        (density, "density_report", "density.density_report", None, None),
        (density, "zeta_minus_one", "density.zeta_minus_one", None, None),
        (quadforms, "hurwitz_class_number", "quadforms.hurwitz_class_number", None, None),
    ]


def per_layer(tracer, reqs, results, traced_wall, untraced_wall) -> dict:
    """The per-layer metrics; the two walls are scaled to the nominal machine speed."""
    agg = tracer.aggregate()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def a(name):
        return agg.get(name, empty)

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    cls = a("harness.classify")
    put("harness.classify.calls", cls["calls"], "count")
    put("harness.classify.self_s", cls["self_s"], "s")
    put("harness.classify.us_p50", _quantile(cls["durations"], 0.5) * 1e6, "us")
    put("harness.classify.us_p99", _quantile(cls["durations"], 0.99) * 1e6, "us")
    put("harness.sample_tuple.calls", a("harness.sample_tuple")["calls"], "count")
    put("harness.sample_tuple.self_s", a("harness.sample_tuple")["self_s"], "s")
    put("harness.unclassified", tracer.counters.get("harness.unclassified", 0), "count")
    by_req = tracer.worker_busy_by_request()
    two = [rid for rid, q in enumerate(reqs) if q.get("argv", [])[-2:] == ["--threads", "2"]]
    two_wall = sum(results[rid]["t"] for rid in two)
    busy = sum(by_req.get(rid, 0.0) for rid in two)
    put("harness.workers.busy_frac", busy / (2 * two_wall) if two_wall else 0.0, "fraction")
    ir = a("arith.iroot")
    put("arith.iroot.calls", ir["calls"], "count")
    put("arith.iroot.total_s", ir["total_s"], "s")
    put("arith.iroot.ms_max", max(ir["durations"], default=0.0) * 1e3, "ms")
    fz = a("arith.factorize")
    put("arith.factorize.calls", fz["calls"], "count")
    put("arith.factorize.self_s", fz["self_s"], "s")
    put("arith.factorize.budget_exceeded",
        tracer.counters.get("arith.factorize.budget_exceeded", 0), "count")
    put("arith.is_prime.calls", a("arith.is_prime")["calls"], "count")
    put("arith.is_prime.total_s", a("arith.is_prime")["total_s"], "s")
    for bucket in ("ell2", "ell3", "ell_ge5"):
        put(f"localdata.tate.calls.{bucket}", a(f"localdata.tate.{bucket}")["calls"], "count")
    for bucket in ("ell2", "ell3", "ell_ge5"):
        put(f"localdata.tate.self_s.{bucket}", a(f"localdata.tate.{bucket}")["self_s"], "s")
    put("localdata.bad_primes.self_s", a("localdata.bad_primes")["self_s"], "s")
    put("localdata.local_torsion_rank_mult.calls", a("localdata.local_torsion_rank_mult")["calls"], "count")
    put("localdata.local_torsion_rank_mult.self_s", a("localdata.local_torsion_rank_mult")["self_s"], "s")
    put("localdata.prime_scan.self_s", a("localdata.prime_scan")["self_s"], "s")
    for fn in ("is_anomalous", "group_order"):
        put(f"finitefield.{fn}.calls", a(f"finitefield.{fn}")["calls"], "count")
        put(f"finitefield.{fn}.self_s", a(f"finitefield.{fn}")["self_s"], "s")
    put("finitefield.census_torsion_classes.self_s", a("finitefield.census_torsion_classes")["self_s"], "s")
    put("finitefield.d_count.self_s", a("finitefield.d_count")["self_s"], "s")
    put("density.density_report.calls", a("density.density_report")["calls"], "count")
    put("density.density_report.self_s", a("density.density_report")["self_s"], "s")
    put("density.zeta_minus_one.total_s", a("density.zeta_minus_one")["total_s"], "s")
    put("quadforms.hurwitz_class_number.calls", a("quadforms.hurwitz_class_number")["calls"], "count")
    put("quadforms.hurwitz_class_number.self_s", a("quadforms.hurwitz_class_number")["self_s"], "s")
    put("cli.main.calls", a("cli.main")["calls"], "count")
    put("cli.main.self_s", a("cli.main")["self_s"], "s")
    put("curves.compute_invariants.calls", a("curves.compute_invariants")["calls"], "count")
    put("curves.compute_invariants.total_s", a("curves.compute_invariants")["total_s"], "s")
    put("trace.overhead_frac", traced_wall / untraced_wall - 1, "fraction")
    return m


# ---------------------------------------------------------------------------
# command line


def _environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
        "git_commit": commit,
    }


def _work_counts(workload, reqs) -> dict:
    if workload == "exact":
        return {
            "local_queries": sum(q["phase"] == "local" for q in reqs),
            "theory_primes": sum(q["phase"] == "theory" for q in reqs),
            "scan_calls": sum(q["phase"] == "scan" for q in reqs),
            "scan_curves": list(E_CURVES),
            "scan_p_max": SCAN_P_MAX,
            "scan_primes_per_curve": len(_odd_primes(SCAN_P_MAX)),
            "census_primes": list(CENSUS_PRIMES),
        }
    cfg = SAMPLING[workload]
    return {
        "height": cfg["height"],
        "p": SAMPLING_P,
        "rounds": sum(q["phase"] == "t1" for q in reqs),
        "samples_per_call": cfg["samples"],
        "kodaira_samples_per_call": cfg["kodaira_samples"],
        "chunks_per_call": 4,
        "samples_per_phase": {ph: sum(q["samples"] for q in reqs if q["phase"] == ph)
                              for ph in cfg["phases"]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    ellstat = _import_ellstat()
    setup_probes = [] if args.trace else measure_setup(SETUP_PROBES_BEFORE)
    set_up()

    seconds = args.seconds * (TRACE_SCALE if args.trace else 1)
    reqs = build_requests(args.workload, args.seed, seconds)
    results, wall, refs = execute(ellstat, reqs)
    # read now, so that the checks below do not count towards the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        setup_probes += measure_setup(SETUP_PROBES_AFTER)
    record = {"environment": _environment(args), "work": _work_counts(args.workload, reqs)}
    attempted = len(reqs) + sum(q.get("samples", 0) for q in reqs)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(trace_targets())
        try:
            traced, traced_wall, traced_refs = execute(ellstat, reqs, tracer)
        finally:
            tracer.uninstall()
        # the traced pass repeats every operation; its outputs are checked
        # equal to the untraced ones below, so its failures are the same too
        attempted *= 2
    checks, failed = run_checks(ellstat, args.workload, reqs, results)
    if args.trace:
        same = all(a["out"] == b["out"] and a["rc"] == b["rc"] for a, b in zip(results, traced))
        checks.expect(same, "traced stdout differs from untraced stdout")
        failed *= 2
        metrics = per_layer(tracer, reqs, traced, traced_wall / slowdown(traced_refs),
                            wall / slowdown(refs))
        named = {}
        RESULTS_DIR.mkdir(exist_ok=True)
        span_file = RESULTS_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        record["spans"] = {"file": span_file.name, "count": tracer.write(span_file)}
        record["walls"] = {"untraced_s": wall, "traced_s": traced_wall,
                           "untraced_slowdown": slowdown(refs),
                           "traced_slowdown": slowdown(traced_refs)}
    else:
        metrics, named = end_to_end(args.workload, reqs, results, wall, refs, setup_probes,
                                    peak_rss_mb)
        record["setup_probes"] = [{"s": t, "slowdown": k} for t, k in setup_probes]
        record["reference_job_s"] = refs

    failed_frac = failed / attempted
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit, note) in named.items():
        print(f"  {name:24s} {value:14.6g} {unit:10s} ({note})")
    print(f"  {'failed_frac':24s} {failed_frac:14.6g} {'':10s} ({failed} failed of {attempted} "
          f"operations: samples plus calls)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for msg in checks.failures[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    record.update({
        "correct": not checks.failures,
        "check_failures": checks.failures,
        "checks": checks.info,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed_frac,
        "named_metrics": {k: {"value": v, "unit": u, "base": n} for k, (v, u, n) in named.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    RESULTS_DIR.mkdir(exist_ok=True)
    out_file = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"  result file: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
