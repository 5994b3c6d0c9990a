"""Command-line surface: single-curve reports, theory tables, censuses,
empirical runs and the twist / split-Cartan family generators.

Exit codes: 0 success, 1 internal error, 2 invalid input.  `main` is the
one place that maps errors to them: an `InputError` from the library or
from a command's own argument checks, a `SingularCurveError` and a
`FactorBudgetExceeded` exit 2 with one `error:` line on stderr, any other
exception exits 1.  Beyond parsing their own arguments, and `families`
handling each t, the commands catch nothing.

All randomness flows from --seed; --threads (default 1) is the number of
worker processes, capped at the chunk count, at the CPUs this process may
run on and at the workers the run's estimated work pays for (a short run
forks fewer, or none), and only changes wall time, never output bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
from fractions import Fraction
from math import prod

from . import __version__
from .curves import (
    SingularCurveError,
    WeierstrassModel,
    curve_from_j,
    format_rational,
    j_invariant,
    quadratic_twist,
    zywina_j2,
)
from .density import (DEFAULT_TOL, CertifiedValue, density_report, frak_d_p, frak_d_p_prime,
                      sp_doubleprime_density)
from .finitefield import CensusResult, census_torsion_classes, d_count
from .harness import SampleSpec, estimate, kodaira_frequency
from .localdata import LocalData, _local_table, tate
from .quadforms import hurwitz_class_number
from .arith import FactorBudgetExceeded, InputError


def _fail(msg: str) -> SystemExit:
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(2)


def _parse_curve(text: str) -> WeierstrassModel:
    try:
        return WeierstrassModel.from_string(text)
    except ValueError as exc:
        raise InputError(f"bad curve spec: {exc}")


def _curve_report(model: WeierstrassModel) -> tuple[str, int, list[LocalData]]:
    """j, the conductor and the Tate data at every prime dividing Delta,
    which is factored once."""
    locs = [data for _, data in _local_table(model).values()]
    N = prod(d.prime**d.conductor_exponent for d in locs)
    return format_rational(j_invariant(model)), N, locs


def _emit(args, payload: Callable[[], dict], text_lines: list[str]) -> None:
    """Print payload() as JSON under --format json, else the text lines; the
    payload, which spells out every exact rational, is built only for JSON."""
    if args.format == "json":
        print(json.dumps(payload(), indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_local(args) -> int:
    model = _parse_curve(args.curve)
    if args.prime is not None:
        data = tate(model, args.prime)
        payload = {"curve": str(model), "local": [data.to_json_dict()]}
        lines = [
            f"curve {model}  at {args.prime}: {data.kodaira.label}  "
            f"c={data.tamagawa} f={data.conductor_exponent} "
            f"v(delta_min)={data.v_min_delta} {data.reduction}"
        ]
    else:
        j, N, locs = _curve_report(model)
        payload = {
            "curve": str(model),
            "j": j,
            "conductor": N,
            "local": [d.to_json_dict() for d in locs],
        }
        lines = [f"curve {model}", f"j = {j}", f"conductor = {N}"]
        for d in locs:
            lines.append(
                f"  ell={d.prime}: {d.kodaira.label}  c={d.tamagawa} "
                f"f={d.conductor_exponent} {d.reduction}"
            )
    _emit(args, lambda: payload, lines)
    return 0


def cmd_theory(args) -> int:
    try:
        tol = Fraction(args.tol)
    except (ValueError, ZeroDivisionError):  # not a number, or a zero denominator
        raise InputError(f"bad tolerance {args.tol!r}")
    rep = density_report(args.p, tol)
    lines = [
        f"p = {rep.p}",
        f"frak_d_p        in {rep.d_p}",
        f"frak_d_p'       = {format_rational(rep.d_p_prime)} = {float(rep.d_p_prime):.7g}",
        f"d(S_p'')        = {format_rational(rep.sp2_density)} = {float(rep.sp2_density):.7g}",
        f"main bound      in {rep.bound}",
        f"conjecture mass in {rep.conjecture_mass}",
    ]
    _emit(args, rep.to_json_dict, lines)
    return 0


def cmd_census(args) -> int:
    classes = census_torsion_classes(args.p).classes
    res = CensusResult(args.p, classes, d_count(args.p).d if args.with_d else None)
    lines = [f"p = {args.p}", f"classes with p | #E = {res.classes}"]
    if res.d is not None:
        lines.append(f"d(p) = {res.d}  (d/p^5 = {format_rational(res.d_over_p5)})")
    _emit(args, res.to_json_dict, lines)
    return 0


def cmd_hurwitz(args) -> int:
    cls = hurwitz_class_number(args.disc)
    lines = [f"H({args.disc}) = {cls.h}"]
    lines += [f"  ({f.a},{f.b},{f.c})" for f in cls.representatives]
    _emit(args, cls.to_json_dict, lines)
    return 0


def cmd_empirical(args) -> int:
    spec = SampleSpec(
        height=args.height,
        p=args.p,
        count=args.samples,
        exhaustive=args.exhaustive,
        seed=args.seed,
        chunk_size=args.chunk_size,
        z=args.z,
        wilson=args.wilson,
    )
    if args.kodaira_at is not None:
        rep = kodaira_frequency(spec, args.kodaira_at, threads=args.threads)
    else:
        rep = estimate(spec, dict(_theory_column(spec.p)), threads=args.threads)
    if args.format == "json":
        print(rep.to_json())
    else:
        sys.stdout.write(rep.to_csv())
    return 0


@functools.cache
def _theory_column(p: int) -> tuple[tuple[str, CertifiedValue], ...]:
    """The certified densities `empirical` reports beside its counts at p.

    Cached here rather than in `density`: a `theory` sweep over many p would
    fill a cache of `frak_d_p` with enclosures it never asks for again.
    """
    return (
        ("bad_at_p", CertifiedValue.exact(sp_doubleprime_density(p))),
        ("tamagawa_divisible", CertifiedValue(Fraction(0), frak_d_p(p).hi)),
        ("anomalous_good", CertifiedValue(Fraction(0), frak_d_p_prime(p))),
    )


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise InputError(f"bad range {text!r}; expected lo..hi")
    if hi_i < lo_i:
        raise InputError(f"empty range {text!r}")
    return lo_i, hi_i


def cmd_families(args) -> int:
    rows = []
    if args.family == "twist":
        if not args.base:
            raise InputError("--family twist needs --base")
        base = _parse_curve(args.base)
        lo, hi = _parse_range(args.range)
        for t in range(lo, hi + 1):
            try:
                E = quadratic_twist(base, t)
            except FactorBudgetExceeded:
                raise InputError(f"twist parameter {t} not factored within budget")
            except ValueError:
                continue  # t = 0 or not squarefree
            rows.append((str(t), E))
    else:
        lo, hi = _parse_range(args.range)
        for t in range(lo, hi + 1):
            if t == 0:
                continue
            j = zywina_j2(Fraction(t))
            # the conductor search factors the discriminant of every twist
            E = curve_from_j(
                j,
                minimize_conductor=args.min_search > 0,
                twist_bound=args.min_search,
            )
            rows.append((str(t), E))
    payload = []
    lines = []
    for t, E in rows:
        try:
            jstr, N, locs = _curve_report(E)
            locs = [d.to_json_dict() for d in locs]
        except SingularCurveError:
            N, locs, jstr = None, [], None
        payload.append({"t": t, "curve": str(E), "j": jstr, "conductor": N, "local": locs})
        lines.append(f"t={t}  curve={E}  j={jstr}  conductor={N}")
    _emit(args, lambda: {"family": args.family, "curves": payload}, lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one (and by `main`); parse_args keeps no state between calls, but
    a caller that adds arguments changes them for the whole process."""
    ap = argparse.ArgumentParser(
        prog="ellstat",
        description="Local invariants and height-ordered statistics of elliptic curves over Q.",
    )
    ap.add_argument("--version", action="version", version=f"ellstat {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("local", help="Tate data and conductor of one curve")
    p.add_argument("--curve", required=True,
                   help='coefficients "a1,a2,a3,a4,a6"; write --curve=-1,... when a1 < 0')
    p.add_argument("--prime", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("theory", help="density formulas and bounds at an odd prime")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--tol", default=str(DEFAULT_TOL))
    add_format(p)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("census", help="F_p isomorphism classes with p-torsion")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--with-d", action="store_true", help="also compute d(p)")
    add_format(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("hurwitz", help="class number H(disc) with representatives")
    p.add_argument("--disc", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_hurwitz)

    p = sub.add_parser("empirical", help="seeded sampling run classified at p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--samples", type=int, default=SampleSpec.count)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--seed", type=int, default=SampleSpec.seed)
    p.add_argument("--chunk-size", type=int, default=SampleSpec.chunk_size)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes, at most one per chunk and per CPU "
                        "this process may run on, and fewer for short runs, where "
                        "forking would cost more than it saves (default: 1)")
    p.add_argument("--z", type=float, default=SampleSpec.z)
    p.add_argument("--wilson", action="store_true")
    p.add_argument("--kodaira-at", type=int, default=None, metavar="ELL",
                   help="report the Kodaira-type distribution at ELL instead")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_empirical)

    p = sub.add_parser("families", help="quadratic twist / split-Cartan families")
    p.add_argument("--family", choices=("twist", "zywina"), required=True)
    p.add_argument("--base", default=None,
                   help="base curve for twists; write --base=-1,... when a1 < 0")
    p.add_argument("--range", required=True, help="t range lo..hi")
    p.add_argument("--min-search", type=int, default=0,
                   help="twist bound for the smallest-conductor search (zywina)")
    add_format(p)
    p.set_defaults(func=cmd_families)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        raise _fail(str(exc))
    except SingularCurveError as exc:
        raise _fail(f"singular: {exc}")
    except FactorBudgetExceeded:
        raise _fail("discriminant not factored within budget")
    except BrokenPipeError:
        return 0
    except Exception as exc:  # internal failure contract: exit 1
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
