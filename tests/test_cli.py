import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellstat.arith import FactorBudgetExceeded
from ellstat.cli import main
from ellstat.quadforms import hurwitz_class_number


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_local_conductor(capsys):
    code, out, _ = run_cli(capsys, "local", "--curve", "1,0,1,-141,624")
    assert code == 0
    assert "conductor = 10082" in out


def test_local_json(capsys):
    code, out, _ = run_cli(capsys, "local", "--curve", "1,0,1,-141,624", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["conductor"] == 10082
    assert payload["j"] == "857375/8"
    assert {d["prime"] for d in payload["local"]} == {2, 71}


def test_local_single_prime(capsys):
    code, out, _ = run_cli(capsys, "local", "--curve", "0,1,0,-2,-8", "--prime", "5")
    assert code == 0
    assert "I0" in out and "c=1" in out


def test_local_singular_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "local", "--curve", "0,0,0,0,0")
    assert exc.value.code == 2
    assert "singular" in capsys.readouterr().err


def test_local_bad_curve_string(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "local", "--curve", "1,2")
    assert exc.value.code == 2


def test_theory_p3(capsys):
    code, out, _ = run_cli(capsys, "theory", "--p", "3")
    assert code == 0
    assert "2/9" in out
    assert "0.0543" in out


def test_theory_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "theory", "--p", "5", "--format", "json")
    payload = json.loads(out)
    assert payload["frak_d_p_prime"] == "4/25"
    lo, hi = payload["main_bound"]["lo"], payload["main_bound"]["hi"]
    assert "/" in lo and "/" in hi


def test_theory_text_builds_no_json_payload(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("JSON payload built for text output")

    monkeypatch.setattr("ellstat.density.DensityBoundReport.to_json_dict", refuse)
    code, out, _ = run_cli(capsys, "theory", "--p", "3")
    assert code == 0 and out.startswith("p = 3")


def test_theory_json_builds_no_text_line(capsys, monkeypatch):
    _, want, _ = run_cli(capsys, "theory", "--p", "3", "--format", "json")

    def refuse(self):
        raise AssertionError("text line built for JSON output")

    monkeypatch.setattr("ellstat.density.CertifiedValue.__str__", refuse)
    code, out, _ = run_cli(capsys, "theory", "--p", "3", "--format", "json")
    assert code == 0 and out == want


def _run_python(*args):
    """A fresh interpreter with this checkout's src first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)


def test_module_entry_point_matches_in_process_call(capsys):
    argv = ["theory", "--p", "3", "--format", "json"]
    _, in_process, _ = run_cli(capsys, *argv)
    proc = _run_python("-m", "ellstat.cli", *argv)
    assert proc.returncode == 0
    assert proc.stdout == in_process.encode()


def test_imports_only_the_standard_library():
    # site may load third-party modules before ellstat is imported, so only
    # the modules that the import itself adds are checked
    proc = _run_python("-c", "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import ellstat, ellstat.cli",
        "tops = {name.partition('.')[0] for name in set(sys.modules) - before}",
        "import json",
        "print(json.dumps(sorted(tops - {'ellstat'} - set(sys.stdlib_module_names))))",
    ]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_theory_rejects_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "theory", "--p", "2")
    assert exc.value.code == 2


def test_census_matches_hurwitz(capsys):
    code, out, _ = run_cli(capsys, "census", "--p", "7", "--format", "json")
    classes = json.loads(out)["classes"]
    code, out, _ = run_cli(capsys, "hurwitz", "--disc", "-27", "--format", "json")
    assert classes == json.loads(out)["H"] == 2


def test_hurwitz_text(capsys):
    code, out, _ = run_cli(capsys, "hurwitz", "--disc", "-27")
    assert "H(-27) = 2" in out
    assert "(1,1,7)" in out and "(3,3,3)" in out


def test_hurwitz_invalid_disc(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "hurwitz", "--disc", "-5")
    assert exc.value.code == 2


def test_empirical_csv_deterministic(capsys):
    args = [
        "empirical", "--p", "3", "--height", "40", "--samples", "600",
        "--seed", "42", "--chunk-size", "128",
    ]
    code, out1, _ = run_cli(capsys, *args, "--threads", "1")
    assert code == 0
    code, out2, _ = run_cli(capsys, *args, "--threads", "4")
    assert out1 == out2
    assert out1.startswith("# seed=42")
    assert "flag,count,N,proportion" in out1


def test_empirical_validates_input(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "empirical", "--p", "3", "--height", "40")
    assert exc.value.code == 2  # no sample count and not exhaustive


def test_empirical_kodaira_mode(capsys):
    code, out, _ = run_cli(
        capsys, "empirical", "--p", "3", "--height", "30", "--samples", "400",
        "--seed", "1", "--kodaira-at", "2", "--format", "json",
    )
    payload = json.loads(out)
    labels = {r["label"] for r in payload["rows"]}
    assert "I0" in labels


def test_families_twist(capsys):
    code, out, _ = run_cli(
        capsys, "families", "--family", "twist", "--base", "1,0,1,-141,624",
        "--range", "1..20", "--format", "json",
    )
    payload = json.loads(out)
    ts = [int(c["t"]) for c in payload["curves"]]
    assert ts == [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19]  # squarefree only
    for c in payload["curves"]:
        assert c["j"] == "857375/8"
        assert c["conductor"] % 10082 == 0 or 10082 % c["conductor"] == 0 or c["conductor"] > 0


def test_families_twist_requires_base(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "families", "--family", "twist", "--range", "1..5")
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "text, message",
    [("5", "bad range '5'; expected lo..hi"), ("3..1", "empty range '3..1'")],
)
def test_families_bad_range_exits_2(capsys, text, message):
    with pytest.raises(SystemExit) as exc:
        main(["families", "--family", "zywina", "--range", text])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("family, lo, widest", [("zywina", 0, 2000), ("twist", 0, 2000)])
def test_families_range_bound_edges(capsys, family, lo, widest):
    from ellstat.arith import InputError
    from ellstat.cli import _family_range

    assert _family_range(f"{lo - 3}..{lo + widest - 4}") == range(lo - 3, lo + widest - 3)
    with pytest.raises(InputError, match=f"at most {widest} are accepted"):
        _family_range(f"{lo - 3}..{lo + widest - 3}")
    # each family refuses the over-wide range before it builds a curve
    with pytest.raises(SystemExit) as exc:
        main(["families", "--family", family, "--base", "1,0,1,-141,624",
              "--range", f"{lo}..{lo + widest}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error: range '{lo}..{lo + widest}' spans {widest + 1} values of t; "
        f"at most {widest} are accepted\n"
    )


def test_families_twist_of_singular_base_reports_no_invariants(capsys):
    code, out, _ = run_cli(
        capsys, "families", "--family", "twist", "--base", "0,0,0,0,0",
        "--range", "1..2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["curves"] == [
        {"t": t, "curve": "0,0,0,0,0", "j": None, "conductor": None, "local": []}
        for t in ("1", "2")
    ]
    code, out, _ = run_cli(
        capsys, "families", "--family", "twist", "--base", "0,0,0,0,0", "--range", "1..2"
    )
    assert code == 0
    assert out == (
        "t=1  curve=0,0,0,0,0  j=None  conductor=None\n"
        "t=2  curve=0,0,0,0,0  j=None  conductor=None\n"
    )


def test_families_zywina(capsys):
    code, out, _ = run_cli(
        capsys, "families", "--family", "zywina", "--range", "1..4", "--format", "json"
    )
    payload = json.loads(out)
    by_t = {c["t"]: c for c in payload["curves"]}
    assert by_t["3"]["j"] == "0"
    assert by_t["1"]["j"] == "-1728"
    assert all(c["conductor"] for c in payload["curves"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _exit_code(capsys, *args):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert capsys.readouterr().err.startswith("error:")
    return exc.value.code


@pytest.mark.parametrize("p", ["9", "15"])
def test_composite_p_exits_2(capsys, p):
    assert _exit_code(capsys, "theory", "--p", p) == 2
    assert _exit_code(capsys, "census", "--p", p, "--with-d") == 2


def test_census_d_out_of_range_exits_2(capsys):
    assert _exit_code(capsys, "census", "--p", "65537", "--with-d") == 2


def test_census_with_d_above_2_10(capsys):
    code, out, _ = run_cli(capsys, "census", "--p", "1031", "--with-d", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["classes"] == hurwitz_class_number(1 - 4 * 1031).h and data["d"] > 0


def test_theory_nonpositive_tol_exits_2(capsys):
    assert _exit_code(capsys, "theory", "--p", "3", "--tol", "0") == 2


@pytest.mark.parametrize("tol", ["1/0", "0/0", "abc"])
def test_theory_unparsable_tol_exits_2(capsys, tol):
    assert _exit_code(capsys, "theory", "--p", "3", "--tol", tol) == 2


@pytest.mark.parametrize("tol", ["1e-20", "1e-400"])
def test_theory_tiny_tol_exits_2(capsys, tol):
    # zeta(3) would need about tol^(-1/2) terms; the cap refuses them up front
    assert _exit_code(capsys, "theory", "--p", "3", "--tol", tol) == 2


def test_theory_tol_below_floor_exits_2(capsys):
    # zeta(10007) needs two terms, but the conjecture-mass product at this
    # tolerance would print as a rational of tens of thousands of digits
    assert _exit_code(capsys, "theory", "--p", "10007", "--tol", "1e-400") == 2


def test_theory_tol_at_floor_answers(capsys):
    code, out, _ = run_cli(capsys, "theory", "--p", "10007", "--tol", "1e-100", "--format", "json")
    assert code == 0
    assert json.loads(out)["p"] == 10007


@pytest.mark.parametrize("tol", ["1/1000000000", "1e-100"])
def test_theory_largest_reported_prime_answers(capsys, tol):
    code, out, _ = run_cli(capsys, "theory", "--p", "14177", "--tol", tol, "--format", "json")
    assert code == 0
    assert json.loads(out)["p"] == 14177


def test_theory_beyond_largest_reported_prime_exits_2(capsys):
    # the main bound at 14197 would print a denominator of 4303 digits
    assert _exit_code(capsys, "theory", "--p", "14197") == 2


def test_hurwitz_beyond_disc_bound_exits_2(capsys):
    assert _exit_code(capsys, "hurwitz", "--disc", "-1000000003") == 2


def test_local_composite_prime_exits_2(capsys):
    assert _exit_code(capsys, "local", "--curve=1,0,1,-141,624", "--prime", "4") == 2


SMALL_RUN = ["empirical", "--p", "3", "--height", "10", "--samples", "50"]


def test_kodaira_at_composite_exits_2(capsys):
    assert _exit_code(capsys, *SMALL_RUN, "--kodaira-at", "4") == 2


def test_empirical_p_below_2_16(capsys):
    # 65537 is the first prime past the point-count range, 65521 the last inside
    tiny = ["empirical", "--height", "10", "--samples", "5"]
    assert _exit_code(capsys, *tiny, "--p", "65537") == 2
    code, out, _ = run_cli(capsys, *tiny, "--p", "65521")
    assert code == 0 and "# p=65521" in out


@pytest.mark.parametrize("z", ["-1", "0", "nan", "inf"])
def test_bad_z_exits_2(capsys, z):
    assert _exit_code(capsys, *SMALL_RUN, f"--z={z}") == 2


def test_unfactored_discriminant_exits_2(capsys, monkeypatch):
    def give_up(n, **kwargs):
        raise FactorBudgetExceeded(f"no factor of {n} within budget")

    monkeypatch.setattr("ellstat.localdata.factorize", give_up)
    monkeypatch.setattr("ellstat.curves.factorize", give_up)
    for args in (["local", "--curve=1,0,1,-141,624"],
                 ["families", "--family", "zywina", "--range", "1..2"],
                 ["families", "--family", "zywina", "--range", "1..2", "--minimal-twist"],
                 ["families", "--family", "twist", "--base=1,0,1,-141,624", "--range", "2..3"]):
        assert _exit_code(capsys, *args) == 2


@pytest.mark.parametrize("threads", ["-2", "0"])
def test_nonpositive_threads_exit_2(capsys, threads):
    assert _exit_code(capsys, *SMALL_RUN, "--threads", threads) == 2


def test_env_threads_is_ignored(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, *SMALL_RUN)
    assert code == 0
    monkeypatch.setenv("ELLSTAT_THREADS", "abc")
    assert run_cli(capsys, *SMALL_RUN) == (0, out, "")



def test_zywina_skips_t_zero(capsys):
    # j2 has a pole at t = 0, so the range -1..1 gives two curves
    code, out, _ = run_cli(
        capsys, "families", "--family", "zywina", "--range=-1..1", "--format", "json"
    )
    assert code == 0
    assert [c["t"] for c in json.loads(out)["curves"]] == ["-1", "1"]


# (argv, stderr) of invalid invocations, one or more for each exit-2 branch
# of each command; each exits 2 with nothing on stdout
INVALID = [
    ("local --curve 0,0,0,0,0",
     "error: singular: singular model has no bad-prime set\n"),
    ("local --curve 0,0,0,0,0 --prime 5",
     "error: singular: Tate's algorithm needs a nonsingular curve\n"),
    ("local --curve 1,2",
     "error: bad curve spec: expected 5 comma-separated integers, got '1,2'\n"),
    ("local --curve=1,0,1,-141,624 --prime 4",
     "error: 4 is not prime\n"),
    ("local --curve 0,0,0,0,0 --prime 4",
     "error: 4 is not prime\n"),
    ("theory --p 9",
     "error: p must be an odd prime, got 9\n"),
    ("theory --p 14197",
     "error: p must be at most 14177: the exact bounds at larger p have more than 4300 digits\n"),
    ("theory --p 3 --tol 0",
     "error: tol must be positive\n"),
    ("theory --p 3 --tol 1/0",
     "error: bad tolerance '1/0'\n"),
    ("theory --p 3 --tol 1e-20",
     "error: tol too small: zeta(3) needs more than 4194304 terms\n"),
    ("theory --p 10007 --tol 1e-400",
     "error: tol must be at least 10^-100\n"),
    ("census --p 15 --with-d",
     "error: p must be an odd prime, got 15\n"),
    ("census --p 65537",
     "error: p must be below 2^16, the point-count range\n"),
    ("hurwitz --disc 5",
     "error: discriminant must be negative\n"),
    ("hurwitz --disc -5",
     "error: discriminant must be 0 or 1 mod 4\n"),
    ("hurwitz --disc -1000000003",
     "error: |discriminant| must be at most 1000000000\n"),
    ("empirical --p 3 --height 10",
     "error: sample count must be positive\n"),
    ("empirical --p 65537 --height 10 --samples 50",
     "error: p must be below 2^16, the point-count range\n"),
    ("empirical --p 3 --height 0 --samples 5",
     "error: height must lie in [1, 10^6]\n"),
    ("empirical --p 3 --height 10 --samples 50 --seed -1",
     "error: seed must be a 64-bit integer\n"),
    ("empirical --p 3 --height 10 --samples 50 --chunk-size 0",
     "error: chunk size must be positive\n"),
    ("empirical --p 3 --height 10 --samples 50 --z=nan",
     "error: z must be positive and finite\n"),
    ("empirical --p 3 --height 100 --exhaustive",
     "error: exhaustive box exceeds 10^7 tuples\n"),
    ("empirical --p 3 --height 2 --exhaustive --samples 5",
     "error: an exhaustive run takes no sample count\n"),
    ("empirical --p 3 --height 10 --samples 50 --threads 0",
     "error: worker count must be a positive integer, got 0\n"),
    ("empirical --p 3 --height 10 --samples 50 --kodaira-at 4",
     "error: 4 is not prime\n"),
    ("empirical --p 3 --height 10 --samples 50 --kodaira-at 4 --threads 0",
     "error: worker count must be a positive integer, got 0\n"),
    ("families --family twist --range 1..5",
     "error: --family twist needs --base\n"),
    ("families --family twist --base 1,2 --range 1..2",
     "error: bad curve spec: expected 5 comma-separated integers, got '1,2'\n"),
    ("families --family zywina --range 1..2001",
     "error: range '1..2001' spans 2001 values of t; at most 2000 are accepted\n"),
    ("families --family twist --base 1,0,1,-141,624 --range 1..2001",
     "error: range '1..2001' spans 2001 values of t; at most 2000 are accepted\n"),
    ("families --family zywina --range 1..2001 --minimal-twist",
     "error: range '1..2001' spans 2001 values of t; at most 2000 are accepted\n"),
    ("families --family twist --base 1,0,1,-141,624 --range 1..2 --minimal-twist",
     "error: --minimal-twist applies only to --family zywina\n"),
]


@pytest.mark.parametrize("argv, err", INVALID, ids=[argv for argv, _ in INVALID])
def test_invalid_input_stderr_pinned(capsys, argv, err):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv, err", [
    ("local --curve=1,0,1,-141,624", "error: discriminant not factored within budget\n"),
    ("families --family zywina --range 1..2 --minimal-twist",
     "error: discriminant not factored within budget\n"),
    ("families --family twist --base=1,0,1,-141,624 --range 2..3",
     "error: twist parameter 2 not factored within budget\n"),
])
def test_unfactored_discriminant_stderr_pinned(capsys, monkeypatch, argv, err):
    def give_up(n, **kwargs):
        raise FactorBudgetExceeded(f"no factor of {n} within budget")

    monkeypatch.setattr("ellstat.localdata.factorize", give_up)
    monkeypatch.setattr("ellstat.curves.factorize", give_up)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("call, argv", [
    ("density_report", ["theory", "--p", "3"]),
    ("census_torsion_classes", ["census", "--p", "7"]),
    ("hurwitz_class_number", ["hurwitz", "--disc", "-7"]),
    ("estimate", SMALL_RUN),
    ("tate", ["local", "--curve=1,0,1,-141,624", "--prime", "5"]),
])
def test_internal_value_error_exits_1(capsys, monkeypatch, call, argv):
    # only an InputError is the caller's fault; any other ValueError raised
    # inside the library is a fault of the program
    def fault(*args, **kwargs):
        raise ValueError("injected fault")

    monkeypatch.setattr(f"ellstat.cli.{call}", fault)
    assert run_cli(capsys, *argv) == (1, "", "internal error: injected fault\n")


def test_broken_pipe_exits_0(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["hurwitz", "--disc", "-7"]) == 0
    assert capsys.readouterr().err == ""


def _outcome(capsys, monkeypatch, parse, argv):
    """(exit code, stdout, stderr, repr of each parsed namespace's vars) of
    main(argv) with parse in place of its parser; a repr, as --z=nan parses
    to a float unequal to itself."""
    import ellstat.cli

    parsed = []

    def spy(args):
        parsed.append(parse(args))
        return parsed[-1]

    monkeypatch.setattr(ellstat.cli, "_parse", spy)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, [repr(vars(ns)) for ns in parsed]


def _golden_argvs():
    from test_golden import CASES

    return [CASES[name] for name in sorted(CASES)]


E1_CURVE = "--curve=1,0,1,-141,624"
DISPATCH = [argv.split() for argv, _ in INVALID] + [
    ["local"],
    ["local", "--curve=", "1,0,1,-141,624"],
    ["local", E1_CURVE, "--form", "json"],
    ["local", "-h"],
    ["--version"],
    ["frob"],
    [],
    ["local", E1_CURVE, "--version"],
    # the full parser's own scan of argv rejects "--=" (and "-=" on 3.13)
    # as an ambiguous option before the subparser runs
    ["local", E1_CURVE, "--=json"],
    ["local", E1_CURVE, "-=json"],
    ["local", "--", E1_CURVE],
    ["theory", "--p", "3", "--p", "5", "--format", "json"],
    ["--version", "local", E1_CURVE],
] + _golden_argvs()


@pytest.mark.parametrize("argv", DISPATCH, ids=[" ".join(a) or "<empty>" for a in DISPATCH])
def test_dispatch_matches_full_parser(capsys, monkeypatch, argv):
    from ellstat import cli

    real = cli._parse
    want = _outcome(capsys, monkeypatch, lambda a: cli.build_parser().parse_args(a), argv)
    assert _outcome(capsys, monkeypatch, real, argv) == want
