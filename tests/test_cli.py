import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellstat.arith import FactorBudgetExceeded
from ellstat.cli import main


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


def test_module_entry_point_matches_in_process_call(capsys):
    argv = ["theory", "--p", "3", "--format", "json"]
    _, in_process, _ = run_cli(capsys, *argv)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ellstat.cli", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == in_process.encode()


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
    assert _exit_code(capsys, "census", "--p", "17", "--with-d") == 2


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
                 ["families", "--family", "zywina", "--range", "1..2", "--min-search", "1"],
                 ["families", "--family", "twist", "--base=1,0,1,-141,624", "--range", "2..3"]):
        assert _exit_code(capsys, *args) == 2


@pytest.mark.parametrize("threads", ["-2", "0"])
def test_nonpositive_threads_exit_2(capsys, threads):
    assert _exit_code(capsys, *SMALL_RUN, "--threads", threads) == 2


def test_non_integer_env_threads_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("ELLSTAT_THREADS", "abc")
    assert _exit_code(capsys, *SMALL_RUN) == 2


def test_env_threads_used_when_flag_absent(capsys, monkeypatch):
    code, serial, _ = run_cli(capsys, *SMALL_RUN)
    monkeypatch.setenv("ELLSTAT_THREADS", "2")
    assert run_cli(capsys, *SMALL_RUN) == (code, serial, "")

