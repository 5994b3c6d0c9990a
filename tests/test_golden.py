"""Golden stdout of every CLI command at small sizes, and the JSON of
prime_scan to 10^5 on the three reference curves.

Each case pins the exit code and the sha256 of the exact stdout bytes, so a
refactor of the counting, reporting or per-curve code that changes a single
byte of output fails here.  The hashes were recorded before the code they
guard was restructured; after an intended output change, re-record them and
say so in the change log.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from ellstat import harness
from ellstat.arith import primes_up_to
from ellstat.cli import main
from ellstat.curves import WeierstrassModel
from ellstat.localdata import prime_scan

E1 = "--curve=1,0,1,-141,624"
E2 = "--curve=0,0,0,-83667346875,-10711930420406250"
SAMPLE = ["empirical", "--p", "3", "--height", "30", "--samples", "600", "--seed", "7",
          "--chunk-size", "128"]
KODAIRA = SAMPLE + ["--kodaira-at", "2"]
TWIST = ["families", "--family", "twist", "--base=1,0,1,-141,624", "--range=-6..10"]

CASES = {
    "empirical-csv": SAMPLE,
    "empirical-json": SAMPLE + ["--format", "json"],
    "empirical-wilson-csv": SAMPLE + ["--wilson"],
    "empirical-wilson-json": SAMPLE + ["--wilson", "--format", "json"],
    "empirical-h1000-csv": ["empirical", "--p", "3", "--height", "1000", "--samples", "3000",
                            "--seed", "11", "--chunk-size", "1000"],
    "empirical-h50000-csv": ["empirical", "--p", "3", "--height", "50000", "--samples", "300",
                             "--seed", "5", "--chunk-size", "100"],
    "empirical-p7-csv": ["empirical", "--p", "7", "--height", "1000", "--samples", "6000",
                         "--seed", "13", "--chunk-size", "500"],
    "empirical-p5-csv": ["empirical", "--p", "5", "--height", "20", "--samples", "300",
                         "--seed", "3", "--z", "2.5"],
    "empirical-exhaustive-csv": ["empirical", "--p", "3", "--height", "1", "--exhaustive"],
    "empirical-exhaustive-json": ["empirical", "--p", "3", "--height", "1", "--exhaustive",
                                  "--format", "json"],
    "kodaira-csv": KODAIRA,
    "kodaira-json": KODAIRA + ["--format", "json"],
    "kodaira-wilson-csv": KODAIRA + ["--wilson"],
    "kodaira-ell3-json": ["empirical", "--p", "5", "--height", "200", "--samples", "1000",
                          "--seed", "2", "--kodaira-at", "3", "--format", "json"],
    "kodaira-ell5-csv": ["empirical", "--p", "3", "--height", "1000", "--samples", "3000",
                         "--seed", "17", "--chunk-size", "1000", "--kodaira-at", "5"],
    "kodaira-ell7-json": ["empirical", "--p", "3", "--height", "1000", "--samples", "3000",
                          "--seed", "19", "--chunk-size", "1000", "--kodaira-at", "7",
                          "--format", "json"],
    "kodaira-h2-exhaustive-csv": ["empirical", "--p", "3", "--height", "2", "--exhaustive",
                                  "--kodaira-at", "2", "--threads", "2"],
    "kodaira-h50000-csv": ["empirical", "--p", "3", "--height", "50000", "--samples", "20000",
                           "--seed", "23", "--chunk-size", "1000", "--kodaira-at", "2"],
    "kodaira-h1e6-json": ["empirical", "--p", "3", "--height", "1000000", "--samples", "20000",
                          "--seed", "29", "--chunk-size", "1000", "--kodaira-at", "2",
                          "--threads", "2", "--format", "json"],
    "empirical-h1e6-csv": ["empirical", "--p", "3", "--height", "1000000", "--samples", "3000",
                           "--seed", "31", "--chunk-size", "500"],
    "local-text": ["local", E1],
    "local-json": ["local", E1, "--format", "json"],
    "local-additive-text": ["local", E2],
    "local-additive-json": ["local", E2, "--format", "json"],
    "local-negative-a1-text": ["local", "--curve=-1,0,1,-141,624"],
    "local-prime-text": ["local", E1, "--prime", "2"],
    "local-prime-json": ["local", E1, "--prime", "71", "--format", "json"],
    "theory-3-text": ["theory", "--p", "3"],
    "theory-3-json": ["theory", "--p", "3", "--format", "json"],
    "theory-5-text": ["theory", "--p", "5"],
    "theory-5-json": ["theory", "--p", "5", "--format", "json"],
    "census-5-text": ["census", "--p", "5", "--with-d"],
    "census-5-json": ["census", "--p", "5", "--with-d", "--format", "json"],
    "census-7-text": ["census", "--p", "7", "--with-d"],
    "census-7-json": ["census", "--p", "7", "--with-d", "--format", "json"],
    "census-3-json": ["census", "--p", "3", "--format", "json"],
    "hurwitz-text": ["hurwitz", "--disc", "-27"],
    "hurwitz-json": ["hurwitz", "--disc", "-48", "--format", "json"],
    "families-twist-text": TWIST,
    "families-twist-json": TWIST + ["--format", "json"],
    "families-zywina-text": ["families", "--family", "zywina", "--range", "1..6"],
    "families-zywina-json": ["families", "--family", "zywina", "--range", "1..6",
                             "--minimal-twist", "--format", "json"],
    # the discriminants of this range hold the cubes of six composite numbers
    # above 10^8, so factorize splits them with Pollard-Brent
    "families-zywina-cubes-text": ["families", "--family", "zywina", "--range=9991..10000"],
    "families-zywina-cubes-json": ["families", "--family", "zywina", "--range=9991..10000",
                                   "--format", "json"],
}

GOLDEN = {
    "empirical-csv": (0, "1de50cfee5887b2443a75d2f3c1e8e55e8899bf05c32e7c9dad2ef051a898b27"),
    "empirical-json": (0, "449fefe422f122651690fa1680919a5ddf11d2be2ebad05cb22d45d1f7b6b4d6"),
    "empirical-wilson-csv": (0, "eb574e590d27393c5ed711515527208fc3b8bd78489bff6e90f93dcc131e752f"),
    "empirical-wilson-json": (0, "0f60ce1b300d2f2c4d0ccd3c9297829694db88541f65731236425df6f027eb89"),
    "empirical-h1000-csv": (0, "f6ddab7cb9cddefa23d8c6d5875bd97d8b364e5a3add271e5f5ff17733c5ac80"),
    "empirical-h50000-csv": (0, "c3a3c57efcb1d33c1be71fb51eb17eeb990172159f7d80a375368684112a89de"),
    "empirical-p7-csv": (0, "f41306ebb81cfa8e29c6f76ae2e95755829fa118702517c11c090382b686d655"),
    "empirical-p5-csv": (0, "82b685029908c3d609c33083bb866e12f239fbb1cf50e424bfc649c165d4bfea"),
    "empirical-exhaustive-csv": (0, "dd974dcacfd4e56b4c38e38896840531e432b80f7532f437d9e10543860e239e"),
    "empirical-exhaustive-json": (0, "18edfd601cd4a45feb7b92179a00752414b14bc2f66ae2b6e46dff5c843e91db"),
    "kodaira-csv": (0, "59f210ca3f464cb0a2d4e09619bc5c2d62b98268c45ae46a8ebd13a3f913252e"),
    "kodaira-json": (0, "6b06a5ee96d9584c179f80ef93e5042c12e57acbac8cf7ecb29e175078747d88"),
    "kodaira-wilson-csv": (0, "d59d08a94749292ce8ff037dd55ecd13d50841e9602884536ab727cfacb385f9"),
    "kodaira-ell3-json": (0, "a312aa603c35092cd2db6f75b5f3a7a38fe2de8ba73360022b6896352813172d"),
    "kodaira-ell5-csv": (0, "c2a794af2ee20cdb5a2d52dce86852c51125185b2a2ae759aaffb78714b47f7b"),
    "kodaira-ell7-json": (0, "8d8824eb98f7a3540e18cebd697c4189a1ae4a7de5b1e793ac96ec387f72964c"),
    "kodaira-h2-exhaustive-csv": (0, "c75dace20b857d09c201dbfe4c3a479b5f39e3baea1e1c5cb15c08a4236acd58"),
    "kodaira-h50000-csv": (0, "9fe209c37a7124f43d52ed898e61f869d427c94e99e455b72f8872d359c2a145"),
    "kodaira-h1e6-json": (0, "c2e46c809c1076ba4442f16418886fe7503efd38850691789d36e722ff88a574"),
    "empirical-h1e6-csv": (0, "04847141958fb0ee2452844705c28bafae0b676622f43e245c26bf288d301268"),
    "local-text": (0, "f2eea18f503aa33d1c8e8c052134842e68e8f58f1b2b80f59464d05184e41e84"),
    "local-json": (0, "8a4e8edc772fae575ca379cff22493c368f7808472fff19f7ee92a4af93e4bf1"),
    "local-additive-text": (0, "370afca4b795f1a4ee90e7e4169e63a9ce66ea3f5ebc2c9573d80266f4d54b65"),
    "local-additive-json": (0, "d63e455d5d928d5040a3065bd7378ec6d867e7fa69fab97bcc5150eb25d2dd52"),
    "local-negative-a1-text": (0, "a7ceacd4b35cd81244491a8c20de468a02b0bfc32160f6472e96d0e85ede10f6"),
    "local-prime-text": (0, "64faa60ca71e6edb221b5cc4ba5c9adbcc7c7d707b4cf075c9ad29e74d2a7554"),
    "local-prime-json": (0, "3fc7ed3804d9cf42f7bfb7f0970334f4148c2b9a007a1393c55524c529b2c554"),
    "theory-3-text": (0, "3c25c91b8d56f8934953cc2943de99b05736c029a2ca6e2e1f62fabf244a343d"),
    "theory-3-json": (0, "e9dfdfcaf0ca0ad03198fd45cf7ae234d2110e5b641fccab43402fa20814a140"),
    "theory-5-text": (0, "782d9b419f5671f37479769883e4c1894831ae3d05e5dab72d4803becef2b769"),
    "theory-5-json": (0, "7ca7610746455cbe29a3497cc2f773bae8883a53ab4b709f704b78676da434c6"),
    "census-5-text": (0, "77b5d633cb7a0bfb8622d0df4eea3ecd1187eba721330a7a1e283d2896598e5d"),
    "census-5-json": (0, "3eec674481b86d96eaf9a3ed37e2cc6d1e3ade74878cd2e466e294bd68704d9b"),
    "census-7-text": (0, "df0705b2c22a48fb1ea0a1917910b634eb89f80b9879d473397baebff1341495"),
    "census-7-json": (0, "d6d2fb76390ff4aeb1f25e011875112d448005bca0bd8b57867ba358e4887714"),
    "census-3-json": (0, "70382865861dadd88e9441ed8b3fcbbece8df22c4b74fcf869faa88c758ae487"),
    "hurwitz-text": (0, "c9d1fd2ebe02f2cd0f9ede4d879bae64ebd7e68456a7d256705f14798a819922"),
    "hurwitz-json": (0, "bdcc26b4f454a2f76701c6f5bacbeb1f982cb4e4561aab0f72addee599e6b461"),
    "families-twist-text": (0, "859981163611a746352a3baa28eba6e369cbbfcac00a59b0c181c5d65b90a2ae"),
    "families-twist-json": (0, "485c686100135c1bb6a0ffa013d0773a0c497dd5d537139cea602dc7101de0b6"),
    "families-zywina-text": (0, "7b011f292ae19ddc269138f727e370e52776dc31ad88c6253a2489c69b8a2d33"),
    "families-zywina-json": (0, "92723b12c13183d625ac6f0f9316c5700682a338b1c0482a4cd5e2d7207f770f"),
    "families-zywina-cubes-text": (0, "1f5c2101edd0feba02ff57e252e780833a5c82d3ac3d4e9635fa2b79f8df9ee9"),
    "families-zywina-cubes-json": (0, "0fe1b053ad23c765f59aba4279ce25a349692b7d2a06b233ba1f7eab8e90800d"),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    assert _run(CASES[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", ["empirical-csv", "empirical-json", "kodaira-csv", "kodaira-json"])
def test_golden_stdout_independent_of_threads(name):
    for threads in ("1", "3"):
        assert _run(CASES[name] + ["--threads", threads]) == GOLDEN[name]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("name", ["empirical-csv", "empirical-json", "kodaira-csv", "kodaira-json"])
def test_golden_stdout_on_forked_workers(monkeypatch, name):
    # these calls are too short to pay for a fork, so the test above may run
    # them in one process.  Here a fork costs nothing and three CPUs are
    # faked (with pinning a no-op), so --threads 3 forks two workers.
    monkeypatch.setattr(harness, "_FORK_US", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    assert _run(CASES[name] + ["--threads", "3"]) == GOLDEN[name]
    assert len(forks) == 2


def test_golden_stdout_replayed_in_reverse():
    # main reuses one parser and caches per-p theory values across calls, so
    # an option or value left over from one call would change a later pin
    names = sorted(CASES, reverse=True)
    assert [(name, _run(CASES[name])) for name in names] == [(name, GOLDEN[name]) for name in names]


# sha256 of the concatenated stdout of `theory --p q --format json` over every
# odd prime q up to 14177, the largest p whose report `theory` prints
THEORY_SWEEP_SHA256 = "6335381ef5cfaa3965c449badca68e07c1a1dbf95f68640da3d5754d838e50aa"


def test_theory_json_sweep_to_largest_reported_prime():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes = {main(["theory", "--p", str(q), "--format", "json"])
                 for q in primes_up_to(14177)[1:]}
    assert codes == {0}
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == THEORY_SWEEP_SHA256


# sha256 of json.dumps(prime_scan(E, 10**5).to_json_dict(), sort_keys=True),
# as the benchmark serialises a scan: one row per odd prime to 10^5, so a
# change in the point-count kernel that flips one anomalous flag fails here
PRIME_SCAN_SHA256 = {
    (1, 0, 1, -141, 624): "75e3874d67c248a7c98214c7f2d55802e0a780ca40667df621b9f2894749cd02",
    (0, 0, 0, -83667346875, -10711930420406250):
        "885d1e79e9ab6b063a425f039414160fd4c05bc0ff4fb1f73606e6900f698125",
    (0, 1, 0, -2, -8): "32068f3b5bc35d4f2d2038c8cc2563b7cc1bf067aaa43e9d53e9d0631eea5e6d",
}


@pytest.mark.parametrize("curve", PRIME_SCAN_SHA256, ids=["E1", "E2", "E3"])
def test_prime_scan_json_to_1e5(curve):
    report = prime_scan(WeierstrassModel(*curve), 10**5)
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PRIME_SCAN_SHA256[curve]
