"""Byte-exact CLI outputs against the files in tests/golden/.

Each case is one command line, checked in both output formats: stdout
must equal tests/golden/<case>.json and tests/golden/<case>.table.txt
byte for byte.  The criterion-6 grid is large, so only the SHA-256 of
its JSON output is stored (tests/golden/<case>.json.sha256).  The
`selftest` stdout is stored in tests/golden/selftest.txt with every
timing masked, since only the timings vary from run to run.

After a deliberate output change, regenerate every file with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import os
import pathlib
import re
import sys
from contextlib import redirect_stdout

import pytest

import logpair.cli
from logpair.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIX = "fixtures"

CASES = {
    "peel_d4_fork": ["peel", f"{FIX}/d4_fork.json"],
    "peel_sextic": ["peel", f"{FIX}/sextic_graph.json"],
    # a negative definite star whose bark has a zero hub coefficient
    "peel_fork_not_log_terminal": ["peel",
                                   f"{FIX}/fork_not_log_terminal.json"],
    "zariski_one_point": ["zariski", f"{FIX}/one_point_model.json",
                          "--class", "1,2", "--candidates",
                          f"{FIX}/one_point_candidates.json"],
    "zariski_sextic_thirds": ["zariski", f"{FIX}/sextic_model.json",
                              "--class", "3,-1,-1,-1,-1,-1,-1,-1,-1",
                              "--candidates",
                              f"{FIX}/sextic_candidates.json"],
    "invariants_sextic": ["invariants", f"{FIX}/sextic_model.json",
                          f"{FIX}/sextic_graph.json",
                          "--class", "6,-2,-2,-2,-2,-2,-2,-2,-2"],
    "pencil_sextic": ["pencil", f"{FIX}/sextic_model.json",
                      "--divisor", "6,-2,-2,-2,-2,-2,-2,-2,-2",
                      "--candidates", f"{FIX}/sextic_candidates.json"],
    # the ex4 instance g=2, e=0, x=8, y=1 on hirzebruch(0, 4g+4)
    "pencil_ruled_g2": ["pencil", f"{FIX}/ruled_g2_model.json",
                        "--divisor", ",".join(["8", "1"] + ["-2"] * 12),
                        "--candidates", f"{FIX}/ruled_g2_candidates.json"],
    "example_ex2": ["example", "run", "ex2"],
    "example_ex3_a2": ["example", "run", "ex3", "--a", "2"],
    "example_ex3_a3": ["example", "run", "ex3", "--a", "3"],
    "example_ex3_a4": ["example", "run", "ex3", "--a", "4"],
    "example_ex3_a5": ["example", "run", "ex3", "--a", "5"],
    "example_ex3_a6": ["example", "run", "ex3", "--a", "6"],
    "example_ex3_a40": ["example", "run", "ex3", "--a", "40"],
    "search_ex4_reference": ["search", "ex4", "--g", "10:10",
                             "--x", "8:8", "--y", "1:1"],
    "search_ex4_small": ["search", "ex4", "--g", "8:12",
                         "--x", "5:9", "--y", "0:2"],
}

# JSON output only, stored as a digest
HASHED = {
    "search_ex4_criterion6": ["search", "ex4", "--g", "8:40",
                              "--x", "5:12", "--y", "0:5"],
}

TIMING = re.compile(r"\d+\.\d{3}s")


def _stdout(argv: list) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"exit {code} for {argv}"
    return buf.getvalue().encode("utf-8")


def _selftest_masked() -> bytes:
    return TIMING.sub("#.###s", _stdout(["selftest"]).decode()).encode()


def _expected():
    for name, argv in CASES.items():
        yield f"{name}.json", argv
        yield f"{name}.table.txt", argv + ["--format", "table"]


@pytest.fixture(autouse=True)
def _repo_cwd(monkeypatch):
    # fixture paths in CASES are relative to the repository root
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("filename,argv", list(_expected()),
                         ids=[f for f, _ in _expected()])
def test_golden_output(filename, argv):
    assert _stdout(argv) == (GOLDEN / filename).read_bytes()


@pytest.mark.parametrize("name", sorted(HASHED))
def test_golden_digest(name):
    want = (GOLDEN / f"{name}.json.sha256").read_text().strip()
    assert hashlib.sha256(_stdout(HASHED[name])).hexdigest() == want


def test_golden_selftest(monkeypatch, selftest_results):
    # the criteria numbered 1..8, each line in the "criterion N [pass]" form;
    # the subcommand formats the session's results instead of rerunning them
    def run_all(only=None):
        assert only is None
        return selftest_results

    monkeypatch.setattr(logpair.cli, "run_all", run_all)
    assert _selftest_masked() == (GOLDEN / "selftest.txt").read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for filename, argv in _expected():
        (GOLDEN / filename).write_bytes(_stdout(argv))
    for name, argv in HASHED.items():
        digest = hashlib.sha256(_stdout(argv)).hexdigest()
        (GOLDEN / f"{name}.json.sha256").write_text(digest + "\n")
    (GOLDEN / "selftest.txt").write_bytes(_selftest_masked())


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(regenerate())
