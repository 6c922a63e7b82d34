"""Byte-exact CLI outputs against the files in tests/golden/.

Each case is one command line, checked in both output formats: stdout
must equal tests/golden/<case>.json and tests/golden/<case>.table.txt
byte for byte.  The criterion-6 grid is large, so only the SHA-256 of
its JSON output is stored (tests/golden/<case>.json.sha256).  The
`selftest` stdout is stored in tests/golden/selftest.txt with every
timing masked, since only the timings vary from run to run.

`PARSE_CASES` are parsed too: tests/golden/parse_cases.json holds, for
each command line, the namespace, the input error or the exit with its
printed text that a fresh parser gives, with help wrapped at 80 columns.

`FIELDS` holds, beside the bytes, the values a reader checks by hand in
some of those files.  A regenerated golden that moves one of them fails
until the table is changed with it, in the same diff.

After a deliberate output change, regenerate every file with

    PYTHONPATH=src python tests/test_golden.py

which prints the files whose bytes change and the count left unchanged
before it writes.
"""

import hashlib
import io
import json
import os
import pathlib
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import logpair.selftest
from logpair.cli import build_parser, main
from logpair.errors import InputError

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

# a value that starts with a minus sign, spelled apart from its option
LEADING_MINUS = [
    ["zariski", f"{FIX}/one_point_model.json", "--class", "-1,2",
     "--candidates", f"{FIX}/one_point_candidates.json"],
    ["search", "ex4", "--g", "2:3", "--x", "8", "--y", "-1:1"],
]

# command lines whose parse is pinned in parse_cases.json
PARSE_CASES = [
    *([*argv, *fmt] for argv in [*CASES.values(), *HASHED.values()]
      for fmt in ([], ["--format", "table"])),
    # bad arguments
    [], ["bogus"], ["peel"], ["peel", "a", "b"], ["example", "run", "ex5"],
    ["example", "walk"], ["peel", "x", "--format", "xml"],
    ["--format", "json", "peel", "x"], ["--foo", "peel", "x"],
    ["--", "peel", "x"], ["selftest", "--criterion", "x"],
    ["selftest", "--format", "table"],
    ["example", "run", "ex3", "--a", "q"],
    # values that start with a minus sign
    *LEADING_MINUS,
    # help and version
    ["-h"], ["--version"], ["example", "run", "--help"],
    *([cmd, "--help"] for cmd in ("peel", "zariski", "invariants", "pencil",
                                  "example", "search", "selftest")),
]

# every model with Hodge data has p_g = 0, so theorem 2's strong
# conclusion is evaluated on every report that carries one
STRONG = "euler_bound.strong_conclusion_holds"

# the values read by hand in a golden file, by its name: in a JSON file,
# a dotted path (a number indexes a list) and its exact value, bools and
# "p/q" strings included; in a table, a string and whether the file holds it
FIELDS = {
    "peel_d4_fork.json": {
        "coefficients": {"C": 1, "T1": 1, "T2": 1, "T3": 1},
        "bark_square": -2, "tips": 3, "bound_ok": True,
        "segments.0.kind": "fork",
    },
    # one key and value per line, no JSON braces
    "peel_d4_fork.table.txt": {"bark_square": True, "{": False},
    "zariski_one_point.json": {
        "P": [1, 0], "N": [0, 2], "support": [0], "checks.all_ok": True,
        "nef_scope": "relative to the supplied candidate set only",
    },
    # the sextic adjoint against one conic gives thirds, printed as "p/q"
    "zariski_sextic_thirds.json": {
        "P": ["7/3", *["-2/3"] * 7, -1], "N": ["2/3", *["-1/3"] * 7, 0],
        "coefficients": ["1/3"],
    },
    "invariants_sextic.json": {
        "pa_D": 2, "c1bar_sq": 1, "c2bar": 5, "e_open": 5, "chi_bar": 2,
        "checks.noether": True, "checks.bmy": True,
        "checks.chi_omega_log": -2, "checks.euler_strong_conclusion": False,
    },
    "pencil_sextic.json": {
        "g": 0, "k": 4, "b": 0, "big": True,
        "residual": [1, *[0] * 7, -1],
        "fixed_parts": [{"class": [2, *[-1] * 7, 0], "dim_bound": -2,
                         "pairing": -1}],
    },
    "example_ex2.json": {"name": "ex2", "noether_holds": True, "pencil.g": 0,
                         STRONG: False},
    "example_ex3_a2.json": {STRONG: False},
    "example_ex3_a3.json": {STRONG: False},
    "example_ex3_a4.json": {"a": 4, "k_reference": 12, "k_discrepancy": True,
                            STRONG: False},
    "example_ex3_a5.json": {STRONG: False},
    "example_ex3_a6.json": {STRONG: False},
    "example_ex3_a40.json": {STRONG: False},
    "search_ex4_reference.json": {
        "row_count": 1, "rows.0.inequalities.dim_positive": False,
        "reference_claim.discrepancy": True,
    },
    "search_ex4_reference.table.txt": {
        "dim_positive": True, "disagrees with the circulated claim": True,
    },
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


def parse(parser, argv) -> list:
    """The namespace, the InputError text, or the SystemExit code with
    what was printed, from one parse of argv."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return ["namespace", vars(parser.parse_args(argv))]
    except InputError as exc:
        return ["input error", str(exc)]
    except SystemExit as exc:
        return ["exit", exc.code, out.getvalue(), err.getvalue()]


def _parse_cases() -> bytes:
    cases = [{"argv": argv, "outcome": parse(build_parser(), argv)}
             for argv in PARSE_CASES]
    return (json.dumps(cases, indent=1, sort_keys=True) + "\n").encode()


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


def _at(doc, path: str):
    for key in path.split("."):
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc


def _exact(fields: dict) -> str:
    # as JSON text, so that true is not 1 and "2/3" is not 2/3
    return json.dumps(fields, sort_keys=True, indent=1)


@pytest.mark.parametrize("filename", list(FIELDS))
def test_golden_fields(filename):
    want = FIELDS[filename]
    text = (GOLDEN / filename).read_text(encoding="utf-8")
    if filename.endswith(".json"):
        doc = json.loads(text)
        assert _exact({p: _at(doc, p) for p in want}) == _exact(want)
    else:
        assert {s: s in text for s in want} == want


@pytest.mark.parametrize("name", sorted(HASHED))
def test_golden_digest(name):
    want = (GOLDEN / f"{name}.json.sha256").read_text().strip()
    assert hashlib.sha256(_stdout(HASHED[name])).hexdigest() == want


def test_golden_parse_cases(monkeypatch):
    # argparse wraps help at the terminal's width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse_cases() == (GOLDEN / "parse_cases.json").read_bytes()


def test_golden_selftest(monkeypatch, selftest_results):
    # the criteria numbered 1..8, each line in the "criterion N [pass]" form;
    # the subcommand formats the session's results instead of rerunning them
    def run_all(only=None):
        assert only is None
        return selftest_results

    # the subcommand imports run_all from logpair.selftest when it runs
    monkeypatch.setattr(logpair.selftest, "run_all", run_all)
    assert _selftest_masked() == (GOLDEN / "selftest.txt").read_bytes()


def regenerate() -> None:
    files = {filename: _stdout(argv) for filename, argv in _expected()}
    for name, argv in HASHED.items():
        digest = hashlib.sha256(_stdout(argv)).hexdigest()
        files[f"{name}.json.sha256"] = f"{digest}\n".encode()
    files["selftest.txt"] = _selftest_masked()
    files["parse_cases.json"] = _parse_cases()
    changed = [f for f, data in files.items()
               if not (GOLDEN / f).is_file()
               or (GOLDEN / f).read_bytes() != data]
    for filename in changed:
        print(f"changed: {filename}")
    print(f"unchanged: {len(files) - len(changed)}")
    GOLDEN.mkdir(exist_ok=True)
    for filename in changed:
        (GOLDEN / filename).write_bytes(files[filename])


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    sys.exit(regenerate())
