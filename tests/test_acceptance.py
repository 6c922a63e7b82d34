"""Acceptance gate.

Checks every numbered criterion of the selftest harness, one test per
criterion, on the results of one session-wide run (conftest.py), and
prints the same pass/fail line the command-line `selftest` subcommand
emits.  The full `selftest` output, numbering
and line format included, is pinned by tests/golden/selftest.txt
(test_golden.py).  All arithmetic is exact, so "tolerance"
is equality of rationals throughout.

Three statements that circulate alongside these configurations do not
survive exact recomputation.  Each is kept here (or next to the module
it concerns) as a strict xfail so the disagreement stays visible:

  * the split of H + 2E1 into H + E1 and E1 (test_zariski.py),
  * the claim that a feasible grid instance forces the fixed part out
    of the adjoint system (test_search.py),
  * the claim, checked below, that the peeling coefficient of a single
    (-d) tip is 1 - 1/d; the exact solve gives 1/d, and 1 - 1/d is the
    complementary sharp weight.
"""

from fractions import Fraction

import pytest

from logpair.dualgraph import DualGraph, Edge, Vertex
from logpair.peeling import bark
from logpair.selftest import CRITERIA

NUMBERS = [number for number, _, _ in CRITERIA]
NAMES = {number: name for number, name, _ in CRITERIA}


@pytest.mark.parametrize("number", NUMBERS,
                         ids=[f"{n:02d}_{NAMES[n].replace(' ', '_')}"
                              for n in NUMBERS])
def test_criterion(number, selftest_results):
    (result,) = [r for r in selftest_results if r.number == number]
    print(result.line())
    assert result.passed, result.line()


@pytest.mark.xfail(
    strict=True,
    reason="a circulated value for the single (-d) tip coefficient is "
           "1 - 1/d; the defining linear system gives 1/d, and 1 - 1/d "
           "is the complementary sharp weight, so the literal claim is "
           "kept only as a record of the disagreement")
@pytest.mark.parametrize("d", range(3, 10))
def test_single_tip_coefficient_circulated_form(d):
    # hub carries a -1, so the three-armed star is not an admissible
    # fork and each single-vertex arm peels as its own tip
    graph = DualGraph(
        vertices=[Vertex("hub", 0, -1), Vertex("T", 0, -d),
                  Vertex("U", 0, -2), Vertex("V", 0, -2)],
        edges=[Edge("hub", "T", 1), Edge("hub", "U", 1),
               Edge("hub", "V", 1)])
    bk = bark(graph)
    assert bk.coefficients["T"] == 1 - Fraction(1, d)
