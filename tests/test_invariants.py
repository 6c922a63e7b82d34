"""Invariant identities, bound reports, and classification predicates."""

import pathlib
from fractions import Fraction

import pytest

from logpair import (DualGraph, InputError, SurfaceModel, Vertex,
                     bmy_check, euler_bound_check, genus_bound,
                     invariant_report, log_chern, log_genus_rational,
                     main_theorem_predicate, noether_check)
from logpair.errors import MESSAGE_DIGITS, number_text
from logpair.examples import (degenerate_plane_config, run_example,
                              sextic_config)
from logpair.jsonio import load_graph, load_model

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_log_chern_on_sextic_configuration():
    model, boundary, graph, _ = sextic_config()
    inv = log_chern(model, boundary, graph)
    assert inv.pa_D == 2
    assert inv.l == 4
    assert inv.c1bar_sq == 1
    assert inv.c2bar == 5
    assert inv.e_open == 5
    assert inv.chi_bar == 2
    assert inv.pg_log == 2
    assert inv.h1_log == 0
    assert inv.m == 1
    d_sq = model.intersect(boundary, boundary)
    assert d_sq == 4
    # 1 + 5 + 6(2-1) + 4 + 2*4 = 24 = 12 * 2
    assert noether_check(inv, d_sq)


def test_log_chern_rejects_mismatched_genus():
    model, boundary, graph, _ = sextic_config()
    wrong = model.plane_class(6, [2] * 7 + [1])
    with pytest.raises(InputError, match="inconsistent arithmetic genus"):
        log_chern(model, wrong, graph)


def test_number_text_counts_digits_past_the_threshold():
    assert [number_text(v) for v in (0, -7, Fraction(-3, 4))] == [
        "0", "-7", "-3/4"]
    short = 10 ** MESSAGE_DIGITS - 1
    assert number_text(short) == str(short)
    assert number_text(Fraction(-short - 1, 3)) == (
        f"-<{MESSAGE_DIGITS + 1:,} digits>/3")
    # the count from the bit length agrees with str() at every length
    # str() converts, across each power of ten and two
    for k in range(MESSAGE_DIGITS, 4_000, 13):
        two = 2 ** (k * 10 // 3)
        for n in (10 ** k, 10 ** (k + 1) - 1, two, two - 1):
            assert number_text(n) == f"<{len(str(n)):,} digits>"
    assert number_text(10 ** 10_000) == "<10,001 digits>"


def test_log_chern_rejects_degenerate_boundary():
    model, _, graph, _ = sextic_config()
    with pytest.raises(InputError, match="nonzero"):
        log_chern(model, model.zero(), graph)
    with pytest.raises(InputError, match="integral"):
        log_chern(model, model.divisor([Fraction(1, 2)] + [0] * 8), graph)


def test_log_genus_rational():
    rational = SurfaceModel.plane_blowup(0).hodge
    g1 = DualGraph([Vertex("A", 0, -2)])
    assert log_genus_rational(g1, rational) == (0, 0, 1)
    # disjoint union: total pa = 1 + 0 - 1 = 0, so pg = 0 + 2 - 1 = 1
    g2 = DualGraph([Vertex("A", 1, 0), Vertex("B", 0, -2)])
    assert log_genus_rational(g2, rational) == (1, 1, 2)
    with pytest.raises(InputError, match="empty"):
        log_genus_rational(DualGraph([]), rational)
    from logpair import HodgeData
    irr = HodgeData(q=1, p_g=0, h11=2, euler_e=0)
    with pytest.raises(InputError, match="only rational"):
        log_genus_rational(g1, irr)


def test_euler_bound_report_fields():
    model, boundary, graph, _ = sextic_config()
    inv = log_chern(model, boundary, graph)
    rep = euler_bound_check(inv, model.hodge)
    # p_a = 2 vs 2(l+q)+1-h11 = 2*4+1-9 = 0: hypothesis fails
    assert not rep.hypothesis_holds
    assert (rep.hypothesis_lhs, rep.hypothesis_rhs) == (2, 0)
    assert rep.chi_omega_log == -2
    # e_open = 5 <= 2*pg_log + 1 = 5 holds anyway
    assert rep.conclusion_holds
    # p_g = 0 branch: 5 <= pg_log + 1 = 3 fails
    assert rep.strong_conclusion_holds is False


def test_invariant_report_subtracts_a_nonempty_bark():
    # the line through three blown-up points is a (-2)-curve: a
    # one-vertex rod with bark coefficient 1, so N^2 = -2, while
    # K + D = -2H gives (K+D)^2 = 4
    m = SurfaceModel.plane_blowup(3)
    line = m.plane_class(1, [1, 1, 1])
    graph = DualGraph([Vertex("L", 0, -2)], [], model=m,
                      class_map={"L": line})
    rep = invariant_report(m, line, graph)
    assert rep.invariants.c1bar_sq == 4
    assert rep.bark.gram_square == -2
    assert rep.p_sq == 6
    assert rep.boundary_square == -2
    assert rep.invariants.c2bar == 4
    assert rep.bmy_holds is bmy_check(6, -2, 4) is True
    assert rep.noether_holds is noether_check(rep.invariants, -2)
    assert rep.euler_bound == euler_bound_check(rep.invariants, m.hodge)


def test_bmy_inequality():
    assert bmy_check(1, 0, 5)           # 1/3 <= 5
    assert bmy_check(3, -4, 0)          # 1 <= 0 - (-1) = 1, boundary case
    assert not bmy_check(16, 0, 5)      # 16/3 > 5
    assert bmy_check(Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4))


def test_genus_bound_values():
    assert genus_bound(2, 4) == 3
    assert genus_bound(1, 0) == 1
    assert genus_bound(2, 0) == 1
    assert genus_bound(3, 6) == Fraction(8, 3)
    with pytest.raises(InputError):
        genus_bound(0, 4)
    with pytest.raises(InputError):
        genus_bound(-2, 4)


def test_main_theorem_window():
    for b in (2, 3, 5):
        assert main_theorem_predicate(1, 1, b, h1_log=0).passed
    assert main_theorem_predicate(1, 2, 2, h1_log=0).passed
    assert main_theorem_predicate(2, 1, 2, h1_log=0).passed
    bad = main_theorem_predicate(2, 2, 3)
    assert not bad.passed
    assert bad.window_holds is False
    # boundary case g+k=3 rejects b > 2 and nonvanishing h1
    assert not main_theorem_predicate(2, 1, 3).passed
    assert not main_theorem_predicate(1, 2, 2, h1_log=1).passed
    # below the applicability branch nothing is constrained
    low = main_theorem_predicate(5, 1, 1)
    assert low.passed
    assert low.window_holds is None


def test_main_theorem_boundary_clause_needs_base_genus_two():
    # the g+k = 3 clause (b = 2, h1 = 0) belongs to the b >= 2 branch:
    # for b in {0, 1} nothing is checked, even with h1 = 1
    for g, k in [(1, 2), (2, 1), (0, 3)]:
        for b in (0, 1):
            rep = main_theorem_predicate(g, k, b, h1_log=1)
            assert rep.passed
            assert rep.applicable_branch is False
            assert rep.boundary_case is True
            assert rep.window_holds is None
            assert rep.boundary_b_holds is None
            assert rep.boundary_h1_holds is None
        # from b = 2 on the clause is checked
        assert main_theorem_predicate(g, k, 2, h1_log=0).passed
        assert not main_theorem_predicate(g, k, 2, h1_log=1).passed
        rep = main_theorem_predicate(g, k, 3, h1_log=0)
        assert not rep.passed and rep.boundary_b_holds is False


def test_main_theorem_input_guards():
    with pytest.raises(InputError, match="k > 0"):
        main_theorem_predicate(1, 0, 2)
    with pytest.raises(InputError):
        main_theorem_predicate(-1, 1, 2)


def test_blow_up_invariance_spot():
    from logpair import blow_up_transform
    m = SurfaceModel.hirzebruch(2, 1)
    c = m.ruled_class(2, 3, [1])
    for mult in (1, 2):
        m2, (moved,) = blow_up_transform(m, [c], [mult])
        adjusted = moved + (mult - 1) * m2.exceptional(m2.num_points)
        assert m2.arithmetic_genus(adjusted) == m.arithmetic_genus(c)


def test_edges_count_in_component_bookkeeping():
    # one nodal boundary member: graph genus = class genus forces the
    # node to appear as an edge, not hidden in vertex genus
    m = SurfaceModel.plane_blowup(0)
    cubic = m.plane_class(3, [])
    g_ok = DualGraph([Vertex("D", 1, 9)], model=m, class_map={"D": cubic})
    inv = log_chern(m, cubic, g_ok)
    assert inv.pa_D == 1
    assert inv.l == 0
    # without a class map: DualGraph itself refuses a cubic on a
    # genus-0 vertex, so only log_chern's total p_a can catch this one
    g_bad = DualGraph([Vertex("D", 0, 9)])
    with pytest.raises(InputError, match="inconsistent arithmetic genus"):
        log_chern(m, cubic, g_bad)


def test_euler_routes_guard():
    # the two Euler routes agree identically for consistent Hodge data,
    # so the cross-check is exercised by every successful log_chern call
    model, boundary, graph, _ = sextic_config()
    inv = log_chern(model, boundary, graph)
    h = model.hodge
    assert inv.c2bar == h.euler_e + 2 * (inv.pa_D - 1 - inv.l)
    assert inv.e_open == (h.h11 + 2 * h.p_g - 4 * h.q
                          + 2 * inv.pa_D - 2 * inv.l)


def _plane_c1bar_sq(d, mults):
    """(K + D)^2 for D = dH - sum m_i E_i on P^2 blown up in n points,
    as K^2 + 2 K.D + D^2 with K^2 = 9 - n and K.D = -3d + sum m_i."""
    return ((9 - len(mults)) + 2 * (-3 * d + sum(mults))
            + (d * d - sum(m * m for m in mults)))


def _assert_report_reads_one_adjoint(report, model, boundary):
    """An example report's two genus routes agree with log_chern's p_a,
    and the pencil starts from the class that Zariski split, K + D."""
    genus = report["arithmetic_genus"]
    assert (genus["adjunction"] == genus["dual_graph"]
            == report["invariants"].pa_D)
    z = report["zariski"]
    assert (report["pencil"].adjoint == z["P"] + z["N"]
            == model.canonical_class() + boundary)


def test_c1bar_sq_matches_the_plane_closed_form():
    model = load_model(str(FIXTURES / "sextic_model.json"))
    graph = load_graph(str(FIXTURES / "sextic_graph.json"))
    boundary = model.plane_class(6, [2] * 8)
    assert log_chern(model, boundary, graph).c1bar_sq == _plane_c1bar_sq(
        6, [2] * 8) == 1
    _assert_report_reads_one_adjoint(run_example("ex2"), model, boundary)
    for a in range(2, 41):
        model, boundary, graph, _ = degenerate_plane_config(a)
        mults = [3 * a - 3] + [2] * (4 * a - 4)
        assert log_chern(model, boundary, graph).c1bar_sq == (
            _plane_c1bar_sq(3 * a, mults)) == 2 * a - 3
        _assert_report_reads_one_adjoint(run_example("ex3", a), model,
                                         boundary)
