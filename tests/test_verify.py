import os
from itertools import count

import pytest

from dichroma import verify
from dichroma.catalogue import digraph_catalogue, graphs_up_to, random_digraph
from dichroma.core import Deadline, Graph, apply_orientation, is_acyclic
from dichroma.errors import BudgetExceededError
from dichroma.generators import complete_graph, cycle_graph, path_graph
from dichroma.randomized import RngSpec
from dichroma.solvers import dichromatic_number
from dichroma.verify import (
    _result,
    bidirect_suite,
    catalogue_suite,
    cycle_orientation,
    exhaustive_dichromatic,
    kneser_chi_suite,
    sabidussi_suite,
    tensor_upper_bound_suite,
)

from oracles import brute_min_acyclic_parts


def test_exhaustive_strategy_matches_independent_oracle():
    rng = RngSpec(31)
    for i in range(25):
        d = random_digraph(1 + i % 5, rng.derive(i))
        assert exhaustive_dichromatic(d) == brute_min_acyclic_parts(d.n, d.arcs)


def test_two_strategies_agree_on_catalogue():
    for d in digraph_catalogue(4):
        assert dichromatic_number(d).value == exhaustive_dichromatic(d)


def test_cycle_orientation_properties():
    assert cycle_orientation(path_graph(5)) is None
    # deeper than the recursion limit: a long cycle, and a short cycle at
    # the end of a 1,500-vertex path
    pendant = Graph(1504, [(i, i + 1) for i in range(1503)] + [(1499, 1503)])
    for g in (cycle_graph(5), complete_graph(4), cycle_graph(3), cycle_graph(1500), pendant):
        o = cycle_orientation(g)
        assert o is not None
        assert not is_acyclic(apply_orientation(g, o))


def test_catalogue_suite_passes():
    result = catalogue_suite()
    assert result.ok
    checks = {row["check"] for row in result.rows}
    assert checks == {
        "dual-strategy",
        "monotonicity",
        "enl-evidence",
        "kneser-lower-bound",
    }


def test_monotonicity_rows_inside_catalogue_suite():
    result = catalogue_suite()
    rows = [r for r in result.rows if r["check"] == "monotonicity"]
    assert rows
    for row in rows:
        assert row["dichi"] <= row["list_dichi"] <= row["list_chi"]
        assert row["dichi"] <= row["chi"]


def test_sabidussi_suite_row_shape():
    result = sabidussi_suite(max_n=2, random_pairs=3, pair_max_n=3, seed=1)
    assert result.ok
    row = result.rows[0]
    assert {"pair", "chi_left", "chi_right", "chi_product", "expected",
            "equal", "modular_proper"} <= set(row)


@pytest.mark.parametrize("suite, kwargs", [
    (sabidussi_suite, {"max_n": 3, "random_pairs": 20, "threads": 1}),
    (sabidussi_suite, {"max_n": 3, "random_pairs": 20, "threads": 2}),
    (tensor_upper_bound_suite, {"max_n": 4, "threads": 2}),
    (bidirect_suite, {"max_n": 6}),
    (kneser_chi_suite, {}),
    (catalogue_suite, {}),
])
def test_suite_solves_share_one_deadline(monkeypatch, suite, kwargs):
    polled = []

    def check(deadline):
        polled.append(deadline)
        return len(polled) > 3

    monkeypatch.setattr(Deadline, "check", check)
    given = Deadline(60)
    result = suite(**kwargs, deadline=given)
    assert {id(d) for d in polled} == {id(given)}
    assert result.ok and result.unknown > 0
    assert result.summary["unknown"] == result.unknown


def _late_from_the_first_solve(monkeypatch) -> list:
    """Make the deadline pass at the next suite's first solve, until the
    list returned is cleared: a catalogue build and sabidussi's
    random-pair draw poll it too, and one cut short raises. Forked
    workers inherit the passed deadline."""
    late = []
    cert = verify._SuiteSolves.cert
    monkeypatch.setattr(verify._SuiteSolves, "cert",
                        lambda self, *args: late.append(1) or cert(self, *args))
    monkeypatch.setattr(Deadline, "expired", lambda self: bool(late))
    return late


def test_suite_rows_after_the_deadline_read_unknown(monkeypatch):
    # a catalogue build polls the deadline too, and one cut short raises;
    # build the suites' catalogues first so that only their solves are late
    digraph_catalogue(4)
    graphs_up_to(7)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    late = _late_from_the_first_solve(monkeypatch)
    for threads in (1, 2):  # forked workers see the same deadline
        late.clear()
        result = sabidussi_suite(max_n=2, random_pairs=5, pair_max_n=3, threads=threads)
        assert result.ok and result.unknown == len(result.rows)
        assert all(row["chi_product"] is None for row in result.rows)
    late.clear()
    result = catalogue_suite()
    assert result.ok and result.unknown > 0


def test_sabidussi_draw_polls_the_deadline_once_per_pair(monkeypatch):
    # a draw cut short raises, with no rows, as a cut-short catalogue build does
    polls = count(1)
    monkeypatch.setattr(Deadline, "expired", lambda self: next(polls) >= 7)
    with pytest.raises(BudgetExceededError, match="deadline reached drawing the random pairs"):
        sabidussi_suite(max_n=0, random_pairs=20)
    assert next(polls) == 8


def test_result_counts_a_failed_check_before_an_undecided_one():
    rows = [{"equal": False, "proper": None}, {"equal": True, "proper": None},
            {"equal": True, "proper": True}]
    result = _result("x", rows, ("equal", "proper"), cases=len(rows))
    assert (result.ok, result.unknown, result.rows) == (False, 1, rows)
    assert result.summary == {"cases": 3, "violations": 1, "unknown": 1}


@pytest.mark.parametrize("suite, kwargs, count", [
    (sabidussi_suite, {"max_n": 2, "random_pairs": 3, "pair_max_n": 3}, "pairs"),
    (tensor_upper_bound_suite, {"max_n": 2}, "pairs"),
    (bidirect_suite, {"max_n": 4}, "graphs"),
    (kneser_chi_suite, {}, "cases"),
    (catalogue_suite, {}, "checks"),
])
def test_every_suite_summary_counts_violations_and_unknown(monkeypatch, suite, kwargs, count):
    # build the catalogues first, then let every solve come after the deadline
    digraph_catalogue(4)
    graphs_up_to(7)
    _late_from_the_first_solve(monkeypatch)
    result = suite(**kwargs)
    assert result.summary[count] == len(result.rows)
    assert result.summary["violations"] == 0 and result.ok
    assert result.summary["unknown"] == result.unknown > 0
