"""The package's value classes: construction, defaults, validation,
normalisation, repr, equality, hashing and pickling; and the validation
messages of the functions that take plain parameters in their place."""

import pickle

import pytest

from dichroma.core import Coloring, Digraph, Graph, ListAssignment, Orientation
from dichroma.covers import (
    AcceptanceEstimate,
    SetCollection,
    build_rook_collection,
    verify_semicover_all_acyclic,
)
from dichroma.generators import EmbeddingWitness, borsuk_points, complete_graph
from dichroma.randomized import EventEstimate, RngSpec, expected_avoiding_count, g_bound
from dichroma.solvers import Certificate
from dichroma.verify import SuiteResult

PATH3 = Graph(3, [(0, 1), (1, 2)])
COLLECTION = SetCollection((frozenset({0, 1}), frozenset({2})), 2, 2)
EVENT = EventEstimate.from_counts(3, 4)

# (class, fields in order, positional arguments)
RECORDS = [
    (Orientation, ("base", "direction"), (PATH3, (False, True))),
    (Coloring, ("palette", "assignment"), ((0, 1), (0, 1, 0))),
    # lists in the stored form, sorted tuples; other inputs are normalised
    (ListAssignment, ("palette", "lists", "k"), ((0, 1, 2), ((0, 1),) * 3, 2)),
    (RngSpec, ("seed",), (7,)),
    (EventEstimate, ("successes", "trials", "estimate", "ci_low", "ci_high"),
     (3, 4, 0.75, EVENT.ci_low, EVENT.ci_high)),
    (SetCollection, ("members", "s", "t"), (COLLECTION.members, 2, 2)),
    (AcceptanceEstimate, ("event", "bound", "hypothesis_ok"), (EVENT, 0.5, True)),
    (EmbeddingWitness, ("source", "target", "mapping"), (complete_graph(2), PATH3, (0, 1))),
    (Certificate, ("value", "exact", "lower", "upper", "witness", "witness_orientation",
                   "rejecting_assignment", "detail"),
     (2, True, 2, 2, Coloring((0, 1), (0, 1, 0)), Orientation(PATH3, (True, False)),
      ListAssignment((0,), (frozenset({0}),) * 3, 1), "closed")),
    (SuiteResult, ("name", "ok", "rows", "summary", "unknown"),
     ("x", True, [{"equal": True}], {"rows": 1}, 0)),
]
MUTABLE = (SuiteResult,)  # holds a list and a dict, so it has no hash


@pytest.mark.parametrize("cls, fields, args", RECORDS,
                         ids=[cls.__name__ for cls, *_ in RECORDS])
def test_record_construction_equality_and_pickling(cls, fields, args):
    obj = cls(*args)
    assert cls._fields == fields
    assert obj == cls(**dict(zip(fields, args)))
    assert tuple(getattr(obj, f) for f in fields) == args
    assert repr(obj).startswith(f"{cls.__name__}({fields[0]}=")
    back = pickle.loads(pickle.dumps(obj))
    assert back == obj and type(back) is cls
    with pytest.raises(AttributeError):
        setattr(obj, fields[0], args[0])
    if cls not in MUTABLE:
        assert hash(obj) == hash(cls(*args))


def test_record_defaults():
    assert build_rook_collection(9) == build_rook_collection(9, 272)
    cert = Certificate(2, True, 2, 2)
    assert (cert.witness, cert.witness_orientation, cert.rejecting_assignment,
            cert.detail) == (None, None, None, "")
    keys, points = borsuk_points(1, 1.5, 0.5)
    default_keys, default_points = borsuk_points(1, 1.5, 0.5, delta=0.25)  # (2 - a) / 2
    assert keys == default_keys and points == default_points


def test_record_normalisation():
    assert RngSpec(-1).seed == (1 << 64) - 1
    assert RngSpec(1 << 64 | 5).seed == 5
    # the default block side beta = floor(124 ln n) shows in t = max(n + beta^2, n^2)
    assert build_rook_collection(9).t == 9 + 272 ** 2
    assert build_rook_collection(1).t == 1  # beta = 0; beta = 1 would give t = 2
    # delta = 0 stands for (2 - a) / 2, and a given delta is kept
    assert borsuk_points(1, 1.5, 0.5, delta=0.0)[0] == borsuk_points(1, 1.5, 0.5, delta=0.25)[0]
    assert borsuk_points(1, 1.5, 0.5, delta=0.1)[0] != borsuk_points(1, 1.5, 0.5)[0]


def test_list_assignment_normalises_any_iterable():
    # each list is stored as a sorted tuple, whatever iterable it came in
    want = ListAssignment((-1, 0, 10**9), ((-1, 10**9), (-1, 0)), 2)
    assert want.lists == ((-1, 10**9), (-1, 0))
    for lists in ((frozenset({10**9, -1}), frozenset({0, -1})),
                  [[10**9, -1], [0, -1]],
                  ((10**9, -1), (0, -1)),
                  iter([{-1, 10**9}, iter([0, -1])])):
        got = ListAssignment((-1, 0, 10**9), lists, 2)
        assert got == want and type(got.lists) is tuple
        assert all(type(lst) is tuple for lst in got.lists)
    assert ListAssignment.uniform(2, [3, 1, 3]) == ListAssignment((1, 3), ([1, 3], {3, 1}), 2)
    assert ListAssignment.uniform(2, [3, 1, 3]).palette == (1, 3)


@pytest.mark.parametrize("make", [frozenset, list, tuple, iter], ids=lambda f: f.__name__)
def test_list_assignment_messages_for_any_iterable(make):
    # the messages the frozenset inputs gave, for every kind of list
    with pytest.raises(ValueError, match="^list of vertex 0 has size 1, not 2$"):
        ListAssignment((0, 1), [make([0])], 2)
    with pytest.raises(ValueError, match="^list of vertex 1 leaves the palette$"):
        ListAssignment((0,), [make([0]), make([1])], 1)
    with pytest.raises(ValueError, match="^palette colours must be distinct$"):
        ListAssignment((0, 0), [make([0])], 1)
    # a list is a set of colours: a repeated colour counts once
    with pytest.raises(ValueError, match="^list of vertex 0 has size 1, not 2$"):
        ListAssignment((0, 1), [make([0, 0])], 2)


def test_record_reprs_are_unchanged():
    assert repr(Coloring((0, 1), (0, 1, 0))) == "Coloring(palette=(0, 1), assignment=(0, 1, 0))"
    assert (repr(Orientation(PATH3, (False, True)))
            == "Orientation(base=Graph(n=3, m=2), direction=(False, True))")
    assert repr(RngSpec(-1)) == "RngSpec(seed=18446744073709551615)"
    assert repr(EVENT) == ("EventEstimate(successes=3, trials=4, estimate=0.75, "
                           "ci_low=0.3006418425824019, ci_high=0.9544127391902995)")


# (a valid record, field changes its __new__ refuses, the message)
REBUILDS = [
    (Orientation(PATH3, (False, True)), {"direction": (True,)}, "1 direction bits for 2 edges"),
    (Coloring((0, 1), (0, 1)), {"assignment": (5,)}, "vertex 0 assigned colour 5 outside palette"),
    (ListAssignment((0, 1), ((0,),), 1), {"k": 7, "lists": (frozenset({9}),)},
     "list of vertex 0 has size 1, not 7"),
    (COLLECTION, {"s": 1}, "2 members exceed the bound s=1"),
    (EmbeddingWitness(complete_graph(2), PATH3, (0, 1)), {"mapping": (0, 2)},
     r"map does not preserve adjacency on \(0,1\)"),
]


@pytest.mark.parametrize("record, changes, message", REBUILDS,
                         ids=[type(r).__name__ for r, *_ in REBUILDS])
def test_replace_and_make_validate(record, changes, message):
    cls = type(record)
    with pytest.raises(ValueError, match=f"^{message}$"):
        record._replace(**changes)
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls._make(changes.get(f, getattr(record, f)) for f in cls._fields)
    # valid fields still rebuild an equal record of the class
    assert cls._make(record) == record._replace() == record
    assert type(cls._make(record)) is cls


def test_replace_and_make_normalise():
    # RngSpec refuses no seed, but reduces it modulo 2^64 on every path
    assert RngSpec(3)._replace(seed=-1).seed == (1 << 64) - 1
    assert RngSpec._make([1 << 64 | 5]) == RngSpec(5)
    assert ListAssignment((0, 1), ((0,),), 1)._replace(lists=({1},)).lists == ((1,),)


@pytest.mark.parametrize("build, message", [
    (lambda: Orientation(PATH3, (False,)), "1 direction bits for 2 edges"),
    (lambda: Coloring((0, 0), (0,)), "palette colours must be distinct"),
    (lambda: Coloring((0, 1), (0, 2)), "vertex 1 assigned colour 2 outside palette"),
    (lambda: ListAssignment((0, 0), (), 1), "palette colours must be distinct"),
    (lambda: ListAssignment((0, 1), (frozenset({0}),), 2), "list of vertex 0 has size 1, not 2"),
    (lambda: ListAssignment((0,), (frozenset({1}),), 1), "list of vertex 0 leaves the palette"),
    (lambda: g_bound(2, 2, 1, 1, 1, 1), "need l1 > l2 >= 1"),
    (lambda: g_bound(3, 2, 1, 0, 1, 1), "s must be positive"),
    (lambda: g_bound(3, 2, 1, 1, 1, 0), "u must be positive"),
    (lambda: expected_avoiding_count(-1, 4, 2, 1), "m and a must be nonnegative"),
    (lambda: expected_avoiding_count(3, 4, 5, 1), r"need 1 <= k <= u"),
    (lambda: SetCollection((frozenset(),) * 2, 1, 1), "2 members exceed the bound s=1"),
    (lambda: SetCollection((frozenset({0, 1}),), 1, 1), "member 0 has 2 vertices, above t=1"),
    # the threshold is checked before the parity of the odd vertex set
    (lambda: verify_semicover_all_acyclic(Digraph(3), COLLECTION, 0),
     "the threshold must be positive"),
    (lambda: verify_semicover_all_acyclic(Digraph(3), COLLECTION, 1),
     "vertex set must split into two equal sides"),
    (lambda: build_rook_collection(0), "n must be at least 1"),
    (lambda: build_rook_collection(3, -1), "beta must be nonnegative"),
    (lambda: borsuk_points(0, 1.0, 1.0), "sphere dimension must be at least 1"),
    (lambda: borsuk_points(1, 2.0, 1.0), "need 0 < a < 2"),
    (lambda: borsuk_points(1, 1.0, 1.0, delta=0.75), r"need 0 < delta <= \(2-a\)/2"),
    (lambda: borsuk_points(1, 1.0, 0.0), "cube_side must be positive"),
    (lambda: EmbeddingWitness(PATH3, PATH3, (0, 1)), "mapping must cover the source vertex set"),
    (lambda: EmbeddingWitness(complete_graph(2), PATH3, (0, 0)), "mapping must be injective"),
    (lambda: EmbeddingWitness(complete_graph(2), PATH3, (0, 3)), "image vertex 3 out of range"),
    (lambda: EmbeddingWitness(complete_graph(2), PATH3, (0, 2)),
     r"map does not preserve adjacency on \(0,1\)"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
