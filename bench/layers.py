"""Layer tracing for the benchmark's traced runs.

Tracer.install() wraps the layer functions named in TARGETS and patches
every dichroma module that holds them, since modules import each other's
functions by name (solvers calls core's _extension_cyclic through its own
global). Three kinds of wrapper:

- span: one record (id, name, start, end, self time, parent id) per call,
  kept in memory and written out at the end;
- tally: calls, busy time and self time summed per name, for functions
  called hundreds of thousands of times, where one record per call would
  not fit in memory; their time still counts as a child of the enclosing
  span;
- count: a call counter and nothing else, for the hot primitives.

canonical_list_assignments is a generator: the time inside each next()
is tallied, and the wrapper also counts the assignments that are distinct
up to renaming colours (a multiset of colour columns identifies one).

Each thread keeps its own stack and records, so counts never race. A
span's self time is its duration minus the time of the spans and tallies
called directly inside it; busy time of a name adds up only its
outermost calls on each thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
from time import perf_counter

SPAN, TALLY, COUNT, GENERATOR = "span", "tally", "count", "generator"

# (module, attribute, metric name, kind)
TARGETS = (
    ("dichroma.core", "_extension_cyclic", "core.extension_cyclic", COUNT),
    ("dichroma.core", "_subset_acyclic", "core.subset_acyclic", COUNT),
    ("dichroma.randomized", "_cross_arcs_acyclic", "randomized.cross_arcs_acyclic", COUNT),
    ("dichroma.cli", "run", "cli.run", SPAN),
    ("dichroma.graphio", "parse_graph_text", "graphio.parse_graph_text", TALLY),
    ("dichroma.records", "make_record", "records.make_record", TALLY),
    ("dichroma.records", "record_json", "records.record_json", TALLY),
    ("dichroma.records", "certificate_payload", "records.certificate_payload", TALLY),
    ("dichroma.solvers", "chromatic_number", "solvers.chromatic_number", SPAN),
    ("dichroma.solvers", "dichromatic_number", "solvers.dichromatic_number", SPAN),
    ("dichroma.solvers", "_search_dicoloring", "solvers.search_dicoloring", SPAN),
    ("dichroma.solvers", "dichromatic_number_of_graph", "solvers.dichromatic_number_of_graph", SPAN),
    ("dichroma.solvers", "canonical_list_assignments", "solvers.canonical_list_assignments", GENERATOR),
    ("dichroma.solvers", "find_acceptable_dicoloring", "solvers.find_acceptable_dicoloring", TALLY),
    ("dichroma.solvers", "find_acceptable_coloring", "solvers.find_acceptable_coloring", TALLY),
    ("dichroma.solvers", "_degeneracy_order", "solvers.degeneracy_order", TALLY),
    ("dichroma.randomized", "random_orientation", "randomized.random_orientation", TALLY),
    ("dichroma.randomized", "find_acyclic_biclique", "randomized.find_acyclic_biclique", SPAN),
    ("dichroma.catalogue", "graph_catalogue", "catalogue.graph_catalogue", SPAN),
    ("dichroma.catalogue", "oriented_catalogue", "catalogue.oriented_catalogue", SPAN),
    ("dichroma.products", "cartesian_product", "products.cartesian_product", SPAN),
    ("dichroma.verify", "sabidussi_suite", "verify.sabidussi", SPAN),
    ("dichroma.verify", "bidirect_suite", "verify.bidirect", SPAN),
    ("dichroma.verify", "kneser_chi_suite", "verify.kneser_chi", SPAN),
    ("dichroma.verify", "catalogue_suite", "verify.catalogue", SPAN),
    ("dichroma.verify", "tensor_upper_bound_suite", "verify.tensor_bound", SPAN),
    ("dichroma.parallel", "parallel_map", "parallel.parallel_map", SPAN),
)

SUITES = ("sabidussi", "bidirect", "kneser_chi", "catalogue", "tensor_bound")

# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.modules_loaded": ("count", "lower"),
    "graphio.parse_graph_text.busy_s": ("s", "lower"),
    "records.busy_s": ("s", "lower"),
    "core.extension_cyclic.calls": ("count", "lower"),
    "core.subset_acyclic.calls": ("count", "lower"),
    "solvers.dichromatic_number.calls": ("count", "lower"),
    "solvers.dichromatic_number.busy_s": ("s", "lower"),
    "solvers.dichromatic_number.closed_by_bounds_ratio": ("ratio", "higher"),
    "solvers.search_dicoloring.calls": ("count", "lower"),
    "solvers.chromatic_number.busy_s": ("s", "lower"),
    "solvers.dichromatic_number_of_graph.orientations": ("count", "lower"),
    "solvers.canonical_list_assignments.yielded": ("count", "lower"),
    "solvers.canonical_list_assignments.busy_s": ("s", "lower"),
    "solvers.canonical_list_assignments.distinct_ratio": ("ratio", "higher"),
    "solvers.find_acceptable_dicoloring.calls": ("count", "lower"),
    "solvers.find_acceptable_dicoloring.busy_s": ("s", "lower"),
    "solvers.find_acceptable_coloring.calls": ("count", "lower"),
    "solvers.find_acceptable_coloring.busy_s": ("s", "lower"),
    "solvers.degeneracy_order.calls": ("count", "lower"),
    "randomized.random_orientation.calls": ("count", "lower"),
    "randomized.random_orientation.busy_s": ("s", "lower"),
    "randomized.find_acyclic_biclique.calls": ("count", "lower"),
    "randomized.find_acyclic_biclique.busy_s": ("s", "lower"),
    "randomized.cross_arcs_acyclic.calls": ("count", "lower"),
    "catalogue.graph_catalogue.busy_s": ("s", "lower"),
    "catalogue.oriented_catalogue.busy_s": ("s", "lower"),
    "products.cartesian_product.busy_s": ("s", "lower"),
    **{f"verify.{s}.busy_s": ("s", "lower") for s in SUITES},
    "parallel.parallel_map.busy_s": ("s", "lower"),
    "parallel.speedup_t2": ("ratio", "higher"),
}


class _ThreadState:
    __slots__ = ("stack", "spans", "tallies", "depth")

    def __init__(self):
        self.stack: list[list] = []  # frames [span id, time of direct children]
        self.spans: list[tuple] = []
        self.tallies: dict[str, list[float]] = {}  # name -> [calls, total, self, busy]
        self.depth: dict[str, int] = {}


def colour_key(assignment) -> int:
    """The multiset of colour columns of a list assignment, packed into one
    integer: equal keys mean equal up to renaming colours."""
    n = len(assignment.lists)
    columns: dict[int, int] = {}
    for v, lst in enumerate(assignment.lists):
        for c in lst:
            columns[c] = columns.get(c, 0) | 1 << v
    key = 0
    for col in sorted(columns.values(), reverse=True):
        key = key << n | col
    return key


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self.counters: dict[str, itertools.count] = {}
        self.generators: list[tuple[str, int, int]] = []  # (name, yielded, distinct)

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)
        return st

    def _enter(self, name: str):
        st = self._state()
        parent = st.stack[-1] if st.stack else None
        frame = [next(self._ids), 0.0]
        st.stack.append(frame)
        st.depth[name] = st.depth.get(name, 0) + 1
        return st, parent, frame

    def _leave(self, st, parent, frame, name, t0, t1, kind):
        st.stack.pop()
        depth = st.depth[name] = st.depth[name] - 1
        dur = t1 - t0
        if parent is not None:
            parent[1] += dur
        tally = st.tallies.get(name)
        if tally is None:
            tally = st.tallies[name] = [0, 0.0, 0.0, 0.0]
        tally[0] += 1
        tally[1] += dur
        tally[2] += dur - frame[1]
        if depth == 0:
            tally[3] += dur
        if kind == SPAN:
            st.spans.append((frame[0], name, t0, t1, dur - frame[1], parent[0] if parent else 0))

    def _timed(self, name: str, fn, kind: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st, parent, frame = self._enter(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(st, parent, frame, name, t0, perf_counter(), kind)
        return wrapper

    def _count(self, name: str, fn):
        counter = self.counters[name] = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args):
            next(counter)
            return fn(*args)
        return wrapper

    def _generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            yielded, seen = 0, set()
            try:
                while True:
                    st, parent, frame = self._enter(name)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._leave(st, parent, frame, name, t0, perf_counter(), TALLY)
                    yielded += 1
                    seen.add(colour_key(item))
                    yield item
            finally:
                self.generators.append((name, yielded, len(seen)))
        return wrapper

    def install(self) -> None:
        """Wrap every target and patch each dichroma module holding it."""
        for module, attr, name, kind in TARGETS:
            original = getattr(sys.modules[module], attr)
            if kind == COUNT:
                wrapped = self._count(name, original)
            elif kind == GENERATOR:
                wrapped = self._generator(name, original)
            else:
                wrapped = self._timed(name, original, kind)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "dichroma":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def export(self, **extra) -> dict:
        """Everything recorded so far, merged over threads."""
        tallies: dict[str, list[float]] = {}
        spans = []
        for st in self._states:
            spans.extend(st.spans)
            for name, t in st.tallies.items():
                acc = tallies.setdefault(name, [0, 0.0, 0.0, 0.0])
                for i in range(4):
                    acc[i] += t[i]
        return {
            **extra,
            "counters": {name: int(repr(c)[6:-1]) for name, c in self.counters.items()},
            "tallies": {name: {"calls": t[0], "total_s": t[1], "self_s": t[2], "busy_s": t[3]}
                        for name, t in sorted(tallies.items())},
            "generators": self.generators,
            "spans": sorted(spans),
        }


def _suite_threads(argv) -> tuple[str, int] | None:
    if len(argv) < 2 or argv[0] != "verify" or "--threads" not in argv:
        return None
    return argv[1].replace("-", "_"), int(argv[argv.index("--threads") + 1])


def layer_metrics(traces: list[dict], import_s: float, modules: int) -> dict[str, float]:
    """Per-layer metrics from the exported traces of one traced run; a
    layer the workload never calls reads 0."""
    calls: dict[str, float] = {}
    busy: dict[str, float] = {}
    counters: dict[str, int] = {}
    dichromatic = searched = orientations = 0
    yielded = distinct = 0
    suite_time: dict[tuple[str, int], float] = {}
    for tr in traces:
        for name, value in tr["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, t in tr["tallies"].items():
            calls[name] = calls.get(name, 0) + t["calls"]
            busy[name] = busy.get(name, 0.0) + t["busy_s"]
        for name, got, unique in tr["generators"]:
            yielded += got
            distinct += unique
        names = {sid: name for sid, name, *_ in tr["spans"]}
        with_search = {parent for _, name, *_, parent in tr["spans"]
                       if name == "solvers.search_dicoloring"}
        for sid, name, *_, parent in tr["spans"]:
            if name == "solvers.dichromatic_number":
                dichromatic += 1
                searched += sid in with_search
                orientations += names.get(parent) == "solvers.dichromatic_number_of_graph"
        suite = _suite_threads(tr.get("argv") or [])
        if suite is not None:
            suite_time[suite] = tr["tallies"].get(f"verify.{suite[0]}", {}).get("busy_s", 0.0)

    ratios = [suite_time[(s, 1)] / suite_time[(s, 2)] for s in SUITES
              if suite_time.get((s, 1)) and suite_time.get((s, 2))]
    out = {
        "cli.import_s": import_s,
        "cli.modules_loaded": modules,
        "graphio.parse_graph_text.busy_s": busy.get("graphio.parse_graph_text", 0.0),
        "records.busy_s": sum(busy.get(f"records.{f}", 0.0)
                              for f in ("make_record", "record_json", "certificate_payload")),
        "core.extension_cyclic.calls": counters.get("core.extension_cyclic", 0),
        "core.subset_acyclic.calls": counters.get("core.subset_acyclic", 0),
        "randomized.cross_arcs_acyclic.calls": counters.get("randomized.cross_arcs_acyclic", 0),
        "solvers.dichromatic_number.closed_by_bounds_ratio":
            (dichromatic - searched) / dichromatic if dichromatic else 0.0,
        "solvers.dichromatic_number_of_graph.orientations": orientations,
        "solvers.canonical_list_assignments.yielded": yielded,
        "solvers.canonical_list_assignments.distinct_ratio": distinct / yielded if yielded else 0.0,
        "parallel.speedup_t2": math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else 0.0,
    }
    for metric in PER_LAYER:
        if metric in out:
            continue
        base, _, field = metric.rpartition(".")
        out[metric] = calls.get(base, 0) if field == "calls" else busy.get(base, 0.0)
    return {name: out[name] for name in PER_LAYER}


def write_trace(path, trace: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, separators=(",", ":"))
