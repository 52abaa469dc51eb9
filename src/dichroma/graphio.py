"""Text serialization of graphs and digraphs.

Format: a header line ``g <n> <m>`` or ``d <n> <m>``, then one line per
edge ``e u v`` (or arc ``a u v``) with 0-based endpoints, optional label
lines ``l v <utf8-label>``, blank lines, and ``#`` comments. The writer
emits a canonical ordering so write/parse round-trips are byte-stable.

The parser reads the text in one pass. It checks each edge or arc line
and sets it straight into the per-vertex neighbour masks, where a repeat
is one bit test, and hands the masks to the trusted constructor
(core._Structure._from_masks), which checks nothing again; only the
labels are checked once more, for distinctness. A deadline passed in is
polled once per line.
"""

from __future__ import annotations

from typing import Optional, Union

from .core import Deadline, Digraph, Graph, _check_labels, _vertex_count
from .errors import BudgetExceededError, GraphFormatError

__all__ = ["parse_graph_text", "parse_graph_file", "format_graph"]

_OUT_OF_TIME = "unknown: reading the input ran out of time"


def parse_graph_text(text: str, deadline: Optional[Deadline] = None) -> Union[Graph, Digraph]:
    """The graph or digraph the text describes; GraphFormatError, with
    the line number where one is at fault, when it breaks the format.
    deadline, if given, is polled once per line and raises
    BudgetExceededError."""
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        if deadline is not None and deadline.check():
            raise BudgetExceededError(_OUT_OF_TIME)
        fields = raw.split()
        if fields and fields[0][0] != "#":
            break
    else:
        raise GraphFormatError("missing header line")
    if fields[0] not in ("g", "d") or len(fields) != 3:
        raise GraphFormatError("expected header 'g <n> <m>' or 'd <n> <m>'", lineno)
    try:
        n, m = int(fields[1]), int(fields[2])
    except ValueError:
        raise GraphFormatError("header counts must be integers", lineno)
    if n < 0 or m < 0:
        raise GraphFormatError("header counts must be nonnegative", lineno)
    _vertex_count(n)
    directed = fields[0] == "d"
    tag, kind = ("a", "arc") if directed else ("e", "edge")
    outs = [0] * n
    ins = [0] * n if directed else outs
    labels: dict[int, str] = {}
    links = 0
    for lineno, raw in lines:
        if deadline is not None and deadline.check():
            raise BudgetExceededError(_OUT_OF_TIME)
        fields = raw.split()
        if len(fields) != 3 or fields[0] != tag:  # all but a well-formed link line
            if not fields or fields[0][0] == "#":
                continue
            line = raw.strip()
            if fields[0] == "l":
                if len(fields) < 3:
                    raise GraphFormatError("label line needs 'l <v> <label>'", lineno)
                try:
                    v = int(fields[1])
                except ValueError:
                    raise GraphFormatError("label vertex must be an integer", lineno)
                if not 0 <= v < n:
                    raise GraphFormatError(f"label vertex {v} out of range", lineno)
                if v in labels:
                    raise GraphFormatError(f"duplicate label for vertex {v}", lineno)
                labels[v] = line.split(None, 2)[2]
                continue
            if fields[0] not in ("e", "a") or len(fields) != 3:
                raise GraphFormatError(f"unrecognised line {line!r}", lineno)
            if directed:
                raise GraphFormatError("edge line 'e' inside a digraph file", lineno)
            raise GraphFormatError("arc line 'a' inside a graph file", lineno)
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise GraphFormatError("endpoints must be integers", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"endpoint out of range in {raw.strip()!r}", lineno)
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}", lineno)
        if outs[u] >> v & 1:
            key = (u, v) if directed else (min(u, v), max(u, v))
            raise GraphFormatError(f"duplicate {kind} {key}", lineno)
        outs[u] |= 1 << v
        ins[v] |= 1 << u
        links += 1
    if links != m:
        raise GraphFormatError(f"header announced {m} links, file has {links}")
    label_tuple = None
    if labels:
        if len(labels) != n:
            raise GraphFormatError(
                f"labels must cover all {n} vertices or none (got {len(labels)})"
            )
        label_tuple = _check_labels(n, [labels[v] for v in range(n)])
    return (Digraph if directed else Graph)._from_masks(n, outs, ins, label_tuple)


def parse_graph_file(path, deadline: Optional[Deadline] = None) -> Union[Graph, Digraph]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read(), deadline)


def format_graph(obj: Union[Graph, Digraph]) -> str:
    if not isinstance(obj, (Graph, Digraph)):
        raise TypeError("expected a Graph or Digraph")
    kind, tag = ("g", "e") if isinstance(obj, Graph) else ("d", "a")
    lines = [f"{kind} {obj.n} {obj.m}"]
    if obj.labels is not None:
        lines += [f"l {v} {lab}" for v, lab in enumerate(obj.labels)]
    lines += [f"{tag} {u} {v}" for u, v in obj.pairs]
    return "\n".join(lines) + "\n"
