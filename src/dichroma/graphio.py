"""Text serialization of graphs and digraphs.

Format: a header line ``g <n> <m>`` or ``d <n> <m>``, then one line per
edge ``e u v`` (or arc ``a u v``) with 0-based endpoints, optional label
lines ``l v <utf8-label>``, blank lines, and ``#`` comments. The writer
emits a canonical ordering so write/parse round-trips are byte-stable.
"""

from __future__ import annotations

from typing import Union

from .core import Digraph, Graph, _vertex_count
from .errors import GraphFormatError

__all__ = ["parse_graph_text", "parse_graph_file", "format_graph"]


def parse_graph_text(text: str) -> Union[Graph, Digraph]:
    n = m = None
    directed = False
    header_seen = False
    links: list[tuple[int, int]] = []
    link_set: set[tuple[int, int]] = set()
    labels: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        if not header_seen:
            if tag not in ("g", "d") or len(fields) != 3:
                raise GraphFormatError(
                    "expected header 'g <n> <m>' or 'd <n> <m>'", lineno
                )
            try:
                n, m = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError("header counts must be integers", lineno)
            if n < 0 or m < 0:
                raise GraphFormatError("header counts must be nonnegative", lineno)
            _vertex_count(n)
            directed = tag == "d"
            header_seen = True
            continue
        if tag == "l":
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
        if tag not in ("e", "a") or len(fields) != 3:
            raise GraphFormatError(f"unrecognised line {line!r}", lineno)
        if directed and tag == "e":
            raise GraphFormatError("edge line 'e' inside a digraph file", lineno)
        if not directed and tag == "a":
            raise GraphFormatError("arc line 'a' inside a graph file", lineno)
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise GraphFormatError("endpoints must be integers", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"endpoint out of range in {line!r}", lineno)
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}", lineno)
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in link_set:
            kind = "arc" if directed else "edge"
            raise GraphFormatError(f"duplicate {kind} {key}", lineno)
        links.append(key)
        link_set.add(key)
    if not header_seen:
        raise GraphFormatError("missing header line")
    if len(links) != m:
        raise GraphFormatError(f"header announced {m} links, file has {len(links)}")
    label_list = None
    if labels:
        if len(labels) != n:
            raise GraphFormatError(
                f"labels must cover all {n} vertices or none (got {len(labels)})"
            )
        label_list = [labels[v] for v in range(n)]
    if directed:
        return Digraph(n, links, labels=label_list)
    return Graph(n, links, labels=label_list)


def parse_graph_file(path) -> Union[Graph, Digraph]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def format_graph(obj: Union[Graph, Digraph]) -> str:
    if not isinstance(obj, (Graph, Digraph)):
        raise TypeError("expected a Graph or Digraph")
    kind, tag = ("g", "e") if isinstance(obj, Graph) else ("d", "a")
    lines = [f"{kind} {obj.n} {obj.m}"]
    if obj.labels is not None:
        lines += [f"l {v} {lab}" for v, lab in enumerate(obj.labels)]
    lines += [f"{tag} {u} {v}" for u, v in obj.pairs]
    return "\n".join(lines) + "\n"
