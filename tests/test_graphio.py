"""The one-pass parser against a copy of the line-list parser it replaced:
every malformed input fails with the same exception type, message and
line number, and every valid input gives the same structure."""

from itertools import count
from typing import Union

import pytest

from dichroma.cli import run
from dichroma.core import Deadline, Digraph, Graph, _vertex_count
from dichroma.errors import BudgetExceededError, GraphFormatError, LimitExceededError
from dichroma.generators import kneser
from dichroma.graphio import format_graph, parse_graph_text


def reference_parse(text: str) -> Union[Graph, Digraph]:
    """The parser as it was before the one-pass rewrite: every line is
    checked into a list and a set, and the validating constructor checks
    them all again."""
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


def outcome(parse, text: str):
    """What parse makes of text: the structure's parts, or the exception's
    type, message and line number."""
    try:
        obj = parse(text)
    except Exception as exc:  # the type itself is compared
        return type(exc), str(exc), getattr(exc, "lineno", None)
    return type(obj), obj.n, obj.pairs, obj.outs, obj.ins, obj.labels


MALFORMED = {
    # header shape
    "unknown header tag": "x 2 1\n",
    "header with two fields": "g 2\n",
    "header with four fields": "g 2 1 5\n",
    "label before the header": "l 0 a\ng 1 0\n",
    "edge before the header": "# c\n\ne 0 1\ng 2 1\n",
    "header with a comment after it": "g 2 1 # two vertices\ne 0 1\n",
    # header counts
    "non-integer vertex count": "g two 1\n",
    "non-integer link count": "d 2 1.5\n",
    "negative vertex count": "g -1 0\n",
    "negative link count": "d 2 -3\n",
    "vertex limit": "g 5001 0\n",
    # label lines
    "label line with no label": "g 2 0\nl 0\n",
    "bare label tag": "g 2 0\nl\n",
    "non-integer label vertex": "g 2 0\nl x a\n",
    "label vertex past n": "g 2 0\nl 2 a\n",
    "negative label vertex": "g 2 0\nl -1 a\n",
    "label repeated for a vertex": "g 2 0\nl 0 a\nl 0 b\n",
    "labels on some vertices": "g 3 0\nl 0 a\nl 2 c\n",
    "two vertices with one label": "g 2 0\nl 0 a\nl 1 a\n",
    "labels equal once stripped": "g 2 0\nl 0 a  b\nl 1  a  b  \n",
    # links of the wrong kind
    "edge line in a digraph": "d 2 1\ne 0 1\n",
    "arc line in a graph": "g 2 1\na 0 1\n",
    "arc line in a graph with bad endpoints": "g 2 1\na x y\n",
    # unrecognised lines
    "unknown tag": "g 2 1\nx 0 1\n",
    "edge line with three endpoints": "g 2 1\ne 0 1 2\n",
    "edge line with one endpoint": "g 2 1\ne 0\n",
    "short arc line in a graph": "g 2 1\na 0\n",
    "short edge line in a digraph": "d 2 1\ne 0\n",
    "header line repeated": "g 2 1\ng 2 1\n",
    # endpoints
    "non-integer endpoint": "g 2 1\ne 0 b\n",
    "float endpoint": "d 2 1\na 0.0 1\n",
    "endpoint past n": "g 2 1\ne 0 5\n",
    "negative endpoint": "d 2 1\na -1 0\n",
    "endpoint of an empty graph": "g 0 1\ne 0 0\n",
    "range checked before loop": "g 2 1\ne 3 3\n",
    "edge loop": "g 3 1\ne 1 1\n",
    "arc loop": "d 3 1\na 2 2\n",
    # duplicates
    "duplicate edge": "g 3 2\ne 0 1\ne 0 1\n",
    "duplicate edge reversed": "g 3 2\ne 2 1\n\ne 1 2\n",
    "duplicate arc": "d 3 3\na 0 1\na 1 0\na 0 1\n",
    "duplicate found before the count": "g 3 1\ne 0 1\ne 1 0\n",
    # counts
    "fewer links than announced": "g 2 2\ne 0 1\n",
    "more links than announced": "d 2 0\na 0 1\n",
    "count checked before labels": "g 2 2\nl 0 a\ne 0 1\n",
    # no header
    "empty text": "",
    "only comments and blanks": "# only\n\n  \n\t# indented\n",
    "commented-out header": "#g 2 1\n",
}

VALID = {
    "graph": "g 3 3\ne 0 1\ne 1 2\ne 0 2\n",
    "digraph with a digon": "d 3 3\na 0 1\na 1 0\na 2 1\n",
    "edges out of order": "g 5 4\ne 4 0\ne 2 1\ne 3 0\ne 0 2\n",
    "CRLF endings": "g 3 2\r\nl 0 a\r\nl 1 b\r\nl 2 c\r\ne 0 1\r\ne 2 1\r\n",
    "CR endings": "d 2 1\ra 1 0\r",
    "tabs": "g\t3\t2\ne\t0\t1\n\te 1\t2\t\n",
    "comments and blanks": "# first\n\n   \ng 3 1\n# between\n\t# indented\n\ne 0 2\n\n",
    "labels with spaces": "g 3 1\nl 0 a b\nl 1   two  spaces  \nl 2 {1, 2}\ne 0 1\n",
    "labels after links": "d 2 1\na 0 1\nl 1 y\nl 0 x\n",
    "no-break space": "g 2 1\ne\u00a00 1\n",
    "empty graph": "g 0 0\n",
    "edgeless digraph": "d 4 0\n",
    "no final newline": "g 2 1\ne 1 0",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_fails_as_before(text):
    got, want = outcome(parse_graph_text, text), outcome(reference_parse, text)
    assert issubclass(want[0], (GraphFormatError, LimitExceededError, ValueError))
    assert got == want


@pytest.mark.parametrize("text", VALID.values(), ids=VALID.keys())
def test_valid_input_parses_as_before(text):
    assert outcome(parse_graph_text, text) == outcome(reference_parse, text)
    assert parse_graph_text(text) == reference_parse(text)


def test_catalogue_texts_parse_as_before():
    from dichroma.catalogue import digraph_catalogue, graphs_up_to

    for obj in graphs_up_to(5) + digraph_catalogue(4) + [kneser(6, 2)]:
        text = format_graph(obj)
        assert outcome(parse_graph_text, text) == outcome(reference_parse, text)


def _fire_after(monkeypatch, calls: int) -> None:
    """Make every deadline report time up from the given call of check on."""
    polls = count(1)
    monkeypatch.setattr(Deadline, "check", lambda self: next(polls) >= calls)


def test_parse_polls_the_deadline_once_per_line(monkeypatch):
    text = "# Petersen\n\n" + format_graph(kneser(5, 2))
    lines = len(text.splitlines())
    polls = []
    monkeypatch.setattr(Deadline, "check", lambda self: polls.append(self) is not None)
    assert parse_graph_text(text) == kneser(5, 2)
    assert polls == []
    assert parse_graph_text(text, Deadline(300)) == kneser(5, 2)
    assert len(polls) == lines
    for fire in (1, 2, 3, lines // 2, lines):  # a comment, the header, a label, the end
        _fire_after(monkeypatch, fire)
        with pytest.raises(BudgetExceededError, match="reading the input"):
            parse_graph_text(text, Deadline(300))
    _fire_after(monkeypatch, lines + 1)
    assert parse_graph_text(text, Deadline(300)) == kneser(5, 2)


@pytest.mark.parametrize("argv", [
    ["solve", "chromatic"],
    ["solve", "list-dichromatic"],
    ["orient", "random", "--seed", "1"],
    ["orient", "certified", "--l", "2"],
    ["check", "coloring", "--coloring", "{missing}"],
    ["mc", "biclique", "--l", "2", "--trials", "3"],
])
def test_command_deadline_covers_reading_the_input(monkeypatch, tmp_path, capsys, argv):
    # a parse that outlives --timeout-s exits 3 with nothing on stdout
    path = tmp_path / "petersen.g"
    path.write_text(format_graph(kneser(5, 2)))
    argv = [a.replace("{missing}", str(tmp_path / "none.json")) for a in argv]
    _fire_after(monkeypatch, 5)
    assert run(argv + [str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "reading the input ran out of time" in err
