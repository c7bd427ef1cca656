"""The columnar parser, validator and adjacency scatter of qnet.graphs against
the per-line and per-edge code they replaced, kept in _graphs_reference:
fuzzed edge-list texts and edge tuples give an equal graph or the identical
GraphFormatError message, and adjacency matrices are bitwise equal."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnet import (
    GraphFormatError,
    adjacency_matrix,
    build_graph,
    load_edge_list,
    to_edge_list,
)

import _graphs_reference as reference

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# tokens int() or float() read differently from a plain decimal, or reject,
# or whose value lies past the node limit or outside 64-bit integers
ODD_IDS = ["-1", "-0", "+1", "1_0", "1.5", "a", "0x1", "٣", "1e3", "20000",
           "20001", "9223372036854775807", "18446744073709551616",
           "-9223372036854775809"]
ODD_NUMBERS = ["nan", "NaN", "inf", "-inf", "Infinity", "-1.5", "-0.0", "1e400",
               "+2", "1_0.5", "x", "0x10", "-1e-300"]
NEWLINES = ["\n", "\r\n", "\r", "\x0c", "\u2028"]


def outcome(parse, *args, **kwargs):
    """The graph as (n, directed, edges, scalar types), or the error text."""
    try:
        g = parse(*args, **kwargs)
    except GraphFormatError as exc:
        return "error", str(exc)
    return "graph", (g.n, g.directed, g.edges,
                     [tuple(type(x) for x in e) for e in g.edges])


def mostly(draw, common, odd: list[str], one_in: int) -> str:
    """A token from common, or one time in one_in from odd."""
    return draw(st.sampled_from(odd)) if draw(st.integers(1, one_in)) == 1 else draw(common)


SMALL_ID = st.integers(0, 4).map(str)
WEIGHT = st.one_of(st.floats(0.0, 10.0).map(repr), st.integers(0, 3).map(str))
PHASE = st.one_of(st.floats(-4.0, 4.0).map(repr), st.just("0"))


@st.composite
def fuzzed_line(draw) -> str:
    kind = draw(st.sampled_from(["edge"] * 8 + ["fields", "directive", "comment", "blank"]))
    if kind == "edge":
        fields = [mostly(draw, SMALL_ID, ODD_IDS, 20), mostly(draw, SMALL_ID, ODD_IDS, 20),
                  mostly(draw, WEIGHT, ODD_NUMBERS, 8), mostly(draw, PHASE, ODD_NUMBERS, 8)]
        line = " ".join(fields[:draw(st.integers(2, 4))])
    elif kind == "fields":
        line = " ".join(draw(st.lists(SMALL_ID, min_size=1, max_size=6).filter(
            lambda f: not 2 <= len(f) <= 4)))
    elif kind == "directive":
        line = draw(st.sampled_from(["nodes 4", "nodes 9", "Nodes 3", "nodes", "nodes x",
                                     "directed", "DIRECTED", "directed 0 1"]))
    elif kind == "comment":
        line = "# " + draw(st.sampled_from(["note", "0 1", "nodes 3"]))
    else:
        line = draw(st.sampled_from(["", " ", "\t"]))
    if draw(st.integers(0, 5)) == 0:
        line += "\t# trailing"
    return line


@st.composite
def fuzzed_text(draw) -> str:
    header = draw(st.lists(st.sampled_from(
        ["nodes 7"] * 6 + ["nodes 3"] * 3 + ["directed"] * 3 + ["# header", "", "nodes 0",
         "nodes -2", "nodes 20000", "nodes 20001", "nodes 99999999999999999999", "nodes 1.5",
         "nodes 2 3"]), max_size=2))
    lines = header + draw(st.lists(fuzzed_line(), max_size=10))
    newline = draw(st.sampled_from(NEWLINES))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


@st.composite
def valid_text(draw) -> str:
    """An edge list every parser accepts: distinct pairs, finite weights >= 0,
    a node count that covers every id, and comments and blank lines between."""
    n = draw(st.integers(1, 9))
    directed = draw(st.booleans())
    pairs = [(i, j) for i in range(n) for j in range(n) if i < j or (directed and i != j)]
    chosen = (draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
              if pairs else [])
    width = draw(st.sampled_from([2, 3, 4, None]))   # None: each line draws its own
    lines = []
    if draw(st.booleans()):
        lines.append(f"nodes {n + draw(st.integers(0, 2))}")
    if directed:
        lines.append(draw(st.sampled_from(["directed", "Directed"])))
    for i, j in chosen:
        if not directed and draw(st.booleans()):
            i, j = j, i
        fields = [str(i), str(j), draw(WEIGHT), draw(PHASE)]
        line = " ".join(fields[:width or draw(st.integers(2, 4))])
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "# comment", "  "])))
            line += "  # edge"
        lines.append(line)
    newline = draw(st.sampled_from(NEWLINES))
    return newline.join(lines) + newline


@settings(FUZZ, max_examples=600)
@given(text=fuzzed_text(), directed=st.sampled_from([None, True, False]))
def test_fuzzed_edge_lists_match_reference_parser(text, directed):
    assert outcome(load_edge_list, text, directed=directed) == \
        outcome(reference.load_edge_list, text, directed=directed)


@FUZZ
@given(text=valid_text(), directed=st.sampled_from([None, True]))
def test_valid_edge_lists_match_reference_parser_and_round_trip(text, directed):
    got = outcome(load_edge_list, text, directed=directed)
    assert got[0] == "graph"
    assert got == outcome(reference.load_edge_list, text, directed=directed)
    g = load_edge_list(text, directed=directed)
    assert load_edge_list(to_edge_list(g)) == g


@pytest.mark.parametrize("text", [
    "nodes 3\n0 1\n1 2 nan\n",            # the line a CLI error must name
    "0 1\n0 1 2 3 4\n2 -1\n",             # field count before a later negative id
    "0 1\nnodes 5\n",                     # directive after edges
    "directed\n0 1\n1 0\n0 1 1 0\n",      # directed duplicate
    "0 1\n3 3\n1 0\n",                    # self-loop before a reversed duplicate
    "0 1\n1 2\n1 0\n",                    # reversed duplicate
    "nodes 2\n0 3\n1 1 -1\n",             # line check before the node count
    "5 1\n99999999999999999999 0\n",      # past the node limit
    "nodes 4\n9223372036854775807 0\n",   # past the declared count and int64
    "nodes -2\n",                         # negative count, no edges
    "",
])
def test_edge_list_cases_match_reference_parser(text):
    assert outcome(load_edge_list, text) == outcome(reference.load_edge_list, text)


EDGE_ID = st.one_of(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(-1, 7))
EDGE_WEIGHT = st.one_of(st.floats(0.0, 10.0), st.integers(0, 3), st.floats(0.0, 10.0),
                        st.sampled_from([float("nan"), float("inf"), -1.0, -0.0, -2]))
EDGE_PHASE = st.one_of(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
                       st.sampled_from([float("-inf"), float("nan")]))


@FUZZ
@given(n=st.one_of(st.just(5), st.just(5), st.integers(-1, 7)), directed=st.booleans(),
       rows=st.lists(st.tuples(EDGE_ID, EDGE_ID, EDGE_WEIGHT, EDGE_PHASE, st.integers(2, 4))
                     .map(lambda r: r[:r[4]]), max_size=8))
def test_fuzzed_edge_tuples_match_reference_build_graph(n, directed, rows):
    assert outcome(build_graph, n, rows, directed=directed) == \
        outcome(reference.build_graph, n, rows, directed=directed)


@st.composite
def graph_edges(draw):
    n = draw(st.integers(2, 7))
    directed = draw(st.booleans())
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j and (directed or i < j)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    phased = draw(st.booleans())
    edges = [(i, j, draw(st.floats(0.0, 10.0)), draw(st.floats(-4.0, 4.0)) if phased else 0.0)
             for i, j in chosen]
    return n, edges, directed


@FUZZ
@given(case=graph_edges())
def test_adjacency_scatter_is_bitwise_the_reference_loop(case):
    n, edges, directed = case
    g = build_graph(n, edges, directed=directed)
    a, want = adjacency_matrix(g), reference.adjacency_matrix(g)
    assert a.dtype == want.dtype
    assert a.tobytes() == want.tobytes()

