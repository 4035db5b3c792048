"""The loader against the reference loader in grf_reference.py.

Files of both formats, and adjacency rows and edge lists handed to the
builders directly, must give graphs with equal fields (vertex count,
edges, neighbour tuples, central cuts), or raise the same error class
with the same message.  Valid input comes from the fixtures, random
trees and random graphs, written out with shuffled and flipped orders,
comments, blank lines, CRLF line ends, tabs and explicit plus signs.
Malformed input corrupts such a file up to three times, so that the
error named is the first in input order."""

from random import Random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from edgespec import (
    EdgespecError,
    Graph,
    build_graph,
    graph_from_edges,
    load_graph,
    parse_edgelist,
    parse_grf,
)

import fixtures as fx
import grf_reference as ref

FIXTURES = (
    fx.k2(),
    fx.k_n(3),
    fx.k_n(5),
    fx.g_5v7e_listed(),
    fx.g_6v11e(),
    fx.g_8v15e(),
    fx.petersen(),
    fx.g_12v35e(),
    fx.spider_tree(),
    fx.star(4),
    fx.path(6),
    fx.wheel6(),
    fx.cube(),
)

PACKAGE = {
    "grf": parse_grf,
    "edges": parse_edgelist,
    "load": load_graph,
    "build": build_graph,
    "from_edges": graph_from_edges,
}
REFERENCE = {
    "grf": ref.parse_grf,
    "edges": ref.parse_edgelist,
    "load": ref.load_graph,
    "build": ref.build_graph,
    "from_edges": ref.graph_from_edges,
}


# Hypothesis's explain phase, which reruns a failing example under line
# tracing to report the lines that only failures ran, took 90 s on these
# inputs; finding and shrinking the failure takes seconds
ORACLE = settings(deadline=None, phases=[p for p in Phase if p.name != "explain"])


def outcome(parse, *args):
    """The fields of the graph built, or the class and message raised."""
    try:
        g = parse(*args)
    except EdgespecError as exc:
        return type(exc), str(exc)
    return g.n, g.edges, g._adj, g._cut


def agree(kind, *args):
    """The package's outcome, after checking that the reference's equals it."""
    got = outcome(PACKAGE[kind], *args)
    assert got == outcome(REFERENCE[kind], *args)
    return got


def failed(got) -> bool:
    return isinstance(got[0], type)


@st.composite
def graphs(draw):
    """(n, edges) of a fixture, a random tree or a random 2-connected graph."""
    kind = draw(st.sampled_from(("fixture", "tree", "random")))
    if kind == "fixture":
        g = draw(st.sampled_from(FIXTURES))
    elif kind == "tree":
        n = draw(st.integers(2, 9))
        g = fx.tree_from_pruefer(draw(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2)))
    else:
        g = fx.random_nonseparable(Random(draw(st.integers(0, 10**6))), 3, 9)
    return g.n, list(g.edges)


def disjoint(rnd: Random, graph):
    """The graph, or at times its union with a second copy of itself,
    numbered after it, which is disconnected."""
    n, edges = graph
    if rnd.random() < 0.8:
        return graph
    return 2 * n, edges + [(u + n, v + n) for u, v in edges]


def number(rnd: Random, v: int) -> str:
    return f"+{v}" if rnd.random() < 0.1 else str(v)


def layout(rnd: Random, lines: list[list[str]], comment) -> str:
    """Lines of tokens, with tabs or runs of spaces between tokens, some
    blank lines and comments, and LF or CRLF line ends."""
    out = []
    for tokens in lines:
        if rnd.random() < 0.15:
            out.append(rnd.choice(("", "  ", "\t")))
        line = tokens[0] if tokens else ""
        for tok in tokens[1:]:
            line += rnd.choice((" ", "  ", "\t", " \t")) + tok
        if rnd.random() < 0.2:
            line = comment(line)
        out.append(line)
    end = "\r\n" if rnd.random() < 0.3 else "\n"
    return end.join(out) + (end if rnd.random() < 0.8 else "")


def rows_of(n: int, edges) -> list[list[int]]:
    rows = [[] for _ in range(n + 1)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    return rows[1:]


def grf_lines(rnd: Random, n: int, rows, offsets=None) -> list[list[str]]:
    if offsets is None:
        offsets = [1]
        for row in rows:
            offsets.append(offsets[-1] + len(row))
    head = [[number(rnd, n)], [number(rnd, o) for o in offsets]]
    return head + [[number(rnd, u) for u in row] for row in rows]


def grf_text(rnd: Random, lines: list[list[str]]) -> str:
    return layout(rnd, lines, lambda line: f"{{c}} {line} {{ note }}" if line else "{}")


def edge_lines(rnd: Random, edges) -> list[list[str]]:
    return [[number(rnd, u), number(rnd, v)] for u, v in edges]


def edge_text(rnd: Random, lines: list[list[str]]) -> str:
    return layout(rnd, lines, lambda line: f"{line}  # note" if line else "# header")


def shuffled(rnd: Random, n: int, edges):
    """The edges in a random order, each pair flipped or not, and the rows
    with their neighbours in a random order."""
    listed = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges]
    rnd.shuffle(listed)
    rows = rows_of(n, listed)
    for row in rows:
        rnd.shuffle(row)
    return listed, rows


@settings(ORACLE, max_examples=150)
@given(graphs(), st.randoms(use_true_random=False))
def test_valid_files_give_equal_graphs(graph, rnd):
    n, edges = graph
    listed, rows = shuffled(rnd, n, edges)
    grf = grf_text(rnd, grf_lines(rnd, n, rows))
    listing = edge_text(rnd, edge_lines(rnd, listed))
    assert not failed(agree("grf", grf))
    assert not failed(agree("edges", listing))
    assert agree("load", grf) == agree("grf", grf)
    assert not failed(agree("load", listing))
    assert not failed(agree("build", n, rows))
    assert not failed(agree("build", n, {v: row for v, row in enumerate(rows, 1) if row}))
    assert not failed(agree("from_edges", n, listed))


@pytest.mark.parametrize("g", FIXTURES, ids=repr)
def test_constructor_matches_the_reference(g):
    got = Graph(g.n, g.edges)
    want = ref.make_graph(g.n, g.edges)
    assert (got.n, got.edges, got._adj, got._cut) == (want.n, want.edges, want._adj, want._cut)


def corrupt_rows(rnd: Random, n: int, rows, offsets) -> None:
    """One fault in the rows or offsets of an offset-format file, in place."""
    entries = [(v, i) for v, row in enumerate(rows) for i in range(len(row))]
    fault = rnd.choice(("range", "loop", "repeat", "asymmetric", "offset", "decrease", "odd"))
    if fault in ("range", "loop", "repeat", "asymmetric") and entries:
        v, i = rnd.choice(entries)
        if fault == "range":
            rows[v][i] = rnd.choice((0, -1, n + 1, n + 7))
        elif fault == "loop":
            rows[v][i] = v + 1
        elif fault == "repeat":
            rows[v][i] = rnd.choice(rows[v])
        else:
            # a vertex that neither is v nor lists v yet
            others = [u for u in range(1, n + 1) if u != v + 1 and u not in rows[v]]
            rows[v][i] = rnd.choice(others or [rows[v][i]])
    elif fault == "offset":
        offsets[0] = rnd.choice((0, 2))
    elif fault == "decrease" and n > 1:
        k = rnd.randrange(1, n)
        offsets[k], offsets[k + 1] = offsets[k + 1] + 1, offsets[k]
    elif fault == "odd":
        offsets[-1] += 1
        rows[-1].append(rnd.randint(1, n))


def corrupt_lines(rnd: Random, lines: list[list[str]], n: int) -> None:
    """One fault in the lines of a file of either format, in place."""
    if not lines:
        return
    fault = rnd.choice(("token", "arity", "range", "loop", "repeat", "drop"))
    k = rnd.randrange(len(lines))
    line = lines[k]
    if fault == "token" and line:
        line[rnd.randrange(len(line))] = rnd.choice(("x", "1.5", "0x3", "--2", "{", "}"))
    elif fault == "arity":
        if line and rnd.random() < 0.5:
            line.pop()
        else:
            line.append(str(rnd.randint(1, n)))
    elif fault == "range" and line:
        line[rnd.randrange(len(line))] = rnd.choice(("0", "-1", str(n + 1)))
    elif fault == "loop" and len(line) == 2:
        line[1] = line[0]
    elif fault == "repeat":
        lines.insert(rnd.randrange(len(lines) + 1), list(reversed(line)))
    elif fault == "drop":
        del lines[k]


@settings(ORACLE, max_examples=200)
@given(graphs(), st.randoms(use_true_random=False), st.integers(0, 3))
def test_malformed_offset_files_raise_the_same_error(graph, rnd, faults):
    n, edges = disjoint(rnd, graph)
    _, rows = shuffled(rnd, n, edges)
    offsets = [1]
    for row in rows:
        offsets.append(offsets[-1] + len(row))
    for _ in range(faults):
        corrupt_rows(rnd, n, rows, offsets)
    agree("build", n, rows)
    lines = grf_lines(rnd, n, rows, offsets)
    if rnd.random() < 0.3:
        corrupt_lines(rnd, lines, n)
    text = grf_text(rnd, lines)
    agree("grf", text)
    agree("load", text)


@settings(ORACLE, max_examples=200)
@given(graphs(), st.randoms(use_true_random=False), st.integers(0, 3))
def test_malformed_edge_lists_raise_the_same_error(graph, rnd, faults):
    n, edges = disjoint(rnd, graph)
    listed, _ = shuffled(rnd, n, edges)
    lines = edge_lines(rnd, listed)
    for _ in range(faults):
        corrupt_lines(rnd, lines, n)
    text = edge_text(rnd, lines)
    agree("edges", text)
    agree("load", text)


@settings(ORACLE, max_examples=200)
@given(
    st.integers(-1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(-1, n + 1), max_size=n + 1), min_size=max(n, 0), max_size=max(n, 0) + 1),
            st.lists(st.tuples(st.integers(-1, n + 1), st.integers(-1, n + 1)), max_size=2 * n + 2),
        )
    )
)
def test_builders_raise_the_same_error_on_any_rows(case):
    n, rows, pairs = case
    agree("build", n, rows)
    agree("build", n, dict(enumerate(rows, 1)))
    agree("from_edges", n, pairs)


@pytest.mark.parametrize(
    "kind, text",
    [
        ("grf", ""),
        ("grf", "{open 2 1 2 3 2 1"),
        ("grf", "2 1 2 3 2 1 }"),
        ("grf", "3 1 2 3 4 2 1 {a}"),
        ("grf", "4 1 3 5 7 9 2 3 1 4 1 4 2 1"),
        ("grf", "4 1 2 3 4 5 2 1 4 3"),
        ("grf", "2 1 3 3 2 2"),
        ("grf", "2 1 2 3 1 2"),
        ("grf", "3 1 2 4 5 2 1 3 x"),
        ("edges", "# nothing\n\n"),
        ("edges", "1 2\n3 4\n"),
        ("edges", "1 2\n2 1\n"),
        ("edges", "1 2\n2 2\n"),
        ("edges", "0 1\n"),
        ("edges", "-1 -2\n"),
        ("edges", "1 2 3\n1 x\n"),
        ("edges", "1 x\n1 2 3\n"),
        ("edges", "1 2\n2\n"),
    ],
)
def test_named_faults_raise_the_same_error(kind, text):
    assert failed(agree(kind, text))
    agree("load", text)
