"""The source-graph line-cycle search against the line-graph path in linegraph_reference."""

import json
from dataclasses import replace
from random import Random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgespec.cli
import edgespec.engine
import edgespec.isometric
import edgespec.linegraph
import edgespec.spectra
from edgespec import (
    CandidateOverflow,
    Verdict,
    all_pairs_distances,
    build_graph,
    classify_line_cycles,
    compare_graphs,
    digital_invariant_IL,
    integral_invariant,
    is_isometric,
    line_graph,
    relabel,
    vertex_orbit_partition,
)
from edgespec.linegraph import _line_weights, line_cycle_weights

import fixtures as fx
import linegraph_reference as ref
from test_isometric_oracle import FIXTURES


def assert_matches_reference(g):
    weights = ref.line_cycle_weights(g)
    assert line_cycle_weights(g) == weights
    assert digital_invariant_IL(g) == ref.digital_invariant_IL(g)
    cls = classify_line_cycles(g)
    ref_lg, ref_cls = ref.classify_line_cycles(g)
    assert cls.counts == ref_cls.counts
    assert (cls.line_n, cls.line_m) == (ref_lg.graph.n, ref_lg.graph.m)
    assert sorted(cls.images) == sorted(image.bits for _, image in ref_cls.images)
    assert sorted(cls.doubles) == sorted(image.bits for _, image in ref_cls.doubles)
    # the linegraph command's IL route: the classification's own masks
    assert _line_weights(g, cls.images + cls.doubles) == weights


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_matches_reference(name):
    assert_matches_reference(FIXTURES[name]())


@pytest.mark.parametrize(
    "make",
    [
        lambda: fx.grid(10, 10),
        lambda: fx.grid(11, 11),
        lambda: fx.torus(7, 9),
        lambda: fx.circular_ladder(15),
    ],
    ids=["grid_10x10", "grid_11x11", "torus_7x9", "circular_ladder_15"],
)
def test_long_cycles_match_reference(make):
    # tops far from the anchor: the line search picks them from the
    # anchor's end, and the reference searches L(G) itself
    assert_matches_reference(make())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_graph_and_its_line_graph_match_reference(seed):
    g = fx.random_nonseparable(Random(seed))
    assert_matches_reference(g)
    if g.m <= 40:
        assert_matches_reference(line_graph(g).graph)


@pytest.mark.parametrize("seed", range(5))
def test_random_cubic_matches_reference(seed):
    rng = Random(seed)
    assert_matches_reference(fx.random_cubic(rng, rng.choice((12, 16, 20, 24, 32))))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_line_distances_and_cycle_rule(seed):
    # d_L(e, f) = 1 + the least distance between their ends, and a simple
    # cycle of G of length L = 2k + off is isometric in L(G) exactly when
    # every pair at cyclic distance k - 1 or k is k - 1 or more apart in G
    g = fx.random_nonseparable(Random(seed))
    dist = all_pairs_distances(g)
    lg = line_graph(g).graph
    line_dist = all_pairs_distances(lg)
    for e in g.edge_ids:
        for f in g.edge_ids:
            if e != f:
                ends = min(dist[x][y] for x in g.edge_endpoints(e) for y in g.edge_endpoints(f))
                assert line_dist[e][f] == 1 + ends
    for seq in nx.simple_cycles(fx.to_nx(g), length_bound=8):
        length = len(seq)
        k = length // 2
        edges = [g.edge_id(u, v) for u, v in zip(seq, seq[1:] + seq[:1])]
        line_cycle = lg.edge_set(lg.edge_id(e, f) for e, f in zip(edges, edges[1:] + edges[:1]))
        rule = all(
            dist[seq[i]][seq[(i + s) % length]] >= k - 1
            for i in range(length)
            for s in (k - 1, k)
        )
        assert rule == is_isometric(lg, line_cycle)


def test_line_invariant_builds_no_line_graph(monkeypatch, tmp_path, capsys):
    g = fx.g_8v15e()
    with monkeypatch.context() as m:
        m.setattr(edgespec.engine, "digital_invariant_IL", ref.digital_invariant_IL)
        m.setattr(edgespec.engine, "line_cycle_weights", ref.line_cycle_weights)
        expected = (
            integral_invariant(g, with_line=True),
            vertex_orbit_partition(g, with_line=True),
            compare_graphs(fx.petersen(), fx.cubic_10v(), max_levels=1, with_line=True),
        )

    def refuse(_):
        raise AssertionError("line graph built")

    monkeypatch.setattr(edgespec.linegraph, "line_graph", refuse)
    assert integral_invariant(g, with_line=True) == expected[0]
    assert expected[0] == replace(integral_invariant(g), line=ref.digital_invariant_IL(g))
    assert vertex_orbit_partition(g, with_line=True) == expected[1]
    found = compare_graphs(fx.petersen(), fx.cubic_10v(), max_levels=1, with_line=True)
    assert found == expected[2]
    assert found.witness == "line invariant"
    h = relabel(g, list(g.vertices)[::-1])
    assert compare_graphs(g, h, with_line=True).verdict == Verdict.ISOMORPHIC

    # the linegraph command: one isometric search and one line pass per run
    calls = []
    for name in ("_cycle_masks", "line_cycle_masks"):
        original = getattr(edgespec.isometric, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for mod in (edgespec.isometric, edgespec.linegraph, edgespec.spectra, edgespec.engine, edgespec.cli):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, spy)
    path = tmp_path / "g.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
    capsys.readouterr()
    edgespec.cli.main.main(["linegraph", str(path)], standalone_mode=False)
    assert sorted(calls) == ["_cycle_masks", "line_cycle_masks"]
    assert f"double cycles: {fx.G_8V15E_LINE_COUNTS[2]}" in capsys.readouterr().out.splitlines()
    calls.clear()
    edgespec.cli.main.main(["linegraph", str(path), "--format", "machine"], standalone_mode=False)
    assert sorted(calls) == ["_cycle_masks", "line_cycle_masks"]
    payload = json.loads(capsys.readouterr().out)
    assert (payload["triples"], payload["images"], payload["doubles"]) == fx.G_8V15E_LINE_COUNTS


@pytest.mark.parametrize("name", ["octahedron", "petersen", "g_8v15e"])
def test_line_invariant_limit(name):
    g = getattr(fx, name)()
    default = digital_invariant_IL(g)
    outcomes = []
    for limit in range(400):
        try:
            outcomes.append(digital_invariant_IL(g, limit) == default)
        except CandidateOverflow:
            outcomes.append(None)
    passed = outcomes.index(True)
    assert passed > 0
    assert outcomes[:passed] == [None] * passed
    assert outcomes[passed:] == [True] * (400 - passed)


def test_line_invariant_of_a_graph_without_edges():
    # the line graph of one vertex is empty, so no line cycle meets an edge
    g = build_graph(1, [[]])
    assert line_cycle_weights(g) == ([], [0])
    assert vertex_orbit_partition(g, with_line=True).groups == ((1,),)
