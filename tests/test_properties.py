"""Property tests: algebraic laws, round trips, external cross-checks."""

from random import Random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from edgespec import (
    EdgeSet,
    Verdict,
    all_pairs_distances,
    compare_graphs,
    cycle_order,
    emit_grf,
    is_isometric,
    isometric_cycles,
    line_graph,
    parse_edgelist,
    parse_grf,
    relabel,
    rle,
)

import fixtures as fx
from gf2_reference import Gf2Basis

WIDTH = 16

bits = st.integers(min_value=0, max_value=(1 << WIDTH) - 1)


def es(b):
    return EdgeSet.from_bits(WIDTH, b)


@given(bits, bits, bits)
def test_xor_laws(a, b, c):
    x, y, z = es(a), es(b), es(c)
    assert (x ^ y) ^ z == x ^ (y ^ z)
    assert x ^ y == y ^ x
    assert (x ^ x).bits == 0
    assert x ^ es(0) == x


@given(bits, bits)
def test_subset_and_membership(a, b):
    x, y = es(a), es(b)
    assert (x & y) <= x
    assert x <= (x | y)
    for e in x:
        assert e in (x | y)
    assert len(x ^ y) == len(x) + len(y) - 2 * len(x & y)


@given(bits)
def test_ids_round_trip(a):
    x = es(a)
    assert EdgeSet(WIDTH, x.ids()) == x
    assert list(x) == sorted(x.ids())


@given(st.lists(st.integers(min_value=0, max_value=99), max_size=30))
def test_rle_expands_back(values):
    out = []
    rendered = rle(values)
    if rendered:
        for part in rendered.split(", "):
            if "×" in part:
                count, value = part.split("×")
                out.extend([int(value)] * int(count))
            else:
                out.append(int(part))
    assert out == values


@given(st.lists(bits, min_size=1, max_size=24), bits)
def test_basis_recombination(vectors, probe_bits):
    basis = Gf2Basis(WIDTH)
    added = []
    for b in vectors:
        v = es(b)
        added.append(v)
        basis.add(v)
    probe = es(probe_bits)
    parts = basis.decompose(probe)
    if parts is None:
        assert not basis.contains(probe)
        return
    acc = es(0)
    for i in parts:
        acc ^= added[i]
    assert acc == probe


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_grf_round_trip(seed):
    g = fx.random_nonseparable(Random(seed))
    assert parse_grf(emit_grf(g)) == g


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_edgelist_round_trip(seed):
    g = fx.random_nonseparable(Random(seed))
    text = "".join(f"{u} {v}\n" for u, v in g.edges)
    assert parse_edgelist(text) == g


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_line_graph_matches_networkx(seed):
    g = fx.random_nonseparable(Random(seed))
    lg = line_graph(g).graph
    ours = {
        frozenset((g.edge_endpoints(u), g.edge_endpoints(v)))
        for u, v in lg.edges
    }
    theirs = {frozenset(e) for e in nx.line_graph(fx.to_nx(g)).edges()}
    assert ours == theirs


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_relabeled_pairs_are_confirmed(seed):
    rng = Random(seed)
    g = fx.random_nonseparable(rng)
    perm = list(g.vertices)
    rng.shuffle(perm)
    h = relabel(g, perm)
    result = compare_graphs(g, h, brute_force_limit=g.n)
    assert result.verdict is Verdict.ISOMORPHIC


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_verdicts_agree_with_networkx(seed_a, seed_b):
    g = fx.random_nonseparable(Random(seed_a))
    h = fx.random_nonseparable(Random(seed_b))
    result = compare_graphs(g, h, brute_force_limit=12)
    truth = nx.is_isomorphic(fx.to_nx(g), fx.to_nx(h))
    if result.verdict is Verdict.NOT_ISOMORPHIC:
        assert not truth
    elif result.verdict is Verdict.ISOMORPHIC:
        assert truth


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_enumerated_cycles_are_isometric_simple_cycles(seed):
    g = fx.random_nonseparable(Random(seed))
    dist = all_pairs_distances(g)
    for cycle in isometric_cycles(g):
        seq = cycle_order(g, cycle)
        assert len(seq) == len(cycle)
        assert is_isometric(g, cycle, dist)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_distances_match_networkx(seed):
    g = fx.random_nonseparable(Random(seed))
    dist = all_pairs_distances(g)
    truth = dict(nx.all_pairs_shortest_path_length(fx.to_nx(g)))
    for u in g.vertices:
        for v in g.vertices:
            assert dist[u][v] == truth[u][v]
