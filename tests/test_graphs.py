"""Graph construction, edge sets, and structural checks."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgespec import (
    AsymmetricAdjacency,
    DisconnectedGraph,
    DuplicateNeighbor,
    EdgeSet,
    EmptyCore,
    Graph,
    LengthMismatch,
    LoopFound,
    VertexOutOfRange,
    all_pairs_distances,
    build_graph,
    central_cut,
    graph_from_edges,
    is_nonseparable,
    reduce_to_core,
    ring_sum,
)
from edgespec.graphs import distance_spheres

import fixtures as fx
import isometric_reference as ref


class TestEdgeSet:
    def test_ids_round_trip(self):
        s = EdgeSet(11, [5, 2, 9])
        assert s.ids() == (2, 5, 9)
        assert len(s) == 3
        assert 5 in s and 4 not in s
        assert list(s) == [2, 5, 9]

    def test_out_of_range_id(self):
        with pytest.raises(VertexOutOfRange):
            EdgeSet(4, [5])
        with pytest.raises(VertexOutOfRange):
            EdgeSet(4, [0])

    def test_ring_sum_is_xor(self):
        a = EdgeSet(8, [1, 2, 3])
        b = EdgeSet(8, [3, 4])
        assert (a ^ b).ids() == (1, 2, 4)
        assert ring_sum(a, b) == a ^ b
        assert (a ^ a).ids() == ()
        assert not (a ^ a)

    def test_and_or_subset(self):
        a = EdgeSet(8, [1, 2, 3])
        b = EdgeSet(8, [2, 3, 5])
        assert (a & b).ids() == (2, 3)
        assert (a | b).ids() == (1, 2, 3, 5)
        assert EdgeSet(8, [2, 3]) <= a
        assert not (b <= a)

    def test_width_mismatch(self):
        with pytest.raises(LengthMismatch, match="widths differ"):
            EdgeSet(8, [1]) ^ EdgeSet(9, [1])

    def test_immutability_and_hash(self):
        a = EdgeSet(8, [1])
        with pytest.raises(AttributeError):
            a.bits = 3
        assert a == EdgeSet(8, [1])
        assert hash(a) == hash(EdgeSet(8, [1]))
        assert a != EdgeSet(9, [1])

    def test_from_bits(self):
        assert EdgeSet.from_bits(5, 0b10100).ids() == (3, 5)

    def test_repr(self):
        assert repr(EdgeSet(11, [2, 5])) == "{2,5}/11"


class TestBuildGraph:
    def test_canonical_edge_numbering(self):
        g = fx.g_6v11e()
        assert g.n == 6 and g.m == 11
        assert g.edges == (
            (1, 2), (1, 4), (1, 6), (2, 3), (2, 4), (2, 6),
            (3, 4), (3, 5), (3, 6), (4, 5), (5, 6),
        )

    def test_adjacency_accessors(self):
        g = fx.g_6v11e()
        assert g.adjacency(1) == (2, 4, 6)
        assert g.incident_edges(1) == (1, 2, 3)
        assert g.degree(3) == 4
        assert g.degrees() == (3, 4, 4, 4, 3, 4)
        assert g.edge_endpoints(7) == (3, 4)
        assert g.edge_id(4, 3) == 7
        assert g.has_edge(3, 4) and not g.has_edge(1, 5)

    def test_accessor_range_checks(self):
        g = fx.g_6v11e()
        with pytest.raises(VertexOutOfRange):
            g.adjacency(7)
        with pytest.raises(VertexOutOfRange):
            g.edge_endpoints(12)
        for u, v in ((1, 5), (5, 1)):
            assert not g.has_edge(u, v)
            with pytest.raises(VertexOutOfRange, match=r"^no edge \(1, 5\)$"):
                g.edge_id(u, v)
        # an edge is the AND of two vertex masks: a vertex with itself, or
        # an index outside 1..n, must not read as one
        for v in g.vertices:
            assert not g.has_edge(v, v)
            with pytest.raises(VertexOutOfRange, match=rf"^no edge \({v}, {v}\)$"):
                g.edge_id(v, v)
            for u in (0, -1, g.n + 1):
                assert not g.has_edge(u, v) and not g.has_edge(v, u)
                with pytest.raises(VertexOutOfRange, match="^no edge"):
                    g.edge_id(u, v)

    def test_sequence_adjacency_accepted(self):
        g = build_graph(3, [[2, 3], [1, 3], [1, 2]])
        assert g.edges == ((1, 2), (1, 3), (2, 3))

    def test_loop_rejected(self):
        with pytest.raises(LoopFound):
            build_graph(2, {1: [1, 2], 2: [1]})

    def test_duplicate_neighbor_rejected(self):
        with pytest.raises(DuplicateNeighbor):
            build_graph(2, {1: [2, 2], 2: [1]})

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricAdjacency):
            build_graph(3, {1: [2], 2: [1, 3], 3: []})

    def test_out_of_range_neighbor(self):
        with pytest.raises(VertexOutOfRange):
            build_graph(2, {1: [2, 9], 2: [1]})

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph, match="unreachable"):
            build_graph(4, {1: [2], 2: [1], 3: [4], 4: [3]})

    def test_wrong_row_count(self):
        with pytest.raises(VertexOutOfRange):
            build_graph(3, [[2], [1]])

    def test_empty_graph_rejected(self):
        with pytest.raises(VertexOutOfRange):
            build_graph(0, {})
        with pytest.raises(VertexOutOfRange, match="vertex count 0"):
            Graph(0, [])


class TestGraphFromEdges:
    def test_listing_order_is_edge_numbering(self):
        g = fx.g_5v7e_listed()
        assert g.edges == (
            (1, 3), (1, 2), (3, 4), (4, 5), (2, 4), (2, 3), (3, 5),
        )
        assert g.edge_id(2, 1) == 2

    def test_reversed_pairs_normalized(self):
        g = graph_from_edges(3, ((2, 1), (3, 2), (1, 3)))
        assert g.edges == ((1, 2), (2, 3), (1, 3))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateNeighbor):
            graph_from_edges(3, ((1, 2), (2, 1), (2, 3), (1, 3)))

    def test_loop_rejected(self):
        with pytest.raises(LoopFound):
            graph_from_edges(3, ((1, 1), (1, 2), (2, 3), (1, 3)))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            graph_from_edges(4, ((1, 2), (3, 4)))


def test_central_cut_matches_table():
    g = fx.g_6v11e()
    for v, want in fx.G_6V11E_CENTRAL_CUTS.items():
        assert central_cut(g, v).ids() == want


def test_central_cuts_cover_each_edge_twice():
    g = fx.petersen()
    counts = [0] * (g.m + 1)
    for v in g.vertices:
        for e in central_cut(g, v):
            counts[e] += 1
    assert all(c == 2 for c in counts[1:])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_incidence_matches_the_edge_list(seed):
    # the reference oracles read these accessors, so they are checked here
    # against g.edges alone, on edges listed in a random order
    rng = Random(seed)
    if seed % 2:
        # a tree from a Prüfer sequence over few labels: hubs and leaves
        k = rng.randint(0, 12)
        g = fx.tree_from_pruefer([rng.randint(1, min(5, k + 2)) for _ in range(k)])
    else:
        g = fx.random_nonseparable(rng)
    edges = list(g.edges)
    rng.shuffle(edges)
    g = graph_from_edges(g.n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
    ids = {pair: e for e, pair in enumerate(g.edges, start=1)}
    for v in g.vertices:
        at_v = tuple(e for pair, e in ids.items() if v in pair)
        assert g.incident_edges(v) == tuple(sorted(at_v))
        assert central_cut(g, v) == EdgeSet(g.m, at_v)
    for u in range(-1, g.n + 2):
        for v in range(-1, g.n + 2):
            e = ids.get((u, v) if u < v else (v, u))
            assert g.has_edge(u, v) == (e is not None)
            if e is None:
                with pytest.raises(VertexOutOfRange, match="^no edge"):
                    g.edge_id(u, v)
            else:
                assert g.edge_id(u, v) == e


def test_all_pairs_distances():
    d = all_pairs_distances(fx.wheel6())
    assert d[1][1:] == fx.WHEEL6_DIST_V1
    assert d[0] == tuple([-1] * 8)
    assert all(row[0] == -1 for row in d)


def test_equal_graphs_give_equal_distance_tables():
    rows = [[2, 4], [1, 3], [2, 4], [1, 3]]
    g = build_graph(4, rows)
    h = build_graph(4, rows)
    assert h == g
    assert all_pairs_distances(h) == all_pairs_distances(g)


def one_vertex():
    return build_graph(1, [[]])


def assert_spheres_match_plain_bfs(g):
    spheres = distance_spheres(g)
    d = ref.distances(g)
    diameter = max(map(max, d))
    assert len(spheres) == g.n + 1
    assert all(len(row) == diameter + 2 for row in spheres)
    assert spheres[0] == (0,) * (diameter + 2)
    for v in g.vertices:
        for k, mask in enumerate(spheres[v]):
            assert mask == sum(1 << u for u in g.vertices if d[v][u] == k)
        assert spheres[v][1] == sum(1 << u for u in g.adjacency(v))
    assert distance_spheres(g) is spheres
    assert all_pairs_distances(g) == d


@pytest.mark.parametrize(
    "make",
    [
        fx.k2,
        fx.wheel6,
        fx.petersen,
        lambda: fx.grid(3, 7),
        fx.spider_tree,
        one_vertex,
        # one hub: the neighbour columns past the other vertices' degree
        # hold only the hub
        pytest.param(lambda: fx.star(40), id="star_1_40"),
        pytest.param(lambda: fx.wheel(60), id="wheel_60"),
        # 39 levels
        pytest.param(lambda: fx.path(40), id="path_40"),
        pytest.param(lambda: fx.grid(10, 10), id="grid_10_10"),
        pytest.param(lambda: fx.hypercube(5), id="hypercube_5"),
        pytest.param(lambda: fx.k_n(7), id="k_7"),
        pytest.param(lambda: fx.random_cubic(Random(64002), 64), id="cubic_64"),
    ],
)
def test_distance_spheres_match_the_table(make):
    assert_spheres_match_plain_bfs(make())


def test_graph_rejects_two_components():
    # Graph itself is the connectivity gate, so a direct call never makes a
    # graph whose balls stop short of every vertex
    with pytest.raises(DisconnectedGraph, match=r"^vertices unreachable from 1: \[3, 4\]$"):
        Graph(4, [(1, 2), (3, 4)])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_distance_spheres_match_a_plain_bfs_on_random_graphs(seed):
    assert_spheres_match_plain_bfs(fx.random_nonseparable(Random(seed)))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=40).flatmap(
        lambda n: st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2)
    )
)
def test_distance_spheres_match_a_plain_bfs_on_random_trees(seq):
    # trees from Prüfer sequences: skewed degrees, many short columns
    assert_spheres_match_plain_bfs(fx.tree_from_pruefer(seq))


class TestNonseparable:
    def test_single_edge_qualifies(self):
        assert is_nonseparable(fx.k2())

    def test_single_vertex_qualifies(self):
        assert is_nonseparable(build_graph(1, {1: []}))

    def test_block_graphs_qualify(self):
        assert is_nonseparable(fx.g_6v11e())
        assert is_nonseparable(fx.petersen())

    def test_path_has_articulation(self):
        rep = is_nonseparable(graph_from_edges(3, ((1, 2), (2, 3))))
        assert not rep
        assert rep.reason == "articulation vertex 2"

    def test_bowtie_has_articulation(self):
        g = graph_from_edges(
            5, ((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5))
        )
        rep = is_nonseparable(g)
        assert not rep and "articulation vertex 3" == rep.reason


class TestReduceToCore:
    def test_pendant_removed(self):
        g = reduce_to_core(4, [(1, 2), (2, 3), (3, 1), (3, 4)])
        assert (g.n, g.m) == (3, 3)

    def test_cycle_smooths_to_triangle(self):
        g = reduce_to_core(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        assert (g.n, g.m) == (3, 3)

    def test_k4_is_a_fixed_point(self):
        g = reduce_to_core(4, fx.k_n(4).edges)
        assert g == fx.k_n(4)

    def test_loops_and_parallels_dropped(self):
        g = reduce_to_core(3, [(1, 2), (2, 1), (2, 2), (2, 3), (1, 3)])
        assert (g.n, g.m) == (3, 3)

    def test_triangle_with_tail_chain(self):
        # the tail dissolves one vertex at a time
        g = reduce_to_core(6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6)])
        assert (g.n, g.m) == (3, 3)

    def test_tree_has_no_core(self):
        with pytest.raises(EmptyCore):
            reduce_to_core(4, [(1, 2), (2, 3), (2, 4)])

    def test_adjacent_degree_two_survives(self):
        # triangle vertices all have adjacent neighbors, nothing to smooth
        g = reduce_to_core(3, [(1, 2), (2, 3), (1, 3)])
        assert (g.n, g.m) == (3, 3)
