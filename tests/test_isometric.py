"""Isometric cycle enumeration, and the per-edge wave labelings of isometric_reference."""

from math import comb
from random import Random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgespec import (
    CandidateOverflow,
    NotACycle,
    build_graph,
    cycle_order,
    cycle_vertices,
    is_isometric,
    isometric_cycles,
)
from edgespec.isometric import line_cycle_masks

import fixtures as fx
import isometric_reference as ref


def as_ids(cycles):
    return tuple(c.ids() for c in cycles)


def test_wave_labels_block_the_near_endpoint():
    g = fx.g_7v13e()
    # e13 = (1,4): 1 is blocked at label 1, everything else is labeled
    # 2 + its distance from 4 in the graph without vertex 1
    assert ref.wave_labels(g, 13) == (0, 1, 4, 3, 2, 3, 4, 3)
    rev = ref.wave_labels(g, 13, reverse=True)
    assert rev[4] == 1 and rev[1] == 2


def test_worked_example_listing():
    assert as_ids(isometric_cycles(fx.g_7v13e())) == fx.G_7V13E_CYCLES


def test_cycles_through_edge_on_worked_example():
    g = fx.g_7v13e()
    assert as_ids(ref.cycles_through_edge(g, 13)) == fx.G_7V13E_THROUGH_E13
    assert as_ids(ref.cycles_through_edge(g, 1)) == fx.G_7V13E_THROUGH_E1


def test_wave_anchored_at_one_edge_can_miss():
    # ties in wave depth hide a cycle from this anchor; the enumeration still has it
    g = fx.wave_gap_8v()
    assert as_ids(ref.cycles_through_edge(g, fx.WAVE_GAP_EDGE)) == fx.WAVE_GAP_FOUND
    found = as_ids(isometric_cycles(g))
    assert fx.WAVE_GAP_MISSED in found
    missed = g.edge_set(fx.WAVE_GAP_MISSED)
    assert fx.WAVE_GAP_EDGE in missed
    assert is_isometric(g, missed)


def test_wave_can_miss_a_cycle_from_every_anchor():
    # adjacent cycle vertices tying in depth from each of the five anchors
    # leave no descending route at all, so no per-edge pass confirms these
    # pentagons; the full enumeration still finds them
    g = fx.odd_tie_12v()
    confirmed = set()
    for e in g.edge_ids:
        confirmed |= set(as_ids(ref.cycles_through_edge(g, e)))
    found = as_ids(isometric_cycles(g))
    for ids in fx.ODD_TIE_PENTAGONS:
        assert ids not in confirmed
        assert ids in found
        assert is_isometric(g, g.edge_set(ids))
    assert set(found) >= confirmed


def test_petersen_listing():
    assert as_ids(isometric_cycles(fx.petersen())) == fx.PETERSEN_CYCLES


def test_petersen_lengths():
    g = fx.petersen()
    cycles = isometric_cycles(g)
    assert tuple(sorted(len(c) for c in cycles)) == (5,) * 12
    assert tuple(sum(e in c for c in cycles) for e in g.edge_ids) == (4,) * 15
    assert tuple(
        sum(v in cycle_vertices(g, c) for c in cycles) for v in g.vertices
    ) == (6,) * 10


@pytest.mark.parametrize("n", range(4, 9))
def test_complete_graphs_have_only_triangles(n):
    cycles = isometric_cycles(fx.k_n(n))
    assert len(cycles) == n * (n - 1) * (n - 2) // 6
    assert all(len(c) == 3 for c in cycles)


def test_k5_minus_one_edge():
    g = build_graph(
        5, {1: [2, 3, 4, 5], 2: [1, 3, 4, 5], 3: [1, 2, 4, 5], 4: [1, 2, 3], 5: [1, 2, 3]}
    )
    verts = sorted(cycle_vertices(g, c) for c in isometric_cycles(g))
    assert verts == [
        (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4),
        (1, 3, 5), (2, 3, 4), (2, 3, 5),
    ]


def test_k5_minus_two_edges():
    g = build_graph(
        5, {1: [2, 4, 5], 2: [1, 3, 4, 5], 3: [2, 4, 5], 4: [1, 2, 3], 5: [1, 2, 3]}
    )
    cycles = isometric_cycles(g)
    verts = sorted(cycle_vertices(g, c) for c in cycles)
    assert verts == [
        (1, 2, 4), (1, 2, 5), (1, 3, 4, 5), (2, 3, 4), (2, 3, 5),
    ]
    quad = next(c for c in cycles if len(c) == 4)
    assert cycle_order(g, quad) == (1, 4, 3, 5)


def test_enumeration_example_10v():
    g = fx.g_10v23e()
    cycles = isometric_cycles(g)
    assert as_ids(cycles) == fx.G_10V23E_CYCLES
    assert tuple(cycle_vertices(g, c) for c in cycles) == fx.G_10V23E_CYCLE_VERTICES


def test_enumeration_example_12v():
    assert as_ids(isometric_cycles(fx.g_12v35e())) == fx.G_12V35E_CYCLES


def test_six_vertex_example():
    assert as_ids(isometric_cycles(fx.g_6v11e())) == fx.G_6V11E_CYCLES


class TestCycleOrder:
    def test_triangle(self):
        g = fx.g_6v11e()
        assert cycle_order(g, g.edge_set((1, 2, 5))) == (1, 2, 4)

    def test_quad(self):
        g = fx.g_6v11e()
        assert cycle_order(g, g.edge_set((2, 3, 10, 11))) == (1, 4, 5, 6)

    def test_empty_set(self):
        g = fx.g_6v11e()
        with pytest.raises(NotACycle, match="empty"):
            cycle_order(g, g.empty_set())

    def test_path_is_not_a_cycle(self):
        g = fx.g_6v11e()
        with pytest.raises(NotACycle):
            cycle_order(g, g.edge_set((1, 4)))

    def test_two_disjoint_triangles(self):
        g = fx.prism()
        both = g.edge_set((1, 3, 5)) ^ g.edge_set((6, 7, 8))
        with pytest.raises(NotACycle, match="several cycles"):
            cycle_order(g, both)

    def test_vertex_of_degree_three(self):
        g = fx.k_n(4)
        with pytest.raises(NotACycle, match="meets 3"):
            cycle_order(g, g.edge_set((1, 2, 3, 4, 5)))


def test_cycle_vertices():
    g = fx.g_6v11e()
    assert cycle_vertices(g, g.edge_set((2, 3, 10, 11))) == (1, 4, 5, 6)


class TestIsIsometric:
    def test_petersen_five_cycles(self):
        g = fx.petersen()
        for ids in fx.PETERSEN_CYCLES:
            assert is_isometric(g, g.edge_set(ids))

    def test_petersen_six_cycle_fails(self):
        g = fx.petersen()
        six = g.edge_set(
            [g.edge_id(*p) for p in ((1, 2), (2, 7), (7, 10), (10, 8), (8, 6), (6, 1))]
        )
        assert not is_isometric(g, six)

    @pytest.mark.parametrize("length", [8, 9])
    def test_petersen_cycles_longer_than_twice_the_diameter_fail(self, length):
        # half of the length, 4, is past the last sphere of a graph of
        # diameter 2
        g = fx.petersen()
        found = 0
        for seq in nx.simple_cycles(fx.to_nx(g), length_bound=length):
            if len(seq) == length:
                cycle = g.edge_set(g.edge_id(u, v) for u, v in zip(seq, seq[1:] + seq[:1]))
                assert not is_isometric(g, cycle)
                found += 1
        assert found > 0

    def test_whole_hexagon(self):
        g = build_graph(6, {1: [2, 6], 2: [1, 3], 3: [2, 4], 4: [3, 5], 5: [4, 6], 6: [1, 5]})
        assert is_isometric(g, g.full_set())


def test_candidate_overflow():
    # anchor 1 alone lists 18 4-cycles, three through each pair of its
    # neighbours, and each counts as one route pair
    with pytest.raises(CandidateOverflow, match="exceed limit 10"):
        isometric_cycles(fx.k44(), limit=10)


@pytest.mark.parametrize("name", ["g_5v7e", "g_7v13e", "petersen", "wheel6", "k44"])
def test_limit_overflows_or_gives_the_whole_result(name):
    g = fx.NONSEPARABLE_FIXTURES[name]()
    whole = isometric_cycles(g)
    passed = False
    for limit in range(100):
        try:
            found = isometric_cycles(g, limit=limit)
        except CandidateOverflow:
            assert not passed, f"limit {limit} overflows after a smaller one passed"
            continue
        assert found == whole
        passed = True
    assert passed


@pytest.mark.parametrize(
    "make, pairs, counting_closings",
    [
        (fx.petersen, 12, 24),
        (lambda: fx.hypercube(4), 319, 399),
        (lambda: fx.hypercube(5), 4932, 5604),
        (lambda: fx.grid(10, 10), 81, 162),
        (fx.octahedron, 3, 14),
        (fx.shrikhande, 108, 248),
        # 9 vertices, 10 edges: a triangle and an 8-cycle.  Anchor 4 has
        # no vertex above it at distance 2 and two at distance 3, so it
        # yields no tops: a route down from them would leave the vertices
        # above 4
        (lambda: fx.random_nonseparable(Random(1181)), 3, 5),
    ],
    ids=["petersen", "q4", "q5", "grid_10x10", "octahedron", "shrikhande", "random_1181"],
)
def test_limit_is_the_route_pairs_tried(make, pairs, counting_closings):
    # the search tries exactly `pairs` candidate route pairs, so a limit of
    # that many returns and one fewer overflows; each listed 4- and 5-cycle
    # counts as one pair.  A count that also took each triangle and each
    # closing step to the anchor as one pair, one per cycle found, reads
    # `counting_closings`
    g = make()
    whole = isometric_cycles(g)
    assert pairs + len(whole) == counting_closings
    assert isometric_cycles(g, pairs) == whole
    with pytest.raises(CandidateOverflow, match=f"^{pairs} route pairs exceed limit {pairs - 1}$"):
        isometric_cycles(g, pairs - 1)


@pytest.mark.parametrize(
    "make, pairs",
    [
        (fx.petersen, 32),
        (lambda: fx.hypercube(4), 319),
        (lambda: fx.hypercube(5), 5317),
        (fx.k44, 36),
        (lambda: fx.grid(10, 10), 81),
        (lambda: fx.k_n(6), 117),
        (lambda: fx.k_n(7), 357),
        (fx.octahedron, 39),
        (fx.rook_4x4, 1568),
        (fx.shrikhande, 1248),
    ],
    ids=[
        "petersen", "q4", "q5", "k44", "grid_10x10",
        "k6", "k7", "octahedron", "rook_4x4", "shrikhande",
    ],
)
def test_line_search_limit_is_the_route_pairs_tried(make, pairs):
    # the line-cycle search counts its route pairs as the isometric search
    # does, so a limit of exactly that many returns and one fewer overflows;
    # a descent from every top above the anchor, at both levels it allows,
    # tried Petersen 74, Q4 364, Q5 5,950, K4,4 36 and grid 10x10 951,345.
    # Each 4- and 5-cycle is listed without a descent and counts as one pair
    g = make()
    assert sorted(line_cycle_masks(g, pairs)) == sorted(line_cycle_masks(g))
    with pytest.raises(CandidateOverflow, match=f"^{pairs} route pairs exceed limit {pairs - 1}$"):
        line_cycle_masks(g, pairs - 1)


@pytest.mark.parametrize("n", range(5, 9))
def test_line_search_on_complete_graphs_tries_its_short_cycles(n):
    # K_n has diameter 1, so its line cycles are its triangles and its 4-
    # and 5-cycles, and only the last two count as route pairs
    g = fx.k_n(n)
    pairs = 3 * comb(n, 4) + 12 * comb(n, 5)
    assert len(line_cycle_masks(g, pairs)) == comb(n, 3) + pairs
    with pytest.raises(CandidateOverflow, match=f"^{pairs} route pairs exceed limit {pairs - 1}$"):
        line_cycle_masks(g, pairs - 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_antipodal_check_agrees_with_all_pairs(seed):
    # every simple cycle of up to 8 edges, isometric or not
    g = fx.random_nonseparable(Random(seed))
    dist = ref.distances(g)
    for seq in nx.simple_cycles(fx.to_nx(g), length_bound=8):
        cycle = g.edge_set(g.edge_id(u, v) for u, v in zip(seq, seq[1:] + seq[:1]))
        assert is_isometric(g, cycle) == ref.is_isometric(g, cycle, dist)


def test_worked_example_counts():
    g = fx.g_7v13e()
    cycles = isometric_cycles(g)
    assert tuple(sum(e in c for c in cycles) for e in g.edge_ids) == fx.G_7V13E_EDGE_COUNTS
    assert tuple(
        sum(v in cycle_vertices(g, c) for c in cycles) for v in g.vertices
    ) == fx.G_7V13E_VERTEX_COUNTS
    assert tuple(sorted(len(c) for c in cycles)) == (3, 3, 3, 3, 3, 3, 3, 4, 4)
