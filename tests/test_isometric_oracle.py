"""The route-pair search against the geodesic-pairing reference in isometric_reference."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgespec import EdgeSet, cycles_through_edge, isometric_cycles, line_graph

import fixtures as fx
import isometric_reference as ref

FIXTURES = dict(
    fx.NONSEPARABLE_FIXTURES,
    wave_gap_8v=fx.wave_gap_8v,
    odd_tie_12v=fx.odd_tie_12v,
    spider_tree=fx.spider_tree,
    caterpillar_tree=fx.caterpillar_tree,
    k2=fx.k2,
    k6=lambda: fx.k_n(6),
    q4=lambda: fx.hypercube(4),
    grid_6x6=lambda: fx.grid(6, 6),
    # long isometric cycles, odd and even: torus 5x7 has lengths 5 and 7,
    # Moebius ladder 8 has length 9
    torus_3x3=lambda: fx.torus(3, 3),
    torus_4x5=lambda: fx.torus(4, 5),
    torus_5x7=lambda: fx.torus(5, 7),
    torus_6x6=lambda: fx.torus(6, 6),
    mobius_ladder_7=lambda: fx.mobius_ladder(7),
    mobius_ladder_8=lambda: fx.mobius_ladder(8),
    circular_ladder_9=lambda: fx.circular_ladder(9),
    circular_ladder_10=lambda: fx.circular_ladder(10),
    grid_2x15=lambda: fx.grid(2, 15),
    q5=lambda: fx.hypercube(5),
)


def assert_matches_reference(g):
    assert isometric_cycles(g) == ref.isometric_cycles(g)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_matches_reference(name):
    assert_matches_reference(FIXTURES[name]())


def test_grid_10x10_is_its_unit_squares():
    # the reference overflows here, so the unit squares are the oracle
    g = fx.grid(10, 10)
    squares = sorted(
        tuple(sorted(g.edge_id(u, v) for u, v in sq)) for sq in fx.grid_squares(10, 10)
    )
    found = tuple(c.ids() for c in isometric_cycles(g))
    assert len(found) == 81
    assert found == tuple(squares)


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


def assert_in_id_order(g):
    # the search orders cycles by reversed masks, which equals id order
    # because no cycle's edge set holds another's
    cycles = isometric_cycles(g)
    assert cycles == tuple(sorted(cycles, key=EdgeSet.ids))
    for e in g.edge_ids:
        through = cycles_through_edge(g, e)
        assert through == tuple(sorted(through, key=EdgeSet.ids))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_cycles_in_id_order(name):
    assert_in_id_order(FIXTURES[name]())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_graph_and_its_line_graph_cycles_in_id_order(seed):
    g = fx.random_nonseparable(Random(seed))
    assert_in_id_order(g)
    assert_in_id_order(line_graph(g).graph)


@pytest.mark.parametrize("seed", range(5))
def test_random_cubic_cycles_in_id_order(seed):
    rng = Random(seed)
    assert_in_id_order(fx.random_cubic(rng, rng.choice((12, 16, 20, 24, 32))))
