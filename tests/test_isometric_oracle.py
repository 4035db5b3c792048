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
)


def assert_matches_reference(g):
    assert isometric_cycles(g) == ref.isometric_cycles(g)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_matches_reference(name):
    assert_matches_reference(FIXTURES[name]())


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
