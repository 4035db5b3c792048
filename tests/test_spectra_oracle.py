"""Integer-row spectra against the per-cell reference in spectra_reference."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgespec import (
    EdgeSet,
    base_edge_cuts,
    base_edge_cycles,
    build_cut_spectrum,
    build_cycle_spectrum,
    gamma,
    graph_from_edges,
    isometric_cycles,
    spectrum_edge_weights,
    spectrum_invariant,
    vertex_weights,
)
from edgespec import spectra
from edgespec.spectra import cut_spectrum_unchecked

import fixtures as fx
import spectra_reference as ref

CUT_CAPS = (None, 1, 2, 3)
CYCLE_CAPS = (1, 2, None)


def random_tree(rng: Random):
    n = rng.randint(2, 14)
    edges = sorted((rng.randint(1, v - 1), v) for v in range(2, n + 1))
    return graph_from_edges(n, edges)


def cycle_with_chords(n, m, seed):
    """Nonseparable graph with exactly m edges: the cycle 1..n plus m - n
    chords chosen at random."""
    cycle = [(v, v + 1) for v in range(1, n)] + [(1, n)]
    chords = [(u, v) for u in range(1, n + 1) for v in range(u + 2, n + 1)]
    chords.remove((1, n))
    Random(seed).shuffle(chords)
    return graph_from_edges(n, sorted(cycle + chords[: m - n]))


def assert_matches_reference(spec, base, cap):
    g = spec.graph
    levels, truncated, level_count = ref.build(g, base, cap)
    assert spec.levels == levels
    assert spec.truncated == truncated
    assert spec.level_count == level_count
    xi = spectrum_edge_weights(spec)
    ref_xi, ref_xi_total = ref.edge_weights(g.m, levels)
    assert (xi.per_level, xi.total) == (ref_xi, ref_xi_total)
    zeta = vertex_weights(spec, xi)
    assert (zeta.per_level, zeta.total) == ref.vertex_weights(g, ref_xi)
    assert spectrum_invariant(spec) == ref.invariant(
        spec.kind, g, levels, truncated, level_count
    )


def check_graph(g):
    cuts = base_edge_cuts(g)
    for cap in CUT_CAPS:
        assert_matches_reference(build_cut_spectrum(g, cap), cuts, cap)
    cycles = base_edge_cycles(g)
    for cap in CYCLE_CAPS:
        assert_matches_reference(build_cycle_spectrum(g, cap), cycles, cap)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_graphs_match_reference(seed):
    check_graph(fx.random_nonseparable(Random(seed)))


@pytest.mark.parametrize("name", sorted(fx.NONSEPARABLE_FIXTURES))
def test_fixtures_match_reference(name):
    check_graph(fx.NONSEPARABLE_FIXTURES[name]())


@pytest.mark.parametrize("n, seed", [(16, 1), (18, 2), (20, 4), (20, 6), (22, 1)])
def test_deep_cubic_spectra_match_reference(n, seed):
    g = fx.random_cubic(Random(seed), n)
    assert_matches_reference(build_cut_spectrum(g), base_edge_cuts(g), None)


# edge counts just below, at and just above a multiple of 8: boundary
# cases for any step that reads rows a byte at a time
@pytest.mark.parametrize("n, m", [(5, 7), (6, 8), (6, 9), (10, 15), (10, 16), (11, 17)])
@pytest.mark.parametrize("seed", [0, 1])
def test_byte_boundary_graphs_match_reference(n, m, seed):
    g = cycle_with_chords(n, m, seed)
    assert g.m == m
    check_graph(g)


def test_single_edge_matches_reference():
    k2 = fx.k2()
    for cap in CUT_CAPS:
        assert_matches_reference(cut_spectrum_unchecked(k2, cap), base_edge_cuts(k2), cap)


def test_cubic_64_capped_matches_reference():
    g = fx.random_cubic(Random(3), 64)
    assert g.m == 96
    assert_matches_reference(build_cut_spectrum(g, 100), base_edge_cuts(g), 100)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_table_step_agrees_with_public_gamma(seed):
    rng = Random(seed)
    g = fx.random_nonseparable(rng, 4, 14) if seed % 2 else fx.random_cubic(rng, 16)
    for base, spec in (
        (base_edge_cuts(g), build_cut_spectrum(g)),
        (base_edge_cycles(g), build_cycle_spectrum(g, None)),
    ):
        for prev, nxt in zip(spec.rows, spec.rows[1:]):
            for r, r_next in zip(prev, nxt):
                assert gamma(EdgeSet.from_bits(g.m, r), base).bits == r_next


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_trees_match_reference(seed):
    t = random_tree(Random(seed))
    for cap in CUT_CAPS:
        assert_matches_reference(cut_spectrum_unchecked(t, cap), base_edge_cuts(t), cap)


@pytest.mark.parametrize("tree", [fx.spider_tree, fx.caterpillar_tree])
def test_fixture_trees_match_reference(tree):
    t = tree()
    assert_matches_reference(cut_spectrum_unchecked(t), base_edge_cuts(t), None)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_base_tables_are_symmetric_with_empty_diagonal(seed):
    g = fx.random_nonseparable(Random(seed))
    assert ref.is_symmetric_with_empty_diagonal(base_edge_cuts(g))
    assert ref.is_symmetric_with_empty_diagonal(base_edge_cycles(g))


@pytest.mark.parametrize("name", sorted(fx.NONSEPARABLE_FIXTURES))
def test_fixture_base_tables_are_symmetric_with_empty_diagonal(name):
    g = fx.NONSEPARABLE_FIXTURES[name]()
    assert ref.is_symmetric_with_empty_diagonal(base_edge_cuts(g))
    assert ref.is_symmetric_with_empty_diagonal(base_edge_cycles(g))


def assert_double_count_identity(spec):
    # at every level the live cells hold as many edges as the column weights
    # add up to; the weights read row e as column e, so this needs symmetry
    xi = spectrum_edge_weights(spec)
    assert len(xi.per_level) == len(spec.rows)
    for rows, alive, weights in zip(spec.rows, spec.alive, xi.per_level):
        live = sum(r.bit_count() for i, r in enumerate(rows) if (alive >> i) & 1)
        assert live == sum(weights)


def assert_identity_on_every_level(g):
    # capped builds are prefixes of the uncapped ones
    assert_double_count_identity(build_cut_spectrum(g))
    assert_double_count_identity(build_cycle_spectrum(g, None))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_double_count_identity_on_random_graphs_and_trees(seed):
    assert_identity_on_every_level(fx.random_nonseparable(Random(seed)))
    assert_double_count_identity(cut_spectrum_unchecked(random_tree(Random(seed))))


@pytest.mark.parametrize("name", sorted(fx.NONSEPARABLE_FIXTURES))
def test_double_count_identity_on_fixtures(name):
    assert_identity_on_every_level(fx.NONSEPARABLE_FIXTURES[name]())


@pytest.mark.parametrize("n, seed", [(16, 1), (18, 2), (20, 4), (20, 6), (22, 1)])
def test_double_count_identity_on_deep_cubic_spectra(n, seed):
    assert_double_count_identity(build_cut_spectrum(fx.random_cubic(Random(seed), n)))


@pytest.mark.parametrize("n, m", [(5, 7), (6, 8), (6, 9), (10, 15), (10, 16), (11, 17)])
@pytest.mark.parametrize("seed", [0, 1])
def test_double_count_identity_on_byte_boundary_graphs(n, m, seed):
    assert_identity_on_every_level(cycle_with_chords(n, m, seed))


@pytest.mark.parametrize("tree", [fx.k2, fx.spider_tree, fx.caterpillar_tree])
def test_double_count_identity_on_fixture_trees(tree):
    assert_double_count_identity(cut_spectrum_unchecked(tree()))


def test_double_count_identity_on_cubic_64_capped():
    assert_double_count_identity(build_cut_spectrum(fx.random_cubic(Random(3), 64), 100))


# The level step goes through a sparse factor W of the base, M = W·Wᵀ:
# vertex incidence for cuts, cycle incidence plus the rim for cycles.  On
# the identity it must give back the base rows.


def identity_step(g, slots):
    step = spectra._factor_step(g.m, slots)
    padded = step((0, *(1 << i for i in range(g.m))))
    assert padded[0] == 0
    return padded[1:]


def assert_factors_give_the_bases(g):
    assert identity_step(g, spectra._cut_slots(g)) == tuple(
        b.bits for b in base_edge_cuts(g)
    )
    cycles = isometric_cycles(g)
    assert identity_step(g, spectra._cycle_slots(g, cycles)) == tuple(
        b.bits for b in base_edge_cycles(g, cycles)
    )


def star(k):
    return graph_from_edges(k + 1, [(1, v) for v in range(2, k + 2)])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_factor_step_on_the_identity_gives_the_bases(seed):
    rng = Random(seed)
    assert_factors_give_the_bases(fx.random_nonseparable(rng))
    assert_factors_give_the_bases(random_tree(rng))


@pytest.mark.parametrize("n, m", [(5, 7), (6, 8), (6, 9), (10, 15), (10, 16), (11, 17)])
@pytest.mark.parametrize("seed", [0, 1])
def test_factor_step_gives_the_bases_on_byte_boundary_graphs(n, m, seed):
    assert_factors_give_the_bases(cycle_with_chords(n, m, seed))


# leaves and K2 have slots of one edge, which the gathers pad with the
# zero entry; K4's triangles cover each edge twice, so its rim is empty
@pytest.mark.parametrize(
    "graph",
    [fx.k2, lambda: star(8), lambda: fx.k_n(4), fx.spider_tree, fx.caterpillar_tree],
    ids=["k2", "star_1_8", "k4", "spider", "caterpillar"],
)
def test_factor_step_gives_the_bases_on_padded_and_rimless_graphs(graph):
    assert_factors_give_the_bases(graph())


def test_k4_has_an_empty_rim():
    g = fx.k_n(4)
    assert spectra._cycle_slots(g, isometric_cycles(g))[-1] == ()


def test_star_matches_reference():
    g = star(8)
    for cap in CUT_CAPS:
        assert_matches_reference(cut_spectrum_unchecked(g, cap), base_edge_cuts(g), cap)


def test_single_edge_cycle_spectrum_matches_reference():
    k2 = fx.k2()
    for cap in CYCLE_CAPS:
        spec = build_cycle_spectrum(k2, cap)
        assert_matches_reference(spec, base_edge_cycles(k2), cap)
