"""Integer-row spectra against the per-cell reference in spectra_reference."""

import time
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
    graph_from_edges,
    isometric_cycles,
    spectrum_edge_weights,
    spectrum_invariant,
    vertex_weights,
)
from edgespec import spectra
from edgespec.graphs import bit_ids
from edgespec.isometric import _cycle_masks
from edgespec.spectra import cut_spectrum_unchecked

import fixtures as fx
import spectra_reference as ref

CUT_CAPS = (None, 1, 2, 3)
CYCLE_CAPS = (1, 2, None)


def random_tree(rng: Random, n_min: int = 2, n_max: int = 14):
    n = rng.randint(n_min, n_max)
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
    zeta = vertex_weights(spec)
    assert (zeta.per_level, zeta.total) == ref.vertex_weights(g, ref_xi)
    assert spectrum_invariant(spec) == ref.invariant(
        spec.kind, g, levels, truncated, level_count
    )


def check_graph(g):
    cuts = ref.base_edge_cuts(g)
    for cap in CUT_CAPS:
        assert_matches_reference(build_cut_spectrum(g, cap), cuts, cap)
    cycles = ref.base_edge_cycles(g, isometric_cycles(g))
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
    assert_matches_reference(build_cut_spectrum(g), ref.base_edge_cuts(g), None)


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
        assert_matches_reference(cut_spectrum_unchecked(k2, cap), ref.base_edge_cuts(k2), cap)


def test_cubic_64_capped_matches_reference():
    g = fx.random_cubic(Random(3), 64)
    assert g.m == 96
    assert_matches_reference(build_cut_spectrum(g, 100), ref.base_edge_cuts(g), 100)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_table_step_agrees_with_reference_gamma(seed):
    rng = Random(seed)
    g = fx.random_nonseparable(rng, 4, 14) if seed % 2 else fx.random_cubic(rng, 16)
    for base, spec in (
        (ref.base_edge_cuts(g), build_cut_spectrum(g)),
        (ref.base_edge_cycles(g, isometric_cycles(g)), build_cycle_spectrum(g, None)),
    ):
        for prev, nxt in zip(spec.rows, spec.rows[1:]):
            for r, r_next in zip(prev, nxt):
                assert ref.gamma(EdgeSet.from_bits(g.m, r), base).bits == r_next


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_trees_match_reference(seed):
    t = random_tree(Random(seed))
    for cap in CUT_CAPS:
        assert_matches_reference(cut_spectrum_unchecked(t, cap), ref.base_edge_cuts(t), cap)


@pytest.mark.parametrize("tree", [fx.spider_tree, fx.caterpillar_tree])
def test_fixture_trees_match_reference(tree):
    t = tree()
    assert_matches_reference(cut_spectrum_unchecked(t), ref.base_edge_cuts(t), None)


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


# The integer base rows against the reference tables, which read the
# definitions and not the package's tables


def cycle_builder(g, cycles=None):
    masks = [c.bits for c in (isometric_cycles(g) if cycles is None else cycles)]
    return spectra._cycle_builder(g, None, masks)


def slots(builder):
    """The builder's columns as edge ids, the slots of its level step."""
    return [bit_ids(c) for c in builder.columns]


def assert_base_rows_match_reference(g):
    assert spectra._cut_builder(g, None).base == tuple(b.bits for b in ref.base_edge_cuts(g))
    cycles = isometric_cycles(g)
    expected = tuple(b.bits for b in ref.base_edge_cycles(g, cycles))
    assert cycle_builder(g, cycles).base == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_base_rows_match_reference_on_random_graphs_and_trees(seed):
    assert_base_rows_match_reference(fx.random_nonseparable(Random(seed)))
    assert_base_rows_match_reference(random_tree(Random(seed)))


FIXTURES_AND_TREES = {
    **fx.NONSEPARABLE_FIXTURES,
    "k2": fx.k2,
    "spider_tree": fx.spider_tree,
    "caterpillar_tree": fx.caterpillar_tree,
}


@pytest.mark.parametrize("name", sorted(FIXTURES_AND_TREES))
def test_base_rows_match_reference_on_fixtures_and_trees(name):
    assert_base_rows_match_reference(FIXTURES_AND_TREES[name]())


# The builder's base is W·Wᵀ over its columns with their ring sum
# appended, symmetric with an empty diagonal for any columns, not only
# cycles: repeated and empty masks too


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.data())
def test_any_columns_give_a_symmetric_base_with_empty_diagonal(seed, data):
    g = fx.random_nonseparable(Random(seed))
    mask = st.one_of(st.just(0), st.integers(min_value=0, max_value=(1 << g.m) - 1))
    columns = data.draw(st.lists(mask, max_size=12))
    if columns:
        columns += data.draw(st.lists(st.sampled_from(columns), max_size=4))
    base = spectra._Builder("cycle", g, columns, None).base
    assert ref.is_symmetric_with_empty_diagonal([EdgeSet.from_bits(g.m, r) for r in base])


def test_cycle_base_grows_gently_on_large_cubic_graphs():
    # the base costs one XOR per set bit of the columns, about 4 times as
    # long on twice the edges here; a build that visited the set bits of
    # the m×m base, which the rim makes dense, took about 17 times
    timings = []
    for n in (342, 684):
        g = fx.random_cubic(Random(7), n)
        masks = _cycle_masks(g)
        build = lambda: spectra._cycle_builder(g, 1, masks)
        timings.append((g.m, min(timed(build) for _ in range(5))))
    assert [m for m, _ in timings] == [513, 1026]
    assert timings[1][1] <= 10 * timings[0][1], timings


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


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
    for builder in (spectra._cut_builder(g, None), cycle_builder(g)):
        assert identity_step(g, slots(builder)) == builder.base


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
    assert slots(cycle_builder(g))[-1] == ()


# A factor XORs the part of its longest slot past the second longest, the
# cycle factor's rim or the cut factor's hub vertex, by one gather and
# reduce when that part holds two edges or more.  The fold is exact for
# any slots.


def wheel(k):
    rim = [(v, v + 1) for v in range(2, k + 1)] + [(2, k + 1)]
    return graph_from_edges(k + 1, sorted([(1, v) for v in range(2, k + 2)] + rim))


def assert_folded_factors_give_the_bases(g):
    identity = (0, *(1 << i for i in range(g.m)))
    for builder in (spectra._cut_builder(g, None), cycle_builder(g)):
        step = spectra._factor_step(g.m, slots(builder))
        assert step(identity) == (0, *builder.base)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_folded_factor_step_on_the_identity_gives_the_bases(seed):
    rng = Random(seed)
    assert_folded_factors_give_the_bases(fx.random_nonseparable(rng))
    assert_folded_factors_give_the_bases(random_tree(rng))
    assert_folded_factors_give_the_bases(wheel(rng.randint(3, 12)))


@pytest.mark.parametrize(
    "graph",
    [fx.k2, lambda: star(8), lambda: fx.k_n(4), fx.rook_4x4, fx.g_12v35e, fx.petersen],
    ids=["k2", "star_1_8", "k4", "rook_4x4", "g_12v35e", "petersen"],
)
def test_folded_factor_step_gives_the_bases_on_fixtures(graph):
    assert_folded_factors_give_the_bases(graph())


def pass_one_groups(monkeypatch, build):
    """The slot groups of each pass one that build() makes."""
    real, made = spectra._xor_pass, []

    def recording(groups, spare):
        if spare == 0:
            made.append([tuple(grp) for grp in groups])
        return real(groups, spare)

    monkeypatch.setattr(spectra, "_xor_pass", recording)
    build()
    return made


def test_cut_pass_one_folds_the_hub(monkeypatch):
    g = wheel(12)
    hub, *rest = sorted(slots(spectra._cut_builder(g, None)), key=len, reverse=True)
    assert (len(hub), len(rest[0])) == (12, 3)
    made = pass_one_groups(monkeypatch, lambda: build_cut_spectrum(g, 3))
    assert made == [[hub[:3], *rest, ()]]


def test_rim_past_the_cycles_is_folded(monkeypatch):
    g = fx.rook_4x4()
    columns = slots(cycle_builder(g))
    assert max(map(len, columns)) == g.m
    (groups,) = pass_one_groups(monkeypatch, lambda: build_cycle_spectrum(g, None))
    assert len(groups) == len(columns) + 1
    assert len(groups[0]) == len(groups[1]) == 4


def test_star_matches_reference():
    g = star(8)
    for cap in CUT_CAPS:
        assert_matches_reference(cut_spectrum_unchecked(g, cap), ref.base_edge_cuts(g), cap)


def test_single_edge_cycle_spectrum_matches_reference():
    k2 = fx.k2()
    for cap in CYCLE_CAPS:
        spec = build_cycle_spectrum(k2, cap)
        assert_matches_reference(spec, ref.base_edge_cycles(k2, ()), cap)


# Past level m (m = edge count) the build stops adding each live row's
# values to its set of held values: a row still alive there dies exactly
# when its value is zero or one it held by level m.  Level l holds row e
# of M^(l+1).  The rank of M^k falls strictly until it stops, at some
# k = N <= m, and then GF(2)^m = ker M^N ⊕ im M^N with M invertible on the
# second part, so from level N - 1 on every row runs purely periodically.
# A too-early freeze lets a row run past its first repeat forever; these
# tests cap such builds, so that it fails rather than hangs.


def times_base(r, base):
    """Row r times M, M given by its integer rows."""
    acc = 0
    for i, b in enumerate(base):
        if (r >> i) & 1:
            acc ^= b
    return acc


def first_repeats(base):
    """For each nonzero row of the base, walked one level at a time: the
    level at which it dies, and the level at which it first held the
    value it dies on, or None when it dies on zero."""
    out = []
    for r in base:
        if not r:
            continue
        held = {r: 0}
        level = 0
        while True:
            level += 1
            r = times_base(r, base)
            if not r or r in held:
                out.append((level, held.get(r)))
                break
            held[r] = level
    return out


def assert_repeats_a_value_held_by_level_m(base):
    # both bounds are N - 1 <= m - 1, one level inside the build's freeze
    m = len(base)
    for died, held in first_repeats(base):
        if held is None:
            assert died < m
        else:
            assert held < m


def bits(base):
    return [b.bits for b in base]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_rows_repeat_a_value_held_by_level_m(seed):
    g = fx.random_nonseparable(Random(seed))
    assert_repeats_a_value_held_by_level_m(bits(base_edge_cuts(g)))
    assert_repeats_a_value_held_by_level_m(bits(base_edge_cycles(g)))
    t = random_tree(Random(seed))
    assert_repeats_a_value_held_by_level_m(bits(base_edge_cuts(t)))


@pytest.mark.parametrize("n, seed", [(16, 1), (18, 2), (20, 4), (20, 6)])
def test_deep_cubic_rows_repeat_a_value_held_by_level_m(n, seed):
    g = fx.random_cubic(Random(seed), n)
    assert_repeats_a_value_held_by_level_m(bits(base_edge_cuts(g)))


def broom(k, j):
    """A path of k edges from vertex 1, with j leaves at its far end."""
    edges = [(v, v + 1) for v in range(1, k + 1)]
    edges += [(k + 1, k + 2 + i) for i in range(j)]
    return graph_from_edges(k + 1 + j, edges)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_trees_to_30_vertices_match_reference_at_cap_300(seed):
    t = random_tree(Random(seed), 3, 30)
    assert_matches_reference(cut_spectrum_unchecked(t, 300), ref.base_edge_cuts(t), 300)


def test_tree_with_a_late_first_repeat_matches_reference():
    t = broom(14, 3)
    # a row dies at level 15 on the value it first held at level 14
    assert (15, 14) in first_repeats(bits(base_edge_cuts(t)))
    assert_matches_reference(cut_spectrum_unchecked(t, 300), ref.base_edge_cuts(t), 300)


@pytest.mark.parametrize("n, seed", [(18, 2), (20, 4), (20, 6), (22, 1)])
def test_held_values_stop_growing_after_level_m(n, seed):
    g = fx.random_cubic(Random(seed), n)
    builder = spectra._cut_builder(g, None)
    builder.extend(g.m + 8)
    assert len(builder.weights) == g.m + 8
    assert builder._live
    # zero and one distinct value for each of the levels 0..m
    assert all(len(held) == g.m + 2 for _, held in builder._live)
