"""Integer-row spectra against the per-cell reference in spectra_reference."""

import time
from functools import reduce
from operator import itemgetter, or_, xor
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
from edgespec import graphs, spectra
from edgespec.graphs import Graph, _gather_pass, bit_ids, distance_spheres
from edgespec.isometric import _cycle_masks
from edgespec.spectra import cut_spectrum_unchecked

import fixtures as fx
import spectra_reference as ref

# capped first: a fault that keeps a row alive fails a capped build
# before an uncapped one can run without end; check_caps builds the None
# cap capped too, a block past the reference's level count, before it
# builds it uncapped
CUT_CAPS = (1, 2, 3, None)
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


def assert_matches_reference(spec, base, cap, want=None):
    """spec against the reference's build at cap, or against want, a
    build of the reference made already."""
    g = spec.graph
    levels, truncated, level_count = want or ref.build(g, base, cap)
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


def check_whole(g, base, build):
    """build(None) against the reference's whole table, after build(cap)
    a block past the reference's level count, which must end untruncated
    and equal: a fault that keeps a row alive fails at that cap, within
    the memory of the spectrum it should have built, rather than growing
    without end."""
    want = ref.build(g, base, None)
    for cap in (len(want[0]) + BLOCK, None):
        spec = build(cap)
        assert_matches_reference(spec, base, None, want)
    return spec


def whole_capped(g, base, build):
    """build(cap) a block past the reference's level count, which must end
    untruncated, and so is the whole spectrum; for checks that read the
    spectrum but do not compare it with the reference's table."""
    spec = build(len(ref.build(g, base, None)[0]) + BLOCK)
    assert not spec.truncated
    return spec


def check_caps(g, base, build, caps):
    """build(cap) against the reference at each cap, the None cap by
    check_whole."""
    for cap in caps:
        if cap is None:
            check_whole(g, base, build)
        else:
            assert_matches_reference(build(cap), base, cap)


def check_graph(g):
    cuts = ref.base_edge_cuts(g)
    check_caps(g, cuts, lambda cap: build_cut_spectrum(g, cap), CUT_CAPS)
    cycles = ref.base_edge_cycles(g, isometric_cycles(g))
    check_caps(g, cycles, lambda cap: build_cycle_spectrum(g, cap), CYCLE_CAPS)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_graphs_match_reference(seed):
    check_graph(fx.random_nonseparable(Random(seed)))


@pytest.mark.parametrize("name", sorted(fx.NONSEPARABLE_FIXTURES))
def test_fixtures_match_reference(name):
    check_graph(fx.NONSEPARABLE_FIXTURES[name]())


# A live row dies at the first lane that holds its death value: its first
# value in I = im M^N, taken as the row space of M^_BLOCK.  Row e's level-0
# value is k + i with k in ker M^N and i in I; its values lie in I from
# level nu on, nu the nilpotent index of k, and its first repeat is its
# value at nu.  A wrong death value keeps a row alive past its death, so
# each build is capped a block past the spectrum's end before it runs
# uncapped, and these tests come before the uncapped deep builds below:
# under pytest -x the fault then fails a capped build rather than running
# without end.  check_block_path and the block_levels fixture are in the
# block path's tests further down.


def death_values(base):
    """For each nonzero row of the base, walked one level at a time: the
    level at which it dies and the value it dies on, 0 for zero."""
    out = []
    for r in base:
        if not r:
            continue
        held = {r}
        level = 0
        while True:
            level += 1
            r = times_base(r, base)
            if not r or r in held:
                out.append((level, r))
                break
            held.add(r)
    return out


def check_capped_then_whole(g, levels, unchecked=False):
    """check_block_path capped a block past the spectrum's known end,
    then uncapped: both must end untruncated at that level count."""
    for cap in (levels + BLOCK, None):
        spec = check_block_path(g, cap, unchecked)
        assert len(spec.weights) == levels and not spec.truncated
    return spec


# random_cubic(Random(seed), 22), m = 33: (levels, the latest nu of a row
# that dies inside a block)
LATE = {9: (130, 3), 19: (257, 2)}


@pytest.mark.parametrize("seed", sorted(LATE))
def test_rows_entering_their_cycle_late_die_inside_a_block(block_levels, seed):
    g = fx.random_cubic(Random(seed), 22)
    levels, nu = LATE[seed]
    start = g.m + BLOCK
    late = [held for died, held in first_repeats(bits(base_edge_cuts(g))) if died > start]
    # seed 9: rows 1-3 first hold their death value at level 3 and die at
    # level 130, inside the first block, from level 97
    assert max(late) == nu and start < levels < start + 3 * BLOCK
    check_capped_then_whole(g, levels)
    assert block_levels[-1] == levels - start


def test_death_value_in_the_top_bit_of_a_lane(block_levels):
    # m = 64: rows die at levels 260 and 262, inside the third block, on
    # death values that hold edge 64, the top bit of a lane
    g = cycle_with_chords(24, 64, 2)
    assert g.m == 64
    deaths = death_values(bits(base_edge_cuts(g)))
    assert any(died > g.m + 2 * BLOCK and value >> 63 for died, value in deaths)
    check_capped_then_whole(g, 262)


@pytest.mark.parametrize("n, seed", [(16, 1), (18, 2), (20, 4), (20, 6), (22, 1)])
def test_deep_cubic_spectra_match_reference(n, seed):
    g = fx.random_cubic(Random(seed), n)
    check_whole(g, ref.base_edge_cuts(g), lambda cap: build_cut_spectrum(g, cap))


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
    check_caps(k2, ref.base_edge_cuts(k2), lambda cap: cut_spectrum_unchecked(k2, cap), CUT_CAPS)


def test_cubic_64_capped_matches_reference():
    g = fx.random_cubic(Random(3), 64)
    assert g.m == 96
    assert_matches_reference(build_cut_spectrum(g, 100), ref.base_edge_cuts(g), 100)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_table_step_agrees_with_reference_gamma(seed):
    rng = Random(seed)
    g = fx.random_nonseparable(rng, 4, 14) if seed % 2 else fx.random_cubic(rng, 16)
    cuts, cycles = ref.base_edge_cuts(g), ref.base_edge_cycles(g, isometric_cycles(g))
    for base, spec in (
        (cuts, whole_capped(g, cuts, lambda cap: build_cut_spectrum(g, cap))),
        (cycles, whole_capped(g, cycles, lambda cap: build_cycle_spectrum(g, cap))),
    ):
        for prev, nxt in zip(spec.rows, spec.rows[1:]):
            for r, r_next in zip(prev, nxt):
                assert ref.gamma(EdgeSet.from_bits(g.m, r), base).bits == r_next


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_trees_match_reference(seed):
    t = random_tree(Random(seed))
    check_caps(t, ref.base_edge_cuts(t), lambda cap: cut_spectrum_unchecked(t, cap), CUT_CAPS)


@pytest.mark.parametrize("seed", [37, 41, 48])
def test_trees_with_late_repeats_match_reference(seed):
    # a row of each of these trees dies by repeating a value that it first
    # held past level m // 2, so the seen-sets must take every level up to
    # m; the cap turns a row kept alive past its death into a truncation
    # rather than a build without end
    t = random_tree(Random(seed))
    base = ref.base_edge_cuts(t)
    levels, truncated, _ = ref.build(t, base, 100)
    assert not truncated
    first_held = []
    for i in range(t.m):
        row = [level[i].bits for level in levels if level[i] is not None]
        again = ref.gamma(EdgeSet.from_bits(t.m, row[-1]), base).bits if row else 0
        if again in row:
            first_held.append(row.index(again))
    assert max(first_held) > t.m // 2
    assert_matches_reference(cut_spectrum_unchecked(t, 100), base, 100)


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
    return spectra.Spectrum("cycle", g, masks, None)


def slots(builder):
    """The spectrum's columns as edge ids, the slots of its level step."""
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


# A spectrum's base is W·Wᵀ over its columns with their ring sum
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
    base = spectra.Spectrum("cycle", g, columns, None).base
    assert ref.is_symmetric_with_empty_diagonal([EdgeSet.from_bits(g.m, r) for r in base])


def test_cycle_base_grows_gently_on_large_cubic_graphs():
    # the base costs one XOR per set bit of the columns, about 4 times as
    # long on twice the edges here; a build that visited the set bits of
    # the m×m base, which the rim makes dense, took about 17 times
    timings = []
    for n in (342, 684):
        g = fx.random_cubic(Random(7), n)
        masks = _cycle_masks(g)
        build = lambda: spectra.Spectrum("cycle", g, masks, 1)
        timings.append((g.m, min(timed(build) for _ in range(5))))
    assert [m for m, _ in timings] == [513, 1026]
    assert timings[1][1] <= 10 * timings[0][1], timings


def test_twin_hubs_step_about_as_fast_as_one_hub():
    # K2,800's hubs tie for the longest slot, so pass one has 800 columns
    # and each past the second is written over just the hubs' two sums.
    # Chaining each short column onto the rest of the sums instead put
    # every entry through about 800 nested iterators: a step took 10 to
    # 11 times one on the 3,202-edge wheel, whose hub is folded.
    best = []
    for g in (fx.k2n(800), fx.wheel(1602)):
        spec = spectra._cut_builder(g, None)
        step = spectra._factor_step(g.m, slots(spec))
        padded = [0, *spec.base]
        best.append(min(timed(lambda: step(padded)) for _ in range(5)))
    assert best[0] <= 3 * best[1], best


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
    g = fx.random_cubic(Random(seed), n)
    cuts = ref.base_edge_cuts(g)
    assert_double_count_identity(whole_capped(g, cuts, lambda cap: build_cut_spectrum(g, cap)))


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


def assert_factors_give_the_bases(g):
    identity = (0, *(1 << i for i in range(g.m)))
    for builder in (spectra._cut_builder(g, None), cycle_builder(g)):
        # a factor with every slot empty, a tree's cycle factor, has a
        # zero base, and a zero base has no level loop to step it
        if not any(slots(builder)):
            assert not any(builder.base)
            continue
        step = spectra._factor_step(g.m, slots(builder))
        assert step(identity) == [0, *builder.base]


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
    [fx.k2, lambda: fx.star(8), lambda: fx.k_n(4), fx.spider_tree, fx.caterpillar_tree],
    ids=["k2", "star_1_8", "k4", "spider", "caterpillar"],
)
def test_factor_step_gives_the_bases_on_padded_and_rimless_graphs(graph):
    assert_factors_give_the_bases(graph())


# Each pass XORs the part of its longest group past the second longest by
# one gather and reduce.  The star's hub, the wheel's hub and the rims of
# rook 4x4, g_12v35e and Petersen are groups far longer than the rest;
# K2 and K4 have no such tail, and the twin hubs of K2,n and the
# bipyramid tie, so their short columns are written over a prefix of the
# sums.


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_folded_factor_step_on_the_identity_gives_the_bases(seed):
    rng = Random(seed)
    assert_factors_give_the_bases(fx.wheel(rng.randint(4, 13)))
    assert_factors_give_the_bases(fx.k2n(rng.randint(2, 12)))
    assert_factors_give_the_bases(fx.bipyramid(rng.randint(3, 12)))


@pytest.mark.parametrize(
    "graph",
    [
        fx.k2,
        lambda: fx.star(8),
        lambda: fx.k_n(4),
        fx.rook_4x4,
        fx.g_12v35e,
        fx.petersen,
        lambda: fx.wheel(13),
        lambda: fx.k2n(20),
        lambda: fx.bipyramid(13),
    ],
    ids=[
        "k2", "star_1_8", "k4", "rook_4x4", "g_12v35e", "petersen",
        "wheel_13", "k2_20", "bipyramid_13",
    ],
)
def test_folded_factor_step_gives_the_bases_on_fixtures(graph):
    assert_factors_give_the_bases(graph())


def test_k4_has_an_empty_rim():
    g = fx.k_n(4)
    assert slots(cycle_builder(g))[-1] == ()


# The sparse gather pass against a plain fold per group, with xor as in
# both passes of a spectrum step and with or_ as in a level of the distance
# spheres.  Group 0 is empty, as in both users, and entry 0 of the
# sequence is zero.


def reference_pass(groups, seq, op=xor):
    return [reduce(op, (seq[j] for j in grp), 0) for grp in groups]


@st.composite
def pass_inputs(draw):
    """Groups of a pass in one of the shapes the factors give, in any
    order, and a sequence with entry 0 zero for them to index."""
    size = draw(st.integers(min_value=1, max_value=12))
    count = draw(st.integers(min_value=1, max_value=10))
    shape = draw(st.sampled_from(["empty", "ones", "equal", "random", "tied", "tail"]))
    short = st.integers(min_value=0, max_value=4)
    lengths = draw(st.lists(short, min_size=count, max_size=count))
    if shape == "empty":
        lengths = [0] * count
    elif shape == "ones":
        lengths = [1] * count
    elif shape == "equal":
        lengths = [draw(short)] * count
    elif shape == "random":
        lengths = [draw(st.integers(min_value=0, max_value=8)) for _ in lengths]
    else:
        # two tied longest groups, as K2,n's hubs give, or one far longer
        # than the rest, as a rim or a hub's tail gives
        long = draw(st.integers(min_value=5, max_value=40))
        lengths += [long] if shape == "tail" else [long, long]
        lengths = draw(st.permutations(lengths))
    entry = st.integers(min_value=1, max_value=size)
    groups = [draw(st.lists(entry, min_size=n, max_size=n)) for n in lengths]
    row = st.integers(min_value=0, max_value=(1 << 40) - 1)
    return [(), *groups], (0, *draw(st.lists(row, min_size=size, max_size=size)))


@settings(max_examples=300, deadline=None)
@given(pass_inputs())
def test_xor_pass_matches_a_plain_xor_per_group(inputs):
    groups, seq = inputs
    assert _gather_pass(groups, xor)(seq) == reference_pass(groups, seq)


@settings(max_examples=300, deadline=None)
@given(pass_inputs())
def test_or_pass_matches_a_plain_or_per_group(inputs):
    groups, seq = inputs
    assert _gather_pass(groups, or_)(seq) == reference_pass(groups, seq, or_)


def pass_gathers(monkeypatch, build, caller=spectra):
    """The groups of each gather pass that build() makes through the
    caller's module, with the index tuples of the gathers each pass makes
    over them."""
    real, made = graphs._gather_pass, []

    def recording(groups, op):
        made.append(([tuple(grp) for grp in groups], []))
        return real(groups, op)

    def gather(*ids):
        made[-1][1].append(ids)
        return itemgetter(*ids)

    monkeypatch.setattr(caller, "_gather_pass", recording)
    monkeypatch.setattr(graphs, "itemgetter", gather)
    build()
    return made


def test_cut_pass_one_folds_the_hub(monkeypatch):
    g = fx.wheel(13)
    hub, *rest, ring_sum = sorted(slots(spectra._cut_builder(g, None)), key=len, reverse=True)
    assert (len(hub), len(rest[0]), ring_sum) == (12, 3, ())
    (groups, gathers), _ = pass_gathers(monkeypatch, lambda: build_cut_spectrum(g, 3))
    assert groups == [(), hub, *rest]
    # three columns, then the hub's edges past the third in one gather
    assert len(gathers) == 4
    assert gathers[-1] == (0, *hub[3:])


def test_rim_past_the_cycles_is_folded(monkeypatch):
    g = fx.rook_4x4()
    columns = slots(cycle_builder(g))
    rim = columns[-1]
    assert len(rim) == g.m and max(map(len, columns[:-1])) == 4
    (groups, gathers), _ = pass_gathers(monkeypatch, lambda: build_cycle_spectrum(g, None))
    assert groups[:2] == [(), rim]
    # four columns, then the rim's edges past the fourth in one gather
    assert len(gathers) == 5
    assert gathers[-1] == (0, *rim[4:])


def test_sphere_pass_folds_the_hub(monkeypatch):
    # a fresh graph: the fixture is cached and may carry its spheres
    g = Graph(13, fx.wheel(13).edges)
    hub = g.adjacency(1)
    assert len(hub) == 12 and {g.degree(v) for v in g.vertices[1:]} == {3}
    [(groups, gathers)] = pass_gathers(monkeypatch, lambda: distance_spheres(g), graphs)
    assert groups == [(), *map(g.adjacency, g.vertices)]
    # three columns, then the hub's neighbours past the third in one gather
    assert len(gathers) == 4
    assert gathers[-1] == (0, *hub[3:])


def test_star_matches_reference():
    g = fx.star(8)
    check_caps(g, ref.base_edge_cuts(g), lambda cap: cut_spectrum_unchecked(g, cap), CUT_CAPS)


def test_single_edge_cycle_spectrum_matches_reference():
    k2 = fx.k2()
    build = lambda cap: build_cycle_spectrum(k2, cap)
    check_caps(k2, ref.base_edge_cycles(k2, ()), build, CYCLE_CAPS)


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


def loop_state(spec):
    """The locals of a spectrum's suspended level loop."""
    return spec._levels.gi_frame.f_locals


@pytest.mark.parametrize("n, seed", [(18, 2), (20, 4), (20, 6), (22, 1)])
def test_held_values_stop_growing_after_level_m(n, seed):
    g = fx.random_cubic(Random(seed), n)
    builder = spectra._cut_builder(g, None)
    builder.extend(g.m + 8)
    assert len(builder.weights) == g.m + 8
    live = loop_state(builder)["live"]
    assert live
    # zero and one distinct value for each of the levels 0..m
    assert all(len(held) == g.m + 2 for _, held in live)


# Past level m + _BLOCK a spectrum of at most _LANE edges steps _BLOCK
# levels at once, through the rows of M^_BLOCK on packed rows of one
# 64-bit lane a value; it finds each live row's death lane before it
# weighs the block, and weighs it lane by lane.  A wrapper of
# spectra._blocks counts the levels each spectrum weighed that way, so
# that every case below is known to reach the block path, or not to.

BLOCK = spectra._BLOCK


@pytest.fixture
def block_levels(monkeypatch):
    """Levels weighed a block at a time, one count per spectrum that got
    to its blocks, for the spectra built after the fixture is made."""
    real, counts = spectra._blocks, []

    def counted(*args):
        counts.append(0)
        for level in real(*args):
            counts[-1] += 1
            yield level

    monkeypatch.setattr(spectra, "_blocks", counted)
    return counts


def assert_rows_are_gamma_steps(spec, base):
    # every kept row, dead or alive, is gamma of its row one level up
    m = spec.graph.m
    for prev, nxt in zip(spec.rows, spec.rows[1:]):
        for r, r_next in zip(prev, nxt):
            assert ref.gamma(EdgeSet.from_bits(m, r), base).bits == r_next


def assert_stepwise_matches_whole(build):
    # extend(l + 1) one level at a time, as compare's lockstep does,
    # against one extend(None), with and without the rows kept
    whole = build(True)
    whole.extend(None)
    for keep in (True, False):
        stepped = build(keep)
        for l in range(2, len(whole.weights) + 2):
            stepped.extend(l)
        assert stepped.weights == whole.weights
        assert stepped.alive == whole.alive
        assert stepped.rows == (whole.rows if keep else None)
        assert (stepped.truncated, stepped.level_count) == (whole.truncated, whole.level_count)


def check_block_path(g, cap, unchecked=False):
    base = ref.base_edge_cuts(g)

    def build(keep):
        return spectra.Spectrum("cut", g, g._cut[1:], cap, keep)

    spec = (cut_spectrum_unchecked if unchecked else build_cut_spectrum)(g, cap)
    assert_matches_reference(spec, base, cap)
    assert_rows_are_gamma_steps(spec, base)
    assert_stepwise_matches_whole(build)
    return spec


DEEP_TREES = {"path_m12": (13, 126), "path_m18": (19, 1022)}


@pytest.mark.parametrize("name", sorted(DEEP_TREES))
def test_deep_paths_match_reference(block_levels, name):
    n, levels = DEEP_TREES[name]
    g = fx.path(n)
    check_capped_then_whole(g, levels, unchecked=True)
    assert block_levels and block_levels[0] == levels - g.m - BLOCK


def test_bipyramid_ends_mid_block(block_levels):
    g = fx.bipyramid(13)
    # 126 levels: the first block holds levels 103..166
    check_capped_then_whole(g, 126)
    assert g.m + BLOCK == 103
    assert block_levels[0] == 126 - 103


def test_cubic_ends_mid_block(block_levels):
    g = fx.random_cubic(Random(6), 20)
    check_capped_then_whole(g, 155)
    assert block_levels[0] == 155 - g.m - BLOCK


def test_cubic_row_dies_inside_a_block(block_levels):
    g = fx.random_cubic(Random(4), 20)
    spec = check_capped_then_whole(g, 128)
    start = g.m + BLOCK
    # a row dies at level 127, lane 33 of the block from level 94, and
    # the rest at level 128
    assert start == 94
    assert spec.alive[127] != spec.alive[126] and spec.alive[127]
    assert block_levels[0] == 128 - start


# the path of 18 edges runs 1,022 levels, its blocks from level 82 on
@pytest.mark.parametrize("cap", [82, 146, 156, 210], ids=["at_start", "on_edge", "mid", "mid_2"])
def test_caps_on_and_inside_blocks_match_reference(block_levels, cap):
    g = fx.path(19)
    spec = check_block_path(g, cap, unchecked=True)
    assert spec.truncated and len(spec.weights) == cap
    assert set(block_levels) == ({cap - 82} if cap > 82 else set())


# cycles with chords of m edges whose cut spectra take blocks, as
# cycle_with_chords(n, m, seed)
CHORDED = {63: (30, 63, 5), 64: (30, 64, 0), 65: (62, 65, 0)}


# a row of up to 64 edges fits one lane; one of 65 keeps the factor step
@pytest.mark.parametrize("m", [63, 64, 65])
@pytest.mark.parametrize("blocks", [2, 3], ids=["mid", "on_edge"])
def test_lane_boundary_edge_counts_match_reference(block_levels, m, blocks):
    g = cycle_with_chords(*CHORDED[m])
    assert g.m == m
    cap = m + blocks * BLOCK + (9 if blocks == 2 else 0)
    spec = check_block_path(g, cap)
    assert spec.truncated
    assert set(block_levels) == ({cap - m - BLOCK} if m <= spectra._LANE else set())


def test_rows_die_inside_a_block_and_blocks_go_on(block_levels):
    g = cycle_with_chords(*CHORDED[63])
    # a row dies at level 180, inside the block of levels 127..190, and
    # the spectrum ends at level 360, inside its fourth block
    spec = check_capped_then_whole(g, 360)
    assert spec.alive[180] != spec.alive[179] and spec.alive[180]
    assert block_levels[0] == 360 - 127


def test_rows_wider_than_a_lane_take_no_block(block_levels):
    # 96 edges: a row takes more than one 64-bit lane
    g = fx.random_cubic(Random(64002), 64)
    spec = spectra._cut_builder(g, 500)
    spec.extend(None)
    assert len(spec.weights) == 500
    assert block_levels == []


# The level loop is one generator, held in Spectrum._levels while a level
# may follow.  Its window of recent rows spans levels 0 to m + _BLOCK - 1
# of a spectrum that takes blocks, and is emptied once the first block is
# packed, as are the held-value sets; a spectrum that ends drops the loop.


def test_rows_wider_than_a_lane_pin_no_window():
    g = fx.random_cubic(Random(64002), 64)
    assert g.m == 96
    spec = spectra._cut_builder(g, None)
    spec.extend(300)
    assert len(spec.weights) == 300 and spec._levels is not None
    assert loop_state(spec)["recent"] == []


def test_window_is_released_past_the_first_block(block_levels):
    g = fx.path(19)
    spec = spectra._cut_builder(g, None)
    spec.extend(g.m + BLOCK)
    # levels 0 to m + _BLOCK - 1, the first block still to come
    assert len(loop_state(spec)["recent"]) == g.m + BLOCK
    assert loop_state(spec)["live"]
    assert block_levels == []
    spec.extend(g.m + BLOCK + 1)
    assert block_levels == [1]
    assert loop_state(spec)["recent"] == []
    # the death values stand in for the held-value sets
    assert loop_state(spec)["live"] == []


@pytest.mark.parametrize("keep", [False, True], ids=["engine", "kept"])
def test_ended_spectra_drop_the_loop(keep):
    def cut(g, cap):
        return spectra.Spectrum("cut", g, g._cut[1:], cap, keep)

    # every row dead: per level, and inside a block; the loop learns it
    # on the draw after the last level
    for g, levels in ((fx.k_n(4), 1), (fx.random_cubic(Random(6), 20), 155)):
        spec = cut(g, None)
        spec.extend(levels)
        assert spec._levels is not None
        spec.extend(None)
        assert len(spec.weights) == levels
        assert spec._levels is None and not spec.truncated
    # the cap reached with rows alive
    spec = cut(fx.path(19), 150)
    spec.extend(None)
    assert spec._levels is None and spec.truncated
    # no live row at the base level: no loop at all
    k2 = graph_from_edges(2, [(1, 2)])
    assert cut(k2, None)._levels is None
