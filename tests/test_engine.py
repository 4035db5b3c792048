"""Comparison cascade, integral invariant, orbits, brute force, relabeling."""

import tracemalloc
from random import Random

import pytest

import edgespec.graphs
import edgespec.isometric
import edgespec.spectra
from edgespec import (
    CandidateOverflow,
    LimitExceeded,
    NotAPermutation,
    NotATree,
    Verdict,
    brute_force_isomorphism,
    build_graph,
    compare_graphs,
    integral_invariant,
    invariant_IC,
    relabel,
    tree_invariant,
    vertex_orbit_partition,
)

import fixtures as fx


def assert_valid_bijection(g, h, bijection):
    assert sorted(bijection) == list(g.vertices)
    assert sorted(bijection.values()) == list(h.vertices)
    for u, v in g.edges:
        assert h.has_edge(bijection[u], bijection[v])


class TestTreeInvariant:
    def test_spider(self):
        assert str(tree_invariant(fx.spider_tree())) == fx.SPIDER_IT

    def test_caterpillar(self):
        assert str(tree_invariant(fx.caterpillar_tree())) == fx.CATERPILLAR_IT

    def test_rejects_graphs_with_cycles(self):
        with pytest.raises(NotATree, match="graph has 11 edges on 6 vertices"):
            tree_invariant(fx.g_6v11e())


class TestIntegralInvariant:
    def test_prism(self):
        assert str(integral_invariant(fx.prism())) == fx.PRISM_INTEGRAL

    def test_k33(self):
        assert str(integral_invariant(fx.k33())) == fx.K33_INTEGRAL

    def test_quartic_pair(self):
        assert str(integral_invariant(fx.quartic_8v_a())) == fx.QUARTIC_A_INTEGRAL
        assert str(integral_invariant(fx.quartic_8v_b())) == fx.QUARTIC_B_INTEGRAL

    def test_tree_routes_to_the_tree_mode(self):
        inv = integral_invariant(fx.spider_tree())
        assert inv.cycle is None and inv.line is None
        assert str(inv) == fx.SPIDER_IT

    def test_line_part_is_optional(self):
        inv = integral_invariant(fx.g_6v10e_b(), with_line=True)
        assert inv.line is not None
        assert str(inv).count("&") == 5


class TestCompareWitnesses:
    def test_vertex_count(self):
        r = compare_graphs(fx.k_n(4), fx.k_n(5))
        assert r.verdict is Verdict.NOT_ISOMORPHIC
        assert r.witness == "vertex count 4 vs 5"

    def test_edge_count(self):
        c5 = build_graph(5, {1: [2, 5], 2: [1, 3], 3: [2, 4], 4: [3, 5], 5: [1, 4]})
        r = compare_graphs(c5, fx.k_n(5))
        assert r.witness == "edge count 5 vs 10"

    def test_degree_multiset(self):
        lopsided = build_graph(
            6,
            {
                1: [2, 3, 4, 5, 6],
                2: [1, 3, 4, 5, 6],
                3: [1, 2, 4],
                4: [1, 2, 3],
                5: [1, 2, 6],
                6: [1, 2, 5],
            },
        )
        r = compare_graphs(fx.g_6v11e(), lopsided)
        assert r.witness == "degree multiset"

    def test_tree_cut_invariant(self):
        r = compare_graphs(fx.spider_tree(), fx.caterpillar_tree())
        assert r.verdict is Verdict.NOT_ISOMORPHIC
        assert r.witness == "tree cut invariant"

    def test_cut_level_zero(self):
        r = compare_graphs(fx.g_16v30e_a(), fx.g_16v30e_b())
        assert r.verdict is Verdict.NOT_ISOMORPHIC
        assert r.witness == fx.G_16V30E_WITNESS

    def test_cut_level_one(self):
        r = compare_graphs(fx.rook_4x4(), fx.shrikhande())
        assert r.witness == "cut spectrum level 1 invariant"
        r = compare_graphs(fx.quartic_8v_a(), fx.quartic_8v_b())
        assert r.witness == "cut spectrum level 1 invariant"

    def test_cut_level_count(self):
        # equal base data, one spectrum dies a level earlier
        r = compare_graphs(fx.k33(), fx.prism())
        assert r.witness == "cut spectrum level count 1 vs 2"

    def test_cycle_base(self):
        # a level cap of one blinds the cut side for cubic graphs
        r = compare_graphs(fx.k33(), fx.prism(), max_levels=1)
        assert r.witness == "cycle spectrum base invariant"

    def test_line_invariant(self):
        r = compare_graphs(fx.petersen(), fx.cubic_10v(), max_levels=1, with_line=True)
        assert r.witness == "line invariant"

    def test_exhaustive_search(self):
        # capped invariants all agree here; brute force settles it
        r = compare_graphs(fx.petersen(), fx.cubic_10v(), max_levels=1)
        assert r.verdict is Verdict.NOT_ISOMORPHIC
        assert r.witness == "exhaustive search found no bijection"


class TestCompareVerdicts:
    def test_isomorphic_pair(self):
        g = fx.quartic_8v_a()
        h = relabel(g, {1: 5, 2: 3, 3: 8, 4: 1, 5: 7, 6: 2, 7: 4, 8: 6})
        r = compare_graphs(g, h)
        assert r.verdict is Verdict.ISOMORPHIC
        assert r.witness is None
        assert_valid_bijection(g, h, r.bijection)

    def test_isomorphic_trees(self):
        g = fx.spider_tree()
        h = relabel(g, (7, 6, 5, 4, 3, 2, 1))
        r = compare_graphs(g, h)
        assert r.verdict is Verdict.ISOMORPHIC
        assert_valid_bijection(g, h, r.bijection)

    def test_large_equal_pair_is_left_open(self):
        g = fx.rook_4x4()
        h = relabel(g, {v: v % 16 + 1 for v in g.vertices})
        r = compare_graphs(g, h)
        assert r.verdict is Verdict.INDISTINGUISHABLE
        assert r.witness is None and r.bijection is None

    def test_brute_force_limit_is_adjustable(self):
        r = compare_graphs(fx.petersen(), fx.cubic_10v(), max_levels=1,
                           brute_force_limit=5)
        assert r.verdict is Verdict.INDISTINGUISHABLE

    def test_deep_pair_agrees_on_the_cycle_side(self):
        assert invariant_IC(fx.g_16v30e_a()) == invariant_IC(fx.g_16v30e_b())


class TestOrbits:
    def test_worked_example(self):
        assert vertex_orbit_partition(fx.g_6v11e()).groups == fx.G_6V11E_ORBITS

    def test_deep_example(self):
        part = vertex_orbit_partition(fx.g_8v15e())
        assert part.groups == fx.G_8V15E_ORBITS
        g = fx.g_8v15e()
        for v in g.vertices:
            paired, cut_total, cyc_total = part.signatures[v - 1]
            assert paired == tuple(row[v - 1] for row in fx.G_8V15E_ZETA_PAIRED)
            assert cut_total == fx.G_8V15E_CUT_ZETA_TOTAL[v - 1]
            assert cyc_total == fx.G_8V15E_TAU_ZETA[v - 1]

    def test_line_signature_extends_the_tuple(self):
        part = vertex_orbit_partition(fx.g_8v15e(), with_line=True)
        assert part.groups == fx.G_8V15E_ORBITS
        for v in fx.g_8v15e().vertices:
            assert part.signatures[v - 1][3] == fx.G_8V15E_IL_VERTEX[v - 1]

    def test_transitive_graph_collapses_to_one_group(self):
        assert vertex_orbit_partition(fx.octahedron()).groups == ((1, 2, 3, 4, 5, 6),)

    def test_relabeling_permutes_the_groups(self):
        g = fx.g_8v15e()
        perm = {1: 3, 2: 1, 3: 4, 4: 2, 5: 6, 6: 5, 7: 8, 8: 7}
        part = vertex_orbit_partition(relabel(g, perm))
        expected = sorted(
            tuple(sorted(perm[v] for v in grp)) for grp in fx.G_8V15E_ORBITS
        )
        assert sorted(part.groups) == expected


class TestBruteForce:
    def test_finds_a_bijection(self):
        g = fx.petersen()
        h = relabel(g, {v: 11 - v for v in g.vertices})
        bij = brute_force_isomorphism(g, h)
        assert_valid_bijection(g, h, bij)

    def test_distinguishes_cubic_pair(self):
        assert brute_force_isomorphism(fx.k33(), fx.prism()) is None

    def test_mismatched_orders_return_none(self):
        assert brute_force_isomorphism(fx.k_n(4), fx.k_n(4)) is not None
        assert brute_force_isomorphism(fx.k_n(4), fx.k_n(5)) is None

    def test_limit_message(self):
        with pytest.raises(LimitExceeded, match="order 16 exceeds brute force limit 10"):
            brute_force_isomorphism(fx.rook_4x4(), fx.shrikhande())


class TestRelabel:
    def test_mapping_and_sequence_agree(self):
        g = fx.g_6v11e()
        by_map = relabel(g, {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 1})
        by_seq = relabel(g, (2, 3, 4, 5, 6, 1))
        assert by_map == by_seq

    def test_identity(self):
        g = fx.g_6v11e()
        assert relabel(g, tuple(g.vertices)) == g

    def test_rejects_non_bijections(self):
        with pytest.raises(NotAPermutation, match="bijection on 1..6"):
            relabel(fx.g_6v11e(), {v: 1 for v in range(1, 7)})
        with pytest.raises(NotAPermutation):
            relabel(fx.g_6v11e(), (1, 2, 3))


@pytest.mark.parametrize(
    "run, graphs",
    [
        (integral_invariant, 1),
        (vertex_orbit_partition, 1),
        (lambda g: compare_graphs(g, relabel(g, list(range(10, 0, -1)))), 2),
    ],
    ids=["integral_invariant", "vertex_orbit_partition", "compare_graphs"],
)
def test_nonseparability_is_checked_once_per_graph(monkeypatch, run, graphs):
    real = edgespec.spectra.is_nonseparable
    checked = []
    monkeypatch.setattr(
        edgespec.spectra, "is_nonseparable", lambda g: checked.append(g) or real(g)
    )
    run(fx.petersen())
    assert len(checked) == graphs


def test_line_invariant_builds_the_spheres_once(monkeypatch):
    # distance_spheres builds the spheres while a graph has none yet; both
    # searches reach it by its name in isometric
    real = edgespec.graphs.distance_spheres
    runs, spheres = [], []

    def counted(g):
        if g._spheres is None:
            runs.append(g)
        spheres.append(real(g))
        return spheres[-1]

    monkeypatch.setattr(edgespec.isometric, "distance_spheres", counted)
    # relabelled by the identity: a new Graph with no spheres yet
    g = relabel(fx.petersen(), list(range(1, 11)))
    integral_invariant(g, with_line=True)
    assert runs == [g]
    # the isometric and the line-cycle search read the masks of that one pass
    assert len(spheres) == 2 and spheres[0] is spheres[1] is g._spheres


@pytest.mark.parametrize(
    "run",
    [
        integral_invariant,
        vertex_orbit_partition,
        lambda g, **kw: compare_graphs(g, relabel(g, list(range(g.n, 0, -1))), **kw),
    ],
    ids=["integral_invariant", "vertex_orbit_partition", "compare_graphs"],
)
def test_limit_bounds_the_isometric_enumeration(run):
    with pytest.raises(CandidateOverflow, match="^101 route pairs exceed limit 100$"):
        run(fx.hypercube(5), limit=100)


# The engine reads the weights its spectra record as they close each
# level; only the public build functions make a Spectrum that keeps every
# level's rows, and no engine path does.


def test_engine_paths_keep_no_rows(monkeypatch):
    g = fx.g_16v30e_a()
    h = relabel(g, list(range(16, 0, -1)))
    # reversing h's level-1 weights keeps each level's corteges and
    # changes the totals, which gives a total witness
    level_1 = edgespec.spectra.build_cut_spectrum(h).rows[1]
    real = edgespec.spectra._level_weights

    def skewed(graph, rows, alive):
        xi, zeta = real(graph, rows, alive)
        if graph is h and rows == level_1:
            return xi[::-1], zeta[::-1]
        return xi, zeta

    made = []
    init = edgespec.spectra.Spectrum.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(edgespec.spectra, "_level_weights", skewed)
    monkeypatch.setattr(edgespec.spectra.Spectrum, "__init__", recording)
    assert str(integral_invariant(fx.prism())) == fx.PRISM_INTEGRAL
    assert str(tree_invariant(fx.spider_tree())) == fx.SPIDER_IT
    level = compare_graphs(fx.rook_4x4(), fx.shrikhande())
    assert level.witness == "cut spectrum level 1 invariant"
    count = compare_graphs(fx.k33(), fx.prism())
    assert count.witness == "cut spectrum level count 1 vs 2"
    cycle = compare_graphs(fx.k33(), fx.prism(), max_levels=1)
    assert cycle.witness == "cycle spectrum base invariant"
    assert compare_graphs(g, h).witness == "cut spectrum total invariant"
    assert compare_graphs(g, relabel(g, list(range(1, 17)))).witness is None
    assert vertex_orbit_partition(fx.petersen()).groups == (tuple(range(1, 11)),)
    # integral_invariant and the orbits make a cut and a cycle spectrum,
    # tree_invariant one, and each compare two cut spectra and, when no
    # cut witness separates the pair, two cycle spectra
    assert len(made) == 2 + 1 + 2 + 2 + 4 + 2 + 4 + 2
    assert [spec.rows for spec in made] == [None] * len(made)


def test_deep_invariant_keeps_weights_not_rows():
    # 2,555 cut levels on 42 edges: the rows alone take about 1.7 KiB a
    # level, the weights and the per-level corteges about 1.5 KiB
    g = fx.random_cubic(Random(4), 28)
    tracemalloc.start()
    try:
        inv = integral_invariant(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inv.cut.level_count == 2555
    assert peak < 2 * 1024 * inv.cut.level_count


# The engine builds its spectra and its cycle searches on integer masks:
# EdgeSet is only what the public functions that return one make.


def test_engine_paths_construct_no_edge_set(monkeypatch):
    def no_edge_set(*args, **kwargs):
        raise AssertionError("an engine path built an EdgeSet")

    monkeypatch.setattr(edgespec.graphs.EdgeSet, "__init__", no_edge_set)
    monkeypatch.setattr(edgespec.graphs.EdgeSet, "from_bits", no_edge_set)
    inv = integral_invariant(fx.cubic_plus_edge_10v(), with_line=True)
    assert str(inv.line) == fx.CUBIC_PLUS_EDGE_IL
    assert str(integral_invariant(fx.spider_tree())) == fx.SPIDER_IT
    g = fx.petersen()
    same = compare_graphs(g, relabel(g, list(range(10, 0, -1))), with_line=True)
    assert same.verdict is Verdict.ISOMORPHIC
    cycle = compare_graphs(fx.k33(), fx.prism(), max_levels=1)
    assert cycle.witness == "cycle spectrum base invariant"
    assert vertex_orbit_partition(g, with_line=True).groups == (tuple(range(1, 11)),)
