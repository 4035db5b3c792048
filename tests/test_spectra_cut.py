"""Edge-cut spectrum: base cuts, gamma iteration, weights, digital invariant."""

import pytest

from edgespec import (
    NotNonseparable,
    VertexOutOfRange,
    base_edge_cuts,
    build_cut_spectrum,
    build_cycle_spectrum,
    build_graph,
    invariant_IS,
    rle,
    spectrum_edge_weights,
    spectrum_invariant,
    vertex_weights,
)
from edgespec import spectra
from edgespec.spectra import cut_spectrum_unchecked

import fixtures as fx
import spectra_reference as ref


def cell_ids(cell):
    return None if cell is None else cell.ids()


def row_ids(spec, e):
    return tuple(cell_ids(c) for c in spec.row(e))


def epsilon_row(spec, e):
    counts = [0] * spec.graph.m
    for cell in spec.row(e):
        if cell is None:
            continue
        for f in cell:
            counts[f - 1] += 1
    return tuple(counts)


def check_weight_laws(spec):
    xi = spectrum_edge_weights(spec)
    zeta = vertex_weights(spec)
    for level, xi_l in enumerate(xi.per_level):
        # each edge contributes its xi to both endpoint weights
        assert sum(zeta.per_level[level]) == 2 * sum(xi_l)
        cell_sizes = sum(
            len(c) for c in spec.levels[level] if c is not None
        )
        assert cell_sizes == sum(xi_l)
    assert sum(zeta.total) == 2 * sum(xi.total)


class TestRle:
    def test_mixed_runs(self):
        assert rle([14, 19, 19, 24, 24, 24, 24]) == "14, 2×19, 4×24"

    def test_singletons(self):
        assert rle([5, 7]) == "5, 7"

    def test_empty(self):
        assert rle([]) == ""


def test_gamma_of_a_quasicycle_vanishes():
    g = fx.g_6v11e()
    base = ref.base_edge_cuts(g)
    assert not ref.gamma(g.edge_set((4, 6, 9)), base)
    for ids in fx.G_6V11E_CYCLES:
        assert ref.gamma(g.edge_set(ids), base).bits == 0


def test_base_cuts_small_example():
    g = fx.g_5v8e()
    cuts = base_edge_cuts(g)
    assert {e: cuts[e - 1].ids() for e in g.edge_ids} == fx.G_5V8E_BASE_CUTS


class TestWorkedExample:
    def test_full_table(self):
        spec = build_cut_spectrum(fx.g_6v11e())
        assert {e: row_ids(spec, e) for e in spec.graph.edge_ids} == fx.G_6V11E_CUT_TABLE

    def test_level_count(self):
        spec = build_cut_spectrum(fx.g_6v11e())
        assert len(spec.levels) == 4
        assert spec.level_count == 4
        assert not spec.truncated

    def test_cell_accessors(self):
        spec = build_cut_spectrum(fx.g_6v11e())
        assert spec.cell(0, 1).ids() == (2, 3, 4, 5, 6)
        assert spec.cell(2, 4) is None
        with pytest.raises(VertexOutOfRange):
            spec.cell(0, 12)
        with pytest.raises(VertexOutOfRange):
            spec.row(0)

    def test_cell_rejects_levels_outside_the_table(self):
        spec = build_cut_spectrum(fx.g_6v11e())
        with pytest.raises(VertexOutOfRange, match=r"level -1 outside 0\.\.3"):
            spec.cell(-1, 1)
        with pytest.raises(VertexOutOfRange, match=r"level 4 outside 0\.\.3"):
            spec.cell(len(spec.rows), 1)

    def test_edge_weights(self):
        xi = spectrum_edge_weights(build_cut_spectrum(fx.g_6v11e()))
        assert xi.per_level == fx.G_6V11E_CUT_XI
        assert xi.total == fx.G_6V11E_CUT_XI_TOTAL

    def test_vertex_weights(self):
        zeta = vertex_weights(build_cut_spectrum(fx.g_6v11e()))
        assert zeta.total == fx.G_6V11E_CUT_ZETA_TOTAL

    def test_row_participation_counts(self):
        spec = build_cut_spectrum(fx.g_6v11e())
        assert {e: epsilon_row(spec, e) for e in spec.graph.edge_ids} == fx.G_6V11E_CUT_EPSILON

    def test_digital_invariant(self):
        inv = invariant_IS(fx.g_6v11e())
        assert str(inv) == "(14, 2×19, 4×24, 4×27) & (2×67, 2×87, 2×102)"
        assert inv.kind == "cut"
        assert inv.level_count == 4
        assert not inv.truncated


def test_second_worked_example_weights():
    xi = spectrum_edge_weights(build_cut_spectrum(fx.g_6v10e()))
    assert xi.per_level == fx.G_6V10E_CUT_XI


class TestDeepSpectrum:
    def test_levels_and_weights(self):
        spec = build_cut_spectrum(fx.g_8v15e())
        assert spec.level_count == fx.G_8V15E_CUT_LEVELS
        xi = spectrum_edge_weights(spec)
        assert xi.per_level == fx.G_8V15E_CUT_XI
        assert xi.total == fx.G_8V15E_CUT_XI_TOTAL
        assert vertex_weights(spec).total == fx.G_8V15E_CUT_ZETA_TOTAL

    def test_weight_laws(self):
        check_weight_laws(build_cut_spectrum(fx.g_8v15e()))


def test_cubic_example():
    spec = build_cut_spectrum(fx.cubic_10v())
    assert spec.level_count == fx.CUBIC_10V_LEVELS
    xi = spectrum_edge_weights(spec)
    assert xi.per_level[:3] == fx.CUBIC_10V_XI
    assert vertex_weights(spec).per_level[:3] == fx.CUBIC_10V_ZETA


def test_dense_example_base_level():
    spec = build_cut_spectrum(fx.g_9v23e())
    assert spec.level_count == fx.G_9V23E_LEVELS
    xi = spectrum_edge_weights(spec)
    assert xi.per_level[0] == fx.G_9V23E_XI_L0
    assert vertex_weights(spec).per_level[0] == fx.G_9V23E_ZETA_L0


def test_octahedron_totals():
    spec = build_cut_spectrum(fx.octahedron())
    assert spec.level_count == fx.OCTAHEDRON_CUT_LEVELS
    xi = spectrum_edge_weights(spec)
    assert xi.total == fx.OCTAHEDRON_CUT_XI_TOTAL
    assert vertex_weights(spec).total == fx.OCTAHEDRON_CUT_ZETA_TOTAL


def test_prism_second_level():
    spec = build_cut_spectrum(fx.prism())
    assert spec.level_count == fx.PRISM_CUT_LEVELS
    cells = {e: cell_ids(spec.levels[1][e - 1]) for e in spec.graph.edge_ids}
    assert cells == fx.PRISM_W1
    assert spectrum_edge_weights(spec).per_level[1] == fx.PRISM_XI_L1


def test_vertex_transitive_totals():
    for g, edge_total, vertex_total in (
        (fx.cuboctahedron(), fx.CUBOCTAHEDRON_IS_EDGE, fx.CUBOCTAHEDRON_IS_VERTEX),
        (fx.k44(), fx.K44_IS_EDGE, fx.K44_IS_VERTEX),
    ):
        inv = invariant_IS(g)
        assert inv.total.edge_cortege == edge_total
        assert inv.total.vertex_cortege == vertex_total


def test_single_edge_graph_has_empty_spectrum():
    spec = build_cut_spectrum(fx.k2())
    assert len(spec.levels) == 1
    assert spec.levels[0] == (None,)
    assert spec.level_count == 0
    assert not spec.truncated
    inv = spectrum_invariant(spec)
    assert inv.total.edge_cortege == (0,)
    assert inv.total.vertex_cortege == (0, 0)


def test_separable_graphs_are_rejected():
    path = build_graph(3, {1: [2], 2: [1, 3], 3: [2]})
    with pytest.raises(NotNonseparable, match="articulation vertex 2"):
        build_cut_spectrum(path)


def test_unchecked_variant_accepts_trees():
    spec = cut_spectrum_unchecked(fx.spider_tree())
    assert spec.kind == "cut"
    assert spec.level_count >= 1


class TestLevelCap:
    def test_truncation(self):
        spec = build_cut_spectrum(fx.g_6v11e(), level_cap=2)
        assert len(spec.levels) == 2
        assert spec.truncated
        full = build_cut_spectrum(fx.g_6v11e())
        assert spec.levels == full.levels[:2]
        inv = spectrum_invariant(spec)
        assert inv.truncated
        assert len(inv.per_level) == 2

    def test_cap_reaching_the_natural_end_is_not_truncation(self):
        spec = build_cut_spectrum(fx.g_6v11e(), level_cap=9)
        assert not spec.truncated
        assert len(spec.levels) == 4

    def test_base_level_cap_builds_no_factor(self, monkeypatch):
        def no_factor(m, slots):
            raise AssertionError("level step built for a one-level spectrum")

        monkeypatch.setattr(spectra, "_factor_step", no_factor)
        g = fx.g_6v11e()
        for spec in (build_cut_spectrum(g, level_cap=1), build_cycle_spectrum(g, level_cap=1)):
            assert spec.truncated
            assert len(spec.rows) == 1

    def test_zero_cap_rejected(self):
        with pytest.raises(VertexOutOfRange, match="level cap 0"):
            build_cut_spectrum(fx.g_6v11e(), level_cap=0)


@pytest.mark.parametrize(
    "name", ["g_6v11e", "g_8v15e", "prism", "octahedron", "petersen", "g_9v23e"]
)
def test_weight_laws_across_fixtures(name):
    check_weight_laws(build_cut_spectrum(getattr(fx, name)()))
