"""Edge-cycle spectrum: rim, base cycles, iteration, digital invariant."""

import pytest

from edgespec import (
    LengthMismatch,
    NotNonseparable,
    base_edge_cycles,
    build_cycle_spectrum,
    build_graph,
    invariant_IC,
    isometric_cycles,
    rim,
    spectrum_edge_weights,
    vertex_weights,
)

import fixtures as fx
from test_spectra_cut import check_weight_laws, epsilon_row, row_ids


def tau_ids(g):
    return {e: base_edge_cycles(g)[e - 1].ids() for e in g.edge_ids}


def test_rim_of_worked_example():
    assert rim(fx.g_6v11e()).ids() == fx.G_6V11E_RIM


def test_rim_correction_example():
    g = fx.g_5v7e()
    assert {e: c.ids() for e, c in zip(g.edge_ids, isometric_cycles(g))} \
        == dict(enumerate(fx.G_5V7E_CYCLES, 1))
    assert rim(g).ids() == fx.G_5V7E_RIM
    assert tau_ids(g) == fx.G_5V7E_TAU


def test_rim_correction_base_weights():
    spec = build_cycle_spectrum(fx.g_5v7e())
    xi = spectrum_edge_weights(spec)
    assert xi.per_level[0] == fx.G_5V7E_TAU_XI
    assert vertex_weights(spec).per_level[0] == fx.G_5V7E_TAU_ZETA


def test_base_cycles_match_explicit_ring_sums():
    g = fx.g_8v15e()
    cycles = [g.edge_set(ids) for ids in fx.G_8V15E_CYCLES]
    rim_bits = g.empty_set()
    for c in cycles:
        rim_bits ^= c
    expected = []
    for e in g.edge_ids:
        acc = g.empty_set()
        for c in cycles:
            if e in c:
                acc ^= c
        if e in rim_bits:
            acc ^= rim_bits
        expected.append(acc)
    assert list(base_edge_cycles(g)) == expected


def test_deep_example_base_weights():
    spec = build_cycle_spectrum(fx.g_8v15e())
    xi = spectrum_edge_weights(spec)
    assert xi.per_level[0] == fx.G_8V15E_TAU_XI
    assert vertex_weights(spec).per_level[0] == fx.G_8V15E_TAU_ZETA


def test_prism_base_sizes():
    taus = base_edge_cycles(fx.prism())
    assert tuple(len(t) for t in taus) == fx.PRISM_TAU_SIZES


@pytest.mark.parametrize(
    "name", ["g_6v11e", "g_5v7e", "g_8v15e", "prism", "petersen", "octahedron"]
)
def test_base_cycle_laws(name):
    g = getattr(fx, name)()
    taus = base_edge_cycles(g)
    for e in g.edge_ids:
        # tau0 never keeps its own edge
        assert e not in taus[e - 1]
        for f in taus[e - 1]:
            # membership is symmetric across the base table
            assert e in taus[f - 1]


class TestWorkedExampleFullTable:
    def test_table(self):
        spec = build_cycle_spectrum(fx.g_6v11e(), level_cap=None)
        assert {e: row_ids(spec, e) for e in spec.graph.edge_ids} == fx.G_6V11E_TAU_TABLE
        assert spec.level_count == 4
        assert not spec.truncated

    def test_weights(self):
        spec = build_cycle_spectrum(fx.g_6v11e(), level_cap=None)
        xi = spectrum_edge_weights(spec)
        assert xi.per_level == fx.G_6V11E_TAU_XI
        assert xi.total == fx.G_6V11E_TAU_XI_TOTAL
        assert vertex_weights(spec).total == fx.G_6V11E_TAU_ZETA_TOTAL

    def test_row_participation_counts(self):
        spec = build_cycle_spectrum(fx.g_6v11e(), level_cap=None)
        assert {e: epsilon_row(spec, e) for e in spec.graph.edge_ids} == fx.G_6V11E_TAU_EPSILON

    def test_laws(self):
        check_weight_laws(build_cycle_spectrum(fx.g_6v11e(), level_cap=None))


def test_default_cap_keeps_only_the_base_level():
    spec = build_cycle_spectrum(fx.g_6v11e())
    assert len(spec.levels) == 1
    assert spec.truncated
    assert spec.levels[0] == build_cycle_spectrum(fx.g_6v11e(), level_cap=None).levels[0]


def test_base_invariant():
    inv = invariant_IC(fx.g_6v11e())
    assert inv.kind == "cycle"
    assert inv.total.edge_cortege == tuple(sorted(fx.G_6V11E_TAU_XI[0]))
    assert str(inv) == "(4×3, 7×4) & (2×10, 2×14, 2×16)"


def test_degenerate_bipartite_case():
    # every edge lies on eight 4-cycles whose ring sum cancels exactly
    g = fx.k44()
    taus = base_edge_cycles(g)
    assert all(not t for t in taus)
    inv = invariant_IC(g)
    assert str(inv) == "(16×0) & (8×0)"
    assert inv.level_count == 0
    assert not inv.truncated


def test_cycles_argument_is_trusted():
    g = fx.g_6v11e()
    given = isometric_cycles(g)
    direct = build_cycle_spectrum(g, level_cap=None)
    seeded = build_cycle_spectrum(g, level_cap=None, cycles=given)
    assert seeded.levels == direct.levels


def test_cycles_of_another_width_are_rejected():
    # K5's ten triangles are 10-edge sets; Petersen has 15 edges
    g, triangles = fx.petersen(), isometric_cycles(fx.k_n(5))
    assert (g.m, {c.m for c in triangles}) == (15, {10})
    for build in (
        lambda: build_cycle_spectrum(g, cycles=triangles),
        lambda: rim(g, triangles),
        lambda: base_edge_cycles(g, triangles),
    ):
        with pytest.raises(LengthMismatch, match="widths differ: 10 vs 15"):
            build()


def test_separable_graphs_are_rejected():
    path = build_graph(3, {1: [2], 2: [1, 3], 3: [2]})
    with pytest.raises(NotNonseparable, match="articulation vertex 2"):
        build_cycle_spectrum(path)
