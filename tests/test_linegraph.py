"""Line graph construction, cycle classification, line invariant."""

from math import comb

import pytest

from edgespec import (
    classify_line_cycles,
    cycle_vertices,
    digital_invariant_IL,
    isometric_cycles,
    line_graph,
)

import fixtures as fx
from gf2_reference import Gf2Basis
import linegraph_reference as ref


def test_triangle_is_its_own_line_graph():
    assert line_graph(fx.k_n(3)).graph == fx.k_n(3)


def test_line_graph_structure():
    g = fx.g_6v10e_b()
    lg = line_graph(g)
    assert lg.source is g
    assert lg.graph.n == g.m
    assert lg.graph.m == sum(comb(g.degree(v), 2) for v in g.vertices)
    for k in g.edge_ids:
        u, v = g.edge_endpoints(k)
        assert lg.graph.degree(k) == g.degree(u) + g.degree(v) - 2


def test_petersen_line_graph():
    lg, cls = ref.classify_line_cycles(fx.petersen())
    assert (lg.graph.n, lg.graph.m) == (15, 30)
    assert cls.counts == (10, 12, 10)
    cls = classify_line_cycles(fx.petersen())
    assert (cls.line_n, cls.line_m) == (15, 30)
    assert cls.counts == (10, 12, 10)


class TestClassificationExample:
    def test_counts(self):
        cls = classify_line_cycles(fx.g_6v10e_b())
        assert cls.counts == fx.G_6V10E_B_LINE_COUNTS

    def test_triple_images_meet_at_a_vertex(self):
        g = fx.g_6v10e_b()
        _, cls = ref.classify_line_cycles(g)
        for lc, image in cls.triples:
            assert len(lc) == 3 and len(image) == 3
            endpoint_sets = [set(g.edge_endpoints(e)) for e in image]
            assert set.intersection(*endpoint_sets)

    def test_images_reproduce_the_source_cycles(self):
        g = fx.g_6v10e_b()
        _, cls = ref.classify_line_cycles(g)
        images = sorted(img.ids() for _, img in cls.images)
        assert images == sorted(fx.G_6V10E_B_CYCLES)

    def test_double_images(self):
        _, cls = ref.classify_line_cycles(fx.g_6v10e_b())
        assert tuple(img.ids() for _, img in cls.doubles) == fx.G_6V10E_B_DOUBLE_IMAGES

    def test_invariant(self):
        inv = digital_invariant_IL(fx.g_6v10e_b())
        assert inv.edge_cortege == tuple(sorted(fx.G_6V10E_B_IL_EDGE))
        assert inv.vertex_cortege == tuple(sorted(fx.G_6V10E_B_IL_VERTEX))
        assert str(inv) == "(3×10, 6×11, 15) & (30, 3×32, 2×48)"


def test_octahedron_classification():
    cls = classify_line_cycles(fx.octahedron())
    assert cls.counts == fx.OCTAHEDRON_LINE_COUNTS
    inv = digital_invariant_IL(fx.octahedron())
    assert inv.edge_cortege == fx.OCTAHEDRON_IL_EDGE
    assert inv.vertex_cortege == fx.OCTAHEDRON_IL_VERTEX
    assert str(inv) == "(12×23) & (6×92)"


class TestDeepExample:
    def test_counts_and_doubles(self):
        _, cls = ref.classify_line_cycles(fx.g_8v15e())
        assert cls.counts == fx.G_8V15E_LINE_COUNTS
        assert tuple(img.ids() for _, img in cls.doubles) == fx.G_8V15E_DOUBLE_IMAGES

    def test_raw_weights(self):
        g = fx.g_8v15e()
        lg, cls = ref.classify_line_cycles(g)
        xi = [0] * g.m
        for bucket in (cls.triples, cls.images, cls.doubles):
            for lc, _ in bucket:
                for e in cycle_vertices(lg.graph, lc):
                    xi[e - 1] += 1
        assert tuple(xi) == fx.G_8V15E_IL_EDGE
        zeta = tuple(
            sum(xi[e - 1] for e in g.incident_edges(v)) for v in g.vertices
        )
        assert zeta == fx.G_8V15E_IL_VERTEX

    def test_invariant_sorts(self):
        inv = digital_invariant_IL(fx.g_8v15e())
        assert inv.edge_cortege == tuple(sorted(fx.G_8V15E_IL_EDGE))
        assert inv.vertex_cortege == tuple(sorted(fx.G_8V15E_IL_VERTEX))


def test_near_cubic_example():
    g = fx.cubic_plus_edge_10v()
    lg, cls = ref.classify_line_cycles(g)
    assert sum(cls.counts) == fx.CUBIC_PLUS_EDGE_LINE_CYCLES
    assert len(isometric_cycles(lg.graph)) == fx.CUBIC_PLUS_EDGE_LINE_CYCLES
    assert str(digital_invariant_IL(g)) == fx.CUBIC_PLUS_EDGE_IL


@pytest.mark.parametrize("name", ["g_6v10e_b", "octahedron", "g_8v15e", "prism"])
def test_doubles_ring_sum_several_source_cycles(name):
    g = getattr(fx, name)()
    _, cls = ref.classify_line_cycles(g)
    basis = Gf2Basis(g.m)
    cycles = isometric_cycles(g)
    for c in cycles:
        basis.add(c)
    for _, image in cls.doubles:
        parts = basis.decompose(image)
        assert parts is not None
        assert len(parts) >= 2


def test_doubles_are_absent_from_source_cycles():
    g = fx.octahedron()
    _, cls = ref.classify_line_cycles(g)
    source = {c.ids() for c in isometric_cycles(g)}
    for _, image in cls.doubles:
        assert image.ids() not in source
