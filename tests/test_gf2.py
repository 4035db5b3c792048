"""GF(2) basis handling and fundamental systems."""

import pytest

from edgespec import EdgeSet, LengthMismatch

import fixtures as fx
from gf2_reference import (
    Gf2Basis,
    cycle_cut_intersection_dimension,
    even_intersection,
    fundamental_cuts,
    fundamental_cycles,
    gf2_rank,
    is_quasicycle,
    spanning_tree,
)


class TestGf2Basis:
    def test_add_and_rank(self):
        b = Gf2Basis(4)
        assert b.add(EdgeSet(4, [1, 2]))
        assert b.add(EdgeSet(4, [2, 3]))
        assert not b.add(EdgeSet(4, [1, 3]))
        assert b.rank == 2

    def test_contains(self):
        b = Gf2Basis(4)
        b.add(EdgeSet(4, [1, 2]))
        b.add(EdgeSet(4, [2, 3]))
        assert b.contains(EdgeSet(4, [1, 3]))
        assert b.contains(EdgeSet(4, []))
        assert not b.contains(EdgeSet(4, [4]))

    def test_decompose_returns_add_indices(self):
        b = Gf2Basis(4)
        b.add(EdgeSet(4, [1, 2]))   # index 0
        b.add(EdgeSet(4, [1, 3]))   # index 1
        b.add(EdgeSet(4, [2, 3]))   # index 2, dependent
        assert b.decompose(EdgeSet(4, [2, 3])) == (0, 1)
        assert b.decompose(EdgeSet(4, [1, 2])) == (0,)
        assert b.decompose(EdgeSet(4, [4])) is None

    def test_decomposition_recombines(self):
        b = Gf2Basis(11)
        vecs = [fx.g_6v11e().edge_set(c) for c in fx.G_6V11E_CYCLES]
        for v in vecs:
            b.add(v)
        target = vecs[0] ^ vecs[3] ^ vecs[7]
        idx = b.decompose(target)
        acc = EdgeSet(11, [])
        for i in idx:
            acc = acc ^ vecs[i]
        assert acc == target

    def test_width_checks(self):
        b = Gf2Basis(4)
        with pytest.raises(LengthMismatch):
            b.add(EdgeSet(5, [1]))
        with pytest.raises(LengthMismatch):
            b.contains(EdgeSet(5, [1]))


def test_gf2_rank():
    assert gf2_rank([]) == 0
    assert gf2_rank([EdgeSet(3, [])]) == 0
    vecs = [EdgeSet(4, [1, 2]), EdgeSet(4, [2, 3]), EdgeSet(4, [1, 3])]
    assert gf2_rank(vecs) == 2


def test_cycle_space_rank():
    g = fx.g_6v11e()
    cycles = [g.edge_set(c) for c in fx.G_6V11E_CYCLES]
    assert gf2_rank(cycles) == g.m - g.n + 1


def test_spanning_tree_bfs_from_one():
    g = fx.g_6v11e()
    t = spanning_tree(g)
    assert t.ids() == (1, 2, 3, 4, 10)
    assert len(t) == g.n - 1


def test_fundamental_systems_for_chosen_tree():
    g = fx.g_5v7e_listed()
    tree = g.edge_set(fx.G_5V7E_LISTED_TREE)
    cycles = fundamental_cycles(g, tree)
    assert {e: c.ids() for e, c in cycles.items()} == fx.G_5V7E_LISTED_FUND_CYCLES
    cuts = fundamental_cuts(g, tree)
    assert {e: c.ids() for e, c in cuts.items()} == fx.G_5V7E_LISTED_FUND_CUTS


def test_fundamental_laws():
    g = fx.g_8v15e()
    tree = spanning_tree(g)
    cycles = fundamental_cycles(g, tree)
    cuts = fundamental_cuts(g, tree)
    assert len(cycles) == g.m - g.n + 1
    assert len(cuts) == g.n - 1
    for chord, cyc in cycles.items():
        assert chord in cyc
        assert is_quasicycle(g, cyc)
    for branch, cut in cuts.items():
        assert branch in cut
        for cyc in cycles.values():
            assert even_intersection(cut, cyc)


def test_not_a_spanning_tree_rejected():
    g = fx.g_5v7e_listed()
    with pytest.raises(LengthMismatch, match="not a spanning tree"):
        fundamental_cycles(g, g.edge_set((1, 2, 6)))


def test_is_quasicycle():
    g = fx.g_6v11e()
    assert is_quasicycle(g, g.empty_set())
    for c in fx.G_6V11E_CYCLES:
        assert is_quasicycle(g, g.edge_set(c))
    assert not is_quasicycle(g, g.edge_set([1]))
    two = g.edge_set(fx.G_6V11E_CYCLES[0]) ^ g.edge_set(fx.G_6V11E_CYCLES[7])
    assert is_quasicycle(g, two)


def test_even_intersection():
    a = EdgeSet(6, [1, 2, 3])
    assert even_intersection(a, EdgeSet(6, [2, 3]))
    assert not even_intersection(a, EdgeSet(6, [3, 4]))
    assert even_intersection(a, EdgeSet(6, []))
    with pytest.raises(LengthMismatch):
        even_intersection(a, EdgeSet(7, [1]))


@pytest.mark.parametrize("name", ["k4", "prism", "g_5v8e"])
def test_intersection_dimension_against_enumeration(name):
    # brute force over all subsets: count vectors lying in both spaces
    g = fx.NONSEPARABLE_FIXTURES[name]()
    tree = spanning_tree(g)
    cut_basis = Gf2Basis(g.m)
    for s in fundamental_cuts(g, tree).values():
        cut_basis.add(s)
    members = 0
    for bits in range(1 << g.m):
        s = EdgeSet.from_bits(g.m, bits)
        if is_quasicycle(g, s) and cut_basis.contains(s):
            members += 1
    dim = cycle_cut_intersection_dimension(g)
    assert members == 1 << dim
