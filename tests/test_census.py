"""A census of what the invariant cascade separates, and where it fails.

The networkx graph atlas lists each graph on up to 7 vertices once per
isomorphism class.  Among its nonseparable graphs on 3 to 7 vertices, the
pairs that share the vertex count, the edge count and the degree multiset
are the pairs that only the spectra can separate.  The census pins the
stage of ``compare_graphs`` that separates each of them, so an invariant
made weaker shows up as pairs moving to a later stage or to no witness.

The Cai-Fürer-Immerman (CFI) pairs are the stated blind spot: a CFI graph
and its twisted copy are not isomorphic, and colour refinement cannot
tell them apart.  The invariants do not either, so ``compare_graphs``
must answer "indistinguishable by invariants" and never "isomorphic".
"""

from collections import Counter
from itertools import combinations

import networkx as nx
import pytest

from edgespec import Verdict, brute_force_isomorphism, compare_graphs, graph_from_edges

import fixtures as fx


def atlas_nonseparable():
    out = []
    for G in nx.graph_atlas_g():
        if 3 <= G.number_of_nodes() <= 7 and nx.is_biconnected(G):
            edges = sorted((u + 1, v + 1) for u, v in G.edges())
            out.append(graph_from_edges(G.number_of_nodes(), edges))
    return out


def test_atlas_pairs_by_separating_stage():
    graphs = atlas_nonseparable()
    assert len(graphs) == 538
    classes: dict[tuple, list] = {}
    for g in graphs:
        classes.setdefault((g.n, g.m, tuple(sorted(g.degrees()))), []).append(g)
    stages = Counter()
    for members in classes.values():
        for g, h in combinations(members, 2):
            result = compare_graphs(g, h)
            assert result.verdict is Verdict.NOT_ISOMORPHIC
            stages[result.witness] += 1
    assert stages == {
        "cut spectrum level 0 invariant": 1715,
        "cut spectrum level 1 invariant": 68,
        "cut spectrum level count 2 vs 1": 1,
    }


@pytest.mark.parametrize(
    "base, n, m", [(fx.k_n(4), 40, 60), (fx.k33(), 60, 90), (fx.prism(), 60, 90)],
    ids=["K4", "K3,3", "prism"],
)
def test_cfi_pairs_are_indistinguishable_by_invariants(base, n, m):
    g, h = fx.cfi(base), fx.cfi(base, twisted=(1,))
    assert (g.n, g.m) == (h.n, h.m) == (n, m)
    result = compare_graphs(g, h, with_line=True)
    assert result.verdict is Verdict.INDISTINGUISHABLE
    assert result.witness is None


def test_cfi_pair_over_k4_is_not_isomorphic():
    # the theorem covers every connected base; exhaustive search checks
    # the smallest pair, and that only the parity of the twists counts
    k4 = fx.k_n(4)
    assert brute_force_isomorphism(fx.cfi(k4), fx.cfi(k4, twisted=(1,)), 40) is None
    assert brute_force_isomorphism(fx.cfi(k4, twisted=(1,)), fx.cfi(k4, twisted=(6,)), 40)
    assert brute_force_isomorphism(fx.cfi(k4), fx.cfi(k4, twisted=(1, 2)), 40)
