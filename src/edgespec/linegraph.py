"""Line graph construction and the isometric cycles of the line graph.

Vertex k of the line graph L(G) stands for edge k of G.  The isometric
cycles of L(G) are found from G, without building L(G), by three facts:

1. For edges e != f, d_L(e, f) = 1 + the least distance in G between an
   end of e and an end of f.  A path of r edges in L(G) from e to f
   passes the vertices that its consecutive edges share, a walk of r - 1
   edges in G between an end of e and an end of f; a path of d edges in
   G between such ends, with e and f added, is a path of d + 1 edges in
   L(G).
2. A cycle e_0 ... e_(L-1) of L(G) shares one vertex x_i between e_i and
   e_(i+1).  If L >= 4 and it is isometric, it has no chord, so the x_i
   are distinct: x_i = x_(i+1) would make e_i, e_(i+1), e_(i+2) meet at
   one vertex, and x_i = x_j further apart would make four of its edges
   meet at one vertex, either way two edges that are adjacent in L(G) but
   not along the cycle.  So the x_i form a simple cycle of G of length L
   whose edges are the e_i.  A cycle of length 3 is three edges at one
   vertex (a vertex triple) or a triangle of G.
3. The edge sequence of a simple cycle v_0 ... v_(L-1) of G with
   L = 2k + off >= 4 is isometric in L(G) exactly when every pair of
   vertices at cyclic distance k - 1 is at distance k - 1 in G and every
   pair at cyclic distance k is at distance k - 1 or more.  A cycle is
   isometric when every vertex is at distance k from the vertices k steps
   on, and by fact 1 the edge v_i v_(i+1) is at distance k in L(G) from
   the edge k steps on exactly when the four distances between their ends
   are k - 1 or more.  Those four pairs sit at cyclic distance k - 1 and
   k, and over all i they are every such pair.  Every 4- and 5-cycle
   qualifies.

So the isometric cycles of L(G) fall into three classes: the triples
spanned by three edges at a common vertex, C(d_u - 1, 2) + C(d_v - 1, 2)
of them through the edge (u, v); the images of the isometric cycles of G;
and the doubled cycles, the other cycles of ``line_cycle_masks``, whose
edge sets ring-sum at least two source cycles together.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .graphs import Graph, bit_ids, build_graph
from .isometric import _cycle_masks, line_cycle_masks
from .spectra import Invariant, _vertex_sums


@dataclass(frozen=True)
class LineGraph:
    """Line graph; vertex k corresponds to source edge k."""

    graph: Graph
    source: Graph


def line_graph(g: Graph) -> LineGraph:
    # edge uv meets the other edges at u and at v
    cut = g._cut
    rows = [bit_ids((cut[u] | cut[v]) ^ (1 << e)) for e, (u, v) in enumerate(g.edges)]
    lg = build_graph(g.m, rows)
    assert lg.m == sum(comb(g.degree(v), 2) for v in g.vertices)
    return LineGraph(lg, g)


@dataclass(frozen=True)
class LineCycleClassification:
    """The isometric cycles of the line graph, read from the source graph.

    line_n and line_m are the size of L(G) and triples the number of vertex
    triples, all from the degrees; images and doubles are the source edge
    masks of the other line cycles, those that are isometric cycles of G
    and the rest, in the order ``line_cycle_masks`` finds them.
    """

    line_n: int
    line_m: int
    triples: int
    images: tuple[int, ...]
    doubles: tuple[int, ...]

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.triples, len(self.images), len(self.doubles))


def classify_line_cycles(g: Graph, limit: int = 10**6) -> LineCycleClassification:
    """Classify the isometric cycles of the line graph: the vertex triples,
    the images of G's isometric cycles, and the doubles."""
    source = set(_cycle_masks(g, limit))
    found = line_cycle_masks(g, limit)
    deg = g.degrees()
    return LineCycleClassification(
        g.m,
        sum(comb(d, 2) for d in deg),
        sum(comb(d, 3) for d in deg),
        tuple(b for b in found if b in source),
        tuple(b for b in found if b not in source),
    )


def _line_weights(g: Graph, masks: Sequence[int]) -> tuple[list[int], list[int]]:
    """xi[e - 1] counts the isometric line cycles through line vertex e: the
    vertex triples through edge e by formula, then the given masks of the
    other line cycles that hold e; zeta[v - 1] sums xi over the edges at v."""
    # the masks end to end, one per `width` bytes: bit e of every mask is
    # then one popcount of the row shifted by e and cut to each lowest bit
    width = g.m // 8 + 1
    row = int.from_bytes(b"".join(mask.to_bytes(width, "little") for mask in masks), "little")
    lowest = int.from_bytes((b"\x01" + bytes(width - 1)) * len(masks), "little")
    deg = g.degrees()
    xi = [
        comb(deg[u - 1] - 1, 2) + comb(deg[v - 1] - 1, 2) + (row >> e & lowest).bit_count()
        for e, (u, v) in enumerate(g.edges)
    ]
    return xi, _vertex_sums(g, xi)


def line_cycle_weights(g: Graph, limit: int = 10**6) -> tuple[list[int], list[int]]:
    """Per-edge and per-vertex counts of the isometric cycles of the line
    graph, over the cycles of G that ``line_cycle_masks`` finds."""
    return _line_weights(g, line_cycle_masks(g, limit))


def digital_invariant_IL(g: Graph, limit: int = 10**6) -> Invariant:
    """Line invariant: per-edge counts over the line graph's isometric
    cycles, and their sums over each vertex's incident edges."""
    return Invariant.from_weights(*line_cycle_weights(g, limit))
