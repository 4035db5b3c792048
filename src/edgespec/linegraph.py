"""Line graph construction and the classification of its isometric cycles.

Vertex k of the line graph stands for edge k of the source graph.  Every
isometric cycle of the line graph falls into one of three classes: the
triangles spanned by three edges at a common vertex, the images of the
isometric cycles of the source graph, and the doubled cycles whose vertex
sets ring-sum at least two source cycles together.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

from .errors import IdentityMismatch
from .graphs import EdgeSet, Graph, build_graph
from .isometric import cycle_vertices, isometric_cycles
from .spectra import Invariant


@dataclass(frozen=True)
class LineGraph:
    """Line graph; vertex k corresponds to source edge k."""

    graph: Graph
    source: Graph


def line_graph(g: Graph) -> LineGraph:
    rows: list[set[int]] = [set() for _ in range(g.m + 1)]
    for v in g.vertices:
        inc = g.incident_edges(v)
        for i, e in enumerate(inc):
            for f in inc[i + 1 :]:
                rows[e].add(f)
                rows[f].add(e)
    lg = build_graph(g.m, [sorted(rows[e]) for e in g.edge_ids])
    assert lg.m == sum(comb(g.degree(v), 2) for v in g.vertices)
    return LineGraph(lg, g)


@dataclass(frozen=True)
class LineCycleClassification:
    """Isometric cycles of the line graph, bucketed with their edge images.

    Each entry pairs the cycle (an edge set of the line graph) with its
    image (the cycle's vertex set read as source edge ids).
    """

    triples: tuple[tuple[EdgeSet, EdgeSet], ...]
    images: tuple[tuple[EdgeSet, EdgeSet], ...]
    doubles: tuple[tuple[EdgeSet, EdgeSet], ...]

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.triples), len(self.images), len(self.doubles))


def classify_line_cycles(
    g: Graph, limit: int = 10**6
) -> tuple[LineGraph, LineCycleClassification]:
    """Bucket the isometric cycles of the line graph.

    Raises IdentityMismatch when the counts disagree with the source graph:
    the triples must number the degree triples sum and the images must
    reproduce the source cycle set exactly.
    """
    lg = line_graph(g)
    source_cycles = set(isometric_cycles(g, limit))
    triples = []
    images = []
    doubles = []
    for lc in isometric_cycles(lg.graph, limit):
        image = g.edge_set(cycle_vertices(lg.graph, lc))
        if _common_vertex(g, image) is not None:
            triples.append((lc, image))
        elif image in source_cycles:
            images.append((lc, image))
        else:
            doubles.append((lc, image))
    expected_triples = sum(comb(g.degree(v), 3) for v in g.vertices)
    if len(triples) != expected_triples:
        raise IdentityMismatch(
            f"{len(triples)} vertex triples found, expected {expected_triples}"
        )
    image_sets = {img for _, img in images}
    if len(images) != len(source_cycles) or image_sets != source_cycles:
        raise IdentityMismatch(
            f"{len(images)} cycle images found for {len(source_cycles)} source cycles"
        )
    return lg, LineCycleClassification(tuple(triples), tuple(images), tuple(doubles))


def _common_vertex(g: Graph, image: EdgeSet) -> int | None:
    ids = image.ids()
    if not ids:
        return None
    u, v = g.edge_endpoints(ids[0])
    shared = {u, v}
    for e in ids[1:]:
        a, b = g.edge_endpoints(e)
        shared &= {a, b}
        if not shared:
            return None
    return min(shared)


def line_weights(g: Graph, images: Iterable[Iterable[int]]) -> tuple[list[int], list[int]]:
    """xi[e - 1] counts the line-cycle vertex sets (source edge ids) that
    contain e; zeta[v - 1] sums xi over the edges at v."""
    xi = [0] * g.m
    for image in images:
        for e in image:
            xi[e - 1] += 1
    zeta = [sum(xi[e - 1] for e in g.incident_edges(v)) for v in g.vertices]
    return xi, zeta


def line_cycle_weights(g: Graph, limit: int = 10**6) -> tuple[list[int], list[int]]:
    """line_weights over the isometric cycles of the line graph."""
    lg = line_graph(g).graph
    return line_weights(g, (cycle_vertices(lg, lc) for lc in isometric_cycles(lg, limit)))


def digital_invariant_IL(g: Graph, limit: int = 10**6) -> Invariant:
    """Line invariant: per-edge counts over the line graph's isometric
    cycles, and their sums over each vertex's incident edges."""
    return Invariant.from_weights(*line_cycle_weights(g, limit))
