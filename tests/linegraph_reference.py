"""Reference line-cycle path: build the line graph and search it.

This is the path edgespec.linegraph replaced with one search over the
source graph.  It builds L(G), enumerates the isometric cycles of L(G)
with ``isometric_cycles`` (a BFS from every vertex of L(G)), reads each
cycle's vertex set back as source edge ids with ``cycle_vertices``, and
buckets the cycles by those images.  It still checks the two counting
identities that the source-graph search makes true by construction: the
vertex triples number the sum of C(d, 3), and the images are exactly the
isometric cycles of G.  The oracle tests require both paths to give the
same weights and invariants, the same line graph size and class counts,
and the same image and double edge sets.  The tests that read a bucket's
order or a cycle's edge set in L(G) read them here; ``line_weights``
counts xi and zeta over any list of images, such as the wave-confirmed
line cycles of the acceptance tests.
"""

from dataclasses import dataclass
from math import comb

from edgespec import (
    EdgeSet,
    EdgespecError,
    Invariant,
    cycle_vertices,
    isometric_cycles,
    line_graph,
)


class IdentityMismatch(EdgespecError):
    """A structural counting identity failed; the inputs are inconsistent."""


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
    def counts(self):
        return (len(self.triples), len(self.images), len(self.doubles))


def classify_line_cycles(g, limit=10**6):
    """Bucket the isometric cycles of the line graph by their images.

    Raises IdentityMismatch when the counts disagree with the source graph."""
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


def _common_vertex(g, image):
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


def line_weights(g, images):
    """xi[e - 1] counts the line-cycle vertex sets (source edge ids) that
    contain e; zeta[v - 1] sums xi over the edges at v."""
    xi = [0] * g.m
    for image in images:
        for e in image:
            xi[e - 1] += 1
    return xi, [sum(xi[e - 1] for e in g.incident_edges(v)) for v in g.vertices]


def line_cycle_weights(g, limit=10**6):
    """line_weights over the isometric cycles of the line graph."""
    lg = line_graph(g).graph
    return line_weights(g, (cycle_vertices(lg, lc) for lc in isometric_cycles(lg, limit)))


def digital_invariant_IL(g, limit=10**6):
    return Invariant.from_weights(*line_cycle_weights(g, limit))
