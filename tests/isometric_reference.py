"""Reference isometric-cycle enumeration: pair every geodesic, then check.

This is the generate-and-filter search that edgespec.isometric replaced
with one descent of both cycle halves pruned on cross distances.  For each
vertex w it lists every geodesic toward w from the ends of each
equidistant edge and from each vertex at distance 2 or more, joins every
pair of routes that meet only at their ends, and keeps the joined edge
sets that pass ``is_isometric``, here the all-pairs check that
edgespec.is_isometric replaced with one antipodal probe per vertex.  The
oracle tests require both to return the same cycles in the same order.

The per-edge wave labeling labels the graph by wave depth from one end of
an edge with the other end blocked; every strictly depth-descending route
back closes a candidate cycle through the edge, and candidates confirmed
by the reverse labeling are isometric, but depth ties can hide cycles.
It is what the published line-cycle tables count: the union of the
confirmed cycles through every edge of a line graph reproduces them.
"""

from __future__ import annotations

from edgespec import CandidateOverflow, EdgeSet, Graph, all_pairs_distances, cycle_order
from edgespec.isometric import in_id_order


def is_isometric(g, cycle, dist):
    """Whether every pair of cycle vertices is as far apart in g as along the cycle."""
    seq = cycle_order(g, cycle)
    length = len(seq)
    for i in range(length):
        for j in range(i + 1, length):
            along = min(j - i, length - (j - i))
            if dist[seq[i]][seq[j]] != along:
                return False
    return True


def _geodesic_counts(g, dist_w):
    # number of geodesics from each vertex down to the labeling root
    cnt = [0] * (g.n + 1)
    for v in sorted(g.vertices, key=lambda v: dist_w[v]):
        d = dist_w[v]
        if d == 0:
            cnt[v] = 1
        elif d > 0:
            cnt[v] = sum(cnt[y] for y in g.adjacency(v) if dist_w[y] == d - 1)
    return cnt


def _geodesics(g, start, dist_w):
    # every geodesic from start down to the labeling root, as (vertex set, edge bits)
    out = []
    stack = [(start, frozenset([start]), 0)]
    while stack:
        v, verts, bits = stack.pop()
        d = dist_w[v]
        if d == 0:
            out.append((verts, bits))
            continue
        for y in g.adjacency(v):
            if dist_w[y] == d - 1:
                stack.append((y, verts | {y}, bits | 1 << (g.edge_id(v, y) - 1)))
    return out


def isometric_cycles(g, limit=10**6):
    """All isometric cycles, ordered lexicographically by edge ids.

    ``limit`` caps the geodesic pairs tried per anchor and top."""
    dist = all_pairs_distances(g)
    verdicts = {}
    for w in g.vertices:
        dw = dist[w]
        cnt = _geodesic_counts(g, dw)
        routes = {}

        def routes_from(v):
            if v not in routes:
                routes[v] = _geodesics(g, v, dw)
            return routes[v]

        for e in g.edge_ids:
            u, v = g.edge_endpoints(e)
            if dw[u] != dw[v] or dw[u] < 1:
                continue
            total = cnt[u] * cnt[v]
            if total > limit:
                raise CandidateOverflow(
                    f"vertex {w}: {total} geodesic pairs exceed limit {limit}"
                )
            top = 1 << (e - 1)
            only_w = frozenset([w])
            for pv, pb in routes_from(u):
                for qv, qb in routes_from(v):
                    if pv & qv != only_w:
                        continue
                    bits = pb | qb | top
                    if bits not in verdicts:
                        cand = EdgeSet.from_bits(g.m, bits)
                        verdicts[bits] = is_isometric(g, cand, dist)
        for x in g.vertices:
            if dw[x] < 2:
                continue
            total = cnt[x] * cnt[x]
            if total > limit:
                raise CandidateOverflow(
                    f"vertex {w}: {total} geodesic pairs exceed limit {limit}"
                )
            ends = frozenset([w, x])
            pairs = routes_from(x)
            for i, (pv, pb) in enumerate(pairs):
                for qv, qb in pairs[i + 1:]:
                    if pv & qv != ends:
                        continue
                    bits = pb | qb
                    if bits not in verdicts:
                        cand = EdgeSet.from_bits(g.m, bits)
                        verdicts[bits] = is_isometric(g, cand, dist)
    sets = [EdgeSet.from_bits(g.m, bits) for bits, ok in verdicts.items() if ok]
    return tuple(sorted(sets, key=lambda c: c.ids()))


def wave_labels(g: Graph, e: int, reverse: bool = False) -> tuple[int, ...]:
    """Wave labeling for edge e = (s,t): label s = 1, label t = 2, then BFS
    from t assigns 3, 4, ... and never relabels.  Index 0 is padding;
    unreached vertices keep 0."""
    u, v = g.edge_endpoints(e)
    s, t = (v, u) if reverse else (u, v)
    labels = [0] * (g.n + 1)
    labels[s] = 1
    labels[t] = 2
    wave = [t]
    depth = 2
    while wave:
        depth += 1
        nxt = []
        for w in wave:
            for y in g.adjacency(w):
                if labels[y] == 0:
                    labels[y] = depth
                    nxt.append(y)
        wave = nxt
    return tuple(labels)


def _descent_counts(g: Graph, labels: tuple[int, ...], t: int) -> list[int]:
    # number of strictly descending routes from each vertex down to t
    order = sorted((lab, w) for w, lab in enumerate(labels) if lab >= 2 and w > 0)
    cnt = [0] * (g.n + 1)
    cnt[t] = 1
    for lab, w in order:
        if lab <= 2:
            continue
        total = 0
        for y in g.adjacency(w):
            if labels[y] == lab - 1:
                total += cnt[y]
        cnt[w] = total
    return cnt


def _directed_candidates(
    g: Graph, e: int, reverse: bool, limit: int
) -> set[int]:
    u, v = g.edge_endpoints(e)
    s, t = (v, u) if reverse else (u, v)
    labels = wave_labels(g, e, reverse)
    cnt = _descent_counts(g, labels, t)
    anchors = [x for x in g.adjacency(s) if x != t and labels[x] > 0]
    total = sum(cnt[x] for x in anchors)
    if total > limit:
        raise CandidateOverflow(
            f"edge {e}: {total} descending routes exceed limit {limit}"
        )
    base = 1 << (e - 1)
    out: set[int] = set()
    for x in anchors:
        if cnt[x] == 0:
            continue
        start = base | 1 << (g.edge_id(s, x) - 1)
        stack = [(x, start)]
        while stack:
            w, bits = stack.pop()
            if w == t:
                out.add(bits)
                continue
            lab = labels[w]
            for y in g.adjacency(w):
                if labels[y] == lab - 1:
                    stack.append((y, bits | 1 << (g.edge_id(w, y) - 1)))
    return out


def cycles_through_edge(g: Graph, e: int, limit: int = 10**6) -> tuple[EdgeSet, ...]:
    """Isometric cycles through edge e confirmed by the pair of labelings
    anchored at e.  Every confirmed cycle is isometric, but a cycle through
    e whose vertices tie in wave depth can escape both labelings, so the
    full enumeration anchors at cycle antipodes instead."""
    forward = _directed_candidates(g, e, False, limit)
    backward = _directed_candidates(g, e, True, limit)
    return in_id_order(g.m, forward & backward)
