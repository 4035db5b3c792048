"""Reference isometric-cycle enumeration: pair every geodesic, then check.

This is the generate-and-filter search that edgespec.isometric replaced
with one descent of both cycle halves pruned on cross distances.  For each
vertex w it lists every geodesic toward w from the ends of each
equidistant edge and from each vertex at distance 2 or more, joins every
pair of routes that meet only at their ends, and keeps the joined edge
sets that pass ``is_isometric``, here the all-pairs check that
edgespec.is_isometric replaced with one antipodal probe per vertex.  The
oracle tests require both to return the same cycles in the same order.
"""

from edgespec import CandidateOverflow, EdgeSet, all_pairs_distances, cycle_order


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
