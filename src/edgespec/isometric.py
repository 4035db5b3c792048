"""Isometric cycle enumeration, and the per-edge wave labeling.

A cycle is isometric when the distance between any two of its vertices
measured along the cycle equals their distance in the whole graph, and
that holds exactly when every vertex is at distance floor(L/2) from its
antipodes: a shortcut between two vertices also shortens the way from
one of them to its antipode beyond the other.  The enumeration anchors
every cycle at its smallest vertex and walks both of its halves down from
the opposite vertex or edge together, from those tops only that the
anchor's neighbours, as the halves' last vertices, can close; distance
sphere masks pick them a level at a time.  It settles each step with one or
two distance probes per new vertex: against the antipodes once the other
half reaches them, and against the neighbouring pair while the halves
still form one geodesic through the top.
The line-cycle search walks G the same way to find the isometric cycles
of the line graph as cycles of G, with the probes that
``edgespec.linegraph`` derives for them.
The per-edge wave labeling labels the graph by wave depth from one end of
an edge with the other end blocked; every strictly depth-descending route
back closes a candidate cycle through the edge, and candidates confirmed
by the reverse labeling are isometric, but depth ties can hide cycles.
It is what the published line-cycle tables count: the union of the
confirmed cycles through every edge of a line graph reproduces them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations
from operator import or_
from typing import Iterable

from .errors import CandidateOverflow, NotACycle
from .graphs import EdgeSet, Graph, all_pairs_distances, distance_spheres


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


def _edge_bits(g: Graph) -> list[dict[int, int]]:
    # edge_bit[u][v]: the bit of edge uv in an edge mask
    edge_bit: list[dict[int, int]] = [{} for _ in range(g.n + 1)]
    for e, (u, v) in enumerate(g.edges):
        edge_bit[u][v] = edge_bit[v][u] = 1 << e
    return edge_bit


@cache
def _step_probes(k: int, off: int) -> tuple[tuple[int, int, int, int], ...]:
    """Distance probes for each descent step t = 1..k of a cycle of length
    L = 2k + off; entry t is (j1, j2, dj, dxy).

    The new a_t must be at distance dj from b_j1 and b_j2, the new b_t at
    distance dj from a_j1 and a_j2, and the two at dxy from each other.
    Once a_t has an antipode among b_0..b_(t-1) (i + j + off = k, or also
    i + j = k on an odd cycle), j1 and j2 name the antipodes and dj = k.
    Before that j1 = j2 = t - 1 and dj = 2t - 1 + off: the probe
    (a_t, b_(t-1)), and (a_(t-1), b_t), which d(a_t, b_t) = dxy already
    implies but which keeps one shape for every step.  Entry 0 is
    padding."""
    rows = [(0, 0, 0, 0)]
    for t in range(1, k + 1):
        anti = [j for j in (k - off - t, k - t) if 0 <= j < t]
        if anti:
            rows.append((anti[0], anti[-1], k, min(2 * t + off, 2 * k - 2 * t)))
        else:
            rows.append((t - 1, t - 1, 2 * t - 1 + off, 2 * t + off))
    return tuple(rows)


class _Below(dict):
    """below[v]: the neighbours of v above the anchor w and one level nearer
    it.  A list is made when a descent first reaches v."""

    __slots__ = ("adj", "dw", "w")

    def __init__(self, adj: tuple[tuple[int, ...], ...], dw: tuple[int, ...], w: int) -> None:
        self.adj, self.dw, self.w = adj, dw, w

    def __missing__(self, v: int) -> list[int]:
        w, dw = self.w, self.dw
        d = dw[v] - 1
        out = self[v] = [y for y in self.adj[v] if y > w and dw[y] == d]
        return out


def _overflow(limit: int) -> CandidateOverflow:
    return CandidateOverflow(f"{limit + 1} route pairs exceed limit {limit}")


def isometric_cycles(g: Graph, limit: int = 10**6) -> tuple[EdgeSet, ...]:
    """All isometric cycles, ordered lexicographically by edge ids.

    Every isometric cycle has one smallest vertex w, its anchor.  Relative
    to w it has one top at distance k from w: the vertex opposite w when
    its length is 2k (off = 0), the edge opposite w when its length is
    2k+1 (off = 1).  Its halves are geodesics from the top down to w, so
    for each anchor w and each top the search walks two routes a and b
    down one distance level per step, through vertices above w.  A joined
    pair of routes is an isometric cycle exactly when every cross pair
    (a_i, b_j) sits at its distance along the cycle, min(i+j+off,
    L-i-j-off), and one or two probes per new vertex settle all of its
    cross pairs (``_step_probes``):

    * while the cycle distance still grows, d(a_t, b_(t-1)) = 2t-1+off
      makes a_t..top..b_(t-1) a geodesic, so every pair on it is right,
      and d(a_t, b_t) = 2t+off does the same for b_t;
    * once a_t has an antipode b_j* on the other half, d(a_t, b_j*) = k
      gives d(a_t, b_j) >= k - |j - j*|, which is the cycle distance, and
      the route through w, d(a_t, w) + d(w, b_j), bounds it from above;
      b_t and its antipodes on a alike.

    So each step keeps exactly the candidate pairs whose cross pairs all
    match (a cycle is isometric when every vertex is at distance
    floor(L/2) from its antipodes).  Even tops take a_1 < b_1, so each
    cycle is emitted once.

    Before its descent a top must pass tests at the anchor's end, each
    necessary for an isometric cycle through it.  Let y1 = a_(k-1) and
    y2 = b_(k-1), the neighbours of w on the cycle.  They differ, so w
    needs two neighbours above it, and each pair of those is tried:

    * an even top x is at distance k - 1 from y1 and y2;
    * an odd top uv has d(u, y1) = d(v, y2) = k - 1 and d(u, y2) =
      d(v, y1) = k, because u and y2 are antipodes, as are v and y1;
    * a_1, below the top's a end, is at distance k - 2 from y1 and k from
      y2, because a_1 and y2 are antipodes; b_1 alike with y1 and y2
      swapped.  So a_1 and b_1 differ.

    A level at a time, bit masks of the spheres around w, y1 and y2
    (``distance_spheres``) give where a top, a_1 and b_1 can lie; the
    smaller of the a_1 and b_1 sets is spread to its neighbours, and each
    top left needs a down-neighbour in the other.  At k = 1 every edge uv
    between two neighbours of w above it closes the triangle w u v, which
    its one route pair would confirm.  A top that fails closes no
    isometric cycle, so the output is that of a descent from every top.
    The last step, to w, always passes its probes, so it is taken when
    the routes reach y1 and y2.  ``limit`` caps the candidate route pairs
    tried over the whole call and raises CandidateOverflow beyond it."""
    dist = all_pairs_distances(g)
    spheres = distance_spheres(g)
    edge_bit = _edge_bits(g)
    adj = g._adj
    found: list[int] = []
    tried = 0
    for w in g.vertices:
        ys = [y for y in adj[w] if y > w]
        if len(ys) < 2:
            continue
        sw = spheres[w]
        above = -2 << w  # the bits of the vertices above w
        to_w = edge_bit[w]
        # triangles w u v
        for u in ys:
            for v in adj[u]:
                if v > u and sw[1] >> v & 1:
                    tried += 1
                    found.append(to_w[u] | to_w[v] | edge_bit[u][v])
        if tried > limit:
            raise _overflow(limit)
        pairs = list(combinations([spheres[y] for y in ys], 2))
        tops = []
        for k in range(2, len(sw)):
            level = sw[k] & above
            # a route down from level k passes every level above w
            if not level:
                break
            inner = sw[k - 1] & above
            evens = odds = 0
            for s1, s2 in pairs:
                # an even top x at k - 1 from y1 and y2; an odd top uv with
                # u at k - 1 from y1 and k from y2, and v the reverse
                xs = level & s1[k - 1] & s2[k - 1]
                us = level & s1[k - 1] & s2[k]
                vs = level & s2[k - 1] & s1[k]
                if not xs and not (us and vs):
                    continue
                # a_1 and b_1 for a_(k-1) = y1 and b_(k-1) = y2
                a1 = inner & s1[k - 2] & s2[k]
                b1 = inner & s2[k - 2] & s1[k]
                if not a1 or not b1:
                    continue
                # spread the smaller of the two to its neighbours
                if a1.bit_count() > b1.bit_count():
                    a1, b1, us, vs = b1, a1, vs, us
                reach = 0
                while a1:
                    low = a1 & -a1
                    a1 ^= low
                    reach |= spheres[low.bit_length() - 1][1]
                xs &= reach
                while xs:
                    low = xs & -xs
                    xs ^= low
                    if spheres[low.bit_length() - 1][1] & b1:
                        evens |= low
                us &= reach
                while us:
                    low = us & -us
                    us ^= low
                    u = low.bit_length() - 1
                    ends = spheres[u][1] & vs
                    while ends:
                        high = ends & -ends
                        ends ^= high
                        v = high.bit_length() - 1
                        if spheres[v][1] & b1:
                            odds |= edge_bit[u][v]
            while evens:
                low = evens & -evens
                evens ^= low
                x = low.bit_length() - 1
                tops.append((x, x, 0, k))
            while odds:
                low = odds & -odds
                odds ^= low
                u, v = g.edges[low.bit_length() - 1]
                tops.append((u, v, low, k))
        below = _Below(adj, dist[w], w)
        for p, q, bits, k in tops:
            steps = _step_probes(k, p != q)
            stack = [((p,), (q,), bits)]
            while stack:
                a, b, bits = stack.pop()
                t = len(a)
                j1, j2, dj, dxy = steps[t]
                db1, db2 = dist[b[j1]], dist[b[j2]]
                da1, da2 = dist[a[j1]], dist[a[j2]]
                bits_a, bits_b = edge_bit[a[-1]], edge_bit[b[-1]]
                # even top: a_1 < b_1; vertex ids start at 1
                first = p == q and t == 1
                last = t == k - 1
                for x in below[a[-1]]:
                    if db1[x] != dj or db2[x] != dj:
                        continue
                    dx = dist[x]
                    lowest = x if first else 0
                    for y in below[b[-1]]:
                        if y <= lowest:
                            continue
                        tried += 1
                        if tried > limit:
                            raise _overflow(limit)
                        if dx[y] != dxy or da1[y] != dj or da2[y] != dj:
                            continue
                        bits_xy = bits | bits_a[x] | bits_b[y]
                        if last:
                            # the step to w, (w, w), always passes its probes
                            tried += 1
                            if tried > limit:
                                raise _overflow(limit)
                            found.append(bits_xy | to_w[x] | to_w[y])
                        else:
                            stack.append((a + (x,), b + (y,), bits_xy))
    return in_id_order(g.m, found)


def in_id_order(m: int, masks: Iterable[int]) -> tuple[EdgeSet, ...]:
    """Edge sets ordered lexicographically by edge ids, for masks of which
    none is a subset of another, as the edge sets of distinct cycles are.
    Then the set that holds the lowest differing id comes first: its mask
    written lowest bit first is the larger string."""
    width = f"0{m}b"
    ordered = sorted(masks, key=lambda b: format(b, width)[::-1], reverse=True)
    return tuple(EdgeSet.from_bits(m, b) for b in ordered)


@cache
def _line_probes(k: int, off: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], bool], ...]:
    """Distance probes for each descent step t = 1..k-1 of a line cycle of
    length L = 2k + off >= 4; entry t is (probes of a_t, probes of b_t,
    whether b_t is probed against a_t), and entry 0 is padding.

    A probe is the index of a placed vertex in the route (p, q, a_1, b_1,
    a_2, b_2, ...), a_j being j steps before the top and b_j j steps
    after it: the placed vertices at cyclic distance k - 1 or k from the
    new one, which must be k - 1 or more away from it.  The anchor needs
    no probe: its distances are the levels."""
    length = 2 * k + off

    def position(i: int) -> int:
        return k - i // 2 if i % 2 == 0 else k + off + i // 2

    def probed(i: int, j: int) -> bool:
        gap = abs(position(i) - position(j))
        return min(gap, length - gap) >= k - 1

    rows = [((), (), False)]
    for t in range(1, k):
        placed = [i for i in range(2 * t) if off or i != 1]
        rows.append(
            (
                tuple(i for i in placed if probed(i, 2 * t)),
                tuple(i for i in placed if probed(i, 2 * t + 1)),
                probed(2 * t, 2 * t + 1),
            )
        )
    return tuple(rows)


def line_cycle_masks(g: Graph, limit: int = 10**6) -> list[int]:
    """Source edge masks of the isometric cycles of the line graph L(G)
    other than the vertex triples, found as cycles of G: its triangles,
    and the simple cycles v_0 ... v_(L-1) of length L = 2k + off >= 4
    whose pairs at cyclic distance k - 1 or k are all k - 1 or more apart
    in G (facts 2 and 3 in ``edgespec.linegraph``).

    The arcs of k - 1 edges of such a cycle are geodesics, so relative to
    its smallest vertex w both halves descend one level per step, and the
    top (v_k, or the edge v_k v_(k+1) when L is odd) sits at level k - 1
    or k.  Each anchor w takes each top at both k its levels allow and
    walks two routes a and b down from it as ``isometric_cycles`` does,
    the first step to level k - 1, and ``_line_probes`` settles each new
    vertex against the placed ones at cyclic distance k - 1 and k.  As
    k - 1 >= 1, those probes also keep the vertices apart: a repeated
    vertex gives one such pair a shortcut of fewer than k - 1 edges.  The
    routes close at w from level 1.  Even tops take a_1 < b_1 and odd tops
    u < v, so each cycle is emitted once.  ``limit`` caps the route pairs
    tried over the whole call and raises CandidateOverflow beyond it."""
    dist = all_pairs_distances(g)
    # far[d][v]: mask of the vertices at distance d or more from v
    far = list(
        zip(*(tuple(accumulate(reversed(s), or_))[::-1] for s in distance_spheres(g)))
    )
    edge_bit = _edge_bits(g)
    found: list[int] = []
    tried = 0
    for w in g.vertices:
        dw = dist[w]
        to_w = edge_bit[w]
        down = {
            v: [y for y in g.adjacency(v) if y > w and dw[y] == dw[v] - 1]
            for v in range(w + 1, g.n + 1)
        }
        side = {
            v: [y for y in g.adjacency(v) if y > w and dw[y] == dw[v]]
            for v in range(w + 1, g.n + 1)
        }
        # (p, q, bits, k, first steps from p and from q); a level-k end
        # steps down, a level-(k-1) end steps along its level
        tops = [
            (x, x, 0, dw[x], down[x], down[x])
            for x in down
            if dw[x] >= 2 and len(down[x]) >= 2
        ]
        tops += [(x, x, 0, dw[x] + 1, side[x], side[x]) for x in side if len(side[x]) >= 2]
        for e, (u, v) in enumerate(g.edges):
            if u > w:
                for k in {max(dw[u], dw[v]), min(dw[u], dw[v]) + 1}:
                    first_u = down[u] if dw[u] == k else side[u]
                    first_v = down[v] if dw[v] == k else side[v]
                    if k == 1:  # the triangle w u v
                        found.append(1 << e | to_w[u] | to_w[v])
                    elif first_u and first_v:
                        tops.append((u, v, 1 << e, k, first_u, first_v))
        for p, q, bits, k, first_a, first_b in tops:
            steps = _line_probes(k, p != q)
            far_k = far[k - 1]
            stack = [((p, q), bits)]
            while stack:
                route, bits = stack.pop()
                a_end, b_end = route[-2], route[-1]
                t = len(route) // 2
                on_a, on_b, cross = steps[t]
                ok_a = ok_b = -1
                for i in on_a:
                    ok_a &= far_k[route[i]]
                for i in on_b:
                    ok_b &= far_k[route[i]]
                xs, ys = (first_a, first_b) if t == 1 else (down[a_end], down[b_end])
                bits_a, bits_b = edge_bit[a_end], edge_bit[b_end]
                last = t == k - 1
                for x in xs:
                    if not ok_a >> x & 1:
                        continue
                    ok_y = ok_b & far_k[x] if cross else ok_b
                    # even top: a_1 < b_1; vertex ids start at 1
                    lowest = x if p == q and t == 1 else 0
                    for y in ys:
                        if y <= lowest:
                            continue
                        tried += 1
                        if tried > limit:
                            raise _overflow(limit)
                        if not ok_y >> y & 1:
                            continue
                        step = bits | bits_a[x] | bits_b[y]
                        if last:
                            found.append(step | to_w[x] | to_w[y])
                        else:
                            stack.append((route + (x, y), step))
    return found


def cycle_order(g: Graph, cycle: EdgeSet) -> tuple[int, ...]:
    """Vertices of a simple cycle in traversal order, starting at the
    smallest vertex.  Raises NotACycle otherwise."""
    if not cycle:
        raise NotACycle("empty edge set")
    neigh: dict[int, list[int]] = {}
    for e in cycle:
        a, b = g.edge_endpoints(e)
        neigh.setdefault(a, []).append(b)
        neigh.setdefault(b, []).append(a)
    for v, around in neigh.items():
        if len(around) != 2:
            raise NotACycle(f"vertex {v} meets {len(around)} cycle edges")
    start = min(neigh)
    seq = [start]
    prev = start
    cur = min(neigh[start])
    while cur != start:
        seq.append(cur)
        a, b = neigh[cur]
        prev, cur = cur, (b if a == prev else a)
    if len(seq) != len(neigh):
        raise NotACycle("edge set splits into several cycles")
    return tuple(seq)


def cycle_vertices(g: Graph, cycle: EdgeSet) -> tuple[int, ...]:
    """Sorted vertex set of a cycle given as an edge set."""
    verts: set[int] = set()
    for e in cycle:
        a, b = g.edge_endpoints(e)
        verts.add(a)
        verts.add(b)
    return tuple(sorted(verts))


def is_isometric(
    g: Graph,
    cycle: EdgeSet,
    dist: tuple[tuple[int, ...], ...] | None = None,
) -> bool:
    """Check that along-cycle distances equal graph distances for all pairs.

    It suffices that every vertex is at distance k = floor(L/2) from the
    vertex k steps on: a shortcut between u and v, v at s <= k steps from
    u, would also bring u within k - 1 of that vertex on v's side."""
    seq = cycle_order(g, cycle)
    if dist is None:
        dist = all_pairs_distances(g)
    length = len(seq)
    k = length // 2
    for i, v in enumerate(seq):
        if dist[v][seq[(i + k) % length]] != k:
            return False
    return True


@dataclass(frozen=True)
class CycleCounts:
    """Per-edge counts, per-vertex counts, and the length multiset of a cycle set."""

    edge_counts: tuple[int, ...]
    vertex_counts: tuple[int, ...]
    lengths: tuple[int, ...]


def cycle_count_invariants(
    g: Graph, cycles: tuple[EdgeSet, ...] | None = None
) -> CycleCounts:
    if cycles is None:
        cycles = isometric_cycles(g)
    edge_counts = [0] * g.m
    vertex_counts = [0] * g.n
    lengths = []
    for c in cycles:
        lengths.append(len(c))
        for e in c:
            edge_counts[e - 1] += 1
        for v in cycle_vertices(g, c):
            vertex_counts[v - 1] += 1
    return CycleCounts(tuple(edge_counts), tuple(vertex_counts), tuple(sorted(lengths)))
