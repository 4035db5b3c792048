"""Isometric cycle enumeration.

A cycle is isometric when the distance between any two of its vertices
measured along the cycle equals their distance in the whole graph, and
that holds exactly when every vertex is at distance floor(L/2) from its
antipodes: a shortcut between two vertices also shortens the way from
one of them to its antipode beyond the other.  The enumeration anchors
every cycle at its smallest vertex and walks both of its halves down from
the opposite vertex or edge together, from those tops only that the
anchor's neighbours, as the halves' last vertices, can close; distance
sphere masks pick them a level at a time.
The line-cycle search finds the isometric cycles of the line graph as
cycles of G, with the conditions that ``edgespec.linegraph`` derives for
them, and picks its tops with the same selector, ``_tops``, and walks
its routes through the same loop, ``_walk``.  A step's candidates are bit
masks of neighbours one level nearer the anchor.  Each search reads the
selector's tests and its probes around vertices already placed in its
own masks: the vertices at exactly the cycle distance for isometric
cycles, at k - 1 or more for line cycles of length 2k or 2k + 1.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, combinations
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CandidateOverflow, NotACycle
from .graphs import EdgeSet, Graph, all_pairs_distances, distance_spheres


def _edge_bits(g: Graph) -> list[dict[int, int]]:
    # edge_bit[u][v]: the bit of edge uv in an edge mask
    edge_bit: list[dict[int, int]] = [{} for _ in range(g.n + 1)]
    for e, (u, v) in enumerate(g.edges):
        edge_bit[u][v] = edge_bit[v][u] = 1 << e
    return edge_bit


def _overflow(limit: int) -> CandidateOverflow:
    return CandidateOverflow(f"{limit + 1} route pairs exceed limit {limit}")


def _walk(
    tops: Iterable[tuple[int, int, int, int, int]],
    probes: Callable[[int, int], Sequence[tuple[tuple[int, ...], tuple[int, ...], int, int]]],
    masks: Sequence[Sequence[int]],
    spheres: Sequence[Sequence[int]],
    edge_bit: list[dict[int, int]],
    limit: int,
    found: list[int],
) -> None:
    """Append to ``found`` the edge masks of the cycles closed by two
    routes a and b walked down from each top (w, p, q, bits, k), k >= 2,
    to its anchor w, through vertices above w.  The top is the vertex
    p = q, or the edge pq whose mask is ``bits``, and a_t and b_t lie at
    level k - t from w, so the pair (a_(k-1), b_(k-1)) closes at w.

    A step's candidates are the neighbours of each route's end at its
    level above w, as bit masks (``spheres[v][1]`` and ``spheres[w][k - t]``).
    ``probes(k, off)``, off = 0 for a vertex top and 1 for an edge, gives
    step t's (on_a, on_b, d, dxy): a_t must lie in ``masks[route[i]][d]``
    for each i in on_a, the route being (p, q, a_1, b_1, a_2, b_2, ...),
    b_t alike for on_b, and b_t in ``masks[a_t][dxy]``.  The probe masks
    are ANDed once per route pair popped, and the a_t and b_t that pass
    are read off by their set bits.  A vertex top takes a_1 < b_1, so each
    cycle is found once.

    A route pair tried is an a_t that passes its probes with one of b's
    candidates, above a_1 on a vertex top's first step, whether or not
    that b_t passes.  ``limit`` caps them over the whole call and raises
    CandidateOverflow beyond it."""
    nbr = [s[1] for s in spheres]
    tried = 0
    anchor = 0
    for w, p, q, bits, k in tops:
        if w != anchor:
            anchor = w
            to_w = edge_bit[w]
            above = -2 << w  # the bits of the vertices above w
            levels = []
        # levels[j]: the vertices above w at level j
        while len(levels) < k:
            levels.append(spheres[w][len(levels)] & above)
        steps = probes(k, p != q)
        even = p == q
        stack = [((p, q), bits)]
        while stack:
            route, bits = stack.pop()
            t = len(route) >> 1
            on_a, on_b, d, dxy = steps[t]
            a_end, b_end = route[-2], route[-1]
            level = levels[k - t]
            xs = nbr[a_end] & level
            pool = ok_b = nbr[b_end] & level
            for i in on_a:
                xs &= masks[route[i]][d]
            for i in on_b:
                ok_b &= masks[route[i]][d]
            bits_a, bits_b = edge_bit[a_end], edge_bit[b_end]
            first = even and t == 1
            last = t == k - 1
            while xs:
                x = xs.bit_length() - 1
                xs ^= 1 << x
                # a vertex top's b_1 lies above a_1
                ys = pool & -2 << x if first else pool
                tried += ys.bit_count()
                if tried > limit:
                    raise _overflow(limit)
                ys &= ok_b & masks[x][dxy]
                step = bits | bits_a[x]
                while ys:
                    y = ys.bit_length() - 1
                    ys ^= 1 << y
                    if last:
                        found.append(step | bits_b[y] | to_w[x] | to_w[y])
                    else:
                        stack.append((route + (x, y), step | bits_b[y]))


@cache
def _step_probes(k: int, off: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int, int], ...]:
    """``_walk`` probes for each step t = 1..k-1 of an isometric cycle of
    length L = 2k + off, read in the sphere masks, which hold the vertices
    at exactly distance d; entry 0 is padding.

    Once a_t has an antipode among b_0..b_(t-1) (i + j + off = k, or also
    i + j = k on an odd cycle), a_t is probed against the antipodes at
    distance k, b_t against a's alike, and the two at min(2t + off,
    2k - 2t) from each other.  Before that a_t is probed against b_(t-1)
    at 2t - 1 + off and b_t against a_t at 2t + off, which bounds
    d(a_(t-1), b_t) too."""
    rows = [((), (), 0, 0)]
    for t in range(1, k):
        anti = sorted({j for j in (k - off - t, k - t) if 0 <= j < t})
        if anti:
            on_a = tuple(2 * j + 1 for j in anti)
            on_b = tuple(2 * j for j in anti)
            rows.append((on_a, on_b, k, min(2 * t + off, 2 * k - 2 * t)))
        else:
            rows.append(((2 * t - 1,), (), 2 * t - 1 + off, 2 * t + off))
    return tuple(rows)


def isometric_cycles(g: Graph, limit: int = 10**6) -> tuple[EdgeSet, ...]:
    """All isometric cycles, ordered lexicographically by edge ids.

    Every isometric cycle has one smallest vertex w, its anchor.  Relative
    to w it has one top at distance k from w: the vertex opposite w when
    its length is 2k (off = 0), the edge opposite w when its length is
    2k+1 (off = 1).  Its halves are geodesics from the top down to w, so
    for each anchor w and each top ``_walk`` descends two routes a and b
    one distance level per step.  A joined pair of routes is an isometric
    cycle exactly when every cross pair (a_i, b_j) sits at its distance
    along the cycle, min(i+j+off, L-i-j-off), and the probes of
    ``_step_probes``, read in the sphere masks (the vertices at exactly
    distance d, ``distance_spheres``), settle all of them:

    * while the cycle distance still grows, d(a_t, b_(t-1)) = 2t-1+off
      makes a_t..top..b_(t-1) a geodesic, so every pair on it is right,
      and d(a_t, b_t) = 2t+off does the same for b_t;
    * once a_t has an antipode b_j* on the other half, d(a_t, b_j*) = k
      gives d(a_t, b_j) >= k - |j - j*|, which is the cycle distance, and
      the route through w, d(a_t, w) + d(w, b_j), bounds it from above;
      b_t and its antipodes on a alike.

    So each step keeps exactly the candidate pairs whose cross pairs all
    match (a cycle is isometric when every vertex is at distance
    floor(L/2) from its antipodes).

    Before its descent a top must pass the tests at the anchor's end of
    ``_tops``, read in the sphere masks: w's two neighbours on the cycle
    lie at distance k - 1 from the top's nearer ends, and at distance k
    from their antipodes among the top's ends and the first vertices
    below it.  Each test is necessary for an isometric cycle through the
    top, so the output is that of a descent from every top.  Triangles
    close without a descent.

    ``limit`` caps the route pairs tried, as ``_walk`` counts them; a
    triangle and the step that closes a cycle at w are not counted."""
    return in_id_order(g.m, _cycle_masks(g, limit))


def _cycle_masks(g: Graph, limit: int = 10**6) -> list[int]:
    """The edge masks of the isometric cycles, in the order the search
    finds them; see ``isometric_cycles``."""
    spheres = distance_spheres(g)
    edge_bit = _edge_bits(g)
    found: list[int] = []
    tops = _tops(g, spheres, spheres, edge_bit, found)
    _walk(tops, _step_probes, spheres, spheres, edge_bit, limit, found)
    return found


def _tops(
    g: Graph,
    spheres: tuple[tuple[int, ...], ...],
    masks: Sequence[Sequence[int]],
    edge_bit: list[dict[int, int]],
    found: list[int],
) -> Iterator[tuple[int, int, int, int, int]]:
    """The tops (w, p, q, bits, k), k >= 2, that pass the tests at the
    anchor's end, anchor by anchor, for either search.  Triangles need no
    descent and go straight to ``found``.

    A search's cycles of length 2k + off put the vertices at cyclic
    distance k from a vertex v in ``masks[v][k]``: the vertices at exactly
    k for isometric cycles (the sphere masks), at k - 1 or more for line
    cycles (fact 3 in ``edgespec.linegraph``).  In both, the arcs of
    k - 1 edges are geodesics, read in the sphere masks.  Let y1 = a_(k-1)
    and y2 = b_(k-1), the neighbours of the anchor w on the cycle.  They
    differ, so w needs two neighbours above it, and each pair of those is
    tried:

    * a top end, at cyclic distance k from w, lies in w's mask at k;
    * an even top x is at distance k - 1 from y1 and y2;
    * an odd top uv has d(u, y1) = d(v, y2) = k - 1, and u lies in y2's
      mask at k, v in y1's;
    * a_1, below the top's a end, is at distance k - 1 from w and k - 2
      from y1, and lies in y2's mask at k; b_1 alike with y1 and y2
      swapped.

    The tests on y1 and y2 keep a top within k of w, so it sits at level
    k for isometric cycles and at k - 1 or k for line cycles.  A level at
    a time, the bit masks give where a top, a_1 and b_1 can lie; the a_1
    and b_1 sets are spread to their neighbours, and a top's a end needs
    a neighbour among a_1, its b end among b_1.  A top that fails closes
    no cycle of the search.  At k = 1 every edge uv between two neighbours
    of w above it closes the triangle w u v, a line cycle as well."""
    adj = g._adj
    for w in g.vertices:
        ys = [y for y in adj[w] if y > w]
        if len(ys) < 2:
            continue
        sw = spheres[w]
        above = -2 << w
        to_w = edge_bit[w]
        # triangles w u v
        for u in ys:
            for v in adj[u]:
                if v > u and sw[1] >> v & 1:
                    found.append(to_w[u] | to_w[v] | edge_bit[u][v])
        pairs = list(combinations([(spheres[y], masks[y]) for y in ys], 2))
        for k in range(2, len(sw)):
            # a top at cyclic distance k from w; a route down from it
            # passes every level above w below k
            level = masks[w][k] & above
            if not level:
                break
            inner = sw[k - 1] & above
            evens = odds = 0
            for (s1, m1), (s2, m2) in pairs:
                # an even top x at k - 1 from y1 and y2; an odd top uv with
                # u at k - 1 from y1 and cyclic distance k from y2, and v
                # the reverse
                xs = level & s1[k - 1] & s2[k - 1]
                us = level & s1[k - 1] & m2[k]
                vs = level & s2[k - 1] & m1[k]
                if not xs and not (us and vs):
                    continue
                # a_1 and b_1 for a_(k-1) = y1 and b_(k-1) = y2
                a1 = inner & s1[k - 2] & m2[k]
                b1 = inner & s2[k - 2] & m1[k]
                if not a1 or not b1:
                    continue
                # the top ends need a neighbour among a_1 and b_1
                reach_a = reach_b = 0
                while a1:
                    low = a1 & -a1
                    a1 ^= low
                    reach_a |= spheres[low.bit_length() - 1][1]
                while b1:
                    low = b1 & -b1
                    b1 ^= low
                    reach_b |= spheres[low.bit_length() - 1][1]
                evens |= xs & reach_a & reach_b
                us &= reach_a
                vs &= reach_b
                while us:
                    low = us & -us
                    us ^= low
                    u = low.bit_length() - 1
                    ends = spheres[u][1] & vs
                    while ends:
                        high = ends & -ends
                        ends ^= high
                        odds |= edge_bit[u][high.bit_length() - 1]
            while evens:
                low = evens & -evens
                evens ^= low
                x = low.bit_length() - 1
                yield w, x, x, 0, k
            while odds:
                low = odds & -odds
                odds ^= low
                u, v = g.edges[low.bit_length() - 1]
                yield w, u, v, low, k


def in_id_order(m: int, masks: Iterable[int]) -> tuple[EdgeSet, ...]:
    """Edge sets ordered lexicographically by edge ids, for masks of which
    none is a subset of another, as the edge sets of distinct cycles are.
    Then the set that holds the lowest differing id comes first: its mask
    written lowest bit first is the larger string."""
    width = f"0{m}b"
    ordered = sorted(masks, key=lambda b: format(b, width)[::-1], reverse=True)
    return tuple(EdgeSet.from_bits(m, b) for b in ordered)


@cache
def _line_probes(k: int, off: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int, int], ...]:
    """``_walk`` probes for each step t = 1..k-1 of a line cycle of length
    L = 2k + off >= 4, read in masks of the vertices d - 1 or more away;
    entry 0 is padding.

    A new vertex is probed against the placed ones at cyclic distance
    k - 1 or k, which must be k - 1 or more away from it, and so is b_t
    against a_t when they are that far apart on the cycle; otherwise the
    cross probe is 0, which every vertex passes.  The anchor needs no
    probe: its distances are the levels."""
    length = 2 * k + off

    def position(i: int) -> int:
        return k - i // 2 if i % 2 == 0 else k + off + i // 2

    def probed(i: int, j: int) -> bool:
        gap = abs(position(i) - position(j))
        return min(gap, length - gap) >= k - 1

    rows = [((), (), 0, 0)]
    for t in range(1, k):
        placed = [i for i in range(2 * t) if off or i != 1]
        rows.append(
            (
                tuple(i for i in placed if probed(i, 2 * t)),
                tuple(i for i in placed if probed(i, 2 * t + 1)),
                k,
                k if probed(2 * t, 2 * t + 1) else 0,
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
    or k.  A top end at level k - 1 steps along its level first, so a_1
    and b_1 lie at level k - 1 whichever level the top is at.  ``_tops``
    picks the tops from the anchor's end and ``_walk`` descends from
    them, both reading the vertices at cyclic distance k in ``far``, the
    vertices k - 1 or more away.  As k - 1 >= 1, the probes of
    ``_line_probes`` also keep the vertices apart: a repeated vertex gives
    one such pair a shortcut of fewer than k - 1 edges.  Triangles close
    without a descent.  ``limit`` caps the route pairs tried, as ``_walk``
    counts them."""
    spheres = distance_spheres(g)
    # far[v][d]: mask of the vertices at distance d - 1 or more from v
    far = [tuple(accumulate(reversed(s[:1] + s), or_))[::-1] for s in spheres]
    edge_bit = _edge_bits(g)
    found: list[int] = []
    tops = _tops(g, spheres, far, edge_bit, found)
    _walk(tops, _line_probes, far, spheres, edge_bit, limit, found)
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
