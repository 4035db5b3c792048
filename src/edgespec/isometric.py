"""Isometric cycle enumeration.

A cycle is isometric when the distance between any two of its vertices
measured along the cycle equals their distance in the whole graph, and
that holds exactly when every vertex is at distance floor(L/2) from its
antipodes: a shortcut between two vertices also shortens the way from
one of them to its antipode beyond the other.  The enumeration anchors
every cycle at its smallest vertex.
The line-cycle search finds the isometric cycles of the line graph as
cycles of G, with the conditions that ``edgespec.linegraph`` derives for
them.  Both searches follow one rule.  Their cycles of up to 5 edges are
listed from neighbour masks, ``_short_cycles``, each 4- and 5-cycle
counted as one route pair.  Their longer cycles are walked down from the
opposite vertex or edge, the top at k >= 3, in both halves together:
``_tops`` picks the tops that the anchor's neighbours, as the halves'
last vertices, can close, and ``_walk`` walks the routes.  A step's
candidates are bit masks of neighbours one level nearer the anchor.  A
search is its masks and its probe table, ``_search``: each part reads
its tests around vertices already placed in the search's own masks, the
vertices at exactly the cycle distance for isometric cycles, at k - 1 or
more for line cycles of length 2k or 2k + 1.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, combinations
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CandidateOverflow, NotACycle
from .graphs import EdgeSet, Graph, distance_spheres

# masks[v][d]: a bit mask of vertices for each vertex v and distance d
Masks = Sequence[Sequence[int]]
# a probe table: (on_a, on_b, d, dxy) for each step t of a walk
Probes = tuple[tuple[tuple[int, ...], tuple[int, ...], int, int], ...]


def _overflow(limit: int) -> CandidateOverflow:
    return CandidateOverflow(f"{limit + 1} route pairs exceed limit {limit}")


def _walk(
    tops: Iterable[tuple[int, int, int, int, int]],
    probes: Callable[[int, int], Probes],
    masks: Masks,
    spheres: Masks,
    cut: Sequence[int],
    limit: int,
    found: list[int],
    tried: int,
) -> None:
    """Append to ``found`` the edge masks of the cycles closed by two
    routes a and b walked down from each top (w, p, q, bits, k), k >= 3,
    to its anchor w, through vertices above w.  The top is the vertex
    p = q, or the edge pq whose mask is ``bits``, and a_t and b_t lie at
    level k - t from w, so the pair (a_(k-1), b_(k-1)) closes at w.
    The bit of edge xy is ``cut[x] & cut[y]``, the masks of the graph.

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
    that b_t passes.  ``limit`` caps them over the whole call, ``tried``
    of them spent before it, and raises CandidateOverflow beyond it."""
    nbr = [s[1] for s in spheres]
    anchor = 0
    for w, p, q, bits, k in tops:
        if w != anchor:
            anchor = w
            cut_w = cut[w]
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
            cut_a, cut_b = cut[a_end], cut[b_end]
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
                cut_x = cut[x]
                step = bits | cut_a & cut_x
                while ys:
                    y = ys.bit_length() - 1
                    ys ^= 1 << y
                    cut_y = cut[y]
                    if last:
                        found.append(step | cut_b & cut_y | cut_w & (cut_x | cut_y))
                    else:
                        stack.append((route + (x, y), step | cut_b & cut_y))


@cache
def _step_probes(k: int, off: int) -> Probes:
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

    Every isometric cycle has one smallest vertex w, its anchor.  A cycle
    of up to 5 edges is isometric exactly when it has no chord, and
    ``_short_cycles`` lists those from neighbour masks.  A longer one, of
    length 2k + off with k >= 3, has one top at distance k from w: the
    vertex opposite w when off = 0, the edge opposite w when off = 1.  Its
    halves are geodesics from the top down to w, so for each anchor w and
    each top ``_walk`` descends two routes a and b one distance level per
    step.  A joined pair of routes is an isometric cycle exactly when
    every cross pair (a_i, b_j) sits at its distance along the cycle,
    min(i+j+off, L-i-j-off), and the probes of ``_step_probes``, read in
    the sphere masks (the vertices at exactly distance d,
    ``distance_spheres``), settle all of them:

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
    top, so the output is that of a descent from every top.

    ``limit`` caps the route pairs tried, as ``_walk`` counts them, and
    each listed 4- or 5-cycle counts as one; a triangle and the step that
    closes a cycle at w are not counted."""
    return in_id_order(g.m, _cycle_masks(g, limit))


def _cycle_masks(g: Graph, limit: int = 10**6) -> list[int]:
    """The edge masks of the isometric cycles, in the order the search
    finds them; see ``isometric_cycles``."""
    spheres = distance_spheres(g)
    return _search(g, spheres, spheres, _step_probes, limit)


def _search(
    g: Graph, spheres: Masks, masks: Masks, probes: Callable[[int, int], Probes], limit: int
) -> list[int]:
    """The edge masks of a search's cycles: those of up to 5 edges from
    ``_short_cycles``, then those walked down from the tops at k >= 3, all
    read in ``masks`` and the walk's steps in ``probes``."""
    found: list[int] = []
    tried = _short_cycles(g, spheres, masks, limit, found)
    _walk(_tops(g, spheres, masks), probes, masks, spheres, g._cut, limit, found, tried)
    return found


def _short_cycles(g: Graph, spheres: Masks, masks: Masks, limit: int, found: list[int]) -> int:
    """Append to ``found`` the edge masks of a search's cycles of up to 5
    edges, and return the number of 4- and 5-cycles among them.  Each is
    anchored at its smallest vertex w, with a and b a pair of w's
    neighbours above it: the triangle w a b when b is a neighbour of a, and
    the 4-cycles w a x b and 5-cycles w a u v b, all above w, whose pairs
    at cyclic distance 2 lie in each other's ``masks[·][2]``: (w, x) and
    (a, b) on a 4-cycle, (w, u), (w, v), (a, v), (a, b) and (u, b) on a
    5-cycle.  A vertex is never in its own mask at 2, so u is not b and v
    is not a.  With the sphere masks these are the chordless 4- and
    5-cycles, the isometric ones; with the line search's masks, which at 2
    hold every vertex but the one itself, they are every 4- and 5-cycle,
    the line cycles at k = 2 (fact 3 in ``edgespec.linegraph``).  Every
    triangle is both.

    They are listed from neighbour masks, as in Chiba and Nishizeki's
    quadrangle listing.  Each 4- and 5-cycle counts as one route pair
    against ``limit``, which raises CandidateOverflow beyond it."""
    adj, cut = g._adj, g._cut
    nbr = [s[1] for s in spheres]
    tried = 0
    for w in g.vertices:
        ys = [y for y in adj[w] if y > w]
        if len(ys) < 2:
            continue
        # x, u and v lie above w and in its mask at 2
        two = masks[w][2] & -2 << w
        cut_w = cut[w]
        for a, b in combinations(ys, 2):
            cut_a, cut_b = cut[a], cut[b]
            cut_ab = cut_a | cut_b
            if nbr[a] >> b & 1:
                found.append(cut_w & cut_ab | cut_a & cut_b)
            far_a = masks[a][2]
            if not far_a >> b & 1:
                continue
            listed = len(found)
            near_a, near_b = nbr[a] & two, nbr[b] & two
            xs = near_a & near_b
            while xs:
                low = xs & -xs
                xs ^= low
                found.append((cut_w | cut[low.bit_length() - 1]) & cut_ab)
            at_w = cut_w & cut_ab
            vs = near_b & far_a
            us = near_a & masks[b][2]
            while us:
                low = us & -us
                us ^= low
                u = low.bit_length() - 1
                tails = nbr[u] & vs
                if tails:
                    cut_u = cut[u]
                    path = at_w | cut_a & cut_u
                    while tails:
                        low = tails & -tails
                        tails ^= low
                        found.append(path | cut[low.bit_length() - 1] & (cut_u | cut_b))
            tried += len(found) - listed
            if tried > limit:
                raise _overflow(limit)
    return tried


def _tops(g: Graph, spheres: Masks, masks: Masks) -> Iterator[tuple[int, int, int, int, int]]:
    """The tops (w, p, q, bits, k), k >= 3, that pass the tests at the
    anchor's end, anchor by anchor, for either search; the cycles of up to
    5 edges are listed without a top (``_short_cycles``).

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
    no cycle of the search.  A route down from a top at cyclic distance k
    passes a vertex above w in each of w's masks below k, so the first of
    them with none ends the anchor's tops, and an anchor with none in its
    mask at 2 or at 3 has no top."""
    adj, cut = g._adj, g._cut
    for w in g.vertices:
        ys = [y for y in adj[w] if y > w]
        if len(ys) < 2:
            continue
        sw, mw = spheres[w], masks[w]
        above = -2 << w
        if not (mw[2] & above and mw[3] & above):
            continue
        pairs = list(combinations([(spheres[y], masks[y]) for y in ys], 2))
        for k in range(3, len(sw)):
            level = mw[k] & above
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
                        odds |= cut[u] & cut[high.bit_length() - 1]
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
def _line_probes(k: int, off: int) -> Probes:
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
    and b_1 lie at level k - 1 whichever level the top is at.  As for the
    isometric search, ``_search`` lists the cycles of up to 5 edges from
    neighbour masks (``_short_cycles``), and from k = 3 on ``_tops`` picks
    the tops from the anchor's end and ``_walk`` descends from them, all
    reading the vertices at cyclic distance k in ``far``, the vertices
    k - 1 or more away.  At k = 2 the condition only asks for distinct
    vertices, and ``far`` at 2 holds every vertex but the one itself, so
    every 4- and 5-cycle is listed.  As k - 1 >= 2 from k = 3 on, the
    probes of ``_line_probes`` also keep the vertices apart: a repeated
    vertex gives one such pair a shortcut of fewer than k - 1 edges.
    ``limit`` caps the route pairs tried, as ``_walk`` counts them, and
    each listed 4- or 5-cycle counts as one."""
    spheres = distance_spheres(g)
    # far[v][d]: mask of the vertices at distance d - 1 or more from v
    far = [tuple(accumulate(reversed(s[:1] + s), or_))[::-1] for s in spheres]
    return _search(g, spheres, far, _line_probes, limit)


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
    return tuple(sorted({v for e in cycle for v in g.edge_endpoints(e)}))


def is_isometric(g: Graph, cycle: EdgeSet) -> bool:
    """Check that along-cycle distances equal graph distances for all pairs.

    It suffices that every vertex is at distance k = floor(L/2) from the
    vertex k steps on: a shortcut between u and v, v at s <= k steps from
    u, would also bring u within k - 1 of that vertex on v's side."""
    seq = cycle_order(g, cycle)
    spheres = distance_spheres(g)
    length = len(seq)
    k = length // 2
    # no two vertices are k apart when k is past the last sphere
    if k >= len(spheres[0]):
        return False
    for i, v in enumerate(seq):
        if not spheres[v][k] >> seq[(i + k) % length] & 1:
            return False
    return True
