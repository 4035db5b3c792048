"""Graph and edge-set primitives.

Graphs are simple, undirected, with vertices numbered 1..n.  Edges carry
1-based ids; the canonical numbering enumerates edges by scanning vertices
in ascending order and listing each edge at its lower endpoint with
neighbors sorted, which is the same as sorting endpoint pairs
lexicographically.  Spanning subgraphs are represented as edge sets backed
by integer bit masks, so ring sums are single XOR operations.

A Graph holds one such mask per vertex, its central cut, with bit e - 1
set for each edge e at the vertex; every module reads the incidence from
these masks.  In a simple graph the masks of u and v share exactly the
bit of edge uv, or none when u and v are not adjacent.  Every Graph is
simple and connected: its constructors raise a typed error otherwise.

_gather_pass is the one sparse pass of the package: entry i of its
result folds the entries a group of indices names, by XOR for a level
step of the spectra, by OR for a level of the distance spheres.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import zip_longest
from operator import itemgetter, or_, xor
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    AsymmetricAdjacency,
    DisconnectedGraph,
    DuplicateNeighbor,
    EmptyCore,
    GraphError,
    LengthMismatch,
    LoopFound,
    VertexOutOfRange,
)


def bit_ids(bits: int) -> tuple[int, ...]:
    """The 1-based ids of the set bits of a mask, in ascending order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return tuple(out)


class EdgeSet:
    """Immutable set of edge ids 1..m backed by a bit mask."""

    __slots__ = ("bits", "m")

    def __init__(self, m: int, ids: Iterable[int] = ()) -> None:
        bits = 0
        for i in ids:
            if not 1 <= i <= m:
                raise VertexOutOfRange(f"edge id {i} outside 1..{m}")
            bits |= 1 << (i - 1)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "m", m)

    @classmethod
    def from_bits(cls, m: int, bits: int) -> "EdgeSet":
        s = cls.__new__(cls)
        object.__setattr__(s, "bits", bits)
        object.__setattr__(s, "m", m)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("EdgeSet is immutable")

    def _check(self, other: "EdgeSet") -> None:
        if self.m != other.m:
            raise LengthMismatch(f"widths differ: {self.m} vs {other.m}")

    def __xor__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet.from_bits(self.m, self.bits ^ other.bits)

    def __and__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet.from_bits(self.m, self.bits & other.bits)

    def __or__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet.from_bits(self.m, self.bits | other.bits)

    def __contains__(self, i: int) -> bool:
        return 1 <= i <= self.m and (self.bits >> (i - 1)) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(bit_ids(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeSet)
            and self.m == other.m
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.m, self.bits))

    def __le__(self, other: "EdgeSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def ids(self) -> tuple[int, ...]:
        return bit_ids(self.bits)

    def __repr__(self) -> str:
        inner = ",".join(str(i) for i in self)
        return "{" + inner + "}/" + str(self.m)


def ring_sum(a: EdgeSet, b: EdgeSet) -> EdgeSet:
    """Symmetric difference of two edge sets of equal width."""
    return a ^ b


class Graph:
    """Immutable simple undirected graph with 1-based vertex and edge ids.

    Graph(n, edges) keeps the listed edge order as the edge numbering, for
    ids that must match an externally fixed numbering rather than the
    canonical scan of build_graph; each pair is stored as (u, v) with
    u < v.  It raises VertexOutOfRange for an endpoint outside 1..n,
    LoopFound for a loop, DuplicateNeighbor for a pair listed twice in
    either order, and DisconnectedGraph unless every vertex is reachable
    from vertex 1, so every Graph is simple and connected.
    graph_from_edges is the same constructor."""

    # _cut[v]: the central cut of v as an edge mask, bit e - 1 for edge e
    __slots__ = ("n", "m", "edges", "_adj", "_cut", "_spheres")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 1:
            raise VertexOutOfRange(f"vertex count {n} must be positive")
        pairs: list[tuple[int, int]] = []
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        cut = [0] * (n + 1)
        bit = 1
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise VertexOutOfRange(f"edge ({u},{v}) outside 1..{n}")
            if u == v:
                raise LoopFound(f"loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            # the cuts of u and v share a bit only if an earlier edge joins them
            if cut[u] & cut[v]:
                raise DuplicateNeighbor(f"edge {key} listed twice")
            pairs.append(key)
            adj[u].append(v)
            adj[v].append(u)
            cut[u] |= bit
            cut[v] |= bit
            bit <<= 1
        self._fill(n, tuple(pairs), [*map(sorted, adj)], cut)

    def _fill(
        self, n: int, edges: tuple[tuple[int, int], ...], adj: list[list[int]], cut: list[int]
    ) -> None:
        """Set the slots from what a constructor derived: edges in id order,
        sorted neighbour lists and central cuts, both padded at index 0.
        Raises DisconnectedGraph unless every vertex is reachable from 1."""
        _check_connected(n, adj)
        put = object.__setattr__
        put(self, "n", n)
        put(self, "m", len(edges))
        put(self, "edges", edges)
        put(self, "_adj", tuple(map(tuple, adj)))
        put(self, "_cut", tuple(cut))
        # distance_spheres fills this on first use
        put(self, "_spheres", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def edge_ids(self) -> range:
        return range(1, self.m + 1)

    def adjacency(self, v: int) -> tuple[int, ...]:
        if not 1 <= v <= self.n:
            raise VertexOutOfRange(f"vertex {v} outside 1..{self.n}")
        return self._adj[v]

    def incident_edges(self, v: int) -> tuple[int, ...]:
        if not 1 <= v <= self.n:
            raise VertexOutOfRange(f"vertex {v} outside 1..{self.n}")
        return bit_ids(self._cut[v])

    def degree(self, v: int) -> int:
        return len(self.adjacency(v))

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(self._adj[v]) for v in self.vertices)

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        if not 1 <= e <= self.m:
            raise VertexOutOfRange(f"edge id {e} outside 1..{self.m}")
        return self.edges[e - 1]

    def edge_id(self, u: int, v: int) -> int:
        if not self.has_edge(u, v):
            raise VertexOutOfRange(f"no edge {(u, v) if u < v else (v, u)}")
        return (self._cut[u] & self._cut[v]).bit_length()

    def has_edge(self, u: int, v: int) -> bool:
        # a vertex's mask ANDed with itself, or an index outside 1..n,
        # would read as an edge
        if u == v or not (1 <= u <= self.n and 1 <= v <= self.n):
            return False
        return self._cut[u] & self._cut[v] != 0

    def empty_set(self) -> EdgeSet:
        return EdgeSet.from_bits(self.m, 0)

    def edge_set(self, ids: Iterable[int]) -> EdgeSet:
        return EdgeSet(self.m, ids)

    def full_set(self) -> EdgeSet:
        return EdgeSet.from_bits(self.m, (1 << self.m) - 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _check_connected(n: int, neigh: Sequence[Sequence[int]]) -> None:
    seen = [False, True] + [False] * (n - 1)
    reached = [1]
    # the loop also walks the vertices it appends
    for v in reached:
        for u in neigh[v]:
            if not seen[u]:
                seen[u] = True
                reached.append(u)
    if len(reached) != n:
        missing = [v for v in range(1, n + 1) if not seen[v]]
        raise DisconnectedGraph(f"vertices unreachable from 1: {missing}")


def _rows(n: int, adjacency) -> list[list[int]]:
    """The n rows, as lists, of a mapping vertex -> neighbours or of a
    sequence of rows."""
    if isinstance(adjacency, Mapping):
        rows = {int(v): adjacency[v] for v in adjacency}
        extra = set(rows) - set(range(1, n + 1))
        if extra:
            raise VertexOutOfRange(f"adjacency keys outside 1..{n}: {sorted(extra)}")
        return [list(rows.get(v, ())) for v in range(1, n + 1)]
    rows = [*map(list, adjacency)]
    if len(rows) != n:
        raise VertexOutOfRange(f"expected {n} adjacency rows, got {len(rows)}")
    return rows


def _row_error(n: int, v: int, row: list[int]) -> GraphError:
    """The error for the first bad entry of row v, in its listed order."""
    seen = set()
    for u in row:
        if not 1 <= u <= n:
            return VertexOutOfRange(f"vertex {v} lists neighbor {u} outside 1..{n}")
        if u == v:
            return LoopFound(f"vertex {v} lists itself")
        if u in seen:
            return DuplicateNeighbor(f"vertex {v} lists {u} twice")
        seen.add(u)


def _asymmetry_error(neigh: Sequence[Sequence[int]]) -> AsymmetricAdjacency:
    """The error for the first listed pair, by vertex and then neighbour,
    that the other end does not list."""
    sets = [*map(set, neigh)]
    for v, row in enumerate(neigh):
        for u in row:
            if v not in sets[u]:
                return AsymmetricAdjacency(f"{v} lists {u} but {u} does not list {v}")


def build_graph(n: int, adjacency) -> Graph:
    """Build a graph from 1-based adjacency lists with canonical edge numbering.

    adjacency is a mapping vertex -> neighbors or a sequence of n rows.
    Rejects loops, duplicate neighbors, asymmetric lists, out-of-range
    vertices, and disconnected graphs.  Each row is checked as a whole as
    it is sorted, and one loop over the entries above each vertex numbers
    the edges, fills the central cuts and gathers what the symmetry check
    compares; a row or a pair that fails is re-scanned only to name its
    first bad entry in input order.
    """
    if n < 1:
        raise VertexOutOfRange(f"vertex count {n} must be positive")
    neigh: list[list[int]] = [[]]
    # lower[v]: the neighbours row v lists below v
    lower: list[list[int]] = [[]]
    for v, row in enumerate(_rows(n, adjacency), start=1):
        ns = sorted(row)
        if ns and (ns[0] < 1 or ns[-1] > n) or v in ns or len(set(ns)) < len(ns):
            raise _row_error(n, v, row)
        neigh.append(ns)
        lower.append(ns[: bisect_left(ns, v)])
    # each pair is numbered at its lower end, in the canonical order;
    # listed[u] collects the vertices v < u that list u
    edges = []
    listed: list[list[int]] = [[] for _ in range(n + 1)]
    cut = [0] * (n + 1)
    bit = 1
    for v in range(1, n + 1):
        for u in neigh[v][len(lower[v]) :]:
            edges.append((v, u))
            listed[u].append(v)
            cut[v] |= bit
            cut[u] |= bit
            bit <<= 1
    # the rows are symmetric exactly when each lists below itself the
    # vertices below it that list it
    if listed != lower:
        raise _asymmetry_error(neigh)
    g = Graph.__new__(Graph)
    g._fill(n, tuple(edges), neigh, cut)
    return g


# the listed order as the edge numbering, checked: see Graph
graph_from_edges = Graph


def central_cut(g: Graph, v: int) -> EdgeSet:
    """Set of edges incident to v."""
    return g.edge_set(g.incident_edges(v))


def all_pairs_distances(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Distance table read off ``distance_spheres``; row and column 0 are
    -1 padding.

    The table is built afresh on each call and kept nowhere: the cycle
    searches read the spheres, and no command or engine path calls this.
    """
    rows: list[tuple[int, ...]] = [(-1,) * (g.n + 1)]
    for at in distance_spheres(g)[1:]:
        dist = [-1] * (g.n + 1)
        for d, mask in enumerate(at):
            # bit v is vertex v, and bit_ids counts bits from 1
            for v in bit_ids(mask >> 1):
                dist[v] = d
        rows.append(tuple(dist))
    return tuple(rows)


def _gather_pass(
    groups: Sequence[Sequence[int]], op: Callable[[int, int], int]
) -> Callable[[Sequence[int]], list[int]]:
    """One sparse pass: a function of a sequence whose entry 0 is zero,
    returning entry i = op folded over the entries groups[i] indexes.
    op is xor or or_, associative with 0 as identity; groups[0] is empty,
    so entry 0 of the result is zero too, and there are two groups or more.

    Column c picks entry c of each group, or entry 0 where a group is
    shorter.  Column 0, and each column that spans every group, is folded
    in by a lazy map; a shorter one is written over just its prefix, which
    ends after the last group longer than c.  The longest group's entries
    past the second longest, the cycle factor's rim or a hub's edges or
    neighbours, are folded by one gather and reduce.
    """
    n = len(groups)
    lengths = [*map(len, groups)]
    *_, second, longest = sorted(lengths)
    top, cols = lengths.index(longest), max(1, second)
    # one backward walk: column c ends after the last group longer than c
    ends = [n]
    for i in range(n - 1, 0, -1):
        if lengths[i] > len(ends):
            ends += [i + 1] * (min(lengths[i], cols) - len(ends))
            if len(ends) == cols:
                break
    columns = zip_longest((0,), *groups[1:], fillvalue=0)
    gathers = [itemgetter(*col[:end]) for col, end in zip(columns, ends)]
    k = ends.count(n)
    start, *full = gathers[:k]
    short = [*zip(gathers[k:], ends[k:])]
    tail = groups[top][cols:]
    # the extra 0 makes the gather return a tuple
    fold = [(top, itemgetter(0, *tail))] if tail else []

    def gather_pass(seq: Sequence[int]) -> list[int]:
        out = start(seq)
        for col in full:
            out = map(op, col(seq), out)
        out = list(out)
        for col, end in short:
            # the map is drawn in full before the slice is written
            out[:end] = map(op, col(seq), out)
        for i, gather in fold:
            out[i] = reduce(op, gather(seq), out[i])
        return out

    return gather_pass


def distance_spheres(g: Graph) -> tuple[tuple[int, ...], ...]:
    """spheres[v][d]: bit mask of the vertices at distance exactly d from v
    (bit u for vertex u), for d = 0..diameter + 1, the last always empty;
    row 0 is padding.

    Built for every source in one pass and kept on the graph.  A vertex's
    ball of radius d + 1 is its ball of radius d ORed with the balls of
    radius d of its neighbours: one _gather_pass with or_ over the
    neighbour lists, and one map that ORs each ball's own value in.
    Levels repeat until every ball holds every vertex, and sphere d is
    ball d XOR ball d - 1.  spheres[v][1] is the neighbour mask of v."""
    if g._spheres is not None:
        return g._spheres
    grow = _gather_pass(g._adj, or_)
    # ball v belongs to vertex v, and ball 0 stays empty
    ball = [0, *(1 << v for v in g.vertices)]
    spheres = [ball]
    # the graph is connected, so every ball grows until it holds every vertex
    whole = (1 << g.n + 1) - 2
    while ball.count(whole) < g.n:
        grown = [*map(or_, ball, grow(ball))]
        spheres.append([*map(xor, grown, ball)])
        ball = grown
    spheres.append([0] * (g.n + 1))
    object.__setattr__(g, "_spheres", tuple(zip(*spheres)))
    return g._spheres


class NonseparableReport:
    """Outcome of the nonseparability check; truthy when the graph qualifies."""

    __slots__ = ("ok", "reason")

    def __init__(self, ok: bool, reason: str | None = None) -> None:
        self.ok = ok
        self.reason = reason

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"NonseparableReport(ok={self.ok}, reason={self.reason!r})"


def is_nonseparable(g: Graph) -> NonseparableReport:
    """Check that g, connected as every Graph is, has no articulation vertex.

    A single edge qualifies; a single vertex qualifies vacuously.
    """
    if g.n == 1:
        return NonseparableReport(True)
    # iterative lowpoint search from vertex 1
    disc = [0] * (g.n + 1)
    low = [0] * (g.n + 1)
    parent = [0] * (g.n + 1)
    timer = 1
    disc[1] = low[1] = timer
    stack: list[tuple[int, int]] = [(1, 0)]
    root_children = 0
    cut: int | None = None
    while stack:
        v, i = stack[-1]
        adj = g._adj[v]
        if i < len(adj):
            stack[-1] = (v, i + 1)
            u = adj[i]
            if disc[u] == 0:
                timer += 1
                disc[u] = low[u] = timer
                parent[u] = v
                if v == 1:
                    root_children += 1
                stack.append((u, 0))
            elif u != parent[v]:
                if disc[u] < low[v]:
                    low[v] = disc[u]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if p != 1 and low[v] >= disc[p]:
                    cut = p
    if root_children > 1:
        cut = 1
    if cut is not None:
        return NonseparableReport(False, f"articulation vertex {cut}")
    return NonseparableReport(True)


def reduce_to_core(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Reduce a raw multigraph description to its simple core.

    Loops are dropped and parallel edges merged, then degree-0 and degree-1
    vertices are deleted and degree-2 vertices with nonadjacent neighbors
    are smoothed, to a fixed point.  Surviving vertices are renumbered
    1..n' in ascending old order and edges take the canonical numbering.
    Raises EmptyCore when nothing cyclic remains.
    """
    if n < 1:
        raise VertexOutOfRange(f"vertex count {n} must be positive")
    neigh: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in edge_list:
        if not (1 <= u <= n and 1 <= v <= n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside 1..{n}")
        if u == v:
            continue
        neigh[u].add(v)
        neigh[v].add(u)
    alive = set(range(1, n + 1))
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            deg = len(neigh[v])
            if deg <= 1:
                for u in neigh[v]:
                    neigh[u].discard(v)
                neigh[v].clear()
                alive.discard(v)
                changed = True
            elif deg == 2:
                a, b = sorted(neigh[v])
                if a not in neigh[b]:
                    neigh[a].discard(v)
                    neigh[b].discard(v)
                    neigh[a].add(b)
                    neigh[b].add(a)
                    neigh[v].clear()
                    alive.discard(v)
                    changed = True
    if not alive:
        raise EmptyCore("no cyclic core remains")
    renum = {old: new for new, old in enumerate(sorted(alive), start=1)}
    rows = [sorted(renum[u] for u in neigh[old]) for old in sorted(alive)]
    return build_graph(len(alive), rows)
