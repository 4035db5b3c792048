"""Graph and edge-set primitives.

Graphs are simple, undirected, with vertices numbered 1..n.  Edges carry
1-based ids; the canonical numbering enumerates edges by scanning vertices
in ascending order and listing each edge at its lower endpoint with
neighbors sorted, which is the same as sorting endpoint pairs
lexicographically.  Spanning subgraphs are represented as edge sets backed
by integer bit masks, so ring sums are single XOR operations.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    AsymmetricAdjacency,
    DisconnectedGraph,
    DuplicateNeighbor,
    EmptyCore,
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
    """Immutable simple undirected graph with 1-based vertex and edge ids."""

    __slots__ = ("n", "m", "edges", "_adj", "_inc", "_eid", "_dist", "_spheres")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]) -> None:
        # edges must arrive validated and normalized (u < v), in id order
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        inc: list[list[int]] = [[] for _ in range(n + 1)]
        eid: dict[tuple[int, int], int] = {}
        for k, (u, v) in enumerate(edges, start=1):
            adj[u].append(v)
            adj[v].append(u)
            inc[u].append(k)
            inc[v].append(k)
            eid[(u, v)] = k
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", len(edges))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))
        object.__setattr__(self, "_inc", tuple(tuple(sorted(i)) for i in inc))
        object.__setattr__(self, "_eid", eid)
        # all_pairs_distances fills these on first use
        object.__setattr__(self, "_dist", None)
        object.__setattr__(self, "_spheres", None)

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
        return self._inc[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency(v))

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(self._adj[v]) for v in self.vertices)

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        if not 1 <= e <= self.m:
            raise VertexOutOfRange(f"edge id {e} outside 1..{self.m}")
        return self.edges[e - 1]

    def edge_id(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return self._eid[key]
        except KeyError:
            raise VertexOutOfRange(f"no edge {key}") from None

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._eid

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


def _validate_adjacency(n: int, adjacency) -> list[tuple[int, ...]]:
    if n < 1:
        raise VertexOutOfRange(f"vertex count {n} must be positive")
    if isinstance(adjacency, Mapping):
        rows = {int(v): list(adjacency[v]) for v in adjacency}
        extra = set(rows) - set(range(1, n + 1))
        if extra:
            raise VertexOutOfRange(f"adjacency keys outside 1..{n}: {sorted(extra)}")
        lists = [rows.get(v, []) for v in range(1, n + 1)]
    else:
        lists = [list(row) for row in adjacency]
        if len(lists) != n:
            raise VertexOutOfRange(
                f"expected {n} adjacency rows, got {len(lists)}"
            )
    neigh: list[tuple[int, ...]] = [()]
    seen: list[set[int]] = [set() for _ in range(n + 1)]
    for v, row in enumerate(lists, start=1):
        for u in row:
            if not 1 <= u <= n:
                raise VertexOutOfRange(f"vertex {v} lists neighbor {u} outside 1..{n}")
            if u == v:
                raise LoopFound(f"vertex {v} lists itself")
            if u in seen[v]:
                raise DuplicateNeighbor(f"vertex {v} lists {u} twice")
            seen[v].add(u)
        neigh.append(tuple(sorted(seen[v])))
    for v in range(1, n + 1):
        for u in neigh[v]:
            if v not in seen[u]:
                raise AsymmetricAdjacency(f"{v} lists {u} but {u} does not list {v}")
    return neigh


def _check_connected(n: int, neigh: Sequence[tuple[int, ...]]) -> None:
    seen = {1}
    queue = deque([1])
    while queue:
        v = queue.popleft()
        for u in neigh[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    if len(seen) != n:
        missing = sorted(set(range(1, n + 1)) - seen)
        raise DisconnectedGraph(f"vertices unreachable from 1: {missing}")


def build_graph(n: int, adjacency) -> Graph:
    """Build a graph from 1-based adjacency lists with canonical edge numbering.

    adjacency is a mapping vertex -> neighbors or a sequence of n rows.
    Rejects loops, duplicate neighbors, asymmetric lists, out-of-range
    vertices, and disconnected graphs.
    """
    neigh = _validate_adjacency(n, adjacency)
    _check_connected(n, neigh)
    edges = []
    for v in range(1, n + 1):
        for u in neigh[v]:
            if v < u:
                edges.append((v, u))
    return Graph(n, edges)


def graph_from_edges(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph keeping the given edge order as the edge numbering.

    Used when edge ids must match an externally fixed numbering instead of
    the canonical scan.
    """
    if n < 1:
        raise VertexOutOfRange(f"vertex count {n} must be positive")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for u, v in edge_list:
        if not (1 <= u <= n and 1 <= v <= n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside 1..{n}")
        if u == v:
            raise LoopFound(f"loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateNeighbor(f"edge {key} listed twice")
        seen.add(key)
        edges.append(key)
    neigh: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        neigh[u].append(v)
        neigh[v].append(u)
    _check_connected(n, neigh)
    return Graph(n, edges)


def central_cut(g: Graph, v: int) -> EdgeSet:
    """Set of edges incident to v."""
    return g.edge_set(g.incident_edges(v))


def all_pairs_distances(g: Graph) -> tuple[tuple[int, ...], ...]:
    """BFS distance table; row and column 0 are -1 padding.

    The table is computed once per graph and kept on it, so every caller
    of the same graph shares it.  The same BFS fills ``distance_spheres``.
    """
    if g._dist is not None:
        return g._dist
    n, adj = g.n, g._adj
    rows: list[tuple[int, ...]] = [tuple([-1] * (n + 1))]
    spheres: list[list[int]] = [[]]
    for s in g.vertices:
        dist = [-1] * (n + 1)
        dist[s] = 0
        wave = [s]
        at = [1 << s]
        d = 0
        while wave:
            d += 1
            nxt = []
            mask = 0
            for v in wave:
                for u in adj[v]:
                    if dist[u] < 0:
                        dist[u] = d
                        nxt.append(u)
                        mask |= 1 << u
            at.append(mask)
            wave = nxt
        rows.append(tuple(dist))
        spheres.append(at)
    # every row ends in an empty sphere; pad them all to the longest
    width = max(map(len, spheres))
    object.__setattr__(
        g, "_spheres", tuple(tuple(at + [0] * (width - len(at))) for at in spheres)
    )
    object.__setattr__(g, "_dist", tuple(rows))
    return g._dist


def distance_spheres(g: Graph) -> tuple[tuple[int, ...], ...]:
    """spheres[v][d]: bit mask of the vertices at distance exactly d from v
    (bit u for vertex u), for d = 0..diameter + 1, the last always empty;
    row 0 is padding.

    Built by the BFS of ``all_pairs_distances`` and kept on the graph
    beside its table.  spheres[v][1] is the neighbour mask of v."""
    if g._spheres is None:
        all_pairs_distances(g)
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
    """Check that g is connected with no articulation vertex.

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
    if timer != g.n:
        return NonseparableReport(False, "disconnected")
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
