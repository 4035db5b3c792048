"""Reference loader: the parse, the checks and the graph build, one step each.

This is the loader that edgespec.grf and edgespec.graphs replaced with one
validating pass per graph: the offset format's rows are checked into
sorted neighbour tuples, and the graph's adjacency and central cuts are
then derived again from its edges; an edge list's pairs are checked, and
the graph built from them afterwards.  The oracle tests require both to
give equal graphs, and to raise the same error class with the same
message on malformed input.  The module imports only the error classes
from edgespec; its graphs are plain records of the Graph fields the
tests compare.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from edgespec.errors import (
    AsymmetricAdjacency,
    BadOffsets,
    DisconnectedGraph,
    DuplicateNeighbor,
    GrfParseError,
    LoopFound,
    OddNeighborCount,
    VertexOutOfRange,
)

_COMMENT = re.compile(r"\{[^}]*\}")


@dataclass(frozen=True)
class RefGraph:
    """The fields of a Graph: vertex count, edges in id order, sorted
    neighbour tuples and central-cut masks, both padded at index 0."""

    n: int
    edges: tuple[tuple[int, int], ...]
    _adj: tuple[tuple[int, ...], ...]
    _cut: tuple[int, ...]


def make_graph(n: int, edges: Sequence[tuple[int, int]]) -> RefGraph:
    """The graph of validated, normalized edges in id order."""
    if n < 1:
        raise VertexOutOfRange(f"vertex count {n} must be positive")
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    cut = [0] * (n + 1)
    for k, (u, v) in enumerate(edges):
        adj[u].append(v)
        adj[v].append(u)
        cut[u] |= 1 << k
        cut[v] |= 1 << k
    neigh = tuple(tuple(sorted(a)) for a in adj)
    _check_connected(n, neigh)
    return RefGraph(n, tuple(edges), neigh, tuple(cut))


def _check_connected(n: int, neigh: Sequence[tuple[int, ...]]) -> None:
    seen = [False, True] + [False] * (n - 1)
    reached = [1]
    for v in reached:
        for u in neigh[v]:
            if not seen[u]:
                seen[u] = True
                reached.append(u)
    if len(reached) != n:
        missing = [v for v in range(1, n + 1) if not seen[v]]
        raise DisconnectedGraph(f"vertices unreachable from 1: {missing}")


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
            raise VertexOutOfRange(f"expected {n} adjacency rows, got {len(lists)}")
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


def build_graph(n: int, adjacency) -> RefGraph:
    """Canonical edge numbering from 1-based adjacency lists."""
    neigh = _validate_adjacency(n, adjacency)
    edges = []
    for v in range(1, n + 1):
        for u in neigh[v]:
            if v < u:
                edges.append((v, u))
    return make_graph(n, edges)


def graph_from_edges(n: int, edge_list: Iterable[tuple[int, int]]) -> RefGraph:
    """The given edge order as the edge numbering."""
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
    return make_graph(n, edges)


def _tokens(text: str) -> list[int]:
    cleaned = _COMMENT.sub(" ", text)
    if "{" in cleaned or "}" in cleaned:
        raise GrfParseError("unbalanced comment braces")
    out = []
    for tok in cleaned.split():
        try:
            out.append(int(tok))
        except ValueError:
            raise GrfParseError(f"not an integer: {tok!r}") from None
    return out


def parse_grf(text: str) -> RefGraph:
    """The offset format: vertex count, n + 1 offsets, neighbour lists."""
    toks = _tokens(text)
    if not toks:
        raise GrfParseError("empty input")
    n = toks[0]
    if n < 1:
        raise GrfParseError(f"vertex count {n} must be positive")
    if len(toks) < n + 2:
        raise BadOffsets(f"expected {n + 1} offsets after the vertex count")
    offsets = toks[1 : n + 2]
    if offsets[0] != 1:
        raise BadOffsets(f"first offset must be 1, got {offsets[0]}")
    for a, b in zip(offsets, offsets[1:]):
        if b < a:
            raise BadOffsets(f"offsets decrease: {a} then {b}")
    total = offsets[-1] - 1
    if total % 2 != 0:
        raise OddNeighborCount(f"{total} neighbor entries cannot pair up")
    body = toks[n + 2 :]
    if len(body) != total:
        raise BadOffsets(f"offset directory promises {total} neighbor entries, found {len(body)}")
    rows = [body[offsets[v] - 1 : offsets[v + 1] - 1] for v in range(n)]
    return build_graph(n, rows)


def parse_edgelist(text: str) -> RefGraph:
    """"u v" lines; the listing order becomes the edge numbering."""
    edges: list[tuple[int, int]] = []
    top = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GrfParseError(f"expected two vertex ids per line: {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GrfParseError(f"not an integer pair: {raw!r}") from None
        edges.append((u, v))
        top = max(top, u, v)
    if not edges:
        raise GrfParseError("no edges found")
    return graph_from_edges(top, edges)


def load_graph(text: str) -> RefGraph:
    """Either format, the offset format first."""
    try:
        return parse_grf(text)
    except GrfParseError:
        return parse_edgelist(text)
