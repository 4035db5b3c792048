"""Seeded graph generators owned by the benchmark.

Every generator returns ``(n, edges)``: a vertex count and a sorted list of
``(u, v)`` pairs with ``u < v`` on vertices ``1..n``.  Nothing here imports
edgespec, so a change to the package or to its test fixtures cannot move a
workload's inputs.
"""

from __future__ import annotations

import hashlib
from itertools import combinations
from random import Random

Edges = list[tuple[int, int]]


def _norm(pairs) -> Edges:
    return sorted((min(u, v), max(u, v)) for u, v in pairs)


def edges_digest(n: int, edges: Edges) -> str:
    """Short digest of a generated graph, used to detect generator drift."""
    text = f"{n}:" + ";".join(f"{u},{v}" for u, v in edges)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def is_biconnected(n: int, edges: Edges) -> bool:
    """Connected with no cut vertex (checked by deleting each vertex in turn)."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def connected_without(skip: int) -> bool:
        start = 2 if skip == 1 else 1
        seen = {start, skip}
        stack = [start]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == n + (skip == 0)

    return connected_without(0) and all(connected_without(v) for v in range(1, n + 1))


def random_nonseparable(rng: Random, n_min: int, n_max: int) -> tuple[int, Edges]:
    """Random 2-connected graph: a hamiltonian cycle plus 1..n extra chords."""
    n = rng.randint(n_min, n_max)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set(_norm(zip(order, order[1:] + order[:1])))
    extra = rng.randint(1, n)
    candidates = [p for p in combinations(range(1, n + 1), 2) if p not in edges]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return n, sorted(edges)


def random_cubic(rng: Random, n: int) -> tuple[int, Edges]:
    """Random simple cubic graph with no cut vertex, by pairing stubs."""
    if n % 2 or n < 4:
        raise ValueError(f"no cubic graph on {n} vertices")
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(pairs) != 3 * n // 2 or any(a == b for a, b in pairs):
            continue
        edges = sorted(pairs)
        if is_biconnected(n, edges):
            return n, edges


def relabel(rng: Random, n: int, edges: Edges) -> Edges:
    """The edges under a random permutation of the vertices."""
    image = list(range(1, n + 1))
    rng.shuffle(image)
    perm = [0] + image
    return _norm((perm[u], perm[v]) for u, v in edges)


def switch_edges(rng: Random, n: int, edges: Edges) -> Edges | None:
    """One degree-preserving double edge swap that keeps the graph simple
    and 2-connected, or None when 50 tries find none."""
    present = set(edges)
    for _ in range(50):
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        new1, new2 = (min(a, c), max(a, c)), (min(b, d), max(b, d))
        if a == c or b == d or new1 in present or new2 in present:
            continue
        out = sorted((present - {(a, b), (min(c, d), max(c, d))}) | {new1, new2})
        if is_biconnected(n, out):
            return out
    return None


def move_edge(rng: Random, n: int, edges: Edges) -> Edges | None:
    """Move one end of one edge so the degree multiset changes while the
    graph stays simple and 2-connected, or None when 50 tries find none."""
    present = set(edges)
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for _ in range(50):
        a, b = rng.choice(edges)
        if rng.random() < 0.5:
            a, b = b, a
        c = rng.randint(1, n)
        new = (min(a, c), max(a, c))
        if c in (a, b) or new in present or deg[b] == deg[c] + 1:
            continue
        out = sorted((present - {(min(a, b), max(a, b))}) | {new})
        if is_biconnected(n, out):
            return out
    return None


# --- named graphs -------------------------------------------------------------


def complete(k: int) -> tuple[int, Edges]:
    return k, list(combinations(range(1, k + 1), 2))


def octahedron() -> tuple[int, Edges]:
    return 6, [(u, v) for u, v in combinations(range(1, 7), 2) if (u + 1) // 2 != (v + 1) // 2]


def petersen() -> tuple[int, Edges]:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 6, (i + 2) % 5 + 6) for i in range(5)]
    return 10, _norm(outer + spokes + inner)


def hypercube(d: int) -> tuple[int, Edges]:
    return 1 << d, _norm(
        (v + 1, (v | 1 << k) + 1) for v in range(1 << d) for k in range(d) if not v >> k & 1
    )


def grid(rows: int, cols: int) -> tuple[int, Edges]:
    def vid(i: int, j: int) -> int:
        return i * cols + j + 1

    pairs = [(vid(i, j), vid(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    pairs += [(vid(i, j), vid(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return rows * cols, _norm(pairs)


def grid_squares(rows: int, cols: int) -> list[list[tuple[int, int]]]:
    """The unit squares of a grid, which are exactly its isometric cycles."""

    def vid(i: int, j: int) -> int:
        return i * cols + j + 1

    out = []
    for i in range(rows - 1):
        for j in range(cols - 1):
            a, b, c, d = vid(i, j), vid(i, j + 1), vid(i + 1, j), vid(i + 1, j + 1)
            out.append(_norm([(a, b), (a, c), (b, d), (c, d)]))
    return out


def rook_4x4() -> tuple[int, Edges]:
    return 16, [
        (i + 1, j + 1)
        for i, j in combinations(range(16), 2)
        if i // 4 == j // 4 or i % 4 == j % 4
    ]


def shrikhande() -> tuple[int, Edges]:
    diffs = ((0, 1), (1, 0), (1, 1))
    return 16, _norm(
        (a * 4 + b + 1, (a + da) % 4 * 4 + (b + db) % 4 + 1)
        for a in range(4)
        for b in range(4)
        for da, db in diffs
    )


# --- file formats -------------------------------------------------------------


def grf_text(n: int, edges: Edges) -> str:
    """Offset format: vertex count, n+1 cumulative offsets, neighbour lists."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    offsets = [1]
    for v in range(1, n + 1):
        offsets.append(offsets[-1] + len(adj[v]))
    lines = [f"{{ generated }} {n}", " ".join(map(str, offsets))]
    lines += [" ".join(map(str, sorted(adj[v]))) for v in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def edgelist_text(edges: Edges) -> str:
    """Edge-list format; the listed order is the file's edge numbering."""
    return "# generated\n" + "".join(f"{u} {v}\n" for u, v in edges)
