"""GF(2) linear algebra over edge sets.

Vectors are EdgeSet bit masks; elimination pivots on the lowest set bit,
so results are independent of insertion order only where linear algebra
says they must be (rank, span membership).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from edgespec import EdgeSet, Graph, LengthMismatch


class Gf2Basis:
    """Incremental GF(2) basis with decomposition tracking.

    Every vector offered through add() gets an index; decompose() expresses
    a vector as a XOR of previously added independent vectors and returns
    their indices.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self._pivots: dict[int, tuple[int, int]] = {}
        self._count = 0
        self.rank = 0

    def _reduce(self, bits: int) -> tuple[int, int]:
        combo = 0
        while bits:
            low = bits & -bits
            hit = self._pivots.get(low)
            if hit is None:
                break
            bits ^= hit[0]
            combo ^= hit[1]
        return bits, combo

    def add(self, vec: EdgeSet) -> bool:
        """Insert vec; True when it was independent of the basis so far."""
        if vec.m != self.width:
            raise LengthMismatch(f"widths differ: {vec.m} vs {self.width}")
        idx = self._count
        self._count += 1
        bits, combo = self._reduce(vec.bits)
        if bits == 0:
            return False
        self._pivots[bits & -bits] = (bits, combo | (1 << idx))
        self.rank += 1
        return True

    def contains(self, vec: EdgeSet) -> bool:
        if vec.m != self.width:
            raise LengthMismatch(f"widths differ: {vec.m} vs {self.width}")
        bits, _ = self._reduce(vec.bits)
        return bits == 0

    def decompose(self, vec: EdgeSet) -> tuple[int, ...] | None:
        """Indices of added vectors XORing to vec, or None if outside the span."""
        if vec.m != self.width:
            raise LengthMismatch(f"widths differ: {vec.m} vs {self.width}")
        bits, combo = self._reduce(vec.bits)
        if bits != 0:
            return None
        out = []
        while combo:
            low = combo & -combo
            out.append(low.bit_length() - 1)
            combo ^= low
        return tuple(out)


def gf2_rank(vectors: Iterable[EdgeSet]) -> int:
    """Rank of the given edge-set vectors over GF(2)."""
    basis: Gf2Basis | None = None
    for v in vectors:
        if basis is None:
            basis = Gf2Basis(v.m)
        basis.add(v)
    return 0 if basis is None else basis.rank


def spanning_tree(g: Graph) -> EdgeSet:
    """BFS spanning tree from vertex 1, neighbors visited in ascending order."""
    seen = [False] * (g.n + 1)
    seen[1] = True
    queue = deque([1])
    tree = 0
    while queue:
        v = queue.popleft()
        for u in g.adjacency(v):
            if not seen[u]:
                seen[u] = True
                tree |= 1 << (g.edge_id(v, u) - 1)
                queue.append(u)
    return EdgeSet.from_bits(g.m, tree)


def fundamental_cycles(g: Graph, tree: EdgeSet) -> dict[int, EdgeSet]:
    """Fundamental cycle of each chord with respect to the given spanning tree."""
    path = _root_paths(g, tree)
    out: dict[int, EdgeSet] = {}
    for e in g.edge_ids:
        if e in tree:
            continue
        u, v = g.edge_endpoints(e)
        bits = path[u] ^ path[v] ^ (1 << (e - 1))
        out[e] = EdgeSet.from_bits(g.m, bits)
    return out


def fundamental_cuts(g: Graph, tree: EdgeSet) -> dict[int, EdgeSet]:
    """Fundamental cut of each tree branch: the branch plus the chords whose
    fundamental cycle passes through it."""
    cycles = fundamental_cycles(g, tree)
    out: dict[int, EdgeSet] = {}
    for b in g.edge_ids:
        if b not in tree:
            continue
        bits = 1 << (b - 1)
        for c, cyc in cycles.items():
            if b in cyc:
                bits |= 1 << (c - 1)
        out[b] = EdgeSet.from_bits(g.m, bits)
    return out


def _root_paths(g: Graph, tree: EdgeSet) -> list[int]:
    # bit mask of the tree path from vertex 1 to each vertex
    path = [0] * (g.n + 1)
    seen = [False] * (g.n + 1)
    seen[1] = True
    queue = deque([1])
    reached = 1
    while queue:
        v = queue.popleft()
        for u in g.adjacency(v):
            if seen[u]:
                continue
            e = g.edge_id(v, u)
            if e not in tree:
                continue
            seen[u] = True
            reached += 1
            path[u] = path[v] | (1 << (e - 1))
            queue.append(u)
    if reached != g.n:
        raise LengthMismatch("edge set is not a spanning tree of the graph")
    return path


def is_quasicycle(g: Graph, s: EdgeSet) -> bool:
    """True when every vertex meets an even number of edges of s.

    These are exactly the members of the cycle space; the empty set counts.
    """
    deg = [0] * (g.n + 1)
    for e in s:
        u, v = g.edge_endpoints(e)
        deg[u] += 1
        deg[v] += 1
    return all(d % 2 == 0 for d in deg)


def even_intersection(a: EdgeSet, b: EdgeSet) -> bool:
    """True when |a ∩ b| is even."""
    if a.m != b.m:
        raise LengthMismatch(f"widths differ: {a.m} vs {b.m}")
    return (a.bits & b.bits).bit_count() % 2 == 0


def cycle_cut_intersection_dimension(g: Graph) -> int:
    """Dimension of the intersection of the cycle space and the cut space.

    Reported, not asserted: dim(C) + dim(S) - dim(C + S).
    """
    tree = spanning_tree(g)
    cyc = list(fundamental_cycles(g, tree).values())
    cuts = list(fundamental_cuts(g, tree).values())
    dim_c = gf2_rank(cyc)
    dim_s = gf2_rank(cuts)
    dim_sum = gf2_rank(cyc + cuts)
    return dim_c + dim_s - dim_sum
