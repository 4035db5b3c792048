"""Edge-cut and edge-cycle spectra with their weight invariants.

The base cut of an edge (u,v) is the ring sum of the central cuts of its
endpoints; the base cycle of an edge is the ring sum of the isometric
cycles through it, corrected by the rim when the edge lies on it.  Either
base table is a symmetric 0/1 matrix M over GF(2) with an empty diagonal,
and level l of its spectrum holds the rows of M^(l+1): each row applies
the gamma transform to its previous value.  The build does that step with
8-bit Four-Russians tables of M (Arlazarov et al. 1970): the base rows go
in chunks of 8, each chunk gets a 256-entry table of its XOR combinations,
and a row's next value is the XOR of one table entry per byte of the row,
ceil(m/8) lookups instead of one XOR per set bit.  A row dies (shows an
empty cell) the moment its value is zero or repeats an earlier value of
the same row.  Construction stops when every row is dead or at an
explicit level cap.  Because every power of M is symmetric, the weight of
edge e at a level is the popcount of row e masked by the rows still alive
there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NotNonseparable, VertexOutOfRange
from .graphs import EdgeSet, Graph, central_cut, is_nonseparable
from .isometric import isometric_cycles

Cell = EdgeSet | None


def rle(values: Sequence[int]) -> str:
    """Run-length rendering of a cortege: 14, 2×19, 4×24."""
    parts = []
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and values[j] == values[i]:
            j += 1
        count = j - i
        parts.append(str(values[i]) if count == 1 else f"{count}×{values[i]}")
        i = j
    return ", ".join(parts)


@dataclass(frozen=True)
class Invariant:
    """Sorted edge and vertex weight corteges."""

    edge_cortege: tuple[int, ...]
    vertex_cortege: tuple[int, ...]

    @classmethod
    def from_weights(cls, edge_w: Sequence[int], vertex_w: Sequence[int]) -> "Invariant":
        return cls(tuple(sorted(edge_w)), tuple(sorted(vertex_w)))

    def __str__(self) -> str:
        return f"({rle(self.edge_cortege)}) & ({rle(self.vertex_cortege)})"


@dataclass(frozen=True)
class LevelWeights:
    """Weights per level plus their columnwise total."""

    per_level: tuple[tuple[int, ...], ...]
    total: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Iterated gamma table over a base of per-edge summands.

    rows[l][e - 1] is row e of M^(l+1); bit e - 1 of alive[l] is set while
    that row lives.  levels, cell and row show dead rows as None.
    """

    kind: str
    graph: Graph
    rows: tuple[tuple[int, ...], ...]
    alive: tuple[int, ...]
    truncated: bool

    @property
    def level_count(self) -> int:
        return sum(1 for mask in self.alive if mask)

    @property
    def levels(self) -> tuple[tuple[Cell, ...], ...]:
        return tuple(
            tuple(self.cell(l, e) for e in self.graph.edge_ids)
            for l in range(len(self.rows))
        )

    def cell(self, level: int, e: int) -> Cell:
        if not 0 <= level < len(self.rows):
            raise VertexOutOfRange(f"level {level} outside 0..{len(self.rows) - 1}")
        if not 1 <= e <= self.graph.m:
            raise VertexOutOfRange(f"edge id {e} outside 1..{self.graph.m}")
        if not (self.alive[level] >> (e - 1)) & 1:
            return None
        return EdgeSet.from_bits(self.graph.m, self.rows[level][e - 1])

    def row(self, e: int) -> tuple[Cell, ...]:
        return tuple(self.cell(l, e) for l in range(len(self.rows)))

    def __repr__(self) -> str:
        return (
            f"Spectrum(kind={self.kind!r}, levels={len(self.rows)}, "
            f"level_count={self.level_count}, truncated={self.truncated})"
        )


def _ring_sum_of(bits: int, base: Sequence[int]) -> int:
    """Ring sum of base[i] over the set bits i of bits."""
    acc = 0
    while bits:
        low = bits & -bits
        acc ^= base[low.bit_length() - 1]
        bits ^= low
    return acc


def gamma(s: EdgeSet, base: Sequence[EdgeSet]) -> EdgeSet:
    """Ring sum of the base summands of all edges in s."""
    return EdgeSet.from_bits(s.m, _ring_sum_of(s.bits, [b.bits for b in base]))


def base_edge_cuts(g: Graph) -> tuple[EdgeSet, ...]:
    """w0(e) for every edge: ring sum of the endpoint central cuts."""
    cut = [None] + [central_cut(g, v) for v in g.vertices]
    out = []
    for u, v in g.edges:
        out.append(cut[u] ^ cut[v])
    return tuple(out)


def gamma_w(g: Graph, s: EdgeSet) -> EdgeSet:
    """Gamma transform of s over the base edge cuts of g."""
    return gamma(s, base_edge_cuts(g))


def _byte_tables(matrix: Sequence[int]) -> tuple[list[int], ...]:
    """Four-Russians tables: table c, entry x is the XOR of the rows
    matrix[8c + i] over the set bits i of x."""
    tables = []
    for c in range(0, len(matrix), 8):
        t = [0]
        for b in matrix[c : c + 8]:
            t += [x ^ b for x in t]
        tables.append(t)
    return tuple(tables)


def _table_sum(bits: int, tables: Sequence[list[int]]) -> int:
    """Ring sum of the base rows named by bits, one lookup per byte of bits;
    byte c of bits is (bits >> 8c) & 255 and indexes tables[c]."""
    acc = 0
    for t, byte in zip(tables, bits.to_bytes(len(tables), "little")):
        acc ^= t[byte]
    return acc


def _symmetric_with_empty_diagonal(matrix: Sequence[int]) -> bool:
    """Whether bit j of row i always equals bit i of row j and no row holds
    its own bit; only the set bits are visited."""
    for i, r in enumerate(matrix):
        if (r >> i) & 1:
            return False
        while r:
            low = r & -r
            if not (matrix[low.bit_length() - 1] >> i) & 1:
                return False
            r ^= low
    return True


def _build(kind: str, g: Graph, base: tuple[EdgeSet, ...], level_cap: int | None) -> Spectrum:
    if level_cap is not None and level_cap < 1:
        raise VertexOutOfRange(f"level cap {level_cap} must be at least 1")
    matrix = tuple(b.bits for b in base)
    # every power of a symmetric M is symmetric, which the masked-popcount
    # weights rely on
    assert _symmetric_with_empty_diagonal(matrix)
    rows = [matrix]
    alive = sum(1 << i for i, r in enumerate(matrix) if r)
    alives = [alive]
    # a row dies on reaching zero or any value it has held before
    seen = [{0, r} for r in matrix]
    truncated = False
    tables = None
    while alive:
        if level_cap is not None and len(rows) >= level_cap:
            truncated = True
            break
        if tables is None:
            tables = _byte_tables(matrix)
        nxt = tuple(_table_sum(r, tables) for r in rows[-1])
        for i, r in enumerate(nxt):
            if (alive >> i) & 1:
                if r in seen[i]:
                    alive ^= 1 << i
                else:
                    seen[i].add(r)
        if not alive:
            break
        rows.append(nxt)
        alives.append(alive)
    return Spectrum(kind, g, tuple(rows), tuple(alives), truncated)


def build_cut_spectrum(g: Graph, level_cap: int | None = None) -> Spectrum:
    """Iterated gamma table over the base edge cuts of a nonseparable graph."""
    report = is_nonseparable(g)
    if not report:
        raise NotNonseparable(report.reason)
    return _build("cut", g, base_edge_cuts(g), level_cap)


def cut_spectrum_unchecked(g: Graph, level_cap: int | None = None) -> Spectrum:
    """Cut spectrum without the nonseparability gate; the tree invariant
    uses this on trees, where cuts are defined but cycles are not."""
    return _build("cut", g, base_edge_cuts(g), level_cap)


def rim(g: Graph, cycles: tuple[EdgeSet, ...] | None = None) -> EdgeSet:
    """Ring sum of all isometric cycles."""
    if cycles is None:
        cycles = isometric_cycles(g)
    acc = 0
    for c in cycles:
        acc ^= c.bits
    return EdgeSet.from_bits(g.m, acc)


def base_edge_cycles(
    g: Graph, cycles: tuple[EdgeSet, ...] | None = None
) -> tuple[EdgeSet, ...]:
    """tau0(e): ring sum of the isometric cycles through e, plus the rim
    when e lies on the rim.  The result never contains e itself."""
    if cycles is None:
        cycles = isometric_cycles(g)
    acc = [0] * (g.m + 1)
    rim_bits = 0
    for c in cycles:
        rim_bits ^= c.bits
        for e in c:
            acc[e] ^= c.bits
    out = []
    for e in g.edge_ids:
        bits = acc[e]
        if (rim_bits >> (e - 1)) & 1:
            bits ^= rim_bits
        out.append(EdgeSet.from_bits(g.m, bits))
    return tuple(out)


def build_cycle_spectrum(
    g: Graph,
    level_cap: int | None = 1,
    cycles: tuple[EdgeSet, ...] | None = None,
) -> Spectrum:
    """Iterated gamma table over the base edge cycles of a nonseparable graph."""
    report = is_nonseparable(g)
    if not report:
        raise NotNonseparable(report.reason)
    return _build("cycle", g, base_edge_cycles(g, cycles), level_cap)


def spectrum_edge_weights(spec: Spectrum) -> LevelWeights:
    """Column weights: xi_l(e) counts the level-l cells containing e.

    M^(l+1) is symmetric, so xi_l(e) is the popcount of row e ANDed with
    the mask of the rows alive at level l.
    """
    per_level = [
        tuple((r & alive).bit_count() for r in rows)
        for rows, alive in zip(spec.rows, spec.alive)
    ]
    return LevelWeights(tuple(per_level), tuple(map(sum, zip(*per_level))))


def vertex_weights(spec: Spectrum, edge_weights: LevelWeights | None = None) -> LevelWeights:
    """zeta_l(v): sum of xi_l over the edges incident to v."""
    if edge_weights is None:
        edge_weights = spectrum_edge_weights(spec)
    g = spec.graph
    per_level = []
    for xi in edge_weights.per_level:
        zeta = [0] * (g.n + 1)
        for (u, v), x in zip(g.edges, xi):
            zeta[u] += x
            zeta[v] += x
        per_level.append(tuple(zeta[1:]))
    return LevelWeights(tuple(per_level), tuple(map(sum, zip(*per_level))))


@dataclass(frozen=True)
class SpectrumInvariant:
    """Digital invariant of a spectrum: total and per-level sorted corteges.

    truncated records that a level cap cut the construction short, which
    makes level_count a lower bound rather than the natural count.
    """

    kind: str
    level_count: int
    truncated: bool
    total: Invariant
    per_level: tuple[Invariant, ...]

    def __str__(self) -> str:
        return str(self.total)


def spectrum_invariant(spec: Spectrum) -> SpectrumInvariant:
    xi = spectrum_edge_weights(spec)
    zeta = vertex_weights(spec, xi)
    per_level = tuple(
        Invariant.from_weights(xi.per_level[l], zeta.per_level[l])
        for l in range(len(spec.rows))
    )
    total = Invariant.from_weights(xi.total, zeta.total)
    return SpectrumInvariant(
        spec.kind, spec.level_count, spec.truncated, total, per_level
    )


def invariant_IS(g: Graph, level_cap: int | None = None) -> SpectrumInvariant:
    """Digital invariant of the cut spectrum (all levels by default)."""
    return spectrum_invariant(build_cut_spectrum(g, level_cap))


def invariant_IC(g: Graph, level_cap: int | None = 1) -> SpectrumInvariant:
    """Digital invariant of the cycle spectrum (base level by default)."""
    return spectrum_invariant(build_cycle_spectrum(g, level_cap))
