"""Edge-cut and edge-cycle spectra with their weight invariants.

The base cut of an edge (u,v) is the ring sum of the central cuts of its
endpoints; the base cycle of an edge is the ring sum of the isometric
cycles through it, corrected by the rim when the edge lies on it.  Either
base table is a symmetric 0/1 matrix M over GF(2) with an empty diagonal,
and level l of its spectrum holds the rows of M^(l+1): each row applies
the gamma transform to its previous value.  M has a sparse factor, M =
W·Wᵀ.  For cuts W is the edge-vertex incidence matrix Bᵀ, so M = BᵀB:
two edges sharing one endpoint meet once, and an edge meets itself twice,
which is 0.  For cycles W is Y, the edge-cycle incidence matrix of the
isometric cycles plus one column for the rim, so tau0 = Y·Yᵀ.  The build
takes each level step through W in two sparse XOR passes, about 3m XORs
per level for cuts whatever the density, and builds W only for the first
step past the base level, after checking that the step maps the identity
to M.  A row dies (shows an empty cell) the moment its value is zero or
repeats an earlier value of the same row.  Construction stops when every
row is dead or at an explicit level cap.  Because every power of M is
symmetric, the weight of edge e at a level is the popcount of row e
masked by the rows still alive there.

Each live row keeps the set of values it has held, but only through
level m, the edge count; past it the death check only looks values up.
That is exact.  The rank of M^k falls strictly until it stops, at some
k = N <= m, and then GF(2)^m = ker M^N ⊕ im M^N with M nilpotent on the
first part and invertible on the second.  Level l holds row e of
M^(l+1), so from level N - 1 on every row lies in im M^N and runs purely
periodically: its first repeat is of a value it held by level N - 1, and
it reaches zero, if ever, by then too.  On the cubic graphs of the
benchmark's cut_deep workload the adds were about a quarter of a level's
build time, and the sets would otherwise hold one value per level.

The level loop is resumable.  A _Builder holds one spectrum's rows,
alive masks, live rows with the values each has held, and factor step;
extend(until) runs the loop until `until` levels exist, the cap is
reached or every row is dead, and a later call carries on from there.
A Spectrum is a builder run to the end.  The compare cascade in engine
extends two builders in lockstep and stops at the first level whose
invariants differ.  Both weigh each level once, through _level_weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, zip_longest
from operator import itemgetter, xor
from typing import Callable, Sequence

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


def _xor_pass(groups: Sequence[Sequence[int]], spare: int) -> tuple[itemgetter, ...]:
    """Gathers for one sparse XOR pass, which maps a sequence to the XOR
    of the entries each of two or more groups indexes; spare indexes a
    zero entry.

    Column c picks entry c of each group, or spare where a group is
    shorter.  The first two columns span every group; a later one ends
    after the last group longer than c, so groups sorted longest first
    need no padding there, but keeps two entries, so that every
    itemgetter returns a tuple.
    """
    lengths = [len(grp) for grp in groups]
    ends = [len(groups)] * 2 + [2] * (max(2, *lengths) - 2)
    for i, n in enumerate(lengths):
        for c in range(2, n):
            ends[c] = max(2, i + 1)
    # the extra pair makes two columns at least; no end reaches it
    columns = zip_longest(*groups, (spare, spare), fillvalue=spare)
    return tuple(itemgetter(*col[:end]) for col, end in zip(columns, ends))


def _xor_columns(columns: Sequence[itemgetter], seq: Sequence[int]) -> tuple[int, ...]:
    """Apply the gathers of _xor_pass to seq."""
    acc = map(xor, columns[0](seq), columns[1](seq))
    for col in columns[2:]:
        # the map stops when the shorter column runs out, before it draws
        # from acc, and chain goes on with the rest of acc
        acc = chain(map(xor, col(seq), acc), acc)
    return tuple(acc)


def _factor_step(
    m: int, slots: Sequence[Sequence[int]]
) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """Level step R -> M·R for a base M = W·Wᵀ over GF(2), where each slot
    lists the edge ids in one column of the sparse factor W.

    The step reads and returns rows padded with a zero at index 0, so
    entry e is row e.  Pass one XORs the rows over each slot into sums;
    pass two XORs, for each edge, the sums of the slots that hold it.
    That is about two XORs per entry of W, 3m for the cut factor.
    """
    # longest first, so pass one's later columns cover a prefix of the
    # slots; the empty group at the end gives sums its zero
    slots = sorted(slots, key=len, reverse=True)
    holders: list[list[int]] = [[] for _ in range(m + 1)]
    for s, slot in enumerate(slots):
        for e in slot:
            holders[e].append(s)
    first = _xor_pass([*slots, ()], 0)
    second = _xor_pass(holders, len(slots))

    def step(padded: tuple[int, ...]) -> tuple[int, ...]:
        return _xor_columns(second, _xor_columns(first, padded))

    return step


def _cut_slots(g: Graph) -> list[tuple[int, ...]]:
    """Columns of the incidence factor B with BᵀB = the base edge cuts:
    one slot per vertex, holding its incident edges."""
    return [g.incident_edges(v) for v in g.vertices]


def _cycle_slots(g: Graph, cycles: tuple[EdgeSet, ...]) -> list[tuple[int, ...]]:
    """Columns of Y with Y·Yᵀ = the base edge cycles: one slot per
    isometric cycle, plus the rim."""
    return [c.ids() for c in cycles] + [rim(g, cycles).ids()]


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


class _Builder:
    """The level loop of one spectrum, resumable.

    extend(until) runs the loop until `until` levels exist (every level
    for None), the level cap is reached or every row is dead, and keeps
    the rows, alive masks, live sets and factor step for the next call.
    Each live row's set of held values grows through level m and is only
    read after that, when every row runs purely periodically (see the
    module docstring), so it never holds more than m + 2 values.
    After any call, done tells whether the spectrum is complete: every
    row is dead, or the cap was reached with rows still alive, which
    sets truncated.  spectrum() runs the loop to the end.
    """

    def __init__(
        self,
        kind: str,
        g: Graph,
        base: tuple[EdgeSet, ...],
        slots: Callable[[], Sequence[Sequence[int]]],
        level_cap: int | None,
    ) -> None:
        if level_cap is not None and level_cap < 1:
            raise VertexOutOfRange(f"level cap {level_cap} must be at least 1")
        matrix = tuple(b.bits for b in base)
        # every power of a symmetric M is symmetric, which the masked-popcount
        # weights rely on
        assert _symmetric_with_empty_diagonal(matrix)
        self.kind = kind
        self.graph = g
        self.rows = [matrix]
        self.alive = sum(1 << i for i, r in enumerate(matrix) if r)
        self.alives = [self.alive]
        # a row dies on reaching zero or any value it has held before; live
        # pairs each live row's edge id with zero and the values it has
        # held, through level m
        self._live = [(e, {0, r}) for e, r in enumerate(matrix, start=1) if r]
        self.truncated = False
        self._cap = level_cap
        self._slots = slots
        self._step = None
        self._padded = (0, *matrix)

    @property
    def done(self) -> bool:
        return self.truncated or not self.alive

    def extend(self, until: int | None) -> None:
        rows, alives, live = self.rows, self.alives, self._live
        alive, step, padded, cap = self.alive, self._step, self._padded, self._cap
        m = self.graph.m
        while alive:
            if cap is not None and len(rows) >= cap:
                self.truncated = True
                break
            if until is not None and len(rows) >= until:
                break
            if step is None:
                step = _factor_step(m, self._slots())
                # the factor must reproduce the base: M·I = M
                assert step((0, *(1 << i for i in range(m)))) == padded
            padded = step(padded)
            dead = 0
            if len(rows) <= m:
                for e, seen in live:
                    r = padded[e]
                    if r in seen:
                        dead |= 1 << (e - 1)
                    else:
                        seen.add(r)
            else:
                # past level m every row repeats a value it held by then
                for e, seen in live:
                    if padded[e] in seen:
                        dead |= 1 << (e - 1)
            if dead:
                alive ^= dead
                if not alive:
                    break
                live = [(e, seen) for e, seen in live if (alive >> (e - 1)) & 1]
            rows.append(padded[1:])
            alives.append(alive)
        self.alive, self._step, self._padded, self._live = alive, step, padded, live

    def spectrum(self) -> Spectrum:
        self.extend(None)
        return Spectrum(
            self.kind, self.graph, tuple(self.rows), tuple(self.alives), self.truncated
        )


def _check_nonseparable(g: Graph) -> None:
    report = is_nonseparable(g)
    if not report:
        raise NotNonseparable(report.reason)


def _cut_builder(g: Graph, level_cap: int | None) -> _Builder:
    """Cut spectrum builder without the nonseparability gate."""
    return _Builder("cut", g, base_edge_cuts(g), lambda: _cut_slots(g), level_cap)


def build_cut_spectrum(g: Graph, level_cap: int | None = None) -> Spectrum:
    """Iterated gamma table over the base edge cuts of a nonseparable graph."""
    _check_nonseparable(g)
    return _cut_builder(g, level_cap).spectrum()


def cut_spectrum_unchecked(g: Graph, level_cap: int | None = None) -> Spectrum:
    """Cut spectrum without the nonseparability gate; the tree invariant
    uses this on trees, where cuts are defined but cycles are not."""
    return _cut_builder(g, level_cap).spectrum()


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


def _cycle_spectrum(
    g: Graph, level_cap: int | None, cycles: tuple[EdgeSet, ...] | None
) -> Spectrum:
    """Cycle spectrum without the nonseparability gate, for callers that
    checked g when they built its cut spectrum."""
    if cycles is None:
        cycles = isometric_cycles(g)
    return _Builder(
        "cycle",
        g,
        base_edge_cycles(g, cycles),
        lambda: _cycle_slots(g, cycles),
        level_cap,
    ).spectrum()


def build_cycle_spectrum(
    g: Graph,
    level_cap: int | None = 1,
    cycles: tuple[EdgeSet, ...] | None = None,
) -> Spectrum:
    """Iterated gamma table over the base edge cycles of a nonseparable graph."""
    _check_nonseparable(g)
    return _cycle_spectrum(g, level_cap, cycles)


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


def _vertex_sums(g: Graph, xi: Sequence[int]) -> list[int]:
    """zeta of one level: xi summed over the edges incident to each vertex."""
    zeta = [0] * (g.n + 1)
    for (u, v), x in zip(g.edges, xi):
        zeta[u] += x
        zeta[v] += x
    del zeta[0]
    return zeta


def vertex_weights(spec: Spectrum, edge_weights: LevelWeights | None = None) -> LevelWeights:
    """zeta_l(v): sum of xi_l over the edges incident to v."""
    if edge_weights is None:
        edge_weights = spectrum_edge_weights(spec)
    per_level = [tuple(_vertex_sums(spec.graph, xi)) for xi in edge_weights.per_level]
    return LevelWeights(tuple(per_level), tuple(map(sum, zip(*per_level))))


Weights = tuple[list[int], list[int]]


def _level_weights(g: Graph, rows: Sequence[int], alive: int) -> Weights:
    """xi and zeta of one level, from its rows and alive mask; the spectrum
    invariant and the compare cascade weigh every level through this."""
    xi = [(r & alive).bit_count() for r in rows]
    return xi, _vertex_sums(g, xi)


def _total_invariant(weights: Sequence[Weights]) -> Invariant:
    """Invariant of the columnwise totals of per-level weights."""
    xis, zetas = zip(*weights)
    return Invariant.from_weights(
        tuple(map(sum, zip(*xis))), tuple(map(sum, zip(*zetas)))
    )


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
    weights = [
        _level_weights(spec.graph, rows, alive)
        for rows, alive in zip(spec.rows, spec.alive)
    ]
    return SpectrumInvariant(
        spec.kind,
        spec.level_count,
        spec.truncated,
        _total_invariant(weights),
        tuple(Invariant.from_weights(xi, zeta) for xi, zeta in weights),
    )


def invariant_IS(g: Graph, level_cap: int | None = None) -> SpectrumInvariant:
    """Digital invariant of the cut spectrum (all levels by default)."""
    return spectrum_invariant(build_cut_spectrum(g, level_cap))


def invariant_IC(g: Graph, level_cap: int | None = 1) -> SpectrumInvariant:
    """Digital invariant of the cycle spectrum (base level by default)."""
    return spectrum_invariant(build_cycle_spectrum(g, level_cap))
