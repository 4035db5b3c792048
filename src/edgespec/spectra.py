"""Edge-cut and edge-cycle spectra with their weight invariants.

The base cut of an edge (u,v) is the ring sum of the central cuts of its
endpoints; the base cycle of an edge is the ring sum of the isometric
cycles through it, corrected by the rim when the edge lies on it.  Either
base table is a 0/1 matrix M over GF(2) with a sparse factor, M = W·Wᵀ,
and level l of its spectrum holds the rows of M^(l+1): each row applies
the gamma transform to its previous value.  For cuts the columns of W
are the central cuts, W = Bᵀ for the vertex-edge incidence matrix B, so
M = BᵀB.  For cycles they are the isometric cycles plus the rim, their
ring sum, so tau0 = Y·Yᵀ.  A _Builder takes the columns as edge masks
and appends their ring sum itself: the rim for cycles, and 0 for cuts,
as every edge lies in two central cuts.  Row e of M is the XOR of the
columns that hold e, built in one loop over the columns' set bits.  The
public base tables wrap these rows once, at the end.

Such an M is symmetric with an empty diagonal for any list of columns,
so the build checks neither.  Bit f of row e counts, mod 2, the columns
that hold both e and f, and so does bit e of row f.  Bit e of row e
counts the columns that hold e, and the appended ring sum holds e
exactly when an odd number of the others do, so that count is even.
That holds for the columns of any caller, build_cycle_spectrum with
cycles of its own included.  Because every power of a symmetric M is
symmetric, the weight of edge e at a level is the popcount of row e
masked by the rows still alive there.

The build takes each level step through W in two sparse XOR passes,
about 3m XORs per level for cuts whatever the density.  It builds the
step from the same columns only for the first step past the base level,
after checking that the step maps the identity to M.  A row dies (shows
an empty cell) the moment its value is zero or repeats an earlier value
of the same row.  Construction stops when every row is dead or at an
explicit level cap.

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

The level loop is resumable, and the only place a level is weighed: a
_Builder records each level's (xi, zeta) through _level_weights as it
closes the level and keeps only the last level's rows, all the next step
needs.  Only spectrum() keeps every level's rows, for a Spectrum, which
carries the recorded weights too; a deep spectrum's rows outweigh its
weights and per-level invariants together.  The engine reads builder
weights; its compare cascade stops at the first level that differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, zip_longest
from operator import itemgetter, xor
from typing import Callable, Iterable, Sequence

from .errors import NotNonseparable, VertexOutOfRange
from .graphs import EdgeSet, Graph, bit_ids, is_nonseparable
from .isometric import _cycle_masks

Cell = EdgeSet | None
Weights = tuple[tuple[int, ...], tuple[int, ...]]


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
    that row lives, and weights[l] is level l's (xi, zeta).  levels, cell
    and row show dead rows as None.
    """

    kind: str
    graph: Graph
    rows: tuple[tuple[int, ...], ...]
    alive: tuple[int, ...]
    truncated: bool
    weights: tuple[Weights, ...]

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


def _wrap(g: Graph, rows: Iterable[int]) -> tuple[EdgeSet, ...]:
    return tuple(EdgeSet.from_bits(g.m, r) for r in rows)


def _vertex_cuts(g: Graph) -> list[int]:
    """The central cut of every vertex as a mask: the columns of the
    incidence factor, with BᵀB = the base edge cuts."""
    inc = [0] * (g.n + 1)
    for e, (u, v) in enumerate(g.edges):
        inc[u] |= 1 << e
        inc[v] |= 1 << e
    return inc[1:]


def base_edge_cuts(g: Graph) -> tuple[EdgeSet, ...]:
    """w0(e) for every edge: ring sum of the endpoint central cuts."""
    return _wrap(g, _cut_builder(g, None).base)


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

    A longest slot at least 2 longer than the second longest has its tail
    past that XORed by one gather and reduce, not by one two-entry column
    of pass one per entry: the cycle factor's rim, or a hub's edges, can
    be m long where the other slots hold a few edges.
    """
    # longest first, so pass one's later columns cover a prefix of the
    # slots; the empty group at the end gives sums its zero
    slots = sorted(slots, key=len, reverse=True)
    holders: list[list[int]] = [[] for _ in range(m + 1)]
    for s, slot in enumerate(slots):
        for e in slot:
            holders[e].append(s)
    second = _xor_pass(holders, len(slots))
    split = len(slots[1]) if len(slots) > 1 else 0
    if len(slots[0]) - split < 2:
        first = _xor_pass([*slots, ()], 0)

        def step(padded: tuple[int, ...]) -> tuple[int, ...]:
            return _xor_columns(second, _xor_columns(first, padded))

        return step

    first = _xor_pass([slots[0][:split], *slots[1:], ()], 0)
    tail = itemgetter(*slots[0][split:])

    def folded(padded: tuple[int, ...]) -> tuple[int, ...]:
        sums = _xor_columns(first, padded)
        return _xor_columns(second, (sums[0] ^ reduce(xor, tail(padded)), *sums[1:]))

    return folded


class _Builder:
    """The level loop of one spectrum, resumable.

    extend(until) runs the loop until `until` levels exist (every level
    for None), the level cap is reached or every row is dead, appends each
    new level's (xi, zeta) to weights, and keeps the last rows, alive mask,
    live sets and factor step for the next call.  Each live row's set of
    held values grows through level m and is only read after that, when
    every row runs purely periodically (see the module docstring), so it
    never holds more than m + 2 values.  After any call, done tells
    whether the spectrum is complete: every row is dead, or the cap was
    reached with rows still alive, which sets truncated.

    The builder takes edge masks of the factor W and appends their ring
    sum; the columns attribute holds all of W's columns, and base the rows
    of M = W·Wᵀ, symmetric with an empty diagonal (see the module
    docstring).  The level step is built from the same columns, on the
    first step past the base level.
    """

    def __init__(
        self, kind: str, g: Graph, columns: Sequence[int], level_cap: int | None
    ) -> None:
        if level_cap is not None and level_cap < 1:
            raise VertexOutOfRange(f"level cap {level_cap} must be at least 1")
        self.columns = [*columns, reduce(xor, columns, 0)]
        # row e is the XOR of the columns that hold e
        rows = [0] * g.m
        for c in self.columns:
            bits = c
            while bits:
                low = bits & -bits
                rows[low.bit_length() - 1] ^= c
                bits ^= low
        self.base = matrix = tuple(rows)
        self.kind = kind
        self.graph = g
        self.alive = sum(1 << i for i, r in enumerate(matrix) if r)
        self.weights = [_level_weights(g, matrix, self.alive)]
        # a row dies on reaching zero or any value it has held before; live
        # pairs each live row's edge id with zero and the values it has
        # held, through level m
        self._live = [(e, {0, r}) for e, r in enumerate(matrix, start=1) if r]
        self.truncated = False
        self._cap = level_cap
        self._step = None
        self._padded = (0, *matrix)
        self._kept: list[tuple[tuple[int, ...], int]] | None = None

    @property
    def done(self) -> bool:
        return self.truncated or not self.alive

    @property
    def level_count(self) -> int:
        # only the base can lack a live row, and a live base row e has xi(e) > 0
        return len(self.weights) if any(self.weights[0][0]) else 0

    def extend(self, until: int | None) -> None:
        weights, live, kept = self.weights, self._live, self._kept
        alive, step, padded, cap = self.alive, self._step, self._padded, self._cap
        m = self.graph.m
        while alive:
            if cap is not None and len(weights) >= cap:
                self.truncated = True
                break
            if until is not None and len(weights) >= until:
                break
            if step is None:
                step = _factor_step(m, [bit_ids(c) for c in self.columns])
                # the factor must reproduce the base: M·I = M
                assert step((0, *(1 << i for i in range(m)))) == padded
            padded = step(padded)
            dead = 0
            if len(weights) <= m:
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
            rows = padded[1:]
            weights.append(_level_weights(self.graph, rows, alive))
            if kept is not None:
                kept.append((rows, alive))
        self.alive, self._step, self._padded, self._live = alive, step, padded, live

    def spectrum(self) -> Spectrum:
        """Run a fresh builder to the end, keeping every level's rows."""
        self._kept = [(self._padded[1:], self.alive)]
        self.extend(None)
        rows, alive = zip(*self._kept)
        return Spectrum(self.kind, self.graph, rows, alive, self.truncated, tuple(self.weights))

    def invariant(self) -> SpectrumInvariant:
        self.extend(None)
        return spectrum_invariant(self)

    def vertex_weights(self) -> LevelWeights:
        self.extend(None)
        return vertex_weights(self)


def _check_nonseparable(g: Graph) -> None:
    report = is_nonseparable(g)
    if not report:
        raise NotNonseparable(report.reason)


def _cut_builder(g: Graph, level_cap: int | None) -> _Builder:
    """Cut spectrum builder without the nonseparability gate."""
    return _Builder("cut", g, _vertex_cuts(g), level_cap)


def build_cut_spectrum(g: Graph, level_cap: int | None = None) -> Spectrum:
    """Iterated gamma table over the base edge cuts of a nonseparable graph."""
    _check_nonseparable(g)
    return _cut_builder(g, level_cap).spectrum()


def cut_spectrum_unchecked(g: Graph, level_cap: int | None = None) -> Spectrum:
    """Cut spectrum without the nonseparability gate, for trees, where
    cuts are defined but cycles are not.  No command or engine path calls
    it: the tree invariant weighs its levels through the builder and keeps
    no rows.  It stays in the package: perfbench traces it by name, and
    the tree oracle tests call it."""
    return _cut_builder(g, level_cap).spectrum()


def _masks(g: Graph, cycles: tuple[EdgeSet, ...] | None) -> Sequence[int]:
    """The masks of the given cycles, or of g's isometric cycles."""
    return _cycle_masks(g) if cycles is None else [c.bits for c in cycles]


def rim(g: Graph, cycles: tuple[EdgeSet, ...] | None = None) -> EdgeSet:
    """Ring sum of all isometric cycles."""
    return EdgeSet.from_bits(g.m, reduce(xor, _masks(g, cycles), 0))


def base_edge_cycles(
    g: Graph, cycles: tuple[EdgeSet, ...] | None = None
) -> tuple[EdgeSet, ...]:
    """tau0(e): ring sum of the isometric cycles through e, plus the rim
    when e lies on the rim.  The result never contains e itself."""
    return _wrap(g, _cycle_builder(g, None, _masks(g, cycles)).base)


def _cycle_builder(g: Graph, level_cap: int | None, masks: Sequence[int]) -> _Builder:
    """Cycle spectrum builder over the isometric cycles' masks, without the
    nonseparability gate, for callers that checked g when they built its
    cut spectrum."""
    return _Builder("cycle", g, masks, level_cap)


def build_cycle_spectrum(
    g: Graph,
    level_cap: int | None = 1,
    cycles: tuple[EdgeSet, ...] | None = None,
) -> Spectrum:
    """Iterated gamma table over the base edge cycles of a nonseparable graph."""
    _check_nonseparable(g)
    return _cycle_builder(g, level_cap, _masks(g, cycles)).spectrum()


def _vertex_sums(g: Graph, xi: Sequence[int]) -> list[int]:
    """zeta of one level: xi summed over the edges incident to each vertex."""
    zeta = [0] * (g.n + 1)
    for (u, v), x in zip(g.edges, xi):
        zeta[u] += x
        zeta[v] += x
    del zeta[0]
    return zeta


def _level_weights(g: Graph, rows: Sequence[int], alive: int) -> Weights:
    """xi and zeta of one level from its rows and alive mask: xi_l(e), the
    level-l cells containing e, is row e's popcount masked by the alive rows."""
    xi = [(r & alive).bit_count() for r in rows]
    return tuple(xi), tuple(_vertex_sums(g, xi))


def _level_table(per_level: Iterable[tuple[int, ...]]) -> LevelWeights:
    per_level = tuple(per_level)
    return LevelWeights(per_level, tuple(map(sum, zip(*per_level))))


def spectrum_edge_weights(spec: Spectrum | _Builder) -> LevelWeights:
    """xi_l(e) for every level, as recorded with the spectrum."""
    return _level_table(xi for xi, _ in spec.weights)


def vertex_weights(spec: Spectrum | _Builder) -> LevelWeights:
    """zeta_l(v), xi_l summed at v, as recorded."""
    return _level_table(zeta for _, zeta in spec.weights)


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


def spectrum_invariant(spec: Spectrum | _Builder) -> SpectrumInvariant:
    """Invariant of a spectrum, or of a builder run to its end."""
    return SpectrumInvariant(
        spec.kind,
        spec.level_count,
        spec.truncated,
        _total_invariant(spec.weights),
        tuple(Invariant.from_weights(xi, zeta) for xi, zeta in spec.weights),
    )


def invariant_IS(g: Graph, level_cap: int | None = None) -> SpectrumInvariant:
    """Digital invariant of the cut spectrum (all levels by default)."""
    return spectrum_invariant(build_cut_spectrum(g, level_cap))


def invariant_IC(g: Graph, level_cap: int | None = 1) -> SpectrumInvariant:
    """Digital invariant of the cycle spectrum (base level by default)."""
    return spectrum_invariant(build_cycle_spectrum(g, level_cap))
