"""Edge-cut and edge-cycle spectra with their weight invariants.

The base cut of an edge (u,v) is the ring sum of the central cuts of its
endpoints; the base cycle of an edge is the ring sum of the isometric
cycles through it, corrected by the rim when the edge lies on it.  Either
base table is a 0/1 matrix M over GF(2) with a sparse factor, M = W·Wᵀ,
and level l of its spectrum holds the rows of M^(l+1): each row applies
the gamma transform to its previous value.  For cuts the columns of W
are the central cuts, W = Bᵀ for the vertex-edge incidence matrix B, so
M = BᵀB.  For cycles they are the isometric cycles plus the rim, their
ring sum, so tau0 = Y·Yᵀ.  A Spectrum takes the columns as edge masks
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
graphs._gather_pass with xor, about 3m XORs per level for cuts whatever
the density.  It builds the step from the same columns only for the
first step past the base level, after checking that the step maps the
identity to M.  A row dies (shows an empty cell) the moment its value
is zero or repeats an earlier value of the same row.  Construction
stops when every row is dead or at an explicit level cap.

Each live row keeps the set of values it has held, but only through
level m, the edge count; past it the death check only looks values up,
and from level m + K on, where the blocks below begin, no set is kept at
all.  That is exact.  The rank of M^k falls strictly until it stops, at
some k = N <= m, and then GF(2)^m = ker M^N ⊕ I, I = im M^N, with M
nilpotent on the first part and invertible on the second.  Write row e's
level-0 value as k + i, k in ker M^N and i in I.  Level l holds
M^l (k + i), which lies in I exactly from level nu on, nu the nilpotent
index of k; k is M times the kernel part of e's unit vector, so
nu <= N - 1 <= m - 1 (nu = 0 when N = 0).  Before nu the kernel parts
M^l k are nonzero and distinct, as one fixed by a power of M would never
reach zero, so no value repeats before nu, and none held before nu comes
back.  From nu on M permutes I, the row runs purely periodically, and
its first repeat is of its value at nu, which is zero if the row dies on
zero.  So every row dies on zero or on a value it held by level m - 1.
On the cubic graphs of the benchmark's cut_deep workload the adds were
about a quarter of a level's build time, and the sets would otherwise
hold one value per level.

Past level m + K, K = _BLOCK = 64, a spectrum of m <= 64 edges steps K
levels at once on packed rows: one int holds row e's values at K
consecutive levels, a value in each 64-bit lane.  Level l holds the rows
of M^(l+1), so level K - 1 holds those of M^K, and one gather pass over
them takes every lane K levels on: nnz(M^K) XORs of packed rows per
block, nnz(M^K)/K a level, against the factor step's 3m.  On the
cut_deep graphs that is 6.5 to 11 a level against 90 to 117.  An XOR of
packed rows costs about 4 plain ones (0.17 against 0.043 µs in the
gather pass, on 39 edges), and nnz(M^K) <= m^2 <= Km, so even a dense
M^K costs at most about 4Km plain XORs a block against the factor
steps' 3Km, and the block spares the per-level weighing besides.  A
wider row would take several lanes a value; on the one such graph
timed, a random cubic graph on 96 edges, that was slower than the
factor step, so wider rows keep it.  The first block is checked like
the factor: lane 0 of its packed rows must be one factor step of the
last level.

A row still alive there dies on its value at nu, its death value d_e:
the first value it held, in level order, that lies in I.  Since
K >= m >= N, I is the row space of M^K, which level K - 1 holds, and all rows of
levels 0 to m + K - 1 are in hand when the first block is built; so an
echelon basis of I gives each live row's d_e there, and the held-value
sets are released.  The row dies at the first lane of a block that holds
d_e, the first zero lane of x = packed[e] ^ d_e·ones, ones holding 1 in
every lane.  With low holding the low 63 bits of each lane and high its
top bit, high & ~(((x & low) + low) | x) sets the top bit of exactly the
zero lanes (Knuth, TAOCP 4A, 7.1.3), about six operations on one packed
row a block.  The alive mask of every lane follows.  The block is then
weighed with those masks, packed: xi_l(e) is a popcount per lane of row
e ANDed with the lane's alive mask, by sideways addition on the lanes of
one int, and zeta takes one add of packed counts per incidence.  Both are
unpacked per level, a last block only through its last live lane, and
the rows are unpacked only for a spectrum that keeps them.  The first
m + K levels keep the per-level loop: there the sets still grow, and there
the compare cascade's lockstep usually stops, where a block would weigh
levels that no one reads.

The level loop is one generator, _levels, and the only place a level is
weighed: it yields each level's (xi, zeta), alive mask and rows, through
_level_weights one level at a time and then from _blocks a block at a
time.  A Spectrum draws from it only the levels asked for.  Whether it
keeps every level's rows is fixed when it is made: the public build
functions keep them, and the engine's spectra keep none, the generator
holding only the rows its next step needs, since a deep spectrum's rows
outweigh its weights and per-level invariants together.  The engine
reads the recorded weights; its compare cascade stops at the first level
that differs, and builds no level past it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import reduce
from itertools import count
from operator import xor
from typing import Callable, Iterable, Iterator, Sequence

from .errors import NotNonseparable, VertexOutOfRange
from .graphs import EdgeSet, Graph, _gather_pass, bit_ids, is_nonseparable
from .isometric import _cycle_masks

Cell = EdgeSet | None
Weights = tuple[tuple[int, ...], tuple[int, ...]]

# levels per block of the deep path, and the bits of one lane, which
# holds a row's value when m <= _LANE
_BLOCK = 64
_LANE = 64


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


def _wrap(g: Graph, rows: Iterable[int]) -> tuple[EdgeSet, ...]:
    return tuple(EdgeSet.from_bits(g.m, r) for r in rows)


def base_edge_cuts(g: Graph) -> tuple[EdgeSet, ...]:
    """w0(e) for every edge: ring sum of the endpoint central cuts."""
    return _wrap(g, _cut_builder(g, None).base)


def _factor_step(m: int, slots: Sequence[Sequence[int]]) -> Callable[[Sequence[int]], list[int]]:
    """Level step R -> M·R for a base M = W·Wᵀ over GF(2), where each slot
    lists the edge ids in one column of the sparse factor W.

    The step reads and returns rows padded with a zero at index 0, so
    entry e is row e.  Pass one XORs the rows over each slot into sums;
    pass two XORs, for each edge, the sums of the slots that hold it.
    That is about two XORs per entry of W, 3m for the cut factor.
    """
    # longest first, so pass one's later columns cover a prefix of the
    # slots, and sums[0] is the zero entry; an empty slot adds nothing,
    # but one stays if all are, as a pass has two groups or more
    slots = sorted(filter(None, slots), key=len, reverse=True) or [()]
    holders: list[list[int]] = [[] for _ in range(m + 1)]
    for s, slot in enumerate(slots, start=1):
        for e in slot:
            holders[e].append(s)
    first, second = _gather_pass([(), *slots], xor), _gather_pass(holders, xor)

    def step(padded: Sequence[int]) -> list[int]:
        return second(first(padded))

    return step


class Spectrum:
    """Iterated gamma table over a base of per-edge summands: the levels
    of one spectrum drawn from its level loop, with each level's weights.

    The spectrum takes edge masks of the factor W and appends their ring
    sum; the columns attribute holds all of W's columns, and base the rows
    of M = W·Wᵀ, symmetric with an empty diagonal (see the module
    docstring); the level loop steps through the same columns.

    weights[l] is level l's (xi, zeta), and bit e - 1 of alive[l] is set
    while row e lives at level l.  A spectrum made with keep_rows keeps
    every level's rows, rows[l][e - 1] being row e of M^(l+1); levels,
    cell and row read them and show dead rows as None.  Otherwise rows is
    None, only the loop holds the rows its next step needs, and the
    views raise VertexOutOfRange, as no level lies in the table.

    The level loop is the generator _levels, held in _levels while a
    level may follow: it is None from the start when no base row is
    alive, and again once the spectrum has ended or reached its cap.
    extend(until) draws levels until `until` levels exist (every level
    for None), the level cap is reached or every row is dead.  Each live
    row's set of held values grows through level m and is only read after
    that, when every row runs purely periodically (see the module
    docstring), so it never holds more than m + 2 values.  Past level
    m + _BLOCK a spectrum of at most _LANE edges weighs a block of _BLOCK
    levels at once, and the loop yields them one by one, so a call that
    stops inside a block leaves the rest for the next call; there each row
    dies at its death value, and the sets are gone.  Reaching the
    cap with rows still alive sets truncated.
    """

    def __init__(
        self,
        kind: str,
        g: Graph,
        columns: Sequence[int],
        level_cap: int | None,
        keep_rows: bool = False,
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
        alive = sum(1 << i for i, r in enumerate(matrix) if r)
        self.alive = [alive]
        self.weights = [_level_weights(g, matrix, alive)]
        self.rows = [matrix] if keep_rows else None
        self.truncated = False
        self._cap = level_cap
        # the level loop from level 1 on, or None once no level follows
        self._levels = _levels(g, self.columns, matrix, alive, keep_rows) if alive else None

    @property
    def level_count(self) -> int:
        return sum(1 for mask in self.alive if mask)

    def extend(self, until: int | None) -> None:
        levels, cap = self._levels, self._cap
        weights, masks, kept = self.weights, self.alive, self.rows
        while levels is not None:
            if cap is not None and len(weights) >= cap:
                self.truncated = True
            elif until is not None and len(weights) >= until:
                return
            elif (level := next(levels, None)) is not None:
                w, alive, rows = level
                weights.append(w)
                masks.append(alive)
                if kept is not None:
                    kept.append(rows)
                continue
            # the cap is reached or every row is dead: no level follows
            self._levels = levels = None

    def _table(self) -> list[tuple[int, ...]]:
        """The kept rows of every level, which the views read."""
        if self.rows is None:
            raise VertexOutOfRange("no level lies in the table: the spectrum keeps no rows")
        return self.rows

    @property
    def levels(self) -> tuple[tuple[Cell, ...], ...]:
        return tuple(
            tuple(self.cell(l, e) for e in self.graph.edge_ids)
            for l in range(len(self._table()))
        )

    def cell(self, level: int, e: int) -> Cell:
        rows = self._table()
        if not 0 <= level < len(rows):
            raise VertexOutOfRange(f"level {level} outside 0..{len(rows) - 1}")
        if not 1 <= e <= self.graph.m:
            raise VertexOutOfRange(f"edge id {e} outside 1..{self.graph.m}")
        if not (self.alive[level] >> (e - 1)) & 1:
            return None
        return EdgeSet.from_bits(self.graph.m, rows[level][e - 1])

    def row(self, e: int) -> tuple[Cell, ...]:
        return tuple(self.cell(l, e) for l in range(len(self._table())))

    def __repr__(self) -> str:
        return (
            f"Spectrum(kind={self.kind!r}, levels={len(self.alive)}, "
            f"level_count={self.level_count}, truncated={self.truncated})"
        )


def _check_nonseparable(g: Graph) -> None:
    report = is_nonseparable(g)
    if not report:
        raise NotNonseparable(report.reason)


def _cut_builder(g: Graph, level_cap: int | None, keep_rows: bool = False) -> Spectrum:
    """Cut spectrum at its base level, without the nonseparability gate."""
    return Spectrum("cut", g, g._cut[1:], level_cap, keep_rows)


def build_cut_spectrum(g: Graph, level_cap: int | None = None) -> Spectrum:
    """Iterated gamma table over the base edge cuts of a nonseparable graph."""
    _check_nonseparable(g)
    spec = _cut_builder(g, level_cap, keep_rows=True)
    spec.extend(None)
    return spec


def cut_spectrum_unchecked(g: Graph, level_cap: int | None = None) -> Spectrum:
    """Cut spectrum without the nonseparability gate, for trees, where
    cuts are defined but cycles are not.  No command or engine path calls
    it: the tree invariant weighs its levels through a spectrum that keeps
    no rows.  It stays in the package: perfbench traces it by name, and
    the tree oracle tests call it."""
    spec = _cut_builder(g, level_cap, keep_rows=True)
    spec.extend(None)
    return spec


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
    return _wrap(g, Spectrum("cycle", g, _masks(g, cycles), None).base)


def build_cycle_spectrum(
    g: Graph,
    level_cap: int | None = 1,
    cycles: tuple[EdgeSet, ...] | None = None,
) -> Spectrum:
    """Iterated gamma table over the base edge cycles of a nonseparable graph."""
    _check_nonseparable(g)
    spec = Spectrum("cycle", g, _masks(g, cycles), level_cap, keep_rows=True)
    spec.extend(None)
    return spec


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


def _pack(values: Sequence[int]) -> int:
    """One int holding the values in turn, a 64-bit lane each."""
    return int.from_bytes(struct.pack(f"<{len(values)}Q", *values), "little")


def _unpack(packed: Sequence[int], lanes: int) -> tuple[int, ...]:
    """The first `lanes` lanes of every packed int, in turn."""
    keep = (1 << _LANE * lanes) - 1
    data = b"".join((x & keep).to_bytes(8 * lanes, "little") for x in packed)
    return struct.unpack(f"<{len(packed) * lanes}Q", data)


def _reduce(v: int, basis: dict[int, int]) -> int:
    """v less the members of an echelon basis keyed by their top bits:
    zero exactly when v lies in the basis's span."""
    while v and (b := basis.get(v.bit_length())):
        v ^= b
    return v


def _blocks(
    g: Graph,
    step: Callable[[Sequence[int]], list[int]],
    padded: list[int],
    recent: list[tuple[int, ...]],
    alive: int,
    keep_rows: bool,
) -> Iterator[tuple[Weights, int, tuple[int, ...] | None]]:
    """The levels from m + _BLOCK on as (weights, alive mask, rows), a
    block of _BLOCK levels at a time, until every row is dead; m is at
    most _LANE.  recent holds the rows of levels 0 to m + _BLOCK - 1,
    padded the last of them as step, the factor step, reads it, and alive
    is the last level's alive mask.  A live row dies at the first lane
    that holds its death value (see the module docstring)."""
    m = g.m
    # level l holds the rows of M^(l+1), so level _BLOCK - 1 those of
    # M^_BLOCK, and one gather pass over them takes every lane _BLOCK
    # levels on; entry e of packed holds row e at each level of a block
    power = recent[_BLOCK - 1]
    jump = _gather_pass([(), *map(bit_ids, power)], xor)
    packed = jump([0, *map(_pack, zip(*recent[m:]))])
    # lane 0 of the first block is the level after the last: one factor step
    assert [x & (1 << _LANE) - 1 for x in packed] == step(padded)
    ones = ((1 << _LANE * _BLOCK) - 1) // ((1 << _LANE) - 1)
    # an echelon basis of I = im M^_BLOCK, keyed by each member's top bit
    basis: dict[int, int] = {}
    for r in power:
        if r := _reduce(r, basis):
            basis[r.bit_length()] = r
    # each live row's death value, its first value in I, in every lane
    live = []
    for e in bit_ids(alive):
        history = (rows[e - 1] for rows in recent)
        death = next(v for v in history if not _reduce(v, basis))
        live.append((e, death * ones))
    # the caller's frame holds the same list, so empty it
    recent.clear()
    fives, threes, nibbles, counts = (
        c * ones for c in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x7F)
    )
    # the low 63 bits and the top bit of every lane
    low, high = 0x7FFFFFFFFFFFFFFF * ones, ones << _LANE - 1
    while True:
        # each live row's death lane: the first whose value is its death
        # value, the first zero lane of the XOR with it
        ends: dict[int, int] = {}
        survivors = []
        for e, death in live:
            x = packed[e] ^ death
            # the top bit of each zero lane (Knuth, TAOCP 4A, 7.1.3)
            zero = high & ~(((x & low) + low) | x)
            if zero:
                lane = (zero & -zero).bit_length() // _LANE - 1
                ends[lane] = ends.get(lane, 0) | 1 << (e - 1)
            else:
                survivors.append((e, death))
        live = survivors
        masks = []
        for j in range(_BLOCK):
            alive ^= ends.get(j, 0)
            if not alive:
                break
            masks.append(alive)
        if not masks:
            return
        lanes = len(masks)
        lane_alive = _pack(masks)
        # xi: a popcount per lane of the live cells
        xis = []
        for x in packed[1:]:
            x &= lane_alive
            x -= (x >> 1) & fives
            x = (x & threes) + ((x >> 2) & threes)
            x = (x + (x >> 4)) & nibbles
            x += x >> 8
            x += x >> 16
            x += x >> 32
            xis.append(x & counts)
        # zeta: xi added lane by lane over the edges at each vertex
        zetas = [0] * (g.n + 1)
        for (u, v), x in zip(g.edges, xis):
            zetas[u] += x
            zetas[v] += x
        # only the lanes that masks holds, fewer in a last block
        xi, zeta = _unpack(xis, lanes), _unpack(zetas[1:], lanes)
        values = _unpack(packed[1:], lanes) if keep_rows else None
        for j, mask in enumerate(masks):
            rows = values[j::lanes] if keep_rows else None
            yield (xi[j::lanes], zeta[j::lanes]), mask, rows
        if lanes < _BLOCK:
            return
        packed = jump(packed)


def _levels(
    g: Graph, columns: Sequence[int], base: tuple[int, ...], alive: int, keep_rows: bool
) -> Iterator[tuple[Weights, int, tuple[int, ...] | None]]:
    """The levels from 1 on as (weights, alive mask, rows) until every row
    is dead.  base holds the rows of M = W·Wᵀ for W's columns, and alive
    its nonzero alive mask.  Each live row's held values find its death
    through level m + _BLOCK - 1.  From level m + _BLOCK on, if m <= _LANE,
    the levels come from _blocks, whose rows are None unless keep_rows:
    it takes the rows of levels 0 to m + _BLOCK - 1, and the sets go."""
    m = g.m
    step = _factor_step(m, [bit_ids(c) for c in columns])
    padded = [0, *base]
    # the factor must reproduce the base: M·I = M
    assert step((0, *(1 << i for i in range(m)))) == padded
    # a row dies on reaching zero or any value it has held before; live
    # pairs each live row's edge id with zero and the values it has held,
    # through level m
    live = [(e, {0, r}) for e, r in enumerate(base, start=1) if r]
    # a row of more than _LANE bits takes no block
    first_block = m + _BLOCK if m <= _LANE else 0
    # the rows of levels 0 to m + _BLOCK - 1, which the first block is
    # made from
    recent = [base] if first_block else []
    for level in count(1):
        if level == first_block:
            # the blocks find each row's death by its death value
            live.clear()
            yield from _blocks(g, step, padded, recent, alive, keep_rows)
            return
        padded = step(padded)
        dead = 0
        if level <= m:
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
                return
            live = [(e, seen) for e, seen in live if (alive >> (e - 1)) & 1]
        rows = tuple(padded[1:])
        if level < first_block:
            recent.append(rows)
        yield _level_weights(g, rows, alive), alive, rows


def _level_table(per_level: Iterable[tuple[int, ...]]) -> LevelWeights:
    per_level = tuple(per_level)
    return LevelWeights(per_level, tuple(map(sum, zip(*per_level))))


def spectrum_edge_weights(spec: Spectrum) -> LevelWeights:
    """xi_l(e) for every level, as recorded with the spectrum."""
    spec.extend(None)
    return _level_table(xi for xi, _ in spec.weights)


def vertex_weights(spec: Spectrum) -> LevelWeights:
    """zeta_l(v), xi_l summed at v, as recorded."""
    spec.extend(None)
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


def spectrum_invariant(spec: Spectrum) -> SpectrumInvariant:
    """Invariant of a spectrum built to its end."""
    spec.extend(None)
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
