"""Comparison engine: integral invariants, verdicts, orbits, brute force.

Two graphs are screened through increasingly expensive filters: order,
size, degree multiset, then the per-level and total cut-spectrum
invariants, the base cycle-spectrum invariant, and optionally the line
invariant.  Equality of all invariants is inconclusive; for small graphs
an exhaustive search settles the question.

_cut builds the cut stage of the invariants and of compare, and
_cycle_base every cycle base.  Each spectrum stage of compare, trees'
cut spectra included, grows its two spectra in lockstep through
_difference, one level at a time from their _levels generators, and
compares each new common level before the next is built, so a pair that
first differs at level l builds at most l + 1 levels of each.  Every
path here reads the weights its spectra record and keeps no rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import LimitExceeded, NotAPermutation, NotATree
from .graphs import Graph, build_graph
from .isometric import _cycle_masks
from .linegraph import digital_invariant_IL, line_cycle_weights
# neither _cut_builder nor Spectrum checks nonseparability: _cut and the orbits do
from .spectra import (
    Invariant,
    Spectrum,
    SpectrumInvariant,
    _check_nonseparable,
    _cut_builder,
    _total_invariant,
    spectrum_invariant,
    vertex_weights,
)


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1


def _cut(g: Graph, max_levels: int | None) -> Spectrum:
    """g's base-level cut spectrum: a tree's uncapped, any other's checked nonseparable."""
    if is_tree(g):
        return _cut_builder(g, None)
    _check_nonseparable(g)
    return _cut_builder(g, max_levels)


def _cycle_base(g: Graph, limit: int) -> Spectrum:
    """g's cycle spectrum over its isometric cycles, capped at IC's base level."""
    return Spectrum("cycle", g, _cycle_masks(g, limit), 1)


def tree_invariant(t: Graph) -> SpectrumInvariant:
    """Cut-spectrum invariant of a tree, never level-capped.

    Trees carry no cycle structure, so the cut side is the whole signal.
    """
    if not is_tree(t):
        raise NotATree(f"graph has {t.m} edges on {t.n} vertices")
    return spectrum_invariant(_cut(t, None))


@dataclass(frozen=True)
class IntegralInvariant:
    """Cut invariant plus cycle invariant, optionally the line invariant.

    For trees only the cut part is defined.
    """

    cut: SpectrumInvariant
    cycle: SpectrumInvariant | None
    line: Invariant | None

    def __str__(self) -> str:
        parts = [str(self.cut.total)]
        if self.cycle is not None:
            parts.append(str(self.cycle.total))
        if self.line is not None:
            parts.append(str(self.line))
        return " & ".join(parts)


def integral_invariant(
    g: Graph,
    max_levels: int | None = None,
    with_line: bool = False,
    limit: int = 10**6,
) -> IntegralInvariant:
    """Integral invariant; a tree's is its uncapped cut invariant alone."""
    cut = spectrum_invariant(_cut(g, max_levels))
    if is_tree(g):
        return IntegralInvariant(cut, None, None)
    cyc = spectrum_invariant(_cycle_base(g, limit))
    line = digital_invariant_IL(g, limit) if with_line else None
    return IntegralInvariant(cut, cyc, line)


class Verdict(Enum):
    NOT_ISOMORPHIC = "not isomorphic"
    INDISTINGUISHABLE = "indistinguishable by invariants"
    ISOMORPHIC = "isomorphic"


@dataclass(frozen=True)
class ComparisonResult:
    verdict: Verdict
    witness: str | None = None
    bijection: dict[int, int] | None = None


def _not_iso(witness: str) -> ComparisonResult:
    return ComparisonResult(Verdict.NOT_ISOMORPHIC, witness)


def _settle_equal(g: Graph, h: Graph, brute_force_limit: int) -> ComparisonResult:
    if g.n > brute_force_limit:
        return ComparisonResult(Verdict.INDISTINGUISHABLE)
    bijection = brute_force_isomorphism(g, h, brute_force_limit)
    if bijection is None:
        return _not_iso("exhaustive search found no bijection")
    return ComparisonResult(Verdict.ISOMORPHIC, None, bijection)


def _difference(a: Spectrum, b: Spectrum) -> str | None:
    """Where spectra a and b first differ, or None if their invariants agree.

    Each new common level is compared before the next is built.  When one
    spectrum ends the other is built to its end: the level counts (with
    truncated) and the totals need every level.  Levels, then counts,
    then totals separate exactly the pairs whose SpectrumInvariants differ.
    """
    l = 0
    while l < min(len(a.weights), len(b.weights)):
        if Invariant.from_weights(*a.weights[l]) != Invariant.from_weights(*b.weights[l]):
            return f"level {l} invariant"
        l += 1
        for s in (a, b):
            s.extend(l + 1)
    for s in (a, b):
        s.extend(None)
    if (a.level_count, a.truncated) != (b.level_count, b.truncated):
        return f"level count {a.level_count} vs {b.level_count}"
    # equal level counts mean equal lengths, so every level was compared
    if _total_invariant(a.weights) != _total_invariant(b.weights):
        return "total invariant"
    return None


def compare_graphs(
    g: Graph,
    h: Graph,
    max_levels: int | None = None,
    with_line: bool = False,
    brute_force_limit: int = 10,
    limit: int = 10**6,
) -> ComparisonResult:
    """Screen two graphs for isomorphism through the invariant cascade."""
    if g.n != h.n:
        return _not_iso(f"vertex count {g.n} vs {h.n}")
    if g.m != h.m:
        return _not_iso(f"edge count {g.m} vs {h.m}")
    if sorted(g.degrees()) != sorted(h.degrees()):
        return _not_iso("degree multiset")
    tree = is_tree(g)  # and so is h, of the same order and size
    witness = _difference(_cut(g, max_levels), _cut(h, max_levels))
    if witness is not None:
        return _not_iso("tree cut invariant" if tree else "cut spectrum " + witness)
    if tree:
        return _settle_equal(g, h, brute_force_limit)
    if _difference(_cycle_base(g, limit), _cycle_base(h, limit)) is not None:
        return _not_iso("cycle spectrum base invariant")
    if with_line:
        if digital_invariant_IL(g, limit) != digital_invariant_IL(h, limit):
            return _not_iso("line invariant")
    return _settle_equal(g, h, brute_force_limit)


@dataclass(frozen=True)
class OrbitPartition:
    """Vertices grouped by equal weight signatures; candidate orbits only.

    True orbits refine these groups, never the other way around.
    """

    groups: tuple[tuple[int, ...], ...]
    signatures: tuple[tuple, ...]


def _paired(levels: Sequence[int]) -> tuple[int, ...]:
    out = []
    for i in range(0, len(levels), 2):
        out.append(sum(levels[i : i + 2]))
    return tuple(out)


def vertex_orbit_partition(
    g: Graph,
    max_levels: int | None = None,
    with_line: bool = False,
    limit: int = 10**6,
) -> OrbitPartition:
    """Group vertices by their cut, cycle, and optional line weight signatures."""
    _check_nonseparable(g)
    zeta_cut = vertex_weights(_cut_builder(g, max_levels))
    zeta_cyc = vertex_weights(_cycle_base(g, limit))
    line_part = line_cycle_weights(g, limit)[1] if with_line else None
    signatures = []
    for v in g.vertices:
        per_level = [level[v - 1] for level in zeta_cut.per_level]
        sig = (
            _paired(per_level),
            zeta_cut.total[v - 1],
            zeta_cyc.total[v - 1],
        )
        if line_part is not None:
            sig = sig + (line_part[v - 1],)
        signatures.append(sig)
    buckets: dict[tuple, list[int]] = {}
    for v in g.vertices:
        buckets.setdefault(signatures[v - 1], []).append(v)
    groups = tuple(
        tuple(vs) for vs in sorted(buckets.values(), key=lambda vs: vs[0])
    )
    return OrbitPartition(groups, tuple(signatures))


def brute_force_isomorphism(
    g: Graph, h: Graph, limit: int = 10
) -> dict[int, int] | None:
    """Exhaustive search for a vertex bijection preserving adjacency exactly."""
    if g.n > limit or h.n > limit:
        raise LimitExceeded(f"order {max(g.n, h.n)} exceeds brute force limit {limit}")
    if g.n != h.n or g.m != h.m:
        return None
    if sorted(g.degrees()) != sorted(h.degrees()):
        return None
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in h.vertices:
            if w in used or h.degree(w) != g.degree(v):
                continue
            ok = True
            for u, wu in mapping.items():
                if g.has_edge(v, u) != h.has_edge(w, wu):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    if extend(0):
        return dict(sorted(mapping.items()))
    return None


def relabel(g: Graph, perm: Mapping[int, int] | Sequence[int]) -> Graph:
    """Apply a vertex permutation and rebuild with canonical edge numbering."""
    if isinstance(perm, Mapping):
        table = {int(k): int(v) for k, v in perm.items()}
    else:
        table = {i + 1: int(p) for i, p in enumerate(perm)}
    if sorted(table.keys()) != list(g.vertices) or sorted(table.values()) != list(
        g.vertices
    ):
        raise NotAPermutation(f"mapping is not a bijection on 1..{g.n}")
    rows: list[list[int]] = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        rows[table[u]].append(table[v])
        rows[table[v]].append(table[u])
    return build_graph(g.n, [sorted(rows[v]) for v in g.vertices])
