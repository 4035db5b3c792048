"""Reference spectrum construction: one EdgeSet per cell, weights bit by bit.

This is the direct reading of the definitions that edgespec.spectra
replaced with integer rows of M^(l+1) and masked popcounts.  The oracle
tests require both to agree exactly.  The build also keeps the whole-level
repeat stop, so the tests confirm that it never fires.  The base tables
come from their definitions too, without the package's tables: central
cuts as EdgeSets, and the cycles through each edge by membership.  The
module imports no function from edgespec, only the value types it
compares.
"""

from functools import reduce
from operator import xor

from edgespec import EdgeSet, Invariant, SpectrumInvariant


def gamma(s, base):
    """The gamma transform: the ring sum of the base summands of the edges in s."""
    return EdgeSet.from_bits(s.m, reduce(xor, (base[e - 1].bits for e in s), 0))


def base_edge_cuts(g):
    """w0(e), e = uv: the ring sum of the central cuts of u and v."""
    cut = [None] + [EdgeSet(g.m, g.incident_edges(v)) for v in g.vertices]
    return tuple(cut[u] ^ cut[v] for u, v in g.edges)


def base_edge_cycles(g, cycles):
    """tau0(e): the ring sum of the cycles that hold e, plus the rim, the
    ring sum of all the cycles, when e lies on it."""
    empty = EdgeSet(g.m)
    rim = reduce(xor, cycles, empty)
    out = []
    for e in g.edge_ids:
        through = reduce(xor, (c for c in cycles if e in c), empty)
        out.append(through ^ rim if e in rim else through)
    return tuple(out)


def build(g, base, level_cap):
    """(levels, truncated, level_count) of the gamma table over base."""
    m = g.m
    levels = [tuple(b if b.bits else None for b in base)]
    seen = [{b.bits} if b.bits else set() for b in base]
    dead = [b.bits == 0 for b in base]
    signatures = {tuple(b.bits for b in base)}
    truncated = False
    while True:
        if level_cap is not None and len(levels) >= level_cap:
            truncated = not all(dead)
            break
        cells = []
        alive = False
        for i in range(m):
            if dead[i]:
                cells.append(None)
                continue
            nxt = gamma(levels[-1][i], base)
            if nxt.bits == 0 or nxt.bits in seen[i]:
                dead[i] = True
                cells.append(None)
            else:
                seen[i].add(nxt.bits)
                cells.append(nxt)
                alive = True
        if not alive:
            break
        levels.append(tuple(cells))
        sig = tuple(0 if c is None else c.bits for c in cells)
        assert sig not in signatures, "a whole level repeated an earlier one"
        signatures.add(sig)
    level_count = sum(1 for level in levels if any(c is not None for c in level))
    return tuple(levels), truncated, level_count


def edge_weights(m, levels):
    """(per_level, total) column weights: xi_l(e) counts level-l cells holding e."""
    per_level = []
    for level in levels:
        xi = [0] * m
        for cell in level:
            if cell is not None:
                for e in cell:
                    xi[e - 1] += 1
        per_level.append(tuple(xi))
    total = tuple(sum(level[i] for level in per_level) for i in range(m))
    return tuple(per_level), total


def vertex_weights(g, xi_per_level):
    """(per_level, total): zeta_l(v) sums xi_l over the edges at v."""
    per_level = tuple(
        tuple(sum(xi[e - 1] for e in g.incident_edges(v)) for v in g.vertices)
        for xi in xi_per_level
    )
    total = tuple(sum(level[i] for level in per_level) for i in range(g.n))
    return per_level, total


def invariant(kind, g, levels, truncated, level_count):
    xi, xi_total = edge_weights(g.m, levels)
    zeta, zeta_total = vertex_weights(g, xi)
    per_level = tuple(Invariant.from_weights(x, z) for x, z in zip(xi, zeta))
    total = Invariant.from_weights(xi_total, zeta_total)
    return SpectrumInvariant(kind, level_count, truncated, total, per_level)


def is_symmetric_with_empty_diagonal(base):
    return all(
        not (b.bits >> i) & 1 and all(i + 1 in base[f - 1] for f in b)
        for i, b in enumerate(base)
    )

