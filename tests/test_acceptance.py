"""Acceptance criteria, one test per criterion.

The terminal summary hook in conftest.py prints a PASS/FAIL line per
criterion after the run.
"""

import time
from itertools import combinations
from math import comb
from random import Random

import pytest

from edgespec import (
    Invariant,
    Verdict,
    base_edge_cuts,
    base_edge_cycles,
    build_cut_spectrum,
    build_cycle_spectrum,
    classify_line_cycles,
    compare_graphs,
    cycle_vertices,
    digital_invariant_IL,
    integral_invariant,
    invariant_IC,
    invariant_IS,
    is_isometric,
    isometric_cycles,
    line_graph,
    relabel,
    rim,
    spectrum_edge_weights,
    tree_invariant,
    vertex_orbit_partition,
    vertex_weights,
)
from edgespec.graphs import central_cut

import fixtures as fx
from gf2_reference import (
    even_intersection,
    fundamental_cuts,
    fundamental_cycles,
    gf2_rank,
    spanning_tree,
)
import isometric_reference as iso_ref
import linegraph_reference as line_ref
import spectra_reference as spectra_ref


def test_criterion_01():
    """Full cut spectrum of the six-vertex worked example."""
    spec = build_cut_spectrum(fx.g_6v11e())
    assert spec.level_count == 4
    table = {
        e: tuple(None if c is None else c.ids() for c in spec.row(e))
        for e in spec.graph.edge_ids
    }
    assert table == fx.G_6V11E_CUT_TABLE
    xi = spectrum_edge_weights(spec)
    assert xi.per_level == fx.G_6V11E_CUT_XI
    assert xi.total == fx.G_6V11E_CUT_XI_TOTAL
    assert vertex_weights(spec).total == fx.G_6V11E_CUT_ZETA_TOTAL


def test_criterion_02():
    """Cycle side of the same graph: rim, base cycles, weight totals."""
    g = fx.g_6v11e()
    assert rim(g).ids() == fx.G_6V11E_RIM
    taus = base_edge_cycles(g)
    assert tuple(t.ids() for t in taus) == tuple(
        fx.G_6V11E_TAU_TABLE[e][0] for e in g.edge_ids
    )
    spec = build_cycle_spectrum(g, level_cap=None)
    xi = spectrum_edge_weights(spec)
    assert xi.total == fx.G_6V11E_TAU_XI_TOTAL
    assert vertex_weights(spec).total == fx.G_6V11E_TAU_ZETA_TOTAL


def test_criterion_03():
    """Isometric cycle listings."""
    petersen = isometric_cycles(fx.petersen())
    assert len(petersen) == 12
    assert all(len(c) == 5 for c in petersen)
    assert {c.ids() for c in petersen} == set(fx.PETERSEN_CYCLES)
    for n in range(4, 9):
        cycles = isometric_cycles(fx.k_n(n))
        assert len(cycles) == n * (n - 1) * (n - 2) // 6
        assert all(len(c) == 3 for c in cycles)
    waves = isometric_cycles(fx.g_7v13e())
    assert len(waves) == 9
    assert {c.ids() for c in waves} == set(fx.G_7V13E_CYCLES)


def test_criterion_04():
    """Isometric cycles span the cycle space on every fixture, quickly."""
    for name, factory in fx.NONSEPARABLE_FIXTURES.items():
        g = factory()
        start = time.perf_counter()
        rank = gf2_rank(isometric_cycles(g))
        elapsed = time.perf_counter() - start
        assert rank == g.m - g.n + 1, name
        assert elapsed < 1.0, f"{name}: {elapsed:.2f}s"


def test_criterion_05():
    """Line graph classification counts and line invariants."""
    g = fx.octahedron()
    lg, cls = line_ref.classify_line_cycles(g)
    assert classify_line_cycles(g).counts == cls.counts
    triples, images, doubles = cls.counts
    assert (triples, images, doubles) == (24, 11, 36)
    assert triples + images + doubles == len(isometric_cycles(lg.graph)) == 71
    assert triples == sum(comb(g.degree(v), 3) for v in g.vertices)
    assert images == len(isometric_cycles(g)) == fx.OCTAHEDRON_CYCLE_COUNT
    assert str(digital_invariant_IL(fx.g_6v10e_b())) == "(3×10, 6×11, 15) & (30, 3×32, 2×48)"
    assert str(digital_invariant_IL(fx.cubic_plus_edge_10v())) == fx.CUBIC_PLUS_EDGE_IL


@pytest.mark.xfail(
    strict=True,
    reason="the published tables count only wave-confirmed line cycles; odd"
    " cycles whose vertices tie in wave depth from every anchor are absent"
    " there, and the exact enumeration keeps them",
)
def test_criterion_05_pinned_tables():
    """Published classification counts and line invariants, kept verbatim."""
    cls = classify_line_cycles(fx.octahedron())
    assert sum(cls.counts) == 47 and cls.counts == (24, 11, 12)
    assert str(digital_invariant_IL(fx.g_6v10e_b())) == "(3×6, 7×9) & (18, 3×24, 2×36)"
    assert str(digital_invariant_IL(fx.cubic_plus_edge_10v())) == "(3, 4×4, 4×5, 7×7) & (4×14, 4×16, 2×28)"


def _wave_line_images(g):
    """Vertex sets (source edge ids) of the line cycles the published tables
    count: the union of the wave-confirmed cycles through every line edge."""
    lg = line_graph(g).graph
    found = {c for e in lg.edge_ids for c in iso_ref.cycles_through_edge(lg, e)}
    return [g.edge_set(cycle_vertices(lg, c)) for c in found]


def test_criterion_05_published_tables_from_wave_cycles():
    """The published values above, reproduced from wave-confirmed line cycles."""
    g = fx.octahedron()
    images = _wave_line_images(g)
    source = set(isometric_cycles(g))
    triples = [i for i in images if set.intersection(*(set(g.edge_endpoints(e)) for e in i))]
    cycle_images = [i for i in images if i in source]
    assert len(images) == 47
    assert (len(triples), len(cycle_images), len(images) - len(triples) - len(cycle_images)) == (24, 11, 12)
    for h, published in (
        (fx.g_6v10e_b(), "(3×6, 7×9) & (18, 3×24, 2×36)"),
        (fx.cubic_plus_edge_10v(), "(3, 4×4, 4×5, 7×7) & (4×14, 4×16, 2×28)"),
    ):
        assert str(Invariant.from_weights(*line_ref.line_weights(h, _wave_line_images(h)))) == published


def test_criterion_06():
    """Non-isomorphic pairs distinguished with the expected invariants."""
    # strongly regular pair with identical parameters
    r = compare_graphs(fx.rook_4x4(), fx.shrikhande())
    assert r.verdict is Verdict.NOT_ISOMORPHIC
    rook_is = invariant_IS(fx.rook_4x4())
    shri_is = invariant_IS(fx.shrikhande())
    assert rook_is.total.edge_cortege == fx.ROOK_IS_EDGE
    assert rook_is.total.vertex_cortege == fx.ROOK_IS_VERTEX
    assert shri_is.total.edge_cortege == fx.SHRIKHANDE_IS_EDGE
    assert shri_is.total.vertex_cortege == fx.SHRIKHANDE_IS_VERTEX

    # isospectral pair: the cuboctahedron and its switched companion
    r = compare_graphs(fx.cuboctahedron(), fx.switched_cuboctahedron())
    assert r.verdict is Verdict.NOT_ISOMORPHIC
    cub = invariant_IS(fx.cuboctahedron())
    swi = invariant_IS(fx.switched_cuboctahedron())
    assert cub.total.edge_cortege == fx.CUBOCTAHEDRON_IS_EDGE
    assert cub.total.vertex_cortege == fx.CUBOCTAHEDRON_IS_VERTEX
    assert swi.total.edge_cortege == fx.SWITCHED_IS_EDGE
    assert swi.total.vertex_cortege == fx.SWITCHED_IS_VERTEX

    # deep pair: equal cycle data, cut spectra of different depth
    a, b = fx.g_16v30e_a(), fx.g_16v30e_b()
    r = compare_graphs(a, b)
    assert r.verdict is Verdict.NOT_ISOMORPHIC
    assert r.witness == fx.G_16V30E_WITNESS
    assert invariant_IS(a).level_count == 6
    assert invariant_IS(b).level_count == 14
    assert invariant_IC(a) == invariant_IC(b)

    # trees
    r = compare_graphs(fx.spider_tree(), fx.caterpillar_tree())
    assert r.verdict is Verdict.NOT_ISOMORPHIC
    assert r.witness == "tree cut invariant"
    assert tree_invariant(fx.spider_tree()) != tree_invariant(fx.caterpillar_tree())


def test_criterion_07():
    """Isomorphic groups: equal integral invariants plus explicit bijections."""
    rng = Random(86)
    groups = {
        "k33": (fx.k33(), 2),
        "prism": (fx.prism(), 2),
        "k44": (fx.k44(), 3),
        "quartic": (fx.quartic_8v_a(), 3),
    }
    built = {}
    for name, (rep, size) in groups.items():
        members = [rep]
        while len(members) < size:
            perm = list(rep.vertices)
            rng.shuffle(perm)
            members.append(relabel(rep, perm))
        built[name] = members
        inv = str(integral_invariant(rep))
        for other in members[1:]:
            assert str(integral_invariant(other)) == inv
        for left, right in combinations(members, 2):
            result = compare_graphs(left, right)
            assert result.verdict is Verdict.ISOMORPHIC
            bij = result.bijection
            assert sorted(bij) == list(left.vertices)
            assert sorted(bij.values()) == list(right.vertices)
            for u, v in left.edges:
                assert right.has_edge(bij[u], bij[v])
    # the groups themselves stay separated
    assert str(integral_invariant(fx.k33())) != str(integral_invariant(fx.prism()))
    assert str(integral_invariant(fx.k44())) != str(integral_invariant(fx.quartic_8v_a()))


def all_automorphisms(g):
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    found = []
    mapping = {}
    used = set()

    def extend(i):
        if i == len(order):
            found.append(dict(mapping))
            return
        v = order[i]
        for w in g.vertices:
            if w in used or g.degree(w) != g.degree(v):
                continue
            if any(g.has_edge(v, u) != g.has_edge(w, wu) for u, wu in mapping.items()):
                continue
            mapping[v] = w
            used.add(w)
            extend(i + 1)
            del mapping[v]
            used.discard(w)

    extend(0)
    return found


def automorphism_orbits(g):
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for phi in all_automorphisms(g):
        for v, w in phi.items():
            rv, rw = find(v), find(w)
            if rv != rw:
                parent[rw] = rv
    groups = {}
    for v in g.vertices:
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(vs)) for vs in groups.values())


def test_criterion_08():
    """Weight classes never split a true automorphism orbit."""
    assert vertex_orbit_partition(fx.g_8v15e()).groups == fx.G_8V15E_ORBITS
    for name, factory in fx.NONSEPARABLE_FIXTURES.items():
        g = factory()
        if g.n > 8:
            continue
        part = vertex_orbit_partition(g)
        sig = {v: part.signatures[v - 1] for v in g.vertices}
        for orbit in automorphism_orbits(g):
            first = sig[orbit[0]]
            assert all(sig[v] == first for v in orbit), (name, orbit)


def simple_cycles_up_to(g, max_len):
    """Every simple cycle with at most max_len edges, as an edge set."""
    out = set()

    def walk(start, path, blocked):
        v = path[-1]
        for w in g.adjacency(v):
            if w == start and len(path) >= 3 and path[1] < path[-1]:
                ids = [
                    g.edge_id(a, b)
                    for a, b in zip(path, path[1:] + [start])
                ]
                out.add(g.edge_set(ids))
                continue
            if w <= start or w in blocked or len(path) == max_len:
                continue
            walk(start, path + [w], blocked | {w})

    for s in g.vertices:
        walk(s, [s], {s})
    return out


def test_criterion_09():
    """Randomized law suite over 300 nonseparable graphs."""
    rng = Random(20260816)
    for trial in range(300):
        g = fx.random_nonseparable(rng)

        # every vertex cut cancels in the total ring sum
        acc = g.empty_set()
        for v in g.vertices:
            acc ^= central_cut(g, v)
        assert not acc

        # the gamma transform annihilates fundamental cycles
        tree = spanning_tree(g)
        cycles = fundamental_cycles(g, tree)
        cuts = fundamental_cuts(g, tree)
        base = spectra_ref.base_edge_cuts(g)
        for c in cycles.values():
            assert not spectra_ref.gamma(c, base)

        # cycle-space and cut-space members always share an even edge count
        for c in cycles.values():
            for s in cuts.values():
                assert even_intersection(c, s)
        w0 = base_edge_cuts(g)
        tau0 = base_edge_cycles(g)
        for t in tau0:
            for s in w0:
                assert even_intersection(t, s)

        # both base tables are symmetric membership relations
        for e in g.edge_ids:
            assert e not in tau0[e - 1]
            for f in tau0[e - 1]:
                assert e in tau0[f - 1]
            for f in w0[e - 1]:
                assert e in w0[f - 1]

        # sorted invariants survive relabeling
        perm = list(g.vertices)
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert invariant_IS(g) == invariant_IS(h)
        assert invariant_IC(g) == invariant_IC(h)
        assert digital_invariant_IL(g) == digital_invariant_IL(h)

        # wave enumeration agrees with the exhaustive oracle up to length 6
        from_waves = {c for c in isometric_cycles(g) if len(c) <= 6}
        from_oracle = {c for c in simple_cycles_up_to(g, 6) if is_isometric(g, c)}
        assert from_waves == from_oracle, trial


def test_criterion_10(capsys):
    """Cut spectrum construction scales gently as cubic graphs double."""
    rng = Random(7)
    timings = []
    # up to 3,072 edges, where a build that cost per bit of the m×m base,
    # not per set bit of the factor's columns, would grow far faster
    for n in (32, 64, 128, 256, 512, 1024, 2048):
        g = fx.random_cubic(rng, n)
        assert g.m == 3 * n // 2
        best = min(
            _timed(lambda: build_cut_spectrum(g, 2)) for _ in range(5)
        )
        timings.append((g.m, best))
    with capsys.disabled():
        rendered = ", ".join(f"m={m}: {t * 1000:.2f}ms" for m, t in timings)
        print(f"\n[criterion 10] capped cut spectrum timings: {rendered}")
    for (m_small, t_small), (m_big, t_big) in zip(timings, timings[1:]):
        assert m_big == 2 * m_small
        assert t_big <= 10 * max(t_small, 1e-4), timings


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
