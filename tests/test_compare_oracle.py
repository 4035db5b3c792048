"""compare_graphs against the reference cascade in compare_reference, and
the work that building both cut spectra in lockstep saves."""

import dataclasses
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgespec import (
    EdgespecError,
    build_cut_spectrum,
    build_graph,
    compare_graphs,
    graph_from_edges,
    relabel,
)
from edgespec import spectra

import compare_reference as ref
import fixtures as fx
import spectra_reference as sref

CAPS = (None, 1, 2, 3)


def outcome(compare, g, h, **kwargs):
    try:
        return compare(g, h, **kwargs)
    except EdgespecError as exc:
        return type(exc), str(exc)


def assert_matches_reference(g, h, **kwargs):
    for cap in CAPS:
        got = outcome(compare_graphs, g, h, max_levels=cap, **kwargs)
        assert got == outcome(ref.compare, g, h, max_levels=cap, **kwargs), cap


def shuffled(rng, g):
    perm = list(g.vertices)
    rng.shuffle(perm)
    return relabel(g, perm)


def switched(rng, g):
    """A degree-preserving double edge swap of g that keeps it simple and
    connected, or None when 50 tries find none."""
    present = set(g.edges)
    for _ in range(50):
        (a, b), (c, d) = rng.sample(sorted(present), 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = {(min(a, c), max(a, c)), (min(b, d), max(b, d))}
        if a == c or b == d or new & present:
            continue
        edges = (present - {(a, b), (min(c, d), max(c, d))}) | new
        try:
            return graph_from_edges(g.n, sorted(edges))
        except EdgespecError:
            continue
    return None


def same_size(rng, n, m):
    """A random nonseparable graph on n vertices with m edges: a
    hamiltonian cycle plus m - n chords."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1])}
    chords = [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges
    ]
    rng.shuffle(chords)
    return graph_from_edges(n, sorted(edges | set(chords[: m - n])))


def partners(rng, g):
    out = [shuffled(rng, g), same_size(rng, g.n, g.m)]
    switch = switched(rng, g)
    if switch is not None:
        out.append(switch)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_random_pairs_match_reference(seed, with_line):
    rng = Random(seed)
    g = fx.random_nonseparable(rng)
    for h in partners(rng, g):
        assert_matches_reference(g, h, with_line=with_line)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_tree_pairs_match_reference(seed):
    # a Prüfer sequence and a shuffle of it give trees with equal degree
    # multisets, so the cascade reaches the tree cut stage
    rng = Random(seed)
    n = rng.randint(3, 12)
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    shuffle = rng.sample(seq, len(seq))
    assert_matches_reference(fx.tree_from_pruefer(seq), fx.tree_from_pruefer(shuffle))


@pytest.mark.parametrize(
    "n, seed", [(12, 2), (14, 8), (16, 7), (18, 0), (20, 5), (20, 4), (20, 6)]
)
def test_deep_cubic_pairs_match_reference(n, seed):
    # spectra of up to hundreds of levels, with witnesses past level 0;
    # the graphs of seeds 4 and 6 have 128 and 155 cut levels, so their
    # spectra end inside a block of the package's block path
    rng = Random(seed)
    g = fx.random_cubic(rng, n)
    for h in partners(rng, g) + [fx.random_cubic(rng, n)]:
        assert_matches_reference(g, h)


def c5():
    return build_graph(5, {1: [2, 5], 2: [1, 3], 3: [2, 4], 4: [3, 5], 5: [1, 4]})


# the pairs of test_engine, each with the options it is compared under
ENGINE_PAIRS = {
    "vertex_count": (lambda: fx.k_n(4), lambda: fx.k_n(5), {}),
    "edge_count": (c5, lambda: fx.k_n(5), {}),
    "tree_cut_invariant": (fx.spider_tree, fx.caterpillar_tree, {}),
    "cut_level_zero": (fx.g_16v30e_a, fx.g_16v30e_b, {}),
    "rook_shrikhande": (fx.rook_4x4, fx.shrikhande, {}),
    "quartic_8v": (fx.quartic_8v_a, fx.quartic_8v_b, {}),
    "level_count_1_vs_2": (fx.k33, fx.prism, {}),
    "line_invariant": (fx.petersen, fx.cubic_10v, {"with_line": True}),
    "exhaustive_search": (fx.petersen, fx.cubic_10v, {}),
    "brute_force_limit": (fx.petersen, fx.cubic_10v, {"brute_force_limit": 5}),
    "isomorphic_pair": (
        fx.quartic_8v_a,
        lambda: relabel(fx.quartic_8v_a(), {1: 5, 2: 3, 3: 8, 4: 1, 5: 7, 6: 2, 7: 4, 8: 6}),
        {},
    ),
    "isomorphic_trees": (
        fx.spider_tree,
        lambda: relabel(fx.spider_tree(), (7, 6, 5, 4, 3, 2, 1)),
        {},
    ),
    "large_equal_pair": (
        fx.rook_4x4,
        lambda: relabel(fx.rook_4x4(), {v: v % 16 + 1 for v in range(1, 17)}),
        {},
    ),
}


@pytest.mark.parametrize("name", sorted(ENGINE_PAIRS))
def test_engine_pairs_match_reference(name):
    g, h, kwargs = ENGINE_PAIRS[name]
    assert_matches_reference(g(), h(), **kwargs)
    assert_matches_reference(h(), g(), **kwargs)


def test_level_zero_witness_builds_no_factor(monkeypatch):
    def no_factor(m, slots):
        raise AssertionError("level step built for a level-0 witness")

    monkeypatch.setattr(spectra, "_factor_step", no_factor)
    r = compare_graphs(fx.g_16v30e_a(), fx.g_16v30e_b())
    assert r.witness == "cut spectrum level 0 invariant"


def count_steps(monkeypatch):
    """Patch the factor step so that each built step counts its calls; the
    returned list holds one count per graph that stepped."""
    real = spectra._factor_step
    steps = []

    def factor_step(m, slots):
        step = real(m, slots)
        i = len(steps)
        steps.append(0)

        def counted(padded):
            steps[i] += 1
            return step(padded)

        return counted

    monkeypatch.setattr(spectra, "_factor_step", factor_step)
    return steps


def level_witness_pairs():
    pairs = [(fx.rook_4x4(), fx.shrikhande()), (fx.g_16v30e_b(), fx.g_16v30e_a())]
    for n, seed in [(18, 0), (20, 5), (20, 6), (14, 8), (20, 10)]:
        rng = Random(seed)
        g = fx.random_cubic(rng, n)
        pairs.append((g, fx.random_cubic(rng, n)))
    return pairs


@pytest.mark.parametrize("index", range(7))
def test_witness_at_level_l_builds_fewer_than_2_l_plus_2_levels(monkeypatch, index):
    g, h = level_witness_pairs()[index]
    witness = ref.compare(g, h).witness
    assert witness.startswith("cut spectrum level ") and witness.endswith(" invariant")
    l = int(witness.split()[3])
    steps = count_steps(monkeypatch)
    assert compare_graphs(g, h).witness == witness
    # a graph's levels are its base plus one per step after the first call,
    # which checks that the step maps the identity to the base; a graph
    # that never stepped built its base level only
    assert max(steps, default=1) < 2 * (l + 1)


@pytest.mark.parametrize("index", range(7))
def test_witness_at_level_l_steps_each_graph_at_most_l_plus_1_times(monkeypatch, index):
    g, h = level_witness_pairs()[index]
    witness = ref.compare(g, h).witness
    l = int(witness.split()[3])
    steps = count_steps(monkeypatch)
    assert compare_graphs(g, h).witness == witness
    # one call checks the step on the identity, and each of l steps builds
    # one level past the base; a level-0 witness builds no step at all
    assert len(steps) <= 2
    assert max(steps, default=0) <= l + 1


def test_some_level_witness_pair_saves_levels():
    # the bound above has teeth: the reference builds more than it allows
    saved = 0
    for g, h in level_witness_pairs():
        l = int(ref.compare(g, h).witness.split()[3])
        saved += max(len(build_cut_spectrum(x).rows) for x in (g, h)) >= 2 * (l + 1)
    assert saved >= 5


@pytest.mark.parametrize("cap", [None, 3])
@pytest.mark.parametrize("n, seed", [(12, 2), (18, 0)])
def test_agreeing_pair_weighs_each_built_level_once(monkeypatch, n, seed, cap):
    g = fx.random_cubic(Random(seed), n)
    h = shuffled(Random(seed), g)
    levels = len(build_cut_spectrum(g, cap).rows)
    real = spectra._level_weights
    weighed = []

    def counted(graph, rows, alive):
        weighed.append(graph)
        return real(graph, rows, alive)

    monkeypatch.setattr(spectra, "_level_weights", counted)
    r = compare_graphs(g, h, max_levels=cap)
    assert r.witness is None
    # every cut level, plus the base level of the cycle spectrum
    for x in (g, h):
        assert sum(1 for y in weighed if y is x) == levels + 1


def test_total_witness_matches_reference(monkeypatch):
    # no pair in the corpus agrees on every cut level and differs in the
    # totals; reversing h's level-1 weights keeps each level's corteges
    # and changes the totals, for the cascade and the reference alike
    g = fx.g_16v30e_a()
    h = relabel(g, list(range(16, 0, -1)))
    level_1 = build_cut_spectrum(h).rows[1]
    real = spectra._level_weights

    def skewed(graph, rows, alive):
        xi, zeta = real(graph, rows, alive)
        if graph is h and rows == level_1:
            return xi[::-1], zeta[::-1]
        return xi, zeta

    # the reference weighs its own spectra: reverse h's level 1 there too
    real_invariant = ref.cut_invariant

    def skewed_reference(graph, level_cap):
        inv = real_invariant(graph, level_cap)
        if graph is not h:
            return inv
        levels, _, _ = sref.build(h, sref.base_edge_cuts(h), level_cap)
        xi, _ = sref.edge_weights(h.m, levels)
        zeta, _ = sref.vertex_weights(h, xi)
        xi, zeta = list(xi), list(zeta)
        xi[1], zeta[1] = xi[1][::-1], zeta[1][::-1]
        total = sref.corteges(tuple(map(sum, zip(*xi))), tuple(map(sum, zip(*zeta))))
        return dataclasses.replace(inv, total=total)

    monkeypatch.setattr(spectra, "_level_weights", skewed)
    monkeypatch.setattr(ref, "cut_invariant", skewed_reference)
    expected = ref.compare(g, h)
    assert expected.witness == "cut spectrum total invariant"
    assert compare_graphs(g, h) == expected
