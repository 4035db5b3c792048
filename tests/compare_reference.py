"""Reference compare cascade: both cut spectra built to the end.

This is compare_graphs as it stood before the cut spectra were built in
lockstep.  Each graph's whole cut spectrum is built and weighed before
level 0 is compared.  The cut and cycle invariants come from the
per-cell spectra of spectra_reference, not from the package's spectra,
so a fault in the package's level loop shows here.  test_compare_oracle
holds compare_graphs to it in verdict, witness and bijection.
"""

from edgespec import (
    ComparisonResult,
    NotNonseparable,
    Verdict,
    brute_force_isomorphism,
    digital_invariant_IL,
    is_nonseparable,
    is_tree,
    isometric_cycles,
)

import spectra_reference as sref


def _not_iso(witness):
    return ComparisonResult(Verdict.NOT_ISOMORPHIC, witness)


def _settle_equal(g, h, brute_force_limit):
    if g.n > brute_force_limit:
        return ComparisonResult(Verdict.INDISTINGUISHABLE)
    bijection = brute_force_isomorphism(g, h, brute_force_limit)
    if bijection is None:
        return _not_iso("exhaustive search found no bijection")
    return ComparisonResult(Verdict.ISOMORPHIC, None, bijection)


def _invariant(kind, g, base, level_cap):
    levels, truncated, level_count = sref.build(g, base, level_cap)
    return sref.invariant(kind, g, levels, truncated, level_count)


def cut_invariant(g, level_cap):
    """The cut-spectrum invariant, of a tree too."""
    return _invariant("cut", g, sref.base_edge_cuts(g), level_cap)


def cycle_invariant(g, limit):
    """The base-level cycle-spectrum invariant over g's isometric cycles."""
    return _invariant("cycle", g, sref.base_edge_cycles(g, isometric_cycles(g, limit)), 1)


def _check_nonseparable(g):
    report = is_nonseparable(g)
    if not report:
        raise NotNonseparable(report.reason)


def compare(g, h, max_levels=None, with_line=False, brute_force_limit=10, limit=10**6):
    if g.n != h.n:
        return _not_iso(f"vertex count {g.n} vs {h.n}")
    if g.m != h.m:
        return _not_iso(f"edge count {g.m} vs {h.m}")
    if sorted(g.degrees()) != sorted(h.degrees()):
        return _not_iso("degree multiset")
    if is_tree(g):
        if cut_invariant(g, None) != cut_invariant(h, None):
            return _not_iso("tree cut invariant")
        return _settle_equal(g, h, brute_force_limit)
    for x in (g, h):
        _check_nonseparable(x)
    gi, hi = cut_invariant(g, max_levels), cut_invariant(h, max_levels)
    for l in range(min(len(gi.per_level), len(hi.per_level))):
        if gi.per_level[l] != hi.per_level[l]:
            return _not_iso(f"cut spectrum level {l} invariant")
    if (gi.level_count, gi.truncated) != (hi.level_count, hi.truncated):
        return _not_iso(
            f"cut spectrum level count {gi.level_count} vs {hi.level_count}"
        )
    if gi.total != hi.total:
        return _not_iso("cut spectrum total invariant")
    if cycle_invariant(g, limit) != cycle_invariant(h, limit):
        return _not_iso("cycle spectrum base invariant")
    if with_line:
        if digital_invariant_IL(g, limit) != digital_invariant_IL(h, limit):
            return _not_iso("line invariant")
    return _settle_equal(g, h, brute_force_limit)
