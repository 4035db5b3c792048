"""Reference compare cascade: both cut spectra built to the end.

This is compare_graphs as it stood before the cut spectra were built in
lockstep.  Each graph's whole cut spectrum is built and weighed before
level 0 is compared.  test_compare_oracle holds compare_graphs to it in
verdict, witness and bijection.
"""

from edgespec import (
    ComparisonResult,
    Verdict,
    brute_force_isomorphism,
    build_cut_spectrum,
    build_cycle_spectrum,
    digital_invariant_IL,
    is_tree,
    isometric_cycles,
    spectrum_invariant,
    tree_invariant,
)


def _not_iso(witness):
    return ComparisonResult(Verdict.NOT_ISOMORPHIC, witness)


def _settle_equal(g, h, brute_force_limit):
    if g.n > brute_force_limit:
        return ComparisonResult(Verdict.INDISTINGUISHABLE)
    bijection = brute_force_isomorphism(g, h, brute_force_limit)
    if bijection is None:
        return _not_iso("exhaustive search found no bijection")
    return ComparisonResult(Verdict.ISOMORPHIC, None, bijection)


def compare(g, h, max_levels=None, with_line=False, brute_force_limit=10, limit=10**6):
    if g.n != h.n:
        return _not_iso(f"vertex count {g.n} vs {h.n}")
    if g.m != h.m:
        return _not_iso(f"edge count {g.m} vs {h.m}")
    if sorted(g.degrees()) != sorted(h.degrees()):
        return _not_iso("degree multiset")
    if is_tree(g):
        if tree_invariant(g) != tree_invariant(h):
            return _not_iso("tree cut invariant")
        return _settle_equal(g, h, brute_force_limit)
    gi = spectrum_invariant(build_cut_spectrum(g, max_levels))
    hi = spectrum_invariant(build_cut_spectrum(h, max_levels))
    for l in range(min(len(gi.per_level), len(hi.per_level))):
        if gi.per_level[l] != hi.per_level[l]:
            return _not_iso(f"cut spectrum level {l} invariant")
    if (gi.level_count, gi.truncated) != (hi.level_count, hi.truncated):
        return _not_iso(
            f"cut spectrum level count {gi.level_count} vs {hi.level_count}"
        )
    if gi.total != hi.total:
        return _not_iso("cut spectrum total invariant")
    gc = spectrum_invariant(build_cycle_spectrum(g, 1, isometric_cycles(g, limit)))
    hc = spectrum_invariant(build_cycle_spectrum(h, 1, isometric_cycles(h, limit)))
    if gc != hc:
        return _not_iso("cycle spectrum base invariant")
    if with_line:
        if digital_invariant_IL(g, limit) != digital_invariant_IL(h, limit):
            return _not_iso("line invariant")
    return _settle_equal(g, h, brute_force_limit)
