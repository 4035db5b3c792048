"""Record reference.json: the workloads' graphs and their output digests.

    python3 perfbench/record.py

Run this only at a commit whose outputs are trusted; every later run is
checked against what it writes.  Random cubic graphs are heavy-tailed in
cost (one takes 5 ms, another 2 s), so ``cut_deep`` and ``screen`` do not
take a seeded sample: for each class this generates a pool of candidates,
sorts it by a cost key (see ``work``), splits it into equal bins and keeps
the middle candidate of each bin, in order of cost.  For each kept graph it
stores the generator seed and a digest of the generated edges, and on
``cut_deep`` a digest of its output.  It also stores the accepted outputs of the ``cycle_line`` ops
and every ``screen`` op's output for the default seed, after checking
each of those against networkx and the structural identities in
``workloads.Screen.validate``.  Nothing recorded depends on timing, so
recording again at a commit with the same outputs writes the same file
and leaves every workload's graphs as they were.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import edgespec as es  # noqa: E402
import edgespec.cli  # noqa: E402,F401

import inputs  # noqa: E402
from workloads import DEFAULT_SEED, CycleLine, OpError, Screen, canon_cycles, canon_integral, digest  # noqa: E402

# class, vertices, level cap, pool size, bins
CUT_DEEP = [
    ("n20", 20, None, 48, 10),
    ("n22", 22, None, 48, 9),
    ("n24", 24, None, 48, 6),
    ("n26", 26, None, 48, 4),
    ("n64", 64, 100, 8, 1),
]
# class, generator, vertex range, pool size, bins
SCREEN = [
    ("small", "nonsep", (6, 8), 80, 16),
    ("mid", "nonsep", (9, 10), 60, 12),
    ("large", "nonsep", (11, 14), 80, 16),
    ("cubic", "cubic", (10, 12), 40, 8),
]


def work(inv) -> int:
    """Cost key: the cut spectrum's total cell size, which the gamma steps
    and the weight sums both scan."""
    return sum(inv.cut.total.edge_cortege)


def pick(pool: list[dict], bins: int) -> list[dict]:
    """The middle candidate of each of `bins` equal cost bins of one class's
    pool, cheapest first, without the cost key."""
    pool = sorted(pool, key=lambda c: (c["work"], c["seed"]))
    out = []
    for b in range(bins):
        members = pool[b * len(pool) // bins : (b + 1) * len(pool) // bins]
        out.append({k: v for k, v in members[len(members) // 2].items() if k != "work"})
    return out


def cut_deep() -> list[dict]:
    out = []
    for cls, n, max_levels, count, bins in CUT_DEEP:
        pool = []
        for i in range(count):
            seed = n * 1000 + i
            _, edges = inputs.random_cubic(Random(seed), n)
            g = es.graph_from_edges(n, edges)
            h = es.graph_from_edges(n, inputs.relabel(Random(seed), n, edges))
            inv = es.integral_invariant(g, max_levels=max_levels)
            text = canon_integral(inv)
            if canon_integral(es.integral_invariant(h, max_levels=max_levels)) != text:
                raise RuntimeError(f"{cls}/{seed}: invariant changed under relabelling")
            pool.append({
                "cls": cls, "gen": "cubic", "n": n, "seed": seed, "max_levels": max_levels,
                "edges": inputs.edges_digest(n, edges), "work": work(inv), "out": digest(text),
            })
            print(f"cut_deep {cls}/{seed}: {inv.cut.level_count} levels, work {work(inv)}", flush=True)
        out += pick(pool, bins)
    return out


def screen_candidates() -> list[dict]:
    out, generated = [], 0
    for cls, gen, (lo, hi), count, bins in SCREEN:
        pool = []
        for _ in range(count):
            seed = 50000 + generated
            generated += 1
            rng = Random(seed)
            if gen == "cubic":
                n, edges = inputs.random_cubic(rng, Random(seed + 1).choice(range(lo, hi + 1, 2)))
                entry = {"n": n}
            else:
                n, edges = inputs.random_nonseparable(rng, lo, hi)
                entry = {"n_min": lo, "n_max": hi}
            inv = es.integral_invariant(es.graph_from_edges(n, edges))
            entry.update({"cls": cls, "gen": gen, "seed": seed, "edges": inputs.edges_digest(n, edges), "work": work(inv)})
            pool.append(entry)
        out += pick(pool, bins)
    return out


def cycle_line() -> dict[str, list[str]]:
    wl = CycleLine(es, DEFAULT_SEED, {}, Path("."))
    wl.setup()
    accept = {}
    for op in wl.ops(0):
        if op.key in accept:
            continue
        try:
            text = op.canon(op.run())
        except es.CandidateOverflow as exc:
            text = OpError(exc).text
        accept[op.key] = [digest(text)]
        print(f"cycle_line {op.key}: {text[:60]}", flush=True)
    # grid 10x10: its isometric cycles are its 81 unit squares
    n, edges = inputs.grid(10, 10)
    g = es.graph_from_edges(n, edges)
    squares = tuple(
        sorted((g.edge_set(g.edge_id(u, v) for u, v in sq) for sq in inputs.grid_squares(10, 10)), key=lambda c: c.ids())
    )
    result = (
        squares,
        es.spectrum_invariant(es.build_cut_spectrum(g, 2)),
        es.spectrum_invariant(es.build_cycle_spectrum(g, 1, squares)),
    )
    accept["grid10x10"].append(digest(canon_cycles(g, result)))
    for key in ("grid5x5", "grid6x6"):
        size = int(key[-1])
        m, sq_edges = inputs.grid(size, size)
        h = es.graph_from_edges(m, sq_edges)
        found = {c.bits for c in es.isometric_cycles(h)}
        want = {h.edge_set(h.edge_id(u, v) for u, v in sq).bits for sq in inputs.grid_squares(size, size)}
        if found != want:
            raise RuntimeError(f"{key}: isometric cycles are not the unit squares")
    return accept


def screen_default(candidates: list[dict]) -> dict[str, str]:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        wl = Screen(es, DEFAULT_SEED, {"screen": {"candidates": candidates}}, Path(tmp) / "screen")
        wl.setup()
        wl.write_files()
        out = {}
        for op in wl.ops(0):
            text = op.canon(op.run())
            problem = wl.validate(op.key, text)
            if problem:
                raise RuntimeError(f"screen {op.key}: {problem}")
            out[op.key] = digest(text)
    print(f"screen: {len(out)} default-seed outputs", flush=True)
    return out


def main() -> None:
    screen = screen_candidates()
    ref = {
        "screen": {"candidates": screen, "default_seed": screen_default(screen)},
        "cycle_line": {"accept": cycle_line()},
        "cut_deep": {"candidates": cut_deep()},
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
