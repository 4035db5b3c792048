"""A catalogue of mutants, faults that the tests must catch, and its runner.

Each entry changes one exact piece of text in one file under ``src/``.
It names either the test files that must kill it, or why it is
equivalent: a change that no output can show, such as a test that only
prunes.  The runner copies the repository to a temporary directory per
mutant, applies the mutant there, and runs the named test files with
``pytest -x`` under ``python -O``, as the CI oracle step does, so the
asserts in ``src/`` cannot kill a mutant on the tests' behalf.  A run
that outlives ``TIMEOUT`` seconds counts as killed, but is reported
apart; ``TIMEOUT`` times the number of mutants to kill stays inside the
``timeout-minutes`` of the CI ``mutants`` job, which
``tests/test_mutants.py`` checks along with the catalogue's texts.

    python tests/mutants.py

The exit status is 1 when a mutant that must be killed survives, or when
an entry's text does not occur exactly once in its file, which marks the
catalogue as stale.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 60.0
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".perfbench_work"
)


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    text: str
    replacement: str
    # test files or node ids that must kill it, or () for an equivalent one
    kill: tuple[str, ...] = ()
    equivalent: str = ""


CATALOGUE = (
    Mutant(
        "gather_tail_past_cols",
        "src/edgespec/graphs.py",
        "tail = groups[top][cols:]",
        "tail = groups[top][cols + 1:]",
        kill=("tests/test_graphs.py",),
    ),
    Mutant(
        "xi_without_alive_mask",
        "src/edgespec/spectra.py",
        "xi = [(r & alive).bit_count() for r in rows]",
        "xi = [r.bit_count() for r in rows]",
        kill=("tests/test_spectra_oracle.py",),
    ),
    Mutant(
        "vertex_cortege_dropped",
        "src/edgespec/spectra.py",
        "return cls(tuple(sorted(edge_w)), tuple(sorted(vertex_w)))",
        "return cls(tuple(sorted(edge_w)), ())",
        kill=("tests/test_spectra_oracle.py",),
    ),
    Mutant(
        "seen_sets_stop_at_half",
        "src/edgespec/spectra.py",
        "if level <= m:",
        "if level <= m // 2:",
        kill=("tests/test_spectra_oracle.py::test_trees_with_late_repeats_match_reference",),
    ),
    Mutant(
        "block_alive_lane_late",
        "src/edgespec/spectra.py",
        "alive ^= ends.get(j, 0)",
        "alive ^= ends.get(j - 1, 0)",
        kill=("tests/test_spectra_oracle.py",),
    ),
    Mutant(
        "block_popcount_without_fold_32",
        "src/edgespec/spectra.py",
        "x += x >> 32",
        "x += 0",
        kill=("tests/test_spectra_oracle.py",),
    ),
    Mutant(
        "block_jump_half_power",
        "src/edgespec/spectra.py",
        "recent[_BLOCK - 1]",
        "recent[_BLOCK // 2 - 1]",
        kill=("tests/test_spectra_oracle.py",),
    ),
    Mutant(
        "level_window_unbounded",
        "src/edgespec/spectra.py",
        "if level < first_block:",
        "if True:",
        kill=("tests/test_spectra_oracle.py::test_rows_wider_than_a_lane_pin_no_window",),
    ),
    Mutant(
        "death_value_searched_in_reverse",
        "src/edgespec/spectra.py",
        "history = (rows[e - 1] for rows in recent)",
        "history = (rows[e - 1] for rows in reversed(recent))",
        kill=("tests/test_spectra_oracle.py",),
    ),
    Mutant(
        "death_value_in_image_always",
        "src/edgespec/spectra.py",
        "death = next(v for v in history if not _reduce(v, basis))",
        "death = next(v for v in history if True)",
        kill=("tests/test_spectra_oracle.py",),
    ),
    Mutant(
        "death_lane_zero_test_high_bit_only",
        "src/edgespec/spectra.py",
        "zero = high & ~(((x & low) + low) | x)",
        "zero = high & ~x",
        kill=("tests/test_spectra_oracle.py",),
    ),
    Mutant(
        "level_window_kept_past_first_block",
        "src/edgespec/spectra.py",
        "recent.clear()",
        "pass",
        kill=("tests/test_spectra_oracle.py::test_window_is_released_past_the_first_block",),
    ),
    Mutant(
        "ended_spectrum_keeps_its_loop",
        "src/edgespec/spectra.py",
        "self._levels = levels = None",
        "levels = None",
        kill=("tests/test_spectra_oracle.py::test_ended_spectra_drop_the_loop",),
    ),
    Mutant(
        "sphere_pass_balls_shifted",
        "src/edgespec/graphs.py",
        "grown = [*map(or_, ball, grow(ball))]",
        "grown = [*map(or_, ball[:1] + ball[2:] + [0], grow(ball))]",
        kill=("tests/test_graphs.py",),
    ),
    Mutant(
        "cut_level_edge_cortege_only",
        "src/edgespec/engine.py",
        "if Invariant.from_weights(*gb.weights[l]) != Invariant.from_weights(*hb.weights[l]):",
        "if sorted(gb.weights[l][0]) != sorted(hb.weights[l][0]):",
        kill=("tests/test_census.py",),
    ),
    Mutant(
        "vertex_top_both_orders",
        "src/edgespec/isometric.py",
        "ys = pool & -2 << x if first else pool",
        "ys = pool",
        kill=("tests/test_isometric_oracle.py",),
    ),
    Mutant(
        "cut_witness_steps_two_levels",
        "src/edgespec/engine.py",
        "        l += 1\n",
        "        l += 2\n",
        kill=("tests/test_compare_oracle.py",),
    ),
    Mutant(
        "brute_force_without_degree_test",
        "src/edgespec/engine.py",
        "if w in used or h.degree(w) != g.degree(v):",
        "if w in used:",
        equivalent="the degree test only prunes: an edge check rejects what it would",
    ),
    Mutant(
        "lister_no_pentagons",
        "src/edgespec/isometric.py",
        "us = near_a & masks[b][2]",
        "us = 0",
        kill=("tests/test_linegraph_oracle.py",),
    ),
    Mutant(
        "lister_not_counted",
        "src/edgespec/isometric.py",
        "g._cut, limit, found, tried)",
        "g._cut, limit, found, 0)",
        kill=("tests/test_isometric.py",),
    ),
    Mutant(
        "tops_from_k2",
        "src/edgespec/isometric.py",
        "for k in range(3, len(sw)):",
        "for k in range(2, len(sw)):",
        kill=("tests/test_linegraph_oracle.py",),
    ),
    Mutant(
        "lister_pentagon_v_may_be_a",
        "src/edgespec/isometric.py",
        "vs = near_b & far_a",
        "vs = near_b",
        kill=("tests/test_linegraph_oracle.py",),
    ),
    Mutant(
        "lister_pair_test_dropped",
        "src/edgespec/isometric.py",
        "if not far_a >> b & 1:",
        "if False:",
        kill=("tests/test_isometric_oracle.py",),
    ),
    Mutant(
        "lister_4_cycle_without_anchor_mask",
        "src/edgespec/isometric.py",
        "xs = near_a & near_b",
        "xs = nbr[a] & nbr[b] & -2 << w",
        kill=("tests/test_isometric_oracle.py",),
    ),
    Mutant(
        "tops_skip_without_level_2",
        "src/edgespec/isometric.py",
        "if not (mw[2] & above and mw[3] & above):",
        "if not (mw[2] and mw[3] & above):",
        kill=("tests/test_isometric.py::test_limit_is_the_route_pairs_tried",),
    ),
    Mutant(
        "gather_short_slice_one_short",
        "src/edgespec/graphs.py",
        "out[:end] = map(op, col(seq), out)",
        "out[:end - 1] = map(op, col(seq), out)",
        kill=("tests/test_spectra_oracle.py", "tests/test_graphs.py"),
    ),
    Mutant(
        "gather_column_ends_one_early",
        "src/edgespec/graphs.py",
        "ends += [i + 1] * (min(lengths[i], cols) - len(ends))",
        "ends += [i] * (min(lengths[i], cols) - len(ends))",
        kill=("tests/test_spectra_oracle.py", "tests/test_graphs.py"),
    ),
    Mutant(
        "has_edge_on_a_loop",
        "src/edgespec/graphs.py",
        "if u == v or not (1 <= u <= self.n and 1 <= v <= self.n):",
        "if not (1 <= u <= self.n and 1 <= v <= self.n):",
        kill=("tests/test_graphs.py",),
    ),
    Mutant(
        "has_edge_without_lower_bound",
        "src/edgespec/graphs.py",
        "if u == v or not (1 <= u <= self.n and 1 <= v <= self.n):",
        "if u == v or not (u <= self.n and v <= self.n):",
        kill=("tests/test_graphs.py",),
    ),
    Mutant(
        "edge_list_repeats_an_edge",
        "src/edgespec/graphs.py",
        "if cut[u] & cut[v]:",
        "if False:",
        kill=("tests/test_grf_oracle.py",),
    ),
    Mutant(
        "constructor_without_range_check",
        "src/edgespec/graphs.py",
        "            if not (1 <= u <= n and 1 <= v <= n):\n"
        "                raise VertexOutOfRange(f\"edge ({u},{v}) outside 1..{n}\")\n",
        "",
        kill=("tests/test_grf_oracle.py",),
    ),
    Mutant(
        "loader_fallback_parse_errors_only",
        "src/edgespec/grf.py",
        "    except GraphError as exc:\n"
        "        try:\n"
        "            return parse_edgelist(text)\n"
        "        except EdgespecError:\n"
        "            raise exc from None\n",
        "",
        kill=("tests/test_grf_oracle.py",),
    ),
    Mutant(
        "adjacency_symmetry_unchecked",
        "src/edgespec/graphs.py",
        "if listed != lower:",
        "if False:",
        kill=("tests/test_grf_oracle.py",),
    ),
    Mutant(
        "tree_invariant_keeps_rows",
        "src/edgespec/engine.py",
        "return spectrum_invariant(_cut_builder(t, None))",
        "return spectrum_invariant(_cut_builder(t, None, True))",
        kill=("tests/test_engine.py::test_engine_paths_keep_no_rows",),
    ),
)


def stale(mutant: Mutant) -> str | None:
    """Why the entry no longer applies, or None."""
    count = (ROOT / mutant.file).read_text().count(mutant.text)
    return None if count == 1 else f"text occurs {count} times in {mutant.file}"


def run(mutant: Mutant) -> tuple[str, float]:
    """(outcome, seconds) of the kill tests on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        path = copy / mutant.file
        path.write_text(path.read_text().replace(mutant.text, mutant.replacement))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-O", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.kill]
        start = time.monotonic()
        try:
            done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timed out", time.monotonic() - start
        seconds = time.monotonic() - start
    # 4: usage error, such as a test file that does not exist; 5: no tests
    if done.returncode in (4, 5):
        return f"error (pytest exit {done.returncode})", seconds
    return ("survived" if done.returncode == 0 else "killed"), seconds


def main() -> int:
    failed = False
    for mutant in CATALOGUE:
        why = stale(mutant)
        if why:
            outcome, seconds = f"stale: {why}", 0.0
        elif not mutant.kill:
            outcome, seconds = f"equivalent: {mutant.equivalent}", 0.0
        else:
            outcome, seconds = run(mutant)
        failed |= not outcome.startswith(("killed", "timed out", "equivalent"))
        print(f"{mutant.name:34} {outcome} ({seconds:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
