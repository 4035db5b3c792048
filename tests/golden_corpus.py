"""Pinned CLI outputs: one digest of exit code, stdout and stderr per run.

The corpus runs every command on every ``NONSEPARABLE_FIXTURES`` graph,
two trees, a few fixed-seed random graphs, a 66-edge cubic graph past
the CLI's level-cap threshold and a twin-hub bipyramid, in both formats,
plus one run per exit-2 path and a few runs on hand-written files.
``tests/golden/digests.json`` holds the digests that ``test_golden.py``
requires the CLI to reproduce.

Regenerate the file with ``python tests/golden_corpus.py --force`` after
a deliberate change of output, and name each changed entry in the change
log; without ``--force`` the script only reports the entries that differ
and refuses to write.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from random import Random

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

if __name__ == "__main__":
    sys.path[:0] = [str(Path(__file__).parent), str(Path(__file__).parents[1] / "src")]

from edgespec.cli import main  # noqa: E402

import fixtures as fx  # noqa: E402

FORMATS = ("human", "machine")


def graphs() -> dict:
    """The corpus graphs by name, each built afresh."""
    out = {name: make() for name, make in fx.NONSEPARABLE_FIXTURES.items()}
    out["spider_tree"] = fx.spider_tree()
    out["caterpillar_tree"] = fx.caterpillar_tree()
    for seed in (1, 2, 3, 4):
        out[f"random_{seed}"] = fx.random_nonseparable(Random(seed))
    out["cubic_12"] = fx.random_cubic(Random(5), 12)
    # 66 edges: the CLI caps the cut spectrum at 2 levels and says so
    out["cubic_44"] = fx.random_cubic(Random(1), 44)
    out |= {name: make() for name, make in LATE.items()}
    return out


# graphs added after the ring of compare runs was pinned; each is compared
# with the graph before it, so every pair in the ring stays as it was.
# The bipyramid's twin hubs of degree 13 over degree-4 rim vertices give
# the cut step short columns of two entries, and 126 cut levels.
LATE = {"bipyramid_13": lambda: fx.bipyramid(13)}


def edge_list(edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


def reversed_edges(g) -> list[tuple[int, int]]:
    """g's edges with vertex v renamed n + 1 - v, listed in sorted order."""
    return sorted(tuple(sorted((g.n + 1 - u, g.n + 1 - v))) for u, v in g.edges)


# (case, file name, file contents, command line) for each exit-2 path the
# graph runs do not reach, for the offset format, for a file that names no
# format and for a one-vertex graph, whose line graph is empty; {} in a
# command line stands for the file, and file names are distinct, as every
# file is written before the first run
FILE_RUNS = (
    ("missing file", None, None, ["invariant", "{}"]),
    ("missing second file", "k3.edges", "1 2\n2 3\n1 3\n", ["compare", "{}", "nope.edges"]),
    ("directory", None, None, ["orbits", "."]),
    ("non-utf8 file", "latin.edges", b"1 2\n2 3\n1 3\n\xff\xfe\n", ["linegraph", "{}"]),
    ("malformed offsets", "bad.grf", "2 9 9 9\n", ["invariant", "{}"]),
    ("three ids on a line", "triple.edges", "1 2 3\n", ["cycles", "{}"]),
    ("loop", "loop.edges", "1 2\n2 2\n", ["invariant", "{}"]),
    ("duplicate edge", "dup.edges", "1 2\n2 3\n1 3\n3 1\n", ["invariant", "{}"]),
    ("disconnected", "two.edges", "1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n", ["invariant", "{}"]),
    ("cut vertex", "bowtie.edges", "1 2\n2 3\n1 3\n3 4\n4 5\n3 5\n", ["invariant", "{}"]),
    ("level cap 0", "k3.edges", "1 2\n2 3\n1 3\n", ["spectrum", "{}", "--max-levels", "0"]),
    ("unknown command", None, None, ["frobnicate", "g.grf"]),
    ("missing path", None, None, ["invariant"]),
    ("bad format", "k3.edges", "1 2\n2 3\n1 3\n", ["invariant", "{}", "--format", "xml"]),
    ("bad int", "k3.edges", "1 2\n2 3\n1 3\n", ["invariant", "{}", "--max-levels", "x"]),
    ("abbreviation", "k3.edges", "1 2\n2 3\n1 3\n", ["invariant", "{}", "--max", "2"]),
    ("grf file", "k4.grf", "4\n1 4 7 10 13\n2 3 4\n1 3 4\n1 2 4\n1 2 3\n", ["invariant", "{}"]),
    ("sniffed file", "k4", "4\n1 4 7 10 13\n2 3 4\n1 3 4\n1 2 4\n1 2 3\n", ["orbits", "{}"]),
    ("one vertex", "one.grf", "1\n1 1\n", ["linegraph", "{}"]),
)


def graph_runs(names: list[str], ring: int) -> list[tuple[str, list[str]]]:
    """(case, command line) of every graph run; files are named by graph,
    and each graph is compared with a relabelled copy of itself and with
    another: the first ``ring`` names each with the next one in a ring,
    and any name past them with the one before it."""
    runs = []
    for i, name in enumerate(names):
        j = (i + 1) % ring if i < ring else i - 1
        f, other, rev = f"{name}.edges", f"{names[j]}.edges", f"{name}_rev.edges"
        for fmt in FORMATS:
            for args in (
                ["invariant", f],
                ["invariant", f, "--with-line-invariant"],
                ["compare", f, other],
                ["compare", f, rev, "--with-line-invariant"],
                ["cycles", f],
                ["spectrum", f, "--max-levels", "3"],
                ["spectrum", f, "--kind", "cycle", "--max-levels", "2"],
                ["orbits", f],
                ["orbits", f, "--with-line-invariant"],
                ["linegraph", f],
                ["tree", f],
            ):
                args = [*args, "--format", fmt]
                runs.append((" ".join(args), args))
    return runs


def write_inputs(where: Path) -> list[tuple[str, list[str]]]:
    """Write every input file under ``where``; return each run's case name
    and command line, the file names made absolute."""
    corpus = graphs()
    for name, g in corpus.items():
        (where / f"{name}.edges").write_text(edge_list(g.edges))
        (where / f"{name}_rev.edges").write_text(edge_list(reversed_edges(g)))
    names = [*sorted(corpus.keys() - LATE.keys()), *LATE]
    runs = [
        (case, [str(where / a) if a.endswith(".edges") else a for a in args])
        for case, args in graph_runs(names, len(names) - len(LATE))
    ]
    for case, file, text, args in FILE_RUNS:
        path = where / (file or "nope.edges")
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        args = [str(path) if a == "{}" else a for a in args]
        args = [str(where / a) if a in ("nope.edges", ".") else a for a in args]
        runs.append((f"file: {case}", args))
    return runs


def run(args: list[str], where: Path) -> str:
    """Digest of one in-process CLI run.  Paths under ``where`` read as
    relative, and a usage error's stderr as its first word, since argparse
    words its usage and messages differently across Python versions."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main.main(args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    prefix = f"{where}/"
    stdout, stderr = (s.getvalue().replace(prefix, "").replace(str(where), ".") for s in (out, err))
    if stderr.startswith("usage: edgespec"):
        stderr = "usage:"
    blob = json.dumps([code, stdout, stderr]).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def digests(where: Path) -> dict[str, str]:
    return {case: run(args, where) for case, args in write_inputs(where)}


def differences(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """The cases whose digests differ, or that only one side has."""
    return sorted(c for c in expected.keys() | actual.keys() if expected.get(c) != actual.get(c))


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Regenerate tests/golden/digests.json.")
    parser.add_argument("--force", action="store_true", help="overwrite the pinned digests")
    opts = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        fresh = digests(Path(tmp).resolve())
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if old == fresh:
        print(f"all {len(fresh)} digests match")
        sys.exit(0)
    changed = differences(old, fresh) if old else []
    for case in changed:
        print(f"differs: {case}")
    if old and not opts.force:
        print(f"{len(changed)} of {len(fresh)} digests differ; nothing written without --force")
        sys.exit(1)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fresh)} digests to {DIGESTS}")
