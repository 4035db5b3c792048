"""Command line interface.

Reads graphs from offset-format files (.grf) or plain edge lists, prints
invariants, spectra, cycles, orbit candidates, and comparison verdicts in
a human layout or a machine JSON layout.  Exit code 1 flags a not
isomorphic verdict; any library error, such as unreadable input, exits 2,
and so does a usage error.
"""

from __future__ import annotations

import argparse
import codecs
import json
import os
import sys
from pathlib import Path
from typing import Iterator

from .engine import (
    IntegralInvariant,
    Verdict,
    compare_graphs,
    integral_invariant,
    is_tree,
    tree_invariant,
    vertex_orbit_partition,
)
from .errors import EdgespecError, GrfParseError, VertexOutOfRange
from .graphs import Graph, bit_ids
from .grf import load_graph, parse_edgelist, parse_grf
from .isometric import cycle_order, isometric_cycles
from .linegraph import _line_weights, classify_line_cycles
from .spectra import (
    Invariant,
    Spectrum,
    SpectrumInvariant,
    build_cut_spectrum,
    build_cycle_spectrum,
    spectrum_edge_weights,
    vertex_weights,
)

LEVEL_CAP_THRESHOLD = 64


def _read(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise GrfParseError(f"cannot read {path}: {exc}") from exc


def _load(path: str) -> Graph:
    text = _read(path)
    if path.endswith(".grf"):
        return parse_grf(text)
    if path.endswith((".edges", ".txt")):
        return parse_edgelist(text)
    return load_graph(text)


def _effective_levels(g: Graph, max_levels: int | None, kind: str = "cut") -> int | None:
    # checked before the tree routing, so the exit code is 2 for any input
    if max_levels is not None and max_levels < 1:
        raise VertexOutOfRange(f"level cap {max_levels} must be at least 1")
    # trees take the tree invariant, which no cap applies to
    if max_levels is not None or is_tree(g):
        return max_levels
    if g.m > LEVEL_CAP_THRESHOLD:
        _echo(
            f"note: {g.m} edges exceed {LEVEL_CAP_THRESHOLD}, "
            f"capping the {kind} spectrum at 2 levels (override with --max-levels)",
            err=True,
        )
        return 2
    return None


def _invariant_dict(inv: Invariant) -> dict:
    return {"edge": list(inv.edge_cortege), "vertex": list(inv.vertex_cortege)}


def _spectrum_inv_dict(si: SpectrumInvariant) -> dict:
    return {
        "kind": si.kind,
        "level_count": si.level_count,
        "truncated": si.truncated,
        "total": _invariant_dict(si.total),
        "per_level": [_invariant_dict(lv) for lv in si.per_level],
    }


def _echo(text: str, err: bool = False) -> None:
    print(text, file=sys.stderr if err else sys.stdout)


def _emit_machine(payload: dict) -> None:
    # streamed: the JSON text is never held whole
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _print_integral(g: Graph, inv: IntegralInvariant) -> None:
    _echo(f"vertices: {g.n}")
    _echo(f"edges: {g.m}")
    if inv.cycle is None:
        _echo(f"tree levels: {inv.cut.level_count}")
        _echo(f"IT: {inv.cut.total}")
        return
    _echo(f"cut levels: {inv.cut.level_count}")
    _echo(f"IS: {inv.cut.total}")
    for l, lv in enumerate(inv.cut.per_level):
        _echo(f"IS[{l}]: {lv}")
    _echo(f"IC: {inv.cycle.total}")
    if inv.line is not None:
        _echo(f"IL: {inv.line}")


def invariant(path: str, max_levels: int | None, with_line_invariant: bool, fmt: str) -> None:
    """Integral invariant of one graph."""
    g = _load(path)
    cap = _effective_levels(g, max_levels)
    inv = integral_invariant(g, max_levels=cap, with_line=with_line_invariant)
    if fmt == "machine":
        payload = {
            "n": g.n,
            "m": g.m,
            "tree": inv.cycle is None,
            "cut": _spectrum_inv_dict(inv.cut),
            "cycle": None if inv.cycle is None else _spectrum_inv_dict(inv.cycle),
            "line": None if inv.line is None else _invariant_dict(inv.line),
        }
        _emit_machine(payload)
    else:
        _print_integral(g, inv)


def compare(
    path_a: str,
    path_b: str,
    max_levels: int | None,
    with_line_invariant: bool,
    brute_force_limit: int,
    fmt: str,
) -> None:
    """Compare two graphs; exit 1 when they are not isomorphic."""
    g = _load(path_a)
    h = _load(path_b)
    cap_g = _effective_levels(g, max_levels)
    result = compare_graphs(
        g,
        h,
        max_levels=cap_g,
        with_line=with_line_invariant,
        brute_force_limit=brute_force_limit,
    )
    if fmt == "machine":
        payload = {
            "verdict": result.verdict.value,
            "witness": result.witness,
            "bijection": None
            if result.bijection is None
            else {str(k): v for k, v in result.bijection.items()},
        }
        _emit_machine(payload)
    else:
        _echo(f"verdict: {result.verdict.value}")
        if result.witness:
            _echo(f"witness: {result.witness}")
        if result.bijection:
            pairs = " ".join(f"{k}->{v}" for k, v in result.bijection.items())
            _echo(f"bijection: {pairs}")
    if result.verdict is Verdict.NOT_ISOMORPHIC:
        sys.exit(1)


def cycles(path: str, fmt: str) -> None:
    """Isometric cycles: edge id lines, then vertex id lines."""
    g = _load(path)
    found = isometric_cycles(g)
    ordered = [cycle_order(g, c) for c in found]
    if fmt == "machine":
        payload = {
            "count": len(found),
            "cycles": [
                {"edges": list(c.ids()), "vertices": list(seq)}
                for c, seq in zip(found, ordered)
            ],
        }
        _emit_machine(payload)
        return
    _echo(f"isometric cycles: {len(found)}")
    _echo("edges:")
    for i, c in enumerate(found, start=1):
        _echo(f"cycle {i}: " + " ".join(str(e) for e in c.ids()))
    _echo("vertices:")
    for i, seq in enumerate(ordered, start=1):
        _echo(f"cycle {i}: " + " ".join(str(v) for v in seq))


def _cells(spec: Spectrum) -> Iterator[Iterator[tuple[int, ...] | None]]:
    """Each level's cells: the edge ids of each live row, None for a dead one.
    Both are lazy, so a level's ids are made only as it is printed."""
    return (
        (bit_ids(r) if alive >> i & 1 else None for i, r in enumerate(rows))
        for rows, alive in zip(spec.rows, spec.alive)
    )


def spectrum(path: str, kind: str, max_levels: int | None, fmt: str) -> None:
    """Full spectrum table with per-level weights."""
    g = _load(path)
    cap = _effective_levels(g, max_levels, kind)
    spec = (
        build_cut_spectrum(g, cap)
        if kind == "cut"
        else build_cycle_spectrum(g, cap)
    )
    xi = spectrum_edge_weights(spec)
    zeta = vertex_weights(spec)
    if fmt == "machine":
        payload = {
            "kind": spec.kind,
            "level_count": spec.level_count,
            "truncated": spec.truncated,
            "levels": [
                [None if c is None else list(c) for c in level] for level in _cells(spec)
            ],
            "xi": {
                "per_level": [list(row) for row in xi.per_level],
                "total": list(xi.total),
            },
            "zeta": {
                "per_level": [list(row) for row in zeta.per_level],
                "total": list(zeta.total),
            },
        }
        _emit_machine(payload)
        return
    _echo(f"{kind} spectrum: {spec.level_count} levels")
    if spec.truncated:
        _echo("(truncated at the level cap)")
    for l, level in enumerate(_cells(spec)):
        _echo(f"level {l}:")
        for e, cell in enumerate(level, start=1):
            body = "-" if cell is None else " ".join(str(i) for i in cell)
            _echo(f"  e{e}: {body}")
        _echo("  xi:   " + " ".join(str(x) for x in xi.per_level[l]))
        _echo("  zeta: " + " ".join(str(z) for z in zeta.per_level[l]))
    _echo("totals:")
    _echo("  xi:   " + " ".join(str(x) for x in xi.total))
    _echo("  zeta: " + " ".join(str(z) for z in zeta.total))


def orbits(path: str, max_levels: int | None, with_line_invariant: bool, fmt: str) -> None:
    """Candidate vertex orbits from weight signatures."""
    g = _load(path)
    cap = _effective_levels(g, max_levels)
    part = vertex_orbit_partition(g, max_levels=cap, with_line=with_line_invariant)
    if fmt == "machine":
        _emit_machine({"groups": [list(grp) for grp in part.groups]})
        return
    for i, grp in enumerate(part.groups, start=1):
        _echo(f"orbit {i}: " + " ".join(str(v) for v in grp))


def linegraph(path: str, fmt: str) -> None:
    """Line graph size, cycle classification, and the line invariant."""
    g = _load(path)
    cls = classify_line_cycles(g)
    inv = Invariant.from_weights(*_line_weights(g, cls.images + cls.doubles))
    triples, images, doubles = cls.counts
    if fmt == "machine":
        payload = {
            "line_n": cls.line_n,
            "line_m": cls.line_m,
            "cycles": triples + images + doubles,
            "triples": triples,
            "images": images,
            "doubles": doubles,
            "invariant": _invariant_dict(inv),
        }
        _emit_machine(payload)
        return
    _echo(f"line graph: {cls.line_n} vertices, {cls.line_m} edges")
    _echo(f"isometric cycles: {triples + images + doubles}")
    _echo(f"vertex triples: {triples}")
    _echo(f"cycle images: {images}")
    _echo(f"double cycles: {doubles}")
    _echo(f"IL: {inv}")


def tree(path: str, fmt: str) -> None:
    """Uncapped cut invariant of a tree."""
    g = _load(path)
    inv = tree_invariant(g)
    if fmt == "machine":
        _emit_machine({"n": g.n, "m": g.m, "invariant": _spectrum_inv_dict(inv)})
        return
    _print_integral(g, IntegralInvariant(inv, None, None))


def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser and its commands by name."""

    def shared(*flags: str, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*flags, **kwargs)
        return parent

    fmt = shared(
        "--format",
        dest="fmt",
        choices=("human", "machine"),
        default="human",
        help="output layout (default: human)",
    )
    levels = shared(
        "--max-levels",
        type=int,
        metavar="N",
        help=f"spectrum level cap (default: none, or 2 for a non-tree past {LEVEL_CAP_THRESHOLD} edges)",
    )
    line = shared(
        "--with-line-invariant", action="store_true", help="include the line invariant IL"
    )
    parser = argparse.ArgumentParser(
        prog="edgespec",
        description="Graph invariants from edge-cut and edge-cycle spectra.",
        epilog="exit status: 0 done, 1 compare found the graphs not isomorphic, "
        "2 an error such as unreadable input or a usage error",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(required=True, metavar="COMMAND")
    commands = {}

    def command(run, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        commands[run.__name__] = run
        p = sub.add_parser(
            run.__name__,
            help=run.__doc__,
            description=run.__doc__,
            parents=[*parents, fmt],
            allow_abbrev=False,
        )
        p.set_defaults(run=run)
        return p

    command(invariant, levels, line).add_argument("path")
    p = command(compare, levels, line)
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument(
        "--brute-force-limit",
        type=int,
        default=10,
        metavar="N",
        help="largest vertex count settled by exhaustive search (default: 10)",
    )
    command(cycles).add_argument("path")
    p = command(spectrum, levels)
    p.add_argument("path")
    p.add_argument("--kind", choices=("cut", "cycle"), default="cut", help="(default: cut)")
    command(orbits, levels, line).add_argument("path")
    command(linegraph).add_argument("path")
    command(tree).add_argument("path")
    return parser, commands


class _Main:
    """The ``edgespec`` command, called as the console script.

    Any library error a command raises prints ``error: ...`` on stderr and
    exits 2; argparse exits 2 on a usage error.
    """

    def __init__(self) -> None:
        self.parser, self.commands = _parser()

    def main(self, args=None, prog_name=None, standalone_mode=True) -> None:
        """Run one command line; ``args`` defaults to ``sys.argv[1:]``.

        ``prog_name`` is accepted for callers of the click-style signature;
        usage text always names ``edgespec``.  In standalone mode, the
        console script's, a command that returns exits 0, an ASCII-only
        standard stream is switched to UTF-8 so that "×" prints, and a
        reader closing the pipe early exits 2 without a traceback.
        Otherwise a command that returns returns, and only exits 1 and 2
        raise ``SystemExit``.
        """
        if standalone_mode:
            for stream in (sys.stdout, sys.stderr):
                if codecs.lookup(getattr(stream, "encoding", None) or "utf-8").name == "ascii":
                    stream.reconfigure(encoding="utf-8")
        options = vars(self.parser.parse_args(args))
        run = options.pop("run")
        try:
            run(**options)
            if standalone_mode:
                sys.stdout.flush()
        except EdgespecError as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(2)
        except BrokenPipeError:
            if not standalone_mode:
                raise
            # stdout goes to /dev/null so that the flush at exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(2)
        if standalone_mode:
            sys.exit(0)

    __call__ = main


main = _Main()

if __name__ == "__main__":
    main()
