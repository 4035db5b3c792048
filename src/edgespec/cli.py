"""Command line interface.

Reads graphs from offset-format files (.grf) or plain edge lists, prints
invariants, spectra, cycles, orbit candidates, and comparison verdicts in
a human layout or a machine JSON layout.  Exit code 1 flags a not
isomorphic verdict; any library error, such as unreadable input, exits 2.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .engine import (
    IntegralInvariant,
    Verdict,
    compare_graphs,
    integral_invariant,
    is_tree,
    tree_invariant,
    vertex_orbit_partition,
)
from .errors import EdgespecError, GrfParseError
from .graphs import Graph
from .grf import load_graph, parse_edgelist, parse_grf
from .isometric import cycle_order, isometric_cycles
from .linegraph import classify_line_cycles, line_weights
from .spectra import (
    Invariant,
    SpectrumInvariant,
    build_cut_spectrum,
    build_cycle_spectrum,
    spectrum_edge_weights,
    vertex_weights,
)

LEVEL_CAP_THRESHOLD = 64
LINE_WARN_EDGES = 200


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


def _warn_line(g: Graph) -> None:
    if g.m > LINE_WARN_EDGES:
        _echo(
            f"warning: line invariant over {g.m} edges may be slow",
            err=True,
        )


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
    # click.echo's default stream comes from a cache that never frees a
    # redirected sys.stdout or sys.stderr; get_text_stream applies the same
    # encoding fix-up to the current stream without caching it
    click.echo(text, file=click.get_text_stream("stderr" if err else "stdout"))


def _emit_machine(payload: dict) -> None:
    _echo(json.dumps(payload, indent=2, sort_keys=True))


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


class _Main(click.Group):
    """The command group; any library error a command raises exits 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except EdgespecError as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main() -> None:
    """Graph invariants from edge-cut and edge-cycle spectra."""


_format = click.option(
    "--format",
    "fmt",
    type=click.Choice(["human", "machine"]),
    default="human",
)


@main.command()
@click.argument("path")
@click.option("--max-levels", type=int, default=None, help="Cut spectrum level cap.")
@click.option("--with-line-invariant", is_flag=True, help="Also compute IL.")
@_format
def invariant(path: str, max_levels: int | None, with_line_invariant: bool, fmt: str) -> None:
    """Integral invariant of one graph."""
    g = _load(path)
    cap = _effective_levels(g, max_levels)
    if with_line_invariant:
        _warn_line(g)
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


@main.command()
@click.argument("path_a")
@click.argument("path_b")
@click.option("--max-levels", type=int, default=None, help="Cut spectrum level cap.")
@click.option("--with-line-invariant", is_flag=True, help="Also compare IL.")
@click.option("--brute-force-limit", type=int, default=10, show_default=True)
@_format
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
    if with_line_invariant:
        _warn_line(g)
        _warn_line(h)
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


@main.command()
@click.argument("path")
@_format
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


@main.command()
@click.argument("path")
@click.option("--kind", type=click.Choice(["cut", "cycle"]), default="cut")
@click.option("--max-levels", type=int, default=None, help="Level cap.")
@_format
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
    zeta = vertex_weights(spec, xi)
    if fmt == "machine":
        payload = {
            "kind": spec.kind,
            "level_count": spec.level_count,
            "truncated": spec.truncated,
            "levels": [
                [None if c is None else list(c.ids()) for c in level]
                for level in spec.levels
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
    for l, level in enumerate(spec.levels):
        _echo(f"level {l}:")
        for e in g.edge_ids:
            cell = level[e - 1]
            body = "-" if cell is None else " ".join(str(i) for i in cell.ids())
            _echo(f"  e{e}: {body}")
        _echo("  xi:   " + " ".join(str(x) for x in xi.per_level[l]))
        _echo("  zeta: " + " ".join(str(z) for z in zeta.per_level[l]))
    _echo("totals:")
    _echo("  xi:   " + " ".join(str(x) for x in xi.total))
    _echo("  zeta: " + " ".join(str(z) for z in zeta.total))


@main.command()
@click.argument("path")
@click.option("--max-levels", type=int, default=None, help="Cut spectrum level cap.")
@click.option("--with-line-invariant", is_flag=True, help="Add IL to the signature.")
@_format
def orbits(path: str, max_levels: int | None, with_line_invariant: bool, fmt: str) -> None:
    """Candidate vertex orbits from weight signatures."""
    g = _load(path)
    cap = _effective_levels(g, max_levels)
    if with_line_invariant:
        _warn_line(g)
    part = vertex_orbit_partition(g, max_levels=cap, with_line=with_line_invariant)
    if fmt == "machine":
        _emit_machine({"groups": [list(grp) for grp in part.groups]})
        return
    for i, grp in enumerate(part.groups, start=1):
        _echo(f"orbit {i}: " + " ".join(str(v) for v in grp))


@main.command()
@click.argument("path")
@_format
def linegraph(path: str, fmt: str) -> None:
    """Line graph size, cycle classification, and the line invariant."""
    g = _load(path)
    _warn_line(g)
    lg, cls = classify_line_cycles(g)
    vertex_sets = (image for _, image in cls.triples + cls.images + cls.doubles)
    inv = Invariant.from_weights(*line_weights(g, vertex_sets))
    triples, images, doubles = cls.counts
    if fmt == "machine":
        payload = {
            "line_n": lg.graph.n,
            "line_m": lg.graph.m,
            "cycles": triples + images + doubles,
            "triples": triples,
            "images": images,
            "doubles": doubles,
            "invariant": _invariant_dict(inv),
        }
        _emit_machine(payload)
        return
    _echo(f"line graph: {lg.graph.n} vertices, {lg.graph.m} edges")
    _echo(f"isometric cycles: {triples + images + doubles}")
    _echo(f"vertex triples: {triples}")
    _echo(f"cycle images: {images}")
    _echo(f"double cycles: {doubles}")
    _echo(f"IL: {inv}")


@main.command()
@click.argument("path")
@_format
def tree(path: str, fmt: str) -> None:
    """Uncapped cut invariant of a tree."""
    g = _load(path)
    inv = tree_invariant(g)
    if fmt == "machine":
        _emit_machine({"n": g.n, "m": g.m, "invariant": _spectrum_inv_dict(inv)})
        return
    _print_integral(g, IntegralInvariant(inv, None, None))


if __name__ == "__main__":
    main()
