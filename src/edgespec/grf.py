"""Graph file parsing and emission.

The offset format holds a vertex count, a directory of n+1 cumulative
1-based offsets, and the concatenated neighbor lists; braces enclose
comments.  The edge-list format is one "u v" pair per line with optional
# comments, and preserves the listed edge order as the edge numbering.
"""

from __future__ import annotations

import re
from itertools import chain

from .errors import BadOffsets, GrfParseError, OddNeighborCount
from .graphs import Graph, build_graph, graph_from_edges

_COMMENT = re.compile(r"\{[^}]*\}")


def _tokens(text: str) -> list[int]:
    cleaned = _COMMENT.sub(" ", text) if "{" in text else text
    if "{" in cleaned or "}" in cleaned:
        raise GrfParseError("unbalanced comment braces")
    words = cleaned.split()
    try:
        return [*map(int, words)]
    except ValueError:
        # a re-scan names the first token that is not an integer
        bad = next(tok for tok in words if not _is_int(tok))
        raise GrfParseError(f"not an integer: {bad!r}") from None


def _is_int(tok: str) -> bool:
    try:
        int(tok)
    except ValueError:
        return False
    return True


def parse_grf(text: str) -> Graph:
    """Parse the offset format into a canonically numbered graph."""
    toks = _tokens(text)
    if not toks:
        raise GrfParseError("empty input")
    n = toks[0]
    if n < 1:
        raise GrfParseError(f"vertex count {n} must be positive")
    if len(toks) < n + 2:
        raise BadOffsets(f"expected {n + 1} offsets after the vertex count")
    offsets = toks[1 : n + 2]
    if offsets[0] != 1:
        raise BadOffsets(f"first offset must be 1, got {offsets[0]}")
    if sorted(offsets) != offsets:
        a, b = next((a, b) for a, b in zip(offsets, offsets[1:]) if b < a)
        raise BadOffsets(f"offsets decrease: {a} then {b}")
    total = offsets[-1] - 1
    if total % 2 != 0:
        raise OddNeighborCount(f"{total} neighbor entries cannot pair up")
    body = toks[n + 2 :]
    if len(body) != total:
        raise BadOffsets(
            f"offset directory promises {total} neighbor entries, found {len(body)}"
        )
    rows = [
        body[offsets[v] - 1 : offsets[v + 1] - 1] for v in range(n)
    ]
    return build_graph(n, rows)


def emit_grf(g: Graph) -> str:
    """Offset-format text; parse_grf(emit_grf(g)) == g for canonical graphs."""
    offsets = [1]
    for v in g.vertices:
        offsets.append(offsets[-1] + g.degree(v))
    lines = [str(g.n), " ".join(str(o) for o in offsets)]
    for v in g.vertices:
        lines.append(" ".join(str(u) for u in g.adjacency(v)))
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    """Parse "u v" lines; the listing order becomes the edge numbering."""
    pairs = [*filter(None, (raw.split("#", 1)[0].split() for raw in text.splitlines()))]
    if not {*map(len, pairs)} <= {2}:
        raise _line_error(text)
    try:
        ids = [*map(int, chain.from_iterable(pairs))]
    except ValueError:
        raise _line_error(text) from None
    if not ids:
        raise GrfParseError("no edges found")
    return graph_from_edges(max(0, *ids), zip(ids[::2], ids[1::2]))


def _line_error(text: str) -> GrfParseError:
    """The error for the first line that is not a pair of integers."""
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 2:
            return GrfParseError(f"expected two vertex ids per line: {raw!r}")
        if not (_is_int(parts[0]) and _is_int(parts[1])):
            return GrfParseError(f"not an integer pair: {raw!r}")


def load_graph(text: str) -> Graph:
    """Parse either supported format, preferring the offset format."""
    try:
        return parse_grf(text)
    except GrfParseError:
        return parse_edgelist(text)
