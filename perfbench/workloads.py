"""The three workloads: their inputs, their ops and how each op is checked.

An op is one graph analysed (``cut_deep``, ``cycle_line``) or one CLI
command (``screen``).  A workload hands out its ops a pass at a time; the
runner repeats whole passes, so every run has the same mix of ops.

Inputs come from ``--seed``: it relabels the graphs' vertices (afresh in
each pass on ``cut_deep`` and ``cycle_line``) and picks the switched and
moved copies and the edge orders of the ``screen`` files.  The graphs'
structure is fixed.  Random cubic graphs are heavy-tailed in cost (one
takes 5 ms, another 2 s, by its level count), so a seed-dependent sample
would make a run's cost depend on its seed.  ``cut_deep`` and ``screen``
therefore use the graphs listed in ``reference.json``, which record.py
chose from cost-binned pools; each entry gives the generator seed and a
digest of the edges, and on ``cut_deep`` the output digest, so
``cut_deep`` outputs are checked for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from math import comb
from pathlib import Path
from random import Random
from typing import Callable

import inputs

DEFAULT_SEED = 0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Op:
    """One timed call.  ``key`` names the reference its output must match;
    ops with equal keys must produce equal canonical output."""

    key: str
    run: Callable[[], object]
    canon: Callable[[object], str]


class OpError:
    """Canonical stand-in for an op that raised."""

    def __init__(self, exc: Exception) -> None:
        self.text = f"error:{type(exc).__name__}"


def _inv(inv) -> tuple:
    return None if inv is None else (inv.edge_cortege, inv.vertex_cortege)


def _spec_inv(si) -> tuple:
    if si is None:
        return None
    return (si.kind, si.level_count, si.truncated, _inv(si.total), tuple(_inv(l) for l in si.per_level))


def canon_integral(inv) -> str:
    """Label-invariant text of an IntegralInvariant."""
    return repr((_spec_inv(inv.cut), _spec_inv(inv.cycle), _inv(inv.line)))


def canon_cycles(g, result) -> str:
    """Label-invariant text of (isometric cycles, capped IS, base IC)."""
    cycles, cut, cyc = result
    per_vertex = [0] * (g.n + 1)
    for c in cycles:
        for e in c:
            for v in g.edge_endpoints(e):
                per_vertex[v] += 1
    lengths = sorted(len(c) for c in cycles)
    return repr((lengths, sorted(per_vertex[1:]), _spec_inv(cut), _spec_inv(cyc)))


def generate(c: dict) -> tuple[int, inputs.Edges]:
    """Rebuild a recorded candidate and check it is the graph recorded."""
    rng = Random(c["seed"])
    if c["gen"] == "cubic":
        n, edges = inputs.random_cubic(rng, c["n"])
    else:
        n, edges = inputs.random_nonseparable(rng, c["n_min"], c["n_max"])
    if inputs.edges_digest(n, edges) != c["edges"]:
        raise RuntimeError(f"generator drift: candidate {c['cls']}/{c['seed']} changed")
    return n, edges


class Workload:
    """Base: ``setup`` builds inputs, ``ops(k)`` gives pass k."""

    name = ""
    keeps_text = False  # keep first outputs for validate()
    root_layer = None  # layer of the span around each op when traced

    def __init__(self, es, seed: int, ref: dict, workdir: Path) -> None:
        self.es = es
        self.seed = seed
        self.ref = ref.get(self.name, {})
        self.workdir = workdir
        self.rng = Random(f"{self.name}-{seed}")

    def setup(self) -> None:
        raise NotImplementedError

    def write_files(self) -> None:
        """Write the input files the ops read, if any."""

    def ops(self, k: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def accepted(self, key: str) -> set[str] | None:
        """Output digests accepted for key, or None when none are recorded."""
        found = self.ref.get("accept", {}).get(key)
        return None if found is None else set(found)

    def validate(self, key: str, out: str) -> str | None:
        """Problem with an output beyond its digest, or None."""
        return None


class CutDeep(Workload):
    """``integral_invariant`` with IS uncapped and IC at base level on random
    cubic graphs of 20-26 vertices, plus one 64-vertex cubic graph capped at
    100 levels.  Each pass relabels every graph afresh, so no two ops in a
    run analyse the same labelled graph."""

    name = "cut_deep"

    def setup(self) -> None:
        self.base = [(c, generate(c)) for c in self.ref["candidates"]]

    def _op(self, c: dict, n: int, edges, rng: Random) -> Op:
        g = self.es.graph_from_edges(n, inputs.relabel(rng, n, edges))
        es = self.es
        return Op(
            f"{c['cls']}/{c['seed']}",
            lambda: es.integral_invariant(g, max_levels=c["max_levels"]),
            canon_integral,
        )

    def ops(self, k: int) -> list[Op]:
        rng = Random(f"{self.name}-{self.seed}-pass{k}")
        return [self._op(c, n, edges, rng) for c, (n, edges) in self.base]

    def warmup(self) -> list[Op]:
        # reference.json lists each class's graphs cheapest first
        c, (n, edges) = self.base[0]
        return [self._op(c, n, edges, Random(0))]

    def accepted(self, key: str) -> set[str] | None:
        cls, seed = key.split("/")
        for c in self.ref["candidates"]:
            if c["cls"] == cls and str(c["seed"]) == seed:
                return {c["out"]}
        return None


class CycleLine(Workload):
    """IL via ``integral_invariant(with_line=True)`` on seven symmetric
    graphs, and isometric cycles with the cut spectrum capped at 2 levels
    on grids and Q5.  Grid 10x10 exceeds the candidate bound of the
    enumerator; either that ``CandidateOverflow`` or the invariant of its 81
    unit squares is accepted.  Cheap graphs appear several times per pass
    (each time relabelled afresh) so a run holds over 100 ops."""

    name = "cycle_line"
    LINE = (
        ("K6", lambda: inputs.complete(6), 6),
        ("K7", lambda: inputs.complete(7), 4),
        ("octahedron", inputs.octahedron, 8),
        ("petersen", inputs.petersen, 8),
        ("Q4", lambda: inputs.hypercube(4), 3),
        ("rook4x4", inputs.rook_4x4, 1),
        ("shrikhande", inputs.shrikhande, 1),
    )
    CYCLES = (
        ("grid5x5", lambda: inputs.grid(5, 5), 3),
        ("grid4x8", lambda: inputs.grid(4, 8), 1),
        ("grid6x6", lambda: inputs.grid(6, 6), 1),
        ("Q5", lambda: inputs.hypercube(5), 1),
        ("grid10x10", lambda: inputs.grid(10, 10), 1),
    )
    FIXED_LABELS = "grid10x10"

    def setup(self) -> None:
        self.base = [("line", key, *make(), copies) for key, make, copies in self.LINE]
        self.base += [("cycles", key, *make(), copies) for key, make, copies in self.CYCLES]

    def _op(self, kind: str, key: str, n: int, edges, rng: Random) -> Op:
        # how long grid 10x10 runs before it overflows depends on which anchor
        # overflows first, which its labels decide (4 ms to 2 s), so it keeps
        # its own labels and costs the same in every pass
        if key != self.FIXED_LABELS:
            edges = inputs.relabel(rng, n, edges)
        g = self.es.graph_from_edges(n, edges)
        es = self.es
        if kind == "line":
            return Op(key, lambda: es.integral_invariant(g, with_line=True), canon_integral)

        def cycles_op():
            cut = es.spectrum_invariant(es.build_cut_spectrum(g, 2))
            cycles = es.isometric_cycles(g)
            return cycles, cut, es.spectrum_invariant(es.build_cycle_spectrum(g, 1, cycles))

        return Op(key, cycles_op, lambda r: canon_cycles(g, r))

    def ops(self, k: int) -> list[Op]:
        rng = Random(f"{self.name}-{self.seed}-pass{k}")
        return [
            self._op(kind, key, n, edges, rng)
            for kind, key, n, edges, copies in self.base
            for _ in range(copies)
        ]

    def warmup(self) -> list[Op]:
        rng = Random(0)
        return [self._op(kind, key, n, edges, rng) for kind, key, n, edges, _ in self.base if key in ("K6", "grid5x5")]


class Screen(Workload):
    """An in-process CLI session in machine format over a catalogue of small
    graphs written as .grf files, with queries written as edge lists.  Per
    catalogue graph: ``orbits``; ``compare`` against a relabelled copy
    (brute force settles it up to 10 vertices, above that the verdict is
    "indistinguishable"), against a degree-preserving switch of it, against
    a copy with one edge end moved (degrees differ) and against the next
    catalogue graph (order or size often differ).  Graphs of at most 8 vertices also
    get ``linegraph`` and ``compare --with-line-invariant``.  Every pass
    repeats the same commands on the same files."""

    name = "screen"
    keeps_text = True
    root_layer = "cli"
    LINE_MAX_N = 8
    BRUTE_FORCE_LIMIT = 10

    def setup(self) -> None:
        self.files: dict[str, str] = {}
        self.graphs: dict[str, tuple[int, inputs.Edges]] = {}
        self.pairs: dict[str, tuple[str, str, bool]] = {}
        self.commands: list[tuple[str, list[str]]] = []
        picks = [generate(c) for c in self.ref["candidates"]]
        for i, (n, edges) in enumerate(picks):
            self._add_file(f"c{i}.grf", n, edges)
            self._add_file(f"q{i}.edges", n, inputs.relabel(self.rng, n, edges))
            for prefix, change in (("s", inputs.switch_edges), ("m", inputs.move_edge)):
                changed = change(self.rng, n, edges)
                if changed is not None:
                    self._add_file(f"{prefix}{i}.edges", n, inputs.relabel(self.rng, n, changed))
        for i, (n, _) in enumerate(picks):
            c = f"c{i}.grf"
            self.commands.append((f"orbits:{c}", ["orbits", self._path(c)]))
            self._compare(f"q{i}.edges", c, True)
            for changed in (f"s{i}.edges", f"m{i}.edges"):
                if changed in self.graphs:
                    self._compare(changed, c, False)
            self._compare(c, f"c{(i + 1) % len(picks)}.grf", False)
            if n <= self.LINE_MAX_N:
                self.commands.append((f"linegraph:{c}", ["linegraph", self._path(c)]))
                self._compare(f"q{i}.edges", c, True, ["--with-line-invariant"])

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def _add_file(self, name: str, n: int, edges) -> None:
        self.files[name] = inputs.grf_text(n, edges) if name.endswith(".grf") else inputs.edgelist_text(
            self.rng.sample(edges, len(edges))
        )
        self.graphs[name] = (n, edges)

    def write_files(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (self.workdir / name).write_text(text)

    def _compare(self, a: str, b: str, copy: bool, extra: list[str] = ()) -> None:
        key = f"compare{''.join(extra)}:{a}:{b}"
        self.pairs[key] = (a, b, copy)
        self.commands.append((key, ["compare", *extra, self._path(a), self._path(b)]))

    def _invoke(self, args: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.es.cli.main.main([*args, "--format", "machine"], prog_name="edgespec", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code or 0
        return code, out.getvalue()

    def ops(self, k: int) -> list[Op]:
        return [
            Op(key, lambda args=args: self._invoke(args), lambda r: f"exit {r[0]}\n{r[1]}")
            for key, args in self.commands
        ]

    def warmup(self) -> list[Op]:
        seen, out = set(), []
        for op in self.ops(0):
            kind = op.key.split(":")[0]
            if kind not in seen:
                seen.add(kind)
                out.append(op)
        return out

    def accepted(self, key: str) -> set[str] | None:
        if self.seed != DEFAULT_SEED:
            return None
        found = self.ref["default_seed"].get(key)
        return None if found is None else {found}

    def _nx(self, name: str):
        import networkx as nx

        n, edges = self.graphs[name]
        g = nx.Graph()
        g.add_nodes_from(range(1, n + 1))
        g.add_edges_from(edges)
        return g

    def validate(self, key: str, out: str) -> str | None:
        if out.startswith("error:"):
            return out
        head, _, body = out.partition("\n")
        code = int(head.split()[1])
        kind, _, rest = key.partition(":")
        if code == 2 or not body:
            return f"exit {code}"
        payload = json.loads(body)
        if kind == "orbits":
            n = self.graphs[rest][0]
            if sorted(v for grp in payload["groups"] for v in grp) != list(range(1, n + 1)):
                return "orbit groups do not partition the vertices"
        elif kind == "linegraph":
            n, edges = self.graphs[rest]
            deg = [0] * (n + 1)
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            if (payload["line_n"], payload["line_m"], payload["triples"]) != (
                len(edges),
                sum(comb(d, 2) for d in deg),
                sum(comb(d, 3) for d in deg),
            ):
                return "line graph size or vertex triples wrong"
        else:
            return self._validate_compare(key, code, payload)
        return None

    def _validate_compare(self, key: str, code: int, payload: dict) -> str | None:
        import networkx as nx

        a, b, copy = self.pairs[key]
        verdict = payload["verdict"]
        if code != (1 if verdict == "not isomorphic" else 0):
            return f"exit {code} with verdict {verdict}"
        if copy and verdict == "not isomorphic":
            return "relabelled copy reported not isomorphic"
        if verdict == "indistinguishable by invariants":
            # the CLI's brute force settles every pair up to this order
            if self.graphs[a][0] <= self.BRUTE_FORCE_LIMIT:
                return "brute force left a small pair unsettled"
            return None
        ga, gb = self._nx(a), self._nx(b)
        if (verdict == "isomorphic") != nx.is_isomorphic(ga, gb):
            return f"verdict {verdict} disagrees with networkx"
        if verdict == "isomorphic":
            f = {int(k): v for k, v in payload["bijection"].items()}
            if sorted(f.values()) != sorted(ga.nodes) or any(
                not gb.has_edge(f[u], f[v]) for u, v in ga.edges
            ):
                return "bijection is not an isomorphism"
        return None


WORKLOADS = {w.name: w for w in (CutDeep, CycleLine, Screen)}
