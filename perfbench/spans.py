"""Span tracing of edgespec's layers, installed from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every edgespec module that holds it by name (``engine``, ``cli``,
``linegraph`` and ``spectra`` all import ``isometric_cycles``, for example),
so calls made inside the package are traced as well.  ``uninstall`` puts
the originals back.

A span records its layer, start, end and the span that was open when it
started.  Spans stay in memory; ``layer_metrics`` turns them into self
times (a span's duration minus the time its child spans cover) and
counters when the run ends.  Time the tracer spends on its own counting is
taken off the clock the spans read, so it lands in no layer's self time.
"""

from __future__ import annotations

import functools
import time

# (module, function, layer); a layer's time is the self time of its spans
TARGETS = (
    ("grf", "parse_grf", "grf.parse"),
    ("grf", "parse_edgelist", "grf.parse"),
    ("grf", "load_graph", "grf.parse"),
    ("graphs", "is_nonseparable", "graphs.nonsep"),
    ("graphs", "all_pairs_distances", "graphs.distances"),
    ("spectra", "build_cut_spectrum", "spectra.cut_build"),
    ("spectra", "cut_spectrum_unchecked", "spectra.cut_build"),
    ("spectra", "build_cycle_spectrum", "spectra.cycle_build"),
    ("spectra", "spectrum_invariant", "spectra.weights"),
    ("spectra", "spectrum_edge_weights", "spectra.weights"),
    ("spectra", "vertex_weights", "spectra.weights"),
    ("isometric", "isometric_cycles", "isometric.cycles"),
    ("linegraph", "line_graph", "linegraph.build"),
    ("linegraph", "classify_line_cycles", "linegraph.classify"),
    ("linegraph", "digital_invariant_IL", "linegraph.classify"),
    ("engine", "integral_invariant", "engine.invariant"),
    ("engine", "tree_invariant", "engine.invariant"),
    ("engine", "compare_graphs", "engine.compare"),
    ("engine", "vertex_orbit_partition", "engine.orbits"),
    ("engine", "brute_force_isomorphism", "engine.brute_force"),
)

MODULES = ("cli", "engine", "graphs", "grf", "isometric", "linegraph", "spectra")

# layers whose self time is reported, with the metric that carries it
TIMED = {
    "grf.parse": "grf.parse_ms",
    "cli": "cli.self_ms",
    "graphs.nonsep": "graphs.nonsep_ms",
    "graphs.distances": "graphs.distances_ms",
    "spectra.cut_build": "spectra.cut_build_ms",
    "spectra.weights": "spectra.weights_ms",
    "spectra.cycle_build": "spectra.cycle_build_ms",
    "isometric.cycles": "isometric.cycles_ms",
    "linegraph.build": "linegraph.build_ms",
    "linegraph.cycles": "linegraph.cycles_ms",
    "linegraph.classify": "linegraph.classify_ms",
    "engine.invariant": "engine.invariant_ms",
    "engine.compare": "engine.compare_ms",
    "engine.orbits": "engine.orbits_ms",
    "engine.brute_force": "engine.brute_force_ms",
}
CALLS = {
    "grf.parse": "grf.parse_calls",
    "graphs.nonsep": "graphs.nonsep_calls",
    "graphs.distances": "graphs.distances_calls",
    "isometric.cycles": "isometric.cycles_calls",
    "engine.brute_force": "engine.brute_force_calls",
}

# compare_graphs witness text -> cascade stage; "isomorphic" and
# "indistinguishable" name verdicts that carry no witness
WITNESS_STAGES = (
    ("vertex count", "order"),
    ("edge count", "size"),
    ("degree multiset", "degree"),
    ("tree cut invariant", "tree"),
    ("cut spectrum level count", "cut_level_count"),
    ("cut spectrum level", "cut_level"),
    ("cut spectrum total", "cut_total"),
    ("cycle spectrum", "cycle"),
    ("line invariant", "line"),
    ("exhaustive search", "brute_force"),
)
STAGES = tuple(s for _, s in WITNESS_STAGES) + ("isomorphic", "indistinguishable")
COUNTERS = (
    "spectra.levels",
    "spectra.live_cells",
    "spectra.cells",
    "spectra.truncated",
    "isometric.cycles_found",
    "isometric.overflows",
    "linegraph.line_m",
    "linegraph.cycles_found",
    "repeat.calls",
    "repeat.hits",
) + tuple(f"engine.witness.{s}" for s in STAGES)

# calls a per-graph cache could answer a second time
REPEATABLE = {"build_cut_spectrum", "build_cycle_spectrum", "isometric_cycles"}


def witness_stage(result) -> str:
    if result.witness is None:
        return result.verdict.name.lower()
    for prefix, stage in WITNESS_STAGES:
        if result.witness.startswith(prefix):
            return stage
    raise ValueError(f"unknown witness {result.witness!r}")


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._open: list[int] = []
        self._stolen = 0.0
        self._installed: list[tuple[object, str, object]] = []
        self._line_graphs: dict[int, object] = {}
        self._seen: set = set()
        self.op_time = 0.0
        self.op_uncovered = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._stolen

    def _begin(self) -> int:
        self.spans.append(("", self.now(), 0.0, self._open[-1] if self._open else -1))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int, layer: str) -> None:
        self._open.pop()
        _, start, _, parent = self.spans[idx]
        self.spans[idx] = (layer, start, self.now(), parent)

    def span(self, layer: str, fn, *args, **kwargs):
        """Call fn inside a span of the given layer."""
        idx = self._begin()
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(idx, layer)

    def op(self, fn):
        """Run one benchmark op; returns fn's result and records how much of
        the op no span covers."""
        first = len(self.spans)
        start = self.now()
        try:
            return fn()
        finally:
            total = self.now() - start
            covered = sum(
                e - s for _, s, e, parent in self.spans[first:] if parent == -1
            )
            self.op_time += total
            self.op_uncovered += total - covered
            self._line_graphs.clear()

    def _book(self, fn, *args) -> None:
        # counting done off the span clock
        t0 = time.perf_counter()
        fn(*args)
        self._stolen += time.perf_counter() - t0

    def _wrap(self, name: str, layer: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_layer = layer
            if name == "isometric_cycles" and id(args[0]) in tracer._line_graphs:
                span_layer = "linegraph.cycles"
            if name in REPEATABLE:
                tracer._book(tracer._note_repeat, name, args[0])
            idx = tracer._begin()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                tracer._end(idx, span_layer)
                if name == "isometric_cycles" and type(exc).__name__ == "CandidateOverflow":
                    tracer.counts["isometric.overflows"] += 1
                raise
            tracer._end(idx, span_layer)
            tracer._book(tracer._note_result, name, span_layer, result)
            return result

        return wrapper

    def _note_repeat(self, name: str, graph) -> None:
        key = (name, graph)
        self.counts["repeat.calls"] += 1
        if key in self._seen:
            self.counts["repeat.hits"] += 1
        else:
            self._seen.add(key)

    def _note_result(self, name: str, layer: str, result) -> None:
        c = self.counts
        if name in ("build_cut_spectrum", "cut_spectrum_unchecked"):
            c["spectra.levels"] += len(result.levels)
            c["spectra.cells"] += len(result.levels) * result.graph.m
            c["spectra.live_cells"] += sum(
                1 for level in result.levels for cell in level if cell is not None
            )
            c["spectra.truncated"] += int(result.truncated)
        elif name == "isometric_cycles":
            key = "linegraph.cycles_found" if layer == "linegraph.cycles" else "isometric.cycles_found"
            c[key] += len(result)
        elif name == "line_graph":
            self._line_graphs[id(result.graph)] = result.graph
            c["linegraph.line_m"] += result.graph.m
        elif name == "compare_graphs":
            c[f"engine.witness.{witness_stage(result)}"] += 1

    def install(self, package) -> None:
        """Wrap every target in every edgespec module that holds it by name."""
        mods = [package] + [getattr(package, m) for m in MODULES]
        for home, name, layer in TARGETS:
            original = getattr(getattr(package, home), name)
            wrapper = self._wrap(name, layer, original)
            for mod in mods:
                if getattr(mod, name, None) is original:
                    self._installed.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._installed):
            setattr(mod, name, original)
        self._installed.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer in ms, call counts, counters and ratios."""
        child = [0.0] * len(self.spans)
        for _, s, e, parent in self.spans:
            if parent >= 0:
                child[parent] += e - s
        self_ms = dict.fromkeys(TIMED, 0.0)
        calls = dict.fromkeys(CALLS, 0)
        for i, (layer, s, e, _) in enumerate(self.spans):
            self_ms[layer] += (e - s - child[i]) * 1000.0
            if layer in calls:
                calls[layer] += 1
        c = self.counts
        out = {TIMED[k]: v for k, v in self_ms.items()}
        out.update({CALLS[k]: v for k, v in calls.items()})
        out.update({k: v for k, v in c.items() if not k.startswith(("repeat.", "spectra.cells"))})
        out["spectra.live_ratio"] = c["spectra.live_cells"] / c["spectra.cells"] if c["spectra.cells"] else 0.0
        out["engine.repeat_share"] = c["repeat.hits"] / c["repeat.calls"] if c["repeat.calls"] else 0.0
        out["trace.uncovered_pct"] = 100.0 * self.op_uncovered / self.op_time if self.op_time else 0.0
        return out
