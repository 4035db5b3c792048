"""The package's public surface: its names, the README's list of them,
and the names perfbench's tracer looks up."""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import edgespec

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    # engine
    "ComparisonResult", "IntegralInvariant", "OrbitPartition", "Verdict",
    "brute_force_isomorphism", "compare_graphs", "integral_invariant",
    "is_tree", "relabel", "tree_invariant", "vertex_orbit_partition",
    # errors
    "AsymmetricAdjacency", "BadOffsets", "CandidateOverflow",
    "DisconnectedGraph", "DuplicateNeighbor", "EdgespecError", "EmptyCore",
    "GraphError", "GrfParseError", "LengthMismatch", "LimitExceeded",
    "LoopFound", "NotACycle", "NotAPermutation", "NotATree",
    "NotNonseparable", "OddNeighborCount", "VertexOutOfRange",
    # graphs and grf
    "EdgeSet", "Graph", "NonseparableReport", "all_pairs_distances",
    "build_graph", "central_cut", "graph_from_edges", "is_nonseparable",
    "reduce_to_core", "ring_sum", "emit_grf", "load_graph",
    "parse_edgelist", "parse_grf",
    # isometric and linegraph
    "cycle_order", "cycle_vertices", "is_isometric", "isometric_cycles",
    "LineCycleClassification", "LineGraph", "classify_line_cycles",
    "digital_invariant_IL", "line_graph",
    # spectra
    "Invariant", "LevelWeights", "Spectrum", "SpectrumInvariant",
    "base_edge_cuts", "base_edge_cycles", "build_cut_spectrum",
    "build_cycle_spectrum", "invariant_IC", "invariant_IS", "rim", "rle",
    "spectrum_edge_weights", "spectrum_invariant", "vertex_weights",
    # the submodules that __init__ imports
    "engine", "errors", "graphs", "grf", "isometric", "linegraph", "spectra",
}


def fresh_public_names():
    """The public attributes of edgespec in a new interpreter, where no
    test has imported a further submodule such as edgespec.cli."""
    src = str(Path(edgespec.__file__).resolve().parent.parent)
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; sys.path.insert(0, {src!r}); import edgespec;"
            " print(*(n for n in dir(edgespec) if not n.startswith('_')))",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(out.stdout.split())


def test_public_names_are_pinned():
    names = fresh_public_names()
    assert len(PUBLIC) == 74
    assert names == PUBLIC


def test_gf2_is_not_a_package_module():
    assert importlib.util.find_spec("edgespec.gf2") is None


def test_readme_lists_every_public_name():
    blocks = (ROOT / "README.md").read_text(encoding="utf-8").split("\n\n")
    intro = next(i for i, b in enumerate(blocks) if b.startswith("Every public name of the package"))
    listed = set(re.findall(r"`([A-Za-z_]\w*)`", blocks[intro + 1]))
    assert listed == PUBLIC


def test_perfbench_targets_resolve():
    # the tracer wraps each target by name in every module it lists, so a
    # target that no longer exists crashes a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module in spans.MODULES:
        importlib.import_module(f"edgespec.{module}")
    for module, name, _layer in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"edgespec.{module}"), name, None)), (module, name)
