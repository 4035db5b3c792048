"""Graph isomorphism invariants from edge-cut and edge-cycle spectra."""

from .engine import (
    ComparisonResult,
    IntegralInvariant,
    OrbitPartition,
    Verdict,
    brute_force_isomorphism,
    compare_graphs,
    integral_invariant,
    is_tree,
    relabel,
    tree_invariant,
    vertex_orbit_partition,
)
from .errors import (
    AsymmetricAdjacency,
    BadOffsets,
    CandidateOverflow,
    DisconnectedGraph,
    DuplicateNeighbor,
    EdgespecError,
    EmptyCore,
    GraphError,
    GrfParseError,
    LengthMismatch,
    LimitExceeded,
    LoopFound,
    NotACycle,
    NotAPermutation,
    NotATree,
    NotNonseparable,
    OddNeighborCount,
    VertexOutOfRange,
)
from .graphs import (
    EdgeSet,
    Graph,
    NonseparableReport,
    all_pairs_distances,
    build_graph,
    central_cut,
    graph_from_edges,
    is_nonseparable,
    reduce_to_core,
    ring_sum,
)
from .grf import emit_grf, load_graph, parse_edgelist, parse_grf
from .isometric import (
    cycle_order,
    cycle_vertices,
    is_isometric,
    isometric_cycles,
)
from .linegraph import (
    LineCycleClassification,
    LineGraph,
    classify_line_cycles,
    digital_invariant_IL,
    line_graph,
)
from .spectra import (
    Invariant,
    LevelWeights,
    Spectrum,
    SpectrumInvariant,
    base_edge_cuts,
    base_edge_cycles,
    build_cut_spectrum,
    build_cycle_spectrum,
    invariant_IC,
    invariant_IS,
    rim,
    rle,
    spectrum_edge_weights,
    spectrum_invariant,
    vertex_weights,
)

__version__ = "0.1.0"
