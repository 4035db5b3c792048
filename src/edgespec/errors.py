"""Exception taxonomy for the edgespec package."""


class EdgespecError(Exception):
    """Base class for all package errors."""


class GraphError(EdgespecError):
    """Invalid graph description or an operation applied to the wrong kind of graph."""


class AsymmetricAdjacency(GraphError):
    """u lists v but v does not list u."""


class LoopFound(GraphError):
    """A vertex lists itself as a neighbor."""


class DuplicateNeighbor(GraphError):
    """A vertex lists the same neighbor twice."""


class VertexOutOfRange(GraphError):
    """A neighbor index falls outside 1..n."""


class DisconnectedGraph(GraphError):
    """The graph is not connected."""


class EmptyCore(GraphError):
    """Core reduction erased the whole graph (no cycle structure remains)."""


class NotNonseparable(GraphError):
    """The operation requires a nonseparable graph."""


class NotACycle(EdgespecError):
    """The edge set does not form a single simple cycle."""


class NotATree(EdgespecError):
    """The operation requires a tree."""


class NotAPermutation(EdgespecError):
    """The mapping is not a bijection on 1..n."""


class LengthMismatch(EdgespecError):
    """Binary vectors of different widths were combined."""


class LimitExceeded(EdgespecError):
    """A configured size limit was exceeded."""


class CandidateOverflow(LimitExceeded):
    """Cycle candidate enumeration exceeded the configured bound."""


class GrfParseError(EdgespecError):
    """Malformed graph file."""


class BadOffsets(GrfParseError):
    """Offset directory is not a valid nondecreasing 1-based index list."""


class OddNeighborCount(GrfParseError):
    """Total neighbor count is odd, so the lists cannot pair up."""
