"""Frozen test graphs with independently tabulated expectations.

Every expected value here was computed away from the library code: either
worked by hand from the definitions or cross-checked against published
tables for these graphs.  Edge ids refer to each graph's own numbering
(canonical lexicographic order unless the constructor preserves an
explicit listing).
"""

from functools import lru_cache
from itertools import combinations
from random import Random

from edgespec import Graph, build_graph, graph_from_edges, line_graph


def cached(fn):
    return lru_cache(maxsize=None)(fn)


# --- 6 vertices, 11 edges: the worked spectrum example ---------------------
# canonical edges: e1=(1,2) e2=(1,4) e3=(1,6) e4=(2,3) e5=(2,4) e6=(2,6)
#                  e7=(3,4) e8=(3,5) e9=(3,6) e10=(4,5) e11=(5,6)


@cached
def g_6v11e() -> Graph:
    return build_graph(
        6,
        {
            1: [2, 4, 6],
            2: [1, 3, 4, 6],
            3: [2, 4, 5, 6],
            4: [1, 2, 3, 5],
            5: [3, 4, 6],
            6: [1, 2, 3, 5],
        },
    )


G_6V11E_CENTRAL_CUTS = {
    1: (1, 2, 3),
    2: (1, 4, 5, 6),
    3: (4, 7, 8, 9),
    4: (2, 5, 7, 10),
    5: (8, 10, 11),
    6: (3, 6, 9, 11),
}

# full cut spectrum, one row per edge, empty cells as None
G_6V11E_CUT_TABLE = {
    1: ((2, 3, 4, 5, 6), (1, 5, 6, 7, 8, 9), (2, 3, 5, 6, 7, 9, 10, 11), None),
    2: ((1, 3, 5, 7, 10), (2, 3, 4, 5, 6), (1, 5, 6, 7, 8, 9), (2, 3, 5, 6, 7, 9, 10, 11)),
    3: ((1, 2, 6, 9, 11), (2, 3, 4, 5, 6), (1, 5, 6, 7, 8, 9), (2, 3, 5, 6, 7, 9, 10, 11)),
    4: ((1, 5, 6, 7, 8, 9), (2, 3, 5, 6, 7, 9, 10, 11), None, None),
    5: ((1, 2, 4, 6, 7, 10), (1, 2, 3, 4, 7, 8, 9), (1, 2, 3, 8, 10, 11), (2, 3, 5, 6, 7, 9, 10, 11)),
    6: ((1, 3, 4, 5, 9, 11), (1, 2, 3, 4, 7, 8, 9), (1, 2, 3, 8, 10, 11), (2, 3, 5, 6, 7, 9, 10, 11)),
    7: ((2, 4, 5, 8, 9, 10), (1, 4, 5, 6, 8, 10, 11), (1, 2, 3, 8, 10, 11), (2, 3, 5, 6, 7, 9, 10, 11)),
    8: ((4, 7, 9, 10, 11), (1, 5, 6, 7, 8, 9), (2, 3, 5, 6, 7, 9, 10, 11), None),
    9: ((3, 4, 6, 7, 8, 11), (1, 4, 5, 6, 8, 10, 11), (1, 2, 3, 8, 10, 11), (2, 3, 5, 6, 7, 9, 10, 11)),
    10: ((2, 5, 7, 8, 11), (4, 7, 9, 10, 11), (1, 5, 6, 7, 8, 9), (2, 3, 5, 6, 7, 9, 10, 11)),
    11: ((3, 6, 8, 9, 10), (4, 7, 9, 10, 11), (1, 5, 6, 7, 8, 9), (2, 3, 5, 6, 7, 9, 10, 11)),
}

G_6V11E_CUT_XI = (
    (5, 5, 5, 6, 6, 6, 6, 5, 6, 5, 5),
    (6, 5, 5, 8, 7, 7, 7, 6, 7, 5, 5),
    (8, 6, 6, 0, 6, 6, 6, 8, 6, 6, 6),
    (0, 8, 8, 0, 8, 8, 8, 0, 8, 8, 8),
)
G_6V11E_CUT_XI_TOTAL = (19, 24, 24, 14, 27, 27, 27, 19, 27, 24, 24)
G_6V11E_CUT_ZETA_TOTAL = (67, 87, 87, 102, 67, 102)

# per-row participation counts (how many cells of row e_i contain e_j)
G_6V11E_CUT_EPSILON = {
    1: (1, 2, 2, 1, 3, 3, 2, 1, 2, 1, 1),
    2: (2, 2, 3, 1, 4, 3, 3, 1, 2, 2, 1),
    3: (2, 3, 2, 1, 3, 4, 2, 1, 3, 1, 2),
    4: (1, 1, 1, 0, 2, 2, 2, 1, 2, 1, 1),
    5: (3, 4, 3, 2, 1, 2, 3, 2, 2, 3, 2),
    6: (3, 3, 4, 2, 2, 1, 2, 2, 3, 2, 3),
    7: (2, 3, 2, 2, 3, 2, 1, 3, 2, 4, 3),
    8: (1, 1, 1, 1, 2, 2, 3, 1, 3, 2, 2),
    9: (2, 2, 3, 2, 2, 3, 2, 3, 1, 3, 4),
    10: (1, 2, 1, 1, 3, 2, 4, 2, 3, 2, 3),
    11: (1, 1, 2, 1, 2, 3, 3, 2, 4, 3, 2),
}

G_6V11E_CYCLES = (
    (1, 2, 5),
    (1, 3, 6),
    (2, 3, 7, 9),
    (2, 3, 10, 11),
    (4, 5, 7),
    (4, 6, 9),
    (5, 6, 10, 11),
    (7, 8, 10),
    (8, 9, 11),
)
G_6V11E_RIM = (2, 3, 5, 6, 7, 9, 10, 11)

G_6V11E_TAU_TABLE = {
    1: ((2, 3, 5, 6), (5, 6, 7, 9), (2, 3, 5, 6, 7, 9, 10, 11), None),
    2: ((1, 3, 6), (2, 3, 4, 6, 7), (1, 3, 6, 8, 9, 11), (2, 3, 5, 6, 7, 9, 10, 11)),
    3: ((1, 2, 5), (2, 3, 4, 5, 9), (1, 2, 5, 7, 8, 10), (2, 3, 5, 6, 7, 9, 10, 11)),
    4: ((5, 6, 7, 9), (2, 3, 5, 6, 7, 9, 10, 11), None, None),
    5: ((1, 3, 4, 9), (1, 3, 4, 7, 8, 9, 10), (1, 3, 6, 8, 9, 11), (2, 3, 5, 6, 7, 9, 10, 11)),
    6: ((1, 2, 4, 7), (1, 2, 4, 7, 8, 9, 11), (1, 2, 5, 7, 8, 10), (2, 3, 5, 6, 7, 9, 10, 11)),
    7: ((4, 6, 8, 11), (1, 2, 4, 5, 6, 8, 11), (1, 3, 6, 8, 9, 11), (2, 3, 5, 6, 7, 9, 10, 11)),
    8: ((7, 9, 10, 11), (5, 6, 7, 9), (2, 3, 5, 6, 7, 9, 10, 11), None),
    9: ((4, 5, 8, 10), (1, 3, 4, 5, 6, 8, 10), (1, 2, 5, 7, 8, 10), (2, 3, 5, 6, 7, 9, 10, 11)),
    10: ((8, 9, 11), (4, 5, 9, 10, 11), (1, 3, 6, 8, 9, 11), (2, 3, 5, 6, 7, 9, 10, 11)),
    11: ((7, 8, 10), (4, 6, 7, 10, 11), (1, 2, 5, 7, 8, 10), (2, 3, 5, 6, 7, 9, 10, 11)),
}

G_6V11E_TAU_XI = (
    (4, 3, 3, 4, 4, 4, 4, 4, 4, 3, 3),
    (4, 5, 5, 8, 7, 7, 7, 4, 7, 5, 5),
    (8, 6, 6, 0, 6, 6, 6, 8, 6, 6, 6),
    (0, 8, 8, 0, 8, 8, 8, 0, 8, 8, 8),
)
G_6V11E_TAU_XI_TOTAL = (16, 22, 22, 12, 25, 25, 25, 16, 25, 22, 22)
G_6V11E_TAU_ZETA_TOTAL = (60, 78, 78, 94, 60, 94)

G_6V11E_TAU_EPSILON = {
    1: (0, 2, 2, 0, 3, 3, 2, 0, 2, 1, 1),
    2: (2, 2, 4, 1, 1, 4, 2, 1, 2, 1, 2),
    3: (2, 4, 2, 1, 4, 1, 2, 1, 2, 2, 1),
    4: (0, 1, 1, 0, 2, 2, 2, 0, 2, 1, 1),
    5: (3, 1, 4, 2, 1, 2, 2, 2, 4, 2, 2),
    6: (3, 4, 1, 2, 2, 1, 4, 2, 2, 2, 2),
    7: (2, 2, 2, 2, 2, 4, 1, 3, 2, 1, 4),
    8: (0, 1, 1, 0, 2, 2, 3, 0, 3, 2, 2),
    9: (2, 2, 2, 2, 4, 2, 2, 3, 1, 4, 1),
    10: (1, 1, 2, 1, 2, 2, 1, 2, 4, 2, 4),
    11: (1, 2, 1, 1, 2, 2, 4, 2, 1, 4, 2),
}

G_6V11E_ORBITS = ((1, 5), (2, 3), (4, 6))


# --- 5 vertices, 8 edges: base cut arithmetic example ----------------------


@cached
def g_5v8e() -> Graph:
    return build_graph(
        5,
        {1: [2, 3, 5], 2: [1, 4, 5], 3: [1, 4, 5], 4: [2, 3, 5], 5: [1, 2, 3, 4]},
    )


G_5V8E_BASE_CUTS = {
    1: (2, 3, 4, 5),
    2: (1, 3, 6, 7),
    3: (1, 2, 5, 7, 8),
    4: (1, 5, 6, 8),
    5: (1, 3, 4, 7, 8),
    6: (2, 4, 7, 8),
    7: (2, 3, 5, 6, 8),
    8: (3, 4, 5, 6, 7),
}


# --- 5 vertices, 7 edges: rim correction example ----------------------------
# canonical edges: e1=(1,2) e2=(1,3) e3=(1,4) e4=(2,4) e5=(2,5) e6=(3,4) e7=(4,5)


@cached
def g_5v7e() -> Graph:
    return build_graph(
        5, {1: [2, 3, 4], 2: [1, 4, 5], 3: [1, 4], 4: [1, 2, 3, 5], 5: [2, 4]}
    )


G_5V7E_CYCLES = ((1, 3, 4), (2, 3, 6), (4, 5, 7))
G_5V7E_RIM = (1, 2, 5, 6, 7)
G_5V7E_TAU = {
    1: (2, 3, 4, 5, 6, 7),
    2: (1, 3, 5, 7),
    3: (1, 2, 4, 6),
    4: (1, 3, 5, 7),
    5: (1, 2, 4, 6),
    6: (1, 3, 5, 7),
    7: (1, 2, 4, 6),
}
G_5V7E_TAU_XI = (6, 4, 4, 4, 4, 4, 4)
G_5V7E_TAU_ZETA = (14, 14, 8, 16, 8)


# --- 5 vertices, 7 edges, explicit numbering: fundamental systems ----------


@cached
def g_5v7e_listed() -> Graph:
    return graph_from_edges(
        5, ((1, 3), (1, 2), (3, 4), (4, 5), (2, 4), (2, 3), (3, 5))
    )


G_5V7E_LISTED_TREE = (2, 3, 4, 6)
G_5V7E_LISTED_FUND_CYCLES = {1: (1, 2, 6), 5: (3, 5, 6), 7: (3, 4, 7)}
G_5V7E_LISTED_FUND_CUTS = {2: (1, 2), 3: (3, 5, 7), 4: (4, 7), 6: (1, 5, 6)}


# --- 7 vertices, 13 edges, explicit numbering: wave method example ----------


@cached
def g_7v13e() -> Graph:
    return graph_from_edges(
        7,
        (
            (1, 6), (5, 6), (6, 7), (5, 7), (1, 7), (2, 7), (3, 7),
            (4, 7), (4, 5), (3, 4), (2, 3), (1, 2), (1, 4),
        ),
    )


G_7V13E_CYCLES = (
    (1, 2, 9, 13),
    (1, 3, 5),
    (2, 3, 4),
    (4, 8, 9),
    (5, 6, 12),
    (5, 8, 13),
    (6, 7, 11),
    (7, 8, 10),
    (10, 11, 12, 13),
)
G_7V13E_THROUGH_E13 = ((1, 2, 9, 13), (5, 8, 13), (10, 11, 12, 13))
G_7V13E_THROUGH_E1 = ((1, 2, 9, 13), (1, 3, 5))
G_7V13E_EDGE_COUNTS = (2, 2, 2, 2, 3, 2, 2, 3, 2, 2, 2, 2, 3)
G_7V13E_VERTEX_COUNTS = (5, 3, 3, 5, 3, 3, 7)


# --- Petersen graph ----------------------------------------------------------


@cached
def petersen() -> Graph:
    return build_graph(
        10,
        {
            1: [2, 5, 6],
            2: [1, 3, 7],
            3: [2, 4, 8],
            4: [3, 5, 9],
            5: [1, 4, 10],
            6: [1, 8, 9],
            7: [2, 9, 10],
            8: [3, 6, 10],
            9: [4, 6, 7],
            10: [5, 7, 8],
        },
    )


PETERSEN_CYCLES = (
    (1, 2, 4, 6, 8),
    (1, 2, 5, 10, 14),
    (1, 3, 4, 7, 11),
    (1, 3, 5, 12, 13),
    (2, 3, 8, 9, 12),
    (2, 3, 10, 11, 15),
    (4, 5, 6, 9, 13),
    (4, 5, 7, 14, 15),
    (6, 7, 8, 10, 15),
    (6, 7, 9, 11, 12),
    (8, 9, 10, 13, 14),
    (11, 12, 13, 14, 15),
)


# --- complete graphs ---------------------------------------------------------


@cached
def k_n(n: int) -> Graph:
    return build_graph(n, {v: [u for u in range(1, n + 1) if u != v] for v in range(1, n + 1)})


# --- 10 vertices, 23 edges: enumeration example ------------------------------


@cached
def g_10v23e() -> Graph:
    return build_graph(
        10,
        {
            1: [2, 6, 7, 10],
            2: [1, 3, 5, 7],
            3: [2, 4, 5, 9],
            4: [3, 5, 6, 7, 9],
            5: [2, 3, 4, 6, 8, 10],
            6: [1, 4, 5, 7, 9],
            7: [1, 2, 4, 6, 8],
            8: [5, 7, 9, 10],
            9: [3, 4, 6, 8, 10],
            10: [1, 5, 8, 9],
        },
    )


G_10V23E_CYCLES = (
    (1, 2, 5, 8, 12),
    (1, 2, 5, 10, 19),
    (1, 2, 6, 15),
    (1, 3, 7),
    (1, 4, 5, 10, 23),
    (1, 4, 6, 17),
    (2, 3, 18),
    (2, 4, 15, 17),
    (2, 4, 19, 23),
    (3, 4, 11, 13, 17),
    (3, 4, 13, 14, 23),
    (3, 4, 20, 22),
    (5, 6, 9),
    (5, 7, 8, 13),
    (5, 7, 10, 18, 19),
    (5, 7, 10, 20, 21),
    (6, 7, 11, 13),
    (6, 7, 15, 18),
    (6, 7, 16, 20),
    (8, 9, 11),
    (8, 10, 14),
    (9, 10, 15, 19),
    (9, 10, 16, 21),
    (9, 10, 17, 23),
    (11, 12, 15),
    (11, 13, 16, 20),
    (11, 14, 16, 21),
    (11, 14, 17, 23),
    (12, 13, 18),
    (12, 14, 19),
    (13, 14, 20, 21),
    (15, 16, 18, 20),
    (15, 16, 19, 21),
    (15, 17, 19, 23),
    (16, 17, 22),
    (18, 19, 20, 21),
    (21, 22, 23),
)

G_10V23E_CYCLE_VERTICES = (
    (1, 2, 3, 4, 6),
    (1, 2, 3, 6, 9),
    (1, 2, 5, 6),
    (1, 2, 7),
    (1, 2, 3, 9, 10),
    (1, 2, 5, 10),
    (1, 6, 7),
    (1, 5, 6, 10),
    (1, 6, 9, 10),
    (1, 4, 5, 7, 10),
    (1, 4, 7, 9, 10),
    (1, 7, 8, 10),
    (2, 3, 5),
    (2, 3, 4, 7),
    (2, 3, 6, 7, 9),
    (2, 3, 7, 8, 9),
    (2, 4, 5, 7),
    (2, 5, 6, 7),
    (2, 5, 7, 8),
    (3, 4, 5),
    (3, 4, 9),
    (3, 5, 6, 9),
    (3, 5, 8, 9),
    (3, 5, 9, 10),
    (4, 5, 6),
    (4, 5, 7, 8),
    (4, 5, 8, 9),
    (4, 5, 9, 10),
    (4, 6, 7),
    (4, 6, 9),
    (4, 7, 8, 9),
    (5, 6, 7, 8),
    (5, 6, 8, 9),
    (5, 6, 9, 10),
    (5, 8, 10),
    (6, 7, 8, 9),
    (8, 9, 10),
)


# --- 12 vertices, 35 edges: enumeration example ------------------------------


@cached
def g_12v35e() -> Graph:
    return build_graph(
        12,
        {
            1: [2, 3, 4, 5, 6, 7, 8, 9, 10, 12],
            2: [1, 3, 4, 7, 8, 12],
            3: [1, 2, 4, 6, 7, 8, 10],
            4: [1, 2, 3, 6, 11],
            5: [1, 8, 9],
            6: [1, 3, 4, 7, 9, 12],
            7: [1, 2, 3, 6, 8, 9, 11, 12],
            8: [1, 2, 3, 5, 7, 10, 11],
            9: [1, 5, 6, 7, 10],
            10: [1, 3, 8, 9, 12],
            11: [4, 7, 8],
            12: [1, 2, 6, 7, 10],
        },
    )


G_12V35E_CYCLES = (
    (1, 2, 11), (1, 3, 12), (1, 6, 13), (1, 7, 14), (1, 10, 15),
    (2, 3, 16), (2, 5, 17), (2, 6, 18), (2, 7, 19), (2, 9, 20),
    (3, 5, 21), (3, 6, 22, 30), (3, 7, 22, 33), (4, 7, 23), (4, 8, 24),
    (5, 6, 25), (5, 8, 26), (5, 10, 27), (6, 7, 28), (6, 8, 29),
    (6, 10, 31), (7, 9, 32), (8, 9, 34), (9, 10, 35), (11, 12, 16),
    (11, 13, 18), (11, 14, 19), (11, 15, 17, 27), (11, 15, 20, 35),
    (12, 13, 21, 25), (12, 13, 22, 30), (12, 14, 22, 33), (12, 15, 21, 27),
    (13, 14, 28), (13, 15, 31), (14, 15, 32, 35), (16, 17, 21),
    (16, 18, 22, 30), (16, 19, 22, 33), (17, 18, 25), (17, 19, 23, 24, 26),
    (17, 20, 26, 34), (17, 20, 27, 35), (18, 19, 28), (18, 20, 29, 34), (18, 20, 31, 35),
    (19, 20, 32), (21, 22, 25, 30), (23, 24, 28, 29), (23, 24, 32, 34),
    (25, 26, 29), (25, 27, 31), (26, 27, 34, 35), (28, 29, 32, 34),
    (28, 30, 33), (28, 31, 32, 35), (29, 31, 34, 35),
)


# --- 6 vertices, 10 edges: offset file example -------------------------------

G_6V10E_GRF = """{offset format example}
6
1 4 7 10 14 17 21
2 4 6 1 4 5 4 5 6 1 2 3 6 2 3 6 1 3 4 5
"""


@cached
def g_6v10e() -> Graph:
    return build_graph(
        6,
        {1: [2, 4, 6], 2: [1, 4, 5], 3: [4, 5, 6], 4: [1, 2, 3, 6], 5: [2, 3, 6], 6: [1, 3, 4, 5]},
    )


G_6V10E_CUT_XI = (
    (4, 5, 5, 5, 4, 5, 4, 5, 6, 5),
    (4, 5, 5, 3, 4, 5, 4, 5, 6, 3),
    (3, 4, 4, 3, 4, 4, 3, 4, 6, 3),
    (3, 4, 4, 3, 4, 4, 3, 4, 6, 3),
)


# --- 6 vertices, 10 edges: line graph classification example ----------------
# canonical edges: e1=(1,2) e2=(1,4) e3=(1,6) e4=(2,3) e5=(2,5)
#                  e6=(3,4) e7=(3,5) e8=(3,6) e9=(4,5) e10=(5,6)


@cached
def g_6v10e_b() -> Graph:
    return build_graph(
        6,
        {1: [2, 4, 6], 2: [1, 3, 5], 3: [2, 4, 5, 6], 4: [1, 3, 5], 5: [2, 3, 4, 6], 6: [1, 3, 5]},
    )


G_6V10E_B_CENTRAL_CUTS = {
    1: (1, 2, 3),
    2: (1, 4, 5),
    3: (4, 6, 7, 8),
    4: (2, 6, 9),
    5: (5, 7, 9, 10),
    6: (3, 8, 10),
}
G_6V10E_B_CYCLES = (
    (1, 2, 4, 6),
    (1, 2, 5, 9),
    (1, 3, 4, 8),
    (1, 3, 5, 10),
    (2, 3, 6, 8),
    (2, 3, 9, 10),
    (4, 5, 7),
    (6, 7, 9),
    (7, 8, 10),
)
G_6V10E_B_LINE_COUNTS = (12, 9, 9)
G_6V10E_B_DOUBLE_IMAGES = (
    (1, 2, 4, 7, 9),
    (1, 2, 5, 6, 7),
    (1, 3, 4, 7, 10),
    (1, 3, 5, 7, 8),
    (2, 3, 6, 7, 10),
    (2, 3, 7, 8, 9),
    (4, 5, 6, 9),
    (4, 5, 8, 10),
    (6, 8, 9, 10),
)
G_6V10E_B_IL_EDGE = (10, 10, 10, 11, 11, 11, 15, 11, 11, 11)
G_6V10E_B_IL_VERTEX = (30, 32, 48, 32, 48, 32)


# --- octahedron --------------------------------------------------------------


@cached
def octahedron() -> Graph:
    return build_graph(
        6,
        {
            1: [2, 3, 5, 6],
            2: [1, 4, 5, 6],
            3: [1, 4, 5, 6],
            4: [2, 3, 5, 6],
            5: [1, 2, 3, 4],
            6: [1, 2, 3, 4],
        },
    )


OCTAHEDRON_CYCLE_COUNT = 11
OCTAHEDRON_CUT_LEVELS = 2
OCTAHEDRON_CUT_XI_TOTAL = (14,) * 12
OCTAHEDRON_CUT_ZETA_TOTAL = (56,) * 6
OCTAHEDRON_LINE_COUNTS = (24, 11, 36)
OCTAHEDRON_IL_EDGE = (23,) * 12
OCTAHEDRON_IL_VERTEX = (92,) * 6


# --- triangular prism --------------------------------------------------------
# canonical edges: e1=(1,2) e2=(1,4) e3=(1,6) e4=(2,3) e5=(2,6)
#                  e6=(3,4) e7=(3,5) e8=(4,5) e9=(5,6)


@cached
def prism() -> Graph:
    return build_graph(
        6, {1: [2, 4, 6], 2: [1, 3, 6], 3: [2, 4, 5], 4: [1, 3, 5], 5: [3, 4, 6], 6: [1, 2, 5]}
    )


PRISM_W1 = {
    1: (2, 4, 7, 8),
    2: None,
    3: (2, 6, 7, 9),
    4: None,
    5: (4, 6, 8, 9),
    6: (2, 3, 4, 5),
    7: (1, 3, 4, 9),
    8: (1, 2, 5, 9),
    9: None,
}
PRISM_CUT_LEVELS = 2
PRISM_XI_L1 = (2, 4, 2, 4, 2, 2, 2, 2, 4)
PRISM_CYCLES = ((1, 2, 4, 6), (1, 3, 5), (2, 3, 8, 9), (4, 5, 7, 9), (6, 7, 8))
PRISM_TAU_SIZES = (5, 6, 5, 6, 5, 5, 5, 5, 6)
PRISM_INTEGRAL = "(6×6, 3×8) & (6×20) & (6×5, 3×6) & (6×16)"


# --- 10 vertices, 15 edges, cubic --------------------------------------------


@cached
def cubic_10v() -> Graph:
    return build_graph(
        10,
        {
            1: [2, 3, 7],
            2: [1, 6, 9],
            3: [1, 4, 8],
            4: [3, 5, 7],
            5: [4, 6, 8],
            6: [2, 5, 10],
            7: [1, 4, 9],
            8: [3, 5, 10],
            9: [2, 7, 10],
            10: [6, 8, 9],
        },
    )


# first three levels are known good; the build continues for three more
CUBIC_10V_XI = (
    (4,) * 15,
    (10, 10, 8, 10, 8, 8, 10, 10, 10, 10, 8, 8, 10, 10, 10),
    (6, 6, 4, 6, 4, 4, 6, 6, 6, 6, 4, 4, 6, 6, 6),
)
CUBIC_10V_ZETA = ((12,) * 10, (28,) * 10, (16,) * 10)
CUBIC_10V_LEVELS = 6


# --- 9 vertices, 23 edges ----------------------------------------------------


@cached
def g_9v23e() -> Graph:
    edges = (
        (1, 4), (1, 6), (1, 7), (1, 8), (1, 9), (2, 3), (2, 7), (2, 8),
        (2, 9), (3, 5), (3, 6), (3, 7), (3, 9), (4, 7), (4, 8), (4, 9),
        (5, 6), (5, 7), (5, 8), (5, 9), (6, 7), (6, 9), (8, 9),
    )
    return graph_from_edges(9, edges)


G_9V23E_CENTRAL_CUTS = {
    1: (1, 2, 3, 4, 5),
    2: (6, 7, 8, 9),
    3: (6, 10, 11, 12, 13),
    4: (1, 14, 15, 16),
    5: (10, 17, 18, 19, 20),
    6: (2, 11, 17, 21, 22),
    7: (3, 7, 12, 14, 18, 21),
    8: (4, 8, 15, 19, 23),
    9: (5, 9, 13, 16, 20, 22, 23),
}
G_9V23E_XI_L0 = (7, 8, 9, 8, 10, 7, 8, 7, 9, 8, 8, 9, 10, 8, 7, 9, 8, 9, 8, 10, 9, 10, 10)
G_9V23E_ZETA_L0 = (42, 31, 42, 31, 43, 43, 52, 40, 68)
G_9V23E_LEVELS = 30


# --- 8 vertices, 15 edges: deep spectrum and orbits --------------------------
# canonical edges: e1=(1,2) e2=(1,3) e3=(1,6) e4=(2,3) e5=(2,4) e6=(2,7)
#   e7=(2,8) e8=(3,4) e9=(3,6) e10=(4,5) e11=(5,6) e12=(5,7) e13=(6,7)
#   e14=(6,8) e15=(7,8)


@cached
def g_8v15e() -> Graph:
    return build_graph(
        8,
        {
            1: [2, 3, 6],
            2: [1, 3, 4, 7, 8],
            3: [1, 2, 4, 6],
            4: [2, 3, 5],
            5: [4, 6, 7],
            6: [1, 3, 5, 7, 8],
            7: [2, 5, 6, 8],
            8: [2, 6, 7],
        },
    )


G_8V15E_CUT_LEVELS = 6
G_8V15E_CUT_XI = (
    (6, 5, 6, 7, 6, 7, 6, 5, 7, 4, 6, 5, 7, 6, 5),
    (9, 5, 7, 8, 9, 6, 7, 7, 6, 10, 9, 7, 8, 9, 5),
    (8, 7, 4, 7, 5, 7, 4, 6, 7, 8, 5, 6, 7, 8, 7),
    (10, 6, 10, 4, 10, 4, 10, 10, 4, 0, 10, 10, 4, 10, 6),
    (8, 10, 8, 10, 10, 10, 8, 8, 10, 0, 10, 8, 10, 8, 10),
    (0, 8, 0, 8, 8, 8, 0, 0, 8, 0, 8, 0, 8, 0, 8),
)
G_8V15E_CUT_XI_TOTAL = (41, 41, 35, 44, 48, 42, 35, 36, 42, 22, 48, 36, 44, 41, 41)
G_8V15E_CUT_ZETA_TOTAL = (117, 210, 163, 106, 106, 210, 163, 117)
G_8V15E_ZETA_PAIRED = (
    (38, 71, 50, 41, 41, 71, 50, 38),
    (45, 69, 51, 39, 39, 69, 51, 45),
    (34, 70, 62, 26, 26, 70, 62, 34),
)
G_8V15E_ORBITS = ((1, 8), (2, 6), (3, 7), (4, 5))

G_8V15E_CYCLES = (
    (1, 2, 4),
    (1, 3, 5, 10, 11),
    (1, 3, 6, 13),
    (1, 3, 7, 14),
    (2, 3, 9),
    (4, 5, 8),
    (4, 6, 9, 13),
    (4, 7, 9, 14),
    (5, 6, 10, 12),
    (5, 7, 10, 11, 14),
    (6, 7, 15),
    (8, 9, 10, 11),
    (11, 12, 13),
    (13, 14, 15),
)
G_8V15E_TAU_XI = (10, 4, 10, 8, 9, 9, 10, 5, 9, 10, 9, 5, 8, 10, 4)
G_8V15E_TAU_ZETA = (24, 46, 26, 24, 24, 46, 26, 24)
G_8V15E_LINE_COUNTS = (32, 14, 24)
G_8V15E_DOUBLE_IMAGES = (
    (1, 2, 5, 8),
    (1, 2, 6, 9, 13),
    (1, 2, 7, 9, 14),
    (1, 3, 4, 9),
    (1, 3, 5, 8, 9),
    (1, 3, 6, 11, 12),
    (1, 3, 6, 14, 15),
    (1, 3, 7, 13, 15),
    (2, 3, 4, 6, 13),
    (2, 3, 4, 7, 14),
    (2, 3, 8, 10, 11),
    (4, 5, 9, 10, 11),
    (4, 6, 8, 10, 12),
    (4, 6, 9, 11, 12),
    (4, 6, 9, 14, 15),
    (4, 7, 9, 13, 15),
    (5, 6, 8, 9, 13),
    (5, 6, 10, 11, 13),
    (5, 7, 8, 9, 14),
    (5, 7, 10, 12, 15),
    (6, 7, 11, 12, 14),
    (6, 7, 13, 14),
    (8, 9, 10, 12, 13),
    (11, 12, 14, 15),
)
# per edge id and per vertex; the digital invariant sorts these
G_8V15E_IL_EDGE = (19, 12, 19, 21, 18, 24, 19, 13, 24, 12, 18, 13, 21, 19, 12)
G_8V15E_IL_VERTEX = (50, 101, 70, 43, 43, 101, 70, 50)


# --- 16 vertices, 30 edges: a deep pair with equal base cycle data -----------


@cached
def g_16v30e_a() -> Graph:
    edges = (
        (1, 2), (1, 6), (1, 7), (2, 3), (2, 7), (2, 9), (3, 4), (3, 7),
        (3, 8), (3, 14), (4, 5), (4, 8), (5, 6), (5, 7), (5, 8), (6, 7),
        (9, 10), (9, 14), (9, 15), (9, 16), (10, 11), (10, 15), (11, 12),
        (11, 15), (11, 16), (12, 13), (12, 16), (13, 14), (13, 16), (14, 16),
    )
    return graph_from_edges(16, edges)


G_16V30E_A_CYCLES = (
    (1, 3, 5),
    (2, 3, 16),
    (4, 5, 8),
    (4, 6, 10, 18),
    (7, 8, 11, 14),
    (7, 9, 12),
    (8, 9, 14, 15),
    (11, 12, 15),
    (13, 14, 16),
    (17, 19, 22),
    (17, 20, 21, 25),
    (18, 20, 30),
    (19, 20, 24, 25),
    (21, 22, 24),
    (23, 25, 27),
    (26, 27, 29),
    (28, 29, 30),
)
G_16V30E_A_LEVELS = 6


@cached
def g_16v30e_b() -> Graph:
    edges = (
        (1, 2), (1, 7), (1, 8), (1, 12), (2, 3), (2, 4), (2, 8), (2, 13),
        (3, 4), (3, 5), (4, 5), (5, 6), (5, 8), (6, 7), (6, 8), (7, 8),
        (9, 10), (9, 14), (9, 15), (9, 16), (10, 11), (10, 16), (11, 12),
        (11, 16), (12, 13), (12, 16), (13, 14), (13, 15), (13, 16), (14, 15),
    )
    return graph_from_edges(16, edges)


G_16V30E_B_CYCLES = (
    (1, 3, 7),
    (1, 4, 8, 25),
    (2, 3, 16),
    (5, 6, 9),
    (5, 7, 10, 13),
    (6, 7, 11, 13),
    (9, 10, 11),
    (12, 13, 15),
    (14, 15, 16),
    (17, 20, 22),
    (18, 19, 30),
    (18, 20, 27, 29),
    (19, 20, 28, 29),
    (21, 22, 24),
    (23, 24, 26),
    (25, 26, 29),
    (27, 28, 30),
)
G_16V30E_B_LEVELS = 14

# the pair differs in per-level cut weights from the base level on, yet the
# base cycle invariants agree
G_16V30E_WITNESS = "cut spectrum level 0 invariant"


# --- two strongly regular graphs srg(16, 6, 2, 2) ----------------------------


@cached
def rook_4x4() -> Graph:
    adj = {}
    for i in range(16):
        adj[i + 1] = [
            j + 1
            for j in range(16)
            if j != i and (j // 4 == i // 4 or j % 4 == i % 4)
        ]
    return build_graph(16, adj)


@cached
def shrikhande() -> Graph:
    diffs = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    adj = {}
    for a in range(4):
        for b in range(4):
            v = a * 4 + b + 1
            adj[v] = sorted(
                (a + da) % 4 * 4 + (b + db) % 4 + 1 for da, db in diffs
            )
    return build_graph(16, adj)


ROOK_IS_EDGE = (26,) * 48
ROOK_IS_VERTEX = (156,) * 16
SHRIKHANDE_IS_EDGE = (34,) * 48
SHRIKHANDE_IS_VERTEX = (204,) * 16


# --- cuboctahedron and its switched companion --------------------------------


@cached
def cube() -> Graph:
    return build_graph(
        8,
        {
            1: [2, 3, 5],
            2: [1, 4, 6],
            3: [1, 4, 7],
            4: [2, 3, 8],
            5: [1, 6, 7],
            6: [2, 5, 8],
            7: [3, 5, 8],
            8: [4, 6, 7],
        },
    )


@cached
def cuboctahedron() -> Graph:
    lg = line_graph(cube())
    return lg.graph


@cached
def switched_cuboctahedron() -> Graph:
    edges = (
        (1, 7), (1, 8), (1, 9), (1, 12), (2, 3), (2, 7), (2, 10), (2, 11),
        (3, 6), (3, 9), (3, 11), (4, 5), (4, 8), (4, 10), (4, 11), (5, 6),
        (5, 9), (5, 10), (6, 9), (6, 12), (7, 11), (7, 12), (8, 10), (8, 12),
    )
    return graph_from_edges(12, edges)


CUBOCTAHEDRON_IS_EDGE = (30,) * 24
CUBOCTAHEDRON_IS_VERTEX = (120,) * 12
CUBOCTAHEDRON_LEVELS = 3
SWITCHED_IS_EDGE = (14,) * 8 + (26,) * 16
SWITCHED_IS_VERTEX = (80,) * 8 + (104,) * 4
SWITCHED_LEVELS = 3


# --- trees -------------------------------------------------------------------


@cached
def spider_tree() -> Graph:
    return graph_from_edges(7, ((1, 2), (2, 3), (2, 4), (4, 5), (5, 6), (5, 7)))


@cached
def caterpillar_tree() -> Graph:
    return graph_from_edges(7, ((1, 2), (2, 3), (2, 4), (4, 5), (4, 6), (6, 7)))


@cached
def star(leaves: int) -> Graph:
    """K1,leaves with hub 1."""
    return graph_from_edges(leaves + 1, [(1, v) for v in range(2, leaves + 2)])


@cached
def path(n: int) -> Graph:
    return graph_from_edges(n, [(v, v + 1) for v in range(1, n)])


def tree_from_pruefer(seq) -> Graph:
    """The labelled tree on len(seq) + 2 vertices with Prüfer sequence seq:
    each entry joins the least remaining leaf to it, and the last two
    vertices left are joined."""
    n = len(seq) + 2
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = next(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(u for u in range(1, n + 1) if degree[u] == 1))
    return graph_from_edges(n, edges)


SPIDER_IT = "(4×10, 2×12) & (4×10, 24, 2×32)"
CATERPILLAR_IT = "(2×16, 2×18, 2×20) & (16, 2×18, 20, 32, 2×56)"


# --- complete bipartite ------------------------------------------------------


@cached
def k33() -> Graph:
    return build_graph(
        6, {v: [4, 5, 6] for v in (1, 2, 3)} | {v: [1, 2, 3] for v in (4, 5, 6)}
    )


@cached
def k44() -> Graph:
    return build_graph(
        8,
        {v: [5, 6, 7, 8] for v in (1, 2, 3, 4)}
        | {v: [1, 2, 3, 4] for v in (5, 6, 7, 8)},
    )


K33_INTEGRAL = "(9×4) & (6×12) & (9×4) & (6×12)"
K44_IS_EDGE = (6,) * 16
K44_IS_VERTEX = (24,) * 8


# --- 8 vertices, 16 edges, 4-regular -----------------------------------------


@cached
def quartic_8v_a() -> Graph:
    edges = (
        (1, 5), (1, 6), (1, 7), (1, 8), (2, 3), (2, 4), (2, 7), (2, 8),
        (3, 4), (3, 6), (3, 8), (4, 5), (4, 8), (5, 6), (5, 7), (6, 7),
    )
    return graph_from_edges(8, edges)


@cached
def quartic_8v_b() -> Graph:
    edges = (
        (1, 5), (1, 6), (1, 7), (1, 8), (2, 3), (2, 4), (2, 7), (2, 8),
        (3, 4), (3, 6), (3, 8), (4, 5), (4, 7), (5, 6), (5, 7), (6, 8),
    )
    return graph_from_edges(8, edges)


QUARTIC_A_INTEGRAL = "(4×6, 12×14) & (8×48) & (4×6, 12×8) & (8×30)"
QUARTIC_B_INTEGRAL = "(8×22, 8×28) & (8×100) & (8×8, 8×10) & (8×36)"


# --- 10 vertices, 16 edges: cubic plus one edge ------------------------------


@cached
def cubic_plus_edge_10v() -> Graph:
    edges = (
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (3, 7), (4, 5),
        (5, 6), (6, 7), (6, 8), (7, 9), (7, 10), (8, 9), (8, 10), (9, 10),
    )
    return graph_from_edges(10, edges)


CUBIC_PLUS_EDGE_LINE_CYCLES = 31
CUBIC_PLUS_EDGE_IL = "(3, 8×6, 7, 4×8, 2×9) & (4×18, 4×20, 2×32)"


# --- small utility graphs ----------------------------------------------------


@cached
def k2() -> Graph:
    return build_graph(2, {1: [2], 2: [1]})


@cached
def wheel6() -> Graph:
    return build_graph(
        7,
        {
            1: [2, 6, 7],
            2: [1, 3, 7],
            3: [2, 4, 7],
            4: [3, 5, 7],
            5: [4, 6, 7],
            6: [1, 5, 7],
            7: [1, 2, 3, 4, 5, 6],
        },
    )


WHEEL6_DIST_V1 = (0, 1, 2, 2, 2, 1, 1)


@cached
def wheel(n: int) -> Graph:
    """The wheel on n vertices: hub 1 joined to every vertex of the rim
    cycle 2..n."""
    rim = [(v, v + 1) for v in range(2, n)] + [(2, n)]
    return graph_from_edges(n, [(1, v) for v in range(2, n + 1)] + rim)


@cached
def k2n(n: int) -> Graph:
    """K2,n: twin hubs 1 and 2, each joined to every vertex of 3..n + 2."""
    return graph_from_edges(n + 2, [(h, v) for h in (1, 2) for v in range(3, n + 3)])


@cached
def bipyramid(k: int) -> Graph:
    """The bipyramid over C_k: K2,k with the cycle 3..k + 2 added, so its
    twin hubs have degree k and every other vertex degree 4."""
    rim = [(v, v + 1) for v in range(3, k + 2)] + [(3, k + 2)]
    return graph_from_edges(k + 2, sorted(k2n(k).edges + tuple(rim)))


# --- grids and hypercubes ------------------------------------------------------
# grid cell (i, j) is vertex i*cols + j + 1; the isometric cycles of a grid are
# exactly its unit squares


@cached
def grid(rows: int, cols: int) -> Graph:
    def at(i, j):
        return i * cols + j + 1

    edges = [(at(i, j), at(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(at(i, j), at(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return graph_from_edges(rows * cols, sorted(edges))


def grid_squares(rows: int, cols: int) -> list[tuple[tuple[int, int], ...]]:
    """Edges of each unit square of grid(rows, cols), as vertex pairs."""
    out = []
    for i in range(rows - 1):
        for j in range(cols - 1):
            a, b = i * cols + j + 1, i * cols + j + 2
            c, d = a + cols, b + cols
            out.append(((a, b), (a, c), (b, d), (c, d)))
    return out


@cached
def hypercube(d: int) -> Graph:
    # vertex v + 1 is the bit string v; each edge sets one bit
    edges = [
        (v + 1, (v | 1 << k) + 1) for v in range(1 << d) for k in range(d) if not v >> k & 1
    ]
    return graph_from_edges(1 << d, sorted(edges))


@cached
def torus(rows: int, cols: int) -> Graph:
    """The rows x cols torus grid C_rows x C_cols, rows and cols >= 3; cell
    (i, j) is vertex i*cols + j + 1.  Its isometric cycles include the
    rings of length rows and cols, odd ones when those are odd."""

    def at(i, j):
        return (i % rows) * cols + j % cols + 1

    edges = {tuple(sorted((at(i, j), at(i, j + 1)))) for i in range(rows) for j in range(cols)}
    edges |= {tuple(sorted((at(i, j), at(i + 1, j)))) for i in range(rows) for j in range(cols)}
    return graph_from_edges(rows * cols, sorted(edges))


@cached
def circular_ladder(n: int) -> Graph:
    """The prism C_n x K2, n >= 3: rims 1..n and n+1..2n, rung i to n+i."""
    edges = [(i + 1, (i + 1) % n + 1) for i in range(n)]
    edges += [(n + i + 1, n + (i + 1) % n + 1) for i in range(n)]
    edges += [(i + 1, n + i + 1) for i in range(n)]
    return graph_from_edges(2 * n, sorted(tuple(sorted(e)) for e in edges))


@cached
def mobius_ladder(n: int) -> Graph:
    """The Moebius ladder on 2n vertices, n >= 3: the cycle 1..2n with a
    rung from each vertex to the one opposite it."""
    edges = {tuple(sorted((v, v % (2 * n) + 1))) for v in range(1, 2 * n + 1)}
    edges |= {(v, v + n) for v in range(1, n + 1)}
    return graph_from_edges(2 * n, sorted(edges))


# --- 8 vertices, 11 edges: a wave anchored at e2 misses a cycle --------------
# the backward labeling from e2 = (1,5) reaches vertices 3 and 8 at the same
# depth, so the 5-cycle 1-2-8-3-5 has no strictly descending route there


@cached
def wave_gap_8v() -> Graph:
    edges = (
        (1, 2), (1, 5), (1, 7), (2, 8), (3, 4), (3, 5), (3, 7), (3, 8),
        (4, 6), (5, 7), (6, 8),
    )
    return graph_from_edges(8, edges)


WAVE_GAP_EDGE = 2
WAVE_GAP_FOUND = ((2, 3, 10),)
WAVE_GAP_MISSED = (1, 2, 4, 6, 8)


# --- 12 vertices, 24 edges: pentagons with depth ties at every anchor --------
# chords put two adjacent vertices of each pentagon at equal wave depth no
# matter which pentagon edge anchors the labeling


@cached
def odd_tie_12v() -> Graph:
    edges = (
        (1, 2), (1, 3), (1, 6), (1, 7), (1, 11), (2, 3), (2, 4), (2, 11),
        (3, 4), (3, 7), (3, 12), (4, 10), (5, 6), (5, 9), (5, 11), (6, 9),
        (6, 12), (7, 8), (7, 9), (7, 10), (7, 12), (8, 9), (8, 12), (10, 11),
    )
    return graph_from_edges(12, edges)


ODD_TIE_PENTAGONS = ((1, 4, 7, 12, 20), (2, 5, 9, 12, 24), (6, 8, 10, 20, 24))


# --- registry used by the rank and orbit criteria ----------------------------

NONSEPARABLE_FIXTURES = {
    "g_6v11e": g_6v11e,
    "g_5v8e": g_5v8e,
    "g_5v7e": g_5v7e,
    "g_5v7e_listed": g_5v7e_listed,
    "g_7v13e": g_7v13e,
    "petersen": petersen,
    "k4": lambda: k_n(4),
    "k5": lambda: k_n(5),
    "g_10v23e": g_10v23e,
    "g_12v35e": g_12v35e,
    "g_6v10e": g_6v10e,
    "g_6v10e_b": g_6v10e_b,
    "octahedron": octahedron,
    "prism": prism,
    "cubic_10v": cubic_10v,
    "g_9v23e": g_9v23e,
    "g_8v15e": g_8v15e,
    "g_16v30e_a": g_16v30e_a,
    "g_16v30e_b": g_16v30e_b,
    "rook_4x4": rook_4x4,
    "shrikhande": shrikhande,
    "cube": cube,
    "cuboctahedron": cuboctahedron,
    "switched_cuboctahedron": switched_cuboctahedron,
    "k33": k33,
    "k44": k44,
    "quartic_8v_a": quartic_8v_a,
    "quartic_8v_b": quartic_8v_b,
    "cubic_plus_edge_10v": cubic_plus_edge_10v,
    "wheel6": wheel6,
}


# --- Cai-Fürer-Immerman pairs -------------------------------------------------


def cfi(base: Graph, twisted: tuple[int, ...] = ()) -> Graph:
    """The CFI graph of a connected base graph (Cai, Fürer & Immerman,
    Combinatorica 12, 1992), with the base edges in ``twisted`` crossed.

    Each base vertex v becomes one middle vertex per even-sized subset S of
    its edges and two ends (v, e, 0) and (v, e, 1) per edge e at v; the
    middle vertex of S meets (v, e, 1) for e in S and (v, e, 0) otherwise.
    Each base edge uv joins (u, e, i) to (v, e, i), or to (v, e, 1 - i)
    when twisted.  Only the parity of the twists fixes the isomorphism
    class, and the two classes are told apart by no colour refinement.
    """
    ids: dict[tuple, int] = {}

    def vertex(key: tuple) -> int:
        return ids.setdefault(key, len(ids) + 1)

    edges = []
    for v in base.vertices:
        inc = base.incident_edges(v)
        for size in range(0, len(inc) + 1, 2):
            for even in combinations(inc, size):
                for e in inc:
                    edges.append((vertex(("middle", v, even)), vertex((v, e, e in even))))
    for e in base.edge_ids:
        u, v = base.edge_endpoints(e)
        for i in (False, True):
            edges.append((vertex((u, e, i)), vertex((v, e, i ^ (e in twisted)))))
    return graph_from_edges(len(ids), edges)


# --- random generators for the property and scaling suites -------------------


def random_nonseparable(rng: Random, n_min: int = 4, n_max: int = 12) -> Graph:
    """Random 2-connected graph: a hamiltonian cycle plus extra edges."""
    n = rng.randint(n_min, n_max)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {
        (min(a, b), max(a, b))
        for a, b in zip(order, order[1:] + order[:1])
    }
    extra = rng.randint(1, n)
    candidates = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return graph_from_edges(n, sorted(edges))


def random_cubic(rng: Random, n: int) -> Graph:
    """Random connected cubic graph with no cut vertex, by pairing stubs."""
    from edgespec import is_nonseparable

    assert n % 2 == 0
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(pairs) != 3 * n // 2 or any(a == b for a, b in pairs):
            continue
        try:
            g = graph_from_edges(n, sorted(pairs))
        except Exception:
            continue
        if is_nonseparable(g):
            return g


def to_nx(g: Graph):
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges)
    return out
