"""Independent tour checker: the benchmark's own reading of a TSP answer.

It shares no code with the program under test.  For every tour it
checks that

* the order is a permutation of ``0..n-1``;
* its closed length, recomputed here from the coordinates with the
  TSPLIB rounding of the metric (EUC_2D ``rint``, CEIL_2D ``ceil``),
  equals the length the program reported;
* that length is at least the minimum-spanning-tree lower bound,
  computed over Delaunay edges with the same rounding.

Removing one edge from a tour leaves a spanning path, so no tour is
shorter than a minimum spanning tree under the same edge weights.  The
rounded weight is a non-decreasing function of the Euclidean distance,
so the Euclidean MST (a subgraph of the Delaunay triangulation) is also
an MST under the rounded weights.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import Delaunay, QhullError

_ROUNDING = {"EUC_2D": np.rint, "CEIL_2D": np.ceil}


class TourError(AssertionError):
    """A returned tour failed one of the checks."""


def edge_weights(coords: np.ndarray, a: np.ndarray, b: np.ndarray,
                 metric: str) -> np.ndarray:
    """Rounded Euclidean weights of the edges ``a[i]``-``b[i]``."""
    if metric not in _ROUNDING:
        raise ValueError(f"unsupported metric {metric!r}")
    delta = coords[a] - coords[b]
    return _ROUNDING[metric](np.sqrt((delta * delta).sum(axis=1)))


def tour_length(coords: np.ndarray, order: np.ndarray, metric: str) -> float:
    """Closed tour length under the metric's rounding."""
    return float(edge_weights(coords, order, np.roll(order, -1), metric).sum())


def _candidate_edges(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = len(points)
    try:
        if m < 4:
            raise QhullError("too few points for a triangulation")
        simplices = Delaunay(points).simplices
    except QhullError:
        # Degenerate (tiny or collinear) sets: take every pair.
        a, b = np.triu_indices(m, k=1)
        return a, b
    pairs = np.concatenate([simplices[:, [0, 1]], simplices[:, [1, 2]],
                            simplices[:, [0, 2]]])
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)
    return pairs[:, 0], pairs[:, 1]


def mst_lower_bound(coords: np.ndarray, metric: str) -> float:
    """Weight of a minimum spanning tree under the metric's rounding."""
    # Coincident cities join at weight 0, so the MST of the distinct
    # points has the same weight as the MST of all of them.
    points = np.unique(np.asarray(coords, dtype=float), axis=0)
    m = len(points)
    if m < 2:
        return 0.0
    a, b = _candidate_edges(points)
    # csgraph reads a weight of 0 as "no edge"; shifting every weight
    # by 1 keeps the MST and adds exactly m - 1 to its weight.
    weights = edge_weights(points, a, b, metric) + 1.0
    graph = coo_matrix((weights, (a, b)), shape=(m, m)).tocsr()
    return float(minimum_spanning_tree(graph).sum()) - (m - 1)


def check_tour(coords: np.ndarray, metric: str, order, reported_length: float,
               lower_bound: float) -> float:
    """Check one returned tour; return its recomputed length.

    Raises :class:`TourError` when the order is not a permutation, the
    reported length differs from the recomputed one, or the tour is
    shorter than ``lower_bound``.
    """
    n = len(coords)
    order = np.asarray(order)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise TourError(f"tour is not a permutation of 0..{n - 1}")
    length = tour_length(coords, order.astype(np.int64), metric)
    if length != float(reported_length):
        raise TourError(
            f"reported length {reported_length!r} != recomputed {length!r}"
        )
    if length < lower_bound:
        raise TourError(
            f"tour length {length!r} is below the MST bound {lower_bound!r}"
        )
    return length
