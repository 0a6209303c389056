"""Euclidean k-nearest-neighbor classification over projected features.

Galleries are small (a few hundred points of dimension <= C-1 after LDA),
so a linear scan is used. A gallery holds one point per C-ordered row, and
a distance sums its row's squared differences along the row, so a query
and a point have one distance whichever rows are scanned. Vote ties break
by smaller mean distance, then by smaller class id, whatever the gallery's
order. `distances` and `vote` each hold their rule once: `classify`
applies them to one query, `leave_one_out` to one gallery point at a time
against the whole gallery, and verification to one client's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError


@dataclass(frozen=True, eq=False)
class KnnModel:
    """Gallery of projected training vectors (one row each) plus k.

    It holds read-only C-ordered copies of the points and labels it is
    given, so an F-ordered or transposed input never changes a distance.
    """

    points: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        points = np.array(self.points, dtype=np.float64, order="C")
        labels = np.array(self.labels, dtype=np.int64)
        if points.ndim != 2 or points.shape[0] < 1:
            raise DimensionError("gallery must be a non-empty matrix")
        if labels.shape != (points.shape[0],):
            raise DimensionError("labels length must equal the gallery size")
        if not 1 <= self.k <= points.shape[0]:
            raise DomainError(f"k must lie in [1, {points.shape[0]}], got {self.k}")
        for name, array in (("points", points), ("labels", labels)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)


class KnnResult(NamedTuple):
    label: int
    confidence: float   # winning votes / k
    mean_distance: float  # mean distance of the winning class's neighbors


def distances(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance from q to each row, summed along the contiguous row."""
    diff = rows - q
    np.square(diff, out=diff)
    return np.sqrt(diff.sum(axis=1))


def vote(labels: np.ndarray, dists: np.ndarray, k: int) -> KnnResult:
    """Majority vote among the k nearest of the gallery points labelled
    `labels`, at distances `dists` from the query."""
    # distance first, class id second: equal-distance neighbors enter in a
    # fixed class order regardless of how the gallery was assembled
    order = np.lexsort((labels, dists))[:k]
    near_labels = labels[order]
    near_dists = dists[order]

    votes = np.bincount(near_labels)
    top = votes.max()
    tied = (votes == top).nonzero()[0]
    # each tied class has `top` neighbors: its mean distance is their sum / top
    if tied.size == 1:
        winner = tied[0]
    else:
        means = [near_dists[near_labels == c].sum() / top for c in tied]
        winner = tied[np.argmin(means)]  # argmin takes the smaller id on ties
    mean_distance = float(near_dists[near_labels == winner].sum() / top)
    return KnnResult(int(winner), float(top) / k, mean_distance)


def classify(m: KnnModel, q) -> KnnResult:
    """Majority vote among the k nearest gallery points."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (m.points.shape[1],):
        raise DimensionError(f"query dimension {q.shape} != gallery dimension {m.points.shape[1]}")
    return vote(m.labels, distances(m.points, q), m.k)


def leave_one_out(m: KnnModel) -> tuple:
    """Each gallery point classified by the other points, with
    k = min(m.k, points - 1): one KnnResult per point, in gallery order.

    One point at a time, its distances to the whole gallery come from
    `distances`, as identify's and verify's do, so each result equals
    `classify` on a gallery built without the point, bit for bit; the point
    itself sorts last, at an infinite distance, and never votes.
    """
    n = m.points.shape[0]
    if n < 2:
        raise DomainError("leave-one-out needs at least two gallery points")
    k = min(m.k, n - 1)
    results = []
    for i, point in enumerate(m.points):
        dists = distances(m.points, point)
        dists[i] = np.inf
        results.append(vote(m.labels, dists, k))
    return tuple(results)
