"""Euclidean k-nearest-neighbor classification over projected features.

Galleries are small (a few hundred points of dimension <= C-1 after LDA),
so a linear scan is used. Vote ties break by smaller mean distance among
the tied classes, then by smaller class id, which makes the result
independent of gallery ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError


@dataclass(frozen=True, eq=False)
class KnnModel:
    """Gallery of projected training vectors (one column each) plus k."""

    points: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] < 1:
            raise DimensionError("gallery must be a non-empty matrix")
        if labels.shape != (points.shape[1],):
            raise DimensionError("labels length must equal the gallery size")
        if not 1 <= self.k <= points.shape[1]:
            raise DomainError(f"k must lie in [1, {points.shape[1]}], got {self.k}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)


class KnnResult(NamedTuple):
    label: int
    confidence: float   # winning votes / k
    mean_distance: float  # mean distance of the winning class's neighbors


def classify(m: KnnModel, q) -> KnnResult:
    """Majority vote among the k nearest gallery points."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (m.points.shape[0],):
        raise DimensionError(
            f"query dimension {q.shape} != gallery dimension {m.points.shape[0]}"
        )
    diff = m.points - q[:, None]
    dists = np.sqrt((diff * diff).sum(axis=0))
    # distance first, class id second: equal-distance neighbors enter in a
    # fixed class order regardless of how the gallery was assembled
    order = np.lexsort((m.labels, dists))[: m.k]
    near_labels = m.labels[order]
    near_dists = dists[order]

    votes = np.bincount(near_labels)
    top = votes.max()
    tied = np.flatnonzero(votes == top)
    if tied.size == 1:
        winner = int(tied[0])
    else:
        means = np.array([near_dists[near_labels == c].mean() for c in tied])
        winner = int(tied[np.argmin(means)])  # argmin takes the smaller id on ties
    mean_distance = float(near_dists[near_labels == winner].mean())
    return KnnResult(winner, float(top) / m.k, mean_distance)
