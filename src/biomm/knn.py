"""Euclidean nearest-neighbor classification over projected features.

Galleries are small (a few hundred points of dimension <= C-1 after LDA),
so a linear scan is used. A gallery holds one point per C-ordered row, and
a distance sums its row's squared differences along the row, so a query
and a point have one distance whichever rows are scanned. A query takes
the class of its nearest point in (distance, class id) order, whatever the
gallery's order, at the mean distance of its K = 2 nearest when both are of
that class, else at the nearest one's: the majority vote among the K
nearest, a one-each tie going to the nearer class. K is a constant, so a
gallery rebuilt from its points and labels votes as the one it was saved
from. `distances` and `vote` each hold their rule once and take one query
or a block, each row giving the bits it gives alone: `classify` applies
them to one query, verification to one client's rows, and `leave_one_out`
to blocks of gallery points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError

K = 2  # the nearest points a vote reads; `vote` is written for k <= K
BLOCK_ENTRIES = 1 << 17  # the most squared differences `leave_one_out` forms at once: 1 MiB


@dataclass(frozen=True, eq=False)
class KnnModel:
    """Gallery of projected training vectors, one row each, and their labels.

    It holds read-only C-ordered copies of the points and labels it is
    given, so an F-ordered or transposed input never changes a distance.
    """

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        points = np.array(self.points, dtype=np.float64, order="C")
        labels = np.array(self.labels, dtype=np.int64)
        if points.ndim != 2 or points.shape[0] < 1:
            raise DimensionError("gallery must be a non-empty matrix")
        if labels.shape != (points.shape[0],):
            raise DimensionError("labels length must equal the gallery size")
        for name, array in (("points", points), ("labels", labels)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)


class KnnResult(NamedTuple):
    label: int
    mean_distance: float  # mean distance of the winning class's neighbors


def distances(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance from q to each row, summed along the contiguous row.

    q is one point, which gives one distance per row, or a block of points,
    one per row of q, which gives one such row of distances per point, each
    equal bit for bit to the one its point gives alone.
    """
    diff = rows - q[..., None, :]
    np.square(diff, out=diff)
    return np.sqrt(diff.sum(axis=-1))


def vote(labels: np.ndarray, dists: np.ndarray, k: int):
    """The vote among the k <= K nearest of the points labelled `labels`:
    one KnnResult for `dists`, one row of distances from a query to them, a
    tuple in row order for a block of such rows, each to its bits alone.

    The nearest are the first in (distance, class id) order. The label is
    the first one's class; the distance is the mean of the first two's when
    both are of that class, else the first one's, as a one-each tie goes to
    the nearer point. The nearest are found in array passes and the rule is
    applied per row, the faster form for identify's and verify's one row.
    """
    # (distance, class id) as one complex number, ordered lexicographically
    keys = dists.reshape(-1, dists.shape[-1]) + 1j * labels
    keys.partition(min(k, keys.shape[1]) - 1, axis=1)  # k may exceed the points
    near = keys[:, :k]
    near.sort(axis=1)
    results = []
    for first, *rest in near.tolist():
        mean = first.real
        if rest and rest[0].imag == first.imag:
            mean = (mean + rest[0].real) / 2
        results.append(KnnResult(int(first.imag), mean))
    return tuple(results) if dists.ndim == 2 else results[0]


def classify(m: KnnModel, q) -> KnnResult:
    """The vote among the min(K, points) nearest gallery points."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (m.points.shape[1],):
        raise DimensionError(f"query dimension {q.shape} != gallery dimension {m.points.shape[1]}")
    return vote(m.labels, distances(m.points, q), min(K, m.points.shape[0]))


def leave_one_out(m: KnnModel) -> tuple:
    """Each gallery point classified by the other points, voting among
    min(K, points - 1) of them: one KnnResult per point, in gallery order.

    The points go in blocks of at most BLOCK_ENTRIES squared differences
    against the whole gallery (one block at 80 points of 19 dimensions, one
    point per block at 800 of 199), never an n x n x d array. Each block's
    distances come from one `distances` call and its votes from one `vote`
    call, whose rows equal what identify and verify would form and vote on
    for that point, so each result equals `classify` on a gallery built
    without the point, bit for bit; the point itself sorts last, at an
    infinite distance, and never votes.
    """
    n = m.points.shape[0]
    if n < 2:
        raise DomainError("leave-one-out needs at least two gallery points")
    k = min(K, n - 1)
    per_block = max(1, BLOCK_ENTRIES // m.points.size)
    results = []
    for lo in range(0, n, per_block):
        block = distances(m.points, m.points[lo:lo + per_block])
        rows = np.arange(block.shape[0])
        block[rows, lo + rows] = np.inf
        results.extend(vote(m.labels, block, k))
    return tuple(results)
