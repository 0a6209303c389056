"""Euclidean k-nearest-neighbor classification over projected features.

Galleries are small (a few hundred points of dimension <= C-1 after LDA),
so a linear scan is used. A gallery holds one point per C-ordered row, and
a distance sums its row's squared differences along the row, so a query
and a point have one distance whichever rows are scanned. Every vote is
among the K nearest points, or among all of them when fewer are scanned;
K is a constant, not a field, so a gallery rebuilt from its points and
labels votes as the one it was saved from. Vote ties break by smaller mean
distance, then by smaller class id, whatever the gallery's order.
`distances` and `vote` each hold their rule once and take one query or a
block of queries, each row of a block giving the bits it gives alone:
`classify` applies them to one query, verification to one client's rows,
and `leave_one_out` to blocks of gallery points against the whole gallery,
one `distances` and one `vote` call per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError

K = 2
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
    """Majority vote among the k nearest of the gallery points labelled
    `labels`. `dists` is one row of distances from a query to those points,
    which gives one KnnResult, or a block of such rows, one per query, which
    gives a tuple of KnnResults in row order; each row is voted on alone, by
    the same rule and to the same bits.

    The k nearest are the first k in (distance, class id) order, so
    equal-distance neighbors enter in a fixed class order regardless of how
    the gallery was assembled. Vote ties break by the smaller mean distance,
    a class's neighbor distances added in that order, then by the smaller
    class id. The k nearest of every row are found in array passes; only the
    tally over those k is per row.
    """
    # (distance, class id) as one complex number, which numpy orders
    # lexicographically: the k smallest, then those k sorted
    keys = dists.reshape(-1, dists.shape[-1]) + 1j * labels
    keys.partition(min(k, keys.shape[1]) - 1, axis=1)  # k may exceed the points
    near = keys[:, :k]
    near.sort(axis=1)
    # the tally over k neighbors is per row: in array passes it would take
    # about three times as long for the single row identify and verify vote on
    results = []
    for row in near.tolist():
        votes, sums = {}, {}
        for z in row:
            votes[z.imag] = votes.get(z.imag, 0) + 1
            sums[z.imag] = sums.get(z.imag, 0.0) + z.real
        top = max(votes.values())
        # each tied class has `top` neighbors: its mean distance is their sum / top
        mean, label = min((sums[c] / top, c) for c in votes if votes[c] == top)
        results.append(KnnResult(int(label), mean))
    return tuple(results) if dists.ndim == 2 else results[0]


def classify(m: KnnModel, q) -> KnnResult:
    """Majority vote among the min(K, points) nearest gallery points."""
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
