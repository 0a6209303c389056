"""Fisher linear discriminant analysis, shared by both modalities.

The between-class scatter is sum_i n_i (m_i - m)(m_i - m)^T, the standard
Fisherface form; together with the within-class scatter it decomposes the
total scatter exactly, which the test suite certifies. Scatter accumulation
runs in a canonical sample order so a permuted dataset yields bit-identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ClassError, DatasetError, DomainError, RankError
from .ingest import LabeledDataset
from .pca import Subspace

LDA_RANK_RTOL = 1e-8
DEFAULT_REG_SCALE = 1e-6


@dataclass(frozen=True, eq=False)
class ScatterPair:
    """Within/between class scatter with the per-class and total means."""

    s_w: np.ndarray
    s_b: np.ndarray
    class_means: np.ndarray  # one column per class
    total_mean: np.ndarray


def _canonical_class_block(features: np.ndarray, members: np.ndarray) -> np.ndarray:
    # lexicographic column order makes accumulation independent of sample order
    block = features[:, members]
    order = np.lexsort(block[::-1, :])
    return block[:, order]


def scatter(ds: LabeledDataset) -> ScatterPair:
    """Class scatter matrices S_W and S_B of a labeled dataset."""
    if ds.num_classes < 2:
        raise ClassError("scatter needs at least two classes")
    d = ds.dim
    if d > 2000:
        raise DomainError(f"dimension {d} too large for dense scatter (max 2000)")

    class_sums = np.zeros((d, ds.num_classes))
    counts = np.zeros(ds.num_classes)
    s_w = np.zeros((d, d))
    blocks = []
    for c in range(ds.num_classes):
        members = np.flatnonzero(ds.labels == c)
        if members.size == 0:
            raise DatasetError(f"class {c} has no samples")
        block = _canonical_class_block(ds.features, members)
        blocks.append(block)
        class_sums[:, c] = block.sum(axis=1)
        counts[c] = members.size
    class_means = class_sums / counts
    total_mean = class_sums.sum(axis=1) / counts.sum()

    for c in range(ds.num_classes):
        centered = blocks[c] - class_means[:, c][:, None]
        s_w += centered @ centered.T
    diff = class_means - total_mean[:, None]
    s_b = (diff * counts) @ diff.T

    s_w = 0.5 * (s_w + s_w.T)
    s_b = 0.5 * (s_b + s_b.T)
    return ScatterPair(s_w, s_b, class_means, total_mean)


def default_reg(s_w: np.ndarray) -> float:
    """Ridge applied to S_W before inversion: 1e-6 * trace(S_W) / d."""
    return DEFAULT_REG_SCALE * float(np.trace(s_w)) / s_w.shape[0]


def fit_lda(ds: LabeledDataset) -> Subspace:
    """Fit the Fisher discriminant basis (top generalized eigenvectors).

    It keeps min(C - 1, rank) discriminants: the C - 1 that C class means
    give at most (Belhumeur, Hespanha & Kriegman, "Eigenfaces vs.
    Fisherfaces", IEEE TPAMI 19(7), 1997), fewer when the informative rank,
    the count of generalized eigenvalues above LDA_RANK_RTOL of the largest,
    is lower, as for data of fewer than C - 1 dimensions. A rank of 0 raises
    RankError. S_W is ridged by default_reg(S_W) before inversion; scatter
    refuses fewer than two classes.
    """
    pair = scatter(ds)
    pairs = linalg.gen_eig(pair.s_b, pair.s_w, default_reg(pair.s_w))
    rank = _informative_rank(pairs.values)
    if rank == 0:
        raise RankError("informative rank 0: the class means coincide")
    retained = min(ds.num_classes - 1, rank)
    basis = pairs.vectors[:, :retained].copy()
    return Subspace(pair.total_mean.copy(), basis)


def _informative_rank(values: np.ndarray) -> int:
    lam_max = float(values[0]) if values.size else 0.0
    if lam_max <= 1e-10:
        return 0
    return int(np.count_nonzero(values > LDA_RANK_RTOL * lam_max))
