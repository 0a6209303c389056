"""Fisher linear discriminant analysis, shared by both modalities.

The between-class scatter is sum_i n_i (m_i - m)(m_i - m)^T, the standard
Fisherface form; together with the within-class scatter it decomposes the
total scatter exactly, which the test suite certifies. The samples are
grouped by class label, each class keeping its samples in the order given,
so the bits of a fit depend on that order. The class sums are then taken
over each group, and S_W is one product of all the columns centred on their
class means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ClassError, RankError
from .ingest import LabeledDataset
from .pca import Subspace

LDA_RANK_RTOL = 1e-8
DEFAULT_REG_SCALE = 1e-6


@dataclass(frozen=True, eq=False)
class ScatterPair:
    """Within/between class scatter with the total mean."""

    s_w: np.ndarray
    s_b: np.ndarray
    total_mean: np.ndarray


def scatter(ds: LabeledDataset) -> ScatterPair:
    """Class scatter matrices S_W and S_B of a labeled dataset.

    The columns are grouped by label in one stable sort, so each class keeps
    its samples in the order given; the bits depend on that order."""
    if ds.num_classes < 2:
        raise ClassError("scatter needs at least two classes")
    counts = np.bincount(ds.labels)  # a LabeledDataset holds every class
    columns = ds.features[:, np.argsort(ds.labels, kind="stable")]
    starts = np.cumsum(counts) - counts
    class_sums = np.add.reduceat(columns, starts, axis=1)
    class_means = class_sums / counts
    total_mean = class_sums.sum(axis=1) / counts.sum()

    centered = columns - np.repeat(class_means, counts, axis=1)
    diff = class_means - total_mean[:, None]
    return ScatterPair(centered @ centered.T, (diff * counts) @ diff.T, total_mean)


def fit_lda(ds: LabeledDataset) -> Subspace:
    """Fit the Fisher discriminant basis (top generalized eigenvectors).

    It keeps min(C - 1, rank) discriminants: the C - 1 that C class means
    give at most (Belhumeur, Hespanha & Kriegman, "Eigenfaces vs.
    Fisherfaces", IEEE TPAMI 19(7), 1997), fewer when the informative rank,
    the count of generalized eigenvalues above LDA_RANK_RTOL of the largest,
    is lower, as for data of fewer than C - 1 dimensions. A rank of 0 raises
    RankError. S_W is ridged by DEFAULT_REG_SCALE * trace(S_W) / d before
    inversion; scatter refuses fewer than two classes.
    """
    pair = scatter(ds)
    reg = DEFAULT_REG_SCALE * float(np.trace(pair.s_w)) / pair.s_w.shape[0]
    pairs = linalg.gen_eig(pair.s_b, pair.s_w, reg)
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
