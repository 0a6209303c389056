"""Eigenface-style principal component analysis.

The covariance is taken unnormalized (X_bar X_bar^T, no 1/p factor);
eigenvectors are scale invariant so downstream projections are unaffected.
When there are fewer samples than pixels the spectrum is computed on the
small Gram matrix X_bar^T X_bar and lifted back to the ambient space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, DomainError, RankError
from .ingest import LabeledDataset

RANK_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class Subspace:
    """A learned linear projection: x -> basis^T (x - mean).

    A PCA basis has orthonormal columns. An LDA basis has unit-norm columns
    that are not mutually orthogonal in general; so has the Fisherface map,
    an LDA fitted in PCA coordinates composed with that PCA into one
    projection from pixel space.
    """

    mean: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        if self.mean.shape[0] != self.basis.shape[0]:
            raise DimensionError("mean and basis ambient dimensions differ")

    @property
    def retained(self) -> int:
        return self.basis.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]


def fit_pca(ds: LabeledDataset) -> Subspace:
    """Fit the top min(p - C, d, rank) principal components of the sample
    columns centered on their mean (at least 1; as C >= 1, at most p - 1).

    p - C is the most components that leave a subsequent LDA a nonsingular
    within-class scatter (Belhumeur, Hespanha & Kriegman, 1997), not a
    required count: centered data of lower usable rank, such as a pixel
    that never varies or a sample enrolled twice, keeps its rank instead,
    and the LDA's ridge covers the rest. The usable rank counts the
    eigenvalues of the centered scatter above RANK_RTOL of the largest.
    Raises RankError on rank 0.
    """
    p = ds.num_samples
    if p < 2:
        raise DomainError("PCA needs at least two samples")
    retained = min(max(1, p - ds.num_classes), ds.dim)

    m = ds.features.mean(axis=1)
    x = ds.features - m[:, None]
    # Gram trick when p < d: the nonzero spectrum of X X^T equals that of X^T X
    gram = p < ds.dim
    pairs = linalg.sym_eig(x.T @ x if gram else x @ x.T)
    # the spectrum is non-empty and descending, so when its largest value is
    # <= 0 no value exceeds RANK_RTOL of it and the count is 0
    rank = int(np.count_nonzero(pairs.values > RANK_RTOL * pairs.values[0]))
    if rank == 0:
        raise RankError("degenerate dataset: all samples identical (rank 0)")
    retained = min(retained, rank)
    if gram:
        lifted = x @ pairs.vectors[:, :retained]
        basis = lifted / np.sqrt((lifted * lifted).sum(axis=0))
        basis = linalg._fix_signs(basis)
    else:
        basis = pairs.vectors[:, :retained].copy()
    return Subspace(m, basis)


def project(s: Subspace, x: np.ndarray) -> np.ndarray:
    """Project a vector (or matrix of column vectors) into the subspace.

    x may have any real dtype, an image's uint8 pixels included."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != s.ambient_dim:
        raise DimensionError(
            f"input dimension {x.shape[0]} != ambient dimension {s.ambient_dim}"
        )
    if x.ndim == 1:
        return s.basis.T @ (x - s.mean)
    return s.basis.T @ (x - s.mean[:, None])
