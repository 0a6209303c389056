"""The symmetric and generalized eigensolvers and their input checks.

Matrices are 2-D float64 numpy arrays; where a matrix holds samples,
each column is one sample vector. Every function is pure and returns
freshly allocated arrays.

The factorizations are numpy's LAPACK routines (`eigh`, `cholesky`,
`inv`); this module adds the contracts the rest of the package relies
on: input validation (`as_matrix`, and symmetry for the eigensolvers),
descending eigenvalue order, a deterministic sign for every eigenvector,
and SingularityError in place of the LinAlgError of a failed Cholesky
factorization in `gen_eig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, SingularityError

SYMMETRY_RTOL = 1e-10
SPD_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class EigenPairs:
    """Full spectrum of a symmetric problem, sorted by descending eigenvalue.

    values: 1-D array, values[j] >= values[j+1].
    vectors: matrix whose column j is the unit-norm eigenvector for values[j].
    """

    values: np.ndarray
    vectors: np.ndarray


def as_matrix(a, name="matrix") -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"{name} must be 2-D and non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{name} contains NaN or Inf")
    return m


def _check_symmetric(a, name) -> np.ndarray:
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    scale_ = np.abs(a).max()
    if scale_ > 0 and np.abs(a - a.T).max() > SYMMETRY_RTOL * scale_:
        raise DomainError(f"{name} is not symmetric within {SYMMETRY_RTOL} relative")
    return 0.5 * (a + a.T)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # deterministic orientation: largest-magnitude entry of each column is positive
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _eigh_descending(a: np.ndarray):
    # a is symmetric already; eigh's ascending order reversed
    values, vectors = np.linalg.eigh(a)
    return values[::-1].copy(), vectors[:, ::-1]


def sym_eig(a) -> EigenPairs:
    """Full eigendecomposition of a symmetric matrix (LAPACK via np.linalg.eigh).

    Returns eigenvalues sorted descending with matching orthonormal
    eigenvector columns, each oriented by _fix_signs.
    """
    values, vectors = _eigh_descending(_check_symmetric(a, "a"))
    return EigenPairs(values, _fix_signs(vectors))


def gen_eig(s_b, s_w, reg: float) -> EigenPairs:
    """Generalized eigenproblem (s_w + reg*I)^-1 s_b v = lambda v.

    Solved by Cholesky whitening: with L L^T = s_w + reg*I the symmetric
    problem L^-1 s_b L^-T shares the eigenvalues, and its eigenvectors map
    back through L^-T; L is inverted once and both products reuse the
    inverse. Returned vectors are unit Euclidean norm (they are not
    mutually orthogonal in general). Raises SingularityError when
    s_w + reg*I has no Cholesky factor or a condition estimate above
    SPD_COND_LIMIT.
    """
    s_b = _check_symmetric(s_b, "s_b")
    s_w = _check_symmetric(s_w, "s_w")
    if s_b.shape != s_w.shape:
        raise DimensionError(f"gen_eig: shapes differ ({s_b.shape} vs {s_w.shape})")
    if not np.isfinite(reg) or reg < 0:
        raise DomainError("reg must be a finite value >= 0")

    try:
        l = np.linalg.cholesky(s_w + reg * np.eye(s_w.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            "s_w + reg*I is numerically singular; increase reg"
        ) from exc
    diag = np.diag(l)
    if (diag.max() / diag.min()) ** 2 > SPD_COND_LIMIT:
        raise SingularityError(
            "s_w + reg*I condition estimate exceeds 1e12; increase reg"
        )

    # B = L^-1 s_b L^-T, symmetrized against round-off
    linv = np.linalg.inv(l)
    b = linv @ s_b @ linv.T
    values, vectors = _eigh_descending(0.5 * (b + b.T))
    vectors = linv.T @ vectors
    vectors = vectors / np.sqrt((vectors * vectors).sum(axis=0))
    return EigenPairs(values, _fix_signs(vectors))
